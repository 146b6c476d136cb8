//! Rustc-style plain-text rendering of diagnostics.
//!
//! ```text
//! error[E010]: head variable Y is not bound by the body
//!  --> demo.idl:1:6
//!   |
//! 1 | p(X, Y) :- q(X).
//!   |      ^
//! ```
//!
//! Notes with a span render as their own excerpt under a `note:` header;
//! spanless notes render as `= note:` lines after the primary excerpt.
//! Diagnostics whose span is unknown (synthesized clauses) degrade to the
//! header line alone.

use idlog_common::json::escape;
use idlog_parser::Span;

use crate::diagnostic::Diagnostic;

/// Render one diagnostic against its source text. `filename` is used only
/// for the `-->` location lines.
pub fn render(diag: &Diagnostic, src: &str, filename: &str) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let gutter = gutter_width(diag, &lines);
    let mut out = String::new();

    out.push_str(&format!(
        "{}[{}]: {}\n",
        diag.severity.label(),
        diag.code,
        diag.message
    ));
    excerpt(&mut out, diag.span, &lines, filename, gutter);

    for note in &diag.notes {
        match note.span {
            Some(span) if span.is_known() => {
                out.push_str(&format!("note: {}\n", note.message));
                excerpt(&mut out, span, &lines, filename, gutter);
            }
            _ => {
                out.push_str(&format!(
                    "{} = note: {}\n",
                    " ".repeat(gutter + 1),
                    note.message
                ));
            }
        }
    }
    out
}

/// Width of the line-number gutter: enough for the largest line referenced.
fn gutter_width(diag: &Diagnostic, lines: &[&str]) -> usize {
    let mut max_line = diag.span.start.line;
    for note in &diag.notes {
        if let Some(s) = note.span {
            max_line = max_line.max(s.start.line);
        }
    }
    let max_line = (max_line as usize).min(lines.len().max(1));
    max_line.max(1).to_string().len()
}

/// Append the `--> file:line:col` pointer and caret-underlined source line.
fn excerpt(out: &mut String, span: Span, lines: &[&str], filename: &str, gutter: usize) {
    if !span.is_known() {
        return;
    }
    let pad = " ".repeat(gutter);
    out.push_str(&format!(
        "{pad}--> {filename}:{}:{}\n",
        span.start.line, span.start.col
    ));
    let Some(line) = lines.get(span.start.line as usize - 1) else {
        return;
    };
    out.push_str(&format!("{pad} |\n"));
    out.push_str(&format!("{:>gutter$} | {line}\n", span.start.line,));
    // Caret width: to the span end on the same line, else to end of line;
    // always at least one caret.
    let start = span.start.col as usize;
    let end = if span.end.line == span.start.line && span.end.col > span.start.col {
        span.end.col as usize
    } else {
        line.chars().count() + 1
    };
    let width = end.saturating_sub(start).max(1);
    out.push_str(&format!(
        "{pad} | {}{}\n",
        " ".repeat(start.saturating_sub(1)),
        "^".repeat(width)
    ));
}

/// Render a whole batch of diagnostics, separated by blank lines.
pub fn render_all(diags: &[Diagnostic], src: &str, filename: &str) -> String {
    diags
        .iter()
        .map(|d| render(d, src, filename))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Render a batch of diagnostics as a JSON array (machine-readable lint
/// output for CI and editor integration). Each element carries `code`,
/// `severity`, `file`, `message`, a `span` object (`null` when unknown,
/// 1-based lines and columns otherwise), and its `notes`.
pub fn render_json(diags: &[Diagnostic], filename: &str) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"span\":{},\"notes\":[",
            escape(filename),
            escape(d.code),
            escape(d.severity.label()),
            escape(&d.message),
            json_span(Some(d.span)),
        ));
        for (k, note) in d.notes.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"message\":\"{}\",\"span\":{}}}",
                escape(&note.message),
                json_span(note.span),
            ));
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

fn json_span(span: Option<Span>) -> String {
    match span.filter(Span::is_known) {
        None => "null".to_string(),
        Some(s) => format!(
            "{{\"line\":{},\"col\":{},\"end_line\":{},\"end_col\":{}}}",
            s.start.line, s.start.col, s.end.line, s.end.col
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_parser::Pos;

    fn span(line: u32, col: u32, end_col: u32) -> Span {
        Span::new(Pos { line, col }, Pos { line, col: end_col })
    }

    #[test]
    fn primary_excerpt_has_caret_under_span() {
        let src = "p(X, Y) :- q(X).\n";
        let d = Diagnostic::error("E010", span(1, 6, 7), "head variable Y is not bound");
        let r = render(&d, src, "demo.idl");
        assert_eq!(
            r,
            "error[E010]: head variable Y is not bound\n\
             \x20--> demo.idl:1:6\n\
             \x20 |\n\
             1 | p(X, Y) :- q(X).\n\
             \x20 |      ^\n"
        );
    }

    #[test]
    fn notes_render_with_and_without_spans() {
        let src = "p(X) :- q(X).\nr(X) :- q(X, X).\n";
        let d = Diagnostic::error("E006", span(2, 9, 16), "arity conflict")
            .with_note_at(span(1, 9, 13), "previously used here")
            .with_note("declared arity wins");
        let r = render(&d, src, "f.idl");
        assert!(r.contains("note: previously used here\n"), "{r}");
        assert!(r.contains("--> f.idl:1:9\n"), "{r}");
        assert!(r.contains("= note: declared arity wins\n"), "{r}");
        assert!(r.contains("^^^^^^^"), "{r}");
    }

    #[test]
    fn unknown_span_degrades_to_header() {
        let d = Diagnostic::warning("W001", Span::default(), "unused");
        assert_eq!(render(&d, "", "f.idl"), "warning[W001]: unused\n");
    }

    #[test]
    fn json_rendering_escapes_and_nulls() {
        let d = Diagnostic::error("E010", span(1, 6, 7), "head variable \"Y\"\nnot bound")
            .with_note("spanless note");
        let j = render_json(
            &[d, Diagnostic::warning("W001", Span::default(), "unused")],
            "f.idl",
        );
        assert!(j.starts_with('[') && j.ends_with(']'), "{j}");
        assert!(j.contains("\"code\":\"E010\""), "{j}");
        assert!(j.contains("\\\"Y\\\"\\nnot bound"), "{j}");
        assert!(
            j.contains("\"span\":{\"line\":1,\"col\":6,\"end_line\":1,\"end_col\":7}"),
            "{j}"
        );
        assert!(
            j.contains("\"severity\":\"warning\",\"message\":\"unused\",\"span\":null"),
            "{j}"
        );
        assert!(
            j.contains("{\"message\":\"spanless note\",\"span\":null}"),
            "{j}"
        );
    }

    #[test]
    fn multi_line_span_clamps_to_first_line() {
        let src = "p(X) :-\n  q(X).\n";
        let d = Diagnostic::error(
            "E999",
            Span::new(Pos { line: 1, col: 1 }, Pos { line: 2, col: 8 }),
            "whole clause",
        );
        let r = render(&d, src, "f.idl");
        assert!(r.contains("1 | p(X) :-\n"), "{r}");
        assert!(r.contains("| ^^^^^^^\n"), "{r}");
    }
}
