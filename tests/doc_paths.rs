//! Every repository path the user-facing documents name in backticks
//! exists: a word of an inline code span in README.md, DESIGN.md or
//! LANGUAGE.md that starts with a top-level directory (`crates/`,
//! `programs/`, …), or that names a root file (`BENCHMARK.json`,
//! `DESIGN.md`, …). A `:line` or `::item` suffix is cut off first, and a
//! path with a placeholder or a glob (`programs/golden/<stem>.out`,
//! `programs/golden/*.check`) needs only its directory. Fenced code blocks
//! hold commands, not references, and are skipped.

use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "LANGUAGE.md"];

const TOP: [&str; 7] = [
    "crates/",
    "programs/",
    "benchmark/",
    "tests/",
    "examples/",
    "vendor/",
    ".github/",
];

/// `README.md`, `BENCHMARK.json`: an upper-case stem and an extension, the
/// way the repository names its root files.
fn names_a_root_file(word: &str) -> bool {
    let Some((stem, ext)) = word.split_once('.') else {
        return false;
    };
    let stem_ok = stem.starts_with(|c: char| c.is_ascii_uppercase())
        && stem
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_' || c == '-');
    stem_ok && !ext.is_empty() && ext.chars().all(|c| c.is_ascii_lowercase())
}

/// The path a word names, when it names one: without its `:line` or
/// `::item` suffix, and cut to its directory at a placeholder or a glob.
fn path_of(word: &str) -> Option<&str> {
    let word = word.trim_end_matches([',', ';', ')', '.']);
    if !TOP.iter().any(|top| word.starts_with(top)) && !names_a_root_file(word) {
        return None;
    }
    let word = word.split(':').next().unwrap_or(word);
    match word.find(['<', '*', '{']) {
        Some(at) => Some(&word[..word[..at].rfind('/').map_or(0, |slash| slash + 1)]),
        None => Some(word),
    }
}

/// The inline code spans of `text`, with their 1-based line numbers.
fn code_spans(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut fenced = false;
    for (n, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let mut parts = line.split('`');
        parts.next();
        while let (Some(span), Some(_)) = (parts.next(), parts.next()) {
            out.push((n + 1, span));
        }
    }
    out
}

#[test]
fn paths_named_in_the_docs_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("a document");
        for (line, span) in code_spans(&text) {
            for path in span.split_whitespace().filter_map(path_of) {
                checked += 1;
                if !root.join(path).exists() {
                    missing.push(format!("{doc}:{line}: `{path}`"));
                }
            }
        }
    }
    assert!(
        checked > 50,
        "only {checked} paths found: is the scan broken?"
    );
    assert!(missing.is_empty(), "stale paths:\n{}", missing.join("\n"));
}

#[test]
fn suffixes_placeholders_and_non_paths() {
    assert_eq!(
        path_of("benchmark/src/batch.rs:306"),
        Some("benchmark/src/batch.rs")
    );
    assert_eq!(
        path_of("tests/end_to_end.rs::all_depts"),
        Some("tests/end_to_end.rs")
    );
    assert_eq!(
        path_of("programs/golden/<stem>.out"),
        Some("programs/golden/")
    );
    assert_eq!(path_of("programs/golden/*.check"), Some("programs/golden/"));
    assert_eq!(path_of("DESIGN.md,"), Some("DESIGN.md"));
    assert_eq!(path_of("Cargo.toml"), None);
    assert_eq!(path_of("idlog-core/src/eval.rs"), None);
    assert_eq!(path_of("E001"), None);
    let spans = code_spans("a `x` b `y z`\n```\n`skipped`\n```\n`w`");
    assert_eq!(spans, [(1, "x"), (1, "y z"), (5, "w")]);
}
