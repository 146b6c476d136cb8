//! A minimal JSON value: recursive-descent parsing and compact rendering.
//!
//! The workspace vendors no JSON crate, so this module is the one shared
//! implementation used by the bench suite (reading committed `BENCH_*.json`
//! baselines), the service protocol (`idlog-core::service`), and the server.
//! It covers the JSON the workspace itself writes — objects, arrays,
//! strings, numbers, booleans, null — not a general-purpose
//! implementation (no duplicate-key policy). Integer literals are carried
//! exactly as [`Json::Int`] so protocol fields like a `u64` seed survive
//! the round trip bit-for-bit; everything else numeric is `f64`.

/// A minimal JSON value (see module docs for scope).
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-integer (or out-of-range) number, carried as `f64`.
    Num(f64),
    /// An integer literal, carried exactly (`i128` covers the full `u64`
    /// and `i64` wire ranges).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (integers convert, with
    /// rounding above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a number
    /// that losslessly is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if (0..=u64::MAX as i128).contains(n) => Some(*n as u64),
            // Floats above 2^64 would saturate rather than convert.
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload as a signed integer, if this is a number that
    /// losslessly is one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => i64::try_from(*n).ok(),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => Some(*n as i64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Render as compact single-line JSON. `parse(render(v)) == v` for
    /// every value this module produces.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    // Integers render without a trailing `.0` so counters
                    // round-trip byte-identically.
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Int(n) => out.push_str(&format!("{n}")),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for a number value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Convenience constructor for an exact integer value.
    pub fn int(n: impl Into<i128>) -> Json {
        Json::Int(n.into())
    }
}

/// Equality treats `Int` and `Num` holding the same mathematical value as
/// equal, so a programmatically built `Json::num(42.0)` still matches the
/// `Json::Int(42)` its rendering parses back to.
impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::Int(a), Json::Int(b)) => a == b,
            (Json::Int(i), Json::Num(f)) | (Json::Num(f), Json::Int(i)) => {
                *f == *i as f64 && f.fract() == 0.0 && *i == *f as i128
            }
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Array(a), Json::Array(b)) => a == b,
            (Json::Object(a), Json::Object(b)) => a == b,
            _ => false,
        }
    }
}

/// Escape a string for embedding in a JSON document (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so without a cap one line of `[`s overflows the stack of the
/// thread parsing it; the workspace's own documents nest a handful deep.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let s = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("bad number at byte {start}"))?;
    // Integer literals are kept exact; anything with a fraction, exponent,
    // or beyond i128 falls back to f64.
    if let Ok(n) = s.parse::<i128>() {
        return Ok(Json::Int(n));
    }
    s.parse()
        .ok()
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

/// The four hex digits of a `\uXXXX` escape starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    std::str::from_utf8(hex)
        .ok()
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| "bad \\u escape".to_string())
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..=0xDBFF).contains(&code) {
                            // UTF-16 high surrogate: standard encoders (e.g.
                            // Python's json.dumps with ensure_ascii) emit
                            // supplementary-plane characters as a \u pair;
                            // combine it with the following low surrogate.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err("unpaired \\u surrogate".into());
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err("unpaired \\u surrogate".into());
                            }
                            *pos += 6;
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            out.push(char::from_u32(combined).ok_or("bad \\u code point")?);
                        } else if (0xDC00..=0xDFFF).contains(&code) {
                            return Err("unpaired \\u surrogate".into());
                        } else {
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8 sequences pass through verbatim.
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(bytes, pos, depth)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_workspace_grammar() {
        let doc =
            Json::parse(r#"{"s": "a\"bA", "n": -1.5e2, "t": true, "x": null, "a": [1, {}, []]}"#)
                .unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("a\"bA"));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(-150.0));
        assert_eq!(doc.get("t"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("x"), Some(&Json::Null));
        assert_eq!(
            doc.get("a").and_then(Json::as_array).map(<[_]>::len),
            Some(3)
        );
        assert!(Json::parse("{\"k\": 1} trailing").is_err());
        assert!(Json::parse("{\"k\"").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1_000_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = "{\"k\":".repeat(1_000_000);
        assert!(Json::parse(&objects).is_err());
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert!(Json::parse(&past_cap).is_err());
    }

    #[test]
    fn render_round_trips() {
        let v = Json::Object(vec![
            ("name".into(), Json::str("a \"quoted\"\nline")),
            ("count".into(), Json::num(42.0)),
            ("frac".into(), Json::num(1.5)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "items".into(),
                Json::Array(vec![Json::num(1.0), Json::str("x")]),
            ),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Integers render without a fractional tail.
        assert!(text.contains("\"count\":42,"), "{text}");
        assert!(text.contains("\"frac\":1.5"), "{text}");
    }

    #[test]
    fn integer_accessors_reject_fractions() {
        assert_eq!(Json::num(7.0).as_u64(), Some(7));
        assert_eq!(Json::num(7.5).as_u64(), None);
        assert_eq!(Json::num(-1.0).as_u64(), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Null.as_bool(), None);
    }

    #[test]
    fn escape_covers_control_characters() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn integer_literals_are_exact_beyond_f64_precision() {
        // u64::MAX is not representable as f64; it must survive anyway.
        let line = format!("{}", u64::MAX);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v, Json::Int(u64::MAX as i128));
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.render(), line);
        // 2^53 + 1 is the first integer f64 silently rounds.
        let v = Json::parse("9007199254740993").unwrap();
        assert_eq!(v.as_u64(), Some(9007199254740993));
        assert_eq!(v.render(), "9007199254740993");
        assert_eq!(Json::parse("-42").unwrap().as_i64(), Some(-42));
        // Fractions and exponents still land on f64.
        assert_eq!(Json::parse("1e3").unwrap(), Json::num(1000.0));
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn int_and_num_compare_by_value() {
        assert_eq!(Json::Int(42), Json::num(42.0));
        assert_ne!(Json::Int(42), Json::num(42.5));
        // Rounding to the same f64 is not equality.
        assert_ne!(Json::Int(u64::MAX as i128), Json::num(u64::MAX as f64));
    }

    #[test]
    fn surrogate_pairs_decode_to_supplementary_characters() {
        // As emitted by json.dumps("\U0001F600") with ensure_ascii.
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        let v = Json::parse(r#""a\ud83d\ude00bA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\u{1F600}bA"));
        // Raw (unescaped) multi-byte UTF-8 still passes through.
        assert_eq!(Json::parse("\"😀\"").unwrap().as_str(), Some("😀"));
        // Lone or reversed surrogates are protocol errors, not panics.
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ud83dx""#).is_err());
        assert!(Json::parse(r#""\ud83dA""#).is_err());
        assert!(Json::parse(r#""\ude00""#).is_err());
    }
}
