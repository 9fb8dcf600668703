//! A minimal ordered-JSON writer and reader, the manifest fingerprint
//! hash, and the `git describe` helper.
//!
//! The workspace is zero-dependency by design, so the manifest and
//! telemetry streams are rendered with this hand-rolled writer rather
//! than serde. Objects emit fields in insertion order, which the
//! manifest uses to keep its layout stable across runs (and therefore
//! diffable). The matching reader ([`parse`]) is a strict
//! recursive-descent parser over the same subset of JSON the writer
//! emits — the bench regression gate uses it to read bench JSON, and
//! tests use it to check what the writer rendered.

use std::fmt::Write as _;

/// Escapes `s` as a JSON string literal (with quotes).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An insertion-ordered JSON object under construction.
///
/// # Example
///
/// ```
/// use cedar_obs::json::Obj;
///
/// let mut o = Obj::new();
/// o.str("name", "cedar");
/// o.u64("events", 42);
/// o.raw("nested", Obj::new().finish());
/// assert_eq!(o.finish(), r#"{"name":"cedar","events":42,"nested":{}}"#);
/// ```
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, name: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push_str(&escape(name));
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(&escape(value));
        self
    }

    /// Adds an unsigned-integer field.
    pub fn u64(&mut self, name: &str, value: u64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field with one decimal.
    pub fn f64(&mut self, name: &str, value: f64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{value:.1}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds an integer-or-null field.
    pub fn opt_u64(&mut self, name: &str, value: Option<u64>) -> &mut Self {
        self.key(name);
        match value {
            Some(v) => {
                let _ = write!(self.buf, "{v}");
            }
            None => self.buf.push_str("null"),
        }
        self
    }

    /// Adds a pre-rendered JSON value verbatim (nested object/array).
    pub fn raw(&mut self, name: &str, value: impl AsRef<str>) -> &mut Self {
        self.key(name);
        self.buf.push_str(value.as_ref());
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(&mut self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Renders an array of pre-rendered JSON values.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let body: Vec<String> = items.into_iter().collect();
    format!("[{}]", body.join(","))
}

/// Renders an array of strings.
pub fn str_array<'a, I: IntoIterator<Item = &'a str>>(items: I) -> String {
    array(items.into_iter().map(escape))
}

/// FNV-1a 64-bit hash — the manifest's configuration fingerprint. Stable
/// across platforms and runs: the same bytes always fingerprint the
/// same.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `git describe --always --dirty` of the working tree, when a git
/// binary and repository are reachable; `None` otherwise (the manifest
/// then records `null`). Best-effort by design — offline and
/// exported-tarball builds must not fail over provenance.
pub fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let s = s.trim();
    (!s.is_empty()).then(|| s.to_string())
}

/// A parsed JSON value. Object fields keep their textual order (the
/// parser is the reader-side mirror of [`Obj`]'s insertion ordering).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a field up in an object (first match); `None` for other
    /// value kinds or missing fields.
    pub fn get(&self, name: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with an
    /// exact `u64` representation.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Parses a complete JSON document. Strict: the whole input must be one
/// value (plus surrounding whitespace); trailing bytes, trailing commas,
/// unterminated literals and bad escapes are errors. Error messages
/// carry the byte offset so a malformed document diagnoses itself.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

/// Nesting bound for the recursive-descent parser — far above any
/// document the workspace emits, low enough that hostile input cannot
/// overflow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at offset {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| format!("truncated \\u at offset {}", self.pos))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| format!("bad \\u at offset {}", self.pos))?,
                                16,
                            )
                            .map_err(|_| format!("bad \\u at offset {}", self.pos))?;
                            // Surrogates are rejected rather than paired:
                            // nothing in the workspace emits them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u code at offset {}", self.pos))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at offset {}", self.pos))
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| format!("invalid UTF-8 at offset {start}"))?,
                    );
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number `{text}` at offset {start}"))
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn object_fields_keep_insertion_order() {
        let mut o = Obj::new();
        o.str("z", "last-added-first");
        o.u64("a", 1);
        o.bool("ok", true);
        o.opt_u64("w", None);
        assert_eq!(
            o.finish(),
            r#"{"z":"last-added-first","a":1,"ok":true,"w":null}"#
        );
    }

    #[test]
    fn arrays_render() {
        assert_eq!(str_array(["a", "b"]), r#"["a","b"]"#);
        assert_eq!(array(Vec::new()), "[]");
    }

    #[test]
    fn fnv1a_is_stable_and_discriminating() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"sched=heap"), fnv1a(b"sched=calendar"));
        assert_eq!(fnv1a(b"x"), fnv1a(b"x"));
    }

    #[test]
    fn parse_round_trips_what_the_writer_emits() {
        let mut o = Obj::new();
        o.str("name", "cedar \"v1\"\n");
        o.u64("events", 42);
        o.bool("ok", true);
        o.opt_u64("w", None);
        o.f64("rate", 2.5);
        o.raw("list", array(vec!["1".to_string(), "\"a\"".to_string()]));
        let v = parse(&o.finish()).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("cedar \"v1\"\n"));
        assert_eq!(v.get("events").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("w"), Some(&JsonValue::Null));
        assert_eq!(v.get("rate").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            v.get("list"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Str("a".to_string())
            ]))
        );
    }

    #[test]
    fn parse_accepts_whitespace_and_nesting() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : -2.5e1 } ] } ").unwrap();
        let arr = match v.get("a").unwrap() {
            JsonValue::Arr(a) => a,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").unwrap().as_f64(), Some(-25.0));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "nul",
            "{\"a\" 1}",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let fine = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&fine).is_ok());
    }

    #[test]
    fn typed_accessors_are_strict() {
        let v = parse("{\"n\":1.5,\"s\":\"x\",\"neg\":-1}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), None, "fractional");
        assert_eq!(v.get("neg").unwrap().as_u64(), None, "negative");
        assert_eq!(v.get("s").unwrap().as_f64(), None, "wrong kind");
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Num(1.0).get("x"), None, "non-object get");
    }
}
