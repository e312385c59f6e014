//! Minimal JSON values: deterministic emission and a strict parser.
//!
//! The sweep engine and `SystemReport` serialise results as JSON so that
//! `BENCH_*.json` trajectories can be produced and diffed. The build
//! environment has no registry access, so rather than depending on `serde`
//! this module provides a tiny self-contained value type. Emission is
//! **deterministic**: object keys keep insertion order and numbers use
//! Rust's shortest round-trip formatting, so identical data always yields
//! byte-identical text.
//!
//! Emission is one recursive pass into one `String`: string escaping
//! scans bytes and copies each unescaped run whole. The parser borrows
//! the validated input and slices it for string runs and numbers.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (kept exact — counts can exceed 2^53).
    Uint(u64),
    /// Any other number. Non-finite values emit as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved on emission.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: `value.map(f).unwrap_or(Json::Null)`.
    pub fn option<T>(value: Option<T>, f: impl FnOnce(T) -> Json) -> Json {
        value.map(f).unwrap_or(Json::Null)
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parses a complete JSON document (no trailing input allowed).
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message for malformed input, including
    /// arrays and objects nested more than [`MAX_DEPTH`] deep.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing input"));
        }
        Ok(v)
    }
}

impl Json {
    /// Appends the JSON text of `self` to `out`: the one emitter, behind
    /// [`Display`](fmt::Display).
    fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Writing into a `String` cannot fail.
            Json::Uint(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

/// The JSON text, built in one pass into one buffer and handed to the
/// formatter with a single `write_str` (width and fill flags are ignored).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

/// Appends `s` as a quoted JSON string. The bytes are scanned and each
/// run that needs no escape is copied whole: `"`, `\`, `\n`, `\r` and `\t`
/// take their short escapes, the other C0 bytes `\u00xx` in lowercase hex,
/// and DEL and non-ASCII text pass through. Runs end only at ASCII bytes,
/// which are always char boundaries.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts
/// (serde_json's default recursion limit). The parser recurses once per
/// level, so the cap keeps hostile input from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A recursive-descent parser over validated UTF-8. It scans `bytes`
/// and stops only at ASCII bytes, which are always char boundaries, so
/// string runs and numbers are slices of `text` with no re-validation.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            at: self.pos,
            message,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    /// Parses one array or object, one level deeper.
    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // The scan stops only at a quote or a backslash.
                Some(_) => {
                    self.pos += 1;
                    let esc = *self.bytes.get(self.pos).ok_or(self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or(self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not paired here; the emitter
                            // never produces them.
                            out.push(char::from_u32(code).ok_or(self.err("bad \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let mut fractional = false;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !fractional && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Uint(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_is_deterministic_and_ordered() {
        let v = Json::obj(vec![
            ("b", Json::Uint(2)),
            ("a", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("s", Json::Str("he\"llo\n".into())),
            ("x", Json::Num(2.5)),
        ]);
        let text = v.to_string();
        assert_eq!(text, r#"{"b":2,"a":[null,true],"s":"he\"llo\n","x":2.5}"#);
        assert_eq!(text, v.to_string(), "repeat emission identical");
    }

    #[test]
    fn parse_round_trips_emitted_text() {
        let v = Json::obj(vec![
            (
                "counts",
                Json::Arr(vec![Json::Uint(0), Json::Uint(u64::MAX)]),
            ),
            ("f", Json::Num(-0.125)),
            ("tiny", Json::Num(3.2e-7)),
            ("none", Json::Null),
            ("tag", Json::Str("π → \"quoted\"\t".into())),
        ]);
        let text = v.to_string();
        let parsed = Json::parse(&text).expect("parses");
        assert_eq!(parsed.to_string(), text, "byte-identical round trip");
        assert_eq!(parsed, v);
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn get_walks_objects() {
        let v = Json::parse(r#"{"a": {"b": [1, 2.5, "x"]}}"#).unwrap();
        let inner = v.get("a").and_then(|a| a.get("b"));
        assert_eq!(
            inner,
            Some(&Json::Arr(vec![
                Json::Uint(1),
                Json::Num(2.5),
                Json::Str("x".into())
            ]))
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn malformed_input_reports_offset() {
        let e = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(e.at, 6);
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("[1] trailing").is_err());
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let e = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(e.message, "nesting too deep");
        assert_eq!(e.at, MAX_DEPTH);
        let e = Json::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.message, "nesting too deep");
        // Exactly MAX_DEPTH levels still parse.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    /// The emitter as it was before emission went into one buffer: one
    /// `Formatter` call per character and a `write!` per nested value.
    /// Kept as the reference the single-pass emitter must match.
    struct Reference<'a>(&'a Json);

    impl fmt::Display for Reference<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                Json::Null => f.write_str("null"),
                Json::Bool(b) => write!(f, "{b}"),
                Json::Uint(n) => write!(f, "{n}"),
                Json::Num(x) if x.is_finite() => write!(f, "{x}"),
                Json::Num(_) => f.write_str("null"),
                Json::Str(s) => reference_escaped(f, s),
                Json::Arr(items) => {
                    f.write_str("[")?;
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        write!(f, "{}", Reference(item))?;
                    }
                    f.write_str("]")
                }
                Json::Obj(pairs) => {
                    f.write_str("{")?;
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        reference_escaped(f, k)?;
                        write!(f, ":{}", Reference(v))?;
                    }
                    f.write_str("}")
                }
            }
        }
    }

    fn reference_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
        f.write_str("\"")?;
        for c in s.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_str(c.encode_utf8(&mut [0u8; 4]))?,
            }
        }
        f.write_str("\"")
    }

    /// Random JSON trees up to a fixed depth, biased toward the text the
    /// emitter treats specially: escapes, control bytes, DEL, multi-byte
    /// characters, signed zero, subnormals, non-finite numbers and the
    /// extremes of `u64`.
    struct Trees;

    fn pick_string(rng: &mut proptest::TestRng) -> String {
        const CHARS: [char; 22] = [
            'a',
            'Z',
            '0',
            ' ',
            '/',
            '"',
            '\\',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1}',
            '\u{8}',
            '\u{c}',
            '\u{1f}',
            '\u{7f}',
            '\u{80}',
            'é',
            'π',
            '→',
            '😀',
            '\u{10ffff}',
        ];
        let len = (rng.next_u64() % 12) as usize;
        (0..len)
            .map(|_| match rng.next_u64() % 8 {
                // Any scalar value, now and then.
                0 => char::from_u32((rng.next_u64() % 0x11_0000) as u32).unwrap_or('?'),
                _ => CHARS[(rng.next_u64() % CHARS.len() as u64) as usize],
            })
            .collect()
    }

    fn pick_number(rng: &mut proptest::TestRng) -> f64 {
        const SPECIAL: [f64; 12] = [
            0.0,
            -0.0,
            1.0,
            -2.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            18_446_744_073_709_551_616.0, // 2^64: one past u64::MAX
        ];
        match rng.next_u64() % 5 {
            0 => SPECIAL[(rng.next_u64() % SPECIAL.len() as u64) as usize],
            // Subnormal.
            1 => {
                f64::from_bits(rng.next_u64() % (1 << 52))
                    * if rng.next_u64().is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    }
            }
            // Any bit pattern: NaNs, infinities and every exponent.
            2 => f64::from_bits(rng.next_u64()),
            // Integral values, which emit without a fraction.
            3 => (rng.next_u64() % 1_000_000) as f64,
            _ => (rng.unit_f64() - 0.5) * 1e3,
        }
    }

    fn pick_tree(rng: &mut proptest::TestRng, depth: u32) -> Json {
        let leaves = 6;
        let kinds = if depth == 0 { leaves } else { leaves + 2 };
        match rng.next_u64() % kinds {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64().is_multiple_of(2)),
            2 => Json::Uint(match rng.next_u64() % 3 {
                0 => u64::MAX,
                1 => rng.next_u64() % 1000,
                _ => rng.next_u64(),
            }),
            3 | 4 => Json::Num(pick_number(rng)),
            5 => Json::Str(pick_string(rng)),
            6 => Json::Arr(
                (0..rng.next_u64() % 5)
                    .map(|_| pick_tree(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.next_u64() % 5)
                    .map(|_| (pick_string(rng), pick_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    impl proptest::Strategy for Trees {
        type Value = Json;

        fn pick(&self, rng: &mut proptest::TestRng) -> Json {
            pick_tree(rng, 4)
        }
    }

    /// The value `v` parses back as after emission: a non-finite number
    /// emits `null`, and a finite one whose text is a plain unsigned
    /// integer parses as [`Json::Uint`].
    fn as_parsed(v: &Json) -> Json {
        match v {
            Json::Num(x) if !x.is_finite() => Json::Null,
            Json::Num(x) => format!("{x}").parse().map_or(Json::Num(*x), Json::Uint),
            Json::Arr(items) => Json::Arr(items.iter().map(as_parsed).collect()),
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), as_parsed(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 2000, ..Default::default() })]

        #[test]
        fn emission_matches_the_reference_and_parses_back(v in Trees) {
            let text = v.to_string();
            proptest::prop_assert_eq!(&text, &Reference(&v).to_string());
            let parsed = Json::parse(&text);
            proptest::prop_assert_eq!(parsed, Ok(as_parsed(&v)), "text {}", text);
        }
    }
}
