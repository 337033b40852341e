//! Hand-rolled JSON: one encoder/decoder shared by the gateway's small
//! HTTP bodies, the operator tools that parse them back, and the
//! repository benchmark's result files. (The
//! gateway's two bulk bodies — megabytes of numbers — have a typed
//! streaming codec of their own in `igcn-gateway`; a tree of one node
//! per number is the wrong shape for them.)
//!
//! The workspace builds hermetically (no `serde_json`); this is the
//! single implementation: an order-preserving value tree, a compact
//! encoder with full string escaping, and a strict recursive-descent
//! parser.
//!
//! # Number fidelity
//!
//! * `u64`/`i64` round-trip exactly ([`JsonValue::Uint`] /
//!   [`JsonValue::Int`] keep full 64-bit precision — correlation ids
//!   are not squeezed through an `f64`).
//! * `f32` round-trips **bit-exactly** through text: values are widened
//!   to `f64`, printed with Rust's shortest-round-trip `Display`, and
//!   on the way back parsed as `f64` then narrowed. Because the `f64`
//!   is exactly the widened `f32`, the narrowing conversion recovers
//!   the original bits — the property the gateway's bit-identity
//!   contract rests on ([`JsonValue::as_f32`]).
//! * Non-finite floats use the bare tokens `NaN`, `Infinity` and
//!   `-Infinity` (a documented extension both ends of the wire share;
//!   NaN payload bits are not preserved — use the binary protocol for
//!   that level of fidelity).

use std::fmt;

/// Maximum nesting depth the parser accepts (arrays + objects).
const MAX_DEPTH: usize = 128;

/// A parsed or to-be-encoded JSON document.
///
/// Objects preserve insertion order so encoded documents stay
/// diffable and deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer token (no sign, no fraction, no exponent).
    Uint(u64),
    /// A negative integer token.
    Int(i64),
    /// Any other number token (fraction, exponent, or 64-bit overflow).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Object(Vec<(String, JsonValue)>),
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Wraps an `f32` so that decoding with [`JsonValue::as_f32`]
    /// recovers the exact bits (see the module docs).
    pub fn from_f32(v: f32) -> JsonValue {
        JsonValue::Float(v as f64)
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Encodes compactly (no whitespace) into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Uint(u) => {
                let mut buf = [0u8; 20];
                out.push_str(format_u64(*u, &mut buf));
            }
            JsonValue::Int(i) => out.push_str(&i.to_string()),
            JsonValue::Float(v) => write_f64(*v, out),
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Encodes compactly into a fresh string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Encodes with two-space indentation — the style of the
    /// benchmark's result files.
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(key, out);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            // Leaves (and empty containers) encode compactly; one row
            // of a table stays one line.
            other => other.write(out),
        }
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric value as `u64` (exact for `Uint`; `Int`/`Float` only
    /// when the value is a non-negative integer in range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Uint(u) => Some(*u),
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            JsonValue::Float(f)
                if *f >= 0.0 && f.fract() == 0.0 && *f <= 9_007_199_254_740_992.0 =>
            {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// Numeric value as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Uint(u) => Some(*u as f64),
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Numeric value narrowed to `f32` — exact when the value was
    /// produced by [`JsonValue::from_f32`] (see the module docs).
    pub fn as_f32(&self) -> Option<f32> {
        self.as_f64().map(|f| f as f32)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Uint(v)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Uint(v as u64)
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::Uint(v as u64)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        if v >= 0 {
            JsonValue::Uint(v as u64)
        } else {
            JsonValue::Int(v)
        }
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}

/// Builds an insertion-ordered object from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Formats a `u64` without allocating.
fn format_u64(mut v: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("digits are ASCII")
}

fn write_f64(v: f64, out: &mut String) {
    use std::fmt::Write;
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("Infinity");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Infinity");
    } else if v == v.trunc() && v.abs() < 1e15 {
        // Keep integral floats recognisable as numbers with a decimal
        // point, so the round trip stays in `Float`.
        write!(out, "{v:.1}").expect("writing to String cannot fail");
    } else {
        // Rust's shortest-round-trip Display.
        write!(out, "{v}").expect("writing to String cannot fail");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                write!(out, "\\u{:04x}", c as u32).expect("writing to String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'N') => self.literal("NaN", JsonValue::Float(f64::NAN)),
            Some(b'I') => self.literal("Infinity", JsonValue::Float(f64::INFINITY)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-Infinity") => {
                self.pos += "-Infinity".len();
                Ok(JsonValue::Float(f64::NEG_INFINITY))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
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
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let first = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: the low half must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(self.err(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let token =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number tokens are ASCII");
        if self.pos == start + usize::from(negative) {
            return Err(self.err("expected digits"));
        }
        if integral {
            if negative {
                if let Ok(i) = token.parse::<i64>() {
                    return Ok(JsonValue::Int(i));
                }
            } else if let Ok(u) = token.parse::<u64>() {
                return Ok(JsonValue::Uint(u));
            }
        }
        token
            .parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonError { offset: start, message: format!("bad number '{token}'") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &JsonValue) -> JsonValue {
        JsonValue::parse(&v.encode()).expect("own encoding parses")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            JsonValue::Null,
            JsonValue::Bool(true),
            JsonValue::Bool(false),
            JsonValue::Uint(0),
            JsonValue::Uint(u64::MAX),
            JsonValue::Int(-1),
            JsonValue::Int(i64::MIN),
            JsonValue::Float(0.5),
            JsonValue::Float(-123.456e-7),
            JsonValue::Str(String::new()),
            JsonValue::Str("plain".to_string()),
        ] {
            assert_eq!(round_trip(&v), v, "{v:?}");
        }
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let nasty =
            "quote:\" backslash:\\ newline:\n tab:\t cr:\r nul:\u{0} bell:\u{7} high:\u{10348} e:é";
        let v = JsonValue::Str(nasty.to_string());
        let encoded = v.encode();
        assert!(encoded.contains("\\\""), "quotes escaped");
        assert!(encoded.contains("\\\\"), "backslashes escaped");
        assert!(encoded.contains("\\u0000"), "control chars escaped");
        assert_eq!(round_trip(&v), v);
        // Escaped input (incl. a surrogate pair) decodes correctly.
        let parsed = JsonValue::parse(r#""a\u0041\n\ud800\udf48""#).unwrap();
        assert_eq!(parsed.as_str(), Some("aA\n\u{10348}"));
    }

    #[test]
    fn f32_values_round_trip_bit_exactly() {
        let cases = [
            0.0f32,
            -0.0,
            0.3,
            1.0 / 3.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1.0e-45, // smallest subnormal
            core::f32::consts::PI,
            -7.394601e-23,
        ];
        for &x in &cases {
            let v = JsonValue::from_f32(x);
            let back = round_trip(&v).as_f32().expect("numeric");
            assert_eq!(back.to_bits(), x.to_bits(), "{x:?} changed bits");
        }
    }

    #[test]
    fn non_finite_floats_use_extension_tokens() {
        assert_eq!(JsonValue::Float(f64::INFINITY).encode(), "Infinity");
        assert_eq!(JsonValue::Float(f64::NEG_INFINITY).encode(), "-Infinity");
        assert_eq!(JsonValue::Float(f64::NAN).encode(), "NaN");
        assert!(JsonValue::parse("NaN").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(JsonValue::parse("-Infinity").unwrap().as_f64(), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn nested_structures_round_trip_and_preserve_order() {
        let doc = obj([
            ("zeta", JsonValue::Uint(1)),
            ("alpha", JsonValue::Array(vec![JsonValue::Null, obj([("k", "v".into())])])),
            ("empty_arr", JsonValue::Array(vec![])),
            ("empty_obj", JsonValue::Object(vec![])),
        ]);
        assert_eq!(round_trip(&doc), doc);
        let encoded = doc.encode();
        assert!(
            encoded.find("zeta").unwrap() < encoded.find("alpha").unwrap(),
            "insertion order preserved"
        );
        // Pretty form parses back to the same tree.
        assert_eq!(JsonValue::parse(&doc.encode_pretty()).unwrap(), doc);
    }

    #[test]
    fn parser_handles_whitespace_and_rejects_garbage() {
        let v = JsonValue::parse(" {\n \"a\" : [ 1 , 2.5 ,\t-3 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "\"bad \\q escape\"",
            "01a",
            "[1] trailing",
            "nul",
            "\"\\ud800\"", // unpaired surrogate
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(JsonValue::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn integer_accessors_stay_exact() {
        let v = JsonValue::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let neg = JsonValue::parse("-9223372036854775808").unwrap();
        assert_eq!(neg, JsonValue::Int(i64::MIN));
        assert_eq!(neg.as_u64(), None);
        assert_eq!(JsonValue::Float(3.0).as_u64(), Some(3));
        assert_eq!(JsonValue::Float(3.5).as_u64(), None);
    }
}
