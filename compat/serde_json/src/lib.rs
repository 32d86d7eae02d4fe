//! Offline shim of `serde_json` over the vendored `serde` shim.
//!
//! Compact output (`{"a":1}`), struct fields in declaration order, floats
//! printed with Rust's shortest-round-trip formatting and parsed with the
//! correctly-rounding std parser — so `f64` values survive a
//! serialize/parse cycle bit-exactly (the upstream `float_roundtrip`
//! contract the workspace enables). [`from_str`] and [`parse`] read a
//! document into a [`Value`], the one `Deserialize` type.

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error(e.to_string())
    }
}

/// Serialize a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out)?;
    Ok(out)
}

/// Deserialize a value from a JSON string; in this shim, only a [`Value`].
pub fn from_str<T: for<'de> Deserialize<'de>>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(Error::new("JSON cannot represent NaN or infinity"));
            }
            // Rust's Display for f64 is shortest-round-trip; "5" parses back
            // to 5.0 exactly, so integral floats need no ".0" suffix.
            out.push_str(&f.to_string());
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parse a complete JSON document.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at offset {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected {:?} at offset {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error::new(format!(
                "unexpected character {:?} at offset {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected ',' or ']' at offset {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}' at offset {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error::new(format!("invalid UTF-8 in string: {e}")))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape sequence"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require a following \uXXXX.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::new("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(
                                    char::from_u32(c)
                                        .ok_or_else(|| Error::new("invalid surrogate pair"))?,
                                );
                            } else {
                                out.push(
                                    char::from_u32(cp)
                                        .ok_or_else(|| Error::new("invalid \\u escape"))?,
                                );
                            }
                        }
                        other => {
                            return Err(Error::new(format!(
                                "invalid escape character {:?}",
                                other as char
                            )))
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(Error::new("unescaped control character in string"))
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::new("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            let f: f64 =
                text.parse().map_err(|e| Error::new(format!("bad number {text:?}: {e}")))?;
            Ok(Value::Float(f))
        } else if text.starts_with('-') {
            let i: i64 =
                text.parse().map_err(|e| Error::new(format!("bad number {text:?}: {e}")))?;
            Ok(Value::Int(i))
        } else {
            let u: u64 =
                text.parse().map_err(|e| Error::new(format!("bad number {text:?}: {e}")))?;
            Ok(Value::UInt(u))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for s in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v = parse(s).unwrap();
            let mut out = String::new();
            write_value(&v, &mut out).unwrap();
            assert_eq!(out, s);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 34.5, 1e-12, 123456.789012345, f64::MIN_POSITIVE, 2.0_f64.powi(60)] {
            let s = to_string(&f).unwrap();
            let back = match from_str(&s).unwrap() {
                Value::Float(back) => back,
                Value::UInt(u) => u as f64,
                other => panic!("{f} -> {s} -> {other:?}"),
            };
            assert_eq!(f.to_bits(), back.to_bits(), "{f} -> {s} -> {back}");
        }
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "a\"b\\c\nd\te\u{1F600}\u{07}";
        let json = to_string(&s.to_string()).unwrap();
        assert_eq!(from_str::<Value>(&json).unwrap(), Value::Str(s.to_string()));
    }

    #[test]
    fn nested_structures_round_trip() {
        let src = r#"{"a":[1,2.5,null,{"b":"x"}],"c":true}"#;
        let v = parse(src).unwrap();
        let mut out = String::new();
        write_value(&v, &mut out).unwrap();
        assert_eq!(out, src);
    }

    #[test]
    fn rejects_garbage() {
        for s in ["", "{", "[1,", "\"abc", "{\"a\":}", "tru", "1.2.3", "{}x"] {
            assert!(parse(s).is_err(), "{s:?} should fail");
        }
    }
}
