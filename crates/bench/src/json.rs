//! Minimal line-oriented JSON for the `geoplace-serve` protocol.
//!
//! The workspace vendors only a marker stub of serde, so the service
//! protocol hand-rolls the subset of JSON it needs: one value per line,
//! objects with string keys, arrays, finite numbers, strings with the
//! standard escapes, booleans and null. Parsing is a straightforward
//! recursive descent over bytes; rendering is compact (no whitespace)
//! so one response is always one line.
//!
//! Because the parser sits on the untrusted side of a long-running
//! service, nesting is capped at `MAX_DEPTH` levels: unbounded
//! recursion on a hostile `[[[[…` line would overflow the stack and
//! kill the session, which the serve protocol promises never happens.

/// A parsed JSON value. Objects preserve insertion order so rendered
/// responses are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string with escapes already resolved.
    String(String),
    /// `[ ... ]`.
    Array(Vec<Value>),
    /// `{ ... }`, insertion-ordered.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (the protocol is one value per line).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!(
                "trailing characters after the JSON value at byte {}",
                parser.pos
            ));
        }
        Ok(value)
    }

    /// Member lookup on an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, rejecting
    /// fractional and out-of-range values.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9.007_199_254_740_992e15).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Compact (single-line) rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => render_number(*n, out),
            Value::String(s) => render_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Number(f64::from(n))
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Number(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

/// Builds an insertion-ordered object from `(key, value)` pairs.
pub fn object(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn render_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional degradation.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        // Rust's shortest-roundtrip float formatting is valid JSON.
        out.push_str(&format!("{n}"));
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest permitted array/object nesting — far beyond any protocol
/// shape, small enough that recursion can never threaten the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current array/object nesting, checked against [`MAX_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect_byte(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected character {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, String> {
        self.descend()?;
        let items = self.array_body();
        self.depth -= 1;
        items
    }

    fn array_body(&mut self) -> Result<Value, String> {
        self.expect_byte(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.descend()?;
        let members = self.object_body();
        self.depth -= 1;
        members
    }

    fn object_body(&mut self) -> Result<Value, String> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let second = self.hex4()?;
                                    let combined = 0x10000
                                        + ((first - 0xD800) << 10)
                                        + (second.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(first)
                            };
                            let c = c.ok_or_else(|| {
                                format!("invalid \\u escape ending at byte {}", self.pos)
                            })?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Strings are UTF-8 already; copy whole chars.
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8")?;
                    let Some(c) = text.chars().next() else {
                        return Err("unterminated string".into());
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(hex)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number bytes at {start}"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number {text:?} at byte {start}"));
        }
        Ok(Value::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_the_protocol_shapes() -> Result<(), String> {
        for text in [
            r#"{"cmd":"advance"}"#,
            r#"{"cmd":"vm_arrive","memory_gb":4.5,"lifetime_slots":8,"profile":"web"}"#,
            r#"{"ok":true,"arrived":[3,4],"departed":[],"note":null}"#,
            r#"[1,-2.5,1e3,"x\n\"y\""]"#,
        ] {
            let value = Value::parse(text)?;
            let rendered = value.render();
            assert_eq!(Value::parse(&rendered)?, value, "{text}");
        }
        Ok(())
    }

    #[test]
    fn accessors_pull_typed_members() -> Result<(), String> {
        let v = Value::parse(r#"{"cmd":"decide","n":7,"deep":{"ok":false},"xs":[1,2]}"#)?;
        assert_eq!(v.get("cmd").and_then(Value::as_str), Some("decide"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(7));
        assert_eq!(
            v.get("deep")
                .and_then(|d| d.get("ok"))
                .and_then(Value::as_bool),
            Some(false)
        );
        assert_eq!(
            v.get("xs").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("absent"), None);
        Ok(())
    }

    #[test]
    fn rejects_malformed_lines() {
        for text in [
            "",
            "{",
            r#"{"cmd" "advance"}"#,
            r#"{"cmd":}"#,
            "[1,2",
            r#""unterminated"#,
            "1e999",
            "nul",
            r#"{"a":1} trailing"#,
            r#""bad \q escape""#,
        ] {
            assert!(Value::parse(text).is_err(), "{text:?} must not parse");
        }
    }

    #[test]
    fn escapes_and_unicode_survive() -> Result<(), String> {
        let v = Value::parse(r#""tab\t quote\" slash\/ A 😀""#)?;
        assert_eq!(v.as_str(), Some("tab\t quote\" slash/ A \u{1F600}"));
        let rendered = Value::String("a\"b\\c\nd\u{1}".into()).render();
        assert_eq!(rendered, "\"a\\\"b\\\\c\\nd\\u0001\"");
        Ok(())
    }

    #[test]
    fn numbers_render_compactly() {
        assert_eq!(Value::Number(3.0).render(), "3");
        assert_eq!(Value::Number(-0.125).render(), "-0.125");
        assert_eq!(Value::Number(f64::NAN).render(), "null");
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() -> Result<(), String> {
        // Within the cap: parses fine.
        let shallow = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        Value::parse(&shallow)?;
        // One past the cap: a structured error.
        let edge = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let e = Value::parse(&edge).err().ok_or("depth cap not enforced")?;
        assert!(e.contains("nesting"), "{e}");
        // Absurdly deep (would previously recurse once per byte and
        // overflow the stack): still just an error, session-safe.
        assert!(Value::parse(&"[".repeat(200_000)).is_err());
        assert!(Value::parse(&r#"{"a":"#.repeat(100_000)).is_err());
        Ok(())
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Value::Number(7.0).as_u64(), Some(7));
        assert_eq!(Value::Number(7.5).as_u64(), None);
        assert_eq!(Value::Number(-1.0).as_u64(), None);
    }
}
