//! The JSON the system still reads and writes, for people and for other
//! programs: an export's `manifest.json` (read back by an import, including
//! one an older build wrote), `puddle-stat --json` and torture failure
//! artifacts. Sized to those shapes: objects, arrays, strings and unsigned
//! 64-bit integers; no floats, signs, booleans or `null`. [`Value::pretty`]
//! lays a document out the way those files have always looked (two-space
//! indent, `"key": value`, no trailing newline).

use std::fmt;

/// A JSON document of the shapes above. Object keys keep their order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An unsigned integer.
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in key order as written or read.
    Obj(Vec<(String, Value)>),
}

/// A document that is not JSON, or not the shape its reader expects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

fn err<T>(msg: impl Into<String>) -> Result<T, Error> {
    Err(Error(msg.into()))
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Num(n.into())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Value {
    /// An object of `fields`, in order.
    pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
        Value::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
    }

    /// The value under `key` of an object.
    pub fn field(&self, key: &str) -> Result<&Value, Error> {
        let Value::Obj(fields) = self else {
            return err(format!("expected an object holding `{key}`"));
        };
        match fields.iter().find(|(k, _)| k == key) {
            Some((_, v)) => Ok(v),
            None => err(format!("missing `{key}`")),
        }
    }

    /// The number this is.
    pub fn u64(&self) -> Result<u64, Error> {
        match self {
            Value::Num(n) => Ok(*n),
            _ => err("expected a number"),
        }
    }

    /// The string this is.
    pub fn str(&self) -> Result<&str, Error> {
        match self {
            Value::Str(s) => Ok(s),
            _ => err("expected a string"),
        }
    }

    /// The elements of the array this is.
    pub fn arr(&self) -> Result<&[Value], Error> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => err("expected an array"),
        }
    }

    /// The document as indented text.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, level: usize) {
        let newline = |out: &mut String, level: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', 2 * level));
        };
        match self {
            Value::Num(n) => out.push_str(&n.to_string()),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) if items.is_empty() => out.push_str("[]"),
            Value::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { "," });
                    newline(out, level + 1);
                    item.write(out, level + 1);
                }
                newline(out, level);
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { "," });
                    newline(out, level + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, level + 1);
                }
                newline(out, level);
                out.push('}');
            }
        }
    }

    /// Parses a whole document: one value, surrounded by nothing but
    /// whitespace.
    pub fn parse(text: &[u8]) -> Result<Value, Error> {
        let text = std::str::from_utf8(text).map_err(|e| Error(format!("not UTF-8: {e}")))?;
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }
}

fn write_str(out: &mut String, s: &str) {
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting deeper than this is refused: no shape above needs a tenth of
/// it, and the parser recurses per level.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `b` after any whitespace, or fails naming what was expected.
    fn expect(&mut self, b: u8) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() != Some(b) {
            return err(format!("expected `{}` at offset {}", b as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    /// Whether the next non-whitespace byte is `b`; consumes it if so.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(b);
        self.pos += hit as usize;
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return err("nested too deeply");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'0'..=b'9') => self.number(),
            Some(open @ (b'[' | b'{')) => {
                self.pos += 1;
                let close = if open == b'[' { b']' } else { b'}' };
                let (mut items, mut fields) = (Vec::new(), Vec::new());
                if !self.eat(close) {
                    loop {
                        if open == b'[' {
                            items.push(self.value(depth + 1)?);
                        } else {
                            self.skip_ws();
                            let key = self.string()?;
                            self.expect(b':')?;
                            fields.push((key, self.value(depth + 1)?));
                        }
                        if self.eat(close) {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(if open == b'[' {
                    Value::Arr(items)
                } else {
                    Value::Obj(fields)
                })
            }
            Some(_) => err(format!("unexpected byte at offset {}", self.pos)),
            None => err("unexpected end of input"),
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let digits = &self.text[start..self.pos];
        digits
            .parse()
            .map(Value::Num)
            .map_err(|_| Error(format!("`{digits}` is not a u64")))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self.text.get(self.pos..self.pos + 4).unwrap_or_default();
        let code = match digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            true if digits.len() == 4 => u32::from_str_radix(digits, 16).expect("4 hex digits"),
            _ => return err(format!("bad \\u escape at offset {}", self.pos)),
        };
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            let Some(b) = self.peek() else {
                return err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {}
                _ => return err(format!("control byte in string at offset {}", self.pos - 1)),
            }
            let escape = self.peek();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{08}',
                Some(b'f') => '\u{0c}',
                Some(b'u') => {
                    let mut code = self.hex4()?;
                    // A high surrogate pairs with the `\u` low one after it.
                    if (0xd800..0xdc00).contains(&code) && self.text[self.pos..].starts_with("\\u")
                    {
                        self.pos += 2;
                        let low = self.hex4()?;
                        if (0xdc00..0xe000).contains(&low) {
                            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        }
                    }
                    char::from_u32(code).ok_or_else(|| Error("unpaired surrogate".into()))?
                }
                _ => return err(format!("bad escape at offset {}", self.pos - 1)),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_roundtrip_through_the_writer() {
        let doc = Value::obj([
            ("name", "q\"uote \\ \u{1}\n\t ü 水 🦀".into()),
            ("max", u64::MAX.into()),
            ("empty", Value::Arr(Vec::new())),
            ("none", Value::Obj(Vec::new())),
            (
                "rows",
                vec![Value::obj([("a", 1u64.into())]), 2u64.into()].into(),
            ),
        ]);
        let text = doc.pretty();
        assert_eq!(Value::parse(text.as_bytes()), Ok(doc.clone()));
        assert!(text.starts_with("{\n  \"name\": \"q\\\"uote \\\\ \\u0001\\n\\t ü 水 🦀\","));
        assert!(text.contains("\"empty\": [],\n  \"none\": {},"), "{text}");
        // Compact text and escapes the writer never emits read the same.
        let compact = r#"{"name":"q\"uote \\ \u0001\n\t \u00fc 水 \ud83e\udd80","max":18446744073709551615,
            "empty":[],"none":{},"rows":[{"a":1},2]}"#;
        assert_eq!(Value::parse(compact.as_bytes()), Ok(doc));
    }

    #[test]
    fn what_is_not_one_of_the_shapes_is_refused() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1 2]",
            "-1",
            "1.5",
            "1e3",
            "true",
            "null",
            "18446744073709551616",
            "\"a",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\udc00\"",
            "\"\\ud800\"",
            "\"tab\there\"",
            "{} {}",
            "\u{feff}{}",
        ] {
            assert!(Value::parse(bad.as_bytes()).is_err(), "{bad:?} parsed");
        }
        assert!(Value::parse(&[b'"', 0xff, b'"']).is_err());
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Value::parse(deep.as_bytes()).is_err());
    }

    #[test]
    fn readers_name_what_is_missing() {
        let doc = Value::parse(br#"{"n": 3, "s": "x", "a": [1]}"#).unwrap();
        assert_eq!(doc.field("n").and_then(Value::u64), Ok(3));
        assert_eq!(doc.field("s").and_then(Value::str), Ok("x"));
        assert_eq!(doc.field("a").and_then(Value::arr).map(<[_]>::len), Ok(1));
        assert_eq!(doc.field("z"), Err(Error("missing `z`".into())));
        assert!(doc.field("s").and_then(Value::u64).is_err());
        assert!(Value::Num(1).field("n").is_err());
    }
}
