//! The workspace's one JSON codec: a recursive-descent parser and a
//! pretty-printing serializer over [`Value`].
//!
//! The tree carries no serde. Traces ([`crate::Trace::to_json`]) and the
//! benchmark artifacts are written through [`Value::to_json`] and read back
//! with [`parse`]. The parser accepts objects, arrays, strings with the
//! common escapes, numbers, booleans and null, and preserves object key
//! order so diffs report in file order.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which covers every value the
    /// benchmark artifacts emit).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key on an object (`None` on other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number inside, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// On an object: replaces the value at `key` or appends the pair,
    /// preserving the order of existing keys. No-op on other variants.
    pub fn set(&mut self, key: &str, value: Value) {
        if let Value::Obj(fields) = self {
            match fields.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => fields.push((key.to_owned(), value)),
            }
        }
    }

    /// Serializes back to JSON (2-space indent, object key order
    /// preserved) — the write half of the parser above, used to merge new
    /// sections into an existing artifact without disturbing the rest.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(&fmt_num(*n)),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
                }
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 == fields.len() { "\n" } else { ",\n" });
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Integers print without a decimal point (greppable counters); other
/// values use `f64`'s shortest round-trip form. JSON has no literal for a
/// non-finite number, so NaN and the infinities become `null`.
fn fmt_num(n: f64) -> String {
    if !n.is_finite() {
        "null".to_owned()
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// A parse failure: byte offset and message.
#[derive(Debug)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
/// Returns [`ParseError`] on malformed input or trailing garbage.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { at: self.pos, msg: msg.to_owned() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not emitted by this harness;
                            // map unpairable code points to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (1–4 bytes) verbatim.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xc0 == 0x80 {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>().map(Value::Num).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_artifact_shapes() {
        let v = parse(
            r#"{
              "benchmark": "selection thread scaling",
              "host_threads": 16,
              "nested": {"a": [1, 2.5, -3e2], "flag": true, "none": null},
              "text": "line\nbreak \"quoted\" A"
            }"#,
        )
        .unwrap();
        assert_eq!(v.get("host_threads").and_then(Value::as_num), Some(16.0));
        let nested = v.get("nested").unwrap();
        assert_eq!(
            nested.get("a"),
            Some(&Value::Arr(vec![Value::Num(1.0), Value::Num(2.5), Value::Num(-300.0)]))
        );
        assert_eq!(nested.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(nested.get("none"), Some(&Value::Null));
        assert_eq!(v.get("text"), Some(&Value::Str("line\nbreak \"quoted\" A".into())));
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        match v {
            Value::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, vec!["z", "a", "m"]);
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn malformed_inputs_error_with_offsets() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "\"open", "1 2"] {
            let e = parse(bad).unwrap_err();
            assert!(e.to_string().contains("byte"), "{bad}: {e}");
        }
    }

    #[test]
    fn serializer_roundtrips_through_the_parser() {
        let doc = r#"{
          "name": "bench", "n": 16, "pi": 3.25, "neg": -2,
          "flags": [true, false, null],
          "nested": {"empty_arr": [], "empty_obj": {}, "text": "a\nb\"c\""}
        }"#;
        let v = parse(doc).unwrap();
        let emitted = v.to_json();
        assert_eq!(parse(&emitted).unwrap(), v, "serialize→parse must be identity");
        // Integers stay integers (greppable), floats keep their value.
        assert!(emitted.contains("\"n\": 16"), "{emitted}");
        assert!(emitted.contains("\"pi\": 3.25"), "{emitted}");
        // Non-finite numbers have no JSON literal: they are written as null,
        // so the output still parses.
        let odd = Value::Arr(vec![
            Value::Num(f64::NAN),
            Value::Num(f64::INFINITY),
            Value::Num(f64::NEG_INFINITY),
        ]);
        assert_eq!(parse(&odd.to_json()).unwrap(), Value::Arr(vec![Value::Null; 3]));
    }

    #[test]
    fn strings_escape_specials() {
        assert_eq!(Value::Str("a\"b\\c\n".into()).to_json(), "\"a\\\"b\\\\c\\n\"\n");
        assert_eq!(Value::Str("\u{1}".into()).to_json(), "\"\\u0001\"\n");
    }

    #[test]
    fn set_replaces_in_place_and_appends_new_keys() {
        let mut v = parse(r#"{"a": 1, "b": 2}"#).unwrap();
        v.set("a", Value::Num(9.0));
        v.set("c", Value::Str("new".into()));
        match &v {
            Value::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, vec!["a", "b", "c"], "replace keeps order, append goes last");
            }
            other => panic!("expected object, got {other:?}"),
        }
        assert_eq!(v.get("a").and_then(Value::as_num), Some(9.0));
    }

    #[test]
    fn roundtrips_the_real_artifact_if_present() {
        if let Ok(text) = std::fs::read_to_string("../../results/bench_baseline.json") {
            let v = parse(&text).expect("committed baseline must stay parseable");
            assert!(v.get("stages").is_some());
        }
    }
}
