//! Minimal JSON value model with a deterministic printer and the one
//! parser that reads its output back.
//!
//! The experiment pipeline serializes every result to JSON, and the parallel
//! runner guarantees byte-identical output regardless of thread count. Both
//! properties hinge on the serializer being strictly deterministic, so this
//! crate keeps object members in **insertion order** (no hash maps) and
//! formats floats with Rust's shortest-roundtrip `{}` formatting.
//!
//! [`parse`] is sized by one property: for every file this printer wrote,
//! `parse(text)?.to_string_pretty() == text` (`to_string` for compact
//! ones). Strict JSON, no options: document order, duplicate keys rejected,
//! integer literals exact ([`Value::Int`], else [`Value::UInt`]; never
//! through `f64`), bounded nesting, no panic on any input. The round trip is
//! on *text*: an integral [`Value::Float`] of 1e15 or more prints without a
//! decimal point and reads back as an integer.
//!
//! # Examples
//!
//! ```
//! use bitsync_json::{parse, Value};
//!
//! let mut obj = Value::object();
//! obj.set("experiment", "relay");
//! obj.set("delays", vec![0.25, 1.5]);
//! let text = r#"{"experiment":"relay","delays":[0.25,1.5]}"#;
//! assert_eq!(obj.to_string(), text);
//! assert_eq!(parse(text), Ok(obj));
//! assert_eq!(parse("[1, 2").unwrap_err().offset, 5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

/// A JSON value with insertion-ordered objects.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// An unsigned integer beyond `i64` range.
    UInt(u64),
    /// A finite double (non-finite values serialize as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; members keep insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An empty JSON object.
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// Appends (or replaces) member `key` on an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        match self {
            Value::Object(members) => {
                let value = value.into();
                if let Some(slot) = members.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    members.push((key.to_string(), value));
                }
            }
            _ => panic!("Value::set on a non-object"),
        }
    }

    /// Builder-style [`set`](Value::set).
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Value {
        self.set(key, value);
        self
    }

    /// Looks up member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) if i >= 0 => Some(i as u64),
            Value::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline-free
    /// body, mirroring `serde_json::to_string_pretty`.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Value::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Object(members) if !members.is_empty() => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep integral floats recognizably floating-point ("1.0", not "1"),
        // matching what serde_json emits for f64 fields.
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&format!("{f}"));
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = String::new();
        match self {
            Value::Null => buf.push_str("null"),
            Value::Bool(b) => buf.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => buf.push_str(&i.to_string()),
            Value::UInt(u) => buf.push_str(&u.to_string()),
            Value::Float(x) => write_f64(&mut buf, *x),
            Value::Str(s) => write_escaped(&mut buf, s),
            Value::Array(items) => {
                buf.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        buf.push(',');
                    }
                    buf.push_str(&item.to_string());
                }
                buf.push(']');
            }
            Value::Object(members) => {
                buf.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        buf.push(',');
                    }
                    write_escaped(&mut buf, k);
                    buf.push(':');
                    buf.push_str(&v.to_string());
                }
                buf.push('}');
            }
        }
        f.write_str(&buf)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i as i64)
    }
}
impl From<u64> for Value {
    fn from(u: u64) -> Value {
        if u <= i64::MAX as u64 {
            Value::Int(u as i64)
        } else {
            Value::UInt(u)
        }
    }
}
impl From<u32> for Value {
    fn from(u: u32) -> Value {
        Value::Int(u as i64)
    }
}
impl From<u16> for Value {
    fn from(u: u16) -> Value {
        Value::Int(u as i64)
    }
}
impl From<usize> for Value {
    fn from(u: usize) -> Value {
        Value::from(u as u64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
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
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(items: &[T]) -> Value {
        Value::Array(items.iter().cloned().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

/// Conversion into a JSON [`Value`]; the experiment results implement this.
pub trait ToJson {
    /// Serializes `self` as a JSON value.
    fn to_json(&self) -> Value;
}

impl<T: ToJson> From<&T> for Value {
    fn from(t: &T) -> Value {
        t.to_json()
    }
}

/// JSON Lines: each value printed compact on its own `\n`-ended line —
/// the format of every trace and timeseries file.
///
/// ```
/// use bitsync_json::{jsonl, Value};
///
/// let rows = [1u64, 2].map(|t| Value::object().with("t", t));
/// assert_eq!(jsonl(rows), "{\"t\":1}\n{\"t\":2}\n");
/// ```
pub fn jsonl(values: impl IntoIterator<Item = Value>) -> String {
    let mut out = String::new();
    for v in values {
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}

/// Where two documents first differ, depth first in document order, as
/// `result.arms[2].mean_outdegree: 8.0 != 7.9` (`a`'s value first); `None`
/// when they are equal. What golden drift and a bundle comparison report.
pub fn first_difference(a: &Value, b: &Value) -> Option<String> {
    difference_at("", a, b)
}

fn difference_at(path: &str, a: &Value, b: &Value) -> Option<String> {
    match (a, b) {
        (Value::Object(x), Value::Object(y)) => {
            let dot = if path.is_empty() { "" } else { "." };
            for (i, (key, value)) in x.iter().enumerate() {
                match y.get(i) {
                    Some((k, v)) if k == key => {
                        let found = difference_at(&format!("{path}{dot}{key}"), value, v);
                        if found.is_some() {
                            return found;
                        }
                    }
                    Some((k, _)) => return Some(format!("{path}: member {key} != {k}")),
                    None => return Some(format!("{path}: member {key} is only in the first")),
                }
            }
            let (missing, _) = y.get(x.len())?;
            Some(format!("{path}: member {missing} is only in the second"))
        }
        (Value::Array(x), Value::Array(y)) => {
            let mut pairs = x.iter().zip(y).enumerate();
            let found = pairs.find_map(|(i, (a, b))| difference_at(&format!("{path}[{i}]"), a, b));
            let lengths = || format!("{path}: {} items != {}", x.len(), y.len());
            found.or_else(|| (x.len() != y.len()).then(lengths))
        }
        _ => (a != b).then(|| format!("{path}: {a} != {b}")),
    }
}

/// Why [`parse`] rejected a text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the text at which the problem was found.
    pub offset: usize,
    /// What was wrong there.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Containers may nest this deep; deeper input is a [`ParseError`], not a
/// stack overflow. The printer's own files stay under ten.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (the module docs say what is kept exact).
/// Duplicate keys are found by a linear scan: the objects this repository
/// writes have at most a few hundred members.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, at: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.at < text.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// Always on a character boundary: the cursor only steps over ASCII
    /// bytes one at a time and over everything else a whole run at once.
    at: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.at,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// Steps over `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.at += hit as usize;
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.at += 1;
                if open == b'{' {
                    self.object(depth + 1)
                } else {
                    self.array(depth + 1)
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'n') => self.word("null", Value::Null),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            _ => Err(self.err("expected a value")),
        }
    }

    fn word(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if !self.text[self.at..].starts_with(word) {
            return Err(self.err("expected a value"));
        }
        self.at += word.len();
        Ok(value)
    }

    /// The rest of an object, the cursor just past its `{`.
    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        let mut members: Vec<(String, Value)> = Vec::new();
        while self.another(b'}', members.is_empty())? {
            self.skip_ws();
            let key_at = self.at;
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                self.at = key_at;
                return Err(self.err(format!("duplicate key \"{key}\"")));
            }
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':' after the key"));
            }
            members.push((key, self.value(depth)?));
        }
        Ok(Value::Object(members))
    }

    /// The rest of an array, the cursor just past its `[`.
    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        let mut items = Vec::new();
        while self.another(b']', items.is_empty())? {
            items.push(self.value(depth)?);
        }
        Ok(Value::Array(items))
    }

    /// Whether a container closed by `close` has another element: steps
    /// over the closing bracket, or over the comma due unless `first`.
    fn another(&mut self, close: u8, first: bool) -> Result<bool, ParseError> {
        self.skip_ws();
        if self.eat(close) {
            return Ok(false);
        }
        if first || self.eat(b',') {
            return Ok(true);
        }
        Err(self.err("expected ',' or the closing bracket"))
    }

    /// A string, the cursor on its opening quote.
    fn string(&mut self) -> Result<String, ParseError> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            let run = self.at;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.at += 1;
            }
            out.push_str(&self.text[run..self.at]);
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in a string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character an escape stands for, the cursor just past its `\`.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(c @ (b'"' | b'\\' | b'/')) => c as char,
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.at += 1;
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) && self.text[self.at..].starts_with("\\u") {
                    self.at += 2;
                    let lo = self.hex4()?;
                    if (0xdc00..0xe000).contains(&lo) {
                        code = 0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00);
                    }
                }
                // A surrogate left unpaired is no `char`.
                return char::from_u32(code)
                    .ok_or_else(|| self.err("unpaired surrogate in a \\u escape"));
            }
            _ => return Err(self.err("unknown escape")),
        };
        self.at += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self.text.get(self.at..self.at + 4);
        let code = digits
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("expected four hex digits"))?;
        self.at += 4;
        Ok(code)
    }

    /// A number, the cursor on its first character. An integer literal that
    /// fits 64 bits is never converted through `f64`.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.at;
        let digits = |p: &mut Self| {
            let from = p.at;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.at += 1;
            }
            p.at - from
        };
        self.eat(b'-');
        let int_at = self.at;
        let int_digits = digits(self);
        if int_digits == 0 || (int_digits > 1 && self.text.as_bytes()[int_at] == b'0') {
            self.at = start;
            return Err(self.err("malformed number"));
        }
        let fraction = self.eat(b'.');
        if fraction && digits(self) == 0 {
            return Err(self.err("expected digits after the decimal point"));
        }
        let exponent = self.eat(b'e') || self.eat(b'E');
        if exponent {
            let _ = self.eat(b'+') || self.eat(b'-');
            if digits(self) == 0 {
                return Err(self.err("expected digits in the exponent"));
            }
        }
        let literal = &self.text[start..self.at];
        if !(fraction || exponent) {
            if let Ok(i) = literal.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = literal.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        match literal.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            _ => {
                self.at = start;
                Err(self.err("number out of range"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn compact_and_pretty_agree_on_scalars() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::from(true).to_string(), "true");
        assert_eq!(Value::from(-3i64).to_string(), "-3");
        assert_eq!(Value::from(1.5).to_string(), "1.5");
        assert_eq!(Value::from(2.0).to_string(), "2.0");
        assert_eq!(Value::from(f64::NAN).to_string(), "null");
        assert_eq!(Value::from("a\"b\n").to_string(), r#""a\"b\n""#);
    }

    #[test]
    fn objects_keep_insertion_order() {
        let v = Value::object()
            .with("zeta", 1u64)
            .with("alpha", 2u64)
            .with("mid", Value::object().with("x", 0.25));
        assert_eq!(v.to_string(), r#"{"zeta":1,"alpha":2,"mid":{"x":0.25}}"#);
    }

    #[test]
    fn set_replaces_in_place() {
        let mut v = Value::object().with("a", 1u64).with("b", 2u64);
        v.set("a", 9u64);
        assert_eq!(v.to_string(), r#"{"a":9,"b":2}"#);
    }

    #[test]
    fn pretty_matches_two_space_style() {
        let v = Value::object().with("name", "x").with("xs", vec![1u64, 2]);
        let expect = "{\n  \"name\": \"x\",\n  \"xs\": [\n    1,\n    2\n  ]\n}";
        assert_eq!(v.to_string_pretty(), expect);
    }

    #[test]
    fn empty_containers_stay_compact_in_pretty_mode() {
        let v = Value::object()
            .with("arr", Value::Array(vec![]))
            .with("obj", Value::object());
        assert_eq!(v.to_string_pretty(), "{\n  \"arr\": [],\n  \"obj\": {}\n}");
    }

    #[test]
    fn first_difference_names_the_path_and_both_values() {
        let doc = |outdegree: f64, extra: bool| {
            let mut arm = Value::object().with("mean_outdegree", outdegree);
            if extra {
                arm.set("sync", 0.5);
            }
            let arms = vec![Value::object(), Value::Null, arm];
            Value::object()
                .with("experiment", "ablation")
                .with("result", Value::object().with("arms", arms))
        };
        assert_eq!(first_difference(&doc(8.0, false), &doc(8.0, false)), None);
        assert_eq!(
            first_difference(&doc(8.0, false), &doc(7.9, false)).as_deref(),
            Some("result.arms[2].mean_outdegree: 8.0 != 7.9")
        );
        assert_eq!(
            first_difference(&doc(8.0, false), &doc(8.0, true)).as_deref(),
            Some("result.arms[2]: member sync is only in the second")
        );
        assert_eq!(
            first_difference(&Value::from(vec![1u64, 2]), &Value::from(vec![1u64])).as_deref(),
            Some(": 2 items != 1")
        );
    }

    #[test]
    fn accessors() {
        let v = Value::object().with("n", 5u64).with("f", 0.5);
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(0.5));
        assert!(v.get("missing").is_none());
    }

    fn print(v: &Value, pretty: bool) -> String {
        if pretty {
            v.to_string_pretty()
        } else {
            v.to_string()
        }
    }

    /// The property `parse` is sized by, on text: `text` reads back and
    /// prints to itself.
    fn assert_reads_back(text: &str, pretty: bool, what: &str) {
        let value = parse(text).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(print(&value, pretty) == text, "{what} does not print back");
    }

    /// Every JSON file the repository tracks was written by the printer:
    /// the 11 scaled goldens and the copied `perf.json`.
    #[test]
    fn every_tracked_file_reads_back_to_its_own_bytes() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = vec![root.join("BENCH_repro.json")];
        let golden = root.join("tests/golden");
        for entry in std::fs::read_dir(&golden).expect("tests/golden") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "json") {
                files.push(path);
            }
        }
        assert_eq!(files.len(), 12, "11 goldens + BENCH_repro.json: {files:?}");
        for path in files {
            let text = std::fs::read_to_string(&path).expect("tracked file");
            assert_reads_back(&text, true, &path.display().to_string());
        }
    }

    #[test]
    fn extreme_values_read_back_pretty_and_compact() {
        let v = Value::object()
            .with("max", u64::MAX)
            .with("min", i64::MIN)
            .with("e15", 1e15)
            .with("e300", 1e300)
            .with("denormal", 5e-324)
            .with("neg_zero", -0.0)
            .with(
                "text",
                "\" \\ / \n \r \t \u{7} \u{7f} \u{e9} \u{2028} \u{1f600}",
            )
            .with("empty_array", Value::Array(vec![]))
            .with("empty_object", Value::object())
            .with(
                "nested",
                vec![Value::Null, true.into(), vec![1.5, 2.0].into()],
            );
        for pretty in [true, false] {
            let text = print(&v, pretty);
            assert_reads_back(&text, pretty, &text);
            let back = parse(&text).unwrap();
            assert_eq!(back.get("max"), Some(&Value::UInt(u64::MAX)));
            assert_eq!(back.get("min"), Some(&Value::Int(i64::MIN)));
            assert_eq!(back.get("e300"), Some(&Value::Float(1e300)));
            assert_eq!(back.get("text"), v.get("text"));
            // The fixpoint is on text: 1e15 prints without a point.
            assert_eq!(back.get("e15"), Some(&Value::Int(1_000_000_000_000_000)));
            let zero = back.get("neg_zero").and_then(Value::as_f64).unwrap();
            assert!(zero == 0.0 && zero.is_sign_negative());
        }
    }

    #[test]
    fn integer_literals_stay_exact() {
        assert_eq!(parse("18446744073709551615"), Ok(Value::UInt(u64::MAX)));
        assert_eq!(parse("9223372036854775808"), Ok(Value::UInt(1 << 63)));
        assert_eq!(parse("-9223372036854775808"), Ok(Value::Int(i64::MIN)));
        assert_eq!(parse(" -0 "), Ok(Value::Int(0)));
        // A fraction, an exponent or a 65th bit makes a Float.
        assert_eq!(parse("7.0"), Ok(Value::Float(7.0)));
        assert_eq!(parse("7e0"), Ok(Value::Float(7.0)));
        assert_eq!(parse("-2E+3"), Ok(Value::Float(-2000.0)));
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Value::Float(18446744073709551616.0))
        );
        assert_eq!(
            parse("-9223372036854775809"),
            Ok(Value::Float(-9223372036854775809.0))
        );
        for bad in [
            "01", "1.", ".5", "-", "+1", "1e", "1e+", "0x10", "1e999", "-1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn strings_decode_every_escape_and_reject_the_rest() {
        assert_eq!(
            parse(r#""\" \\ \/ \b \f \n \r \t \u00e9 \ud83d\ude00""#),
            Ok(Value::from("\" \\ / \u{8} \u{c} \n \r \t \u{e9} \u{1f600}"))
        );
        let bad = [
            r#""\x""#,
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            "\"raw\nnewline\"",
            "\"open",
        ];
        for text in bad {
            assert!(parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn errors_carry_the_offset_of_the_problem() {
        let offset = |text: &str| parse(text).unwrap_err().offset;
        assert_eq!(offset(""), 0);
        assert_eq!(offset("nul"), 0);
        assert_eq!(offset("{\"a\": 1} x"), 9);
        assert_eq!(offset("[1,]"), 3);
        assert_eq!(offset("{\"a\" 1}"), 5);
        assert_eq!(offset("{,}"), 1);
        let dup = parse("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert_eq!(
            (dup.offset, dup.message.as_str()),
            (9, "duplicate key \"a\"")
        );
        assert_eq!(dup.to_string(), "duplicate key \"a\" at byte 9");
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(parse(&nested(MAX_DEPTH + 1)).unwrap_err().offset, MAX_DEPTH);
        assert!(parse(&"[".repeat(10_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(10_000)).is_err());
    }

    /// A run of hostile text: noise, the punctuation and literal prefixes
    /// that let the parser reach its inner states, and numbers at the edge
    /// of every integer width.
    fn hostile_chunk() -> impl Strategy<Value = Vec<u8>> {
        let fragments: [&str; 16] = [
            "{",
            "}",
            "[",
            "]",
            "\"",
            ":",
            ",",
            "\\u",
            "\\ud800",
            "tru",
            "null",
            "-",
            "0.",
            "1e999",
            "18446744073709551616",
            "-9223372036854775809",
        ];
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..64),
            (0usize..16).prop_map(move |i| fragments[i].as_bytes().to_vec()),
            any::<u64>().prop_map(|n| n.to_string().into_bytes()),
            any::<u64>().prop_map(|n| format!("{:e}", f64::from_bits(n)).into_bytes()),
            Just("[".repeat(10_000).into_bytes()),
        ]
    }

    proptest! {
        /// Hostile text — chunks as above, or a printed document cut short
        /// or with one chunk written over it — never panics the parser, and
        /// whatever it accepts prints to a text that reads back to itself.
        #[test]
        fn hostile_text_never_panics_and_accepted_text_reaches_a_fixpoint(
            chunks in proptest::collection::vec(hostile_chunk(), 0..24),
            victim in prop_oneof![Just(None), any::<u32>().prop_map(Some)],
            keep in any::<u16>(),
        ) {
            let bytes = match victim {
                Some(pick) => {
                    let doc = Value::object()
                        .with("seed", u64::MAX)
                        .with("rate", 0.25)
                        .with("name", "a \"quoted\" \u{e9}\n")
                        .with("rows", vec![Value::Null, Value::object().with("t_ns", 600u64)]);
                    let mut valid = print(&doc, pick % 2 == 0).into_bytes();
                    let at = (pick as usize / 2) % (valid.len() + 1);
                    let chunk = chunks.first().map_or(&[][..], Vec::as_slice);
                    let n = chunk.len().min(valid.len() - at);
                    valid[at..at + n].copy_from_slice(&chunk[..n]);
                    valid.truncate(valid.len().min(keep as usize + 1));
                    valid
                }
                None => chunks.concat(),
            };
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(value) = parse(&text) {
                for pretty in [true, false] {
                    let printed = print(&value, pretty);
                    let again = parse(&printed);
                    prop_assert!(again.is_ok(), "{:?} -> {}", again, printed);
                    prop_assert_eq!(print(&again.unwrap(), pretty), printed);
                }
            }
        }
    }
}
