//! Minimal JSON value type, writer, and recursive-descent parser.
//!
//! This crate deliberately has no dependencies (it sits under the MD
//! inner loop), so it carries its own small JSON layer instead of
//! serde_json. Only what telemetry snapshots and journal export need:
//! objects, arrays, strings, f64/u64/i64 numbers, bools, null.

use std::collections::BTreeMap;
use std::io::Write as _;

/// A JSON value. Object keys are ordered (BTreeMap) so snapshots are
/// deterministic and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Unsigned integers keep full u64 precision (counter values).
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    pub fn object() -> Json {
        Json::Object(BTreeMap::new())
    }

    /// Insert into an object; panics if `self` is not an object (a
    /// programming error inside this crate, never data-dependent).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Object(map) => {
                map.insert(key.to_string(), value.into());
            }
            _ => panic!("Json::set on non-object"),
        }
        self
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) if v >= 0 => Some(v as u64),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 => Some(v as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::U64(v) => i64::try_from(v).ok(),
            Json::I64(v) => Some(v),
            Json::F64(v) if v.fract() == 0.0 => Some(v as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(map) => Some(map),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut BTreeMap<String, Json>> {
        match self {
            Json::Object(map) => Some(map),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Pretty-printed encoding with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        self.encode(Some(2))
    }

    /// The writer emits bytes and the text is checked as UTF-8 once at
    /// the end, instead of once per number.
    fn encode(&self, indent: Option<usize>) -> String {
        let mut out = Vec::new();
        self.write(&mut out, indent, 0);
        String::from_utf8(out).expect("the JSON writer emits UTF-8")
    }

    fn write(&self, out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.extend_from_slice(b"[]");
                    return;
                }
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(b']');
            }
            Json::Object(map) => {
                if map.is_empty() {
                    out.extend_from_slice(b"{}");
                    return;
                }
                out.push(b'{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(b':');
                    if indent.is_some() {
                        out.push(b' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(b'}');
            }
        }
    }

    /// Parse a JSON document (full input must be consumed, modulo
    /// trailing whitespace).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            src: input,
            bytes: input.as_bytes(),
            pos: 0,
            stack: Vec::new(),
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing characters"));
        }
        Ok(value)
    }
}

/// Compact single-line encoding (`to_string()`, `{}`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.encode(None))
    }
}

/// Integer comparison, `v["n"] == 3`, with the accessors' number
/// coercions (an integral `F64` equals the same integer).
impl PartialEq<i32> for Json {
    fn eq(&self, other: &i32) -> bool {
        self.as_i64() == Some(*other as i64)
    }
}

/// `v["key"]`: the member, or `Null` when absent or `v` is not an object.
impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        static NULL: Json = Json::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

/// `v["key"] = x`: inserts into an object (a `Null` becomes an empty
/// object first); panics on any other variant.
impl std::ops::IndexMut<&str> for Json {
    fn index_mut(&mut self, key: &str) -> &mut Json {
        if self.is_null() {
            *self = Json::object();
        }
        match self {
            Json::Object(map) => map.entry(key.to_string()).or_insert(Json::Null),
            _ => panic!("Json index by key on non-object"),
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}
/// Non-negative signed values normalise to `U64`, matching what the
/// parser produces for the same text, so encode/parse round-trips
/// compare equal.
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        if v >= 0 {
            Json::U64(v as u64)
        } else {
            Json::I64(v)
        }
    }
}
impl From<i32> for Json {
    fn from(v: i32) -> Json {
        Json::from(v as i64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<&String> for Json {
    fn from(v: &String) -> Json {
        Json::Str(v.clone())
    }
}
impl From<&Json> for Json {
    fn from(v: &Json) -> Json {
        v.clone()
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Build a [`Json`] value with JSON-like syntax, in the style of
/// `serde_json::json!`: `json!({"n": 3, "xs": [1.0, x], "tag": name})`.
/// Object keys are string literals or parenthesised expressions; every
/// leaf is converted with `Json::from`.
#[macro_export]
macro_rules! json {
    (null) => {
        $crate::Json::Null
    };
    ([]) => {
        $crate::Json::Array(::std::vec::Vec::new())
    };
    ([ $($tt:tt)+ ]) => {{
        #[allow(clippy::vec_init_then_push)]
        let mut items = ::std::vec::Vec::new();
        $crate::json_internal!(@array items () $($tt)+);
        $crate::Json::Array(items)
    }};
    ({}) => {
        $crate::Json::object()
    };
    ({ $($tt:tt)+ }) => {{
        let mut map = ::std::collections::BTreeMap::new();
        $crate::json_internal!(@object map $($tt)+);
        $crate::Json::Object(map)
    }};
    ($other:expr) => {
        $crate::Json::from($other)
    };
}

/// Token muncher behind [`json!`]: splits array elements and object
/// values at top-level commas. Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    (@array $v:ident ($($cur:tt)+) , $($rest:tt)*) => {
        $v.push($crate::json!($($cur)+));
        $crate::json_internal!(@array $v () $($rest)*);
    };
    (@array $v:ident ($($cur:tt)+)) => {
        $v.push($crate::json!($($cur)+));
    };
    (@array $v:ident ()) => {};
    (@array $v:ident ($($cur:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_internal!(@array $v ($($cur)* $next) $($rest)*);
    };
    (@object $m:ident) => {};
    (@object $m:ident $key:tt : $($rest:tt)+) => {
        $crate::json_internal!(@value $m ($key) () $($rest)+);
    };
    (@value $m:ident ($key:tt) ($($cur:tt)+) , $($rest:tt)*) => {
        $m.insert(::std::string::ToString::to_string(&$key), $crate::json!($($cur)+));
        $crate::json_internal!(@object $m $($rest)*);
    };
    (@value $m:ident ($key:tt) ($($cur:tt)+)) => {
        $m.insert(::std::string::ToString::to_string(&$key), $crate::json!($($cur)+));
    };
    (@value $m:ident ($key:tt) ($($cur:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_internal!(@value $m ($key) ($($cur)* $next) $($rest)*);
    };
}

fn newline_indent(out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push(b'\n');
        for _ in 0..width * depth {
            out.push(b' ');
        }
    }
}

/// Shortest round-trip text, byte-identical to std `Display`, plus `.0`
/// on integral values so they parse back as `F64` rather than an integer.
fn write_f64(out: &mut Vec<u8>, v: f64) {
    if v.is_finite() {
        if crate::ryu::write_display(out, v) {
            out.extend_from_slice(b".0");
        }
    } else {
        // JSON has no NaN/Inf; null is the least-surprising encoding.
        out.extend_from_slice(b"null");
    }
}

/// Quoted, escaped `s`; runs that need no escaping are copied whole.
fn write_escaped(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.extend_from_slice(&s.as_bytes()[run..i]);
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => {
                let _ = write!(out, "\\u{:04x}", b);
            }
        }
        run = i + 1;
    }
    out.extend_from_slice(&s.as_bytes()[run..]);
    out.push(b'"');
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: &str) -> JsonError {
        JsonError {
            offset,
            message: message.to_string(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Elements of every array still open, innermost last. Each array is
    /// moved out at its `]` into a `Vec` of exactly its length.
    stack: Vec<Json>,
}

impl<'a> Parser<'a> {
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
            Err(JsonError::at(
                self.pos,
                &format!("expected '{}'", byte as char),
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::at(self.pos, &format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(JsonError::at(self.pos, "expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let base = self.stack.len();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(Vec::new()));
        }
        loop {
            self.skip_ws();
            let item = self.value()?;
            self.stack.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(self.stack.drain(base..).collect()));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step;
            // both are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| JsonError::at(self.bytes.len(), "unterminated string"))?;
            let end = self.pos + run;
            out.push_str(&self.src[self.pos..end]);
            self.pos = end + 1;
            if self.bytes[end] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{0008}'),
                Some(b'f') => out.push('\u{000c}'),
                Some(b'u') => {
                    let start = self.pos + 1;
                    let hex = self
                        .src
                        .get(start..start + 4)
                        .ok_or_else(|| JsonError::at(self.pos, "bad \\u escape"))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| JsonError::at(self.pos, "bad \\u escape"))?;
                    // Surrogate pairs are not needed for telemetry
                    // payloads; map lone surrogates to U+FFFD.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                _ => return Err(JsonError::at(self.pos, "bad escape")),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonError::at(start, "invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let mut obj = Json::object();
        obj.set("name", "dispatch_latency")
            .set("count", 42u64)
            .set("mean", 1.5)
            .set("neg", -3i64)
            .set("ok", true)
            .set("none", Json::Null)
            .set("tags", Json::Array(vec![Json::from("a"), Json::from("b")]));
        let text = obj.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn parses_nested_and_pretty() {
        let text = r#"{"a": [1, 2.5, {"b": "x\ny"}], "c": null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        let pretty = v.to_string_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::Str("tab\there \"quote\" \u{1}".to_string());
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn json_macro_builds_nested_values() {
        let x = 2.5;
        let name = String::from("villin");
        let v = json!({
            "n": 3,
            "neg": -1,
            "xs": [1.0, x * 2.0, null],
            "tag": &name,
            "nested": {"ok": true, "none": null, "empty": {}},
            "opt": Some(4u64),
            ("dyn" ): name.len(),
        });
        assert_eq!(v.get("n"), Some(&Json::U64(3)));
        assert_eq!(v.get("neg"), Some(&Json::I64(-1)));
        assert_eq!(
            v.get("xs"),
            Some(&Json::Array(vec![
                Json::F64(1.0),
                Json::F64(5.0),
                Json::Null
            ]))
        );
        assert_eq!(v.get("tag").and_then(Json::as_str), Some("villin"));
        assert_eq!(
            v.get("nested")
                .and_then(|n| n.get("ok"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(v.get("opt").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("dyn").and_then(Json::as_u64), Some(6));
        assert_eq!(json!([]), Json::Array(vec![]));
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn u64_precision_preserved() {
        let big = u64::MAX - 1;
        let text = Json::U64(big).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(big));
    }
}
