//! Minimal JSON writer/parser — the workspace's in-repo replacement for
//! `serde`/`serde_json` on the report and export paths.
//!
//! Three pieces:
//!
//! * [`Json`] — a value tree with a compact [`std::fmt::Display`] writer,
//! * [`Json::parse`] — a strict recursive-descent parser (objects, arrays,
//!   strings with escapes, numbers, booleans, null),
//! * [`ToJson`] — the trait report types implement instead of deriving
//!   `serde::Serialize`, with the [`impl_to_json!`](crate::impl_to_json)
//!   macro generating the impl for plain structs.
//!
//! ```
//! use hcc_types::json::{Json, ToJson};
//!
//! let v = Json::parse(r#"{"klo": 6.0, "uvm": true, "tags": ["a", "b"]}"#).unwrap();
//! assert_eq!(v.get("klo").and_then(Json::as_f64), Some(6.0));
//! assert_eq!(42u64.to_json().to_string(), "42");
//! ```

use std::fmt;

use crate::hash::Fnv64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (serialized without a fraction).
    U64(u64),
    /// A signed integer (serialized without a fraction).
    I64(i64),
    /// A float. Non-finite values serialize as `null` (JSON has no NaN).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Indexes into an array; `None` for other variants.
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// Numeric view (integers widen losslessly where possible).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Unsigned-integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Folds the value into `h` without rendering it: a variant tag, then
    /// the payload. Integers mix little-endian, floats as their raw
    /// IEEE-754 bits (so NaN and both infinities stay apart, where the
    /// text writer prints all three as `null`), strings and object keys
    /// as their bytes plus a `0xFF` terminator (a byte UTF-8 never
    /// contains, so one text cannot run into the next), arrays and
    /// objects after their length.
    pub fn mix(&self, h: &mut Fnv64) {
        match self {
            Json::Null => h.write_u8(0),
            Json::Bool(b) => {
                h.write_u8(1);
                h.write_bool(*b);
            }
            Json::U64(v) => {
                h.write_u8(2);
                h.write_u64(*v);
            }
            Json::I64(v) => {
                h.write_u8(3);
                h.write(&v.to_le_bytes());
            }
            Json::F64(v) => {
                h.write_u8(4);
                h.write_f64(*v);
            }
            Json::Str(s) => {
                h.write_u8(5);
                mix_text(h, s);
            }
            Json::Arr(items) => {
                h.write_u8(6);
                h.write_u64(items.len() as u64);
                for item in items {
                    item.mix(h);
                }
            }
            Json::Obj(fields) => {
                h.write_u8(7);
                h.write_u64(fields.len() as u64);
                for (k, v) in fields {
                    mix_text(h, k);
                    v.mix(h);
                }
            }
        }
    }

    /// Parses a JSON document (a single value with optional surrounding
    /// whitespace).
    ///
    /// # Errors
    /// Returns [`JsonError`] with a byte offset on malformed input or
    /// trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) => {
                if v.is_finite() {
                    // Keep a fraction so floats re-parse as floats.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn mix_text(h: &mut Fnv64, s: &str) {
    h.write(s.as_bytes());
    h.write_u8(0xFF);
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.error("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.error("invalid unicode escape"))?);
                            continue; // hex4 already advanced past digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.error("invalid utf-8"))?;
                    let c = s.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid unicode escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| JsonError {
            offset: start,
            message: format!("invalid number '{text}'"),
        })
    }
}

/// Conversion into a [`Json`] tree — the workspace's `Serialize`.
pub trait ToJson {
    /// Builds the JSON value.
    fn to_json(&self) -> Json;

    /// Convenience: serialize to a compact string.
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! uint_to_json {
    ($($ty:ty),+) => {
        $(impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::U64(u64::from(*self))
            }
        })+
    };
}
uint_to_json!(u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

macro_rules! int_to_json {
    ($($ty:ty),+) => {
        $(impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::I64(i64::from(*self))
            }
        })+
    };
}
int_to_json!(i8, i16, i32, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::F64(f64::from(*self))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

/// Generates a [`ToJson`](crate::json::ToJson) impl for a struct with
/// named, `ToJson` fields — the replacement for `#[derive(Serialize)]`.
///
/// ```
/// struct Point { x: u64, y: u64 }
/// hcc_types::impl_to_json!(Point { x, y });
///
/// use hcc_types::json::ToJson;
/// assert_eq!(Point { x: 1, y: 2 }.to_json_string(), r#"{"x":1,"y":2}"#);
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_compact_json() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("hcc".into())),
            ("count".into(), Json::U64(3)),
            ("ratio".into(), Json::F64(1.42)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"hcc","count":3,"ratio":1.42,"flags":[true,null]}"#
        );
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Json::Obj(vec![
            ("a".into(), Json::I64(-7)),
            ("b".into(), Json::F64(2.5)),
            ("s".into(), Json::Str("line\n\"quote\"".into())),
            ("arr".into(), Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("nested".into(), Json::Obj(vec![("x".into(), Json::Null)])),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn parser_handles_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , 2.0 , \"\\u0041\\t\" ] } ").unwrap();
        let arr = v.get("k").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.0));
        assert_eq!(arr[2].as_str(), Some("A\t"));
    }

    #[test]
    fn parser_handles_surrogate_pairs() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn integers_keep_full_precision() {
        let big = u64::MAX;
        let v = Json::parse(&Json::U64(big).to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        let neg = Json::parse("-9223372036854775808").unwrap();
        assert_eq!(neg, Json::I64(i64::MIN));
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    fn digest(v: &Json) -> u64 {
        let mut h = Fnv64::new();
        v.mix(&mut h);
        h.finish()
    }

    #[test]
    fn mix_separates_variants_keys_nesting_and_nonfinite_floats() {
        let one = Json::Obj(vec![("a".into(), Json::U64(1))]);
        assert_eq!(digest(&one), digest(&one.clone()));
        let distinct = [
            one.clone(),
            Json::Obj(vec![("a".into(), Json::F64(1.0))]),
            Json::Obj(vec![("a".into(), Json::I64(1))]),
            Json::Obj(vec![("b".into(), Json::U64(1))]),
            Json::Obj(vec![("a".into(), Json::Arr(vec![Json::U64(1)]))]),
            Json::Obj(vec![("a".into(), Json::Str("1".into()))]),
            Json::Arr(vec![Json::Str("a".into()), Json::U64(1)]),
            Json::U64(1),
            Json::Null,
            Json::F64(f64::NAN),
            Json::F64(f64::INFINITY),
            Json::F64(f64::NEG_INFINITY),
        ];
        for (i, a) in distinct.iter().enumerate() {
            for b in &distinct[i + 1..] {
                assert_ne!(digest(a), digest(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn to_json_primitives() {
        assert_eq!(42u32.to_json_string(), "42");
        assert_eq!((-3i64).to_json_string(), "-3");
        assert_eq!("hi".to_json_string(), "\"hi\"");
        assert_eq!(vec![1u64, 2].to_json_string(), "[1,2]");
        assert_eq!(Option::<u64>::None.to_json_string(), "null");
        assert_eq!((1u64, 2.0f64).to_json_string(), "[1,2.0]");
    }

    struct Demo {
        id: u64,
        label: String,
    }
    crate::impl_to_json!(Demo { id, label });

    #[test]
    fn struct_macro_emits_ordered_object() {
        let d = Demo {
            id: 9,
            label: "x".into(),
        };
        assert_eq!(d.to_json_string(), r#"{"id":9,"label":"x"}"#);
        let parsed = Json::parse(&d.to_json_string()).unwrap();
        assert_eq!(parsed.get("id").unwrap().as_u64(), Some(9));
    }
}
