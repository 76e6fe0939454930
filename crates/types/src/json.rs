//! Minimal JSON writer/parser — the workspace's in-repo replacement for
//! `serde`/`serde_json` on the report and export paths.
//!
//! Three pieces:
//!
//! * [`ToJson`] — the trait report types implement instead of deriving
//!   `serde::Serialize`: one method streams the value's tokens into a
//!   [`JsonOut`], and the [`impl_to_json!`](crate::impl_to_json) macro
//!   generates it for plain structs. No tree is built on the way out.
//! * [`JsonOut`] — the one writer, over three sinks: compact text into a
//!   `String` or, a buffer at a time, into any [`std::io::Write`], or a
//!   tagged token stream into an [`Fnv64`] digest.
//! * [`Json`] — the value tree [`Json::parse`] (a strict
//!   recursive-descent parser) returns, with accessors and a
//!   [`std::fmt::Display`] that goes through the same writer.
//!
//! ```
//! use hcc_types::json::{Json, ToJson};
//!
//! let v = Json::parse(r#"{"klo": 6.0, "uvm": true, "tags": ["a", "b"]}"#).unwrap();
//! assert_eq!(v.get("klo").and_then(Json::as_f64), Some(6.0));
//! assert_eq!(42u64.to_json_string(), "42");
//! ```

use std::fmt::{self, Write as _};
use std::io;

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

/// Containers nest at most this deep in a parsed document; deeper input
/// is refused instead of exhausting the parser's stack.
pub const MAX_DEPTH: usize = 128;

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

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (a single value with optional surrounding
    /// whitespace). Linear in the input's length.
    ///
    /// # Errors
    /// Returns [`JsonError`] with a byte offset on malformed input,
    /// trailing garbage, or containers nested past [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
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
        f.write_str(&self.to_json_string())
    }
}

impl ToJson for Json {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        match self {
            Json::Null => out.null(),
            Json::Bool(b) => out.bool(*b),
            Json::U64(v) => out.u64(*v),
            Json::I64(v) => out.i64(*v),
            Json::F64(v) => out.f64(*v),
            Json::Str(s) => out.str(s),
            Json::Arr(items) => out.seq(items),
            Json::Obj(fields) => out.obj(|o| {
                for (k, v) in fields {
                    o.field(k, v);
                }
            }),
        }
    }
}

// Digest-sink token tags: each token opens with one, so the stream is
// prefix-free. Strings and keys end in `TEXT_END`.
const NULL: u8 = 0;
const BOOL: u8 = 1;
const U64: u8 = 2;
const I64: u8 = 3;
const F64: u8 = 4;
const STR: u8 = 5;
const ARR: u8 = 6;
const OBJ: u8 = 7;
const CLOSE: u8 = 8;
/// A byte UTF-8 never contains, so one text cannot run into the next.
const TEXT_END: u8 = 0xFF;

/// How much text the I/O sink gathers before each write.
const IO_CHUNK: usize = 64 * 1024;

enum Sink<'a> {
    Text(&'a mut String),
    Digest(&'a mut Fnv64),
    /// Text gathered in `buf` and written to `to` a chunk at a time; the
    /// first write error stops the writes and waits for
    /// [`JsonOut::finish`].
    Io {
        buf: String,
        to: &'a mut dyn io::Write,
        err: Option<io::Error>,
    },
}

impl Sink<'_> {
    /// The text a text sink appends to; `None` for the digest.
    fn text(&mut self) -> Option<&mut String> {
        match self {
            Sink::Text(s) => Some(s),
            Sink::Io { buf, .. } => Some(buf),
            Sink::Digest(_) => None,
        }
    }
}

/// The streaming JSON writer [`ToJson::write_json`] drives.
///
/// Into a `String`, or through [`JsonOut::io`] into any writer, it writes
/// compact text: no whitespace, object keys in call order, strings escaped (`"`, `\\`, `\n`, `\r`, `\t`, other
/// controls as `\u00XX`), integers bare, and finite floats with a
/// fraction when integral below 1e15 (so they re-parse as floats),
/// non-finite ones as `null`.
///
/// Into an [`Fnv64`] it folds a token stream instead, never formatting:
/// a tag per token, integers little-endian, floats by their IEEE-754
/// bits (so NaN and both infinities stay apart, where text prints all
/// three as `null`), strings and keys as their bytes plus a `0xFF`
/// terminator, and containers between an open tag and a close tag.
pub struct JsonOut<'a> {
    sink: Sink<'a>,
    /// Text sink: the next value or key at this level needs a comma.
    comma: bool,
}

impl<'a> JsonOut<'a> {
    /// A writer appending compact JSON text to `out`.
    pub fn text(out: &'a mut String) -> Self {
        JsonOut {
            sink: Sink::Text(out),
            comma: false,
        }
    }

    /// A writer folding the token stream into `h`.
    pub fn digest(h: &'a mut Fnv64) -> Self {
        JsonOut {
            sink: Sink::Digest(h),
            comma: false,
        }
    }

    /// A writer streaming compact JSON text into `to`, the same bytes
    /// [`JsonOut::text`] appends, a 64 KiB chunk at a time. Call
    /// [`JsonOut::finish`] to write the rest and learn whether every
    /// write succeeded.
    pub fn io(to: &'a mut dyn io::Write) -> Self {
        JsonOut {
            sink: Sink::Io {
                buf: String::with_capacity(IO_CHUNK),
                to,
                err: None,
            },
            comma: false,
        }
    }

    /// Writes what an I/O sink still holds and flushes it, returning
    /// the first write error; a no-op `Ok` for the other sinks.
    pub fn finish(self) -> io::Result<()> {
        match self.sink {
            Sink::Io { buf, to, err } => match err {
                Some(e) => Err(e),
                None => {
                    to.write_all(buf.as_bytes())?;
                    to.flush()
                }
            },
            Sink::Text(_) | Sink::Digest(_) => Ok(()),
        }
    }

    /// Hands a full I/O buffer to its writer.
    fn spill(&mut self) {
        if let Sink::Io { buf, to, err } = &mut self.sink {
            if buf.len() >= IO_CHUNK {
                if err.is_none() {
                    *err = to.write_all(buf.as_bytes()).err();
                }
                buf.clear();
            }
        }
    }

    /// One token: its text after a separating comma, or its tag and
    /// payload bytes.
    fn token(&mut self, tag: u8, payload: &[u8], text: impl FnOnce(&mut String)) {
        let comma = self.comma;
        match &mut self.sink {
            Sink::Digest(h) => {
                h.write_u8(tag);
                h.write(payload);
            }
            sink => {
                let s = sink.text().expect("a text sink");
                if comma {
                    s.push(',');
                }
                text(s);
            }
        }
        self.comma = true;
        self.spill();
    }

    /// `null`.
    pub fn null(&mut self) {
        self.token(NULL, &[], |s| s.push_str("null"));
    }

    /// `true` / `false`.
    pub fn bool(&mut self, v: bool) {
        self.token(BOOL, &[u8::from(v)], |s| {
            s.push_str(if v { "true" } else { "false" });
        });
    }

    /// An unsigned integer.
    pub fn u64(&mut self, v: u64) {
        self.token(U64, &v.to_le_bytes(), |s| {
            let _ = write!(s, "{v}");
        });
    }

    /// A signed integer.
    pub fn i64(&mut self, v: i64) {
        self.token(I64, &v.to_le_bytes(), |s| {
            let _ = write!(s, "{v}");
        });
    }

    /// A float; `null` in text when not finite.
    pub fn f64(&mut self, v: f64) {
        self.token(F64, &v.to_bits().to_le_bytes(), |s| {
            let _ = if !v.is_finite() {
                s.write_str("null")
            } else if v.fract() == 0.0 && v.abs() < 1e15 {
                write!(s, "{v:.1}")
            } else {
                write!(s, "{v}")
            };
        });
    }

    /// A string.
    pub fn str(&mut self, v: &str) {
        self.token(STR, v.as_bytes(), |s| push_escaped(s, v));
        if let Sink::Digest(h) = &mut self.sink {
            h.write_u8(TEXT_END);
        }
    }

    /// An object key; the next token is its value.
    pub fn key(&mut self, key: &str) {
        self.str(key);
        if let Some(s) = self.sink.text() {
            s.push(':');
        }
        self.comma = false;
    }

    /// One object member.
    pub fn field(&mut self, key: &str, value: impl ToJson) {
        self.key(key);
        value.write_json(self);
    }

    /// An object whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) {
        self.container(OBJ, '{', '}', body);
    }

    /// An array whose items `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) {
        self.container(ARR, '[', ']', body);
    }

    /// An array of `items`.
    pub(crate) fn seq<T: ToJson>(&mut self, items: impl IntoIterator<Item = T>) {
        self.arr(|o| {
            for item in items {
                item.write_json(o);
            }
        });
    }

    fn container(&mut self, tag: u8, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.token(tag, &[], |s| s.push(open));
        self.comma = false;
        body(self);
        match &mut self.sink {
            Sink::Digest(h) => h.write_u8(CLOSE),
            sink => sink.text().expect("a text sink").push(close),
        }
        self.comma = true;
        self.spill();
    }
}

/// Appends `v` quoted, copying each run free of escapes in one step.
/// Every escaped character is ASCII, so each cut falls on a character
/// boundary.
fn push_escaped(s: &mut String, v: &str) {
    s.push('"');
    let mut run = 0;
    for (i, b) in v.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        s.push_str(&v[run..i]);
        if escape.is_empty() {
            let _ = write!(s, "\\u{b:04x}");
        } else {
            s.push_str(escape);
        }
        run = i + 1;
    }
    s.push_str(&v[run..]);
    s.push('"');
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
    /// Containers open around the cursor.
    depth: usize,
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
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error("containers nested too deep"));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
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
                Some(0..=0x1f) => return Err(self.error("unescaped control character")),
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
                    // Copy the run up to the next quote, backslash or
                    // control in one step. All are ASCII, so the run ends
                    // on a character boundary of the (valid UTF-8) input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let code = self.bytes[self.pos..self.pos + 4]
            .iter()
            .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
            .ok_or_else(|| self.error("invalid hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    /// One or more decimal digits; how many.
    fn digits(&mut self) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        match self.pos - start {
            0 => Err(self.error("expected a digit")),
            n => Ok(n),
        }
    }

    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = self.pos;
        if self.digits()? > 1 && self.bytes[int] == b'0' {
            return Err(JsonError {
                offset: int,
                message: "leading zero in number".to_string(),
            });
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
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

/// Streaming into a [`JsonOut`] — the workspace's `Serialize`.
pub trait ToJson {
    /// Writes the value's tokens.
    fn write_json(&self, out: &mut JsonOut<'_>);

    /// Serializes to a compact string.
    fn to_json_string(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut JsonOut::text(&mut s));
        s
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.bool(*self);
    }
}

macro_rules! via_json {
    ($method:ident as $wide:ty: $($ty:ty),+) => {
        $(impl ToJson for $ty {
            fn write_json(&self, out: &mut JsonOut<'_>) {
                out.$method(<$wide>::from(*self));
            }
        })+
    };
}
via_json!(u64 as u64: u8, u16, u32, u64);
via_json!(i64 as i64: i8, i16, i32, i64);
via_json!(f64 as f64: f32, f64);

impl ToJson for usize {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.u64(*self as u64);
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.str(self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.str(self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        match self {
            Some(v) => v.write_json(out),
            None => out.null(),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.seq(self);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.seq(self);
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.seq(self);
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.arr(|o| {
            self.0.write_json(o);
            self.1.write_json(o);
        });
    }
}

/// Generates a [`ToJson`](crate::json::ToJson) impl for a struct with
/// named, `ToJson` fields — the replacement for `#[derive(Serialize)]` —
/// or, given `display:` and a list of types, one writing each value as
/// its `Display` label.
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
    (display: $($ty:ty),+ $(,)?) => {
        $(impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut $crate::json::JsonOut<'_>) {
                out.str(&self.to_string());
            }
        })+
    };
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut $crate::json::JsonOut<'_>) {
                out.obj(|o| {
                    $(o.field(stringify!($field), &self.$field);)+
                });
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document several I/O chunks long, with strings that straddle
    /// chunk boundaries.
    fn long_document() -> Json {
        Json::Arr(
            (0..4_000u64)
                .map(|i| {
                    Json::Obj(vec![
                        ("i".into(), Json::U64(i)),
                        ("s".into(), Json::Str(format!("row \"{i}\"\n").repeat(3))),
                        ("f".into(), Json::F64(i as f64 / 7.0)),
                    ])
                })
                .collect(),
        )
    }

    #[test]
    fn io_sink_writes_the_text_sinks_bytes() {
        let doc = long_document();
        let text = doc.to_json_string();
        assert!(text.len() > 3 * IO_CHUNK);
        let mut bytes: Vec<u8> = Vec::new();
        let mut out = JsonOut::io(&mut bytes);
        doc.write_json(&mut out);
        out.finish().expect("a Vec never fails");
        assert_eq!(bytes, text.as_bytes());
    }

    #[test]
    fn io_sink_reports_the_first_write_error() {
        /// Accepts `room` bytes, then fails every write.
        struct Full {
            room: usize,
            failed: usize,
        }
        impl io::Write for Full {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.room == 0 {
                    self.failed += 1;
                    return Err(io::Error::other("disk full"));
                }
                let n = buf.len().min(self.room);
                self.room -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut full = Full {
            room: IO_CHUNK + 10,
            failed: 0,
        };
        let mut out = JsonOut::io(&mut full);
        long_document().write_json(&mut out);
        let err = out.finish().expect_err("the writer filled up");
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(full.failed, 1, "no write after the first failure");
    }

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
        for lenient in ["01", "-", "1.", "1e", "-.5", r#""\u+041""#, "\"a\u{1}b\""] {
            assert!(Json::parse(lenient).is_err(), "{lenient:?} parsed");
        }
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
        v.write_json(&mut JsonOut::digest(&mut h));
        h.finish()
    }

    #[test]
    fn digest_separates_variants_keys_nesting_and_nonfinite_floats() {
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
            Json::Arr(vec![Json::Arr(vec![Json::Null]), Json::Null]),
            Json::Arr(vec![Json::Arr(vec![Json::Null, Json::Null])]),
            Json::Arr(vec![Json::Str("ab".into()), Json::Str("c".into())]),
            Json::Arr(vec![Json::Str("a".into()), Json::Str("bc".into())]),
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
    fn a_one_mebibyte_string_round_trips() {
        let text: String = "hcc \"é\" \\ 😀\n".chars().cycle().take(1 << 20).collect();
        let doc = Json::Arr(vec![Json::Str(text)]);
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn parser_refuses_nesting_past_the_depth_limit() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
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
