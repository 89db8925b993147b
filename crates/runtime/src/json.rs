//! A dependency-free JSON encoder/decoder for the serving frontends.
//!
//! The build environment is offline, so — like the hand-rolled wire
//! protocol in `dsa-service` — this module implements the subset of
//! JSON the workspace needs itself: a [`Json`] value tree, a strict
//! recursive-descent parser ([`Json::parse`]), and a deterministic
//! encoder ([`Json::encode`]).
//!
//! Design points that matter to the serving layer:
//!
//! * **Integers stay exact.** JSON numbers without a fraction or
//!   exponent are kept as [`Json::U64`] / [`Json::I64`], never routed
//!   through `f64` — engine seeds are arbitrary `u64`s and must
//!   round-trip bit-exactly. Only numbers written with `.`/`e` (or
//!   integers beyond 64 bits) become [`Json::F64`].
//! * **Encoding is deterministic.** Objects preserve insertion order
//!   (they are vectors of pairs, not hash maps), so the same value
//!   tree always encodes to the same bytes — the HTTP facade's
//!   cache-hit byte-identity guarantee rests on this.
//! * **Parsing is bounded.** Nesting is capped at [`MAX_DEPTH`] so a
//!   hostile body of `[[[[…` cannot overflow the stack; input size is
//!   the caller's bound (the HTTP layer caps bodies before parsing).
//!
//! # Example
//!
//! ```
//! use dsa_runtime::json::Json;
//!
//! let v = Json::parse(r#"{"seed": 18446744073709551615, "ok": true}"#).unwrap();
//! assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
//! assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
//! let back = v.encode();
//! assert_eq!(Json::parse(&back).unwrap(), v);
//! ```

use std::fmt;

/// Maximum nesting depth [`Json::parse`] accepts (arrays + objects).
pub const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer written without fraction or exponent.
    U64(u64),
    /// A negative integer written without fraction or exponent.
    I64(i64),
    /// Any other number (fraction, exponent, or beyond 64-bit range).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Where and why parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Looks up a key in an object; `None` for non-objects and missing
    /// keys. First occurrence wins if the input repeated a key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(x) => Some(x),
            Json::I64(x) => u64::try_from(x).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::I64(x) => Some(x),
            Json::U64(x) => i64::try_from(x).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert; strings do not).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::F64(x) => Some(x),
            Json::U64(x) => Some(x as f64),
            Json::I64(x) => Some(x as f64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing content after JSON value"));
        }
        Ok(value)
    }

    /// Encodes the value as compact JSON (no whitespace), preserving
    /// object key order. Deterministic: equal trees encode to equal
    /// bytes.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(x) => out.push_str(&x.to_string()),
            Json::I64(x) => out.push_str(&x.to_string()),
            Json::F64(x) => {
                // JSON has no NaN/Infinity; map them to null like
                // every lenient encoder does (we never produce them).
                if x.is_finite() {
                    let s = x.to_string();
                    out.push_str(&s);
                    // Keep float-ness explicit so the value re-parses
                    // as F64, not as an integer: `-225.0` must not
                    // encode to `-225`.
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
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
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A pull reader over one JSON document: the decoder walks objects
/// and arrays itself and reads scalars one at a time, so a large array
/// (a graph's edge rows, say) streams into the caller's own buffers
/// instead of a [`Json`] tree.
///
/// It accepts exactly the documents [`Json::parse`] accepts: the same
/// grammar, number rules, escapes and [`MAX_DEPTH`] bound. A value the
/// caller does not want to walk is read whole with [`Reader::value`].
///
/// ```
/// use dsa_runtime::json::Reader;
///
/// let mut r = Reader::new(r#"{"rows": [[0, 1], [1, 2]], "n": 3}"#);
/// assert!(r.start_object().unwrap());
/// let mut rows = Vec::new();
/// while let Some(key) = r.next_key().unwrap() {
///     if key == "rows" {
///         assert!(r.start_array().unwrap());
///         while r.next_element().unwrap() {
///             assert!(r.start_array().unwrap());
///             while r.next_element().unwrap() {
///                 rows.push(r.read_u64().unwrap().unwrap());
///             }
///         }
///     } else {
///         assert_eq!(r.value().unwrap().as_u64(), Some(3));
///     }
/// }
/// r.finish().unwrap();
/// assert_eq!(rows, [0, 1, 1, 2]);
/// ```
pub struct Reader<'a> {
    p: Parser<'a>,
    /// Containers opened and not yet closed: the depth of the next
    /// value, as [`Json::parse`] counts it.
    depth: usize,
    /// Set when a container was just opened, so the next
    /// [`Reader::next_key`] / [`Reader::next_element`] reads no comma.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document's one value.
    pub fn new(text: &'a str) -> Self {
        Reader {
            p: Parser {
                bytes: text.as_bytes(),
                pos: 0,
            },
            depth: 0,
            fresh: false,
        }
    }

    fn open(&mut self, open: u8) -> Result<bool, JsonError> {
        self.p.skip_ws();
        if self.p.peek() != Some(open) {
            return Ok(false);
        }
        if self.depth > MAX_DEPTH {
            return Err(self.p.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.p.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(true)
    }

    /// Enters the next value if it is an object; `false` (nothing
    /// consumed) if it is some other value.
    pub fn start_object(&mut self) -> Result<bool, JsonError> {
        self.open(b'{')
    }

    /// Enters the next value if it is an array; `false` (nothing
    /// consumed) if it is some other value.
    pub fn start_array(&mut self) -> Result<bool, JsonError> {
        self.open(b'[')
    }

    /// Moves past the separator before the next member or element of
    /// the innermost open container; `false` once `close` ends it.
    fn advance(&mut self, close: u8, message: &str) -> Result<bool, JsonError> {
        self.p.skip_ws();
        let fresh = std::mem::take(&mut self.fresh);
        match self.p.peek() {
            Some(b) if b == close => {
                self.p.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            _ if fresh => Ok(true),
            Some(b',') => {
                self.p.pos += 1;
                self.p.skip_ws();
                Ok(true)
            }
            _ => Err(self.p.error(message)),
        }
    }

    /// The next key of the innermost open object, positioned at its
    /// value; `None` once the object is closed.
    pub fn next_key(&mut self) -> Result<Option<String>, JsonError> {
        if !self.advance(b'}', "expected `,` or `}` in object")? {
            return Ok(None);
        }
        let key = self.p.string()?;
        self.p.skip_ws();
        if self.p.peek() != Some(b':') {
            return Err(self.p.error("expected `:`"));
        }
        self.p.pos += 1;
        self.p.skip_ws();
        Ok(Some(key))
    }

    /// Whether the innermost open array has another element, positioned
    /// at it; `false` once the array is closed.
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        self.advance(b']', "expected `,` or `]` in array")
    }

    /// Reads the next value whole.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        self.p.skip_ws();
        self.p.value(self.depth)
    }

    /// Reads the next value as a `u64`: `Some` for a non-negative
    /// integer (exactly when [`Json::as_u64`] would give one), `None`
    /// for any other well-formed value.
    pub fn read_u64(&mut self) -> Result<Option<u64>, JsonError> {
        self.p.skip_ws();
        let start = self.p.pos;
        // Fast path: a plain integer ending where a number ends;
        // anything else takes the general parse.
        if self.depth <= MAX_DEPTH {
            if let Some(x) = self.p.plain_u64() {
                if !matches!(self.p.peek(), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
                    return Ok(Some(x));
                }
            }
        }
        self.p.pos = start;
        Ok(self.value()?.as_u64())
    }

    /// Reads the next value in one byte loop if it is an array of
    /// arrays of plain non-negative integers (digits without a leading
    /// zero, fraction, exponent or sign, within `u64`): each row's
    /// numbers are appended to `fields` and the row's end, the length
    /// of `fields` after it, to `ends`. Returns `false` and consumes
    /// nothing, appending nothing, for any other value, well-formed or
    /// not, so the caller can walk it element by element and report
    /// the same errors it would have reported without this call.
    pub fn read_u64_rows(&mut self, fields: &mut Vec<u64>, ends: &mut Vec<usize>) -> bool {
        let (start, fields_len, ends_len) = (self.p.pos, fields.len(), ends.len());
        // The numbers sit two containers deeper than the value.
        if self.depth + 2 <= MAX_DEPTH && self.p.u64_rows(fields, ends) {
            return true;
        }
        self.p.pos = start;
        fields.truncate(fields_len);
        ends.truncate(ends_len);
        false
    }

    /// Checks that nothing but whitespace follows the document.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.p.skip_ws();
        if self.p.pos != self.p.bytes.len() {
            return Err(self.p.error("trailing content after JSON value"));
        }
        Ok(())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

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

    /// Skips whitespace, then moves past the next byte and returns it.
    fn next_token_byte(&mut self) -> Option<u8> {
        self.skip_ws();
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// The plain integer at the cursor: ASCII digits without a leading
    /// zero, within `u64`. `None` for anything else; a digit never
    /// follows a `Some`.
    fn plain_u64(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut x: u64 = 0;
        while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
            x = x.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            self.pos += 1;
        }
        let digits = self.pos - start;
        (digits == 1 || (digits > 1 && self.bytes[start] != b'0')).then_some(x)
    }

    /// The byte loop of [`Reader::read_u64_rows`]: `false` as soon as
    /// the value is not an array of arrays of plain integers.
    fn u64_rows(&mut self, fields: &mut Vec<u64>, ends: &mut Vec<usize>) -> bool {
        if self.next_token_byte() != Some(b'[') {
            return false;
        }
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return true;
        }
        loop {
            if self.next_token_byte() != Some(b'[') {
                return false;
            }
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
            } else {
                loop {
                    let Some(x) = self.plain_u64() else {
                        return false;
                    };
                    fields.push(x);
                    match self.next_token_byte() {
                        Some(b',') => self.skip_ws(),
                        Some(b']') => break,
                        _ => return false,
                    }
                }
            }
            ends.push(fields.len());
            match self.next_token_byte() {
                Some(b',') => {}
                Some(b']') => return true,
                _ => return false,
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.error(format!("unexpected byte `{}`", b as char))),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        // Fast path: no escapes, borrow the span wholesale.
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    // Safe: input is a &str, and the span contains no
                    // escape, so it is valid UTF-8 as-is.
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?
                        .to_string();
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => break,
                b if b < 0x20 => return Err(self.error("raw control character in string")),
                _ => self.pos += 1,
            }
        }
        // Slow path: build the string, decoding escapes.
        let mut out = String::from_utf8(self.bytes[start..self.pos].to_vec())
            .map_err(|_| self.error("invalid UTF-8 in string"))?;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.error(format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(b) if b < 0x20 => return Err(self.error("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (1–4 bytes).
                    let span_start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| (b & 0xc0) == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[span_start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.error("unterminated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.error("bad hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) {
            // High surrogate: a low surrogate escape must follow.
            if self.peek() != Some(b'\\') {
                return Err(self.error("lone high surrogate"));
            }
            self.pos += 1;
            if self.peek() != Some(b'u') {
                return Err(self.error("lone high surrogate"));
            }
            self.pos += 1;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(self.error("bad low surrogate"));
            }
            let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
            char::from_u32(cp).ok_or_else(|| self.error("bad surrogate pair"))
        } else if (0xdc00..0xe000).contains(&hi) {
            Err(self.error("lone low surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.error("bad \\u escape"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part (JSON forbids leading zeros like `042`).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("malformed number")),
        }
        if self
            .bytes
            .get(start + usize::from(self.bytes[start] == b'-'))
            == Some(&b'0')
            && self
                .bytes
                .get(start + usize::from(self.bytes[start] == b'-') + 1)
                .is_some_and(|b| b.is_ascii_digit())
        {
            return Err(self.error("leading zero in number"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(self.error("malformed fraction"));
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(self.error("malformed exponent"));
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number spans are ASCII");
        if integral {
            if let Some(rest) = text.strip_prefix('-') {
                if let Ok(v) = rest.parse::<u64>() {
                    if v == 0 {
                        return Ok(Json::U64(0));
                    }
                    if let Ok(neg) = i64::try_from(v).map(|v| -v).or_else(|_| {
                        if v == (i64::MAX as u64) + 1 {
                            Ok(i64::MIN)
                        } else {
                            Err(())
                        }
                    }) {
                        return Ok(Json::I64(neg));
                    }
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        match text.parse::<f64>() {
            // Rust's f64 parser returns Ok(±inf) on overflow (e.g.
            // `1e999`), but JSON has no non-finite numbers and
            // encode() could not round-trip one — reject instead.
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            Ok(_) => Err(self.error("number out of f64 range")),
            Err(_) => Err(self.error("malformed number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn scalars_roundtrip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::U64(0)),
            ("42", Json::U64(42)),
            ("-7", Json::I64(-7)),
            ("18446744073709551615", Json::U64(u64::MAX)),
            ("-9223372036854775808", Json::I64(i64::MIN)),
            ("1.5", Json::F64(1.5)),
            ("-2.25e2", Json::F64(-225.0)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(parse(text), value, "{text}");
            assert_eq!(parse(&value.encode()), value, "{text} re-parse");
        }
    }

    #[test]
    fn u64_seeds_stay_exact() {
        // The motivating case: u64::MAX is not representable in f64.
        let v = parse("{\"seed\":18446744073709551615}");
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.encode(), "{\"seed\":18446744073709551615}");
    }

    #[test]
    fn containers_preserve_order() {
        let v = parse(r#"{"b": [1, 2, {"x": null}], "a": 3}"#);
        assert_eq!(
            v.encode(),
            r#"{"b":[1,2,{"x":null}],"a":3}"#,
            "insertion order survives the roundtrip"
        );
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn string_escapes_roundtrip() {
        for (text, want) in [
            ("\"a\\\"b\"", "a\"b"),
            ("\"a\\\\b\"", "a\\b"),
            ("\"a\\/b\"", "a/b"),
            ("\"\\n\\r\\t\\b\\f\"", "\n\r\t\u{08}\u{0c}"),
            ("\"\\u0041\"", "A"),
            ("\"\\ud83e\\udd80\"", "\u{1f980}"),
            ("\"snøfall\"", "snøfall"),
        ] {
            let v = parse(text);
            assert_eq!(v.as_str(), Some(want), "{text}");
            assert_eq!(parse(&v.encode()).as_str(), Some(want), "{text} re-parse");
        }
    }

    #[test]
    fn control_chars_encode_as_escapes() {
        let v = Json::Str("a\u{01}b\nc".into());
        assert_eq!(v.encode(), "\"a\\u0001b\\nc\"");
        assert_eq!(parse(&v.encode()), v);
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "   ",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":}",
            "{a:1}",
            "tru",
            "nulll",
            "1 2",
            "042",
            "-",
            "1.",
            "1e",
            "\"abc",
            "\"a\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"a\nb\"",
            "[1],",
            "1e999",
            "-1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deep_ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = Json::parse(&too_deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn duplicate_keys_first_wins_on_get() {
        let v = parse(r#"{"k":1,"k":2}"#);
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn nonfinite_floats_encode_as_null() {
        assert_eq!(Json::F64(f64::NAN).encode(), "null");
        assert_eq!(Json::F64(f64::INFINITY).encode(), "null");
    }

    /// Rebuilds a tree through the pull reader, walking every
    /// container and reading every number with `read_u64` first.
    fn pull(text: &str) -> Result<Json, JsonError> {
        fn walk(r: &mut Reader<'_>) -> Result<Json, JsonError> {
            if r.start_object()? {
                let mut pairs = Vec::new();
                while let Some(key) = r.next_key()? {
                    pairs.push((key, walk(r)?));
                }
                return Ok(Json::Obj(pairs));
            }
            if r.start_array()? {
                let mut items = Vec::new();
                while r.next_element()? {
                    items.push(walk(r)?);
                }
                return Ok(Json::Arr(items));
            }
            let start = r.p.pos;
            if let Some(x) = r.read_u64()? {
                return Ok(Json::U64(x));
            }
            r.p.pos = start;
            r.value()
        }
        let mut r = Reader::new(text);
        let v = walk(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    #[test]
    fn pull_reader_accepts_exactly_what_parse_accepts() {
        let deep = |k: usize| format!("{}1{}", "[".repeat(k), "]".repeat(k));
        let mut docs: Vec<String> = [
            "",
            " ",
            "{",
            "}",
            "[",
            "]",
            "[1,",
            "[1 2]",
            "[,1]",
            "[1,]",
            "{,}",
            "{\"a\" 1}",
            "{\"a\":}",
            "{a:1}",
            "{\"a\":1,}",
            "tru",
            "nulll",
            "1 2",
            "042",
            "-",
            "1.",
            "1e",
            "\"abc",
            "\"a\\q\"",
            "[1],",
            "1e999",
            "01",
            "[01]",
            "1x",
            "[1x]",
            "null",
            " 7 ",
            "-0",
            "[-0, -1, 0, 10, 18446744073709551615, 18446744073709551616, 1.5, 2e3]",
            "{\"k\":{\"n\":[[0,1,2],[3]],\"s\":\"\\u0041\"},\"k\":true}",
            "[[],{},[[]]]",
            " { \"a\" : [ 1 , 2 ] , \"b\" : { } } ",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        docs.push(deep(MAX_DEPTH));
        docs.push(deep(MAX_DEPTH + 1));
        docs.push(format!(
            "{}{{}}{}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        ));
        docs.push(format!(
            "{}{{}}{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        ));
        for doc in &docs {
            match (Json::parse(doc), pull(doc)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{doc:?}"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("{doc:?}: parse gave {a:?}, the reader {b:?}"),
            }
        }
    }

    /// The element walk [`Reader::read_u64_rows`] stands in for: the
    /// rows when every element is an array of `read_u64` numbers.
    type Rows = (Vec<u64>, Vec<usize>);
    fn walk_rows(r: &mut Reader<'_>) -> Result<Option<Rows>, JsonError> {
        if !r.start_array()? {
            return Ok(None);
        }
        let (mut fields, mut ends) = (Vec::new(), Vec::new());
        while r.next_element()? {
            if !r.start_array()? {
                return Ok(None);
            }
            while r.next_element()? {
                match r.read_u64()? {
                    Some(x) => fields.push(x),
                    None => return Ok(None),
                }
            }
            ends.push(fields.len());
        }
        Ok(Some((fields, ends)))
    }

    /// Checks `read_u64_rows` on `doc` after entering `depth` arrays:
    /// what it takes, the element walk reads alike and leaves the
    /// reader at the same place; what it declines, it leaves untouched.
    /// Returns whether it took the value.
    fn check_u64_rows(doc: &str, depth: usize) -> bool {
        let mut fast = Reader::new(doc);
        let mut slow = Reader::new(doc);
        for _ in 0..depth {
            assert_eq!(fast.start_array(), Ok(true));
            assert_eq!(slow.start_array(), Ok(true));
        }
        let (mut fields, mut ends) = (vec![9], vec![1]);
        if fast.read_u64_rows(&mut fields, &mut ends) {
            let shifted = ends[1..].iter().map(|e| e - 1).collect();
            let rows = Some((fields[1..].to_vec(), shifted));
            assert_eq!(walk_rows(&mut slow), Ok(rows), "{doc:?}");
            assert_eq!(fast.p.pos, slow.p.pos, "{doc:?}");
            true
        } else {
            assert_eq!((fields, ends), (vec![9], vec![1]), "{doc:?}");
            assert_eq!(fast.value(), slow.value(), "{doc:?}");
            false
        }
    }

    #[test]
    fn u64_rows_take_plain_rows_and_leave_the_rest_untouched() {
        for doc in [
            "[]",
            " [ ] ",
            "[[]]",
            "[[0,1],[2,3,4]]",
            "[ [ 0 , 1 ] ,[1,2 ]\n, [\t2, 3]\r]",
            "[[18446744073709551615, 0]]",
        ] {
            assert!(check_u64_rows(doc, 0), "declined {doc:?}");
        }
        for doc in [
            "",
            "5",
            "{}",
            "[5]",
            "[[-0]]",
            "[[01]]",
            "[[1.0]]",
            "[[1e2]]",
            "[[18446744073709551616]]",
            "[[[0]]]",
            "[[\"0\"]]",
            "[[null]]",
            "[[0,]]",
            "[[0],]",
            "[[0 1]]",
            "[[0]",
            "[[0],[1]",
            "[,[0]]",
        ] {
            assert!(!check_u64_rows(doc, 0), "took {doc:?}");
        }
        // The numbers may sit at MAX_DEPTH, no deeper.
        for depth in [MAX_DEPTH - 3, MAX_DEPTH - 2, MAX_DEPTH - 1, MAX_DEPTH] {
            let doc = format!("{}[[1]]{}", "[".repeat(depth), "]".repeat(depth));
            assert_eq!(check_u64_rows(&doc, depth), depth + 2 <= MAX_DEPTH);
        }
        // Random token soup.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let tokens = [
            "[",
            "[",
            "[",
            "]",
            "]",
            "]",
            ",",
            ",",
            " ",
            "\n",
            "0",
            "7",
            "42",
            "01",
            "-0",
            "1.5",
            "18446744073709551615",
            "18446744073709551616",
            "null",
            "\"x\"",
            "{}",
        ];
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5000 {
            let len = rng.gen_range(0..14);
            let mut doc = String::from("[");
            for _ in 0..len {
                doc.push_str(tokens[rng.gen_range(0..tokens.len())]);
            }
            if rng.gen_bool(0.5) {
                doc.push(']');
            }
            check_u64_rows(&doc, 0);
        }
    }

    #[test]
    fn accessor_conversions() {
        assert_eq!(Json::U64(7).as_i64(), Some(7));
        assert_eq!(Json::I64(-1).as_u64(), None);
        assert_eq!(Json::U64(u64::MAX).as_i64(), None);
        assert_eq!(Json::U64(3).as_f64(), Some(3.0));
        assert_eq!(Json::Str("3".into()).as_u64(), None);
        assert_eq!(Json::Null.get("k"), None);
    }
}
