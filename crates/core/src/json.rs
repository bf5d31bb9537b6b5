//! Minimal JSON value model, serializer and parser.
//!
//! Every machine-readable byte the workspace writes — experiment output
//! ([`crate::experiments::Artifact`]), checkpoints, journal entries and
//! protocol lines — goes through this self-contained module: a [`Json`] value
//! tree, a compact writer (via [`std::fmt::Display`]), a recursive-descent
//! parser ([`Json::parse`]) and a [`ToJson`] conversion trait implemented by
//! every experiment result type.
//!
//! Object keys keep insertion order, so serialisation is deterministic and the
//! `paper-report --json` output is byte-for-byte reproducible.

use std::fmt;
use std::path::PathBuf;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (JSON has only one numeric type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs (order-preserving).
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array by converting each element.
    pub fn arr<T: ToJson>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(|item| item.to_json()).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number below
    /// 2^53: a parsed number at or above 2^53 may already have been rounded,
    /// so it is no exact integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a non-negative integer of type `T`, if it is a whole
    /// number `T` holds exactly: decoders narrow with this, so an
    /// out-of-range value is a decode error instead of a silent wrap.
    pub fn as_int<T: TryFrom<u64>>(&self) -> Option<T> {
        self.as_u64().and_then(|n| T::try_from(n).ok())
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// Arrays and objects may nest at most [`MAX_DEPTH`] levels deep; a
    /// deeper document is rejected with a [`JsonError`] instead of
    /// exhausting the stack.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing data after the top-level value"));
        }
        Ok(value)
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
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
            Some(value) => value.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

/// Conversion out of a [`Json`] value, for the types a record field has.
pub trait FromJson: Sized {
    /// The value `json` holds, or why it holds none of this type.
    fn from_json(json: &Json) -> Result<Self, Unfit>;
}

/// Why a JSON value holds no value of a field's type. [`decode`] turns it
/// into the error, which names the field's key.
#[derive(Debug, Clone, PartialEq)]
pub enum Unfit {
    /// Another JSON type, or an integer the type does not hold.
    Type,
    /// The rest of the error after the key, as in `is not a run
    /// configuration object: unknown key "x"`.
    Invalid(String),
}

impl Unfit {
    /// A value that does not decode as `what` (a nested record, say), for
    /// the reason `why`.
    pub fn not(what: &str, why: impl fmt::Display) -> Unfit {
        Unfit::Invalid(format!("is not {what}: {why}"))
    }
}

/// Each scalar a record field can hold: how it is written, and how a JSON
/// value is read as one (`None` for another JSON type, or an integer the
/// type does not hold).
macro_rules! scalars {
    ($($type:ty: |$value:ident| $to:expr, $from:expr;)*) => {$(
        impl ToJson for $type {
            fn to_json(&self) -> Json {
                let $value = self;
                $to
            }
        }

        impl FromJson for $type {
            fn from_json(json: &Json) -> Result<$type, Unfit> {
                $from(json).ok_or(Unfit::Type)
            }
        }
    )*};
}

scalars! {
    Json: |value| value.clone(), |json: &Json| Some(json.clone());
    bool: |value| Json::Bool(*value), Json::as_bool;
    f64: |value| Json::Num(*value), Json::as_f64;
    u8: |value| Json::Num(f64::from(*value)), Json::as_int;
    u32: |value| Json::Num(*value as f64), Json::as_int;
    u64: |value| Json::Num(*value as f64), Json::as_int;
    usize: |value| Json::Num(*value as f64), Json::as_int;
    String: |value| Json::Str(value.clone()), |json: &Json| json.as_str().map(str::to_string);
    PathBuf: |value| Json::Str(value.display().to_string()), |json: &Json| json.as_str().map(PathBuf::from);
}

/// A present optional field: absence is [`decode`]'s default.
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Option<T>, Unfit> {
        T::from_json(json).map(Some)
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(json: &Json) -> Result<Box<T>, Unfit> {
        T::from_json(json).map(Box::new)
    }
}

/// An array whose every item is a `T`; a bad item is named by its index.
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Vec<T>, Unfit> {
        let items = json.as_array().ok_or(Unfit::Type)?;
        let item = |(at, item)| match T::from_json(item) {
            Err(Unfit::Invalid(why)) => Err(Unfit::Invalid(format!("item {at} {why}"))),
            decoded => decoded,
        };
        items.iter().enumerate().map(item).collect()
    }
}

/// The value of `key` in the object `json`. An absent key takes `default`,
/// or is an error without one; a value of the wrong type is an error. Both
/// errors name the key.
pub fn decode<T: FromJson>(json: &Json, key: &str, default: Option<T>) -> Result<T, String> {
    match (json.get(key), default) {
        (Some(value), _) => T::from_json(value).map_err(|unfit| match unfit {
            Unfit::Type => format!("key {key:?} has the wrong type or does not fit"),
            Unfit::Invalid(why) => format!("{key:?} {why}"),
        }),
        (None, Some(default)) => Ok(default),
        (None, None) => Err(format!("missing key {key:?}")),
    }
}

/// Checks that `json` is an object whose every key is `known`: a closed
/// record, where an unknown key is an error naming it.
pub fn closed(json: &Json, known: impl Fn(&str) -> bool) -> Result<(), String> {
    let Json::Obj(pairs) = json else {
        return Err("not a JSON object".to_string());
    };
    match pairs.iter().find(|(key, _)| !known(key)) {
        Some((key, _)) => Err(format!("unknown key {key:?}")),
        None => Ok(()),
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::Num(n) => write_number(f, *n),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (index, (key, value)) in pairs.iter().enumerate() {
                    if index > 0 {
                        f.write_str(",")?;
                    }
                    write_string(f, key)?;
                    f.write_str(":")?;
                    value.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_number(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no Inf/NaN; fall back to null rather than emit garbage.
        return f.write_str("null");
    }
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        write!(f, "{}", n as i64)
    } else {
        write!(f, "{n}")
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
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

/// Error produced by [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the parser stopped at.
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

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// deepest documents the workspace writes — checkpoints, journal entries and
/// `shard_result` lines — nest fewer than ten levels; the cap only stops a
/// hostile line from recursing the parser off the end of its thread's stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected literal {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
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

    fn object(&mut self) -> Result<Json, JsonError> {
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
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Parses a number by the RFC 8259 grammar,
    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`. A value beyond
    /// `f64` range is rejected: it would parse to an infinity, which the
    /// writer can only emit as `null`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = self.pos;
        let int_digits = self.digits();
        let mut malformed = int_digits == 0 || (int_digits > 1 && self.bytes[int] == b'0');
        if self.peek() == Some(b'.') {
            self.pos += 1;
            malformed |= self.digits() == 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            malformed |= self.digits() == 0;
        }
        if malformed {
            return Err(self.error("malformed number"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match text.parse::<f64>() {
            Ok(value) if value.is_finite() => Ok(Json::Num(value)),
            _ => {
                let message = format!("number {text} is out of range");
                Err(JsonError { offset: start, message })
            }
        }
    }

    /// Skips a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let value = Json::obj([
            ("name", Json::Str("table one \"quoted\"\n".into())),
            ("count", Json::Num(23.0)),
            ("ratio", Json::Num(0.5)),
            ("flag", Json::Bool(true)),
            ("missing", Json::Null),
            ("rows", Json::Arr(vec![Json::Num(1.0), Json::Num(-2.0)])),
        ]);
        let text = value.to_string();
        assert_eq!(Json::parse(&text).unwrap(), value);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(5_000_000.0).to_string(), "5000000");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let parsed = Json::parse(" { \"a\" : [ 1 , \"x\\u0041\\n\" ] } ").unwrap();
        assert_eq!(parsed.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(parsed.get("a").unwrap().as_array().unwrap()[1].as_str(), Some("xA\n"));
    }

    #[test]
    fn integers_at_or_above_2_pow_53_are_not_exact() {
        let max_exact = (1u64 << 53) - 1;
        assert_eq!(Json::parse(&max_exact.to_string()).unwrap().as_u64(), Some(max_exact));
        for rounded in ["9007199254740992", "9007199254740993", "1e300"] {
            assert_eq!(Json::parse(rounded).unwrap().as_u64(), None, "{rounded}");
        }
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for good in ["0", "-0", "12", "-3.25", "1e5", "1E+5", "2.5e-3", "1e-400", "[0,-1.5]"] {
            assert!(Json::parse(good).is_ok(), "{good}");
        }
        for bad in ["01", "-01", "1.", "1.e5", ".5", "-", "+1", "1e", "1e+", "--1", "0x1", "[01]"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn numbers_beyond_f64_range_are_rejected_not_read_as_infinity() {
        for (text, offset) in [("1e400", 0), ("-1e400", 0), ("[1e400]", 1)] {
            let error = Json::parse(text).unwrap_err();
            assert_eq!(error.offset, offset, "{text}");
            assert!(error.message.contains("out of range"), "{error}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects =
            |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        for document in [arrays(MAX_DEPTH), objects(MAX_DEPTH)] {
            assert!(Json::parse(&document).is_ok(), "depth {MAX_DEPTH} parses");
        }
        // The error points at the opening bracket one level too deep.
        for (document, offset) in [
            (arrays(MAX_DEPTH + 1), MAX_DEPTH),
            (objects(MAX_DEPTH + 1), MAX_DEPTH * "{\"a\":".len()),
        ] {
            let error = Json::parse(&document).unwrap_err();
            assert_eq!(error.offset, offset);
            assert!(error.message.contains("nesting deeper than"), "{error}");
        }
        // Far past the cap, unterminated: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn control_characters_escape_and_round_trip() {
        let value = Json::Str("bell\u{7} tab\t".into());
        let text = value.to_string();
        assert!(text.contains("\\u0007"));
        assert_eq!(Json::parse(&text).unwrap(), value);
    }
}
