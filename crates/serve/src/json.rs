//! A minimal JSON parser.
//!
//! The workspace carries no serialization dependency, so request bodies are
//! decoded by this hand-rolled recursive-descent parser (the encode side
//! stays hand-formatted, mirroring `sigcomp_explore::report::to_json`, with
//! strings escaped by [`sigcomp_obs::json_escape`]).
//! The parser accepts the full JSON grammar — nested values up to
//! [`MAX_DEPTH`], `\uXXXX` escapes including surrogate pairs — and reports
//! errors with a byte offset so 400 responses can say where a body went
//! wrong.

use std::fmt;

/// Maximum nesting depth accepted by [`Json::parse`]; deeper documents are
/// rejected rather than risking a recursion overflow on hostile input.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number. Stored as `f64`; [`Json::as_u64`] checks exactness.
    Num(f64),
    /// A string, with all escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, pairs kept in document order. Duplicate keys are
    /// preserved; [`Json::get`] returns the first match.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Why a JSON value could not be decoded as an exact `u64`
/// ([`Json::to_u64`]). Named variants, so decode failures surface as a
/// specific rejection instead of a silently clamped cast or an anonymous
/// `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumError {
    /// The value is not a number at all.
    NotANumber,
    /// The number is negative; a `u64` field cannot hold it.
    Negative,
    /// The number has a fractional part.
    Fractional,
    /// The number exceeds 2⁵³, beyond which an `f64` no longer represents
    /// every integer and a cast would silently lose (or clamp) bits.
    TooLarge,
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NumError::NotANumber => "not a number",
            NumError::Negative => "is negative",
            NumError::Fractional => "has a fractional part",
            NumError::TooLarge => "exceeds 2^53 (the exact-integer range of JSON numbers)",
        })
    }
}

impl std::error::Error for NumError {}

impl Json {
    /// Parses a complete JSON document (one value, surrounded by optional
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object (first match wins); `None` for missing
    /// keys and non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: a number with no fractional
    /// part that round-trips through `u64` unchanged. Convenience wrapper
    /// over [`Json::to_u64`] for callers that don't need the reason.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.to_u64().ok()
    }

    /// Decodes the value as an exact unsigned integer, naming exactly why a
    /// value is rejected. Never clamps: a negative, fractional, or
    /// out-of-range number (beyond 2⁵³, where `f64` stops representing
    /// every integer — so anything near or past 2⁶⁴ too) is an error, not a
    /// silently saturated cast.
    ///
    /// # Errors
    ///
    /// The [`NumError`] variant describing the rejection.
    pub fn to_u64(&self) -> Result<u64, NumError> {
        let n = self.as_f64().ok_or(NumError::NotANumber)?;
        if n < 0.0 {
            return Err(NumError::Negative);
        }
        if n > 9_007_199_254_740_992.0 {
            return Err(NumError::TooLarge);
        }
        if n.fract() != 0.0 {
            return Err(NumError::Fractional);
        }
        Ok(n as u64)
    }

    /// The element slice, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The elements as strings, if this is an array of strings.
    #[must_use]
    pub fn str_items(&self) -> Option<Vec<&str>> {
        self.as_arr()?.iter().map(Json::as_str).collect()
    }

    /// The keys of an object, in document order.
    #[must_use]
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
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

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.expect_literal("null", Json::Null),
            Some(b't') => self.expect_literal("true", Json::Bool(true)),
            Some(b'f') => self.expect_literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']' in array"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // {
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(pairs));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}' in object"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
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
                    out.push(self.escape_char()?);
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str and `pos` only
                    // ever advances by whole scalars, so slicing here is a
                    // char boundary and decoding one char is O(1) — no
                    // re-validation of the remaining input.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn escape_char(&mut self) -> Result<char, JsonError> {
        let b = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => return self.unicode_escape(),
            _ => return Err(self.err("unknown escape sequence")),
        })
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&first) {
            // High surrogate: a low surrogate must follow.
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.err("unpaired surrogate"));
            }
            let second = self.hex4()?;
            if !(0xdc00..0xe000).contains(&second) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
        } else if (0xdc00..0xe000).contains(&first) {
            return Err(self.err("unpaired surrogate"));
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let _ = self.eat(b'-');
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(
            Json::parse(r#""a\n\"b\" é 😀""#).unwrap(),
            Json::Str("a\n\"b\" é 😀".to_owned())
        );
        let doc =
            Json::parse(r#"{"workload": "pgp", "sizes": ["tiny", "large"], "n": 3}"#).unwrap();
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("pgp"));
        assert_eq!(
            doc.get("sizes").and_then(Json::str_items),
            Some(vec!["tiny", "large"])
        );
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.keys(), vec!["workload", "sizes", "n"]);
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "nul",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 alone\"",
            "1 2",
            "{\"a\": 1} extra",
            "\u{0007}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_hostile_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(Json::parse(&deep).unwrap_err().message, "nesting too deep");
    }

    #[test]
    fn as_u64_is_exact() {
        assert_eq!(Json::parse("18").unwrap().as_u64(), Some(18));
        assert_eq!(Json::parse("18.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn to_u64_names_every_rejection_instead_of_clamping() {
        // Regression: a float cast (`n as u64`) would silently clamp
        // negatives to 0 and huge values to u64::MAX; the decoder must
        // reject with a named error instead.
        assert_eq!(Json::parse("18").unwrap().to_u64(), Ok(18));
        assert_eq!(Json::parse("0").unwrap().to_u64(), Ok(0));
        // 2^53 is the last exactly-representable integer and is accepted.
        assert_eq!(
            Json::parse("9007199254740992").unwrap().to_u64(),
            Ok(9_007_199_254_740_992)
        );
        for (text, expected) in [
            ("-1", NumError::Negative),
            ("-0.5", NumError::Negative),
            ("-1e999", NumError::Negative),
            ("18.5", NumError::Fractional),
            // Would clamp to u64::MAX through a bare cast.
            ("1e300", NumError::TooLarge),
            ("1e999", NumError::TooLarge),
            ("18446744073709551616", NumError::TooLarge),
            // Past 2^53 the round trip through f64 loses bits even though
            // the value fits in u64.
            ("9007199254740994", NumError::TooLarge),
        ] {
            assert_eq!(Json::parse(text).unwrap().to_u64(), Err(expected), "{text}");
        }
        assert_eq!(
            Json::parse("\"7\"").unwrap().to_u64(),
            Err(NumError::NotANumber)
        );
        assert_eq!(
            Json::parse("null").unwrap().to_u64(),
            Err(NumError::NotANumber)
        );
        // The message names the constraint for 400 bodies.
        assert!(NumError::TooLarge.to_string().contains("2^53"));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let mut nasty: String = (0u8..0x20).map(char::from).collect();
        nasty.push_str("a\"b\\c\u{7f}é😀");
        let escaped = sigcomp_obs::json_escape(&nasty);
        assert!(escaped.chars().all(|c| c >= ' '), "{escaped:?}");
        assert!(escaped.starts_with("\\u0000\\u0001"), "{escaped:?}");
        assert!(escaped.contains("\\u0008\\t\\n\\u000b\\u000c\\r\\u000e"));
        let parsed = Json::parse(&format!("\"{escaped}\"")).unwrap();
        assert_eq!(parsed, Json::Str(nasty));
    }
}
