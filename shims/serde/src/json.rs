//! JSON value model and strict recursive-descent parser backing the shim's
//! [`Deserialize`](crate::Deserialize) implementation.
//!
//! Numbers are kept as their **raw source token** ([`JsonValue::Number`])
//! rather than eagerly converted to `f64`: the workspace round-trips `u64`
//! seeds above 2^53 and relies on Rust's shortest-roundtrip float printing,
//! so the only lossless strategy is to re-parse the original token with the
//! target type's own `FromStr`.
//!
//! The grammar is strict RFC 8259: no trailing commas, no comments, no bare
//! NaN/Infinity tokens, and nothing but whitespace after the top-level
//! value (trailing garbage is a [`JsonError::Syntax`] error, which the
//! malformed-input proptests pin).

use std::fmt;

/// Deepest array/object nesting [`JsonValue::parse`] accepts; deeper input
/// is a [`JsonError::Syntax`] error, not a stack overflow. Snapshots nest a
/// few levels deep (the fleet suite pins the margin).
pub const MAX_DEPTH: usize = 256;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its verbatim source token (see the module docs for why
    /// the token is not eagerly narrowed).
    Number(String),
    /// A string, with escapes already resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as ordered `(key, value)` pairs (duplicate keys keep the
    /// first occurrence on lookup, like `serde_json`'s map behaviour).
    Object(Vec<(String, JsonValue)>),
}

/// A typed JSON parse / decode error.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// The input violates the JSON grammar at byte `offset`.
    Syntax {
        /// Byte offset into the input where parsing failed.
        offset: usize,
        /// What the parser expected or found.
        message: String,
    },
    /// A value had the wrong JSON type for the target Rust type.
    Type {
        /// The JSON shape the target type needed.
        expected: &'static str,
        /// The JSON shape actually present.
        found: &'static str,
    },
    /// An array had the wrong number of elements for a fixed-arity target.
    Length {
        /// Required element count.
        expected: usize,
        /// Actual element count.
        found: usize,
    },
    /// An object was missing a required struct field.
    MissingField(&'static str),
    /// An enum tag did not name any variant of the target enum.
    UnknownVariant(String),
    /// A number token could not be parsed as the target numeric type.
    InvalidNumber {
        /// The offending token, verbatim.
        token: String,
        /// The Rust type it was being parsed as.
        target: &'static str,
    },
    /// A value had the right JSON shape but failed the target type's own
    /// validation (the shim's counterpart of serde's `de::Error::custom`).
    Custom(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, message } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            JsonError::Type { expected, found } => {
                write!(f, "JSON type mismatch: expected {expected}, found {found}")
            }
            JsonError::Length { expected, found } => {
                write!(
                    f,
                    "JSON array length mismatch: expected {expected}, found {found}"
                )
            }
            JsonError::MissingField(name) => write!(f, "missing JSON object field `{name}`"),
            JsonError::UnknownVariant(tag) => write!(f, "unknown enum variant tag `{tag}`"),
            JsonError::InvalidNumber { token, target } => {
                write!(f, "JSON number `{token}` does not fit target type {target}")
            }
            JsonError::Custom(message) => write!(f, "invalid JSON value: {message}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a complete JSON document (strict: whitespace-only suffix).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::Syntax {
                offset: p.pos,
                message: "trailing characters after top-level value".into(),
            });
        }
        Ok(v)
    }

    /// The value's JSON shape name, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Number(_) => "number",
            JsonValue::String(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }

    /// Requires `null` (unit structs).
    pub fn expect_null(&self) -> Result<(), JsonError> {
        match self {
            JsonValue::Null => Ok(()),
            other => Err(JsonError::Type {
                expected: "null",
                found: other.kind(),
            }),
        }
    }

    /// Requires an object and returns its entries.
    pub fn expect_object(&self) -> Result<&[(String, JsonValue)], JsonError> {
        match self {
            JsonValue::Object(entries) => Ok(entries),
            other => Err(JsonError::Type {
                expected: "object",
                found: other.kind(),
            }),
        }
    }

    /// Requires an array and returns its elements.
    pub fn expect_array(&self) -> Result<&[JsonValue], JsonError> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(JsonError::Type {
                expected: "array",
                found: other.kind(),
            }),
        }
    }

    /// Requires an array of exactly `n` elements (tuples, tuple structs,
    /// fixed-size arrays).
    pub fn expect_tuple(&self, n: usize) -> Result<&[JsonValue], JsonError> {
        let items = self.expect_array()?;
        if items.len() != n {
            return Err(JsonError::Length {
                expected: n,
                found: items.len(),
            });
        }
        Ok(items)
    }

    /// Looks up a required field of an object (first occurrence wins).
    pub fn field(&self, name: &'static str) -> Result<&JsonValue, JsonError> {
        self.expect_object()?
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or(JsonError::MissingField(name))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError::Syntax {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    /// Parses a value inside `depth` open arrays/objects.
    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &'static str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
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
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next quote,
                    // backslash or control byte. Those are all ASCII, so they
                    // never occur inside a multi-byte UTF-8 sequence and the
                    // run ends on a char boundary of the (valid) input.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("input was a &str");
                    out.push_str(run);
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u`, combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = if (0xD800..=0xDBFF).contains(&hi) {
            // High surrogate: a `\uDC00`..`\uDFFF` low surrogate must follow.
            if self.peek() != Some(b'\\') {
                return Err(self.err("high surrogate not followed by `\\u`"));
            }
            self.pos += 1;
            if self.peek() != Some(b'u') {
                return Err(self.err("high surrogate not followed by `\\u`"));
            }
            self.pos += 1;
            let lo = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else if (0xDC00..=0xDFFF).contains(&hi) {
            return Err(self.err("unpaired low surrogate"));
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Validates the RFC 8259 number grammar and captures the raw token.
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit in number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_string();
        Ok(JsonValue::Number(token))
    }
}
