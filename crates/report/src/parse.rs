//! A minimal JSON parser into [`Json`].
//!
//! The repo has always *emitted* JSON through hand-rolled encoders
//! (`serde_json` is outside the allowed offline crate set, DESIGN.md §2);
//! the `tacos serve` wire protocol is the first thing that must *read*
//! it. [`Json::parse`] is the matching ~150-line recursive-descent
//! decoder, plus the accessors ([`Json::get`], [`Json::as_str`], ...)
//! protocol code needs to pick a parsed message apart.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::output::Json;

impl Json {
    /// Parses a JSON text into a [`Json`] value.
    ///
    /// Integers that fit `u64` parse as [`Json::Uint`] (exact above
    /// 2^53, matching the encoder's split); everything else numeric as
    /// [`Json::Num`]. An object that names a key twice is an error:
    /// whichever value won, a reader would be acting on half of what the
    /// writer sent.
    ///
    /// # Errors
    /// Returns a readable message with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string value, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`: a [`Json::Uint`], or a [`Json::Num`] that is
    /// a non-negative whole number below 2^64.
    pub fn as_u64(&self) -> Option<u64> {
        // `u64::MAX as f64` rounds up to 2^64, which `as u64` would
        // saturate back to `u64::MAX`: the bound is strict.
        const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
        match self {
            Json::Uint(v) => Some(*v),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < TWO_POW_64 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as `f64` (both numeric representations).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Uint(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The array items, if this is a [`Json::Arr`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object map, if this is a [`Json::Obj`].
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }
}

/// Maximum container nesting. The parser is recursive descent, so
/// unbounded `[[[[...` would otherwise translate attacker-controlled
/// input length into stack depth; 256 is far beyond any report or
/// protocol message the repo emits.
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!(
                "unexpected character '{}' at byte {}",
                c as char, self.pos
            )),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    /// Guards one level of container nesting; call [`Parser::descend`]
    /// on entry to `array`/`object` and decrement on exit.
    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at byte {}", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs: 😀 and friends.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(format!("unpaired surrogate at byte {}", self.pos));
                                }
                                let hex2 = self
                                    .bytes
                                    .get(self.pos + 2..self.pos + 6)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| {
                                        format!("bad \\u escape at byte {}", self.pos)
                                    })?;
                                let low = u32::from_str_radix(hex2, 16)
                                    .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!("unpaired surrogate at byte {}", self.pos));
                                }
                                self.pos += 6;
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(char::from_u32(c).ok_or_else(|| {
                                format!("invalid codepoint U+{c:04X} at byte {}", self.pos)
                            })?);
                        }
                        other => {
                            return Err(format!(
                                "unknown escape '\\{}' at byte {}",
                                other as char, self.pos
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid; find the char at this byte).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| format!("invalid UTF-8 at byte {}", self.pos))?;
                    let c = rest.chars().next().expect("peeked a byte");
                    if (c as u32) < 0x20 {
                        return Err(format!("unescaped control character at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Uint(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.descend()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            match map.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(value);
                }
                Entry::Occupied(first) => {
                    return Err(format!(
                        "duplicate field '{}' at byte {key_at}",
                        first.key()
                    ))
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Uint(42));
        assert_eq!(Json::parse("-1").unwrap(), Json::Num(-1.0));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Num(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn u64_precision_survives() {
        // Above 2^53: must come back as Uint, not a rounded Num.
        let v = Json::parse("9007199254740993").unwrap();
        assert_eq!(v, Json::Uint(9007199254740993));
        assert_eq!(v.as_u64(), Some(9007199254740993));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::Uint(u64::MAX)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("a\"b\\c\nd\te\u{1}é😀".into());
        let parsed = Json::parse(&original.to_string()).unwrap();
        assert_eq!(parsed, original);
        // Explicit surrogate pair.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn structures_round_trip_through_the_encoder() {
        let original = Json::obj([
            ("name", "tacos".into()),
            ("bw", 49.5.into()),
            ("links", Json::Arr(vec![1u64.into(), 2u64.into()])),
            ("nested", Json::obj([("ok", Json::Bool(true))])),
            ("none", Json::Null),
        ]);
        let parsed = Json::parse(&original.to_string()).unwrap();
        assert_eq!(parsed, original);
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("tacos"));
        assert_eq!(parsed.get("bw").unwrap().as_f64(), Some(49.5));
        assert_eq!(parsed.get("links").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            parsed.get("nested").unwrap().get("ok").unwrap().as_bool(),
            Some(true)
        );
        assert!(parsed.get("missing").is_none());
    }

    #[test]
    fn malformed_inputs_are_readable_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "\"unterminated",
            "truefalse",
            "01x",
            "{\"a\":1} trailing",
            "[1 2]",
            "\"bad \\q escape\"",
            "\"\\ud83d alone\"",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "'{bad}' produced an empty error");
        }
    }

    #[test]
    fn a_repeated_key_is_an_error_at_any_depth() {
        for (bad, needle) in [
            (r#"{"a":1,"a":2}"#, "duplicate field 'a' at byte 7"),
            (r#"{"a":1,"a":1}"#, "duplicate field 'a'"),
            (r#"{"x":[{"k":null,"k":null}]}"#, "duplicate field 'k'"),
            (r#"{"a":1,"\u0061":2}"#, "duplicate field 'a'"),
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains(needle), "'{bad}' gave '{err}'");
        }
        // The same key in sibling objects is not a repeat.
        assert!(Json::parse(r#"[{"a":1},{"a":2}]"#).is_ok());
        assert!(Json::parse(r#"{"a":{"a":1}}"#).is_ok());
    }

    #[test]
    fn as_u64_stops_below_two_to_the_64() {
        // Integers past u64::MAX only parse as Num; 2^64 is the first.
        let max = Json::parse("18446744073709551615").unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX));
        let over = Json::parse("18446744073709551616").unwrap();
        assert_eq!(over, Json::Num(18_446_744_073_709_551_616.0));
        assert_eq!(over.as_u64(), None);
        assert_eq!(Json::parse("1e30").unwrap().as_u64(), None);
        // The largest f64 below 2^64 is still a u64.
        let below = Json::Num(18_446_744_073_709_549_568.0);
        assert_eq!(below.as_u64(), Some(18_446_744_073_709_549_568));
        assert_eq!(Json::Num(-0.0).as_u64(), Some(0));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn accessor_type_mismatches_are_none() {
        let v = Json::parse("{\"s\":\"x\",\"n\":1.5}").unwrap();
        assert_eq!(v.get("s").unwrap().as_u64(), None);
        assert_eq!(v.get("n").unwrap().as_u64(), None);
        assert_eq!(Json::parse("3.0").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_bool(), None);
        assert!(v.as_array().is_none());
        assert!(v.as_object().is_some());
    }
}
