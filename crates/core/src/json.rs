//! A minimal JSON reader for the request/serve wire formats.
//!
//! The crate *emits* JSON by string assembly (see
//! [`sunmap_sim::sweep::json_string`]); this module is the matching
//! *reader* — just enough recursive-descent JSON to parse
//! [`crate::request::ExploreRequest`] payloads and serve frames without
//! pulling in a serialization dependency. It accepts standard JSON
//! (RFC 8259) minus some exotica nothing here emits: no `\uXXXX`
//! surrogate pairs, numbers via Rust's `f64` grammar.
//!
//! Its input comes from the network (serve and shard frames) and from
//! disk (replay logs), so it is hardened against hostile documents:
//! nesting is capped at [`MAX_DEPTH`] levels, and its running time is
//! linear in the input length.

use std::collections::BTreeMap;

/// The deepest array/object nesting [`Json::parse`] accepts. Every
/// document this crate reads nests a few levels; the cap stops a frame
/// of 50 000 `[` from overflowing the recursive parser's stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document (surrounding whitespace allowed).
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// The object's field, if this is an object that has it.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn eat_word(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_word("null").map(|()| Json::Null),
            Some(b't') => self.eat_word("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_word("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a JSON value at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or
            // backslash as one slice. Both are ASCII, so the run ends on
            // a character boundary of the (UTF-8) input.
            let start = self.pos;
            let rest = &self.bytes[start..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "invalid UTF-8".to_string())?;
            out.push_str(run);
            let escape = self.pos;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
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
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign (`\u+041`).
                            let c = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {escape}"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {escape}")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("'{text}' is not a number (byte {start})"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Number(-250.0));
        assert_eq!(
            Json::parse("\"a\\\"b\\\\c\\u0041\"").unwrap(),
            Json::String("a\"b\\cA".to_string())
        );
        let v = Json::parse("{\"a\":[1,2,{}],\"b\":\"x\"}").unwrap();
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("a"),
            Some(&Json::Array(vec![
                Json::Number(1.0),
                Json::Number(2.0),
                Json::Object(BTreeMap::new())
            ]))
        );
    }

    #[test]
    fn round_trips_the_emitters_escapes() {
        // Everything sunmap_sim::sweep::json_string can emit must read
        // back to the original text.
        for original in ["plain", "q\"uote", "back\\slash", "tab\there", "bell\u{7}"] {
            let emitted = sunmap_sim::sweep::json_string(original);
            assert_eq!(
                Json::parse(&emitted).unwrap(),
                Json::String(original.to_string()),
                "{emitted}"
            );
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\" 1}", "nul", "1 2", "{}x"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_capped_with_the_byte_offset() {
        let deep = "[".repeat(100_000);
        let e = Json::parse(&deep).unwrap_err();
        assert!(
            e.contains("nesting deeper than 64 levels at byte 64"),
            "{e}"
        );
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = format!("{{\"a\":{at_cap}}}");
        assert!(Json::parse(&past_cap).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let long = "é".repeat(1 << 19);
        let started = std::time::Instant::now();
        let parsed = Json::parse(&format!("\"{long}\"")).unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "a 1 MiB string took {:?}",
            started.elapsed()
        );
        assert_eq!(parsed, Json::String(long));
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        for bad in [
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u04\"",
            "\"\\u00é\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert_eq!(
            Json::parse("\"\\u00e9\\u00C9\"").unwrap(),
            Json::String("éÉ".to_string())
        );
    }

    /// Fragments chosen to collide with every parser state boundary:
    /// string fences and escapes, containers, literals and numbers.
    const FRAGMENTS: &[&str] = &[
        "\"", "\\", "\\u", "\\u00", "41", "e9", "+", "-", "1", "0.5", "e", "[", "]", "{", "}", ":",
        ",", "null", "tru", "true", "false", " ", "\n", "é", "∂", "\\\"", "\\n", "d800",
    ];

    proptest! {
        #[test]
        fn fragment_soup_never_panics(picks in collection::vec(0usize..FRAGMENTS.len(), 0..40)) {
            let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            let _ = Json::parse(&text);
        }

        #[test]
        fn emitted_strings_round_trip(codes in collection::vec(0u32..0x0011_0000, 0..200)) {
            let original: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
            let emitted = sunmap_sim::sweep::json_string(&original);
            prop_assert_eq!(Json::parse(&emitted), Ok(Json::String(original)));
        }
    }
}
