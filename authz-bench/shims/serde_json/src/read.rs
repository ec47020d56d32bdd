//! Pull parser for JSON text.

use crate::Error;
use serde::__private::Content;
use serde::de::{Deserialize, Deserializer, Kind, MapAccess, SeqAccess};

/// Nesting bound, so hostile input fails instead of overflowing the
/// stack (real `serde_json` uses the same limit).
const MAX_DEPTH: usize = 128;

/// Parser state over one JSON document.
pub struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    depth: usize,
    /// Reused buffer for strings that contain escapes.
    scratch: Vec<u8>,
}

type Result<T> = std::result::Result<T, Error>;

impl<'a> Parser<'a> {
    pub fn new(input: &'a [u8]) -> Parser<'a> {
        Parser {
            input,
            pos: 0,
            depth: 0,
            scratch: Vec::new(),
        }
    }

    fn err<T>(&self, msg: &str) -> Result<T> {
        Err(Error(format!("{msg} at byte {}", self.pos)))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\t' | b'\r') = self.input.get(self.pos) {
            self.pos += 1;
        }
    }

    /// Next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Result<u8> {
        self.skip_ws();
        match self.input.get(self.pos) {
            Some(&b) => Ok(b),
            None => self.err("unexpected end of input"),
        }
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", char::from(byte)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<()> {
        self.skip_ws();
        if self.input[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            self.err(&format!("expected `{word}`"))
        }
    }

    /// Only whitespace may follow the document.
    pub fn finish(&mut self) -> Result<()> {
        self.skip_ws();
        if self.pos == self.input.len() {
            Ok(())
        } else {
            self.err("trailing characters")
        }
    }

    fn kind_of(&mut self) -> Result<Kind> {
        Ok(match self.peek()? {
            b'n' => Kind::Null,
            b't' | b'f' => Kind::Bool,
            b'-' | b'0'..=b'9' => Kind::Number,
            b'"' => Kind::Str,
            b'[' => Kind::Seq,
            b'{' => Kind::Map,
            _ => return self.err("expected a JSON value"),
        })
    }

    /// The text of the number at the cursor, consumed.
    fn number(&mut self) -> Result<&'a str> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = self.input.get(self.pos) {
            self.pos += 1;
        }
        if start == self.pos {
            return self.err("expected a number");
        }
        // The matched bytes are ASCII.
        Ok(std::str::from_utf8(&self.input[start..self.pos]).expect("ASCII"))
    }

    fn hex4(&mut self) -> Result<u32> {
        let Some(digits) = self.input.get(self.pos..self.pos + 4) else {
            return self.err("truncated \\u escape");
        };
        let mut v = 0u32;
        for &d in digits {
            let Some(n) = char::from(d).to_digit(16) else {
                return self.err("invalid \\u escape");
            };
            v = v * 16 + n;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Parse the string at the cursor and lend it to `f`. Strings without
    /// escapes are borrowed from the input; others are unescaped into the
    /// scratch buffer.
    fn string<R>(&mut self, f: impl FnOnce(&str) -> R) -> Result<R> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.input.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    let Ok(s) = std::str::from_utf8(&self.input[start..self.pos]) else {
                        return self.err("string is not UTF-8");
                    };
                    self.pos += 1;
                    return Ok(f(s));
                }
                Some(b'\\') => break,
                Some(0x00..=0x1F) => return self.err("control character in string"),
                Some(_) => self.pos += 1,
            }
        }
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.extend_from_slice(&self.input[start..self.pos]);
        let result = self.string_tail(&mut buf).and_then(|()| {
            std::str::from_utf8(&buf)
                .map(f)
                .or_else(|_| self.err("string is not UTF-8"))
        });
        self.scratch = buf;
        result
    }

    /// Continue a string from its first escape, appending to `buf`.
    fn string_tail(&mut self, buf: &mut Vec<u8>) -> Result<()> {
        loop {
            let Some(&b) = self.input.get(self.pos) else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(()),
                b'\\' => {
                    let Some(&e) = self.input.get(self.pos) else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    let c = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{C}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                if self.input.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return self.err("lone surrogate in string");
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid surrogate pair");
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => c,
                                None => return self.err("invalid unicode escape"),
                            }
                        }
                        _ => return self.err("invalid escape"),
                    };
                    buf.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                0x00..=0x1F => return self.err("control character in string"),
                _ => buf.push(b),
            }
        }
    }

    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err("recursion limit exceeded");
        }
        Ok(())
    }

    /// Step inside a sequence or map: `Ok(false)` (closer consumed) at its
    /// end, else `Ok(true)` positioned at the next item.
    fn next_item(&mut self, first: &mut bool, close: u8) -> Result<bool> {
        let b = self.peek()?;
        if b == close {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        if !std::mem::replace(first, false) {
            if b != b',' {
                return self.err("expected `,`");
            }
            self.pos += 1;
        }
        Ok(true)
    }

    fn content(&mut self) -> Result<Content> {
        Ok(match self.kind_of()? {
            Kind::Null => {
                self.literal("null")?;
                Content::Null
            }
            Kind::Bool => Content::Bool(self.take_bool()?),
            Kind::Number => {
                let text = self.number()?;
                if let Ok(v) = text.parse::<u64>() {
                    Content::U64(v)
                } else if let Ok(v) = text.parse::<i64>() {
                    Content::I64(v)
                } else if let Ok(v) = text.parse::<f64>() {
                    Content::F64(v)
                } else {
                    return self.err("invalid number");
                }
            }
            Kind::Str => Content::Str(self.string(str::to_owned)?),
            Kind::Seq => {
                let mut seq = self.take_seq()?;
                let mut items = Vec::new();
                while seq.parser.next_item(&mut seq.first, b']')? {
                    items.push(seq.parser.content()?);
                }
                Content::Seq(items)
            }
            Kind::Map => {
                let mut map = self.take_map()?;
                let mut entries = Vec::new();
                while let Some(key) = map.next_key(str::to_owned)? {
                    entries.push((key, map.parser.content()?));
                }
                Content::Map(entries)
            }
        })
    }
}

impl<'de, 'p, 'a> Deserializer<'de> for &'p mut Parser<'a> {
    type Error = Error;
    type Seq = Items<'p, 'a>;
    type Map = Items<'p, 'a>;

    fn kind(&mut self) -> Result<Kind> {
        self.kind_of()
    }
    fn take_unit(self) -> Result<()> {
        self.literal("null")
    }
    fn take_bool(self) -> Result<bool> {
        if self.peek()? == b't' {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }
    fn take_u64(self) -> Result<u64> {
        let text = self.number()?;
        text.parse()
            .or_else(|_| self.err(&format!("`{text}` is not a non-negative integer")))
    }
    fn take_i64(self) -> Result<i64> {
        let text = self.number()?;
        text.parse()
            .or_else(|_| self.err(&format!("`{text}` is not an integer")))
    }
    fn take_f64(self) -> Result<f64> {
        let text = self.number()?;
        text.parse()
            .or_else(|_| self.err(&format!("`{text}` is not a number")))
    }
    fn take_str<R>(self, f: impl FnOnce(&str) -> R) -> Result<R> {
        self.string(f)
    }
    fn take_seq(self) -> Result<Items<'p, 'a>> {
        self.expect(b'[')?;
        self.enter()?;
        Ok(Items {
            parser: self,
            first: true,
        })
    }
    fn take_map(self) -> Result<Items<'p, 'a>> {
        self.expect(b'{')?;
        self.enter()?;
        Ok(Items {
            parser: self,
            first: true,
        })
    }
    fn take_content(self) -> Result<Content> {
        self.content()
    }
    fn skip(self) -> Result<()> {
        match self.kind_of()? {
            Kind::Null => self.literal("null"),
            Kind::Bool => self.take_bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::Str => self.string(|_| ()),
            Kind::Seq => {
                let mut seq = self.take_seq()?;
                while seq.parser.next_item(&mut seq.first, b']')? {
                    (&mut *seq.parser).skip()?;
                }
                Ok(())
            }
            Kind::Map => {
                let mut map = self.take_map()?;
                while map.next_key(|_| ())?.is_some() {
                    map.skip_value()?;
                }
                Ok(())
            }
        }
    }
}

/// Cursor inside an open `[` or `{`.
pub struct Items<'p, 'a> {
    parser: &'p mut Parser<'a>,
    first: bool,
}

impl<'de> SeqAccess<'de> for Items<'_, '_> {
    type Error = Error;
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>> {
        if self.parser.next_item(&mut self.first, b']')? {
            T::deserialize(&mut *self.parser).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<'de> MapAccess<'de> for Items<'_, '_> {
    type Error = Error;
    fn next_key<R>(&mut self, f: impl FnOnce(&str) -> R) -> Result<Option<R>> {
        if !self.parser.next_item(&mut self.first, b'}')? {
            return Ok(None);
        }
        if self.parser.peek()? != b'"' {
            return self.parser.err("expected a string key");
        }
        let key = self.parser.string(f)?;
        self.parser.expect(b':')?;
        Ok(Some(key))
    }
    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V> {
        V::deserialize(&mut *self.parser)
    }
    fn next_content(&mut self) -> Result<Content> {
        self.parser.content()
    }
    fn skip_value(&mut self) -> Result<()> {
        (&mut *self.parser).skip()
    }
}
