//! Compact JSON writer.

use crate::Error;
use serde::ser::{Serialize, SerializeMap, SerializeSeq, Serializer};

/// Serializer appending one JSON value to a byte buffer.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    pub fn new(out: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { out }
    }
}

fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

fn write_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    write_u64(out, v.unsigned_abs());
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0C => b"\\f",
            0x00..=0x1F => {
                out.extend_from_slice(&bytes[start..i]);
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(&[
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 0xF)],
                ]);
                start = i + 1;
                continue;
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[start..i]);
        out.extend_from_slice(escape);
        start = i + 1;
    }
    out.extend_from_slice(&bytes[start..]);
    out.push(b'"');
}

impl<'a> Serializer for Writer<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a>;
    type SerializeMap = Compound<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), Error> {
        self.out
            .extend_from_slice(if v { b"true" } else { b"false" });
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<(), Error> {
        write_i64(self.out, v);
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<(), Error> {
        write_u64(self.out, v);
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<(), Error> {
        if v.is_finite() {
            // `{:?}` keeps a fractional part or exponent, so the value
            // reads back as a float ("1.0", not "1").
            use std::io::Write;
            write!(self.out, "{v:?}").expect("writing to a Vec cannot fail");
        } else {
            self.out.extend_from_slice(b"null");
        }
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<(), Error> {
        write_str(self.out, v);
        Ok(())
    }
    fn serialize_unit(self) -> Result<(), Error> {
        self.out.extend_from_slice(b"null");
        Ok(())
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a>, Error> {
        self.out.push(b'[');
        Ok(Compound {
            out: self.out,
            first: true,
        })
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a>, Error> {
        self.out.push(b'{');
        Ok(Compound {
            out: self.out,
            first: true,
        })
    }
}

/// An open `[` or `{`.
pub struct Compound<'a> {
    out: &'a mut Vec<u8>,
    first: bool,
}

impl Compound<'_> {
    fn separate(&mut self) {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
    }
}

impl SerializeSeq for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
        self.separate();
        value.serialize(Writer { out: self.out })
    }
    fn end(self) -> Result<(), Error> {
        self.out.push(b']');
        Ok(())
    }
}

impl SerializeMap for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_entry<K: ?Sized + Serialize, V: ?Sized + Serialize>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), Error> {
        self.separate();
        key.serialize(KeyWriter { out: self.out })?;
        self.out.push(b':');
        value.serialize(Writer { out: self.out })
    }
    fn end(self) -> Result<(), Error> {
        self.out.push(b'}');
        Ok(())
    }
}

/// Serializer for map keys: JSON keys are strings, so scalars are quoted
/// and anything structured is refused.
struct KeyWriter<'a> {
    out: &'a mut Vec<u8>,
}

fn key_must_be_scalar<T>() -> Result<T, Error> {
    Err(Error("map key must be a string or a scalar".into()))
}

impl<'a> Serializer for KeyWriter<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a>;
    type SerializeMap = Compound<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), Error> {
        write_str(self.out, if v { "true" } else { "false" });
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<(), Error> {
        self.out.push(b'"');
        write_i64(self.out, v);
        self.out.push(b'"');
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<(), Error> {
        self.out.push(b'"');
        write_u64(self.out, v);
        self.out.push(b'"');
        Ok(())
    }
    fn serialize_f64(self, _: f64) -> Result<(), Error> {
        key_must_be_scalar()
    }
    fn serialize_str(self, v: &str) -> Result<(), Error> {
        write_str(self.out, v);
        Ok(())
    }
    fn serialize_unit(self) -> Result<(), Error> {
        key_must_be_scalar()
    }
    fn serialize_seq(self, _: Option<usize>) -> Result<Compound<'a>, Error> {
        key_must_be_scalar()
    }
    fn serialize_map(self, _: Option<usize>) -> Result<Compound<'a>, Error> {
        key_must_be_scalar()
    }
}
