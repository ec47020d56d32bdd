//! Working offline stand-in for `serde_json`, for the authz-bench build.
//!
//! Compact JSON writer and a pull parser over the serde shim's reduced
//! data model. Only the entry points the product's library code calls
//! exist: [`to_vec`], [`to_string`], [`from_slice`], [`from_str`]. The
//! wire format matches real `serde_json` for the shapes the product
//! serializes (externally tagged enums, integer map keys as strings), so
//! byte counts are comparable; speed is this crate's, not the real one's.

mod read;
mod write;

use std::fmt;

/// A JSON encoding or decoding failure.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize `value` as compact JSON bytes.
pub fn to_vec<T: ?Sized + serde::Serialize>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    value.serialize(write::Writer::new(&mut out))?;
    Ok(out)
}

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: ?Sized + serde::Serialize>(value: &T) -> Result<String> {
    // The writer only emits `str` contents and ASCII punctuation.
    Ok(String::from_utf8(to_vec(value)?).expect("writer emits UTF-8"))
}

/// Deserialize a value from JSON bytes. Trailing non-whitespace is an
/// error.
pub fn from_slice<'a, T: serde::Deserialize<'a>>(bytes: &'a [u8]) -> Result<T> {
    let mut parser = read::Parser::new(bytes);
    let value = T::deserialize(&mut parser)?;
    parser.finish()?;
    Ok(value)
}

/// Deserialize a value from a JSON string.
pub fn from_str<'a, T: serde::Deserialize<'a>>(s: &'a str) -> Result<T> {
    from_slice(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    #[derive(Debug, PartialEq, Clone, Copy, PartialOrd, Ord, Eq, Serialize, Deserialize)]
    struct Id(u32);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Unit,
        Newtype(Id),
        Tuple(i64, String),
        Struct { a: Option<u8>, b: Vec<bool> },
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Inner {
        x: f64,
        name: String,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Outer {
        version: u32,
        #[serde(flatten)]
        inner: Inner,
        #[serde(default)]
        added_later: usize,
        #[serde(skip)]
        cache: Option<String>,
        by_id: BTreeMap<Id, Shape>,
        pair: (Id, char),
        nothing: Option<Id>,
    }

    fn outer() -> Outer {
        Outer {
            version: 2,
            inner: Inner {
                x: -1.5,
                name: "quote \" slash \\ newline \n tab \t unicode é \u{1}".into(),
            },
            added_later: 7,
            cache: Some("not serialized".into()),
            by_id: BTreeMap::from([
                (Id(1), Shape::Unit),
                (Id(2), Shape::Newtype(Id(9))),
                (Id(3), Shape::Tuple(-4, "t".into())),
                (
                    Id(4),
                    Shape::Struct {
                        a: None,
                        b: vec![true, false],
                    },
                ),
            ]),
            pair: (Id(5), 'z'),
            nothing: None,
        }
    }

    #[test]
    fn wire_format_matches_real_serde_json() {
        assert_eq!(to_string(&Shape::Unit).unwrap(), r#""Unit""#);
        assert_eq!(
            to_string(&Shape::Newtype(Id(3))).unwrap(),
            r#"{"Newtype":3}"#
        );
        assert_eq!(
            to_string(&Shape::Tuple(-4, "t".into())).unwrap(),
            r#"{"Tuple":[-4,"t"]}"#
        );
        assert_eq!(
            to_string(&Shape::Struct {
                a: Some(1),
                b: vec![]
            })
            .unwrap(),
            r#"{"Struct":{"a":1,"b":[]}}"#
        );
        assert_eq!(
            to_string(&BTreeMap::from([(Id(7), 1.0f64)])).unwrap(),
            r#"{"7":1.0}"#
        );
    }

    #[test]
    fn round_trips_every_supported_shape() {
        let json = to_string(&outer()).unwrap();
        assert!(
            json.starts_with(r#"{"version":2,"x":-1.5,"name":"#),
            "{json}"
        );
        let back: Outer = from_str(&json).unwrap();
        let mut want = outer();
        want.cache = None;
        assert_eq!(back, want);
    }

    #[test]
    fn missing_defaulted_and_optional_fields_are_filled() {
        let back: Outer =
            from_str(r#" { "version":1, "x":0, "name":"", "by_id":{}, "pair":[1,"a"], "extra":[{"k":null}] } "#)
                .unwrap();
        assert_eq!(back.added_later, 0);
        assert_eq!(back.nothing, None);
        assert_eq!(back.inner.x, 0.0);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            r#"{"version":}"#,
            r#"{"version":1"#,
            r#"{"version":-1,"x":0,"name":"","by_id":{},"pair":[1,"a"]}"#,
            r#"{"version":1,"x":0,"name":"","by_id":{"x":"Unit"},"pair":[1,"a"]}"#,
            r#"{"version":1,"x":0,"name":"","by_id":{},"pair":[1,"a"]} trailing"#,
            r#"{"version":1,"x":0,"name":"\ud800","by_id":{},"pair":[1,"a"]}"#,
            "\"unterminated",
            "[1,2",
            "nul",
        ] {
            assert!(from_str::<Outer>(bad).is_err(), "accepted {bad:?}");
        }
        assert!(from_str::<Shape>(r#""Nope""#).is_err());
        assert!(from_str::<Shape>(r#"{"Unit":null,"Newtype":1}"#).is_err());
        assert!(from_slice::<String>(b"\"\xff\"").is_err());
        let deep = "[".repeat(100_000);
        assert!(from_str::<Vec<serde::de::Ignored>>(&deep).is_err());
    }

    #[test]
    fn integers_keep_full_range() {
        let v = (u64::MAX, i64::MIN);
        let back: (u64, i64) = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<u64>("18446744073709551616").is_err());
        assert!(from_str::<u64>("1.0").is_err());
        assert_eq!(from_str::<f64>("1e3").unwrap(), 1000.0);
    }
}
