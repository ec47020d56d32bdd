//! Deserialization half: a type pulls itself out of a [`Deserializer`].
//!
//! Unlike real serde there are no visitors. The format is assumed
//! self-describing: a type peeks at the [`Kind`] of the next value when it
//! has to choose (options, enums) and otherwise asks for what it expects.

use std::fmt::Display;

/// Error raised by a deserializer.
pub trait Error: Sized + std::error::Error {
    /// Build an error from a message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// A value that can read itself out of any [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    /// Read a value from `deserializer`.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A type deserializable without borrowing from the input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}

/// What the next value in the input is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// Any number.
    Number,
    /// A string.
    Str,
    /// A sequence.
    Seq,
    /// A map.
    Map,
}

/// A data format source positioned at one value. Every `take_*` method
/// consumes that value or fails.
pub trait Deserializer<'de>: Sized {
    /// Error type.
    type Error: Error;
    /// Reader for a sequence's elements.
    type Seq: SeqAccess<'de, Error = Self::Error>;
    /// Reader for a map's entries.
    type Map: MapAccess<'de, Error = Self::Error>;

    /// Peek at the kind of the next value without consuming it.
    fn kind(&mut self) -> Result<Kind, Self::Error>;
    /// Consume `null`.
    fn take_unit(self) -> Result<(), Self::Error>;
    /// Consume a boolean.
    fn take_bool(self) -> Result<bool, Self::Error>;
    /// Consume a non-negative integer.
    fn take_u64(self) -> Result<u64, Self::Error>;
    /// Consume an integer.
    fn take_i64(self) -> Result<i64, Self::Error>;
    /// Consume any number.
    fn take_f64(self) -> Result<f64, Self::Error>;
    /// Consume a string, lending it to `f`.
    fn take_str<R>(self, f: impl FnOnce(&str) -> R) -> Result<R, Self::Error>;
    /// Consume a sequence.
    fn take_seq(self) -> Result<Self::Seq, Self::Error>;
    /// Consume a map.
    fn take_map(self) -> Result<Self::Map, Self::Error>;
    /// Consume whatever the next value is, buffered.
    fn take_content(self) -> Result<content::Content, Self::Error>;
    /// Consume and discard whatever the next value is.
    fn skip(self) -> Result<(), Self::Error>;
}

/// Reader for the elements of a sequence.
pub trait SeqAccess<'de> {
    /// Error type.
    type Error: Error;
    /// The next element, or `None` at the end of the sequence.
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error>;
}

/// Reader for the entries of a map. Call `next_key`, then exactly one of
/// the value methods, and repeat until `next_key` returns `None`.
pub trait MapAccess<'de> {
    /// Error type.
    type Error: Error;
    /// Lend the next key to `f`, or return `None` at the end of the map.
    fn next_key<R>(&mut self, f: impl FnOnce(&str) -> R) -> Result<Option<R>, Self::Error>;
    /// Read the value of the entry whose key was just read.
    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error>;
    /// Buffer the value of the entry whose key was just read.
    fn next_content(&mut self) -> Result<content::Content, Self::Error>;
    /// Discard the value of the entry whose key was just read.
    fn skip_value(&mut self) -> Result<(), Self::Error>;
}

/// Reads and discards one value of any kind.
pub struct Ignored;

impl<'de> Deserialize<'de> for Ignored {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.skip().map(|()| Ignored)
    }
}

/// Deserializer over a map key. Keys are strings on the wire; integer
/// and newtype-integer key types parse them back.
pub struct KeyDeserializer<'a, E> {
    key: &'a str,
    error: std::marker::PhantomData<E>,
}

impl<'a, E> KeyDeserializer<'a, E> {
    /// Wrap `key`.
    pub fn new(key: &'a str) -> Self {
        KeyDeserializer {
            key,
            error: std::marker::PhantomData,
        }
    }
}

impl<E: Error> KeyDeserializer<'_, E> {
    fn bad<T>(&self, expected: &str) -> Result<T, E> {
        Err(E::custom(format_args!(
            "invalid map key {:?}: expected {expected}",
            self.key
        )))
    }
}

impl<'de, E: Error> Deserializer<'de> for KeyDeserializer<'_, E> {
    type Error = E;
    type Seq = content::ContentSeq<E>;
    type Map = content::ContentMap<E>;

    fn kind(&mut self) -> Result<Kind, E> {
        Ok(Kind::Str)
    }
    fn take_unit(self) -> Result<(), E> {
        self.bad("null")
    }
    fn take_bool(self) -> Result<bool, E> {
        self.key.parse().or_else(|_| self.bad("a boolean"))
    }
    fn take_u64(self) -> Result<u64, E> {
        self.key
            .parse()
            .or_else(|_| self.bad("a non-negative integer"))
    }
    fn take_i64(self) -> Result<i64, E> {
        self.key.parse().or_else(|_| self.bad("an integer"))
    }
    fn take_f64(self) -> Result<f64, E> {
        self.key.parse().or_else(|_| self.bad("a number"))
    }
    fn take_str<R>(self, f: impl FnOnce(&str) -> R) -> Result<R, E> {
        Ok(f(self.key))
    }
    fn take_seq(self) -> Result<Self::Seq, E> {
        self.bad("a sequence")
    }
    fn take_map(self) -> Result<Self::Map, E> {
        self.bad("a map")
    }
    fn take_content(self) -> Result<content::Content, E> {
        Ok(content::Content::Str(self.key.to_owned()))
    }
    fn skip(self) -> Result<(), E> {
        Ok(())
    }
}

/// Deserializer standing in for a struct field absent from the input:
/// `Option` fields read `None`, everything else reports the field.
struct MissingField<E> {
    field: &'static str,
    error: std::marker::PhantomData<E>,
}

impl<E: Error> MissingField<E> {
    fn missing<T>(&self) -> Result<T, E> {
        Err(E::custom(format_args!("missing field `{}`", self.field)))
    }
}

impl<'de, E: Error> Deserializer<'de> for MissingField<E> {
    type Error = E;
    type Seq = content::ContentSeq<E>;
    type Map = content::ContentMap<E>;

    fn kind(&mut self) -> Result<Kind, E> {
        Ok(Kind::Null)
    }
    fn take_unit(self) -> Result<(), E> {
        Ok(())
    }
    fn take_bool(self) -> Result<bool, E> {
        self.missing()
    }
    fn take_u64(self) -> Result<u64, E> {
        self.missing()
    }
    fn take_i64(self) -> Result<i64, E> {
        self.missing()
    }
    fn take_f64(self) -> Result<f64, E> {
        self.missing()
    }
    fn take_str<R>(self, _: impl FnOnce(&str) -> R) -> Result<R, E> {
        self.missing()
    }
    fn take_seq(self) -> Result<Self::Seq, E> {
        self.missing()
    }
    fn take_map(self) -> Result<Self::Map, E> {
        self.missing()
    }
    fn take_content(self) -> Result<content::Content, E> {
        self.missing()
    }
    fn skip(self) -> Result<(), E> {
        Ok(())
    }
}

/// The value of a struct field that the input did not contain.
pub fn missing_field<'de, T: Deserialize<'de>, E: Error>(field: &'static str) -> Result<T, E> {
    T::deserialize(MissingField {
        field,
        error: std::marker::PhantomData,
    })
}

/// Error for an enum tag that names no variant.
pub fn unknown_variant<E: Error>(variant: &str, of: &str) -> E {
    E::custom(format_args!("unknown variant `{variant}` of enum {of}"))
}

/// Buffered values, for `#[serde(flatten)]`: the entries a struct does
/// not recognise are kept and replayed into the flattened field.
pub mod content {
    use super::{Deserialize, Deserializer, Error, Kind, MapAccess, SeqAccess};
    use std::marker::PhantomData;

    /// One buffered value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Content {
        /// `null`
        Null,
        /// A boolean.
        Bool(bool),
        /// A non-negative integer.
        U64(u64),
        /// A negative integer.
        I64(i64),
        /// A non-integer number.
        F64(f64),
        /// A string.
        Str(String),
        /// A sequence.
        Seq(Vec<Content>),
        /// A map, in input order.
        Map(Vec<(String, Content)>),
    }

    impl Content {
        fn describe(&self) -> &'static str {
            match self {
                Content::Null => "null",
                Content::Bool(_) => "a boolean",
                Content::U64(_) | Content::I64(_) => "an integer",
                Content::F64(_) => "a float",
                Content::Str(_) => "a string",
                Content::Seq(_) => "a sequence",
                Content::Map(_) => "a map",
            }
        }
    }

    /// Deserializer over a buffered value.
    pub struct ContentDeserializer<E> {
        content: Content,
        error: PhantomData<E>,
    }

    impl<E> ContentDeserializer<E> {
        /// Wrap `content`.
        pub fn new(content: Content) -> Self {
            ContentDeserializer {
                content,
                error: PhantomData,
            }
        }
    }

    impl<E: Error> ContentDeserializer<E> {
        fn bad<T>(&self, expected: &str) -> Result<T, E> {
            Err(E::custom(format_args!(
                "invalid type: {}, expected {expected}",
                self.content.describe()
            )))
        }
    }

    impl<'de, E: Error> Deserializer<'de> for ContentDeserializer<E> {
        type Error = E;
        type Seq = ContentSeq<E>;
        type Map = ContentMap<E>;

        fn kind(&mut self) -> Result<Kind, E> {
            Ok(match self.content {
                Content::Null => Kind::Null,
                Content::Bool(_) => Kind::Bool,
                Content::U64(_) | Content::I64(_) | Content::F64(_) => Kind::Number,
                Content::Str(_) => Kind::Str,
                Content::Seq(_) => Kind::Seq,
                Content::Map(_) => Kind::Map,
            })
        }
        fn take_unit(self) -> Result<(), E> {
            match self.content {
                Content::Null => Ok(()),
                _ => self.bad("null"),
            }
        }
        fn take_bool(self) -> Result<bool, E> {
            match self.content {
                Content::Bool(b) => Ok(b),
                _ => self.bad("a boolean"),
            }
        }
        fn take_u64(self) -> Result<u64, E> {
            match self.content {
                Content::U64(v) => Ok(v),
                _ => self.bad("a non-negative integer"),
            }
        }
        fn take_i64(self) -> Result<i64, E> {
            match self.content {
                Content::I64(v) => Ok(v),
                Content::U64(v) => i64::try_from(v).or_else(|_| self.bad("an i64")),
                _ => self.bad("an integer"),
            }
        }
        fn take_f64(self) -> Result<f64, E> {
            match self.content {
                Content::F64(v) => Ok(v),
                Content::U64(v) => Ok(v as f64),
                Content::I64(v) => Ok(v as f64),
                _ => self.bad("a number"),
            }
        }
        fn take_str<R>(self, f: impl FnOnce(&str) -> R) -> Result<R, E> {
            match &self.content {
                Content::Str(s) => Ok(f(s)),
                _ => self.bad("a string"),
            }
        }
        fn take_seq(self) -> Result<ContentSeq<E>, E> {
            match self.content {
                Content::Seq(v) => Ok(ContentSeq {
                    iter: v.into_iter(),
                    error: PhantomData,
                }),
                _ => self.bad("a sequence"),
            }
        }
        fn take_map(self) -> Result<ContentMap<E>, E> {
            match self.content {
                Content::Map(v) => Ok(ContentMap {
                    iter: v.into_iter(),
                    value: None,
                    error: PhantomData,
                }),
                _ => self.bad("a map"),
            }
        }
        fn take_content(self) -> Result<Content, E> {
            Ok(self.content)
        }
        fn skip(self) -> Result<(), E> {
            Ok(())
        }
    }

    /// Sequence reader over buffered elements.
    pub struct ContentSeq<E> {
        iter: std::vec::IntoIter<Content>,
        error: PhantomData<E>,
    }

    impl<'de, E: Error> SeqAccess<'de> for ContentSeq<E> {
        type Error = E;
        fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, E> {
            self.iter
                .next()
                .map(|c| T::deserialize(ContentDeserializer::new(c)))
                .transpose()
        }
    }

    /// Map reader over buffered entries.
    pub struct ContentMap<E> {
        iter: std::vec::IntoIter<(String, Content)>,
        value: Option<Content>,
        error: PhantomData<E>,
    }

    impl<'de, E: Error> MapAccess<'de> for ContentMap<E> {
        type Error = E;
        fn next_key<R>(&mut self, f: impl FnOnce(&str) -> R) -> Result<Option<R>, E> {
            Ok(self.iter.next().map(|(k, v)| {
                self.value = Some(v);
                f(&k)
            }))
        }
        fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, E> {
            V::deserialize(ContentDeserializer::new(self.next_content()?))
        }
        fn next_content(&mut self) -> Result<Content, E> {
            self.value
                .take()
                .ok_or_else(|| E::custom("map value read before its key"))
        }
        fn skip_value(&mut self) -> Result<(), E> {
            self.value = None;
            Ok(())
        }
    }
}
