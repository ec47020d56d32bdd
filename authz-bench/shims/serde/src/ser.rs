//! Serialization half: a type streams itself into a [`Serializer`].

use std::fmt::Display;

/// Error raised by a serializer.
pub trait Error: Sized + std::error::Error {
    /// Build an error from a message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// A value that can write itself into any [`Serializer`].
pub trait Serialize {
    /// Stream `self` into `serializer`.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A data format sink. Structs are maps with string keys, tuples are
/// sequences, enums are externally tagged (`"Unit"` or `{"Variant": ..}`),
/// `None` and `()` are null.
pub trait Serializer: Sized {
    /// Value returned on success.
    type Ok;
    /// Error type.
    type Error: Error;
    /// Sequence writer.
    type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    /// Map writer.
    type SerializeMap: SerializeMap<Ok = Self::Ok, Error = Self::Error>;

    /// Write a boolean.
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    /// Write a signed integer.
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    /// Write an unsigned integer.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    /// Write a float.
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    /// Write a string.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    /// Write null (`()`, `None`, unit structs).
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
    /// Begin a sequence.
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
    /// Begin a map.
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;
}

/// Writer for the elements of a sequence.
pub trait SerializeSeq {
    /// Value returned on success.
    type Ok;
    /// Error type.
    type Error: Error;
    /// Write one element.
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Close the sequence.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Writer for the entries of a map.
pub trait SerializeMap {
    /// Value returned on success.
    type Ok;
    /// Error type.
    type Error: Error;
    /// Write one key and its value.
    fn serialize_entry<K: ?Sized + Serialize, V: ?Sized + Serialize>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), Self::Error>;
    /// Close the map.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Serializer handed to a `#[serde(flatten)]` field: the field must write
/// a map, whose entries land in the enclosing struct's map.
pub struct FlatMapSerializer<'a, M>(pub &'a mut M);

impl<'a, M: SerializeMap> FlatMapSerializer<'a, M> {
    fn not_a_map<T>() -> Result<T, M::Error> {
        Err(M::Error::custom("can only flatten structs and maps"))
    }
}

impl<'a, M: SerializeMap> Serializer for FlatMapSerializer<'a, M> {
    type Ok = ();
    type Error = M::Error;
    type SerializeSeq = NeverSeq<M::Error>;
    type SerializeMap = FlatMap<'a, M>;

    fn serialize_bool(self, _: bool) -> Result<(), M::Error> {
        Self::not_a_map()
    }
    fn serialize_i64(self, _: i64) -> Result<(), M::Error> {
        Self::not_a_map()
    }
    fn serialize_u64(self, _: u64) -> Result<(), M::Error> {
        Self::not_a_map()
    }
    fn serialize_f64(self, _: f64) -> Result<(), M::Error> {
        Self::not_a_map()
    }
    fn serialize_str(self, _: &str) -> Result<(), M::Error> {
        Self::not_a_map()
    }
    fn serialize_unit(self) -> Result<(), M::Error> {
        Ok(())
    }
    fn serialize_seq(self, _: Option<usize>) -> Result<NeverSeq<M::Error>, M::Error> {
        Self::not_a_map()
    }
    fn serialize_map(self, _: Option<usize>) -> Result<FlatMap<'a, M>, M::Error> {
        Ok(FlatMap(self.0))
    }
}

/// Map writer that forwards entries into an enclosing map.
pub struct FlatMap<'a, M>(&'a mut M);

impl<M: SerializeMap> SerializeMap for FlatMap<'_, M> {
    type Ok = ();
    type Error = M::Error;
    fn serialize_entry<K: ?Sized + Serialize, V: ?Sized + Serialize>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), M::Error> {
        self.0.serialize_entry(key, value)
    }
    fn end(self) -> Result<(), M::Error> {
        Ok(())
    }
}

/// Uninhabited sequence writer for serializers that never write one.
pub struct NeverSeq<E>(std::convert::Infallible, std::marker::PhantomData<E>);

impl<E: Error> SerializeSeq for NeverSeq<E> {
    type Ok = ();
    type Error = E;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, _: &T) -> Result<(), E> {
        match self.0 {}
    }
    fn end(self) -> Result<(), E> {
        match self.0 {}
    }
}
