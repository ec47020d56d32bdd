//! `Serialize` / `Deserialize` for the standard types the product uses.

use crate::de::{
    Deserialize, Deserializer, Error as DeError, Ignored, KeyDeserializer, Kind, MapAccess,
    SeqAccess,
};
use crate::ser::{Serialize, SerializeMap, SerializeSeq, Serializer};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::rc::Rc;
use std::sync::Arc;

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_u64(*self as u64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let v = d.take_u64()?;
                <$t>::try_from(v).map_err(|_| {
                    D::Error::custom(format_args!(
                        "integer {v} out of range for {}", stringify!($t)
                    ))
                })
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_i64(*self as i64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let v = d.take_i64()?;
                <$t>::try_from(v).map_err(|_| {
                    D::Error::custom(format_args!(
                        "integer {v} out of range for {}", stringify!($t)
                    ))
                })
            }
        }
    )*};
}
signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(*self)
    }
}
impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_f64()
    }
}
impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(f64::from(*self))
    }
}
impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_f64().map(|v| v as f32)
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bool(*self)
    }
}
impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_bool()
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self.encode_utf8(&mut [0; 4]))
    }
}
impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_str(|s| {
            let mut chars = s.chars();
            match (chars.next(), chars.next()) {
                (Some(c), None) => Ok(c),
                _ => Err(D::Error::custom("expected a single character")),
            }
        })?
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_unit()
    }
}
impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_unit()
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}
impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}
impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_str(str::to_owned)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}
impl<T: Serialize + ?Sized> Serialize for &mut T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

macro_rules! pointer {
    ($($p:ident),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $p<T> {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                (**self).serialize(s)
            }
        }
        impl<'de, T: Deserialize<'de>> Deserialize<'de> for $p<T> {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                T::deserialize(d).map($p::new)
            }
        }
    )*};
}
pointer!(Box, Rc, Arc);

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => v.serialize(s),
            None => s.serialize_unit(),
        }
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(mut d: D) -> Result<Self, D::Error> {
        match d.kind()? {
            Kind::Null => d.take_unit().map(|()| None),
            _ => T::deserialize(d).map(Some),
        }
    }
}

fn serialize_iter<S: Serializer, T: Serialize>(
    s: S,
    len: usize,
    iter: impl Iterator<Item = T>,
) -> Result<S::Ok, S::Error> {
    let mut seq = s.serialize_seq(Some(len))?;
    for item in iter {
        seq.serialize_element(&item)?;
    }
    seq.end()
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        serialize_iter(s, self.len(), self.iter())
    }
}

/// Sequence containers: written element by element, read back through
/// `FromIterator` so ordered and hashed collections share one body.
macro_rules! sequence {
    ($($name:ident<T $(, $h:ident)?> where ($($sb:tt)*) ($($db:tt)*);)*) => {$(
        impl<T: Serialize $($sb)* $(, $h: BuildHasher)?> Serialize for $name<T $(, $h)?> {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                serialize_iter(s, self.len(), self.iter())
            }
        }
        impl<'de, T: Deserialize<'de> $($db)* $(, $h: BuildHasher + Default)?> Deserialize<'de>
            for $name<T $(, $h)?>
        {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let mut seq = d.take_seq()?;
                let mut out = Self::default();
                while let Some(item) = seq.next_element::<T>()? {
                    out.extend(std::iter::once(item));
                }
                Ok(out)
            }
        }
    )*};
}
sequence! {
    Vec<T> where () ();
    VecDeque<T> where () ();
    BinaryHeap<T> where (+ Ord) (+ Ord);
    BTreeSet<T> where (+ Ord) (+ Ord);
    HashSet<T, H> where (+ Eq + Hash) (+ Eq + Hash);
}

macro_rules! map {
    ($($name:ident<K, V $(, $h:ident)?> where ($($kb:tt)*);)*) => {$(
        impl<K: Serialize $($kb)*, V: Serialize $(, $h: BuildHasher)?> Serialize
            for $name<K, V $(, $h)?>
        {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                let mut map = s.serialize_map(Some(self.len()))?;
                for (k, v) in self {
                    map.serialize_entry(k, v)?;
                }
                map.end()
            }
        }
        impl<'de, K: Deserialize<'de> $($kb)*, V: Deserialize<'de> $(, $h: BuildHasher + Default)?>
            Deserialize<'de> for $name<K, V $(, $h)?>
        {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let mut map = d.take_map()?;
                let mut out = Self::default();
                while let Some(key) =
                    map.next_key(|k| K::deserialize(KeyDeserializer::<D::Error>::new(k)))?
                {
                    out.insert(key?, map.next_value()?);
                }
                Ok(out)
            }
        }
    )*};
}
map! {
    BTreeMap<K, V> where (+ Ord);
    HashMap<K, V, H> where (+ Eq + Hash);
}

macro_rules! tuple {
    ($(($($g:ident $i:tt),+))*) => {$(
        impl<$($g: Serialize),+> Serialize for ($($g,)+) {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                let mut seq = s.serialize_seq(None)?;
                $(seq.serialize_element(&self.$i)?;)+
                seq.end()
            }
        }
        impl<'de, $($g: Deserialize<'de>),+> Deserialize<'de> for ($($g,)+) {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let mut seq = d.take_seq()?;
                let out = ($(
                    seq.next_element::<$g>()?
                        .ok_or_else(|| D::Error::custom("tuple is too short"))?,
                )+);
                match seq.next_element::<Ignored>()? {
                    None => Ok(out),
                    Some(_) => Err(D::Error::custom("tuple is too long")),
                }
            }
        }
    )*};
}
tuple! {
    (T0 0)
    (T0 0, T1 1)
    (T0 0, T1 1, T2 2)
    (T0 0, T1 1, T2 2, T3 3)
    (T0 0, T1 1, T2 2, T3 3, T4 4)
    (T0 0, T1 1, T2 2, T3 3, T4 4, T5 5)
}
