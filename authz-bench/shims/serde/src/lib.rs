//! Working offline stand-in for `serde`, for the authz-bench build only.
//!
//! The benchmark has to build the product crates in a checkout with no
//! crate registry, so it patches `serde` to this crate. It keeps the
//! paths and signatures the product code is written against
//! (`Serialize`, `Deserialize<'de>`, generic `Serializer` /
//! `Deserializer<'de>` bounds in `#[serde(with = ..)]` modules,
//! `de::Error::custom`, the derive macros) but narrows the data model to
//! what a self-describing text format needs: booleans, integers, floats,
//! strings, null, sequences and string-keyed maps. Serialization streams
//! into the format; deserialization is pull-based (no visitors).
//!
//! It is not a general serde replacement: formats other than the
//! `serde_json` shim next to it, borrowed deserialization, and any derive
//! attribute beyond `default`, `skip`, `flatten` and `with` are out of
//! scope and fail to compile rather than misbehave.

pub mod de;
mod impls;
pub mod ser;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};
pub use serde_derive::{Deserialize, Serialize};

/// Support code the derive macros expand to. Not a public interface.
#[doc(hidden)]
pub mod __private {
    pub use crate::de::content::{Content, ContentDeserializer};
    pub use crate::de::{missing_field, unknown_variant};
    pub use crate::ser::FlatMapSerializer;
}
