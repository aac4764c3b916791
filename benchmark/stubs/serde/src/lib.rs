//! Local stand-in for `serde`, JSON only.
//!
//! The published crate abstracts over data formats; this workspace only
//! ever serializes to and from JSON, so the stand-in's two traits write to
//! a JSON [`json::Writer`] and read from a parsed [`json::Value`]. The
//! derive macros (`serde_derive` next door) generate these two methods and
//! understand the container/field attributes the workspace uses.

pub mod json;

mod impls;

pub use serde_derive::{Deserialize, Serialize};

/// A value that can write itself as JSON.
pub trait Serialize {
    /// Write `self` as one JSON value.
    fn ser(&self, w: &mut json::Writer);

    /// Write the members of a struct without the surrounding braces
    /// (`#[serde(flatten)]`, internally tagged enums).
    fn ser_fields(&self, _w: &mut json::Writer) {
        panic!("serde stand-in: flatten/tag needs a struct with named fields");
    }
}

/// A value that can rebuild itself from parsed JSON.
pub trait Deserialize<'de>: Sized {
    /// Rebuild from `v`.
    fn de(v: &json::Value) -> Result<Self, json::Error>;

    /// What an absent struct member means (`None` for `Option`, an error
    /// otherwise).
    fn de_missing(field: &str) -> Result<Self, json::Error> {
        Err(json::Error::data(format!("missing field `{field}`")))
    }
}

pub mod ser {
    pub use crate::Serialize;
}

pub mod de {
    pub use crate::Deserialize;

    /// Deserializable without borrowing from the input.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}
