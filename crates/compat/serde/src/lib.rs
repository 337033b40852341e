//! Offline stand-in for `serde`.
//!
//! This workspace builds in hermetic environments with no crates.io
//! access. The real serde is used here only for `#[derive(Serialize,
//! Deserialize)]` annotations on result/statistics types — nothing in
//! the workspace serializes at runtime yet. This shim keeps those
//! annotations compiling (so the types stay declared serializable, and
//! swapping the real serde back in is a one-line Cargo change) by
//! providing marker traits and no-op derive macros.
//!
//! The `#[serde(...)]` helper attributes are accepted and ignored.
//!
//! Beyond the markers, [`json`] is a real, hand-rolled JSON
//! encoder/decoder shared by the gateway's HTTP bodies, the operator
//! tools and the repository benchmark's result files — the one place
//! in the workspace that serializes at runtime.

pub mod json;

/// Marker for types declared serializable.
///
/// Blanket-implemented (the no-op [`macro@Serialize`] derive emits
/// nothing), so `T: Serialize` bounds always hold and impose no codegen
/// cost.
pub trait Serialize {}

impl<T: ?Sized> Serialize for T {}

/// Marker for types declared deserializable.
///
/// Blanket-implemented; see [`Serialize`].
pub trait Deserialize {}

impl<T: ?Sized> Deserialize for T {}

pub use serde_derive::{Deserialize, Serialize};

#[cfg(test)]
mod tests {
    use super::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize)]
    struct Annotated {
        #[serde(skip)]
        _field: u32,
    }

    #[test]
    fn derives_compile_and_implement_markers() {
        fn is_serialize<T: super::Serialize>() {}
        fn is_deserialize<T: super::Deserialize>() {}
        is_serialize::<Annotated>();
        is_deserialize::<Annotated>();
    }
}
