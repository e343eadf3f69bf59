//! Offline std-only shim for the `serde` facade.
//!
//! The build environment has no access to crates.io, so the real serde
//! cannot be fetched or vendored. This workspace only ever *decorates* types
//! with `#[derive(Serialize, Deserialize)]` — nothing monomorphizes over the
//! traits or invokes a serde data format (JSON lines are written by the
//! std-only writer in `secdir_mem::json`). The shim therefore
//! provides the two marker traits and no-op derive macros under the same
//! import paths, keeping every `use serde::{Deserialize, Serialize};` line
//! source-compatible with the real crate.

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize` (no methods; see crate docs).
pub trait Serialize {}

/// Marker stand-in for `serde::Deserialize` (no methods; see crate docs).
pub trait Deserialize<'de> {}
