//! No-op `Serialize`/`Deserialize` derives for the offline serde shim.
//!
//! The container image has no registry access, so the real serde cannot be
//! vendored. Nothing in this workspace calls serde's serialization engine —
//! the derives only decorate types and JSON output goes through the
//! std-only writer in `secdir_mem::json` — so expanding to nothing is sound. The
//! `serde` helper-attribute registration keeps `#[serde(...)]` field
//! attributes compiling should they ever appear.

use proc_macro::TokenStream;

/// Expands to nothing; registers the `#[serde(...)]` helper attribute.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Expands to nothing; registers the `#[serde(...)]` helper attribute.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
