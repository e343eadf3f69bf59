//! Addresses, slice mapping, and hash functions for the SecDir reproduction.
//!
//! This crate is the lowest-level substrate: it defines the physical/line
//! address types used throughout the simulator, the LLC *slice-selection*
//! hash (standing in for Intel's proprietary hash), and the Seznec–Bodin
//! *skewing* hash family used by SecDir's cuckoo Victim Directories. Its
//! [`json`] module is the one JSON writer and strict reader every record
//! the workspace writes goes through, and its [`par`] module starts every
//! worker thread.
//!
//! # Examples
//!
//! ```
//! use secdir_mem::{LineAddr, SliceHash};
//!
//! let hash = SliceHash::new(8);
//! let slice = hash.slice_of(LineAddr::new(0x1234_5678));
//! assert!(slice.0 < 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod hash;
mod inline_vec;
pub mod json;
pub mod par;
mod rng;

pub use addr::{CoreId, LineAddr, PhysAddr, SliceId, LINE_BYTES, LINE_OFFSET_BITS};
pub use hash::{SetIndexHash, SkewHash, SliceHash};
pub use inline_vec::InlineVec;
pub use rng::SplitMix64;
