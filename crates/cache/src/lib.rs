//! Generic set-associative storage used for every array in the simulator.
//!
//! The data caches (L1, L2), the LLC slices, and the directory structures
//! (TD, ED) of the SecDir reproduction are all instances of [`SetAssoc`],
//! parameterized by a [`Geometry`] and a [`ReplacementPolicy`]. The cuckoo
//! Victim Directory banks live in the `secdir` crate because their indexing
//! is not set-associative in the conventional sense.
//!
//! # Examples
//!
//! ```
//! use secdir_cache::{Geometry, ReplacementPolicy, SetAssoc};
//! use secdir_mem::LineAddr;
//!
//! let mut l2: SetAssoc<u8> = SetAssoc::new(
//!     Geometry::new(1024, 16),
//!     ReplacementPolicy::Lru,
//!     0, // rng seed (unused by LRU)
//! );
//! let line = LineAddr::new(0x42);
//! assert!(l2.insert(line, 7).is_none()); // no eviction: the set was empty
//! assert_eq!(l2.get(line), Some(&7));
//! ```

mod geometry;
mod prefetch;
mod replacement;
mod set_assoc;

pub use geometry::Geometry;
pub use replacement::ReplacementPolicy;
pub use set_assoc::{Evicted, SetAssoc, WayRef};
