//! **SecDir** — a secure directory that defeats directory side-channel
//! attacks (reproduction of Yan, Wen, Fletcher & Torrellas, ISCA 2019).
//!
//! Conflict-based attacks on conventional coherence directories evict a
//! victim's directory entries by filling directory sets from many cores,
//! which in turn evicts the victim's lines from its *private* caches
//! (inclusion victims). SecDir blocks the attack by re-assigning part of the
//! Extended Directory's storage to per-core private **Victim Directories
//! (VDs)**:
//!
//! * a VD bank is private to one core, so directory conflicts in it can only
//!   be *self*-conflicts — an attacker on another core cannot create them;
//! * each bank is organized as a **cuckoo directory** (two Seznec–Bodin
//!   skewing hash functions, up to `NumRelocations` relocations) for high
//!   effective associativity and to obscure residual conflict patterns;
//! * an **Empty Bit** per set lets the common no-attack case skip the VD
//!   arrays entirely.
//!
//! This crate provides the VD bank ([`VdBank`]), the full SecDir slice
//! ([`SecDirSlice`], paper Figure 2(b)/Figure 3(b): the baseline's ED/TD
//! core plus per-core VD banks), and the VD-only slice ([`VdOnlySlice`])
//! that models the paper's worst-case attacker which fully controls the
//! shared ED and TD (§9). Both slices keep their banks in one shared
//! bank-set type.
//!
//! # Examples
//!
//! ```
//! use secdir::{SecDirConfig, SecDirSlice};
//! use secdir_coherence::{AccessKind, DirHitKind, DirSlice};
//! use secdir_mem::{CoreId, LineAddr};
//!
//! let mut slice = SecDirSlice::new(SecDirConfig::skylake_x(8), 0);
//! let r = slice.request(LineAddr::new(0x1000), CoreId(0), AccessKind::Read);
//! assert_eq!(r.hit, DirHitKind::Miss); // cold miss allocates in the ED
//! ```

mod config;
mod slice;
mod vd;
mod vd_banks;
mod vd_only;

pub use config::{SecDirConfig, VdHashing};
pub use slice::SecDirSlice;
pub use vd::{VdBank, VdInsert, VdSets};
pub use vd_only::VdOnlySlice;
