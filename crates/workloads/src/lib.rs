//! Workload generators for the SecDir reproduction.
//!
//! The paper evaluates with SPEC CPU2006 mixes, PARSEC applications, and an
//! OpenSSL AES victim. We do not have those binaries or a full-system
//! simulator, so this crate provides their *reference-stream equivalents*
//! (see DESIGN.md for the substitution argument):
//!
//! * [`spec`] — per-application synthetic generators calibrated to the
//!   paper's three classes (core-cache-fitting, LLC-fitting, LLC-thrashing)
//!   and the twelve Table-5 mixes;
//! * [`parsec`] — multithreaded generators with per-application sharing
//!   behaviour (Figure 8, Table 6);
//! * [`aes`] — a real, self-contained AES-128 T-table implementation whose
//!   table lookups are traced and replayed (Figure 6, §9);
//! * [`rsa`] — a square-and-multiply victim with an exponent-dependent
//!   access pattern (§9's RSA discussion);
//! * [`trace`] — capture, save, load, and replay reference traces, for
//!   replaying one stream against several machine configurations;
//! * [`registry`] — name-based lookup of all of the above, feeding the
//!   `secdir_machine::sweep` experiment matrices.
//!
//! # Examples
//!
//! ```
//! use secdir_workloads::spec::{SpecApp, mixes};
//!
//! let all = mixes();
//! assert_eq!(all.len(), 12);
//! assert_eq!(all[0].name, "mix0");
//! let _stream = SpecApp::GOBMK.stream(0x1000_0000, 42);
//! ```

pub mod aes;
pub mod parsec;
pub mod registry;
pub mod rsa;
pub mod spec;
mod stream;
pub mod trace;

pub use stream::{StreamParams, SyntheticStream};
