//! Bit-exact directory storage accounting, a calibrated area model, and the
//! paper's design-space analytics.
//!
//! Three paper artifacts are computed here:
//!
//! * **Table 7** — per-slice storage (KB, exact) and area (mm², via a model
//!   calibrated against the paper's CACTI 7 @ 22 nm numbers) for the
//!   Baseline and SecDir directories;
//! * **Figure 5** — per-core machine-wide VD entries relative to L2 lines,
//!   sweeping core count and retained ED ways under an equal-total-storage
//!   constraint;
//! * the **§2.3 associativity argument** — the directory associativity a
//!   conventional design would need to resist the conflict attack.
//!
//! # Examples
//!
//! ```
//! use secdir_area::storage::{baseline_slice, secdir_slice, SKYLAKE_X_CORES};
//!
//! let base = baseline_slice(SKYLAKE_X_CORES);
//! let sec = secdir_slice(SKYLAKE_X_CORES);
//! assert_eq!(base.total_kb(), 221.25);
//! assert_eq!(sec.total_kb(), 249.75);
//! ```

pub mod area;
pub mod associativity;
pub mod design_space;
pub mod encoding;
pub mod storage;
