//! The runtime invariant oracle: deep cross-structure checks over a live
//! [`Machine`].
//!
//! The simulation hot path proves local facts with `debug_assert!`s; this
//! module walks the whole machine and cross-validates the *global* facts
//! those local checks cannot see:
//!
//! * storage-layer consistency of every flat array (occupancy bitmask ⟺
//!   sentinel-tag agreement, `len` bookkeeping — [`SetAssoc::check_storage`]
//!   and friends),
//! * MOESI single-writer / no-M+S-coexistence across private caches,
//! * directory inclusion: every valid private L2 line is covered by a
//!   directory entry that lists its core,
//! * sharer soundness (the converse of inclusion): every core a directory
//!   entry lists actually holds the line in its private L2,
//! * per-slice protocol invariants (TD/ED/VD mutual exclusion, no
//!   sharer-less ED entries) via [`DirSlice::validate`].
//!
//! All of it is a cold diagnostic path — the success path allocates
//! nothing, so the `tests/alloc_free.rs` steady-state proof holds even
//! with the oracle compiled in.
//!
//! # The `check` feature
//!
//! [`Machine::verify`] is always compiled (tests and tools call it
//! directly). The `check` cargo feature additionally arms a periodic
//! sweep: every [`ORACLE_INTERVAL`] calls to [`Machine::access`] the whole
//! walk runs and panics on the first violation. It is off by default —
//! golden-stats and determinism runs in CI turn it on
//! (`cargo test --features check`).
//!
//! [`SetAssoc::check_storage`]: secdir_cache::SetAssoc::check_storage
//! [`DirSlice::validate`]: secdir_coherence::DirSlice::validate

use secdir_mem::CoreId;

use crate::machine::Machine;

/// Accesses between two periodic oracle sweeps under the `check` feature.
///
/// Small enough that a corrupted structure is caught within the test that
/// corrupted it — and in particular smaller than the 10k-access measured
/// window of `tests/alloc_free.rs`, so the steady-state sweep is itself
/// proven allocation-free — yet large enough that `--features check` test
/// runs stay affordable (the walk is O(total resident lines × cores)).
pub const ORACLE_INTERVAL: u64 = 8192;

/// Per-machine state of the periodic sweep (one counter; lives in
/// [`Machine`] only when the `check` feature is on).
#[cfg(feature = "check")]
#[derive(Clone, Debug, Default)]
pub(crate) struct OracleState {
    accesses: u64,
}

impl Machine {
    /// Checks the directory-inclusion invariant: every valid L2 line of
    /// every core is covered by a directory entry listing that core.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, caches) in self.cores.iter().enumerate() {
            let core = CoreId(i);
            for (line, state) in caches.l2_iter() {
                debug_assert!(state.is_valid());
                let slice = self.slice_of(line);
                match self.slice(slice).locate(line) {
                    None => {
                        return Err(format!(
                            "{core} holds {line} ({state}) but {slice} has no directory entry"
                        ))
                    }
                    Some(w) => {
                        if !w.sharers().contains(core) {
                            return Err(format!(
                                "{core} holds {line} ({state}) but directory entry {w:?} \
                                 does not list it"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// MOESI coexistence rules across private caches: a line in Modified
    /// or Exclusive anywhere must be the only valid copy, and a line in
    /// Owned tolerates only Shared copies elsewhere (so M+S can never
    /// coexist). O(resident lines × cores), allocation-free on success.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_coherence(&self) -> Result<(), String> {
        for (i, caches) in self.cores.iter().enumerate() {
            for (line, state) in caches.l2_iter() {
                if !(state.can_write_silently() || state.is_dirty()) {
                    continue; // Shared: anything goes.
                }
                for (j, other) in self.cores.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    let peer = other.state(line);
                    if !peer.is_valid() {
                        continue;
                    }
                    if state.can_write_silently() {
                        return Err(format!(
                            "SWMR violation: core {i} holds {line} in {state} \
                             while core {j} holds it in {peer}"
                        ));
                    }
                    // state is Owned: peers may only be Shared.
                    if peer.can_write_silently() || peer.is_dirty() {
                        return Err(format!(
                            "coexistence violation: core {i} holds {line} in {state} \
                             while core {j} holds it in {peer}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks sharer soundness, the converse of directory inclusion: every
    /// core a directory entry lists (or, for a VD, the bank's owning core)
    /// must hold the line in its private L2. This is the check that
    /// catches a *stale sharer* — a presence bit left set after the copy
    /// is gone — which inclusion alone cannot see. The model checker
    /// proves the same invariant on the abstract protocol
    /// (`secdir_verif`); this is its runtime counterpart.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_sharer_soundness(&self) -> Result<(), String> {
        let mut err: Option<String> = None;
        for (s, slice) in self.slices.iter().enumerate() {
            slice.for_each_entry(&mut |line, sharers| {
                if err.is_some() {
                    return;
                }
                for core in sharers.iter() {
                    if core.0 >= self.cores.len() || !self.cores[core.0].l2_contains(line) {
                        err = Some(format!(
                            "stale sharer: slice {s} lists {core} for {line} \
                             but its L2 holds no copy"
                        ));
                        return;
                    }
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Runs the full invariant oracle: per-core cache storage checks
    /// ([`crate::PrivateCaches::check_storage`]), MOESI coexistence
    /// ([`Machine::check_coherence`]), per-slice protocol/storage
    /// invariants (`DirSlice::validate`), directory inclusion
    /// ([`Machine::check_invariants`]), and sharer soundness
    /// ([`Machine::check_sharer_soundness`]).
    ///
    /// Always compiled; the `check` feature merely calls this
    /// periodically from [`Machine::access`]. Allocation-free when all
    /// invariants hold.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn verify(&self) -> Result<(), String> {
        for (i, caches) in self.cores.iter().enumerate() {
            caches
                .check_storage()
                .map_err(|e| format!("core {i}: {e}"))?;
        }
        self.check_coherence()?;
        for (s, slice) in self.slices.iter().enumerate() {
            slice.validate().map_err(|e| format!("slice {s}: {e}"))?;
        }
        self.check_invariants()?;
        self.check_sharer_soundness()
    }

    /// One periodic-oracle step, called from [`Machine::access`] when the
    /// `check` feature is on.
    ///
    /// # Panics
    ///
    /// Panics on the first invariant violation the sweep finds.
    #[cfg(feature = "check")]
    #[inline]
    pub(crate) fn oracle_tick(&mut self) {
        self.oracle.accesses += 1;
        if self.oracle.accesses % ORACLE_INTERVAL == 0 {
            if let Err(e) = self.verify() {
                panic!(
                    "invariant oracle tripped after {} accesses: {e}",
                    self.oracle.accesses
                );
            }
        }
    }

    /// Epoch-granular periodic-oracle step for the sliced engine
    /// (`crate::sliced`): advances the access counter by a whole epoch at
    /// once and sweeps when an [`ORACLE_INTERVAL`] boundary was crossed.
    /// Runs at the epoch barrier, where the machine is whole and
    /// coherent.
    ///
    /// # Panics
    ///
    /// Panics on the first invariant violation the sweep finds.
    #[cfg(feature = "check")]
    pub(crate) fn oracle_epoch(&mut self, retired: u64) {
        let before = self.oracle.accesses;
        self.oracle.accesses += retired;
        if self.oracle.accesses / ORACLE_INTERVAL > before / ORACLE_INTERVAL {
            if let Err(e) = self.verify() {
                panic!(
                    "invariant oracle tripped after {} accesses: {e}",
                    self.oracle.accesses
                );
            }
        }
    }
}
