//! A core's private cache pair (L1D + L2).
//!
//! All state here is strictly per-core, which is what lets the
//! slice-parallel engine (`crate::sliced`) retire L1/L2 hits for
//! different cores on different worker threads without synchronization:
//! phase A of every epoch touches only one `PrivateCaches` per thread.

use secdir_cache::{Evicted, Geometry, ReplacementPolicy, SetAssoc};
use secdir_coherence::Moesi;
use secdir_mem::LineAddr;

/// The private caches of one core.
///
/// The L1 is kept inclusive in the L2 (an L2 eviction removes any L1 copy),
/// and the MOESI state is tracked once, at the L2 — the L1 array only tracks
/// presence. L1 capacity evictions are silent: the line stays in the L2, so
/// the directory is not involved.
///
/// # Examples
///
/// ```
/// use secdir_machine::PrivateCaches;
/// use secdir_cache::Geometry;
/// use secdir_coherence::Moesi;
/// use secdir_mem::LineAddr;
///
/// let mut p = PrivateCaches::new(Geometry::new(8, 4), Geometry::new(64, 16), 0);
/// let line = LineAddr::new(3);
/// p.fill(line, Moesi::Exclusive);
/// assert!(p.l1_contains(line));
/// assert_eq!(p.state(line), Moesi::Exclusive);
/// ```
#[derive(Clone, Debug)]
pub struct PrivateCaches {
    l1: SetAssoc<()>,
    l2: SetAssoc<Moesi>,
}

impl PrivateCaches {
    /// Creates empty caches with the given geometries.
    pub fn new(l1: Geometry, l2: Geometry, seed: u64) -> Self {
        PrivateCaches {
            l1: SetAssoc::new(l1, ReplacementPolicy::Lru, seed),
            l2: SetAssoc::new(l2, ReplacementPolicy::Lru, seed ^ 1),
        }
    }

    /// Hints the host CPU to pull the L2 rows a future access of `line`
    /// will probe into its cache. Purely a performance hint — no
    /// replacement update, no simulated effect. The L1 arrays are a few
    /// KiB and effectively always host-resident, so only the L2 (whose
    /// tag and replacement arrays run to hundreds of KiB per core) is
    /// worth hinting.
    #[inline]
    pub fn prefetch(&self, line: LineAddr) {
        self.l2.prefetch(line);
    }

    /// Whether the L1 holds `line`.
    pub fn l1_contains(&self, line: LineAddr) -> bool {
        self.l1.contains(line)
    }

    /// Whether the L2 holds a valid copy of `line`.
    pub fn l2_contains(&self, line: LineAddr) -> bool {
        self.l2.contains(line)
    }

    /// The MOESI state of `line` ([`Moesi::Invalid`] when absent).
    pub fn state(&self, line: LineAddr) -> Moesi {
        self.l2.get(line).copied().unwrap_or(Moesi::Invalid)
    }

    /// Overwrites the MOESI state of a resident line (coherence downgrade
    /// or upgrade). No-op when the line is absent.
    pub fn set_state(&mut self, line: LineAddr, state: Moesi) {
        if let Some(s) = self.l2.get_mut(line) {
            *s = state;
        }
    }

    /// An L1 access (touches L1 replacement state). Returns whether it hit.
    pub fn l1_access(&mut self, line: LineAddr) -> bool {
        self.l1.access(line).is_some()
    }

    /// An L2 access returning the state by mutable reference: one probe
    /// serves both the hit check and an in-place state change.
    pub fn l2_access_mut(&mut self, line: LineAddr) -> Option<&mut Moesi> {
        self.l2.access(line)
    }

    /// One-probe silent store: if `line` is resident in a state that
    /// allows a silent write (Exclusive/Modified), sets it to
    /// [`Moesi::Modified`] and returns `true`; otherwise leaves the cache
    /// untouched and returns `false` (the caller must upgrade through the
    /// directory).
    pub fn silent_write(&mut self, line: LineAddr) -> bool {
        match self.l2.get_mut(line) {
            Some(s) if s.can_write_silently() => {
                *s = Moesi::Modified;
                true
            }
            _ => false,
        }
    }

    /// Brings `line` into L1 (after an L1 miss that hit the L2, or a fill).
    /// L1 capacity victims are dropped silently — they remain in L2.
    ///
    /// Every call follows an L1 miss, so the match scan is skipped
    /// ([`SetAssoc::insert_new`]).
    pub fn fill_l1(&mut self, line: LineAddr) {
        debug_assert!(self.l2.contains(line), "L1 fill of a line not in L2");
        self.l1.insert_new(line, ());
    }

    /// Fills `line` into L2 (and L1) in `state`. Returns the L2 victim, if
    /// the fill displaced one: the caller must notify the directory.
    /// Fills only happen after an L2 miss, so the match scan is skipped.
    pub fn fill(&mut self, line: LineAddr, state: Moesi) -> Option<(LineAddr, Moesi)> {
        let victim = self
            .l2
            .insert_new(line, state)
            .map(|Evicted { line, payload }| {
                // Enforce L1 ⊆ L2.
                self.l1.remove(line);
                (line, payload)
            });
        self.fill_l1(line);
        victim
    }

    /// Removes `line` from both levels, returning the removed L2 state
    /// ([`Moesi::Invalid`] when the line was absent).
    pub fn invalidate(&mut self, line: LineAddr) -> Moesi {
        self.l1.remove(line);
        self.l2.remove(line).unwrap_or(Moesi::Invalid)
    }

    /// Number of valid L2 lines.
    pub fn l2_len(&self) -> usize {
        self.l2.len()
    }

    /// Iterates over all valid L2 lines and their states.
    pub fn l2_iter(&self) -> impl Iterator<Item = (LineAddr, Moesi)> + '_ {
        self.l2.iter().map(|(l, &s)| (l, s))
    }

    /// Deep-validates this cache pair: both arrays' storage invariants
    /// ([`SetAssoc::check_storage`]), L1 ⊆ L2 inclusion, and that no L2
    /// way stores [`Moesi::Invalid`] (absence is encoded by occupancy, not
    /// by state).
    ///
    /// Cold diagnostic path (the `check`-feature oracle and tests).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_storage(&self) -> Result<(), String> {
        self.l1
            .check_storage()
            .map_err(|e| format!("L1 storage: {e}"))?;
        self.l2
            .check_storage()
            .map_err(|e| format!("L2 storage: {e}"))?;
        for (line, ()) in self.l1.iter() {
            if !self.l2.contains(line) {
                return Err(format!("L1 holds {line} but L2 does not (inclusion)"));
            }
        }
        for (line, &state) in self.l2.iter() {
            if !state.is_valid() {
                return Err(format!("L2 stores {line} in the Invalid state"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caches() -> PrivateCaches {
        PrivateCaches::new(Geometry::new(2, 2), Geometry::new(4, 2), 0)
    }

    #[test]
    fn fill_populates_both_levels() {
        let mut p = caches();
        assert!(p.fill(LineAddr::new(1), Moesi::Exclusive).is_none());
        assert!(p.l1_contains(LineAddr::new(1)));
        assert!(p.l2_contains(LineAddr::new(1)));
    }

    #[test]
    fn l2_eviction_purges_l1() {
        let mut p = caches();
        // Lines 0, 4, 8 share L2 set 0 (4 sets).
        p.fill(LineAddr::new(0), Moesi::Exclusive);
        p.fill(LineAddr::new(4), Moesi::Exclusive);
        let (victim, state) = p
            .fill(LineAddr::new(8), Moesi::Exclusive)
            .expect("L2 conflict");
        assert_eq!(victim, LineAddr::new(0));
        assert_eq!(state, Moesi::Exclusive);
        assert!(!p.l1_contains(victim), "L1 must stay inclusive in L2");
    }

    #[test]
    fn invalidate_removes_and_reports_state() {
        let mut p = caches();
        p.fill(LineAddr::new(1), Moesi::Modified);
        assert_eq!(p.invalidate(LineAddr::new(1)), Moesi::Modified);
        assert_eq!(p.invalidate(LineAddr::new(1)), Moesi::Invalid);
        assert!(!p.l1_contains(LineAddr::new(1)));
    }

    #[test]
    fn set_state_changes_resident_lines_only() {
        let mut p = caches();
        p.fill(LineAddr::new(1), Moesi::Exclusive);
        p.set_state(LineAddr::new(1), Moesi::Owned);
        assert_eq!(p.state(LineAddr::new(1)), Moesi::Owned);
        p.set_state(LineAddr::new(2), Moesi::Modified); // absent: no-op
        assert_eq!(p.state(LineAddr::new(2)), Moesi::Invalid);
    }

    #[test]
    fn l1_capacity_eviction_is_silent() {
        let mut p = caches();
        // L1: 2 sets × 2 ways. Fill 3 lines of the same L1 set (0, 2, 4 —
        // L1 set = line & 1) while keeping distinct L2 sets.
        p.fill(LineAddr::new(0), Moesi::Exclusive);
        p.fill(LineAddr::new(2), Moesi::Exclusive);
        p.fill(LineAddr::new(4), Moesi::Exclusive); // evicts an L1 way
        let l1_resident = [0u64, 2, 4]
            .iter()
            .filter(|&&l| p.l1_contains(LineAddr::new(l)))
            .count();
        assert_eq!(l1_resident, 2);
        // All three stay in L2.
        assert_eq!(p.l2_len(), 3);
    }
}
