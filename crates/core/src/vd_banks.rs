//! The per-core Victim Directory banks of one slice, shared by
//! [`SecDirSlice`](crate::SecDirSlice) and
//! [`VdOnlySlice`](crate::VdOnlySlice).

use secdir_coherence::{
    AccessKind, DataSource, DirHitKind, DirResponse, DirSliceStats, Invalidation,
    InvalidationCause, Invalidations, SharerSet,
};
use secdir_mem::{CoreId, LineAddr};

use crate::{SecDirConfig, VdBank, VdSets};

/// One slice's VD banks; bank `i` is private to core `i`.
#[derive(Clone, Debug)]
pub(crate) struct VdBanks {
    banks: Vec<VdBank>,
    search_batch: Option<usize>,
}

impl VdBanks {
    /// Creates `config.num_banks` empty banks; bank `i`'s replacement RNG
    /// is seeded with `seed ^ (salt + i)`.
    pub fn new(config: &SecDirConfig, seed: u64, salt: u64) -> Self {
        assert!(config.num_banks >= 1, "a slice needs at least one VD bank");
        assert!(
            config.num_banks <= 64,
            "VD bank candidates are tracked in a u64 bitmask"
        );
        let (geometry, hashing, eb) = (config.vd_bank, config.hashing, config.empty_bit);
        VdBanks {
            banks: (0..config.num_banks as u64)
                .map(|i| VdBank::new(geometry, hashing, eb, seed ^ (salt + i)))
                .collect(),
            search_batch: config.search_batch,
        }
    }

    /// `core`'s bank.
    pub fn bank(&self, core: CoreId) -> &VdBank {
        &self.banks[core.0]
    }

    /// `core`'s bank, for raw fault-injection edits.
    pub fn bank_mut(&mut self, core: CoreId) -> &mut VdBank {
        &mut self.banks[core.0]
    }

    /// `line`'s candidate sets, the same in every bank (they share one
    /// geometry and hashing): hashed once per request, then handed to
    /// each bank.
    #[inline]
    pub fn sets(&self, line: LineAddr) -> VdSets {
        self.banks[0].candidate_sets(line)
    }

    /// The cores whose banks hold `line`, whose candidate sets are `sets`
    /// (does not touch probe counters).
    pub fn holders(&self, sets: VdSets, line: LineAddr) -> SharerSet {
        (0..self.banks.len())
            .filter(|&i| self.banks[i].contains_at(sets, line))
            .map(CoreId)
            .collect()
    }

    /// Serves a request from the VD banks (§5.1) into `resp`, a memory miss
    /// until then. The Empty Bit skips banks whose candidate sets are
    /// empty; the rest are probed `search_batch` at a time, and an
    /// `early_exit` search stops at the first matching batch. A reader
    /// joins the residency in its own bank when another bank holds the
    /// line; a writer becomes its only holder, invalidating the others.
    /// Returns whether a bank held the line (a miss changes no bank).
    /// `sets` are `line`'s candidate sets. Always inlined: VD-only runs it
    /// on every request.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub fn serve(
        &mut self,
        sets: VdSets,
        line: LineAddr,
        core: CoreId,
        kind: AccessKind,
        early_exit: bool,
        stats: &mut DirSliceStats,
        resp: &mut DirResponse,
    ) -> bool {
        stats.vd_lookups += 1;
        stats.vd_bank_probes_without_eb += self.banks.len() as u64;
        // Candidate banks (those the Empty Bit cannot rule out) are a u64
        // bitmask — no per-request allocation on this path.
        let mut remaining = 0u64;
        for (i, bank) in self.banks.iter().enumerate() {
            if !bank.eb_filters_out_at(sets) {
                remaining |= 1 << i;
            }
        }
        resp.vd_eb_checked = true;
        resp.vd_array_probed = remaining != 0;
        let batch = self.search_batch.unwrap_or(self.banks.len().max(1));
        let mut matched = SharerSet::empty();
        while remaining != 0 {
            resp.vd_batches += 1;
            let mut chunk_matched = false;
            for _ in 0..batch {
                if remaining == 0 {
                    break;
                }
                let i = remaining.trailing_zeros() as usize;
                remaining &= remaining - 1;
                stats.vd_bank_probes += 1;
                if self.banks[i].contains_at(sets, line) {
                    matched.insert(CoreId(i));
                    chunk_matched = true;
                }
            }
            if early_exit && chunk_matched {
                break;
            }
        }
        let others = matched.without(core);
        let had_copy = kind == AccessKind::Write && matched.contains(core);
        let source = match others.any() {
            _ if had_copy => DataSource::None,
            Some(owner) => DataSource::L2Cache(owner),
            None => return false,
        };
        let out = &mut resp.invalidations;
        if kind == AccessKind::Write && !others.is_empty() {
            self.remove(sets, line, others);
            out.push(Invalidation {
                line,
                cores: others,
                llc_writeback: false,
                cause: InvalidationCause::Coherence,
            });
        }
        if !had_copy {
            self.insert(sets, line, core, stats, out);
        }
        stats.vd_hits += 1;
        (resp.source, resp.hit) = (source, DirHitKind::Vd);
        true
    }

    /// Inserts `line`, whose candidate sets are `sets`, into `core`'s
    /// bank, reporting any self-conflict eviction (transition ⑤) as an
    /// invalidation of that core's own copy.
    #[inline]
    pub fn insert(
        &mut self,
        sets: VdSets,
        line: LineAddr,
        core: CoreId,
        stats: &mut DirSliceStats,
        out: &mut Invalidations,
    ) {
        let r = self.banks[core.0].insert_at(sets, line);
        stats.vd_inserts += 1;
        stats.cuckoo_relocations += u64::from(r.relocations);
        if let Some(victim) = r.displaced {
            stats.vd_self_conflicts += 1;
            out.push(Invalidation {
                line: victim,
                cores: SharerSet::single(core),
                llc_writeback: false,
                cause: InvalidationCause::VdConflict,
            });
        }
    }

    /// Removes `line`, whose candidate sets are `sets`, from every bank
    /// in `cores`.
    pub fn remove(&mut self, sets: VdSets, line: LineAddr, cores: SharerSet) {
        for core in cores.iter() {
            self.banks[core.0].remove_at(sets, line);
        }
    }

    /// Visits every bank residency as `(line, {owner})`.
    pub fn for_each_entry(&self, f: &mut dyn FnMut(LineAddr, SharerSet)) {
        for (core, bank) in self.banks.iter().enumerate() {
            bank.iter()
                .for_each(|line| f(line, SharerSet::single(CoreId(core))));
        }
    }

    /// Checks every bank's storage invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_storage(&self) -> Result<(), String> {
        for (core, bank) in self.banks.iter().enumerate() {
            bank.check_storage()
                .map_err(|e| format!("VD bank {core} storage: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VdHashing;
    use secdir_mem::SplitMix64;

    /// `sets` hashes with bank 0 on behalf of every bank: each bank, whose
    /// RNG seed differs, must compute the same candidate sets.
    #[test]
    fn every_bank_yields_the_same_candidate_sets() {
        for hashing in [VdHashing::Cuckoo { num_relocations: 8 }, VdHashing::Plain] {
            let config = SecDirConfig {
                hashing,
                ..SecDirConfig::skylake_x(8)
            };
            let vds = VdBanks::new(&config, 0x5eed, 0x1000);
            let mut rng = SplitMix64::new(3);
            for _ in 0..2000 {
                let line = LineAddr::new(rng.next_u64() >> 6);
                let sets = vds.sets(line);
                for core in 0..config.num_banks {
                    assert_eq!(vds.bank(CoreId(core)).candidate_sets(line), sets);
                }
            }
        }
    }
}
