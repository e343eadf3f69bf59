//! The multicore machine: cores × private caches × directory slices.

use secdir::{SecDirSlice, VdOnlySlice};
use secdir_coherence::{
    AccessKind, BaselineSlice, DataSource, DirHitKind, DirResponse, DirSlice, DirSliceStats,
    Invalidations, Moesi, WayPartitionedSlice,
};
use secdir_mem::{CoreId, LineAddr, SliceHash, SliceId};
use serde::{Deserialize, Serialize};

use crate::caches::PrivateCaches;
use crate::config::{DirectoryKind, Latencies, MachineConfig, TimingMitigation};
use crate::stats::{CoreStats, MachineStats};

/// Which level of the hierarchy served an access — the categories of the
/// paper's Figure 6 trace and Figure 7(b)/8(b) breakdowns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServedBy {
    /// L1 hit.
    L1,
    /// L2 hit (includes upgrades of resident lines).
    L2,
    /// L2 miss satisfied through an ED or TD hit.
    EdTd,
    /// L2 miss satisfied through a Victim Directory hit.
    Vd,
    /// L2 miss that went to main memory.
    Memory,
}

impl ServedBy {
    /// Whether the access hit in the private caches (the paper's
    /// "L1/L2 hit" category in Figure 6).
    pub fn is_private_hit(self) -> bool {
        matches!(self, ServedBy::L1 | ServedBy::L2)
    }
}

/// The result of one memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessOutcome {
    /// Round-trip latency in cycles under the Table-4 model.
    pub latency: u64,
    /// Where the access was served from.
    pub served: ServedBy,
}

/// What the private-cache probe of one access found.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Probe {
    /// Served by the L1 or L2 in the given cycles.
    Hit(ServedBy, u64),
    /// A store hit on a line it may not write silently: the directory
    /// must invalidate the other copies, on top of the given hit cycles.
    Upgrade(ServedBy, u64),
    /// An L2 miss: the directory must supply the line.
    Miss(AccessKind),
}

impl Probe {
    /// The request the directory sees: a miss asks for its own kind, an
    /// upgrade is a write. Meaningless for a hit, which sends none.
    pub(crate) fn request_kind(self) -> AccessKind {
        match self {
            Probe::Miss(kind) => kind,
            Probe::Hit(..) | Probe::Upgrade(..) => AccessKind::Write,
        }
    }
}

/// The private-cache half of an access by one core: the L1 probe, the
/// silent store, the L2 probe with its in-place upgrade, the L1 fill
/// after an L2 hit, and the core's access counters. Both engines call
/// it — [`Machine::access`] directly and the sliced engine in phase A —
/// so the probe sequence is written once.
#[inline]
pub(crate) fn probe(
    caches: &mut PrivateCaches,
    stats: &mut CoreStats,
    lat: Latencies,
    line: LineAddr,
    write: bool,
) -> Probe {
    stats.accesses += 1;
    if write {
        stats.writes += 1;
    } else {
        stats.reads += 1;
    }
    // L1. Reads need no L2 state probe at all; writes resolve the
    // silent-upgrade check and the state change in one probe.
    let (served, cycles, upgrade) = if caches.l1_access(line) {
        stats.l1_hits += 1;
        debug_assert!(
            caches.state(line).is_valid(),
            "L1 hit with invalid L2 state"
        );
        (
            ServedBy::L1,
            lat.l1_hit,
            write && !caches.silent_write(line),
        )
    } else if let Some(state) = caches.l2_access_mut(line) {
        // L2: one probe serves the hit check, the read of the state, and
        // the silent-upgrade store.
        let upgrade = write && !state.can_write_silently();
        if write && !upgrade {
            *state = Moesi::Modified;
        }
        stats.l2_hits += 1;
        caches.fill_l1(line);
        (ServedBy::L2, lat.l2_hit, upgrade)
    } else {
        stats.l2_misses += 1;
        return Probe::Miss(if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        });
    };
    if upgrade {
        Probe::Upgrade(served, cycles)
    } else {
        Probe::Hit(served, cycles)
    }
}

fn dir_latency(config: &MachineConfig, core: CoreId, slice: SliceId) -> u64 {
    if core.0 == slice.0 {
        config.latencies.dir_local
    } else {
        config.latencies.dir_remote
    }
}

/// §6: cycles of padding an ED/TD-satisfied response needs so the
/// attacker cannot tell it from a VD-satisfied one.
fn mitigation_pad(config: &MachineConfig, resp: &DirResponse) -> u64 {
    if !config.directory.has_vd() || !matches!(resp.hit, DirHitKind::Ed | DirHitKind::Td) {
        return 0;
    }
    let pad = config.latencies.vd_empty_bit + config.latencies.vd_array;
    match config.timing_mitigation {
        TimingMitigation::Off => 0,
        TimingMitigation::Naive => pad,
        TimingMitigation::Selective => {
            let observable =
                matches!(resp.source, DataSource::L2Cache(_)) || !resp.invalidations.is_empty();
            if observable {
                pad
            } else {
                0
            }
        }
    }
}

/// Table-4 VD cycles a directory response incurred: the Empty-Bit check
/// plus one array probe per batch searched, plus any §6 mitigation pad.
fn vd_latency(config: &MachineConfig, resp: &DirResponse) -> u64 {
    let lat = config.latencies;
    let mut extra = 0;
    if resp.vd_eb_checked {
        extra += lat.vd_empty_bit;
    }
    if resp.vd_array_probed {
        extra += lat.vd_array * u64::from(resp.vd_batches.max(1));
    }
    extra + mitigation_pad(config, resp)
}

/// A full simulated machine (paper Table 4).
///
/// Drive it directly with [`Machine::access`], or through
/// [`run_workload`](crate::run_workload) for multi-stream timing runs.
///
/// # Examples
///
/// ```
/// use secdir_machine::{DirectoryKind, Machine, MachineConfig, ServedBy};
/// use secdir_mem::{CoreId, LineAddr};
///
/// let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::Baseline));
/// assert_eq!(m.access(CoreId(0), LineAddr::new(1), false).served, ServedBy::Memory);
/// assert_eq!(m.access(CoreId(0), LineAddr::new(1), false).served, ServedBy::L1);
/// // A second core's read is served cache-to-cache via the directory.
/// assert_eq!(m.access(CoreId(1), LineAddr::new(1), false).served, ServedBy::EdTd);
/// ```
pub struct Machine {
    config: MachineConfig,
    slice_hash: SliceHash,
    pub(crate) cores: Vec<PrivateCaches>,
    pub(crate) slices: Vec<Box<dyn DirSlice + Send>>,
    pub(crate) stats: MachineStats,
    /// Armed fault-injection plan, if any (`secdir-sim inject`). Always
    /// compiled: the disarmed cost on the hot path is one `is_some()`
    /// branch per access.
    pub(crate) fault: Option<crate::inject::FaultState>,
    /// Epoch-engine mode (`crate::sliced`): cross-core effects computed
    /// during an epoch are applied at its barrier, so an invalidation may
    /// arrive after the copy is already gone and an upgrade response may
    /// carry a data source. The serial path keeps `false` and the strict
    /// debug assertions that come with it.
    pub(crate) lenient: bool,
    #[cfg(feature = "check")]
    pub(crate) oracle: crate::oracle::OracleState,
}

impl Machine {
    /// Builds the machine described by `config`.
    pub fn new(config: MachineConfig) -> Self {
        let cores = (0..config.cores)
            .map(|i| PrivateCaches::new(config.l1, config.l2, config.seed ^ (0x10 + i as u64)))
            .collect();
        let slices = (0..config.cores)
            .map(|i| -> Box<dyn DirSlice + Send> {
                let seed = config.seed ^ (0x100 + i as u64);
                match config.directory {
                    DirectoryKind::Baseline | DirectoryKind::BaselineFixed => {
                        Box::new(BaselineSlice::new(config.baseline_dir(), seed))
                    }
                    DirectoryKind::SecDir | DirectoryKind::SecDirPlainVd => {
                        Box::new(SecDirSlice::new(config.secdir_dir(), seed))
                    }
                    DirectoryKind::SecDirVdOnly | DirectoryKind::SecDirVdOnlyPlain => {
                        Box::new(VdOnlySlice::new(config.secdir_dir(), seed))
                    }
                    DirectoryKind::WayPartitioned => Box::new(WayPartitionedSlice::new(
                        config.baseline_dir(),
                        config.cores,
                        seed,
                    )),
                }
            })
            .collect();
        Machine {
            slice_hash: SliceHash::new(config.cores),
            cores,
            slices,
            stats: MachineStats::new(config.cores),
            config,
            fault: None,
            lenient: false,
            #[cfg(feature = "check")]
            oracle: crate::oracle::OracleState::default(),
        }
    }

    /// Convenience constructor for the paper's 8-core Table-4 machine.
    pub fn skylake_x(cores: usize, directory: DirectoryKind) -> Self {
        Machine::new(MachineConfig::skylake_x(cores, directory))
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.config.cores
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The slice a line maps to (the attacker uses this same function to
    /// build eviction sets).
    pub fn slice_of(&self, line: LineAddr) -> SliceId {
        self.slice_hash.slice_of(line)
    }

    /// Read-only view of a directory slice.
    pub fn slice(&self, slice: SliceId) -> &dyn DirSlice {
        self.slices[slice.0].as_ref()
    }

    /// Read-only view of a core's private caches.
    pub fn caches(&self, core: CoreId) -> &PrivateCaches {
        &self.cores[core.0]
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Merged directory statistics over all slices (recomputed on call).
    pub fn directory_stats(&self) -> DirSliceStats {
        let mut merged = DirSliceStats::default();
        for s in &self.slices {
            merged.merge(s.stats());
        }
        merged
    }

    /// Hints the host CPU to pull the arrays a future
    /// [`Machine::access`] by `core` to `line` will probe into its cache.
    /// Purely a performance hint with no simulated effect. Its caller is
    /// the serial engine ([`run_workload`](crate::run_workload)), one
    /// reference ahead: as soon as a core's next reference is known. The
    /// sliced engine hints the same rows on its chunk of the caches
    /// ([`PrivateCaches::prefetch`], phase A) and never calls this.
    ///
    /// Only the core's L2 rows are hinted ([`PrivateCaches::prefetch`]):
    /// the L1 arrays are small enough to stay host-resident, and the
    /// home slice's directory and LLC rows are not hinted here (the
    /// sliced engine hints directory rows in phase B, through
    /// [`DirSlice::prefetch`]).
    #[inline]
    pub fn prefetch(&self, core: CoreId, line: LineAddr) {
        self.cores[core.0].prefetch(line);
    }

    /// Performs one memory access by `core` to `line` and returns its
    /// latency and serving level. This is the simulator's core primitive.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: CoreId, line: LineAddr, write: bool) -> AccessOutcome {
        #[cfg(feature = "check")]
        self.oracle_step(1);
        if self.fault.is_some() {
            self.fault_step(1);
        }
        let probe = probe(
            &mut self.cores[core.0],
            &mut self.stats.cores[core.0],
            self.config.latencies,
            line,
            write,
        );
        if let Probe::Hit(served, latency) = probe {
            return AccessOutcome { latency, served };
        }
        // An upgrade or an L2 miss: directory transaction at the home slice.
        let slice = self.slice_of(line);
        let resp = self.slices[slice.0].request(line, core, probe.request_kind());
        self.apply_response(core, line, slice, probe, &resp)
    }

    /// Applies the directory's response to the probe that asked for it and
    /// returns the access's outcome. Shared by [`Machine::access`] and the
    /// epoch engine's merge phase (`crate::sliced`), so both engines run one
    /// response path.
    pub(crate) fn apply_response(
        &mut self,
        core: CoreId,
        line: LineAddr,
        slice: SliceId,
        probe: Probe,
        resp: &DirResponse,
    ) -> AccessOutcome {
        match probe {
            Probe::Upgrade(served, cycles) => AccessOutcome {
                latency: cycles + self.apply_upgrade_response(core, line, slice, resp),
                served,
            },
            Probe::Miss(kind) => self.apply_miss_response(core, line, kind, slice, resp),
            Probe::Hit(..) => unreachable!("a private-cache hit has no directory response"),
        }
    }

    /// Applies an already-computed directory response for a store upgrade
    /// of a resident line: invalidation fan-out, state change, stats.
    /// Returns the extra cycles beyond the private-cache hit. Under the
    /// epoch model a concurrent remote write can invalidate the upgrader's
    /// copy within the same epoch; the directory then answers with a data
    /// source and the line is refilled in Modified state instead (still
    /// counted as an upgrade).
    fn apply_upgrade_response(
        &mut self,
        core: CoreId,
        line: LineAddr,
        slice: SliceId,
        resp: &DirResponse,
    ) -> u64 {
        debug_assert!(
            self.lenient || resp.source == DataSource::None,
            "upgrade moved data"
        );
        let mut extra = dir_latency(&self.config, core, slice) + vd_latency(&self.config, resp);
        self.apply_invalidations(&resp.invalidations);
        match resp.source {
            DataSource::L2Cache(_) => {
                extra += self.config.latencies.cache_to_cache;
                self.fill_and_evict(core, line, Moesi::Modified);
            }
            DataSource::Memory => {
                extra += self.config.latencies.dram;
                self.fill_and_evict(core, line, Moesi::Modified);
            }
            DataSource::Llc => {
                self.fill_and_evict(core, line, Moesi::Modified);
            }
            DataSource::None => {
                self.cores[core.0].set_state(line, Moesi::Modified);
            }
        }
        self.stats.cores[core.0].upgrades += 1;
        extra
    }

    /// Applies an already-computed directory response for an L2 miss:
    /// Table-4 latency, serve classification, invalidation fan-out, owner
    /// downgrade, and the fill with victim eviction.
    fn apply_miss_response(
        &mut self,
        core: CoreId,
        line: LineAddr,
        kind: AccessKind,
        slice: SliceId,
        resp: &DirResponse,
    ) -> AccessOutcome {
        let lat = self.config.latencies;
        let mut latency =
            lat.l2_hit + dir_latency(&self.config, core, slice) + vd_latency(&self.config, resp);
        let stats = &mut self.stats.cores[core.0];
        let served = match resp.hit {
            DirHitKind::Ed | DirHitKind::Td => {
                stats.ed_td_hits += 1;
                ServedBy::EdTd
            }
            DirHitKind::Vd => {
                stats.vd_hits += 1;
                ServedBy::Vd
            }
            DirHitKind::Miss => {
                stats.memory_accesses += 1;
                ServedBy::Memory
            }
        };
        match resp.source {
            DataSource::Memory => latency += lat.dram,
            DataSource::Llc => {}
            DataSource::L2Cache(owner) => {
                latency += lat.cache_to_cache;
                if kind == AccessKind::Read {
                    // MOESI: the owner downgrades; dirty data stays in
                    // Owned state rather than being written back. (Under
                    // the epoch model the owner's copy may already be
                    // gone, in which case there is nothing to downgrade.)
                    let owner = &mut self.cores[owner.0];
                    let owner_state = owner.state(line);
                    if owner_state.is_valid() {
                        owner.set_state(line, owner_state.after_remote_read());
                    }
                }
            }
            DataSource::None => {
                debug_assert!(false, "L2 miss must move data");
            }
        }

        self.apply_invalidations(&resp.invalidations);

        let fill_state = secdir_coherence::step::fill_state(kind, resp.source);
        self.fill_and_evict(core, line, fill_state);

        AccessOutcome { latency, served }
    }

    /// Delivers an invalidation batch to the private caches it names,
    /// unless an armed behavioral fault drops it.
    fn apply_invalidations(&mut self, invalidations: &Invalidations) {
        if let Some(f) = self.fault.as_mut() {
            if f.drops_batch(invalidations) {
                return; // Injected hardware bug: the batch is never delivered.
            }
        }
        for inv in invalidations {
            if inv.llc_writeback {
                self.stats.memory_writebacks += 1;
            }
            for c in inv.cores.iter() {
                let state = self.cores[c.0].invalidate(inv.line);
                debug_assert!(
                    self.lenient || state.is_valid(),
                    "directory invalidated {line} from {c}, which holds no copy (cause {cause:?})",
                    line = inv.line,
                    cause = inv.cause,
                );
                if !state.is_valid() {
                    continue;
                }
                self.stats.count_invalidation(inv.cause);
                let stats = &mut self.stats.cores[c.0];
                if state.is_dirty() {
                    stats.invalidation_writebacks += 1;
                    self.stats.memory_writebacks += 1;
                }
                if inv.cause.creates_inclusion_victim() {
                    stats.inclusion_victims += 1;
                }
            }
        }
    }

    /// Fills `line` into `core`'s private caches in `fill_state` and
    /// retires the L2 victim, if any, through its home slice.
    fn fill_and_evict(&mut self, core: CoreId, line: LineAddr, fill_state: Moesi) {
        if let Some((vline, vstate)) = self.cores[core.0].fill(line, fill_state) {
            if vstate.is_dirty() {
                self.stats.cores[core.0].l2_writebacks += 1;
            }
            let vslice = self.slice_of(vline);
            let invs = self.slices[vslice.0].l2_evict(vline, core, vstate.is_dirty());
            self.apply_invalidations(&invs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(kind: DirectoryKind) -> Machine {
        Machine::new(MachineConfig::small(4, kind))
    }

    #[test]
    fn hit_path_latencies_match_table_4() {
        let mut m = machine(DirectoryKind::Baseline);
        let line = LineAddr::new(0x77);
        m.access(CoreId(0), line, false);
        assert_eq!(m.access(CoreId(0), line, false).latency, 4); // L1
                                                                 // Evict 0x77 from L1 only: the small config's L1 has 8 sets × 4
                                                                 // ways, so four fresh lines in its L1 set (7 mod 8) push it out,
                                                                 // while their L2 sets (7, 15, 23, 31 of 64) leave its L2 copy
                                                                 // (set 55) alone.
        for l in [7u64, 15, 23, 31] {
            m.access(CoreId(0), LineAddr::new(l), false);
        }
        let o = m.access(CoreId(0), line, false);
        assert_eq!(o.served, ServedBy::L2);
        assert_eq!(o.latency, 10, "Table-4 L2 hit, no directory traffic");
    }

    #[test]
    fn memory_miss_pays_dram() {
        let mut m = machine(DirectoryKind::Baseline);
        let o = m.access(CoreId(0), LineAddr::new(1), false);
        assert_eq!(o.served, ServedBy::Memory);
        // l2 lookup (10) + dir + dram (100)
        assert!(o.latency >= 10 + 30 + 100);
    }

    #[test]
    fn secdir_miss_pays_empty_bit() {
        let mut mb = machine(DirectoryKind::Baseline);
        let ms = &mut machine(DirectoryKind::SecDir);
        let line = LineAddr::new(1);
        let b = mb.access(CoreId(0), line, false);
        let s = ms.access(CoreId(0), line, false);
        assert_eq!(s.latency, b.latency + 2, "EB adds 2 cycles on an empty VD");
    }

    #[test]
    fn cross_core_read_shares_the_line() {
        let mut m = machine(DirectoryKind::Baseline);
        let line = LineAddr::new(5);
        m.access(CoreId(0), line, false);
        assert_eq!(m.caches(CoreId(0)).state(line), Moesi::Exclusive);
        let o = m.access(CoreId(1), line, false);
        assert_eq!(o.served, ServedBy::EdTd);
        assert_eq!(m.caches(CoreId(0)).state(line), Moesi::Shared);
        assert_eq!(m.caches(CoreId(1)).state(line), Moesi::Shared);
    }

    #[test]
    fn remote_read_of_dirty_line_leaves_owned() {
        let mut m = machine(DirectoryKind::Baseline);
        let line = LineAddr::new(5);
        m.access(CoreId(0), line, true);
        assert_eq!(m.caches(CoreId(0)).state(line), Moesi::Modified);
        m.access(CoreId(1), line, false);
        assert_eq!(m.caches(CoreId(0)).state(line), Moesi::Owned);
        assert_eq!(m.caches(CoreId(1)).state(line), Moesi::Shared);
    }

    #[test]
    fn write_invalidates_other_copies() {
        let mut m = machine(DirectoryKind::Baseline);
        let line = LineAddr::new(5);
        m.access(CoreId(0), line, false);
        m.access(CoreId(1), line, false);
        m.access(CoreId(2), line, true);
        assert!(!m.caches(CoreId(0)).l2_contains(line));
        assert!(!m.caches(CoreId(1)).l2_contains(line));
        assert_eq!(m.caches(CoreId(2)).state(line), Moesi::Modified);
        assert_eq!(m.stats().invalidations_by_cause[0], 2);
    }

    #[test]
    fn silent_write_to_exclusive_line() {
        let mut m = machine(DirectoryKind::Baseline);
        let line = LineAddr::new(5);
        m.access(CoreId(0), line, false); // E
        let o = m.access(CoreId(0), line, true); // silent E→M
        assert_eq!(o.latency, 4);
        assert_eq!(m.caches(CoreId(0)).state(line), Moesi::Modified);
        assert_eq!(m.stats().cores[0].upgrades, 0);
    }

    #[test]
    fn upgrade_of_shared_line_pays_directory() {
        let mut m = machine(DirectoryKind::Baseline);
        let line = LineAddr::new(5);
        m.access(CoreId(0), line, false);
        m.access(CoreId(1), line, false); // both Shared
        let o = m.access(CoreId(0), line, true);
        assert!(o.latency > 4, "upgrade needs a directory round-trip");
        assert_eq!(m.stats().cores[0].upgrades, 1);
        assert!(!m.caches(CoreId(1)).l2_contains(line));
    }

    #[test]
    fn invariants_hold_under_random_traffic() {
        for kind in DirectoryKind::ALL {
            let mut m = machine(kind);
            let mut rng = secdir_mem::SplitMix64::new(99);
            for _ in 0..4000 {
                let core = CoreId(rng.next_below(4) as usize);
                let line = LineAddr::new(rng.next_below(512));
                let write = rng.chance(0.3);
                m.access(core, line, write);
            }
            m.verify().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    #[test]
    fn l2_victim_lands_in_llc_and_comes_back_cheaper() {
        let mut m = machine(DirectoryKind::Baseline);
        // Fill one L2 set (16 ways, 64 sets) past capacity.
        let lines: Vec<LineAddr> = (0..17u64).map(|i| LineAddr::new(i * 64)).collect();
        for &l in &lines {
            m.access(CoreId(0), l, false);
        }
        // The first line was LRU-evicted into the LLC; re-access hits TD.
        let o = m.access(CoreId(0), lines[0], false);
        assert_eq!(o.served, ServedBy::EdTd);
        m.verify().unwrap();
    }

    #[test]
    fn stats_accesses_counted_per_core() {
        let mut m = machine(DirectoryKind::SecDir);
        m.access(CoreId(0), LineAddr::new(1), false);
        m.access(CoreId(1), LineAddr::new(2), true);
        assert_eq!(m.stats().cores[0].accesses, 1);
        assert_eq!(m.stats().cores[0].reads, 1);
        assert_eq!(m.stats().cores[1].writes, 1);
    }

    use secdir_coherence::{DirParts, SharerSet};
    use secdir_mem::SplitMix64;
    use std::sync::{Arc, Mutex};

    /// What a hinted slice answered: a request's response or an L2
    /// eviction's invalidations.
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Answer {
        Request(DirResponse),
        Evict(Invalidations),
    }

    /// Forwards every call to the slice it wraps and logs each answer.
    /// With `hints` set, it first issues up to three `DirSlice::prefetch`
    /// calls, for the call's own line or random ones.
    struct Hinted {
        inner: Box<dyn DirSlice + Send>,
        hints: Option<SplitMix64>,
        log: Arc<Mutex<Vec<Answer>>>,
    }

    impl Hinted {
        fn hint(&mut self, line: LineAddr) {
            if let Some(rng) = self.hints.as_mut() {
                for _ in 0..rng.next_below(4) {
                    let hinted = if rng.chance(0.5) {
                        line
                    } else {
                        LineAddr::new(rng.next_below(1 << 20))
                    };
                    self.inner.prefetch(hinted);
                }
            }
        }
    }

    impl DirSlice for Hinted {
        fn request(&mut self, line: LineAddr, core: CoreId, kind: AccessKind) -> DirResponse {
            self.hint(line);
            let resp = self.inner.request(line, core, kind);
            self.log.lock().unwrap().push(Answer::Request(resp.clone()));
            resp
        }
        fn l2_evict(&mut self, line: LineAddr, core: CoreId, dirty: bool) -> Invalidations {
            self.hint(line);
            let out = self.inner.l2_evict(line, core, dirty);
            self.log.lock().unwrap().push(Answer::Evict(out.clone()));
            out
        }
        fn parts(&self, line: LineAddr) -> DirParts {
            self.inner.parts(line)
        }
        fn stats(&self) -> &DirSliceStats {
            self.inner.stats()
        }
        fn validate(&self) -> Result<(), String> {
            self.inner.validate()
        }
        fn for_each_entry(&self, f: &mut dyn FnMut(LineAddr, SharerSet)) {
            self.inner.for_each_entry(f);
        }
    }

    /// `DirSlice::prefetch` is a pure host hint: random hints between a
    /// run's directory calls leave every response, every slice's stats and
    /// every line's parts as they are without them, for all seven kinds.
    #[test]
    fn prefetch_hints_change_no_response_stat_or_part() {
        const LINES: u64 = 800;
        for kind in DirectoryKind::ALL {
            let run = |hints: bool| {
                let mut m = machine(kind);
                let log = Arc::default();
                let slices = std::mem::take(&mut m.slices);
                m.slices = slices
                    .into_iter()
                    .enumerate()
                    .map(|(i, inner)| -> Box<dyn DirSlice + Send> {
                        let seed = 0x41 + i as u64;
                        Box::new(Hinted {
                            inner,
                            hints: hints.then(|| SplitMix64::new(seed)),
                            log: Arc::clone(&log),
                        })
                    })
                    .collect();
                let mut rng = SplitMix64::new(0x9e37);
                for _ in 0..8000 {
                    let core = CoreId(rng.next_below(4) as usize);
                    let line = LineAddr::new(rng.next_below(LINES));
                    m.access(core, line, rng.chance(0.3));
                }
                let stats: Vec<DirSliceStats> =
                    m.slices.iter().map(|s| s.stats().clone()).collect();
                let parts: Vec<DirParts> = (0..LINES)
                    .map(LineAddr::new)
                    .map(|line| m.slice(m.slice_of(line)).parts(line))
                    .collect();
                let answers = std::mem::take(&mut *log.lock().unwrap());
                (answers, stats, parts, m.stats().clone())
            };
            let (hinted, plain) = (run(true), run(false));
            assert!(!plain.0.is_empty(), "{kind:?}: no directory calls");
            assert_eq!(hinted, plain, "{kind:?}");
        }
    }
}
