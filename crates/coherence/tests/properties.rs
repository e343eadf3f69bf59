//! Property-based tests of the ED/TD directory slices: the baseline and
//! the way-partitioned directory.

use std::collections::HashSet;

use proptest::prelude::*;
use secdir_cache::Geometry;
use secdir_coherence::{
    AccessKind, AppendixA, BaselineDirConfig, BaselineSlice, DataSource, DirResponse, DirSlice,
    InvalidationCause, WayPartitionedSlice,
};
use secdir_mem::{CoreId, LineAddr};

/// Drives a slice the way the machine contract requires: a Read request is
/// only issued by a core that holds no copy (it would have hit its private
/// caches otherwise). Returns `None` for skipped (architecturally
/// impossible) requests.
struct Driver {
    holds: HashSet<(usize, u64)>,
}

impl Driver {
    fn new() -> Self {
        Driver {
            holds: HashSet::new(),
        }
    }

    fn request(
        &mut self,
        slice: &mut dyn DirSlice,
        line: LineAddr,
        core: CoreId,
        kind: AccessKind,
    ) -> Option<DirResponse> {
        if kind == AccessKind::Read && self.holds.contains(&(core.0, line.value())) {
            return None; // would have been a private-cache hit
        }
        let resp = slice.request(line, core, kind);
        self.holds.insert((core.0, line.value()));
        for inv in &resp.invalidations {
            for c in inv.cores.iter() {
                self.holds.remove(&(c.0, inv.line.value()));
            }
        }
        Some(resp)
    }
}

fn tiny_config(appendix_a: AppendixA) -> BaselineDirConfig {
    BaselineDirConfig {
        ed: Geometry::new(2, 2),
        td: Geometry::new(2, 2),
        appendix_a,
    }
}

/// The slices the shared properties run on: the tiny baseline with
/// `appendix_a`, and a way-partitioned slice of 2 sets × 4 ways split one
/// way per core (which always applies the Appendix-A fix).
fn slices(appendix_a: AppendixA, seed: u64) -> [Box<dyn DirSlice>; 2] {
    let partitioned = BaselineDirConfig {
        ed: Geometry::new(2, 4),
        td: Geometry::new(2, 4),
        appendix_a,
    };
    [
        Box::new(BaselineSlice::new(tiny_config(appendix_a), seed)),
        Box::new(WayPartitionedSlice::new(partitioned, 4, seed)),
    ]
}

fn requests() -> impl Strategy<Value = Vec<(u8, u8, bool)>> {
    prop::collection::vec((0u8..4, 0u8..64, any::<bool>()), 1..300)
}

proptest! {
    /// After any request, the requester is tracked as a sharer of the line
    /// (the entry may later be displaced, but never at request time).
    #[test]
    fn requester_is_always_tracked(reqs in requests(), fixed in any::<bool>()) {
        let appendix_a = if fixed { AppendixA::Fixed } else { AppendixA::SkylakeQuirk };
        for mut slice in slices(appendix_a, 7) {
            let mut driver = Driver::new();
            for &(core, line, write) in &reqs {
                let core = CoreId(core as usize);
                let line = LineAddr::new(line as u64);
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let Some(resp) = driver.request(slice.as_mut(), line, core, kind) else {
                    continue;
                };
                // Unless this very response invalidated the requested line
                // from the requester (impossible by protocol), the entry
                // must list it.
                let evicted_self = resp.invalidations.iter().any(|i| {
                    i.line == line && i.cores.contains(core)
                });
                prop_assert!(!evicted_self, "a request must never invalidate its own line");
                let tracked = slice
                    .locate(line)
                    .map(|w| w.sharers().contains(core) || matches!(w, secdir_coherence::DirWhere::Td { has_data: true, .. }))
                    .unwrap_or(false);
                prop_assert!(tracked, "{core} not tracked for {line} after {kind:?}");
            }
        }
    }

    /// A write leaves the writer as the only sharer, everywhere.
    #[test]
    fn writes_are_exclusive(reqs in requests(), victim_core in 0usize..4) {
        for mut slice in slices(AppendixA::Fixed, 3) {
            let slice = slice.as_mut();
            let mut driver = Driver::new();
            for &(core, line, write) in &reqs {
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                driver.request(slice, LineAddr::new(line as u64), CoreId(core as usize), kind);
            }
            let line = LineAddr::new(1);
            driver.request(slice, line, CoreId(victim_core), AccessKind::Write);
            let w = slice.locate(line).expect("just requested");
            prop_assert_eq!(w.sharers().count(), 1);
            prop_assert!(w.sharers().contains(CoreId(victim_core)));
        }
    }

    /// The fixed slice never reports Appendix-A quirk invalidations, and
    /// the quirky slice never reports them for multi-sharer entries.
    #[test]
    fn quirk_semantics(reqs in requests()) {
        let mut fixed = BaselineSlice::new(tiny_config(AppendixA::Fixed), 3);
        let mut quirky = BaselineSlice::new(tiny_config(AppendixA::SkylakeQuirk), 3);
        let mut fixed_driver = Driver::new();
        let mut quirky_driver = Driver::new();
        for (core, line, write) in reqs {
            let core = CoreId(core as usize);
            let line = LineAddr::new(line as u64);
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            if let Some(rf) = fixed_driver.request(&mut fixed, line, core, kind) {
                prop_assert!(
                    rf.invalidations.iter().all(|i| i.cause != InvalidationCause::EdToTdQuirk),
                    "fixed slice produced a quirk invalidation"
                );
            }
            if let Some(rq) = quirky_driver.request(&mut quirky, line, core, kind) {
                for inv in &rq.invalidations {
                    if inv.cause == InvalidationCause::EdToTdQuirk {
                        prop_assert_eq!(inv.cores.count(), 1, "quirk only hits exclusive copies");
                    }
                }
            }
        }
    }

    /// Responses always name a source that can actually supply data.
    #[test]
    fn data_source_is_coherent(reqs in requests()) {
        for mut slice in slices(AppendixA::SkylakeQuirk, 11) {
            let mut driver = Driver::new();
            for &(core, line, write) in &reqs {
                let core = CoreId(core as usize);
                let line = LineAddr::new(line as u64);
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let held_before = driver.holds.contains(&(core.0, line.value()));
                let Some(resp) = driver.request(slice.as_mut(), line, core, kind) else {
                    continue;
                };
                match resp.source {
                    DataSource::L2Cache(owner) => {
                        prop_assert!(owner != core, "forwarded a miss to the requester itself");
                    }
                    DataSource::None => {
                        prop_assert!(write && held_before, "only upgrades move no data");
                    }
                    DataSource::Llc | DataSource::Memory => {}
                }
            }
        }
    }
}
