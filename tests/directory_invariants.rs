//! Property-based invariants of the whole machine, for every directory
//! organization, under arbitrary access streams.

use proptest::prelude::*;
use secdir_coherence::Moesi;
use secdir_machine::{DirectoryKind, Machine, MachineConfig};
use secdir_mem::{CoreId, LineAddr};

/// An arbitrary short access stream over a small line space (so conflicts
/// actually happen on the scaled-down machine).
fn accesses() -> impl Strategy<Value = Vec<(u8, u16, bool)>> {
    prop::collection::vec((0u8..4, 0u16..1024, any::<bool>()), 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every valid L2 line is covered by a directory entry listing its
    /// core — the directory-inclusion invariant the coherence protocol
    /// depends on — checked with the full oracle, so the other protocol
    /// invariants must hold too.
    #[test]
    fn directory_inclusion_holds(stream in accesses(), kind_idx in 0usize..DirectoryKind::ALL.len()) {
        let kind = DirectoryKind::ALL[kind_idx];
        let mut m = Machine::new(MachineConfig::small(4, kind));
        for &(core, line, write) in &stream {
            m.access(CoreId(core as usize), LineAddr::new(line as u64), write);
        }
        m.verify().unwrap();
    }

    /// At most one core holds a dirty-exclusive (M/E) copy of a line, and
    /// if any core holds M/E no other core holds any copy.
    #[test]
    fn single_writer_invariant(stream in accesses(), kind_idx in 0usize..DirectoryKind::ALL.len()) {
        let kind = DirectoryKind::ALL[kind_idx];
        let mut m = Machine::new(MachineConfig::small(4, kind));
        for &(core, line, write) in &stream {
            m.access(CoreId(core as usize), LineAddr::new(line as u64), write);
        }
        for line in 0u64..1024 {
            let line = LineAddr::new(line);
            let holders: Vec<(usize, Moesi)> = (0..4)
                .map(|c| (c, m.caches(CoreId(c)).state(line)))
                .filter(|(_, s)| s.is_valid())
                .collect();
            let exclusive = holders
                .iter()
                .filter(|(_, s)| matches!(s, Moesi::Modified | Moesi::Exclusive))
                .count();
            prop_assert!(exclusive <= 1, "{line}: {holders:?}");
            if exclusive == 1 {
                prop_assert_eq!(holders.len(), 1, "{}: {:?}", line, holders);
            }
            let dirty = holders.iter().filter(|(_, s)| s.is_dirty()).count();
            prop_assert!(dirty <= 1, "{line}: two dirty owners {holders:?}");
        }
    }

    /// The machine is a deterministic function of (config, stream).
    #[test]
    fn runs_are_deterministic(stream in accesses()) {
        let run = || {
            let mut m = Machine::new(MachineConfig::small(4, DirectoryKind::SecDir));
            let mut latencies = 0u64;
            for &(core, line, write) in &stream {
                latencies += m.access(CoreId(core as usize), LineAddr::new(line as u64), write).latency;
            }
            (latencies, format!("{:?}", m.stats()))
        };
        prop_assert_eq!(run(), run());
    }

    /// VD isolation: whatever one core does, it never perturbs another
    /// core's VD bank contents (checked on the full-size machine's slices).
    #[test]
    fn vd_isolation(victim_lines in prop::collection::vec(0u64..4096, 1..40),
                    attacker_lines in prop::collection::vec(0u64..1_000_000, 1..400)) {
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::SecDirVdOnly));
        // The victim (core 0) populates its VD banks.
        for &l in &victim_lines {
            m.access(CoreId(0), LineAddr::new(l), false);
        }
        let snapshot: Vec<Vec<LineAddr>> = (0..2)
            .map(|s| {
                use secdir_coherence::DirWhere;
                (0..4096u64)
                    .map(LineAddr::new)
                    .filter(|&l| matches!(
                        m.slice(secdir_mem::SliceId(s)).locate(l),
                        Some(DirWhere::Vd(set)) if set.contains(CoreId(0))
                    ))
                    .collect()
            })
            .collect();
        // The attacker (core 1) does whatever it wants in its own space.
        for &l in &attacker_lines {
            m.access(CoreId(1), LineAddr::new(0x100_0000 + l), false);
        }
        for (s, lines) in snapshot.iter().enumerate() {
            use secdir_coherence::DirWhere;
            for &l in lines {
                let loc = m.slice(secdir_mem::SliceId(s)).locate(l);
                prop_assert!(
                    matches!(loc, Some(DirWhere::Vd(set)) if set.contains(CoreId(0))),
                    "attacker displaced victim VD entry {l}: {loc:?}"
                );
            }
        }
    }
}
