//! Machine configuration: geometry, directory organization, latencies.

use secdir::SecDirConfig;
use secdir_cache::Geometry;
use secdir_coherence::BaselineDirConfig;
use serde::{Deserialize, Serialize};

/// Which directory organization the machine's slices use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirectoryKind {
    /// The conventional Skylake-X directory with the Appendix-A quirk —
    /// the paper's *Baseline*.
    Baseline,
    /// Baseline geometry with the Appendix-A fix (an ablation point: fixes
    /// the prime+probe variant but not the fundamental conflict attack).
    BaselineFixed,
    /// The paper's SecDir (Table 4 design).
    SecDir,
    /// SecDir with plain (single-hash) VD banks — Table 6's NoCKVD ablation.
    SecDirPlainVd,
    /// The §1 strawman: the conventional geometry statically
    /// way-partitioned among the cores. Secure but low-performing, and
    /// impossible beyond `W_TD = 11` cores.
    WayPartitioned,
    /// SecDir with ED and TD disabled: the §9 worst-case attacker fully
    /// controls the shared structures and the victim lives off its VD.
    SecDirVdOnly,
    /// VD-only with plain VD banks (Table 6 CKVD/NoCKVD denominator).
    SecDirVdOnlyPlain,
}

impl DirectoryKind {
    /// Every directory organization, in declaration order.
    pub const ALL: [DirectoryKind; 7] = [
        DirectoryKind::Baseline,
        DirectoryKind::BaselineFixed,
        DirectoryKind::SecDir,
        DirectoryKind::SecDirPlainVd,
        DirectoryKind::WayPartitioned,
        DirectoryKind::SecDirVdOnly,
        DirectoryKind::SecDirVdOnlyPlain,
    ];

    /// The stable CLI/JSONL name of this organization.
    pub fn name(self) -> &'static str {
        match self {
            DirectoryKind::Baseline => "baseline",
            DirectoryKind::BaselineFixed => "baseline-fixed",
            DirectoryKind::SecDir => "secdir",
            DirectoryKind::SecDirPlainVd => "secdir-plain-vd",
            DirectoryKind::WayPartitioned => "way-partitioned",
            DirectoryKind::SecDirVdOnly => "vd-only",
            DirectoryKind::SecDirVdOnlyPlain => "vd-only-plain",
        }
    }

    /// Parses a [`DirectoryKind::name`] string.
    ///
    /// # Errors
    ///
    /// Returns a message listing the known names on an unknown input.
    pub fn parse(s: &str) -> Result<Self, String> {
        DirectoryKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown directory kind `{s}` (known: {})",
                    DirectoryKind::ALL.map(|k| k.name()).join(", ")
                )
            })
    }

    /// Whether this organization contains Victim Directories.
    pub fn has_vd(self) -> bool {
        !matches!(
            self,
            DirectoryKind::Baseline | DirectoryKind::BaselineFixed | DirectoryKind::WayPartitioned
        )
    }
}

/// The §6 countermeasure against the VD timing side channel.
///
/// Because the VD is accessed after the ED/TD, a multithreaded victim's
/// coherence transactions take ~7 cycles longer when its entries sit in the
/// VD; an attacker who can push entries there could time the victim. The
/// paper proposes equalizing by slowing ED/TD-satisfied transactions and
/// leaves the implementation to future work — both variants are modeled
/// here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimingMitigation {
    /// No padding: the ~7-cycle differential is observable (the paper's
    /// default evaluation configuration).
    #[default]
    Off,
    /// Pad every ED/TD-satisfied transaction by the VD access time.
    Naive,
    /// Pad only ED/TD-satisfied transactions that invalidate or query
    /// another core's cache — the only ones a cross-thread observer can
    /// time (the paper's "more advanced solution").
    Selective,
}

/// Round-trip latencies in core cycles (paper Table 4, 2 GHz).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Latencies {
    /// L1 hit round trip.
    pub l1_hit: u64,
    /// L2 hit round trip.
    pub l2_hit: u64,
    /// Directory/LLC round trip when the home slice is the requester's own.
    pub dir_local: u64,
    /// Directory/LLC round trip to a remote slice.
    pub dir_remote: u64,
    /// Extra cycles for a cache-to-cache transfer from another core's L2.
    pub cache_to_cache: u64,
    /// DRAM round trip after the directory/LLC lookup (50 ns at 2 GHz).
    pub dram: u64,
    /// Empty-Bit array access, paid whenever the VD is consulted.
    pub vd_empty_bit: u64,
    /// VD bank array access, paid when the EB does not filter the lookup.
    pub vd_array: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            l1_hit: 4,
            l2_hit: 10,
            dir_local: 30,
            dir_remote: 50,
            cache_to_cache: 15,
            dram: 100,
            vd_empty_bit: 2,
            vd_array: 5,
        }
    }
}

/// Full machine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of cores (= number of LLC/directory slices).
    pub cores: usize,
    /// Per-core L1D geometry (Table 4: 32 KB, 8-way → 64 sets).
    pub l1: Geometry,
    /// Per-core L2 geometry (1 MB, 16-way → 1024 sets).
    pub l2: Geometry,
    /// Directory organization of every slice.
    pub directory: DirectoryKind,
    /// Latency model.
    pub latencies: Latencies,
    /// §6 timing-side-channel countermeasure (SecDir kinds only).
    pub timing_mitigation: TimingMitigation,
    /// Master seed for all randomized components (replacement, cuckoo
    /// victim selection). Two machines with equal configs behave
    /// identically.
    pub seed: u64,
}

impl MachineConfig {
    /// Largest core count a machine supports (one bit per core in the
    /// 64-bit sharer vectors).
    pub const MAX_CORES: usize = 64;

    /// The paper's Table-4 machine: `cores` cores, 32 KB/8-way L1D,
    /// 1 MB/16-way L2, Skylake-X LLC/directory geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds 64.
    pub fn skylake_x(cores: usize, directory: DirectoryKind) -> Self {
        assert!(
            cores > 0 && cores <= Self::MAX_CORES,
            "cores must be in 1..=64"
        );
        MachineConfig {
            cores,
            l1: Geometry::new(64, 8),
            l2: Geometry::new(1024, 16),
            directory,
            latencies: Latencies::default(),
            timing_mitigation: TimingMitigation::Off,
            seed: 0x5ecd_1200,
        }
    }

    /// A scaled-down machine (×1/16 cache sizes, same associativities and
    /// directory *ratios*) for fast tests. Conflict behaviour is identical
    /// in kind; only capacities shrink.
    pub fn small(cores: usize, directory: DirectoryKind) -> Self {
        assert!(
            cores > 0 && cores <= Self::MAX_CORES,
            "cores must be in 1..=64"
        );
        MachineConfig {
            cores,
            l1: Geometry::new(8, 4),
            l2: Geometry::new(64, 16),
            directory,
            latencies: Latencies::default(),
            timing_mitigation: TimingMitigation::Off,
            seed: 0x5ecd_1201,
        }
    }

    /// The baseline directory configuration implied by this machine config.
    pub fn baseline_dir(&self) -> BaselineDirConfig {
        let scale = self.l2.lines() as f64 / 16384.0;
        let dir_sets = ((2048.0 * scale) as usize).max(1).next_power_of_two();
        BaselineDirConfig {
            ed: Geometry::new(dir_sets, 12),
            td: Geometry::new(dir_sets, 11),
            appendix_a: if self.directory == DirectoryKind::BaselineFixed {
                secdir_coherence::AppendixA::Fixed
            } else {
                secdir_coherence::AppendixA::SkylakeQuirk
            },
        }
    }

    /// The SecDir configuration implied by this machine config: ED loses 4
    /// of its 12 ways; the per-core distributed VD holds as many entries as
    /// the L2 has lines (paper §7 sizing guidelines).
    pub fn secdir_dir(&self) -> SecDirConfig {
        let scale = self.l2.lines() as f64 / 16384.0;
        let dir_sets = ((2048.0 * scale) as usize).max(1).next_power_of_two();
        // Per-core VD entries machine-wide = L2 lines; one bank per slice,
        // 4 ways per bank.
        let bank_entries = (self.l2.lines() / self.cores).max(4);
        let bank_sets = (bank_entries / 4).max(1).next_power_of_two();
        let hashing = match self.directory {
            DirectoryKind::SecDirPlainVd | DirectoryKind::SecDirVdOnlyPlain => {
                secdir::VdHashing::Plain
            }
            _ => secdir::VdHashing::Cuckoo { num_relocations: 8 },
        };
        SecDirConfig {
            ed: Geometry::new(dir_sets, 8),
            td: Geometry::new(dir_sets, 11),
            vd_bank: Geometry::new(bank_sets, 4),
            num_banks: self.cores,
            hashing,
            empty_bit: true,
            search_batch: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylake_8_core_matches_table_4() {
        let c = MachineConfig::skylake_x(8, DirectoryKind::SecDir);
        assert_eq!(c.l1.data_bytes(), 32 * 1024);
        assert_eq!(c.l2.data_bytes(), 1024 * 1024);
        let d = c.secdir_dir();
        assert_eq!(d.ed, Geometry::new(2048, 8));
        assert_eq!(d.td, Geometry::new(2048, 11));
        assert_eq!(d.vd_bank, Geometry::new(512, 4));
        assert_eq!(d.num_banks, 8);
    }

    #[test]
    fn baseline_dir_matches_table_3() {
        let c = MachineConfig::skylake_x(8, DirectoryKind::Baseline);
        let d = c.baseline_dir();
        assert_eq!(d.ed, Geometry::new(2048, 12));
        assert_eq!(d.td, Geometry::new(2048, 11));
        assert_eq!(d.appendix_a, secdir_coherence::AppendixA::SkylakeQuirk);
    }

    #[test]
    fn fixed_baseline_flag_propagates() {
        let c = MachineConfig::skylake_x(8, DirectoryKind::BaselineFixed);
        assert_eq!(
            c.baseline_dir().appendix_a,
            secdir_coherence::AppendixA::Fixed
        );
    }

    #[test]
    fn plain_vd_variants_use_plain_hashing() {
        for k in [
            DirectoryKind::SecDirPlainVd,
            DirectoryKind::SecDirVdOnlyPlain,
        ] {
            let c = MachineConfig::skylake_x(8, k);
            assert_eq!(c.secdir_dir().hashing, secdir::VdHashing::Plain);
        }
    }

    #[test]
    fn default_latencies_match_table_4() {
        let l = Latencies::default();
        assert_eq!(l.l1_hit, 4);
        assert_eq!(l.l2_hit, 10);
        assert_eq!(l.dir_local, 30);
        assert_eq!(l.dir_remote, 50);
        assert_eq!(l.dram, 100);
        assert_eq!(l.vd_empty_bit, 2);
        assert_eq!(l.vd_array, 5);
    }

    #[test]
    fn small_config_preserves_vd_to_l2_sizing() {
        let c = MachineConfig::small(4, DirectoryKind::SecDir);
        let d = c.secdir_dir();
        // Per-core distributed VD entries >= L2 lines.
        assert!(d.vd_bank.lines() * c.cores >= c.l2.lines());
    }

    #[test]
    fn has_vd() {
        assert!(!DirectoryKind::Baseline.has_vd());
        assert!(DirectoryKind::SecDir.has_vd());
        assert!(DirectoryKind::SecDirVdOnly.has_vd());
    }
}
