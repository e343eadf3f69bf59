//! Conflict-based directory side-channel attack toolkit.
//!
//! Implements the cross-core active attacks of the paper's threat model
//! (§2.3, §3) against the simulated machine:
//!
//! * [`eviction`] — building *directory eviction sets*: lines that map to
//!   the same slice and the same TD/ED set as a target, kept resident in
//!   the attacker cores' L2s so their directory entries crowd the set;
//! * [`evict_reload`] — the evict+reload attack on a shared (read-only)
//!   target line;
//! * [`prime_probe`] — the prime+probe attack, which needs no shared
//!   memory;
//! * [`evict_time`] — the evict+time variant, which only observes the
//!   victim's execution time (§2.2's point that the conflict-attack family
//!   differs only in the Analyze step).
//!
//! Both drivers return accuracy against a known secret, so the security
//! claim is quantitative: ≈100% recovery on the Baseline directory, chance
//! (≈50%) on SecDir.
//!
//! # Examples
//!
//! ```
//! use secdir_attack::eviction::build_eviction_set;
//! use secdir_machine::{DirectoryKind, Machine, MachineConfig};
//! use secdir_mem::LineAddr;
//!
//! let m = Machine::new(MachineConfig::small(2, DirectoryKind::Baseline));
//! let target = LineAddr::new(0x1234);
//! let set = build_eviction_set(&m, target, 8, 0x10_0000);
//! assert_eq!(set.len(), 8);
//! ```

pub mod evict_reload;
pub mod evict_time;
pub mod eviction;
pub mod prime_probe;

pub use evict_reload::{evict_reload_attack, AttackOutcome};
pub use evict_time::evict_time_attack;
pub use eviction::{build_eviction_set, dir_sets_of};
pub use prime_probe::prime_probe_attack;

use secdir_mem::{CoreId, SplitMix64};
use serde::{Deserialize, Serialize};

/// Shared attack parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AttackConfig {
    /// The core the victim runs on.
    pub victim_core: CoreId,
    /// The cores the attacker controls (everything else, typically).
    pub attacker_cores: Vec<CoreId>,
    /// Eviction lines resident per attacker core (≤ L2 associativity).
    pub lines_per_core: usize,
    /// Latency threshold (cycles): below = "was cached", at/above =
    /// "came from memory".
    pub latency_threshold: u64,
    /// Number of secret bits to transmit/recover.
    pub bits: usize,
    /// Seed for the secret bit string.
    pub seed: u64,
}

impl AttackConfig {
    /// The standard setup on an `n`-core machine: victim on core 0,
    /// attacker on all others, 16 lines per attacker core (the L2
    /// associativity), memory threshold of 100 cycles.
    pub fn standard(n: usize) -> Self {
        AttackConfig {
            victim_core: CoreId(0),
            attacker_cores: (1..n).map(CoreId).collect(),
            lines_per_core: 16,
            latency_threshold: 100,
            bits: 64,
            seed: 0xa77ac,
        }
    }

    /// The secret bit string the victim will leak.
    pub fn secret(&self) -> Vec<bool> {
        let mut rng = SplitMix64::new(self.seed);
        (0..self.bits).map(|_| rng.chance(0.5)).collect()
    }
}

/// Fraction of `guessed` bits matching `truth`.
pub fn accuracy(guessed: &[bool], truth: &[bool]) -> f64 {
    assert_eq!(
        guessed.len(),
        truth.len(),
        "bit strings must match in length"
    );
    if truth.is_empty() {
        return 0.0;
    }
    let ok = guessed.iter().zip(truth).filter(|(g, t)| g == t).count();
    ok as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_config_splits_cores() {
        let c = AttackConfig::standard(8);
        assert_eq!(c.victim_core, CoreId(0));
        assert_eq!(c.attacker_cores.len(), 7);
        assert!(!c.attacker_cores.contains(&CoreId(0)));
    }

    #[test]
    fn secret_is_deterministic() {
        let c = AttackConfig::standard(4);
        assert_eq!(c.secret(), c.secret());
        assert_eq!(c.secret().len(), 64);
    }

    #[test]
    fn accuracy_counts_matches() {
        assert!((accuracy(&[true, false], &[true, true]) - 0.5).abs() < 1e-12);
        assert!((accuracy(&[true], &[true]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "match in length")]
    fn accuracy_rejects_length_mismatch() {
        accuracy(&[true], &[true, false]);
    }
}
