//! What the benchmark can learn about the host it runs on, including how
//! fast it is running right now.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the pointer-chase cycle: 4 MB, larger than a core's L2 on
/// the reference host, so the chase runs at L3 latency.
const CHASE_ENTRIES: usize = 1 << 20;
const CHASE_STEPS: usize = 250_000;
const SPIN_STEPS: u64 = 10_000_000;

/// The kernels' times on the reference host (Intel Xeon, 2 vCPUs, 2 MB L2
/// per core), at which the host speed reads 1. They only fix the scale of
/// the adjusted metrics.
const CHASE_NOMINAL_NS: f64 = 6.6e6;
const SPIN_NOMINAL_NS: f64 = 2.27e6;

/// A fixed reference kernel that measures the host's current speed.
///
/// Shared hosts drift: on the reference host every workload's rate moved
/// by up to 35% over minutes, in step, while the code stayed the same.
/// A random pointer chase through 4 MB and an integer loop drift the same
/// way, so timing them around each operation and dividing the drift out
/// leaves the rates the code itself determines. The kernel is benchmark
/// code and never changes with the code under test.
pub struct Reference {
    next: Vec<u32>,
}

impl Reference {
    pub fn new() -> Reference {
        // A single random cycle through every entry (Sattolo's shuffle).
        let mut next: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..CHASE_ENTRIES).rev() {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (s >> 33) as usize % i;
            next.swap(i, j);
        }
        Reference { next }
    }

    /// The host's speed relative to the reference host's nominal speed:
    /// 1 at nominal, below 1 when slower.
    pub fn speed(&self) -> f64 {
        let start = Instant::now();
        let mut i = 0u32;
        for _ in 0..CHASE_STEPS {
            i = self.next[black_box(i) as usize];
        }
        black_box(i);
        let chase = start.elapsed().as_nanos() as f64;
        let start = Instant::now();
        let mut x = 1u64;
        for k in 0..black_box(SPIN_STEPS) {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
        }
        black_box(x);
        let spin = start.elapsed().as_nanos() as f64;
        (CHASE_NOMINAL_NS / chase * SPIN_NOMINAL_NS / spin).sqrt()
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn the_chase_is_one_cycle_through_every_entry() {
        let r = Reference::new();
        let mut i = 0u32;
        for step in 1..=CHASE_ENTRIES {
            i = r.next[i as usize];
            assert_eq!(
                i == 0,
                step == CHASE_ENTRIES,
                "cycle closed after {step} steps"
            );
        }
        assert!(r.speed() > 0.0);
    }
}
