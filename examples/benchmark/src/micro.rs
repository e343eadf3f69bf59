//! Isolated structure timings for the traced run. Each is a batch of calls
//! timed as a whole, so no per-call clock read is involved; the reported
//! value is the median over rounds.

use std::hint::black_box;
use std::time::Instant;

use secdir::{SecDirConfig, SecDirSlice, VdBank, VdHashing};
use secdir_cache::Geometry;
use secdir_coherence::{AccessKind, BaselineDirConfig, BaselineSlice, DirSlice};
use secdir_machine::serve::{uniform_streams, TenantSpec};
use secdir_machine::{DirectoryKind, Machine, MachineConfig};
use secdir_mem::{CoreId, LineAddr, SplitMix64};

use crate::engine::{Config, EPOCH_BATCH};
use crate::stats::median_of;

const ROUNDS: usize = 11;

/// Median over rounds of `f`'s (items, seconds), as ns per item.
fn ns_per_item(mut f: impl FnMut(u64) -> (u64, f64)) -> f64 {
    let per: Vec<f64> = (0..ROUNDS as u64)
        .map(|round| {
            let (items, secs) = f(round);
            secs * 1e9 / items as f64
        })
        .collect();
    median_of(&per)
}

fn vd_bank() -> VdBank {
    VdBank::new(
        Geometry::new(512, 4),
        VdHashing::Cuckoo { num_relocations: 8 },
        true,
        1,
    )
}

/// One cuckoo VD bank insert (1024 random lines into fresh banks).
pub fn vd_insert_ns(seed: u64) -> f64 {
    const BANKS: usize = 16;
    const LINES: u64 = 1024;
    ns_per_item(|round| {
        let mut banks: Vec<VdBank> = (0..BANKS).map(|_| vd_bank()).collect();
        let mut rng = SplitMix64::new(seed ^ round);
        let lines: Vec<LineAddr> = (0..LINES)
            .map(|_| LineAddr::new(rng.next_below(1 << 30)))
            .collect();
        let start = Instant::now();
        for bank in &mut banks {
            for &l in &lines {
                black_box(bank.insert(l));
            }
        }
        (BANKS as u64 * LINES, start.elapsed().as_secs_f64())
    })
}

/// One VD membership probe that hits.
pub fn vd_lookup_ns(seed: u64) -> f64 {
    const PROBES: u64 = 100_000;
    let mut bank = vd_bank();
    let mut rng = SplitMix64::new(seed);
    let lines: Vec<LineAddr> = (0..1024)
        .map(|_| LineAddr::new(rng.next_below(1 << 30)))
        .collect();
    for &l in &lines {
        bank.insert(l);
    }
    let present: Vec<LineAddr> = lines.into_iter().filter(|&l| bank.contains(l)).collect();
    ns_per_item(|_| {
        let start = Instant::now();
        for i in 0..PROBES as usize {
            black_box(bank.contains(black_box(present[i % present.len()])));
        }
        (PROBES, start.elapsed().as_secs_f64())
    })
}

/// One directory-slice read request, on a fresh Table-4 slice.
pub fn request_ns(kind: DirectoryKind, seed: u64) -> f64 {
    const REQUESTS: u64 = 2048;
    ns_per_item(|round| {
        let mut slice: Box<dyn DirSlice> = match kind {
            DirectoryKind::Baseline => {
                Box::new(BaselineSlice::new(BaselineDirConfig::skylake_x(), 1))
            }
            _ => Box::new(SecDirSlice::new(SecDirConfig::skylake_x(8), 1)),
        };
        let mut rng = SplitMix64::new(seed ^ round);
        let reqs: Vec<(LineAddr, CoreId)> = (0..REQUESTS)
            .map(|_| {
                (
                    LineAddr::new(rng.next_below(1 << 20)),
                    CoreId(rng.next_below(8) as usize),
                )
            })
            .collect();
        let start = Instant::now();
        for &(line, core) in &reqs {
            black_box(slice.request(line, core, AccessKind::Read));
        }
        (REQUESTS, start.elapsed().as_secs_f64())
    })
}

/// One `Machine::verify` sweep of a serve tenant's machine (one core,
/// small configuration) after it served `refs` uniform references, in µs,
/// averaged over all seven kinds.
pub fn audit_verify_us(seed: u64, refs: u64) -> Result<f64, String> {
    const SWEEPS: u64 = 20;
    let mut total = 0.0;
    for (i, kind) in DirectoryKind::ALL.into_iter().enumerate() {
        let spec = TenantSpec {
            name: format!("audit{i}"),
            workload: "uniform".to_string(),
            kind,
            seed: seed.wrapping_add(i as u64),
            cores: 1,
            refs,
            fault: None,
        };
        let mut machine = Machine::new(MachineConfig::small(1, kind));
        let mut stream = uniform_streams(&spec).remove(0);
        for _ in 0..refs {
            let a = stream.next_access().ok_or("uniform stream ended")?;
            machine.access(CoreId(0), a.line, a.write);
        }
        machine
            .verify()
            .map_err(|e| format!("{}: audit failed: {e}", kind.name()))?;
        total += ns_per_item(|_| {
            let start = Instant::now();
            for _ in 0..SWEEPS {
                black_box(machine.verify()).ok();
            }
            (SWEEPS, start.elapsed().as_secs_f64())
        });
    }
    Ok(total / DirectoryKind::ALL.len() as f64 / 1e3)
}

/// Wall time of one sliced-engine call capped at one epoch: worker
/// spawn, ownership transfer and one barrier round, in µs.
pub fn sliced_call_us(cfg: &mut Config) -> f64 {
    const CALLS: usize = 101;
    let per: Vec<f64> = (0..CALLS)
        .map(|_| cfg.window(EPOCH_BATCH as u64).1 * 1e6)
        .collect();
    median_of(&per)
}
