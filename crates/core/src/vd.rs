//! A Victim Directory bank: a per-core cuckoo directory with an Empty Bit.

use secdir_cache::Geometry;
use secdir_mem::{LineAddr, SkewHash, SplitMix64};
use serde::{Deserialize, Serialize};

use crate::VdHashing;

/// The result of a [`VdBank::insert`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VdInsert {
    /// Cuckoo relocation steps performed (0 when a set had a free slot).
    pub relocations: u32,
    /// An entry dropped because the relocation budget ran out (cuckoo) or
    /// the set was full (plain) — a VD *self-conflict*, paper transition ⑤.
    /// The owning core's copy of this line must be invalidated.
    pub displaced: Option<LineAddr>,
}

#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct VdSlot {
    line: LineAddr,
    /// Which hash function placed the entry (the "Cuckoo bit", §5.2.1).
    hash_fn: u8,
}

/// A (set, way) handle into the bank's flat arrays.
type SetWay = (usize, usize);

/// A line's candidate sets in a VD bank: the set of each hash function a
/// lookup consults (`h1` and `h2` under cuckoo hashing, `h1` alone under
/// plain hashing).
///
/// The sets depend only on the bank's geometry and hashing, never on its
/// seed, so every bank of one slice yields the same sets. Like the
/// hardware, which computes the two indices once and sends them to every
/// bank (§5.1), a slice hashes a request's line once
/// ([`VdBank::candidate_sets`]) and hands the sets to each bank's
/// Empty-Bit check and probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VdSets {
    sets: [usize; 2],
    len: usize,
}

impl VdSets {
    /// The candidate sets, one per active hash function, in hash order.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        &self.sets[..self.len]
    }
}

/// One bank of a core's distributed Victim Directory.
///
/// A bank is indexed by two Seznec–Bodin skewing hash functions `h1`/`h2`
/// and inserts entries cuckoo-style: if both candidate sets are full, a
/// resident entry is displaced and re-inserted under its alternative hash
/// function, up to `NumRelocations` times (paper §5.2.1, Appendix B).
/// An Empty Bit per set answers "is this set empty?" without touching the
/// data array (§5.2.2).
///
/// Entries live in flat contiguous arrays (`tags` / `hash_fns`, indexed by
/// `set * ways + way`) with a per-set `u64` occupancy bitmask, mirroring
/// the hot-path layout of `secdir_cache::SetAssoc`: the Empty-Bit check is
/// a single mask load, and a lookup touches only the occupied ways of the
/// candidate sets.
///
/// # Examples
///
/// ```
/// use secdir::{VdBank, VdHashing};
/// use secdir_cache::Geometry;
/// use secdir_mem::LineAddr;
///
/// let mut bank = VdBank::new(
///     Geometry::new(512, 4),
///     VdHashing::Cuckoo { num_relocations: 8 },
///     true, // Empty Bit
///     0,
/// );
/// let r = bank.insert(LineAddr::new(0xabc));
/// assert!(r.displaced.is_none());
/// assert!(bank.contains(LineAddr::new(0xabc)));
/// ```
#[derive(Clone, Debug)]
pub struct VdBank {
    geometry: Geometry,
    hashing: VdHashing,
    empty_bit: bool,
    hashes: [SkewHash; 2],
    /// Line tags, indexed by `set * ways + way`; only slots whose bit is
    /// set in `valid` are meaningful.
    tags: Vec<LineAddr>,
    /// The hash function that placed each entry (the "Cuckoo bit").
    hash_fns: Vec<u8>,
    /// One occupancy bitmask per set; bit `w` set ⇔ way `w` holds an entry.
    /// This doubles as the Empty-Bit hardware: `valid[set] == 0` answers
    /// the EB query without touching the tag array.
    valid: Vec<u64>,
    len: usize,
    rng: SplitMix64,
}

impl VdBank {
    /// Creates an empty bank. `seed` feeds the random victim selection.
    pub fn new(geometry: Geometry, hashing: VdHashing, empty_bit: bool, seed: u64) -> Self {
        let lines = geometry.sets() * geometry.ways();
        VdBank {
            geometry,
            hashing,
            empty_bit,
            hashes: [
                SkewHash::new(0, geometry.sets()),
                SkewHash::new(1, geometry.sets()),
            ],
            tags: vec![LineAddr::new(0); lines],
            hash_fns: vec![0; lines],
            valid: vec![0; geometry.sets()],
            len: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// The bank's geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bank holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn index(&self, hash_fn: u8, line: LineAddr) -> usize {
        self.hashes[usize::from(hash_fn)].index(line)
    }

    /// All-ways-occupied mask for one set.
    #[inline]
    fn row_mask(&self) -> u64 {
        let ways = self.geometry.ways();
        if ways == 64 {
            u64::MAX
        } else {
            (1u64 << ways) - 1
        }
    }

    /// Scans `set` for `line`, touching only occupied ways.
    #[inline]
    fn find_in_set(&self, set: usize, line: LineAddr) -> Option<SetWay> {
        let mut mask = self.valid[set];
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            if self.tags[set * self.geometry.ways() + way] == line {
                return Some((set, way));
            }
            mask &= mask - 1;
        }
        None
    }

    /// `line`'s candidate sets in this bank. Every bank with the same
    /// geometry and hashing returns the same sets.
    #[inline]
    pub fn candidate_sets(&self, line: LineAddr) -> VdSets {
        match self.hashing {
            VdHashing::Cuckoo { .. } => VdSets {
                sets: [self.index(0, line), self.index(1, line)],
                len: 2,
            },
            VdHashing::Plain => {
                let set = self.index(0, line);
                VdSets {
                    sets: [set, set],
                    len: 1,
                }
            }
        }
    }

    #[inline]
    fn find_at(&self, sets: VdSets, line: LineAddr) -> Option<SetWay> {
        sets.as_slice()
            .iter()
            .find_map(|&set| self.find_in_set(set, line))
    }

    /// Whether the bank holds an entry for `line`.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.contains_at(self.candidate_sets(line), line)
    }

    /// [`VdBank::contains`] for a line whose candidate sets are already
    /// known; `sets` must be `line`'s.
    #[inline]
    pub fn contains_at(&self, sets: VdSets, line: LineAddr) -> bool {
        self.find_at(sets, line).is_some()
    }

    /// Empty-Bit filter: `true` when the bit arrays prove the lookup must
    /// miss, so the bank's data array need not be probed at all. O(1): the
    /// per-set occupancy mask *is* the Empty-Bit array.
    ///
    /// Returns `false` when the bank has no Empty Bit hardware — every
    /// lookup then probes the array.
    #[inline]
    pub fn eb_filters_out(&self, line: LineAddr) -> bool {
        self.eb_filters_out_at(self.candidate_sets(line))
    }

    /// [`VdBank::eb_filters_out`] for a line whose candidate sets are
    /// already known.
    #[inline]
    pub fn eb_filters_out_at(&self, sets: VdSets) -> bool {
        self.empty_bit && sets.as_slice().iter().all(|&set| self.valid[set] == 0)
    }

    fn place(&mut self, set: usize, way: usize, slot: VdSlot) {
        debug_assert!(self.valid[set] & (1 << way) == 0);
        self.valid[set] |= 1 << way;
        self.tags[set * self.geometry.ways() + way] = slot.line;
        self.hash_fns[set * self.geometry.ways() + way] = slot.hash_fn;
        self.len += 1;
    }

    /// Lowest-numbered unoccupied way (matches the old
    /// `position(Option::is_none)` scan over boxed slots).
    fn free_way(&self, set: usize) -> Option<usize> {
        let free = !self.valid[set] & self.row_mask();
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    /// Reads the occupied slot at `(set, way)` and overwrites it in place
    /// (occupancy bit stays set).
    fn replace(&mut self, set: usize, way: usize, slot: VdSlot) -> VdSlot {
        debug_assert!(self.valid[set] & (1 << way) != 0);
        let idx = set * self.geometry.ways() + way;
        let old = VdSlot {
            line: self.tags[idx],
            hash_fn: self.hash_fns[idx],
        };
        self.tags[idx] = slot.line;
        self.hash_fns[idx] = slot.hash_fn;
        old
    }

    /// Inserts an entry for `line` (idempotent if already present).
    ///
    /// With cuckoo hashing, a full pair of candidate sets triggers the
    /// relocation chain of Appendix B; when the relocation budget is
    /// exhausted the last displaced entry is dropped and reported in
    /// [`VdInsert::displaced`]. With plain hashing a full set immediately
    /// displaces a random resident.
    pub fn insert(&mut self, line: LineAddr) -> VdInsert {
        self.insert_at(self.candidate_sets(line), line)
    }

    /// [`VdBank::insert`] for a line whose candidate sets are already
    /// known; `sets` must be `line`'s.
    pub(crate) fn insert_at(&mut self, sets: VdSets, line: LineAddr) -> VdInsert {
        // Each candidate set is probed exactly once: the idempotence check
        // and the free-way search share the same visit.
        match self.hashing {
            VdHashing::Plain => {
                let set = sets.sets[0];
                if self.find_in_set(set, line).is_some() {
                    return VdInsert::default();
                }
                if let Some(way) = self.free_way(set) {
                    self.place(set, way, VdSlot { line, hash_fn: 0 });
                    return VdInsert::default();
                }
                let way = self.rng.next_below(self.geometry.ways() as u64) as usize;
                let old = self.replace(set, way, VdSlot { line, hash_fn: 0 });
                VdInsert {
                    relocations: 0,
                    displaced: Some(old.line),
                }
            }
            VdHashing::Cuckoo { num_relocations } => {
                let candidates = sets.sets;
                if candidates
                    .iter()
                    .any(|&set| self.find_in_set(set, line).is_some())
                {
                    return VdInsert::default();
                }
                // Fast path: either candidate set has a free slot.
                for (k, &set) in candidates.iter().enumerate() {
                    if let Some(way) = self.free_way(set) {
                        self.place(
                            set,
                            way,
                            VdSlot {
                                line,
                                hash_fn: k as u8,
                            },
                        );
                        return VdInsert::default();
                    }
                }
                // Both sets full: start the relocation chain. The incoming
                // entry kicks out a random resident of a randomly chosen
                // candidate set; the resident is re-inserted under its
                // alternative hash function, and so on.
                let mut incoming = VdSlot {
                    line,
                    hash_fn: self.rng.next_below(2) as u8,
                };
                // The new entry enters the bank now; every later step only
                // moves residents around, and the drop path removes one.
                self.len += 1;
                let mut relocations = 0u32;
                loop {
                    let set = self.index(incoming.hash_fn, incoming.line);
                    let mut way = self.rng.next_below(self.geometry.ways() as u64) as usize;
                    // The chain must never evict the entry this insert is
                    // installing: reporting `line` as its own victim would
                    // hand the caller an invalidation for a copy that is
                    // only being filled in this same transaction, leaving
                    // the line cached but untracked. Kick a neighbouring
                    // way instead — same rng draw count, so runs that
                    // never hit this case are bit-identical.
                    if let Some((_, protected)) = self.find_in_set(set, line) {
                        if self.geometry.ways() == 1 {
                            // Nothing else in this set to kick: drop the
                            // chain's in-flight entry instead. It is a
                            // formerly resident line, never `line` itself
                            // (on the first step `line` is not placed yet).
                            self.len -= 1;
                            return VdInsert {
                                relocations,
                                displaced: Some(incoming.line),
                            };
                        }
                        if way == protected {
                            way = (way + 1) % self.geometry.ways();
                        }
                    }
                    let displaced = self.replace(set, way, incoming);
                    relocations += 1;
                    let alt = 1 - displaced.hash_fn;
                    let alt_set = self.index(alt, displaced.line);
                    if let Some(free) = self.free_way(alt_set) {
                        // Direct slot write: the chain's entry was already
                        // counted in `len` when it entered the bank.
                        self.valid[alt_set] |= 1 << free;
                        let idx = alt_set * self.geometry.ways() + free;
                        self.tags[idx] = displaced.line;
                        self.hash_fns[idx] = alt;
                        return VdInsert {
                            relocations,
                            displaced: None,
                        };
                    }
                    if relocations >= num_relocations {
                        // Budget exhausted: the displaced entry leaves the
                        // directory for good (self-conflict, transition ⑤).
                        self.len -= 1;
                        return VdInsert {
                            relocations,
                            displaced: Some(displaced.line),
                        };
                    }
                    incoming = VdSlot {
                        line: displaced.line,
                        hash_fn: alt,
                    };
                }
            }
        }
    }

    /// Removes the entry for `line`; returns whether it was present.
    pub fn remove(&mut self, line: LineAddr) -> bool {
        self.remove_at(self.candidate_sets(line), line)
    }

    /// [`VdBank::remove`] for a line whose candidate sets are already
    /// known; `sets` must be `line`'s.
    pub(crate) fn remove_at(&mut self, sets: VdSets, line: LineAddr) -> bool {
        if let Some((set, way)) = self.find_at(sets, line) {
            self.valid[set] &= !(1 << way);
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Deep-validates the bank's storage invariants:
    ///
    /// * every occupancy bit lies within the geometry's way mask (the mask
    ///   doubles as the Empty-Bit array, so stray bits would defeat the EB
    ///   filter),
    /// * every resident entry sits in the set its recorded hash function
    ///   (the Cuckoo bit) maps it to — the property the relocation chain
    ///   relies on to find an entry's alternative home,
    /// * no line is resident twice across its candidate sets, and
    /// * `len` equals the total occupancy popcount.
    ///
    /// Cold diagnostic path (the `secdir-machine` `check`-feature oracle
    /// and tests), allocating only on failure.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_storage(&self) -> Result<(), String> {
        let ways = self.geometry.ways();
        let mut total = 0usize;
        for set in 0..self.geometry.sets() {
            let mask = self.valid[set];
            if mask & !self.row_mask() != 0 {
                return Err(format!(
                    "set {set}: occupancy mask {mask:#x} has bits beyond {ways} ways"
                ));
            }
            total += mask.count_ones() as usize;
            let mut m = mask;
            while m != 0 {
                let way = m.trailing_zeros() as usize;
                m &= m - 1;
                let idx = set * ways + way;
                let line = self.tags[idx];
                let hash_fn = self.hash_fns[idx];
                let sets = self.candidate_sets(line);
                let sets = sets.as_slice();
                let Some(&home) = sets.get(usize::from(hash_fn)) else {
                    return Err(format!(
                        "set {set} way {way}: entry {line} recorded under inactive hash fn {hash_fn}"
                    ));
                };
                if home != set {
                    return Err(format!(
                        "set {set} way {way}: entry {line} under hash fn {hash_fn} belongs in set {home}"
                    ));
                }
                // Count residencies over the line's *distinct* candidate
                // sets (h0 and h1 may collide on the same set).
                let mut residencies = 0usize;
                for (i, &s) in sets.iter().enumerate() {
                    if sets[..i].contains(&s) {
                        continue;
                    }
                    residencies += (0..ways)
                        .filter(|&w| {
                            self.valid[s] & (1 << w) != 0 && self.tags[s * ways + w] == line
                        })
                        .count();
                }
                if residencies > 1 {
                    return Err(format!(
                        "entry {line} is resident more than once across its candidate sets"
                    ));
                }
            }
        }
        if total != self.len {
            return Err(format!(
                "len {} disagrees with occupancy popcount {total}",
                self.len
            ));
        }
        Ok(())
    }

    /// Iterates over all resident lines (test/diagnostic use).
    pub fn iter(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.valid.iter().enumerate().flat_map(move |(set, &mask)| {
            let ways = self.geometry.ways();
            (0..ways)
                .filter(move |w| mask & (1 << w) != 0)
                .map(move |w| self.tags[set * ways + w])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cuckoo(sets: usize, ways: usize) -> VdBank {
        VdBank::new(
            Geometry::new(sets, ways),
            VdHashing::Cuckoo { num_relocations: 8 },
            true,
            42,
        )
    }

    #[test]
    fn insert_and_lookup() {
        let mut b = cuckoo(16, 2);
        assert_eq!(b.insert(LineAddr::new(1)), VdInsert::default());
        assert!(b.contains(LineAddr::new(1)));
        assert!(!b.contains(LineAddr::new(2)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut b = cuckoo(16, 2);
        b.insert(LineAddr::new(1));
        b.insert(LineAddr::new(1));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn remove_works() {
        let mut b = cuckoo(16, 2);
        b.insert(LineAddr::new(1));
        assert!(b.remove(LineAddr::new(1)));
        assert!(!b.remove(LineAddr::new(1)));
        assert!(b.is_empty());
    }

    #[test]
    fn eb_filters_empty_sets_only() {
        let mut b = cuckoo(16, 2);
        let line = LineAddr::new(77);
        assert!(b.eb_filters_out(line), "empty bank filters everything");
        b.insert(line);
        assert!(!b.eb_filters_out(line), "occupied candidate set must probe");
    }

    #[test]
    fn eb_disabled_never_filters() {
        let b = VdBank::new(
            Geometry::new(16, 2),
            VdHashing::Cuckoo { num_relocations: 8 },
            false,
            0,
        );
        assert!(!b.eb_filters_out(LineAddr::new(1)));
    }

    #[test]
    fn cuckoo_achieves_high_occupancy_without_drops() {
        // A cuckoo structure should absorb well past per-set associativity.
        let mut b = cuckoo(64, 4); // capacity 256
        let mut dropped = 0;
        for i in 0..224u64 {
            // ~87% load
            if b.insert(LineAddr::new(i.wrapping_mul(0x9e37_79b9)))
                .displaced
                .is_some()
            {
                dropped += 1;
            }
        }
        assert!(dropped <= 4, "cuckoo dropped {dropped} of 224 at 87% load");
    }

    #[test]
    fn plain_bank_drops_on_set_conflict() {
        let mut b = VdBank::new(Geometry::new(4, 2), VdHashing::Plain, true, 0);
        // Find 3 lines in the same h0 set.
        let h = SkewHash::new(0, 4);
        let mut lines = Vec::new();
        let mut i = 0u64;
        while lines.len() < 3 {
            let l = LineAddr::new(i);
            if h.index(l) == 0 {
                lines.push(l);
            }
            i += 1;
        }
        assert!(b.insert(lines[0]).displaced.is_none());
        assert!(b.insert(lines[1]).displaced.is_none());
        let r = b.insert(lines[2]);
        assert!(
            r.displaced.is_some(),
            "plain bank must displace on conflict"
        );
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn cuckoo_beats_plain_on_conflicting_streams() {
        // The Table-6 CKVD/NoCKVD comparison in miniature: same stream,
        // cuckoo vs plain, count drops.
        let stream: Vec<LineAddr> = (0..96u64)
            .map(|i| LineAddr::new(i.wrapping_mul(0x100) + 3))
            .collect();
        let mut drops = [0usize; 2];
        for (j, hashing) in [VdHashing::Cuckoo { num_relocations: 8 }, VdHashing::Plain]
            .into_iter()
            .enumerate()
        {
            let mut b = VdBank::new(Geometry::new(32, 4), hashing, true, 1);
            for &l in &stream {
                if b.insert(l).displaced.is_some() {
                    drops[j] += 1;
                }
            }
        }
        assert!(
            drops[0] < drops[1],
            "cuckoo ({}) should drop fewer than plain ({})",
            drops[0],
            drops[1]
        );
    }

    #[test]
    fn displaced_entry_is_no_longer_resident() {
        let mut b = VdBank::new(
            Geometry::new(2, 1),
            VdHashing::Cuckoo { num_relocations: 2 },
            true,
            3,
        );
        let mut resident = Vec::new();
        for i in 0..32u64 {
            let line = LineAddr::new(i.wrapping_mul(0xabcd));
            let r = b.insert(line);
            resident.push(line);
            if let Some(d) = r.displaced {
                resident.retain(|&l| l != d);
                assert!(!b.contains(d), "displaced line still resident");
            }
        }
        for &l in &resident {
            assert!(b.contains(l), "resident line {l} lost without a report");
        }
        assert_eq!(b.len(), resident.len());
    }

    #[test]
    fn relocations_counted() {
        let mut b = VdBank::new(
            Geometry::new(2, 1),
            VdHashing::Cuckoo { num_relocations: 4 },
            true,
            9,
        );
        let mut max_reloc = 0;
        for i in 0..64u64 {
            let r = b.insert(LineAddr::new(i.wrapping_mul(0x55) + 1));
            max_reloc = max_reloc.max(r.relocations);
            assert!(r.relocations <= 4);
        }
        assert!(max_reloc > 0, "tiny bank must relocate at some point");
    }

    #[test]
    fn len_matches_iter_count() {
        let mut b = cuckoo(16, 2);
        for i in 0..20u64 {
            b.insert(LineAddr::new(i * 31));
        }
        assert_eq!(b.iter().count(), b.len());
    }
}
