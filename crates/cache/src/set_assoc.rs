//! The generic set-associative array.

use secdir_mem::LineAddr;
use serde::{Deserialize, Serialize};

use crate::replacement::ReplacerState;
use crate::{Geometry, ReplacementPolicy};

/// An entry displaced by [`SetAssoc::insert`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evicted<T> {
    /// The line whose entry was displaced.
    pub line: LineAddr,
    /// The displaced payload (cache state, directory entry, ...).
    pub payload: T,
}

/// A handle to an occupied way, returned by [`SetAssoc::lookup`] /
/// [`SetAssoc::lookup_touch`].
///
/// The single-probe API contract: one lookup locates the entry, then any
/// number of O(1) accesses ([`SetAssoc::payload`],
/// [`SetAssoc::payload_mut`], [`SetAssoc::take`]) go through the handle —
/// no second tag scan. A `WayRef` is only meaningful on the array that
/// produced it, and is invalidated by any subsequent `insert`/`remove`/
/// `take` on that array (the way may then hold a different line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WayRef {
    set: usize,
    way: usize,
}

/// Tag stored in unoccupied ways; never a real line address.
const TAG_INVALID: u64 = u64::MAX;

/// A set-associative array mapping [`LineAddr`]s to payloads of type `T`.
///
/// This one structure backs the L1/L2 data caches, the LLC slices, and the
/// TD/ED directory arrays; only the payload type and [`Geometry`] differ.
/// Indexing uses the conventional low-order line-address bits
/// (paper Figure 4(a)); the skewed/cuckoo indexing of a VD bank lives in the
/// `secdir` crate.
///
/// Storage is flat and contiguous: one tag array and one payload array,
/// both indexed by `set * ways + way`, plus a per-set `u64` valid bitmask
/// (so ways ≤ 64, asserted by [`Geometry::new`]). Invalid ways keep the
/// sentinel tag `u64::MAX` (no real line address — reserved, debug-asserted
/// in [`SetAssoc::insert`]), so a `find` is a straight compare over one
/// contiguous tag row with no mask consultation and no early exit — a
/// branch-light, vectorizable loop. This is the simulator's hottest code.
///
/// # Examples
///
/// ```
/// use secdir_cache::{Geometry, ReplacementPolicy, SetAssoc};
/// use secdir_mem::LineAddr;
///
/// let mut dir: SetAssoc<&str> = SetAssoc::new(
///     Geometry::new(2, 1),
///     ReplacementPolicy::Lru,
///     0,
/// );
/// dir.insert(LineAddr::new(0), "a");
/// // Same set (low bit 0), single way: inserting evicts "a".
/// let ev = dir.insert(LineAddr::new(2), "b").expect("conflict");
/// assert_eq!(ev.payload, "a");
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SetAssoc<T> {
    geometry: Geometry,
    /// Tag of each way, `set * ways + way`; [`TAG_INVALID`] where `valid`
    /// is clear.
    tags: Vec<LineAddr>,
    /// Payload of each way, same indexing; `T::default()` where invalid.
    payloads: Vec<T>,
    /// Per-set occupancy bitmask (bit `way` set ⇔ the way holds an entry).
    valid: Vec<u64>,
    replacer: ReplacerState,
    len: usize,
}

impl<T: Default> SetAssoc<T> {
    /// Creates an empty array with the given shape and replacement policy.
    /// `seed` feeds the random replacement policy (ignored by LRU/NRU).
    pub fn new(geometry: Geometry, policy: ReplacementPolicy, seed: u64) -> Self {
        let lines = geometry.lines();
        SetAssoc {
            geometry,
            tags: vec![LineAddr::new(TAG_INVALID); lines],
            payloads: (0..lines).map(|_| T::default()).collect(),
            valid: vec![0; geometry.sets()],
            replacer: ReplacerState::new(policy, geometry.sets(), geometry.ways(), seed),
            len: 0,
        }
    }

    /// Removes the entry at `way_ref` (from a prior lookup), returning its
    /// payload — the second half of a single-probe remove.
    #[inline]
    pub fn take(&mut self, way_ref: WayRef) -> T {
        let WayRef { set, way } = way_ref;
        debug_assert!(self.way_occupied(way_ref), "stale WayRef");
        self.valid[set] &= !(1 << way);
        self.tags[set * self.geometry.ways() + way] = LineAddr::new(TAG_INVALID);
        self.replacer.clear(set, way);
        self.len -= 1;
        std::mem::take(&mut self.payloads[set * self.geometry.ways() + way])
    }

    /// Removes the entry for `line`, returning its payload.
    #[inline]
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        self.lookup(line).map(|r| self.take(r))
    }
}

impl<T> SetAssoc<T> {
    /// The array's geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The set index `line` maps to.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> usize {
        line.set_index(self.geometry.sets())
    }

    /// All-ways mask for one set.
    #[inline]
    fn row_mask(&self) -> u64 {
        let ways = self.geometry.ways();
        if ways == 64 {
            u64::MAX
        } else {
            (1 << ways) - 1
        }
    }

    /// Scans the tag row of `line`'s set for a match. The whole row is
    /// compared without early exit, accumulating match bits: tags are
    /// unique within a set and unoccupied ways hold [`TAG_INVALID`], so
    /// the exhaustive loop gives the same answer as a masked scan while
    /// compiling to a straight-line (vectorizable) compare-and-or
    /// reduction.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let set = self.set_of(line);
        let base = set * self.geometry.ways();
        let row = &self.tags[base..base + self.geometry.ways()];
        let mut hits = 0u64;
        for (way, &tag) in row.iter().enumerate() {
            hits |= u64::from(tag == line) << way;
        }
        if hits == 0 {
            None
        } else {
            Some(hits.trailing_zeros() as usize)
        }
    }

    /// Hints the host CPU to pull the rows a future probe of `line` will
    /// touch (tag row and replacement state) into its cache. Purely a
    /// performance hint: no architectural effect, no replacement update.
    ///
    /// The engine calls this as soon as a core's next access is known —
    /// typically many simulated accesses before the probe — so the host
    /// cache misses on these randomly indexed arrays overlap with the
    /// other cores' simulation work.
    #[inline]
    pub fn prefetch(&self, line: LineAddr) {
        let set = self.set_of(line);
        let ways = self.geometry.ways();
        let base = set * ways;
        crate::prefetch::prefetch_read(&self.tags[base]);
        if ways > 8 {
            // A row of more than 8 tags spans a second 64-byte line.
            crate::prefetch::prefetch_read(&self.tags[base + 8]);
        }
        self.replacer.prefetch(set);
    }

    /// Locates `line` without touching replacement state. Pair with
    /// [`SetAssoc::payload`] / [`SetAssoc::payload_mut`] /
    /// [`SetAssoc::take`] for single-probe read/modify/remove.
    #[inline]
    pub fn lookup(&self, line: LineAddr) -> Option<WayRef> {
        let set = self.set_of(line);
        self.find(line).map(|way| WayRef { set, way })
    }

    /// Locates `line` as an architectural access: on a hit, updates the
    /// replacement state. The single-probe counterpart of
    /// [`SetAssoc::access`].
    #[inline]
    pub fn lookup_touch(&mut self, line: LineAddr) -> Option<WayRef> {
        let r = self.lookup(line)?;
        self.replacer.touch(r.set, r.way);
        Some(r)
    }

    /// Updates replacement state for the entry at `way_ref`, as an
    /// architectural access would — for callers that decide only after a
    /// plain [`SetAssoc::lookup`] that the access is architectural.
    #[inline]
    pub fn touch(&mut self, way_ref: WayRef) {
        debug_assert!(self.way_occupied(way_ref), "stale WayRef");
        self.replacer.touch(way_ref.set, way_ref.way);
    }

    /// The payload at `way_ref` (from a prior lookup on this array).
    #[inline]
    pub fn payload(&self, way_ref: WayRef) -> &T {
        debug_assert!(self.way_occupied(way_ref), "stale WayRef");
        &self.payloads[way_ref.set * self.geometry.ways() + way_ref.way]
    }

    /// Mutable payload at `way_ref` (from a prior lookup on this array).
    #[inline]
    pub fn payload_mut(&mut self, way_ref: WayRef) -> &mut T {
        debug_assert!(self.way_occupied(way_ref), "stale WayRef");
        &mut self.payloads[way_ref.set * self.geometry.ways() + way_ref.way]
    }

    /// Named invariant behind the `WayRef` debug asserts: a handle is only
    /// valid while the way it points at still holds an entry. Shared by the
    /// hot-path `debug_assert!`s and the `secdir-machine` `check`-feature
    /// oracle.
    #[inline]
    pub fn way_occupied(&self, way_ref: WayRef) -> bool {
        self.valid[way_ref.set] & (1 << way_ref.way) != 0
    }

    /// Deep-validates the flat-storage invariants this array relies on:
    ///
    /// * every `valid` bit lies within the geometry's way mask,
    /// * bit `way` of `valid[set]` is set **iff** the tag slot holds a real
    ///   line address (unoccupied ways keep the `TAG_INVALID` sentinel —
    ///   the agreement that lets `SetAssoc::find` skip the mask),
    /// * tags are unique within each set, and
    /// * `len` equals the total occupancy popcount.
    ///
    /// Cold diagnostic path (periodic oracle walks and tests), allocating
    /// only on failure.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_storage(&self) -> Result<(), String> {
        let ways = self.geometry.ways();
        // `LineAddr::new` masks to its 40 address bits, so the sentinel as
        // stored is the masked form of [`TAG_INVALID`].
        let sentinel = LineAddr::new(TAG_INVALID);
        let mut total = 0usize;
        for set in 0..self.geometry.sets() {
            let mask = self.valid[set];
            if mask & !self.row_mask() != 0 {
                return Err(format!(
                    "set {set}: valid mask {mask:#x} has bits beyond {ways} ways"
                ));
            }
            total += mask.count_ones() as usize;
            for way in 0..ways {
                let tag = self.tags[set * ways + way];
                let occupied = mask & (1 << way) != 0;
                if occupied && tag == sentinel {
                    return Err(format!(
                        "set {set} way {way}: occupied but tag is the invalid sentinel"
                    ));
                }
                if !occupied && tag != sentinel {
                    return Err(format!(
                        "set {set} way {way}: unoccupied but tag {tag} is not the sentinel"
                    ));
                }
                if occupied && self.set_of(tag) != set {
                    return Err(format!(
                        "set {set} way {way}: tag {tag} indexes set {}",
                        self.set_of(tag)
                    ));
                }
            }
            for way in 0..ways {
                for other in way + 1..ways {
                    if mask & (1 << way) != 0
                        && mask & (1 << other) != 0
                        && self.tags[set * ways + way] == self.tags[set * ways + other]
                    {
                        return Err(format!(
                            "set {set}: duplicate tag {} in ways {way} and {other}",
                            self.tags[set * ways + way]
                        ));
                    }
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

    /// Whether an entry for `line` is present.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// The payload for `line`, if present. Does **not** update replacement
    /// state; use [`SetAssoc::access`] on the architectural access path.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<&T> {
        self.lookup(line).map(|r| self.payload(r))
    }

    /// Mutable payload for `line`, if present. Does not update replacement
    /// state.
    #[inline]
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        let r = self.lookup(line)?;
        Some(self.payload_mut(r))
    }

    /// Looks up `line` as an architectural access: on a hit, updates the
    /// replacement state and returns the payload.
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> Option<&mut T> {
        let r = self.lookup_touch(line)?;
        Some(self.payload_mut(r))
    }

    /// Inserts an entry for `line`, touching replacement state.
    ///
    /// One pass over the set's tag row resolves all three cases:
    ///
    /// * If `line` is already present, its payload is replaced and `None` is
    ///   returned (no eviction).
    /// * If the set has a free way, the entry takes the lowest one; returns
    ///   `None`.
    /// * Otherwise the replacement policy picks a victim, which is returned
    ///   as an [`Evicted`] for the caller to handle (write back, migrate to
    ///   another directory structure, invalidate, ...).
    #[inline]
    pub fn insert(&mut self, line: LineAddr, payload: T) -> Option<Evicted<T>> {
        debug_assert!(
            line.value() != TAG_INVALID,
            "LineAddr {TAG_INVALID:#x} is reserved as the invalid-tag sentinel"
        );
        let set = self.set_of(line);
        let ways = self.geometry.ways();
        let base = set * ways;
        if let Some(way) = self.find(line) {
            self.replacer.touch(set, way);
            self.payloads[base + way] = payload;
            return None;
        }
        let free = !self.valid[set] & self.row_mask();
        if free != 0 {
            let way = free.trailing_zeros() as usize;
            self.replacer.touch(set, way);
            self.tags[base + way] = line;
            self.payloads[base + way] = payload;
            self.valid[set] |= 1 << way;
            self.len += 1;
            return None;
        }
        let way = self.replacer.victim(set);
        self.replacer.touch(set, way);
        let old_line = std::mem::replace(&mut self.tags[base + way], line);
        let old_payload = std::mem::replace(&mut self.payloads[base + way], payload);
        Some(Evicted {
            line: old_line,
            payload: old_payload,
        })
    }

    /// Inserts an entry for a `line` the caller knows is absent (verified
    /// by a preceding miss), skipping [`SetAssoc::insert`]'s match scan.
    /// This is the fill path: every fill follows a lookup that missed, so
    /// re-scanning the tag row for a match is pure overhead.
    #[inline]
    pub fn insert_new(&mut self, line: LineAddr, payload: T) -> Option<Evicted<T>> {
        debug_assert!(
            line.value() != TAG_INVALID,
            "LineAddr {TAG_INVALID:#x} is reserved as the invalid-tag sentinel"
        );
        debug_assert!(
            self.find(line).is_none(),
            "insert_new of a line already present"
        );
        let set = self.set_of(line);
        let ways = self.geometry.ways();
        let base = set * ways;
        let free = !self.valid[set] & self.row_mask();
        if free != 0 {
            let way = free.trailing_zeros() as usize;
            self.replacer.touch(set, way);
            self.tags[base + way] = line;
            self.payloads[base + way] = payload;
            self.valid[set] |= 1 << way;
            self.len += 1;
            return None;
        }
        let way = self.replacer.victim(set);
        self.replacer.touch(set, way);
        let old_line = std::mem::replace(&mut self.tags[base + way], line);
        let old_payload = std::mem::replace(&mut self.payloads[base + way], payload);
        Some(Evicted {
            line: old_line,
            payload: old_payload,
        })
    }

    /// Number of occupied ways in `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn set_occupancy(&self, set: usize) -> usize {
        self.valid[set].count_ones() as usize
    }

    /// Iterates over the occupied `(line, payload)` entries of `set`.
    pub fn iter_set(&self, set: usize) -> impl Iterator<Item = (LineAddr, &T)> {
        let base = set * self.geometry.ways();
        let mask = self.valid[set];
        (0..self.geometry.ways())
            .filter(move |way| mask & (1 << way) != 0)
            .map(move |way| (self.tags[base + way], &self.payloads[base + way]))
    }

    /// Iterates over every occupied `(line, payload)` entry.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        (0..self.geometry.sets()).flat_map(move |set| self.iter_set(set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssoc<u32> {
        SetAssoc::new(Geometry::new(4, 2), ReplacementPolicy::Lru, 0)
    }

    #[test]
    fn insert_then_get() {
        let mut c = small();
        assert!(c.insert(LineAddr::new(5), 50).is_none());
        assert_eq!(c.get(LineAddr::new(5)), Some(&50));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_replaces_payload_without_eviction() {
        let mut c = small();
        c.insert(LineAddr::new(5), 50);
        assert!(c.insert(LineAddr::new(5), 51).is_none());
        assert_eq!(c.get(LineAddr::new(5)), Some(&51));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn conflict_evicts_lru_way() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(4), 4);
        c.access(LineAddr::new(0)); // make line 4 the LRU
        let ev = c.insert(LineAddr::new(8), 8).expect("set full");
        assert_eq!(ev.line, LineAddr::new(4));
        assert_eq!(ev.payload, 4);
        assert!(c.contains(LineAddr::new(0)));
        assert!(c.contains(LineAddr::new(8)));
    }

    #[test]
    fn remove_frees_the_way() {
        let mut c = small();
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(4), 4);
        assert_eq!(c.remove(LineAddr::new(0)), Some(0));
        assert!(!c.contains(LineAddr::new(0)));
        assert!(c.insert(LineAddr::new(8), 8).is_none(), "freed way reused");
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut c = small();
        assert_eq!(c.remove(LineAddr::new(1)), None);
    }

    #[test]
    fn occupancy_never_exceeds_ways() {
        let mut c = small();
        for i in 0..100u64 {
            c.insert(LineAddr::new(i * 4), i as u32); // all in set 0
            assert!(c.set_occupancy(0) <= 2);
        }
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn iter_set_sees_only_that_set() {
        let mut c = small();
        c.insert(LineAddr::new(0), 0); // set 0
        c.insert(LineAddr::new(1), 1); // set 1
        let set0: Vec<_> = c.iter_set(0).collect();
        assert_eq!(set0, vec![(LineAddr::new(0), &0)]);
    }

    #[test]
    fn iter_sees_everything() {
        let mut c = small();
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(1), 1);
        c.insert(LineAddr::new(2), 2);
        assert_eq!(c.iter().count(), 3);
    }

    #[test]
    fn get_does_not_perturb_lru() {
        let mut c = small();
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(4), 4);
        // Plain get must not refresh line 0; line 0 stays LRU.
        c.get(LineAddr::new(0));
        let ev = c.insert(LineAddr::new(8), 8).expect("set full");
        assert_eq!(ev.line, LineAddr::new(0));
    }

    #[test]
    fn random_replacement_stays_within_set() {
        let mut c: SetAssoc<u32> = SetAssoc::new(Geometry::new(2, 2), ReplacementPolicy::Random, 7);
        c.insert(LineAddr::new(1), 1); // set 1
        for i in 0..50u64 {
            c.insert(LineAddr::new(i * 2), i as u32); // set 0 only
        }
        assert!(c.contains(LineAddr::new(1)), "set 1 must be untouched");
    }

    #[test]
    fn lookup_then_payload_roundtrips() {
        let mut c = small();
        c.insert(LineAddr::new(5), 50);
        let r = c.lookup(LineAddr::new(5)).expect("present");
        assert_eq!(*c.payload(r), 50);
        *c.payload_mut(r) = 51;
        assert_eq!(c.get(LineAddr::new(5)), Some(&51));
        assert!(c.lookup(LineAddr::new(9)).is_none());
    }

    #[test]
    fn lookup_does_not_perturb_lru_but_lookup_touch_does() {
        let mut c = small();
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(4), 4);
        c.lookup(LineAddr::new(0)); // no touch: line 0 stays LRU
        assert_eq!(
            c.insert(LineAddr::new(8), 8).unwrap().line,
            LineAddr::new(0)
        );

        let mut c = small();
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(4), 4);
        c.lookup_touch(LineAddr::new(0)); // touch: line 4 becomes LRU
        assert_eq!(
            c.insert(LineAddr::new(8), 8).unwrap().line,
            LineAddr::new(4)
        );
    }

    #[test]
    fn take_is_single_probe_remove() {
        let mut c = small();
        c.insert(LineAddr::new(0), 7);
        c.insert(LineAddr::new(4), 8);
        let r = c.lookup(LineAddr::new(0)).expect("present");
        assert_eq!(c.take(r), 7);
        assert_eq!(c.len(), 1);
        assert!(!c.contains(LineAddr::new(0)));
        assert!(c.insert(LineAddr::new(8), 9).is_none(), "freed way reused");
    }

    #[test]
    fn valid_mask_tracks_occupancy() {
        let mut c = small();
        for i in 0..100u64 {
            c.insert(LineAddr::new(i % 16), i as u32);
            let counted: usize = (0..4).map(|s| c.set_occupancy(s)).sum();
            assert_eq!(counted, c.len());
            assert_eq!(c.iter().count(), c.len());
        }
        for i in 0..16u64 {
            c.remove(LineAddr::new(i));
        }
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
    }
}
