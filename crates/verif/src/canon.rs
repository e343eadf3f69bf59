//! Symmetry canonicalization of packed model states.
//!
//! The bounded model is fully symmetric under relabelings of cores and of
//! lines: every core has the same L2/VD capacity, every line is an
//! anonymous address, and (for way-partitioned) partition `c` belongs to
//! core `c`, so a joint relabeling carries reachable states to reachable
//! states and preserves every checked invariant. Exploring one
//! representative per orbit shrinks the reachable set by up to
//! `cores!·lines!`.
//!
//! **The partition field is only semantic under way-partitioning.** Every
//! other organization stores a constant 0 as the owning partition, so the
//! correct symmetry action relabels partitions with the cores *only* for
//! `DirKind::WayPartitioned` and leaves them fixed otherwise — relabeling
//! a dummy 0 to a nonzero index manufactures states the model never
//! produces and the canonical form stops being constant on orbits (the
//! orbit count then *exceeds* the raw count instead of dividing it). The
//! `permute_parts` flag on [`CanonTable::new`] and
//! [`PermPair::apply_state`] selects the action.
//!
//! **Canonical form.** For each permutation of the *used* cores, relabel
//! the cores in the four 32-bit line words ([`crate::pack::line_word`]) and sort
//! the words descending with a stable tie-break on the original line
//! index; the candidate is the sorted words assembled high-to-low. The
//! canonical form is the numerically greatest candidate over all core
//! permutations, the first one tried winning ties. Because line
//! permutation moves whole equal-width blocks, the descending block sort
//! *is* the optimal line permutation for a fixed core relabeling — the
//! search is `cores!` candidates, not `cores!·lines!`.
//!
//! **Word-level relabeling.** A state is packed once, into its four
//! identity line words; each core permutation then acts on those words
//! through a precomputed `Relabel` — lookup tables for the two 6-bit
//! halves of the MOESI field (cores 0–1 and cores 2–3), the 4-bit VD
//! mask, and the 7-bit ED/TD entry field (present bit, partition, sharer
//! mask; ED and TD share one layout, so they share one table). The entry
//! table moves the partition with the cores only when `permute_parts` is
//! set *and* the entry's present bit is set: an absent entry stores
//! partition 0, which is not an owner, and relabeling it would put
//! nonzero bits in a word that means "no entry". The result is exactly
//! the word of the relabeled state, bit for bit, so the canonical form
//! and the winning relabeling are the same as packing the relabeled
//! struct once per permutation would give. Each candidate's sort is a
//! five-comparator network over the keys `(word << 2) | (3 − line)`:
//! the keys are distinct, so the network's order is the stable
//! descending order, and the low two bits recover the line relabeling of
//! the winner.
//!
//! Descending order (with the stable tie-break) also keeps active lines in
//! the low indices: an unused line's word is always 0, so it can never
//! displace a used line into the tail, and the chosen line permutation
//! maps used lines to used lines — canonical states stay inside the
//! model's `0..lines` geometry.
//!
//! **Soundness with deterministic forwarding.** The one non-equivariant
//! choice in the production step relation is the forwarding owner
//! (`forwarding_sharer` picks the lowest-numbered sharer). On any state
//! satisfying the checked invariants this choice is semantically
//! invisible: a multi-sharer set is all Shared/Owned, whose
//! `after_remote_read` downgrade is the identity, and an Exclusive/
//! Modified holder (where the downgrade does act) is a singleton set,
//! which every relabeling maps to a singleton. The checker only expands
//! states it has already verified clean, so successor sets of expanded
//! states are equivariant and orbit-exploration is exact — including on
//! faulted models, where the first violating state is reported, not
//! expanded.

use crate::model::{Label, ModelState, MAX_CORES, MAX_LINES};
use crate::pack::{assemble, line_words};

/// A joint core/line relabeling: `core[c]` is the new index of old core
/// `c`, `line[l]` the new index of old line `l`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PermPair {
    /// Core relabeling.
    pub core: [u8; MAX_CORES],
    /// Line relabeling.
    pub line: [u8; MAX_LINES],
}

/// The identity relabeling.
pub const IDENTITY: PermPair = PermPair {
    core: [0, 1, 2, 3],
    line: [0, 1, 2, 3],
};

impl PermPair {
    /// The inverse relabeling.
    pub fn inverse(&self) -> PermPair {
        let mut inv = IDENTITY;
        for (i, &img) in self.core.iter().enumerate() {
            inv.core[img as usize] = i as u8;
        }
        for (i, &img) in self.line.iter().enumerate() {
            inv.line[img as usize] = i as u8;
        }
        inv
    }

    /// `self ∘ other`: applies `other` first, then `self`.
    pub fn compose(&self, other: &PermPair) -> PermPair {
        let mut out = IDENTITY;
        for i in 0..MAX_CORES {
            out.core[i] = self.core[other.core[i] as usize];
        }
        for i in 0..MAX_LINES {
            out.line[i] = self.line[other.line[i] as usize];
        }
        out
    }

    /// Relabels a transition label.
    pub fn apply_label(&self, label: Label) -> Label {
        let map = |core: usize, line: usize| (self.core[core] as usize, self.line[line] as usize);
        match label {
            Label::Read { core, line } => {
                let (core, line) = map(core, line);
                Label::Read { core, line }
            }
            Label::Write { core, line } => {
                let (core, line) = map(core, line);
                Label::Write { core, line }
            }
            Label::SilentUpgrade { core, line } => {
                let (core, line) = map(core, line);
                Label::SilentUpgrade { core, line }
            }
            Label::Evict { core, line } => {
                let (core, line) = map(core, line);
                Label::Evict { core, line }
            }
        }
    }

    /// Relabels a whole state (the struct-level mirror of what
    /// [`CanonTable::canonicalize`] does on packed words); used by trace
    /// rebuilds and, as the reference action, by the property tests.
    /// `permute_parts` selects the action on directory partition fields:
    /// relabel with the cores for the way-partitioned organization, fix
    /// the dummy 0 otherwise (see module docs).
    pub fn apply_state(&self, s: &ModelState, permute_parts: bool) -> ModelState {
        let part_of = |part: u8| {
            if permute_parts {
                self.core[part as usize]
            } else {
                part
            }
        };
        let mut t = ModelState::initial();
        for core in 0..MAX_CORES {
            for line in 0..MAX_LINES {
                t.caches[self.core[core] as usize][self.line[line] as usize] = s.caches[core][line];
            }
        }
        for line in 0..MAX_LINES {
            let nl = self.line[line] as usize;
            t.ed[nl] = s.ed[line].map(|(part, mut e)| {
                e.sharers = permute_set(e.sharers, &self.core);
                (part_of(part), e)
            });
            t.td[nl] = s.td[line].map(|(part, mut e)| {
                e.sharers = permute_set(e.sharers, &self.core);
                (part_of(part), e)
            });
            t.vd[nl] = permute_set(s.vd[line], &self.core);
        }
        t
    }

    /// Packs the pair into a compact index (base-24 digits of the two
    /// Lehmer codes) for the parent-pointer array.
    pub fn index(&self) -> u16 {
        u16::from(perm_index(&self.core)) * FACT4 + u16::from(perm_index(&self.line))
    }

    /// Inverse of [`PermPair::index`].
    pub fn from_index(idx: u16) -> PermPair {
        PermPair {
            core: perm_from_index((idx / FACT4) as u8),
            line: perm_from_index((idx % FACT4) as u8),
        }
    }
}

/// `4!` — the number of permutations of a 4-element index set.
const FACT4: u16 = 24;

/// Applies a core relabeling to a 4-bit presence mask.
#[inline]
fn permute_mask(mask: u32, cp: &[u8; MAX_CORES]) -> u32 {
    let mut out = 0u32;
    for (c, &image) in cp.iter().enumerate() {
        out |= ((mask >> c) & 1) << image;
    }
    out
}

/// Relabels a sharer set through a core permutation.
pub fn permute_set(
    set: secdir_coherence::SharerSet,
    cp: &[u8; MAX_CORES],
) -> secdir_coherence::SharerSet {
    let mask = (set.bits() & 0xf) as u32;
    let permuted = permute_mask(mask, cp);
    let mut out = secdir_coherence::SharerSet::empty();
    for c in 0..MAX_CORES {
        if permuted & (1 << c) != 0 {
            out.insert(secdir_mem::CoreId(c));
        }
    }
    out
}

/// Lehmer (factorial-base) rank of a permutation of `[0, 4)`, in `0..24`.
fn perm_index(p: &[u8; 4]) -> u8 {
    let mut idx = 0u8;
    for i in 0..4 {
        let rank = (i + 1..4).filter(|&j| p[j] < p[i]).count() as u8;
        idx = idx * (4 - i as u8) + rank;
    }
    idx
}

/// Inverse of [`perm_index`].
fn perm_from_index(mut idx: u8) -> [u8; 4] {
    let mut digits = [0u8; 4];
    for i in (0..4).rev() {
        let base = (4 - i) as u8;
        digits[i] = idx % base;
        idx /= base;
    }
    let mut pool = [0u8, 1, 2, 3];
    let mut len = 4usize;
    let mut out = [0u8; 4];
    for i in 0..4 {
        let d = digits[i] as usize;
        out[i] = pool[d];
        for j in d..len - 1 {
            pool[j] = pool[j + 1];
        }
        len -= 1;
    }
    out
}

/// The action of one core permutation on packed line words, as lookup
/// tables over the word's fields (see module docs).
#[derive(Clone, Debug)]
struct Relabel {
    /// MOESI codes of cores 0–1 (word bits 0..6), placed in the 12-bit
    /// MOESI field.
    moesi_lo: [u16; 64],
    /// MOESI codes of cores 2–3 (word bits 6..12).
    moesi_hi: [u16; 64],
    /// A 4-bit core mask: the VD residency field.
    mask: [u8; 16],
    /// A 7-bit directory entry field (present, partition, sharer mask):
    /// the ED field at bit 16 and the TD field at bit 23.
    entry: [u8; 128],
}

impl Relabel {
    /// The tables of core permutation `cp`; `permute_parts` moves the
    /// partitions of present entries with the cores.
    fn new(cp: &[u8; MAX_CORES], permute_parts: bool) -> Self {
        // `v` holds the 3-bit codes of cores `2 * pair` and `2 * pair + 1`.
        let moesi = |pair: usize, v: usize| {
            (0..2).fold(0u16, |out, i| {
                let code = (v >> (3 * i)) as u16 & 0b111;
                out | code << (3 * cp[2 * pair + i])
            })
        };
        let entry = |e: usize| {
            let (present, part, sharers) = (e & 1, (e >> 1) & 0b11, (e >> 3) as u32);
            let part = if present == 1 && permute_parts {
                cp[part]
            } else {
                part as u8
            };
            present as u8 | part << 1 | (permute_mask(sharers, cp) as u8) << 3
        };
        Relabel {
            moesi_lo: std::array::from_fn(|v| moesi(0, v)),
            moesi_hi: std::array::from_fn(|v| moesi(1, v)),
            mask: std::array::from_fn(|m| permute_mask(m as u32, cp) as u8),
            entry: std::array::from_fn(entry),
        }
    }

    /// The line word `w` with its cores relabeled.
    #[inline]
    fn word(&self, w: u32) -> u32 {
        let field = |shift: u32, bits: u32| ((w >> shift) & ((1 << bits) - 1)) as usize;
        u32::from(self.moesi_lo[field(0, 6)])
            | u32::from(self.moesi_hi[field(6, 6)])
            | u32::from(self.mask[field(12, 4)]) << 12
            | u32::from(self.entry[field(16, 7)]) << 16
            | u32::from(self.entry[field(23, 7)]) << 23
            // `has_data` and `llc_dirty` name no core.
            | w & (0b11 << 30)
    }
}

/// Sorts four keys descending with a five-comparator network.
#[inline]
fn sort_desc(mut k: [u64; MAX_LINES]) -> [u64; MAX_LINES] {
    for (a, b) in [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)] {
        let (hi, lo) = (k[a].max(k[b]), k[a].min(k[b]));
        k[a] = hi;
        k[b] = lo;
    }
    k
}

/// Precomputed canonicalization context for a model geometry: every
/// permutation of the used cores (identity on the unused tail) and its
/// word-level relabeling tables.
#[derive(Clone, Debug)]
pub struct CanonTable {
    cores: usize,
    lines: usize,
    permute_parts: bool,
    core_perms: Vec<[u8; MAX_CORES]>,
    relabels: Vec<Relabel>,
    line_perms: Vec<[u8; MAX_LINES]>,
}

impl CanonTable {
    /// Builds the table for a `cores`-core, `lines`-line model.
    /// `permute_parts` must be true exactly for the way-partitioned
    /// organization (see module docs).
    ///
    /// # Panics
    ///
    /// Panics if the geometry exceeds the model bounds.
    pub fn new(cores: usize, lines: usize, permute_parts: bool) -> Self {
        assert!((1..=MAX_CORES).contains(&cores), "cores out of range");
        assert!((1..=MAX_LINES).contains(&lines), "lines out of range");
        let mut core_perms = Vec::new();
        let mut scratch: Vec<u8> = (0..cores as u8).collect();
        permutations(&mut scratch, 0, &mut |p| {
            let mut full = [0u8, 1, 2, 3];
            full[..cores].copy_from_slice(p);
            core_perms.push(full);
        });
        let relabels = core_perms
            .iter()
            .map(|cp| Relabel::new(cp, permute_parts))
            .collect();
        let mut line_perms = Vec::new();
        let mut scratch: Vec<u8> = (0..lines as u8).collect();
        permutations(&mut scratch, 0, &mut |p| {
            let mut full = [0u8, 1, 2, 3];
            full[..lines].copy_from_slice(p);
            line_perms.push(full);
        });
        CanonTable {
            cores,
            lines,
            permute_parts,
            core_perms,
            relabels,
            line_perms,
        }
    }

    /// Whether this table's action relabels partition fields.
    pub fn permute_parts(&self) -> bool {
        self.permute_parts
    }

    /// The order of the symmetry group this table reduces by
    /// (`cores!·lines!`).
    pub fn group_order(&self) -> usize {
        fn fact(n: usize) -> usize {
            (1..=n).product()
        }
        fact(self.cores) * fact(self.lines)
    }

    /// Canonicalizes `s`: returns the canonical packed form and the
    /// relabeling `g` with `pack(g(s)) == packed`. Deterministic: core
    /// permutations are tried in a fixed order and ties keep the first
    /// winner, so equal inputs always yield the identical pair.
    ///
    /// # Panics
    ///
    /// Panics if `s` has a field outside the model bounds (see
    /// [`line_word`](crate::pack::line_word)).
    pub fn canonicalize(&self, s: &ModelState) -> (u128, PermPair) {
        let words = line_words(s);
        let (mut best_packed, mut best_keys, mut best_perm) = (0u128, [0u64; MAX_LINES], 0);
        for (i, relabel) in self.relabels.iter().enumerate() {
            // Stable descending block sort = optimal line relabeling for
            // this core relabeling (see module docs).
            let keys = sort_desc(std::array::from_fn(|line| {
                u64::from(relabel.word(words[line])) << 2 | (3 - line) as u64
            }));
            let packed = assemble(keys.map(|k| (k >> 2) as u32));
            if i == 0 || packed > best_packed {
                (best_packed, best_keys, best_perm) = (packed, keys, i);
            }
        }
        let mut lp = [0u8; MAX_LINES];
        for (pos, &key) in best_keys.iter().enumerate() {
            lp[3 - (key & 3) as usize] = pos as u8;
        }
        debug_assert!(
            (0..self.lines).all(|l| (lp[l] as usize) < self.lines),
            "canonical line relabeling left the used-line range"
        );
        let pair = PermPair {
            core: self.core_perms[best_perm],
            line: lp,
        };
        (best_packed, pair)
    }

    /// The size of `s`'s orbit under the full group action: the number of
    /// distinct packed states over all `cores!·lines!` joint relabelings
    /// (`group_order / |stabilizer(s)|`).
    ///
    /// Because the step relation is equivariant on clean states, the raw
    /// reachable set is a disjoint union of full orbits, so summing this
    /// over the canonical representatives reproduces the **exact** raw
    /// reachable-state count without ever materializing it — this is how
    /// the checker bench reports the reduction factor at geometries whose
    /// raw exploration would not fit the CI budget.
    pub fn orbit_size(&self, s: &ModelState) -> usize {
        let words = line_words(s);
        let mut distinct: std::collections::HashSet<u128> =
            std::collections::HashSet::with_capacity(self.group_order());
        for relabel in &self.relabels {
            let relabeled = words.map(|w| relabel.word(w));
            for lp in &self.line_perms {
                // `lp[l]` is the new index of old line `l`; block `new`
                // of the permuted state is old line `inv(new)`'s word.
                let mut placed = [0u32; MAX_LINES];
                for (old, &new) in lp.iter().enumerate() {
                    placed[new as usize] = relabeled[old];
                }
                distinct.insert(assemble(placed));
            }
        }
        distinct.len()
    }
}

/// Heap's-algorithm enumeration of the permutations of `items`, in a
/// fixed deterministic order.
fn permutations(items: &mut [u8], k: usize, visit: &mut impl FnMut(&[u8])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permutations(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::pack;
    use secdir_coherence::Moesi;

    #[test]
    fn perm_index_roundtrips_all_24() {
        let mut seen = std::collections::HashSet::new();
        let mut scratch = [0u8, 1, 2, 3];
        let mut perms = Vec::new();
        permutations(&mut scratch, 0, &mut |p| {
            let mut a = [0u8; 4];
            a.copy_from_slice(p);
            perms.push(a);
        });
        for p in perms {
            let idx = perm_index(&p);
            assert!(seen.insert(idx), "duplicate index {idx}");
            assert_eq!(perm_from_index(idx), p);
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn pair_index_roundtrips() {
        let pair = PermPair {
            core: [2, 0, 3, 1],
            line: [1, 3, 0, 2],
        };
        assert_eq!(PermPair::from_index(pair.index()), pair);
        assert_eq!(PermPair::from_index(IDENTITY.index()), IDENTITY);
    }

    #[test]
    fn inverse_and_compose_agree() {
        let pair = PermPair {
            core: [2, 0, 3, 1],
            line: [1, 3, 0, 2],
        };
        assert_eq!(pair.compose(&pair.inverse()), IDENTITY);
        assert_eq!(pair.inverse().compose(&pair), IDENTITY);
    }

    #[test]
    fn relabel_matches_apply_state_on_every_word() {
        // Each core permutation's tables must give exactly the words of
        // the struct-relabeled state, for both partition actions.
        let mut s = ModelState::initial();
        s.caches[0][1] = Moesi::Exclusive;
        s.caches[3][2] = Moesi::Owned;
        s.caches[1][2] = Moesi::Shared;
        s.caches[2][3] = Moesi::Modified;
        s.vd[1] = secdir_coherence::SharerSet::single(secdir_mem::CoreId(0));
        let mut sharers = secdir_coherence::SharerSet::single(secdir_mem::CoreId(1));
        sharers.insert(secdir_mem::CoreId(3));
        s.ed[2] = Some((3, secdir_coherence::EdEntry { sharers }));
        s.td[3] = Some((
            2,
            secdir_coherence::TdEntry {
                sharers: secdir_coherence::SharerSet::single(secdir_mem::CoreId(2)),
                has_data: true,
                llc_dirty: true,
            },
        ));
        for permute_parts in [false, true] {
            let table = CanonTable::new(4, 4, permute_parts);
            for (cp, relabel) in table.core_perms.iter().zip(&table.relabels) {
                let g = PermPair {
                    core: *cp,
                    line: [0, 1, 2, 3],
                };
                let expected = line_words(&g.apply_state(&s, permute_parts));
                assert_eq!(line_words(&s).map(|w| relabel.word(w)), expected);
            }
        }
    }

    #[test]
    fn apply_state_matches_packed_canonical() {
        // canonicalize's packed value must equal pack(apply_state(s)).
        let table = CanonTable::new(3, 3, false);
        let mut s = ModelState::initial();
        s.caches[1][2] = Moesi::Modified;
        s.caches[0][0] = Moesi::Shared;
        s.vd[2] = secdir_coherence::SharerSet::single(secdir_mem::CoreId(1));
        let (packed, pair) = table.canonicalize(&s);
        assert_eq!(pack(&pair.apply_state(&s, false)), packed);
    }

    #[test]
    fn canonical_form_is_permutation_invariant() {
        let table = CanonTable::new(2, 3, false);
        let mut s = ModelState::initial();
        s.caches[0][1] = Moesi::Exclusive;
        s.caches[1][0] = Moesi::Shared;
        let swap = PermPair {
            core: [1, 0, 2, 3],
            line: [2, 1, 0, 3],
        };
        let t = swap.apply_state(&s, false);
        assert_eq!(table.canonicalize(&s).0, table.canonicalize(&t).0);
    }
}
