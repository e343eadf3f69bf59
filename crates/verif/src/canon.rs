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
//! the cores in the four 32-bit line words of the state
//! ([`ModelState`]'s own layout, see [`pack`](crate::pack)) and sort the
//! words descending with a stable tie-break on the original line
//! index; the candidate is the sorted words assembled high-to-low. The
//! canonical form is the numerically greatest candidate over all core
//! permutations, the first one tried winning ties. Because line
//! permutation moves whole equal-width blocks, the descending block sort
//! *is* the optimal line permutation for a fixed core relabeling — the
//! search is `cores!` candidates, not `cores!·lines!`.
//!
//! **Word-level relabeling, σ-major.** A state already is its four
//! identity line words; the core permutations act on those words
//! through precomputed field tables — the two 6-bit halves of the
//! MOESI field (cores 0–1 and cores 2–3), the 4-bit VD mask, and the
//! 7-bit ED and TD entry fields (present bit, partition, sharer mask).
//! The tables are *σ-major*: the row of a field value holds its image
//! under every one of the `cores!` permutations, one lane each, stored
//! as a `u32` already shifted to the field's place in the word (about
//! 38 KB at 24 lanes). Relabeling a word for all permutations is then
//! five row loads ORed together in one straight loop over the lanes,
//! which the compiler vectorises at the constant lane count. The entry
//! tables move the partition with the cores only when `permute_parts`
//! is set *and* the entry's present bit is set: an absent entry stores
//! partition 0, which is not an owner, and relabeling it would put
//! nonzero bits in a word that means "no entry". Each lane holds exactly
//! the word of the relabeled state, bit for bit, so the canonical form
//! and the winning relabeling are the same as relabeling the state field
//! by field ([`PermPair::apply_state`]) once per permutation would give.
//!
//! The five-comparator descending sort then runs on the relabeled words,
//! lane-parallel, and the greatest assembled candidate wins: the
//! greatest high half `(w0, w1)` over the lanes, then the greatest low
//! half `(w2, w3)` among the lanes that reach it. Equal words are
//! interchangeable in a candidate, so the lanes sort words alone.
//!
//! **The key path and the one-state path.** The checker needs only the
//! key of each successor. It relabels each frontier state's four words
//! once ([`CanonTable::lanes`]); a successor usually changes one or two
//! of those words, so [`CanonTable::key`] relabels only the words that
//! differ from the parent's and reuses the parent's lanes for the rest.
//! [`CanonTable::canonicalize`], the public one-state API, runs the same
//! relabel and pick and then recovers the winner: the first lane whose
//! candidate is the key (the first permutation wins ties), and its
//! *stable* line relabeling, by sorting the winner's words again on the
//! keys `(word << 2) | (3 − line)` — the keys are distinct, so the
//! network's order is the stable descending order, and the low two bits
//! name the original line. The checker calls it only to rebuild a
//! counterexample trace.
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

use secdir_coherence::SharerSet;
use secdir_mem::CoreId;

use crate::model::{Label, ModelState, MAX_CORES, MAX_LINES};
use crate::pack::{assemble, LINE_BITS};

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

    /// Relabels a whole state field by field, through the
    /// [`ModelState`] accessors and never the tables of
    /// [`CanonTable`]; used by trace rebuilds and, as the independent
    /// reference action, by the property tests.
    /// `permute_parts` selects the action on directory partition fields:
    /// relabel with the cores for the way-partitioned organization, fix
    /// the dummy 0 otherwise (see module docs).
    pub fn apply_state(&self, s: &ModelState, permute_parts: bool) -> ModelState {
        let part = |p: u8| {
            if permute_parts {
                self.core[usize::from(p)]
            } else {
                p
            }
        };
        let set = |sharers: SharerSet| permute_set(sharers, &self.core);
        let mut t = ModelState::initial();
        for line in 0..MAX_LINES {
            let nl = usize::from(self.line[line]);
            for core in 0..MAX_CORES {
                t.set_cache(usize::from(self.core[core]), nl, s.cache(core, line));
            }
            if let Some((p, mut e)) = s.ed(line) {
                e.sharers = set(e.sharers);
                t.set_ed(nl, Some((part(p), e)));
            }
            if let Some((p, mut e)) = s.td(line) {
                e.sharers = set(e.sharers);
                t.set_td(nl, Some((part(p), e)));
            }
            t.set_vd(nl, set(s.vd(line)));
        }
        t
    }

    /// Packs the pair into a compact index (base-24 digits of the two
    /// Lehmer codes), distinct for distinct pairs.
    pub fn index(&self) -> u16 {
        u16::from(perm_index(&self.core)) * FACT4 + u16::from(perm_index(&self.line))
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
pub fn permute_set(set: SharerSet, cp: &[u8; MAX_CORES]) -> SharerSet {
    set.iter().map(|c| CoreId(usize::from(cp[c.0]))).collect()
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

/// Sorts four keys descending with a five-comparator network.
#[inline]
fn sort_desc(mut k: [u64; MAX_LINES]) -> [u64; MAX_LINES] {
    for (a, b) in SORT_NETWORK {
        let (hi, lo) = (k[a].max(k[b]), k[a].min(k[b]));
        k[a] = hi;
        k[b] = lo;
    }
    k
}

/// The comparators of a four-input sorting network.
const SORT_NETWORK: [(usize, usize); 5] = [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)];

/// The most core permutations a table holds: `MAX_CORES!`.
const MAX_LANES: usize = FACT4 as usize;

/// One row of a σ-major field table: a field value's image under each
/// core permutation, lane `j` under permutation `j`, already shifted to
/// the field's place in the line word. Lanes past the table's `cores!`
/// hold 0 and are never read.
type Row = [u32; MAX_LANES];

/// A σ-major field table: row `v` holds field value `v`'s `image` under
/// every permutation in `perms`.
fn sigma_major(
    perms: &[[u8; MAX_CORES]],
    values: u32,
    image: impl Fn(&[u8; MAX_CORES], u32) -> u32,
) -> Vec<Row> {
    (0..values)
        .map(|v| std::array::from_fn(|j| perms.get(j).map_or(0, |cp| image(cp, v))))
        .collect()
}

/// A state's four line words relabeled under every core permutation,
/// σ-major: `lanes[line][j]` is line `line`'s word under permutation `j`
/// (only the first `cores!` lanes mean anything). The checker builds one
/// per frontier state with [`CanonTable::lanes`], and each successor then
/// relabels only the words it changes ([`CanonTable::key`]).
#[derive(Clone, Debug)]
pub struct Lanes {
    words: [u32; MAX_LINES],
    lanes: [[u32; MAX_LANES]; MAX_LINES],
}

/// Precomputed canonicalization context for a model geometry: every
/// permutation of the used cores (identity on the unused tail) and the
/// σ-major field tables of their word-level relabelings.
#[derive(Clone, Debug)]
pub struct CanonTable {
    cores: usize,
    lines: usize,
    permute_parts: bool,
    core_perms: Vec<[u8; MAX_CORES]>,
    /// MOESI codes of cores 0–1 (word bits 0..6), placed in the 12-bit
    /// MOESI field; 64 rows.
    moesi_lo: Vec<Row>,
    /// MOESI codes of cores 2–3 (word bits 6..12); 64 rows.
    moesi_hi: Vec<Row>,
    /// The 4-bit VD residency mask (bits 12..16); 16 rows.
    mask: Vec<Row>,
    /// The 7-bit ED entry field: present bit, partition and sharer mask
    /// (bits 16..23); 128 rows.
    ed: Vec<Row>,
    /// The TD entry field, laid out as the ED's (bits 23..30); 128 rows.
    td: Vec<Row>,
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
        let mut line_perms = Vec::new();
        let mut scratch: Vec<u8> = (0..lines as u8).collect();
        permutations(&mut scratch, 0, &mut |p| {
            let mut full = [0u8, 1, 2, 3];
            full[..lines].copy_from_slice(p);
            line_perms.push(full);
        });
        // `v` holds the 3-bit codes of cores `2 * pair` and `2 * pair + 1`.
        let moesi = |pair: usize| {
            move |cp: &[u8; MAX_CORES], v: u32| {
                (0..2).fold(0, |out, i| {
                    let code = (v >> (3 * i)) & 0b111;
                    out | code << (3 * cp[2 * pair + i])
                })
            }
        };
        let entry = |cp: &[u8; MAX_CORES], e: u32| {
            let (present, part, sharers) = (e & 1, (e >> 1) & 0b11, e >> 3);
            let part = if present == 1 && permute_parts {
                u32::from(cp[part as usize])
            } else {
                part
            };
            present | part << 1 | permute_mask(sharers, cp) << 3
        };
        CanonTable {
            cores,
            lines,
            permute_parts,
            moesi_lo: sigma_major(&core_perms, 64, moesi(0)),
            moesi_hi: sigma_major(&core_perms, 64, moesi(1)),
            mask: sigma_major(&core_perms, 16, |cp, m| permute_mask(m, cp) << 12),
            ed: sigma_major(&core_perms, 128, |cp, e| entry(cp, e) << 16),
            td: sigma_major(&core_perms, 128, |cp, e| entry(cp, e) << 23),
            core_perms,
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

    /// The line word `w` relabeled by the first `P` core permutations,
    /// lane `j` under permutation `j`: five pre-shifted row loads ORed
    /// together. At a constant lane count this compiles to
    /// straight vector code; the result is a fresh array, so no store can
    /// alias a table row.
    #[inline(always)]
    fn relabel<const P: usize>(&self, w: u32) -> [u32; P] {
        debug_assert!(P >= self.core_perms.len());
        let field = |shift: u32, bits: u32| ((w >> shift) & ((1 << bits) - 1)) as usize;
        let lo = &self.moesi_lo[field(0, 6)];
        let hi = &self.moesi_hi[field(6, 6)];
        let mask = &self.mask[field(12, 4)];
        let ed = &self.ed[field(16, 7)];
        let td = &self.td[field(23, 7)];
        // `has_data` and `llc_dirty` name no core.
        let fixed = w & (0b11 << 30);
        std::array::from_fn(|j| lo[j] | hi[j] | mask[j] | ed[j] | td[j] | fixed)
    }

    /// The four line words of `s`, relabeled under every core
    /// permutation: the lanes its successors start from.
    pub fn lanes(&self, s: &ModelState) -> Lanes {
        let words = s.words();
        let lanes = words.map(|w| self.relabel(w));
        Lanes { words, lanes }
    }

    /// The canonical form of the state whose line words are `words`, the
    /// same `u128` that [`CanonTable::canonicalize`] returns. Words equal
    /// to `parent`'s at the same line reuse its lanes; only the others are
    /// relabeled. The checker keys every successor this way, against the
    /// lanes of the state it was expanded from.
    pub fn key(&self, parent: &Lanes, words: [u32; MAX_LINES]) -> u128 {
        // One lane per permutation of the used cores: `cores!`.
        match self.cores {
            1 => self.key_lanes::<1>(parent, words),
            2 => self.key_lanes::<2>(parent, words),
            3 => self.key_lanes::<6>(parent, words),
            _ => self.key_lanes::<24>(parent, words),
        }
    }

    /// [`CanonTable::key`] with `P = cores!` lanes.
    #[inline(always)]
    fn key_lanes<const P: usize>(&self, parent: &Lanes, words: [u32; MAX_LINES]) -> u128 {
        let mut lanes: [[u32; P]; MAX_LINES] = std::array::from_fn(|line| {
            if words[line] == parent.words[line] {
                std::array::from_fn(|j| parent.lanes[line][j])
            } else {
                self.relabel(words[line])
            }
        });
        pick(&mut lanes)
    }

    /// Canonicalizes `s`: returns the canonical packed form and the
    /// relabeling `g` with `pack(g(s)) == packed`. Deterministic: core
    /// permutations are tried in a fixed order and ties keep the first
    /// winner, so equal inputs always yield the identical pair.
    pub fn canonicalize(&self, s: &ModelState) -> (u128, PermPair) {
        match self.cores {
            1 => self.canonicalize_lanes::<1>(s),
            2 => self.canonicalize_lanes::<2>(s),
            3 => self.canonicalize_lanes::<6>(s),
            _ => self.canonicalize_lanes::<24>(s),
        }
    }

    /// [`CanonTable::canonicalize`] with `P = cores!` lanes: the key
    /// path's relabel and pick, then the winner's line relabeling.
    #[inline(always)]
    fn canonicalize_lanes<const P: usize>(&self, s: &ModelState) -> (u128, PermPair) {
        let lanes: [[u32; P]; MAX_LINES] = s.words().map(|w| self.relabel(w));
        let mut sorted = lanes;
        let packed = pick(&mut sorted);
        // The winner: the first lane whose candidate is the canonical
        // form.
        let candidate = |j: usize| assemble(std::array::from_fn(|line| sorted[line][j]));
        let best = (0..P).find(|&j| candidate(j) == packed).unwrap_or(0);
        // The winner's stable line relabeling: sort its words again on
        // the keys `(word << 2) | (3 − line)`, whose low two bits name
        // the original line.
        let keys = sort_desc(std::array::from_fn(|line| {
            u64::from(lanes[line][best]) << 2 | (3 - line) as u64
        }));
        let mut lp = [0u8; MAX_LINES];
        for (pos, &key) in keys.iter().enumerate() {
            lp[3 - (key & 3) as usize] = pos as u8;
        }
        debug_assert!(
            (0..self.lines).all(|l| (lp[l] as usize) < self.lines),
            "canonical line relabeling left the used-line range"
        );
        let pair = PermPair {
            core: self.core_perms[best],
            line: lp,
        };
        (packed, pair)
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
        let n = self.core_perms.len();
        let lanes: [[u32; MAX_LANES]; MAX_LINES] = s.words().map(|w| self.relabel(w));
        let mut distinct: std::collections::HashSet<u128> =
            std::collections::HashSet::with_capacity(self.group_order());
        for j in 0..n {
            let relabeled = lanes.map(|lane| lane[j]);
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

/// The canonical candidate of `lanes`. Each lane's words are sorted
/// descending — the stable descending block sort is the optimal line
/// relabeling for that lane's core relabeling (see module docs), and
/// equal words are interchangeable in a candidate, so words sort alone —
/// and assembled high-to-low; the candidate is the greatest over the
/// lanes. The sort runs lane-parallel, then the maximum is taken on the
/// two halves `(hi, lo)` of every lane's candidate: the greatest `hi`,
/// then the greatest `lo` among the lanes that reach it.
#[inline(always)]
fn pick<const P: usize>(lanes: &mut [[u32; P]; MAX_LINES]) -> u128 {
    for (a, b) in SORT_NETWORK {
        let (head, tail) = lanes.split_at_mut(b);
        for (x, y) in head[a].iter_mut().zip(&mut tail[0]) {
            (*x, *y) = ((*x).max(*y), (*x).min(*y));
        }
    }
    let half =
        |l: usize, j: usize| u64::from(lanes[l][j]) << LINE_BITS | u64::from(lanes[l + 1][j]);
    let hi = (0..P).fold(0, |m, j| m.max(half(0, j)));
    let lo = (0..P).fold(0, |m, j| {
        if half(0, j) == hi {
            m.max(half(2, j))
        } else {
            m
        }
    });
    u128::from(hi) << 64 | u128::from(lo)
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
    fn pair_index_tells_all_pairs_apart() {
        let mut scratch = [0u8, 1, 2, 3];
        let mut perms = Vec::new();
        permutations(&mut scratch, 0, &mut |p| {
            let mut a = [0u8; 4];
            a.copy_from_slice(p);
            perms.push(a);
        });
        let ranks: std::collections::HashSet<u8> = perms.iter().map(perm_index).collect();
        assert_eq!(ranks, (0..24).collect());
        let indices: std::collections::HashSet<u16> = perms
            .iter()
            .flat_map(|&core| {
                perms
                    .iter()
                    .map(move |&line| PermPair { core, line }.index())
            })
            .collect();
        assert_eq!(indices, (0..24 * 24).collect());
        assert_eq!(IDENTITY.index(), 0);
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
        // Each lane of the tables must give exactly the words of the
        // state relabeled by that lane's core permutation, for both
        // partition actions.
        let mut s = ModelState::initial();
        s.set_cache(0, 1, Moesi::Exclusive);
        s.set_cache(3, 2, Moesi::Owned);
        s.set_cache(1, 2, Moesi::Shared);
        s.set_cache(2, 3, Moesi::Modified);
        s.set_vd(1, SharerSet::single(CoreId(0)));
        let mut sharers = SharerSet::single(CoreId(1));
        sharers.insert(CoreId(3));
        s.set_ed(2, Some((3, secdir_coherence::EdEntry { sharers })));
        s.set_td(
            3,
            Some((
                2,
                secdir_coherence::TdEntry {
                    sharers: SharerSet::single(CoreId(2)),
                    has_data: true,
                    llc_dirty: true,
                },
            )),
        );
        for permute_parts in [false, true] {
            let table = CanonTable::new(4, 4, permute_parts);
            let lanes = s.words().map(|w| table.relabel::<24>(w));
            for (j, cp) in table.core_perms.iter().enumerate() {
                let g = PermPair {
                    core: *cp,
                    line: [0, 1, 2, 3],
                };
                let expected = g.apply_state(&s, permute_parts).words();
                assert_eq!(lanes.map(|lane| lane[j]), expected);
            }
        }
    }

    #[test]
    fn apply_state_matches_packed_canonical() {
        // canonicalize's packed value must equal pack(apply_state(s)).
        let table = CanonTable::new(3, 3, false);
        let mut s = ModelState::initial();
        s.set_cache(1, 2, Moesi::Modified);
        s.set_cache(0, 0, Moesi::Shared);
        s.set_vd(2, SharerSet::single(CoreId(1)));
        let (packed, pair) = table.canonicalize(&s);
        assert_eq!(pack(&pair.apply_state(&s, false)), packed);
    }

    #[test]
    fn canonical_form_is_permutation_invariant() {
        let table = CanonTable::new(2, 3, false);
        let mut s = ModelState::initial();
        s.set_cache(0, 1, Moesi::Exclusive);
        s.set_cache(1, 0, Moesi::Shared);
        let swap = PermPair {
            core: [1, 0, 2, 3],
            line: [2, 1, 0, 3],
        };
        let t = swap.apply_state(&s, false);
        assert_eq!(table.canonicalize(&s).0, table.canonicalize(&t).0);
    }
}
