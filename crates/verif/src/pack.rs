//! Bit-packed encoding of [`ModelState`] into a single `u128`.
//!
//! The visited set of the exhaustive checker holds one packed word per
//! reachable state instead of a cloned 200-byte struct, and equality/
//! hashing become single-word operations. The encoding is **line-major**:
//! the state is 4 *line words* of 32 bits each, line 0 in the most
//! significant word, so that permuting lines permutes whole 32-bit blocks
//! of the packed value — the property the symmetry canonicalization in
//! [`canon`](crate::canon) exploits (sorting the blocks *is* the optimal
//! line permutation).
//!
//! One line word (32 bits, all-zero ⇔ the line is untouched):
//!
//! ```text
//! bits  0..12  MOESI of the line in each core's L2, 3 bits per core
//!              (Invalid=0, Shared=1, Exclusive=2, Owned=3, Modified=4)
//! bits 12..16  VD residency mask, one bit per core
//! bit  16      ED entry present
//! bits 17..19  ED owning partition (0 unless way-partitioned)
//! bits 19..23  ED sharer mask
//! bit  23      TD entry present
//! bits 24..26  TD owning partition
//! bits 26..30  TD sharer mask
//! bit  30      TD has_data
//! bit  31      TD llc_dirty
//! ```
//!
//! Every field of a bounded-model state fits: cores ≤ 4 so sharer masks
//! and partitions are 4 bits / 2 bits, and `pack` asserts the bounds in
//! release builds too — an out-of-range field would otherwise be masked
//! off and silently alias two distinct states in the visited set.
//! `unpack(pack(s)) == s` for every in-bounds state
//! (`tests/canon_props.rs` proves it property-style).

use secdir_coherence::{EdEntry, Moesi, SharerSet, TdEntry};
use secdir_mem::CoreId;

use crate::model::{Label, ModelState, MAX_CORES, MAX_LINES};

/// Width of one line word, in bits.
pub const LINE_BITS: u32 = 32;

/// 3-bit code of a MOESI state (Invalid = 0 keeps untouched lines at 0).
#[inline]
fn moesi_code(m: Moesi) -> u32 {
    match m {
        Moesi::Invalid => 0,
        Moesi::Shared => 1,
        Moesi::Exclusive => 2,
        Moesi::Owned => 3,
        Moesi::Modified => 4,
    }
}

/// Inverse of [`moesi_code`].
#[inline]
fn moesi_decode(code: u32) -> Moesi {
    match code {
        0 => Moesi::Invalid,
        1 => Moesi::Shared,
        2 => Moesi::Exclusive,
        3 => Moesi::Owned,
        _ => Moesi::Modified,
    }
}

/// A sharer set as a packed [`MAX_CORES`]-bit mask.
///
/// # Panics
///
/// Panics if the set names a core at or above [`MAX_CORES`].
#[inline]
fn mask_of(set: SharerSet) -> u32 {
    let bits = set.bits();
    assert!(
        bits < (1 << MAX_CORES),
        "sharer set {bits:#x} exceeds the model's core bound"
    );
    bits as u32
}

/// A directory entry's owning partition as a packed 2-bit field.
///
/// # Panics
///
/// Panics if the partition is at or above [`MAX_CORES`].
#[inline]
fn part_of(part: u8) -> u32 {
    assert!(
        (part as usize) < MAX_CORES,
        "partition {part} exceeds the model's core bound"
    );
    u32::from(part)
}

/// Rebuilds a sharer set from a packed 4-bit mask.
#[inline]
fn mask_to_set(mask: u32) -> SharerSet {
    let mut s = SharerSet::empty();
    for c in 0..MAX_CORES {
        if mask & (1 << c) != 0 {
            s.insert(CoreId(c));
        }
    }
    s
}

/// Packs the 32-bit word of `line`, cores in their original positions.
/// The word describes the line's content, not its position — callers
/// place the word. [`canon`](crate::canon) relabels cores on these words
/// through per-permutation tables instead of re-packing the struct.
///
/// # Panics
///
/// Panics if a sharer set or partition field exceeds the model's core
/// bound (see module docs).
#[inline]
pub fn line_word(s: &ModelState, line: usize) -> u32 {
    let mut w = 0u32;
    for (core, row) in s.caches.iter().enumerate() {
        w |= moesi_code(row[line]) << (3 * core as u32);
    }
    w |= mask_of(s.vd[line]) << 12;
    if let Some((part, e)) = s.ed[line] {
        w |= 1 << 16;
        w |= part_of(part) << 17;
        w |= mask_of(e.sharers) << 19;
    }
    if let Some((part, t)) = s.td[line] {
        w |= 1 << 23;
        w |= part_of(part) << 24;
        w |= mask_of(t.sharers) << 26;
        w |= u32::from(t.has_data) << 30;
        w |= u32::from(t.llc_dirty) << 31;
    }
    w
}

/// Assembles a packed state from its four line words (index 0 most
/// significant).
#[inline]
pub fn assemble(words: [u32; MAX_LINES]) -> u128 {
    let mut packed = 0u128;
    for w in words {
        packed = (packed << LINE_BITS) | u128::from(w);
    }
    packed
}

/// The four line words of a packed state, line 0 first (the inverse of
/// [`assemble`]).
#[inline]
pub fn split(packed: u128) -> [u32; MAX_LINES] {
    std::array::from_fn(|line| (packed >> ((MAX_LINES - 1 - line) as u32 * LINE_BITS)) as u32)
}

/// The four line words of `s`, line 0 first.
///
/// # Panics
///
/// Panics on out-of-bounds fields, as [`line_word`] does.
#[inline]
pub fn line_words(s: &ModelState) -> [u32; MAX_LINES] {
    std::array::from_fn(|line| line_word(s, line))
}

/// Packs `s` with cores and lines in their original positions.
///
/// # Panics
///
/// Panics on out-of-bounds fields, as [`line_word`] does.
#[inline]
pub fn pack(s: &ModelState) -> u128 {
    assemble(line_words(s))
}

/// Expands a packed word back into the struct form (exact inverse of
/// [`pack`] for in-bounds states).
pub fn unpack(packed: u128) -> ModelState {
    let mut s = ModelState::initial();
    for (line, w) in split(packed).into_iter().enumerate() {
        for (core, row) in s.caches.iter_mut().enumerate() {
            row[line] = moesi_decode((w >> (3 * core)) & 0b111);
        }
        s.vd[line] = mask_to_set((w >> 12) & 0xf);
        if w & (1 << 16) != 0 {
            s.ed[line] = Some((
                ((w >> 17) & 0b11) as u8,
                EdEntry {
                    sharers: mask_to_set((w >> 19) & 0xf),
                },
            ));
        }
        if w & (1 << 23) != 0 {
            s.td[line] = Some((
                ((w >> 24) & 0b11) as u8,
                TdEntry {
                    sharers: mask_to_set((w >> 26) & 0xf),
                    has_data: w & (1 << 30) != 0,
                    llc_dirty: w & (1 << 31) != 0,
                },
            ));
        }
    }
    s
}

/// A transition label packed into one byte: `kind(2) | core(2) | line(2)`.
/// The parent-pointer array stores these instead of the 3-word [`Label`]
/// enum; labels are re-expanded only at trace-rebuild time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedLabel(pub u8);

impl PackedLabel {
    /// Packs a label.
    #[inline]
    pub fn encode(label: Label) -> Self {
        let (kind, core, line) = match label {
            Label::Read { core, line } => (0u8, core, line),
            Label::Write { core, line } => (1, core, line),
            Label::SilentUpgrade { core, line } => (2, core, line),
            Label::Evict { core, line } => (3, core, line),
        };
        debug_assert!(core < MAX_CORES && line < MAX_LINES);
        PackedLabel(kind << 4 | (core as u8) << 2 | line as u8)
    }

    /// Unpacks the label.
    #[inline]
    pub fn decode(self) -> Label {
        let core = usize::from(self.0 >> 2 & 0b11);
        let line = usize::from(self.0 & 0b11);
        match self.0 >> 4 {
            0 => Label::Read { core, line },
            1 => Label::Write { core, line },
            2 => Label::SilentUpgrade { core, line },
            _ => Label::Evict { core, line },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::model::{DirKind, Model, ModelConfig};

    #[test]
    fn initial_state_packs_to_zero() {
        assert_eq!(pack(&ModelState::initial()), 0);
        assert_eq!(unpack(0), ModelState::initial());
    }

    #[test]
    fn pack_roundtrips_over_reachable_states() {
        // Walk a few BFS levels of the secdir model and round-trip every
        // state met on the way.
        let model = Model::new(ModelConfig::quick(DirKind::SecDir));
        let mut frontier = vec![ModelState::initial()];
        for _ in 0..3 {
            let mut next = Vec::new();
            for s in &frontier {
                assert_eq!(unpack(pack(s)), *s);
                for (_, ns) in model.successors(s) {
                    next.push(ns);
                }
            }
            frontier = next;
        }
    }

    #[test]
    fn distinct_fields_produce_distinct_words() {
        let mut a = ModelState::initial();
        a.caches[1][2] = Moesi::Owned;
        let mut b = ModelState::initial();
        b.caches[1][2] = Moesi::Modified;
        assert_ne!(pack(&a), pack(&b));

        let mut c = ModelState::initial();
        c.td[0] = Some((
            0,
            TdEntry {
                sharers: SharerSet::single(CoreId(0)),
                has_data: false,
                llc_dirty: false,
            },
        ));
        let mut d = c.clone();
        if let Some((_, t)) = d.td[0].as_mut() {
            t.has_data = true;
        }
        assert_ne!(pack(&c), pack(&d));
    }

    #[test]
    fn packed_labels_roundtrip() {
        for core in 0..MAX_CORES {
            for line in 0..MAX_LINES {
                for label in [
                    Label::Read { core, line },
                    Label::Write { core, line },
                    Label::SilentUpgrade { core, line },
                    Label::Evict { core, line },
                ] {
                    assert_eq!(PackedLabel::encode(label).decode(), label);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the model's core bound")]
    fn pack_rejects_out_of_bounds_sharers() {
        // Core 5 does not fit the 4-bit mask; masking it off would alias
        // this state with the one without it.
        let mut s = ModelState::initial();
        s.ed[0] = Some((
            0,
            EdEntry {
                sharers: SharerSet::single(CoreId(5)),
            },
        ));
        pack(&s);
    }

    #[test]
    #[should_panic(expected = "exceeds the model's core bound")]
    fn pack_rejects_out_of_bounds_partitions() {
        let mut s = ModelState::initial();
        s.td[2] = Some((
            4,
            TdEntry {
                sharers: SharerSet::single(CoreId(0)),
                has_data: true,
                llc_dirty: false,
            },
        ));
        pack(&s);
    }
}
