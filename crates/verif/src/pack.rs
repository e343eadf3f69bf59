//! [`ModelState`]: the model's state as four packed line words.
//!
//! A state *is* its encoding: four 32-bit *line words*, read and written
//! through typed accessors that decode an [`EdEntry`], a [`TdEntry`] or a
//! [`SharerSet`] only where a caller asks for one, so a successor is a
//! 16-byte copy of its parent with a few fields rewritten. The words are
//! held as the one `u128` the visited set stores, line 0 most significant
//! ([`pack`] and [`unpack`] are moves): permuting lines permutes whole
//! 32-bit blocks of it, which [`canon`](crate::canon) exploits (sorting
//! the blocks *is* the optimal line permutation). A field update is a
//! shift and a mask in registers, where a `[u32; 4]` indexed by a
//! run-time line would round-trip through memory (measured slower).
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
//! An absent entry is all-zero in its field. Cores ≤ 4, so sharer masks
//! and partitions fit 4 and 2 bits; the setters assert those bounds in
//! release builds too, because a field masked off would silently alias
//! two distinct states in the visited set.

use secdir_coherence::{EdEntry, Moesi, SharerSet, TdEntry};
use secdir_mem::CoreId;

use crate::model::{Label, MAX_CORES, MAX_LINES};

/// Width of one line word, in bits.
pub const LINE_BITS: u32 = 32;

/// Where the VD mask, the ED entry and the TD entry start in a word.
const VD_SHIFT: u32 = 12;
const ED_SHIFT: u32 = 16;
const TD_SHIFT: u32 = 23;

/// One abstract machine state: the MOESI state of each line in each
/// core's private L2, plus the per-line directory entries, held as the
/// line words of the module docs, line 0 most significant. Lines past
/// the model's geometry stay all-zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ModelState {
    packed: u128,
}

impl ModelState {
    /// The empty machine: all caches invalid, all directories empty.
    pub fn initial() -> Self {
        ModelState { packed: 0 }
    }

    /// The four line words, line 0 first.
    #[inline]
    pub fn words(&self) -> [u32; MAX_LINES] {
        std::array::from_fn(|line| (self.packed >> Self::at(line, 0)) as u32)
    }

    /// The bit at which the field at `shift` of `line`'s word starts.
    #[inline]
    fn at(line: usize, shift: u32) -> u32 {
        assert!(line < MAX_LINES, "line {line} out of range");
        (MAX_LINES - 1 - line) as u32 * LINE_BITS + shift
    }

    /// The `bits`-wide field at `shift` of `line`'s word.
    #[inline]
    fn field(&self, line: usize, shift: u32, bits: u32) -> u32 {
        (self.packed >> Self::at(line, shift)) as u32 & ((1 << bits) - 1)
    }

    /// Overwrites that field with `value`, which must fit.
    #[inline]
    fn set_field(&mut self, line: usize, shift: u32, bits: u32, value: u32) {
        let at = Self::at(line, shift);
        let mask = ((1u128 << bits) - 1) << at;
        self.packed = (self.packed & !mask) | u128::from(value) << at;
    }

    /// MOESI state of `line` in `core`'s private L2.
    #[inline]
    pub fn cache(&self, core: usize, line: usize) -> Moesi {
        match self.field(line, 3 * core_index(core), 3) {
            0 => Moesi::Invalid,
            1 => Moesi::Shared,
            2 => Moesi::Exclusive,
            3 => Moesi::Owned,
            _ => Moesi::Modified,
        }
    }

    /// Sets the MOESI state of `line` in `core`'s private L2.
    #[inline]
    pub fn set_cache(&mut self, core: usize, line: usize, state: Moesi) {
        let code = match state {
            Moesi::Invalid => 0,
            Moesi::Shared => 1,
            Moesi::Exclusive => 2,
            Moesi::Owned => 3,
            Moesi::Modified => 4,
        };
        self.set_field(line, 3 * core_index(core), 3, code);
    }

    /// `line`'s ED entry and owning partition (0 unless way-partitioned).
    #[inline]
    pub fn ed(&self, line: usize) -> Option<(u8, EdEntry)> {
        let (part, sharers) = entry_of(self.field(line, ED_SHIFT, 7))?;
        Some((part, EdEntry { sharers }))
    }

    /// Sets or clears `line`'s ED entry. Panics if a sharer or the
    /// partition is at or above [`MAX_CORES`].
    #[inline]
    pub fn set_ed(&mut self, line: usize, entry: Option<(u8, EdEntry)>) {
        let field = entry.map_or(0, |(part, e)| entry_field(part, e.sharers));
        self.set_field(line, ED_SHIFT, 7, field);
    }

    /// `line`'s TD entry and its owning partition.
    #[inline]
    pub fn td(&self, line: usize) -> Option<(u8, TdEntry)> {
        let field = self.field(line, TD_SHIFT, 9);
        let (part, sharers) = entry_of(field)?;
        let entry = TdEntry {
            sharers,
            has_data: field & 1 << 7 != 0,
            llc_dirty: field & 1 << 8 != 0,
        };
        Some((part, entry))
    }

    /// Sets or clears `line`'s TD entry, panicking as `set_ed` does.
    #[inline]
    pub fn set_td(&mut self, line: usize, entry: Option<(u8, TdEntry)>) {
        let field = entry.map_or(0, |(part, t)| {
            entry_field(part, t.sharers) | u32::from(t.has_data) << 7 | u32::from(t.llc_dirty) << 8
        });
        self.set_field(line, TD_SHIFT, 9, field);
    }

    /// The cores whose VD bank holds `line`.
    #[inline]
    pub fn vd(&self, line: usize) -> SharerSet {
        set_of(self.field(line, VD_SHIFT, 4))
    }

    /// Sets the cores whose VD bank holds `line`, bounded as `set_ed`.
    #[inline]
    pub fn set_vd(&mut self, line: usize, cores: SharerSet) {
        self.set_field(line, VD_SHIFT, 4, mask_of(cores));
    }

    /// Adds `line` to `core`'s VD bank.
    #[inline]
    pub fn vd_insert(&mut self, line: usize, core: CoreId) {
        self.packed |= 1 << Self::at(line, VD_SHIFT + core_index(core.0));
    }

    /// Removes `line` from `core`'s VD bank.
    #[inline]
    pub fn vd_remove(&mut self, line: usize, core: CoreId) {
        self.packed &= !(1 << Self::at(line, VD_SHIFT + core_index(core.0)));
    }
}

/// `value` as a field of a line word. Panics unless `value < bound`: a
/// field's bits past its width would land in its neighbour's.
#[inline]
fn fits(what: &str, value: u64, bound: u64) -> u32 {
    assert!(
        value < bound,
        "{what} {value:#x} exceeds the model's core bound"
    );
    value as u32
}

/// `core` as a field index.
#[inline]
fn core_index(core: usize) -> u32 {
    fits("core", core as u64, MAX_CORES as u64)
}

/// A sharer set as a 4-bit mask.
#[inline]
fn mask_of(set: SharerSet) -> u32 {
    fits("sharer set", set.bits(), 1 << MAX_CORES)
}

/// The sharer set of a 4-bit mask. The unrolled test-and-insert compiles
/// to straight-line code, where a filtered iterator stayed a branchy loop.
#[inline]
fn set_of(mask: u32) -> SharerSet {
    let mut set = SharerSet::empty();
    for c in 0..MAX_CORES {
        if mask & 1 << c != 0 {
            set.insert(CoreId(c));
        }
    }
    set
}

/// The 7-bit field of a present ED/TD entry: present bit, partition,
/// sharer mask.
#[inline]
fn entry_field(part: u8, sharers: SharerSet) -> u32 {
    1 | fits("partition", part.into(), MAX_CORES as u64) << 1 | mask_of(sharers) << 3
}

/// The partition and sharers of an entry field, `None` if absent.
#[inline]
fn entry_of(field: u32) -> Option<(u8, SharerSet)> {
    (field & 1 != 0).then(|| (((field >> 1) & 0b11) as u8, set_of((field >> 3) & 0xf)))
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

/// `s` as one `u128`.
#[inline]
pub fn pack(s: &ModelState) -> u128 {
    s.packed
}

/// The state packed as `packed` (the inverse of [`pack`]).
#[inline]
pub fn unpack(packed: u128) -> ModelState {
    ModelState { packed }
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
        a.set_cache(1, 2, Moesi::Owned);
        let mut b = ModelState::initial();
        b.set_cache(1, 2, Moesi::Modified);
        assert_ne!(pack(&a), pack(&b));

        let mut c = ModelState::initial();
        let mut entry = TdEntry {
            sharers: SharerSet::single(CoreId(0)),
            has_data: false,
            llc_dirty: false,
        };
        c.set_td(0, Some((0, entry)));
        let mut d = c;
        entry.has_data = true;
        d.set_td(0, Some((0, entry)));
        assert_ne!(pack(&c), pack(&d));
    }

    /// One field value of a line word, with the setter that writes it.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Value {
        Cache(usize, Moesi),
        Vd(SharerSet),
        Ed(Option<(u8, EdEntry)>),
        Td(Option<(u8, TdEntry)>),
    }

    impl Value {
        fn write(self, s: &mut ModelState, line: usize) {
            match self {
                Value::Cache(core, m) => s.set_cache(core, line, m),
                Value::Vd(set) => s.set_vd(line, set),
                Value::Ed(e) => s.set_ed(line, e),
                Value::Td(t) => s.set_td(line, t),
            }
        }

        /// The value of the same field, read back from `s`.
        fn read(self, s: &ModelState, line: usize) -> Value {
            match self {
                Value::Cache(core, _) => Value::Cache(core, s.cache(core, line)),
                Value::Vd(_) => Value::Vd(s.vd(line)),
                Value::Ed(_) => Value::Ed(s.ed(line)),
                Value::Td(_) => Value::Td(s.td(line)),
            }
        }
    }

    /// Every value of every field of one line word, one list per field.
    fn every_field_value() -> Vec<Vec<Value>> {
        let sets: Vec<SharerSet> = (0..16)
            .map(|m| {
                (0..MAX_CORES)
                    .filter(|c| m >> c & 1 == 1)
                    .map(CoreId)
                    .collect()
            })
            .collect();
        let moesi = [
            Moesi::Invalid,
            Moesi::Shared,
            Moesi::Exclusive,
            Moesi::Owned,
            Moesi::Modified,
        ];
        let mut fields: Vec<Vec<Value>> = (0..MAX_CORES)
            .map(|core| moesi.iter().map(|&m| Value::Cache(core, m)).collect())
            .collect();
        fields.push(sets.iter().map(|&s| Value::Vd(s)).collect());
        let parts = 0..MAX_CORES as u8;
        let eds = parts.clone().flat_map(|p| {
            sets.iter()
                .map(move |&sharers| Value::Ed(Some((p, EdEntry { sharers }))))
        });
        fields.push(std::iter::once(Value::Ed(None)).chain(eds).collect());
        let mut tds = vec![Value::Td(None)];
        for p in parts {
            for &sharers in &sets {
                for (has_data, llc_dirty) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    tds.push(Value::Td(Some((
                        p,
                        TdEntry {
                            sharers,
                            has_data,
                            llc_dirty,
                        },
                    ))));
                }
            }
        }
        fields.push(tds);
        fields
    }

    #[test]
    fn every_field_value_reads_back_and_leaves_the_others_alone() {
        // Every value of a field, then every value of another field, is
        // written to line 1, over a word whose fields are all zero and
        // over one whose fields all hold their last value. Every field of
        // line 1 then reads back what was last written to it, and the
        // other lines keep their words.
        let fields = every_field_value();
        let fill = |s: &mut ModelState, line| {
            fields.iter().for_each(|f| f[f.len() - 1].write(s, line));
        };
        let mut zero = ModelState::initial();
        [0, 2, 3].into_iter().for_each(|line| fill(&mut zero, line));
        let mut full = zero;
        fill(&mut full, 1);
        for start in [zero, full] {
            for (i, first) in fields.iter().enumerate() {
                for (j, second) in fields.iter().enumerate().filter(|&(j, _)| j != i) {
                    for (&a, &b) in first
                        .iter()
                        .flat_map(|a| second.iter().map(move |b| (a, b)))
                    {
                        let mut s = start;
                        a.write(&mut s, 1);
                        b.write(&mut s, 1);
                        for (k, field) in fields.iter().enumerate() {
                            let want = match k {
                                _ if k == i => a,
                                _ if k == j => b,
                                _ => field[0].read(&start, 1),
                            };
                            assert_eq!(field[0].read(&s, 1), want, "{a:?}, then {b:?}");
                        }
                        for line in [0, 2, 3] {
                            assert_eq!(s.words()[line], start.words()[line]);
                        }
                    }
                }
            }
        }
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
    fn setters_reject_out_of_bounds_sharers() {
        // Core 5 does not fit the 4-bit mask; masking it off would alias
        // this state with the one without it.
        ModelState::initial().set_ed(
            0,
            Some((
                0,
                EdEntry {
                    sharers: SharerSet::single(CoreId(5)),
                },
            )),
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the model's core bound")]
    fn setters_reject_out_of_bounds_partitions() {
        ModelState::initial().set_td(
            2,
            Some((
                4,
                TdEntry {
                    sharers: SharerSet::single(CoreId(0)),
                    has_data: true,
                    llc_dirty: false,
                },
            )),
        );
    }
}
