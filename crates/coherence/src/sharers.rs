//! Sharer bit-vectors ("full-mapped" presence bits, paper §7).

use std::fmt;

use secdir_mem::CoreId;
use serde::{Deserialize, Serialize};

/// A set of cores holding a copy of a line, encoded as a presence bit
/// vector (one bit per core, up to 64 cores).
///
/// # Examples
///
/// ```
/// use secdir_coherence::SharerSet;
/// use secdir_mem::CoreId;
///
/// let mut s = SharerSet::empty();
/// s.insert(CoreId(3));
/// assert!(s.contains(CoreId(3)));
/// assert_eq!(s.count(), 1);
/// assert_eq!(s.any(), Some(CoreId(3)));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SharerSet(u64);

impl SharerSet {
    /// Maximum number of cores representable.
    pub const MAX_CORES: usize = 64;

    /// The empty set.
    #[inline]
    pub fn empty() -> Self {
        SharerSet(0)
    }

    /// A set holding exactly one core.
    #[inline]
    pub fn single(core: CoreId) -> Self {
        let mut s = SharerSet::empty();
        s.insert(core);
        s
    }

    /// Adds `core` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `core.0 >= 64`.
    #[inline]
    pub fn insert(&mut self, core: CoreId) {
        assert!(core.0 < Self::MAX_CORES, "core id out of range");
        self.0 |= 1 << core.0;
    }

    /// Removes `core` from the set; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, core: CoreId) -> bool {
        let was = self.contains(core);
        self.0 &= !(1u64 << core.0);
        was
    }

    /// Whether `core` is in the set.
    #[inline]
    pub fn contains(&self, core: CoreId) -> bool {
        core.0 < Self::MAX_CORES && self.0 & (1 << core.0) != 0
    }

    /// Flips `core`'s presence bit — the sharer-corruption primitive of the
    /// fault-injection harness (`secdir_machine::inject`); not used by the
    /// protocol itself.
    ///
    /// # Panics
    ///
    /// Panics if `core.0 >= 64`.
    #[inline]
    pub fn toggle(&mut self, core: CoreId) {
        assert!(core.0 < Self::MAX_CORES, "core id out of range");
        self.0 ^= 1 << core.0;
    }

    /// Number of sharers.
    #[inline]
    pub fn count(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether no core holds the line.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// An arbitrary (lowest-numbered) sharer, if any — the core the protocol
    /// forwards a read request to.
    #[inline]
    pub fn any(&self) -> Option<CoreId> {
        if self.0 == 0 {
            None
        } else {
            Some(CoreId(self.0.trailing_zeros() as usize))
        }
    }

    /// The set minus `core`.
    #[inline]
    pub fn without(mut self, core: CoreId) -> Self {
        self.remove(core);
        self
    }

    /// Iterates over the sharers in ascending core order, visiting only
    /// the set bits.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let core = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(CoreId(core))
        })
    }

    /// The raw presence bit vector.
    #[inline]
    pub fn bits(&self) -> u64 {
        self.0
    }
}

impl From<CoreId> for SharerSet {
    fn from(core: CoreId) -> Self {
        SharerSet::single(core)
    }
}

impl FromIterator<CoreId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        let mut s = SharerSet::empty();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

impl fmt::Debug for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharerSet{{")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", c.0)?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = SharerSet::empty();
        assert!(s.is_empty());
        s.insert(CoreId(0));
        s.insert(CoreId(7));
        assert!(s.contains(CoreId(0)) && s.contains(CoreId(7)));
        assert_eq!(s.count(), 2);
        assert!(s.remove(CoreId(0)));
        assert!(!s.remove(CoreId(0)));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn toggle_flips_presence() {
        let mut s = SharerSet::single(CoreId(3));
        s.toggle(CoreId(3));
        assert!(s.is_empty());
        s.toggle(CoreId(5));
        assert_eq!(s, SharerSet::single(CoreId(5)));
    }

    #[test]
    fn any_returns_lowest() {
        let s: SharerSet = [CoreId(5), CoreId(2)].into_iter().collect();
        assert_eq!(s.any(), Some(CoreId(2)));
        assert_eq!(SharerSet::empty().any(), None);
    }

    #[test]
    fn iter_ascending() {
        let s: SharerSet = [CoreId(6), CoreId(1), CoreId(63), CoreId(3)]
            .into_iter()
            .collect();
        let v: Vec<_> = s.iter().map(|c| c.0).collect();
        assert_eq!(v, vec![1, 3, 6, 63]);
        assert_eq!(SharerSet::empty().iter().next(), None);
    }

    #[test]
    fn without_is_pure() {
        let s = SharerSet::single(CoreId(4));
        let t = s.without(CoreId(4));
        assert!(t.is_empty());
        assert!(s.contains(CoreId(4)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_core_64() {
        SharerSet::empty().insert(CoreId(64));
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", SharerSet::empty()), "SharerSet{}");
        assert_eq!(
            format!("{:?}", SharerSet::single(CoreId(2))),
            "SharerSet{2}"
        );
    }
}
