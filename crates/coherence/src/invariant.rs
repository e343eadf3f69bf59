//! The protocol invariants, written once: the runtime oracle
//! (`secdir_machine`'s `Machine::verify`) and the model checker
//! (`secdir_verif`) both build a [`LineView`] per line and call
//! [`check_line`]. A VD residency names its bank's owner by
//! construction, since the view holds the VD as a bank mask.

use std::fmt;

use secdir_mem::{CoreId, LineAddr, SliceId};

use crate::{DirWhere, EdEntry, Moesi, SharerSet, TdEntry};

/// One line's directory state, one part per structure, as a slice
/// reports it ([`DirSlice::parts`](crate::DirSlice::parts)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirParts {
    /// The Extended Directory entry.
    pub ed: Option<EdEntry>,
    /// The Traditional Directory entry.
    pub td: Option<TdEntry>,
    /// The cores whose Victim Directory bank holds the line.
    pub vd: SharerSet,
    /// The way partition holding the ED/TD entry (way-partitioned only).
    pub partition: Option<usize>,
}

impl DirParts {
    /// Where the entry lives, looking in ED, then TD, then VD — the
    /// order a request probes them.
    pub fn locate(&self) -> Option<DirWhere> {
        match (self.ed, self.td) {
            (Some(e), _) => Some(DirWhere::Ed(e.sharers)),
            (None, Some(t)) => Some(DirWhere::Td {
                sharers: t.sharers,
                has_data: t.has_data,
            }),
            (None, None) => (!self.vd.is_empty()).then_some(DirWhere::Vd(self.vd)),
        }
    }
}

/// Everything the invariants of one line look at.
#[derive(Clone, Copy, Debug)]
pub struct LineView<'a> {
    /// The line.
    pub line: LineAddr,
    /// Its home directory slice.
    pub slice: usize,
    /// Each core's MOESI state of the line.
    pub holders: &'a [Moesi],
    /// The line's directory entry, by structure.
    pub dir: DirParts,
    /// Whether the Skylake-X quirk applies: every TD entry holds data.
    pub quirk: bool,
}

/// Where a line's entry lives: a slice and, way-partitioned, a partition.
/// `Display` is the prefix of a structure rule's text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Home {
    /// The slice.
    pub slice: usize,
    /// The way partition, if the directory has them.
    pub partition: Option<usize>,
}

impl fmt::Display for Home {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slice {}: ", self.slice)?;
        match self.partition {
            Some(p) => write!(f, "partition {p}: "),
            None => Ok(()),
        }
    }
}

/// A broken protocol invariant: the line first, then what broke it. A
/// private copy is `(core, state)`. `Display` gives the runtime oracle's
/// wording, which `serve` journals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A Modified or Exclusive copy coexists with another valid copy.
    Swmr(LineAddr, (CoreId, Moesi), (CoreId, Moesi)),
    /// An Owned copy coexists with a copy that is not Shared.
    OwnerCoexistence(LineAddr, (CoreId, Moesi), (CoreId, Moesi)),
    /// An ED entry tracks no sharer.
    EdNoSharers(LineAddr, Home),
    /// The line has both an ED and a TD entry.
    EdAndTd(LineAddr, Home),
    /// A live ED or TD entry coexists with residencies in these VD banks,
    /// which reads, stopping at the ED/TD, would never see or clean up.
    VdAliasing(LineAddr, Home, DirWhere, SharerSet),
    /// A TD entry holds no LLC data under the Skylake-X quirk.
    DatalessTd(LineAddr, Home),
    /// A TD entry holds neither LLC data nor sharers.
    EmptyTd(LineAddr, Home),
    /// A private copy that the line's entry (if any) does not list.
    Inclusion(LineAddr, Home, (CoreId, Moesi), Option<DirWhere>),
    /// The entry lists a core whose private cache holds no copy.
    StaleSharer(LineAddr, Home, CoreId),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Violation::Swmr(line, (c, s), (p, ps))
            | Violation::OwnerCoexistence(line, (c, s), (p, ps)) => {
                let rule = match self {
                    Violation::Swmr(..) => "SWMR",
                    _ => "coexistence",
                };
                let (c, p) = (c.0, p.0);
                write!(
                    f,
                    "{rule} violation: core {c} holds {line} in {s} while core {p} holds it in {ps}"
                )
            }
            Violation::EdNoSharers(line, h) => write!(f, "{h}ED entry {line} tracks no sharers"),
            Violation::EdAndTd(line, h) => write!(f, "{h}line {line} resident in both ED and TD"),
            Violation::VdAliasing(line, h, live, vd) => {
                let dir = if matches!(live, DirWhere::Ed(_)) {
                    "ED"
                } else {
                    "TD"
                };
                write!(
                    f,
                    "{h}line {line} has a live {dir} entry but also VD entries (cores {vd:?})"
                )
            }
            Violation::DatalessTd(line, h) => {
                write!(f, "{h}TD entry {line} is data-less under the Skylake quirk")
            }
            Violation::EmptyTd(line, h) => {
                write!(f, "{h}TD entry {line} has neither LLC data nor sharers")
            }
            Violation::Inclusion(line, h, (core, state), entry) => {
                write!(f, "{core} holds {line} ({state}) but ")?;
                match entry {
                    None => write!(f, "{} has no directory entry", SliceId(h.slice)),
                    Some(w) => write!(f, "directory entry {w:?} does not list it"),
                }
            }
            Violation::StaleSharer(line, h, core) => write!(
                f,
                "stale sharer: slice {} lists {core} for {line} but its L2 holds no copy",
                h.slice
            ),
        }
    }
}

/// Checks every invariant of one line, in order: SWMR, owner
/// coexistence, the structure rules, inclusion, then sharer soundness.
/// Allocation-free.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_line(v: &LineView<'_>) -> Result<(), Violation> {
    let (line, d) = (v.line, &v.dir);
    let copies = v.holders.iter().enumerate().map(|(i, &s)| (CoreId(i), s));
    for a @ (core, state) in copies.clone() {
        if !(state.can_write_silently() || state.is_dirty()) {
            continue; // Shared: anything goes.
        }
        for b @ (peer, peer_state) in copies.clone() {
            if peer == core || !peer_state.is_valid() {
                continue;
            }
            if state.can_write_silently() {
                return Err(Violation::Swmr(line, a, b));
            }
            if peer_state.can_write_silently() || peer_state.is_dirty() {
                return Err(Violation::OwnerCoexistence(line, a, b));
            }
        }
    }

    let home = Home {
        slice: v.slice,
        partition: d.partition,
    };
    let broken: Option<fn(LineAddr, Home) -> Violation> = match (d.ed, d.td) {
        (Some(e), _) if e.sharers.is_empty() => Some(Violation::EdNoSharers),
        (Some(_), Some(_)) => Some(Violation::EdAndTd),
        (None, Some(t)) if v.quirk && !t.has_data => Some(Violation::DatalessTd),
        (None, Some(t)) if !t.has_data && t.sharers.is_empty() => Some(Violation::EmptyTd),
        _ => None,
    };
    if let Some(rule) = broken {
        return Err(rule(line, home));
    }
    // At most one of ED and TD is left, and `locate` names it first.
    let entry = d.locate();
    if let Some(live @ (DirWhere::Ed(_) | DirWhere::Td { .. })) = entry {
        if !d.vd.is_empty() {
            return Err(Violation::VdAliasing(line, home, live, d.vd));
        }
    }

    // The structure rules leave at most one entry, so it alone is what
    // inclusion and soundness compare the caches against.
    let listed = entry.map_or(SharerSet::empty(), |w| w.sharers());
    if let Some(copy) = copies
        .clone()
        .find(|&(c, s)| s.is_valid() && !listed.contains(c))
    {
        return Err(Violation::Inclusion(line, home, copy, entry));
    }
    let unheld = |c: &CoreId| !v.holders.get(c.0).is_some_and(|s| s.is_valid());
    let stale = listed.iter().find(unheld);
    stale.map_or(Ok(()), |core| Err(Violation::StaleSharer(line, home, core)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use Moesi::{Exclusive as E, Invalid as I, Modified as M, Owned as O, Shared as S};

    fn ed(cores: &[usize]) -> DirParts {
        DirParts {
            ed: Some(EdEntry {
                sharers: cores.iter().map(|&c| CoreId(c)).collect(),
            }),
            ..DirParts::default()
        }
    }

    fn td(cores: &[usize], has_data: bool) -> DirParts {
        DirParts {
            td: Some(TdEntry {
                sharers: cores.iter().map(|&c| CoreId(c)).collect(),
                has_data,
                llc_dirty: false,
            }),
            ..DirParts::default()
        }
    }

    fn check(holders: &[Moesi], dir: DirParts, quirk: bool) -> Result<(), Violation> {
        check_line(&LineView {
            line: LineAddr::new(0x40),
            slice: 2,
            holders,
            dir,
            quirk,
        })
    }

    #[test]
    fn clean_lines_pass() {
        assert_eq!(check(&[I, I], DirParts::default(), true), Ok(()));
        assert_eq!(check(&[S, O], ed(&[0, 1]), false), Ok(()));
        assert_eq!(check(&[I, M], td(&[1], true), true), Ok(()));
        assert_eq!(check(&[I, I], td(&[], true), true), Ok(()));
        let vd = DirParts {
            vd: SharerSet::single(CoreId(0)),
            ..DirParts::default()
        };
        assert_eq!(check(&[E, I], vd, false), Ok(()));
    }

    #[test]
    fn each_rule_is_named_in_order() {
        let err = |holders: &[Moesi], dir, quirk| check(holders, dir, quirk).unwrap_err();
        assert!(matches!(
            err(&[S, E], ed(&[0]), false),
            Violation::Swmr(_, (CoreId(1), E), (CoreId(0), S))
        ));
        assert!(matches!(
            err(&[O, O], ed(&[0, 1]), false),
            Violation::OwnerCoexistence(..)
        ));
        assert!(matches!(
            err(&[S, I], ed(&[]), false),
            Violation::EdNoSharers(..)
        ));
        let both = DirParts {
            td: td(&[0], true).td,
            ..ed(&[0])
        };
        assert!(matches!(err(&[S, I], both, false), Violation::EdAndTd(..)));
        let alias = DirParts {
            vd: SharerSet::single(CoreId(1)),
            ..td(&[0], true)
        };
        assert!(matches!(
            err(&[S, S], alias, false),
            Violation::VdAliasing(_, _, DirWhere::Td { .. }, _)
        ));
        assert!(matches!(
            err(&[S, I], td(&[0], false), true),
            Violation::DatalessTd(..)
        ));
        assert!(matches!(
            err(&[I, I], td(&[], false), false),
            Violation::EmptyTd(..)
        ));
        assert!(matches!(
            err(&[S, S], ed(&[0]), false),
            Violation::Inclusion(_, _, (CoreId(1), S), Some(_))
        ));
        assert!(matches!(
            err(&[I, I], ed(&[0, 5]), false),
            Violation::StaleSharer(_, _, CoreId(0))
        ));
        assert!(matches!(
            err(&[I], ed(&[5]), false),
            Violation::StaleSharer(_, _, CoreId(5))
        ));
    }

    #[test]
    fn display_keeps_the_oracle_wording() {
        let line = LineAddr::new(0xc00);
        let home = Home {
            slice: 2,
            partition: None,
        };
        let (live, vd) = (
            DirWhere::Ed(SharerSet::single(CoreId(0))),
            SharerSet::single(CoreId(1)),
        );
        let alias = Violation::VdAliasing(line, home, live, vd);
        assert_eq!(
            alias.to_string(),
            "slice 2: line 0xc00 has a live ED entry but also VD entries (cores SharerSet{1})"
        );
        let partitioned = Home {
            partition: Some(1),
            ..home
        };
        assert_eq!(
            Violation::EdNoSharers(line, partitioned).to_string(),
            "slice 2: partition 1: ED entry 0xc00 tracks no sharers"
        );
        let untracked = Violation::Inclusion(line, partitioned, (CoreId(1), E), None);
        assert_eq!(
            untracked.to_string(),
            "core1 holds 0xc00 (E) but slice2 has no directory entry"
        );
        let swmr = Violation::Swmr(line, (CoreId(0), M), (CoreId(3), S));
        assert_eq!(
            swmr.to_string(),
            "SWMR violation: core 0 holds 0xc00 in M while core 3 holds it in S"
        );
    }
}
