//! Property-based tests of the Victim Directory bank.

use std::collections::HashSet;

use proptest::prelude::*;
use secdir::{VdBank, VdHashing};
use secdir_cache::Geometry;
use secdir_mem::{LineAddr, SkewHash};

fn hashings() -> impl Strategy<Value = VdHashing> {
    prop_oneof![
        Just(VdHashing::Cuckoo { num_relocations: 8 }),
        Just(VdHashing::Cuckoo { num_relocations: 1 }),
        Just(VdHashing::Plain),
    ]
}

proptest! {
    /// The bank tracks exactly the inserted-minus-displaced-minus-removed
    /// set, and its reported length matches.
    #[test]
    fn bank_matches_reference_model(
        lines in prop::collection::vec(0u64..10_000, 1..400),
        removes in prop::collection::vec(0u64..10_000, 0..100),
        hashing in hashings(),
        seed in any::<u64>(),
    ) {
        let mut bank = VdBank::new(Geometry::new(16, 2), hashing, true, seed);
        let mut model: HashSet<u64> = HashSet::new();
        for l in lines {
            let r = bank.insert(LineAddr::new(l));
            model.insert(l);
            if let Some(d) = r.displaced {
                prop_assert!(model.remove(&d.value()), "displaced unknown line {d}");
            }
            prop_assert_eq!(bank.len(), model.len());
        }
        for l in removes {
            prop_assert_eq!(bank.remove(LineAddr::new(l)), model.remove(&l));
        }
        for &l in &model {
            prop_assert!(bank.contains(LineAddr::new(l)), "model line {l} missing");
        }
        prop_assert_eq!(bank.iter().count(), model.len());
    }

    /// Capacity is a hard bound, whatever the insertion pattern.
    #[test]
    fn capacity_never_exceeded(
        lines in prop::collection::vec(0u64..1_000_000, 1..600),
        hashing in hashings(),
    ) {
        let geometry = Geometry::new(8, 4);
        let mut bank = VdBank::new(geometry, hashing, true, 3);
        for l in lines {
            bank.insert(LineAddr::new(l));
            prop_assert!(bank.len() <= geometry.lines());
        }
    }

    /// The Empty Bit never contradicts the contents: if it filters a
    /// lookup out, the line is definitely absent.
    #[test]
    fn empty_bit_is_sound(
        lines in prop::collection::vec(0u64..4096, 1..200),
        probes in prop::collection::vec(0u64..4096, 1..200),
    ) {
        let mut bank = VdBank::new(
            Geometry::new(32, 4),
            VdHashing::Cuckoo { num_relocations: 8 },
            true,
            9,
        );
        for l in lines {
            bank.insert(LineAddr::new(l));
        }
        for p in probes {
            let line = LineAddr::new(p);
            if bank.eb_filters_out(line) {
                prop_assert!(!bank.contains(line), "EB filtered a resident line {line}");
            }
        }
    }

    /// A line's candidate sets are the bank's skewed hashes of the line,
    /// whatever the bank's seed, and the set-taking forms agree with
    /// `contains` and `eb_filters_out` on every line of the universe —
    /// here with the sets a sibling bank of another seed computed, as a
    /// slice hands one bank's sets to all of its banks. A fill of more
    /// distinct lines than the bank's eight entries must run the cuckoo
    /// relocation chain.
    #[test]
    fn set_taking_forms_agree_with_the_line_forms(
        lines in prop::collection::vec(0u64..512, 24..200),
        hashing in hashings(),
        empty_bit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let geometry = Geometry::new(4, 2);
        let mut bank = VdBank::new(geometry, hashing, empty_bit, seed);
        let sibling = VdBank::new(geometry, hashing, empty_bit, !seed);
        let (mut model, mut relocations) = (HashSet::new(), 0);
        let distinct = lines.iter().collect::<HashSet<_>>().len();
        for &l in &lines {
            let r = bank.insert(LineAddr::new(l));
            relocations += r.relocations;
            model.insert(l);
            if let Some(d) = r.displaced {
                model.remove(&d.value());
            }
        }
        if hashing != VdHashing::Plain && distinct > geometry.lines() {
            prop_assert!(relocations > 0, "the fill never relocated");
        }
        let hashes = [SkewHash::new(0, 4), SkewHash::new(1, 4)];
        let active = if hashing == VdHashing::Plain { 1 } else { 2 };
        for l in 0..512 {
            let line = LineAddr::new(l);
            let sets = sibling.candidate_sets(line);
            prop_assert_eq!(sets, bank.candidate_sets(line));
            let expected: Vec<usize> = hashes[..active].iter().map(|h| h.index(line)).collect();
            prop_assert_eq!(sets.as_slice(), &expected[..]);
            prop_assert_eq!(bank.contains_at(sets, line), model.contains(&l));
            prop_assert_eq!(bank.contains_at(sets, line), bank.contains(line));
            prop_assert_eq!(bank.eb_filters_out_at(sets), bank.eb_filters_out(line));
            if !empty_bit {
                prop_assert!(!bank.eb_filters_out_at(sets));
            }
        }
    }

    /// Relocations never exceed the configured budget, and insertion is
    /// idempotent.
    #[test]
    fn relocation_budget_respected(
        lines in prop::collection::vec(0u64..100_000, 1..400),
        budget in 1u32..12,
    ) {
        let mut bank = VdBank::new(
            Geometry::new(4, 2),
            VdHashing::Cuckoo { num_relocations: budget },
            true,
            1,
        );
        for l in lines {
            let line = LineAddr::new(l);
            let r = bank.insert(line);
            prop_assert!(r.relocations <= budget);
            // The new entry is either resident, or it is itself the entry
            // the exhausted relocation chain dropped — never silently lost.
            prop_assert!(bank.contains(line) || r.displaced == Some(line));
            if bank.contains(line) {
                let again = bank.insert(line);
                prop_assert_eq!(again.relocations, 0, "re-insert must be a no-op");
                prop_assert!(again.displaced.is_none());
            }
        }
    }
}
