//! Property-based tests of the set-associative array against a reference
//! model.
#![allow(clippy::iter_over_hash_type, reason = "order-free checks")]

use std::collections::HashMap;

use proptest::prelude::*;
use secdir_cache::{Geometry, ReplacementPolicy, SetAssoc};
use secdir_mem::LineAddr;

#[derive(Clone, Debug)]
enum Op {
    Insert(u64, u32),
    Remove(u64),
    Access(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..256, any::<u32>()).prop_map(|(l, p)| Op::Insert(l, p)),
            (0u64..256).prop_map(Op::Remove),
            (0u64..256).prop_map(Op::Access),
        ],
        1..300,
    )
}

fn policies() -> impl Strategy<Value = ReplacementPolicy> {
    prop_oneof![
        Just(ReplacementPolicy::Lru),
        Just(ReplacementPolicy::Random),
        Just(ReplacementPolicy::Nru),
    ]
}

proptest! {
    /// The array behaves like a map whose entries may only disappear
    /// through explicit removal or a reported eviction.
    #[test]
    fn matches_reference_model(ops in ops(), policy in policies(), seed in any::<u64>()) {
        let geometry = Geometry::new(8, 2);
        let mut sut: SetAssoc<u32> = SetAssoc::new(geometry, policy, seed);
        let mut model: HashMap<u64, u32> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(l, p) => {
                    if let Some(ev) = sut.insert(LineAddr::new(l), p) {
                        let removed = model.remove(&ev.line.value());
                        prop_assert_eq!(removed, Some(ev.payload), "evicted entry unknown to model");
                    }
                    model.insert(l, p);
                }
                Op::Remove(l) => {
                    prop_assert_eq!(sut.remove(LineAddr::new(l)), model.remove(&l));
                }
                Op::Access(l) => {
                    prop_assert_eq!(sut.access(LineAddr::new(l)).map(|p| *p), model.get(&l).copied());
                }
            }
            prop_assert_eq!(sut.len(), model.len());
        }
        // Final state: every modeled entry is present and vice versa.
        for (&l, &p) in &model {
            prop_assert_eq!(sut.get(LineAddr::new(l)), Some(&p));
        }
        for (line, &p) in sut.iter() {
            prop_assert_eq!(model.get(&line.value()), Some(&p));
        }
    }

    /// No set ever holds more entries than its associativity.
    #[test]
    fn associativity_is_never_exceeded(lines in prop::collection::vec(0u64..1024, 1..500),
                                       policy in policies()) {
        let geometry = Geometry::new(4, 3);
        let mut sut: SetAssoc<()> = SetAssoc::new(geometry, policy, 1);
        for l in lines {
            sut.insert(LineAddr::new(l), ());
            for set in 0..4 {
                prop_assert!(sut.set_occupancy(set) <= 3);
            }
        }
        prop_assert!(sut.len() <= geometry.lines());
    }

    /// The flat-storage invariants hold after every mutation: the valid
    /// bitmask and the `TAG_INVALID` sentinel agree way-for-way, tags sit
    /// in the set they hash to, no set holds a duplicate tag, and `len`
    /// equals the mask popcount (all via `check_storage`).
    #[test]
    fn storage_stays_consistent(ops in ops(), policy in policies(), seed in any::<u64>()) {
        let mut sut: SetAssoc<u32> = SetAssoc::new(Geometry::new(8, 2), policy, seed);
        prop_assert_eq!(sut.check_storage(), Ok(()));
        for op in ops {
            match op {
                Op::Insert(l, p) => { sut.insert(LineAddr::new(l), p); }
                Op::Remove(l) => { sut.remove(LineAddr::new(l)); }
                Op::Access(l) => { sut.access(LineAddr::new(l)); }
            }
            prop_assert_eq!(sut.check_storage(), Ok(()));
        }
    }

    /// `lookup` → `take` round-trips the payload, frees the way (the
    /// bitmask and sentinel agree afterwards), and leaves the line absent.
    #[test]
    fn lookup_take_round_trip(fill in prop::collection::vec((0u64..64, any::<u32>()), 1..40),
                              victim in 0usize..40,
                              policy in policies()) {
        let mut sut: SetAssoc<u32> = SetAssoc::new(Geometry::new(4, 4), policy, 7);
        let mut last = None;
        for &(l, p) in &fill {
            sut.insert(LineAddr::new(l), p);
            last = Some(l);
        }
        // Pick a resident line (fall back to the last inserted one).
        let resident: Vec<u64> = sut.iter().map(|(l, _)| l.value()).collect();
        let target = LineAddr::new(*resident.get(victim % resident.len())
            .unwrap_or(&last.unwrap()));
        let expected = sut.get(target).copied();
        let way = sut.lookup(target);
        prop_assert_eq!(way.is_some(), expected.is_some());
        if let Some(way) = way {
            prop_assert!(sut.way_occupied(way));
            let before = sut.len();
            let payload = sut.take(way);
            prop_assert_eq!(Some(payload), expected);
            prop_assert!(!sut.way_occupied(way), "taken way must free its valid bit");
            prop_assert_eq!(sut.len(), before - 1);
            prop_assert_eq!(sut.lookup(target), None);
            prop_assert_eq!(sut.check_storage(), Ok(()));
        }
    }

    /// LRU evicts the least recently *touched* entry of the set.
    #[test]
    fn lru_eviction_order(fill in prop::collection::vec(0u64..64, 3..20)) {
        // Single-set cache: all lines conflict.
        let mut sut: SetAssoc<u64> = SetAssoc::new(
            Geometry::new(1, 2),
            ReplacementPolicy::Lru,
            0,
        );
        let mut recency: Vec<u64> = Vec::new(); // most recent last
        for l in fill {
            recency.retain(|&x| x != l);
            recency.push(l);
            if let Some(ev) = sut.insert(LineAddr::new(l), l) {
                let pos = recency.iter().position(|&x| x == ev.line.value());
                // The evicted line must be the oldest resident one.
                prop_assert_eq!(pos, Some(0), "evicted {:?}, recency {:?}", ev.line, recency);
                recency.remove(0);
            }
            prop_assert!(recency.len() <= 2);
        }
    }
}
