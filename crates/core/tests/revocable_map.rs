//! The revocation-safe cache's rules, checked once for every cache built
//! on it (the verified-chain memo, the servlet's identical-request cache,
//! the RMI proof cache, MAC sessions).
//!
//! Claims under test: an insert racing a revocation push either is
//! refused or is evicted by it — never both missed; expired entries miss
//! and are reclaimed; a capped map stays within its bound, oldest first;
//! a push evicts exactly the entries naming the revoked certificate; and
//! the built-in counters count each of those events.

use snowflake_core::{CacheStats, HashVal, RevocableMap, RevocationBus, Time};
use std::sync::{Arc, Barrier};

fn h(s: &str) -> HashVal {
    HashVal::of(s.as_bytes())
}

fn certs(names: &[&str]) -> Arc<[HashVal]> {
    names.iter().map(|n| h(n)).collect()
}

#[test]
fn push_before_insert_refuses_the_stale_insert() {
    let map: RevocableMap<&str, u32> = RevocableMap::new();
    let epoch = map.epoch(); // read before "verifying"
    map.evict_cert(&h("c")); // the push lands mid-verification
    assert!(!map.insert("k", 1, certs(&["c"]), None, Time(0), epoch));
    assert_eq!(map.get(&"k", Time(0), |v, _| Some(*v)), None);
    assert!(map.is_empty());
    // Re-verifying under the fresh epoch lands.
    assert!(map.insert("k", 1, certs(&["c"]), None, Time(0), map.epoch()));
    assert_eq!(map.get(&"k", Time(0), |v, _| Some(*v)), Some(1));
}

#[test]
fn insert_before_push_is_evicted_by_it() {
    let map: RevocableMap<&str, u32> = RevocableMap::new();
    let epoch = map.epoch();
    assert!(map.insert("k", 1, certs(&["c"]), None, Time(0), epoch));
    assert_eq!(map.evict_cert(&h("c")), 1);
    assert_eq!(map.get(&"k", Time(0), |v, _| Some(*v)), None);
}

/// Both orderings, raced on real threads: whichever wins the shard lock,
/// an insert whose epoch was read before the push never survives it.
#[test]
fn racing_insert_never_outlives_the_push() {
    for round in 0..200 {
        let map: Arc<RevocableMap<u32, ()>> = Arc::new(RevocableMap::new());
        let start = Arc::new(Barrier::new(2));
        let inserter = {
            let (map, start) = (Arc::clone(&map), Arc::clone(&start));
            std::thread::spawn(move || {
                let epoch = map.epoch();
                start.wait();
                map.insert(round, (), certs(&["c"]), None, Time(0), epoch)
            })
        };
        start.wait();
        let evicted = map.evict_cert(&h("c"));
        let landed = inserter.join().unwrap();
        assert!(map.is_empty(), "round {round}: stale entry survived");
        // Exactly one of the two orderings happened.
        assert_eq!(landed, evicted == 1, "round {round}");
    }
}

#[test]
fn expired_entries_miss_and_are_reclaimed() {
    let map: RevocableMap<u32, ()> = RevocableMap::new();
    let epoch = map.epoch();
    map.insert(0, (), certs(&[]), Some(Time(100)), Time(0), epoch);
    assert!(
        map.get(&0, Time(100), |_, _| Some(())).is_some(),
        "live at the bound"
    );
    assert!(
        map.get(&0, Time(101), |_, _| Some(())).is_none(),
        "dead past it"
    );
    assert!(map.is_empty(), "an expired lookup reclaims the entry");

    // Inserts sweep: after many short-lived entries, inserting past their
    // expiry reclaims them without any explicit sweep.
    for k in 0..64 {
        map.insert(k, (), certs(&[]), Some(Time(100)), Time(0), epoch);
    }
    for k in 64..128 {
        map.insert(k, (), certs(&[]), None, Time(500), epoch);
    }
    assert!(map.len() < 128, "no insert swept an expired entry");
    let resident = map.len();
    assert_eq!(map.sweep(Time(500)), resident - 64);
    assert_eq!(map.len(), 64);
    // `peek` ignores expiry; the caller judges validity itself.
    map.insert(1_000, (), certs(&[]), Some(Time(600)), Time(500), epoch);
    assert!(map.peek(&1_000, |_| ()).is_some());
    assert!(map.get(&1_000, Time(601), |_, _| Some(())).is_none());
}

#[test]
fn read_can_declare_an_entry_dead() {
    let map: RevocableMap<u32, Time> = RevocableMap::new();
    map.insert(0, Time(10), certs(&[]), None, Time(10), map.epoch());
    // A lookup from before the entry was verified refuses (and drops) it.
    assert!(map
        .get(&0, Time(5), |at, _| (Time(5) >= *at).then_some(()))
        .is_none());
    assert!(map.is_empty());
}

#[test]
fn capacity_bound_evicts_oldest_first() {
    let map: RevocableMap<u32, ()> = RevocableMap::with_capacity(16); // 1 per shard
    let epoch = map.epoch();
    for k in 0..64 {
        map.insert(k, (), certs(&[]), None, Time(0), epoch);
    }
    assert!(map.len() <= 16, "len {} exceeds the bound", map.len());
    assert_eq!(map.stats().evictions, 64 - map.len() as u64);
    // The newest key is always resident: FIFO evicts before inserting.
    assert!(map.peek(&63, |_| ()).is_some());
    // Replacing a resident key evicts nothing.
    let before = map.stats().evictions;
    map.insert(63, (), certs(&[]), None, Time(0), epoch);
    assert_eq!(map.stats().evictions, before);
}

#[test]
fn eviction_leaves_unrelated_entries_untouched() {
    let map: RevocableMap<&str, u32> = RevocableMap::new();
    let epoch = map.epoch();
    map.insert("ab", 1, certs(&["a", "b"]), None, Time(0), epoch);
    map.insert("b", 2, certs(&["b"]), None, Time(0), epoch);
    map.insert("c", 3, certs(&["c"]), None, Time(0), epoch);
    map.insert("none", 4, certs(&[]), None, Time(0), epoch);
    assert_eq!(map.certificate_revoked(&h("unrelated")), 0);
    assert_eq!(map.certificate_revoked(&h("b")), 2);
    let alive: Vec<_> = ["ab", "b", "c", "none"]
        .iter()
        .filter(|k| map.peek(k, |_| ()).is_some())
        .copied()
        .collect();
    assert_eq!(alive, ["c", "none"]);
    // The provenance handed to readers is the inserted one.
    assert_eq!(
        map.get(&"c", Time(0), |_, c| Some(c.to_vec())),
        Some(vec![h("c")])
    );
}

/// Entries whose `Hash` covers only a prefix are found together by `find`.
#[test]
fn find_scans_the_prefix_shard() {
    #[derive(Clone, PartialEq, Eq)]
    struct Key(u32, u32);
    impl std::hash::Hash for Key {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            self.0.hash(state);
        }
    }
    let map: RevocableMap<Key, &str> = RevocableMap::new();
    let epoch = map.epoch();
    for (group, item, v) in [(1, 1, "x"), (1, 2, "y"), (2, 1, "z")] {
        map.insert(Key(group, item), v, certs(&[]), None, Time(0), epoch);
    }
    let pick =
        |want: &'static str| map.find(&1u32, |k, v, _| (k.0 == 1 && *v == want).then_some(k.1));
    assert_eq!(pick("y"), Some(2));
    assert_eq!(pick("z"), None, "another group's entry is not matched");
}

#[test]
fn counters_count_each_event() {
    let map: RevocableMap<u32, ()> = RevocableMap::with_capacity(16);
    let stale = map.epoch();
    map.insert(1, (), certs(&["c"]), None, Time(0), stale); // insert
    map.insert(2, (), certs(&[]), Some(Time(10)), Time(0), stale); // insert
    map.get(&1, Time(0), |_, _| Some(())); // hit
    map.get(&3, Time(0), |_, _| Some(())); // miss
    map.get(&2, Time(20), |_, _| Some(())); // expired: miss + eviction
    map.evict_cert(&h("c")); // revocation eviction
    map.insert(4, (), certs(&[]), None, Time(0), stale); // refused: not counted
    assert_eq!(
        map.stats(),
        CacheStats {
            hits: 1,
            misses: 2,
            inserts: 2,
            evictions: 1,
            revocation_evictions: 1,
            entries: 0,
        }
    );
    map.insert(5, (), certs(&[]), None, Time(0), map.epoch());
    assert_eq!(map.stats().entries, 1);
    map.clear();
    assert_eq!(map.stats().entries, 0);
}
