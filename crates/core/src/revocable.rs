//! One revocation-safe cache, [`RevocableMap`], and the [`RevocationBus`]
//! that pushes revocations into it.
//!
//! Each entry names its provenance (the certificates its verification
//! depended on), [`RevocableMap::evict_cert`] drops exactly the entries
//! naming a revoked certificate, and an answer verified before a push can
//! never land after the eviction that should have killed it (see
//! [`RevocableMap::insert`]).  `docs/authz.md` ("Revocable caches") lists
//! the caches built on it.

use crate::statement::Time;
use crate::sync::LockExt;
use snowflake_crypto::HashVal;
use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A warm cache that can evict everything built from one certificate.
pub trait RevocationBus: Send + Sync {
    /// Evicts all state depending on the certificate with this hash and
    /// returns how many entries were dropped.
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize;
}

// A shared handle to a bus is a bus, so subsystems that live behind an
// `Arc` drop straight into a fan-out without a wrapper type.
impl<T: RevocationBus + ?Sized> RevocationBus for Arc<T> {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        (**self).certificate_revoked(cert_hash)
    }
}

const SHARDS: usize = 16;

/// Shard size at which an insert first sweeps expired entries; later
/// sweeps wait until the shard doubles past what the last one kept.
const SWEEP_FLOOR: usize = 4;

struct Entry<V> {
    value: V,
    certs: Arc<[HashVal]>,
    valid_until: Option<Time>,
}

impl<V> Entry<V> {
    fn live(&self, now: Time) -> bool {
        self.valid_until.is_none_or(|until| now <= until)
    }
}

struct Shard<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// Insertion order for the FIFO bound (capped maps only); may hold
    /// keys already removed, which are skipped when popped.
    order: VecDeque<K>,
    sweep_at: usize,
}

/// Counter snapshot of a [`RevocableMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the map.
    pub hits: u64,
    /// Lookups that found no live entry.
    pub misses: u64,
    /// Inserts that landed (one refused by the epoch check does not count).
    pub inserts: u64,
    /// Entries dropped by the capacity bound (FIFO) or by expiry.
    pub evictions: u64,
    /// Entries dropped because their provenance names a revoked
    /// certificate.
    pub revocation_evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    revocation_evictions: AtomicU64,
}

fn bump(counter: &AtomicU64, by: usize) {
    counter.fetch_add(by as u64, Ordering::Relaxed);
}

/// A sharded map whose entries die with the certificates they were
/// verified from (see the module docs for its rules).
///
/// Keys are spread over 16 locked shards by their `Hash`.  Callbacks run
/// under the one shard lock they need, so they should copy out what they
/// need and return; expensive work (an HMAC, an exponentiation) belongs
/// outside.
pub struct RevocableMap<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    per_shard_cap: Option<usize>,
    epoch: AtomicU64,
    counters: Counters,
}

impl<K: Hash + Eq + Clone, V> Default for RevocableMap<K, V> {
    fn default() -> Self {
        Self::build(None)
    }
}

impl<K: Hash + Eq + Clone, V> RevocableMap<K, V> {
    /// An empty map bounded by expiry alone.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map that also holds at most about `capacity` entries,
    /// evicting the oldest insert of a full shard first.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(Some(capacity.div_ceil(SHARDS).max(1)))
    }

    fn build(per_shard_cap: Option<usize>) -> Self {
        let shard = || Shard {
            entries: HashMap::new(),
            order: VecDeque::new(),
            sweep_at: SWEEP_FLOOR,
        };
        RevocableMap {
            shards: (0..SHARDS).map(|_| Mutex::new(shard())).collect(),
            per_shard_cap,
            epoch: AtomicU64::new(0),
            counters: Counters::default(),
        }
    }

    /// The shard holding keys that hash like `key`.  The hasher has fixed
    /// keys, so a key type whose `Hash` covers only part of the key finds
    /// every key sharing that part in one shard ([`Self::find`]).
    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[h.finish() as usize % SHARDS]
    }

    /// The revocation epoch.  Read it *before* verifying whatever will be
    /// inserted, and pass it to [`Self::insert`].
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Inserts (or replaces) `key`, returning `false` without inserting
    /// when a revocation was pushed since `epoch` was read: the value was
    /// verified against superseded state.  `certs` is the value's
    /// provenance; past `valid_until` the entry is dead.  `now` drives the
    /// amortized expiry sweep of the key's shard.
    pub fn insert(
        &self,
        key: K,
        value: V,
        certs: Arc<[HashVal]>,
        valid_until: Option<Time>,
        now: Time,
        epoch: u64,
    ) -> bool {
        let mut shard = self.shard(&key).plock();
        // Checked *under* the shard lock.  `evict_cert` bumps the epoch
        // before locking any shard, so holding the lock leaves exactly two
        // orderings: the eviction already scanned this shard (then its
        // bump is visible here and the stale insert is refused), or it has
        // not yet (then it will see — and judge — whatever lands now).  A
        // pre-lock check would leave a third: check passes, the whole
        // eviction runs, *then* the stale entry lands and outlives it.
        if self.epoch.load(Ordering::SeqCst) != epoch {
            return false;
        }
        if shard.entries.len().max(shard.order.len()) >= shard.sweep_at {
            self.sweep_shard(&mut shard, now);
        }
        if let (Some(cap), false) = (self.per_shard_cap, shard.entries.contains_key(&key)) {
            while shard.entries.len() >= cap {
                let Some(old) = shard.order.pop_front() else {
                    break;
                };
                if shard.entries.remove(&old).is_some() {
                    bump(&self.counters.evictions, 1);
                }
            }
            shard.order.push_back(key.clone());
        }
        let entry = Entry {
            value,
            certs,
            valid_until,
        };
        shard.entries.insert(key, entry);
        bump(&self.counters.inserts, 1);
        true
    }

    /// Looks `key` up at `now`.  A live entry is handed to `read` with its
    /// provenance; `read` may declare it dead by returning `None`.  A dead
    /// entry (expired, or refused by `read`) is removed and misses.
    pub fn get<R>(
        &self,
        key: &K,
        now: Time,
        read: impl FnOnce(&V, &Arc<[HashVal]>) -> Option<R>,
    ) -> Option<R> {
        let mut shard = self.shard(key).plock();
        let Some(entry) = shard.entries.get(key) else {
            self.count_lookup(false);
            return None;
        };
        let found = entry
            .live(now)
            .then(|| read(&entry.value, &entry.certs))
            .flatten();
        if found.is_none() {
            shard.entries.remove(key);
            bump(&self.counters.evictions, 1);
        }
        self.count_lookup(found.is_some());
        found
    }

    /// Reads `key` whether or not it has expired, for a caller that judges
    /// the value's validity itself and keeps it past a lookup with a later
    /// clock.  Counts one hit or one miss.
    pub fn peek<R>(&self, key: &K, read: impl FnOnce(&V) -> R) -> Option<R> {
        let shard = self.shard(key).plock();
        let found = shard.entries.get(key).map(|e| read(&e.value));
        self.count_lookup(found.is_some());
        found
    }

    /// Scans the one shard that keys hashing like `near` live in and
    /// returns the first `pick` answer, expired entries included (`pick`
    /// judges validity).  Meant for keys whose `Hash` covers only a prefix
    /// (`near`) of the key: all entries sharing that prefix are found
    /// without visiting other shards.  Counts one hit or one miss.
    pub fn find<Q: Hash + ?Sized, R>(
        &self,
        near: &Q,
        mut pick: impl FnMut(&K, &V, &Arc<[HashVal]>) -> Option<R>,
    ) -> Option<R> {
        let shard = self.shard(near).plock();
        let found = shard
            .entries
            .iter()
            .find_map(|(k, e)| pick(k, &e.value, &e.certs));
        self.count_lookup(found.is_some());
        found
    }

    fn count_lookup(&self, hit: bool) {
        let n = &self.counters;
        bump(if hit { &n.hits } else { &n.misses }, 1);
    }

    /// Drops every entry whose provenance names `cert_hash`, returning how
    /// many died.  Bumps the epoch first, so a verification in flight
    /// cannot insert its pre-revocation answer afterwards.
    pub fn evict_cert(&self, cert_hash: &HashVal) -> usize {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let mut dropped = 0;
        for shard in self.shards.iter() {
            let mut shard = shard.plock();
            let before = shard.entries.len();
            shard.entries.retain(|_, e| !e.certs.contains(cert_hash));
            dropped += before - shard.entries.len();
        }
        bump(&self.counters.revocation_evictions, dropped);
        dropped
    }

    /// Removes every entry expired at `now`, returning how many.
    pub fn sweep(&self, now: Time) -> usize {
        let shards = self.shards.iter();
        shards.map(|s| self.sweep_shard(&mut s.plock(), now)).sum()
    }

    fn sweep_shard(&self, shard: &mut Shard<K, V>, now: Time) -> usize {
        let before = shard.entries.len();
        shard.entries.retain(|_, e| e.live(now));
        let entries = &shard.entries;
        shard.order.retain(|k| entries.contains_key(k));
        shard.sweep_at = (2 * entries.len()).max(SWEEP_FLOOR);
        let dropped = before - entries.len();
        bump(&self.counters.evictions, dropped);
        dropped
    }

    /// Drops every entry (not counted as evictions).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut shard = shard.plock();
            shard.entries.clear();
            shard.order.clear();
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.plock().entries.len()).sum()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let n = &self.counters;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CacheStats {
            hits: load(&n.hits),
            misses: load(&n.misses),
            inserts: load(&n.inserts),
            evictions: load(&n.evictions),
            revocation_evictions: load(&n.revocation_evictions),
            entries: self.len() as u64,
        }
    }
}

impl<K: Hash + Eq + Clone + Send, V: Send> RevocationBus for RevocableMap<K, V> {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        self.evict_cert(cert_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_spread_over_shards() {
        let map: RevocableMap<u32, ()> = RevocableMap::new();
        for k in 0..64 {
            map.insert(k, (), Arc::from([]), None, Time(0), map.epoch());
        }
        let populated = map
            .shards
            .iter()
            .filter(|s| !s.plock().entries.is_empty())
            .count();
        assert!(populated > 1, "every key landed in one shard");
    }
}
