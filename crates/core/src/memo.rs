//! The verified-chain memo: re-presented proofs skip big-int work.
//!
//! The same proof chains arrive over and over — every request on a MAC
//! session, every RMI call from a cached client, every broker publish —
//! and between revocation events nothing about their verification
//! changes.  [`ChainMemo`] is a bounded, sharded map from
//! `(proof hash, context fingerprint)` to a successful verification,
//! consulted by `VerifyCtx::verify_cached` before any exponentiation
//! happens.
//!
//! **Soundness.**  Only *successful* verifications are memoized, and a
//! hit requires three things to line up:
//!
//! 1. the **proof hash** — the exact certificate chain and inference
//!    structure (the canonical encoding, so any re-signed or restructured
//!    proof is a different key);
//! 2. the **context fingerprint** — computed fresh by the caller at
//!    lookup time, folding together which assumption leaves the context
//!    vouches for (the trust-anchor set), the content hash (over the
//!    full signed wire form) of every revocation artifact governing a
//!    certificate in the chain, and the context's revocation epoch.  Any
//!    newly installed CRL — even a same-serial reissue with a different
//!    revoked set — expired revalidation, or changed assumption set
//!    changes the fingerprint and misses;
//! 3. the **entry's validity interval** — `verified_at ≤ now ≤
//!    valid_until`, where `valid_until` is the conservative minimum of
//!    every consulted artifact's validity end.  Verification outcomes are
//!    interval-stable between revocation-state changes (the only
//!    time-dependent checks are artifact-currency windows), so a hit
//!    inside the interval answers exactly what a cold verify would.
//!
//! Revocation *push* is the asynchronous hazard.  The memo is a keyed
//! wrapper over [`RevocableMap`]: [`ChainMemo::evict_cert`] (its
//! [`RevocationBus`] arm) drops every entry whose provenance names the dead
//! certificate, and [`ChainMemo::record`] discards an insert verified
//! before a push.

use crate::revocable::{CacheStats, RevocableMap, RevocationBus};
use crate::statement::Time;
use snowflake_crypto::HashVal;
use std::sync::Arc;

/// Memo key: the proof's canonical hash plus the context fingerprint it
/// was verified under.
#[derive(Clone, PartialEq, Eq, Hash)]
struct MemoKey {
    proof: HashVal,
    fingerprint: HashVal,
}

impl MemoKey {
    fn new(proof: &HashVal, fingerprint: &HashVal) -> MemoKey {
        let (proof, fingerprint) = (proof.clone(), fingerprint.clone());
        MemoKey { proof, fingerprint }
    }
}

/// A bounded, sharded memo of successfully verified proof chains; each
/// entry's value is the time it was verified at.
pub struct ChainMemo {
    map: RevocableMap<MemoKey, Time>,
}

impl ChainMemo {
    /// A memo bounded to roughly `capacity` entries across 16 shards.
    pub fn new(capacity: usize) -> ChainMemo {
        ChainMemo {
            map: RevocableMap::with_capacity(capacity),
        }
    }

    /// Is a successful verification of `proof` under `fingerprint`
    /// recorded and valid at `now`?  An entry outside its validity
    /// interval is dropped (counted as an eviction) and misses.
    pub fn lookup(&self, proof: &HashVal, fingerprint: &HashVal, now: Time) -> bool {
        self.map
            .get(&MemoKey::new(proof, fingerprint), now, |verified_at, _| {
                (now >= *verified_at).then_some(())
            })
            .is_some()
    }

    /// Records a successful verification.
    ///
    /// `epoch_at_verify` must be the [`ChainMemo::epoch`] value read
    /// *before* the verification ran; if a revocation push landed in
    /// between, the record is discarded — the push could not have evicted
    /// an entry that was not yet inserted.
    pub fn record(
        &self,
        proof: &HashVal,
        fingerprint: &HashVal,
        verified_at: Time,
        valid_until: Option<Time>,
        certs: Vec<HashVal>,
        epoch_at_verify: u64,
    ) {
        self.map.insert(
            MemoKey::new(proof, fingerprint),
            verified_at,
            certs.into(),
            valid_until,
            verified_at,
            epoch_at_verify,
        );
    }

    /// Drops every entry whose provenance contains `cert_hash`; returns
    /// how many died.  Bumps the epoch first so a verification
    /// concurrently in flight cannot re-insert a pre-revocation answer.
    pub fn evict_cert(&self, cert_hash: &HashVal) -> usize {
        self.map.evict_cert(cert_hash)
    }

    /// The revocation-push epoch (see [`ChainMemo::record`]).
    pub fn epoch(&self) -> u64 {
        self.map.epoch()
    }

    /// Counter snapshot — the memo's answer quality is provable from these
    /// (a warm re-presented chain shows up as `hits` with no
    /// exponentiation).
    pub fn stats(&self) -> CacheStats {
        self.map.stats()
    }

    /// Registers scrape-time callbacks exposing [`CacheStats`] under
    /// `sf_chain_memo_*{surface="..."}` — the same atomics
    /// [`stats`](Self::stats) reads.  One collector per surface label;
    /// re-registering a surface replaces its callback.
    pub fn register_metrics(
        self: &Arc<Self>,
        registry: &snowflake_metrics::Registry,
        surface: &str,
    ) {
        use snowflake_metrics::Sample;
        registry.set_help(
            "sf_chain_memo_hits_total",
            "Verified-chain memo lookups answered without big-int work",
        );
        let memo = Arc::downgrade(self);
        let surface = surface.to_string();
        registry.register_collector(
            &format!("memo:{surface}"),
            Arc::new(move |out: &mut Vec<Sample>| {
                let Some(memo) = memo.upgrade() else { return };
                let s = memo.stats();
                let labels: &[(&str, &str)] = &[("surface", &surface)];
                out.push(Sample::counter("sf_chain_memo_hits_total", labels, s.hits));
                out.push(Sample::counter(
                    "sf_chain_memo_misses_total",
                    labels,
                    s.misses,
                ));
                out.push(Sample::counter(
                    "sf_chain_memo_inserts_total",
                    labels,
                    s.inserts,
                ));
                out.push(Sample::counter(
                    "sf_chain_memo_evictions_total",
                    labels,
                    s.evictions,
                ));
                out.push(Sample::counter(
                    "sf_chain_memo_revocation_evictions_total",
                    labels,
                    s.revocation_evictions,
                ));
                out.push(Sample::gauge(
                    "sf_chain_memo_entries",
                    labels,
                    s.entries as f64,
                ));
            }),
        );
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl RevocationBus for ChainMemo {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        self.evict_cert(cert_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(s: &str) -> HashVal {
        HashVal::of(s.as_bytes())
    }

    #[test]
    fn hit_requires_same_key_and_interval() {
        let memo = ChainMemo::new(64);
        let epoch = memo.epoch();
        memo.record(
            &h("p"),
            &h("fp"),
            Time(10),
            Some(Time(100)),
            vec![h("c")],
            epoch,
        );
        assert!(memo.lookup(&h("p"), &h("fp"), Time(50)));
        assert!(!memo.lookup(&h("p"), &h("other-fp"), Time(50)));
        assert!(!memo.lookup(&h("other-p"), &h("fp"), Time(50)));
        // Before verified_at: miss (clock ran backwards across contexts).
        memo.record(&h("p2"), &h("fp"), Time(10), Some(Time(100)), vec![], epoch);
        assert!(!memo.lookup(&h("p2"), &h("fp"), Time(5)));
    }

    #[test]
    fn expiry_drops_the_entry() {
        let memo = ChainMemo::new(64);
        let epoch = memo.epoch();
        memo.record(&h("p"), &h("fp"), Time(10), Some(Time(100)), vec![], epoch);
        assert!(!memo.lookup(&h("p"), &h("fp"), Time(200)));
        assert_eq!(memo.len(), 0, "expired entry is evicted, not retained");
        assert_eq!(memo.stats().evictions, 1);
    }

    #[test]
    fn push_eviction_by_cert_hash() {
        let memo = ChainMemo::new(64);
        let epoch = memo.epoch();
        memo.record(
            &h("p1"),
            &h("fp"),
            Time(1),
            None,
            vec![h("a"), h("b")],
            epoch,
        );
        memo.record(&h("p2"), &h("fp"), Time(1), None, vec![h("c")], epoch);
        assert_eq!(memo.evict_cert(&h("b")), 1);
        assert!(!memo.lookup(&h("p1"), &h("fp"), Time(2)));
        assert!(memo.lookup(&h("p2"), &h("fp"), Time(2)));
        assert_eq!(memo.stats().revocation_evictions, 1);
    }

    #[test]
    fn racing_push_discards_insert() {
        let memo = ChainMemo::new(64);
        let epoch = memo.epoch();
        memo.evict_cert(&h("unrelated")); // push lands mid-verification
        memo.record(&h("p"), &h("fp"), Time(1), None, vec![h("a")], epoch);
        assert!(
            !memo.lookup(&h("p"), &h("fp"), Time(2)),
            "stale insert discarded"
        );
    }

    #[test]
    fn capacity_is_bounded_fifo() {
        let memo = ChainMemo::new(16); // 1 per shard
        let epoch = memo.epoch();
        for i in 0..64 {
            memo.record(&h(&format!("p{i}")), &h("fp"), Time(1), None, vec![], epoch);
        }
        assert!(memo.len() <= 16, "len {} exceeds bound", memo.len());
        assert!(memo.stats().evictions > 0);
    }
}
