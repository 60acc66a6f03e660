//! The Prover: proof collection, caching, and construction (paper §4.4).
//!
//! "A `Prover` object helps Snowflake applications collect and create
//! proofs.  It has three tasks: it collects delegations, caches proofs, and
//! constructs new delegations."
//!
//! The Prover maintains a graph whose nodes are principals and whose edges
//! are proofs of delegation from one principal to the next (Figure 2).  It:
//!
//! * **digests** incoming multi-step proofs into their component lemmas so
//!   each becomes an independent edge;
//! * adds **shortcut edges** for every derived proof it computes, forming a
//!   cache that "eliminates most deep traversals of the graph";
//! * searches **breadth-first**, working backwards from the required issuer
//!   (the paper's example: from node `S` back to the final node `A`);
//! * stores **closures** for controlled principals (objects that know the
//!   private key), letting it *complete* new proofs by delegating restricted
//!   authority from a controlled principal to a new subject — this is how a
//!   client delegates its authority to a channel key (`K_CH ⇒ A` in the
//!   paper's example).
//!
//! The Prover is deliberately simple and incomplete: the general
//! access-control decision problem with conjunction and quoting is
//! exponential (Abadi et al.), but "in the common case … proofs are built
//! incrementally with graph traversals of constant depth."

#![deny(missing_docs)]

use snowflake_core::sync::{LockExt, RwLockExt};
use snowflake_core::{Certificate, Delegation, Principal, Proof, Time, Validity};
use snowflake_crypto::KeyPair;
use snowflake_tags::Tag;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// An object that can exercise a controlled principal's authority.
pub enum Closure {
    /// Holds a private key; can sign new delegations from principals the
    /// key controls.
    SigningKey(Box<KeyPair>),
}

/// One edge of the delegation graph: a proof that `subject ⇒ issuer`.
#[derive(Clone)]
struct Edge {
    subject: Principal,
    /// The proof's conclusion, cached so searches never re-derive it from
    /// the (possibly deep) proof tree.
    conclusion: Delegation,
    proof: Arc<Proof>,
    /// Hashes of the signed certificates the proof depends on — its
    /// revocation provenance.  [`Prover::invalidate_cert`] removes exactly
    /// the edges whose provenance names a revoked certificate.
    certs: Arc<[snowflake_core::HashVal]>,
    /// Shortcut edges are derived proofs cached after a successful search
    /// (the dotted edges of Figure 2).
    shortcut: bool,
}

/// Statistics about the Prover's graph, exposed for benchmarks and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProverStats {
    /// Number of non-shortcut edges.
    pub base_edges: usize,
    /// Number of cached shortcut edges.
    pub shortcut_edges: usize,
    /// Number of controlled (final) principals.
    pub finals: usize,
    /// BFS node expansions performed since creation.
    pub expansions: u64,
    /// Edges removed by targeted certificate invalidation since creation.
    pub invalidated_edges: u64,
    /// `invalidate_cert` calls since creation.
    pub cert_invalidations: u64,
}

/// Collects delegations, caches proofs, and constructs new delegations.
///
/// All methods take `&self`; internal state is lock-protected so a single
/// Prover can serve every connection of an application, as in the paper's
/// client (one Prover per `SSHContext` scope).
///
/// The graph is laid out read-mostly: searches take only the read side of
/// the lock (many may run concurrently), adjacency lists are shared
/// `Arc<[Edge]>` slices so expanding a node never clones edge vectors, and
/// the expansion counter is an atomic bumped outside any lock.  Writers
/// (`add_proof`, `delegate`, shortcut caching) copy-on-write the touched
/// adjacency slices.
pub struct Prover {
    inner: RwLock<Inner>,
    /// BFS node expansions, counted outside the graph lock so read-only
    /// searches never serialize on a writer.
    expansions: AtomicU64,
    /// Edges removed by `invalidate_cert` (cumulative).
    invalidated_edges: AtomicU64,
    /// `invalidate_cert` calls (cumulative).
    cert_invalidations: AtomicU64,
    rng: std::sync::Mutex<Box<dyn FnMut(&mut [u8]) + Send>>,
}

struct Inner {
    /// Edges indexed by *issuer*: `edges[Y]` holds proofs `X ⇒ Y`.
    edges: HashMap<Principal, Arc<[Edge]>>,
    /// Reverse index by *subject*: `by_subject[X]` holds the same proofs
    /// `X ⇒ Y`, so single-hop and cached-shortcut queries resolve by
    /// looking at the subject's few outgoing edges instead of scanning a
    /// potentially huge in-edge list on the issuer.
    by_subject: HashMap<Principal, Arc<[Edge]>>,
    /// Closures for controlled (final) principals, keyed by the principals
    /// they control.
    closures: HashMap<Principal, Arc<Closure>>,
    /// Dedup of inserted proofs by hash.
    known: HashSet<snowflake_core::HashVal>,
}

/// Maximum BFS depth; the paper expects constant-depth traversals in
/// practice, so a small bound guards against adversarial graphs.
const MAX_DEPTH: usize = 24;

/// Maximum widening revisits tracked per node: bounds the search at
/// O(nodes × cap) queue entries even when an adversarial graph offers
/// pairwise-incomparable tags on parallel edges.
const MAX_NODE_FRONTIERS: usize = 8;

impl Prover {
    /// Creates an empty Prover drawing entropy from the OS.
    pub fn new() -> Prover {
        Self::with_rng(Box::new(snowflake_crypto::rand_bytes))
    }

    /// Creates a Prover with a caller-supplied entropy source (tests and
    /// benchmarks use a deterministic one).
    pub fn with_rng(rng: Box<dyn FnMut(&mut [u8]) + Send>) -> Prover {
        Prover {
            inner: RwLock::new(Inner {
                edges: HashMap::new(),
                by_subject: HashMap::new(),
                closures: HashMap::new(),
                known: HashSet::new(),
            }),
            expansions: AtomicU64::new(0),
            invalidated_edges: AtomicU64::new(0),
            cert_invalidations: AtomicU64::new(0),
            rng: std::sync::Mutex::new(rng),
        }
    }

    /// Registers a controlled key: its principals become *final* nodes.
    ///
    /// Both the key principal and its hash principal gain closures, and
    /// hash-identity edges (`H(K) ⇔ K`) are added so searches can bridge the
    /// two representations.
    pub fn add_key(&self, keypair: KeyPair) {
        let key_p = Principal::key(&keypair.public);
        let hash_p = Principal::key_hash(&keypair.public);
        let closure = Arc::new(Closure::SigningKey(Box::new(keypair.clone())));
        {
            let mut inner = self.inner.pwrite();
            inner.closures.insert(key_p, Arc::clone(&closure));
            inner.closures.insert(hash_p, closure);
        }
        // H(K) ⇒ K and K ⇒ H(K) let proofs phrased either way connect.
        for hash_to_key in [true, false] {
            self.add_proof(Proof::HashIdent {
                key: Box::new(keypair.public.clone()),
                alg: snowflake_core::HashAlg::Sha256,
                hash_to_key,
            });
        }
    }

    /// Digests a proof into the graph (paper: "the Prover 'digests' the
    /// proof into its component parts for storage in the graph").
    ///
    /// Every lemma becomes its own edge, and the overall conclusion becomes
    /// an edge too, so partial chains remain reusable after the whole proof
    /// expires.
    pub fn add_proof(&self, proof: Proof) {
        // Collect owned lemma clones first to avoid holding borrows.
        let lemmas: Vec<Proof> = proof.lemmas().into_iter().cloned().collect();
        let mut inner = self.inner.pwrite();
        for lemma in lemmas {
            inner.insert_edge(lemma, false);
        }
    }

    /// Is this principal controlled (final) — can the Prover make it say
    /// things?
    pub fn is_final(&self, p: &Principal) -> bool {
        self.inner.pread().closures.contains_key(p)
    }

    /// Issues a fresh signed delegation `subject =tag⇒ controlled`, where
    /// `controlled` must be a principal this Prover holds a closure for.
    ///
    /// Returns `None` when `controlled` is not final.
    pub fn delegate(
        &self,
        subject: &Principal,
        controlled: &Principal,
        tag: Tag,
        validity: Validity,
        delegable: bool,
    ) -> Option<Proof> {
        let closure = self.inner.pread().closures.get(controlled).cloned()?;
        let Closure::SigningKey(kp) = closure.as_ref();
        let delegation = Delegation {
            subject: subject.clone(),
            issuer: controlled.clone(),
            tag,
            validity,
            delegable,
        };
        let cert = {
            let mut rng = self.rng.plock();
            Certificate::issue(kp, delegation, &mut **rng)
        };
        let proof = Proof::signed_cert(cert);
        self.add_proof(proof.clone());
        Some(proof)
    }

    /// Finds an existing proof that `subject =T⇒ issuer` with `T` covering
    /// `tag`, valid at `now`, by BFS backwards from `issuer`.
    ///
    /// Single-hop answers — including previously cached shortcuts — resolve
    /// through the subject-indexed reverse map without BFS or any write
    /// lock.  On a successful multi-hop search the derived proof is cached
    /// as a shortcut edge.
    pub fn find_proof(
        &self,
        subject: &Principal,
        issuer: &Principal,
        tag: &Tag,
        now: Time,
    ) -> Option<Proof> {
        self.search(subject, issuer, tag, now, false)
    }

    /// Like [`Prover::find_proof`] but only returns chains whose conclusion
    /// keeps the propagate bit — what `complete_proof` needs before it can
    /// extend a chain with a fresh hop.  A plain `find_proof` may answer
    /// with a non-delegable proof even when a delegable alternative exists
    /// (both are correct answers to "does subject speak for issuer?"), so
    /// extension sites must ask for delegability explicitly.
    pub fn find_delegable_proof(
        &self,
        subject: &Principal,
        issuer: &Principal,
        tag: &Tag,
        now: Time,
    ) -> Option<Proof> {
        self.search(subject, issuer, tag, now, true)
    }

    fn search(
        &self,
        subject: &Principal,
        issuer: &Principal,
        tag: &Tag,
        now: Time,
        need_delegable: bool,
    ) -> Option<Proof> {
        if subject == issuer {
            return Some(Proof::Reflex(subject.clone()));
        }
        // Fast path: an existing direct edge (base or shortcut) answers by
        // scanning only the subject's outgoing edges.
        if let Some(found) = self.direct_edge(subject, issuer, tag, now, need_delegable) {
            return Some(found);
        }
        // The invalidation epoch brackets the (read-locked) search: if an
        // `invalidate_cert` completes between the BFS and the caching
        // write below, the found chain may be built on a just-revoked
        // certificate, and caching it would resurrect state the
        // invalidation purged — so the shortcut is skipped (the caller
        // still gets the proof; its verification is the caller's check).
        let epoch = self.cert_invalidations.load(Ordering::Acquire);
        let found = self.bfs(subject, issuer, tag, now, need_delegable)?;
        // Cache multi-step results as shortcut edges (Figure 2's dotted
        // lines): "these shortcuts form a cache that eliminates most deep
        // traversals of the graph."
        if found.size() > 1 {
            let mut inner = self.inner.pwrite();
            if self.cert_invalidations.load(Ordering::Acquire) == epoch {
                inner.insert_edge(found.clone(), true);
            }
        }
        Some(found)
    }

    /// Looks for one existing edge `subject ⇒ issuer` covering `tag` at
    /// `now`, using the reverse map (read lock only).
    ///
    /// With `need_delegable`, non-delegable edges do not answer at all
    /// (the BFS may still find a delegable multi-hop chain).
    fn direct_edge(
        &self,
        subject: &Principal,
        issuer: &Principal,
        tag: &Tag,
        now: Time,
        need_delegable: bool,
    ) -> Option<Proof> {
        let inner = self.inner.pread();
        let out = inner.by_subject.get(subject)?;
        out.iter()
            .find(|e| {
                e.conclusion.issuer == *issuer
                    && (e.conclusion.delegable || !need_delegable)
                    && e.conclusion.validity.contains(now)
                    && e.conclusion.tag.implies(tag)
            })
            .map(|e| (*e.proof).clone())
    }

    /// Completes a proof that `new_subject =tag⇒ issuer` by finding a chain
    /// from a controlled principal to `issuer` and then delegating from the
    /// controlled principal to `new_subject` with the closure.
    ///
    /// This is the paper's channel-authorization step: the Prover "simply
    /// issues a delegation `K_CH ⇒ A` to complete the proof."  Channel and
    /// request-hash subjects need `delegable: false` (they speak directly);
    /// sharing with another *user* needs `delegable: true` so the recipient
    /// can extend the authority to their own channels and requests.
    pub fn complete_proof(
        &self,
        new_subject: &Principal,
        issuer: &Principal,
        tag: &Tag,
        validity: Validity,
        now: Time,
    ) -> Option<Proof> {
        self.complete_proof_delegable(new_subject, issuer, tag, validity, now, false)
    }

    /// Like [`Prover::complete_proof`] with an explicit propagate bit on the
    /// freshly issued hop.
    pub fn complete_proof_delegable(
        &self,
        new_subject: &Principal,
        issuer: &Principal,
        tag: &Tag,
        validity: Validity,
        now: Time,
        delegable: bool,
    ) -> Option<Proof> {
        // Fast path: an existing proof already covers the new subject.
        let existing = if delegable {
            self.find_delegable_proof(new_subject, issuer, tag, now)
        } else {
            self.find_proof(new_subject, issuer, tag, now)
        };
        if let Some(p) = existing {
            return Some(p);
        }
        let finals: Vec<Principal> = self.inner.pread().closures.keys().cloned().collect();
        for final_p in finals {
            // The controlled principal itself is the issuer…
            if &final_p == issuer {
                return self.delegate(new_subject, &final_p, tag.clone(), validity, delegable);
            }
            // …or a delegable chain from the controlled principal to the
            // issuer exists (only delegable chains may grow a fresh hop).
            if let Some(chain) = self.find_delegable_proof(&final_p, issuer, tag, now) {
                let hop = self.delegate(new_subject, &final_p, tag.clone(), validity, delegable)?;
                let full = hop.then(chain);
                self.add_proof(full.clone());
                return Some(full);
            }
        }
        None
    }

    /// Current graph statistics.
    pub fn stats(&self) -> ProverStats {
        let inner = self.inner.pread();
        let mut s = ProverStats {
            finals: inner.closures.len(),
            expansions: self.expansions.load(Ordering::Relaxed),
            invalidated_edges: self.invalidated_edges.load(Ordering::Relaxed),
            cert_invalidations: self.cert_invalidations.load(Ordering::Relaxed),
            ..Default::default()
        };
        for edges in inner.edges.values() {
            for e in edges.iter() {
                if e.shortcut {
                    s.shortcut_edges += 1;
                } else {
                    s.base_edges += 1;
                }
            }
        }
        s
    }

    /// Registers a scrape-time callback exposing [`ProverStats`] under
    /// `sf_prover_*` — the same graph and atomics
    /// [`stats`](Self::stats) reads (collector id `"prover"`).
    pub fn register_metrics(self: &Arc<Self>, registry: &snowflake_metrics::Registry) {
        use snowflake_metrics::Sample;
        registry.set_help(
            "sf_prover_shortcut_edges",
            "Cached derived proofs (the dotted edges of the paper's Figure 2)",
        );
        let prover = Arc::downgrade(self);
        registry.register_collector(
            "prover",
            Arc::new(move |out: &mut Vec<Sample>| {
                let Some(prover) = prover.upgrade() else { return };
                let s = prover.stats();
                out.push(Sample::gauge("sf_prover_base_edges", &[], s.base_edges as f64));
                out.push(Sample::gauge(
                    "sf_prover_shortcut_edges",
                    &[],
                    s.shortcut_edges as f64,
                ));
                out.push(Sample::gauge("sf_prover_finals", &[], s.finals as f64));
                out.push(Sample::counter("sf_prover_expansions_total", &[], s.expansions));
                out.push(Sample::counter(
                    "sf_prover_invalidated_edges_total",
                    &[],
                    s.invalidated_edges,
                ));
                out.push(Sample::counter(
                    "sf_prover_cert_invalidations_total",
                    &[],
                    s.cert_invalidations,
                ));
            }),
        );
    }

    /// Removes every edge — base or shortcut — whose proof depends on the
    /// certificate with this hash, returning how many distinct edges were
    /// dropped.
    ///
    /// This is the targeted form of cache invalidation a revocation push
    /// needs: one revoked certificate evicts exactly the chains built from
    /// it, leaving every other warm shortcut intact (no
    /// [`Prover::clear_shortcuts`] flush).  Removed proofs are forgotten
    /// from the dedup set, so a *re-issued* certificate can be learned
    /// again later.
    pub fn invalidate_cert(&self, cert_hash: &snowflake_core::HashVal) -> usize {
        let inner = &mut *self.inner.pwrite();
        let mut removed_hashes = HashSet::new();
        for map in [&mut inner.edges, &mut inner.by_subject] {
            map.retain(|_, edges| {
                if edges.iter().any(|e| e.certs.contains(cert_hash)) {
                    let kept: Vec<Edge> = edges
                        .iter()
                        .filter(|e| {
                            if e.certs.contains(cert_hash) {
                                removed_hashes.insert(e.proof.hash());
                                false
                            } else {
                                true
                            }
                        })
                        .cloned()
                        .collect();
                    if kept.is_empty() {
                        return false;
                    }
                    *edges = kept.into();
                }
                true
            });
        }
        for h in &removed_hashes {
            inner.known.remove(h);
        }
        let n = removed_hashes.len();
        self.invalidated_edges.fetch_add(n as u64, Ordering::Relaxed);
        // Bumped while the write lock is still held: `search` re-reads the
        // epoch under the same lock before caching a shortcut, so any
        // invalidation that purged the graph is visible there.
        self.cert_invalidations.fetch_add(1, Ordering::Release);
        n
    }

    /// Removes all shortcut edges (used by benchmarks to compare cold/warm
    /// search costs).
    pub fn clear_shortcuts(&self) {
        let inner = &mut *self.inner.pwrite();
        let mut removed_hashes = Vec::new();
        for map in [&mut inner.edges, &mut inner.by_subject] {
            map.retain(|_, edges| {
                if edges.iter().any(|e| e.shortcut) {
                    let kept: Vec<Edge> = edges
                        .iter()
                        .filter(|e| {
                            if e.shortcut {
                                removed_hashes.push(e.proof.hash());
                                false
                            } else {
                                true
                            }
                        })
                        .cloned()
                        .collect();
                    if kept.is_empty() {
                        return false;
                    }
                    *edges = kept.into();
                }
                true
            });
        }
        // Both maps hold every edge, so each shortcut hash appears twice.
        // Allow the shortcuts to be re-learned later.
        for h in removed_hashes {
            inner.known.remove(&h);
        }
    }

    fn bfs(
        &self,
        subject: &Principal,
        issuer: &Principal,
        tag: &Tag,
        now: Time,
        need_delegable: bool,
    ) -> Option<Proof> {
        let inner = self.inner.pread();
        // Queue holds (node, path so far as proof + incrementally composed
        // conclusion, depth).  Composing conclusions incrementally keeps
        // each expansion O(edge) instead of O(path length).
        struct Path {
            proof: Proof,
            concl: Delegation,
        }
        // The authority a path carries at a node: what matters for any
        // further extension through that node.  Only delegable paths are
        // ever enqueued, so the propagate bit needs no tracking.
        struct Reached {
            tag: Tag,
            validity: Validity,
        }
        impl Reached {
            /// Is this at least as wide as the other on both axes — tag
            /// and validity window?
            fn covers(&self, tag: &Tag, validity: &Validity) -> bool {
                validity.within(&self.validity) && self.tag.implies(tag)
            }
        }
        let mut queue: VecDeque<(Principal, Option<Path>, usize)> = VecDeque::new();
        let mut reached: HashMap<Principal, Vec<Reached>> = HashMap::new();
        queue.push_back((issuer.clone(), None, 0));

        while let Some((node, so_far, depth)) = queue.pop_front() {
            if depth >= MAX_DEPTH {
                continue;
            }
            self.expansions.fetch_add(1, Ordering::Relaxed);
            let Some(edges) = inner.edges.get(&node) else {
                continue;
            };
            for edge in edges.iter() {
                // Compose edge (X ⇒ node) with so_far (node ⇒ issuer).
                let candidate = match &so_far {
                    None => Path {
                        proof: (*edge.proof).clone(),
                        concl: edge.conclusion.clone(),
                    },
                    Some(tail) => {
                        // Only delegable tails may be extended.
                        if !tail.concl.delegable {
                            continue;
                        }
                        let Some(t) = edge.conclusion.tag.intersect(&tail.concl.tag) else {
                            continue;
                        };
                        let Some(v) = edge.conclusion.validity.intersect(&tail.concl.validity)
                        else {
                            continue;
                        };
                        Path {
                            proof: (*edge.proof).clone().then(tail.proof.clone()),
                            concl: Delegation {
                                subject: edge.conclusion.subject.clone(),
                                issuer: tail.concl.issuer.clone(),
                                tag: t,
                                validity: v,
                                delegable: edge.conclusion.delegable && tail.concl.delegable,
                            },
                        }
                    }
                };
                if candidate.concl.tag.intersect(tag).is_none() {
                    continue;
                }
                if !candidate.concl.validity.contains(now) {
                    continue;
                }
                if &edge.subject == subject {
                    if candidate.concl.tag.implies(tag)
                        && (candidate.concl.delegable || !need_delegable)
                    {
                        return Some(candidate.proof);
                    }
                    continue;
                }
                // Re-entering the start node can only form a cycle.
                if &edge.subject == issuer {
                    continue;
                }
                // A non-delegable path can never be extended another hop
                // (the tail-delegability check above), so enqueueing it is
                // dead weight — and letting it hold a frontier slot could
                // cap out a live delegable path.
                if !candidate.concl.delegable {
                    continue;
                }
                // A new path through an already-reached node is redundant
                // only when some earlier path covers it on every axis; a
                // narrow first arrival must not shadow a wider alternate,
                // so non-dominated revisits re-enqueue.
                let new = Reached {
                    tag: candidate.concl.tag.clone(),
                    validity: candidate.concl.validity,
                };
                let seen = reached.entry(edge.subject.clone()).or_default();
                if seen.iter().any(|r| r.covers(&new.tag, &new.validity)) {
                    continue;
                }
                // The new path may in turn cover earlier, narrower
                // arrivals; release their slots before the cap check so a
                // wide path always gets through.
                seen.retain(|r| !new.covers(&r.tag, &r.validity));
                // Cap the frontiers tracked per node: pairwise-incomparable
                // tags between the same principals could otherwise enumerate
                // exponentially many paths.  The prover is deliberately
                // incomplete (§4.4); past the cap we keep the first arrivals.
                if seen.len() >= MAX_NODE_FRONTIERS {
                    continue;
                }
                seen.push(new);
                queue.push_back((edge.subject.clone(), Some(candidate), depth + 1));
            }
        }
        None
    }
}

impl Default for Prover {
    fn default() -> Self {
        Self::new()
    }
}

impl snowflake_core::RevocationBus for Prover {
    fn certificate_revoked(&self, cert_hash: &snowflake_core::HashVal) -> usize {
        self.invalidate_cert(cert_hash)
    }
}

impl Inner {
    fn insert_edge(&mut self, proof: Proof, shortcut: bool) {
        let hash = proof.hash();
        if !self.known.insert(hash) {
            return;
        }
        let concl = proof.conclusion();
        // Reflexive edges add nothing to search.
        if concl.subject == concl.issuer {
            return;
        }
        let edge = Edge {
            subject: concl.subject.clone(),
            conclusion: concl.clone(),
            certs: proof.cert_hashes().into(),
            proof: Arc::new(proof),
            shortcut,
        };
        push_edge(&mut self.by_subject, concl.subject.clone(), edge.clone());
        push_edge(&mut self.edges, concl.issuer, edge);
    }
}

/// Copy-on-write append to an adjacency slice: readers keep iterating their
/// old `Arc` while the map swaps in the extended one.
fn push_edge(map: &mut HashMap<Principal, Arc<[Edge]>>, key: Principal, edge: Edge) {
    match map.entry(key) {
        std::collections::hash_map::Entry::Occupied(mut o) => {
            let old = o.get();
            let mut v = Vec::with_capacity(old.len() + 1);
            v.extend(old.iter().cloned());
            v.push(edge);
            *o.get_mut() = v.into();
        }
        std::collections::hash_map::Entry::Vacant(v) => {
            v.insert(vec![edge].into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::VerifyCtx;
    use snowflake_crypto::{DetRng, Group};
    use snowflake_sexpr::Sexp;

    fn det_prover(seed: &str) -> Prover {
        let mut rng = DetRng::new(seed.as_bytes());
        Prover::with_rng(Box::new(move |b| rng.fill(b)))
    }

    fn kp(seed: &str) -> KeyPair {
        let mut rng = DetRng::new(seed.as_bytes());
        KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
    }

    fn tag(src: &str) -> Tag {
        Tag::parse(&Sexp::parse(src.as_bytes()).unwrap()).unwrap()
    }

    /// Builds a chain k0 → k1 → … → kn of delegable grants (k_{i+1} speaks
    /// for k_i) and returns the prover plus the keys.
    fn chain_prover(n: usize) -> (Prover, Vec<KeyPair>) {
        let prover = det_prover("chain");
        let keys: Vec<KeyPair> = (0..=n).map(|i| kp(&format!("k{i}"))).collect();
        let mut rng = DetRng::new(b"issue");
        for i in 0..n {
            let d = Delegation {
                subject: Principal::key(&keys[i + 1].public),
                issuer: Principal::key(&keys[i].public),
                tag: tag("(web)"),
                validity: Validity::always(),
                delegable: true,
            };
            let cert = Certificate::issue(&keys[i], d, &mut |b| rng.fill(b));
            prover.add_proof(Proof::signed_cert(cert));
        }
        (prover, keys)
    }

    #[test]
    fn finds_single_edge() {
        let (prover, keys) = chain_prover(1);
        let p = prover
            .find_proof(
                &Principal::key(&keys[1].public),
                &Principal::key(&keys[0].public),
                &tag("(web)"),
                Time(0),
            )
            .expect("single edge");
        p.verify(&VerifyCtx::at(Time(0))).unwrap();
    }

    #[test]
    fn finds_deep_chain_and_caches_shortcut() {
        let (prover, keys) = chain_prover(6);
        let subject = Principal::key(&keys[6].public);
        let issuer = Principal::key(&keys[0].public);
        let before = prover.stats();
        let p = prover
            .find_proof(&subject, &issuer, &tag("(web)"), Time(0))
            .expect("chain");
        p.verify(&VerifyCtx::at(Time(0))).unwrap();
        assert_eq!(p.conclusion().subject, subject);
        assert_eq!(p.conclusion().issuer, issuer);

        let after = prover.stats();
        assert!(
            after.shortcut_edges > before.shortcut_edges,
            "shortcut cached"
        );

        // Second query must be answerable in a couple of expansions via the
        // shortcut edge.
        let exp_before = prover.stats().expansions;
        let p2 = prover
            .find_proof(&subject, &issuer, &tag("(web)"), Time(0))
            .expect("cached");
        p2.verify(&VerifyCtx::at(Time(0))).unwrap();
        let exp_after = prover.stats().expansions;
        assert!(
            exp_after - exp_before <= 2,
            "shortcut should answer in ≤2 expansions, took {}",
            exp_after - exp_before
        );
    }

    #[test]
    fn respects_tag_restriction() {
        let (prover, keys) = chain_prover(2);
        let subject = Principal::key(&keys[2].public);
        let issuer = Principal::key(&keys[0].public);
        // The chain only grants (web); a (db) proof must not be found.
        assert!(prover
            .find_proof(&subject, &issuer, &tag("(db)"), Time(0))
            .is_none());
        // A narrower request is fine.
        assert!(prover
            .find_proof(&subject, &issuer, &tag("(web (method GET))"), Time(0))
            .is_some());
    }

    #[test]
    fn respects_expiry() {
        let prover = det_prover("expiry");
        let a = kp("a");
        let b = kp("b");
        let mut rng = DetRng::new(b"i");
        let d = Delegation {
            subject: Principal::key(&b.public),
            issuer: Principal::key(&a.public),
            tag: tag("(web)"),
            validity: Validity::until(Time(100)),
            delegable: false,
        };
        prover.add_proof(Proof::signed_cert(Certificate::issue(&a, d, &mut |x| {
            rng.fill(x)
        })));
        let subject = Principal::key(&b.public);
        let issuer = Principal::key(&a.public);
        assert!(prover
            .find_proof(&subject, &issuer, &tag("(web)"), Time(50))
            .is_some());
        assert!(prover
            .find_proof(&subject, &issuer, &tag("(web)"), Time(150))
            .is_none());
    }

    #[test]
    fn respects_delegable_bit() {
        let prover = det_prover("nodeleg");
        let (a, b, c) = (kp("a"), kp("b"), kp("c"));
        let mut rng = DetRng::new(b"i");
        // a grants b WITHOUT propagate; b grants c.
        let d1 = Delegation {
            subject: Principal::key(&b.public),
            issuer: Principal::key(&a.public),
            tag: tag("(web)"),
            validity: Validity::always(),
            delegable: false,
        };
        let d2 = Delegation {
            subject: Principal::key(&c.public),
            issuer: Principal::key(&b.public),
            tag: tag("(web)"),
            validity: Validity::always(),
            delegable: true,
        };
        prover.add_proof(Proof::signed_cert(Certificate::issue(&a, d1, &mut |x| {
            rng.fill(x)
        })));
        prover.add_proof(Proof::signed_cert(Certificate::issue(&b, d2, &mut |x| {
            rng.fill(x)
        })));
        // c ⇒ a would need to extend through the non-delegable a→b edge.
        assert!(prover
            .find_proof(
                &Principal::key(&c.public),
                &Principal::key(&a.public),
                &tag("(web)"),
                Time(0)
            )
            .is_none());
        // b ⇒ a itself is fine (the non-delegable edge is subject-side).
        assert!(prover
            .find_proof(
                &Principal::key(&b.public),
                &Principal::key(&a.public),
                &tag("(web)"),
                Time(0)
            )
            .is_some());
    }

    #[test]
    fn digests_multi_step_proofs_into_lemmas() {
        let (prover, keys) = chain_prover(3);
        let subject = Principal::key(&keys[3].public);
        let issuer = Principal::key(&keys[0].public);
        let full = prover
            .find_proof(&subject, &issuer, &tag("(web)"), Time(0))
            .unwrap();

        // A fresh prover digesting only the composite proof can still answer
        // queries about the interior lemmas.
        let fresh = det_prover("fresh");
        fresh.add_proof(full);
        let mid = fresh
            .find_proof(
                &Principal::key(&keys[2].public),
                &Principal::key(&keys[0].public),
                &tag("(web)"),
                Time(0),
            )
            .expect("interior lemma available after digestion");
        mid.verify(&VerifyCtx::at(Time(0))).unwrap();
    }

    #[test]
    fn complete_proof_delegates_from_final_principal() {
        // The Figure 2 scenario: prove K_CH ⇒ S where the graph holds
        // A ⇒ … ⇒ S and A is final.
        let prover = det_prover("complete");
        let (alice, server) = (kp("alice"), kp("server"));
        let mut rng = DetRng::new(b"i");
        let d = Delegation {
            subject: Principal::key(&alice.public),
            issuer: Principal::key(&server.public),
            tag: tag("(web)"),
            validity: Validity::always(),
            delegable: true,
        };
        prover.add_proof(Proof::signed_cert(Certificate::issue(
            &server,
            d,
            &mut |x| rng.fill(x),
        )));
        prover.add_key(alice.clone());

        let channel = Principal::Channel(snowflake_core::ChannelId {
            kind: "ssh".into(),
            id: snowflake_core::HashVal::of(b"session-1"),
        });
        let proof = prover
            .complete_proof(
                &channel,
                &Principal::key(&server.public),
                &tag("(web)"),
                Validity::until(Time(1_000)),
                Time(0),
            )
            .expect("completed proof");
        proof.verify(&VerifyCtx::at(Time(0))).unwrap();
        let c = proof.conclusion();
        assert_eq!(c.subject, channel);
        assert_eq!(c.issuer, Principal::key(&server.public));
    }

    #[test]
    fn complete_proof_when_controlled_is_issuer() {
        let prover = det_prover("self-issue");
        let alice = kp("alice");
        prover.add_key(alice.clone());
        let bob = Principal::message(b"bob-stand-in");
        let proof = prover
            .complete_proof(
                &bob,
                &Principal::key(&alice.public),
                &tag("(web)"),
                Validity::always(),
                Time(0),
            )
            .expect("direct delegation");
        proof.verify(&VerifyCtx::at(Time(0))).unwrap();
        assert_eq!(proof.conclusion().subject, bob);
    }

    #[test]
    fn complete_proof_fails_without_authority() {
        let prover = det_prover("noauth");
        let alice = kp("alice");
        let stranger = kp("stranger");
        prover.add_key(alice);
        // No chain from alice to stranger exists.
        assert!(prover
            .complete_proof(
                &Principal::message(b"x"),
                &Principal::key(&stranger.public),
                &tag("(web)"),
                Validity::always(),
                Time(0),
            )
            .is_none());
    }

    #[test]
    fn quoting_gateway_completion() {
        // §6.3: the client proxy delegates to "gateway quoting client".
        let prover = det_prover("gateway");
        let (client, server) = (kp("client"), kp("server"));
        let mut rng = DetRng::new(b"i");
        // Server granted the client (db) access, delegable.
        let d = Delegation {
            subject: Principal::key(&client.public),
            issuer: Principal::key(&server.public),
            tag: tag("(db)"),
            validity: Validity::always(),
            delegable: true,
        };
        prover.add_proof(Proof::signed_cert(Certificate::issue(
            &server,
            d,
            &mut |x| rng.fill(x),
        )));
        prover.add_key(client.clone());

        let gateway = Principal::Local {
            broker: snowflake_core::HashVal::of(b"host"),
            id: "gateway".into(),
        };
        let g_quoting_c = Principal::quoting(gateway, Principal::key(&client.public));
        let proof = prover
            .complete_proof(
                &g_quoting_c,
                &Principal::key(&server.public),
                &tag("(db (op select))"),
                Validity::until(Time(500)),
                Time(0),
            )
            .expect("G|C ⇒ S");
        proof.verify(&VerifyCtx::at(Time(0))).unwrap();
        let c = proof.conclusion();
        assert_eq!(c.subject, g_quoting_c);
        assert_eq!(c.issuer, Principal::key(&server.public));
        // The proof's audit trail shows the gateway's involvement.
        assert!(proof.audit_trail().contains("gateway"));
    }

    #[test]
    fn hash_and_key_principals_bridge() {
        // A delegation phrased to H(K_bob) must be found when searching for
        // Key(K_bob) as the subject, via the hash-identity edges.
        let prover = det_prover("bridge");
        let (alice, bob) = (kp("alice"), kp("bob"));
        let mut rng = DetRng::new(b"i");
        let d = Delegation {
            subject: Principal::key_hash(&bob.public),
            issuer: Principal::key(&alice.public),
            tag: tag("(web)"),
            validity: Validity::always(),
            delegable: true,
        };
        prover.add_proof(Proof::signed_cert(Certificate::issue(
            &alice,
            d,
            &mut |x| rng.fill(x),
        )));
        prover.add_key(bob.clone());

        let p = prover
            .find_proof(
                &Principal::key(&bob.public),
                &Principal::key(&alice.public),
                &tag("(web)"),
                Time(0),
            )
            .expect("bridged via hash identity");
        p.verify(&VerifyCtx::at(Time(0))).unwrap();
    }

    #[test]
    fn reflexive_query() {
        let prover = det_prover("reflex");
        let p = Principal::message(b"me");
        let proof = prover.find_proof(&p, &p, &tag("(x)"), Time(0)).unwrap();
        assert!(matches!(proof, Proof::Reflex(_)));
    }

    #[test]
    fn no_proof_in_empty_graph() {
        let prover = det_prover("empty");
        assert!(prover
            .find_proof(
                &Principal::message(b"a"),
                &Principal::message(b"b"),
                &Tag::Star,
                Time(0)
            )
            .is_none());
    }

    #[test]
    fn cycle_does_not_hang() {
        let prover = det_prover("cycle");
        let (a, b) = (kp("a"), kp("b"));
        let mut rng = DetRng::new(b"i");
        for (from, to) in [(&a, &b), (&b, &a)] {
            let d = Delegation {
                subject: Principal::key(&to.public),
                issuer: Principal::key(&from.public),
                tag: tag("(web)"),
                validity: Validity::always(),
                delegable: true,
            };
            prover.add_proof(Proof::signed_cert(Certificate::issue(from, d, &mut |x| {
                rng.fill(x)
            })));
        }
        // A query for an unrelated subject terminates despite the cycle.
        assert!(prover
            .find_proof(
                &Principal::message(b"nobody"),
                &Principal::key(&a.public),
                &tag("(web)"),
                Time(0)
            )
            .is_none());
    }

    /// Regression: BFS used to mark a node visited on the *first* path
    /// reaching it, so a narrow-tag path through `M` shadowed the wider
    /// alternate path through the same node and the search wrongly failed.
    #[test]
    fn narrow_tag_path_does_not_shadow_wider_path() {
        let prover = det_prover("two-path");
        let (s, m, a) = (kp("s"), kp("m"), kp("a"));
        let mut rng = DetRng::new(b"i");
        let mut grant = |from: &KeyPair, to: &KeyPair, t: Tag| {
            let d = Delegation {
                subject: Principal::key(&to.public),
                issuer: Principal::key(&from.public),
                tag: t,
                validity: Validity::always(),
                delegable: true,
            };
            prover.add_proof(Proof::signed_cert(Certificate::issue(from, d, &mut |x| {
                rng.fill(x)
            })));
        };
        // Narrow M ⇒ S first (GET only), wide M ⇒ S second: the narrow
        // edge reaches M first in BFS order.
        grant(&s, &m, tag("(web (method GET))"));
        grant(&s, &m, tag("(web)"));
        grant(&m, &a, tag("(web)"));

        let p = prover
            .find_proof(
                &Principal::key(&a.public),
                &Principal::key(&s.public),
                &tag("(web)"),
                Time(0),
            )
            .expect("the wide path must be found despite the narrow one arriving first");
        p.verify(&VerifyCtx::at(Time(0))).unwrap();
        assert!(p.conclusion().tag.implies(&tag("(web)")));
    }

    /// The same shadowing through the propagate bit: a non-delegable path
    /// reaching `M` first must not suppress the delegable alternate, which
    /// is the only one that can be extended another hop.
    #[test]
    fn non_delegable_path_does_not_shadow_delegable_path() {
        let prover = det_prover("two-path-delegable");
        let (s, m, a) = (kp("s"), kp("m"), kp("a"));
        let mut rng = DetRng::new(b"i");
        let mut grant = |from: &KeyPair, to: &KeyPair, delegable: bool| {
            let d = Delegation {
                subject: Principal::key(&to.public),
                issuer: Principal::key(&from.public),
                tag: tag("(web)"),
                validity: Validity::always(),
                delegable,
            };
            prover.add_proof(Proof::signed_cert(Certificate::issue(from, d, &mut |x| {
                rng.fill(x)
            })));
        };
        grant(&s, &m, false);
        grant(&s, &m, true);
        grant(&m, &a, true);

        let p = prover
            .find_proof(
                &Principal::key(&a.public),
                &Principal::key(&s.public),
                &tag("(web)"),
                Time(0),
            )
            .expect("the delegable path must be found despite the dead-end arriving first");
        p.verify(&VerifyCtx::at(Time(0))).unwrap();
    }

    /// When a subject holds both a non-delegable and a delegable edge to
    /// the issuer, the delegable-required search must return the delegable
    /// one so callers that need to extend the chain (e.g.
    /// `complete_proof`'s finals loop) are not wrongly denied.
    #[test]
    fn delegable_direct_edge_preferred_over_non_delegable() {
        let prover = det_prover("direct-delegable");
        let (s, f) = (kp("s"), kp("f"));
        let mut rng = DetRng::new(b"i");
        for delegable in [false, true] {
            let d = Delegation {
                subject: Principal::key(&f.public),
                issuer: Principal::key(&s.public),
                tag: tag("(web)"),
                validity: Validity::always(),
                delegable,
            };
            prover.add_proof(Proof::signed_cert(Certificate::issue(&s, d, &mut |x| {
                rng.fill(x)
            })));
        }
        // The plain search finds *an* edge; the delegable-required search
        // must find the delegable sibling specifically.
        assert!(prover
            .find_proof(
                &Principal::key(&f.public),
                &Principal::key(&s.public),
                &tag("(web)"),
                Time(0),
            )
            .is_some());
        let p = prover
            .find_delegable_proof(
                &Principal::key(&f.public),
                &Principal::key(&s.public),
                &tag("(web)"),
                Time(0),
            )
            .expect("edge exists");
        assert!(
            p.conclusion().delegable,
            "the delegable edge must win over the non-delegable one"
        );

        // And the consequence: completing a proof through the controlled
        // principal F works, which requires the delegable F ⇒ S chain.
        prover.add_key(f.clone());
        let channel = Principal::message(b"channel");
        let completed = prover
            .complete_proof(
                &channel,
                &Principal::key(&s.public),
                &tag("(web)"),
                Validity::always(),
                Time(0),
            )
            .expect("delegable chain must be usable for completion");
        completed.verify(&VerifyCtx::at(Time(0))).unwrap();
    }

    /// A non-delegable *direct* edge must not shadow a delegable
    /// *multi-hop* chain when the caller needs to extend the chain: the
    /// fast path may answer plain queries with the direct edge, but the
    /// delegable search must keep looking and completion must succeed.
    #[test]
    fn non_delegable_direct_edge_does_not_shadow_delegable_chain() {
        let prover = det_prover("direct-vs-chain");
        let (s, m, f) = (kp("s"), kp("m"), kp("f"));
        let mut rng = DetRng::new(b"i");
        let mut grant = |from: &KeyPair, to: &KeyPair, delegable: bool| {
            let d = Delegation {
                subject: Principal::key(&to.public),
                issuer: Principal::key(&from.public),
                tag: tag("(web)"),
                validity: Validity::always(),
                delegable,
            };
            prover.add_proof(Proof::signed_cert(Certificate::issue(from, d, &mut |x| {
                rng.fill(x)
            })));
        };
        // Direct F ⇒ S without propagate; delegable chain F ⇒ M ⇒ S.
        grant(&s, &f, false);
        grant(&s, &m, true);
        grant(&m, &f, true);

        let (subject, issuer) = (Principal::key(&f.public), Principal::key(&s.public));
        let p = prover
            .find_delegable_proof(&subject, &issuer, &tag("(web)"), Time(0))
            .expect("the delegable chain must be found past the direct edge");
        assert!(p.conclusion().delegable);
        p.verify(&VerifyCtx::at(Time(0))).unwrap();

        prover.add_key(f.clone());
        let completed = prover
            .complete_proof(
                &Principal::message(b"channel"),
                &issuer,
                &tag("(web)"),
                Validity::always(),
                Time(0),
            )
            .expect("completion must extend the delegable chain");
        completed.verify(&VerifyCtx::at(Time(0))).unwrap();
    }

    /// A wide path arriving after the per-node frontier cap has filled
    /// with narrow incomparable paths must still get through: it covers
    /// (and evicts) the narrow arrivals rather than being dropped at the
    /// cap.
    #[test]
    fn wide_path_reclaims_capped_frontier_slots() {
        let prover = det_prover("cap-evict");
        let (s, m, a) = (kp("s"), kp("m"), kp("a"));
        let mut rng = DetRng::new(b"i");
        let mut grant = |from: &KeyPair, to: &KeyPair, t: Tag| {
            let d = Delegation {
                subject: Principal::key(&to.public),
                issuer: Principal::key(&from.public),
                tag: t,
                validity: Validity::always(),
                delegable: true,
            };
            prover.add_proof(Proof::signed_cert(Certificate::issue(from, d, &mut |x| {
                rng.fill(x)
            })));
        };
        // Fill M's frontier slots with MAX_NODE_FRONTIERS pairwise
        // incomparable narrow tags, then add the wide edge last.
        for method in ["A", "B", "C", "D", "E", "F", "G", "H"] {
            grant(&s, &m, tag(&format!("(web (method {method}))")));
        }
        grant(&s, &m, tag("(web)"));
        grant(&m, &a, tag("(web)"));

        let p = prover
            .find_proof(
                &Principal::key(&a.public),
                &Principal::key(&s.public),
                &tag("(web)"),
                Time(0),
            )
            .expect("the wide path must evict narrow frontier entries, not be capped out");
        p.verify(&VerifyCtx::at(Time(0))).unwrap();
    }

    /// An adversarial graph with parallel incomparable-tag edges at every
    /// hop must not blow the search up: the per-node frontier cap bounds
    /// it, and a query for an absent subject still terminates quickly.
    #[test]
    fn incomparable_parallel_edges_stay_bounded() {
        let prover = det_prover("parallel-edges");
        let keys: Vec<KeyPair> = (0..=10).map(|i| kp(&format!("p{i}"))).collect();
        let mut rng = DetRng::new(b"i");
        for i in 0..10 {
            for t in ["(web (method GET))", "(web (method PUT))", "(db)"] {
                let d = Delegation {
                    subject: Principal::key(&keys[i + 1].public),
                    issuer: Principal::key(&keys[i].public),
                    tag: tag(t),
                    validity: Validity::always(),
                    delegable: true,
                };
                prover.add_proof(Proof::signed_cert(Certificate::issue(
                    &keys[i],
                    d,
                    &mut |x| rng.fill(x),
                )));
            }
        }
        let before = prover.stats().expansions;
        assert!(prover
            .find_proof(
                &Principal::message(b"nobody"),
                &Principal::key(&keys[0].public),
                &tag("(web)"),
                Time(0),
            )
            .is_none());
        let spent = prover.stats().expansions - before;
        // 11 nodes × MAX_NODE_FRONTIERS is the worst case; far below the
        // 3^10 paths an uncapped widening search could enumerate.
        assert!(spent <= 11 * 8 + 1, "search expanded {spent} nodes");
    }

    /// Regression for blunt-flush invalidation: before
    /// `Prover::invalidate_cert`, reacting to one revoked certificate
    /// required `clear_shortcuts` (and that did not even touch base
    /// edges).  Targeted invalidation must (a) kill every chain built on
    /// the revoked certificate, including warm shortcuts, and (b) leave
    /// unrelated warm shortcuts answering without re-search.
    #[test]
    fn invalidate_cert_is_targeted() {
        let prover = det_prover("invalidate");
        let (s, a, b) = (kp("s"), kp("a"), kp("b"));
        let (x, y) = (kp("x"), kp("y"));
        let mut rng = DetRng::new(b"i");
        let mut issue = |from: &KeyPair, to: &KeyPair| {
            let d = Delegation {
                subject: Principal::key(&to.public),
                issuer: Principal::key(&from.public),
                tag: tag("(web)"),
                validity: Validity::always(),
                delegable: true,
            };
            Certificate::issue(from, d, &mut |buf| rng.fill(buf))
        };
        // Chain 1: B ⇒ A ⇒ S (the S→A cert will be revoked).
        let cert_sa = issue(&s, &a);
        let revoked_hash = cert_sa.hash();
        prover.add_proof(Proof::signed_cert(cert_sa));
        prover.add_proof(Proof::signed_cert(issue(&a, &b)));
        // Chain 2: Y ⇒ X ⇒ S, unrelated.
        prover.add_proof(Proof::signed_cert(issue(&s, &x)));
        prover.add_proof(Proof::signed_cert(issue(&x, &y)));

        let issuer = Principal::key(&s.public);
        // Warm both multi-hop chains so shortcut edges exist for each.
        assert!(prover
            .find_proof(&Principal::key(&b.public), &issuer, &tag("(web)"), Time(0))
            .is_some());
        assert!(prover
            .find_proof(&Principal::key(&y.public), &issuer, &tag("(web)"), Time(0))
            .is_some());
        assert_eq!(prover.stats().shortcut_edges, 2);

        // Revoke S→A: the base edge and the B ⇒ S shortcut derived from it
        // must go; nothing else.
        let removed = prover.invalidate_cert(&revoked_hash);
        assert_eq!(removed, 2, "base edge + derived shortcut");
        let stats = prover.stats();
        assert_eq!(stats.invalidated_edges, 2);
        assert_eq!(stats.cert_invalidations, 1);
        assert_eq!(stats.shortcut_edges, 1, "unrelated shortcut survives");

        // The revoked chain no longer answers…
        assert!(prover
            .find_proof(&Principal::key(&b.public), &issuer, &tag("(web)"), Time(0))
            .is_none());
        assert!(prover
            .find_proof(&Principal::key(&a.public), &issuer, &tag("(web)"), Time(0))
            .is_none());
        // …while the unrelated warm shortcut still answers in ≤2 expansions
        // — proof that no blunt `clear_shortcuts` flush was needed.
        let before = prover.stats().expansions;
        assert!(prover
            .find_proof(&Principal::key(&y.public), &issuer, &tag("(web)"), Time(0))
            .is_some());
        assert!(prover.stats().expansions - before <= 2, "warm path kept");

        // A re-issued (distinct) certificate for the same principals can be
        // learned after invalidation.
        let d = Delegation {
            subject: Principal::key(&a.public),
            issuer: issuer.clone(),
            tag: tag("(web)"),
            validity: Validity::until(Time(9_999)),
            delegable: true,
        };
        prover.add_proof(Proof::signed_cert(Certificate::issue(&s, d, &mut |buf| {
            rng.fill(buf)
        })));
        assert!(prover
            .find_proof(&Principal::key(&b.public), &issuer, &tag("(web)"), Time(0))
            .is_some());
    }

    #[test]
    fn stats_reflect_graph() {
        let (prover, _) = chain_prover(4);
        let s = prover.stats();
        assert_eq!(s.base_edges, 4);
        assert_eq!(s.shortcut_edges, 0);
        prover.clear_shortcuts();
        assert_eq!(prover.stats().shortcut_edges, 0);
    }
}
