//! One revocation push, four caches built on `RevocableMap`: the
//! verified-chain memo, the servlet's identical-request cache, the RMI
//! proof cache and MAC sessions.
//!
//! For each cache the table warms one entry built from Alice's grant and
//! one from Bob's, pushes the revocation of Alice's certificate through
//! the cache's `RevocationBus`, and checks that exactly Alice's dependent
//! entries died: her next request re-verifies (or is denied until she
//! re-proves), while Bob's stays warm.

use snowflake_apps::vfs::Vfs;
use snowflake_apps::webserver::ProtectedWebService;
use snowflake_channel::AuthChannel;
use snowflake_core::{
    Certificate, ChainMemo, ChannelId, Delegation, HashAlg, Principal, Proof, RevocationBus, Tag,
    Time, Validity, VerifyCtx,
};
use snowflake_crypto::{DetRng, Group, HashVal, KeyPair, PublicKey};
use snowflake_http::mac::{decode_mac_header, ClientMacSession};
use snowflake_http::{auth, Handler, HttpRequest, MacSessionStore, ProtectedServlet};
use snowflake_rmi::{FileObject, Invocation, RmiReply, RmiServer, PROOF_RECIPIENT};
use snowflake_sexpr::Sexp;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

fn kp(seed: &str) -> KeyPair {
    let mut rng = DetRng::new(seed.as_bytes());
    KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
}

fn det(seed: &str) -> Box<dyn FnMut(&mut [u8]) + Send> {
    let mut r = DetRng::new(seed.as_bytes());
    Box::new(move |b: &mut [u8]| r.fill(b))
}

fn fixed_clock() -> Time {
    Time(1_000_000)
}

/// `owner ⇒ subject` over `tag`, delegable, never expiring.
fn grant(owner: &KeyPair, subject: &KeyPair, tag: Tag, seed: &str) -> Certificate {
    let d = Delegation {
        subject: Principal::key(&subject.public),
        issuer: Principal::key(&owner.public),
        tag,
        validity: Validity::always(),
        delegable: true,
    };
    Certificate::issue(owner, d, &mut det(seed))
}

/// What one request met.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Answered from the cache.
    Warm,
    /// Missed the cache and passed a fresh verification.
    Reverified,
    /// Refused until the client proves again.
    Denied,
}

/// One cache under test: its bus, the certificate to revoke, how many
/// entries the push must evict, and a request by each user.
struct Row {
    bus: Arc<dyn RevocationBus>,
    revoked: HashVal,
    evicted: usize,
    after_push: Outcome,
    alice: Box<dyn FnMut() -> Outcome>,
    bob: Box<dyn FnMut() -> Outcome>,
}

fn memo_row() -> Row {
    let (owner, alice, bob) = (kp("owner"), kp("alice"), kp("bob"));
    let cert_a = grant(&owner, &alice, Tag::Star, "memo-a");
    let revoked = cert_a.hash();
    let memo = Arc::new(ChainMemo::new(64));
    let request = |proof: Proof| {
        let memo = Arc::clone(&memo);
        let ctx = VerifyCtx::at(fixed_clock()).with_chain_memo(Arc::clone(&memo));
        ctx.verify_cached(&proof).unwrap(); // the cold, inserting pass
        Box::new(move || {
            let hits = memo.stats().hits;
            ctx.verify_cached(&proof).unwrap();
            if memo.stats().hits > hits {
                Outcome::Warm
            } else {
                Outcome::Reverified
            }
        }) as Box<dyn FnMut() -> Outcome>
    };
    Row {
        alice: request(Proof::signed_cert(cert_a)),
        bob: request(Proof::signed_cert(grant(&owner, &bob, Tag::Star, "memo-b"))),
        bus: memo,
        revoked,
        evicted: 1,
        after_push: Outcome::Reverified,
    }
}

fn servlet_row() -> Row {
    let (owner, alice, bob) = (kp("owner"), kp("alice"), kp("bob"));
    let issuer = Principal::key(&owner.public);
    let vfs = Arc::new(Vfs::new());
    vfs.write("/docs/a.html", b"<p>a</p>".to_vec());
    let service = ProtectedWebService::new(issuer.clone(), "files", vfs);
    let subtree = service.subtree_tag("/docs/");
    let servlet = ProtectedServlet::with_clock(service, fixed_clock, det("servlet"));
    let cert_a = grant(&owner, &alice, subtree.clone(), "servlet-a");
    let revoked = cert_a.hash();
    let request = |user: &str, key: &KeyPair, cert: Certificate| {
        let mut req = HttpRequest::get("/docs/a.html");
        req.set_header("X-User", user);
        let subject = auth::request_principal(&req, HashAlg::Sha256);
        let min_tag = auth::web_tag("GET", "files", "/docs/a.html");
        let now = fixed_clock();
        let step = Certificate::issue(
            key,
            Delegation {
                subject,
                issuer: Principal::key(&key.public),
                tag: min_tag,
                validity: Validity::until(now.plus(300)),
                delegable: false,
            },
            &mut det(user),
        );
        auth::attach_proof(
            &mut req,
            &Proof::signed_cert(step).then(Proof::signed_cert(cert)),
        );
        let servlet = Arc::clone(&servlet);
        assert_eq!(servlet.handle(&req).status, 200); // verified and cached
        Box::new(move || {
            let before = servlet.stats();
            let status = servlet.handle(&req).status;
            let after = servlet.stats();
            match status {
                200 if after.ident_hits > before.ident_hits => Outcome::Warm,
                200 if after.proof_verifications > before.proof_verifications => {
                    Outcome::Reverified
                }
                _ => Outcome::Denied,
            }
        }) as Box<dyn FnMut() -> Outcome>
    };
    Row {
        alice: request("alice", &alice, cert_a),
        bob: request("bob", &bob, grant(&owner, &bob, subtree, "servlet-b")),
        bus: servlet,
        revoked,
        // The identical-request entry and the servlet's memo entry.
        evicted: 2,
        after_push: Outcome::Reverified,
    }
}

/// The identity facts of a connection, without a transport:
/// `RmiServer::dispatch` reads only who the peer is.
struct Peer {
    id: ChannelId,
    key: PublicKey,
}

impl AuthChannel for Peer {
    fn send(&mut self, _msg: &[u8]) -> io::Result<()> {
        Err(io::ErrorKind::Unsupported.into())
    }
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        Err(io::ErrorKind::Unsupported.into())
    }
    fn channel_id(&self) -> ChannelId {
        self.id.clone()
    }
    fn peer_key(&self) -> Option<&PublicKey> {
        Some(&self.key)
    }
    fn peer_binding(&self) -> Option<Delegation> {
        None
    }
}

fn rmi_row() -> Row {
    let (owner, alice, bob) = (kp("owner"), kp("alice"), kp("bob"));
    let server = RmiServer::with_clock(fixed_clock);
    let files = HashMap::from([("X".to_string(), b"x".to_vec())]);
    server.register(
        "files",
        Arc::new(FileObject::new(Principal::key(&owner.public), files)),
    );
    let files_tag = Tag::parse(&Sexp::parse(b"(rmi (object files))").unwrap()).unwrap();
    let cert_a = grant(&owner, &alice, files_tag.clone(), "rmi-a");
    let revoked = cert_a.hash();
    let request = |user: &str, key: &KeyPair, cert: Certificate| {
        let peer = Peer {
            id: ChannelId {
                kind: "test".into(),
                id: HashVal::of(user.as_bytes()),
            },
            key: key.public.clone(),
        };
        let submit = Invocation {
            object: PROOF_RECIPIENT.into(),
            method: "submit".into(),
            args: vec![Proof::signed_cert(cert).to_sexp()],
            quoting: None,
        };
        assert!(matches!(
            server.dispatch(&submit, &peer),
            RmiReply::Return(_)
        ));
        let read = Invocation {
            object: "files".into(),
            method: "read".into(),
            args: vec![Sexp::from("X")],
            quoting: None,
        };
        let server = Arc::clone(&server);
        Box::new(move || match server.dispatch(&read, &peer) {
            RmiReply::Return(_) => Outcome::Warm,
            RmiReply::Fault(_) => Outcome::Denied,
        }) as Box<dyn FnMut() -> Outcome>
    };
    Row {
        alice: request("alice", &alice, cert_a),
        bob: request("bob", &bob, grant(&owner, &bob, files_tag, "rmi-b")),
        bus: server,
        revoked,
        // The proof-cache entry and the server's memo entry.
        evicted: 2,
        after_push: Outcome::Denied,
    }
}

fn mac_row() -> Row {
    let (owner, alice, bob) = (kp("owner"), kp("alice"), kp("bob"));
    let store = Arc::new(MacSessionStore::new());
    let cert_a = grant(&owner, &alice, Tag::Star, "mac-a");
    let revoked = cert_a.hash();
    let request = |user: &str, cert: Certificate| {
        let (body, dh) = ClientMacSession::request_body(&mut det(&format!("{user}-client")));
        let reply = store
            .establish_at_epoch(
                &body,
                cert.delegation.clone(),
                Proof::signed_cert(cert),
                fixed_clock(),
                &mut det(&format!("{user}-server")),
                store.invalidation_epoch(),
            )
            .unwrap();
        let session = ClientMacSession::from_grant(&reply, &dh, Validity::always()).unwrap();
        let store = Arc::clone(&store);
        Box::new(move || {
            let hash = HashVal::of(b"GET /docs/a.html");
            let mac = decode_mac_header(&session.authenticate(&hash)).unwrap();
            match store.verify(&session.mac_id, &mac, &hash, &Tag::Star, fixed_clock()) {
                Ok(_) => Outcome::Warm,
                Err(_) => Outcome::Denied,
            }
        }) as Box<dyn FnMut() -> Outcome>
    };
    Row {
        alice: request("alice", cert_a),
        bob: request("bob", grant(&owner, &bob, Tag::Star, "mac-b")),
        bus: store,
        revoked,
        evicted: 1,
        after_push: Outcome::Denied,
    }
}

#[test]
fn push_evicts_exactly_the_dependent_entry_in_every_cache() {
    let rows = [
        ("chain memo", memo_row as fn() -> Row),
        ("servlet identical-request cache", servlet_row),
        ("rmi proof cache", rmi_row),
        ("mac sessions", mac_row),
    ];
    for (name, build) in rows {
        let mut row = build();
        assert_eq!(
            (row.alice)(),
            Outcome::Warm,
            "{name}: alice warm before the push"
        );
        assert_eq!(
            (row.bob)(),
            Outcome::Warm,
            "{name}: bob warm before the push"
        );
        assert_eq!(
            row.bus.certificate_revoked(&row.revoked),
            row.evicted,
            "{name}: entries evicted"
        );
        assert_eq!(
            (row.alice)(),
            row.after_push,
            "{name}: alice after the push"
        );
        assert_eq!(
            (row.bob)(),
            Outcome::Warm,
            "{name}: bob untouched by the push"
        );
    }
}
