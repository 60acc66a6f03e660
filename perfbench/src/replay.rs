//! Offline replay: after the traced run, the run's captured inputs are
//! pushed through each layer's public function with no load, one call at
//! a time, and each layer's median per-call time is reported.

use crate::server::{doc_tag, Served};
use crate::stats::median_f64;
use crate::trace::Captures;
use snowflake_audit::{AuditLog, FileBackend};
use snowflake_broker::AuthzRequest;
use snowflake_channel::{PipeTransport, SecureChannel};
use snowflake_core::{ChainMemo, HashAlg, Principal, Proof, Tag, Time, VerifyCtx};
use snowflake_http::{auth, HttpRequest, WWW_AUTH_SNOWFLAKE};
use snowflake_sexpr::Sexp;
use snowflake_tags::path_vector;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Inputs replayed per layer (the first ones captured).
const REPLAY_CAP: usize = 256;

/// Median microseconds per call of `f` over `inputs`.
fn time_each<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = inputs
        .iter()
        .take(REPLAY_CAP)
        .map(|x| {
            let start = Instant::now();
            f(x);
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    if times.is_empty() {
        0.0
    } else {
        median_f64(&times)
    }
}

/// One proof check as a surface performs it.
struct Check {
    proof: Proof,
    speaker: Principal,
    issuer: Principal,
    tag: Tag,
}

/// Replays every captured input kind; layers the workload never reached
/// report 0.
pub fn run(
    served: &Served,
    captures: &Captures,
    dir: &Path,
    seed: u64,
) -> Vec<(&'static str, f64)> {
    let now = Time::now();
    let mut out = Vec::new();

    // HTTP: parse the request bytes, check MACs.
    let wire: Vec<Vec<u8>> = captures
        .requests
        .iter()
        .map(|r| {
            let mut b = Vec::new();
            r.write_to(&mut b).expect("serialize to Vec");
            b
        })
        .collect();
    out.push((
        "http.parse_us",
        time_each(&wire, |b| {
            black_box(HttpRequest::read_from(&mut &b[..]).expect("captured request parses"));
        }),
    ));
    let mac: Vec<&HttpRequest> = captures
        .requests
        .iter()
        .filter(|r| r.header(auth::MAC_ID_HEADER).is_some())
        .collect();
    out.push((
        "http.mac_verify_us",
        time_each(&mac, |r| {
            black_box(auth::authorize_mac(
                &served.servlet_macs,
                r,
                &doc_tag(r),
                HashAlg::Sha256,
                now,
            ));
        }),
    ));

    // Signed requests: s-expression parse, proof decode.
    let proof_text: Vec<(&HttpRequest, &[u8])> = captures
        .requests
        .iter()
        .filter_map(|r| {
            let v = r.header("Authorization")?;
            Some((
                r,
                v.strip_prefix(WWW_AUTH_SNOWFLAKE)?.trim_start().as_bytes(),
            ))
        })
        .collect();
    out.push((
        "sexpr.parse_us",
        time_each(&proof_text, |(_, t)| {
            black_box(Sexp::parse(t).expect("captured proof parses"));
        }),
    ));
    let parsed: Vec<(&HttpRequest, Sexp)> = proof_text
        .iter()
        .take(REPLAY_CAP)
        .map(|(r, t)| (*r, Sexp::parse(t).expect("captured proof parses")))
        .collect();
    out.push((
        "core.decode_us",
        time_each(&parsed, |(_, s)| {
            black_box(Proof::from_sexp(s).expect("captured proof decodes"));
        }),
    ));

    // Proof checks: wire proofs of signed requests, and the prover's
    // proofs for authz questions.
    let mut checks: Vec<Check> = parsed
        .iter()
        .map(|(r, s)| Check {
            proof: Proof::from_sexp(s).expect("captured proof decodes"),
            speaker: auth::request_principal(r, HashAlg::Sha256),
            issuer: served.owner.clone(),
            tag: doc_tag(r),
        })
        .collect();
    let questions: Vec<AuthzRequest> = captures
        .requests
        .iter()
        .filter(|r| r.path == "/authz")
        .filter_map(|r| AuthzRequest::from_json(&r.body).ok())
        .collect();
    let question_tag = |q: &AuthzRequest| {
        let path: Vec<&str> = q.object_path.iter().map(String::as_str).collect();
        path_vector::request_tag(&q.object_ns, &path, &q.action)
    };
    out.push((
        "broker.json_parse_us",
        time_each(
            &captures
                .requests
                .iter()
                .filter(|r| r.path == "/authz")
                .collect::<Vec<_>>(),
            |r| {
                black_box(AuthzRequest::from_json(&r.body).ok());
            },
        ),
    ));
    let issuer = |q: &AuthzRequest| served.authz_issuers[&q.object_ns].clone();
    out.push((
        "prover.find_proof_us",
        time_each(&questions, |q| {
            black_box(served.prover.find_proof(
                &q.subject_principal(),
                &issuer(q),
                &question_tag(q),
                now,
            ));
        }),
    ));
    checks.extend(questions.iter().take(REPLAY_CAP).filter_map(|q| {
        let tag = question_tag(q);
        let speaker = q.subject_principal();
        let proof = served.prover.find_proof(&speaker, &issuer(q), &tag, now)?;
        Some(Check {
            proof,
            speaker,
            issuer: issuer(q),
            tag,
        })
    }));
    let cold = VerifyCtx::at(now);
    out.push((
        "core.verify_cold_us",
        time_each(&checks, |c| {
            black_box(cold.authorize(&c.proof, &c.speaker, &c.issuer, &c.tag))
                .expect("replayed proof verifies");
        }),
    ));
    let memo = VerifyCtx::at(now).with_chain_memo(Arc::new(ChainMemo::new(2 * REPLAY_CAP)));
    for c in checks.iter().take(REPLAY_CAP) {
        memo.authorize(&c.proof, &c.speaker, &c.issuer, &c.tag)
            .expect("replayed proof verifies");
    }
    out.push((
        "core.memo_hit_us",
        time_each(&checks, |c| {
            black_box(memo.authorize(&c.proof, &c.speaker, &c.issuer, &c.tag)).expect("memo hit");
        }),
    ));
    let signatures: Vec<(snowflake_core::Certificate, Vec<u8>)> = checks
        .iter()
        .flat_map(|c| c.proof.lemmas().into_iter())
        .filter_map(|l| match l {
            Proof::SignedCert(cert) => Some(((**cert).clone(), cert.signed_bytes())),
            _ => None,
        })
        .take(REPLAY_CAP)
        .collect();
    out.push((
        "crypto.verify_us",
        time_each(&signatures, |(cert, msg)| {
            assert!(black_box(cert.signer.verify(msg, &cert.signature)));
        }),
    ));

    // Channel record crypto over the captured invocations.
    let frames: Vec<Vec<u8>> = captures
        .invocations
        .iter()
        .map(|i| i.to_sexp().canonical())
        .collect();
    let (seal_us, open_us) = if frames.is_empty() {
        (0.0, 0.0)
    } else {
        record_crypto(&frames, seed)
    };
    out.push(("channel.seal_us", seal_us));
    out.push(("channel.open_us", open_us));

    // Audit append on a fresh file log.
    let append_us = if captures.events.is_empty() {
        0.0
    } else {
        let backend = FileBackend::open(dir.join("replay-audit.log")).expect("replay log opens");
        let log = AuditLog::new(crate::inputs::audit_signer(seed), Box::new(backend))
            .expect("replay log opens");
        time_each(&captures.events, |e| {
            let (_, io) = log.append(e.clone());
            io.expect("replay append");
        })
    };
    out.push(("audit.append_us", append_us));
    out
}

/// Median seal and open times of a fresh session over `frames`.
fn record_crypto(frames: &[Vec<u8>], seed: u64) -> (f64, f64) {
    let (client_end, server_end) = PipeTransport::pair();
    let server = std::thread::spawn(move || {
        let key = crate::inputs::rmi_server(seed);
        let mut rng = crate::inputs::rng(seed, "replay-server");
        SecureChannel::server(Box::new(server_end), &key, None, &mut *rng)
            .expect("replay handshake")
            .into_parts()
    });
    let key = crate::inputs::rmi_client(seed);
    let mut rng = crate::inputs::rng(seed, "replay-client");
    let client = SecureChannel::client(Box::new(client_end), Some(&key), None, &mut *rng)
        .expect("replay handshake")
        .into_parts();
    let server = server.join().expect("replay handshake thread");
    let (mut seal, mut open) = (client.crypto, server.crypto);
    // Records open in the order they were sealed, so seal the set to open
    // first, then time sealing on the records that follow.
    let sealed: Vec<Vec<u8>> = frames
        .iter()
        .take(REPLAY_CAP)
        .map(|f| seal.seal(f))
        .collect();
    let seal_us = time_each(frames, |f| {
        black_box(seal.seal(f));
    });
    let open_us = time_each(&sealed, |f| {
        black_box(open.open(f).expect("replayed record opens"));
    });
    (seal_us, open_us)
}
