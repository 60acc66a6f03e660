//! Seeded key material and workload constants shared by the server and
//! the load generator.
//!
//! Both processes derive every key from the run's seed, so the server
//! receives nothing but the seed and the generated request bytes.

use snowflake_broker::subject_principal;
use snowflake_core::{Principal, Tag};
use snowflake_crypto::{DetRng, Group, KeyPair};
use snowflake_sexpr::Sexp;
use snowflake_tags::path_vector::{grant_tag, ActionTable, PathPattern};

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SignedFresh,
    SessionWarm,
    AuthzChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SignedFresh,
        Workload::SessionWarm,
        Workload::AuthzChurn,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SignedFresh => "signed_fresh",
            Workload::SessionWarm => "session_warm",
            Workload::AuthzChurn => "authz_churn",
        }
    }
}

/// Input sizes: `full` is the benchmark; `tiny` is for the self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    pub name: &'static str,
    /// Distinct client keys on `signed_fresh`: twice the 128-slot key
    /// table.
    pub client_keys: usize,
    /// MAC sessions `session_warm` establishes at setup.
    pub mac_sessions: usize,
    /// Authz subjects: four times the 1024-entry `ChainMemo`.  Every
    /// workload builds the same graph, so the revocation path the probe
    /// measures is the one `authz_churn` loads.
    pub authz_subjects: usize,
}

impl Sizes {
    pub fn parse(name: &str) -> Option<Sizes> {
        match name {
            "full" => Some(Sizes {
                name: "full",
                client_keys: 256,
                mac_sessions: 256,
                authz_subjects: 4096,
            }),
            "tiny" => Some(Sizes {
                name: "tiny",
                client_keys: 8,
                mac_sessions: 8,
                authz_subjects: 64,
            }),
            _ => None,
        }
    }
}

/// Authz tenants.  Each owns an object namespace controlled by its own
/// issuer, and a line of team keys below that issuer: the team, a
/// sub-team it delegates to, and a sub-sub-team.  Each subject is a
/// member of one of the three, so its chain to the issuer has two, three
/// or four certificates.
pub const TEAMS: usize = 16;
/// Team levels per tenant (see [`TEAMS`]).  Chains of three lengths
/// spread the cost of a cold authz verify over several values a
/// signature check apart, so the latency percentiles sit in a broad
/// distribution rather than between two narrow peaks whose weights the
/// shared machine's momentary speed decides.
pub const LEVELS: usize = 3;
/// Subjects the post-run revocation probe cycles through on workloads
/// that do not churn.
pub const PROBE_SUBJECTS: usize = 8;
/// Rooms the authz questions spread over.
pub const ROOMS: usize = 16;
/// The namespace every authz subject's identity lives in.
pub const NAMESPACE: &str = "accounts.bench.example.org";
/// The action every authz question asks about.
pub const ACTION: &str = "read";
/// The benchmark-only request-id header; it is part of the request hash,
/// so the id is signed with the request.
pub const ID_HEADER: &str = "X-Bench-Id";
/// The protected document service's path prefix.
pub const DOC_PREFIX: &str = "/doc/";
/// The RMI object and method `session_warm` calls.
pub const RMI_OBJECT: &str = "bench";
pub const RMI_METHOD: &str = "echo";

/// One named key derived from the seed.  Keys are 1024-bit, the paper's
/// size.
pub fn key(seed: u64, label: &str) -> KeyPair {
    let mut rng = DetRng::new(format!("perfbench/{seed}/{label}").as_bytes());
    KeyPair::generate(Group::group1024(), &mut |b| rng.fill(b))
}

/// An entropy source, in the shape the library's constructors take.
pub type Rng = Box<dyn FnMut(&mut [u8]) + Send>;

/// A seeded entropy source for signing and DH on one named stream.
pub fn rng(seed: u64, label: &str) -> Rng {
    let mut rng = DetRng::new(format!("perfbench/{seed}/rng/{label}").as_bytes());
    Box::new(move |b: &mut [u8]| rng.fill(b))
}

/// The protected document service's owner (the servlet's issuer).
pub fn owner(seed: u64) -> KeyPair {
    key(seed, "owner")
}

/// The group key between the owner and every client key.
pub fn group(seed: u64) -> KeyPair {
    key(seed, "group")
}

/// Client key `i`.
pub fn client(seed: u64, i: usize) -> KeyPair {
    key(seed, &format!("client/{i}"))
}

/// The tag every web grant carries: all of `(web …)`.
pub fn web_grant() -> Tag {
    Tag::parse(&Sexp::parse(b"(tag (web))").expect("literal")).expect("literal")
}

/// Tenant `t`'s object namespace.
pub fn object_namespace(t: usize) -> String {
    format!("t{t}.bench.example.org")
}

/// The issuer controlling tenant `t`'s namespace.
pub fn authz_issuer(seed: u64, t: usize) -> KeyPair {
    key(seed, &format!("authz-issuer/{t}"))
}

/// Tenant `t`'s team key at `level` (0 is the team the issuer grants
/// to; each level below is delegated to by the one above).
pub fn team(seed: u64, t: usize, level: usize) -> KeyPair {
    key(seed, &format!("team/{t}/{level}"))
}

/// The tenant (and team) subject `i` belongs to.
pub fn team_of(i: usize) -> usize {
    i % TEAMS
}

/// The team level subject `i` is a member of.
pub fn level_of(i: usize) -> usize {
    (i / TEAMS) % LEVELS
}

/// Subject `i`'s path within [`NAMESPACE`].
pub fn subject_path(i: usize) -> Vec<String> {
    vec!["accounts".to_string(), format!("u{i:05}")]
}

/// Subject `i` as a principal.
pub fn subject(i: usize) -> Principal {
    subject_principal(NAMESPACE, &subject_path(i))
}

/// Which shape/action pairs exist in every tenant's namespace.
pub fn action_table() -> ActionTable {
    let mut t = ActionTable::new();
    t.allow(&["rooms", "*", "events"], &[ACTION]);
    t
}

/// The grant tenant `t`'s team and subjects hold.
pub fn authz_grant(t: usize) -> Tag {
    grant_tag(
        &object_namespace(t),
        &PathPattern::parse(&["rooms", "*", "events"]),
        &[ACTION],
    )
}

/// The JSON body of one authz question: may `subject` read a room of its
/// tenant?
pub fn authz_body(subject: usize, room: usize) -> Vec<u8> {
    let path = subject_path(subject);
    let ns = object_namespace(team_of(subject));
    format!(
        "{{\"subject\":{{\"namespace\":\"{NAMESPACE}\",\"value\":[\"{}\",\"{}\"]}},\
         \"object\":{{\"namespace\":\"{ns}\",\"value\":[\"rooms\",\"r{room}\",\"events\"]}},\
         \"action\":\"{ACTION}\"}}",
        path[0], path[1]
    )
    .into_bytes()
}

/// The owner of the RMI object.
pub fn rmi_owner(seed: u64) -> KeyPair {
    key(seed, "rmi-owner")
}

/// The RMI server's channel key.
pub fn rmi_server(seed: u64) -> KeyPair {
    key(seed, "rmi-server")
}

/// The RMI client's channel key.
pub fn rmi_client(seed: u64) -> KeyPair {
    key(seed, "rmi-client")
}

/// The revocation validator's key.
pub fn validator(seed: u64) -> KeyPair {
    key(seed, "validator")
}

/// The audit log's checkpoint signer.
pub fn audit_signer(seed: u64) -> KeyPair {
    key(seed, "audit")
}

/// A small seeded generator for choices (splitmix64).
pub struct Pick(u64);

impl Pick {
    pub fn new(seed: u64, stream: &str) -> Pick {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Pick(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The skew of `authz_churn`'s subject popularity: with 4096 subjects
/// the 1024-entry memo answers about a third of the questions.
pub const ZIPF_EXPONENT: f64 = 0.5;

/// A Zipf popularity over `n` ranks (weight of rank r ∝ r^−`exponent`),
/// sampled by inverting its CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, pick: &mut Pick) -> usize {
        let u = pick.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}
