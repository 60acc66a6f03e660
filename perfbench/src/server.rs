//! The server process: the production serving stack wired from the
//! library crates' public API, driven over loopback TCP by the generator.
//!
//! One `ServerRuntime` (reactor plus an `nproc`-worker pool) carries every
//! surface: the HTTP server (a `ProtectedServlet` document service, the
//! `AuthzEndpoint`, and the benchmark's admin route), the RMI server, and
//! the `/metrics` exporter.  Every decision is audited through
//! `AuditSink::start` into an `AuditLog` on a `FileBackend` in the run's
//! directory.  Revocations go through `ValidatorService::revoke`, whose
//! push reaches the prover and the authz memo through a `FreshnessAgent`'s
//! revocation buses.
//!
//! The process prints `READY <http> <rmi> <metrics>` once it listens, then
//! obeys one command per stdin line: `TRACE 1` / `TRACE 0` switch span
//! recording, `CLEAR` drops what was recorded so far, `REPORT` writes the traced run's server-side figures to
//! `report.txt` in the run directory, and `QUIT` (or end of input) shuts
//! the runtime down.

use crate::inputs::{self, Sizes, ID_HEADER};
use crate::replay;
use crate::trace::{self, TracedBus, TracedEmitter, TracedHandler, TracedObject, TracedService};
use snowflake_audit::{AuditLog, AuditSink, FileBackend};
use snowflake_broker::{AuthzEndpoint, NamespaceAuthority};
use snowflake_core::audit::AuditEmitter;
use snowflake_core::{HashVal, Principal, Proof, Tag, Time, Validity};
use snowflake_http::{
    serve_metrics, Handler, HttpRequest, HttpResponse, HttpServer, ProtectedServlet,
    SnowflakeService, MAC_SESSION_PATH,
};
use snowflake_prover::Prover;
use snowflake_revocation::{
    AgentSink, FreshnessAgent, InProcessValidator, RevocationBus, ValidatorService,
};
use snowflake_rmi::{CallerInfo, Invocation, RemoteObject, RmiFault, RmiServer};
use snowflake_runtime::{PoolConfig, ServerRuntime};
use snowflake_sexpr::Sexp;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Pool queue capacity (accepted-but-unstarted requests).
const QUEUE_CAPACITY: usize = 256;

/// Which caches the revocation push reaches.  Anything but `Full` is a
/// deliberately broken wiring the self-tests use to show the oracle bites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wiring {
    Full,
    MemoOffBus,
    ProverOffBus,
}

impl Wiring {
    const ALL: [Wiring; 3] = [Wiring::Full, Wiring::MemoOffBus, Wiring::ProverOffBus];

    pub fn parse(name: &str) -> Option<Wiring> {
        Wiring::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Wiring::Full => "full",
            Wiring::MemoOffBus => "memo-off-bus",
            Wiring::ProverOffBus => "prover-off-bus",
        }
    }
}

pub struct ServeArgs {
    pub seed: u64,
    pub sizes: Sizes,
    pub dir: PathBuf,
    pub trace: bool,
    pub wiring: Wiring,
}

/// The body the document service answers with; the generator's oracle
/// builds the same bytes.
pub fn doc_body(path: &str, id: &str) -> Vec<u8> {
    format!("doc {path} id {id}").into_bytes()
}

/// The protected document service behind the servlet.
pub struct DocService {
    issuer: Principal,
}

impl SnowflakeService for DocService {
    fn issuer(&self, _req: &HttpRequest) -> Principal {
        self.issuer.clone()
    }
    fn min_tag(&self, req: &HttpRequest) -> Tag {
        doc_tag(req)
    }
    fn serve(&self, req: &HttpRequest, _speaker: &Principal) -> HttpResponse {
        let id = req.header(ID_HEADER).unwrap_or("");
        HttpResponse::ok("text/plain", doc_body(&req.path, id))
    }
}

/// The restriction a document request needs.
pub fn doc_tag(req: &HttpRequest) -> Tag {
    snowflake_http::auth::web_tag(&req.method, "doc", &req.path)
}

/// The RMI object: echoes its first argument (the request id).
struct EchoObject {
    issuer: Principal,
}

impl RemoteObject for EchoObject {
    fn issuer(&self) -> Principal {
        self.issuer.clone()
    }
    fn invoke(&self, invocation: &Invocation, _caller: &CallerInfo) -> Result<Sexp, RmiFault> {
        match (invocation.method.as_str(), invocation.args.first()) {
            (inputs::RMI_METHOD, Some(arg)) => Ok(arg.clone()),
            (m, _) => Err(RmiFault::NoSuchMethod(m.to_string())),
        }
    }
}

/// The benchmark-owned admin route: `POST /admin/revoke` and
/// `POST /admin/grant` with a subject index as the body.
struct Admin {
    validator: Arc<ValidatorService>,
    prover: Arc<Prover>,
    /// Per tenant, its team at each level.
    teams: Vec<Vec<Principal>>,
    /// Each subject's live membership certificate.
    members: Mutex<Vec<HashVal>>,
}

impl Admin {
    /// Issues subject `i` a fresh membership certificate from its team.
    fn grant(&self, i: usize) -> Proof {
        self.prover
            .delegate(
                &inputs::subject(i),
                &self.teams[inputs::team_of(i)][inputs::level_of(i)],
                inputs::authz_grant(inputs::team_of(i)),
                Validity::always(),
                false,
            )
            .expect("the prover holds every team key")
    }
}

impl Handler for Admin {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        let subject = std::str::from_utf8(&req.body)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&i| i < self.members.lock().expect("members poisoned").len());
        let Some(i) = subject else {
            return HttpResponse::status(400, "Bad Request", "subject index");
        };
        match req.path.as_str() {
            "/admin/revoke" => {
                let cert = self.members.lock().expect("members poisoned")[i].clone();
                trace::span("revocation.revoke", 0, || self.validator.revoke(cert));
                HttpResponse::ok("text/plain", format!("revoked {i}").into_bytes())
            }
            "/admin/grant" => {
                let cert = self.grant(i).cert_hashes()[0].clone();
                self.members.lock().expect("members poisoned")[i] = cert;
                HttpResponse::ok("text/plain", format!("granted {i}").into_bytes())
            }
            _ => HttpResponse::not_found(),
        }
    }
}

fn listener() -> std::io::Result<TcpListener> {
    TcpListener::bind("127.0.0.1:0")
}

/// Everything the report needs after the run.
pub struct Served {
    pub servlet_macs: Arc<snowflake_http::MacSessionStore>,
    pub owner: Principal,
    pub prover: Arc<Prover>,
    /// Each tenant namespace's issuer.
    pub authz_issuers: HashMap<String, Principal>,
}

/// Runs the server process until `QUIT` or end of input.
pub fn main(args: ServeArgs) -> Result<(), String> {
    let owner = Principal::key(&inputs::owner(args.seed).public);
    if args.trace {
        run(TracedService(DocService { issuer: owner }), args)
    } else {
        run(DocService { issuer: owner }, args)
    }
}

fn run<S: SnowflakeService + 'static>(service: S, args: ServeArgs) -> Result<(), String> {
    let seed = args.seed;
    let traced = args.trace;
    let registry = snowflake_metrics::global();
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let runtime = ServerRuntime::new(PoolConfig::new("perfbench", workers, QUEUE_CAPACITY));
    runtime.register_metrics(registry);
    snowflake_crypto::register_key_table_metrics(registry);

    // The audit pipeline under every surface.
    let backend = FileBackend::open(args.dir.join("audit.log"))?;
    let log = AuditLog::new(inputs::audit_signer(seed), Box::new(backend))?;
    let sink = AuditSink::start(log);
    sink.register_metrics(registry);
    let emitter: Arc<dyn AuditEmitter> = if traced {
        Arc::new(TracedEmitter(Arc::clone(&sink) as Arc<dyn AuditEmitter>))
    } else {
        Arc::clone(&sink) as Arc<dyn AuditEmitter>
    };
    let wrap = |name: &'static str, h: Arc<dyn Handler>| -> Arc<dyn Handler> {
        if traced {
            Arc::new(TracedHandler { name, inner: h })
        } else {
            h
        }
    };

    // The protected document service (signed requests and MAC sessions).
    let servlet = ProtectedServlet::new(service);
    servlet.set_audit_emitter(Arc::clone(&emitter));
    servlet.register_metrics(registry);

    // The authz endpoint over the prover's delegation graph: per tenant,
    // issuer ⇒ team ⇒ sub-team ⇒ sub-sub-team, and each subject a member
    // of one of the three, all granted rooms/*/events in the tenant's
    // namespace.
    // Each subject's chain starts digested into the prover (as if
    // presented once before), so a question finds it without a search;
    // a re-granted subject has only its new certificate, and its next
    // question searches the graph and caches a shortcut.
    let prover = Arc::new(Prover::with_rng(inputs::rng(seed, "prover")));
    prover.register_metrics(registry);
    let endpoint = AuthzEndpoint::new(Arc::clone(&prover));
    let mut issuers = HashMap::new();
    let mut teams = Vec::new();
    let mut team_grants = Vec::new();
    for t in 0..inputs::TEAMS {
        let issuer_kp = inputs::authz_issuer(seed, t);
        let issuer = Principal::key(&issuer_kp.public);
        prover.add_key(issuer_kp);
        // chains[level]: the tenant's team at `level` ⇒ its issuer.
        let mut level_teams = Vec::new();
        let mut chains: Vec<Proof> = Vec::new();
        let mut above = issuer.clone();
        for level in 0..inputs::LEVELS {
            let kp = inputs::team(seed, t, level);
            let team = Principal::key(&kp.public);
            prover.add_key(kp);
            let grant = prover
                .delegate(
                    &team,
                    &above,
                    inputs::authz_grant(t),
                    Validity::always(),
                    true,
                )
                .expect("key above held");
            chains.push(match chains.last() {
                Some(up) => grant.then(up.clone()),
                None => grant,
            });
            above = team.clone();
            level_teams.push(team);
        }
        team_grants.push(chains);
        teams.push(level_teams);
        let ns = inputs::object_namespace(t);
        endpoint.add_namespace(
            &ns,
            NamespaceAuthority {
                issuer: issuer.clone(),
                table: inputs::action_table(),
            },
        );
        issuers.insert(ns, issuer);
    }
    let validator = ValidatorService::new(inputs::validator(seed));
    validator.register_metrics(registry);
    let admin = Arc::new(Admin {
        validator: Arc::clone(&validator),
        prover: Arc::clone(&prover),
        teams,
        members: Mutex::new(Vec::new()),
    });
    let members: Vec<HashVal> = (0..args.sizes.authz_subjects)
        .map(|i| {
            let member = admin.grant(i);
            let cert = member.cert_hashes()[0].clone();
            let chain = &team_grants[inputs::team_of(i)][inputs::level_of(i)];
            prover.add_proof(member.then(chain.clone()));
            cert
        })
        .collect();
    *admin.members.lock().expect("members poisoned") = members;
    endpoint.set_audit_emitter(Arc::clone(&emitter));
    endpoint.register_metrics(registry);

    // Revocation push: validator → agent → buses (prover, authz memo).
    let agent = FreshnessAgent::new(Time::now);
    agent.register_validator(
        validator.validator_hash(),
        Arc::new(InProcessValidator(Arc::clone(&validator))),
    );
    let bus = |name: &'static str, b: Arc<dyn RevocationBus>| -> Arc<dyn RevocationBus> {
        if traced {
            Arc::new(TracedBus { name, inner: b })
        } else {
            b
        }
    };
    if args.wiring != Wiring::ProverOffBus {
        agent.add_bus(bus(
            "revocation.bus_evict.prover",
            Arc::clone(&prover) as Arc<dyn RevocationBus>,
        ));
    }
    if args.wiring != Wiring::MemoOffBus {
        agent.add_bus(bus(
            "revocation.bus_evict.authz_memo",
            endpoint.chain_memo(),
        ));
    }
    validator.subscribe(Box::new(AgentSink::new(&agent)));

    // The HTTP server.
    let http = HttpServer::new();
    http.set_audit_emitter(Arc::clone(&emitter));
    http.route(
        inputs::DOC_PREFIX,
        wrap("http.servlet", Arc::clone(&servlet) as Arc<dyn Handler>),
    );
    http.route(
        MAC_SESSION_PATH,
        wrap("http.servlet", Arc::clone(&servlet) as Arc<dyn Handler>),
    );
    http.route(
        "/authz",
        wrap("broker.endpoint", Arc::clone(&endpoint) as Arc<dyn Handler>),
    );
    http.route(
        "/admin/",
        wrap("bench.admin", Arc::clone(&admin) as Arc<dyn Handler>),
    );
    let http_listener = listener().map_err(|e| e.to_string())?;
    let http_port = http_listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .port();
    http.attach_to_reactor(http_listener, &runtime)
        .map_err(|e| e.to_string())?;

    // The RMI server.
    let rmi = RmiServer::new();
    let object: Arc<dyn RemoteObject> = Arc::new(EchoObject {
        issuer: Principal::key(&inputs::rmi_owner(seed).public),
    });
    rmi.register(
        inputs::RMI_OBJECT,
        if traced {
            Arc::new(TracedObject(object))
        } else {
            object
        },
    );
    rmi.set_audit_emitter(Arc::clone(&emitter));
    rmi.register_metrics(registry);
    let rmi_listener = listener().map_err(|e| e.to_string())?;
    let rmi_port = rmi_listener.local_addr().map_err(|e| e.to_string())?.port();
    rmi.serve_reactor(rmi_listener, &runtime, inputs::rmi_server(seed), None)
        .map_err(|e| e.to_string())?;

    // The metrics exporter.
    let metrics_listener = listener().map_err(|e| e.to_string())?;
    let metrics_port = metrics_listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .port();
    serve_metrics(metrics_listener, &runtime, Time::now).map_err(|e| e.to_string())?;

    // The traced run samples the audit queue depth.
    let stop = Arc::new(AtomicBool::new(false));
    let depth_max = Arc::new(AtomicU64::new(0));
    let sampler = traced.then(|| {
        let (stop, depth_max, sink) =
            (Arc::clone(&stop), Arc::clone(&depth_max), Arc::clone(&sink));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if trace::enabled() {
                    depth_max.fetch_max(sink.queue_depth() as u64, Ordering::Relaxed);
                }
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
        })
    });

    let mut out = std::io::stdout().lock();
    writeln!(out, "READY {http_port} {rmi_port} {metrics_port}").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;

    let served = Served {
        servlet_macs: Arc::clone(servlet.mac_store()),
        owner: Principal::key(&inputs::owner(seed).public),
        prover: Arc::clone(&prover),
        authz_issuers: issuers,
    };
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        match line.trim() {
            "TRACE 1" => trace::set_enabled(true),
            "TRACE 0" => trace::set_enabled(false),
            "CLEAR" => trace::clear(),
            "REPORT" => {
                trace::set_enabled(false);
                let report = report(&served, &args, depth_max.load(Ordering::Relaxed));
                std::fs::write(args.dir.join("report.txt"), report).map_err(|e| e.to_string())?;
            }
            "QUIT" => break,
            other => return Err(format!("unknown command {other:?}")),
        }
        writeln!(out, "OK").map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    stop.store(true, Ordering::Relaxed);
    if let Some(sampler) = sampler {
        sampler.join().map_err(|_| "queue sampler panicked")?;
    }
    runtime.shutdown();
    sink.shutdown();
    Ok(())
}

/// The traced run's server-side figures, one per line:
/// `value <name> <number>` for aggregates and `req <id> <nanos>` for the
/// outermost server span of each request.
fn report(served: &Served, args: &ServeArgs, depth_max: u64) -> String {
    let spans = trace::take_spans();
    let captures = trace::take_captures();
    let mut out = String::new();
    for s in &spans {
        if s.parent.is_none() && s.id != 0 {
            out.push_str(&format!("req {} {}\n", s.id, s.nanos()));
        }
    }
    for (name, (total, own)) in trace::durations(&spans) {
        out.push_str(&format!(
            "span {name} {} {} {}\n",
            total.len(),
            crate::stats::median_u64(&total),
            crate::stats::median_u64(&own)
        ));
    }
    out.push_str(&format!("value audit.queue_depth_max {depth_max}\n"));
    out.push_str(&format!(
        "value revocation.evicted_entries {}\n",
        trace::evicted_entries()
    ));
    for (name, v) in replay::run(served, &captures, &args.dir, args.seed) {
        out.push_str(&format!("value {name} {v}\n"));
    }
    out
}
