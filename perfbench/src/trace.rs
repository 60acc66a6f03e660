//! The traced run's span recorder and the wrappers that feed it.
//!
//! Spans are recorded from the benchmark's own code, around the calls it
//! makes into each layer's public traits; nothing inside the program is
//! instrumented.  Spans are kept in memory and written out when the run
//! ends.  Each span records its name, start, end and parent; spans of one
//! request share the id carried in the signed `X-Bench-Id` header (HTTP)
//! or the first call argument (RMI).  Wrappers are installed only in a
//! traced server, and record only while tracing is switched on, so the
//! traced run can measure an untraced phase on the same process.

use crate::inputs::ID_HEADER;
use snowflake_core::audit::{AuditEmitter, DecisionEvent};
use snowflake_core::{HashVal, Principal, Tag};
use snowflake_http::{Handler, HttpRequest, HttpResponse, SnowflakeService};
use snowflake_revocation::RevocationBus;
use snowflake_rmi::{CallerInfo, Invocation, RemoteObject, RmiFault};
use snowflake_sexpr::Sexp;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Inputs kept per kind for the offline replay.
const CAPTURE_CAP: usize = 4096;

/// One finished span.
pub struct Span {
    pub seq: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The request id, inherited from the enclosing span when the call
    /// itself carries none (0 when unknown).
    pub id: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

/// The run's inputs, captured as they arrive, for the offline replay.
#[derive(Default)]
pub struct Captures {
    pub requests: Vec<HttpRequest>,
    pub invocations: Vec<Invocation>,
    pub events: Vec<DecisionEvent>,
}

struct Tracer {
    enabled: AtomicBool,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    captures: Mutex<Captures>,
    evicted: AtomicU64,
}

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        next: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        captures: Mutex::new(Captures::default()),
        evicted: AtomicU64::new(0),
    })
}

thread_local! {
    /// Open spans on this thread: (seq, request id).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Switches recording on or off.
pub fn set_enabled(on: bool) {
    tracer().enabled.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    tracer().enabled.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`.  `id` 0 inherits the enclosing
/// span's request id.
pub fn span<R>(name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let t = tracer();
    let seq = t.next.fetch_add(1, Ordering::Relaxed);
    let (parent, id) = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let top = open.last().copied();
        let id = if id == 0 {
            top.map_or(0, |(_, i)| i)
        } else {
            id
        };
        open.push((seq, id));
        (top.map(|(s, _)| s), id)
    });
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    OPEN.with(|open| open.borrow_mut().pop());
    t.spans.lock().expect("span buffer poisoned").push(Span {
        seq,
        parent,
        name,
        id,
        start,
        end,
    });
    out
}

fn capture(f: impl FnOnce(&mut Captures)) {
    if enabled() {
        f(&mut tracer().captures.lock().expect("capture buffer poisoned"));
    }
}

/// Discards everything recorded so far.
pub fn clear() {
    take_spans();
    take_captures();
    tracer().evicted.store(0, Ordering::Relaxed);
}

/// Takes every recorded span.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().expect("span buffer poisoned"))
}

/// Takes the captured inputs.
pub fn take_captures() -> Captures {
    std::mem::take(&mut *tracer().captures.lock().expect("capture buffer poisoned"))
}

/// Warm-cache entries the wrapped buses reported evicted.
pub fn evicted_entries() -> u64 {
    tracer().evicted.load(Ordering::Relaxed)
}

/// Per span name: the durations and self times (span minus the time its
/// children cover), in nanoseconds.
pub fn durations(spans: &[Span]) -> HashMap<&'static str, (Vec<u64>, Vec<u64>)> {
    let mut child_time: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_time.entry(p).or_default() += s.nanos();
        }
    }
    let mut out: HashMap<&'static str, (Vec<u64>, Vec<u64>)> = HashMap::new();
    for s in spans {
        let d = s.nanos();
        let own = d.saturating_sub(child_time.get(&s.seq).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0.push(d);
        e.1.push(own);
    }
    out
}

/// The request id an HTTP request carries.
fn request_id(req: &HttpRequest) -> u64 {
    req.header(ID_HEADER)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The request id an RMI invocation carries (its first argument).
fn invocation_id(inv: &Invocation) -> u64 {
    inv.args
        .first()
        .and_then(Sexp::as_str)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Wraps a routed [`Handler`]: one span per request, input captured.
pub struct TracedHandler {
    pub name: &'static str,
    pub inner: Arc<dyn Handler>,
}

impl Handler for TracedHandler {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        capture(|c| {
            if c.requests.len() < CAPTURE_CAP {
                c.requests.push(req.clone());
            }
        });
        span(self.name, request_id(req), || self.inner.handle(req))
    }
}

/// Wraps a [`SnowflakeService`]: the application's own work.
pub struct TracedService<S>(pub S);

impl<S: SnowflakeService> SnowflakeService for TracedService<S> {
    fn issuer(&self, req: &HttpRequest) -> Principal {
        self.0.issuer(req)
    }
    fn min_tag(&self, req: &HttpRequest) -> Tag {
        self.0.min_tag(req)
    }
    fn serve(&self, req: &HttpRequest, speaker: &Principal) -> HttpResponse {
        span("app.serve", 0, || self.0.serve(req, speaker))
    }
}

/// Wraps a [`RemoteObject`]: one span per authorized invocation.
pub struct TracedObject(pub Arc<dyn RemoteObject>);

impl RemoteObject for TracedObject {
    fn issuer(&self) -> Principal {
        self.0.issuer()
    }
    fn restriction(&self, invocation: &Invocation) -> Tag {
        self.0.restriction(invocation)
    }
    #[allow(
        clippy::result_large_err,
        reason = "the RemoteObject trait fixes the result type"
    )]
    fn invoke(&self, invocation: &Invocation, caller: &CallerInfo) -> Result<Sexp, RmiFault> {
        capture(|c| {
            if c.invocations.len() < CAPTURE_CAP {
                c.invocations.push(invocation.clone());
            }
        });
        span("rmi.object", invocation_id(invocation), || {
            self.0.invoke(invocation, caller)
        })
    }
}

/// Wraps the audit emitter: the cost a decision point pays to emit.
pub struct TracedEmitter(pub Arc<dyn AuditEmitter>);

impl AuditEmitter for TracedEmitter {
    fn emit(&self, event: DecisionEvent) {
        capture(|c| {
            if c.events.len() < CAPTURE_CAP {
                c.events.push(event.clone());
            }
        });
        span("audit.emit", 0, || self.0.emit(event));
    }
}

/// Wraps one revocation-bus subscriber.
pub struct TracedBus {
    pub name: &'static str,
    pub inner: Arc<dyn RevocationBus>,
}

impl RevocationBus for TracedBus {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        let n = span(self.name, 0, || self.inner.certificate_revoked(cert_hash));
        if enabled() {
            tracer().evicted.fetch_add(n as u64, Ordering::Relaxed);
        }
        n
    }
}
