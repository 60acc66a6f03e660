//! The load loops and the correctness oracle.
//!
//! Each connection runs on its own generator thread.  The closed loop
//! sends a connection's next request as soon as the previous reply is
//! checked (throughput).  The open loop sends on a fixed schedule and
//! times each request from when it was due, so a stall counts against
//! every request queued behind it (latency).
//!
//! Every reply is checked: status and body for HTTP, the echoed id for
//! MAC and RMI calls, and an allow/deny model for authz answers.  A grant
//! for a subject whose revoke was acknowledged, and which has not been
//! re-granted since, is a violation that fails the whole run.

use crate::client::{self, Conn, Expect, Op, Reply};
use snowflake_rmi::RmiReply;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A subject's membership as the generator knows it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Granted,
    RevokeSent,
    Revoked,
    GrantSent,
}

/// The allow/deny model: each subject's phase plus a version bumped on
/// every transition, so an answer is judged strictly only when nothing
/// happened to its subject while the question was in flight.
pub struct Model {
    subjects: Vec<Mutex<(Phase, u64)>>,
}

impl Model {
    pub fn new(n: usize) -> Arc<Model> {
        Arc::new(Model {
            subjects: (0..n).map(|_| Mutex::new((Phase::Granted, 0))).collect(),
        })
    }

    fn get(&self, i: usize) -> (Phase, u64) {
        *self.subjects[i].lock().expect("model poisoned")
    }

    fn set(&self, i: usize, phase: Phase) {
        let mut s = self.subjects[i].lock().expect("model poisoned");
        *s = (phase, s.1 + 1);
    }
}

/// How one operation went.
enum Outcome {
    Ok,
    /// Shed, refused, or the connection failed.
    Failed,
    /// A wrong reply.
    Wrong(String),
    /// A grant after an acknowledged revoke: fails the run.
    Violation(String),
}

/// One checked operation's timing.
#[derive(Clone, Copy)]
pub struct Sample {
    pub id: u64,
    /// When it was due (open loop) or sent (closed loop), from the start
    /// of the phase.
    pub at: Duration,
    /// From the due time (open loop) or the send (closed loop) to the
    /// checked reply.
    pub latency: Duration,
    /// From the send to the reply.
    pub round_trip: Duration,
}

/// The `q`-quantile of the samples' latencies in milliseconds, computed
/// per window of about `window` consecutive due times and reported as the
/// median over the windows.
pub fn windowed_quantile(samples: &[Sample], q: f64, window: usize) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by_key(|x| x.at);
    let windows = (s.len() / window.max(1)).max(1);
    let per = s.len().div_ceil(windows).max(1);
    let each: Vec<f64> = s
        .chunks(per)
        .map(|w| {
            let ms: Vec<f64> = w.iter().map(|x| x.latency.as_secs_f64() * 1e3).collect();
            crate::stats::quantile(&ms, q)
        })
        .collect();
    crate::stats::median_f64(&each)
}

/// What one connection's share of a phase produced.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    pub violations: Vec<String>,
    /// One per regular operation that was answered correctly.
    pub samples: Vec<Sample>,
    /// Open loop: how late each send was while the connection was free.
    pub lag: Vec<Duration>,
    /// Revoke sent → question about that subject answered deny.
    pub visible: Vec<Duration>,
    pub end: Option<Instant>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong.extend(other.wrong);
        self.violations.extend(other.violations);
        self.samples.extend(other.samples);
        self.lag.extend(other.lag);
        self.visible.extend(other.visible);
        self.end = self.end.max(other.end);
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed - self.wrong.len() as u64 - self.violations.len() as u64
    }

    fn record(&mut self, outcome: Outcome) -> bool {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => return true,
            Outcome::Failed => self.failed += 1,
            Outcome::Wrong(w) => self.wrong.push(w),
            Outcome::Violation(v) => self.violations.push(v),
        }
        false
    }
}

/// Sends one operation and checks its reply.
fn exec(conn: &mut Conn, op: &Op, model: Option<&Model>) -> Outcome {
    let before = match (&op.expect, model) {
        (Expect::Authz { subject }, Some(m)) => Some(m.get(*subject)),
        _ => None,
    };
    let reply = match conn.call(&op.bytes) {
        Ok(r) => r,
        Err(_) => {
            let _ = conn.reconnect();
            return Outcome::Failed;
        }
    };
    match (reply, &op.expect) {
        (Reply::Http(resp), _) if resp.status == 503 => {
            let _ = conn.reconnect();
            Outcome::Failed
        }
        (Reply::Http(resp), Expect::Body(body)) => {
            if resp.status == 200 && &resp.body == body {
                Outcome::Ok
            } else {
                Outcome::Wrong(format!(
                    "op {}: {} {:?}",
                    op.id,
                    resp.status,
                    String::from_utf8_lossy(&resp.body)
                ))
            }
        }
        (Reply::Http(resp), Expect::Authz { subject }) => {
            let allowed = if resp.status != 200 {
                None
            } else if resp.body.starts_with(br#"{"result":"allow"}"#) {
                Some(true)
            } else if resp.body.starts_with(br#"{"result":"deny""#) {
                Some(false)
            } else {
                None
            };
            let Some(allowed) = allowed else {
                return Outcome::Wrong(format!("op {}: {} authz reply", op.id, resp.status));
            };
            let Some(model) = model else {
                return if allowed {
                    Outcome::Ok
                } else {
                    Outcome::Wrong(format!("op {}: subject {subject} denied", op.id))
                };
            };
            let (phase, version) = before.expect("model read at send");
            if model.get(*subject).1 != version {
                // The subject changed while the question was in flight:
                // either answer is consistent.
                return Outcome::Ok;
            }
            match (phase, allowed) {
                (Phase::Revoked, true) => Outcome::Violation(format!(
                    "op {}: subject {subject} granted after its revoke was acknowledged",
                    op.id
                )),
                (Phase::Granted, false) => {
                    Outcome::Wrong(format!("op {}: granted subject {subject} denied", op.id))
                }
                _ => Outcome::Ok,
            }
        }
        (Reply::Rmi(RmiReply::Return(v)), Expect::Echo(id)) if v.as_str() == Some(id.as_str()) => {
            Outcome::Ok
        }
        (Reply::Rmi(r), _) => Outcome::Wrong(format!("op {}: rmi reply {r:?}", op.id)),
        (Reply::Http(resp), Expect::Echo(_)) => {
            Outcome::Wrong(format!("op {}: HTTP {} to an RMI call", op.id, resp.status))
        }
    }
}

/// Revokes and re-grants subjects from one connection at a fixed rate,
/// asking about each revoked subject right after the acknowledgement.
pub struct Churn {
    model: Arc<Model>,
    victims: Vec<usize>,
    /// Pre-built (revoke, question, grant) per victim slot.
    ops: Vec<(Op, Op, Op)>,
    next: usize,
    /// Mean time between revocations.
    interval: Duration,
    /// Per victim slot, where in `[0.5, 1.5)` intervals after the
    /// previous revocation it falls due: a seeded jitter, so revocations
    /// land at every phase of the open loop's fixed schedule instead of
    /// on the same request each time.
    gaps: Vec<f64>,
    /// How long a victim stays revoked.
    tick: Duration,
    next_revoke: Option<Instant>,
    pending_grant: Option<(usize, Instant)>,
}

impl Churn {
    /// `ids` yields fresh request ids; `victims` is the revocation order
    /// and `gaps` its jitter (see the field).
    pub fn new(
        model: Arc<Model>,
        victims: Vec<usize>,
        gaps: Vec<f64>,
        ids: &mut impl Iterator<Item = u64>,
        interval: Duration,
        tick: Duration,
    ) -> Churn {
        let ops = victims
            .iter()
            .map(|&v| {
                (
                    client::admin(ids.next().expect("ids"), "revoke", v),
                    client::question(ids.next().expect("ids"), v, 0),
                    client::admin(ids.next().expect("ids"), "grant", v),
                )
            })
            .collect();
        Churn {
            model,
            victims,
            ops,
            next: 0,
            interval,
            gaps,
            tick,
            next_revoke: None,
            pending_grant: None,
        }
    }

    /// Starts the revoke schedule at `start`.
    pub fn arm(&mut self, start: Instant) {
        self.next_revoke = Some(start + self.gap());
    }

    /// The wait before the next victim's revocation.
    fn gap(&self) -> Duration {
        let g = self.gaps.get(self.next).copied().unwrap_or(1.0);
        self.interval.mul_f64(g)
    }

    pub fn disarm(&mut self) {
        self.next_revoke = None;
    }

    /// Revokes one subject, asks about it until the answer is deny, and
    /// re-grants it `tick` later — all at once when `tick` is zero.
    fn cycle(&mut self, conn: &mut Conn, tally: &mut Tally) {
        if self.next >= self.victims.len() {
            return;
        }
        let slot = self.next;
        self.next += 1;
        let v = self.victims[slot];
        let (revoke, question, _) = &self.ops[slot];
        self.model.set(v, Phase::RevokeSent);
        let sent = Instant::now();
        let revoked = tally.record(exec(conn, revoke, None));
        if revoked {
            self.model.set(v, Phase::Revoked);
            if tally.record(exec(conn, question, Some(&self.model))) {
                tally.visible.push(sent.elapsed());
            }
        }
        self.pending_grant = Some((slot, Instant::now() + self.tick));
        if self.tick.is_zero() {
            self.grant_due(conn, tally, Instant::now());
        }
    }

    fn grant_due(&mut self, conn: &mut Conn, tally: &mut Tally, now: Instant) {
        if let Some((slot, due)) = self.pending_grant {
            if now >= due {
                let v = self.victims[slot];
                self.model.set(v, Phase::GrantSent);
                if tally.record(exec(conn, &self.ops[slot].2, None)) {
                    self.model.set(v, Phase::Granted);
                }
                self.pending_grant = None;
            }
        }
    }

    /// Runs whatever admin work is due.
    fn poll(&mut self, conn: &mut Conn, tally: &mut Tally) {
        let now = Instant::now();
        self.grant_due(conn, tally, now);
        if let Some(due) = self.next_revoke {
            if now >= due && self.pending_grant.is_none() {
                self.cycle(conn, tally);
                self.next_revoke = Some(due + self.gap());
            }
        }
    }

    /// When the next admin step falls due, if one is scheduled.
    fn next_due(&self) -> Option<Instant> {
        match (self.pending_grant, self.next_revoke) {
            (Some((_, grant)), _) => Some(grant),
            (None, revoke) => revoke,
        }
    }

    /// Re-grants a still-revoked victim (end of a phase).
    pub fn settle(&mut self, conn: &mut Conn, tally: &mut Tally) {
        if let Some((slot, _)) = self.pending_grant {
            self.pending_grant = Some((slot, Instant::now()));
            self.grant_due(conn, tally, Instant::now());
        }
    }

    /// `n` back-to-back revoke, question, re-grant cycles.
    pub fn probe(&mut self, conn: &mut Conn, n: usize, tally: &mut Tally) {
        let tick = std::mem::take(&mut self.tick);
        for _ in 0..n {
            self.cycle(conn, tally);
        }
        self.tick = tick;
    }
}

/// One connection's work in a phase.
pub struct Lane<'a> {
    pub conn: &'a mut Conn,
    pub ops: &'a [Op],
    pub cursor: &'a mut usize,
    pub churn: Option<&'a mut Churn>,
    pub model: Option<&'a Model>,
}

/// Closed loop until `deadline` or the lane's operations run out.
pub fn closed(lane: Lane<'_>, deadline: Instant) -> Tally {
    let Lane {
        conn,
        ops,
        cursor,
        mut churn,
        model,
    } = lane;
    let mut t = Tally::default();
    let start = Instant::now();
    while Instant::now() < deadline && *cursor < ops.len() {
        if let Some(c) = churn.as_deref_mut() {
            c.poll(conn, &mut t);
        }
        let op = &ops[*cursor];
        *cursor += 1;
        let sent = Instant::now();
        let ok = t.record(exec(conn, op, model));
        let rt = sent.elapsed();
        if ok {
            t.samples.push(Sample {
                id: op.id,
                at: sent - start,
                latency: rt,
                round_trip: rt,
            });
        }
    }
    if let Some(c) = churn {
        c.settle(conn, &mut t);
    }
    t.end = Some(Instant::now());
    t
}

/// Open loop at `rate` requests per second, first request due at
/// `start`, for `length`.
pub fn open(lane: Lane<'_>, start: Instant, length: Duration, rate: f64) -> Tally {
    let Lane {
        conn,
        ops,
        cursor,
        mut churn,
        model,
    } = lane;
    let mut t = Tally::default();
    let end = start + length;
    if rate == 0.0 {
        t.end = Some(Instant::now());
        return t;
    }
    let period = Duration::from_secs_f64(1.0 / rate);
    let mut due = start;
    while due < end && *cursor < ops.len() {
        if let Some(c) = churn.as_deref_mut() {
            // Admin work that falls due before the next request runs
            // first; a request falling due meanwhile waits behind it.
            while let Some(at) = c.next_due().filter(|&at| at < due) {
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                c.poll(conn, &mut t);
            }
        }
        let now = Instant::now();
        let free = now < due;
        if free {
            std::thread::sleep(due - now);
        }
        let op = &ops[*cursor];
        *cursor += 1;
        let sent = Instant::now();
        let ok = t.record(exec(conn, op, model));
        let done = Instant::now();
        if ok {
            t.samples.push(Sample {
                id: op.id,
                at: due - start,
                latency: done - due,
                round_trip: done - sent,
            });
        }
        if free {
            t.lag.push(sent.saturating_duration_since(due));
        }
        due += period;
    }
    if let Some(c) = churn {
        c.settle(conn, &mut t);
    }
    t.end = Some(Instant::now());
    t
}
