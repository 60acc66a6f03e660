//! `perfbench`: the end-to-end benchmark of authorized requests.
//!
//! ```text
//! perfbench --workload <signed_fresh|session_warm|authz_churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|tiny] [--sweep]
//!           [--wiring full|memo-off-bus|prover-off-bus]
//! ```
//!
//! The command starts the server wiring in its own process (it re-runs
//! this executable as `perfbench serve …`) and drives it from this
//! process over loopback TCP with two connections, one generator thread
//! each.  It prints every metric by name with its unit, then one JSON
//! object as its last line.  `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones.  `--sweep` runs the ungated rate sweep
//! instead.  See `README.md` beside this crate for what each workload and
//! metric is for.

mod client;
mod inputs;
mod load;
mod replay;
mod server;
mod stats;
mod trace;

use client::{Clients, Conn, Op};
use inputs::{Pick, Sizes, Workload, Zipf};
use load::{windowed_quantile, Churn, Lane, Model, Tally};
use server::Wiring;
use stats::{median_f64, quantile, Scrape};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generator connections (and threads): the rig's `nproc`.
const CONNS: usize = 2;
/// Server start-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The closed loop's share of an untraced run; the open loop gets the
/// rest.
const CLOSED_SHARE: f64 = 0.2;
/// Revoke → deny measurements per server on workloads that do not churn.
const PROBES: usize = 41;
/// MAC sessions and calls per connection of the traced run's session
/// probe (workloads other than `session_warm`).
const PROBE_SESSIONS: usize = 8;
const PROBE_CALLS: usize = 200;
/// Signed requests each setup sends to warm the key table.
const WARM_SIGNED: usize = 16;
/// Most popular authz subjects each setup asks about once, warming the
/// memo (the top 256 of 4096 ranks draw a quarter of the questions).
const WARM_AUTHZ: usize = 256;
/// Open-loop latency percentiles are computed per window of this many
/// consecutive due times and reported as the median over the windows.  A
/// stall of the shared machine delays a burst of consecutive requests,
/// which lands in one window and so moves one window, not the figure;
/// with tails that come one request at a time, the median of the
/// windows' p99s is the p99.  A hundred samples give each window's p99
/// one sample beyond it.
const WINDOW: usize = 100;

/// Per-workload settings, chosen with `--sweep` (see README.md).
struct Tuning {
    /// Fixed open-loop rate over both connections, requests per second.
    rate: f64,
    /// Bound on closed-loop requests per second per connection, used to
    /// size the pre-built request set: over twice the fastest rate seen
    /// on the 2-vCPU VM, whose speed moved by half between runs.
    closed_cap: f64,
}

fn tuning(w: Workload) -> Tuning {
    match w {
        Workload::SignedFresh => Tuning {
            rate: 35.0,
            closed_cap: 250.0,
        },
        Workload::SessionWarm => Tuning {
            rate: 2000.0,
            closed_cap: 24_000.0,
        },
        Workload::AuthzChurn => Tuning {
            rate: 40.0,
            closed_cap: 1_000.0,
        },
    }
}

/// Spans whose p50 self time the traced run reports on every workload
/// (0 where the workload never enters them).
const SELF_TIMED: [&str; 6] = [
    "http.servlet",
    "app.serve",
    "broker.endpoint",
    "rmi.object",
    "audit.emit",
    "revocation.revoke",
];

/// `authz_churn` revokes one member this often on average (each gap is
/// jittered between half and one and a half of it) and re-grants it
/// `TICK` later.
const REVOKE_INTERVAL: Duration = Duration::from_millis(200);
const TICK: Duration = Duration::from_millis(50);
/// Victims are drawn from this many most popular subjects.
const HOT_VICTIMS: usize = 64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
    wiring: Wiring,
    sweep: bool,
}

fn value<'a>(argv: &'a [String], flag: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == flag)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let need = |flag: &str| value(argv, flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: need("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: value(argv, "--seconds")
            .unwrap_or("10")
            .parse()
            .map_err(|_| "bad --seconds")?,
        trace: match value(argv, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            t => return Err(format!("bad --trace {t:?}")),
        },
        sizes: Sizes::parse(value(argv, "--size").unwrap_or("full")).ok_or("bad --size")?,
        wiring: Wiring::parse(value(argv, "--wiring").unwrap_or("full")).ok_or("bad --wiring")?,
        sweep: argv.iter().any(|a| a == "--sweep"),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = if argv.first().map(String::as_str) == Some("serve") {
        match serve_main(&argv[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench serve: {e}");
                2
            }
        }
    } else {
        match parse_args(&argv).and_then(|a| drive(&a)) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("perfbench: {e}");
                2
            }
        }
    };
    std::process::exit(code);
}

fn serve_main(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    server::main(server::ServeArgs {
        seed: args.seed,
        sizes: args.sizes,
        dir: PathBuf::from(value(argv, "--dir").ok_or("missing --dir")?),
        trace: args.trace,
        wiring: args.wiring,
    })
}

/// A running server process.
struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    pid: u32,
    http: SocketAddr,
    rmi: SocketAddr,
    metrics: SocketAddr,
    dir: PathBuf,
}

impl Server {
    fn spawn(args: &Args, dir: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["serve", "--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--size", args.sizes.name])
            .args(["--wiring", args.wiring.name()])
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let pid = child.id();
        let stdin = child.stdin.take().expect("piped");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        let ports: Vec<u16> = line
            .strip_prefix("READY ")
            .map(|r| {
                r.split_whitespace()
                    .filter_map(|p| p.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        if ports.len() != 3 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not start: {line:?}"));
        }
        let at = |p: u16| SocketAddr::from(([127, 0, 0, 1], p));
        Ok(Server {
            child,
            stdin,
            stdout,
            pid,
            http: at(ports[0]),
            rmi: at(ports[1]),
            metrics: at(ports[2]),
            dir: dir.to_path_buf(),
        })
    }

    fn command(&mut self, cmd: &str) -> Result<(), String> {
        writeln!(self.stdin, "{cmd}").map_err(|e| e.to_string())?;
        self.stdin.flush().map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        if line.trim() == "OK" {
            Ok(())
        } else {
            Err(format!("server answered {cmd:?} with {line:?}"))
        }
    }

    fn scrape(&self) -> Result<Scrape, String> {
        let stream = std::net::TcpStream::connect(self.metrics).map_err(|e| e.to_string())?;
        let mut client = snowflake_http::HttpClient::new(Box::new(stream));
        let resp = client
            .send(&snowflake_http::HttpRequest::get(
                snowflake_http::METRICS_PATH,
            ))
            .map_err(|e| e.to_string())?;
        Ok(Scrape::parse(&String::from_utf8_lossy(&resp.body)))
    }

    /// Waits until the audit sink has appended every accepted event.
    fn drain_audit(&self) -> Result<Scrape, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let s = self.scrape()?;
            let drained = s.get("sf_audit_drained_total") >= s.get("sf_audit_accepted_total");
            if drained || Instant::now() > deadline {
                return Ok(s);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn quit(mut self) -> Result<(), String> {
        let _ = writeln!(self.stdin, "QUIT");
        let _ = self.stdin.flush();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not stop".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Hands out request ids that never repeat within a run.
struct Ids(u64);

impl Iterator for Ids {
    type Item = u64;
    fn next(&mut self) -> Option<u64> {
        self.0 += 1;
        Some(self.0)
    }
}

/// One workload's generator state across the run.
struct Bench<'a> {
    args: &'a Args,
    work: PathBuf,
    ids: Ids,
    pick: Pick,
    clients: Option<Clients>,
    /// Authz popularity: rank → subject.
    ranking: Vec<usize>,
    zipf: Option<Zipf>,
    model: Arc<Model>,
    /// Each setup's warm-up requests (signed_fresh).
    warm_ops: Vec<Vec<Op>>,
}

impl<'a> Bench<'a> {
    fn new(args: &'a Args, work: PathBuf) -> Bench<'a> {
        let mut pick = Pick::new(args.seed, args.workload.name());
        let subjects = args.sizes.authz_subjects;
        let mut ranking: Vec<usize> = (0..subjects).collect();
        for i in (1..ranking.len()).rev() {
            ranking.swap(i, pick.below(i + 1));
        }
        let mut b = Bench {
            args,
            work,
            ids: Ids(0),
            pick,
            clients: None,
            zipf: (args.workload == Workload::AuthzChurn)
                .then(|| Zipf::new(subjects, inputs::ZIPF_EXPONENT)),
            ranking,
            model: Model::new(subjects),
            warm_ops: Vec::new(),
        };
        match args.workload {
            Workload::SignedFresh => {
                let clients = Clients::new(args.seed, args.sizes.client_keys);
                for _ in 0..SETUPS {
                    let ids: Vec<u64> = (&mut b.ids).take(WARM_SIGNED).collect();
                    let keys: Vec<usize> = ids
                        .iter()
                        .map(|_| b.pick.below(args.sizes.client_keys))
                        .collect();
                    b.warm_ops.push(clients.signed(&ids, &keys));
                }
                b.clients = Some(clients);
            }
            Workload::SessionWarm => {
                b.clients = Some(Clients::new(args.seed, args.sizes.mac_sessions));
            }
            Workload::AuthzChurn => {}
        }
        b
    }

    /// Starts a server and brings it to ready: listening, with sessions
    /// and proof caches warm.  Returns the server, its connections and
    /// the elapsed set-up time.
    fn setup(&mut self, k: usize) -> Result<(Server, Vec<Conn>, f64), String> {
        let start = Instant::now();
        let server = Server::spawn(self.args, &self.work.join(format!("server-{k}")))?;
        let io = |e: std::io::Error| e.to_string();
        let mut conns = Vec::new();
        match self.args.workload {
            Workload::SignedFresh => {
                for _ in 0..CONNS {
                    conns.push(Conn::http(server.http).map_err(io)?);
                }
                let warm = std::mem::take(&mut self.warm_ops[k]);
                let mut cursor = 0;
                let t = load::closed(lane(&mut conns[0], &warm, &mut cursor, None, None), far());
                check_clean(&t, "warm-up")?;
            }
            Workload::SessionWarm => {
                let clients = self.clients.as_ref().expect("built");
                clients.establish_sessions(server.http, CONNS).map_err(io)?;
                conns.push(Conn::http(server.http).map_err(io)?);
                let (key, proof) = client::rmi_proof(self.args.seed);
                conns.push(Conn::rmi(server.rmi, &key, &proof, self.args.seed).map_err(io)?);
            }
            Workload::AuthzChurn => {
                for _ in 0..CONNS {
                    conns.push(Conn::http(server.http).map_err(io)?);
                }
                // One question about each of the most popular subjects
                // warms the memo, split over both connections.
                let hot = WARM_AUTHZ.min(self.ranking.len());
                let per: Vec<Vec<Op>> = (0..CONNS)
                    .map(|c| {
                        (c..hot)
                            .step_by(CONNS)
                            .map(|r| {
                                let s = self.ranking[r];
                                client::question(
                                    self.ids.next().expect("ids"),
                                    s,
                                    s % inputs::ROOMS,
                                )
                            })
                            .collect()
                    })
                    .collect();
                let tallies = run_lanes(&mut conns, &per, None, |l| load::closed(l, far()));
                check_clean(&tallies, "warm-up")?;
            }
        }
        Ok((server, conns, start.elapsed().as_secs_f64()))
    }

    /// Pre-builds `n` operations per connection.
    fn build_ops(&mut self, conns: &mut [Conn], n: usize) -> Vec<Vec<Op>> {
        let args = self.args;
        match args.workload {
            Workload::SignedFresh => {
                let clients = self.clients.as_ref().expect("built");
                let plans: Vec<(Vec<u64>, Vec<usize>)> = (0..CONNS)
                    .map(|_| {
                        let ids: Vec<u64> = (&mut self.ids).take(n).collect();
                        let keys = ids
                            .iter()
                            .map(|_| self.pick.below(args.sizes.client_keys))
                            .collect();
                        (ids, keys)
                    })
                    .collect();
                std::thread::scope(|s| {
                    let handles: Vec<_> = plans
                        .iter()
                        .map(|(ids, keys)| s.spawn(move || clients.signed(ids, keys)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("signer"))
                        .collect()
                })
            }
            Workload::SessionWarm => {
                let clients = self.clients.as_ref().expect("built");
                let ids: Vec<u64> = (&mut self.ids).take(n).collect();
                let keys: Vec<usize> = ids
                    .iter()
                    .map(|_| self.pick.below(args.sizes.mac_sessions))
                    .collect();
                let http = clients.mac_signed(&ids, &keys);
                let rmi = conns[1].seal_calls((&mut self.ids).take(n));
                vec![http, rmi]
            }
            Workload::AuthzChurn => {
                let zipf = self.zipf.as_ref().expect("built");
                (0..CONNS)
                    .map(|_| {
                        (0..n)
                            .map(|_| {
                                let subject = self.ranking[zipf.sample(&mut self.pick)];
                                let room = self.pick.below(inputs::ROOMS);
                                client::question(self.ids.next().expect("ids"), subject, room)
                            })
                            .collect()
                    })
                    .collect()
            }
        }
    }

    /// The churn schedule: `authz_churn` revokes hot subjects; the other
    /// workloads only probe the revocation path after their open loop.
    fn churn(&mut self, count: usize) -> Churn {
        let victims: Vec<usize> = if self.args.workload == Workload::AuthzChurn {
            let hot = HOT_VICTIMS.min(self.ranking.len());
            (0..count)
                .map(|_| self.ranking[self.pick.below(hot)])
                .collect()
        } else {
            (0..count).map(|i| i % inputs::PROBE_SUBJECTS).collect()
        };
        let gaps = (0..count).map(|_| 0.5 + self.pick.unit()).collect();
        Churn::new(
            Arc::clone(&self.model),
            victims,
            gaps,
            &mut self.ids,
            REVOKE_INTERVAL,
            TICK,
        )
    }
}

fn far() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

fn lane<'a>(
    conn: &'a mut Conn,
    ops: &'a [Op],
    cursor: &'a mut usize,
    churn: Option<&'a mut Churn>,
    model: Option<&'a Model>,
) -> Lane<'a> {
    Lane {
        conn,
        ops,
        cursor,
        churn,
        model,
    }
}

fn check_clean(t: &Tally, what: &str) -> Result<(), String> {
    if t.ok() != t.attempted {
        return Err(format!(
            "{what}: {} of {} operations failed: {:?} {:?}",
            t.attempted - t.ok(),
            t.attempted,
            t.wrong.first(),
            t.violations.first()
        ));
    }
    Ok(())
}

/// Runs one phase on every connection, one thread each.  `churn` rides
/// on the first connection.
fn run_lanes(
    conns: &mut [Conn],
    ops: &[Vec<Op>],
    churn: Option<(&mut Churn, &Model)>,
    phase: impl Fn(Lane<'_>) -> Tally + Sync,
) -> Tally {
    let mut cursors = vec![0usize; conns.len()];
    run_lanes_at(conns, ops, &mut cursors, usize::MAX, churn, phase)
}

/// Like [`run_lanes`], resuming each connection at its cursor and
/// stopping it at `limit` operations.
fn run_lanes_at(
    conns: &mut [Conn],
    ops: &[Vec<Op>],
    cursors: &mut [usize],
    limit: usize,
    churn: Option<(&mut Churn, &Model)>,
    phase: impl Fn(Lane<'_>) -> Tally + Sync,
) -> Tally {
    let (mut churn, model) = match churn {
        Some((c, m)) => (Some(c), Some(m)),
        None => (None, None),
    };
    let phase = &phase;
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(ops)
            .zip(cursors.iter_mut())
            .enumerate()
            .map(|(i, ((conn, ops), cursor))| {
                let churn = if i == 0 { churn.take() } else { None };
                let ops = &ops[..ops.len().min(limit)];
                s.spawn(move || phase(lane(conn, ops, cursor, churn, model)))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("generator thread"));
        }
    });
    total
}

/// One lane's share of an open-loop rate.  On `authz_churn` the first
/// connection carries the questions and the churn between them, and the
/// second stays idle: the server never holds two of the open loop's
/// requests at once, so a question that meets a revocation waits behind
/// it for as long as the revocation's work takes, instead of for however
/// long two requests competing for the shared machine's cores take.
fn lane_rate(workload: Workload, total: f64, lane: &Lane<'_>) -> f64 {
    match (workload, lane.churn.is_some()) {
        (Workload::AuthzChurn, true) => total,
        (Workload::AuthzChurn, false) => 0.0,
        _ => total / CONNS as f64,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The printed result.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, v, unit) in &self.metrics {
            println!("{name:<32} {v:>14.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn drive(args: &Args) -> Result<i32, String> {
    let work = PathBuf::from(".perfbench-work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = if args.sweep {
        sweep(args, &work).map(|()| 0)
    } else {
        let report = if args.trace {
            traced(args, &work)
        } else {
            untraced(args, &work)
        };
        report.map(|r| {
            r.print();
            if r.correct {
                0
            } else {
                1
            }
        })
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    result
}

/// Operations each connection needs: the closed loop's cap, and that plus
/// the open loop's schedule.
fn ops_needed(args: &Args, closed: Duration, open: Duration) -> (usize, usize) {
    let t = tuning(args.workload);
    let closed_n = (t.closed_cap * closed.as_secs_f64()).ceil() as usize + 1;
    // Sized for the busiest lane (see `lane_rate`).
    let open_n = (t.rate * open.as_secs_f64()).ceil() as usize + 2;
    (closed_n, closed_n + open_n)
}

fn churn_count(args: &Args, length: Duration) -> usize {
    if args.workload == Workload::AuthzChurn {
        (length.as_secs_f64() / REVOKE_INTERVAL.as_secs_f64()).ceil() as usize + 2
    } else {
        PROBES
    }
}

/// The traced run's session probe on the workloads other than
/// `session_warm`: a few MAC sessions and one secure channel carry a
/// short burst, so the MAC, channel and RMI layers are measured on every
/// workload.  Establishment runs untraced: its signed requests belong to
/// no layer figure of the workload.
fn session_probe(server: &mut Server, args: &Args, ids: &mut Ids) -> Result<Tally, String> {
    let io = |e: std::io::Error| e.to_string();
    server.command("TRACE 0")?;
    let clients = Clients::new(args.seed, PROBE_SESSIONS);
    clients.establish_sessions(server.http, 1).map_err(io)?;
    let (key, proof) = client::rmi_proof(args.seed);
    let mut conns = vec![
        Conn::http(server.http).map_err(io)?,
        Conn::rmi(server.rmi, &key, &proof, args.seed).map_err(io)?,
    ];
    server.command("TRACE 1")?;
    let mac_ids: Vec<u64> = ids.by_ref().take(PROBE_CALLS).collect();
    let sessions: Vec<usize> = (0..PROBE_CALLS).map(|i| i % PROBE_SESSIONS).collect();
    let ops = vec![
        clients.mac_signed(&mac_ids, &sessions),
        conns[1].seal_calls(ids.by_ref().take(PROBE_CALLS)),
    ];
    Ok(run_lanes(&mut conns, &ops, None, |l| {
        load::closed(l, far())
    }))
}

/// The churn oracle's second half: the revocations acknowledged between
/// two scrapes must have evicted entries from every cache on the authz
/// path.  A memo left off the bus cannot show as a wrong answer: the
/// endpoint rebuilds each proof from the prover, which the push did
/// reach, before it consults the memo.
fn push_coverage(before: &Scrape, after: &Scrape) -> Vec<String> {
    let revocations = after.delta(before, "sf_validator_revocations_total");
    if revocations == 0.0 {
        return Vec::new();
    }
    [
        ("prover", "sf_prover_invalidated_edges_total"),
        (
            "authz memo",
            "sf_chain_memo_revocation_evictions_total{surface=\"authz\"}",
        ),
    ]
    .into_iter()
    .filter(|(_, key)| after.delta(before, key) == 0.0)
    .map(|(cache, _)| format!("{revocations} revocations evicted nothing from the {cache}"))
    .collect()
}

/// The end-to-end run: three servers, each set up, probed, and given a
/// third of the closed loop and of the open loop.
fn untraced(args: &Args, work: &Path) -> Result<Report, String> {
    let total = Duration::from_secs_f64(args.seconds);
    let closed_len = total.mul_f64(CLOSED_SHARE);
    let open_len = total - closed_len;
    let mut bench = Bench::new(args, work.to_path_buf());
    let is_churn = args.workload == Workload::AuthzChurn;
    // Each of the three servers carries a third of both loops, and the
    // figures pool the three, so one server process's luck (its memory
    // layout, its hash seeds) does not set a figure.
    let closed_len = closed_len / SETUPS as u32;
    let open_len = open_len / SETUPS as u32;
    let mut setup_s = Vec::new();
    let mut closed = Tally::default();
    let mut closed_elapsed = Duration::ZERO;
    let mut cpu = 0.0;
    let mut open = Tally::default();
    let mut audit = [0.0f64; 3];
    let mut rss = Vec::new();
    let mut ran_out = false;
    for k in 0..SETUPS {
        let (server, mut conns, s) = bench.setup(k)?;
        setup_s.push(s);
        if !is_churn {
            // Off `authz_churn`, revocation visibility is probed on the
            // freshly set-up server.
            bench.churn(PROBES).probe(&mut conns[0], PROBES, &mut open);
        }
        let (closed_n, all_n) = ops_needed(args, closed_len, open_len);
        let ops = bench.build_ops(&mut conns, all_n);
        let mut churn = bench.churn(churn_count(args, closed_len + open_len));
        let model = Arc::clone(&bench.model);
        let mut cursors = vec![0usize; CONNS];

        // Closed loop: throughput and server CPU per operation.
        let a0 = server.drain_audit()?;
        let cpu0 = stats::cpu_seconds(server.pid).map_err(|e| e.to_string())?;
        let start = Instant::now();
        if is_churn {
            churn.arm(start);
        }
        let deadline = start + closed_len;
        let c = run_lanes_at(
            &mut conns,
            &ops,
            &mut cursors,
            closed_n,
            is_churn.then_some((&mut churn, &*model)),
            |l| load::closed(l, deadline),
        );
        let elapsed = c.end.unwrap_or(deadline).duration_since(start);
        ran_out |= elapsed + Duration::from_millis(100) < closed_len;
        closed_elapsed += elapsed;
        cpu += stats::cpu_seconds(server.pid).map_err(|e| e.to_string())? - cpu0;
        closed.merge(c);

        // Open loop: latency from the due time, and audit coverage.
        let b0 = server.drain_audit()?;
        let start = Instant::now() + Duration::from_millis(5);
        if is_churn {
            churn.arm(start);
        }
        let rate = tuning(args.workload).rate;
        let mut o = run_lanes_at(
            &mut conns,
            &ops,
            &mut cursors,
            usize::MAX,
            is_churn.then_some((&mut churn, &*model)),
            |l| {
                let r = lane_rate(args.workload, rate, &l);
                load::open(l, start, open_len, r)
            },
        );
        churn.disarm();
        let b1 = server.drain_audit()?;
        if is_churn {
            o.violations.extend(push_coverage(&a0, &b1));
        }
        for (sum, key) in audit.iter_mut().zip([
            "sf_audit_accepted_total",
            "sf_audit_dropped_total",
            "sf_audit_drained_total",
        ]) {
            *sum += b1.delta(&b0, key);
        }
        // Keep the servers' windows in order: each server's due times
        // follow the previous server's.
        for sample in &mut o.samples {
            sample.at += open_len * k as u32;
        }
        open.merge(o);
        rss.push(stats::peak_rss_mb(server.pid).map_err(|e| e.to_string())?);
        drop(conns);
        server.quit()?;
    }
    let visible: Vec<f64> = open.visible.iter().map(|&d| ms(d)).collect();
    let samples = open.samples.len();
    let [accepted, dropped, drained] = audit;
    let decisions = accepted + dropped;
    let coverage = if decisions > 0.0 {
        drained / decisions
    } else {
        0.0
    };
    let attempted = closed.attempted + open.attempted;
    let errors = attempted - closed.ok() - open.ok();
    let mut notes = vec![
        format!(
            "workload {} seed {} seconds {}",
            args.workload.name(),
            args.seed,
            args.seconds
        ),
        format!(
            "closed loop: {} ok of {} in {:.3} s; open loop: {} latency samples at {} req/s",
            closed.ok(),
            closed.attempted,
            closed_elapsed.as_secs_f64(),
            samples,
            tuning(args.workload).rate
        ),
        format!(
            "audit over the open loop: {decisions} decisions, {drained} drained, {dropped} dropped"
        ),
        format!(
            "revocations measured: {} (min {:.3}, p10 {:.3}, p50 {:.3}, p90 {:.3} ms)",
            visible.len(),
            quantile(&visible, 0.0),
            quantile(&visible, 0.1),
            quantile(&visible, 0.5),
            quantile(&visible, 0.9)
        ),
    ];
    let lat: Vec<f64> = open.samples.iter().map(|x| ms(x.latency)).collect();
    let deciles: Vec<String> = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]
        .iter()
        .map(|&q| format!("{:.2}", quantile(&lat, q)))
        .collect();
    notes.push(format!(
        "open-loop latency p10..p90, p99 (ms, pooled): {}",
        deciles.join(" ")
    ));
    let violations: Vec<&String> = closed.violations.iter().chain(&open.violations).collect();
    let wrong: Vec<&String> = closed.wrong.iter().chain(&open.wrong).collect();
    notes.extend(violations.iter().take(5).map(|v| format!("VIOLATION {v}")));
    notes.extend(wrong.iter().take(5).map(|w| format!("WRONG {w}")));
    if ran_out {
        notes.push("the closed loop ran out of pre-built requests".to_string());
    }
    notes.push(format!("latency_samples {samples}"));
    if samples < 1000 {
        notes.push(format!(
            "only {samples} latency samples (want at least 1000)"
        ));
    }
    Ok(Report {
        correct: violations.is_empty() && wrong.is_empty(),
        attempted,
        failed: errors,
        metrics: vec![
            ("setup_s".into(), median_f64(&setup_s), "s"),
            (
                "throughput_rps".into(),
                closed.ok() as f64 / closed_elapsed.as_secs_f64(),
                "ops/s",
            ),
            (
                "latency_p50_ms".into(),
                windowed_quantile(&open.samples, 0.5, WINDOW),
                "ms",
            ),
            (
                "latency_p99_ms".into(),
                windowed_quantile(&open.samples, 0.99, WINDOW),
                "ms",
            ),
            (
                "ok_ratio".into(),
                (attempted - errors) as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            (
                "server_cpu_us_per_op".into(),
                cpu * 1e6 / closed.ok().max(1) as f64,
                "us",
            ),
            ("audit_coverage".into(), coverage, "ratio"),
            ("server_rss_mb".into(), median_f64(&rss), "MB"),
            ("revocation_visible_ms".into(), median_f64(&visible), "ms"),
        ],
        notes,
    })
}

/// The traced server's report (see `server::report`).
#[derive(Default)]
struct ServerReport {
    /// Request id → its outermost server span, in nanoseconds.
    reqs: HashMap<u64, u64>,
    /// Span name → (count, p50 duration, p50 self time), in nanoseconds.
    spans: HashMap<String, (f64, f64, f64)>,
    /// Aggregates and replay figures by metric name.
    values: HashMap<String, f64>,
}

/// Reads the traced server's report.
fn read_report(dir: &Path) -> Result<ServerReport, String> {
    let text = std::fs::read_to_string(dir.join("report.txt")).map_err(|e| e.to_string())?;
    let mut r = ServerReport::default();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        match f.first().copied() {
            Some("req") => {
                r.reqs.insert(num(1) as u64, num(2) as u64);
            }
            Some("span") => {
                r.spans.insert(f[1].to_string(), (num(2), num(3), num(4)));
            }
            Some("value") => {
                r.values.insert(f[1].to_string(), num(2));
            }
            _ => {}
        }
    }
    Ok(r)
}

/// The traced run: closed-loop segments alternately untraced and traced,
/// then a traced open loop and the probes, then the offline replay.
fn traced(args: &Args, work: &Path) -> Result<Report, String> {
    let total = Duration::from_secs_f64(args.seconds);
    let segment = total / 8;
    let open_len = total - 4 * segment;
    let mut bench = Bench::new(args, work.to_path_buf());
    let (mut server, mut conns, _) = bench.setup(0)?;
    let (segment_n, _) = ops_needed(args, segment, open_len);
    let (_, all_n) = ops_needed(args, 4 * segment, open_len);
    let ops = bench.build_ops(&mut conns, all_n);
    let mut churn = bench.churn(churn_count(args, total));
    let model = Arc::clone(&bench.model);
    let is_churn = args.workload == Workload::AuthzChurn;
    let mut cursors = vec![0usize; CONNS];

    // Untraced and traced segments alternate, so the server warming up
    // over the run favours neither side of `trace.overhead_pct`.
    let mut closed = Tally::default();
    let mut done = [(0u64, 0.0f64); 2];
    for k in 0..4 {
        let traced = k % 2 == 1;
        server.command(if traced { "TRACE 1" } else { "TRACE 0" })?;
        let start = Instant::now();
        if is_churn {
            churn.arm(start);
        }
        let deadline = start + segment;
        let t = run_lanes_at(
            &mut conns,
            &ops,
            &mut cursors,
            (k + 1) * segment_n,
            is_churn.then_some((&mut churn, &*model)),
            |l| load::closed(l, deadline),
        );
        done[traced as usize].0 += t.ok();
        done[traced as usize].1 += t
            .end
            .unwrap_or(deadline)
            .duration_since(start)
            .as_secs_f64();
        closed.merge(t);
    }
    let [untraced_rps, traced_rps] = done.map(|(ok, secs)| ok as f64 / secs);
    // The per-layer figures come from the open loop alone.
    server.command("TRACE 1")?;
    server.command("CLEAR")?;
    let s0 = server.drain_audit()?;
    let start = Instant::now() + Duration::from_millis(5);
    if is_churn {
        churn.arm(start);
    }
    let rate = tuning(args.workload).rate;
    let mut open = run_lanes_at(
        &mut conns,
        &ops,
        &mut cursors,
        usize::MAX,
        is_churn.then_some((&mut churn, &*model)),
        |l| {
            let r = lane_rate(args.workload, rate, &l);
            load::open(l, start, open_len, r)
        },
    );
    churn.disarm();
    let s1 = server.drain_audit()?;
    if is_churn {
        open.violations.extend(push_coverage(&s0, &s1));
    } else {
        churn.probe(&mut conns[0], PROBES, &mut open);
    }
    // The MAC, channel and RMI layers: from the open loop on
    // `session_warm`, from a short session probe everywhere else.
    let (r0, r1) = if args.workload == Workload::SessionWarm {
        (s0.clone(), s1.clone())
    } else {
        let r0 = server.scrape()?;
        check_clean(
            &session_probe(&mut server, args, &mut bench.ids)?,
            "session probe",
        )?;
        (r0, server.scrape()?)
    };
    server.command("TRACE 0")?;
    server.command("REPORT")?;
    let ServerReport {
        reqs,
        spans,
        values,
    } = read_report(&server.dir)?;
    drop(conns);
    server.quit()?;

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));

    // Outside the handler: client round trip minus the request's
    // outermost server span, matched by request id.
    let mut outside = Vec::new();
    let mut round_trips = Vec::new();
    let mut handler = Vec::new();
    for s in &open.samples {
        if let Some(&inner) = reqs.get(&s.id) {
            let rt = s.round_trip.as_nanos() as f64;
            outside.push((rt - inner as f64) / 1e3);
            round_trips.push(rt / 1e3);
            handler.push(inner as f64 / 1e3);
        }
    }
    let outside_p50 = median_f64(&outside);
    put("runtime.outside_handler_us", outside_p50, "us");
    put(
        "runtime.pool_shed",
        s1.delta(&s0, "sf_sheds_total{origin=\"pool\"}"),
        "count",
    );
    put("http.respond_us", s1.mean_request_us(&s0, "http"), "us");
    let span_p50 = |name: &str| spans.get(name).map_or(0.0, |s| s.1 / 1e3);
    let span_self = |name: &str| spans.get(name).map_or(0.0, |s| s.2 / 1e3);
    put("http.servlet_us", span_p50("http.servlet"), "us");
    let v = |name: &str| values.get(name).copied().unwrap_or(0.0);
    put("http.parse_us", v("http.parse_us"), "us");
    put("http.mac_verify_us", v("http.mac_verify_us"), "us");
    put(
        "http.ident_hits",
        s1.delta(&s0, "sf_servlet_ident_hits_total"),
        "count",
    );
    put("sexpr.parse_us", v("sexpr.parse_us"), "us");
    put("core.decode_us", v("core.decode_us"), "us");
    put("core.verify_cold_us", v("core.verify_cold_us"), "us");
    put("core.memo_hit_us", v("core.memo_hit_us"), "us");
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    put(
        "core.memo_hit_ratio.authz",
        ratio(
            s1.delta(&s0, "sf_chain_memo_hits_total{surface=\"authz\"}"),
            s1.delta(&s0, "sf_chain_memo_misses_total{surface=\"authz\"}"),
        ),
        "ratio",
    );
    put("crypto.verify_us", v("crypto.verify_us"), "us");
    // Signature checks per cold verification: request ⇒ client ⇒ group ⇒
    // owner carries three certificates; authz chains carry two to four,
    // three on average (subjects spread evenly over the team levels).
    // Each pushed revocation's CRL signature is checked once more.
    let sig_checks = 3.0 * s1.delta(&s0, "sf_chain_memo_misses_total{surface=\"servlet\"}")
        + 3.0 * s1.delta(&s0, "sf_chain_memo_misses_total{surface=\"authz\"}")
        + s1.delta(&s0, "sf_validator_revocations_total");
    let key_hits = s1.delta(&s0, "sf_key_table_hits_total");
    put(
        "crypto.key_table_hit_ratio",
        if sig_checks > 0.0 {
            key_hits / sig_checks
        } else {
            0.0
        },
        "ratio",
    );
    put("channel.seal_us", v("channel.seal_us"), "us");
    put("channel.open_us", v("channel.open_us"), "us");
    put("rmi.dispatch_us", r1.mean_request_us(&r0, "rmi"), "us");
    put(
        "rmi.proof_cache_hit_ratio",
        ratio(
            r1.delta(&r0, "sf_rmi_proof_cache_hits_total"),
            r1.delta(&r0, "sf_rmi_proof_cache_misses_total"),
        ),
        "ratio",
    );
    put("prover.find_proof_us", v("prover.find_proof_us"), "us");
    let questions = s1.delta(&s0, "sf_request_duration_seconds_count{surface=\"authz\"}");
    put(
        "prover.expansions_per_query",
        if questions > 0.0 {
            s1.delta(&s0, "sf_prover_expansions_total") / questions
        } else {
            0.0
        },
        "count",
    );
    put("broker.authz_us", s1.mean_request_us(&s0, "authz"), "us");
    put("broker.json_parse_us", v("broker.json_parse_us"), "us");
    put("audit.emit_us", span_p50("audit.emit"), "us");
    put("audit.append_us", v("audit.append_us"), "us");
    put(
        "audit.dropped",
        s1.delta(&s0, "sf_audit_dropped_total"),
        "count",
    );
    put("audit.queue_depth_max", v("audit.queue_depth_max"), "count");
    put("revocation.revoke_us", span_p50("revocation.revoke"), "us");
    let evict: Vec<f64> = [
        "revocation.bus_evict.prover",
        "revocation.bus_evict.authz_memo",
    ]
    .iter()
    .filter_map(|n| spans.get(*n).map(|s| s.1 / 1e3))
    .collect();
    put(
        "revocation.bus_evict_us",
        if evict.is_empty() {
            0.0
        } else {
            evict.iter().sum::<f64>() / evict.len() as f64
        },
        "us",
    );
    put(
        "revocation.bus_evict_us.prover",
        span_p50("revocation.bus_evict.prover"),
        "us",
    );
    put(
        "revocation.bus_evict_us.authz_memo",
        span_p50("revocation.bus_evict.authz_memo"),
        "us",
    );
    put(
        "revocation.evicted_entries",
        v("revocation.evicted_entries"),
        "count",
    );
    let lag: Vec<f64> = open.lag.iter().map(|&d| ms(d)).collect();
    put("gen.lag_p99_ms", quantile(&lag, 0.99), "ms");
    put(
        "trace.overhead_pct",
        if untraced_rps > 0.0 {
            (untraced_rps - traced_rps) / untraced_rps * 100.0
        } else {
            0.0
        },
        "%",
    );
    // Unaccounted: p50 round trip minus the p50s of the two stages every
    // request's blocking path splits into: outside the handler, and the
    // handler's span tree (whose self times the span.* figures break
    // down).
    put(
        "unaccounted_us",
        median_f64(&round_trips) - outside_p50 - median_f64(&handler),
        "us",
    );
    for name in SELF_TIMED {
        put(&format!("span.{name}.self_us"), span_self(name), "us");
    }

    let all = [&closed, &open];
    let attempted: u64 = all.iter().map(|t| t.attempted).sum();
    let ok: u64 = all.iter().map(|t| t.ok()).sum();
    let violations: Vec<&String> = all.iter().flat_map(|t| &t.violations).collect();
    let wrong: Vec<&String> = all.iter().flat_map(|t| &t.wrong).collect();
    let mut notes = vec![format!(
        "traced run: workload {} seed {}; untraced {untraced_rps:.1} ops/s, traced {traced_rps:.1} ops/s",
        args.workload.name(),
        args.seed
    )];
    notes.extend(violations.iter().take(5).map(|v| format!("VIOLATION {v}")));
    notes.extend(wrong.iter().take(5).map(|w| format!("WRONG {w}")));
    Ok(Report {
        correct: violations.is_empty() && wrong.is_empty(),
        attempted,
        failed: attempted - ok,
        metrics: m,
        notes,
    })
}

/// The ungated rate sweep: closed-loop capacity first, then open-loop
/// latency at fixed shares of it.
fn sweep(args: &Args, work: &Path) -> Result<(), String> {
    let seg = Duration::from_secs_f64(args.seconds);
    let mut bench = Bench::new(args, work.to_path_buf());
    let (server, mut conns, _) = bench.setup(0)?;
    let shares = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let cap = tuning(args.workload).closed_cap;
    let (closed_n, _) = ops_needed(args, seg, Duration::ZERO);
    // Each step's busiest lane sends at most its share of both lanes' cap.
    let per_conn = closed_n
        + shares
            .iter()
            .map(|s| (s * CONNS as f64 * cap * seg.as_secs_f64()) as usize + 2)
            .sum::<usize>();
    let ops = bench.build_ops(&mut conns, per_conn);
    let mut churn = bench.churn(churn_count(args, seg * (shares.len() as u32 + 1)));
    let model = Arc::clone(&bench.model);
    let is_churn = args.workload == Workload::AuthzChurn;
    let mut cursors = vec![0usize; CONNS];
    let start = Instant::now();
    if is_churn {
        churn.arm(start);
    }
    let t = run_lanes_at(
        &mut conns,
        &ops,
        &mut cursors,
        closed_n,
        is_churn.then_some((&mut churn, &*model)),
        |l| load::closed(l, start + seg),
    );
    let capacity = t.ok() as f64
        / t.end
            .unwrap_or(start + seg)
            .duration_since(start)
            .as_secs_f64();
    println!(
        "# sweep {} seed {}: closed-loop capacity {capacity:.1} ops/s",
        args.workload.name(),
        args.seed
    );
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "rate", "p50_ms", "p99_ms", "samples", "errors", "backlog"
    );
    for share in shares {
        let rate = share * capacity;
        let start = Instant::now() + Duration::from_millis(5);
        if is_churn {
            churn.arm(start);
        }
        let t = run_lanes_at(
            &mut conns,
            &ops,
            &mut cursors,
            usize::MAX,
            is_churn.then_some((&mut churn, &*model)),
            |l| {
                let r = lane_rate(args.workload, rate, &l);
                load::open(l, start, seg, r)
            },
        );
        churn.disarm();
        let mut samples = t.samples.clone();
        samples.sort_by_key(|s| s.at);
        let all: Vec<f64> = samples.iter().map(|s| ms(s.latency)).collect();
        // A growing backlog: the last fifth of the schedule waits much
        // longer than the first fifth.
        let fifth = (all.len() / 5).max(1);
        let head = median_f64(&all[..fifth.min(all.len())]);
        let tail = median_f64(&all[all.len().saturating_sub(fifth)..]);
        let growing = tail > 2.0 * head + 1.0;
        println!(
            "{rate:>10.1} {:>10.3} {:>10.3} {:>10} {:>8} {:>8}",
            windowed_quantile(&samples, 0.5, WINDOW),
            windowed_quantile(&samples, 0.99, WINDOW),
            all.len(),
            t.attempted - t.ok(),
            if growing { "growing" } else { "steady" }
        );
    }
    drop(conns);
    server.quit()
}
