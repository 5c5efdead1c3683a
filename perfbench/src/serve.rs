//! `serve_mixed`: an open loop of warm reads and cold writes against an
//! in-process `hl-serve`.
//!
//! Reads (95%) are warm `/v1/evaluate`, `/v1/evaluate_model` and
//! `/v1/search` replays plus a few GETs; their bodies were answered once
//! during set-up, so they replay from the caches and must come back
//! byte-identical. Writes (5%) are `/v1/evaluate_model` at a pruning
//! degree the run has never used, so each one misses the retention and
//! evaluation caches and inserts into them. Both classes share the
//! worker pool: a change that speeds one by taxing the other shows up as
//! a read-versus-write trade.
//!
//! The traffic is an assumption, not a recorded trace: the 95/5 split
//! and the read classes are the workload's definition; within the reads
//! every distinct request is equally likely, so a class's share is its
//! size in [`read_set`]; the reference rate and the connection count are
//! explained where they are declared. Traced runs report each class's
//! measured share of server time.
//!
//! Load is open-loop (Poisson arrivals on a seeded schedule) from this
//! one process: a sender thread writes each request when it falls due,
//! whatever is still in flight, and a receiver thread collects responses
//! over epoll. Latency runs from the scheduled send, so a stall also
//! charges the requests queued behind it.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hl_bench::search::codesign_space;
use hl_bench::{design_names, registered_names, SweepContext};
use hl_models::accuracy::PruningConfig;
use hl_serve::client::Client;
use hl_serve::epoll::{Interest, Poller};
use hl_serve::{App, Json, Server, ServerConfig, ServerHandle};
use hl_sim::engine::Engine;

use crate::gen::{Rng, WriteDegrees};
use crate::host::{fnv1a, FNV_OFFSET};
use crate::ledger::{Metric, Outcome};
use crate::{stats, Args};

/// Server worker threads, fixed rather than taken from `HL_THREADS`.
const SERVER_WORKERS: usize = 2;
/// Engine threads of the served evaluation context. One per request:
/// the two server workers already use both host CPUs, and a fan-out per
/// request would add thread spawns to every warm model evaluation.
const ENGINE_THREADS: usize = 1;
/// Worker-queue bound: deep enough that a host stall of a few hundred
/// milliseconds at the reference rate queues instead of shedding.
const MAX_QUEUE: usize = 4096;
/// Keep-alive client connections per phase. By Little's law, requests
/// in flight are the rate times the latency: at the reference rate and
/// about 1 ms a request (read p50 0.4 ms, write p50 1.3 ms on a 2-vCPU
/// host) that is about one, and 16 connections absorb a 16 ms stall before a request has to
/// pipeline behind another on its connection.
const CONNECTIONS: usize = 16;
/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 9;
/// Share of requests that are cold writes.
const WRITE_SHARE: f64 = 0.05;
/// The fixed arrival rate the latency figures are taken at: an assumed
/// load, about a sixteenth of the saturated rate measured on a 2-vCPU
/// host (median 16.7k requests/s over ten runs), so the figures show
/// service time rather than queueing.
const REFERENCE_RPS: f64 = 1000.0;
/// Read-p99 limit a probed rate must meet to count for `max_rate_rps`.
/// It sits above the scheduling noise of a shared 2-vCPU host (a
/// low-load p99 of 3–25 ms), so the capacity found is where queueing
/// takes over.
const READ_LIMIT_MS: f64 = 100.0;
/// Share of the window spent saturating the server, split into this
/// many windows; the in-flight window that keeps it saturated; and the
/// (never reached) arrival rate its schedule is drawn at.
const SATURATION_SHARE: f64 = 0.36;
const SATURATION_WINDOWS: usize = 3;
const SATURATION_WINDOW: usize = 256;
const SATURATION_PLAN_RPS: f64 = 50_000.0;
/// Lowest first rate of the capacity search, and the factor it grows by
/// until a rate fails. The first rate is drawn per seed from
/// `[PROBE_START_RPS, 1.25 × PROBE_START_RPS)`, so different seeds probe
/// different rates and the result varies with capacity rather than
/// snapping to one fixed lattice of rates.
const PROBE_START_RPS: f64 = 4000.0;
const PROBE_GROWTH: f64 = 1.5;
/// Length of one capacity probe.
const PROBE_SECONDS: f64 = 1.0;
/// Share of the window spent at the reference rate, split into this
/// many windows (saturation and the capacity search share the rest).
const REFERENCE_SHARE: f64 = 0.4;
const REFERENCE_WINDOWS: usize = 6;
/// A capacity probe stops sending once this many requests are in
/// flight: the rate has failed, and a deeper queue would only grow the
/// server's memory and the drain.
const PROBE_BACKLOG_CAP: usize = 1000;
/// Rise in median latency across a probe that counts as a growing
/// backlog; smaller rises are host scheduling noise.
const BACKLOG_GROWTH_MS: f64 = 20.0;
/// How long a phase waits for its last responses.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Traced runs scrape `/v1/trace` this often (the ring holds 256).
const SCRAPE_EVERY: Duration = Duration::from_millis(100);

/// One request of the read set, with the body hash set-up recorded.
struct ReadReq {
    method: &'static str,
    path: String,
    body: String,
    expected: u64,
}

/// Warm reads, by class: evaluations over designs × degree pairs ×
/// shapes, model evaluations, search replays, and registry GETs.
fn read_set() -> Vec<(&'static str, Vec<ReadReq>)> {
    let read = |method, path: &str, body: String| ReadReq {
        method,
        path: path.to_string(),
        body,
        expected: 0,
    };
    let mut evaluate = Vec::new();
    for design in registered_names() {
        for a in [0.0, 0.5, 0.75] {
            for b in [0.0, 0.25, 0.5] {
                for (m, k, n) in [(64, 64, 64), (256, 512, 256), (1024, 1024, 1024)] {
                    evaluate.push(read(
                        "POST",
                        "/v1/evaluate",
                        format!(
                            r#"{{"design":"{design}","m":{m},"k":{k},"n":{n},"a_sparsity":{a},"b_sparsity":{b}}}"#
                        ),
                    ));
                }
            }
        }
    }
    let mut models = Vec::new();
    for design in design_names() {
        for model in hl_models::model_names() {
            for pruning in [
                r#""dense""#,
                r#"{"unstructured":0.5}"#,
                r#"{"hss":[[2,4]]}"#,
            ] {
                models.push(read(
                    "POST",
                    "/v1/evaluate_model",
                    format!(r#"{{"design":"{design}","model":"{model}","pruning":{pruning}}}"#),
                ));
            }
        }
    }
    let searches = [
        ("HighLight", "DeiT-small", 0.5),
        ("STC", "Transformer-Big", 1.0),
        ("DSTC", "DeiT-small", 0.25),
    ]
    .iter()
    .map(|(d, m, b)| {
        read(
            "POST",
            "/v1/search",
            format!(r#"{{"design":"{d}","model":"{m}","budget":{b}}}"#),
        )
    })
    .collect();
    let gets = ["/v1/designs", "/v1/models"]
        .iter()
        .map(|p| read("GET", p, String::new()))
        .collect();
    vec![
        ("evaluate", evaluate),
        ("evaluate_model", models),
        ("search", searches),
        ("get", gets),
    ]
}

/// The `(design, model)` pairs writes go to: designs whose operand A
/// keeps an unstructured degree as is.
fn write_targets() -> Vec<(&'static str, &'static str)> {
    ["TC", "DSTC"]
        .into_iter()
        .flat_map(|d| hl_models::model_names().into_iter().map(move |m| (d, m)))
        .collect()
}

/// A model evaluation of write target `target` at `degree`.
fn write_body(targets: &[(&str, &str)], target: usize, degree: f64) -> String {
    let (design, model) = &targets[target];
    format!(r#"{{"design":"{design}","model":"{model}","pruning":{{"unstructured":{degree}}}}}"#)
}

/// What a scheduled request is: a read (index into the read set), a
/// write (index into the write targets), or a trace scrape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read(usize),
    Write(usize),
    Scrape,
}

/// One scheduled request.
struct Planned {
    due: Duration,
    kind: Kind,
    bytes: Vec<u8>,
}

fn http_request(method: &str, path: &str, id: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nX-Request-Id: {id}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The request mix: the read set flattened (drawn uniformly), the range
/// of each read class in it, and the write targets with the eval- and
/// retention-cache misses set-up measured for one cold write to each.
struct Mix {
    reads: Vec<ReadReq>,
    classes: Vec<(&'static str, std::ops::Range<usize>)>,
    targets: Vec<(&'static str, &'static str)>,
    cold_misses: Vec<(f64, f64)>,
}

impl Mix {
    fn new() -> Self {
        let mut reads = Vec::new();
        let mut classes = Vec::new();
        for (name, class) in read_set() {
            let start = reads.len();
            reads.extend(class);
            classes.push((name, start..reads.len()));
        }
        Self {
            reads,
            classes,
            targets: write_targets(),
            cold_misses: Vec::new(),
        }
    }
}

/// A Poisson schedule at `rps` for `seconds`, reads and writes mixed.
fn schedule(
    mix: &Mix,
    rng: &mut Rng,
    degrees: &mut WriteDegrees,
    phase: &str,
    rps: f64,
    seconds: f64,
) -> Vec<Planned> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rps;
        if t >= seconds {
            return out;
        }
        let seq = out.len();
        let (kind, bytes) = if rng.unit() < WRITE_SHARE {
            let target = rng.below(mix.targets.len());
            let body = write_body(&mix.targets, target, degrees.next_degree());
            let id = format!("w{phase}-{seq}");
            (
                Kind::Write(target),
                http_request("POST", "/v1/evaluate_model", &id, &body),
            )
        } else {
            let i = rng.below(mix.reads.len());
            let r = &mix.reads[i];
            let id = format!("r{phase}-{seq}");
            (Kind::Read(i), http_request(r.method, &r.path, &id, &r.body))
        };
        out.push(Planned {
            due: Duration::from_secs_f64(t),
            kind,
            bytes,
        });
    }
}

/// One parsed HTTP response.
#[derive(Debug, PartialEq)]
struct Response {
    status: u16,
    body: Vec<u8>,
}

/// Parses one complete response off the front of `buf`: `Ok(None)`
/// while incomplete, else the response and the bytes it used.
fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let (mut length, mut chunked) = (None, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse::<usize>().map_err(|_| "bad content-length")?);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.eq_ignore_ascii_case("chunked");
        }
    }
    let mut pos = head_end + 4;
    if !chunked {
        let len = length.unwrap_or(0);
        if buf.len() < pos + len {
            return Ok(None);
        }
        let body = buf[pos..pos + len].to_vec();
        return Ok(Some((Response { status, body }, pos + len)));
    }
    let mut body = Vec::new();
    loop {
        let Some(line_end) = buf[pos..].windows(2).position(|w| w == b"\r\n") else {
            return Ok(None);
        };
        let size_text =
            std::str::from_utf8(&buf[pos..pos + line_end]).map_err(|_| "bad chunk size")?;
        let size = usize::from_str_radix(size_text.trim(), 16).map_err(|_| "bad chunk size")?;
        pos += line_end + 2;
        if buf.len() < pos + size + 2 {
            return Ok(None);
        }
        body.extend_from_slice(&buf[pos..pos + size]);
        pos += size + 2;
        if size == 0 {
            return Ok(Some((Response { status, body }, pos)));
        }
    }
}

/// A request written to a connection, awaiting its response.
struct InFlight {
    due: Instant,
    kind: Kind,
}

/// The client side of one keep-alive connection.
struct Conn {
    stream: TcpStream,
    in_flight: Mutex<VecDeque<InFlight>>,
    depth: AtomicUsize,
    closed: AtomicBool,
}

/// One completed request.
struct Done {
    kind: Kind,
    due_s: f64,
    latency_ms: f64,
    ok: bool,
}

/// What one phase of open-loop load produced.
#[derive(Default)]
struct Phase {
    done: Vec<Done>,
    lag_ms: Vec<f64>,
    /// Requests (reads and writes) scheduled in the phase.
    scheduled: u64,
    /// Requests still in flight when the last one was sent.
    backlog_at_end: usize,
    /// Requests that failed or were answered wrongly, sheds excepted.
    failed: u64,
    /// Requests the server shed (503) under overload.
    refused: u64,
    /// The sender stopped early: the backlog passed its cap.
    aborted: bool,
    /// Wall time from the first send to the last response.
    seconds: f64,
    /// Trace records scraped from `/v1/trace`, keyed by request id.
    traces: HashMap<String, Json>,
    /// The phase tag in this phase's request ids.
    tag: String,
}

impl Phase {
    fn latencies(&self, keep: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.ok && keep(d.kind))
            .map(|d| d.latency_ms)
            .collect()
    }

    /// True when latency climbed across the phase: the median request
    /// due in its last quarter waited [`BACKLOG_GROWTH_MS`] longer than
    /// the median one due in its first.
    fn backlog_growing(&self, seconds: f64) -> bool {
        let quarter = |lo: f64, hi: f64| {
            let v: Vec<f64> = self
                .done
                .iter()
                .filter(|d| d.due_s >= lo * seconds && d.due_s < hi * seconds)
                .map(|d| d.latency_ms)
                .collect();
            stats::median(&v).unwrap_or(0.0)
        };
        quarter(0.75, 1.0) > quarter(0.0, 0.25) + BACKLOG_GROWTH_MS
    }
}

/// Drives one schedule against `addr`: a sender thread writes each
/// request when due; this thread receives. With `scrape_tag`, a
/// dedicated connection fetches `/v1/trace` every [`SCRAPE_EVERY`] and
/// keeps the traces of requests the schedule tagged so.
fn drive(
    addr: &str,
    plan: &[Planned],
    mix: &Mix,
    scrape_tag: Option<&str>,
    cap: Cap,
) -> Result<Phase, String> {
    let scrape = scrape_tag.is_some();
    let conns: Vec<Conn> = (0..CONNECTIONS + usize::from(scrape))
        .map(|_| {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok(Conn {
                stream,
                in_flight: Mutex::new(VecDeque::new()),
                depth: AtomicUsize::new(0),
                closed: AtomicBool::new(false),
            })
        })
        .collect::<Result<_, String>>()?;
    let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    for (i, c) in conns.iter().enumerate() {
        poller
            .register(c.stream.as_raw_fd(), i as u64, Interest::READ)
            .map_err(|e| format!("register: {e}"))?;
    }
    let sending = AtomicBool::new(true);
    let start = Instant::now();
    let mut phase = Phase {
        scheduled: plan.iter().filter(|p| p.kind != Kind::Scrape).count() as u64,
        tag: scrape_tag.unwrap_or_default().to_string(),
        ..Phase::default()
    };

    std::thread::scope(|scope| -> Result<(), String> {
        let sender = scope.spawn(|| send_all(&conns, plan, start, scrape, cap, &sending));
        let received = receive_all(&conns, &poller, mix, start, &sending, &mut phase);
        let sent = sender.join().map_err(|_| "sender panicked")?;
        phase.lag_ms = sent.lag_ms;
        phase.backlog_at_end = sent.backlog_at_end;
        phase.failed += sent.failed;
        phase.scheduled -= sent.unsent;
        phase.aborted = matches!(cap, Cap::Abort(_)) && sent.unsent > 0;
        phase.seconds = start.elapsed().as_secs_f64();
        received
    })?;
    Ok(phase)
}

/// Writes `bytes` fully to a nonblocking socket.
fn write_fully(mut stream: &TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    let mut pos = 0;
    while pos < bytes.len() {
        match stream.write(&bytes[pos..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// How the sender treats requests still in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cap {
    /// Send every request when due, however many are in flight.
    Open,
    /// Open, but give up on the rest of the plan once more than this
    /// many are in flight (the rate has failed).
    Abort(usize),
    /// Closed loop: send as fast as possible while keeping this many in
    /// flight, ignoring the schedule's times.
    Window(usize),
}

/// What the sender did.
struct Sent {
    /// Send time minus scheduled time, per request.
    lag_ms: Vec<f64>,
    /// Requests in flight when the last one went out.
    backlog_at_end: usize,
    /// Requests that found no open connection.
    failed: u64,
    /// Requests never sent because the backlog passed its cap.
    unsent: u64,
}

/// The sender; see [`Cap`] for how it paces.
fn send_all(
    conns: &[Conn],
    plan: &[Planned],
    start: Instant,
    scrape: bool,
    cap: Cap,
    sending: &AtomicBool,
) -> Sent {
    let load = &conns[..CONNECTIONS];
    let mut lag_ms = Vec::with_capacity(plan.len());
    let (mut failed, mut next, mut scrapes) = (0u64, 0usize, 0u32);
    let mut unsent = 0u64;
    let in_flight = || {
        load.iter()
            .map(|c| c.depth.load(Ordering::SeqCst))
            .sum::<usize>()
    };
    let mut next_scrape = start + SCRAPE_EVERY;
    let send = |conn: &Conn, kind: Kind, due: Instant, bytes: &[u8]| -> bool {
        conn.in_flight
            .lock()
            .expect("in-flight queue lock")
            .push_back(InFlight { due, kind });
        conn.depth.fetch_add(1, Ordering::SeqCst);
        write_fully(&conn.stream, bytes).is_ok()
    };
    for (i, p) in plan.iter().enumerate() {
        let mut due = start + p.due;
        match cap {
            Cap::Abort(limit) if in_flight() > limit => {
                unsent = (plan.len() - i) as u64;
                break;
            }
            Cap::Window(limit) => {
                while in_flight() >= limit {
                    std::thread::sleep(Duration::from_micros(50));
                }
                due = Instant::now();
                if due > start + plan.last().map_or(Duration::ZERO, |p| p.due) {
                    unsent = (plan.len() - i) as u64;
                    break;
                }
            }
            _ => {}
        }
        loop {
            let now = Instant::now();
            if scrape && next_scrape <= now.min(due) {
                let id = format!("s-{scrapes}");
                scrapes += 1;
                let req = http_request("GET", "/v1/trace", &id, "");
                send(&conns[CONNECTIONS], Kind::Scrape, next_scrape, &req);
                next_scrape += SCRAPE_EVERY;
                continue;
            }
            if now >= due {
                break;
            }
            let wake = if scrape { due.min(next_scrape) } else { due };
            std::thread::sleep(wake - now);
        }
        // Prefer an idle connection; else pipeline on the least loaded.
        let open = |c: &&Conn| !c.closed.load(Ordering::SeqCst);
        let pick = (0..CONNECTIONS)
            .map(|k| &load[(next + k) % CONNECTIONS])
            .filter(open)
            .min_by_key(|c| c.depth.load(Ordering::SeqCst));
        next = (next + 1) % CONNECTIONS;
        lag_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        match pick {
            // A request that could not be written stays queued on its
            // connection; the receiver counts it failed once, when the
            // connection reports its end or the drain times out.
            Some(c) => {
                if !send(c, p.kind, due, &p.bytes) {
                    c.closed.store(true, Ordering::SeqCst);
                }
            }
            None => failed += 1,
        }
    }
    if scrape {
        // One last scrape after the final request so the tail is seen.
        std::thread::sleep(Duration::from_millis(200));
        let req = http_request("GET", "/v1/trace", "s-final", "");
        send(&conns[CONNECTIONS], Kind::Scrape, Instant::now(), &req);
    }
    let backlog_at_end = in_flight();
    sending.store(false, Ordering::SeqCst);
    Sent {
        lag_ms,
        backlog_at_end,
        failed,
        unsent,
    }
}

/// The receiver: reads responses until every sent request is answered
/// (or the drain times out), checking each against its expectation.
fn receive_all(
    conns: &[Conn],
    poller: &Poller,
    mix: &Mix,
    start: Instant,
    sending: &AtomicBool,
    phase: &mut Phase,
) -> Result<(), String> {
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns.len()];
    let mut events = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut drain_from: Option<Instant> = None;
    loop {
        let idle = conns.iter().all(|c| c.depth.load(Ordering::SeqCst) == 0);
        if !sending.load(Ordering::SeqCst) {
            if idle {
                return Ok(());
            }
            let since = *drain_from.get_or_insert_with(Instant::now);
            if since.elapsed() > DRAIN_TIMEOUT {
                break;
            }
        }
        events.clear();
        poller
            .wait(&mut events, Some(20))
            .map_err(|e| format!("epoll: {e}"))?;
        for ev in &events {
            let i = ev.token as usize;
            let Some(conn) = conns.get(i) else { continue };
            let mut eof = false;
            loop {
                match (&conn.stream).read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => bufs[i].extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            let now = Instant::now();
            while let Some((resp, used)) = parse_response(&bufs[i])? {
                bufs[i].drain(..used);
                let sent = conn
                    .in_flight
                    .lock()
                    .expect("in-flight queue lock")
                    .pop_front()
                    .ok_or("response without a request")?;
                conn.depth.fetch_sub(1, Ordering::SeqCst);
                complete(sent, resp, now, start, mix, phase);
            }
            if eof {
                conn.closed.store(true, Ordering::SeqCst);
                let _ = poller.deregister(conn.stream.as_raw_fd());
                fail_in_flight(conn, phase);
            }
        }
    }
    for c in conns {
        fail_in_flight(c, phase);
    }
    Ok(())
}

fn fail_in_flight(conn: &Conn, phase: &mut Phase) {
    let mut q = conn.in_flight.lock().expect("in-flight queue lock");
    for sent in q.drain(..) {
        conn.depth.fetch_sub(1, Ordering::SeqCst);
        if sent.kind != Kind::Scrape {
            phase.failed += 1;
        }
    }
}

/// Checks one response and records it.
fn complete(
    sent: InFlight,
    resp: Response,
    now: Instant,
    start: Instant,
    mix: &Mix,
    phase: &mut Phase,
) {
    let ok = match sent.kind {
        Kind::Read(i) => {
            resp.status == 200 && fnv1a(FNV_OFFSET, &resp.body) == mix.reads[i].expected
        }
        Kind::Write(_) => {
            resp.status == 200 && resp.body.windows(16).any(|w| w == br#""supported":true"#)
        }
        Kind::Scrape => {
            if let Ok(doc) = std::str::from_utf8(&resp.body)
                .map_err(|e| e.to_string())
                .and_then(|s| Json::parse(s).map_err(|e| e.to_string()))
            {
                for t in doc.get("traces").and_then(Json::as_arr).unwrap_or(&[]) {
                    // Only this phase's requests ("r<phase>-…", "w<phase>-…").
                    if let Some(id) = t.get("id").and_then(Json::as_str) {
                        let tag = id.get(1..).and_then(|rest| rest.split('-').next());
                        if (id.starts_with('r') || id.starts_with('w'))
                            && tag == Some(phase.tag.as_str())
                        {
                            phase.traces.insert(id.to_string(), t.clone());
                        }
                    }
                }
            }
            return;
        }
    };
    if resp.status == 503 {
        phase.refused += 1;
    } else if !ok {
        phase.failed += 1;
    }
    phase.done.push(Done {
        kind: sent.kind,
        due_s: sent.due.duration_since(start).as_secs_f64(),
        latency_ms: now.duration_since(sent.due).as_secs_f64() * 1e3,
        ok,
    });
}

/// Unstructured degrees a write must not use: the model reads' 0.5,
/// every unstructured candidate of every design's co-design space (the
/// search replays filled the retention cache at those), and the
/// calibration writes'.
fn reserved_degrees() -> Result<Vec<f64>, String> {
    let mut reserved = vec![0.5];
    for design in registered_names() {
        for cfg in codesign_space(design).map_err(|e| e.to_string())? {
            if let PruningConfig::Unstructured { sparsity } = cfg {
                reserved.push(sparsity);
            }
        }
    }
    reserved.extend((0..write_targets().len()).map(calibration_degree));
    Ok(reserved)
}

/// The degree set-up's calibration write to `target` uses: off the
/// 1e-6 grid run writes are drawn on, so no run write repeats it.
fn calibration_degree(target: usize) -> f64 {
    0.200_000_5 + 0.01 * target as f64
}

/// A booted server, each read's response-body hash, and the cache
/// misses one cold write to each write target caused.
type Booted = (ServerHandle, Vec<u64>, Vec<(f64, f64)>);

/// Boots a server, fills its caches with every read once, and sends one
/// calibration write to each write target.
fn boot(mix: &Mix) -> Result<Booted, String> {
    let app = App::with_context(SweepContext::with_engine(Engine::with_threads(
        ENGINE_THREADS,
    )));
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: SERVER_WORKERS,
        idle_timeout: Duration::from_secs(120),
        max_queue: MAX_QUEUE,
        ..ServerConfig::default()
    };
    let handle = Server::bind(config, app)
        .and_then(Server::spawn)
        .map_err(|e| format!("server: {e}"))?;
    let mut client = Client::new(handle.addr().to_string());
    let mut hashes = Vec::with_capacity(mix.reads.len());
    for r in &mix.reads {
        let body = (r.method == "POST").then_some(r.body.as_str());
        let (status, text) = client
            .send(r.method, &r.path, body)
            .map_err(|e| format!("warm-up {} {}: {e}", r.path, r.body))?;
        if status != 200 {
            return Err(format!("warm-up {} {} answered {status}", r.path, r.body));
        }
        hashes.push(fnv1a(FNV_OFFSET, text.as_bytes()));
    }
    let addr = handle.addr().to_string();
    let mut cold_misses = Vec::with_capacity(mix.targets.len());
    for t in 0..mix.targets.len() {
        let body = write_body(&mix.targets, t, calibration_degree(t));
        let before = metrics_snapshot(&addr)?;
        let (status, _) = client
            .send("POST", "/v1/evaluate_model", Some(&body))
            .map_err(|e| format!("calibration write {body}: {e}"))?;
        if status != 200 {
            return Err(format!("calibration write {body} answered {status}"));
        }
        let after = metrics_snapshot(&addr)?;
        let delta = |path: &str| field(&after, path) - field(&before, path);
        cold_misses.push((delta("eval_cache.misses"), delta("retention_cache.misses")));
    }
    Ok((handle, hashes, cold_misses))
}

/// Numeric field `path` (dot-separated) of a JSON document.
fn field(doc: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(doc, |v, k| v.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn metrics_snapshot(addr: &str) -> Result<Json, String> {
    let (status, doc) =
        hl_serve::client::get_json(addr, "/v1/metrics").map_err(|e| format!("/v1/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/v1/metrics answered {status}"));
    }
    Ok(doc)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut mix = Mix::new();
    let mut server: Option<ServerHandle> = None;
    let mut first_hashes: Option<Vec<u64>> = None;
    let mut setup_mismatch = 0;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            old.stop().map_err(|e| format!("stop: {e}"))?;
        }
        let t = Instant::now();
        let (handle, hashes, cold_misses) = boot(&mix)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        server = Some(handle);
        mix.cold_misses = cold_misses;
        match &first_hashes {
            None => first_hashes = Some(hashes),
            Some(f) => setup_mismatch += f.iter().zip(&hashes).filter(|(a, b)| a != b).count(),
        }
    }
    let server = server.ok_or("no server")?;
    for (r, h) in mix.reads.iter_mut().zip(first_hashes.unwrap_or_default()) {
        r.expected = h;
    }
    out.check(
        "serve.reads_identical_across_boots",
        setup_mismatch == 0,
        format!("{setup_mismatch} read bodies differ between {SETUP_REPS} fresh servers"),
    );
    let addr = server.addr().to_string();
    for (k, v) in [
        ("server_workers", SERVER_WORKERS as f64),
        ("engine_threads", ENGINE_THREADS as f64),
        ("max_queue", MAX_QUEUE as f64),
        ("connections", CONNECTIONS as f64),
        ("reference_rps", REFERENCE_RPS),
        ("read_limit_ms", READ_LIMIT_MS),
        ("write_share", WRITE_SHARE),
        ("read_set", mix.reads.len() as f64),
    ] {
        out.param(k, crate::num(v));
    }
    out.param(
        "read_class_sizes",
        Json::Obj(
            mix.classes
                .iter()
                .map(|(name, range)| (name.to_string(), crate::num(range.len() as f64)))
                .collect(),
        ),
    );
    out.param(
        "cold_write_misses",
        Json::Arr(
            mix.targets
                .iter()
                .zip(&mix.cold_misses)
                .map(|((design, model), (eval, retention))| {
                    Json::Obj(vec![
                        ("target".into(), Json::str(format!("{design}/{model}"))),
                        ("eval".into(), crate::num(*eval)),
                        ("retention".into(), crate::num(*retention)),
                    ])
                })
                .collect(),
        ),
    );

    let mut rng = Rng::new(args.seed, 0x5345_5256);
    let mut degrees = WriteDegrees::new(args.seed, reserved_degrees()?);
    let result = if args.trace {
        traced(args, &addr, &mix, &mut rng, &mut degrees, &mut out)
    } else {
        untraced(args, &addr, &mix, &mut rng, &mut degrees, &mut out)
    };
    server.stop().map_err(|e| format!("stop: {e}"))?;
    result.map(|()| out)
}

/// Adds a phase to the run's tally. Sheds count as failures except in
/// capacity probes, which push past capacity on purpose and only learn
/// from a shed that the rate is too high.
fn account(out: &mut Outcome, cold: &mut ColdWrites, mix: &Mix, phase: &Phase, probe: bool) {
    out.attempted += phase.scheduled;
    out.failed += phase.failed + if probe { 0 } else { phase.refused };
    for d in &phase.done {
        if let (Kind::Write(t), true) = (d.kind, d.ok) {
            let (eval, retention) = mix.cold_misses[t];
            cold.writes += 1;
            cold.eval_misses += eval;
            cold.retention_misses += retention;
        }
    }
}

/// The writes answered over a run and the cache misses they must have
/// caused, by set-up's calibration.
#[derive(Debug, Default)]
struct ColdWrites {
    writes: u64,
    eval_misses: f64,
    retention_misses: f64,
}

impl ColdWrites {
    /// Checks that the server's miss counters grew, between two
    /// `/v1/metrics` snapshots, by at least what the writes must have
    /// caused had each been cold. Reads are warm and add none, so a
    /// shortfall means some write was answered from a cache: then every
    /// write of the run counts as failed.
    fn check(&self, out: &mut Outcome, before: &Json, after: &Json) {
        let delta = |path: &str| field(after, path) - field(before, path);
        let (eval, retention) = (delta("eval_cache.misses"), delta("retention_cache.misses"));
        let cold =
            self.writes > 0 && eval >= self.eval_misses && retention >= self.retention_misses;
        if !cold {
            out.failed += self.writes;
        }
        out.check(
            "serve.writes_missed_caches",
            cold,
            format!(
                "{} writes answered must cause at least {} eval-cache and {} retention-cache \
                 misses; the server counted {eval} and {retention}",
                self.writes, self.eval_misses, self.retention_misses
            ),
        );
        out.param("writes_answered", crate::num(self.writes as f64));
    }
}

/// The capacity search: grows the rate until one fails, then bisects.
struct Capacity {
    ok: Option<f64>,
    bad: Option<f64>,
    rate: f64,
    probes: Vec<Json>,
    refused: u64,
}

impl Capacity {
    fn new(rng: &mut Rng) -> Self {
        Self {
            ok: None,
            bad: None,
            rate: PROBE_START_RPS * rng.range(1.0, 1.25),
            probes: Vec::new(),
            refused: 0,
        }
    }

    fn probe(
        &mut self,
        addr: &str,
        mix: &Mix,
        rng: &mut Rng,
        degrees: &mut WriteDegrees,
        out: &mut Outcome,
        cold: &mut ColdWrites,
    ) -> Result<(), String> {
        let rate = self.rate;
        let plan = schedule(
            mix,
            rng,
            degrees,
            &format!("p{}", self.probes.len()),
            rate,
            PROBE_SECONDS,
        );
        let phase = drive(addr, &plan, mix, None, Cap::Abort(PROBE_BACKLOG_CAP))?;
        account(out, cold, mix, &phase, true);
        self.refused += phase.refused;
        let reads = phase.latencies(|k| matches!(k, Kind::Read(_)));
        let read_tail = stats::tail(&reads).map_or(f64::INFINITY, |t| t.value);
        let lag_tail = stats::tail(&phase.lag_ms).map_or(0.0, |t| t.value);
        let met = phase.failed == 0
            && phase.refused == 0
            && !phase.aborted
            && read_tail <= READ_LIMIT_MS
            && lag_tail <= READ_LIMIT_MS
            && !phase.backlog_growing(PROBE_SECONDS);
        self.probes.push(Json::Obj(vec![
            ("rps".into(), crate::num(rate)),
            ("read_tail_ms".into(), crate::num(read_tail)),
            ("lag_tail_ms".into(), crate::num(lag_tail)),
            (
                "backlog_at_end".into(),
                crate::num(phase.backlog_at_end as f64),
            ),
            ("refused".into(), crate::num(phase.refused as f64)),
            ("aborted".into(), Json::Bool(phase.aborted)),
            ("met".into(), Json::Bool(met)),
        ]));
        if met {
            self.ok = Some(self.ok.map_or(rate, |o| o.max(rate)));
        } else {
            self.bad = Some(self.bad.map_or(rate, |b| b.min(rate)));
        }
        self.rate = match (self.ok, self.bad) {
            (Some(o), Some(b)) if b - o > 0.02 * o => (o + b) / 2.0,
            (Some(o), Some(_)) => o,
            (Some(o), None) => o * PROBE_GROWTH,
            (None, Some(b)) => b / PROBE_GROWTH,
            (None, None) => unreachable!("every decided probe is met or not"),
        };
        Ok(())
    }
}

fn untraced(
    args: &Args,
    addr: &str,
    mix: &Mix,
    rng: &mut Rng,
    degrees: &mut WriteDegrees,
    out: &mut Outcome,
) -> Result<(), String> {
    // Each latency figure is the median over reference windows, so a
    // host stall that hits one window does not move the result. Peak
    // memory is read before the capacity probes, whose write count (and
    // so cache growth) depends on the capacity found.
    let window_s = args.seconds * REFERENCE_SHARE / REFERENCE_WINDOWS as f64;
    let mut windows: Vec<Phase> = Vec::new();
    let mut cold = ColdWrites::default();
    let before = metrics_snapshot(addr)?;
    for w in 0..REFERENCE_WINDOWS {
        let plan = schedule(
            mix,
            rng,
            degrees,
            &format!("ref{w}"),
            REFERENCE_RPS,
            window_s,
        );
        let phase = drive(addr, &plan, mix, None, Cap::Open)?;
        account(out, &mut cold, mix, &phase, false);
        windows.push(phase);
    }
    out.metrics.push(crate::peak_rss_metric()?);

    // Saturation: a closed loop keeping SATURATION_WINDOW requests in
    // flight measures the rate the server completes the mix at. Its
    // windows alternate with slices of the capacity search, so the
    // median rate spans the rest of the run and a host stall in one
    // window does not move it.
    let saturation_s = args.seconds * SATURATION_SHARE / SATURATION_WINDOWS as f64;
    let probe_s =
        args.seconds * (1.0 - REFERENCE_SHARE - SATURATION_SHARE) / SATURATION_WINDOWS as f64;
    let (mut rates, mut completed) = (Vec::new(), 0);
    let mut capacity = Capacity::new(rng);
    for w in 0..SATURATION_WINDOWS {
        let plan = schedule(
            mix,
            rng,
            degrees,
            &format!("sat{w}"),
            SATURATION_PLAN_RPS,
            saturation_s,
        );
        let saturated = drive(addr, &plan, mix, None, Cap::Window(SATURATION_WINDOW))?;
        account(out, &mut cold, mix, &saturated, false);
        let ok = saturated.done.iter().filter(|d| d.ok).count();
        rates.push(ok as f64 / saturated.seconds);
        completed += ok;

        let deadline = Instant::now() + Duration::from_secs_f64(probe_s);
        while capacity.probes.is_empty()
            || Instant::now() + Duration::from_secs_f64(PROBE_SECONDS) <= deadline
        {
            capacity.probe(addr, mix, rng, degrees, out, &mut cold)?;
        }
    }
    out.param(
        "saturation_rates",
        Json::Arr(rates.iter().copied().map(crate::num).collect()),
    );
    out.metrics.push(Metric::new(
        "throughput_per_s",
        stats::median(&rates).ok_or("no saturation window")?,
        completed,
        format!(
            "requests completed per second with {SATURATION_WINDOW} in flight, median of {SATURATION_WINDOWS} windows"
        ),
    ));
    cold.check(out, &before, &metrics_snapshot(addr)?);

    // Read and write latency from the scheduled send: each figure is the
    // median over the reference windows of that window's statistic.
    for (class, keep, p50_name, tail_name) in [
        (
            "read",
            (|k| matches!(k, Kind::Read(_))) as fn(Kind) -> bool,
            "read_p50_ms",
            "read_tail_ms",
        ),
        (
            "write",
            |k| matches!(k, Kind::Write(_)),
            "write_p50_ms",
            "write_tail_ms",
        ),
    ] {
        let per_window: Vec<Vec<f64>> = windows.iter().map(|p| p.latencies(keep)).collect();
        let samples: usize = per_window.iter().map(Vec::len).sum();
        let median_of = |f: &dyn Fn(&[f64]) -> Option<f64>| {
            let v: Vec<f64> = per_window.iter().filter_map(|w| f(w)).collect();
            stats::median(&v).ok_or(format!("no {class} completed"))
        };
        let scope = format!("{class}s at {REFERENCE_RPS} rps from the scheduled send, median of {REFERENCE_WINDOWS} windows");
        out.metrics.push(Metric::new(
            p50_name,
            median_of(&|w| stats::median(w))?,
            samples,
            format!("window p50 of {scope}"),
        ));
        let q = per_window
            .iter()
            .filter_map(|w| stats::tail(w))
            .map(|t| t.q)
            .fold(1.0, f64::min);
        out.metrics.push(Metric::new(
            tail_name,
            median_of(&|w| stats::tail(w).map(|t| t.value))?,
            samples,
            format!("window p{:.1} (or higher) of {scope}", q * 100.0),
        ));
    }
    let lags: Vec<f64> = windows
        .iter()
        .flat_map(|p| p.lag_ms.iter().copied())
        .collect();
    let lag_tail = stats::tail(&lags).ok_or("no request sent")?;
    out.param(
        "generator_lag_ms",
        Json::Obj(vec![
            (
                "p50".into(),
                crate::num(stats::median(&lags).unwrap_or(0.0)),
            ),
            ("tail".into(), crate::num(lag_tail.value)),
            ("tail_q".into(), crate::num(lag_tail.q)),
            ("samples".into(), crate::num(lags.len() as f64)),
        ]),
    );
    let scheduled: u64 = windows.iter().map(|p| p.scheduled).sum();
    out.count("serve.reference.requests", scheduled as f64);
    let writes = windows
        .iter()
        .flat_map(|p| &p.done)
        .filter(|d| matches!(d.kind, Kind::Write(_)))
        .count();
    out.count("serve.reference.writes", writes as f64);

    out.metrics.push(Metric::new(
        "max_rate_rps",
        capacity.ok.ok_or("no probed rate met the read limit")?,
        capacity.probes.len(),
        format!(
            "highest probed open-loop rate with read p99 <= {READ_LIMIT_MS} ms, no growing backlog, no shed"
        ),
    ));
    out.param("capacity_refused", crate::num(capacity.refused as f64));
    out.param("capacity_probes", Json::Arr(capacity.probes));
    out.check(
        "serve.responses_correct",
        out.failed == 0,
        format!(
            "{} of {} requests failed, answered non-200, or differed from their warm body",
            out.failed, out.attempted
        ),
    );
    Ok(())
}

/// The five contiguous spans of a trace, in order.
const SPANS: [&str; 5] = [
    "parse_ms",
    "queue_ms",
    "eval_ms",
    "serialize_ms",
    "write_ms",
];

fn traced(
    args: &Args,
    addr: &str,
    mix: &Mix,
    rng: &mut Rng,
    degrees: &mut WriteDegrees,
    out: &mut Outcome,
) -> Result<(), String> {
    let half = args.seconds / 2.0;
    let mut cold = ColdWrites::default();
    let start = metrics_snapshot(addr)?;
    // Untraced first, then the same load with trace scraping: the
    // difference is the tracing overhead.
    let plain = drive(
        addr,
        &schedule(mix, rng, degrees, "u", REFERENCE_RPS, half),
        mix,
        None,
        Cap::Open,
    )?;
    account(out, &mut cold, mix, &plain, false);
    let before = metrics_snapshot(addr)?;
    let traced = drive(
        addr,
        &schedule(mix, rng, degrees, "t", REFERENCE_RPS, half),
        mix,
        Some("t"),
        Cap::Open,
    )?;
    let after = metrics_snapshot(addr)?;
    account(out, &mut cold, mix, &traced, false);
    cold.check(out, &start, &after);
    let delta = |path: &str| field(&after, path) - field(&before, path);

    let p50 = |p: &Phase| stats::median(&p.latencies(|_| true)).unwrap_or(0.0);
    out.metrics.push(Metric::new(
        "bench.trace.overhead_ms",
        p50(&traced) - p50(&plain),
        traced.done.len(),
        format!("p50 of all requests at {REFERENCE_RPS} rps: traced minus untraced"),
    ));

    let mut sums_off = Vec::new();
    let (mut cold_writes, mut write_traces) = (0usize, 0usize);
    let mut spans: HashMap<(bool, &str), Vec<f64>> = HashMap::new();
    let mut queue_all = Vec::new();
    // Server time per request class: every span but the queue wait.
    // A coalesced joiner carries its leader's eval span, so joiners are
    // left out rather than counted twice.
    let mut busy: HashMap<&str, (f64, usize)> = HashMap::new();
    for (id, t) in &traced.traces {
        let is_write = id.starts_with('w');
        let total = field(t, "total_ms");
        if t.get("outcome").and_then(Json::as_str) != Some("coalesce_join") {
            let class = match t.get("route").and_then(Json::as_str) {
                _ if is_write => "write",
                Some("/v1/evaluate") => "evaluate",
                Some("/v1/evaluate_model") => "evaluate_model",
                Some("/v1/search") => "search",
                _ => "get",
            };
            let entry = busy.entry(class).or_default();
            entry.0 += total - field(t, "spans.queue_ms");
            entry.1 += 1;
        }
        let mut sum_us = 0i64;
        for s in SPANS {
            let v = field(t, &format!("spans.{s}"));
            sum_us += (v * 1000.0).round() as i64;
            spans.entry((is_write, s)).or_default().push(v);
        }
        queue_all.push(field(t, "spans.queue_ms"));
        if sum_us != (total * 1000.0).round() as i64 {
            sums_off.push(t.encode());
        }
        if is_write {
            write_traces += 1;
            cold_writes += usize::from(field(t, "cache.eval_misses") > 0.0);
        }
    }
    let busy_total: f64 = busy.values().map(|(ms, _)| ms).sum();
    for class in ["evaluate", "evaluate_model", "search", "get", "write"] {
        let (ms, n) = busy.get(class).copied().unwrap_or_default();
        out.metrics.push(Metric::new(
            format!("serve.share.{class}"),
            if busy_total > 0.0 {
                ms / busy_total
            } else {
                0.0
            },
            n,
            format!(
                "share of server time (spans but queue) of traced requests; {:.4} ms per request",
                ms / n.max(1) as f64
            ),
        ));
    }
    for (is_write, class) in [(false, "read"), (true, "write")] {
        for s in SPANS {
            let v = spans.get(&(is_write, s)).cloned().unwrap_or_default();
            let name = |stat: &str| format!("serve.{class}.{s}.{stat}");
            out.metrics.push(Metric::new(
                name("p50"),
                stats::median(&v).unwrap_or(0.0),
                v.len(),
                format!("{class} traces"),
            ));
            let t = stats::tail(&v);
            out.metrics.push(Metric::new(
                name("tail"),
                t.map_or(0.0, |t| t.value),
                v.len(),
                format!("p{:.1} of {class} traces", t.map_or(0.0, |t| t.q * 100.0)),
            ));
        }
    }
    let queue_tail = stats::tail(&queue_all);
    out.metrics.push(Metric::new(
        "serve.queue.wait_ms.tail",
        queue_tail.map_or(0.0, |t| t.value),
        queue_all.len(),
        format!(
            "p{:.1} of every traced request's queue span",
            queue_tail.map_or(0.0, |t| t.q * 100.0)
        ),
    ));
    let window = "/v1/metrics delta over the traced window";
    out.metrics.push(Metric::new(
        "serve.coalesced",
        delta("requests.coalesced"),
        1,
        window,
    ));
    out.metrics.push(Metric::new(
        "serve.shed",
        delta("shed.deadline") + delta("shed.overload"),
        1,
        window,
    ));
    out.metrics.push(Metric::new(
        "serve.connections.accepted",
        delta("connections.accepted"),
        1,
        window,
    ));
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    out.metrics.push(Metric::new(
        "sim.eval_cache.hit_ratio",
        ratio(delta("eval_cache.hits"), delta("eval_cache.misses")),
        (delta("eval_cache.hits") + delta("eval_cache.misses")) as usize,
        window,
    ));
    out.metrics.push(Metric::new(
        "models.retention.hit_ratio",
        ratio(
            delta("retention_cache.hits"),
            delta("retention_cache.misses"),
        ),
        (delta("retention_cache.hits") + delta("retention_cache.misses")) as usize,
        window,
    ));
    let cold_ratio = if write_traces > 0 {
        cold_writes as f64 / write_traces as f64
    } else {
        0.0
    };
    out.metrics.push(Metric::new(
        "serve.write.cold_ratio",
        cold_ratio,
        write_traces,
        "write traces with eval-cache misses",
    ));
    let coverage = traced.traces.len() as f64 / traced.scheduled.max(1) as f64;
    out.metrics.push(Metric::new(
        "serve.trace.coverage",
        coverage,
        traced.scheduled as usize,
        "scraped traces / requests sent",
    ));
    let lag = stats::tail(&traced.lag_ms);
    out.metrics.push(Metric::new(
        "bench.generator.lag_ms.tail",
        lag.map_or(0.0, |t| t.value),
        traced.lag_ms.len(),
        format!(
            "p{:.1} of send time minus scheduled time",
            lag.map_or(0.0, |t| t.q * 100.0)
        ),
    ));
    out.count("serve.traced.requests", traced.scheduled as f64);
    out.count("serve.traced.write_traces", write_traces as f64);

    out.check(
        "serve.responses_correct",
        out.failed == 0,
        format!(
            "{} of {} requests failed, answered non-200, or differed from their warm body",
            out.failed, out.attempted
        ),
    );
    out.ledger_check(
        "serve.spans_sum_to_total",
        sums_off.is_empty() && !traced.traces.is_empty(),
        format!(
            "{} of {} traces whose five spans do not sum to total_ms{}",
            sums_off.len(),
            traced.traces.len(),
            sums_off
                .first()
                .map_or(String::new(), |t| format!(", e.g. {t}"))
        ),
    );
    out.ledger_check(
        "serve.writes_are_cold",
        write_traces > 0 && cold_writes == write_traces,
        format!("{cold_writes} of {write_traces} traced writes missed the eval cache"),
    );
    out.ledger_check(
        "serve.trace_coverage",
        coverage >= 0.99,
        format!(
            "{:.1}% of requests seen in /v1/trace scrapes",
            coverage * 100.0
        ),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_length_and_chunked_responses() {
        let fixed = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1";
        let (resp, used) = parse_response(fixed).unwrap().unwrap();
        assert_eq!(
            (resp.status, resp.body.as_slice(), used),
            (200, &b"abc"[..], 41)
        );
        let chunked = b"HTTP/1.1 503 Service Unavailable\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        let (resp, used) = parse_response(chunked).unwrap().unwrap();
        assert_eq!(
            (resp.status, resp.body.as_slice(), used),
            (503, &b"abcde"[..], chunked.len())
        );
        for cut in 0..chunked.len() {
            assert_eq!(
                parse_response(&chunked[..cut]).unwrap(),
                None,
                "cut at {cut}"
            );
        }
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn server_bytes_round_trip_through_the_parser() {
        for len in [0, 10, 9000, 20_000] {
            let body = vec![b'x'; len];
            let bytes = hl_serve::http::Response::json(200, body.clone())
                .to_bytes_with_id(true, Some("r1"));
            let (resp, used) = parse_response(&bytes).unwrap().unwrap();
            assert_eq!((resp.body, used), (body, bytes.len()));
        }
    }

    #[test]
    fn cold_write_check_fails_every_write_on_a_miss_shortfall() {
        let mix = Mix {
            cold_misses: vec![(3.0, 4.0); write_targets().len()],
            ..Mix::new()
        };
        let write = |ok| Done {
            kind: Kind::Write(1),
            due_s: 0.0,
            latency_ms: 1.0,
            ok,
        };
        let phase = Phase {
            done: vec![write(true), write(true), write(false)],
            ..Phase::default()
        };
        let snapshot = |eval: f64, retention: f64| {
            Json::parse(&format!(
                r#"{{"eval_cache":{{"misses":{eval}}},"retention_cache":{{"misses":{retention}}}}}"#
            ))
            .unwrap()
        };
        let mut cold = ColdWrites::default();
        account(&mut Outcome::default(), &mut cold, &mix, &phase, false);
        assert_eq!(
            (cold.writes, cold.eval_misses, cold.retention_misses),
            (2, 6.0, 8.0)
        );
        let mut out = Outcome::default();
        cold.check(&mut out, &snapshot(10.0, 10.0), &snapshot(16.0, 19.0));
        assert!(out.failed == 0 && out.checks[0].passed);
        let mut out = Outcome::default();
        cold.check(&mut out, &snapshot(10.0, 10.0), &snapshot(16.0, 17.0));
        assert!(out.failed == 2 && !out.checks[0].passed);
    }

    #[test]
    fn reserved_degrees_cover_every_degree_a_read_warms() {
        let reserved = reserved_degrees().unwrap();
        let has = |d: f64| reserved.iter().any(|r| (r - d).abs() < 1e-9);
        // The 5% co-design grid, and DSTC's Fig. 15 eighths, which lie
        // off it.
        assert!((1..20).all(|i| has(f64::from(i) * 0.05)));
        assert!([0.125, 0.375, 0.625, 0.875].into_iter().all(has));
    }

    #[test]
    fn calibration_degrees_are_off_the_write_grid() {
        for t in 0..write_targets().len() {
            let steps = calibration_degree(t) / 1e-6;
            assert!((steps - steps.round()).abs() > 0.1, "target {t}");
        }
    }

    #[test]
    fn schedules_are_seeded_and_mix_reads_with_fresh_writes() {
        let mix = Mix::new();
        let build = |seed| {
            let mut rng = Rng::new(seed, 1);
            let mut degrees = WriteDegrees::new(seed, reserved_degrees().unwrap());
            schedule(&mix, &mut rng, &mut degrees, "x", 2000.0, 2.0)
        };
        let (a, b) = (build(5), build(5));
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.bytes == y.bytes && x.due == y.due));
        assert_ne!(
            build(6).iter().map(|p| p.bytes.clone()).collect::<Vec<_>>(),
            a.iter().map(|p| p.bytes.clone()).collect::<Vec<_>>()
        );
        let writes: Vec<&Planned> = a
            .iter()
            .filter(|p| matches!(p.kind, Kind::Write(_)))
            .collect();
        let share = writes.len() as f64 / a.len() as f64;
        assert!((0.03..0.07).contains(&share), "write share {share}");
        let body = |p: &&Planned| {
            let at = p.bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
            p.bytes[at..].to_vec()
        };
        let mut bodies: Vec<Vec<u8>> = writes.iter().map(body).collect();
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(bodies.len(), writes.len(), "a write body repeated");
        assert!(
            (3500..4500).contains(&a.len()),
            "{} arrivals for 4000 expected",
            a.len()
        );
    }
}
