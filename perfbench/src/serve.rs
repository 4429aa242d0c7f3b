//! `serve-small-mix`: an open-loop load over loopback TCP against a
//! `pdip serve --threads 2` child process.
//!
//! One connection carries every verify request; the calling thread
//! sends on a fixed schedule and one receiver thread reads responses.
//! Each request is timed from when it was due, so a stall of the
//! generator or the server shows as latency of every request behind
//! it. The load runs at two fixed rates, `light` and `heavy`, then steps
//! up a fixed rate ladder until a step misses the latency limit.

use crate::inputs::{mix, Blob, Expect};
use crate::layers;
use crate::stats::{mean, median, quantile, Outcome};
use crate::trace::Tracer;
use crate::Run;
use pdip_engine::serve::{
    decode_response, read_frame, write_frame, Status, REQ_PING, REQ_SHUTDOWN, REQ_VERIFY,
};
use pdip_wire::Transcript;
use std::io::BufRead;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Server worker threads (sized for a 2-core machine).
pub const SERVER_THREADS: usize = 2;
/// The fixed `light` rate, requests per second.
pub const LIGHT_RPS: f64 = 200.0;
/// The fixed `heavy` rate, requests per second.
pub const HEAVY_RPS: f64 = 800.0;
/// The rate ladder, requests per second.
pub const LADDER_RPS: [f64; 11] =
    [1000.0, 1250.0, 1563.0, 1953.0, 2441.0, 3052.0, 3815.0, 4768.0, 5960.0, 7451.0, 9313.0];
/// The latency limit a ladder step must meet at its 99th percentile.
pub const LIMIT_P99_MS: f64 = 20.0;
/// A window in which more than 1% of the sends (or ten, in a small
/// window) ran later than this is invalid and not counted.
pub const LATE_BOUND_MS: f64 = 5.0;
/// Requests outstanding at which a ladder step is cut short: the backlog
/// is growing, and the server queue (256) must never fill.
pub const BACKLOG_CUT: u64 = 128;
/// Requests per window of the light phase, whose p50 is reported.
pub const LIGHT_WINDOW: f64 = 250.0;
/// Requests per window of the heavy phase: enough for ten beyond the
/// 99th percentile.
pub const HEAVY_WINDOW: f64 = 1000.0;
/// Requests the closed saturation loop keeps outstanding.
pub const SATURATION_WINDOW: u64 = 32;

/// The server child; killed and waited for on drop.
pub struct Server {
    child: Child,
    /// Port the server listens on.
    pub port: u16,
}

impl Server {
    /// Spawns `pdip serve` on an OS-chosen port and waits for its first
    /// pong. Server output goes to `log`.
    pub fn spawn(pdip: &Path, log: &Path) -> Result<Server, String> {
        let file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let err = file.try_clone().map_err(|e| e.to_string())?;
        let child = Command::new(pdip)
            .args(["serve", "--port", "0", "--threads", &SERVER_THREADS.to_string()])
            .stdout(file)
            .stderr(err)
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", pdip.display()))?;
        let mut server = Server { child, port: 0 };
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.port == 0 {
            if Instant::now() > deadline {
                return Err("pdip serve printed no listening line within 30 s".into());
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("pdip serve exited early: {status}"));
            }
            let text = std::fs::File::open(log).map(std::io::BufReader::new);
            for line in text.into_iter().flat_map(|r| r.lines().map_while(Result::ok)) {
                if let Some(addr) = line.strip_prefix("pdip serve: listening on ") {
                    server.port = addr.rsplit(':').next().and_then(|p| p.parse().ok()).unwrap_or(0);
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        loop {
            match ping(server.port) {
                Ok(()) => return Ok(server),
                Err(e) if Instant::now() > deadline => return Err(format!("no pong: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// The server's peak resident set, in MiB, from `/proc`.
    pub fn peak_rss_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()));
        status
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Asks for a graceful drain and waits for the process to end.
    pub fn stop(mut self) {
        if let Ok(mut s) = TcpStream::connect(("127.0.0.1", self.port)) {
            let _ = write_frame(&mut s, &[REQ_SHUTDOWN]);
            let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
            while let Ok(Some(_)) = read_frame(&mut s) {}
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps it.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One ping round trip on a fresh connection.
fn ping(port: u16) -> std::io::Result<()> {
    let mut s = TcpStream::connect(("127.0.0.1", port))?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    write_frame(&mut s, &[REQ_PING])?;
    match read_frame(&mut s)?.as_deref().and_then(decode_response) {
        Some(r) if r.status == Status::Pong => Ok(()),
        _ => Err(std::io::Error::other("no pong")),
    }
}

/// A server-side metrics snapshot (`pdip stats --json`).
#[derive(Debug, Clone, Default)]
struct Snapshot {
    /// `requests_total{status}` per status name.
    requests: Vec<(&'static str, u64)>,
    /// `(count, total ns)` of the queue-wait, decode, verify and write
    /// histograms.
    hists: [(u64, u64); 4],
    /// Lifetime maximum of the queue-depth gauge.
    queue_max: u64,
}

const COUNTED: [&str; 5] = ["accept", "reject", "malformed", "busy", "deadline"];
const HISTS: [&str; 4] =
    ["latency_queue_wait_ns", "latency_decode_ns", "latency_verify_ns", "latency_write_ns"];

/// The number after `key` in `doc`.
fn number_after(doc: &str, key: &str) -> Option<u64> {
    let at = doc.find(key)? + key.len();
    let digits: String = doc[at..]
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

impl Snapshot {
    fn fetch(port: u16) -> Result<Snapshot, String> {
        let doc = pdip_engine::fetch_stats("127.0.0.1", port, 1)?;
        let mut s = Snapshot::default();
        for name in COUNTED {
            let key = format!("\"requests_total{{status=\\\"{name}\\\"}}\":");
            s.requests.push((name, number_after(&doc, &key).ok_or(format!("no counter {key}"))?));
        }
        for (slot, name) in s.hists.iter_mut().zip(HISTS) {
            let at = doc.find(&format!("\"{name}\"")).ok_or(format!("no histogram {name}"))?;
            let body = &doc[at..];
            *slot = (
                number_after(body, "\"count\":").unwrap_or(0),
                number_after(body, "\"total_ns\":").unwrap_or(0),
            );
        }
        let at = doc.find("\"queue_depth\"").ok_or("no queue_depth gauge")?;
        s.queue_max = number_after(&doc[at..], "\"max\":").unwrap_or(0);
        Ok(s)
    }

    /// Mean of histogram `h` over the interval since `before`, in ns.
    fn mean_ns(&self, before: &Snapshot, h: usize) -> f64 {
        let count = self.hists[h].0.saturating_sub(before.hists[h].0);
        let total = self.hists[h].1.saturating_sub(before.hists[h].1);
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
struct Sent {
    blob: usize,
    due: Instant,
    late_ms: f64,
    write_us: f64,
}

/// One response as the receiver saw it.
#[derive(Debug, Clone, Copy)]
struct Answer {
    status: Status,
    at: Instant,
}

/// The client end of the load connection.
struct Client<'a> {
    stream: TcpStream,
    payloads: Vec<Vec<u8>>,
    order: Vec<usize>,
    sent: Vec<Sent>,
    answers: &'a Mutex<Vec<Option<Answer>>>,
    received: &'a AtomicU64,
    tr: &'a Tracer,
}

/// The client's view of one window of the schedule.
#[derive(Debug, Default, Clone)]
struct Window {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    failed: u64,
    backlog: u64,
}

impl Window {
    /// Whether the generator kept to schedule: at most 1% of the sends,
    /// or ten in a small window, ran more than [`LATE_BOUND_MS`] late.
    fn valid(&self) -> bool {
        let late = self.late_ms.iter().filter(|&&l| l > LATE_BOUND_MS).count();
        late <= (self.late_ms.len() / 100).max(10)
    }
}

impl Client<'_> {
    /// Sends at `rps` for `seconds`, split into `windows` windows of
    /// equal length. Returns the seq range of each window and the
    /// backlog at its end. Stops early once `cut` requests are
    /// outstanding.
    fn run(
        &mut self,
        rps: f64,
        seconds: f64,
        windows: usize,
        cut: Option<u64>,
    ) -> Vec<(std::ops::Range<usize>, u64)> {
        let total = (rps * seconds).round().max(1.0) as usize;
        let per_window = total.div_ceil(windows.max(1));
        let t0 = Instant::now() + Duration::from_millis(2);
        let mut out = Vec::new();
        let mut start = self.sent.len();
        for j in 0..total {
            let due = t0 + Duration::from_secs_f64(j as f64 / rps);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let seq = self.sent.len();
            let blob = self.order[seq % self.order.len()];
            let span = self.tr.open("frame.write", None, seq as u64);
            let w0 = Instant::now();
            let ok = write_frame(&mut self.stream, &self.payloads[blob]).is_ok();
            let write_us = w0.elapsed().as_secs_f64() * 1e6;
            self.tr.close(span);
            self.sent.push(Sent {
                blob,
                due,
                late_ms: w0.saturating_duration_since(due).as_secs_f64() * 1e3,
                write_us,
            });
            let backlog = self.sent.len() as u64 - self.received.load(Ordering::SeqCst);
            let last = j + 1 == total || (j + 1) % per_window == 0;
            let cut_now = cut.is_some_and(|c| backlog >= c) || !ok;
            if last || cut_now {
                out.push((start..self.sent.len(), backlog));
                start = self.sent.len();
            }
            if cut_now {
                break;
            }
        }
        out
    }

    /// A closed loop holding `window` requests outstanding for
    /// `seconds`: the completions per second after a short warm-up, and
    /// the requests sent.
    fn saturate(&mut self, window: u64, seconds: f64) -> (f64, std::ops::Range<usize>) {
        let first = self.sent.len();
        let t0 = Instant::now();
        let end = t0 + Duration::from_secs_f64(seconds);
        // Completions are counted per interval (at most 0.5 s) after a
        // warm-up of one interval; the median interval rate is reported.
        let interval = Duration::from_secs_f64((seconds / 8.0).min(0.5));
        let mut mark = (t0 + interval, u64::MAX);
        let mut rates = Vec::new();
        loop {
            let now = Instant::now();
            let done = self.received.load(Ordering::SeqCst);
            if now >= mark.0 {
                if mark.1 != u64::MAX {
                    rates.push((done - mark.1) as f64 / (now - mark.0 + interval).as_secs_f64());
                }
                mark = (now + interval, done);
            }
            if now >= end {
                break;
            }
            if (self.sent.len() as u64) - done >= window {
                // Long enough to leave the CPUs to the server, short
                // enough that the window never drains.
                std::thread::sleep(Duration::from_micros(500));
                continue;
            }
            let seq = self.sent.len();
            let blob = self.order[seq % self.order.len()];
            let w0 = Instant::now();
            if write_frame(&mut self.stream, &self.payloads[blob]).is_err() {
                break;
            }
            let write_us = w0.elapsed().as_secs_f64() * 1e6;
            self.sent.push(Sent { blob, due: w0, late_ms: 0.0, write_us });
        }
        self.drain(Duration::from_secs(5));
        (median(&rates), first..self.sent.len())
    }

    /// Waits until every request sent has an answer, or `limit` passes.
    fn drain(&self, limit: Duration) {
        let deadline = Instant::now() + limit;
        while (self.received.load(Ordering::SeqCst) as usize) < self.sent.len()
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The client's view of the requests in `range`, checking each
    /// verdict against `blobs`.
    fn window(
        &self,
        range: std::ops::Range<usize>,
        backlog: u64,
        blobs: &[Blob],
        out: &mut Outcome,
    ) -> Window {
        let answers = self.answers.lock().expect("answer table poisoned by the receiver");
        let mut w = Window { backlog, ..Window::default() };
        for seq in range {
            let s = &self.sent[seq];
            w.late_ms.push(s.late_ms);
            match answers.get(seq).copied().flatten() {
                Some(a) => {
                    w.latency_ms.push(a.at.saturating_duration_since(s.due).as_secs_f64() * 1e3);
                    let want = blobs[s.blob].expect.status_name();
                    if a.status.name() != want {
                        w.failed += 1;
                        if !matches!(a.status, Status::Busy) {
                            out.problem(format!(
                                "request {seq}: answered {}, expected {want}",
                                a.status.name()
                            ));
                        }
                    }
                }
                None => w.failed += 1,
            }
        }
        w
    }

    /// Sends at `rps` for `seconds`, cut short if the backlog grows
    /// past [`BACKLOG_CUT`]. The step passes when every request came
    /// back right, on time at the 99th percentile, and none was cut.
    fn step(&mut self, rps: f64, seconds: f64, blobs: &[Blob], out: &mut Outcome) -> Step {
        let windows = self.run(rps, seconds, 1, Some(BACKLOG_CUT));
        self.drain(Duration::from_secs(5));
        let (range, backlog) = windows.into_iter().next().unwrap_or((0..0, 0));
        let full = range.len() as f64 >= (rps * seconds).round() - 0.5;
        let w = self.window(range, backlog, blobs, out);
        let p99 = quantile(&w.latency_ms, 0.99);
        eprintln!(
            "perfbench: ladder {rps:.0} rps: p50 {:.2} ms p99 {p99:.2} ms, generator late {:.2} ms \
             at p99, {} failed, backlog {}{}",
            quantile(&w.latency_ms, 0.5),
            quantile(&w.late_ms, 0.99),
            w.failed,
            w.backlog,
            if full { "" } else { ", cut short" }
        );
        // A cut step has no complete tail: count it as far over the limit.
        let p99 = if full { p99 } else { p99.max(LIMIT_P99_MS * 4.0) };
        Step { p99, pass: w.failed == 0 && full && p99 <= LIMIT_P99_MS, valid: w.valid() }
    }
}

/// One ladder step's verdict.
struct Step {
    p99: f64,
    pass: bool,
    valid: bool,
}

/// Steps up [`LADDER_RPS`] until a step fails twice, then halves the
/// gap to the last passing rate twice (in log scale), and interpolates
/// where the 99th percentile crosses [`LIMIT_P99_MS`]. Overload on the
/// steps beyond capacity is what the ladder looks for, so those steps'
/// refused or late requests are not counted as failed operations. A
/// step on which the generator itself ran late ends the ladder at the
/// last passing rate.
fn ladder_capacity(
    c: &mut Client,
    step_s: f64,
    blobs: &[Blob],
    out: &mut Outcome,
    steps: &mut usize,
) -> f64 {
    let mut pass: Option<(f64, f64)> = None;
    let mut fail: Option<(f64, f64)> = None;
    let mut run = |c: &mut Client, rps: f64| {
        *steps += 1;
        c.step(rps, step_s, blobs, out)
    };
    for rps in LADDER_RPS {
        let mut s = run(c, rps);
        if s.valid && !s.pass {
            // One retry, so a single scheduling hiccup cannot end the ladder.
            s = run(c, rps);
        }
        if !s.valid {
            return pass.map_or(0.0, |p| p.0);
        }
        if s.pass {
            pass = Some((rps, s.p99));
        } else {
            fail = Some((rps, s.p99));
            break;
        }
    }
    let (Some(mut lo), Some(mut hi)) = (pass, fail) else {
        return pass.map_or(0.0, |p| p.0);
    };
    for _ in 0..2 {
        let rps = (lo.0 * hi.0).sqrt();
        let s = run(c, rps);
        if !s.valid {
            return lo.0;
        }
        if s.pass {
            lo = (rps, s.p99);
        } else {
            hi = (rps, s.p99);
        }
    }
    let (p0, p1) = (lo.1.max(1e-3), hi.1.max(LIMIT_P99_MS));
    let f = if p1 > p0 { ((LIMIT_P99_MS / p0).ln() / (p1 / p0).ln()).clamp(0.0, 1.0) } else { 0.0 };
    lo.0 * (hi.0 / lo.0).powf(f)
}

/// Reads responses until the connection closes.
fn receive(
    stream: &mut TcpStream,
    answers: &Mutex<Vec<Option<Answer>>>,
    received: &AtomicU64,
    tr: &Tracer,
) {
    loop {
        let frame = read_frame(stream);
        let at = Instant::now();
        let Ok(Some(frame)) = frame else { break };
        let Some(r) = decode_response(&frame) else { break };
        let seq = r.seq as usize;
        if tr.enabled() {
            tr.record("serve.response", at, Instant::now(), None, r.seq);
        }
        let mut table = answers.lock().expect("answer table poisoned by the sender");
        if table.len() <= seq {
            table.resize(seq + 1, None);
        }
        table[seq] = Some(Answer { status: r.status, at });
        drop(table);
        received.fetch_add(1, Ordering::SeqCst);
    }
}

/// Durations of the load phases for a run of `seconds`.
struct Plan {
    light_s: f64,
    heavy_s: f64,
    step_s: f64,
    saturate_s: f64,
}

impl Plan {
    /// The untimed run spends most of its time saturated, where its
    /// throughput is measured; the traced run gives the `heavy` windows
    /// room for their 99th percentiles before the ladder.
    fn new(seconds: f64, tail: Tail) -> Plan {
        let (light, heavy) = if tail == Tail::Saturate { (0.2, 0.15) } else { (0.25, 0.4) };
        Plan {
            light_s: seconds * light,
            heavy_s: seconds * heavy,
            step_s: seconds * 0.05,
            saturate_s: seconds * (1.0 - light - heavy),
        }
    }
}

/// What follows the two fixed rates in one pass of the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tail {
    /// The open-loop rate ladder.
    Ladder,
    /// The closed loop at [`SATURATION_WINDOW`] requests outstanding.
    Saturate,
    /// Nothing.
    Nothing,
}

/// What one pass of the load (light, heavy, then its tail) measured.
#[derive(Debug, Default)]
struct Load {
    light: Vec<Window>,
    heavy: Vec<Window>,
    capacity_rps: f64,
    steps: usize,
    saturated_rps: f64,
    saturated_failed: u64,
    /// Server peak resident set after the heavy phase, in MiB.
    rss_mib: f64,
    /// Server snapshots: before light, after light, after heavy, at end.
    snaps: Vec<Snapshot>,
    write_us: Vec<f64>,
    req_bytes: Vec<f64>,
    /// Client-side count per status name, over every request sent.
    client_counts: Vec<(&'static str, u64)>,
}

/// The windows that count: those the generator kept to schedule, or
/// every window when it kept to schedule in none.
fn counted(windows: &[Window]) -> Vec<&Window> {
    let valid: Vec<&Window> = windows.iter().filter(|w| w.valid()).collect();
    if valid.is_empty() {
        windows.iter().collect()
    } else {
        valid
    }
}

fn p(windows: &[Window], q: f64) -> f64 {
    let per: Vec<f64> = counted(windows).iter().map(|w| quantile(&w.latency_ms, q)).collect();
    median(&per)
}

/// Runs the `light` and `heavy` rates and then `tail` against `server`,
/// over one connection.
fn drive(
    server: &Server,
    blobs: &[Blob],
    seed: u64,
    seconds: f64,
    tail: Tail,
    tr: &Tracer,
    out: &mut Outcome,
) -> Result<Load, String> {
    let plan = Plan::new(seconds, tail);
    let port = server.port;
    let stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    let answers = Mutex::new(Vec::new());
    let received = AtomicU64::new(0);
    // A seeded shuffle of the mix, repeated.
    let mut order: Vec<usize> = (0..blobs.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
    }
    let payloads: Vec<Vec<u8>> = blobs
        .iter()
        .map(|b| {
            let mut p = Vec::with_capacity(b.bytes.len() + 1);
            p.push(REQ_VERIFY);
            p.extend_from_slice(&b.bytes);
            p
        })
        .collect();
    let mut load = Load::default();
    std::thread::scope(|s| -> Result<(), String> {
        let (answers, received) = (&answers, &received);
        let rx = s.spawn(move || receive(&mut reader, answers, received, tr));
        let mut c = Client { stream, payloads, order, sent: Vec::new(), answers, received, tr };
        let settle = Duration::from_secs(5);
        let mut result = Ok(());
        let mut body = || -> Result<(), String> {
            load.snaps.push(Snapshot::fetch(port)?);
            for (rps, secs, per, phase) in [
                (LIGHT_RPS, plan.light_s, LIGHT_WINDOW, &mut load.light),
                (HEAVY_RPS, plan.heavy_s, HEAVY_WINDOW, &mut load.heavy),
            ] {
                // A phase the generator could not keep to schedule at all
                // runs once more before its late windows are used.
                for attempt in 0..2 {
                    let count = (rps * secs / per).floor().max(1.0) as usize;
                    let windows = c.run(rps, secs, count, None);
                    c.drain(settle);
                    for (range, backlog) in windows {
                        phase.push(c.window(range, backlog, blobs, out));
                    }
                    if phase.iter().any(Window::valid) {
                        break;
                    }
                    eprintln!(
                        "perfbench: the generator ran more than {LATE_BOUND_MS} ms late in every \
                         window at {rps} req/s{}",
                        if attempt == 0 { "; running the phase again" } else { "" }
                    );
                }
                load.snaps.push(Snapshot::fetch(port)?);
            }
            // Before the ladder, whose overload steps fill the queue.
            load.rss_mib = server.peak_rss_mib();
            match tail {
                Tail::Ladder => {
                    load.capacity_rps =
                        ladder_capacity(&mut c, plan.step_s, blobs, out, &mut load.steps);
                }
                Tail::Saturate => {
                    let (rps, range) = c.saturate(SATURATION_WINDOW, plan.saturate_s);
                    load.saturated_rps = rps;
                    let w = c.window(range, 0, blobs, out);
                    load.saturated_failed = w.failed;
                }
                Tail::Nothing => {}
            }
            load.snaps.push(Snapshot::fetch(port)?);
            c.drain(settle);
            let answers = c.answers.lock().expect("answer table poisoned by the receiver");
            for name in COUNTED {
                let n = answers.iter().flatten().filter(|a| a.status.name() == name).count() as u64;
                load.client_counts.push((name, n));
            }
            let unanswered = c.sent.len() - answers.iter().flatten().count();
            if unanswered > 0 {
                out.problem(format!("{unanswered} requests got no answer"));
            }
            load.write_us = c.sent.iter().map(|s| s.write_us).collect();
            load.req_bytes = c.sent.iter().map(|s| c.payloads[s.blob].len() as f64 + 4.0).collect();
            Ok(())
        };
        if let Err(e) = body() {
            result = Err(e);
        }
        let _ = c.stream.shutdown(std::net::Shutdown::Both);
        rx.join().map_err(|_| "receiver thread panicked".to_string())?;
        result
    })?;
    Ok(load)
}

/// Counts a pass's operations and failures, and checks conservation:
/// the server's status counters moved exactly as the client's answers
/// say.
fn account(load: &Load, out: &mut Outcome) {
    out.attempted += load.client_counts.iter().map(|c| c.1).sum::<u64>();
    out.failed += load.light.iter().chain(&load.heavy).map(|w| w.failed).sum::<u64>();
    out.failed += load.saturated_failed;
    let (first, last) = (&load.snaps[0], &load.snaps[3]);
    for (i, &(name, client)) in load.client_counts.iter().enumerate() {
        let server_delta = last.requests[i].1 - first.requests[i].1;
        if server_delta != client {
            out.problem(format!(
                "requests_total{{status={name}}} moved {server_delta}, client saw {client}"
            ));
        }
    }
}

/// Sets up the serve workload once: the request mix and a server
/// answering pings. Returns the mix, the server, and the set-up time.
pub fn setup(pdip: &Path, seed: u64, log: &Path) -> Result<(Vec<Blob>, Server, f64), String> {
    let t0 = Instant::now();
    let blobs = crate::inputs::serve_mix(seed);
    let server = Server::spawn(pdip, log)?;
    Ok((blobs, server, t0.elapsed().as_secs_f64()))
}

/// Runs `serve-small-mix`.
pub fn serve_workload(
    blobs: &[Blob],
    server: Server,
    run: &Run,
    out: &mut Outcome,
) -> Result<Tracer, String> {
    let (seed, seconds, trace) = (run.seed, run.seconds, run.trace);
    let valid: Vec<&Blob> = blobs.iter().filter(|b| b.expect != Expect::Malformed).collect();
    let nodes: usize = valid.iter().map(|b| b.n).sum();
    let mean_n = blobs.iter().map(|b| b.n as f64).sum::<f64>() / blobs.len() as f64;
    let off = Tracer::new(false);
    let tail = if trace { Tail::Ladder } else { Tail::Saturate };
    let load = drive(&server, blobs, seed, seconds, tail, &off, out)?;
    account(&load, out);
    let rss = load.rss_mib;

    out.metrics.set("proof_bits", valid.iter().map(|b| b.proof_bits).sum::<usize>() as f64, "bits");
    out.metrics.set(
        "wire_bytes_per_node",
        valid.iter().map(|b| b.bytes.len()).sum::<usize>() as f64 / nodes as f64,
        "B",
    );
    if !trace {
        out.metrics.set("p50_ms", p(&load.light, 0.5), "ms");
        out.metrics.set("knodes_per_s", load.saturated_rps * mean_n / 1e3, "knodes/s");
        out.metrics.set("mem_mib", rss, "MiB");
        server.stop();
        return Ok(off);
    }

    // Per-layer: server stage means per phase from the stats deltas.
    let s = &load.snaps;
    for (phase, (before, after), windows) in
        [("light", (&s[0], &s[1]), &load.light), ("heavy", (&s[1], &s[2]), &load.heavy)]
    {
        let stage_ms: Vec<f64> = (0..4).map(|h| after.mean_ns(before, h) / 1e6).collect();
        let client_p50 = p(windows, 0.5);
        let client_mean = mean(
            &counted(windows).iter().flat_map(|w| w.latency_ms.iter().copied()).collect::<Vec<_>>(),
        );
        let server_ms: f64 = stage_ms.iter().sum();
        if server_ms > client_mean {
            out.problem(format!(
                "{phase}: server stages take {server_ms:.3} ms, more than the {client_mean:.3} ms clients see"
            ));
        }
        out.metrics.set(format!("serve.queue_wait_ms.mean.{phase}"), stage_ms[0], "ms");
        out.metrics.set(format!("serve.queue_depth.max.{phase}"), after.queue_max as f64, "count");
        out.metrics.set(format!("serve.overhead_ms.p50.{phase}"), client_p50 - server_ms, "ms");
    }
    out.metrics.set("serve.decode_us.mean", s[2].mean_ns(&s[0], 1) / 1e3, "us");
    out.metrics.set("serve.verify_ms.mean", s[2].mean_ns(&s[0], 2) / 1e6, "ms");
    out.metrics.set("serve.write_us.mean", s[2].mean_ns(&s[0], 3) / 1e3, "us");
    out.metrics.set("serve.busy", (s[3].requests[3].1 - s[0].requests[3].1) as f64, "count");
    out.metrics.set("serve.p50_ms.heavy", p(&load.heavy, 0.5), "ms");
    out.metrics.set("serve.p99_ms.heavy", p(&load.heavy, 0.99), "ms");
    out.metrics.set("serve.p99_ms.light", p(&load.light, 0.99), "ms");
    out.metrics.set("serve.capacity_rps", load.capacity_rps, "1/s");
    out.metrics.set("serve.peak_rss_mib", rss, "MiB");
    out.metrics.set("frame.write_us.mean", mean(&load.write_us), "us");
    out.metrics.set("frame.req_bytes.mean", mean(&load.req_bytes), "B");
    let all: Vec<&Window> = load.light.iter().chain(&load.heavy).collect();
    out.metrics.set(
        "gen.late_ms.max",
        all.iter().flat_map(|w| w.late_ms.iter().copied()).fold(0.0, f64::max),
        "ms",
    );
    out.metrics.set(
        "gen.backlog.max",
        all.iter().map(|w| w.backlog).max().unwrap_or(0) as f64,
        "count",
    );
    out.metrics.set(
        "gen.invalid_windows",
        all.iter().filter(|w| !w.valid()).count() as f64,
        "count",
    );
    out.metrics.set("gen.ladder_steps", load.steps as f64, "count");

    // Tracing overhead: light and heavy again with client spans on.
    let tr = Tracer::new(true);
    let traced = drive(&server, blobs, seed, seconds * 0.65, Tail::Nothing, &tr, out)?;
    account(&traced, out);
    let base = p(&load.heavy, 0.5);
    out.metrics.set("obs.trace_overhead_pct", (p(&traced.heavy, 0.5) / base - 1.0) * 100.0, "%");
    server.stop();

    // The layers below the server, in process on the same mix.
    let mut verify_ms = Vec::new();
    let (mut decode_ns, mut encode_ns, mut verify_ns, mut bytes) = (0u128, 0u128, 0u128, 0usize);
    for b in blobs {
        let t0 = Instant::now();
        let decoded = Transcript::decode(&b.bytes);
        decode_ns += t0.elapsed().as_nanos();
        bytes += b.bytes.len();
        let Ok(t) = decoded else {
            verify_ms.push(0.0);
            continue;
        };
        let ms = layers::time_ms(3, || {
            std::hint::black_box(t.verify());
        });
        verify_ns += (ms * 1e6) as u128;
        verify_ms.push(ms);
        let t1 = Instant::now();
        std::hint::black_box(t.encode());
        encode_ns += t1.elapsed().as_nanos();
    }
    let mb = bytes as f64 / (1024.0 * 1024.0);
    out.metrics.set("wire.decode_ms_per_mb", decode_ns as f64 / 1e6 / mb, "ms/MiB");
    out.metrics.set("wire.encode_ms_per_mb", encode_ns as f64 / 1e6 / mb, "ms/MiB");
    out.metrics.set(
        "wire.decode_share",
        decode_ns as f64 / (decode_ns + verify_ns) as f64,
        "ratio",
    );
    layers::verify_by_family(blobs, &verify_ms, out);
    layers::below_the_wire(blobs, run, out);
    // Requests are timed by the client above, not one op at a time.
    out.metrics.set("op.slowest_ms", 0.0, "ms");
    Ok(tr)
}

/// Where the server log of a run goes.
pub fn log_path(out_dir: &Path, seed: u64, k: usize) -> PathBuf {
    out_dir.join(format!("serve-seed{seed}-{k}.log"))
}
