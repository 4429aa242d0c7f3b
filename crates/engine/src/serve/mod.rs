//! `pdip serve` — the proof-verification service.
//!
//! Clients submit serialized [`Transcript`] blobs (see `pdip-wire`) over
//! a length-prefixed frame stream and get back one response per request.
//! Every request goes through one pipeline, the live worker pool in
//! [`live`]: connection readers feed a bounded worker queue with
//! backpressure (a full queue answers [`Status::Busy`] instead of
//! stalling the stream), each verification runs behind `catch_unwind`
//! (a panicking replay is reported, never fatal), and a run may be
//! classified [`Status::Deadline`] post-hoc, reusing the sweep engine's
//! watchdog semantics.
//!
//! The pool has two front-ends: TCP ([`serve_concurrent`], where
//! responses stream back as each request completes and clients reorder
//! by seq) and a pipe ([`serve_pipe`], `pdip serve --stdin`, one
//! in-process connection whose responses are written sorted by seq).
//! The E12 smoke, like the E13 and E14 audits, drives a live TCP server
//! through the shared helpers in `harness`. See the [`live`] module docs
//! for the connection lifecycle and drain semantics.
//!
//! # Frame protocol (all integers little-endian)
//!
//! Every frame is `len u32 | payload` with `len ≤`
//! [`ServeConfig::max_frame_bytes`] (framing lives in
//! [`pdip_wire::frame`]). Request payloads start with a tag byte:
//! [`REQ_VERIFY`] followed by a transcript blob, [`REQ_PING`], or
//! [`REQ_SHUTDOWN`] (graceful stop). Response payloads are
//! `seq u64 | status u8 | len u32 | detail` — see [`Status`] for the
//! code points, which the CLI maps onto distinct exit codes
//! (`malformed transcript` ≠ `verifier rejected`).

pub(crate) mod harness;
pub mod live;
pub mod obs;

use crate::report::render_table;
use pdip_obs::{counter, span, Recorder, SpanId};
pub use pdip_wire::frame::{
    fault_class, read_frame, read_frame_deadline, read_frame_limited, write_frame,
};
use pdip_wire::{fnv1a64, Transcript, VerifyOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub use live::{serve_concurrent, serve_pipe, serve_tcp, spawn_server, ServerHandle, ShutdownFlag};
pub use obs::{ServeObs, DEFAULT_FLIGHT_CAP, DEFAULT_SLOW_THRESHOLD};

/// Default hard cap on one frame's payload (the E12-era constant; now
/// configurable per service via [`ServeConfig::max_frame_bytes`]).
pub const MAX_FRAME: usize = pdip_wire::frame::DEFAULT_MAX_FRAME_BYTES;

/// Magic prefix of a chaos panic-injection blob (see
/// [`ServeConfig::panic_token`] and [`panic_blob`]).
pub const PANIC_MAGIC: &[u8; 8] = b"PANICME!";

/// Base seed of the committed E12 serve-smoke artifacts.
pub const E12_SEED: u64 = 0xe12;

/// Request tag: verify the transcript blob that follows.
pub const REQ_VERIFY: u8 = 0x01;
/// Request tag: liveness probe, answered with [`Status::Pong`].
pub const REQ_PING: u8 = 0x02;
/// Request tag: live metrics snapshot, answered with [`Status::Stats`]
/// carrying the rendering in the detail. An optional second payload
/// byte selects the format: 0 = Prometheus-style text (default),
/// 1 = JSON, 2 = flight-recorder JSONL.
pub const REQ_STATS: u8 = 0x03;
/// Request tag: graceful shutdown of the stream (and, over TCP, the
/// listener), answered with [`Status::ShutdownAck`].
pub const REQ_SHUTDOWN: u8 = 0x7f;

/// Per-request response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Well-formed, replay matched, verifier accepts.
    Accept = 0,
    /// Well-formed, but the verifier rejects (honest record of a
    /// rejecting run, or a replay mismatch — see the detail string).
    Reject = 1,
    /// The blob failed to decode: truncated, corrupted, bad magic,
    /// unsupported version, invalid field, or the request tag itself
    /// was unknown.
    Malformed = 2,
    /// The bounded queue was full; the request was never verified.
    Busy = 3,
    /// Verification completed but exceeded the per-request deadline.
    Deadline = 4,
    /// Acknowledges [`REQ_SHUTDOWN`].
    ShutdownAck = 5,
    /// Acknowledges [`REQ_PING`].
    Pong = 6,
    /// The connection itself faulted (truncated frame, oversized
    /// length, read stall, …). Sent best-effort with the fault class in
    /// the detail before the server closes that one connection; other
    /// connections are unaffected.
    ConnError = 7,
    /// Final aggregate-statistics frame of a graceful drain, sent with
    /// `seq = u64::MAX` to the connection that requested shutdown.
    Stats = 8,
}

impl Status {
    /// Every status, in wire-code order (the order the live-metrics
    /// `requests_total` counters are pre-registered in).
    pub const ALL: [Status; 9] = [
        Status::Accept,
        Status::Reject,
        Status::Malformed,
        Status::Busy,
        Status::Deadline,
        Status::ShutdownAck,
        Status::Pong,
        Status::ConnError,
        Status::Stats,
    ];

    /// The wire code of this status.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Status::code`].
    pub fn from_code(c: u8) -> Option<Status> {
        Some(match c {
            0 => Status::Accept,
            1 => Status::Reject,
            2 => Status::Malformed,
            3 => Status::Busy,
            4 => Status::Deadline,
            5 => Status::ShutdownAck,
            6 => Status::Pong,
            7 => Status::ConnError,
            8 => Status::Stats,
            _ => return None,
        })
    }

    /// Display name (stable; appears in E12 artifacts).
    pub fn name(self) -> &'static str {
        match self {
            Status::Accept => "accept",
            Status::Reject => "reject",
            Status::Malformed => "malformed",
            Status::Busy => "busy",
            Status::Deadline => "deadline",
            Status::ShutdownAck => "shutdown-ack",
            Status::Pong => "pong",
            Status::ConnError => "conn-error",
            Status::Stats => "stats",
        }
    }
}

/// One response of the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Sequence number of the request this answers.
    pub seq: u64,
    /// Outcome class.
    pub status: Status,
    /// Human-readable detail (reject reason, decode error, …).
    pub detail: String,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Verification worker threads.
    pub threads: usize,
    /// Bound of the request queue; a submission finding it full is
    /// rejected with [`Status::Busy`].
    pub queue_cap: usize,
    /// Post-hoc per-request deadline (the sweep engine's
    /// `job_deadline` semantics): verification always completes, but a
    /// run exceeding the budget reports [`Status::Deadline`].
    pub deadline: Option<Duration>,
    /// Hard cap on one frame's payload; a header declaring more is
    /// rejected before any allocation. Defaults to [`MAX_FRAME`] (the
    /// E12-era constant), overridable via `--max-frame-bytes`.
    pub max_frame_bytes: usize,
    /// Per-frame read deadline of a TCP connection: the total wall time
    /// one frame may take to arrive (slow-loris bound). Pipes
    /// ([`serve_pipe`]) ignore it — they have no hostile peers.
    pub read_deadline: Option<Duration>,
    /// How long a graceful shutdown waits for in-flight requests before
    /// stamping the final stats frame `drained=timeout`. Queued work is
    /// still completed either way; the deadline only bounds the wait.
    pub drain_deadline: Duration,
    /// Chaos hook: when set, a [`REQ_VERIFY`] blob equal to
    /// [`panic_blob`]`(token)` panics inside the worker. Proves (E13)
    /// that worker panics poison only their own request.
    pub panic_token: Option<u64>,
    /// Chaos hook: when set, workers block on this gate before taking
    /// each job, making busy-storm rejection counts deterministic.
    pub hold: Option<Gate>,
    /// Live observability bridge shared with the caller: metrics
    /// registry + flight recorder (see [`ServeObs`]). The pool creates
    /// a private one when `None`, so [`REQ_STATS`] always answers; pass
    /// a shared handle to read snapshots from outside (as `pdip
    /// obs-audit` does).
    pub obs: Option<Arc<ServeObs>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: pdip_core::par::machine_parallelism(),
            queue_cap: 256,
            deadline: None,
            max_frame_bytes: MAX_FRAME,
            read_deadline: Some(Duration::from_secs(30)),
            drain_deadline: Duration::from_secs(5),
            panic_token: None,
            hold: None,
            obs: None,
        }
    }
}

/// A gate ([`ServeConfig::hold`]) the busy probes use to hold all
/// workers idle while a connection fills the bounded queue, making
/// busy-rejection deterministic instead of racing the workers.
#[derive(Debug, Clone, Default)]
pub struct Gate {
    inner: Arc<(Mutex<bool>, Condvar)>,
}

impl Gate {
    /// A closed gate: workers holding it block until [`Gate::open`].
    pub fn closed() -> Gate {
        Gate::default()
    }

    /// Opens the gate, releasing every waiting worker.
    pub fn open(&self) {
        let (lock, cv) = &*self.inner;
        if let Ok(mut open) = lock.lock() {
            *open = true;
        }
        cv.notify_all();
    }

    pub(crate) fn wait_open(&self) {
        let (lock, cv) = &*self.inner;
        if let Ok(guard) = lock.lock() {
            let _unused = cv.wait_while(guard, |open| !*open);
        }
    }
}

/// Aggregate counts of one server's (or pipe's) lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered [`Status::Accept`].
    pub accepted: u64,
    /// Requests answered [`Status::Reject`].
    pub rejected: u64,
    /// Requests answered [`Status::Malformed`].
    pub malformed: u64,
    /// Requests answered [`Status::Busy`].
    pub busy: u64,
    /// Requests answered [`Status::Deadline`].
    pub deadline: u64,
    /// Verifications that panicked (counted, never fatal).
    pub panics: u64,
    /// Connections torn down by a frame-level fault (truncated frame,
    /// oversized length, stall, peer reset).
    pub conn_faults: u64,
    /// Response writes that failed because the peer was gone.
    pub io_errors: u64,
    /// Connections opened (a pipe counts as one).
    pub connections: u64,
}

/// The chaos panic-injection blob for `token`: [`PANIC_MAGIC`]
/// followed by the token, little-endian. A server configured with
/// [`ServeConfig::panic_token`]` = Some(token)` panics inside the
/// worker when it sees exactly this blob (and treats every other blob
/// normally — the magic alone is not enough).
pub fn panic_blob(token: u64) -> Vec<u8> {
    let mut b = PANIC_MAGIC.to_vec();
    b.extend_from_slice(&token.to_le_bytes());
    b
}

/// Runs one verification the way a worker does: panic-token check,
/// `catch_unwind` isolation (panic → [`Status::Malformed`] with a
/// `panic:` detail, counted into `panics`), then post-hoc deadline
/// classification. The worker body of the pool in [`live`].
pub(crate) fn verify_guarded(
    blob: &[u8],
    panic_token: Option<u64>,
    deadline: Option<Duration>,
    rec: &dyn Recorder,
    panics: &AtomicU64,
) -> (Status, String) {
    let started = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        if let Some(tok) = panic_token {
            if *blob == *panic_blob(tok) {
                panic!("chaos panic token {tok:#x}");
            }
        }
        verify_blob(blob, rec)
    }));
    let (status, detail) = out.unwrap_or_else(|payload| {
        panics.fetch_add(1, Ordering::Relaxed);
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        (Status::Malformed, format!("panic: {msg}"))
    });
    // Post-hoc deadline classification, same semantics as the sweep
    // engine's `job_deadline` watchdog: the run always completes, but a
    // budget overrun is reported as such.
    match deadline {
        Some(d) if started.elapsed() > d => {
            (Status::Deadline, format!("deadline exceeded; completed as {}", status.name()))
        }
        _ => (status, detail),
    }
}

/// Decodes and replay-verifies one blob (the worker body, also used by
/// `pdip verify`): malformed blobs map to [`Status::Malformed`],
/// replay mismatches and verifier rejections to [`Status::Reject`].
pub fn verify_blob(blob: &[u8], rec: &dyn Recorder) -> (Status, String) {
    // Each span's guard records the duration on drop — exactly one
    // observation per stage per request, which is what the E14
    // conservation invariants (histogram count == requests) pin.
    let decoded = {
        let _s = span(rec, 0, SpanId::new("serve/decode"));
        Transcript::decode(blob)
    };
    let t = match decoded {
        Err(e) => return (Status::Malformed, e.to_string()),
        Ok(t) => t,
    };
    let outcome = {
        let _s = span(rec, 0, SpanId::new("serve/verify"));
        t.verify()
    };
    // Live proof-size accounting: every completed replay contributes
    // its max per-round label bits to its family's counter, keyed by
    // the stable family name.
    let proof_bits = |res: &pdip_core::RunResult| {
        counter(
            rec,
            0,
            SpanId::new("serve/proof-bits"),
            t.instance.family_name(),
            res.stats.proof_size() as u64,
        );
    };
    match outcome {
        VerifyOutcome::Accepted(res) => {
            proof_bits(&res);
            (Status::Accept, String::new())
        }
        VerifyOutcome::VerifierRejected(res) => {
            proof_bits(&res);
            let reason = res
                .rejections
                .first()
                .map(|(v, r)| format!("node {v}: {r}"))
                .unwrap_or_else(|| "verifier rejected".into());
            (Status::Reject, reason)
        }
        VerifyOutcome::ReplayMismatch { detail } => {
            (Status::Reject, format!("replay mismatch: {detail}"))
        }
    }
}

/// Encodes a [`Response`] payload.
pub fn encode_response(r: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + r.detail.len());
    out.extend_from_slice(&r.seq.to_le_bytes());
    out.push(r.status.code());
    out.extend_from_slice(&(r.detail.len() as u32).to_le_bytes());
    out.extend_from_slice(r.detail.as_bytes());
    out
}

/// Decodes a [`Response`] payload (used by clients and tests).
pub fn decode_response(payload: &[u8]) -> Option<Response> {
    if payload.len() < 13 {
        return None;
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let status = Status::from_code(payload[8])?;
    let len = u32::from_le_bytes(payload[9..13].try_into().ok()?) as usize;
    if payload.len() != 13 + len {
        return None;
    }
    let detail = String::from_utf8(payload[13..].to_vec()).ok()?;
    Some(Response { seq, status, detail })
}

// ---------------------------------------------------------------------
// E12: serve throughput smoke audit
// ---------------------------------------------------------------------

/// The deterministic outcome of the E12 serve smoke (timing-free).
#[derive(Debug)]
pub struct ServeSmokeReport {
    /// One line per request of the mixed batch, in sequence order.
    pub lines: Vec<String>,
    /// Server stats of the mixed batch at the first compared thread
    /// count.
    pub stats: ServeStats,
    /// Requests submitted to the gated busy probe.
    pub probe_submitted: u64,
    /// Busy rejections of the gated probe (must equal
    /// `probe_submitted - queue_cap`).
    pub probe_busy: u64,
    /// Queue bound used by the probe.
    pub probe_queue_cap: u64,
    /// Thread counts whose response streams were compared.
    pub threads_compared: Vec<usize>,
    /// Whether all compared thread counts produced byte-identical
    /// response records.
    pub deterministic: bool,
    /// FNV-1a-64 digest of the joined record lines.
    pub digest: u64,
    /// Audit verdict.
    pub passed: bool,
    /// Human-readable audit failures (empty when `passed`).
    pub failures: Vec<String>,
}

/// Builds the deterministic E12 request mix: honest transcripts of all
/// six families (accepts), cheat transcripts (rejects), and
/// chaos-corrupted blobs (malformed). ≥ 100 requests total.
pub fn smoke_requests(base_seed: u64) -> Vec<(u64, Vec<u8>)> {
    use crate::chaos::Mutator;
    use crate::family::{no_instance, YesInstance, FAMILIES};
    use pdip_protocols::{PopParams, Transport};
    use pdip_wire::WireInstance;

    let to_wire = |inst: YesInstance| match inst {
        YesInstance::Pop(i) => WireInstance::Pop(i),
        YesInstance::Op(i) => WireInstance::Op(i),
        YesInstance::Emb(i) => WireInstance::Emb(i),
        YesInstance::Pl(i) => WireInstance::Pl(i),
        YesInstance::Spa(i) => WireInstance::Spa(i),
        YesInstance::Tw2(i) => WireInstance::Tw2(i),
    };
    let mut blobs: Vec<Vec<u8>> = Vec::new();
    // Honest accepts: 6 families × 2 sizes × 2 trials = 24.
    for (fi, fam) in FAMILIES.iter().enumerate() {
        for (ni, n) in [16usize, 48].iter().enumerate() {
            for trial in 0..2u64 {
                let gen_seed = base_seed + (fi as u64) * 100 + (ni as u64) * 10 + trial;
                let run_seed = gen_seed ^ 0x5eed;
                let inst = to_wire(YesInstance::generate(*fam, *n, gen_seed));
                let t = pdip_wire::Transcript::record(
                    inst,
                    PopParams::default(),
                    Transport::Simulated,
                    0,
                    gen_seed,
                    run_seed,
                );
                blobs.push(t.encode());
            }
        }
    }
    // Cheat provers on no-instances: 6 families × every strategy ≈ 22.
    for (fi, fam) in FAMILIES.iter().enumerate() {
        let gen_seed = base_seed + 7000 + fi as u64;
        let inst = to_wire(no_instance(*fam, 32, gen_seed));
        for strategy in 0..inst.cheat_count() {
            let t = pdip_wire::Transcript::record(
                inst.clone(),
                PopParams::default(),
                Transport::Simulated,
                (strategy + 1) as u8,
                gen_seed,
                gen_seed ^ 0xbad,
            );
            blobs.push(t.encode());
        }
    }
    // Malformed: corrupt honest blobs with the chaos mutator — bit
    // flips, truncations, and oversized length fields. 60 requests.
    let honest_count = blobs.len().min(24);
    let mut mal = Vec::new();
    for k in 0..60u64 {
        let mut m = Mutator::new(base_seed ^ (0xc0ffee + k));
        let src = &blobs[(k as usize) % honest_count];
        let mut bad = src.clone();
        match k % 3 {
            0 => {
                // Bit flip somewhere in the body.
                let i = m.index(bad.len());
                bad[i] ^= m.bit(8) as u8;
            }
            1 => {
                // Truncate at a random cut.
                bad.truncate(m.index(bad.len()));
            }
            _ => {
                // Oversized length field: stamp 0xffff_ffff over four
                // bytes (hits a section or vector length often enough).
                let i = m.index(bad.len().saturating_sub(4).max(1));
                for b in bad.iter_mut().skip(i).take(4) {
                    *b = 0xff;
                }
            }
        }
        mal.push(bad);
    }
    blobs.extend(mal);
    blobs.into_iter().enumerate().map(|(i, b)| (i as u64, b)).collect()
}

/// Runs the E12 serve smoke against live servers: a deterministic gated
/// busy probe plus the ≥100-request mixed batch streamed at every
/// thread count in `threads`, whose response records must be
/// byte-identical.
pub fn run_serve_smoke(threads: &[usize], base_seed: u64) -> ServeSmokeReport {
    let mut failures = Vec::new();

    // --- Gated busy probe: queue bound 4, 8 requests, workers held ---
    let probe_cap = 4usize;
    let probe_n = 8u64;
    let probe_blobs: Vec<Vec<u8>> = smoke_requests(base_seed ^ 0x9999)
        .into_iter()
        .take(probe_n as usize)
        .map(|(_, blob)| blob)
        .collect();
    let gate = Gate::closed();
    let probe_cfg = ServeConfig {
        threads: 2,
        queue_cap: probe_cap,
        deadline: None,
        hold: Some(gate.clone()),
        ..ServeConfig::default()
    };
    let probe = spawn_server(probe_cfg).map_err(|e| format!("spawn: {e}")).and_then(|server| {
        let storm = harness::held_storm(server.port(), &gate, probe_cap, &probe_blobs);
        gate.open();
        server.stop().map_err(|e| format!("stop: {e}"))?;
        storm
    });
    let probe_responses = match probe {
        Ok(responses) => responses,
        Err(e) => {
            failures.push(format!("busy probe: {e}"));
            Vec::new()
        }
    };
    let probe_busy = probe_responses.iter().filter(|r| r.status == Status::Busy).count() as u64;
    let expect_busy = probe_n - probe_cap as u64;
    if probe_busy != expect_busy {
        failures.push(format!(
            "busy probe: expected exactly {expect_busy} busy rejections, got {probe_busy}"
        ));
    }
    if probe_responses.len() as u64 != probe_n {
        failures.push(format!(
            "busy probe: expected {probe_n} responses, got {}",
            probe_responses.len()
        ));
    }

    // --- Mixed batch at every thread count ---
    let mut streams: Vec<(usize, Vec<String>, ServeStats)> = Vec::new();
    for &t in threads {
        let (lines, stats) = match harness::mix_records(base_seed, t) {
            Ok(run) => run,
            Err(e) => {
                failures.push(format!("mixed batch at threads={t}: {e}"));
                continue;
            }
        };
        if stats.panics > 0 {
            failures.push(format!("{} verification panics at threads={t}", stats.panics));
        }
        if stats.busy > 0 {
            failures
                .push(format!("unexpected busy rejection in unbounded mixed batch at threads={t}"));
        }
        streams.push((t, lines, stats));
    }
    let (first_lines, first_stats) = match streams.first() {
        Some((_, l, s)) => (l.clone(), *s),
        None => (Vec::new(), ServeStats::default()),
    };
    if first_lines.len() < 100 {
        failures.push(format!("request mix too small: {} < 100", first_lines.len()));
    }
    let deterministic =
        streams.len() == threads.len() && streams.iter().all(|(_, l, _)| *l == first_lines);
    if !deterministic {
        failures.push("response records differ across thread counts".into());
    }
    if first_stats.accepted == 0 || first_stats.rejected == 0 || first_stats.malformed == 0 {
        failures.push(format!(
            "mix must exercise accept/reject/malformed, got {}/{}/{}",
            first_stats.accepted, first_stats.rejected, first_stats.malformed
        ));
    }
    let digest = fnv1a64(first_lines.join("\n").as_bytes());

    ServeSmokeReport {
        lines: first_lines,
        stats: first_stats,
        probe_submitted: probe_n,
        probe_busy,
        probe_queue_cap: probe_cap as u64,
        threads_compared: threads.to_vec(),
        deterministic,
        digest,
        passed: failures.is_empty(),
        failures,
    }
}

impl ServeSmokeReport {
    /// The timing-free text artifact (`results/e12_serve.txt`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("E12: serve throughput smoke — batch verification service\n");
        out.push_str(&format!(
            "requests={} accept={} reject={} malformed={} panics={}\n",
            self.lines.len(),
            self.stats.accepted,
            self.stats.rejected,
            self.stats.malformed,
            self.stats.panics,
        ));
        out.push_str(&format!(
            "busy probe: submitted={} queue_cap={} busy={}\n",
            self.probe_submitted, self.probe_queue_cap, self.probe_busy
        ));
        out.push_str(&format!(
            "threads compared: {:?} deterministic={} digest={:016x}\n\n",
            self.threads_compared, self.deterministic, self.digest
        ));
        let rows: Vec<Vec<String>> =
            self.lines.iter().map(|l| l.splitn(3, ' ').map(String::from).collect()).collect();
        out.push_str(&render_table(&["seq", "status", "detail"], &rows));
        out.push_str(&format!("\nE12 audit: {}\n", if self.passed { "PASS" } else { "FAIL" }));
        for f in &self.failures {
            out.push_str(&format!("  failure: {f}\n"));
        }
        out
    }

    /// The timing-free JSON artifact (`results/e12_serve.json`).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"e12-serve-smoke\",\n");
        out.push_str(&format!("  \"requests\": {},\n", self.lines.len()));
        out.push_str(&format!("  \"accepted\": {},\n", self.stats.accepted));
        out.push_str(&format!("  \"rejected\": {},\n", self.stats.rejected));
        out.push_str(&format!("  \"malformed\": {},\n", self.stats.malformed));
        out.push_str(&format!("  \"panics\": {},\n", self.stats.panics));
        out.push_str(&format!(
            "  \"busy_probe\": {{\"submitted\": {}, \"queue_cap\": {}, \"busy\": {}}},\n",
            self.probe_submitted, self.probe_queue_cap, self.probe_busy
        ));
        out.push_str(&format!(
            "  \"threads_compared\": [{}],\n",
            self.threads_compared.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ")
        ));
        out.push_str(&format!("  \"deterministic\": {},\n", self.deterministic));
        out.push_str(&format!("  \"digest\": \"{:016x}\",\n", self.digest));
        out.push_str(&format!("  \"passed\": {}\n", self.passed));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::harness::{honest_blob, verify_frame};
    use super::*;

    /// Feeds `frames` through the pipe front-end and decodes its output.
    fn pipe(cfg: &ServeConfig, frames: &[Vec<u8>]) -> (Vec<Response>, ServeStats) {
        let mut input = Vec::new();
        for f in frames {
            write_frame(&mut input, f).unwrap();
        }
        let mut output = Vec::new();
        let stats = serve_pipe(cfg, &mut input.as_slice(), &mut output).unwrap();
        let mut cur = output.as_slice();
        let mut responses = Vec::new();
        while let Some(f) = read_frame(&mut cur).unwrap() {
            responses.push(decode_response(&f).expect("response decodes"));
        }
        (responses, stats)
    }

    #[test]
    fn stream_roundtrip_with_ping_and_shutdown() {
        let cfg = ServeConfig { threads: 1, queue_cap: 4, deadline: None, ..Default::default() };
        // The trailing ping follows the shutdown frame and is never read.
        let frames =
            [vec![REQ_PING], verify_frame(&honest_blob(7)), vec![REQ_SHUTDOWN], vec![REQ_PING]];
        let (responses, stats) = pipe(&cfg, &frames);
        assert_eq!(stats.accepted, 1);
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].status, Status::Pong);
        assert_eq!(responses[1].status, Status::Accept);
        assert_eq!(responses[2].status, Status::ShutdownAck);
        assert_eq!(responses.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn pipe_answers_stats_live_and_counts_unknown_tags_malformed() {
        let cfg = ServeConfig { threads: 1, queue_cap: 4, ..Default::default() };
        let (responses, stats) = pipe(&cfg, &[vec![REQ_STATS], vec![0x66]]);
        assert_eq!(responses[0].status, Status::Stats);
        assert!(responses[0].detail.contains("connections_total 1"), "{}", responses[0].detail);
        assert_eq!(responses[1].status, Status::Malformed);
        assert_eq!(stats.malformed, 1);
    }

    #[test]
    fn truncated_pipe_input_is_an_error() {
        let mut input = 64u32.to_le_bytes().to_vec();
        input.extend_from_slice(&[REQ_PING; 8]);
        let cfg = ServeConfig { threads: 1, ..Default::default() };
        let mut output = Vec::new();
        let err = serve_pipe(&cfg, &mut input.as_slice(), &mut output).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(output.is_empty());
    }

    #[test]
    fn oversized_frame_is_io_error() {
        let mut input = Vec::new();
        input.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(input)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn zero_deadline_classifies_every_request() {
        let cfg = ServeConfig {
            threads: 2,
            queue_cap: 8,
            deadline: Some(Duration::from_nanos(0)),
            ..Default::default()
        };
        let (responses, stats) = pipe(&cfg, &[verify_frame(&honest_blob(9))]);
        assert_eq!(responses[0].status, Status::Deadline);
        assert!(responses[0].detail.contains("completed as accept"));
        assert_eq!(stats.deadline, 1);
    }
}
