//! E13: chaos at the wire — the concurrent serve front-end under
//! connection-level fault injection.
//!
//! The audit reuses the PR-4 chaos [`Mutator`] one layer down: instead
//! of corrupting transcript *bytes*, it corrupts connection *behaviour*
//! — mid-frame disconnects, truncated and interleaved frames, stalled
//! writers, oversized length declarations, panic-inducing blobs, and
//! busy storms over queue capacity. Every cell spawns a fresh server
//! ([`spawn_server`]) so per-trial server-side statistics are exact.
//!
//! Gating invariants (all re-derivable from the committed JSON, see
//! `tests/e13_freshness.rs`):
//!
//! * **Zero panics escape.** Every server thread joins cleanly; worker
//!   panics are counted, answered, and survived.
//! * **Structured errors, always.** Every injected connection fault is
//!   either observed client-side as a [`Status::ConnError`] frame
//!   carrying the expected stable fault class, or counted server-side
//!   in `conn_faults` — never silence, never a crash.
//! * **Isolation.** A victim connection running honest requests next
//!   to every attacker sees nothing but accepts.
//! * **Determinism.** The full E12 request mix pushed through a live
//!   server at 1 and 4 worker threads yields byte-identical seq-sorted
//!   response records.
//! * **Drain completeness.** A graceful shutdown answers every request
//!   accepted before the shutdown frame, then reports `drained=ok`.
//!
//! Throughput (requests/sec over localhost TCP) is measured and
//! reported, but as timing data it is asserted only to be positive —
//! the committed artifact's deterministic payload never includes it in
//! a byte-compared digest.

use crate::chaos::Mutator;
use crate::report::render_table;
use crate::seed::sub_seed;
use crate::serve::harness::{
    connect, held_storm, honest_blob, mix_records, read_responses, send_verifies, verify_frame,
};
use crate::serve::{
    decode_response, panic_blob, read_frame, spawn_server, write_frame, Gate, ServeConfig, Status,
    REQ_SHUTDOWN,
};
use pdip_wire::{fnv1a64, frame::fault};
use std::io::Write;
use std::iter::repeat_n;
use std::net::Shutdown;
use std::time::{Duration, Instant};

/// Base seed of the committed E13 artifacts.
pub const E13_SEED: u64 = 0xe13;

/// Audit dimensions.
#[derive(Debug, Clone)]
pub struct ServeChaosSpec {
    /// Fault-injection trials per class.
    pub trials: usize,
    /// Honest requests the victim connection runs next to each trial.
    pub victims: usize,
    /// Requests of the sustained-throughput measurement.
    pub throughput_requests: usize,
}

impl ServeChaosSpec {
    /// The CI-gated configuration (also what produced the committed
    /// artifacts): 2 trials per class.
    pub fn smoke() -> ServeChaosSpec {
        ServeChaosSpec { trials: 2, victims: 2, throughput_requests: 64 }
    }

    /// The deeper local configuration.
    pub fn full() -> ServeChaosSpec {
        ServeChaosSpec { trials: 4, victims: 3, throughput_requests: 128 }
    }
}

/// The seven injected fault classes.
const CLASSES: [&str; 7] = [
    "mid-frame-disconnect",
    fault::TRUNCATED_FRAME,
    "garbage-interleaved",
    "stalled-writer",
    "oversized-length",
    "panic-blob",
    "busy-storm",
];

/// One class's aggregated outcome.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Stable class name (see [`CLASSES`]).
    pub class: &'static str,
    /// Trials run.
    pub trials: u64,
    /// Server-side `conn_faults` accumulated over all trials.
    pub conn_faults: u64,
    /// Honest victim requests run next to the attackers.
    pub victim_requests: u64,
    /// Victim requests answered [`Status::Accept`].
    pub victim_clean: u64,
    /// Trials whose client-observable structured error (or response
    /// pattern) matched the expectation exactly.
    pub confirmed: u64,
    /// Trials that were expected to confirm.
    pub expected: u64,
    /// Whether this cell met its invariants.
    pub passed: bool,
}

/// The complete audit outcome.
#[derive(Debug)]
pub struct ServeChaosReport {
    /// Base seed.
    pub seed: u64,
    /// Trials per class.
    pub trials: u64,
    /// Per-class outcomes.
    pub cells: Vec<ChaosCell>,
    /// Busy storm totals: requests submitted over capacity.
    pub busy_submitted: u64,
    /// Busy storm queue bound.
    pub busy_queue_cap: u64,
    /// Busy rejections observed (must be exactly
    /// `busy_submitted - queue_cap` per trial).
    pub busy_rejected: u64,
    /// Requests verified after the gate opened.
    pub busy_verified: u64,
    /// Requests accepted before the drain probe's shutdown frame.
    pub drain_requests: u64,
    /// Of those, requests answered after the graceful shutdown.
    pub drain_completed: u64,
    /// Whether the final stats frame reported `drained=ok`.
    pub drain_stats_ok: bool,
    /// Worker thread counts compared by the determinism probe.
    pub determinism_threads: Vec<usize>,
    /// Requests of the determinism probe (the E12 mix).
    pub determinism_requests: u64,
    /// FNV-1a-64 digest of the seq-sorted response records.
    pub determinism_digest: u64,
    /// Whether all compared thread counts digested identically.
    pub deterministic: bool,
    /// Server threads that failed to join (a panic escaped). Must be 0.
    pub escaped_panics: u64,
    /// Requests of the throughput measurement.
    pub throughput_requests: u64,
    /// Sustained requests/sec (timing data — informational only).
    pub rps: f64,
    /// Audit verdict.
    pub passed: bool,
    /// Human-readable failures (empty when `passed`).
    pub failures: Vec<String>,
}

/// Runs `victims` honest requests on their own connection; returns how
/// many accepted, or an error string on transport failure.
fn victim_roundtrip(port: u16, victims: usize, seed: u64) -> Result<u64, String> {
    if victims == 0 {
        return Ok(0);
    }
    let blob = honest_blob(seed);
    let mut s = connect(port).map_err(|e| format!("victim connect: {e}"))?;
    send_verifies(&mut s, repeat_n(&blob, victims)).map_err(|e| format!("victim {e}"))?;
    let responses = read_responses(&mut s, victims)?;
    Ok(responses.iter().filter(|r| r.status == Status::Accept).count() as u64)
}

/// The server configuration of one chaos cell.
fn cell_config(class: &str, hold: Option<Gate>) -> ServeConfig {
    let mut cfg = ServeConfig {
        threads: 2,
        queue_cap: 64,
        deadline: None,
        read_deadline: Some(Duration::from_secs(5)),
        ..ServeConfig::default()
    };
    match class {
        "stalled-writer" => cfg.read_deadline = Some(Duration::from_millis(80)),
        // Far above any honest blob in this audit, far below the
        // default: the attacker's declaration exceeds it, victims don't.
        "oversized-length" => cfg.max_frame_bytes = 1 << 20,
        "panic-blob" => cfg.panic_token = Some(0xdead_beef),
        "busy-storm" => {
            cfg.queue_cap = 4;
            cfg.hold = hold;
        }
        _ => {}
    }
    cfg
}

struct CellOutcome {
    conn_faults: u64,
    victim_clean: u64,
    victim_requests: u64,
    confirmed: bool,
    escaped: bool,
    busy: Option<(u64, u64)>, // (busy rejections, verified)
    failures: Vec<String>,
}

/// Runs one fault-injection trial of `class` against a fresh server.
fn run_trial(class: &'static str, spec: &ServeChaosSpec, seed: u64) -> CellOutcome {
    let mut m = Mutator::new(seed);
    let mut failures = Vec::new();
    let gate = Gate::closed();
    let cfg = cell_config(class, Some(gate.clone()));
    let server = match spawn_server(cfg) {
        Ok(s) => s,
        Err(e) => {
            return CellOutcome {
                conn_faults: 0,
                victim_clean: 0,
                victim_requests: 0,
                confirmed: false,
                escaped: false,
                busy: None,
                failures: vec![format!("{class}: spawn: {e}")],
            }
        }
    };
    let port = server.port();
    let mut confirmed = false;
    let mut busy = None;
    let run_victim = class != "busy-storm";

    let attack: Result<bool, String> = (|| match class {
        "mid-frame-disconnect" => {
            // Partial header, then a hard close: the server must
            // classify a truncated frame without anyone left to tell.
            let mut s = connect(port).map_err(|e| e.to_string())?;
            let cut = 1 + m.index(3); // 1..=3 of the 4 header bytes
            let header = 64u32.to_le_bytes();
            s.write_all(&header[..cut]).map_err(|e| e.to_string())?;
            s.flush().map_err(|e| e.to_string())?;
            drop(s);
            Ok(true) // confirmation is server-side (conn_faults)
        }
        fault::TRUNCATED_FRAME => {
            // Declared length exceeds the bytes sent; half-close keeps
            // our read side open to catch the structured answer.
            let mut s = connect(port).map_err(|e| e.to_string())?;
            let declared = 64 + m.index(64);
            let sent = m.index(declared);
            s.write_all(&(declared as u32).to_le_bytes()).map_err(|e| e.to_string())?;
            s.write_all(&vec![0xab; sent]).map_err(|e| e.to_string())?;
            s.flush().map_err(|e| e.to_string())?;
            s.shutdown(Shutdown::Write).map_err(|e| e.to_string())?;
            let r = read_responses(&mut s, 1)?;
            Ok(r[0].status == Status::ConnError && r[0].detail.starts_with(fault::TRUNCATED_FRAME))
        }
        "garbage-interleaved" => {
            // Honest, unknown-tag, corrupted-blob, honest on ONE
            // connection: per-request verdicts, no connection fault.
            let good = honest_blob(seed ^ 0x60);
            let mut junk = good.clone();
            let (i, j) = m.pair(junk.len());
            junk[i] ^= 0x40;
            junk[j] = junk[j].wrapping_add(1 + m.index(255) as u8);
            junk.truncate(junk.len() - 1 - m.index(junk.len() / 2));
            let mut s = connect(port).map_err(|e| e.to_string())?;
            write_frame(&mut s, &verify_frame(&good)).map_err(|e| e.to_string())?;
            write_frame(&mut s, &[0x66, 0x6f, 0x6f]).map_err(|e| e.to_string())?;
            write_frame(&mut s, &verify_frame(&junk)).map_err(|e| e.to_string())?;
            write_frame(&mut s, &verify_frame(&good)).map_err(|e| e.to_string())?;
            s.flush().map_err(|e| e.to_string())?;
            let r = read_responses(&mut s, 4)?;
            Ok(r[0].status == Status::Accept
                && r[1].status == Status::Malformed
                && r[1].detail.contains("unknown request tag")
                && r[2].status == Status::Malformed
                && r[3].status == Status::Accept)
        }
        "stalled-writer" => {
            // Half a header, then silence past the read deadline.
            let mut s = connect(port).map_err(|e| e.to_string())?;
            let cut = 1 + m.index(3);
            let header = 32u32.to_le_bytes();
            s.write_all(&header[..cut]).map_err(|e| e.to_string())?;
            s.flush().map_err(|e| e.to_string())?;
            std::thread::sleep(Duration::from_millis(300));
            let r = read_responses(&mut s, 1)?;
            Ok(r[0].status == Status::ConnError && r[0].detail.starts_with(fault::READ_STALL))
        }
        "oversized-length" => {
            // Header declaring cap+1+jitter bytes: rejected before any
            // allocation, answered with the oversized-frame class.
            let mut s = connect(port).map_err(|e| e.to_string())?;
            let declared = (1u32 << 20) + 1 + m.index(1 << 20) as u32;
            s.write_all(&declared.to_le_bytes()).map_err(|e| e.to_string())?;
            s.flush().map_err(|e| e.to_string())?;
            let r = read_responses(&mut s, 1)?;
            Ok(r[0].status == Status::ConnError && r[0].detail.starts_with(fault::OVERSIZED_FRAME))
        }
        "panic-blob" => {
            // The panic-injection blob, then an honest request on the
            // same connection: the panic poisons only its own request.
            let mut s = connect(port).map_err(|e| e.to_string())?;
            send_verifies(&mut s, [panic_blob(0xdead_beef), honest_blob(seed ^ 0x9a)])?;
            let r = read_responses(&mut s, 2)?;
            Ok(r[0].status == Status::Malformed
                && r[0].detail.starts_with("panic:")
                && r[1].status == Status::Accept)
        }
        "busy-storm" => {
            // 12 requests into a held 4-slot queue: exactly 8 busy
            // rejections at deterministic seqs, then 4 verdicts once
            // the gate opens. Every request is answered.
            let (early, late) = held_storm(port, &gate, 4, &vec![honest_blob(seed ^ 0xb5); 12])?;
            let busy_ok = early.iter().all(|r| r.status == Status::Busy)
                && early.iter().map(|r| r.seq).eq(4u64..12);
            let verified = late.iter().filter(|r| r.status == Status::Accept).count() as u64;
            let late_ok = late.iter().map(|r| r.seq).eq(0u64..4) && verified == 4;
            busy = Some((early.len() as u64, verified));
            Ok(busy_ok && late_ok)
        }
        other => Err(format!("unknown class {other}")),
    })();

    match attack {
        Ok(ok) => confirmed = ok,
        Err(e) => failures.push(format!("{class}: {e}")),
    }

    // The victim runs AFTER the fault: its full round-trip proves the
    // serving threads recycled and no cross-connection damage occurred.
    let (victim_clean, victim_requests) = if run_victim {
        match victim_roundtrip(port, spec.victims, seed ^ 0x71c) {
            Ok(clean) => (clean, spec.victims as u64),
            Err(e) => {
                failures.push(format!("{class}: {e}"));
                (0, spec.victims as u64)
            }
        }
    } else {
        (0, 0)
    };

    // Hard-close faults are classified server-side; give the reader
    // thread a beat to observe the EOF before stopping.
    if class == "mid-frame-disconnect" {
        std::thread::sleep(Duration::from_millis(50));
    }
    gate.open();
    let (conn_faults, escaped) = match server.stop() {
        Ok(stats) => {
            if class == "panic-blob" && stats.panics != 1 {
                failures.push(format!("{class}: expected 1 worker panic, got {}", stats.panics));
            }
            (stats.conn_faults, false)
        }
        Err(e) => {
            failures.push(format!("{class}: server stop: {e}"));
            (0, true)
        }
    };

    CellOutcome { conn_faults, victim_clean, victim_requests, confirmed, escaped, busy, failures }
}

/// Streams the full E12 request mix through a live server at `threads`
/// worker threads and returns `(record digest, request count)`. Public
/// so the freshness test can replay it against the committed digest.
pub fn determinism_probe(base_seed: u64, threads: usize) -> Result<(u64, usize), String> {
    let (lines, _) = mix_records(base_seed, threads)?;
    Ok((fnv1a64(lines.join("\n").as_bytes()), lines.len()))
}

/// Drain probe: requests queued behind a held gate must all be answered
/// across a graceful shutdown, and the final stats frame must confirm
/// `drained=ok`. Returns `(requests, completed, stats_ok)`.
fn drain_probe(seed: u64) -> Result<(u64, u64, bool), String> {
    let gate = Gate::closed();
    let cfg = ServeConfig {
        threads: 2,
        queue_cap: 32,
        deadline: None,
        drain_deadline: Duration::from_secs(10),
        hold: Some(gate.clone()),
        ..ServeConfig::default()
    };
    let server = spawn_server(cfg).map_err(|e| format!("spawn: {e}"))?;
    let blob = honest_blob(seed);
    let mut s = connect(server.port()).map_err(|e| format!("connect: {e}"))?;
    let n = 16u64;
    send_verifies(&mut s, repeat_n(&blob, n as usize))?;
    write_frame(&mut s, &[REQ_SHUTDOWN]).map_err(|e| format!("send shutdown: {e}"))?;
    s.flush().map_err(|e| format!("flush: {e}"))?;
    // Workers are held, so the first frame back is the shutdown ack.
    let ack = read_responses(&mut s, 1)?;
    if ack[0].status != Status::ShutdownAck {
        return Err(format!("expected shutdown-ack first, got {}", ack[0].status.name()));
    }
    gate.open();
    // All 16 queued verdicts stream back, then the final stats frame.
    let mut completed = 0u64;
    let mut stats_ok = false;
    for _ in 0..=n {
        match read_frame(&mut s) {
            Ok(Some(p)) => match decode_response(&p) {
                Some(r) if r.status == Status::Stats => {
                    stats_ok = r.detail.contains("drained=ok")
                        && r.detail.contains(&format!("accept={n}"));
                }
                Some(r) if r.status == Status::Accept => completed += 1,
                Some(r) => return Err(format!("unexpected {} during drain", r.status.name())),
                None => return Err("undecodable frame during drain".into()),
            },
            Ok(None) => break,
            Err(e) => return Err(format!("recv during drain: {e}")),
        }
    }
    server.stop().map_err(|e| format!("stop: {e}"))?;
    Ok((n, completed, stats_ok))
}

/// Sustained throughput over localhost TCP (timing data): `n` honest
/// requests split over two connections.
fn throughput_probe(seed: u64, n: usize) -> Result<(u64, f64), String> {
    let cfg = ServeConfig { queue_cap: n.max(1), ..ServeConfig::default() };
    let server = spawn_server(cfg).map_err(|e| format!("spawn: {e}"))?;
    let blob = honest_blob(seed);
    let half = n / 2;
    let started = Instant::now();
    let mut handles = Vec::new();
    for part in [half, n - half] {
        let port = server.port();
        let blob = blob.clone();
        handles.push(std::thread::spawn(move || -> Result<u64, String> {
            let mut s = connect(port).map_err(|e| format!("connect: {e}"))?;
            send_verifies(&mut s, repeat_n(&blob, part))?;
            let r = read_responses(&mut s, part)?;
            Ok(r.iter().filter(|r| r.status == Status::Accept).count() as u64)
        }));
    }
    let mut accepted = 0u64;
    for h in handles {
        accepted += h.join().map_err(|_| "throughput client panicked".to_string())??;
    }
    let elapsed = started.elapsed().as_secs_f64();
    server.stop().map_err(|e| format!("stop: {e}"))?;
    if accepted != n as u64 {
        return Err(format!("throughput: {accepted}/{n} accepted"));
    }
    let rps = if elapsed > 0.0 { n as f64 / elapsed } else { 0.0 };
    Ok((n as u64, rps))
}

/// Runs the full E13 audit.
pub fn run_serve_chaos(spec: &ServeChaosSpec, base_seed: u64) -> ServeChaosReport {
    let mut failures: Vec<String> = Vec::new();
    let mut cells = Vec::new();
    let mut escaped_panics = 0u64;
    let mut busy_submitted = 0u64;
    let mut busy_rejected = 0u64;
    let mut busy_verified = 0u64;

    for (ci, class) in CLASSES.iter().enumerate() {
        let mut cell = ChaosCell {
            class,
            trials: spec.trials as u64,
            conn_faults: 0,
            victim_requests: 0,
            victim_clean: 0,
            confirmed: 0,
            expected: spec.trials as u64,
            passed: false,
        };
        for trial in 0..spec.trials {
            let seed = sub_seed(base_seed, (ci as u64) * 1000 + trial as u64);
            let out = run_trial(class, spec, seed);
            cell.conn_faults += out.conn_faults;
            cell.victim_requests += out.victim_requests;
            cell.victim_clean += out.victim_clean;
            cell.confirmed += u64::from(out.confirmed);
            escaped_panics += u64::from(out.escaped);
            if let Some((b, v)) = out.busy {
                busy_submitted += 12;
                busy_rejected += b;
                busy_verified += v;
            }
            failures.extend(out.failures);
        }
        // Per-class invariants: which classes must produce server-side
        // connection faults, and which must not.
        let faults_expected: u64 = match *class {
            "mid-frame-disconnect"
            | fault::TRUNCATED_FRAME
            | "stalled-writer"
            | "oversized-length" => cell.trials,
            _ => 0,
        };
        if cell.conn_faults != faults_expected {
            failures.push(format!(
                "{class}: expected {faults_expected} server-side conn faults, got {}",
                cell.conn_faults
            ));
        }
        if cell.confirmed != cell.expected {
            failures.push(format!(
                "{class}: {}/{} trials confirmed the structured outcome",
                cell.confirmed, cell.expected
            ));
        }
        if cell.victim_clean != cell.victim_requests {
            failures.push(format!(
                "{class}: victim saw {}/{} accepts — cross-connection damage",
                cell.victim_clean, cell.victim_requests
            ));
        }
        cell.passed = cell.conn_faults == faults_expected
            && cell.confirmed == cell.expected
            && cell.victim_clean == cell.victim_requests;
        cells.push(cell);
    }

    // Busy storm accounting: every over-capacity request must have been
    // rejected, every queued one verified.
    let expect_rejected = (spec.trials as u64) * 8;
    let expect_verified = (spec.trials as u64) * 4;
    if busy_rejected != expect_rejected || busy_verified != expect_verified {
        failures.push(format!(
            "busy storm: expected {expect_rejected} busy + {expect_verified} verified, \
             got {busy_rejected} + {busy_verified}"
        ));
    }

    // Drain probe.
    let (drain_requests, drain_completed, drain_stats_ok) =
        match drain_probe(sub_seed(base_seed, 0xd3a1)) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("drain probe: {e}"));
                (0, 0, false)
            }
        };
    if drain_completed != drain_requests || !drain_stats_ok {
        failures.push(format!(
            "drain: {drain_completed}/{drain_requests} completed, stats_ok={drain_stats_ok}"
        ));
    }

    // Determinism probe: E12 mix at 1 and 4 worker threads.
    let determinism_threads = vec![1usize, 4];
    let mut digests = Vec::new();
    for &t in &determinism_threads {
        match determinism_probe(base_seed, t) {
            Ok(d) => digests.push(d),
            Err(e) => failures.push(format!("determinism probe threads={t}: {e}")),
        }
    }
    let deterministic =
        digests.len() == determinism_threads.len() && digests.windows(2).all(|w| w[0] == w[1]);
    if !deterministic {
        failures.push("response records differ across worker thread counts".into());
    }
    let (determinism_digest, determinism_requests) = digests.first().copied().unwrap_or((0, 0));

    // Throughput (timing — informational).
    let (throughput_requests, rps) =
        match throughput_probe(sub_seed(base_seed, 0x7bf), spec.throughput_requests) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("throughput probe: {e}"));
                (0, 0.0)
            }
        };
    if rps <= 0.0 {
        failures.push("throughput probe measured zero requests/sec".into());
    }

    if escaped_panics > 0 {
        failures.push(format!("{escaped_panics} panics escaped a server thread"));
    }

    ServeChaosReport {
        seed: base_seed,
        trials: spec.trials as u64,
        cells,
        busy_submitted,
        busy_queue_cap: 4,
        busy_rejected,
        busy_verified,
        drain_requests,
        drain_completed,
        drain_stats_ok,
        determinism_threads,
        determinism_requests: determinism_requests as u64,
        determinism_digest,
        deterministic,
        escaped_panics,
        throughput_requests,
        rps,
        passed: failures.is_empty(),
        failures,
    }
}

impl ServeChaosReport {
    /// The text artifact (`results/e13_serve_chaos.txt`). The
    /// requests/sec figure is printed to stdout by the CLI but *not*
    /// written here — the committed artifact stays timing-free.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("E13: chaos at the wire — concurrent serve under connection faults\n");
        out.push_str(&format!("seed={:#x} trials_per_class={}\n\n", self.seed, self.trials));
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.class.to_string(),
                    c.trials.to_string(),
                    c.conn_faults.to_string(),
                    format!("{}/{}", c.victim_clean, c.victim_requests),
                    format!("{}/{}", c.confirmed, c.expected),
                    if c.passed { "ok" } else { "FAIL" }.to_string(),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["class", "trials", "conn_faults", "victim", "confirmed", "verdict"],
            &rows,
        ));
        out.push_str(&format!(
            "\nbusy storm: submitted={} queue_cap={} busy={} verified={}\n",
            self.busy_submitted, self.busy_queue_cap, self.busy_rejected, self.busy_verified
        ));
        out.push_str(&format!(
            "drain: requests={} completed={} stats_ok={}\n",
            self.drain_requests, self.drain_completed, self.drain_stats_ok
        ));
        out.push_str(&format!(
            "determinism: threads={:?} requests={} digest={:016x} identical={}\n",
            self.determinism_threads,
            self.determinism_requests,
            self.determinism_digest,
            self.deterministic
        ));
        out.push_str(&format!("escaped_panics={}\n", self.escaped_panics));
        out.push_str(&format!("\nE13 audit: {}\n", if self.passed { "PASS" } else { "FAIL" }));
        for f in &self.failures {
            out.push_str(&format!("  failure: {f}\n"));
        }
        out
    }

    /// The JSON artifact (`results/e13_serve_chaos.json`). The
    /// deterministic payload carries the invariants; `rps` is the one
    /// timing field and is never byte-compared (the freshness test
    /// asserts it parses and is positive).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"e13-serve-chaos\",\n");
        out.push_str(&format!("  \"seed\": \"{:#x}\",\n", self.seed));
        out.push_str(&format!("  \"trials_per_class\": {},\n", self.trials));
        out.push_str(&format!("  \"escaped_panics\": {},\n", self.escaped_panics));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"class\": \"{}\", \"trials\": {}, \"conn_faults\": {}, \
                 \"victim_requests\": {}, \"victim_clean\": {}, \"confirmed\": {}, \
                 \"expected\": {}, \"passed\": {}}}{}\n",
                c.class,
                c.trials,
                c.conn_faults,
                c.victim_requests,
                c.victim_clean,
                c.confirmed,
                c.expected,
                c.passed,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"busy_storm\": {{\"submitted\": {}, \"queue_cap\": {}, \"busy\": {}, \
             \"verified\": {}}},\n",
            self.busy_submitted, self.busy_queue_cap, self.busy_rejected, self.busy_verified
        ));
        out.push_str(&format!(
            "  \"drain\": {{\"requests\": {}, \"completed\": {}, \"stats_ok\": {}}},\n",
            self.drain_requests, self.drain_completed, self.drain_stats_ok
        ));
        out.push_str(&format!(
            "  \"determinism\": {{\"threads\": [{}], \"requests\": {}, \
             \"digest\": \"{:016x}\", \"identical\": {}}},\n",
            self.determinism_threads.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", "),
            self.determinism_requests,
            self.determinism_digest,
            self.deterministic
        ));
        out.push_str(&format!(
            "  \"throughput\": {{\"requests\": {}, \"rps\": {:.1}}},\n",
            self.throughput_requests, self.rps
        ));
        out.push_str(&format!("  \"passed\": {}\n", self.passed));
        out.push_str("}\n");
        out
    }
}
