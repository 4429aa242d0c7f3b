//! E13: chaos at the wire — the concurrent serve front-end under
//! connection-level fault injection.
//!
//! The audit runs every entry of the wire-fault catalogue in
//! `serve/harness.rs` (the one place connection faults are written, and
//! shared with E14): mid-frame disconnects, truncated and interleaved
//! frames, stalled writers, oversized length declarations,
//! panic-inducing blobs, and busy storms over queue capacity. Each entry
//! corrupts connection *behaviour* with the E9 chaos `Mutator`, and
//! its expected client response and server-side counts come from the
//! table. Every trial spawns a fresh server ([`spawn_server`]) so
//! per-trial server-side statistics are exact.
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

use crate::report::render_table;
use crate::seed::sub_seed;
use crate::serve::harness::{
    connect, honest_blob, honest_roundtrip, mix_records, send_verifies, shutdown_and_drain,
    trial_seed, WireFault, CATALOGUE, STORM_QUEUE, STORM_REQUESTS,
};
use crate::serve::{spawn_server, Gate, ServeConfig, ServeStats, Status};
use pdip_wire::fnv1a64;
use std::iter::repeat_n;
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

/// One class's aggregated outcome.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Stable class name (the wire-fault catalogue's entry name).
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

#[derive(Default)]
struct CellOutcome {
    /// The server's final stats (default when it failed to spawn or stop).
    stats: ServeStats,
    victim_clean: u64,
    victim_requests: u64,
    confirmed: bool,
    escaped: bool,
    failures: Vec<String>,
}

/// Runs one trial of catalogue entry `fault` against a fresh server,
/// then an honest victim next to it.
fn run_trial(fault: &WireFault, spec: &ServeChaosSpec, seed: u64) -> CellOutcome {
    let name = fault.name;
    let mut out = CellOutcome::default();
    let gate = Gate::closed();
    let server = match spawn_server(fault.config(&gate)) {
        Ok(s) => s,
        Err(e) => {
            out.failures.push(format!("{name}: spawn: {e}"));
            return out;
        }
    };
    let port = server.port();
    match fault.inject(port, &gate, seed) {
        Ok(ok) => out.confirmed = ok,
        Err(e) => out.failures.push(format!("{name}: {e}")),
    }

    // The victim runs AFTER the fault: its full round-trip proves the
    // serving threads recycled and no cross-connection damage occurred.
    // A held server's verdicts are the storm's own, so it gets none.
    if !fault.holds_workers() {
        out.victim_requests = spec.victims as u64;
        match honest_roundtrip(port, spec.victims, seed ^ 0x71c) {
            Ok(clean) => out.victim_clean = clean,
            Err(e) => out.failures.push(format!("{name}: victim {e}")),
        }
    }

    gate.open();
    match server.stop() {
        Ok(stats) => {
            if stats.panics != fault.panics {
                out.failures.push(format!(
                    "{name}: expected {} worker panics, got {}",
                    fault.panics, stats.panics
                ));
            }
            out.stats = stats;
        }
        Err(e) => {
            out.failures.push(format!("{name}: server stop: {e}"));
            out.escaped = true;
        }
    }
    out
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
    // Workers are held, so the first frame back is the shutdown ack;
    // all 16 queued verdicts stream back once the gate opens.
    let (verdicts, stats) = shutdown_and_drain(&mut s, || gate.open())?;
    if let Some(r) = verdicts.iter().find(|r| r.status != Status::Accept) {
        return Err(format!("unexpected {} during drain", r.status.name()));
    }
    let stats_ok = stats.contains("drained=ok") && stats.contains(&format!("accept={n}"));
    server.stop().map_err(|e| format!("stop: {e}"))?;
    Ok((n, verdicts.len() as u64, stats_ok))
}

/// Sustained throughput over localhost TCP (timing data): `n` honest
/// requests split over two connections.
fn throughput_probe(seed: u64, n: usize) -> Result<(u64, f64), String> {
    let cfg = ServeConfig { queue_cap: n.max(1), ..ServeConfig::default() };
    let server = spawn_server(cfg).map_err(|e| format!("spawn: {e}"))?;
    let half = n / 2;
    let started = Instant::now();
    let mut handles = Vec::new();
    for part in [half, n - half] {
        let port = server.port();
        handles.push(std::thread::spawn(move || honest_roundtrip(port, part, seed)));
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
    let (mut expect_rejected, mut expect_verified) = (0u64, 0u64);

    for (ci, fault) in CATALOGUE.iter().enumerate() {
        let class = fault.name;
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
            let out = run_trial(fault, spec, trial_seed(base_seed, ci, trial));
            cell.conn_faults += out.stats.conn_faults;
            cell.victim_requests += out.victim_requests;
            cell.victim_clean += out.victim_clean;
            cell.confirmed += u64::from(out.confirmed);
            escaped_panics += u64::from(out.escaped);
            if fault.busy > 0 {
                busy_submitted += STORM_REQUESTS as u64;
                busy_rejected += out.stats.busy;
                busy_verified += out.stats.accepted;
                expect_rejected += fault.busy;
                expect_verified += STORM_QUEUE as u64;
            }
            failures.extend(out.failures);
        }
        // Per-class invariant: the server counts one connection fault
        // per trial exactly for the classes the catalogue says it does.
        let faults_expected = cell.trials * u64::from(fault.counts_as.is_some());
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
        busy_queue_cap: STORM_QUEUE as u64,
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
