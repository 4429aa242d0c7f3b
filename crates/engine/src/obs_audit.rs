//! E14: the observability audit — live metrics under load must obey
//! conservation laws, stay monotone, and digest identically at any
//! worker thread count.
//!
//! Observability code rots silently: a histogram that misses one code
//! path, a counter that double-fires, a stats endpoint that drifts from
//! the instruments it claims to expose. E14 pins the serve path's live
//! metrics (see [`crate::serve::ServeObs`]) the same way E12/E13 pin
//! its verdicts — with replayable invariants over a deterministic
//! workload:
//!
//! * **Conservation.** Pushing the full E12 request mix through a live
//!   server must land every request in every latency histogram exactly
//!   once: `latency_decode_ns` and `latency_queue_wait_ns` count one
//!   observation per verify request, `latency_verify_ns` counts one per
//!   request that decoded, and `latency_write_ns` counts one per
//!   response frame written (requests + the stats probe + the shutdown
//!   ack + the final drain stats frame). Status counters must agree
//!   with both the client-observed verdicts and the server's own drain
//!   stats.
//! * **Monotonicity.** A snapshot taken mid-run is a valid predecessor
//!   of the final one ([`pdip_obs::MetricsSnapshot::monotone_over`]).
//! * **Stats frames.** A live [`crate::serve::REQ_STATS`] round trip
//!   returns the same accept count the client derived itself.
//! * **Determinism.** The scheduling-independent projection
//!   ([`pdip_obs::MetricsSnapshot::render_deterministic`] — counter
//!   totals and histogram counts, no bucket shapes, sums, or gauges)
//!   digests byte-identically at 1 and 4 worker threads.
//! * **Fault attribution.** Every entry of the wire-fault catalogue in
//!   `serve/harness.rs` that the server sees is injected against
//!   servers sharing one registry; every injected fault lands in
//!   exactly the right `conn_faults_total{class=…}` counter, every
//!   injected panic in `panics_total`, every over-capacity request in
//!   `requests_total{status="busy"}` — and the flight recorder's
//!   `conn-fault` event sequence replays the injection order. The
//!   expected counts and labels are derived from the catalogue.
//!
//! Timing data (requests/sec, mean verify latency) is reported but
//! never digested; the committed artifact's deterministic payload is
//! guarded by `tests/e14_freshness.rs`.

use crate::report::render_table;
use crate::serve::harness::{
    read_responses, shutdown_and_drain, stream_mix, trial_seed, MixSession, WireFault, CATALOGUE,
    STORM_QUEUE,
};
use crate::serve::{spawn_server, write_frame, Gate, ServeConfig, ServeObs, Status, REQ_STATS};
use pdip_obs::MetricsSnapshot;
use pdip_wire::{fnv1a64, frame::fault};
use std::io::Write;
use std::sync::Arc;

/// Base seed of the committed E14 artifacts.
pub const E14_SEED: u64 = 0xe14;

/// Audit dimensions.
#[derive(Debug, Clone)]
pub struct ObsAuditSpec {
    /// Fault-injection trials per class in the attribution phase.
    pub fault_trials: usize,
    /// Worker thread counts whose metric digests are compared.
    pub threads: Vec<usize>,
}

impl ObsAuditSpec {
    /// The CI-gated configuration (also what produced the committed
    /// artifacts).
    pub fn smoke() -> ObsAuditSpec {
        ObsAuditSpec { fault_trials: 2, threads: vec![1, 4] }
    }

    /// The deeper local configuration.
    pub fn full() -> ObsAuditSpec {
        ObsAuditSpec { fault_trials: 4, threads: vec![1, 2, 4] }
    }
}

/// What one [`metrics_determinism_probe`] run observed.
#[derive(Debug)]
pub struct MetricsProbe {
    /// Requests streamed (the E12 mix).
    pub requests: u64,
    /// Client-observed accepts.
    pub accepted: u64,
    /// Client-observed rejects.
    pub rejected: u64,
    /// Client-observed malformed verdicts.
    pub malformed: u64,
    /// Total proof-size bits accumulated across the family counters.
    pub proof_bits: u64,
    /// FNV-1a-64 digest of the deterministic metrics projection.
    pub digest: u64,
    /// Whether the final snapshot is monotone over the mid-run one.
    pub monotone: bool,
    /// Whether the live stats frame agreed with client-side counts.
    pub stats_frame_ok: bool,
    /// Mean verify latency in nanoseconds (timing data).
    pub mean_verify_ns: u64,
    /// Requests per second over the verify phase (timing data).
    pub rps: f64,
    /// Conservation violations (empty when all invariants held).
    pub failures: Vec<String>,
}

fn hist_count(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.histogram(name).map(|h| h.count()).unwrap_or(0)
}

/// Streams the full E12 request mix through a live server that shares
/// a fresh [`ServeObs`], then checks the conservation laws against the
/// final snapshot and digests the deterministic projection. Public so
/// the freshness test can replay the committed digest.
pub fn metrics_determinism_probe(base_seed: u64, threads: usize) -> Result<MetricsProbe, String> {
    let obs = Arc::new(ServeObs::new());
    let cfg = ServeConfig {
        threads,
        deadline: None,
        obs: Some(Arc::clone(&obs)),
        ..ServeConfig::default()
    };
    let MixSession { server, conn: mut s, responses, elapsed } = stream_mix(base_seed, cfg)?;
    let n = responses.len() as u64;
    let elapsed = elapsed.as_secs_f64();
    let mid = obs.snapshot();

    let accepted = responses.iter().filter(|r| r.status == Status::Accept).count() as u64;
    let rejected = responses.iter().filter(|r| r.status == Status::Reject).count() as u64;
    let malformed = responses.iter().filter(|r| r.status == Status::Malformed).count() as u64;

    // Live stats round trip: the Prometheus-style rendering must carry
    // the accept count the client just derived for itself.
    write_frame(&mut s, &[REQ_STATS, 0])
        .and_then(|()| s.flush())
        .map_err(|e| format!("send stats: {e}"))?;
    let stats_resp = read_responses(&mut s, 1)?.remove(0);
    let stats_frame_ok = stats_resp.status == Status::Stats
        && stats_resp.detail.contains(&format!("requests_total{{status=\"accept\"}} {accepted}"))
        && stats_resp.detail.contains("latency_verify_ns_count");

    // Graceful shutdown: ack + final drain stats frame, then EOF.
    let (_, drain_detail) = shutdown_and_drain(&mut s, || {})?;
    let server_stats = server.stop().map_err(|e| format!("stop: {e}"))?;
    let fin = obs.snapshot();

    // Conservation laws over the final, fully-quiesced snapshot.
    let mut failures = Vec::new();
    let mut law = |name: &str, got: u64, want: u64| {
        if got != want {
            failures.push(format!("threads={threads}: {name}: {got} != expected {want}"));
        }
    };
    law("latency_decode_ns count", hist_count(&fin, "latency_decode_ns"), n);
    law("latency_queue_wait_ns count", hist_count(&fin, "latency_queue_wait_ns"), n);
    law("latency_verify_ns count", hist_count(&fin, "latency_verify_ns"), n - malformed);
    // One write per verify response + the stats probe + the shutdown
    // ack + the final drain stats frame.
    law("latency_write_ns count", hist_count(&fin, "latency_write_ns"), n + 3);
    let status_counter =
        |st: &str| fin.counter(&format!("requests_total{{status=\"{st}\"}}")).unwrap_or(0);
    law("requests_total{accept}", status_counter("accept"), accepted);
    law("requests_total{reject}", status_counter("reject"), rejected);
    law("requests_total{malformed}", status_counter("malformed"), malformed);
    law("requests_total{busy}", status_counter("busy"), 0);
    law("server drain accepted", server_stats.accepted, accepted);
    law("server drain rejected", server_stats.rejected, rejected);
    law("server drain malformed", server_stats.malformed, malformed);
    law("connections_total", fin.counter("connections_total").unwrap_or(0), 1);
    law("panics_total", fin.counter("panics_total").unwrap_or(0), 0);
    law("io_errors_total", fin.counter("io_errors_total").unwrap_or(0), 0);
    for class in fault::ALL {
        law(
            &format!("conn_faults_total{{{class}}}"),
            fin.counter(&format!("conn_faults_total{{class=\"{class}\"}}")).unwrap_or(0),
            0,
        );
    }
    if accepted + rejected + malformed != n {
        failures.push(format!(
            "threads={threads}: verdicts {accepted}+{rejected}+{malformed} != requests {n}"
        ));
    }
    if !drain_detail.contains("drained=ok") {
        failures.push(format!("threads={threads}: final stats frame not drained=ok"));
    }
    let proof_bits: u64 = fin
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("proof_size_bits_total"))
        .map(|(_, v)| *v)
        .sum();
    if proof_bits == 0 {
        failures.push(format!("threads={threads}: no live proof-size bits accumulated"));
    }

    let mean_verify_ns = fin.histogram("latency_verify_ns").map(|h| h.mean_nanos()).unwrap_or(0);
    Ok(MetricsProbe {
        requests: n,
        accepted,
        rejected,
        malformed,
        proof_bits,
        digest: fnv1a64(fin.render_deterministic().as_bytes()),
        monotone: fin.monotone_over(&mid),
        stats_frame_ok,
        mean_verify_ns,
        rps: if elapsed > 0.0 { n as f64 / elapsed } else { 0.0 },
        failures,
    })
}

/// The fault-attribution phase's outcome.
struct FaultMix {
    /// `(class, expected, observed)` per wire fault class.
    fault_counts: Vec<(&'static str, u64, u64)>,
    panics_observed: u64,
    busy_observed: u64,
    busy_verified: u64,
    flight_events: u64,
    flight_replay_ok: bool,
    failures: Vec<String>,
}

/// The total of one per-injection server-side effect over `trials`
/// injections of every catalogue entry. Entries without a server-side
/// effect add nothing, so this is also the total over the entries E14
/// drives.
fn catalogue_total(trials: usize, effect: impl Fn(&WireFault) -> u64) -> u64 {
    trials as u64 * CATALOGUE.iter().map(effect).sum::<u64>()
}

/// Injects every catalogue entry the server sees (so
/// `garbage-interleaved` stays E13-only) — sequential per-class servers
/// all sharing one [`ServeObs`] — and checks that every injection landed
/// in exactly the right counter and that the flight recorder replays
/// the injection order.
fn fault_mix(trials: usize, base_seed: u64) -> Result<FaultMix, String> {
    // A deep ring so no conn-fault event scrolls off before the replay
    // check reads it back.
    let obs =
        Arc::new(ServeObs::with_options(1024, crate::serve::obs::DEFAULT_SLOW_THRESHOLD, None));
    let mut failures = Vec::new();
    let mut busy_verified = 0u64;
    let mut expected_labels = Vec::new();
    let driven = CATALOGUE.iter().enumerate();
    for (ci, fault) in driven.filter(|(_, f)| f.counts_as.is_some() || f.panics + f.busy > 0) {
        let name = fault.name;
        let seeds: Vec<u64> = (0..trials).map(|t| trial_seed(base_seed, ci, t)).collect();
        // One server per class, except that a class holding the workers
        // opens its gate on every injection and so needs one per trial.
        let per_server = if fault.holds_workers() { 1 } else { trials.max(1) };
        for batch in seeds.chunks(per_server) {
            let gate = Gate::closed();
            let cfg = ServeConfig { obs: Some(Arc::clone(&obs)), ..fault.config(&gate) };
            let server = spawn_server(cfg).map_err(|e| format!("spawn {name}: {e}"))?;
            for &seed in batch {
                if !fault.inject(server.port(), &gate, seed).map_err(|e| format!("{name}: {e}"))? {
                    failures.push(format!("{name} seed {seed:#x}: unexpected responses"));
                }
                expected_labels.extend(fault.counts_as);
            }
            gate.open();
            let stats = server.stop().map_err(|e| format!("{name} stop: {e}"))?;
            if fault.busy > 0 {
                busy_verified += stats.accepted;
            }
        }
    }

    // Attribution: every injection, and nothing else, in its counter.
    let snap = obs.snapshot();
    let fault_counts: Vec<(&'static str, u64, u64)> = fault::ALL
        .iter()
        .map(|&class| {
            let expected = catalogue_total(trials, |f| u64::from(f.counts_as == Some(class)));
            let got = snap.counter(&format!("conn_faults_total{{class=\"{class}\"}}")).unwrap_or(0);
            (class, expected, got)
        })
        .collect();
    for (class, expected, got) in &fault_counts {
        if got != expected {
            failures.push(format!("conn_faults_total{{{class}}}: {got} != expected {expected}"));
        }
    }
    let panics_expected = catalogue_total(trials, |f| f.panics);
    let panics_observed = snap.counter("panics_total").unwrap_or(0);
    if panics_observed != panics_expected {
        failures.push(format!("panics_total: {panics_observed} != expected {panics_expected}"));
    }
    let busy_expected = catalogue_total(trials, |f| f.busy);
    let busy_observed = snap.counter("requests_total{status=\"busy\"}").unwrap_or(0);
    if busy_observed != busy_expected {
        failures
            .push(format!("requests_total{{busy}}: {busy_observed} != expected {busy_expected}"));
    }
    let verified_expected = catalogue_total(trials, |f| STORM_QUEUE as u64 * u64::from(f.busy > 0));
    if busy_verified != verified_expected {
        failures
            .push(format!("busy storm verified {busy_verified} != expected {verified_expected}"));
    }

    // Flight replay: the conn-fault event labels must reproduce the
    // injection order, and every panic and busy rejection must have
    // left an event.
    let events = obs.flight().snapshot();
    let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count() as u64;
    let conn_fault_labels: Vec<&str> =
        events.iter().filter(|e| e.kind == "conn-fault").map(|e| e.label).collect();
    let flight_replay_ok = conn_fault_labels == expected_labels
        && count("panic") == panics_expected
        && count("busy") == busy_expected
        && obs.flight().dropped() == 0;
    if !flight_replay_ok {
        failures.push(format!(
            "flight replay: conn-fault labels {conn_fault_labels:?} != {expected_labels:?} \
             (panics={}, busy={}, dropped={})",
            count("panic"),
            count("busy"),
            obs.flight().dropped()
        ));
    }

    Ok(FaultMix {
        fault_counts,
        panics_observed,
        busy_observed,
        busy_verified,
        flight_events: obs.flight().total_recorded(),
        flight_replay_ok,
        failures,
    })
}

/// The complete audit outcome.
#[derive(Debug)]
pub struct ObsAuditReport {
    /// Base seed.
    pub seed: u64,
    /// Fault-injection trials per class.
    pub fault_trials: u64,
    /// Worker thread counts compared.
    pub threads: Vec<usize>,
    /// Requests of the metrics probe (the E12 mix).
    pub requests: u64,
    /// Client-observed accepts.
    pub accepted: u64,
    /// Client-observed rejects.
    pub rejected: u64,
    /// Client-observed malformed verdicts.
    pub malformed: u64,
    /// Total live proof-size bits accumulated across family counters.
    pub proof_bits: u64,
    /// FNV-1a-64 digest of the deterministic metrics projection.
    pub digest: u64,
    /// Whether all compared thread counts digested identically.
    pub deterministic: bool,
    /// Whether every mid-run snapshot was monotone under the final one.
    pub monotone: bool,
    /// Whether every conservation law held at every thread count.
    pub conserved: bool,
    /// Whether every live stats frame agreed with client-side counts.
    pub stats_frame_ok: bool,
    /// `(class, expected, observed)` per wire fault class.
    pub fault_counts: Vec<(&'static str, u64, u64)>,
    /// Worker panics expected from the injection schedule.
    pub panics_expected: u64,
    /// Worker panics counted by the live registry.
    pub panics_observed: u64,
    /// Busy rejections expected from the storm schedule.
    pub busy_expected: u64,
    /// Busy rejections counted by the live registry.
    pub busy_observed: u64,
    /// Requests verified after the storm gates opened.
    pub busy_verified: u64,
    /// Flight-recorder events recorded during the fault phase.
    pub flight_events: u64,
    /// Whether the flight ring replayed the injection order exactly.
    pub flight_replay_ok: bool,
    /// Requests/sec of the final metrics probe (timing data).
    pub rps: f64,
    /// Mean verify latency of the final probe (timing data).
    pub mean_verify_ns: u64,
    /// Audit verdict.
    pub passed: bool,
    /// Human-readable failures (empty when `passed`).
    pub failures: Vec<String>,
}

/// Runs the full E14 audit.
pub fn run_obs_audit(spec: &ObsAuditSpec, base_seed: u64) -> ObsAuditReport {
    let mut failures: Vec<String> = Vec::new();

    // Phase A: conservation + determinism, one probe per thread count.
    let mut probes = Vec::new();
    for &t in &spec.threads {
        match metrics_determinism_probe(base_seed, t) {
            Ok(p) => {
                failures.extend(p.failures.iter().cloned());
                probes.push((t, p));
            }
            Err(e) => failures.push(format!("metrics probe threads={t}: {e}")),
        }
    }
    let deterministic = probes.len() == spec.threads.len()
        && probes.windows(2).all(|w| w[0].1.digest == w[1].1.digest);
    if !deterministic {
        failures.push("deterministic metric projections differ across thread counts".into());
    }
    let monotone = !probes.is_empty() && probes.iter().all(|(_, p)| p.monotone);
    if !monotone {
        failures.push("a mid-run snapshot was not monotone under the final one".into());
    }
    let stats_frame_ok = !probes.is_empty() && probes.iter().all(|(_, p)| p.stats_frame_ok);
    if !stats_frame_ok {
        failures.push("a live stats frame disagreed with client-observed verdicts".into());
    }
    let conserved = !probes.is_empty() && probes.iter().all(|(_, p)| p.failures.is_empty());
    let (requests, accepted, rejected, malformed, proof_bits, digest) = probes
        .first()
        .map(|(_, p)| (p.requests, p.accepted, p.rejected, p.malformed, p.proof_bits, p.digest))
        .unwrap_or((0, 0, 0, 0, 0, 0));
    let (rps, mean_verify_ns) =
        probes.last().map(|(_, p)| (p.rps, p.mean_verify_ns)).unwrap_or((0.0, 0));
    if rps <= 0.0 {
        failures.push("metrics probe measured zero requests/sec".into());
    }

    // Phase B: fault attribution + flight replay.
    let mix = match fault_mix(spec.fault_trials, base_seed) {
        Ok(m) => {
            failures.extend(m.failures.iter().cloned());
            Some(m)
        }
        Err(e) => {
            failures.push(format!("fault mix: {e}"));
            None
        }
    };
    let (fault_counts, panics_observed, busy_observed, busy_verified, flight_events, replay_ok) =
        match mix {
            Some(m) => (
                m.fault_counts,
                m.panics_observed,
                m.busy_observed,
                m.busy_verified,
                m.flight_events,
                m.flight_replay_ok,
            ),
            None => (Vec::new(), 0, 0, 0, 0, false),
        };

    ObsAuditReport {
        seed: base_seed,
        fault_trials: spec.fault_trials as u64,
        threads: spec.threads.clone(),
        requests,
        accepted,
        rejected,
        malformed,
        proof_bits,
        digest,
        deterministic,
        monotone,
        conserved,
        stats_frame_ok,
        fault_counts,
        panics_expected: catalogue_total(spec.fault_trials, |f| f.panics),
        panics_observed,
        busy_expected: catalogue_total(spec.fault_trials, |f| f.busy),
        busy_observed,
        busy_verified,
        flight_events,
        flight_replay_ok: replay_ok,
        rps,
        mean_verify_ns,
        passed: failures.is_empty(),
        failures,
    }
}

impl ObsAuditReport {
    /// The text artifact (`results/e14_obs.txt`). Timing figures
    /// (rps, mean verify latency) are printed to stdout by the CLI but
    /// not written here — the committed artifact stays timing-free.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("E14: observability audit — live metrics, conservation, flight replay\n");
        out.push_str(&format!(
            "seed={:#x} fault_trials_per_class={} threads={:?}\n\n",
            self.seed, self.fault_trials, self.threads
        ));
        out.push_str(&format!(
            "metrics probe: requests={} accept={} reject={} malformed={} proof_bits={}\n",
            self.requests, self.accepted, self.rejected, self.malformed, self.proof_bits
        ));
        out.push_str(&format!(
            "digest={:016x} deterministic={} monotone={} conserved={} stats_frame_ok={}\n\n",
            self.digest, self.deterministic, self.monotone, self.conserved, self.stats_frame_ok
        ));
        let rows: Vec<Vec<String>> = self
            .fault_counts
            .iter()
            .map(|(class, expected, got)| {
                vec![
                    class.to_string(),
                    expected.to_string(),
                    got.to_string(),
                    if got == expected { "ok" } else { "FAIL" }.to_string(),
                ]
            })
            .collect();
        out.push_str(&render_table(&["fault class", "expected", "observed", "verdict"], &rows));
        out.push_str(&format!(
            "\npanics: expected={} observed={}\n",
            self.panics_expected, self.panics_observed
        ));
        out.push_str(&format!(
            "busy storm: expected={} observed={} verified={}\n",
            self.busy_expected, self.busy_observed, self.busy_verified
        ));
        out.push_str(&format!(
            "flight: events={} replay_ok={}\n",
            self.flight_events, self.flight_replay_ok
        ));
        out.push_str(&format!("\nE14 audit: {}\n", if self.passed { "PASS" } else { "FAIL" }));
        for f in &self.failures {
            out.push_str(&format!("  failure: {f}\n"));
        }
        out
    }

    /// The JSON artifact (`results/e14_obs.json`). The deterministic
    /// payload carries the invariants; `rps` and `mean_verify_ns` are
    /// the only timing fields and are never byte-compared (the
    /// freshness test asserts they parse and are positive).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"e14-obs-audit\",\n");
        out.push_str(&format!("  \"seed\": \"{:#x}\",\n", self.seed));
        out.push_str(&format!("  \"fault_trials\": {},\n", self.fault_trials));
        out.push_str(&format!(
            "  \"threads\": [{}],\n",
            self.threads.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ")
        ));
        out.push_str(&format!(
            "  \"verdicts\": {{\"requests\": {}, \"accepted\": {}, \"rejected\": {}, \
             \"malformed\": {}, \"proof_bits\": {}}},\n",
            self.requests, self.accepted, self.rejected, self.malformed, self.proof_bits
        ));
        out.push_str(&format!(
            "  \"metrics\": {{\"digest\": \"{:016x}\", \"deterministic\": {}, \
             \"monotone\": {}, \"conserved\": {}, \"stats_frame_ok\": {}}},\n",
            self.digest, self.deterministic, self.monotone, self.conserved, self.stats_frame_ok
        ));
        out.push_str("  \"faults\": [\n");
        for (i, (class, expected, got)) in self.fault_counts.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"class\": \"{class}\", \"expected\": {expected}, \"observed\": {got}}}{}\n",
                if i + 1 < self.fault_counts.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"panics\": {{\"expected\": {}, \"observed\": {}}},\n",
            self.panics_expected, self.panics_observed
        ));
        out.push_str(&format!(
            "  \"busy\": {{\"expected\": {}, \"observed\": {}, \"verified\": {}}},\n",
            self.busy_expected, self.busy_observed, self.busy_verified
        ));
        out.push_str(&format!(
            "  \"flight\": {{\"events\": {}, \"replay_ok\": {}}},\n",
            self.flight_events, self.flight_replay_ok
        ));
        out.push_str(&format!(
            "  \"timing\": {{\"rps\": {:.1}, \"mean_verify_ns\": {}}},\n",
            self.rps, self.mean_verify_ns
        ));
        out.push_str(&format!("  \"passed\": {}\n", self.passed));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_probe_conserves_every_request() {
        let probe = metrics_determinism_probe(0x7e57, 2).expect("probe against a live server");
        assert!(probe.failures.is_empty(), "conservation violated: {:?}", probe.failures);
        assert!(probe.monotone);
        assert!(probe.stats_frame_ok);
        assert!(probe.requests >= 100);
        assert_eq!(probe.accepted + probe.rejected + probe.malformed, probe.requests);
        assert!(probe.proof_bits > 0);
    }
}
