//! Freshness and invariant guard for the committed
//! `results/e14_obs.json`.
//!
//! E14 is the observability layer's correctness claim: the live
//! metrics registry wired through the concurrent serve path loses no
//! events (every request appears in exactly the right counters and
//! latency histograms), attributes every injected connection fault to
//! its named class, counts every worker panic and busy rejection, and
//! the flight recorder replays the fault sequence in order. The
//! committed artifact must stay consistent with the code that claims
//! to produce it; this guard checks it without re-running the whole
//! fault grid:
//!
//! * the schema parses, the audit passed, and the metrics section says
//!   deterministic + monotone + conserved + stats_frame_ok,
//! * every fault class observed exactly its expected count, and the
//!   expected counts follow the injection contract (a truncated and a
//!   mid-frame disconnect per trial both classify as truncated-frame,
//!   one oversized frame and one read stall per trial, nothing else),
//! * panics, busy rejections, and verdict counts satisfy their
//!   conservation laws against the trial count and request mix,
//! * the metrics digest is **replayed**: a live single-threaded server
//!   re-verifies the same request mix against a fresh registry and
//!   must reproduce the committed deterministic-render digest
//!   byte-for-byte, and
//! * `rps` and `mean_verify_ns` — the timing fields — merely parse and
//!   are positive; they are never byte-compared.
//!
//! Regenerate with `cargo run --release --bin pdip -- obs-audit
//! --smoke` after any change to the serve front-end, the metrics
//! registry, or the flight recorder.

mod common;

use common::{field, section};
use pdip_engine::{metrics_determinism_probe, E14_SEED};

fn committed_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/e14_obs.json"))
        .expect("results/e14_obs.json must be committed; regenerate with `pdip obs-audit --smoke`")
}

fn fault_lines(json: &str) -> Vec<&str> {
    json.lines().filter(|l| l.trim_start().starts_with("{\"class\"")).collect()
}

#[test]
fn committed_e14_schema_parses_and_passes() {
    let json = committed_json();
    assert!(json.contains("\"experiment\": \"e14-obs-audit\""));
    assert_eq!(field(section(&json, "seed"), "seed"), format!("{E14_SEED:#x}"));
    assert!(json.contains("\"passed\": true\n"), "committed audit must pass");
    let m = section(&json, "metrics");
    for flag in ["deterministic", "monotone", "conserved", "stats_frame_ok"] {
        assert_eq!(field(m, flag), "true", "metrics law {flag:?} failed in the committed run");
    }
}

#[test]
fn every_fault_class_is_exactly_attributed() {
    let json = committed_json();
    let trials: u64 = field(section(&json, "fault_trials"), "fault_trials").parse().unwrap();
    assert!(trials >= 2, "degenerate audit (fewer than 2 trials per class)");
    let lines = fault_lines(&json);
    let classes: Vec<&str> = lines.iter().map(|l| field(l, "class")).collect();
    assert_eq!(
        classes,
        vec![
            "truncated-frame",
            "oversized-frame",
            "idle-timeout",
            "read-stall",
            "peer-reset",
            "io-error",
        ],
        "fault-class table drifted from pdip_wire::frame::fault::ALL"
    );
    // Injection contract: per trial, one truncated frame AND one
    // mid-frame disconnect (both classify as truncated-frame), one
    // oversized declaration, one read stall. No other class may fire —
    // a nonzero io-error or peer-reset count means the registry
    // misattributed a fault.
    for line in lines {
        let class = field(line, "class");
        let expected: u64 = field(line, "expected").parse().unwrap();
        let observed: u64 = field(line, "observed").parse().unwrap();
        let want = match class {
            "truncated-frame" => 2 * trials,
            "oversized-frame" | "read-stall" => trials,
            _ => 0,
        };
        assert_eq!(expected, want, "injection contract drifted: {line}");
        assert_eq!(observed, expected, "fault counter misattributed a fault: {line}");
    }
}

#[test]
fn panics_busy_and_flight_conserve() {
    let json = committed_json();
    let trials: u64 = field(section(&json, "fault_trials"), "fault_trials").parse().unwrap();
    let p = section(&json, "panics");
    assert_eq!(field(p, "expected"), trials.to_string(), "panic trial count drifted");
    assert_eq!(field(p, "observed"), field(p, "expected"), "a worker panic went uncounted");
    let b = section(&json, "busy");
    let busy_expected: u64 = field(b, "expected").parse().unwrap();
    let busy_observed: u64 = field(b, "observed").parse().unwrap();
    let busy_verified: u64 = field(b, "verified").parse().unwrap();
    assert_eq!(busy_expected, 8 * trials, "busy-storm sizing drifted");
    assert_eq!(busy_observed, busy_expected, "a busy rejection went uncounted");
    assert_eq!(busy_verified, 4 * trials, "a gated storm request was never verified");
    let f = section(&json, "flight");
    assert!(field(f, "events").parse::<u64>().unwrap() > 0, "empty flight ring committed");
    assert_eq!(field(f, "replay_ok"), "true", "flight ring does not replay the fault sequence");
}

#[test]
fn verdict_counters_conserve_every_request() {
    let json = committed_json();
    let v = section(&json, "verdicts");
    let requests: u64 = field(v, "requests").parse().unwrap();
    let accepted: u64 = field(v, "accepted").parse().unwrap();
    let rejected: u64 = field(v, "rejected").parse().unwrap();
    let malformed: u64 = field(v, "malformed").parse().unwrap();
    assert!(requests >= 100, "degenerate probe mix (fewer than 100 requests)");
    assert_eq!(accepted + rejected + malformed, requests, "a request vanished from the counters");
    assert!(field(v, "proof_bits").parse::<u64>().unwrap() > 0, "no proof bits accounted");
}

/// Replays the metrics probe at one worker thread against a live
/// server with a fresh registry and compares the deterministic-render
/// digest with the committed one. Any drift in the serve pipeline, the
/// recorder wiring, the histogram layout, or the counter names shows
/// up here as a digest mismatch.
#[test]
fn metrics_digest_replays_against_a_live_server() {
    let json = committed_json();
    let v = section(&json, "verdicts");
    let requests: u64 = field(v, "requests").parse().unwrap();
    let probe =
        metrics_determinism_probe(E14_SEED, 1).expect("metrics replay against a live server");
    assert_eq!(probe.failures, Vec::<String>::new(), "replay violated a conservation law");
    assert_eq!(probe.requests as u64, requests, "request mix drifted");
    assert_eq!(
        format!("{:016x}", probe.digest),
        field(section(&json, "metrics"), "digest"),
        "replayed digest diverges from committed artifact — regenerate with `pdip obs-audit --smoke`"
    );
}

#[test]
fn timing_is_reported_and_positive() {
    // rps and mean_verify_ns are wall-clock data: assert they parse and
    // are positive, nothing more. Byte-comparing them would make the
    // artifact machine-dependent.
    let json = committed_json();
    let t = section(&json, "timing");
    assert!(field(t, "rps").parse::<f64>().unwrap() > 0.0, "zero measured throughput");
    assert!(field(t, "mean_verify_ns").parse::<u64>().unwrap() > 0, "zero verify latency");
}
