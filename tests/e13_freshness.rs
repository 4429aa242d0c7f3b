//! Freshness and invariant guard for the committed
//! `results/e13_serve_chaos.json`.
//!
//! E13 is the serve front-end's robustness claim: under deliberate
//! connection-layer faults (mid-frame disconnects, truncated and
//! oversized frames, stalled writers, panic payloads, busy storms) the
//! concurrent server never leaks a panic, classifies every fault as a
//! structured per-connection error, keeps victim connections unharmed,
//! answers every accepted request across a drain, and produces
//! thread-count-invariant responses. The committed artifact must stay
//! consistent with the code that claims to produce it; this guard
//! checks it without re-running the whole chaos grid:
//!
//! * the schema parses and the audit header says PASS with zero
//!   escaped panics,
//! * every fault-class cell passed, confirmed exactly its expected
//!   fault count, and kept all victim requests clean,
//! * the busy-storm, drain, and determinism sections satisfy their
//!   conservation laws (rejected + verified = submitted; completed =
//!   accepted; digests identical across thread counts),
//! * the determinism digest is **replayed**: a live single-threaded
//!   server re-verifies the same request mix and must reproduce the
//!   committed digest byte-for-byte, and
//! * `rps` — the one timing field — merely parses and is positive; it
//!   is never byte-compared.
//!
//! Regenerate with `cargo run --release --bin pdip -- serve-chaos
//! --smoke` after any change to the serve front-end, the frame layer,
//! or the wire codec.

mod common;

use common::{field, section};
use pdip_engine::{determinism_probe, E13_SEED};

fn committed_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/e13_serve_chaos.json"))
        .expect("results/e13_serve_chaos.json must be committed; regenerate with `pdip serve-chaos --smoke`")
}

fn cell_lines(json: &str) -> Vec<&str> {
    json.lines().filter(|l| l.trim_start().starts_with("{\"class\"")).collect()
}

#[test]
fn committed_e13_schema_parses_and_passes() {
    let json = committed_json();
    assert!(json.contains("\"experiment\": \"e13-serve-chaos\""));
    assert_eq!(field(section(&json, "seed"), "seed"), format!("{:#x}", E13_SEED));
    assert!(json.contains("\"passed\": true\n"), "committed audit must pass");
    assert_eq!(
        field(section(&json, "escaped_panics"), "escaped_panics"),
        "0",
        "a panic escaped a server thread in the committed run"
    );
}

#[test]
fn every_fault_class_cell_is_clean() {
    let json = committed_json();
    let cells = cell_lines(&json);
    let classes: Vec<&str> = cells.iter().map(|l| field(l, "class")).collect();
    assert_eq!(
        classes,
        vec![
            "mid-frame-disconnect",
            "truncated-frame",
            "garbage-interleaved",
            "stalled-writer",
            "oversized-length",
            "panic-blob",
            "busy-storm",
        ],
        "fault-class grid drifted"
    );
    // The four wire-level classes must account exactly one structured
    // connection fault per trial; the application-level classes
    // (garbage frames, panic payloads, busy storms) must cause none.
    let wire_fault_classes =
        ["mid-frame-disconnect", "truncated-frame", "stalled-writer", "oversized-length"];
    for line in cells {
        assert_eq!(field(line, "passed"), "true", "failing cell committed: {line}");
        let trials: u64 = field(line, "trials").parse().unwrap();
        assert!(trials >= 2, "degenerate cell (fewer than 2 trials): {line}");
        let conn_faults: u64 = field(line, "conn_faults").parse().unwrap();
        let class = field(line, "class");
        let want_faults = if wire_fault_classes.contains(&class) { trials } else { 0 };
        assert_eq!(
            conn_faults, want_faults,
            "fault accounting does not match the class contract: {line}"
        );
        assert_eq!(field(line, "expected"), trials.to_string(), "expected != trials: {line}");
        assert_eq!(
            field(line, "confirmed"),
            field(line, "expected"),
            "an attack trial went unconfirmed: {line}"
        );
        assert_eq!(
            field(line, "victim_clean"),
            field(line, "victim_requests"),
            "cross-connection damage: a victim saw a non-accept verdict: {line}"
        );
    }
}

#[test]
fn busy_storm_conserves_every_request() {
    let json = committed_json();
    let s = section(&json, "busy_storm");
    let submitted: u64 = field(s, "submitted").parse().unwrap();
    let queue_cap: u64 = field(s, "queue_cap").parse().unwrap();
    let busy: u64 = field(s, "busy").parse().unwrap();
    let verified: u64 = field(s, "verified").parse().unwrap();
    assert_eq!(busy + verified, submitted, "a storm request vanished unanswered");
    assert!(busy > 0, "the storm never overflowed the queue — not a backpressure test");
    assert!(verified >= queue_cap, "fewer verdicts than the queue could hold");
}

#[test]
fn drain_completed_every_accepted_request() {
    let json = committed_json();
    let s = section(&json, "drain");
    let requests: u64 = field(s, "requests").parse().unwrap();
    let completed: u64 = field(s, "completed").parse().unwrap();
    assert!(requests > 0, "degenerate drain probe");
    assert_eq!(completed, requests, "graceful drain lost an accepted request");
    assert_eq!(field(s, "stats_ok"), "true", "final stats frame missing or not drained=ok");
}

/// Replays the determinism probe at one worker thread against a live
/// server and compares the response-record digest with the committed
/// one. Any drift in the serve pipeline, the frame layer, the wire
/// codec, or the protocols shows up here as a digest mismatch.
#[test]
fn determinism_digest_replays_against_a_live_server() {
    let json = committed_json();
    let s = section(&json, "determinism");
    assert_eq!(field(s, "identical"), "true", "thread-variant responses committed");
    assert_eq!(field(s, "threads"), "[1, 4]", "determinism grid drifted");
    let requests: u64 = field(s, "requests").parse().unwrap();
    let (digest, replayed_requests) =
        determinism_probe(E13_SEED, 1).expect("determinism replay against a live server");
    assert_eq!(replayed_requests as u64, requests, "request mix drifted");
    assert_eq!(
        format!("{digest:016x}"),
        field(s, "digest"),
        "replayed digest diverges from committed artifact — regenerate with `pdip serve-chaos --smoke`"
    );
}

#[test]
fn throughput_is_reported_and_positive() {
    // rps is wall-clock data: assert it parses and is positive, nothing
    // more. Byte-comparing it would make the artifact machine-dependent.
    let json = committed_json();
    let s = section(&json, "throughput");
    assert!(field(s, "requests").parse::<u64>().unwrap() > 0);
    assert!(field(s, "rps").parse::<f64>().unwrap() > 0.0, "zero measured throughput");
}
