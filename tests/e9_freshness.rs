//! Freshness and soundness guard for the committed `results/e9_chaos.json`.
//!
//! The E9 chaos sweep is deterministic (counter-mode SplitMix64 streams,
//! thread-count-invariant aggregation), so the committed artifact must
//! stay consistent with the code that claims to produce it. This guard
//! checks the committed report without re-running the full grid:
//!
//! * the schema parses and every header field is present,
//! * the cell grid covers exactly the supported (target, mutator) pairs,
//! * every deterministic corruption class has detection rate 1.0 with
//!   zero misses, every probabilistic one meets its threshold, and
//! * the sweep recorded zero panics and an overall pass.
//!
//! Regenerate with `cargo run --release --bin pdip -- chaos` after any
//! change to the protocols, the mutators, or the harness seeds.

mod common;

use common::field;
use pdip_engine::chaos::{build_target, MUTATORS, TARGETS};

fn committed_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/e9_chaos.json"))
        .expect("results/e9_chaos.json must be committed; regenerate with `pdip chaos`")
}

#[test]
fn committed_e9_schema_parses_and_passes() {
    let json = committed_json();
    assert!(json.contains("\"experiment\": \"e9-chaos\""));
    for key in ["\"n\":", "\"trials_per_cell\":", "\"base_seed\":", "\"prob_threshold\":"] {
        assert!(json.contains(key), "header field {key} missing");
    }
    assert!(json.contains("\"zero_panics\": true"), "committed sweep must be panic-free");
    assert!(json.contains("\"all_pass\": true"), "committed sweep must pass every cell");

    for line in json.lines().filter(|l| l.trim_start().starts_with("{\"target\"")) {
        // Every cell carries the full schema and its own pass verdict.
        let class = field(line, "class");
        let missed: u64 = field(line, "missed").parse().unwrap();
        let panicked: u64 = field(line, "panicked").parse().unwrap();
        let rate: f64 = field(line, "rate").parse().unwrap();
        let threshold: f64 = field(line, "threshold").parse().unwrap();
        assert_eq!(field(line, "pass"), "true", "failing cell committed: {line}");
        assert_eq!(panicked, 0, "panicking cell committed: {line}");
        match class {
            "deterministic" => {
                assert_eq!(missed, 0, "deterministic class missed a corruption: {line}");
                assert!((rate - 1.0).abs() < 1e-9, "deterministic rate below 1.0: {line}");
            }
            "probabilistic" => {
                assert!(rate + 1e-9 >= threshold, "probabilistic rate under threshold: {line}");
            }
            other => panic!("unknown detection class {other:?}: {line}"),
        }
    }
}

#[test]
fn committed_e9_covers_the_full_supported_grid() {
    let json = committed_json();
    let cells: Vec<(String, String)> = json
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"target\""))
        .map(|l| (field(l, "target").to_string(), field(l, "mutator").to_string()))
        .collect();
    assert!(!cells.is_empty(), "no cells in committed report");

    // Exactly the supported (target, mutator) pairs, each exactly once,
    // and every mutator class exercised somewhere.
    let mut expected = Vec::new();
    for &id in &TARGETS {
        let target = build_target(id, 8, 0);
        for kind in MUTATORS {
            if target.supports(kind) {
                expected.push((id.name().to_string(), kind.name().to_string()));
            }
        }
    }
    for pair in &expected {
        assert_eq!(
            cells.iter().filter(|c| *c == pair).count(),
            1,
            "cell {pair:?} missing or duplicated in committed report"
        );
    }
    assert_eq!(cells.len(), expected.len(), "committed report has unexpected extra cells");
    for kind in MUTATORS {
        assert!(
            cells.iter().any(|(_, m)| m == kind.name()),
            "mutator class {} absent from committed report",
            kind.name()
        );
    }
}
