//! Freshness and envelope guard for the committed `results/e10_trace.json`.
//!
//! The E10 trace audit is deterministic (honest-only grid, streamed
//! per-job seeds, record-ordered event aggregation), so the committed
//! artifact must stay consistent with the code that claims to produce
//! it. This guard checks the committed report without re-running the
//! full n=1024 grid:
//!
//! * the schema parses, the header says all-pass with zero audit errors,
//! * the cell grid covers exactly families × sizes, each cell once,
//! * every cell's envelope matches `envelope_bits(family, n)` and its
//!   round maxima sit inside it, and
//! * the smallest cell is re-executed with the committed seeds and its
//!   traced bits must match the committed numbers byte-for-byte.
//!
//! Regenerate with `cargo run --release --bin pdip -- trace` after any
//! change to the protocols, the instrumentation, or the engine seeds.

mod common;

use common::field;
use pdip_engine::{envelope_bits, execute_job, Family, TraceSpec, WorkerScratch, FAMILIES};
use pdip_obs::{CollectingRecorder, SpanId};

fn committed_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/e10_trace.json"))
        .expect("results/e10_trace.json must be committed; regenerate with `pdip trace`")
}

/// Parses a `[a, b, c]` list field into integers.
fn int_list(raw: &str) -> Vec<u64> {
    raw.trim_start_matches('[')
        .trim_end_matches(']')
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().expect("integer list entry"))
        .collect()
}

fn cell_lines(json: &str) -> Vec<&str> {
    json.lines().filter(|l| l.trim_start().starts_with("{\"family\"")).collect()
}

#[test]
fn committed_e10_schema_parses_and_passes() {
    let json = committed_json();
    assert!(json.contains("\"experiment\": \"e10-trace\""));
    for key in ["\"sizes\":", "\"trials_per_cell\":", "\"base_seed\":"] {
        assert!(json.contains(key), "header field {key} missing");
    }
    assert!(json.contains("\"all_pass\": true"), "committed audit must pass");
    assert!(json.contains("\"audit_errors\": 0"), "committed audit must be error-free");

    for line in cell_lines(&json) {
        assert_eq!(field(line, "pass"), "true", "failing cell committed: {line}");
        let n: usize = field(line, "n").parse().unwrap();
        let family = FAMILIES
            .iter()
            .copied()
            .find(|f| f.name() == field(line, "family"))
            .unwrap_or_else(|| panic!("unknown family in: {line}"));
        let envelope: u64 = field(line, "envelope_bits").parse().unwrap();
        assert_eq!(
            envelope,
            envelope_bits(family, n) as u64,
            "cell envelope drifted from envelope_bits(): {line}"
        );
        let round_max = int_list(field(line, "round_max_bits"));
        let proof: u64 = field(line, "proof_size_bits").parse().unwrap();
        assert!(!round_max.is_empty(), "cell with no rounds: {line}");
        assert!(proof > 0, "cell with zero proof bits: {line}");
        for (i, &bits) in round_max.iter().enumerate() {
            assert!(
                bits <= envelope,
                "round {} max {} exceeds envelope {}: {line}",
                i + 1,
                bits,
                envelope
            );
        }
        assert_eq!(
            round_max.iter().copied().max().unwrap(),
            proof,
            "proof size must be the max over rounds: {line}"
        );
    }
}

#[test]
fn committed_e10_covers_the_full_grid() {
    let json = committed_json();
    let spec = TraceSpec::full();
    let cells: Vec<(String, usize)> = cell_lines(&json)
        .iter()
        .map(|l| (field(l, "family").to_string(), field(l, "n").parse().unwrap()))
        .collect();
    for &f in &FAMILIES {
        for &n in &spec.sizes {
            let pair = (f.name().to_string(), n);
            assert_eq!(
                cells.iter().filter(|c| **c == pair).count(),
                1,
                "cell {pair:?} missing or duplicated in committed report"
            );
        }
    }
    assert_eq!(cells.len(), FAMILIES.len() * spec.sizes.len(), "unexpected extra cells");
    for line in cell_lines(&json) {
        assert_eq!(
            field(line, "runs").parse::<u64>().unwrap(),
            spec.trials,
            "cell run count drifted from TraceSpec::full(): {line}"
        );
    }
}

/// Re-executes the committed grid's smallest cell (path-outerplanarity,
/// n = 64) with the exact per-job seeds of the full sweep and compares
/// the traced bits against the committed numbers.
#[test]
fn smallest_cell_replays_to_committed_bits() {
    let json = committed_json();
    let spec = TraceSpec::full();
    let sweep = spec.sweep();
    let n0 = *spec.sizes.iter().min().unwrap();
    let jobs: Vec<_> = sweep
        .expand()
        .into_iter()
        .filter(|j| j.coords.family == Family::PathOuterplanar && j.coords.n == n0)
        .collect();
    assert_eq!(jobs.len() as u64, spec.trials);

    let rec = CollectingRecorder::new();
    let mut scratch = WorkerScratch::new();
    let mut round_max = vec![0u64; 3];
    let mut proof = 0u64;
    let mut coins = 0u64;
    for job in &jobs {
        let r = execute_job(&sweep, job, &mut scratch, &rec).expect("job quarantined");
        assert!(r.accepted, "honest run rejected during replay");
        proof = proof.max(r.proof_size_bits as u64);
        coins = coins.max(r.coin_bits as u64);
    }
    let trace = rec.drain();
    for job in &jobs {
        for (i, slot) in round_max.iter_mut().enumerate() {
            let id = SpanId::at(Family::PathOuterplanar.name(), (i + 1) as u64);
            *slot = (*slot).max(trace.counter_total(job.coords.index, id, "round_max_bits"));
        }
    }

    let line = cell_lines(&json)
        .into_iter()
        .find(|l| {
            field(l, "family") == Family::PathOuterplanar.name() && field(l, "n") == n0.to_string()
        })
        .expect("smallest cell missing from committed report");
    assert_eq!(
        int_list(field(line, "round_max_bits")),
        round_max,
        "replayed round maxima diverge from committed artifact — regenerate with `pdip trace`"
    );
    assert_eq!(field(line, "proof_size_bits").parse::<u64>().unwrap(), proof);
    assert_eq!(field(line, "coin_bits").parse::<u64>().unwrap(), coins);
}
