//! Freshness guard for the committed `results/bench_round.json`.
//!
//! Timings are machine-dependent, so this does not re-run the round; it
//! checks that the committed document still parses under the current
//! schema (writer and parser live together in `pdip_bench::snapshot`,
//! so drift in either fails here), that it is a full-grid run with a
//! stage breakdown covering every instrumented round stage, that the
//! baseline column still matches the pre-optimization levels pinned in
//! `COMMITTED_BASELINE_NS`, and that it witnesses the intra-job parallel
//! + lane-batched + arena round speedup.
//!
//! The witness level is >= 2x at every grid size. The ISSUE 7 target was
//! 5x @ 10^5 assuming the engine's worker pool could back intra-job
//! parallelism with real cores; the reference container is single-core
//! (`nproc` = 1), so the committed snapshot records what the lane-batched
//! LR commitments, arena-backed labels and chunked loops achieve without
//! thread-level parallelism (~2.6x @ 10^5). EXPERIMENTS.md documents the
//! gap; re-run `pdip bench-round` on a multi-core box to close it.

use pdip_bench::roundbench::{committed_baseline_ns, ROUND_STAGES};
use pdip_bench::snapshot::{Snapshot, ROUND};

#[test]
fn committed_bench_round_snapshot_parses_and_witnesses_the_speedup() {
    let doc =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/bench_round.json"))
            .expect("results/bench_round.json must be committed");
    let parsed = Snapshot::parse(&doc, &ROUND).expect("committed snapshot must parse");
    assert_eq!(parsed.header, "full", "committed snapshot must be a full run");

    // Full acceptance grid, one planarity_round entry per size, each
    // measured against the frozen pre-optimization baseline.
    for n in [1_000usize, 10_000, 100_000] {
        let e = parsed
            .entries
            .iter()
            .find(|e| e.name == "planarity_round" && e.n == n)
            .unwrap_or_else(|| panic!("missing planarity_round entry at n = {n}"));
        let (base, fast) = (e.baseline_ns, e.fast_ns);
        let frozen =
            committed_baseline_ns(n).unwrap_or_else(|| panic!("no committed baseline for n = {n}"));
        assert!(
            (base - frozen).abs() < 0.5,
            "baseline column at n = {n} must be the frozen pre-optimization \
             level {frozen} ns, snapshot says {base} ns"
        );
        let speedup = base / fast;
        assert!(
            speedup >= 2.0,
            "committed snapshot must witness >= 2x at n = {n}, got {speedup:.2}x"
        );
    }

    // The stage breakdown must cover every instrumented stage at every
    // grid size so the profiler view stays complete.
    for stage in ROUND_STAGES {
        for n in [1_000usize, 10_000, 100_000] {
            assert!(
                parsed.stages.iter().any(|r| r.stage == stage && r.n == n),
                "missing stage row {stage} at n = {n}"
            );
        }
    }
    // Shares within one size must roughly cover the round (they are
    // measured on separate profiled runs, so allow generous slack).
    for n in [1_000usize, 10_000, 100_000] {
        let total: f64 = parsed.stages.iter().filter(|r| r.n == n).map(|r| r.share).sum();
        assert!(
            (0.5..=1.5).contains(&total),
            "stage shares at n = {n} should roughly sum to 1, got {total:.2}"
        );
    }
}
