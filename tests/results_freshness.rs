//! Freshness guard for the committed `results/e3_soundness.txt`.
//!
//! The E3 grids are deterministic (explicit per-job seed formulas, engine
//! records re-sorted into grid order), so any cell of the committed table
//! can be reproduced exactly by re-running just that cell. This test
//! re-runs the smallest one — path-outerplanarity at n ≈ 60, every cheat,
//! 80 trials — and checks the acceptance rates against the file, failing
//! if the snapshot drifts from the code that claims to produce it.

use pdip_engine::{Engine, Family, JobCoords, Prover, ProverSpec, SeedMode, SweepSpec};
use pdip_obs::NoopRecorder;

/// The E3 seed formula (mirrors `e3_soundness.rs`): instance seeds from
/// `trial * 31 + n`, run seeds from `trial` — independent of the grid
/// index, so a reduced grid reproduces the full run's cells.
fn e3_seeds(c: &JobCoords) -> (u64, u64) {
    (c.trial * 31 + c.n as u64, c.trial)
}

#[test]
fn committed_e3_table_matches_rerun_of_smallest_cell() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/e3_soundness.txt"))
            .expect("results/e3_soundness.txt must be committed");

    // The path-outerplanarity rows of the first (E3) table:
    // family, cheat, rate @ n~60, rate @ n~300.
    let e3_section = text.split("E3b").next().expect("E3 section");
    let committed: Vec<(String, String)> = e3_section
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("path-outerplanarity"))
        .map(|l| {
            let cells: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(cells.len(), 4, "unexpected row shape: {l}");
            (cells[1].to_string(), cells[2].to_string())
        })
        .collect();
    assert!(!committed.is_empty(), "no path-outerplanarity rows found");

    let trials = 80u64;
    let spec = SweepSpec {
        families: vec![Family::PathOuterplanar],
        sizes: vec![60],
        provers: vec![ProverSpec::AllCheats],
        trials,
        seeds: SeedMode::Explicit(e3_seeds),
        ..SweepSpec::default()
    };
    let outcome = Engine::with_threads(1).run(&spec, &NoopRecorder);
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);

    let cheat_names = Family::PathOuterplanar.cheat_names();
    assert_eq!(
        committed.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>(),
        cheat_names,
        "cheat rows in the committed table differ from the implemented cheats"
    );
    for (s, (cheat, committed_rate)) in committed.iter().enumerate() {
        let accepted =
            outcome.records.iter().filter(|r| r.prover == Prover::Cheat(s) && r.accepted).count();
        let fresh = format!("{:.1}%", 100.0 * accepted as f64 / trials as f64);
        assert_eq!(
            &fresh, committed_rate,
            "stale results/e3_soundness.txt: {cheat} @ n~60 is {fresh} on rerun; \
             regenerate with `cargo run --release -p pdip-bench --bin e3_soundness`"
        );
    }
}
