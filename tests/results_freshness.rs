//! Freshness guard for the committed `results/e3_soundness.txt`.
//!
//! The E3 grids are deterministic (explicit per-job seed formulas, engine
//! records re-sorted into grid order), so any cell of the committed table
//! can be reproduced exactly by re-running just that cell. This test
//! re-runs the smallest one (path-outerplanarity at n ~ 60, every cheat,
//! 80 trials) with the registry's own seed formula and checks the
//! acceptance rates against the file. Regenerate with `pdip exp e3`.

use pdip_bench::exp;
use pdip_engine::{Engine, Family, Prover, ProverSpec, SeedMode, SweepSpec};
use pdip_obs::NoopRecorder;
use std::path::Path;

/// The committed artifact of entry `id` with extension `ext`, found
/// through the experiment registry.
fn committed(id: &str, ext: &str) -> String {
    let entry = exp::find(id).unwrap_or_else(|| panic!("no registry entry {id}"));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(entry.path(ext));
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{} must be committed ({e}); regenerate with `pdip exp {id}`", path.display())
    })
}

#[test]
fn committed_e3_table_matches_rerun_of_smallest_cell() {
    let text = committed("e3", "txt");

    // The path-outerplanarity rows of the first (E3) table:
    // family, cheat, rate @ n~60, rate @ n~300.
    let e3_section = text.split("E3b").next().expect("E3 section");
    let committed_rows: Vec<(String, String)> = e3_section
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("path-outerplanarity"))
        .map(|l| {
            let cells: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(cells.len(), 4, "unexpected row shape: {l}");
            (cells[1].to_string(), cells[2].to_string())
        })
        .collect();
    assert!(!committed_rows.is_empty(), "no path-outerplanarity rows found");

    let trials = 80u64;
    let spec = SweepSpec {
        families: vec![Family::PathOuterplanar],
        sizes: vec![60],
        provers: vec![ProverSpec::AllCheats],
        trials,
        seeds: SeedMode::Explicit(exp::paper::e3_seeds),
        ..SweepSpec::default()
    };
    let outcome = Engine::with_threads(1).run(&spec, &NoopRecorder);
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);

    let cheat_names = Family::PathOuterplanar.cheat_names();
    assert_eq!(
        committed_rows.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>(),
        cheat_names,
        "cheat rows in the committed table differ from the implemented cheats"
    );
    for (s, (cheat, committed_rate)) in committed_rows.iter().enumerate() {
        let accepted =
            outcome.records.iter().filter(|r| r.prover == Prover::Cheat(s) && r.accepted).count();
        let fresh = format!("{:.1}%", 100.0 * accepted as f64 / trials as f64);
        assert_eq!(
            &fresh, committed_rate,
            "stale results/e3_soundness.txt: {cheat} @ n~60 is {fresh} on rerun; \
             regenerate with `pdip exp e3`"
        );
    }
}
