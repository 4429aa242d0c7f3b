//! E2 — rounds and perfect completeness.
//!
//! Theorems 1.2–1.7 claim 5 interaction rounds and perfect completeness.
//! This binary runs every protocol on a suite of yes-instances across
//! sizes and seeds and reports acceptance counts (must be 100%) and round
//! counts (must be 5; the PLS baseline is 1).
//!
//! The grid executes on the `pdip-engine` worker pool (`--threads N`);
//! the legacy per-cell seed formulas are reproduced via
//! [`SeedMode::Explicit`], so the table matches the historical serial
//! output byte for byte.

use pdip_bench::{reporter_from_args, threads_flag, FAMILIES};
use pdip_engine::{Engine, JobCoords, ProverSpec, SeedMode, SweepSpec};
use pdip_obs::NoopRecorder;

/// The historical E2 seeds: instances from `seed * 7919 + n`, runs from
/// the per-size seed index (here the engine trial number).
fn e2_seeds(c: &JobCoords) -> (u64, u64) {
    (c.trial * 7919 + c.n as u64, c.trial)
}

fn main() {
    let sizes = [32usize, 128, 512, 2048];
    let seeds_per_size = 8u64;
    let mut rep = reporter_from_args();
    rep.line("E2 — rounds and perfect completeness (honest prover)\n");

    let spec = SweepSpec {
        families: FAMILIES.to_vec(),
        sizes: sizes.to_vec(),
        provers: vec![ProverSpec::Honest],
        trials: seeds_per_size,
        seeds: SeedMode::Explicit(e2_seeds),
        ..SweepSpec::default()
    };
    let outcome = Engine::with_threads(threads_flag()).run(&spec, &NoopRecorder);
    assert!(outcome.failures.is_empty(), "E2 jobs must not panic: {:?}", outcome.failures);

    let headers = ["protocol", "rounds", "runs", "accepted", "rate"];
    let mut rows = Vec::new();
    for fam in FAMILIES {
        let mut runs = 0u64;
        let mut accepted = 0u64;
        let mut rounds = 0usize;
        for r in outcome.records.iter().filter(|r| r.family == fam) {
            rounds = r.rounds;
            runs += 1;
            if r.accepted {
                accepted += 1;
            }
        }
        rows.push(vec![
            fam.name().to_string(),
            rounds.to_string(),
            runs.to_string(),
            accepted.to_string(),
            format!("{:.1}%", 100.0 * accepted as f64 / runs as f64),
        ]);
        assert_eq!(runs, accepted, "completeness violated for {}", fam.name());
    }
    rep.table(&headers, &rows);
    rep.line("\nEvery rate must read 100.0% — the theorems claim perfect completeness.\n");
    rep.summary(&outcome.metrics);
}
