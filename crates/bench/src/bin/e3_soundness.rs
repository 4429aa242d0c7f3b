//! E3 — empirical soundness: cheating provers vs no-instances.
//!
//! Theorems 1.2–1.7 claim soundness error 1/polylog n. For each family we
//! generate structured no-instances, run every implemented cheating
//! strategy many times, and report acceptance rates at two instance
//! sizes — the rates should be small and *shrink* as n grows (larger
//! fields and longer tags).
//!
//! The two big grids (E3 and E3b: families × cheats × sizes × 80 trials)
//! execute on the `pdip-engine` worker pool (`--threads N`); the legacy
//! per-trial seed formulas are reproduced via [`SeedMode::Explicit`], so
//! the tables match the historical serial output byte for byte. E3c/E3d
//! isolate single probabilistic events and stay serial.

use pdip_bench::{reporter_from_args, threads_flag, FAMILIES};
use pdip_engine::{Engine, JobCoords, Prover, ProverSpec, SeedMode, SweepOutcome, SweepSpec};
use pdip_obs::NoopRecorder;
use pdip_protocols::{PopParams, Transport};

/// The historical E3 seeds: instances from `t * 31 + n`, runs from `t`.
fn e3_seeds(c: &JobCoords) -> (u64, u64) {
    (c.trial * 31 + c.n as u64, c.trial)
}

/// The historical E3b seeds: instances from `t * 37 + n`, runs from `t`.
fn e3b_seeds(c: &JobCoords) -> (u64, u64) {
    (c.trial * 37 + c.n as u64, c.trial)
}

/// Renders one `(family, cheat, per-size acceptance rates)` table from
/// the sweep records: rows in family × cheat-index order, one rate cell
/// per instance size.
fn cheat_rate_rows(outcome: &SweepOutcome, sizes: &[usize], trials: u64) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for fam in FAMILIES {
        for (s, cheat_name) in fam.cheat_names().into_iter().enumerate() {
            let mut row = vec![fam.name().to_string(), cheat_name];
            for &n in sizes {
                let accepted = outcome
                    .records
                    .iter()
                    .filter(|r| {
                        r.family == fam && r.n == n && r.prover == Prover::Cheat(s) && r.accepted
                    })
                    .count() as u64;
                row.push(format!("{:.1}%", 100.0 * accepted as f64 / trials as f64));
            }
            rows.push(row);
        }
    }
    rows
}

fn main() {
    let threads = threads_flag();
    let trials = 80u64;
    let mut rep = reporter_from_args();
    rep.line(&format!("E3 — cheating-prover acceptance rates ({trials} trials per cell)\n"));
    let sizes = [60usize, 300];
    let spec = SweepSpec {
        families: FAMILIES.to_vec(),
        sizes: sizes.to_vec(),
        provers: vec![ProverSpec::AllCheats],
        trials,
        seeds: SeedMode::Explicit(e3_seeds),
        ..SweepSpec::default()
    };
    let outcome = Engine::with_threads(threads).run(&spec, &NoopRecorder);
    assert!(outcome.failures.is_empty(), "E3 jobs must not panic: {:?}", outcome.failures);
    let headers = ["protocol", "cheat", "rate @ n~60", "rate @ n~300"];
    rep.table(&headers, &cheat_rate_rows(&outcome, &sizes, trials));
    rep.line(
        "\nShape check: every rate is far below 50% and the n~300 column is at most\n\
         the n~60 column (up to sampling noise) — the 1/polylog n soundness error\n\
         shrinks with n. Deterministically-caught cheats read 0.0%.\n",
    );
    rep.summary(&outcome.metrics);
    rep.line("");

    // At the paper's default parameters (c = 3) the error is ~log^-3 n —
    // invisible at this trial count. Weakening the fields to c = 1 and a
    // single spanning-tree repetition makes the 1/polylog n decay visible.
    rep.line(&format!("E3b — weakened parameters (c = 1, 1 ST repetition), {trials} trials\n"));
    let weak = PopParams { c: 1, st_repetitions: 1 };
    let sizes_b = [60usize, 300, 1200];
    let spec_b = SweepSpec {
        families: FAMILIES.to_vec(),
        sizes: sizes_b.to_vec(),
        provers: vec![ProverSpec::AllCheats],
        trials,
        seeds: SeedMode::Explicit(e3b_seeds),
        params: weak,
        ..SweepSpec::default()
    };
    let outcome_b = Engine::with_threads(threads).run(&spec_b, &NoopRecorder);
    assert!(outcome_b.failures.is_empty(), "E3b jobs must not panic: {:?}", outcome_b.failures);
    let headers = ["protocol", "cheat", "rate @ n~60", "rate @ n~300", "rate @ n~1200"];
    rep.table(&headers, &cheat_rate_rows(&outcome_b, &sizes_b, trials));
    rep.line(
        "\nMost composite cheats trip several independent checks at once, so even\n\
         weakened parameters leave them near 0%. The remaining sections isolate\n\
         single probabilistic events to expose the raw 1/polylog n error.\n",
    );
    rep.summary(&outcome_b.metrics);
    rep.line("");

    // --- E3c: LR-sorting, the pure field-collision events ---
    rep.line("E3c — LR-sorting cheats at c = 1 (single collision events), 300 trials\n");
    use pdip_graph::gen;
    use pdip_protocols::{LrCheat, LrParams, LrSorting};
    let headers = ["cheat", "n=64", "n=1024", "n=16384"];
    let mut rows = Vec::new();
    for cheat in [LrCheat::ClaimInner, LrCheat::OuterForgedIndex, LrCheat::SwapBlockPositions] {
        let mut cells = vec![format!("{cheat:?}")];
        for n in [64usize, 1024, 16384] {
            let mut accepted = 0u32;
            let mut ran = 0u32;
            for t in 0..300u64 {
                use rand::SeedableRng as _;
                let mut rng = rand::rngs::SmallRng::seed_from_u64(t * 13 + n as u64);
                let Some(no) = gen::lr::random_lr_no(n, n / 3, true, 1, &mut rng) else {
                    continue;
                };
                ran += 1;
                let lr = LrSorting::new(&no, LrParams { c: 1, block_len: None }, Transport::Native);
                if lr.run(Some(cheat), t, &NoopRecorder).accepted() {
                    accepted += 1;
                }
            }
            cells.push(format!("{:.1}%", 100.0 * accepted as f64 / ran.max(1) as f64));
        }
        rows.push(cells);
    }
    rep.table(&headers, &rows);
    rep.line(
        "\nWith c = 1 the collision events survive a visible few percent of runs\n\
         (each cheat also trips auxiliary checks, so rates sit below the raw 1/p).\n\
         The clean single-event decay is isolated in E3d below and in the c-sweep\n\
         of E8b.\n",
    );

    // --- E3d: the spanning-tree prime-collision event ---
    rep.line("E3d — fake-path with exactly one extra root (Lemma 2.5 event), 300 trials\n");
    use pdip_protocols::{PathOuterplanarity, PopCheat, PopInstance};
    let headers = ["n", "window primes", "predicted 1/#primes", "measured acceptance"];
    let mut rows = Vec::new();
    for n in [64usize, 1024, 16384, 65536] {
        // A path with a single pendant node: outerplanar, no Hamiltonian
        // path, and the greedy fake path misses exactly the pendant.
        let mut g = pdip_graph::Graph::from_edges(n - 1, (0..n - 2).map(|i| (i, i + 1)));
        let pend = g.add_node();
        g.add_edge(n / 2, pend);
        let inst = PopInstance { graph: g, witness: None, is_yes: false };
        let params = PopParams { c: 2, st_repetitions: 1 };
        let p = PathOuterplanarity::new(&inst, params, Transport::Native);
        let mut accepted = 0u32;
        for t in 0..300u64 {
            if p.run(Some(PopCheat::FakePath), t, &NoopRecorder).accepted() {
                accepted += 1;
            }
        }
        let st =
            pdip_protocols::SpanningTreeVerification::new(pdip_protocols::StParams::for_n(n, 2, 1));
        let primes = st.primes().len();
        rows.push(vec![
            n.to_string(),
            primes.to_string(),
            format!("{:.1}%", 100.0 / primes as f64),
            format!("{:.1}%", 100.0 * accepted as f64 / 300.0),
        ]);
    }
    rep.table(&headers, &rows);
    rep.line(
        "\nThe measured acceptance matches the predicted prime-collision probability\n\
         and shrinks as the window (log^c n) grows — the 1/polylog n error, live.",
    );
}
