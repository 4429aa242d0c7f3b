//! The paper's experiments, E1–E8: one generator per claim of Theorems
//! 1.2–1.8. Each renders its table through a [`Reporter::buffered`], so
//! the returned text is exactly the committed `results/eN_*.txt`; the
//! `[engine]` summary lines of the E1–E3 grids are scheduling-dependent
//! and go to the run's stdout-only notes.
//!
//! The E1–E3 grids execute on the `pdip-engine` worker pool (`--threads
//! N`; deterministic at any worker count). Their per-cell seed formulas
//! are reproduced via [`SeedMode::Explicit`], so the tables match the
//! historical serial output byte for byte.

use super::{threads, Opts, Output};
use pdip_core::DipProtocol;
use pdip_engine::{
    Engine, Family, Instance, JobCoords, Prover, ProverSpec, Reporter, SeedMode, SweepOutcome,
    SweepSpec, FAMILIES,
};
use pdip_graph::gen;
use pdip_obs::NoopRecorder;
use pdip_protocols::lower_bound::{
    attempt_forgery, forgery_threshold, full_width_rejects_crossing,
};
use pdip_protocols::{
    pls_baseline, EmbInstance, EmbeddedPlanarity, LrCheat, LrParams, LrSorting, PathOuterplanarity,
    PlInstance, Planarity, PopCheat, PopInstance, PopParams, Transport,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// An [`Output`] holding one text artifact.
fn text(rep: Reporter, notes: Vec<String>) -> Output {
    Output { files: vec![rep.into_string()], notes, passed: true }
}

/// E1 — proof size vs n: the headline comparison of the paper.
///
/// Theorems 1.2–1.7 claim O(log log n)-bit interactive proofs (plus
/// O(log Δ) for planarity), against the Θ(log n)-bit one-round PLS state
/// of the art (FFM+21). This measures the honest prover's longest label
/// across all six families and the PLS baselines over a sweep of n.
/// Instances come from seed `11 + n`, runs from seed `5`.
pub fn e1(o: &Opts) -> Output {
    let sizes: Vec<usize> = (8..=16).step_by(2).map(|k| 1usize << k).collect();
    let mut rep = Reporter::buffered();
    rep.line("E1 — proof size (bits of the longest honest label) vs n\n");

    let spec = SweepSpec {
        families: FAMILIES.to_vec(),
        sizes: sizes.clone(),
        provers: vec![ProverSpec::Honest],
        trials: 1,
        seeds: SeedMode::Explicit(|c| (11 + c.n as u64, 5)),
        ..SweepSpec::default()
    };
    let outcome = Engine::with_threads(threads(o)).run(&spec, &NoopRecorder);
    assert!(outcome.failures.is_empty(), "E1 jobs must not panic: {:?}", outcome.failures);
    for r in &outcome.records {
        assert!(r.accepted, "{} n={} rejected an honest run", r.family.name(), r.n);
    }
    let proof_size = |fam, n| {
        outcome
            .records
            .iter()
            .find(|r| r.family == fam && r.n == n)
            .expect("record for every grid cell")
            .proof_size_bits
    };

    let mut headers = vec!["n", "log2 n", "loglog n"];
    for f in FAMILIES {
        headers.push(f.name());
    }
    headers.push("PLS path-op");
    headers.push("PLS embedded");
    let mut rows = Vec::new();
    for &n in &sizes {
        let mut row = vec![
            n.to_string(),
            format!("{:.0}", (n as f64).log2()),
            format!("{:.2}", (n as f64).log2().log2()),
        ];
        for fam in FAMILIES {
            row.push(proof_size(fam, n).to_string());
        }
        // Baselines (cheap one-shot runs; kept off the engine grid).
        let mut rng = SmallRng::seed_from_u64(n as u64);
        let g = gen::outerplanar::random_path_outerplanar(n, 0.6, &mut rng);
        let pls = pls_baseline::PlsPathOuterplanar {
            graph: &g.graph,
            witness: Some(&g.path),
            is_yes: true,
        };
        row.push(pls.run().stats.proof_size().to_string());
        let pg = gen::planar::random_planar(n.min(1 << 13), 0.5, &mut rng);
        let plse =
            pls_baseline::PlsEmbeddedPlanarity { graph: &pg.graph, rho: &pg.rho, is_yes: true };
        row.push(plse.run().stats.proof_size().to_string());
        rows.push(row);
    }
    rep.table(&headers, &rows);
    rep.line(
        "\nShape check: DIP columns grow with loglog n (a few bits per row); the PLS\n\
         columns grow with log n (~9·log n and ~45·log n respectively). With these\n\
         constant factors the absolute crossover sits near n = 2^30; the paper's\n\
         claim is the asymptotic separation, which the slopes show directly.\n\
         The embedded-planarity/planarity columns ride the h(G,T,ρ) simulation\n\
         (x5 per-node copies), and planarity adds its O(log Δ) rotation term.",
    );
    text(rep, vec![outcome.metrics.summary_line()])
}

/// E2 — rounds and perfect completeness.
///
/// Theorems 1.2–1.7 claim 5 interaction rounds and perfect completeness.
/// This runs every protocol on a suite of yes-instances across sizes and
/// seeds and reports acceptance counts (must be 100%) and round counts
/// (must be 5). Instances come from seed `trial * 7919 + n`, runs from
/// the trial number.
pub fn e2(o: &Opts) -> Output {
    let sizes = [32usize, 128, 512, 2048];
    let mut rep = Reporter::buffered();
    rep.line("E2 — rounds and perfect completeness (honest prover)\n");

    let spec = SweepSpec {
        families: FAMILIES.to_vec(),
        sizes: sizes.to_vec(),
        provers: vec![ProverSpec::Honest],
        trials: 8,
        seeds: SeedMode::Explicit(|c| (c.trial * 7919 + c.n as u64, c.trial)),
        ..SweepSpec::default()
    };
    let outcome = Engine::with_threads(threads(o)).run(&spec, &NoopRecorder);
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
    rep.line("\nEvery rate must read 100.0% — the theorems claim perfect completeness.");
    text(rep, vec![outcome.metrics.summary_line()])
}

/// The E3 seeds: instances from `trial * 31 + n`, runs from `trial` —
/// independent of the grid index, so a reduced grid reproduces the full
/// run's cells.
pub fn e3_seeds(c: &JobCoords) -> (u64, u64) {
    (c.trial * 31 + c.n as u64, c.trial)
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

/// E3 — empirical soundness: cheating provers vs no-instances.
///
/// Theorems 1.2–1.7 claim soundness error 1/polylog n. For each family
/// every implemented cheating strategy runs many times on structured
/// no-instances, at two instance sizes — the rates should be small and
/// *shrink* as n grows (larger fields and longer tags). The two big grids
/// (E3 and E3b) run on the engine; E3c/E3d isolate single probabilistic
/// events and stay serial.
pub fn e3(o: &Opts) -> Output {
    let threads = threads(o);
    let trials = 80u64;
    let mut rep = Reporter::buffered();
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

    // At the paper's default parameters (c = 3) the error is ~log^-3 n —
    // invisible at this trial count. Weakening the fields to c = 1 and a
    // single spanning-tree repetition makes the 1/polylog n decay visible.
    // Instances come from seed `trial * 37 + n`, runs from the trial.
    rep.line(&format!("E3b — weakened parameters (c = 1, 1 ST repetition), {trials} trials\n"));
    let sizes_b = [60usize, 300, 1200];
    let spec_b = SweepSpec {
        families: FAMILIES.to_vec(),
        sizes: sizes_b.to_vec(),
        provers: vec![ProverSpec::AllCheats],
        trials,
        seeds: SeedMode::Explicit(|c| (c.trial * 37 + c.n as u64, c.trial)),
        params: PopParams { c: 1, st_repetitions: 1 },
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

    // --- E3c: LR-sorting, the pure field-collision events ---
    rep.line("E3c — LR-sorting cheats at c = 1 (single collision events), 300 trials\n");
    let headers = ["cheat", "n=64", "n=1024", "n=16384"];
    let mut rows = Vec::new();
    for cheat in [LrCheat::ClaimInner, LrCheat::OuterForgedIndex, LrCheat::SwapBlockPositions] {
        let mut cells = vec![format!("{cheat:?}")];
        for n in [64usize, 1024, 16384] {
            let mut accepted = 0u32;
            let mut ran = 0u32;
            for t in 0..300u64 {
                let mut rng = SmallRng::seed_from_u64(t * 13 + n as u64);
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
    let headers = ["n", "window primes", "predicted 1/#primes", "measured acceptance"];
    let mut rows = Vec::new();
    for n in [64usize, 1024, 16384, 65536] {
        let inst = pendant_path(n);
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
    text(rep, vec![outcome.metrics.summary_line(), outcome_b.metrics.summary_line()])
}

/// A path on `n - 1` nodes with one pendant node at its middle:
/// outerplanar, no Hamiltonian path, and the greedy fake path misses
/// exactly the pendant — so the fake-path cheat survives iff the two
/// claimed roots sample the same prime in every spanning-tree repetition.
fn pendant_path(n: usize) -> PopInstance {
    let mut g = pdip_graph::Graph::from_edges(n - 1, (0..n - 2).map(|i| (i, i + 1)));
    let pend = g.add_node();
    g.add_edge(n / 2, pend);
    PopInstance { graph: g, witness: None, is_yes: false }
}

/// E4 — Figure 2 of the paper: the reduction pipeline, run end to end.
///
/// The paper derives everything from LR-sorting:
///
/// ```text
///   LR-sorting (Lem 4.1) ──► path-outerplanarity (Thm 1.2)
///        │                          │           │
///        │                          ▼           ▼
///        │                 outerplanarity   embedded planarity (Thm 1.4)
///        │                  (Thm 1.3)              │
///        │                                        ▼
///        │                                  planarity (Thm 1.5)
///        └────────► series-parallel (Thm 1.6) ──► treewidth ≤ 2 (Thm 1.7)
/// ```
///
/// Every arrow runs with a live instance: the sub-protocol of each node
/// of the chart runs inside its successor.
pub fn e4(_: &Opts) -> Output {
    let mut rep = Reporter::buffered();
    rep.line("E4 — the Figure-2 dependency pipeline, exercised end to end\n");
    let n = 400;
    let mut rows = Vec::new();
    let mut rng = SmallRng::seed_from_u64(4);

    // The root of the chart: LR-sorting itself.
    let lr_inst = gen::lr::random_lr_yes(n, n / 2, true, &mut rng);
    let lr = LrSorting::new(&lr_inst, LrParams::default(), Transport::Native);
    let res = lr.run(None, 1, &NoopRecorder);
    rows.push(vec![
        "LR-sorting (Lemma 4.1)".into(),
        "—".into(),
        format!("{}", res.accepted()),
        res.stats.proof_size().to_string(),
    ]);
    assert!(res.accepted());

    // Each theorem node, which internally runs its predecessors.
    for (fam, depends) in [
        (Family::PathOuterplanar, "LR-sorting + path commitment + nesting"),
        (Family::Outerplanar, "path-outerplanarity per block (Thm 6.1)"),
        (Family::EmbeddedPlanarity, "path-outerplanarity on h(G,T,ρ) (Lem 7.1)"),
        (Family::Planarity, "embedded planarity + ρ distribution (Lem 7.2)"),
        (Family::SeriesParallel, "nesting per ear (Lem 8.1 decomposition)"),
        (Family::Treewidth2, "series-parallel per block (Lem 8.2)"),
    ] {
        let inst = Instance::generate(fam, n, 1234);
        let (ok, size) = inst.with_protocol(PopParams::default(), Transport::Native, |p| {
            let r = p.run_honest(2);
            (r.accepted(), r.stats.proof_size())
        });
        rows.push(vec![fam.name().into(), depends.into(), ok.to_string(), size.to_string()]);
        assert!(ok, "{} failed in the pipeline", fam.name());
    }
    rep.table(&["protocol", "built on", "accepted", "proof bits"], &rows);
    rep.line("\nEvery arrow of Figure 2 executed with a live instance. ✓");
    text(rep, Vec::new())
}

/// E5 — the Ω(log n) one-round lower bound (Theorem 1.8), measured.
///
/// For the one-round nesting scheme with names compressed to `b` bits,
/// the collision forgery of `pdip_protocols::lower_bound` produces an
/// accepted proof of a *crossing* instance whenever `2^b` fits inside the
/// path. The forgery threshold `b*(n)` — the largest compromised width —
/// tracks log₂ n, while the interactive protocol's labels (O(log log n))
/// stay far below it.
pub fn e5(_: &Opts) -> Output {
    let mut rep = Reporter::buffered();
    rep.line("E5 — forgery threshold of one-round schemes vs n (Theorem 1.8)\n");
    let headers = ["n", "log2 n", "forgery threshold b*", "log2 n - b*", "full width rejects"];
    let mut rows = Vec::new();
    for k in 6..=16 {
        let n = 1usize << k;
        let t = forgery_threshold(n);
        rows.push(vec![
            n.to_string(),
            k.to_string(),
            t.to_string(),
            (k as i64 - t as i64).to_string(),
            full_width_rejects_crossing(n).to_string(),
        ]);
    }
    rep.table(&headers, &rows);

    rep.line("\nPer-width detail at n = 4096:");
    let headers = ["name width b", "forgery outcome"];
    let mut rows = Vec::new();
    for b in 1..=13 {
        let outcome = match attempt_forgery(4096, b) {
            Some(true) => "ACCEPTED (forged no-instance proof)",
            Some(false) => "rejected",
            None => "infeasible (2^b exceeds the instance)",
        };
        rows.push(vec![b.to_string(), outcome.into()]);
    }
    rep.table(&headers, &rows);
    rep.line(
        "\nShape check: b*(n) = log2 n - Θ(1) — any one-round scheme whose names\n\
         carry o(log n) bits admits colliding arcs and forged proofs, matching the\n\
         Ω(log n) bound. The 5-round protocol evades this with per-run random\n\
         names: collisions can no longer be planted in advance.",
    );
    text(rep, Vec::new())
}

/// E6 — the Δ-dependence of the planarity proof (Theorem 1.5).
///
/// The planarity protocol pays O(log log n + log Δ): the rotation values
/// (ρ_u(e), ρ_v(e)) cost O(log Δ) bits in the first prover round. This
/// sweeps the planted maximum degree at fixed n, reporting the
/// first-round label size and the overall proof size. Embedded planarity
/// (Theorem 1.4, where the rotation is *input*, not proof) is shown for
/// contrast: its size is Δ-independent.
pub fn e6(_: &Opts) -> Output {
    let mut rep = Reporter::buffered();
    rep.line("E6 — planarity proof size vs maximum degree Δ (n = 2048)\n");
    let n = 2048;
    let headers = [
        "Δ (planted)",
        "Δ (actual)",
        "planarity round-1 bits",
        "planarity proof bits",
        "embedded round-1 bits",
    ];
    let mut rows = Vec::new();
    for target in [6usize, 16, 64, 256, 1024] {
        let mut rng = SmallRng::seed_from_u64(target as u64);
        // The fan generator pins the maximum degree exactly.
        let fan = gen::planar::fan_planar(n, target, &mut rng);
        let actual = fan.graph.max_degree();
        let pl_inst = PlInstance {
            graph: fan.graph.clone(),
            witness_rho: Some(fan.rho.clone()),
            is_yes: true,
        };
        let pl = Planarity::new(&pl_inst, PopParams::default(), Transport::Native);
        let res = pl.run_honest(3);
        assert!(res.accepted());
        let emb_inst = EmbInstance { graph: fan.graph, rho: fan.rho, is_yes: true };
        let emb = EmbeddedPlanarity::new(&emb_inst, PopParams::default(), Transport::Native);
        let eres = emb.run_honest(3);
        assert!(eres.accepted());
        rows.push(vec![
            target.to_string(),
            actual.to_string(),
            res.stats.per_round_max_bits[0].to_string(),
            res.stats.proof_size().to_string(),
            eres.stats.per_round_max_bits[0].to_string(),
        ]);
    }
    rep.table(&headers, &rows);
    rep.line(
        "\nShape check: the planarity round-1 column climbs by ~2 bits per doubling\n\
         of Δ (the 2·log Δ rotation pair); the embedded-planarity column is flat.\n\
         The overall proof size is dominated by the O(log log n) rounds until\n\
         log Δ overtakes them — exactly the open question 1 regime of the paper.",
    );
    text(rep, Vec::new())
}

/// E7 — LR-sorting internals: the per-round communication breakdown.
///
/// The key technical barrier of the paper (§3, §4) is LR-sorting. This
/// dissects the honest run: block length, field sizes, and the bits of
/// each of the three prover rounds, across instance sizes and both
/// edge-label transports (native / simulated via Lemma 2.4).
pub fn e7(_: &Opts) -> Output {
    let mut rep = Reporter::buffered();
    rep.line("E7 — LR-sorting per-round breakdown (honest prover)\n");
    let headers = [
        "n",
        "transport",
        "block L",
        "|F_p| bits",
        "|F_p'| bits",
        "P1 bits",
        "P2 bits",
        "P3 bits",
        "proof size",
        "coin bits/node",
    ];
    let mut rows = Vec::new();
    for k in [8usize, 10, 12, 14, 16] {
        let n = 1usize << k;
        let mut rng = SmallRng::seed_from_u64(k as u64);
        let inst = gen::lr::random_lr_yes(n, n / 3, true, &mut rng);
        for transport in [Transport::Native, Transport::Simulated] {
            let lr = LrSorting::new(&inst, LrParams::default(), transport);
            let res = lr.run(None, 9, &NoopRecorder);
            assert!(res.accepted(), "n = {n}");
            rows.push(vec![
                n.to_string(),
                format!("{transport:?}"),
                lr.block_len.to_string(),
                lr.field_p.element_bits().to_string(),
                lr.field_pp.element_bits().to_string(),
                res.stats.per_round_max_bits[0].to_string(),
                res.stats.per_round_max_bits[1].to_string(),
                res.stats.per_round_max_bits[2].to_string(),
                res.stats.proof_size().to_string(),
                (res.stats.coin_bits / n).to_string(),
            ]);
        }
    }
    rep.table(&headers, &rows);
    rep.line(
        "\nShape check: the block length is ⌈log₂ n⌉; the fields are polylog n, so\n\
         their element widths — and with them every round — grow with log log n.\n\
         The simulated transport adds the constant forest-code overhead of\n\
         Lemma 2.4 to round 1 and folds the per-edge labels into node labels.",
    );
    text(rep, Vec::new())
}

/// E8 — ablations on the design choices DESIGN.md calls out.
///
/// 1. **Block length** (§4 remark): the paper picks blocks of ⌈log₂ n⌉
///    nodes. Smaller blocks shrink the position fields but multiply the
///    block count (and break once positions no longer fit — the
///    implementation auto-bumps); larger blocks waste bits.
/// 2. **Soundness exponent c**: fields of size log^c n trade label width
///    against the 1/polylog n soundness error.
/// 3. **Spanning-tree repetitions** (Lemma 2.5 amplification): each
///    repetition adds a prime/residue pair and squares the cheat's
///    survival probability.
pub fn e8(_: &Opts) -> Output {
    let mut rep = Reporter::buffered();
    let n = 4096;
    let mut rng = SmallRng::seed_from_u64(8);

    // --- Ablation 1: LR-sorting block length ---
    rep.line(&format!("E8a — LR-sorting block-length ablation (n = {n})\n"));
    let inst = gen::lr::random_lr_yes(n, n / 3, true, &mut rng);
    let headers = ["requested L", "effective L", "proof size", "accepted"];
    let mut rows = Vec::new();
    for req in [2usize, 4, 8, 12, 24, 64, 256] {
        let lr = LrSorting::new(&inst, LrParams { c: 3, block_len: Some(req) }, Transport::Native);
        let res = lr.run(None, 1, &NoopRecorder);
        rows.push(vec![
            req.to_string(),
            lr.block_len.to_string(),
            res.stats.proof_size().to_string(),
            res.accepted().to_string(),
        ]);
    }
    rep.table(&headers, &rows);
    rep.line(
        "\nThe paper's choice L = ⌈log₂ n⌉ = 12 sits at the sweet spot: shorter\n\
         blocks are bumped up (positions must fit in L bits), longer blocks only\n\
         add index width.\n",
    );

    // --- Ablation 2: soundness exponent c ---
    rep.line("E8b — field exponent c: label width vs measured soundness (n = 256)\n");
    let headers = ["c", "proof size", "cheat acceptance (outer-forged-index)"];
    let mut rows = Vec::new();
    for c in [1u32, 2, 3, 4] {
        let mut size = 0;
        let mut accepted = 0u32;
        let trials = 120;
        for t in 0..trials {
            let mut rng = SmallRng::seed_from_u64(1000 + t as u64);
            let Some(no) = gen::lr::random_lr_no(256, 100, true, 1, &mut rng) else { continue };
            let lr = LrSorting::new(&no, LrParams { c, block_len: None }, Transport::Native);
            if lr.run(Some(LrCheat::OuterForgedIndex), t as u64, &NoopRecorder).accepted() {
                accepted += 1;
            }
            let yes = gen::lr::random_lr_yes(256, 100, true, &mut rng);
            let lr_yes = LrSorting::new(&yes, LrParams { c, block_len: None }, Transport::Native);
            size = lr_yes.run(None, t as u64, &NoopRecorder).stats.proof_size();
        }
        rows.push(vec![c.to_string(), size.to_string(), format!("{accepted}/{trials}")]);
    }
    rep.table(&headers, &rows);
    rep.line(
        "\nLarger c widens every field element but drives the soundness error down\n\
         polynomially in log n.\n",
    );

    // --- Ablation 3: spanning-tree repetition ---
    // The one-extra-root cheat survives with probability (1/#primes)^rep.
    rep.line("E8c — spanning-tree verification repetitions (one-extra-root cheat, n = 64)\n");
    let headers = ["repetitions", "fake-path acceptance", "ST label bits"];
    let mut rows = Vec::new();
    let inst = pendant_path(64);
    for repetitions in [1usize, 2, 4] {
        let trials = 400;
        let mut accepted = 0;
        let mut size = 0;
        let params = PopParams { c: 2, st_repetitions: repetitions };
        let p = PathOuterplanarity::new(&inst, params, Transport::Native);
        for t in 0..trials {
            let res = p.run(Some(PopCheat::FakePath), 2000 + t as u64, &NoopRecorder);
            if res.accepted() {
                accepted += 1;
            }
            size = size.max(res.stats.per_round_max_bits.get(1).copied().unwrap_or(0));
        }
        rows.push(vec![repetitions.to_string(), format!("{accepted}/{trials}"), size.to_string()]);
    }
    rep.table(&headers, &rows);
    rep.line(
        "\nEach repetition multiplies the cheat's survival probability by another\n\
         1/#primes factor while adding one prime/residue pair to the labels.",
    );
    text(rep, Vec::new())
}
