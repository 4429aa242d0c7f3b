//! Byte-identity of the intra-job parallel round across worker counts.
//!
//! The round's per-node loops (label decode, structure checks,
//! spanning-tree checks, nesting checks) run on `pdip_core::par`'s chunk
//! grid. The contract: captured transcripts, results and sweep records
//! are byte-identical whether the round runs on 1, 2 or 4 intra-job
//! workers — and a sweep's pool workers always pin their rounds serial,
//! so across-job parallelism composes with the knob without nesting.

use pdip_core::{par, RunResult};
use pdip_engine::{aggregate_json, Engine, Family, ProverSpec, SweepSpec, YesInstance};
use pdip_obs::NoopRecorder;
use pdip_protocols::path_outerplanar::PAR_GRAIN;
use pdip_protocols::replay::{capture_run, diff_transcripts};
use pdip_protocols::{PopParams, Transport};
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that touch the process-global intra-worker knob.
static WORKER_KNOB: Mutex<()> = Mutex::new(());

fn lock_knob() -> MutexGuard<'static, ()> {
    WORKER_KNOB.lock().unwrap_or_else(|e| e.into_inner())
}

/// A full comparable rendering of a run: verdict, stats, rejection
/// stream (order, reasons and kinds included).
fn render(res: &RunResult) -> String {
    format!("{res:?}")
}

/// Runs the honest prover and every cheat on `inst` at 1, 2 and 4
/// intra-job workers, asserts that results and transcripts are
/// byte-identical, and returns the 1-worker results (honest first).
fn assert_worker_invariant(family: Family, inst: &YesInstance) -> Vec<RunResult> {
    inst.with_protocol(PopParams::default(), Transport::Native, |p| {
        // Honest run plus every cheat: the cheats exercise the
        // rejection paths, whose order must also be chunk-invariant.
        let strategies: Vec<Option<usize>> =
            std::iter::once(None).chain((0..p.cheat_names().len()).map(Some)).collect();
        let mut results = Vec::new();
        for &cheat in &strategies {
            par::set_intra_workers(1);
            let (base_res, base_tr) = capture_run(p, cheat, 7);
            for workers in [2usize, 4] {
                par::set_intra_workers(workers);
                let (res, tr) = capture_run(p, cheat, 7);
                assert_eq!(
                    render(&res),
                    render(&base_res),
                    "{family:?} cheat={cheat:?} diverged at {workers} workers"
                );
                assert_eq!(
                    diff_transcripts(&base_tr, &tr),
                    None,
                    "{family:?} cheat={cheat:?} transcript diverged at {workers} workers"
                );
            }
            par::set_intra_workers(1);
            results.push(base_res);
        }
        results
    })
}

#[test]
fn round_transcripts_identical_at_worker_counts_1_2_4() {
    let _knob = lock_knob();
    // Families covering every parallelized loop: the path-outerplanarity
    // round runs them directly; embedded planarity adds the reduction
    // (arena-backed) in front; planarity adds rotation recovery.
    for family in [Family::PathOuterplanar, Family::EmbeddedPlanarity, Family::Planarity] {
        assert_worker_invariant(family, &YesInstance::generate(family, 600, 0xA11CE));
    }
}

#[test]
fn split_round_identical_at_worker_counts_1_2_4() {
    let _knob = lock_knob();
    // The n = 600 cases above are one chunk each, so no worker count
    // changes how they run. This instance spans at least three chunks of
    // the round's grid, so 2 and 4 workers really split every per-node
    // loop and merge the chunks back in order.
    let inst = YesInstance::generate(Family::PathOuterplanar, 2 * PAR_GRAIN + 1, 0xA11CE);
    let YesInstance::Pop(pop) = &inst else { unreachable!("a path-outerplanarity instance") };
    let chunks = par::chunk_ranges(pop.graph.n(), PAR_GRAIN).count();
    assert!(chunks >= 3, "n = {} is only {chunks} chunk(s)", pop.graph.n());
    let results = assert_worker_invariant(Family::PathOuterplanar, &inst);
    assert!(results[0].accepted(), "honest run rejected: {:?}", results[0].rejections);
    // `st:` reasons come from the chunked spanning-tree check loop, so at
    // least one cheat rejects inside a loop that runs split.
    assert!(
        results[1..].iter().any(|r| r.rejections.iter().any(|(_, why)| why.starts_with("st:"))),
        "no cheat rejected inside the chunked spanning-tree loop"
    );
}

#[test]
fn sweeps_pin_intra_workers_serial() {
    let _knob = lock_knob();
    let spec = SweepSpec {
        families: vec![Family::PathOuterplanar, Family::EmbeddedPlanarity],
        sizes: vec![48],
        provers: vec![ProverSpec::Honest, ProverSpec::AllCheats],
        trials: 2,
        base_seed: 0xbead,
        ..SweepSpec::default()
    };
    par::set_intra_workers(1);
    let baseline = Engine::with_threads(1).run(&spec, &NoopRecorder);
    // A parallel sweep with the intra knob wide open: the engine's
    // workers install the serial guard, so no second thread layer opens
    // and the records still match the all-serial baseline byte for byte.
    par::set_intra_workers(4);
    let nested = Engine::with_threads(2).run(&spec, &NoopRecorder);
    par::set_intra_workers(1);
    assert_eq!(aggregate_json(&spec, &baseline), aggregate_json(&spec, &nested));
}
