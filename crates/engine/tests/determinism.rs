//! Cross-thread-count determinism of the engine, end to end.
//!
//! The engine's core contract: for a fixed [`SweepSpec`], the sorted
//! record stream and every derived artifact are identical no matter how
//! many workers execute the sweep. These tests run the same sweep at 1
//! and 4 workers and compare everything except wall-clock timings.

use pdip_engine::{
    aggregate_json, job_seed, sub_seed, Engine, Family, ProverSpec, RunRecord, SweepSpec,
};
use pdip_obs::NoopRecorder;
use proptest::prelude::*;

fn demo_spec() -> SweepSpec {
    SweepSpec {
        families: vec![Family::PathOuterplanar, Family::SeriesParallel],
        sizes: vec![32, 64],
        provers: vec![ProverSpec::Honest, ProverSpec::AllCheats, ProverSpec::PanicInjection],
        trials: 3,
        base_seed: 0xfeed,
        ..SweepSpec::default()
    }
}

/// Everything in a record except wall time, as one comparable string.
fn timeless(r: &RunRecord) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {} {} {:?} {} {:?}",
        r.index,
        r.family.name(),
        r.n,
        r.actual_n,
        r.prover.tag(),
        r.trial,
        r.gen_seed,
        r.run_seed,
        r.accepted,
        r.rounds,
        r.proof_size_bits,
        r.per_round_max_bits,
        r.coin_bits,
        r.rejections,
    )
}

#[test]
fn parallel_and_serial_sweeps_produce_identical_records() {
    let spec = demo_spec();
    let serial = Engine::with_threads(1).run(&spec, &NoopRecorder);
    let parallel = Engine::with_threads(4).run(&spec, &NoopRecorder);

    // Records: same count, same grid order, same content field by field.
    assert_eq!(serial.records.len(), parallel.records.len());
    for (a, b) in serial.records.iter().zip(&parallel.records) {
        assert_eq!(timeless(a), timeless(b));
    }

    // Quarantined failures (the injected panics) match too.
    assert_eq!(serial.failures.len(), parallel.failures.len());
    for (a, b) in serial.failures.iter().zip(&parallel.failures) {
        assert_eq!(
            (a.index, a.n, a.trial, a.attempts, a.payload.clone()),
            (b.index, b.n, b.trial, b.attempts, b.payload.clone()),
        );
    }

    // And the serialized aggregate document is byte-identical.
    assert_eq!(aggregate_json(&spec, &serial), aggregate_json(&spec, &parallel));
}

/// The watchdog deadline degrades gracefully and deterministically: with
/// a zero deadline every job is classified as a timeout (identically at
/// any worker count), and the failure kinds survive into the JSON sink.
#[test]
fn watchdog_timeouts_are_deterministic_across_thread_counts() {
    use pdip_engine::FailureKind;
    use std::time::Duration;
    let spec = SweepSpec { job_deadline: Some(Duration::ZERO), ..demo_spec() };
    let serial = Engine::with_threads(1).run(&spec, &NoopRecorder);
    let parallel = Engine::with_threads(4).run(&spec, &NoopRecorder);

    assert!(serial.records.is_empty(), "zero deadline must time out every completed job");
    assert_eq!(serial.failures.len(), parallel.failures.len());
    for (a, b) in serial.failures.iter().zip(&parallel.failures) {
        assert_eq!((a.index, a.kind, a.attempts), (b.index, b.kind, b.attempts));
    }
    // Injected panics keep their own kind; completed-but-slow jobs the
    // watchdog's. Both counters land in the metrics split.
    assert!(serial.failures.iter().any(|f| f.kind == FailureKind::Panicked));
    assert!(serial.failures.iter().any(|f| f.kind == FailureKind::TimedOut));
    assert_eq!(
        serial.metrics.quarantined + serial.metrics.timed_out,
        serial.metrics.failures,
        "failure split must sum to the total"
    );
    assert_eq!(serial.metrics.quarantined, parallel.metrics.quarantined);
    assert_eq!(serial.metrics.timed_out, parallel.metrics.timed_out);
    assert_eq!(aggregate_json(&spec, &serial), aggregate_json(&spec, &parallel));
}

#[test]
fn record_stream_is_sorted_in_grid_order() {
    let outcome = Engine::with_threads(4).run(&demo_spec(), &NoopRecorder);
    for w in outcome.records.windows(2) {
        assert!(w[0].index < w[1].index, "records must come back sorted by grid index");
    }
}

proptest! {
    /// The per-job seed stream is injective over any window the engine
    /// can realistically enumerate: distinct job indices never produce
    /// the same seed, and the GEN/RUN sub-seeds of a job never collide
    /// with each other either.
    #[test]
    fn job_seed_stream_never_collides(
        base in 0u64..u64::MAX,
        i in 0u64..1_000_000,
        j in 0u64..1_000_000,
    ) {
        if i != j {
            prop_assert_ne!(job_seed(base, i), job_seed(base, j));
        }
        let s = job_seed(base, i);
        prop_assert_ne!(sub_seed(s, 1), sub_seed(s, 2));
    }
}
