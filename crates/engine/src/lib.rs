//! `pdip-engine` — the parallel batch-verification engine.
//!
//! Every paper-claim table in this repository is a sweep: protocol runs
//! over families × instance sizes × prover behaviours × trials. This
//! crate executes such sweeps on [`pdip_core::par`]'s chunked worker loop
//! (one job per chunk; std threads, no external dependencies) with three
//! guarantees:
//!
//! 1. **Determinism.** Per-job seeds derive from `(base_seed, job index)`
//!    through a SplitMix64 stream ([`seed`]), never from scheduling, and
//!    results come back in chunk order, which is grid order — so a sweep
//!    at 16 workers produces byte-identical records and aggregate tables
//!    to the same sweep at 1 worker.
//! 2. **Panic isolation.** Each job runs behind `catch_unwind` with a
//!    bounded retry budget; a panicking protocol run is quarantined as a
//!    [`JobFailure`] carrying its payload, and the sweep continues.
//! 3. **Structured output.** Every run yields a [`RunRecord`] (verdict,
//!    proof-size bits, per-round bits, coins, rejections, wall time); a
//!    collector folds records into deterministic aggregate tables and
//!    machine-readable JSON/CSV sinks ([`sink`]), plus throughput
//!    metrics ([`SweepMetrics`]).
//!
//! The E1–E3 generators of the experiment registry (`pdip_bench::exp`)
//! and the `pdip sweep` CLI subcommand drive their grids through this
//! engine.
//!
//! ```
//! use pdip_engine::{Engine, Family, ProverSpec, SweepSpec};
//! use pdip_obs::NoopRecorder;
//!
//! let spec = SweepSpec {
//!     families: vec![Family::PathOuterplanar],
//!     sizes: vec![48],
//!     provers: vec![ProverSpec::Honest, ProverSpec::AllCheats],
//!     trials: 2,
//!     base_seed: 7,
//!     ..SweepSpec::default()
//! };
//! let outcome = Engine::with_threads(4).run(&spec, &NoopRecorder);
//! assert!(outcome.failures.is_empty());
//! assert_eq!(outcome.records.len() as u64, spec.job_count());
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod obs_audit;
pub mod pool;
pub mod record;
pub mod report;
pub mod scale;
pub mod seed;
pub mod serve;
pub mod serve_chaos;
pub mod sink;
pub mod spec;
pub mod trace;

pub use chaos::{
    build_target, run_chaos, ChaosOutcome, ChaosRecord, ChaosReport, ChaosSpec, Determinism,
    MutatorKind, TamperOutcome, Tamperable, TargetId, MUTATORS, TARGETS,
};
pub use client::{
    backoff_delay_ms, fetch_stats, run_client, stats_detail_to_json, ClientOpts, ClientOutcome,
};
pub use obs_audit::{
    metrics_determinism_probe, run_obs_audit, MetricsProbe, ObsAuditReport, ObsAuditSpec, E14_SEED,
};
pub use pdip_protocols::family;
/// The former name of [`Instance`], kept because the benchmark harness
/// under `perfbench/` imports it.
pub use pdip_protocols::family::Instance as YesInstance;
pub use pdip_protocols::family::{no_instance, no_instance_with, Family, Instance, FAMILIES};
pub use pool::{execute_job, Engine, WorkerScratch};
pub use record::{
    CellAgg, CellKey, FailureKind, JobFailure, RunRecord, SweepMetrics, SweepOutcome,
};
pub use report::{render_table, Reporter};
pub use scale::{
    digest_result, run_scale, scale_metrics, verify_stream, OverlapAudit, ScaleReport, ScaleRow,
    ScaleSpec, E11_SEED,
};
pub use seed::{job_seed, splitmix_finalize, sub_seed};
pub use serve::{
    decode_response, encode_response, panic_blob, read_frame, run_serve_smoke, serve_concurrent,
    serve_pipe, serve_tcp, smoke_requests, spawn_server, verify_blob, write_frame, Gate, Response,
    ServeConfig, ServeObs, ServeSmokeReport, ServeStats, ServerHandle, ShutdownFlag, Status,
    DEFAULT_FLIGHT_CAP, DEFAULT_SLOW_THRESHOLD, E12_SEED, REQ_STATS,
};
pub use serve_chaos::{
    determinism_probe, run_serve_chaos, ChaosCell, ServeChaosReport, ServeChaosSpec, E13_SEED,
};
pub use sink::{aggregate_json, records_csv, write_outputs};
pub use spec::{JobCoords, JobSpec, Prover, ProverSpec, SeedMode, SweepSpec};
pub use trace::{
    envelope_bits, run_trace, TraceCell, TraceOutcome, TraceReport, TraceSpec, E10_SEED,
};
