//! Per-stage profiler for one full planarity round — `pdip exp bench-round`.
//!
//! One honest run of the Theorem 1.5 planarity protocol passes through
//! four conceptual stages: the LR-orientation machinery (rotation check,
//! spanning tree, reduction, orientation build), per-node label
//! construction (forest code, LR round-1 labels), the commitment /
//! multiset passes (LR rounds 2–3 and the per-node decision sweep), and
//! transcript assembly (capture + size accounting). Every stage carries
//! a [`Stopwatch`](pdip_obs::Stopwatch) duration mark (names `round/*`); this module runs the
//! round under a duration-summing recorder and reports both
//!
//! * **entries** — total wall time per round at each n, paired with the
//!   pre-optimization baseline recorded in [`COMMITTED_BASELINE_NS`], and
//! * **stages** — the per-stage breakdown (total ns and share of the
//!   tracked time) at each n.
//!
//! Durations are histogram/timing data: they never enter the
//! deterministic event stream, so profiling a round cannot perturb any
//! committed artifact (see the `pdip-obs` determinism rules). The
//! document written by `pdip exp bench-round` has schema
//! [`crate::snapshot::ROUND`] and is freshness-guarded by
//! `tests/bench_round_freshness.rs`.

use crate::snapshot::{time_ns, Entry, StageRow};
use pdip_engine::{Family, Instance};
use pdip_obs::Recorder;
use pdip_protocols::{PopParams, Transport};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Duration;

/// Wall time of one full honest `planarity_round` per size, measured by
/// this harness **before** the round optimizations of the
/// intra-job-parallelism / lane-batching / zero-copy-labels PR (commit
/// e9e126a, same instance seed 21, same median-of-samples methodology).
/// These are the committed "before" numbers the freshness guard holds the
/// optimized "after" timings against.
pub const COMMITTED_BASELINE_NS: [(usize, f64); 3] =
    [(1_000, 17_197_218.0), (10_000, 200_045_021.0), (100_000, 2_376_165_016.0)];

/// The committed baseline for size `n`, if the grid covers it.
pub fn committed_baseline_ns(n: usize) -> Option<f64> {
    COMMITTED_BASELINE_NS.iter().find(|&&(bn, _)| bn == n).map(|&(_, ns)| ns)
}

/// The stage names every full round passes through, in round order.
pub const ROUND_STAGES: [&str; 13] = [
    "round/rotation",
    "round/instance-prep",
    "round/spanning-tree",
    "round/reduction",
    "round/path-commit",
    "round/lr-orientation",
    "round/nesting",
    "round/lr-coins",
    "round/lr-labels",
    "round/lr-commit",
    "round/lr-msets",
    "round/transcript",
    "round/lr-decide",
];

/// Knobs for one `bench-round` run.
#[derive(Debug, Clone)]
pub struct RoundBenchConfig {
    /// Instance sizes.
    pub sizes: Vec<usize>,
    /// Minimum wall time per total-round measurement.
    pub budget: Duration,
    /// Timing samples per measurement (median reported).
    pub samples: usize,
    /// Profiled runs per size for the stage breakdown (averaged).
    pub profile_runs: usize,
}

impl RoundBenchConfig {
    /// The acceptance-criterion grid: n ∈ {10³, 10⁴, 10⁵}.
    pub fn full() -> Self {
        RoundBenchConfig {
            sizes: vec![1_000, 10_000, 100_000],
            budget: Duration::from_millis(20),
            samples: 5,
            profile_runs: 3,
        }
    }

    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        RoundBenchConfig {
            sizes: vec![1_000],
            budget: Duration::from_millis(2),
            samples: 3,
            profile_runs: 1,
        }
    }
}

/// A [`Recorder`] that sums [`Recorder::duration`] observations per name.
/// Events and spans are discarded — only the stopwatch totals matter to
/// the profiler.
#[derive(Debug, Default)]
pub struct StageRecorder {
    totals: Mutex<Vec<(&'static str, u64, u128)>>,
}

impl StageRecorder {
    /// A fresh recorder with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(count, total nanoseconds)` observed under `name`.
    pub fn total(&self, name: &str) -> (u64, u128) {
        let totals = self.totals.lock().unwrap_or_else(|e| e.into_inner());
        totals.iter().find(|(s, _, _)| *s == name).map(|&(_, c, t)| (c, t)).unwrap_or((0, 0))
    }
}

impl Recorder for StageRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn duration(&self, name: &'static str, nanos: u64) {
        let mut totals = self.totals.lock().unwrap_or_else(|e| e.into_inner());
        match totals.iter_mut().find(|(s, _, _)| *s == name) {
            Some((_, c, t)) => {
                *c += 1;
                *t += u128::from(nanos);
            }
            None => totals.push((name, 1, u128::from(nanos))),
        }
    }
}

/// Runs the profiler: total round wall time (median of samples on a warm
/// scratch) plus the per-stage stopwatch breakdown, per size.
pub fn run_roundbench(cfg: &RoundBenchConfig) -> (Vec<Entry>, Vec<StageRow>) {
    let mut entries = Vec::new();
    let mut stages = Vec::new();
    for &n in &cfg.sizes {
        // Larger sizes get fewer samples, mirroring bench-graph.
        let samples = if n >= 100_000 { cfg.samples.min(2) } else { cfg.samples };
        let yes = Instance::generate(Family::Planarity, n, 21);
        let round = || {
            yes.with_protocol(PopParams::default(), Transport::Native, |p| {
                black_box(p.run_honest(5).accepted());
            })
        };
        let fast_ns = time_ns(cfg.budget, samples, round);
        let baseline_ns = committed_baseline_ns(n).unwrap_or(fast_ns);
        entries.push(Entry { name: "planarity_round".into(), n, baseline_ns, fast_ns });

        // Stage breakdown: run under the summing recorder and average.
        let rec = StageRecorder::new();
        let runs = cfg.profile_runs.max(1);
        for _ in 0..runs {
            yes.with_protocol(PopParams::default(), Transport::Native, |p| {
                black_box(p.run_honest_traced(5, &rec).accepted());
            });
        }
        let totals: Vec<(&'static str, f64)> =
            ROUND_STAGES.iter().map(|&s| (s, rec.total(s).1 as f64 / runs as f64)).collect();
        let tracked: f64 = totals.iter().map(|&(_, t)| t).sum();
        for (stage, total_ns) in totals {
            let share = if tracked > 0.0 { total_ns / tracked } else { 0.0 };
            stages.push(StageRow { stage: stage.into(), n, total_ns, share });
        }
    }
    (entries, stages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_captures_every_stage() {
        let cfg = RoundBenchConfig {
            sizes: vec![256],
            budget: Duration::from_micros(50),
            samples: 1,
            profile_runs: 1,
        };
        let (entries, stages) = run_roundbench(&cfg);
        assert_eq!(entries.len(), 1);
        assert!(entries[0].fast_ns > 0.0);
        assert_eq!(stages.len(), ROUND_STAGES.len());
        let tracked: f64 = stages.iter().map(|r| r.total_ns).sum();
        assert!(tracked > 0.0, "no stage time recorded");
        let share_sum: f64 = stages.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-6, "shares must sum to 1: {share_sum}");
    }

    #[test]
    fn committed_baseline_covers_the_full_grid() {
        for n in RoundBenchConfig::full().sizes {
            assert!(committed_baseline_ns(n).is_some(), "no committed baseline for n={n}");
        }
    }
}
