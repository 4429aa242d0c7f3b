//! The E9 chaos sweep: a deterministic parallel grid runner.
//!
//! Expands the target × mutator × trial grid into jobs, runs each job —
//! instance generation, corruption and re-verification — under
//! `catch_unwind` on the `pdip_core::par` index map, and aggregates per-cell
//! detection statistics. The report depends only on
//! `(n, trials, base_seed)`: scheduling, thread count and wall-clock
//! never reach the output, so the rendered artifacts are byte-identical
//! across `--threads` settings (guarded by `tests/e9_freshness.rs`).

use super::{build_target, Determinism, MutatorKind, TamperOutcome, TargetId, MUTATORS, TARGETS};
use crate::pool::PanicSilencer;
use crate::seed::sub_seed;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Parameters of one chaos sweep.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Nominal instance size per target.
    pub n: usize,
    /// Trials per (target, mutator) cell.
    pub trials: usize,
    /// Base seed of the whole grid.
    pub base_seed: u64,
    /// Worker threads (execution detail; never part of the report).
    pub threads: usize,
    /// Required detection rate for probabilistic corruption classes
    /// (1 − ε for the audited soundness bound ε). Deterministic classes
    /// always require rate 1.0.
    pub prob_threshold: f64,
}

impl ChaosSpec {
    /// The committed full grid (results/e9_chaos.*).
    pub fn full() -> ChaosSpec {
        ChaosSpec { n: 64, trials: 40, base_seed: 0xE9, threads: 1, prob_threshold: 0.75 }
    }

    /// The CI smoke grid: same seeds, smaller instances and fewer trials.
    pub fn smoke() -> ChaosSpec {
        ChaosSpec { n: 32, trials: 6, base_seed: 0xE9, threads: 1, prob_threshold: 0.75 }
    }
}

/// The outcome of one chaos job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// Some node rejected; `malformed` records a structural catch.
    Detected {
        /// Whether a deterministic structural check fired.
        malformed: bool,
    },
    /// Every node accepted corrupted state (soundness coin-flip miss).
    Miss,
    /// The mutation was a semantic no-op.
    Unchanged,
    /// The verifier panicked — always a failed audit.
    Panicked(String),
}

/// One grid job, resolved.
#[derive(Debug, Clone)]
pub struct ChaosRecord {
    /// The corrupted surface.
    pub target: TargetId,
    /// The corruption class.
    pub kind: MutatorKind,
    /// Trial index within the cell.
    pub trial: usize,
    /// Job seed (replay key: `build_target(target, n, sub_seed(seed, GEN))`
    /// + `run_mutated(kind, sub_seed(seed, RUN))`).
    pub seed: u64,
    /// What happened.
    pub outcome: ChaosOutcome,
}

/// Aggregated statistics of one (target, mutator) cell.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// The corrupted surface.
    pub target: TargetId,
    /// The corruption class.
    pub kind: MutatorKind,
    /// Calibrated detection class.
    pub class: Determinism,
    /// Trials run.
    pub attempts: usize,
    /// Runs where some node rejected.
    pub detected: usize,
    /// Detected runs where a structural check fired.
    pub malformed: usize,
    /// Runs where corrupted state was accepted.
    pub missed: usize,
    /// Semantic no-ops (excluded from the rate).
    pub unchanged: usize,
    /// Panicking runs (always a failure).
    pub panicked: usize,
    /// `detected / (detected + missed)`; 1.0 when the cell is vacuous.
    pub rate: f64,
    /// Required rate for this cell's class.
    pub threshold: f64,
    /// Whether the cell meets its threshold with zero panics.
    pub pass: bool,
}

/// The full E9 report.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Instance size the grid ran at.
    pub n: usize,
    /// Trials per cell.
    pub trials: usize,
    /// Base seed of the grid.
    pub base_seed: u64,
    /// Probabilistic-class threshold.
    pub prob_threshold: f64,
    /// Every resolved job, in grid order.
    pub records: Vec<ChaosRecord>,
    /// Per-cell aggregates, in grid order.
    pub cells: Vec<ChaosCell>,
    /// Whether no job panicked.
    pub zero_panics: bool,
    /// Whether every cell passed.
    pub all_pass: bool,
}

/// Seed-derivation labels of the chaos grid (documented for replay).
mod labels {
    /// Per-target stream offset.
    pub const TARGET: u64 = 0x7A;
    /// Instance-generation sub-seed.
    pub const GEN: u64 = 10;
    /// Mutation + verification sub-seed.
    pub const RUN: u64 = 20;
}

/// The seed of one grid job; pure in `(base_seed, target, kind, trial)`.
fn grid_seed(base_seed: u64, ti: usize, ki: usize, trial: usize) -> u64 {
    sub_seed(sub_seed(sub_seed(base_seed, labels::TARGET + ti as u64), ki as u64), trial as u64)
}

/// Runs the whole grid and aggregates the report.
pub fn run_chaos(spec: &ChaosSpec) -> ChaosReport {
    struct Job {
        target: TargetId,
        kind: MutatorKind,
        trial: usize,
        seed: u64,
    }
    let mut jobs: Vec<Job> = Vec::new();
    for (ti, &target) in TARGETS.iter().enumerate() {
        for (ki, &kind) in MUTATORS.iter().enumerate() {
            if !target.supports(kind) {
                continue;
            }
            for trial in 0..spec.trials {
                jobs.push(Job {
                    target,
                    kind,
                    trial,
                    seed: grid_seed(spec.base_seed, ti, ki, trial),
                });
            }
        }
    }

    let _silencer = PanicSilencer::engage();
    let n = spec.n;
    // One index-ordered map over the grid: results come back in job
    // order at any thread count, so the report never sees scheduling.
    let outcomes = pdip_core::par::map_indexed_with(spec.threads, jobs.len(), 1, |i| {
        let job = &jobs[i];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let target = build_target(job.target, n, sub_seed(job.seed, labels::GEN));
            target.run_mutated(job.kind, sub_seed(job.seed, labels::RUN))
        }));
        match outcome {
            Ok(TamperOutcome::Detected { malformed }) => ChaosOutcome::Detected { malformed },
            Ok(TamperOutcome::Miss) => ChaosOutcome::Miss,
            Ok(TamperOutcome::Unchanged) => ChaosOutcome::Unchanged,
            Err(payload) => ChaosOutcome::Panicked(panic_message(&payload)),
        }
    });
    let records: Vec<ChaosRecord> = jobs
        .iter()
        .zip(outcomes)
        .map(|(job, outcome)| ChaosRecord {
            target: job.target,
            kind: job.kind,
            trial: job.trial,
            seed: job.seed,
            outcome,
        })
        .collect();

    let mut cells: Vec<ChaosCell> = Vec::new();
    for &target in TARGETS.iter() {
        for &kind in MUTATORS.iter() {
            if !target.supports(kind) {
                continue;
            }
            let class = target.determinism(kind);
            let mut cell = ChaosCell {
                target,
                kind,
                class,
                attempts: 0,
                detected: 0,
                malformed: 0,
                missed: 0,
                unchanged: 0,
                panicked: 0,
                rate: 1.0,
                threshold: match class {
                    Determinism::Deterministic => 1.0,
                    Determinism::Probabilistic => spec.prob_threshold,
                },
                pass: true,
            };
            for r in records.iter().filter(|r| r.target == target && r.kind == kind) {
                cell.attempts += 1;
                match &r.outcome {
                    ChaosOutcome::Detected { malformed } => {
                        cell.detected += 1;
                        if *malformed {
                            cell.malformed += 1;
                        }
                    }
                    ChaosOutcome::Miss => cell.missed += 1,
                    ChaosOutcome::Unchanged => cell.unchanged += 1,
                    ChaosOutcome::Panicked(_) => cell.panicked += 1,
                }
            }
            let effective = cell.detected + cell.missed;
            cell.rate = if effective == 0 { 1.0 } else { cell.detected as f64 / effective as f64 };
            cell.pass = cell.panicked == 0
                && match class {
                    Determinism::Deterministic => cell.missed == 0,
                    Determinism::Probabilistic => cell.rate >= cell.threshold,
                };
            cells.push(cell);
        }
    }

    let zero_panics = !records.iter().any(|r| matches!(r.outcome, ChaosOutcome::Panicked(_)));
    let all_pass = zero_panics && cells.iter().all(|c| c.pass);
    ChaosReport {
        n: spec.n,
        trials: spec.trials,
        base_seed: spec.base_seed,
        prob_threshold: spec.prob_threshold,
        records,
        cells,
        zero_panics,
        all_pass,
    }
}

/// Best-effort panic payload extraction.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl ChaosReport {
    /// The human-readable E9 table (results/e9_chaos.txt). Contains no
    /// timing or scheduling information.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# E9: chaos sweep — seed-driven adversarial fault injection\n");
        out.push_str(&format!(
            "# n={} trials-per-cell={} base-seed={:#x} prob-threshold={:.2}\n",
            self.n, self.trials, self.base_seed, self.prob_threshold
        ));
        out.push_str(&format!("# zero-panics={} all-pass={}\n\n", self.zero_panics, self.all_pass));
        out.push_str(&format!(
            "{:<20} {:<17} {:<14} {:>4} {:>4} {:>4} {:>5} {:>5} {:>4} {:>7} {:>5}  {}\n",
            "target",
            "mutator",
            "class",
            "att",
            "det",
            "mal",
            "miss",
            "unch",
            "pan",
            "rate",
            "thr",
            "pass"
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<20} {:<17} {:<14} {:>4} {:>4} {:>4} {:>5} {:>5} {:>4} {:>7.4} {:>5.2}  {}\n",
                c.target.name(),
                c.kind.name(),
                c.class.name(),
                c.attempts,
                c.detected,
                c.malformed,
                c.missed,
                c.unchanged,
                c.panicked,
                c.rate,
                c.threshold,
                if c.pass { "ok" } else { "FAIL" }
            ));
        }
        out
    }

    /// The machine-readable E9 report (results/e9_chaos.json), hand
    /// rendered with stable key order and no timing fields.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"e9-chaos\",\n");
        out.push_str(&format!("  \"n\": {},\n", self.n));
        out.push_str(&format!("  \"trials_per_cell\": {},\n", self.trials));
        out.push_str(&format!("  \"base_seed\": {},\n", self.base_seed));
        out.push_str(&format!("  \"prob_threshold\": {:.4},\n", self.prob_threshold));
        out.push_str(&format!("  \"zero_panics\": {},\n", self.zero_panics));
        out.push_str(&format!("  \"all_pass\": {},\n", self.all_pass));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"target\": \"{}\", \"mutator\": \"{}\", \"class\": \"{}\", \
                 \"attempts\": {}, \"detected\": {}, \"malformed\": {}, \"missed\": {}, \
                 \"unchanged\": {}, \"panicked\": {}, \"rate\": {:.4}, \
                 \"threshold\": {:.4}, \"pass\": {}}}{}\n",
                c.target.name(),
                c.kind.name(),
                c.class.name(),
                c.attempts,
                c.detected,
                c.malformed,
                c.missed,
                c.unchanged,
                c.panicked,
                c.rate,
                c.threshold,
                c.pass,
                if i + 1 == self.cells.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ChaosSpec {
        ChaosSpec { n: 16, trials: 2, base_seed: 0xE9, threads: 2, prob_threshold: 0.0 }
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let a = run_chaos(&ChaosSpec { threads: 1, ..tiny_spec() });
        let b = run_chaos(&ChaosSpec { threads: 4, ..tiny_spec() });
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_json(), b.render_json());
    }

    #[test]
    fn grid_covers_every_supported_cell() {
        let r = run_chaos(&tiny_spec());
        for &target in TARGETS.iter() {
            for &kind in MUTATORS.iter() {
                let present = r.cells.iter().any(|c| c.target == target && c.kind == kind);
                assert_eq!(present, target.supports(kind), "{}/{}", target.name(), kind.name());
            }
        }
        for c in &r.cells {
            assert_eq!(c.attempts, 2);
        }
    }

    #[test]
    fn no_panics_on_the_tiny_grid() {
        let r = run_chaos(&tiny_spec());
        assert!(r.zero_panics, "{}", r.render_text());
    }
}
