//! Structured run records, quarantined failures, aggregates and metrics.

use crate::family::Family;
use crate::spec::{JobSpec, Prover};
use pdip_core::RunResult;
use std::collections::BTreeMap;
use std::time::Duration;

/// The structured outcome of one protocol run (one job).
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Grid index of the job (total order of the sweep).
    pub index: u64,
    /// Graph family.
    pub family: Family,
    /// Requested instance size.
    pub n: usize,
    /// Actual node count of the generated instance.
    pub actual_n: usize,
    /// Prover behaviour.
    pub prover: Prover,
    /// Trial number within the cell.
    pub trial: u64,
    /// Instance-generation seed.
    pub gen_seed: u64,
    /// Protocol-run seed.
    pub run_seed: u64,
    /// Whether every node accepted.
    pub accepted: bool,
    /// Interaction rounds.
    pub rounds: usize,
    /// The paper's proof size: max label bits over nodes and prover rounds.
    pub proof_size_bits: usize,
    /// Per prover-round maximum label bits.
    pub per_round_max_bits: Vec<usize>,
    /// Total verifier coin bits.
    pub coin_bits: usize,
    /// Rejection reports (node, reason), capped upstream.
    pub rejections: Vec<(usize, String)>,
    /// Wall time of the run (excluded from deterministic aggregates).
    pub wall: Duration,
    /// Attempts the job took to complete (1 = no retries).
    pub attempts: u32,
}

impl RunRecord {
    /// Builds a record from a protocol [`RunResult`].
    pub fn from_result(
        job: &JobSpec,
        actual_n: usize,
        rounds: usize,
        res: &RunResult,
        wall: Duration,
    ) -> Self {
        RunRecord {
            index: job.coords.index,
            family: job.coords.family,
            n: job.coords.n,
            actual_n,
            prover: job.coords.prover,
            trial: job.coords.trial,
            gen_seed: job.gen_seed,
            run_seed: job.run_seed,
            accepted: res.accepted(),
            rounds,
            proof_size_bits: res.stats.proof_size(),
            per_round_max_bits: res.stats.per_round_max_bits.clone(),
            coin_bits: res.stats.coin_bits,
            rejections: res.rejections.clone(),
            wall,
            attempts: 1,
        }
    }
}

/// Why a job was quarantined as a [`JobFailure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The job panicked through all of its retries.
    Panicked,
    /// The job completed but its wall time exceeded the sweep's
    /// [`crate::spec::SweepSpec::job_deadline`] watchdog (not retried:
    /// a slow job would only get slower under contention).
    TimedOut,
}

impl FailureKind {
    /// Machine-readable name ("panicked" / "timed-out").
    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::Panicked => "panicked",
            FailureKind::TimedOut => "timed-out",
        }
    }
}

/// A job that was quarantined: it panicked through all its retries, or
/// blew through the sweep's per-job watchdog deadline.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Grid index of the job.
    pub index: u64,
    /// Graph family.
    pub family: Family,
    /// Requested instance size.
    pub n: usize,
    /// Prover behaviour.
    pub prover: Prover,
    /// Trial number.
    pub trial: u64,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// What went wrong (panic vs. watchdog timeout).
    pub kind: FailureKind,
    /// The panic payload or timeout description, stringified.
    pub payload: String,
}

/// Timing and throughput of one sweep execution.
#[derive(Debug, Clone)]
pub struct SweepMetrics {
    /// Jobs executed (completed + failed).
    pub jobs: u64,
    /// Jobs quarantined as failures (panicked + timed out).
    pub failures: u64,
    /// Failures quarantined after panicking through their retries.
    pub quarantined: u64,
    /// Failures whose wall time exceeded the per-job deadline.
    pub timed_out: u64,
    /// Extra attempts beyond the first, summed over all jobs.
    pub retries: u64,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time of the sweep.
    pub wall: Duration,
    /// Process peak RSS (`VmHWM`) observed at the end of the sweep, or
    /// `None` where the kernel doesn't expose it.
    pub peak_rss_bytes: Option<u64>,
    /// Allocator high-water (tracked heap bytes) over the sweep, or
    /// `None` when no tracking allocator is installed (library callers,
    /// unit tests). The `pdip` binary installs [`pdip_obs::PeakAlloc`].
    pub alloc_peak_bytes: Option<u64>,
}

impl SweepMetrics {
    /// Captures the memory high-water marks from `pdip-obs`: the kernel's
    /// `VmHWM`, and the allocator peak when a tracking allocator is
    /// installed in this process.
    pub fn capture_memory(&mut self) {
        self.peak_rss_bytes = pdip_obs::peak_rss_bytes();
        self.alloc_peak_bytes =
            pdip_obs::alloc_installed().then(|| pdip_obs::alloc_peak_bytes() as u64);
    }

    /// Jobs per second of wall time. A zero wall time (possible for
    /// empty sweeps on coarse clocks) reports 0.0, not infinity, so the
    /// summary line always prints a finite number.
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.jobs as f64 / secs
        } else {
            0.0
        }
    }

    /// Formats an optional byte count for the summary line.
    fn fmt_mem(bytes: Option<u64>) -> String {
        match bytes {
            Some(b) => format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)),
            None => "untracked".into(),
        }
    }

    /// The one-line `[engine]` summary of a sweep. The failure
    /// count is broken down into panic quarantines and watchdog
    /// timeouts; retry churn and the memory high-water marks are
    /// surfaced alongside.
    pub fn summary_line(&self) -> String {
        format!(
            "[engine] {} jobs, {} failures ({} quarantined, {} timed out), \
             {} retries, {} threads, {:.2}s wall, {:.1} jobs/sec, \
             peak rss {}, alloc peak {}",
            self.jobs,
            self.failures,
            self.quarantined,
            self.timed_out,
            self.retries,
            self.threads,
            self.wall.as_secs_f64(),
            self.jobs_per_sec(),
            Self::fmt_mem(self.peak_rss_bytes),
            Self::fmt_mem(self.alloc_peak_bytes),
        )
    }
}

/// Everything a sweep produces: records and failures in grid order, plus
/// execution metrics.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Completed runs, sorted by grid index.
    pub records: Vec<RunRecord>,
    /// Quarantined jobs, sorted by grid index.
    pub failures: Vec<JobFailure>,
    /// Execution metrics (scheduling-dependent; not part of the
    /// deterministic surface).
    pub metrics: SweepMetrics,
}

/// One cell of the deterministic aggregate table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellAgg {
    /// Completed runs in the cell.
    pub runs: u64,
    /// Accepting runs.
    pub accepted: u64,
    /// Quarantined failures attributed to the cell.
    pub failures: u64,
    /// Maximum proof size over the cell's runs.
    pub max_proof_bits: usize,
    /// Minimum proof size over the cell's runs.
    pub min_proof_bits: usize,
    /// Sum of proof sizes (for means).
    pub sum_proof_bits: u64,
    /// Rounds (constant within a protocol; max is reported).
    pub rounds: usize,
}

impl CellAgg {
    /// Acceptance rate over completed runs (0 when the cell is empty).
    pub fn acceptance_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.accepted as f64 / self.runs as f64
        }
    }

    /// Mean proof size over completed runs.
    pub fn mean_proof_bits(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.sum_proof_bits as f64 / self.runs as f64
        }
    }
}

/// Aggregate key: one (family, prover, n) cell.
pub type CellKey = (Family, Prover, usize);

impl SweepOutcome {
    /// Folds records and failures into the deterministic aggregate table.
    ///
    /// The fold visits records in grid order and keys cells in a
    /// `BTreeMap`, so for a fixed spec the table — including its
    /// serialized form — is byte-identical regardless of worker count.
    pub fn aggregate(&self) -> BTreeMap<CellKey, CellAgg> {
        let mut table: BTreeMap<CellKey, CellAgg> = BTreeMap::new();
        for r in &self.records {
            let cell = table.entry((r.family, r.prover, r.n)).or_default();
            if cell.runs == 0 {
                cell.min_proof_bits = usize::MAX;
            }
            cell.runs += 1;
            cell.accepted += r.accepted as u64;
            cell.max_proof_bits = cell.max_proof_bits.max(r.proof_size_bits);
            cell.min_proof_bits = cell.min_proof_bits.min(r.proof_size_bits);
            cell.sum_proof_bits += r.proof_size_bits as u64;
            cell.rounds = cell.rounds.max(r.rounds);
        }
        for f in &self.failures {
            let cell = table.entry((f.family, f.prover, f.n)).or_default();
            if cell.runs == 0 && cell.failures == 0 {
                cell.min_proof_bits = usize::MAX;
            }
            cell.failures += 1;
        }
        table
    }

    /// Renders the aggregate table as aligned text rows
    /// (family, prover, n, runs, accepted, rate, proof bits min/mean/max).
    pub fn aggregate_rows(&self) -> Vec<Vec<String>> {
        self.aggregate()
            .iter()
            .map(|((family, prover, n), c)| {
                vec![
                    family.name().to_string(),
                    prover.tag(),
                    n.to_string(),
                    c.runs.to_string(),
                    c.accepted.to_string(),
                    format!("{:.1}%", 100.0 * c.acceptance_rate()),
                    if c.runs == 0 { "-".into() } else { c.min_proof_bits.to_string() },
                    if c.runs == 0 { "-".into() } else { format!("{:.1}", c.mean_proof_bits()) },
                    c.max_proof_bits.to_string(),
                    c.failures.to_string(),
                ]
            })
            .collect()
    }

    /// Header row matching [`SweepOutcome::aggregate_rows`].
    pub fn aggregate_headers() -> [&'static str; 10] {
        [
            "family",
            "prover",
            "n",
            "runs",
            "accepted",
            "rate",
            "min bits",
            "mean bits",
            "max bits",
            "quarantined",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn record(family: Family, prover: Prover, n: usize, accepted: bool, bits: usize) -> RunRecord {
        RunRecord {
            index: 0,
            family,
            n,
            actual_n: n,
            prover,
            trial: 0,
            gen_seed: 0,
            run_seed: 0,
            accepted,
            rounds: 5,
            proof_size_bits: bits,
            per_round_max_bits: vec![bits],
            coin_bits: 0,
            rejections: vec![],
            wall: Duration::from_millis(1),
            attempts: 1,
        }
    }

    #[test]
    fn aggregate_folds_cells() {
        let outcome = SweepOutcome {
            records: vec![
                record(Family::Planarity, Prover::Honest, 64, true, 10),
                record(Family::Planarity, Prover::Honest, 64, true, 14),
                record(Family::Planarity, Prover::Cheat(0), 64, false, 14),
            ],
            failures: vec![JobFailure {
                index: 3,
                family: Family::Planarity,
                n: 64,
                prover: Prover::Cheat(0),
                trial: 1,
                attempts: 2,
                kind: FailureKind::Panicked,
                payload: "boom".into(),
            }],
            metrics: SweepMetrics {
                jobs: 4,
                failures: 1,
                quarantined: 1,
                timed_out: 0,
                retries: 1,
                threads: 1,
                wall: Duration::from_millis(4),
                peak_rss_bytes: None,
                alloc_peak_bytes: None,
            },
        };
        let table = outcome.aggregate();
        let honest = &table[&(Family::Planarity, Prover::Honest, 64)];
        assert_eq!(honest.runs, 2);
        assert_eq!(honest.accepted, 2);
        assert_eq!(honest.max_proof_bits, 14);
        assert_eq!(honest.min_proof_bits, 10);
        assert!((honest.mean_proof_bits() - 12.0).abs() < 1e-9);
        let cheat = &table[&(Family::Planarity, Prover::Cheat(0), 64)];
        assert_eq!(cheat.runs, 1);
        assert_eq!(cheat.failures, 1);
        assert!((cheat.acceptance_rate() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_summary_line_mentions_all_fields() {
        let m = SweepMetrics {
            jobs: 100,
            failures: 2,
            quarantined: 1,
            timed_out: 1,
            retries: 3,
            threads: 4,
            wall: Duration::from_secs(2),
            peak_rss_bytes: Some(6 * 1024 * 1024),
            alloc_peak_bytes: None,
        };
        let line = m.summary_line();
        assert!(line.contains("100 jobs"));
        assert!(line.contains("2 failures"));
        assert!(line.contains("1 quarantined"));
        assert!(line.contains("1 timed out"));
        assert!(line.contains("3 retries"));
        assert!(line.contains("4 threads"));
        assert!(line.contains("50.0 jobs/sec"));
    }

    #[test]
    fn zero_wall_time_reports_zero_throughput() {
        let m = SweepMetrics {
            jobs: 0,
            failures: 0,
            quarantined: 0,
            timed_out: 0,
            retries: 0,
            threads: 1,
            wall: Duration::ZERO,
            peak_rss_bytes: None,
            alloc_peak_bytes: None,
        };
        assert_eq!(m.jobs_per_sec(), 0.0);
        assert!(m.jobs_per_sec().is_finite());
        assert!(m.summary_line().contains("0.0 jobs/sec"));
    }

    #[test]
    fn failure_kind_names_are_stable() {
        assert_eq!(FailureKind::Panicked.name(), "panicked");
        assert_eq!(FailureKind::TimedOut.name(), "timed-out");
    }
}
