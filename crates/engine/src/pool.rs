//! The sweep executor: jobs run on [`pdip_core::par`]'s chunked worker
//! loop, deterministic results, panic isolation with
//! retry-then-quarantine.
//!
//! Each job is one chunk of the `par` grid; workers claim chunks from
//! an atomic cursor and the results come back in chunk order, which is
//! grid order. Because per-job seeds are derived from
//! `(base_seed, index)` alone (see [`crate::seed`]), the records — and
//! everything folded from them — are byte-identical for any worker
//! count.

use crate::family::{no_instance_with, Family, YesInstance};
use crate::record::{FailureKind, JobFailure, RunRecord, SweepMetrics, SweepOutcome};
use crate::seed::{labels, sub_seed};
use crate::spec::{JobSpec, Prover, SweepSpec};
use pdip_core::par::map_chunks_with;
use pdip_graph::TraversalScratch;
use pdip_obs::{counter, span, BufferedRecorder, Recorder, SpanId};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// Cache capacity per worker; on overflow the cache is cleared wholesale
/// (generation is pure in the key, so eviction can never change results).
const SCRATCH_CAP: usize = 256;

/// Per-worker reusable scratch: an instance cache keyed by the full
/// generation input `(family, n, yes/no, gen_seed)`.
///
/// Sweep grids with explicit seed functions (E3-style soundness grids)
/// re-generate the *same* instance for every cheat strategy and every
/// retry; caching it per worker removes that regeneration from the hot
/// path. Because [`YesInstance::generate`] / [`no_instance`] are pure
/// functions of the key, a cache hit returns a byte-identical instance
/// and the engine's determinism guarantee is untouched — records are
/// the same whether the scratch is cold, warm, or shared with other
/// jobs. Each worker thread owns one arena for its whole drain of the
/// job queue.
#[derive(Default)]
pub struct WorkerScratch {
    cache: HashMap<(Family, usize, bool, u64), YesInstance>,
    /// Graph-side traversal buffers (visited epochs, BFS/DFS stacks, LR
    /// arena) reused by every instance generation this worker performs,
    /// so repeated sweep jobs do no graph-side allocation after warmup.
    traversal: TraversalScratch,
    hits: u64,
    misses: u64,
}

impl WorkerScratch {
    /// A fresh (cold) scratch arena.
    pub fn new() -> WorkerScratch {
        WorkerScratch::default()
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (instance generations) since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The instance for `(family, n, yes, gen_seed)`, generated on first
    /// use and reused on every later request with the same key.
    pub fn instance(&mut self, family: Family, n: usize, yes: bool, gen_seed: u64) -> &YesInstance {
        let key = (family, n, yes, gen_seed);
        if self.cache.len() >= SCRATCH_CAP && !self.cache.contains_key(&key) {
            self.cache.clear();
        }
        let WorkerScratch { cache, traversal, hits, misses } = self;
        match cache.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                *hits += 1;
                e.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                *misses += 1;
                e.insert(if yes {
                    YesInstance::generate_with(family, n, gen_seed, traversal)
                } else {
                    no_instance_with(family, n, gen_seed, traversal)
                })
            }
        }
    }
}

/// The batch-verification engine: a sweep executor with a fixed worker
/// count.
#[derive(Debug, Clone)]
pub struct Engine {
    /// Worker threads (1 = serial; results are identical either way).
    pub threads: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Engine { threads: pdip_core::par::machine_parallelism() }
    }
}

impl Engine {
    /// An engine with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Engine { threads }
    }

    /// Expands `spec` and executes every job, returning records and
    /// quarantined failures in grid order.
    ///
    /// `rec` receives per-job execute spans (job index as the event
    /// context), the queue-wait histogram, retry/timeout counters, and
    /// every protocol-level span the instrumented protocols emit; pass
    /// [`pdip_obs::NoopRecorder`] for none. The recorder rides as a
    /// parameter (not an engine field) so the engine stays `Clone`.
    /// Every worker keeps one [`WorkerScratch`] for the whole run, and
    /// the default panic hook is silenced while jobs run (quarantined
    /// panics are reported as [`JobFailure`]s instead).
    pub fn run(&self, spec: &SweepSpec, rec: &dyn Recorder) -> SweepOutcome {
        let jobs = spec.expand();
        let threads = self.threads.max(1);
        let _silencer = PanicSilencer::engage();
        let start = Instant::now();
        let outs = map_chunks_with(threads, jobs.len(), 1, WorkerScratch::new, |scratch, r| {
            if rec.enabled() {
                // Time from sweep start to job pickup: the job's queue
                // wait (histogram only — wall data never enters the
                // event stream).
                let nanos = start.elapsed().as_nanos();
                rec.duration("engine/queue-wait", u64::try_from(nanos).unwrap_or(u64::MAX));
            }
            execute_job(spec, &jobs[r.start], scratch, rec)
        });
        let (mut records, mut failures) = (Vec::new(), Vec::new());
        for out in outs {
            match out {
                Ok(r) => records.push(r),
                Err(f) => failures.push(f),
            }
        }
        let quarantined =
            failures.iter().filter(|f| f.kind == FailureKind::Panicked).count() as u64;
        let timed_out = failures.iter().filter(|f| f.kind == FailureKind::TimedOut).count() as u64;
        let retries = records.iter().map(|r| (r.attempts - 1) as u64).sum::<u64>()
            + failures.iter().map(|f| (f.attempts - 1) as u64).sum::<u64>();
        let mut metrics = SweepMetrics {
            jobs: (records.len() + failures.len()) as u64,
            failures: failures.len() as u64,
            quarantined,
            timed_out,
            retries,
            threads,
            wall: start.elapsed(),
            peak_rss_bytes: None,
            alloc_peak_bytes: None,
        };
        metrics.capture_memory();
        SweepOutcome { records, failures, metrics }
    }
}

/// Runs one job behind panic isolation with the spec's retry budget,
/// reusing `scratch` for instance generation.
///
/// Retry `k` re-runs the protocol with a seed derived from the job's run
/// seed and `k`, so a panic caused by an unlucky coin draw can clear
/// while a deterministic panic exhausts its attempts and is quarantined.
/// The attempt sequence depends only on the job, never on scheduling or
/// on the scratch contents.
///
/// A completed run whose wall time exceeds the spec's
/// [`SweepSpec::job_deadline`] watchdog is quarantined as
/// [`FailureKind::TimedOut`] instead of entering the record stream; a
/// timeout is terminal (never retried), because re-running a structurally
/// slow job only stalls the pool again.
///
/// The run executes under an `engine/job` span, with `retry` /
/// `timed_out` counters and the protocol's own spans nested inside, all
/// recorded through one per-job [`BufferedRecorder`] whose event context
/// is the job's grid index: the job's events reach `rec` as one
/// contiguous shard, so a drained trace groups per job no matter which
/// worker ran it. `rec` is observe-only — same seeds, same records.
pub fn execute_job(
    spec: &SweepSpec,
    job: &JobSpec,
    scratch: &mut WorkerScratch,
    rec: &dyn Recorder,
) -> Result<RunRecord, JobFailure> {
    let job_rec = BufferedRecorder::new(rec, job.coords.index);
    let job_id = SpanId::new("engine/job");
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        if attempt > 1 {
            counter(&job_rec, 0, job_id, "retry", 1);
        }
        let run_seed = if attempt == 1 {
            job.run_seed
        } else {
            sub_seed(sub_seed(job.run_seed, labels::RETRY), attempt as u64)
        };
        match catch_unwind(AssertUnwindSafe(|| {
            let _exec = span(&job_rec, 0, SpanId::new("engine/execute"));
            run_once(spec, job, run_seed, scratch, &job_rec)
        })) {
            Ok(mut record) => {
                record.attempts = attempt;
                if let Some(deadline) = spec.job_deadline {
                    if record.wall > deadline {
                        counter(&job_rec, 0, job_id, "timed_out", 1);
                        let c = &job.coords;
                        return Err(JobFailure {
                            index: c.index,
                            family: c.family,
                            n: c.n,
                            prover: c.prover,
                            trial: c.trial,
                            attempts: attempt,
                            kind: FailureKind::TimedOut,
                            // The measured wall time stays out of the
                            // payload: failures feed the deterministic
                            // JSON sink, which must not carry timings.
                            payload: format!(
                                "watchdog: exceeded the {:.3}s job deadline",
                                deadline.as_secs_f64()
                            ),
                        });
                    }
                }
                return Ok(record);
            }
            Err(payload) => {
                if attempt > spec.max_retries {
                    let c = &job.coords;
                    return Err(JobFailure {
                        index: c.index,
                        family: c.family,
                        n: c.n,
                        prover: c.prover,
                        trial: c.trial,
                        attempts: attempt,
                        kind: FailureKind::Panicked,
                        payload: payload_string(payload),
                    });
                }
            }
        }
    }
}

fn run_once(
    spec: &SweepSpec,
    job: &JobSpec,
    run_seed: u64,
    scratch: &mut WorkerScratch,
    rec: &dyn Recorder,
) -> RunRecord {
    let c = &job.coords;
    let start = Instant::now();
    let (res, actual_n, rounds) = match c.prover {
        Prover::Honest => {
            let inst = scratch.instance(c.family, c.n, true, job.gen_seed);
            inst.with_protocol(spec.params, spec.transport, |p| {
                (p.run_honest_traced(run_seed, rec), p.instance_size(), p.rounds())
            })
        }
        Prover::Cheat(s) => {
            let inst = scratch.instance(c.family, c.n, false, job.gen_seed);
            inst.with_protocol(spec.params, spec.transport, |p| {
                (p.run_cheat_traced(s, run_seed, rec), p.instance_size(), p.rounds())
            })
        }
        Prover::PanicInjection => panic!(
            "injected panic: {} n={} trial={} (fault injection)",
            c.family.name(),
            c.n,
            c.trial
        ),
    };
    let mut record = RunRecord::from_result(job, actual_n, rounds, &res, start.elapsed());
    record.run_seed = run_seed;
    record
}

fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Depth-counted suppression of the global panic hook, so quarantined
/// panics don't spray backtrace noise over sweep output. Re-entrant
/// across concurrently running engines; the previous hook is restored
/// when the last engine finishes.
pub(crate) struct PanicSilencer;

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync>;

struct SilenceState {
    depth: usize,
    saved: Option<PanicHook>,
}

static SILENCE: Mutex<SilenceState> = Mutex::new(SilenceState { depth: 0, saved: None });

impl PanicSilencer {
    pub(crate) fn engage() -> PanicSilencer {
        let mut st = SILENCE.lock().expect("panic-hook state poisoned");
        if st.depth == 0 {
            st.saved = Some(std::panic::take_hook());
            std::panic::set_hook(Box::new(|_| {}));
        }
        st.depth += 1;
        PanicSilencer
    }
}

impl Drop for PanicSilencer {
    fn drop(&mut self) {
        let mut st = SILENCE.lock().expect("panic-hook state poisoned");
        st.depth -= 1;
        if st.depth == 0 {
            if let Some(hook) = st.saved.take() {
                std::panic::set_hook(hook);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::Family;
    use crate::spec::ProverSpec;
    use pdip_obs::NoopRecorder;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            families: vec![Family::PathOuterplanar],
            sizes: vec![40],
            provers: vec![ProverSpec::Honest],
            trials: 4,
            base_seed: 99,
            ..SweepSpec::default()
        }
    }

    #[test]
    fn honest_jobs_complete_and_accept() {
        let outcome = Engine::with_threads(2).run(&tiny_spec(), &NoopRecorder);
        assert_eq!(outcome.records.len(), 4);
        assert!(outcome.failures.is_empty());
        assert!(outcome.records.iter().all(|r| r.accepted));
        assert!(outcome.records.iter().all(|r| r.rounds == 5));
        assert_eq!(outcome.metrics.jobs, 4);
    }

    #[test]
    fn panic_injection_is_quarantined_not_fatal() {
        let spec = SweepSpec {
            provers: vec![ProverSpec::Honest, ProverSpec::PanicInjection],
            trials: 2,
            max_retries: 1,
            ..tiny_spec()
        };
        let outcome = Engine::with_threads(3).run(&spec, &NoopRecorder);
        // Honest jobs complete; every injected panic is quarantined.
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(outcome.failures.len(), 2);
        for f in &outcome.failures {
            assert_eq!(f.attempts, 2, "one attempt + one retry");
            assert!(f.payload.contains("injected panic"), "{}", f.payload);
            assert_eq!(f.prover, Prover::PanicInjection);
            assert_eq!(f.kind, FailureKind::Panicked);
        }
        assert_eq!(outcome.metrics.failures, 2);
        assert_eq!(outcome.metrics.quarantined, 2);
        assert_eq!(outcome.metrics.timed_out, 0);
        assert_eq!(outcome.metrics.retries, 2, "each panic job burned one retry");
        assert!(outcome.metrics.summary_line().contains("2 quarantined"));
    }

    #[test]
    fn watchdog_deadline_quarantines_slow_jobs_without_retry() {
        use std::time::Duration;
        // A zero-length deadline times out every job: the watchdog
        // classifies completed runs post-hoc, so detection is exact.
        let spec = SweepSpec { job_deadline: Some(Duration::ZERO), ..tiny_spec() };
        let outcome = Engine::with_threads(2).run(&spec, &NoopRecorder);
        assert!(outcome.records.is_empty());
        assert_eq!(outcome.failures.len(), 4);
        for f in &outcome.failures {
            assert_eq!(f.kind, FailureKind::TimedOut);
            assert_eq!(f.attempts, 1, "timeouts must not be retried");
            assert!(f.payload.contains("watchdog"), "{}", f.payload);
        }
        assert_eq!(outcome.metrics.timed_out, 4);
        assert_eq!(outcome.metrics.quarantined, 0);
        assert_eq!(outcome.metrics.retries, 0);
        assert!(outcome.metrics.summary_line().contains("4 timed out"));
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        use std::time::Duration;
        let lax = SweepSpec { job_deadline: Some(Duration::from_secs(3600)), ..tiny_spec() };
        let outcome = Engine::with_threads(2).run(&lax, &NoopRecorder);
        assert_eq!(outcome.records.len(), 4);
        assert!(outcome.failures.is_empty());
        assert_eq!(outcome.metrics.timed_out, 0);
        // Records under a generous deadline match the no-deadline run
        // bit-for-bit on the deterministic surface.
        let plain = Engine::with_threads(2).run(&tiny_spec(), &NoopRecorder);
        let key = |r: &RunRecord| (r.index, r.accepted, r.proof_size_bits, r.run_seed);
        assert_eq!(
            outcome.records.iter().map(key).collect::<Vec<_>>(),
            plain.records.iter().map(key).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn records_come_back_in_grid_order() {
        let spec = SweepSpec { trials: 12, ..tiny_spec() };
        let outcome = Engine::with_threads(4).run(&spec, &NoopRecorder);
        let indices: Vec<u64> = outcome.records.iter().map(|r| r.index).collect();
        assert_eq!(indices, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn warm_scratch_produces_identical_records() {
        use crate::spec::SeedMode;
        // An E3-style grid where every cheat strategy at a cell shares
        // the generation seed, so a warm scratch actually gets hits.
        let spec = SweepSpec {
            families: vec![Family::PathOuterplanar],
            sizes: vec![40],
            provers: vec![ProverSpec::Honest, ProverSpec::AllCheats],
            trials: 3,
            base_seed: 7,
            seeds: SeedMode::Explicit(|c| (c.trial * 31 + c.n as u64, c.trial)),
            ..SweepSpec::default()
        };
        let timeless = |r: &RunRecord| {
            format!(
                "{} {} {} {} {} {} {} {:?}",
                r.index,
                r.gen_seed,
                r.run_seed,
                r.accepted,
                r.rounds,
                r.proof_size_bits,
                r.coin_bits,
                r.rejections,
            )
        };
        let jobs = spec.expand();
        let mut scratch = WorkerScratch::new();
        let warm: Vec<String> = jobs
            .iter()
            .map(|j| timeless(&execute_job(&spec, j, &mut scratch, &NoopRecorder).unwrap()))
            .collect();
        let cold: Vec<String> = jobs
            .iter()
            .map(|j| {
                timeless(&execute_job(&spec, j, &mut WorkerScratch::new(), &NoopRecorder).unwrap())
            })
            .collect();
        assert_eq!(warm, cold, "scratch reuse must not change any record");
        assert!(scratch.hits() > 0, "shared gen seeds must hit the cache");
        assert!(scratch.misses() > 0);
    }

    #[test]
    fn scratch_cache_stays_bounded() {
        let mut scratch = WorkerScratch::new();
        for seed in 0..(2 * super::SCRATCH_CAP as u64 + 10) {
            scratch.instance(Family::PathOuterplanar, 24, true, seed);
        }
        assert!(scratch.cache.len() <= super::SCRATCH_CAP);
        assert_eq!(scratch.hits(), 0, "distinct keys never hit");
    }
}
