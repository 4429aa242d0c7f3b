//! The experiment registry: one [`Entry`] per committed artifact under
//! `results/`, each with the one generator that produces it.
//!
//! `pdip exp` prints [`ENTRIES`] and `pdip exp <id>` runs one of them;
//! the freshness tests (`tests/experiments.rs`, plus
//! `tests/results_freshness.rs` for E3 and `tests/e12_freshness.rs` for
//! E12) read every committed file through the table,
//! and CI re-runs each entry's [`Entry::gate`] variant and `cmp`s its
//! deterministic files against `results/`.
//!
//! A generator returns the artifact bytes, the stdout-only notes
//! (timings, `[engine]` summaries: scheduling-dependent, so they never
//! reach a committed file) and a pass flag.

pub mod paper;

use crate::snapshot::{self, Snapshot};
use pdip_engine::{
    ChaosSpec, ObsAuditSpec, ScaleSpec, ServeChaosSpec, TraceSpec, E12_SEED, E13_SEED, E14_SEED,
};
use std::fmt::Write as _;
use Variant::{Full, Smoke};

/// Which grid of an experiment ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The full grid.
    Full,
    /// The reduced `--smoke` grid.
    Smoke,
}

impl Variant {
    /// `full` or `smoke`.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Full => "full",
            Variant::Smoke => "smoke",
        }
    }
}

/// One file an entry writes: `results/{stem}.{ext}`.
#[derive(Debug)]
pub struct Artifact {
    /// File extension (`txt` or `json`).
    pub ext: &'static str,
    /// Whether a rerun of the committed variant reproduces the file
    /// byte for byte (false for files carrying timings).
    pub deterministic: bool,
}

/// The options of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Opts {
    /// Run the `--smoke` grid.
    pub smoke: bool,
    /// Worker threads (`--threads`); `None` picks the entry's default.
    pub threads: Option<usize>,
}

/// What one generator run produced.
#[derive(Debug)]
pub struct Output {
    /// The artifact contents, one per [`Entry::artifacts`], in order.
    pub files: Vec<String>,
    /// Stdout-only lines: timings and `[engine]` summaries.
    pub notes: Vec<String>,
    /// Whether every audit of the run passed.
    pub passed: bool,
}

/// One experiment of the registry.
#[derive(Debug)]
pub struct Entry {
    /// Command-line id (`pdip exp <id>`).
    pub id: &'static str,
    /// File name of every artifact under `results/`, without extension.
    pub stem: &'static str,
    /// The files the entry writes.
    pub artifacts: &'static [Artifact],
    /// The variant that produced the committed files.
    pub committed: Variant,
    /// The flags the entry takes besides `--out` and `--quiet`.
    pub flags: &'static [&'static str],
    /// The generator.
    pub run: fn(&Opts) -> Output,
    /// One-line description.
    pub title: &'static str,
}

impl Entry {
    /// The repository-relative path of the artifacts, without extension.
    pub fn prefix(&self) -> String {
        format!("results/{}", self.stem)
    }

    /// The repository-relative path of the artifact with extension `ext`.
    pub fn path(&self, ext: &str) -> String {
        format!("{}.{ext}", self.prefix())
    }

    /// Whether the entry takes `flag`.
    pub fn takes(&self, flag: &str) -> bool {
        self.flags.contains(&flag)
    }

    /// The variant CI runs: the committed one when there is a
    /// deterministic file to compare, else the cheapest one (the run is
    /// then a pass gate only).
    pub fn gate(&self) -> Variant {
        if self.takes("--smoke") && !self.artifacts.iter().any(|a| a.deterministic) {
            Variant::Smoke
        } else {
            self.committed
        }
    }
}

const fn file(ext: &'static str, deterministic: bool) -> Artifact {
    Artifact { ext, deterministic }
}

/// E1–E8: one table.
const TXT: &[Artifact] = &[file("txt", true)];
/// E9, E10, E12: a report and its JSON form, both timing-free.
const AUDIT: &[Artifact] = &[file("txt", true), file("json", true)];
/// E13, E14: the JSON carries throughput and latency fields.
const SERVE_AUDIT: &[Artifact] = &[file("txt", true), file("json", false)];
/// E11: wall-time and memory columns in both files.
const SCALE: &[Artifact] = &[file("txt", false), file("json", false)];
/// The bench snapshots: timings only.
const SNAPSHOT: &[Artifact] = &[file("json", false)];

const NONE: &[&str] = &[];
const SMOKE: &[&str] = &["--smoke"];
const THREADS: &[&str] = &["--threads"];
const BOTH: &[&str] = &["--smoke", "--threads"];

const fn entry(
    id: &'static str,
    stem: &'static str,
    artifacts: &'static [Artifact],
    committed: Variant,
    flags: &'static [&'static str],
    run: fn(&Opts) -> Output,
    title: &'static str,
) -> Entry {
    Entry { id, stem, artifacts, committed, flags, run, title }
}

/// Every experiment, in the order of the EXPERIMENTS.md sections.
pub const ENTRIES: &[Entry] = &[
    entry("e1", "e1_proof_size", TXT, Full, THREADS, paper::e1, "proof size vs n, DIP vs PLS"),
    entry("e2", "e2_completeness", TXT, Full, THREADS, paper::e2, "5 rounds, perfect completeness"),
    entry("e3", "e3_soundness", TXT, Full, THREADS, paper::e3, "cheating-prover acceptance"),
    entry("e4", "e4_pipeline", TXT, Full, NONE, paper::e4, "Figure 2 pipeline end to end"),
    entry("e5", "e5_lower_bound", TXT, Full, NONE, paper::e5, "Thm 1.8 forgery threshold"),
    entry("e6", "e6_degree", TXT, Full, NONE, paper::e6, "O(log Δ) term of Thm 1.5"),
    entry("e7", "e7_lr_breakdown", TXT, Full, NONE, paper::e7, "LR-sorting per-round bits"),
    entry("e8", "e8_ablations", TXT, Full, NONE, paper::e8, "block size, c, repetitions"),
    entry("e9", "e9_chaos", AUDIT, Full, BOTH, e9, "chaos: corruption detection"),
    entry("e10", "e10_trace", AUDIT, Full, BOTH, e10, "trace: per-round bit envelopes"),
    entry("e11", "e11_scale", SCALE, Full, BOTH, e11, "bounded-memory scaling to 10^7"),
    entry("e12", "e12_serve", AUDIT, Full, NONE, e12, "serve: the verification service"),
    entry("e13", "e13_serve_chaos", SERVE_AUDIT, Smoke, SMOKE, e13, "serve chaos at the wire"),
    entry("e14", "e14_obs", SERVE_AUDIT, Smoke, SMOKE, e14, "live-metrics conservation"),
    entry("bench-hotpath", "bench_hotpath", SNAPSHOT, Full, NONE, bench_hotpath, "field hot paths"),
    entry("bench-graph", "bench_graph", SNAPSHOT, Full, SMOKE, bench_graph, "graph kernels"),
    entry("bench-round", "bench_round", SNAPSHOT, Full, BOTH, bench_round, "round stage profile"),
];

/// The entry with id `id`.
pub fn find(id: &str) -> Option<&'static Entry> {
    ENTRIES.iter().find(|e| e.id == id)
}

/// The `--threads` value, defaulting to the machine's parallelism.
fn threads(o: &Opts) -> usize {
    o.threads.unwrap_or_else(pdip_core::par::machine_parallelism)
}

/// The name of the variant `o` selects.
fn variant(o: &Opts) -> &'static str {
    if o.smoke { Smoke } else { Full }.name()
}

fn e9(o: &Opts) -> Output {
    let mut spec = if o.smoke { ChaosSpec::smoke() } else { ChaosSpec::full() };
    spec.threads = threads(o);
    let report = pdip_engine::run_chaos(&spec);
    let header = format!(
        "chaos sweep ({}): n={} trials-per-cell={} base-seed={:#x} threads={}",
        variant(o),
        spec.n,
        spec.trials,
        spec.base_seed,
        spec.threads
    );
    Output {
        files: vec![report.render_text(), report.render_json()],
        notes: vec![header],
        passed: report.all_pass,
    }
}

fn e10(o: &Opts) -> Output {
    let mut spec = if o.smoke { TraceSpec::smoke() } else { TraceSpec::full() };
    spec.threads = threads(o);
    let outcome = pdip_engine::run_trace(&spec);
    let mut notes = vec![
        format!(
            "trace audit ({}): sizes={:?} trials-per-cell={} base-seed={:#x} threads={}",
            variant(o),
            spec.sizes,
            spec.trials,
            spec.base_seed,
            spec.threads
        ),
        "span timing (wall-clock, not part of the artifact):".into(),
    ];
    notes.extend(outcome.timing_lines().iter().map(|l| format!("  {l}")));
    notes.push(outcome.metrics.summary_line());
    let report = &outcome.report;
    Output {
        files: vec![report.render_text(), report.render_json()],
        notes,
        passed: report.all_pass,
    }
}

fn e11(o: &Opts) -> Output {
    let mut spec = if o.smoke { ScaleSpec::smoke() } else { ScaleSpec::full() };
    spec.threads = o.threads.unwrap_or(spec.threads);
    let start = std::time::Instant::now();
    let report = pdip_engine::run_scale(&spec);
    let mut notes = vec![
        format!(
            "scaling audit ({}): sizes={:?} shard-n={} base-seed={:#x} threads={}",
            variant(o),
            spec.sizes,
            spec.shard_n,
            spec.base_seed,
            spec.threads
        ),
        pdip_engine::scale_metrics(&report, start.elapsed()).summary_line(),
    ];
    // The bounded-memory gate must run for real: a process without the
    // tracking allocator would pass it vacuously.
    if !report.rss_tracked {
        notes.push("allocator peak untracked: install pdip_obs::PeakAlloc".into());
    }
    Output {
        files: vec![report.render_text(), report.render_json()],
        notes,
        passed: report.all_pass && report.rss_tracked,
    }
}

fn e12(_: &Opts) -> Output {
    let report = pdip_engine::run_serve_smoke(&[1, 4], E12_SEED);
    Output {
        files: vec![report.render_text(), report.render_json()],
        notes: Vec::new(),
        passed: report.passed,
    }
}

fn e13(o: &Opts) -> Output {
    let spec = if o.smoke { ServeChaosSpec::smoke() } else { ServeChaosSpec::full() };
    let report = pdip_engine::run_serve_chaos(&spec, E13_SEED);
    let notes = vec![
        format!(
            "serve chaos audit ({}): trials-per-class={} base-seed={E13_SEED:#x}",
            variant(o),
            spec.trials
        ),
        format!("sustained throughput: {:.1} requests/sec over localhost TCP", report.rps),
    ];
    Output { files: vec![report.render_text(), report.render_json()], notes, passed: report.passed }
}

fn e14(o: &Opts) -> Output {
    let spec = if o.smoke { ObsAuditSpec::smoke() } else { ObsAuditSpec::full() };
    let report = pdip_engine::run_obs_audit(&spec, E14_SEED);
    let notes = vec![
        format!(
            "observability audit ({}): fault-trials-per-class={} threads={:?} base-seed={E14_SEED:#x}",
            variant(o),
            spec.fault_trials,
            spec.threads
        ),
        format!(
            "sustained throughput: {:.1} requests/sec, mean verify latency {} ns",
            report.rps, report.mean_verify_ns
        ),
    ];
    Output { files: vec![report.render_text(), report.render_json()], notes, passed: report.passed }
}

/// A bench snapshot as an [`Output`]: the document, and its tables
/// (entries, then stages if any) under `heading` as notes.
fn bench(heading: String, snap: Snapshot) -> Output {
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<24} {:>10} {:>14} {:>14} {:>9}",
        "benchmark", "n", "baseline ns", "fast ns", "speedup"
    );
    for e in &snap.entries {
        let _ = writeln!(
            table,
            "{:<24} {:>10} {:>14.1} {:>14.1} {:>8.2}x",
            e.name,
            e.n,
            e.baseline_ns,
            e.fast_ns,
            e.speedup()
        );
    }
    if snap.schema.stages {
        let _ = writeln!(table, "\n{:<24} {:>10} {:>14} {:>8}", "stage", "n", "total ns", "share");
        for r in &snap.stages {
            let _ = writeln!(
                table,
                "{:<24} {:>10} {:>14.1} {:>7.1}%",
                r.stage,
                r.n,
                r.total_ns,
                100.0 * r.share
            );
        }
    }
    Output { files: vec![snap.render()], notes: vec![heading, table], passed: true }
}

fn bench_hotpath(_: &Opts) -> Output {
    let heading = "hot-path microbenchmarks (optimized vs division-based baseline):\n".into();
    bench(heading, crate::hotpath::run_hotpath())
}

fn bench_graph(o: &Opts) -> Output {
    use crate::graphbench::{run_graphbench, GraphBenchConfig};
    let cfg = if o.smoke { GraphBenchConfig::smoke() } else { GraphBenchConfig::full() };
    let heading = format!(
        "graph-substrate benchmarks ({}; frozen CSR + warm scratch vs legacy shape):\n",
        variant(o)
    );
    let entries = run_graphbench(&cfg);
    let header = variant(o).into();
    bench(heading, Snapshot { schema: &snapshot::GRAPH, header, entries, stages: Vec::new() })
}

fn bench_round(o: &Opts) -> Output {
    use crate::roundbench::{run_roundbench, RoundBenchConfig};
    // Intra-job workers for the round's chunked per-node loops.
    // Transcripts are byte-identical at any value (the chunk grid is
    // worker-count independent), so the default follows the machine:
    // available_parallelism, capped at MAX_AUTO_WORKERS. Pass
    // `--threads 1` to reproduce single-thread timings.
    match o.threads {
        Some(k) => pdip_core::par::set_intra_workers(k.max(1)),
        None => pdip_core::par::set_intra_workers_auto(),
    }
    let cfg = if o.smoke { RoundBenchConfig::smoke() } else { RoundBenchConfig::full() };
    let heading = format!(
        "intra-job workers: {}\n\nplanarity-round profile ({}; honest run vs committed \
         pre-optimization baseline):\n",
        pdip_core::par::intra_workers(),
        variant(o)
    );
    let (entries, stages) = run_roundbench(&cfg);
    let header = variant(o).into();
    bench(heading, Snapshot { schema: &snapshot::ROUND, header, entries, stages })
}
