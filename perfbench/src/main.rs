//! `perfbench` — the end-to-end and per-layer benchmark of the
//! planarity-DIP workspace.
//!
//! ```text
//! perfbench --workload W --seed S --seconds T --trace 0|1 --pdip PATH
//!           [--out-dir DIR] [--commit C] [--smoke]
//! ```
//!
//! Workloads: `serve-small-mix`, `verify-accept-large`, `verify-reject`,
//! `prove-large` (see `perfbench/README.md`). The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The exit code is 1 when any verdict or
//! check came out wrong, 2 on a usage or environment error.

mod inproc;
mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use stats::{median, Outcome};
use std::path::PathBuf;
use std::time::Instant;

/// Allocator high-water tracking for the `mem_mib` metric.
#[global_allocator]
static ALLOC: pdip_obs::PeakAlloc = pdip_obs::PeakAlloc::new();

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] =
    ["serve-small-mix", "verify-accept-large", "verify-reject", "prove-large"];

/// The end-to-end metrics every workload reports with `--trace 0`; a
/// traced run reports the per-layer metrics instead.
const END_TO_END: [&str; 6] =
    ["setup_s", "p50_ms", "knodes_per_s", "mem_mib", "proof_bits", "wire_bytes_per_node"];

/// Times each workload is set up in one run; the median is reported.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pdip: PathBuf,
    out_dir: PathBuf,
    commit: String,
    smoke: bool,
}

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed S --seconds T --trace 0|1 --pdip PATH \
         [--out-dir DIR] [--commit C] [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value =
        |name: &str| argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1)).cloned();
    let workload = value("--workload").unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let num = |name: &str, default: &str| -> f64 {
        value(name)
            .unwrap_or_else(|| default.into())
            .parse()
            .unwrap_or_else(|_| usage(&format!("{name} needs a number")))
    };
    Args {
        workload,
        seed: num("--seed", "1") as u64,
        seconds: num("--seconds", "10").max(0.1),
        trace: num("--trace", "0") != 0.0,
        pdip: PathBuf::from(value("--pdip").unwrap_or_else(|| usage("--pdip is required"))),
        out_dir: PathBuf::from(
            value("--out-dir").unwrap_or_else(|| ".bench_build/perfbench-out".into()),
        ),
        commit: value("--commit").unwrap_or_else(|| "unknown".into()),
        smoke: argv.iter().any(|a| a == "--smoke"),
    }
}

/// What every workload needs to know about the run.
pub struct Run {
    /// The input seed.
    pub seed: u64,
    /// How long the timed phase lasts.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Node count of the large instances.
    pub large: usize,
    /// Node count of the reject-path no-instances.
    pub reject: usize,
    /// Sizes of the series-parallel reject-path growth fit.
    pub sp_sizes: &'static [usize],
}

/// Runs `make` [`SETUPS`] times and returns the last result and the
/// median set-up time. Every repetition must produce the same digest.
fn repeated_setup<T>(
    out: &mut Outcome,
    mut make: impl FnMut() -> Result<(T, f64, u64), String>,
) -> Result<T, String> {
    let mut times = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let (value, secs, digest) = make()?;
        times.push(secs);
        digests.push(digest);
        last = Some(value);
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        out.problem(format!("the same seed generated different inputs: digests {digests:x?}"));
    }
    out.metrics.set("setup_s", median(&times), "s");
    Ok(last.expect("SETUPS > 0"))
}

fn digest(blobs: &[inputs::Blob]) -> u64 {
    blobs.iter().fold(0, |h, b| inputs::mix(h, pdip_wire::fnv1a64(&b.bytes)))
}

fn run(a: &Args, out: &mut Outcome) -> Result<trace::Tracer, String> {
    let (large, reject, sp_sizes): (usize, usize, &'static [usize]) =
        if a.smoke { (300, 80, &[64, 128, 256]) } else { (10_000, 500, &[250, 500, 1000]) };
    let run = Run { seed: a.seed, seconds: a.seconds, trace: a.trace, large, reject, sp_sizes };
    match a.workload.as_str() {
        "serve-small-mix" => {
            std::fs::create_dir_all(&a.out_dir)
                .map_err(|e| format!("{}: {e}", a.out_dir.display()))?;
            let mut k = 0;
            let (blobs, server) = repeated_setup(out, || {
                k += 1;
                let (blobs, server, secs) =
                    serve::setup(&a.pdip, a.seed, &serve::log_path(&a.out_dir, a.seed, k))?;
                let d = digest(&blobs);
                Ok(((blobs, server), secs, d))
            })?;
            serve::serve_workload(&blobs, server, &run, out)
        }
        "verify-accept-large" | "verify-reject" => {
            let blobs = repeated_setup(out, || {
                let t0 = Instant::now();
                let blobs = if a.workload == "verify-reject" {
                    inputs::reject_blobs(run.reject, a.seed)
                } else {
                    inputs::accept_blobs(run.large, a.seed)
                };
                let secs = t0.elapsed().as_secs_f64();
                let d = digest(&blobs);
                Ok((blobs, secs, d))
            })?;
            Ok(inproc::verify_workload(&blobs, &run, out))
        }
        _ => {
            let instances = repeated_setup(out, || {
                let t0 = Instant::now();
                let instances = inputs::large_instances(run.large, a.seed);
                let secs = t0.elapsed().as_secs_f64();
                let d = instances.iter().fold(0, |h, i| {
                    inputs::mix(h, (i.n as u64) << 32 | inputs::graph_of(&i.wire).m() as u64)
                });
                Ok((instances, secs, d))
            })?;
            Ok(inproc::prove_workload(&instances, &run, out))
        }
    }
}

/// Writes the spans and a per-layer self-time table of a traced run.
fn write_trace(a: &Args, tr: &trace::Tracer) -> std::io::Result<()> {
    let stem = format!("{}-seed{}", a.workload, a.seed);
    tr.write_jsonl(&a.out_dir.join(format!("{stem}.spans.jsonl")))?;
    let mut table = String::from("span                 count    total_ms     self_ms\n");
    for (name, (count, total, own)) in tr.summary() {
        table.push_str(&format!(
            "{name:<20} {count:>5} {:>11.3} {:>11.3}\n",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    eprint!("{table}");
    std::fs::write(a.out_dir.join(format!("{stem}.layers.txt")), table)
}

fn main() {
    let a = parse_args();
    let started = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench env: workload={} seed={} seconds={} trace={} nproc={nproc} server_threads={} \
         intra_workers={} commit={} smoke={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        serve::SERVER_THREADS,
        pdip_core::par::intra_workers(),
        a.commit,
        a.smoke
    );
    let mut out = Outcome::default();
    match run(&a, &mut out) {
        Ok(tr) => {
            if tr.enabled() {
                if let Err(e) = write_trace(&a, &tr) {
                    eprintln!("perfbench: writing the trace: {e}");
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload);
            std::process::exit(2);
        }
    }
    out.metrics.retain(|name| END_TO_END.contains(&name) != a.trace);
    eprintln!("perfbench: {} done in {:.1} s", a.workload, started.elapsed().as_secs_f64());
    println!("{}", out.render());
    std::process::exit(if out.correct() { 0 } else { 1 });
}
