//! Per-layer attribution shared by every workload's traced run: the
//! protocol layer under a duration-summing recorder, the capture
//! overhead, the graph and field kernels, and the series-parallel
//! reject-path growth fit.
//!
//! Every per-layer metric is emitted on every workload; a layer the
//! workload does not exercise reads 0.

use crate::inputs::{graph_of, mix, reject_blobs_of, Blob, Expect};
use crate::stats::{loglog_slope, median, Outcome};
use crate::Run;
use pdip_bench::roundbench::{StageRecorder, ROUND_STAGES};
use pdip_core::capture;
use pdip_engine::{Family, FAMILIES};
use pdip_field::{multiset_poly_eval, smallest_prime_above, Fp};
use pdip_graph::{is_planar, sp_tree, BiconnectedComponents, Graph, RootedForest};
use pdip_wire::Transcript;
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of `f` in milliseconds over `reps` calls (after one
/// warm-up call).
pub fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// How many repetitions fit a budget, given one call's cost.
fn reps_for(one_ms: f64, budget_ms: f64) -> usize {
    ((budget_ms / one_ms.max(1e-3)) as usize).clamp(3, 200)
}

/// One plain protocol run of the transcript's prover.
fn run_plain(t: &Transcript) {
    t.with_protocol(|p| {
        black_box(match t.cheat() {
            None => p.run_honest(t.run_seed),
            Some(k) => p.run_cheat(k, t.run_seed),
        })
    });
}

/// One protocol run under `rec`.
fn run_traced(t: &Transcript, rec: &StageRecorder) {
    t.with_protocol(|p| {
        black_box(match t.cheat() {
            None => p.run_honest_traced(t.run_seed, rec),
            Some(k) => p.run_cheat_traced(k, t.run_seed, rec),
        })
    });
}

/// The first transcript of each family, preferring an accepting one:
/// the representatives the protocol-layer metrics are measured on.
fn representatives(blobs: &[Blob]) -> Vec<(&'static str, Transcript)> {
    let mut out = Vec::new();
    for fam in FAMILIES {
        let of_fam = || blobs.iter().filter(move |b| b.family == fam.name());
        let pick = of_fam()
            .find(|b| b.expect == Expect::Accept)
            .or_else(|| of_fam().find(|b| b.expect == Expect::Reject));
        if let Some(b) = pick {
            let t = Transcript::decode(&b.bytes).expect("generated transcripts decode");
            out.push((fam.name(), t));
        }
    }
    out
}

/// Protocol-layer metrics on the workload's transcripts:
/// `protocols.run_ms.<family>`, the planarity round stages and their
/// untracked remainder, `verify.over_run.<family>`, and
/// `dip.capture_overhead_pct`. Checks that the stage sum fits the run.
fn protocol_layer(blobs: &[Blob], budget_ms: f64, out: &mut Outcome) {
    let reps_default = |t: &Transcript| reps_for(time_ms(1, || run_plain(t)), budget_ms);
    let mut plain_sum = 0.0;
    let mut capture_sum = 0.0;
    for fam in FAMILIES {
        let name = fam.name();
        for key in ["protocols.run_ms", "verify.over_run"] {
            out.metrics.set(
                format!("{key}.{name}"),
                0.0,
                if key.ends_with("ms") { "ms" } else { "ratio" },
            );
        }
    }
    for stage in ROUND_STAGES {
        out.metrics.set(stage_metric(stage), 0.0, "ms");
    }
    out.metrics.set("protocols.round.untracked_ms", 0.0, "ms");
    for (fam, t) in representatives(blobs) {
        let reps = reps_default(&t);
        // Every traced call feeds the recorder, so the stage totals are
        // checked against the wall time of those same calls.
        let rec = StageRecorder::new();
        let traced_ms: Vec<f64> = (0..=reps)
            .map(|_| {
                let t0 = Instant::now();
                run_traced(&t, &rec);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let run_ms = median(&traced_ms[1..]);
        let plain_ms = time_ms(reps, || run_plain(&t));
        let verify_ms = time_ms(reps, || {
            black_box(t.verify());
        });
        let capture_ms = time_ms(reps, || {
            black_box(capture::capture(|| run_plain(&t)));
        });
        plain_sum += plain_ms;
        capture_sum += capture_ms;
        out.metrics.set(format!("protocols.run_ms.{fam}"), run_ms, "ms");
        out.metrics.set(format!("verify.over_run.{fam}"), verify_ms / plain_ms, "ratio");
        if fam == Family::Planarity.name() {
            let calls = traced_ms.len() as f64;
            let wall_ms: f64 = traced_ms.iter().sum();
            let mut tracked_ms = 0.0;
            for stage in ROUND_STAGES {
                let ms = rec.total(stage).1 as f64 / 1e6;
                tracked_ms += ms;
                out.metrics.set(stage_metric(stage), ms / calls, "ms");
            }
            if tracked_ms > wall_ms * 1.001 {
                out.problem(format!(
                    "round stages sum to {tracked_ms:.3} ms, more than the {wall_ms:.3} ms of \
                     the runs they were recorded in"
                ));
            }
            let untracked = (wall_ms - tracked_ms).max(0.0) / calls;
            out.metrics.set("protocols.round.untracked_ms", untracked, "ms");
        }
    }
    let overhead = if plain_sum > 0.0 { (capture_sum / plain_sum - 1.0) * 100.0 } else { 0.0 };
    out.metrics.set("dip.capture_overhead_pct", overhead, "%");
}

fn stage_metric(stage: &str) -> String {
    format!("protocols.round.{}_ms", stage.trim_start_matches("round/"))
}

/// Graph-kernel time summed over the workload's distinct instances,
/// and the field fingerprint cost at the workload's largest n.
fn kernel_layer(blobs: &[Blob], budget_ms: f64, out: &mut Outcome) {
    let mut graphs: Vec<Graph> = Vec::new();
    let mut seen: Vec<(usize, usize, &'static str)> = Vec::new();
    for b in blobs.iter().filter(|b| b.expect != Expect::Malformed) {
        let t = Transcript::decode(&b.bytes).expect("generated transcripts decode");
        let g = graph_of(&t.instance);
        let key = (g.n(), g.m(), b.family);
        if !seen.contains(&key) {
            seen.push(key);
            graphs.push(g.clone());
        }
    }
    let per_kernel = budget_ms / 4.0;
    type Kernel = fn(&Graph);
    let kernels: [(&str, Kernel); 4] = [
        ("graph.is_planar_ms", |g| {
            black_box(is_planar(g));
        }),
        ("graph.sp_tree_ms", |g| {
            black_box(sp_tree(g));
        }),
        ("graph.biconnected_ms", |g| {
            black_box(BiconnectedComponents::compute(g));
        }),
        ("graph.spanning_forest_ms", |g| {
            black_box(RootedForest::bfs_spanning_tree(g, 0));
        }),
    ];
    for (name, kernel) in kernels {
        let all = || graphs.iter().for_each(kernel);
        let reps = reps_for(time_ms(1, all), per_kernel);
        out.metrics.set(name, time_ms(reps, all), "ms");
    }

    let n = blobs.iter().map(|b| b.n).max().unwrap_or(1).max(16);
    let p = smallest_prime_above((n as u64).pow(3).max(1 << 20));
    let f = Fp::new(p);
    let set: Vec<u64> = (0..n as u64).map(|i| mix(i, p) % p).collect();
    let z = mix(n as u64, 7) % p;
    let eval = || {
        black_box(multiset_poly_eval(&f, set.iter().copied(), black_box(z)));
    };
    let reps = reps_for(time_ms(1, eval), budget_ms / 4.0).max(50);
    let ns = time_ms(reps, eval) * 1e6 / n as f64;
    out.metrics.set("field.multiset_eval_ns_per_elem", ns, "ns");
}

/// Exponent of the series-parallel reject path: the log–log slope of
/// verify time against n over `sizes` (n ∈ {250, 500, 1000} in full
/// runs), on the rejecting transcripts of every series-parallel cheat
/// strategy.
fn sp_reject_exponent(seed: u64, sizes: &[usize], out: &mut Outcome) {
    let mut points = Vec::new();
    for &n in sizes {
        let cheats: Vec<Transcript> = reject_blobs_of(Family::SeriesParallel, n, mix(seed, 0x6f00))
            .iter()
            .filter(|b| b.prover != 0)
            .map(|b| Transcript::decode(&b.bytes).expect("generated transcripts decode"))
            .collect();
        let nodes = cheats.first().map_or(n, |t| t.instance.n());
        let ms = time_ms(1, || {
            for t in &cheats {
                black_box(t.verify());
            }
        });
        points.push((nodes as f64, ms));
    }
    out.metrics.set("protocols.sp_reject_exponent", loglog_slope(&points), "exponent");
}

/// The protocol, capture, kernel and reject-path metrics of a
/// workload's transcripts.
pub fn below_the_wire(blobs: &[Blob], run: &Run, out: &mut Outcome) {
    let budget_ms = (run.seconds * 1e3 / 20.0).max(50.0);
    protocol_layer(blobs, budget_ms, out);
    kernel_layer(blobs, budget_ms, out);
    sp_reject_exponent(run.seed, run.sp_sizes, out);
}

/// Sets every metric in `names` that is not yet present to 0: the
/// layer is not exercised by this workload.
pub fn absent(out: &mut Outcome, names: &[(&str, &'static str)]) {
    for &(name, unit) in names {
        if out.metrics.get(name).is_none() {
            out.metrics.set(name, 0.0, unit);
        }
    }
}

/// Every metric only the serve workload measures.
pub const SERVE_ONLY: [(&str, &str); 21] = [
    ("serve.queue_wait_ms.mean.light", "ms"),
    ("serve.queue_wait_ms.mean.heavy", "ms"),
    ("serve.queue_depth.max.light", "count"),
    ("serve.queue_depth.max.heavy", "count"),
    ("serve.decode_us.mean", "us"),
    ("serve.verify_ms.mean", "ms"),
    ("serve.write_us.mean", "us"),
    ("serve.busy", "count"),
    ("serve.overhead_ms.p50.light", "ms"),
    ("serve.overhead_ms.p50.heavy", "ms"),
    ("serve.p50_ms.heavy", "ms"),
    ("serve.p99_ms.heavy", "ms"),
    ("serve.p99_ms.light", "ms"),
    ("serve.capacity_rps", "1/s"),
    ("serve.peak_rss_mib", "MiB"),
    ("frame.write_us.mean", "us"),
    ("frame.req_bytes.mean", "B"),
    ("gen.late_ms.max", "ms"),
    ("gen.backlog.max", "count"),
    ("gen.invalid_windows", "count"),
    ("gen.ladder_steps", "count"),
];

/// Fills in the per-family verify metrics from per-transcript verify
/// times: the mean verify time of a family's accepting and of its
/// rejecting transcripts.
pub fn verify_by_family(blobs: &[Blob], verify_ms: &[f64], out: &mut Outcome) {
    for fam in FAMILIES {
        for (kind, expect) in [("verify.ms", Expect::Accept), ("verify.ms.reject", Expect::Reject)]
        {
            let times: Vec<f64> = blobs
                .iter()
                .zip(verify_ms)
                .filter(|(b, _)| b.family == fam.name() && b.expect == expect)
                .map(|(_, &ms)| ms)
                .collect();
            let mean =
                if times.is_empty() { 0.0 } else { times.iter().sum::<f64>() / times.len() as f64 };
            out.metrics.set(format!("{kind}.{}", fam.name()), mean, "ms");
        }
    }
}
