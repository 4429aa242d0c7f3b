//! The in-process workloads: `verify-accept-large`, `verify-reject`
//! and `prove-large`. One caller at a time, like `pdip verify` and
//! `pdip prove`; the library's intra-job workers stay at their default.

use crate::inputs::{Blob, Expect, Instance};
use crate::layers;
use crate::stats::{median, Outcome};
use crate::trace::Tracer;
use crate::Run;
use pdip_protocols::{PopParams, Transport};
use pdip_wire::{fnv1a64, Transcript};
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// Op times of one timed phase.
struct Phase {
    /// Per input, the op time of every pass, in ms.
    op_ms: Vec<Vec<f64>>,
    /// Per pass, the summed op time, in seconds.
    pass_s: Vec<f64>,
}

impl Phase {
    fn new(inputs: usize) -> Phase {
        Phase { op_ms: vec![Vec::new(); inputs], pass_s: Vec::new() }
    }

    /// Per input, the median op time over passes.
    fn per_input_ms(&self) -> Vec<f64> {
        self.op_ms.iter().map(|v| median(v)).collect()
    }

    /// The slowest input's median op time, in ms.
    fn slowest_ms(&self) -> f64 {
        self.per_input_ms().into_iter().fold(0.0, f64::max)
    }

    /// Sets the end-to-end metrics of the phase over inputs of `nodes`
    /// total nodes.
    fn report(&self, nodes: usize, out: &mut Outcome) {
        let per_input = self.per_input_ms();
        out.metrics.set("p50_ms", median(&per_input), "ms");
        out.metrics.set("knodes_per_s", nodes as f64 / median(&self.pass_s) / 1e3, "knodes/s");
    }
}

/// Runs passes until `seconds` have gone by (at least two).
fn passes(seconds: f64, mut pass: impl FnMut(usize) -> f64) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Vec::new();
    while out.len() < 2 || Instant::now() < deadline {
        out.push(pass(out.len()));
    }
    out
}

/// Decodes and verifies every blob once per pass, checking each verdict
/// against the one fixed at generation, and on the first pass that each
/// decoded transcript re-encodes byte-identically.
fn verify_phase(blobs: &[Blob], seconds: f64, tracers: &[&Tracer], out: &mut Outcome) -> Phase {
    let mut ph = Phase::new(blobs.len());
    ph.pass_s = passes(seconds, |pass| {
        let tr = tracers[pass % tracers.len()];
        let mut total = 0.0;
        for (i, b) in blobs.iter().enumerate() {
            let req = (pass * blobs.len() + i) as u64;
            out.attempted += 1;
            let op = tr.open("op.verify", None, req);
            let t0 = Instant::now();
            let decoded = tr.within("wire.decode", op, req, || Transcript::decode(&b.bytes));
            let got = match &decoded {
                Err(_) => Expect::Malformed,
                Ok(t) => tr.within("wire.verify", op, req, || Expect::of(&t.verify())),
            };
            let dt = t0.elapsed().as_secs_f64();
            tr.close(op);
            total += dt;
            ph.op_ms[i].push(dt * 1e3);
            if got != b.expect {
                out.failed += 1;
                out.problem(format!(
                    "{} n={} prover={}: verdict {got:?}, expected {:?}",
                    b.family, b.n, b.prover, b.expect
                ));
            }
            if pass == 0 {
                if let Ok(t) = &decoded {
                    if t.encode() != b.bytes {
                        out.failed += 1;
                        out.problem(format!("{} n={}: re-encode differs", b.family, b.n));
                    }
                }
            }
        }
        total
    });
    ph
}

/// Wire and size metrics of a blob set.
fn size_metrics(blobs: &[Blob], out: &mut Outcome) {
    let nodes: usize = blobs.iter().map(|b| b.n).sum();
    let bytes: usize = blobs.iter().map(|b| b.bytes.len()).sum();
    out.metrics.set("proof_bits", blobs.iter().map(|b| b.proof_bits).sum::<usize>() as f64, "bits");
    out.metrics.set("wire_bytes_per_node", bytes as f64 / nodes.max(1) as f64, "B");
}

/// Allocator high-water above the live bytes at the start of `f`.
fn work_mem<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let live = pdip_obs::alloc_live_bytes();
    pdip_obs::reset_peak();
    let r = f();
    let peak = pdip_obs::alloc_peak_bytes();
    (r, peak.saturating_sub(live) as f64 / MIB)
}

impl Phase {
    /// Pass times of the traced (even) passes when `traced`, else of the
    /// untraced (odd) ones, in seconds.
    fn alternate(&self, traced: bool) -> Vec<f64> {
        self.pass_s.iter().skip(usize::from(!traced)).step_by(2).copied().collect()
    }

    /// Trace overhead of the traced passes against the untraced ones, in
    /// %. Alternating the two cancels any drift in the machine's speed
    /// over the run.
    fn overhead_pct(&self) -> f64 {
        (median(&self.alternate(true)) / median(&self.alternate(false)) - 1.0) * 100.0
    }
}

/// The total duration of the spans named `name`, in ms.
fn span_ms(tr: &Tracer, name: &str) -> f64 {
    tr.summary().get(name).map_or(0.0, |&(_, total, _)| total as f64 / 1e6)
}

/// `verify-accept-large` and `verify-reject`: decode + verify.
pub fn verify_workload(blobs: &[Blob], run: &Run, out: &mut Outcome) -> Tracer {
    let seconds = run.seconds;
    let nodes: usize = blobs.iter().map(|b| b.n).sum();
    size_metrics(blobs, out);
    if !run.trace {
        let tr = Tracer::new(false);
        let (ph, mem) = work_mem(|| verify_phase(blobs, seconds, &[&tr], out));
        ph.report(nodes, out);
        out.metrics.set("mem_mib", mem, "MiB");
        return tr;
    }
    let tr = Tracer::new(true);
    let ph = verify_phase(blobs, seconds, &[&tr, &Tracer::new(false)], out);
    out.metrics.set("obs.trace_overhead_pct", ph.overhead_pct(), "%");
    out.metrics.set("op.slowest_ms", ph.slowest_ms(), "ms");

    let decode_ms = span_ms(&tr, "wire.decode");
    let verify_ms = span_ms(&tr, "wire.verify");
    let wall_ms = ph.alternate(true).iter().sum::<f64>() * 1e3;
    if decode_ms + verify_ms < 0.9 * wall_ms || decode_ms + verify_ms > wall_ms * 1.001 {
        out.problem(format!(
            "decode {decode_ms:.1} ms + verify {verify_ms:.1} ms do not account for the \
             {wall_ms:.1} ms of timed work"
        ));
    }
    let passes = ph.pass_s.len().div_ceil(2) as f64;
    let mb: f64 = blobs.iter().map(|b| b.bytes.len()).sum::<usize>() as f64 / MIB;
    out.metrics.set("wire.decode_ms_per_mb", decode_ms / passes / mb, "ms/MiB");
    out.metrics.set("wire.decode_share", decode_ms / (decode_ms + verify_ms), "ratio");
    let decoded: Vec<Transcript> =
        blobs.iter().filter_map(|b| Transcript::decode(&b.bytes).ok()).collect();
    let encode_ms = layers::time_ms(3, || {
        for t in &decoded {
            std::hint::black_box(t.encode());
        }
    });
    out.metrics.set("wire.encode_ms_per_mb", encode_ms / mb, "ms/MiB");

    let mut per_input = vec![Vec::new(); blobs.len()];
    for s in tr.spans().iter().filter(|s| s.name == "wire.verify") {
        per_input[s.req as usize % blobs.len()].push((s.end_ns - s.start_ns) as f64 / 1e6);
    }
    let per_input: Vec<f64> = per_input.iter().map(|v| median(v)).collect();
    layers::verify_by_family(blobs, &per_input, out);
    attribute(blobs, run, out);
    tr
}

/// The layers below the wire: protocols, capture, kernels, and the
/// series-parallel reject-path exponent.
fn attribute(blobs: &[Blob], run: &Run, out: &mut Outcome) {
    layers::below_the_wire(blobs, run, out);
    layers::absent(out, &layers::SERVE_ONLY);
}

/// Records and encodes every instance once per pass, checking that each
/// honest run accepts and encodes to the same bytes on every pass.
fn prove_phase(
    instances: &[Instance],
    seconds: f64,
    tracers: &[&Tracer],
    out: &mut Outcome,
    blobs: &mut Vec<Blob>,
) -> Phase {
    let mut ph = Phase::new(instances.len());
    let mut digests: Vec<u64> = Vec::new();
    ph.pass_s = passes(seconds, |pass| {
        let tr = tracers[pass % tracers.len()];
        let mut total = 0.0;
        for (i, inst) in instances.iter().enumerate() {
            let req = (pass * instances.len() + i) as u64;
            out.attempted += 1;
            let wire = inst.wire.clone();
            let op = tr.open("op.prove", None, req);
            let t0 = Instant::now();
            let t = tr.within("wire.record", op, req, || {
                Transcript::record(
                    wire,
                    PopParams::default(),
                    Transport::Native,
                    0,
                    inst.gen_seed,
                    inst.run_seed,
                )
            });
            let bytes = tr.within("wire.encode", op, req, || t.encode());
            let dt = t0.elapsed().as_secs_f64();
            tr.close(op);
            total += dt;
            ph.op_ms[i].push(dt * 1e3);
            let digest = fnv1a64(&bytes);
            let stable = digests.get(i).is_none_or(|&d| d == digest);
            if !t.accepted || !stable {
                out.failed += 1;
                out.problem(format!(
                    "{} n={}: honest run accepted={} encoding stable={stable}",
                    inst.family, inst.n, t.accepted
                ));
            }
            if pass == 0 {
                digests.push(digest);
                if blobs.len() < instances.len() {
                    blobs.push(Blob {
                        family: inst.family,
                        n: inst.n,
                        prover: 0,
                        expect: Expect::Accept,
                        proof_bits: t.stats.proof_size(),
                        bytes,
                    });
                }
            }
        }
        total
    });
    ph
}

/// `prove-large`: `Transcript::record` + `encode`.
pub fn prove_workload(instances: &[Instance], run: &Run, out: &mut Outcome) -> Tracer {
    let seconds = run.seconds;
    let nodes: usize = instances.iter().map(|i| i.n).sum();
    let mut blobs = Vec::new();
    if !run.trace {
        let tr = Tracer::new(false);
        let (ph, mem) = work_mem(|| prove_phase(instances, seconds, &[&tr], out, &mut blobs));
        ph.report(nodes, out);
        out.metrics.set("mem_mib", mem, "MiB");
        size_metrics(&blobs, out);
        return tr;
    }
    let tr = Tracer::new(true);
    let ph = prove_phase(instances, seconds, &[&tr, &Tracer::new(false)], out, &mut blobs);
    out.metrics.set("obs.trace_overhead_pct", ph.overhead_pct(), "%");
    out.metrics.set("op.slowest_ms", ph.slowest_ms(), "ms");
    let passes = ph.pass_s.len().div_ceil(2) as f64;
    let mb: f64 = blobs.iter().map(|b| b.bytes.len()).sum::<usize>() as f64 / MIB;
    out.metrics.set("wire.encode_ms_per_mb", span_ms(&tr, "wire.encode") / passes / mb, "ms/MiB");
    // Nothing is decoded or verified on the write path.
    for name in ["wire.decode_ms_per_mb", "wire.decode_share"] {
        out.metrics.set(name, 0.0, if name.ends_with("share") { "ratio" } else { "ms/MiB" });
    }
    layers::verify_by_family(&[], &[], out);
    attribute(&blobs, run, out);
    tr
}
