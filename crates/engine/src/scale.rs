//! E11 — multi-million-node scaling with bounded memory.
//!
//! For each grid size `n` the driver streams a block-structured planar
//! instance ([`StreamSkeleton`]) one biconnected block at a time and
//! verifies it shard-by-shard: every block is an independent
//! [`Planarity`] run, folded through the [`ShardCombiner`] in block
//! order. The full graph is *never* materialized on the scaling path —
//! live memory peaks at O(max shard + #blocks), which is what the
//! bounded-memory gate asserts.
//!
//! Per row the driver measures and audits:
//!
//! * **Proof size vs envelope.** The combined per-round maxima must sit
//!   inside the planarity `C·log2 n` ceiling of the E10 audit
//!   ([`envelope_bits`]); the O(log log n) slope is what the committed
//!   table exhibits.
//! * **Thread invariance.** The row is verified twice — one worker vs
//!   the spec's worker count — and the two outcomes must agree on a
//!   byte-level digest (verdict, rejections, kinds, stats).
//! * **Overlap audits** (small `n` only): the streamed shards must be
//!   byte-identical to [`StreamSkeleton::extract_shard`] of the
//!   materialized instance, the monolithic verifier must agree with the
//!   sharded verdict, and a [`ShardPlan`] over the materialized graph
//!   must be invariant to shard-group counts {1, 2, 4}.
//! * **Soundness probe** (medium `n`): the non-planar gadget stream must
//!   be rejected within a small seed budget.
//! * **Memory.** The resettable allocator peak ([`pdip_obs::reset_peak`])
//!   is read per row around the streaming verification only; the gate
//!   requires its growth to stay well below linear in `n`. The process
//!   `VmHWM` is reported for context (it is not resettable).
//!
//! Determinism: digests, verdicts and bit accounting depend only on the
//! spec — never on threads or timing. Wall times and memory readings are
//! machine data; they ride along in the report clearly separated and
//! take no part in digests.

use crate::family::Family;
use crate::record::SweepMetrics;
use crate::seed::{job_seed, sub_seed};
use crate::trace::{envelope_bits, envelope_slope};
use pdip_core::par::map_chunks_with;
use pdip_core::RunResult;
use pdip_graph::{Shard, StreamMode, StreamSkeleton, StreamSpec};
use pdip_obs::NoopRecorder;
use pdip_protocols::lr_sorting::Transport;
use pdip_protocols::path_outerplanar::PopParams;
use pdip_protocols::planarity::{PlInstance, Planarity};
use pdip_protocols::sharded::{ShardCombiner, ShardPlan};
use std::time::Instant;

/// The committed-artifact seed (results/e11_scale.*).
pub const E11_SEED: u64 = 0xE11;

/// The E11 grid.
#[derive(Debug, Clone)]
pub struct ScaleSpec {
    /// Instance sizes (total nodes per row).
    pub sizes: Vec<usize>,
    /// Target nodes per shard (the memory bound's unit).
    pub shard_n: usize,
    /// Keep probability inside each planar block.
    pub keep: f64,
    /// Base seed; rows and shards derive labelled sub-streams.
    pub base_seed: u64,
    /// Worker threads for the parallel pass (results are identical for
    /// any value — asserted per row).
    pub threads: usize,
    /// Rows with `n` up to this run the materialize/monolithic overlap
    /// audits (quadratic-ish in memory, so small `n` only).
    pub overlap_max_n: usize,
    /// Rows with `n` up to this also run the non-planar soundness probe.
    pub nonplanar_max_n: usize,
}

impl ScaleSpec {
    /// The full grid behind the committed `results/e11_scale.*`:
    /// 10^4..10^7 nodes, 32k-node shards.
    pub fn full() -> Self {
        ScaleSpec {
            sizes: vec![10_000, 100_000, 1_000_000, 10_000_000],
            shard_n: 32_768,
            keep: 0.5,
            base_seed: E11_SEED,
            threads: 4,
            overlap_max_n: 100_000,
            nonplanar_max_n: 1_000_000,
        }
    }

    /// The CI smoke grid (`pdip exp e11 --smoke`): small sizes, every
    /// audit still exercised.
    pub fn smoke() -> Self {
        ScaleSpec {
            sizes: vec![2_000, 8_000, 32_000],
            shard_n: 1_024,
            keep: 0.5,
            base_seed: E11_SEED,
            threads: 4,
            overlap_max_n: 8_000,
            nonplanar_max_n: 32_000,
        }
    }

    /// The stream spec of one row.
    pub fn stream_spec(&self, n: usize, mode: StreamMode) -> StreamSpec {
        StreamSpec {
            n,
            shard_n: self.shard_n,
            keep: self.keep,
            seed: sub_seed(self.base_seed, n as u64),
            mode,
        }
    }
}

/// Results of the small-`n` overlap audits.
#[derive(Debug, Clone, Copy)]
pub struct OverlapAudit {
    /// Streamed shards are byte-identical to extraction from the
    /// materialized instance.
    pub extract_identical: bool,
    /// The monolithic verifier agrees with the sharded verdict.
    pub monolithic_agrees: bool,
    /// `ShardPlan::run_grouped` is byte-identical at groups {1, 2, 4}.
    pub groups_invariant: bool,
}

impl OverlapAudit {
    /// All three audits passed.
    pub fn pass(&self) -> bool {
        self.extract_identical && self.monolithic_agrees && self.groups_invariant
    }
}

/// One row of the E11 table.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Requested total nodes.
    pub n: usize,
    /// Actual total nodes after stream clamps.
    pub actual_n: usize,
    /// Shards (biconnected blocks) streamed.
    pub shards: usize,
    /// Largest shard's node count (the memory bound's unit).
    pub max_shard_n: usize,
    /// Whether the honest sharded verification accepted.
    pub accepted: bool,
    /// Combined proof size (max label bits over nodes, rounds, blocks).
    pub proof_size_bits: usize,
    /// Combined verifier coin bits (sum over blocks).
    pub coin_bits: usize,
    /// The planarity `C·log2 n` ceiling for this `n`.
    pub envelope_bits: usize,
    /// FNV-1a digest of the deterministic outcome (verdict, rejections,
    /// kinds, stats) — the thread-invariance witness.
    pub digest: u64,
    /// The 1-worker and K-worker passes produced the same digest.
    pub thread_invariant: bool,
    /// Overlap audits (rows with `n <= overlap_max_n`).
    pub overlap: Option<OverlapAudit>,
    /// Non-planar probe verdict (rows with `n <= nonplanar_max_n`):
    /// `Some(true)` = rejected within the seed budget.
    pub nonplanar_rejected: Option<bool>,
    /// Wall time of the K-worker streaming pass, in ms. Machine data.
    pub wall_ms: u64,
    /// Allocator high-water of the K-worker streaming pass (resettable
    /// peak), or `None` without a tracking allocator. Machine data.
    pub alloc_peak_bytes: Option<u64>,
}

impl ScaleRow {
    /// The row's deterministic gates (memory is gated report-wide).
    pub fn pass(&self) -> bool {
        self.accepted
            && self.proof_size_bits <= self.envelope_bits
            && self.thread_invariant
            && self.overlap.is_none_or(|o| o.pass())
            && self.nonplanar_rejected != Some(false)
    }
}

/// The E11 report.
#[derive(Debug)]
pub struct ScaleReport {
    /// Audited sizes.
    pub sizes: Vec<usize>,
    /// Target shard size.
    pub shard_n: usize,
    /// Keep probability.
    pub keep: f64,
    /// Base seed.
    pub base_seed: u64,
    /// Worker threads of the parallel pass.
    pub threads: usize,
    /// Rows in size order.
    pub rows: Vec<ScaleRow>,
    /// Whether a tracking allocator was installed (the `pdip` binary
    /// installs one; plain test harnesses don't).
    pub rss_tracked: bool,
    /// The bounded-memory gate: allocator-peak growth across the grid
    /// stays at most 1/4 of the `n` growth (vacuous when untracked).
    pub rss_sublinear: bool,
    /// Process `VmHWM` at the end of the run. Machine data.
    pub peak_rss_bytes: Option<u64>,
    /// Every row gate and the memory gate passed.
    pub all_pass: bool,
}

/// FNV-1a over the deterministic outcome of a run: verdict, rejections
/// (global node ids + reason bytes), kinds, and the full size stats,
/// each value widened to a little-endian `u64`.
pub fn digest_result(res: &RunResult) -> u64 {
    let mut bytes = Vec::new();
    let mut eat = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    eat(res.accepted() as u64);
    eat(res.rejections.len() as u64);
    for ((v, reason), kind) in res.rejections.iter().zip(&res.kinds) {
        eat(*v as u64);
        eat(reason.len() as u64);
        for b in reason.as_bytes() {
            eat(*b as u64);
        }
        eat(*kind as u64);
    }
    eat(res.stats.rounds as u64);
    eat(res.stats.coin_bits as u64);
    for &b in &res.stats.per_round_max_bits {
        eat(b as u64);
    }
    for &b in &res.stats.per_round_total_bits {
        eat(b as u64);
    }
    pdip_wire::fnv1a64(&bytes)
}

/// Streams the skeleton's shards through the planarity verifier on
/// `workers` threads and combines in block order. The digest of the
/// result is worker-count-invariant: per-shard seeds are keyed by shard
/// index, chunks sit on the deterministic grid, and partial combiners
/// fold in chunk order.
pub fn verify_stream(skel: &StreamSkeleton, workers: usize, run_base: u64) -> RunResult {
    let k = skel.shard_count();
    let partials = map_chunks_with(
        workers,
        k,
        1,
        || (),
        |(), range| {
            let mut part = ShardCombiner::new();
            for i in range {
                let shard = skel.shard(i);
                let inst =
                    PlInstance { graph: shard.graph, witness_rho: shard.rho, is_yes: shard.planar };
                let p = Planarity::new(&inst, PopParams::default(), Transport::Native);
                let res = p.run(None, job_seed(run_base, i as u64), &NoopRecorder);
                part.absorb_block(|v| skel.to_global(i, v), res);
            }
            part
        },
    );
    let mut combined = ShardCombiner::new();
    for p in partials {
        combined.absorb_partial(p);
    }
    combined.finish()
}

/// Byte-level shard equality (graph + witness presence and content).
fn shards_equal(a: &Shard, b: &Shard) -> bool {
    if a.index != b.index
        || a.planar != b.planar
        || a.graph.n() != b.graph.n()
        || a.graph.edges() != b.graph.edges()
    {
        return false;
    }
    match (&a.rho, &b.rho) {
        (None, None) => true,
        (Some(ra), Some(rb)) => (0..a.graph.n()).all(|v| ra.order_at(v) == rb.order_at(v)),
        _ => false,
    }
}

/// Runs the E11 grid.
pub fn run_scale(spec: &ScaleSpec) -> ScaleReport {
    let workers = spec.threads.max(1);
    let mut rows = Vec::with_capacity(spec.sizes.len());
    for &n in &spec.sizes {
        let skel = StreamSkeleton::new(spec.stream_spec(n, StreamMode::Planar));
        let row_seed = skel.spec.seed;
        let run_base = sub_seed(row_seed, crate::seed::labels::RUN);

        // The measured pass: K workers, allocator peak attributed to the
        // streaming verification only.
        pdip_obs::reset_peak();
        let start = Instant::now();
        let res = verify_stream(&skel, workers, run_base);
        let wall_ms = start.elapsed().as_millis() as u64;
        let alloc_peak_bytes =
            pdip_obs::alloc_installed().then(|| pdip_obs::alloc_peak_bytes() as u64);

        // Thread invariance: the serial pass must digest identically.
        let digest = digest_result(&res);
        let thread_invariant = digest == digest_result(&verify_stream(&skel, 1, run_base));

        let overlap = (skel.total_n <= spec.overlap_max_n).then(|| {
            let inst = skel.materialize();
            let extract_identical = (0..skel.shard_count())
                .all(|i| shards_equal(&skel.extract_shard(&inst, i), &skel.shard(i)));
            let mono_inst =
                PlInstance { graph: inst.graph, witness_rho: inst.rho, is_yes: inst.planar };
            let mono = Planarity::new(&mono_inst, PopParams::default(), Transport::Native);
            let mono = mono.run(None, sub_seed(row_seed, 0x40), &NoopRecorder);
            let monolithic_agrees = mono.accepted() == res.accepted();
            let plan = ShardPlan::decompose(&mono_inst);
            let base =
                plan.run_grouped(1, 1, PopParams::default(), Transport::Native, None, row_seed);
            let base_digest = digest_result(&base);
            let groups_invariant = [2usize, 4].iter().all(|&groups| {
                let r = plan.run_grouped(
                    groups,
                    workers,
                    PopParams::default(),
                    Transport::Native,
                    None,
                    row_seed,
                );
                digest_result(&r) == base_digest
            });
            OverlapAudit { extract_identical, monolithic_agrees, groups_invariant }
        });

        // Soundness probe: the gadget stream must be rejected within a
        // small seed budget (per-seed detection is probabilistic).
        let nonplanar_rejected = (skel.total_n <= spec.nonplanar_max_n).then(|| {
            let bad = StreamSkeleton::new(
                spec.stream_spec(n, StreamMode::NonplanarGadget { use_k5: n % 2 == 0 }),
            );
            (0..3u64).any(|attempt| {
                let base = sub_seed(sub_seed(row_seed, 0x4E), attempt);
                !verify_stream(&bad, workers, base).accepted()
            })
        });

        let max_shard_n = skel.blocks.iter().map(|b| b.size).max().unwrap_or(0);
        rows.push(ScaleRow {
            n,
            actual_n: skel.total_n,
            shards: skel.shard_count(),
            max_shard_n,
            accepted: res.accepted(),
            proof_size_bits: res.stats.proof_size(),
            coin_bits: res.stats.coin_bits,
            envelope_bits: envelope_bits(Family::Planarity, skel.total_n),
            digest,
            thread_invariant,
            overlap,
            nonplanar_rejected,
            wall_ms,
            alloc_peak_bytes,
        });
    }

    let rss_tracked = pdip_obs::alloc_installed();
    // Bounded memory: between the smallest and largest row, allocator
    // peak may grow at most 1/4 as fast as n. (With a fixed shard size
    // the live set is O(shard + #blocks); the #blocks skeleton term and
    // per-shard result buffers grow slowly, hence "well below linear"
    // rather than "constant".)
    let rss_sublinear = match (rows.first(), rows.last()) {
        (Some(a), Some(b)) if rss_tracked && b.n > a.n => {
            match (a.alloc_peak_bytes, b.alloc_peak_bytes) {
                (Some(pa), Some(pb)) if pa > 0 => {
                    (pb as f64 / pa as f64) <= (b.n as f64 / a.n as f64) / 4.0
                }
                _ => false,
            }
        }
        _ => true,
    };
    let all_pass = rss_sublinear && rows.iter().all(ScaleRow::pass);
    ScaleReport {
        sizes: spec.sizes.clone(),
        shard_n: spec.shard_n,
        keep: spec.keep,
        base_seed: spec.base_seed,
        threads: workers,
        rows,
        rss_tracked,
        rss_sublinear,
        peak_rss_bytes: pdip_obs::peak_rss_bytes(),
        all_pass,
    }
}

/// A [`SweepMetrics`]-shaped summary of the scale run for the standard
/// `[engine]` line (jobs = shards verified on the measured pass).
pub fn scale_metrics(report: &ScaleReport, wall: std::time::Duration) -> SweepMetrics {
    let mut m = SweepMetrics {
        jobs: report.rows.iter().map(|r| r.shards as u64).sum(),
        failures: 0,
        quarantined: 0,
        timed_out: 0,
        retries: 0,
        threads: report.threads,
        wall,
        peak_rss_bytes: None,
        alloc_peak_bytes: None,
    };
    m.capture_memory();
    m
}

impl ScaleReport {
    /// The human-readable E11 table (results/e11_scale.txt). The wall
    /// and memory columns are machine data — everything else is
    /// deterministic in the spec.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# E11: streaming shard-by-block-cut-tree scaling\n");
        let sizes: Vec<String> = self.sizes.iter().map(|n| n.to_string()).collect();
        out.push_str(&format!(
            "# sizes=[{}] shard-n={} keep={} base-seed={:#x} threads={}\n",
            sizes.join(","),
            self.shard_n,
            self.keep,
            self.base_seed,
            self.threads
        ));
        out.push_str(&format!(
            "# all-pass={} rss-tracked={} rss-sublinear={} peak-rss-mib={}\n",
            self.all_pass,
            self.rss_tracked,
            self.rss_sublinear,
            match self.peak_rss_bytes {
                Some(b) => format!("{:.1}", b as f64 / (1024.0 * 1024.0)),
                None => "-".into(),
            }
        ));
        out.push_str(
            "# wall-ms and alloc-peak are machine data; digests and bits are deterministic\n\n",
        );
        out.push_str(&format!(
            "{:>9} {:>9} {:>7} {:>8}  {:>6} {:>9} {:>9}  {:>17} {:>7} {:>8} {:>9}  {:>8} {:>12}  {}\n",
            "n",
            "actual-n",
            "shards",
            "max-shard",
            "proof",
            "coins",
            "envelope",
            "digest",
            "1-vs-K",
            "overlap",
            "nonplanar",
            "wall-ms",
            "alloc-peak",
            "pass"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:>9} {:>9} {:>7} {:>8}  {:>6} {:>9} {:>9}  {:>17} {:>7} {:>8} {:>9}  {:>8} {:>12}  {}\n",
                r.n,
                r.actual_n,
                r.shards,
                r.max_shard_n,
                r.proof_size_bits,
                r.coin_bits,
                r.envelope_bits,
                format!("{:016x}", r.digest),
                if r.thread_invariant { "ok" } else { "FAIL" },
                match r.overlap {
                    Some(o) if o.pass() => "ok",
                    Some(_) => "FAIL",
                    None => "-",
                },
                match r.nonplanar_rejected {
                    Some(true) => "reject",
                    Some(false) => "ACCEPT",
                    None => "-",
                },
                r.wall_ms,
                match r.alloc_peak_bytes {
                    Some(b) => format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0)),
                    None => "-".into(),
                },
                if r.pass() { "ok" } else { "FAIL" }
            ));
        }
        out
    }

    /// The machine-readable E11 report (results/e11_scale.json), hand
    /// rendered with stable key order. Machine data (wall, memory) is
    /// under explicitly named keys so deterministic consumers can skip
    /// it.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"e11-scale\",\n");
        let sizes: Vec<String> = self.sizes.iter().map(|n| n.to_string()).collect();
        out.push_str(&format!("  \"sizes\": [{}],\n", sizes.join(", ")));
        out.push_str(&format!("  \"shard_n\": {},\n", self.shard_n));
        out.push_str(&format!("  \"keep\": {},\n", self.keep));
        out.push_str(&format!("  \"base_seed\": {},\n", self.base_seed));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"envelope_slope\": {},\n", envelope_slope(Family::Planarity)));
        out.push_str(&format!("  \"all_pass\": {},\n", self.all_pass));
        out.push_str(&format!("  \"rss_tracked\": {},\n", self.rss_tracked));
        out.push_str(&format!("  \"rss_sublinear\": {},\n", self.rss_sublinear));
        out.push_str(&format!(
            "  \"peak_rss_bytes\": {},\n",
            self.peak_rss_bytes.map_or("null".into(), |b| b.to_string())
        ));
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let overlap = match r.overlap {
                Some(o) => format!(
                    "{{\"extract_identical\": {}, \"monolithic_agrees\": {}, \"groups_invariant\": {}}}",
                    o.extract_identical, o.monolithic_agrees, o.groups_invariant
                ),
                None => "null".into(),
            };
            out.push_str(&format!(
                "    {{\"n\": {}, \"actual_n\": {}, \"shards\": {}, \"max_shard_n\": {}, \
                 \"accepted\": {}, \"proof_size_bits\": {}, \"coin_bits\": {}, \
                 \"envelope_bits\": {}, \"digest\": \"{:016x}\", \"thread_invariant\": {}, \
                 \"overlap\": {}, \"nonplanar_rejected\": {}, \
                 \"wall_ms\": {}, \"alloc_peak_bytes\": {}, \"pass\": {}}}{}\n",
                r.n,
                r.actual_n,
                r.shards,
                r.max_shard_n,
                r.accepted,
                r.proof_size_bits,
                r.coin_bits,
                r.envelope_bits,
                r.digest,
                r.thread_invariant,
                overlap,
                r.nonplanar_rejected.map_or("null".into(), |b| b.to_string()),
                r.wall_ms,
                r.alloc_peak_bytes.map_or("null".into(), |b| b.to_string()),
                r.pass(),
                if i + 1 == self.rows.len() { "" } else { "," }
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

    fn tiny_spec() -> ScaleSpec {
        ScaleSpec {
            sizes: vec![200, 800],
            shard_n: 64,
            keep: 0.5,
            base_seed: E11_SEED,
            threads: 2,
            overlap_max_n: 800,
            nonplanar_max_n: 800,
        }
    }

    #[test]
    fn tiny_grid_passes_every_gate() {
        let report = run_scale(&tiny_spec());
        assert!(report.all_pass, "{}", report.render_text());
        assert_eq!(report.rows.len(), 2);
        for r in &report.rows {
            assert!(r.accepted);
            assert!(r.thread_invariant);
            assert!(r.overlap.expect("overlap audits run at tiny n").pass());
            assert_eq!(r.nonplanar_rejected, Some(true));
            assert!(r.shards > 1, "tiny grid must still shard (got {})", r.shards);
            assert!(r.proof_size_bits <= r.envelope_bits);
        }
        // Unit tests install no tracking allocator: memory is untracked
        // and the gate is vacuous.
        assert!(!report.rss_tracked);
        assert!(report.rss_sublinear);
    }

    #[test]
    fn digests_are_spec_deterministic() {
        let a = run_scale(&tiny_spec());
        let b = run_scale(&ScaleSpec { threads: 1, ..tiny_spec() });
        let da: Vec<u64> = a.rows.iter().map(|r| r.digest).collect();
        let db: Vec<u64> = b.rows.iter().map(|r| r.digest).collect();
        assert_eq!(da, db, "digest must not depend on the thread count");
    }

    #[test]
    fn renderers_cover_every_row() {
        let report = run_scale(&ScaleSpec {
            sizes: vec![150],
            overlap_max_n: 0,
            nonplanar_max_n: 0,
            ..tiny_spec()
        });
        let text = report.render_text();
        let json = report.render_json();
        assert!(text.contains("150"));
        assert!(json.contains("\"experiment\": \"e11-scale\""));
        assert!(json.contains("\"overlap\": null"));
        assert!(json.contains("\"nonplanar_rejected\": null"));
        assert!(json.contains(&format!("{:016x}", report.rows[0].digest)));
    }
}
