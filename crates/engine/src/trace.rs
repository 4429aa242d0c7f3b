//! E10 — the round-by-round proof-size trace audit.
//!
//! Runs every derived protocol family honestly over an n-grid with a
//! [`CollectingRecorder`] threaded through the engine, then audits the
//! drained trace three ways:
//!
//! 1. **Span/record cross-check.** For every job, the `"round_max_bits"`
//!    / run-level counters the protocol emitted through [`trace_stats`]
//!    conventions (see `pdip-core::trace`) must equal the
//!    [`RunRecord`](crate::RunRecord)'s own `per_round_max_bits` / `proof_size_bits` /
//!    `coin_bits` — the tracing layer is not allowed to drift from the
//!    bit accounting the tables are built on.
//! 2. **Envelope audit.** Every prover round's max label bits must sit
//!    inside the family's `C·log2(n)` envelope — a deliberately loose
//!    ceiling over the theorems' O(log log n) claims (Theorems 1.2–1.7;
//!    planarity's O(log Δ) term is covered by its larger constant), so
//!    a regression that blows up label widths fails the audit while
//!    honest drift in constants does not.
//! 3. **Determinism.** The report is built from record-ordered events
//!    only (rule 1/2 of the `pdip-obs` determinism rules) and contains
//!    no timing, so its rendered forms are byte-identical across worker
//!    counts. Duration histograms are exposed separately
//!    ([`TraceOutcome::timing_lines`]) for stdout only.
//!
//! [`trace_stats`]: pdip_core::trace_stats

use crate::family::{Family, FAMILIES};
use crate::pool::Engine;
use crate::record::SweepMetrics;
use crate::spec::{ProverSpec, SweepSpec};
use pdip_obs::{CollectingRecorder, SpanId, Trace};
use std::collections::BTreeMap;

/// The E10 grid: every family, honest prover, `sizes` × `trials`.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Instance sizes to trace.
    pub sizes: Vec<usize>,
    /// Honest runs per (family, n) cell.
    pub trials: u64,
    /// Base seed of the job-seed stream.
    pub base_seed: u64,
    /// Worker threads (the report is identical for any value).
    pub threads: usize,
}

/// The committed-artifact seed (results/e10_trace.*).
pub const E10_SEED: u64 = 0xE10;

impl TraceSpec {
    /// The full grid behind the committed `results/e10_trace.*`.
    pub fn full() -> Self {
        TraceSpec { sizes: vec![64, 256, 1024], trials: 3, base_seed: E10_SEED, threads: 4 }
    }

    /// The CI smoke grid (`pdip exp e10 --smoke`): small sizes, same
    /// audits.
    pub fn smoke() -> Self {
        TraceSpec { sizes: vec![48, 96], trials: 2, base_seed: E10_SEED, threads: 4 }
    }

    /// The engine sweep behind the grid (honest provers only, streamed
    /// per-job seeds). Public so the freshness guard can re-execute
    /// individual jobs with the exact seeds of the committed artifact.
    pub fn sweep(&self) -> SweepSpec {
        SweepSpec {
            families: FAMILIES.to_vec(),
            sizes: self.sizes.clone(),
            provers: vec![ProverSpec::Honest],
            trials: self.trials,
            base_seed: self.base_seed,
            ..SweepSpec::default()
        }
    }
}

/// Per-round slope of the `C·log2(n)` label-bit envelope.
///
/// Constants are calibrated to ~2× the observed honest maxima at the
/// smallest audited size (n = 48), so they catch order-of-magnitude
/// label-width regressions without tripping on constant-factor drift.
/// The embedded/planarity families carry the ×5 copy-simulation of the
/// h(G,T,ρ) reduction (§7), hence the larger slope; planarity adds its
/// O(log Δ) rotation term under the same ceiling.
pub fn envelope_slope(family: Family) -> usize {
    match family {
        Family::PathOuterplanar => 64,
        Family::Outerplanar => 64,
        Family::EmbeddedPlanarity => 384,
        Family::Planarity => 384,
        Family::SeriesParallel => 64,
        Family::Treewidth2 => 64,
    }
}

/// The audited ceiling for one (family, n) cell: `slope · ceil(log2 n)`.
pub fn envelope_bits(family: Family, n: usize) -> usize {
    let log2n = usize::BITS - n.max(2).next_power_of_two().leading_zeros() - 1;
    envelope_slope(family) * log2n as usize
}

/// One audited (family, n) cell of the trace report.
#[derive(Debug, Clone)]
pub struct TraceCell {
    /// Graph family.
    pub family: Family,
    /// Instance size.
    pub n: usize,
    /// Honest runs aggregated into the cell.
    pub runs: u64,
    /// Per prover-round max label bits (max over the cell's runs).
    pub round_max_bits: Vec<u64>,
    /// Per prover-round total label bits (max over the cell's runs).
    pub round_total_bits: Vec<u64>,
    /// Proof size (max over the cell's runs).
    pub proof_size_bits: u64,
    /// Verifier coin bits (max over the cell's runs).
    pub coin_bits: u64,
    /// The cell's `C·log2(n)` ceiling.
    pub envelope_bits: u64,
    /// Whether every round of every run stayed inside the envelope.
    pub pass: bool,
}

/// The deterministic E10 report.
#[derive(Debug)]
pub struct TraceReport {
    /// Audited sizes.
    pub sizes: Vec<usize>,
    /// Trials per cell.
    pub trials: u64,
    /// Base seed.
    pub base_seed: u64,
    /// Cells in (family, n) order.
    pub cells: Vec<TraceCell>,
    /// Cross-check / envelope violations (empty on a clean audit).
    pub audit_errors: Vec<String>,
    /// `audit_errors.is_empty()` and every cell passed.
    pub all_pass: bool,
}

/// Everything `pdip exp e10` produces: the deterministic report plus the
/// timing-side data that must stay out of committed artifacts.
#[derive(Debug)]
pub struct TraceOutcome {
    /// The deterministic, artifact-safe report.
    pub report: TraceReport,
    /// The drained trace (events + duration histograms).
    pub trace: Trace,
    /// Engine throughput metrics (scheduling-dependent).
    pub metrics: SweepMetrics,
}

impl TraceOutcome {
    /// Human-readable duration-histogram lines for stdout (mean and
    /// p99-upper-bound nanoseconds per span name). Timing data: never
    /// write these into a committed artifact.
    pub fn timing_lines(&self) -> Vec<String> {
        self.trace
            .histograms()
            .iter()
            .map(|(name, h)| {
                format!(
                    "{:<28} {:>8} spans  mean {:>12}ns  p99<= {:>12}ns",
                    name,
                    h.count(),
                    h.mean_nanos(),
                    h.quantile_upper_bound(0.99)
                )
            })
            .collect()
    }
}

/// Runs the E10 grid and audits the drained trace.
pub fn run_trace(spec: &TraceSpec) -> TraceOutcome {
    let sweep = spec.sweep();
    let rec = CollectingRecorder::new();
    let outcome = Engine::with_threads(spec.threads.max(1)).run(&sweep, &rec);
    let trace = rec.drain();

    let mut audit: Vec<String> = Vec::new();
    for f in &outcome.failures {
        audit.push(format!(
            "job {} ({} n={}) quarantined: {}",
            f.index,
            f.family.name(),
            f.n,
            f.payload
        ));
    }

    // Fold per-job traced counters into (family, n) cells, cross-checked
    // against the records the engine produced for the same jobs.
    let mut cells: BTreeMap<(Family, usize), TraceCell> = BTreeMap::new();
    for r in &outcome.records {
        let ctx = r.index;
        let name = r.family.name();
        if !r.accepted {
            audit.push(format!("job {ctx} ({name} n={}): honest run rejected", r.n));
        }
        if r.attempts != 1 {
            // A retried job records its counters once per attempt; the
            // grid is honest-only, so any retry is itself an anomaly.
            audit.push(format!("job {ctx} ({name} n={}): took {} attempts", r.n, r.attempts));
        }
        let run_id = SpanId::new(name);
        for (key, want) in [
            ("proof_size_bits", r.proof_size_bits as u64),
            ("coin_bits", r.coin_bits as u64),
            ("rounds", r.rounds as u64),
        ] {
            let got = trace.counter_total(ctx, run_id, key);
            if got != want {
                audit.push(format!(
                    "job {ctx} ({name} n={}): traced {key}={got} != recorded {want}",
                    r.n
                ));
            }
        }
        let cell = cells.entry((r.family, r.n)).or_insert_with(|| TraceCell {
            family: r.family,
            n: r.n,
            runs: 0,
            round_max_bits: Vec::new(),
            round_total_bits: Vec::new(),
            proof_size_bits: 0,
            coin_bits: 0,
            envelope_bits: envelope_bits(r.family, r.n) as u64,
            pass: true,
        });
        cell.runs += 1;
        cell.proof_size_bits = cell.proof_size_bits.max(r.proof_size_bits as u64);
        cell.coin_bits = cell.coin_bits.max(r.coin_bits as u64);
        let rounds = r.per_round_max_bits.len();
        if cell.round_max_bits.len() < rounds {
            cell.round_max_bits.resize(rounds, 0);
            cell.round_total_bits.resize(rounds, 0);
        }
        for (i, &want) in r.per_round_max_bits.iter().enumerate() {
            let id = SpanId::at(name, (i + 1) as u64);
            let got = trace.counter_total(ctx, id, "round_max_bits");
            if got != want as u64 {
                audit.push(format!(
                    "job {ctx} ({name} n={}): round {} traced max {got} != recorded {want}",
                    r.n,
                    i + 1
                ));
            }
            let total = trace.counter_total(ctx, id, "round_total_bits");
            cell.round_max_bits[i] = cell.round_max_bits[i].max(got);
            cell.round_total_bits[i] = cell.round_total_bits[i].max(total);
            let env = envelope_bits(r.family, r.n) as u64;
            if got > env {
                cell.pass = false;
                audit.push(format!(
                    "job {ctx} ({name} n={}): round {} max {got} bits exceeds the {env}-bit envelope",
                    r.n,
                    i + 1
                ));
            }
        }
    }

    let cells: Vec<TraceCell> = cells.into_values().collect();
    let all_pass = audit.is_empty() && cells.iter().all(|c| c.pass);
    TraceOutcome {
        report: TraceReport {
            sizes: spec.sizes.clone(),
            trials: spec.trials,
            base_seed: spec.base_seed,
            cells,
            audit_errors: audit,
            all_pass,
        },
        trace,
        metrics: outcome.metrics,
    }
}

impl TraceReport {
    /// The human-readable E10 table (results/e10_trace.txt). Contains
    /// no timing or scheduling information.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# E10: round-by-round proof-size trace audit\n");
        let sizes: Vec<String> = self.sizes.iter().map(|n| n.to_string()).collect();
        out.push_str(&format!(
            "# sizes=[{}] trials-per-cell={} base-seed={:#x}\n",
            sizes.join(","),
            self.trials,
            self.base_seed
        ));
        out.push_str(&format!(
            "# all-pass={} audit-errors={}\n\n",
            self.all_pass,
            self.audit_errors.len()
        ));
        out.push_str(&format!(
            "{:<20} {:>5} {:>4}  {:>7} {:>7} {:>7}  {:>9} {:>9} {:>9}  {:>6} {:>6} {:>8}  {}\n",
            "family",
            "n",
            "runs",
            "r1 max",
            "r2 max",
            "r3 max",
            "r1 total",
            "r2 total",
            "r3 total",
            "proof",
            "coins",
            "envelope",
            "pass"
        ));
        for c in &self.cells {
            let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
            out.push_str(&format!(
                "{:<20} {:>5} {:>4}  {:>7} {:>7} {:>7}  {:>9} {:>9} {:>9}  {:>6} {:>6} {:>8}  {}\n",
                c.family.name(),
                c.n,
                c.runs,
                at(&c.round_max_bits, 0),
                at(&c.round_max_bits, 1),
                at(&c.round_max_bits, 2),
                at(&c.round_total_bits, 0),
                at(&c.round_total_bits, 1),
                at(&c.round_total_bits, 2),
                c.proof_size_bits,
                c.coin_bits,
                c.envelope_bits,
                if c.pass { "ok" } else { "FAIL" }
            ));
        }
        for e in &self.audit_errors {
            out.push_str(&format!("# AUDIT: {e}\n"));
        }
        out
    }

    /// The machine-readable E10 report (results/e10_trace.json), hand
    /// rendered with stable key order and no timing fields.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"experiment\": \"e10-trace\",\n");
        let sizes: Vec<String> = self.sizes.iter().map(|n| n.to_string()).collect();
        out.push_str(&format!("  \"sizes\": [{}],\n", sizes.join(", ")));
        out.push_str(&format!("  \"trials_per_cell\": {},\n", self.trials));
        out.push_str(&format!("  \"base_seed\": {},\n", self.base_seed));
        out.push_str(&format!("  \"all_pass\": {},\n", self.all_pass));
        out.push_str(&format!("  \"audit_errors\": {},\n", self.audit_errors.len()));
        out.push_str("  \"cells\": [\n");
        let ints = |v: &[u64]| v.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(", ");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"family\": \"{}\", \"n\": {}, \"runs\": {}, \
                 \"round_max_bits\": [{}], \"round_total_bits\": [{}], \
                 \"proof_size_bits\": {}, \"coin_bits\": {}, \
                 \"envelope_bits\": {}, \"pass\": {}}}{}\n",
                c.family.name(),
                c.n,
                c.runs,
                ints(&c.round_max_bits),
                ints(&c.round_total_bits),
                c.proof_size_bits,
                c.coin_bits,
                c.envelope_bits,
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

    fn tiny_spec() -> TraceSpec {
        TraceSpec { sizes: vec![24], trials: 1, base_seed: E10_SEED, threads: 2 }
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let a = run_trace(&TraceSpec { threads: 1, ..tiny_spec() });
        let b = run_trace(&TraceSpec { threads: 4, ..tiny_spec() });
        assert_eq!(a.report.render_text(), b.report.render_text());
        assert_eq!(a.report.render_json(), b.report.render_json());
    }

    #[test]
    fn tiny_grid_passes_the_audit() {
        let out = run_trace(&tiny_spec());
        assert!(out.report.all_pass, "{}", out.report.render_text());
        assert_eq!(out.report.cells.len(), FAMILIES.len());
        for c in &out.report.cells {
            assert_eq!(c.runs, 1);
            assert!(c.proof_size_bits > 0, "{} traced no bits", c.family.name());
        }
    }

    #[test]
    fn trace_captures_protocol_and_engine_spans() {
        let out = run_trace(&tiny_spec());
        let names: std::collections::BTreeSet<&str> =
            out.trace.events().iter().map(|s| s.ev.span.name).collect();
        for expected in
            ["engine/execute", "lemma2.5/spanning-tree", "lr-sorting/prover-round", "planarity"]
        {
            assert!(names.contains(expected), "missing span {expected}: {names:?}");
        }
        assert!(!out.trace.histograms().is_empty(), "duration histograms must accumulate");
    }

    #[test]
    fn envelope_grows_with_n() {
        for f in FAMILIES {
            assert!(envelope_bits(f, 1024) > envelope_bits(f, 48));
        }
    }
}
