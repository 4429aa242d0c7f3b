//! The one snapshot path shared by the `bench-hotpath`, `bench-graph`
//! and `bench-round` experiments (`pdip exp <id>`): the paired-timing
//! [`Entry`], the [`time_ns`] timer every measurement runs through, and
//! the [`Snapshot`] document with its renderer and parser.
//!
//! A document is line-oriented JSON: the schema tag, one header field
//! (`modulus` or `mode`), an `entries` array of
//! `{name, n, baseline_ns, fast_ns, speedup}` rows and — for [`ROUND`]
//! only — a `stages` array of `{stage, n, total_ns, share}` rows, one
//! row per line. [`Snapshot::parse`] reads back exactly what
//! [`Snapshot::render`] writes, so the freshness tests over the
//! committed `results/bench_*.json` catch drift in either.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One snapshot document kind.
#[derive(Debug)]
pub struct Schema {
    /// Value of the `schema` field.
    pub tag: &'static str,
    /// The header field after the tag.
    pub header: &'static str,
    /// Whether the header value is a JSON string (else a number).
    pub quoted: bool,
    /// Whether the document carries a `stages` array.
    pub stages: bool,
}

/// `results/bench_hotpath.json`: header `modulus`, no stages.
pub const HOTPATH: Schema =
    Schema { tag: "pdip.bench_hotpath.v1", header: "modulus", quoted: false, stages: false };

/// `results/bench_graph.json`: header `mode`, no stages.
pub const GRAPH: Schema =
    Schema { tag: "pdip.bench_graph.v1", header: "mode", quoted: true, stages: false };

/// `results/bench_round.json`: header `mode`, plus the stage breakdown.
pub const ROUND: Schema =
    Schema { tag: "pdip.bench_round.v1", header: "mode", quoted: true, stages: true };

/// One benchmark line: the optimized and baseline timings for a job of
/// size `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Benchmark identifier (stable; keys the JSON document).
    pub name: String,
    /// Problem size.
    pub n: usize,
    /// Nanoseconds per job on the baseline.
    pub baseline_ns: f64,
    /// Nanoseconds per job on the optimized path.
    pub fast_ns: f64,
}

impl Entry {
    /// Baseline time over optimized time.
    pub fn speedup(&self) -> f64 {
        self.baseline_ns / self.fast_ns
    }
}

/// One row of the per-stage breakdown of a planarity round.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Stopwatch name (`round/...`).
    pub stage: String,
    /// Instance size.
    pub n: usize,
    /// Nanoseconds spent in the stage, averaged over the profiled runs.
    pub total_ns: f64,
    /// Fraction of the tracked round time.
    pub share: f64,
}

/// Median-of-`samples` wall time of `f`, in nanoseconds per call.
///
/// Doubles the iteration count until one sample exceeds `min_time`, then
/// takes the median of `samples` such samples — robust enough for a
/// speedup ratio without a full statistical analysis pass. Every call
/// goes through [`black_box`] (the closure, its result and the
/// iteration count), so the optimiser can neither hoist a pure `f` out
/// of the loop nor fold the loop into one step.
pub fn time_ns<R>(min_time: Duration, samples: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut sample = |iters: u64| {
        let start = Instant::now();
        for _ in 0..black_box(iters) {
            black_box(black_box(&mut f)());
        }
        start.elapsed()
    };
    sample(1); // warm-up
    let mut iters = 1u64;
    while sample(iters) < min_time {
        iters = iters.saturating_mul(2);
    }
    let mut out: Vec<f64> =
        (0..samples.max(1)).map(|_| sample(iters).as_nanos() as f64 / iters as f64).collect();
    out.sort_by(|a, b| a.total_cmp(b));
    out[out.len() / 2]
}

/// A bench snapshot document.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The document kind.
    pub schema: &'static Schema,
    /// Value of the schema's header field, unquoted.
    pub header: String,
    /// Paired timings, in run order.
    pub entries: Vec<Entry>,
    /// Stage breakdown rows (empty unless `schema.stages`).
    pub stages: Vec<StageRow>,
}

impl Snapshot {
    /// Renders the document written to `results/`.
    pub fn render(&self) -> String {
        let schema = self.schema;
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"{}\",", schema.tag);
        if schema.quoted {
            let _ = writeln!(s, "  \"{}\": \"{}\",", schema.header, self.header);
        } else {
            let _ = writeln!(s, "  \"{}\": {},", schema.header, self.header);
        }
        s.push_str("  \"entries\": [\n");
        let rows: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "    {{\"name\": \"{}\", \"n\": {}, \"baseline_ns\": {:.1}, \
                     \"fast_ns\": {:.1}, \"speedup\": {:.2}}}",
                    e.name,
                    e.n,
                    e.baseline_ns,
                    e.fast_ns,
                    e.speedup(),
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        if schema.stages {
            s.push_str("\n  ],\n  \"stages\": [\n");
            let rows: Vec<String> = self
                .stages
                .iter()
                .map(|r| {
                    format!(
                        "    {{\"stage\": \"{}\", \"n\": {}, \"total_ns\": {:.1}, \"share\": {:.4}}}",
                        r.stage, r.n, r.total_ns, r.share,
                    )
                })
                .collect();
            s.push_str(&rows.join(",\n"));
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Parses a document of kind `schema`, checking the schema tag, the
    /// header field and every row: positive timings, a `speedup` within
    /// 1.1% of `baseline_ns / fast_ns`, shares in [0, 1], at least one
    /// entry, and stage rows exactly when the schema carries them.
    pub fn parse(doc: &str, schema: &'static Schema) -> Result<Snapshot, String> {
        if !doc.contains(&format!("\"schema\": \"{}\"", schema.tag)) {
            return Err("missing or wrong schema tag".into());
        }
        let key = format!("\"{}\": ", schema.header);
        let header = doc
            .lines()
            .find(|l| l.contains(&key))
            .and_then(|l| field(l, schema.header).ok())
            .map(|v| v.trim_matches('"').to_string())
            .ok_or_else(|| format!("missing {}", schema.header))?;
        let mut entries = Vec::new();
        let mut stages = Vec::new();
        for row in doc.lines().map(str::trim_start).filter(|l| l.starts_with('{')) {
            if row.contains("\"name\"") {
                let name = field(row, "name")?.trim_matches('"').to_string();
                let n: usize = field(row, "n")?.parse().map_err(|e| format!("bad n: {e}"))?;
                let baseline_ns: f64 = field(row, "baseline_ns")?
                    .parse()
                    .map_err(|e| format!("bad baseline_ns: {e}"))?;
                let fast_ns: f64 =
                    field(row, "fast_ns")?.parse().map_err(|e| format!("bad fast_ns: {e}"))?;
                let speedup: f64 =
                    field(row, "speedup")?.parse().map_err(|e| format!("bad speedup: {e}"))?;
                if baseline_ns <= 0.0 || fast_ns <= 0.0 {
                    return Err(format!("non-positive timing in entry {name} n={n}"));
                }
                if (speedup - baseline_ns / fast_ns).abs() > 0.011 * speedup.max(1.0) {
                    return Err(format!("speedup field inconsistent in entry {name} n={n}"));
                }
                entries.push(Entry { name, n, baseline_ns, fast_ns });
            } else if row.contains("\"stage\"") {
                let stage = field(row, "stage")?.trim_matches('"').to_string();
                let n: usize = field(row, "n")?.parse().map_err(|e| format!("bad n: {e}"))?;
                let total_ns: f64 =
                    field(row, "total_ns")?.parse().map_err(|e| format!("bad total_ns: {e}"))?;
                let share: f64 =
                    field(row, "share")?.parse().map_err(|e| format!("bad share: {e}"))?;
                if !(0.0..=1.0).contains(&share) {
                    return Err(format!("share out of range in stage {stage} n={n}"));
                }
                stages.push(StageRow { stage, n, total_ns, share });
            }
        }
        if entries.is_empty() {
            return Err("no entries".into());
        }
        if schema.stages && stages.is_empty() {
            return Err("no stage rows".into());
        }
        if !schema.stages && !stages.is_empty() {
            return Err(format!("unexpected stage rows in {}", schema.tag));
        }
        Ok(Snapshot { schema, header, entries, stages })
    }
}

/// The raw value of `"key": value` in one row, cut at the next `,`/`}`.
fn field<'a>(row: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\": ");
    let at = row.find(&pat).ok_or_else(|| format!("missing field {key} in {row}"))?;
    let rest = &row[at + pat.len()..];
    let end = rest.find([',', '}']).ok_or_else(|| format!("unterminated {key}"))?;
    Ok(rest[..end].trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, n: usize, baseline_ns: f64, fast_ns: f64) -> Entry {
        Entry { name: name.into(), n, baseline_ns, fast_ns }
    }

    #[test]
    fn hotpath_document_shape() {
        let snap = Snapshot {
            schema: &HOTPATH,
            header: "101".into(),
            entries: vec![entry("field_mul", 4096, 200.0, 50.0)],
            stages: vec![],
        };
        let doc = snap.render();
        assert!(doc.contains("\"schema\": \"pdip.bench_hotpath.v1\""));
        assert!(doc.contains("\"modulus\": 101,"));
        assert!(doc.contains("\"speedup\": 4.00"));
        assert!(doc.trim_end().ends_with('}'));
        let parsed = Snapshot::parse(&doc, &HOTPATH).expect("writer output must parse");
        assert_eq!(parsed.header, "101");
        assert_eq!(parsed.entries, snap.entries);
    }

    #[test]
    fn graph_document_roundtrips_through_parser() {
        let snap = Snapshot {
            schema: &GRAPH,
            header: "full".into(),
            entries: vec![
                entry("edge_between_dense", 1024, 9000.0, 450.0),
                entry("is_planar", 1000, 100.0, 80.0),
            ],
            stages: vec![],
        };
        let doc = snap.render();
        assert!(doc.contains("\"mode\": \"full\","));
        let parsed = Snapshot::parse(&doc, &GRAPH).expect("writer output must parse");
        assert_eq!(parsed.header, "full");
        assert_eq!(parsed.entries, snap.entries);
        assert!(Snapshot::parse("{}", &GRAPH).is_err());
        assert!(Snapshot::parse(&doc.replace("1024", "x"), &GRAPH).is_err());
        assert!(Snapshot::parse(&doc.replace("80.0", "-80.0"), &GRAPH).is_err());
        assert!(Snapshot::parse(&doc.replace("20.00", "25.00"), &GRAPH).is_err());
        assert!(Snapshot::parse(&doc, &ROUND).is_err(), "schema tags must not cross");
    }

    #[test]
    fn round_document_roundtrips_through_parser() {
        let snap = Snapshot {
            schema: &ROUND,
            header: "full".into(),
            entries: vec![entry("planarity_round", 1000, 5000.0, 1000.0)],
            stages: vec![
                StageRow { stage: "round/lr-commit".into(), n: 1000, total_ns: 800.0, share: 0.8 },
                StageRow { stage: "round/lr-decide".into(), n: 1000, total_ns: 200.0, share: 0.2 },
            ],
        };
        let doc = snap.render();
        let parsed = Snapshot::parse(&doc, &ROUND).expect("writer output must parse");
        assert_eq!(parsed.header, "full");
        assert_eq!(parsed.entries, snap.entries);
        assert_eq!(parsed.stages, snap.stages);
        assert!(Snapshot::parse("{}", &ROUND).is_err());
        assert!(Snapshot::parse(&doc.replace("0.8", "8.0"), &ROUND).is_err());
        let no_stages = Snapshot { stages: vec![], ..snap };
        assert!(Snapshot::parse(&no_stages.render(), &ROUND).is_err());
    }

    #[test]
    fn timer_reports_positive_nanoseconds() {
        let mut calls = 0u64;
        let ns = time_ns(Duration::from_micros(50), 3, || calls += 1);
        assert!(ns > 0.0);
        assert!(calls > 3);
    }

    /// A pure closure must still run once per timed call. Without the
    /// barriers the release build drops the call, the calibration loop
    /// doubles the iteration count until it wraps to zero, and the
    /// reported time is infinite; 1000 dependent multiplies cost far more
    /// than 20 ns.
    #[test]
    fn pure_closure_is_not_hoisted_out_of_the_timing_loop() {
        let seed = black_box(0x9e37_79b9_u64);
        let ns = time_ns(Duration::from_micros(200), 3, || {
            (0..1000u64).fold(seed, |acc, i| acc.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ i)
        });
        assert!(
            ns.is_finite() && ns > 20.0,
            "pure closure timed at {ns:.2} ns per call: the loop was folded"
        );
    }
}
