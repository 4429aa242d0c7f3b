//! Machine-readable sinks: aggregate JSON and per-run CSV.
//!
//! The JSON sink serializes only scheduling-independent data (the spec
//! echo, the aggregate table, quarantined failures), so for a fixed spec
//! its bytes are identical at any worker count. The CSV sink carries one
//! row per run *including wall time*, and is therefore documented as
//! non-deterministic across executions.

use crate::record::SweepOutcome;
use crate::spec::SweepSpec;
use pdip_obs::export::esc;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Renders the deterministic aggregate document as a JSON string.
pub fn aggregate_json(spec: &SweepSpec, outcome: &SweepOutcome) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    // Spec echo (the deterministic inputs).
    let _ = writeln!(
        s,
        "  \"spec\": {{\"families\": [{}], \"sizes\": [{}], \"trials\": {}, \"base_seed\": {}}},",
        spec.families.iter().map(|f| format!("\"{}\"", f.name())).collect::<Vec<_>>().join(", "),
        spec.sizes.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", "),
        spec.trials,
        spec.base_seed,
    );
    s.push_str("  \"aggregates\": [\n");
    let table = outcome.aggregate();
    let rows: Vec<String> = table
        .iter()
        .map(|((family, prover, n), c)| {
            format!(
                "    {{\"family\": \"{}\", \"prover\": \"{}\", \"n\": {}, \"runs\": {}, \
                 \"accepted\": {}, \"acceptance_rate\": {:.6}, \"min_proof_bits\": {}, \
                 \"mean_proof_bits\": {:.3}, \"max_proof_bits\": {}, \"rounds\": {}, \
                 \"quarantined\": {}}}",
                family.name(),
                prover.tag(),
                n,
                c.runs,
                c.accepted,
                c.acceptance_rate(),
                if c.runs == 0 { 0 } else { c.min_proof_bits },
                c.mean_proof_bits(),
                c.max_proof_bits,
                c.rounds,
                c.failures,
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n");
    s.push_str("  \"failures\": [\n");
    let fails: Vec<String> = outcome
        .failures
        .iter()
        .map(|f| {
            format!(
                "    {{\"index\": {}, \"family\": \"{}\", \"prover\": \"{}\", \"n\": {}, \
                 \"trial\": {}, \"attempts\": {}, \"kind\": \"{}\", \"payload\": \"{}\"}}",
                f.index,
                f.family.name(),
                f.prover.tag(),
                f.n,
                f.trial,
                f.attempts,
                f.kind.name(),
                esc(&f.payload),
            )
        })
        .collect();
    s.push_str(&fails.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// Renders every run as a CSV document (includes wall-clock micros; not
/// byte-stable across executions).
pub fn records_csv(outcome: &SweepOutcome) -> String {
    let mut s = String::from(
        "index,family,n,actual_n,prover,trial,gen_seed,run_seed,accepted,rounds,\
         proof_size_bits,coin_bits,attempts,wall_micros,first_rejection\n",
    );
    for r in &outcome.records {
        let first_rej = r
            .rejections
            .first()
            .map(|(v, reason)| format!("node {v}: {reason}"))
            .unwrap_or_default();
        let _ = writeln!(
            s,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.index,
            r.family.name(),
            r.n,
            r.actual_n,
            r.prover.tag(),
            r.trial,
            r.gen_seed,
            r.run_seed,
            r.accepted,
            r.rounds,
            r.proof_size_bits,
            r.coin_bits,
            r.attempts,
            r.wall.as_micros(),
            csv_escape(&first_rej),
        );
    }
    s
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Writes the aggregate JSON and records CSV next to each other:
/// `<base>.json` and `<base>.csv`. Returns the two paths written.
pub fn write_outputs(
    base: &Path,
    spec: &SweepSpec,
    outcome: &SweepOutcome,
) -> io::Result<(std::path::PathBuf, std::path::PathBuf)> {
    if let Some(dir) = base.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let json_path = base.with_extension("json");
    let csv_path = base.with_extension("csv");
    std::fs::write(&json_path, aggregate_json(spec, outcome))?;
    std::fs::write(&csv_path, records_csv(outcome))?;
    Ok((json_path, csv_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::Family;
    use crate::pool::Engine;
    use crate::spec::{ProverSpec, SweepSpec};
    use pdip_obs::NoopRecorder;

    fn spec() -> SweepSpec {
        SweepSpec {
            families: vec![Family::PathOuterplanar],
            sizes: vec![40],
            provers: vec![ProverSpec::Honest, ProverSpec::PanicInjection],
            trials: 2,
            base_seed: 5,
            ..SweepSpec::default()
        }
    }

    #[test]
    fn json_is_deterministic_across_thread_counts() {
        let spec = spec();
        let a = aggregate_json(&spec, &Engine::with_threads(1).run(&spec, &NoopRecorder));
        let b = aggregate_json(&spec, &Engine::with_threads(4).run(&spec, &NoopRecorder));
        assert_eq!(a, b, "aggregate JSON must not depend on worker count");
        assert!(a.contains("\"quarantined\": 2"));
        assert!(a.contains("\"kind\": \"panicked\""));
        assert!(a.contains("injected panic"));
    }

    #[test]
    fn json_reports_timed_out_failures() {
        use std::time::Duration;
        let spec = SweepSpec { job_deadline: Some(Duration::ZERO), ..spec() };
        let json = aggregate_json(&spec, &Engine::with_threads(1).run(&spec, &NoopRecorder));
        assert!(json.contains("\"kind\": \"timed-out\""));
        assert!(json.contains("watchdog"));
    }

    #[test]
    fn csv_has_one_row_per_record() {
        let spec = spec();
        let outcome = Engine::with_threads(2).run(&spec, &NoopRecorder);
        let csv = records_csv(&outcome);
        // Header plus one line per completed record (panics quarantine).
        assert_eq!(csv.lines().count(), 1 + outcome.records.len());
        assert!(csv.lines().nth(1).unwrap().contains("path-outerplanarity"));
    }

    #[test]
    fn escaping_helpers() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b\"c"), "\"a,b\"\"c\"");
    }
}
