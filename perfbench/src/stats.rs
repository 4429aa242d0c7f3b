//! Order statistics and the result record every workload fills in.

use std::fmt::Write as _;

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank quantile `q` ∈ [0, 1] of `v`; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Least-squares slope of `ln y` against `ln x`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let mx = mean(&pts.iter().map(|p| p.0).collect::<Vec<_>>());
    let my = mean(&pts.iter().map(|p| p.1).collect::<Vec<_>>());
    let num: f64 = pts.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let den: f64 = pts.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named metrics with units, in emission order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Sets `name` (replacing an earlier value of the same name).
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// Keeps only the metrics `keep` accepts.
    pub fn retain(&mut self, keep: impl Fn(&str) -> bool) {
        self.0.retain(|(n, _, _)| keep(n));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Renders the metrics as the body of the result line's `metrics`.
    fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// What one run reports: the operation counts, every correctness
/// failure found, and the metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (wrong verdict, busy, conn-error,
    /// deadline, or no answer).
    pub failed: u64,
    /// Broken checks (verdicts, re-encodes, conservation,
    /// reconciliation), one line each.
    pub problems: Vec<String>,
    /// End-to-end or per-layer metrics, depending on the run.
    pub metrics: Metrics,
}

impl Outcome {
    /// Records one broken check.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: check failed: {what}");
        self.problems.push(what);
    }

    /// Whether every operation and check came out right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The single-line JSON result.
    pub fn render(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        let cube: Vec<(f64, f64)> = [1.0f64, 2.0, 4.0].iter().map(|&x| (x, x * x * x)).collect();
        assert!((loglog_slope(&cube) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.metrics.set("setup_s", 0.5, "s");
        o.metrics.set("p50_ms", f64::NAN, "ms");
        assert_eq!(
            o.render(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"p50_ms\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }
}
