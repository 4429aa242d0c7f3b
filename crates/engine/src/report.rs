//! Writer-backed report rendering: aligned tables, summary lines, and
//! the [`Reporter`] sink the experiments and the CLI print through.
//!
//! Rendering is pure ([`render_table`] returns a `String`), so output
//! formats are snapshot-testable; the [`Reporter`] decides where the
//! rendered text goes (stdout, a capture buffer, or nowhere under
//! `--quiet`).

use crate::record::SweepMetrics;

/// Renders a simple aligned table (right-justified cells, a dashed rule
/// under the header) as a string ending in a newline.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        s
    };
    let mut out = String::new();
    out.push_str(&line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>()));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
        out.push('\n');
    }
    out
}

/// Where a [`Reporter`]'s output lands.
enum Sink {
    /// Line-buffered standard output.
    Stdout,
    /// Discard everything (`--quiet`).
    Quiet,
    /// An in-memory capture buffer ([`Reporter::into_string`]).
    Buffer(Vec<u8>),
}

/// The sink the experiments and the CLI print human-readable output
/// through. Replaces scattered `println!` calls so `--quiet`
/// can silence a whole run and tests can capture exact bytes.
pub struct Reporter {
    sink: Sink,
}

impl Reporter {
    /// A reporter printing to stdout.
    pub fn stdout() -> Self {
        Reporter { sink: Sink::Stdout }
    }

    /// A reporter that discards all output.
    pub fn quiet() -> Self {
        Reporter { sink: Sink::Quiet }
    }

    /// A reporter capturing output in memory; read it back with
    /// [`Reporter::into_string`].
    pub fn buffered() -> Self {
        Reporter { sink: Sink::Buffer(Vec::new()) }
    }

    /// Stdout unless `quiet` (the shape every `--quiet` flag needs).
    pub fn from_quiet_flag(quiet: bool) -> Self {
        if quiet {
            Reporter::quiet()
        } else {
            Reporter::stdout()
        }
    }

    fn write_str(&mut self, s: &str) {
        match &mut self.sink {
            Sink::Stdout => print!("{s}"),
            Sink::Quiet => {}
            Sink::Buffer(buf) => buf.extend_from_slice(s.as_bytes()),
        }
    }

    /// Writes one line (a trailing newline is appended).
    pub fn line(&mut self, s: &str) {
        self.write_str(s);
        self.write_str("\n");
    }

    /// Renders and writes an aligned table.
    pub fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) {
        let rendered = render_table(headers, rows);
        self.write_str(&rendered);
    }

    /// Writes the `[engine]` one-line sweep summary.
    pub fn summary(&mut self, metrics: &SweepMetrics) {
        self.line(&metrics.summary_line());
    }

    /// The captured output of a [`Reporter::buffered`] reporter
    /// (empty for other sinks).
    pub fn into_string(self) -> String {
        match self.sink {
            Sink::Buffer(buf) => String::from_utf8_lossy(&buf).into_owned(),
            _ => String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renderer_aligns() {
        let s = render_table(
            &["a", "bb"],
            &[vec!["1".into(), "22222".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All content rows share the header's column layout.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn quiet_reporter_discards() {
        let mut r = Reporter::quiet();
        r.line("should vanish");
        r.table(&["h"], &[vec!["x".into()]]);
        assert_eq!(r.into_string(), "");
    }

    #[test]
    fn buffered_reporter_captures_exact_bytes() {
        let mut r = Reporter::buffered();
        r.line("hello");
        r.table(&["k", "v"], &[vec!["a".into(), "1".into()]]);
        let got = r.into_string();
        assert!(got.starts_with("hello\n"));
        assert!(got.contains("k  v"));
    }
}
