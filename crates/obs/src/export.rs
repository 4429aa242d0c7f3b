//! Trace exporters: deterministic JSONL and Chrome trace-event JSON.

use crate::{EventKind, Trace};
use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON string literal (quotes,
/// backslashes, and every control character).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One event per line, deterministic field order, wall stamp omitted
/// entirely (not `null`) when absent — so a JSONL export of a
/// non-wall-clock trace is byte-identical across thread counts.
pub fn to_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for s in trace.events() {
        let _ = write!(
            out,
            "{{\"ctx\": {}, \"span\": \"{}\", \"a\": {}, \"b\": {}",
            s.ev.ctx,
            esc(s.ev.span.name),
            s.ev.span.a,
            s.ev.span.b
        );
        match s.ev.kind {
            EventKind::Enter => out.push_str(", \"kind\": \"enter\""),
            EventKind::Exit => out.push_str(", \"kind\": \"exit\""),
            EventKind::Counter { key, value } => {
                let _ = write!(
                    out,
                    ", \"kind\": \"counter\", \"key\": \"{}\", \"value\": {value}",
                    esc(key)
                );
            }
        }
        if let Some(w) = s.wall_nanos {
            let _ = write!(out, ", \"wall_ns\": {w}");
        }
        out.push_str("}\n");
    }
    // Gauge maxima close the stream: one row per gauge, name-sorted
    // (the drain already sorted them), after all events.
    for (name, max) in trace.gauges() {
        let _ =
            writeln!(out, "{{\"kind\": \"gauge\", \"name\": \"{}\", \"max\": {max}}}", esc(name));
    }
    out
}

/// Histograms as JSONL: one `{"name", "count", "total_ns", "buckets"}`
/// object per line. Timing data — never commit this next to a
/// deterministic artifact.
pub fn histograms_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for (name, h) in trace.histograms() {
        let buckets: Vec<String> = h.buckets().iter().map(|b| b.to_string()).collect();
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"buckets\": [{}]}}",
            esc(name),
            h.count(),
            h.total_nanos(),
            buckets.join(", ")
        );
    }
    out
}

/// Chrome trace-event JSON (the `chrome://tracing` / Perfetto format):
/// a JSON array of `B`/`E`/`C` phase objects with `pid` 0 and the
/// event `ctx` as `tid`.
///
/// Timestamps (`ts`, microseconds) come from wall stamps when the
/// trace captured them; otherwise the event's stream position is used,
/// which keeps the file loadable (and deterministic) at the cost of a
/// synthetic timeline.
pub fn to_chrome_trace(trace: &Trace) -> String {
    let mut parts: Vec<String> = Vec::with_capacity(trace.events().len());
    for (i, s) in trace.events().iter().enumerate() {
        let ts = match s.wall_nanos {
            Some(w) => format!("{:.3}", w as f64 / 1000.0),
            None => format!("{i}"),
        };
        let name = esc(s.ev.span.name);
        let common = format!(
            "\"pid\": 0, \"tid\": {}, \"ts\": {ts}, \"args\": {{\"a\": {}, \"b\": {}}}",
            s.ev.ctx, s.ev.span.a, s.ev.span.b
        );
        parts.push(match s.ev.kind {
            EventKind::Enter => format!("{{\"name\": \"{name}\", \"ph\": \"B\", {common}}}"),
            EventKind::Exit => format!("{{\"name\": \"{name}\", \"ph\": \"E\", {common}}}"),
            EventKind::Counter { key, value } => format!(
                "{{\"name\": \"{name}\", \"ph\": \"C\", \"pid\": 0, \"tid\": {}, \"ts\": {ts}, \"args\": {{\"{}\": {value}}}}}",
                s.ev.ctx,
                esc(key)
            ),
        });
    }
    // Gauge maxima become Chrome counter events at the end of the
    // timeline, so Perfetto plots them alongside the span tracks.
    let tail_ts = match trace.events().last().and_then(|s| s.wall_nanos) {
        Some(w) => format!("{:.3}", w as f64 / 1000.0),
        None => format!("{}", trace.events().len()),
    };
    for (name, max) in trace.gauges() {
        parts.push(format!(
            "{{\"name\": \"{}\", \"ph\": \"C\", \"pid\": 0, \"tid\": 0, \"ts\": {tail_ts}, \
             \"args\": {{\"max\": {max}}}}}",
            esc(name)
        ));
    }
    format!("[\n{}\n]\n", parts.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, span, CollectingRecorder, SpanId};

    fn sample() -> Trace {
        let rec = CollectingRecorder::new();
        {
            let _g = span(&rec, 0, SpanId::at("proto/round", 1));
            counter(&rec, 0, SpanId::at("proto/round", 1), "bits", 12);
        }
        rec.drain()
    }

    #[test]
    fn jsonl_is_deterministic_and_wall_free() {
        let a = to_jsonl(&sample());
        let b = to_jsonl(&sample());
        assert_eq!(a, b);
        assert!(!a.contains("wall_ns"));
        assert_eq!(a.lines().count(), 3, "enter + counter + exit");
        assert!(a.contains("\"kind\": \"counter\", \"key\": \"bits\", \"value\": 12"));
    }

    #[test]
    fn chrome_trace_balances_begin_end() {
        let t = sample();
        let chrome = to_chrome_trace(&t);
        assert_eq!(
            chrome.matches("\"ph\": \"B\"").count(),
            chrome.matches("\"ph\": \"E\"").count()
        );
        assert!(chrome.starts_with("[\n") && chrome.ends_with("\n]\n"));
    }

    #[test]
    fn wall_clock_mode_stamps_outside_the_event() {
        let rec = CollectingRecorder::with_wall_clock();
        counter(&rec, 0, SpanId::new("x"), "k", 1);
        let t = rec.drain();
        assert!(t.events()[0].wall_nanos.is_some());
        // The deterministic projection is identical to a stamp-free run.
        let rec2 = CollectingRecorder::new();
        counter(&rec2, 0, SpanId::new("x"), "k", 1);
        assert_eq!(t.deterministic_events(), rec2.drain().deterministic_events());
    }

    #[test]
    fn gauges_round_trip_through_both_exporters() {
        use crate::Recorder as _;
        let rec = CollectingRecorder::new();
        counter(&rec, 0, SpanId::new("x"), "k", 1);
        rec.gauge("serve/queue-depth", 3);
        rec.gauge("serve/queue-depth", 7);
        rec.gauge("serve/inflight", 2);
        let t = rec.drain();

        let jsonl = to_jsonl(&t);
        // One gauge row per name, after the event rows, max retained.
        let gauge_rows: Vec<&str> =
            jsonl.lines().filter(|l| l.contains("\"kind\": \"gauge\"")).collect();
        assert_eq!(gauge_rows.len(), 2);
        assert!(jsonl.ends_with(
            "{\"kind\": \"gauge\", \"name\": \"serve/inflight\", \"max\": 2}\n\
             {\"kind\": \"gauge\", \"name\": \"serve/queue-depth\", \"max\": 7}\n"
        ));

        let chrome = to_chrome_trace(&t);
        assert!(chrome.contains(
            "{\"name\": \"serve/queue-depth\", \"ph\": \"C\", \"pid\": 0, \"tid\": 0, \
             \"ts\": 1, \"args\": {\"max\": 7}}"
        ));
        assert!(chrome.contains("\"name\": \"serve/inflight\", \"ph\": \"C\""));

        // Reading the values back out of the trace agrees with both.
        assert_eq!(t.gauge_max("serve/queue-depth"), Some(7));
        assert_eq!(t.gauges().len(), 2);
    }

    #[test]
    fn escapes_json_special_characters() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
