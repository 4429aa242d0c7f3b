//! Live observability for the serve path: the [`ServeObs`] bridge.
//!
//! [`ServeObs`] owns a [`MetricsRegistry`] (always-on counters, gauges,
//! and latency histograms) plus a [`FlightRecorder`] (a bounded ring of
//! recent structured events), and implements [`Recorder`]: the serve
//! worker pool records every instrumentation point straight into it.
//!
//! # Metric naming scheme
//!
//! Names are Prometheus-flavoured, with label-carrying names spelled
//! out in full (the registry treats them as opaque keys):
//!
//! | metric | source |
//! |---|---|
//! | `requests_total{status="…"}` | one per [`Status`], from `serve/request` counter events |
//! | `conn_faults_total{class="…"}` | one per [`fault`] class, from `serve/conn` counter events |
//! | `proof_size_bits_total{family="…"}` | one per family, from `serve/proof-bits` counter events |
//! | `connections_total`, `io_errors_total`, `panics_total` | lifecycle counters |
//! | `queue_depth` (gauge) | the `serve/queue-depth` gauge stream |
//! | `latency_queue_wait_ns`, `latency_decode_ns`, `latency_verify_ns`, `latency_write_ns` | duration histograms |
//!
//! Every metric is pre-registered at construction, so a snapshot always
//! exposes the full stable name set (zeros included) and the hot path
//! never takes the registry lock.
//!
//! The per-family `proof_size_bits_total` counters make the paper's
//! headline quantity — O(log log n) proof size per round — observable
//! on a production server: each accepted or verifier-rejected replay
//! adds its transcript's maximum per-round label bits under its
//! family's label.

use super::Status;
use pdip_obs::{
    AtomicHistogram, Counter, Event, EventKind, FlightRecorder, Gauge, MetricsRegistry,
    MetricsSnapshot, Recorder,
};
use pdip_wire::frame::fault;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Default capacity of the flight-recorder ring.
pub const DEFAULT_FLIGHT_CAP: usize = 256;

/// Default slow-request threshold: requests slower than this (from
/// dequeue to response write) land in the flight recorder.
pub const DEFAULT_SLOW_THRESHOLD: Duration = Duration::from_millis(250);

/// Live metrics + flight recorder for one serve instance.
///
/// Shared as an `Arc` between the server (which records) and whoever
/// wants snapshots (the stats frame, the E14 audit, the CLI).
#[derive(Debug)]
pub struct ServeObs {
    registry: MetricsRegistry,
    flight: FlightRecorder,
    slow_threshold: Duration,
    flight_dump: Option<PathBuf>,
    /// `Status::name()` → counter, one per status code.
    status_counters: Vec<(&'static str, Arc<Counter>)>,
    /// Fault class → counter, one per [`fault::ALL`] entry.
    fault_counters: Vec<(&'static str, Arc<Counter>)>,
    /// Family name → proof-size-bits counter, one per wire family.
    family_counters: Vec<(&'static str, Arc<Counter>)>,
    /// Span name → latency histogram.
    latency_hists: [(&'static str, Arc<AtomicHistogram>); 4],
    connections: Arc<Counter>,
    io_errors: Arc<Counter>,
    panics: Arc<Counter>,
    queue_depth: Arc<Gauge>,
}

impl Default for ServeObs {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeObs {
    /// A bridge with the default flight capacity and slow threshold and
    /// no dump file.
    pub fn new() -> ServeObs {
        Self::with_options(DEFAULT_FLIGHT_CAP, DEFAULT_SLOW_THRESHOLD, None)
    }

    /// A bridge with explicit flight-ring capacity, slow-request
    /// threshold, and optional JSONL dump path (written best-effort on
    /// panic and at drain).
    pub fn with_options(
        flight_cap: usize,
        slow_threshold: Duration,
        flight_dump: Option<PathBuf>,
    ) -> ServeObs {
        let registry = MetricsRegistry::new();
        let status_counters = Status::ALL
            .iter()
            .map(|s| {
                (s.name(), registry.counter(&format!("requests_total{{status=\"{}\"}}", s.name())))
            })
            .collect();
        let fault_counters = fault::ALL
            .iter()
            .map(|&class| {
                (class, registry.counter(&format!("conn_faults_total{{class=\"{class}\"}}")))
            })
            .collect();
        let family_counters = (1u8..=6)
            .filter_map(pdip_wire::family_name)
            .map(|fam| {
                (fam, registry.counter(&format!("proof_size_bits_total{{family=\"{fam}\"}}")))
            })
            .collect();
        let latency_hists = [
            ("serve/queue-wait", registry.histogram("latency_queue_wait_ns")),
            ("serve/decode", registry.histogram("latency_decode_ns")),
            ("serve/verify", registry.histogram("latency_verify_ns")),
            ("serve/write", registry.histogram("latency_write_ns")),
        ];
        ServeObs {
            connections: registry.counter("connections_total"),
            io_errors: registry.counter("io_errors_total"),
            panics: registry.counter("panics_total"),
            queue_depth: registry.gauge("queue_depth"),
            flight: FlightRecorder::new(flight_cap),
            slow_threshold,
            flight_dump,
            status_counters,
            fault_counters,
            family_counters,
            latency_hists,
            registry,
        }
    }

    /// The underlying registry (for ad-hoc instruments).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The flight-recorder ring.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The slow-request threshold in nanoseconds.
    pub fn slow_threshold_nanos(&self) -> u64 {
        u64::try_from(self.slow_threshold.as_nanos()).unwrap_or(u64::MAX)
    }

    /// A point-in-time reading of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Renders a stats-frame payload: mode 0 (default) is the
    /// Prometheus-style text exposition, mode 1 is the JSON snapshot,
    /// mode 2 is the flight-recorder JSONL dump.
    pub fn render(&self, mode: u8) -> String {
        match mode {
            1 => self.snapshot().render_json(),
            2 => self.flight.dump_jsonl(),
            _ => self.snapshot().render_prometheus(),
        }
    }

    /// Records one structured flight event.
    pub fn flight_event(
        &self,
        kind: &'static str,
        conn: u64,
        req: u64,
        label: &'static str,
        detail: String,
    ) {
        self.flight.record(kind, conn, req, label, detail);
    }

    /// Counts an accepted connection and records its lifecycle event.
    pub fn note_connection(&self, conn: u64) {
        self.connections.inc();
        self.flight.record("conn-open", conn, 0, "open", String::new());
    }

    /// Counts a worker panic, records it, and dumps the flight ring
    /// (best-effort) if a dump path is configured.
    pub fn note_panic(&self, conn: u64, req: u64, detail: String) {
        self.panics.inc();
        self.flight.record("panic", conn, req, "panic", detail);
        self.dump_flight("panic");
    }

    /// Records a slow request (caller has already compared against
    /// [`ServeObs::slow_threshold_nanos`]).
    pub fn note_slow(&self, conn: u64, req: u64, status: &'static str, elapsed_nanos: u64) {
        self.flight.record(
            "slow-request",
            conn,
            req,
            status,
            format!("elapsed_ns={elapsed_nanos}"),
        );
    }

    /// Writes the flight ring as JSONL to the configured dump path
    /// (best-effort, no-op without one). The `reason` is prepended as
    /// its own JSONL header line.
    pub fn dump_flight(&self, reason: &str) {
        if let Some(path) = &self.flight_dump {
            let body = format!(
                "{{\"flight\": \"dump\", \"reason\": \"{reason}\"}}\n{}",
                self.flight.dump_jsonl()
            );
            let _ = std::fs::write(path, body);
        }
    }
}

impl Recorder for ServeObs {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, ev: Event) {
        let EventKind::Counter { key, value } = ev.kind else { return };
        let table = match ev.span.name {
            "serve/request" => &self.status_counters,
            "serve/conn" => &self.fault_counters,
            "serve/proof-bits" => &self.family_counters,
            "serve/io-error" => {
                self.io_errors.add(value);
                return;
            }
            _ => return,
        };
        if let Some((_, c)) = table.iter().find(|(k, _)| *k == key) {
            c.add(value);
        }
    }

    fn duration(&self, name: &'static str, nanos: u64) {
        if let Some((_, h)) = self.latency_hists.iter().find(|(n, _)| *n == name) {
            h.record(nanos);
        }
    }

    fn gauge(&self, name: &'static str, value: u64) {
        if name == "serve/queue-depth" {
            self.queue_depth.set(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdip_obs::{counter, SpanId};

    #[test]
    fn bridge_routes_counter_events_by_span_name() {
        let obs = ServeObs::new();
        counter(&obs, 0, SpanId::new("serve/request"), "accept", 1);
        counter(&obs, 0, SpanId::new("serve/request"), "accept", 1);
        counter(&obs, 0, SpanId::new("serve/request"), "busy", 1);
        counter(&obs, 3, SpanId::new("serve/conn"), fault::TRUNCATED_FRAME, 1);
        counter(&obs, 0, SpanId::new("serve/proof-bits"), "planarity", 7);
        counter(&obs, 0, SpanId::new("serve/io-error"), "io-error", 1);
        counter(&obs, 0, SpanId::new("unrelated/span"), "accept", 99);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("requests_total{status=\"accept\"}"), Some(2));
        assert_eq!(snap.counter("requests_total{status=\"busy\"}"), Some(1));
        assert_eq!(snap.counter("requests_total{status=\"reject\"}"), Some(0));
        assert_eq!(snap.counter("conn_faults_total{class=\"truncated-frame\"}"), Some(1));
        assert_eq!(snap.counter("proof_size_bits_total{family=\"planarity\"}"), Some(7));
        assert_eq!(snap.counter("io_errors_total"), Some(1));
    }

    #[test]
    fn bridge_routes_durations_and_gauges() {
        let obs = ServeObs::new();
        obs.duration("serve/verify", 1000);
        obs.duration("serve/decode", 10);
        obs.duration("unknown/name", 5);
        obs.gauge("serve/queue-depth", 4);
        obs.gauge("serve/queue-depth", 2);
        let snap = obs.snapshot();
        assert_eq!(snap.histogram("latency_verify_ns").map(|h| h.count()), Some(1));
        assert_eq!(snap.histogram("latency_decode_ns").map(|h| h.count()), Some(1));
        assert_eq!(snap.histogram("latency_write_ns").map(|h| h.count()), Some(0));
        let gauge = snap.gauges.iter().find(|(n, _)| n == "queue_depth").map(|(_, g)| *g);
        assert_eq!(gauge.map(|g| (g.last, g.max)), Some((2, 4)));
    }

    #[test]
    fn full_name_set_is_pre_registered() {
        let snap = ServeObs::new().snapshot();
        assert_eq!(snap.counters.len(), 9 + 6 + 6 + 3, "statuses + faults + families + lifecycle");
        assert_eq!(snap.hists.len(), 4);
        assert!(snap.counters.iter().all(|(_, v)| *v == 0));
    }
}
