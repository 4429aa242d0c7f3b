//! `pdip-obs` — zero-cost structured tracing + metrics.
//!
//! Every layer of this repository that wants instrumentation (protocol
//! prover/verifier rounds, engine worker jobs, CLI audits) records
//! through one object-safe [`Recorder`] trait:
//!
//! * **spans** — enter/exit pairs keyed by a stable [`SpanId`]
//!   (`&'static str` name plus two integer coordinates such as
//!   round/node), created RAII-style via [`span`];
//! * **counters** — `(span, key, value)` triples, e.g. per-round
//!   max-label bits, via [`counter`];
//! * **duration histograms** — log2-bucketed nanosecond histograms
//!   ([`Histogram`]) keyed by span name.
//!
//! Three recorders ship with the crate. [`NoopRecorder`] is the default
//! everywhere: every method is an empty body behind an `enabled()`
//! check, so instrumented hot paths do **zero** allocations and never
//! read the clock (guarded by the counting-allocator test in
//! `tests/alloc_noop.rs`). [`CollectingRecorder`] gathers events and
//! yields a [`Trace`] at drain. [`BufferedRecorder`] sits in front of
//! either for one job: it stamps the job's context id onto every event
//! and hands the job's events over as one contiguous shard.
//!
//! # Determinism rules
//!
//! Traces feed committed artifacts (`results/e10_trace.*`), which must
//! be byte-identical across thread counts. Three rules make that hold:
//!
//! 1. **Stable ids, no clocks in events.** An [`Event`] is
//!    `(ctx, span, kind)` — all derived from protocol structure (job
//!    index, protocol name, round number), never from scheduling or
//!    time. Wall-clock nanoseconds live in a *separate optional field*
//!    ([`Stamped::wall_nanos`]) that deterministic consumers ignore.
//! 2. **Shard-contiguous merge.** Each job buffers into its own shard;
//!    [`CollectingRecorder::drain`] concatenates shards and
//!    stable-sorts by `(ctx, span)`. Any one `(ctx, span)` group is
//!    produced by exactly one job (engine job indices are unique), so
//!    within-group order is that job's deterministic insertion order
//!    regardless of which worker ran it or when it flushed.
//! 3. **Histograms are timing data.** Duration histograms are kept
//!    apart from the event stream and must never be written into a
//!    committed artifact — stdout breakdowns only.
//!
//! Exporters: [`export::to_jsonl`] (deterministic, one event per line)
//! and [`export::to_chrome_trace`] (`chrome://tracing` / Perfetto
//! trace-event JSON, using wall stamps when captured).
//!
//! Long-lived services use the *live* side of the crate instead of
//! drained traces: [`MetricsRegistry`] — sharded atomic counters,
//! gauges, and atomic duration histograms with snapshot/delta
//! semantics and a Prometheus-style text encoder — plus
//! [`FlightRecorder`], a bounded ring of recent structured events
//! dumped as JSONL for post-mortem analysis. The serve path's bridge
//! (`pdip_engine::serve::ServeObs`) implements [`Recorder`] over both,
//! so the same instrumentation points feed live metrics.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod export;
mod flight;
mod hist;
pub mod mem;
mod metrics;
mod recorder;
mod span;
mod stopwatch;

pub use flight::{FlightEvent, FlightRecorder};
pub use hist::Histogram;
pub use mem::{
    alloc_installed, alloc_live_bytes, alloc_peak_bytes, peak_rss_bytes, reset_peak, PeakAlloc,
};
pub use metrics::{AtomicHistogram, Counter, Gauge, GaugeValue, MetricsRegistry, MetricsSnapshot};
pub use recorder::{BufferedRecorder, CollectingRecorder, NoopRecorder, Trace};
pub use span::{counter, span, Event, EventKind, SpanGuard, SpanId, Stamped};
pub use stopwatch::Stopwatch;

/// The object-safe instrumentation sink.
///
/// All methods have no-op defaults so `impl Recorder for MyType {}` is
/// a valid disabled recorder. Call sites must gate work behind
/// [`Recorder::enabled`] (the [`span`]/[`counter`] helpers do) so a
/// disabled recorder costs one virtual call and a branch — no
/// allocation, no clock read.
pub trait Recorder: Sync {
    /// Whether events should be recorded at all. Hot paths branch on
    /// this once per span/counter.
    fn enabled(&self) -> bool {
        false
    }

    /// Nanoseconds since this recorder's epoch, or `None` when
    /// wall-clock capture is off. Wall stamps never enter the
    /// deterministic event tuple — see the crate-level rules.
    fn now(&self) -> Option<u64> {
        None
    }

    /// Record one structured event.
    fn record(&self, _ev: Event) {}

    /// Merge a worker-local buffer as one contiguous shard. The
    /// default degrades to per-event [`Recorder::record`] calls
    /// (losing shard contiguity but not data).
    fn flush_shard(&self, shard: Vec<Stamped>) {
        for s in shard {
            self.record(s.ev);
        }
    }

    /// Record an observed duration into the histogram for `name`.
    fn duration(&self, _name: &'static str, _nanos: u64) {}

    /// Record an instantaneous gauge observation (e.g. the serve queue
    /// depth at enqueue time). Collecting recorders keep the per-name
    /// maximum; like durations, gauge values are measurement data and
    /// never enter the deterministic event stream.
    fn gauge(&self, _name: &'static str, _value: u64) {}
}
