//! The shipped recorders: noop, collecting (with per-job buffered
//! shards that stamp their context), and the drained [`Trace`].

use crate::{Event, Histogram, Recorder, SpanId, Stamped};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// The disabled recorder: every method is the trait's no-op default.
///
/// This is what every instrumented API takes when the caller does not
/// ask for tracing. `tests/alloc_noop.rs` pins that warm instrumented
/// paths through this recorder allocate exactly nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// An enabled recorder that collects events into shards and durations
/// into per-name histograms, drained into a [`Trace`].
///
/// Events recorded directly land in this recorder's own shard; jobs
/// running on worker threads should record through a
/// [`BufferedRecorder`] so their events arrive as one contiguous shard
/// each (rule 2 of the crate's determinism rules). Wall-clock stamping
/// is off by default; enable it with
/// [`CollectingRecorder::with_wall_clock`] when exporting Chrome traces
/// — stamps stay outside the deterministic event tuple.
#[derive(Debug)]
pub struct CollectingRecorder {
    /// Flushed worker shards plus (last) this recorder's direct shard.
    shards: Mutex<Vec<Vec<Stamped>>>,
    /// Events recorded without an intermediate buffer.
    direct: Mutex<Vec<Stamped>>,
    hists: Mutex<BTreeMap<&'static str, Histogram>>,
    gauges: Mutex<BTreeMap<&'static str, u64>>,
    epoch: Option<Instant>,
}

impl Default for CollectingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl CollectingRecorder {
    /// A collecting recorder without wall-clock capture: drained event
    /// streams are fully deterministic; durations still accumulate
    /// into histograms.
    pub fn new() -> Self {
        Self {
            shards: Mutex::new(Vec::new()),
            direct: Mutex::new(Vec::new()),
            hists: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            epoch: None,
        }
    }

    /// A collecting recorder that additionally stamps every event with
    /// nanoseconds since creation (in [`Stamped::wall_nanos`], never
    /// in the [`Event`] itself).
    pub fn with_wall_clock() -> Self {
        Self { epoch: Some(Instant::now()), ..Self::new() }
    }

    fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        // A poisoned instrumentation lock means a worker panicked while
        // recording; the data is still structurally sound, so keep it.
        match m.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Drain everything recorded so far into a [`Trace`].
    ///
    /// Events are stable-sorted by `(ctx, span)`: groups are totally
    /// ordered by their deterministic key, and within a group the
    /// single producing shard's insertion order survives, so the
    /// result is byte-identical across thread counts and flush timing.
    pub fn drain(&self) -> Trace {
        let mut shards = std::mem::take(&mut *Self::lock(&self.shards));
        shards.push(std::mem::take(&mut *Self::lock(&self.direct)));
        let mut events: Vec<Stamped> = shards.into_iter().flatten().collect();
        events.sort_by_key(|s| (s.ev.ctx, s.ev.span));
        let hists = std::mem::take(&mut *Self::lock(&self.hists));
        let gauges = std::mem::take(&mut *Self::lock(&self.gauges));
        Trace { events, hists: hists.into_iter().collect(), gauges: gauges.into_iter().collect() }
    }
}

impl Recorder for CollectingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn now(&self) -> Option<u64> {
        self.epoch.map(|e| u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    fn record(&self, ev: Event) {
        let wall_nanos = self.now();
        Self::lock(&self.direct).push(Stamped { ev, wall_nanos });
    }

    fn flush_shard(&self, shard: Vec<Stamped>) {
        if !shard.is_empty() {
            Self::lock(&self.shards).push(shard);
        }
    }

    fn duration(&self, name: &'static str, nanos: u64) {
        Self::lock(&self.hists).entry(name).or_default().record(nanos);
    }

    fn gauge(&self, name: &'static str, value: u64) {
        let mut gauges = Self::lock(&self.gauges);
        let slot = gauges.entry(name).or_insert(0);
        *slot = (*slot).max(value);
    }
}

/// A per-job buffer in front of a shared recorder.
///
/// Every event recorded through it is stamped with the buffer's fixed
/// context id `ctx` (the engine uses the job's grid index), so
/// protocol-level spans — which always record with `ctx = 0` — become
/// unambiguous per-job groups after the drain's sort. Events collect in
/// a local vector (one uncontended mutex, no cross-thread traffic) and
/// the whole buffer is flushed to the parent as a single contiguous
/// shard on drop — which is what makes the parent's drain order
/// independent of scheduling. Durations and gauges pass straight
/// through (histogram merge is order-insensitive).
pub struct BufferedRecorder<'a> {
    parent: &'a dyn Recorder,
    ctx: u64,
    buf: Mutex<Vec<Stamped>>,
}

impl<'a> BufferedRecorder<'a> {
    /// A buffer in front of `parent` that stamps `ctx` onto every event.
    /// Costs nothing (not even the buffer allocation) while `parent` is
    /// disabled.
    pub fn new(parent: &'a dyn Recorder, ctx: u64) -> Self {
        Self { parent, ctx, buf: Mutex::new(Vec::new()) }
    }
}

impl Recorder for BufferedRecorder<'_> {
    fn enabled(&self) -> bool {
        self.parent.enabled()
    }

    fn now(&self) -> Option<u64> {
        self.parent.now()
    }

    fn record(&self, mut ev: Event) {
        ev.ctx = self.ctx;
        let wall_nanos = self.parent.now();
        if let Ok(mut buf) = self.buf.lock() {
            buf.push(Stamped { ev, wall_nanos });
        }
    }

    fn duration(&self, name: &'static str, nanos: u64) {
        self.parent.duration(name, nanos);
    }

    fn gauge(&self, name: &'static str, value: u64) {
        self.parent.gauge(name, value);
    }
}

impl Drop for BufferedRecorder<'_> {
    fn drop(&mut self) {
        let buf = std::mem::take(self.buf.get_mut().unwrap_or_else(|p| p.into_inner()));
        if !buf.is_empty() {
            self.parent.flush_shard(buf);
        }
    }
}

/// Everything a [`CollectingRecorder`] gathered, post-drain.
///
/// `events()` is the deterministic stream (artifact-safe once wall
/// stamps are ignored); `histograms()` is timing data (stdout only).
#[derive(Debug, Default)]
pub struct Trace {
    events: Vec<Stamped>,
    hists: Vec<(&'static str, Histogram)>,
    gauges: Vec<(&'static str, u64)>,
}

impl Trace {
    /// All events, sorted by `(ctx, span)`.
    pub fn events(&self) -> &[Stamped] {
        &self.events
    }

    /// Duration histograms, sorted by span name.
    pub fn histograms(&self) -> &[(&'static str, Histogram)] {
        &self.hists
    }

    /// All gauge maxima, sorted by name. Like [`Trace::gauge_max`],
    /// these are measurement data: exporters render them, committed
    /// artifacts never include them.
    pub fn gauges(&self) -> &[(&'static str, u64)] {
        &self.gauges
    }

    /// The maximum observed value of the gauge `name`, or `None` if it
    /// was never recorded. Gauge maxima are measurement data (like
    /// durations): scheduling-dependent, so they never enter committed
    /// artifacts.
    pub fn gauge_max(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The deterministic projection of the event stream (wall stamps
    /// dropped). Two runs of the same workload compare equal here even
    /// when wall-clock capture was on.
    pub fn deterministic_events(&self) -> Vec<Event> {
        self.events.iter().map(|s| s.ev).collect()
    }

    /// Sum of `key` counter values over events in `ctx` whose span
    /// matches `id` exactly.
    pub fn counter_total(&self, ctx: u64, id: SpanId, key: &str) -> u64 {
        self.events
            .iter()
            .filter(|s| s.ev.ctx == ctx && s.ev.span == id)
            .filter_map(|s| match s.ev.kind {
                crate::EventKind::Counter { key: k, value } if k == key => Some(value),
                _ => None,
            })
            .sum()
    }

    /// Maximum `key` counter value over all events in `ctx` whose span
    /// *name* matches `name` (any coordinates); `None` if absent.
    pub fn counter_max_by_name(&self, ctx: u64, name: &str, key: &str) -> Option<u64> {
        self.events
            .iter()
            .filter(|s| s.ev.ctx == ctx && s.ev.span.name == name)
            .filter_map(|s| match s.ev.kind {
                crate::EventKind::Counter { key: k, value } if k == key => Some(value),
                _ => None,
            })
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, span};

    #[test]
    fn job_buffer_stamps_its_ctx_and_lands_as_one_contiguous_shard() {
        let rec = CollectingRecorder::new();
        counter(&rec, 0, SpanId::new("direct"), "k", 1);
        {
            let buf = BufferedRecorder::new(&rec, 9);
            let _g = span(&buf, 0, SpanId::new("job"));
            counter(&buf, 0, SpanId::at("job/round", 1), "bits", 3);
            counter(&buf, 5, SpanId::at("job/round", 2), "bits", 4);
            // Nothing reaches the parent before the buffer drops.
            assert!(CollectingRecorder::lock(&rec.shards).is_empty());
        }
        let shards = CollectingRecorder::lock(&rec.shards);
        assert_eq!(shards.len(), 1, "one job, one shard");
        assert_eq!(shards[0].len(), 4, "enter + 2 counters + exit");
        assert!(shards[0].iter().all(|s| s.ev.ctx == 9), "every event carries the job's ctx");
        assert_eq!(CollectingRecorder::lock(&rec.direct).len(), 1, "direct events stay apart");
    }
}
