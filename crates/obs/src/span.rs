//! Stable span identities, events, and the RAII span guard.

use crate::Recorder;
use std::time::Instant;

/// A stable span identity: a static name plus two integer coordinates.
///
/// Ids are derived from protocol structure — e.g.
/// `SpanId::at("planarity/round", round)` or
/// `SpanId::at2("engine/job", family_index, n)` — never from time,
/// addresses, or scheduling, so the same run always produces the same
/// ids. Ordering is lexicographic on `(name, a, b)` (string contents,
/// not pointer), which is what [`crate::CollectingRecorder::drain`]
/// sorts by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId {
    /// Static span name, conventionally `layer/what` (e.g.
    /// `"lr-sorting/round"`, `"engine/job/execute"`).
    pub name: &'static str,
    /// First coordinate (round number, stage index, …); 0 if unused.
    pub a: u64,
    /// Second coordinate (node, block, …); 0 if unused.
    pub b: u64,
}

impl SpanId {
    /// A span id with both coordinates zero.
    pub const fn new(name: &'static str) -> Self {
        Self { name, a: 0, b: 0 }
    }

    /// A span id with one coordinate.
    pub const fn at(name: &'static str, a: u64) -> Self {
        Self { name, a, b: 0 }
    }

    /// A span id with two coordinates.
    pub const fn at2(name: &'static str, a: u64, b: u64) -> Self {
        Self { name, a, b }
    }
}

/// What happened at a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span entered.
    Enter,
    /// Span exited.
    Exit,
    /// A named integer observation attributed to the span.
    Counter {
        /// Counter key, e.g. `"max_label_bits"`.
        key: &'static str,
        /// Observed value.
        value: u64,
    },
}

/// One deterministic instrumentation event.
///
/// `ctx` scopes the event to a logical context — the engine stamps the
/// job index via its per-job [`crate::BufferedRecorder`]; standalone
/// runs use 0.
/// Nothing in this tuple may depend on wall-clock time or scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Logical context (engine job index; 0 outside the engine).
    pub ctx: u64,
    /// Which span the event belongs to.
    pub span: SpanId,
    /// What happened.
    pub kind: EventKind,
}

/// An [`Event`] plus the optional wall-clock stamp captured at record
/// time. The stamp is quarantined here — outside the [`Event`] tuple —
/// so deterministic consumers can ignore it wholesale.
#[derive(Clone, Copy, Debug)]
pub struct Stamped {
    /// The deterministic event.
    pub ev: Event,
    /// Nanoseconds since the recorder's epoch, when wall-clock capture
    /// is on ([`crate::CollectingRecorder::with_wall_clock`]).
    pub wall_nanos: Option<u64>,
}

/// RAII guard emitting `Enter` on creation and `Exit` plus a duration
/// observation on drop. Created by [`span`].
pub struct SpanGuard<'a> {
    rec: &'a dyn Recorder,
    ctx: u64,
    span: SpanId,
    /// `Some` iff the recorder was enabled at entry; the clock is never
    /// read (and nothing is emitted on drop) otherwise.
    start: Option<Instant>,
}

/// Enter `id` on `rec`, returning a guard that exits it when dropped.
///
/// When `rec` is disabled this records nothing and never touches the
/// clock — the guard is two words on the stack.
#[inline]
pub fn span<'a>(rec: &'a dyn Recorder, ctx: u64, id: SpanId) -> SpanGuard<'a> {
    let start = if rec.enabled() {
        rec.record(Event { ctx, span: id, kind: EventKind::Enter });
        Some(Instant::now())
    } else {
        None
    };
    SpanGuard { rec, ctx, span: id, start }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.rec.record(Event { ctx: self.ctx, span: self.span, kind: EventKind::Exit });
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.rec.duration(self.span.name, nanos);
        }
    }
}

/// Record a counter observation attributed to `id`. No-op (no
/// allocation, no clock) when `rec` is disabled.
#[inline]
pub fn counter(rec: &dyn Recorder, ctx: u64, id: SpanId, key: &'static str, value: u64) {
    if rec.enabled() {
        rec.record(Event { ctx, span: id, kind: EventKind::Counter { key, value } });
    }
}
