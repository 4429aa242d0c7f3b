//! Bridging DIP bit accounting into the `pdip-obs` recorder.
//!
//! Conventions (consumed by the engine's E10 trace audit):
//!
//! * span name = the protocol's static name (e.g. `"planarity"`),
//!   coordinate `a` = 1-based prover-round index; counters
//!   `"round_max_bits"` / `"round_total_bits"` carry that round's
//!   [`SizeStats`] entries;
//! * the same span at `a = 0` carries run-level counters
//!   `"proof_size_bits"`, `"coin_bits"`, and `"rounds"`.
//!
//! Everything emitted here is derived from [`SizeStats`] — protocol
//! structure, never time — so traced event streams stay deterministic.

use crate::outcome::RunResult;
use crate::transcript::SizeStats;
use pdip_obs::{counter, Recorder, SpanId};

/// Emit the per-round and run-level bit counters of one finished run.
///
/// `proto` must be the protocol's stable static name. No-op (no
/// allocation) when `rec` is disabled.
pub fn trace_stats(rec: &dyn Recorder, proto: &'static str, stats: &SizeStats) {
    if !rec.enabled() {
        return;
    }
    for (i, (&max, &total)) in
        stats.per_round_max_bits.iter().zip(&stats.per_round_total_bits).enumerate()
    {
        let id = SpanId::at(proto, (i + 1) as u64);
        counter(rec, 0, id, "round_max_bits", max as u64);
        counter(rec, 0, id, "round_total_bits", total as u64);
    }
    let run = SpanId::new(proto);
    counter(rec, 0, run, "proof_size_bits", stats.proof_size() as u64);
    counter(rec, 0, run, "coin_bits", stats.coin_bits as u64);
    counter(rec, 0, run, "rounds", stats.rounds as u64);
}

impl RunResult {
    /// Emits this finished run's bit counters ([`trace_stats`]) under
    /// `proto` and returns the run unchanged — the last step of every
    /// instrumented protocol run, at each of its exits.
    pub fn traced(self, rec: &dyn Recorder, proto: &'static str) -> RunResult {
        trace_stats(rec, proto, &self.stats);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdip_obs::{CollectingRecorder, NoopRecorder};

    fn sample_stats() -> SizeStats {
        SizeStats {
            per_round_max_bits: vec![7, 12, 5],
            per_round_total_bits: vec![70, 120, 50],
            coin_bits: 33,
            rounds: 5,
        }
    }

    #[test]
    fn emits_one_counter_pair_per_round_plus_run_summary() {
        let rec = CollectingRecorder::new();
        trace_stats(&rec, "demo", &sample_stats());
        let t = rec.drain();
        assert_eq!(t.events().len(), 3 * 2 + 3);
        assert_eq!(t.counter_total(0, SpanId::at("demo", 2), "round_max_bits"), 12);
        assert_eq!(t.counter_total(0, SpanId::at("demo", 3), "round_total_bits"), 50);
        assert_eq!(t.counter_max_by_name(0, "demo", "round_max_bits"), Some(12));
        assert_eq!(t.counter_total(0, SpanId::new("demo"), "proof_size_bits"), 12);
        assert_eq!(t.counter_total(0, SpanId::new("demo"), "coin_bits"), 33);
        assert_eq!(t.counter_total(0, SpanId::new("demo"), "rounds"), 5);
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        // Must not panic or do observable work.
        trace_stats(&NoopRecorder, "demo", &sample_stats());
    }
}
