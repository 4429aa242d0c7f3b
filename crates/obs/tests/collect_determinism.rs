//! The collecting recorder's drain must be independent of thread
//! count, scheduling, and flush timing — that is what lets `pdip
//! trace` commit byte-identical artifacts at `--threads 1` vs `4`.

use pdip_obs::{counter, span, BufferedRecorder, CollectingRecorder, Event, SpanId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Simulate an engine sweep: `jobs` logical jobs partitioned over
/// `threads` workers (work-stealing via an atomic cursor, so the
/// job→thread assignment is scheduling-dependent), each job buffering
/// into its own shard stamped with the job's context.
fn run_sharded(jobs: u64, threads: usize) -> Vec<Event> {
    let rec = CollectingRecorder::new();
    let cursor = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let job = cursor.fetch_add(1, Ordering::Relaxed);
                if job >= jobs {
                    break;
                }
                let buf = BufferedRecorder::new(&rec, job);
                let id = SpanId::at("job/execute", job % 3);
                let _g = span(&buf, 0, id);
                for round in 0..4u64 {
                    counter(&buf, 0, SpanId::at("job/round", round), "bits", job ^ round);
                }
            });
        }
    });
    rec.drain().deterministic_events()
}

#[test]
fn drain_is_invariant_across_thread_counts() {
    let serial = run_sharded(40, 1);
    for threads in [2, 4, 7] {
        assert_eq!(serial, run_sharded(40, threads), "drain differs at {threads} threads");
    }
    // And re-running the parallel case is stable too.
    assert_eq!(run_sharded(40, 4), run_sharded(40, 4));
}

#[test]
fn drain_groups_are_sorted_by_ctx_then_span() {
    let events = run_sharded(12, 3);
    let keys: Vec<(u64, SpanId)> = events.iter().map(|e| (e.ctx, e.span)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "drain must be sorted by (ctx, span)");
    assert_eq!(events.len(), 12 * 6, "enter + exit + 4 counters per job");
}

#[test]
fn buffered_recorder_stamps_context() {
    let rec = CollectingRecorder::new();
    {
        let buf = BufferedRecorder::new(&rec, 17);
        counter(&buf, 0, SpanId::new("x"), "k", 1);
    }
    let t = rec.drain();
    assert_eq!(t.events().len(), 1);
    assert_eq!(t.events()[0].ev.ctx, 17);
    assert_eq!(t.counter_total(17, SpanId::new("x"), "k"), 1);
}

#[test]
fn counter_queries_aggregate_as_documented() {
    let rec = CollectingRecorder::new();
    for (round, bits) in [(0u64, 5u64), (1, 9), (2, 7)] {
        counter(&rec, 0, SpanId::at("p/round", round), "max_label_bits", bits);
    }
    let t = rec.drain();
    assert_eq!(t.counter_max_by_name(0, "p/round", "max_label_bits"), Some(9));
    assert_eq!(t.counter_total(0, SpanId::at("p/round", 1), "max_label_bits"), 9);
    assert_eq!(t.counter_max_by_name(0, "absent", "max_label_bits"), None);
}
