//! Deterministic chunked work-splitting: the repository's one batch
//! worker loop.
//!
//! Rounds use it *within* one job — the per-node work of a single round
//! (label decode, per-node commitment checks) — and the sweep engine runs
//! *across* jobs on it (one job per chunk of [`map_chunks_with`], one
//! scratch arena per worker), without changing a single output byte.
//! Three rules make that safe:
//!
//! * **Worker-count-independent chunking.** The index range `0..len` is
//!   cut into fixed-size chunks whose boundaries depend only on `len` and
//!   the grain, never on how many threads run. Workers *claim* chunks
//!   dynamically (an atomic cursor, for load balance), but what a chunk
//!   *is* never varies.
//! * **Chunk-order merge.** Results are reassembled by chunk index, so the
//!   output of [`map_chunks`] is identical to running the chunks in a
//!   serial `for` loop. Anything order-sensitive downstream (rejection
//!   order, captured transcripts, `RunRecord`s) sees the serial order.
//! * **No nested pools.** [`map_chunks_with`] installs a [`SerialGuard`]
//!   on every worker it spawns and on the calling thread of its serial
//!   path; any split reached from inside a chunk (a round inside a sweep
//!   job) runs serially on that thread. One machine, one level of
//!   parallelism, no oversubscription.
//!
//! The knob is process-global ([`set_intra_workers`]; the default is
//! *auto* — [`machine_parallelism`] capped at [`MAX_AUTO_WORKERS`]) so
//! single runs (CLI round benchmarks, one-shot verifications) engage the
//! parallel path out of the box on multi-core machines. The machine's
//! core count is resolved once per process, so reading the knob is one
//! atomic load after the first read. Sweeps keep their across-job
//! parallelism: the engine's jobs run inside the guarded chunk loop, so
//! the auto default never nests a second thread layer. With one effective
//! worker every entry point degenerates to the plain serial loop — same
//! code path a round compiled to before this module existed. Small inputs
//! (`len <= grain`, one chunk) are decided first: [`map_chunks`] and
//! [`map_indexed`] run them as that serial loop without reading any
//! worker count.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Configured intra-job worker count (process-global). `0` is the *auto*
/// sentinel: resolve to [`auto_intra_workers`] at read time.
static INTRA_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// The machine's core count, resolved on first use ([`machine_parallelism`]).
static MACHINE_PARALLELISM: OnceLock<usize> = OnceLock::new();

/// How many times the core count was resolved (the "resolved once" gate).
#[cfg(test)]
static RESOLUTIONS: AtomicUsize = AtomicUsize::new(0);

/// Cap on the auto-resolved worker count: intra-job chunks are
/// memory-bandwidth bound well before 8 threads, and an uncapped default
/// would oversubscribe big CI boxes running the test harness in parallel.
pub const MAX_AUTO_WORKERS: usize = 8;

thread_local! {
    /// Depth of [`SerialGuard`]s active on this thread.
    static SERIAL_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Sets the process-global intra-job worker count (clamped to `>= 1`),
/// overriding the auto default.
///
/// Callers that own the whole process (the CLI, benchmarks) may pin
/// this; library code never should. The setting does not affect threads
/// currently inside a [`SerialGuard`].
pub fn set_intra_workers(k: usize) {
    INTRA_WORKERS.store(k.max(1), Ordering::Relaxed);
}

/// Restores the auto default ([`auto_intra_workers`] at read time).
pub fn set_intra_workers_auto() {
    INTRA_WORKERS.store(0, Ordering::Relaxed);
}

/// The machine's core count: `available_parallelism()` (1 if unknown),
/// uncapped. Resolved on the first call and cached for the rest of the
/// process, since each `available_parallelism()` call reads the cgroup
/// files (tens of µs). Every default that follows the machine (the auto
/// intra-job count, engine and serve pools, `--threads` defaults) reads
/// this one value.
pub fn machine_parallelism() -> usize {
    *MACHINE_PARALLELISM.get_or_init(|| {
        #[cfg(test)]
        RESOLUTIONS.fetch_add(1, Ordering::Relaxed);
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// The worker count the auto default resolves to:
/// [`machine_parallelism`] capped at [`MAX_AUTO_WORKERS`].
pub fn auto_intra_workers() -> usize {
    machine_parallelism().min(MAX_AUTO_WORKERS)
}

/// The configured intra-job worker count (auto default resolved).
pub fn intra_workers() -> usize {
    match INTRA_WORKERS.load(Ordering::Relaxed) {
        0 => auto_intra_workers(),
        k => k,
    }
}

/// Worker count effective on *this* thread: 1 inside a [`SerialGuard`].
fn effective_workers() -> usize {
    if SERIAL_DEPTH.with(|d| d.get()) > 0 {
        1
    } else {
        intra_workers()
    }
}

/// RAII guard forcing all intra-job splits on this thread to run
/// serially. [`map_chunks_with`] holds one on every thread that runs
/// chunks, so a parallel sweep never nests a second thread layer.
#[derive(Debug)]
pub struct SerialGuard(());

impl SerialGuard {
    /// Installs the guard on the current thread (nestable).
    pub fn install() -> Self {
        SERIAL_DEPTH.with(|d| d.set(d.get() + 1));
        SerialGuard(())
    }
}

impl Drop for SerialGuard {
    fn drop(&mut self) {
        SERIAL_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// The deterministic chunk grid: contiguous ranges of size `grain`
/// (clamped to `>= 1`) covering `0..len`, last one ragged. Depends only
/// on `len` and `grain` — never on the worker count.
pub fn chunk_ranges(len: usize, grain: usize) -> impl Iterator<Item = Range<usize>> {
    let grain = grain.max(1);
    (0..len.div_ceil(grain)).map(move |c| c * grain..((c + 1) * grain).min(len))
}

/// Applies `f` to every chunk of the deterministic grid and returns the
/// per-chunk results **in chunk order** — byte-for-byte the output of the
/// serial loop `chunk_ranges(len, grain).map(f).collect()`, at any worker
/// count.
///
/// `f` must be pure up to its range argument (no shared mutable state, no
/// RNG draws); chunk-local accumulators (scratch buffers, chunk-local
/// rejection collectors merged by the caller in chunk order) are the
/// intended pattern. A panic in any chunk propagates to the caller.
///
/// A single-chunk input (`len <= grain`) runs as the serial loop on the
/// calling thread: no worker count is read and no [`SerialGuard`] is
/// installed. Only an input that would really split reads the knob.
pub fn map_chunks<T, F>(len: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if len <= grain.max(1) {
        return chunk_ranges(len, grain).map(f).collect();
    }
    map_chunks_with(effective_workers(), len, grain, || (), |(), r| f(r))
}

/// [`map_chunks`] with an explicit worker count, bypassing the
/// process-global knob (but not the grid: chunk boundaries still depend
/// only on `len` and `grain`), and with per-worker state: each worker
/// builds one `S` with `init` and threads it through every chunk it
/// claims. For callers that must compare worker counts side by side —
/// the E11 scaling driver's 1-vs-K byte-identity probe,
/// thread-invariance tests — without racing other threads on
/// [`set_intra_workers`], and for the sweep engine, whose workers keep
/// one scratch arena for their whole drain of the job list.
///
/// `f`'s result must not depend on what earlier chunks left in the
/// state (a cache of pure values is fine), since which worker claims
/// which chunk varies with timing. The calling thread (serial path) or
/// every spawned worker holds a [`SerialGuard`] while chunks run, so a
/// split inside a chunk never nests a second thread layer.
pub fn map_chunks_with<S, T, I, F>(
    workers: usize,
    len: usize,
    grain: usize,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Range<usize>) -> T + Sync,
{
    let grain = grain.max(1);
    let nchunks = len.div_ceil(grain);
    let workers = workers.max(1).min(nchunks.max(1));
    if workers <= 1 || nchunks <= 1 {
        let _serial = SerialGuard::install();
        let mut state = init();
        return chunk_ranges(len, grain).map(|r| f(&mut state, r)).collect();
    }
    // Workers race on an atomic cursor for load balance; each returns its
    // claimed (chunk index, result) pairs and the merge re-sorts by chunk
    // index, so the output order is the grid order regardless of timing.
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(nchunks);
    slots.resize_with(nchunks, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    // Intra-job workers never split further.
                    let _serial = SerialGuard::install();
                    let mut state = init();
                    let mut got: Vec<(usize, T)> = Vec::new();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= nchunks {
                            break;
                        }
                        got.push((c, f(&mut state, c * grain..((c + 1) * grain).min(len))));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(got) => {
                    for (c, t) in got {
                        slots[c] = Some(t);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots.into_iter().map(|o| o.expect("every chunk claimed exactly once")).collect()
}

/// Applies `f` to every index of `0..len` and returns the results in
/// index order — the parallel equivalent of `(0..len).map(f).collect()`,
/// with the same determinism contract and single-chunk fast path as
/// [`map_chunks`].
pub fn map_indexed<T, F>(len: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if len <= grain.max(1) {
        return (0..len).map(f).collect();
    }
    map_indexed_with(effective_workers(), len, grain, f)
}

/// [`map_indexed`] with an explicit worker count; same contract as
/// [`map_chunks_with`].
pub fn map_indexed_with<T, F>(workers: usize, len: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || len <= grain.max(1) {
        return (0..len).map(f).collect();
    }
    let per_chunk =
        map_chunks_with(workers, len, grain, || (), |(), r| r.map(&f).collect::<Vec<T>>());
    let mut out = Vec::with_capacity(len);
    for chunk in per_chunk {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that set the process-global knob.
    static KNOB: Mutex<()> = Mutex::new(());

    fn lock_knob() -> MutexGuard<'static, ()> {
        KNOB.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` with the global worker count set to `k`, restoring 1
    /// (also when `f` panics) before the knob is released.
    fn with_workers<R>(k: usize, f: impl FnOnce() -> R) -> R {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                set_intra_workers(1);
            }
        }
        let _knob = lock_knob();
        let _restore = Restore; // dropped first: reset, then release
        set_intra_workers(k);
        f()
    }

    #[test]
    fn grid_covers_range_exactly() {
        for (len, grain) in [(0, 3), (1, 3), (9, 3), (10, 3), (11, 3), (5, 100), (7, 0)] {
            let chunks: Vec<_> = chunk_ranges(len, grain).collect();
            let flat: Vec<usize> = chunks.iter().cloned().flatten().collect();
            assert_eq!(flat, (0..len).collect::<Vec<_>>(), "len={len} grain={grain}");
            for w in chunks.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn map_indexed_matches_serial_at_any_worker_count() {
        let serial: Vec<u64> = (0..997).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for k in [1, 2, 3, 4, 8] {
            let par = with_workers(k, || map_indexed(997, 64, |i| (i as u64).wrapping_mul(0x9E37)));
            assert_eq!(par, serial, "workers={k}");
        }
    }

    #[test]
    fn map_chunks_preserves_chunk_order() {
        let serial: Vec<Range<usize>> = chunk_ranges(1000, 7).collect();
        for k in [1, 2, 4] {
            let par = with_workers(k, || map_chunks(1000, 7, |r| r));
            assert_eq!(par, serial, "workers={k}");
        }
    }

    #[test]
    fn auto_default_resolves_within_cap() {
        // The sentinel resolution and the cap are pure functions of the
        // machine.
        let k = auto_intra_workers();
        assert!((1..=MAX_AUTO_WORKERS).contains(&k), "auto resolved to {k}");
        assert_eq!(k, machine_parallelism().min(MAX_AUTO_WORKERS));
        let _knob = lock_knob();
        set_intra_workers_auto();
        assert_eq!(intra_workers(), k, "0 sentinel must resolve to auto");
        set_intra_workers(1);
    }

    #[test]
    fn machine_parallelism_is_resolved_at_most_once() {
        // Under auto, knob reads and single-chunk calls must all hit the
        // cache: one n = 10^4 verify makes thousands of them, and each
        // uncached read costs a cgroup file read.
        let _knob = lock_knob();
        set_intra_workers_auto();
        let k = auto_intra_workers();
        for i in 0..1000 {
            assert_eq!(intra_workers(), k);
            assert_eq!(effective_workers(), k);
            assert_eq!(map_chunks(i % 64, 64, |r| r.len()).iter().sum::<usize>(), i % 64);
            assert_eq!(map_indexed(i % 64, 64, |j| j).len(), i % 64);
        }
        set_intra_workers(1);
        let resolutions = RESOLUTIONS.load(Ordering::Relaxed);
        assert!(resolutions <= 1, "core count resolved {resolutions} times");
    }

    #[test]
    fn single_chunk_calls_run_unguarded_on_the_calling_thread() {
        // A single chunk is the plain serial loop: no guard is installed,
        // so the depth its closure sees is the caller's.
        let caller = std::thread::current().id();
        let depths = map_chunks(10, 10, |_| {
            assert_eq!(std::thread::current().id(), caller);
            SERIAL_DEPTH.with(|d| d.get())
        });
        assert_eq!(depths, vec![0]);
        assert_eq!(map_indexed(3, 8, |_| SERIAL_DEPTH.with(|d| d.get())), vec![0; 3]);
    }

    #[test]
    fn explicit_worker_variants_match_serial_without_global_knob() {
        // map_*_with must not read (or require) the process-global knob.
        let f = |i: usize| (i as u64).wrapping_mul(0x51_7C);
        let serial: Vec<u64> = (0..1203).map(f).collect();
        let grid: Vec<Range<usize>> = chunk_ranges(1203, 31).collect();
        for k in [1, 2, 4, 8, 64] {
            assert_eq!(map_indexed_with(k, 1203, 31, f), serial, "workers={k}");
            assert_eq!(map_chunks_with(k, 1203, 31, || (), |(), r| r), grid, "workers={k}");
        }
    }

    #[test]
    fn serial_guard_disables_splitting() {
        with_workers(4, || {
            let _g = SerialGuard::install();
            assert_eq!(effective_workers(), 1);
            // Still correct, just serial.
            let out = map_indexed(100, 10, |i| i * 2);
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        });
        assert_eq!(SERIAL_DEPTH.with(|d| d.get()), 0, "guard must restore depth");
    }

    #[test]
    fn workers_inside_chunks_are_serial() {
        // A nested map_indexed inside a chunk must not spawn more threads
        // (it cannot deadlock or oversubscribe) and must stay correct.
        let out = with_workers(4, || {
            map_chunks(8, 2, |r| {
                r.map(|i| map_indexed(3, 1, move |j| i * 10 + j)).collect::<Vec<_>>()
            })
        });
        let flat: Vec<usize> = out.into_iter().flatten().flatten().collect();
        let serial: Vec<usize> = (0..8).flat_map(|i| (0..3).map(move |j| i * 10 + j)).collect();
        assert_eq!(flat, serial);
    }

    #[test]
    fn chunk_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            with_workers(2, || {
                map_chunks(10, 1, |r| {
                    assert!(r.start != 7, "boom");
                    r.start
                })
            })
        });
        assert!(caught.is_err());
    }

    proptest! {
        /// The parallel output equals the serial output for arbitrary
        /// (len, grain, workers) — the core byte-identity contract.
        #[test]
        fn prop_parallel_equals_serial(len in 0usize..5000, grain in 0usize..257, k in 1usize..9) {
            let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left((i % 63) as u32);
            let serial: Vec<u64> = (0..len).map(f).collect();
            let par = with_workers(k, || map_indexed(len, grain, f));
            prop_assert_eq!(par, serial);
        }
    }
}
