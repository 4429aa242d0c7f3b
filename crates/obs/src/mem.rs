//! Memory accounting: an allocator high-water wrapper and the process
//! peak RSS.
//!
//! The E11 scaling experiment claims *bounded memory*: verifying an
//! n-node instance shard-by-shard must peak at O(max shard) live bytes,
//! not O(n). Two measurements back that claim:
//!
//! * [`PeakAlloc`] wraps the system allocator and tracks live and peak
//!   heap bytes. The peak is *resettable* ([`reset_peak`]), so a driver
//!   can measure each grid row in isolation — that per-row peak is what
//!   the sublinearity gate in `pdip exp e11` asserts on. The binary opts in
//!   with `#[global_allocator]`; library code only reads the counters,
//!   which report `None`-equivalent zeros when no wrapper is installed
//!   ([`alloc_installed`] tells the two apart).
//! * [`peak_rss_bytes`] reads the kernel's `VmHWM` (Linux), the
//!   whole-process high-water mark. It cannot be reset, so it bounds the
//!   *run*, not a row — reported for context, gated only loosely.
//!
//! Counter updates are `Relaxed`: the peak is maintained with a CAS loop,
//! so concurrent allocations can only *under*-report the peak by the
//! size of a racing allocation, never over-report — fine for a gate that
//! asserts an upper bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// A [`System`]-backed global allocator that tracks live and peak heap
/// bytes. Install it in a *binary* root:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: pdip_obs::PeakAlloc = pdip_obs::PeakAlloc::new();
/// ```
#[derive(Debug)]
pub struct PeakAlloc(());

impl PeakAlloc {
    /// The wrapper (stateless; counters are process-global).
    pub const fn new() -> Self {
        PeakAlloc(())
    }
}

impl Default for PeakAlloc {
    fn default() -> Self {
        Self::new()
    }
}

fn on_alloc(size: usize) {
    INSTALLED.store(true, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: delegates every allocation verbatim to `System`; the wrapper
// only maintains side counters.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Whether a [`PeakAlloc`] is installed as the global allocator (i.e. at
/// least one tracked allocation happened). When `false`, the counters
/// are meaningless zeros and callers should report "untracked" instead.
pub fn alloc_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Currently live tracked heap bytes.
pub fn alloc_live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Peak tracked heap bytes since process start or the last
/// [`reset_peak`].
pub fn alloc_peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the heap peak to the current live size and returns the peak it
/// replaced. Call between measurement rows to attribute the peak to one
/// row.
pub fn reset_peak() -> usize {
    PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed)
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where unavailable (non-Linux, or a
/// locked-down procfs).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    // No #[global_allocator] in unit tests (that would hijack the whole
    // test binary); exercise the counter plumbing directly.
    #[test]
    fn counters_track_alloc_dealloc_and_reset() {
        let before_live = alloc_live_bytes();
        on_alloc(1 << 20);
        assert!(alloc_live_bytes() >= before_live + (1 << 20));
        assert!(alloc_peak_bytes() >= before_live + (1 << 20));
        assert!(alloc_installed());
        on_dealloc(1 << 20);
        let peak_before = alloc_peak_bytes();
        let returned = reset_peak();
        assert_eq!(returned, peak_before);
        assert!(alloc_peak_bytes() <= peak_before);
    }

    #[test]
    fn rss_is_readable_on_linux() {
        if let Some(rss) = peak_rss_bytes() {
            assert!(rss > 0, "a running process has nonzero RSS");
        }
    }
}
