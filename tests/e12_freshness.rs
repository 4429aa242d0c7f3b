//! Freshness guard for the committed `results/e12_serve.{txt,json}`.
//!
//! The E12 serve smoke is deterministic end to end (fixed base seed,
//! seq-sorted responses, timing-free rendering), so re-running it must
//! reproduce the committed artifacts byte for byte. Regenerate with
//! `pdip exp e12` after any change to the wire format, the capture
//! emissions, or the protocols.

use pdip_bench::exp;
use pdip_engine::{run_serve_smoke, E12_SEED};
use std::path::Path;

/// The committed artifact of entry `id` with extension `ext`, found
/// through the experiment registry.
fn committed(id: &str, ext: &str) -> String {
    let entry = exp::find(id).unwrap_or_else(|| panic!("no registry entry {id}"));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(entry.path(ext));
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{} must be committed ({e}); regenerate with `pdip exp {id}`", path.display())
    })
}

#[test]
fn committed_e12_matches_rerun_byte_for_byte() {
    let report = run_serve_smoke(&[1, 4], E12_SEED);
    assert!(report.passed, "serve smoke audit failed: {:?}", report.failures);
    assert!(report.lines.len() >= 100, "smoke must push >= 100 requests");
    assert_eq!(report.stats.panics, 0, "smoke must be panic-free");
    assert_eq!(
        report.probe_busy,
        report.probe_submitted - report.probe_queue_cap,
        "gated probe must busy-reject exactly the overflow"
    );

    let txt = committed("e12", "txt");
    assert_eq!(txt, report.render_text(), "committed e12 text artifact is stale");

    let json = committed("e12", "json");
    assert_eq!(json, report.render_json(), "committed e12 json artifact is stale");
}
