//! Freshness guard for the committed `results/bench_hotpath.json`.
//!
//! Timings are machine-dependent, so this does not re-run the
//! measurements; it checks that the committed document still parses
//! under the current schema (writer and parser live together in
//! `pdip_bench::snapshot`, so drift in either fails here), that it was
//! measured in the field `pdip bench-hotpath` uses, that it covers all
//! three paired measurements, and that it still witnesses the ≥ 3×
//! `multiset_poly_eval` speedup at 10⁵ elements that DESIGN.md §4a
//! claims for the batched Montgomery fingerprint.

use pdip_bench::snapshot::{Snapshot, HOTPATH};
use planarity_dip::field::smallest_prime_above;

#[test]
fn committed_bench_hotpath_snapshot_parses_and_witnesses_the_speedup() {
    let doc =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/bench_hotpath.json"))
            .expect("results/bench_hotpath.json must be committed");
    let snap = Snapshot::parse(&doc, &HOTPATH).expect("committed snapshot must parse");
    assert!(doc.contains("\"schema\": \"pdip.bench_hotpath.v1\""));

    let modulus: u64 = snap.header.parse().expect("modulus is a number");
    assert_eq!(modulus, smallest_prime_above(1 << 20), "snapshot measured in the wrong field");

    for name in ["field_mul", "multiset_poly_eval", "multiset_eq_tree_round"] {
        assert!(snap.entries.iter().any(|e| e.name == name), "missing entry {name}");
    }
    let eval = snap
        .entries
        .iter()
        .find(|e| e.name == "multiset_poly_eval")
        .expect("multiset_poly_eval checked above");
    assert_eq!(eval.n, 100_000, "multiset_poly_eval must run at the 10^5 acceptance size");
    assert!(
        eval.speedup() >= 3.0,
        "committed snapshot must witness >= 3x on multiset_poly_eval, got {:.2}x",
        eval.speedup()
    );
}
