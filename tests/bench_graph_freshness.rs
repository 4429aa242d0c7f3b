//! Freshness guard for the committed `results/bench_graph.json`.
//!
//! Timings are machine-dependent, so unlike the E3 guard this does not
//! re-run the measurements; it checks that the committed document still
//! parses under the current schema (writer and parser live together in
//! `pdip_bench::snapshot`, so drift in either fails here), that it is a
//! full-grid run covering every benchmark at every acceptance-criterion
//! size, and that it still witnesses the ≥ 2× speedup the graph-substrate
//! overhaul claims.

use pdip_bench::snapshot::{Snapshot, GRAPH};

#[test]
fn committed_bench_graph_snapshot_parses_and_covers_the_grid() {
    let doc =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/bench_graph.json"))
            .expect("results/bench_graph.json must be committed");
    let entries = Snapshot::parse(&doc, &GRAPH).expect("committed snapshot must parse").entries;

    assert!(doc.contains("\"mode\": \"full\""), "committed snapshot must be a full run");
    for name in ["is_planar", "biconnected", "spanning_forest", "planarity_round"] {
        for n in [1_000usize, 10_000, 100_000] {
            assert!(
                entries.iter().any(|e| e.name == name && e.n == n),
                "missing entry {name} at n = {n}"
            );
        }
    }
    assert!(
        entries.iter().any(|e| e.name == "edge_between_dense"),
        "missing the edge_between micro-benchmark"
    );
    let best = entries.iter().map(|e| e.baseline_ns / e.fast_ns).fold(f64::NEG_INFINITY, f64::max);
    assert!(best >= 2.0, "committed snapshot must witness a >= 2x speedup, best is {best:.2}x");

    // The planarity_round rows compare warm-vs-cold scratch of the *same*
    // round code, so their internal ratio hovers near 1x by design. What
    // the committed snapshot must witness instead is that the round itself
    // got fast: before the intra-job parallel / arena round landed, the
    // honest round at n = 10^5 cost ~2.2e9 ns on the reference machine
    // (see `pdip_bench::roundbench::COMMITTED_BASELINE_NS`). The
    // regenerated snapshot must sit well below that level.
    let round_1e5 = entries
        .iter()
        .find(|e| e.name == "planarity_round" && e.n == 100_000)
        .map(|e| e.fast_ns)
        .expect("planarity_round at n = 100000 checked above");
    assert!(
        round_1e5 < 2.0e9,
        "committed planarity_round @ 10^5 must reflect the optimized round \
         (< 2.0e9 ns warm); snapshot says {round_1e5:.0} ns"
    );
}
