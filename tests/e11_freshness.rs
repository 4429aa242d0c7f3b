//! Freshness and invariant guard for the committed `results/e11_scale.json`.
//!
//! The E11 scaling table is the repository's bounded-memory claim: a
//! multi-million-node instance is streamed block by block and verified
//! shard-by-shard, with the allocator high-water growing like the shard
//! size, not like `n`. The committed artifact must stay consistent with
//! the code that claims to produce it. This guard checks the committed
//! report without re-running the 10^7-node grid:
//!
//! * the schema parses, the header says all-pass with a *tracked* and
//!   sublinear allocator peak,
//! * the row grid is exactly `ScaleSpec::full().sizes` and reaches at
//!   least 10^7 nodes,
//! * every row passes: accepted, thread-invariant digest, proof bits
//!   inside `envelope_bits(Planarity, n)`, overlap audits and the
//!   non-planar probe green where they ran,
//! * the bounded-memory ratio is re-derived from the committed peaks
//!   (not just trusted from the `rss_sublinear` flag), and
//! * the smallest row is re-verified from its seeds and its digest must
//!   match the committed one byte-for-byte.
//!
//! Regenerate with `cargo run --release --bin pdip -- scale` after any
//! change to the protocols, the streaming generator, the shard combiner,
//! or the seed derivation.

mod common;

use common::field;
use pdip_engine::{digest_result, envelope_bits, sub_seed, verify_stream, Family, ScaleSpec};
use pdip_graph::{StreamMode, StreamSkeleton};

fn committed_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/e11_scale.json"))
        .expect("results/e11_scale.json must be committed; regenerate with `pdip scale`")
}

fn row_lines(json: &str) -> Vec<&str> {
    json.lines().filter(|l| l.trim_start().starts_with("{\"n\"")).collect()
}

#[test]
fn committed_e11_schema_parses_and_passes() {
    let json = committed_json();
    assert!(json.contains("\"experiment\": \"e11-scale\""));
    for key in ["\"sizes\":", "\"shard_n\":", "\"base_seed\":", "\"envelope_slope\":"] {
        assert!(json.contains(key), "header field {key} missing");
    }
    assert!(json.contains("\"all_pass\": true"), "committed audit must pass");
    assert!(
        json.contains("\"rss_tracked\": true"),
        "committed artifact must come from the pdip binary (tracking allocator installed)"
    );
    assert!(json.contains("\"rss_sublinear\": true"), "bounded-memory gate must hold");

    for line in row_lines(&json) {
        assert_eq!(field(line, "pass"), "true", "failing row committed: {line}");
        assert_eq!(field(line, "accepted"), "true", "rejected honest row committed: {line}");
        assert_eq!(
            field(line, "thread_invariant"),
            "true",
            "thread-variant digest committed: {line}"
        );
        let n: usize = field(line, "actual_n").parse().unwrap();
        let proof: usize = field(line, "proof_size_bits").parse().unwrap();
        let envelope: usize = field(line, "envelope_bits").parse().unwrap();
        assert_eq!(
            envelope,
            envelope_bits(Family::Planarity, n),
            "row envelope drifted from envelope_bits(): {line}"
        );
        assert!(proof > 0 && proof <= envelope, "proof bits outside envelope: {line}");
        let overlap = field(line, "overlap");
        if overlap != "null" {
            for sub in ["extract_identical", "monolithic_agrees", "groups_invariant"] {
                assert_eq!(field(overlap, sub), "true", "overlap audit failed: {line}");
            }
        }
        let probe = field(line, "nonplanar_rejected");
        assert_ne!(probe, "false", "soundness probe accepted a non-planar stream: {line}");
    }
}

#[test]
fn committed_e11_covers_the_full_grid_to_ten_million() {
    let json = committed_json();
    let spec = ScaleSpec::full();
    let ns: Vec<usize> = row_lines(&json).iter().map(|l| field(l, "n").parse().unwrap()).collect();
    assert_eq!(ns, spec.sizes, "row grid drifted from ScaleSpec::full()");
    assert!(
        ns.iter().copied().max().unwrap_or(0) >= 10_000_000,
        "the scaling claim requires at least a 10^7-node row"
    );
    // Shard size bounds the memory unit: every row must report shards of
    // (at most) the spec's target plus the generator's block slack.
    for line in row_lines(&json) {
        let max_shard: usize = field(line, "max_shard_n").parse().unwrap();
        assert!(max_shard <= 2 * spec.shard_n, "a shard outgrew the configured bound: {line}");
    }
}

/// Re-derives the bounded-memory ratio from the committed allocator
/// peaks instead of trusting the `rss_sublinear` flag: across the grid's
/// 1000x growth in `n`, the allocator high-water may grow at most a
/// quarter as fast.
#[test]
fn committed_allocator_peaks_are_sublinear_in_n() {
    let json = committed_json();
    let rows: Vec<(u64, u64)> = row_lines(&json)
        .iter()
        .map(|l| {
            let peak = field(l, "alloc_peak_bytes");
            assert_ne!(peak, "null", "untracked row in committed artifact: {l}");
            (field(l, "n").parse().unwrap(), peak.parse().unwrap())
        })
        .collect();
    let (n0, p0) = rows[0];
    let (n1, p1) = *rows.last().unwrap();
    assert!(n1 > n0 && p0 > 0, "degenerate grid in committed artifact");
    let mem_growth = p1 as f64 / p0 as f64;
    let n_growth = n1 as f64 / n0 as f64;
    assert!(
        mem_growth <= n_growth / 4.0,
        "allocator peak grew {mem_growth:.2}x over a {n_growth:.0}x n growth — memory is not \
         bounded by the shard size"
    );
}

/// Streams the committed grid's smallest row from its seeds and checks
/// the outcome digest against the committed one. Any drift in the
/// generator, the planarity protocol, the combiner, or the seed
/// derivation shows up here as a digest mismatch.
#[test]
fn smallest_row_replays_to_committed_digest() {
    let json = committed_json();
    let spec = ScaleSpec::full();
    let n0 = *spec.sizes.iter().min().unwrap();
    let line = row_lines(&json)
        .into_iter()
        .find(|l| field(l, "n") == n0.to_string())
        .expect("smallest row missing from committed report");

    let skel = StreamSkeleton::new(spec.stream_spec(n0, StreamMode::Planar));
    assert_eq!(field(line, "actual_n").parse::<usize>().unwrap(), skel.total_n);
    assert_eq!(field(line, "shards").parse::<usize>().unwrap(), skel.shard_count());
    let run_base = sub_seed(skel.spec.seed, pdip_engine::seed::labels::RUN);
    let res = verify_stream(&skel, 1, run_base);
    assert!(res.accepted(), "honest replay of the smallest row rejected");
    assert_eq!(
        format!("{:016x}", digest_result(&res)),
        field(line, "digest"),
        "replayed digest diverges from committed artifact — regenerate with `pdip scale`"
    );
    assert_eq!(field(line, "proof_size_bits").parse::<usize>().unwrap(), res.stats.proof_size());
    assert_eq!(field(line, "coin_bits").parse::<usize>().unwrap(), res.stats.coin_bits);
}
