//! Freshness guards for the committed artifacts under `results/`, read
//! through the experiment registry ([`pdip_bench::exp`]) so a renamed
//! path cannot drift from the table that writes it, plus the check that
//! every file under `results/` has exactly one owner in the table. Each
//! guard checks the committed file without re-running the whole grid:
//! deterministic artifacts by rerunning their smallest cell (E10, E11)
//! or a live-server digest probe (E13, E14); timing artifacts (the bench
//! snapshots, the `rps` and latency fields) only have to parse and
//! witness their claims. E3 and E12 keep their own guards in
//! `tests/results_freshness.rs` and `tests/e12_freshness.rs`.
//! Regenerate with `pdip exp <id>`.

use pdip_bench::exp::{self, ENTRIES};
use pdip_bench::roundbench::{committed_baseline_ns, ROUND_STAGES};
use pdip_bench::snapshot::{Snapshot, GRAPH, HOTPATH, ROUND};
use pdip_engine::chaos::{build_target, MUTATORS, TARGETS};
use pdip_engine::{
    determinism_probe, digest_result, envelope_bits, execute_job, metrics_determinism_probe,
    sub_seed, verify_stream, Family, ScaleSpec, TraceSpec, WorkerScratch, E13_SEED, E14_SEED,
    FAMILIES,
};
use pdip_graph::{StreamMode, StreamSkeleton};
use pdip_obs::{CollectingRecorder, SpanId};
use planarity_dip::field::smallest_prime_above;
use std::path::Path;

/// The committed artifact of entry `id` with extension `ext`.
fn committed(id: &str, ext: &str) -> String {
    let entry = exp::find(id).unwrap_or_else(|| panic!("no registry entry {id}"));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(entry.path(ext));
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{} must be committed ({e}); regenerate with `pdip exp {id}`", path.display())
    })
}

/// Extracts `"key": value` from one JSON line (the artifacts are
/// line-oriented: one cell or row object per line, scalar headers and
/// nested sections one per line). The value is cut at the first `,`/`}`
/// outside brackets, so `[a, b]` lists and nested `{…}` objects come
/// back whole; surrounding quotes are stripped.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let start =
        line.find(&pat).unwrap_or_else(|| panic!("missing field {key:?} in: {line}")) + pat.len();
    let rest = &line[start..];
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' if depth > 0 => depth -= 1,
            '}' | ',' if depth == 0 => return rest[..i].trim().trim_matches('"'),
            _ => {}
        }
    }
    rest.trim().trim_matches('"')
}

/// The line of a top-level `"key": …` section.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    json.lines()
        .find(|l| l.trim_start().starts_with(&format!("\"{key}\"")))
        .unwrap_or_else(|| panic!("missing section {key:?}"))
}

/// The row objects of a JSON artifact: the lines opening with
/// `{"first_key"`.
fn rows<'a>(json: &'a str, first_key: &str) -> Vec<&'a str> {
    let open = format!("{{\"{first_key}\"");
    json.lines().filter(|l| l.trim_start().starts_with(&open)).collect()
}

/// Parses a `[a, b, c]` list field into integers.
fn int_list(raw: &str) -> Vec<u64> {
    raw.trim_start_matches('[')
        .trim_end_matches(']')
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().expect("integer list entry"))
        .collect()
}

/// The files under `{root}/results` not written by exactly one registry
/// entry, plus the registry files missing from it.
fn registry_mismatches(root: &Path) -> Vec<String> {
    // The wire-format fixture of `tests/golden_wire.rs` is written by
    // `pdip prove`, not by an experiment.
    const FIXTURES: [&str; 1] = ["results/golden_v1.transcript"];
    let owned: Vec<String> =
        ENTRIES.iter().flat_map(|e| e.artifacts.iter().map(|a| e.path(a.ext))).collect();
    let mut problems = Vec::new();
    for file in std::fs::read_dir(root.join("results")).expect("results/ is committed") {
        let name =
            format!("results/{}", file.expect("readable entry").file_name().to_string_lossy());
        let owners = owned.iter().filter(|p| **p == name).count();
        if owners != 1 && !FIXTURES.contains(&name.as_str()) {
            problems.push(format!("{name} belongs to {owners} entries"));
        }
    }
    for path in owned {
        if !root.join(&path).is_file() {
            problems.push(format!("{path} is missing"));
        }
    }
    problems
}

#[test]
fn every_results_file_belongs_to_exactly_one_entry() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert_eq!(registry_mismatches(root), Vec::<String>::new());
}

/// Negative control for the ownership check: a stand-in checkout with
/// every registry file (empty) plus one orphan, then one file short.
#[test]
fn registry_check_flags_an_orphan_and_a_missing_file() {
    let root = std::env::temp_dir().join(format!("pdip_registry_{}", std::process::id()));
    std::fs::create_dir_all(root.join("results")).expect("temp results dir");
    for entry in ENTRIES {
        for a in entry.artifacts {
            std::fs::write(root.join(entry.path(a.ext)), "").expect("stand-in artifact");
        }
    }
    assert_eq!(registry_mismatches(&root), Vec::<String>::new());
    std::fs::write(root.join("results/orphan.txt"), "").expect("orphan");
    assert_eq!(registry_mismatches(&root), ["results/orphan.txt belongs to 0 entries"]);
    std::fs::remove_file(root.join("results/e9_chaos.json")).expect("remove one artifact");
    assert_eq!(registry_mismatches(&root).len(), 2, "a missing artifact must be flagged");
    let _ = std::fs::remove_dir_all(root);
}

// ---- bench-hotpath

#[test]
fn committed_bench_hotpath_snapshot_parses_and_witnesses_the_speedup() {
    let doc = committed("bench-hotpath", "json");
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

// ---- bench-graph

#[test]
fn committed_bench_graph_snapshot_parses_and_covers_the_grid() {
    let doc = committed("bench-graph", "json");
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

// ---- bench-round: the witness level is >= 2x at every grid size. The
// reference container is single-core, so the committed snapshot records
// what the lane-batched LR commitments, arena-backed labels and chunked
// loops achieve without thread-level parallelism (~2.6x @ 10^5).

#[test]
fn committed_bench_round_snapshot_parses_and_witnesses_the_speedup() {
    let doc = committed("bench-round", "json");
    let parsed = Snapshot::parse(&doc, &ROUND).expect("committed snapshot must parse");
    assert_eq!(parsed.header, "full", "committed snapshot must be a full run");

    // Full acceptance grid, one planarity_round entry per size, each
    // measured against the frozen pre-optimization baseline.
    for n in [1_000usize, 10_000, 100_000] {
        let e = parsed
            .entries
            .iter()
            .find(|e| e.name == "planarity_round" && e.n == n)
            .unwrap_or_else(|| panic!("missing planarity_round entry at n = {n}"));
        let (base, fast) = (e.baseline_ns, e.fast_ns);
        let frozen =
            committed_baseline_ns(n).unwrap_or_else(|| panic!("no committed baseline for n = {n}"));
        assert!(
            (base - frozen).abs() < 0.5,
            "baseline column at n = {n} must be the frozen pre-optimization \
             level {frozen} ns, snapshot says {base} ns"
        );
        let speedup = base / fast;
        assert!(
            speedup >= 2.0,
            "committed snapshot must witness >= 2x at n = {n}, got {speedup:.2}x"
        );
    }

    // The stage breakdown must cover every instrumented stage at every
    // grid size so the profiler view stays complete.
    for stage in ROUND_STAGES {
        for n in [1_000usize, 10_000, 100_000] {
            assert!(
                parsed.stages.iter().any(|r| r.stage == stage && r.n == n),
                "missing stage row {stage} at n = {n}"
            );
        }
    }
    // Shares within one size must roughly cover the round (they are
    // measured on separate profiled runs, so allow generous slack).
    for n in [1_000usize, 10_000, 100_000] {
        let total: f64 = parsed.stages.iter().filter(|r| r.n == n).map(|r| r.share).sum();
        assert!(
            (0.5..=1.5).contains(&total),
            "stage shares at n = {n} should roughly sum to 1, got {total:.2}"
        );
    }
}

// ---- e9

#[test]
fn committed_e9_schema_parses_and_passes() {
    let json = committed("e9", "json");
    assert!(json.contains("\"experiment\": \"e9-chaos\""));
    for key in ["\"n\":", "\"trials_per_cell\":", "\"base_seed\":", "\"prob_threshold\":"] {
        assert!(json.contains(key), "header field {key} missing");
    }
    assert!(json.contains("\"zero_panics\": true"), "committed sweep must be panic-free");
    assert!(json.contains("\"all_pass\": true"), "committed sweep must pass every cell");

    for line in rows(&json, "target") {
        // Every cell carries the full schema and its own pass verdict.
        let class = field(line, "class");
        let missed: u64 = field(line, "missed").parse().unwrap();
        let panicked: u64 = field(line, "panicked").parse().unwrap();
        let rate: f64 = field(line, "rate").parse().unwrap();
        let threshold: f64 = field(line, "threshold").parse().unwrap();
        assert_eq!(field(line, "pass"), "true", "failing cell committed: {line}");
        assert_eq!(panicked, 0, "panicking cell committed: {line}");
        match class {
            "deterministic" => {
                assert_eq!(missed, 0, "deterministic class missed a corruption: {line}");
                assert!((rate - 1.0).abs() < 1e-9, "deterministic rate below 1.0: {line}");
            }
            "probabilistic" => {
                assert!(rate + 1e-9 >= threshold, "probabilistic rate under threshold: {line}");
            }
            other => panic!("unknown detection class {other:?}: {line}"),
        }
    }
}

#[test]
fn committed_e9_covers_the_full_supported_grid() {
    let json = committed("e9", "json");
    let cells: Vec<(String, String)> = rows(&json, "target")
        .into_iter()
        .map(|l| (field(l, "target").to_string(), field(l, "mutator").to_string()))
        .collect();
    assert!(!cells.is_empty(), "no cells in committed report");

    // Exactly the supported (target, mutator) pairs, each exactly once,
    // and every mutator class exercised somewhere.
    let mut expected = Vec::new();
    for &id in &TARGETS {
        let target = build_target(id, 8, 0);
        for kind in MUTATORS {
            if target.supports(kind) {
                expected.push((id.name().to_string(), kind.name().to_string()));
            }
        }
    }
    for pair in &expected {
        assert_eq!(
            cells.iter().filter(|c| *c == pair).count(),
            1,
            "cell {pair:?} missing or duplicated in committed report"
        );
    }
    assert_eq!(cells.len(), expected.len(), "committed report has unexpected extra cells");
    for kind in MUTATORS {
        assert!(
            cells.iter().any(|(_, m)| m == kind.name()),
            "mutator class {} absent from committed report",
            kind.name()
        );
    }
}

// ---- e10

#[test]
fn committed_e10_schema_parses_and_passes() {
    let json = committed("e10", "json");
    assert!(json.contains("\"experiment\": \"e10-trace\""));
    for key in ["\"sizes\":", "\"trials_per_cell\":", "\"base_seed\":"] {
        assert!(json.contains(key), "header field {key} missing");
    }
    assert!(json.contains("\"all_pass\": true"), "committed audit must pass");
    assert!(json.contains("\"audit_errors\": 0"), "committed audit must be error-free");

    for line in rows(&json, "family") {
        assert_eq!(field(line, "pass"), "true", "failing cell committed: {line}");
        let n: usize = field(line, "n").parse().unwrap();
        let family = FAMILIES
            .iter()
            .copied()
            .find(|f| f.name() == field(line, "family"))
            .unwrap_or_else(|| panic!("unknown family in: {line}"));
        let envelope: u64 = field(line, "envelope_bits").parse().unwrap();
        assert_eq!(
            envelope,
            envelope_bits(family, n) as u64,
            "cell envelope drifted from envelope_bits(): {line}"
        );
        let round_max = int_list(field(line, "round_max_bits"));
        let proof: u64 = field(line, "proof_size_bits").parse().unwrap();
        assert!(!round_max.is_empty(), "cell with no rounds: {line}");
        assert!(proof > 0, "cell with zero proof bits: {line}");
        for (i, &bits) in round_max.iter().enumerate() {
            assert!(
                bits <= envelope,
                "round {} max {} exceeds envelope {}: {line}",
                i + 1,
                bits,
                envelope
            );
        }
        assert_eq!(
            round_max.iter().copied().max().unwrap(),
            proof,
            "proof size must be the max over rounds: {line}"
        );
    }
}

#[test]
fn committed_e10_covers_the_full_grid() {
    let json = committed("e10", "json");
    let spec = TraceSpec::full();
    let cells: Vec<(String, usize)> = rows(&json, "family")
        .iter()
        .map(|l| (field(l, "family").to_string(), field(l, "n").parse().unwrap()))
        .collect();
    for &f in &FAMILIES {
        for &n in &spec.sizes {
            let pair = (f.name().to_string(), n);
            assert_eq!(
                cells.iter().filter(|c| **c == pair).count(),
                1,
                "cell {pair:?} missing or duplicated in committed report"
            );
        }
    }
    assert_eq!(cells.len(), FAMILIES.len() * spec.sizes.len(), "unexpected extra cells");
    for line in rows(&json, "family") {
        assert_eq!(
            field(line, "runs").parse::<u64>().unwrap(),
            spec.trials,
            "cell run count drifted from TraceSpec::full(): {line}"
        );
    }
}

/// Re-executes the committed grid's smallest cell (path-outerplanarity,
/// n = 64) with the exact per-job seeds of the full sweep and compares
/// the traced bits against the committed numbers.
#[test]
fn smallest_cell_replays_to_committed_bits() {
    let json = committed("e10", "json");
    let spec = TraceSpec::full();
    let sweep = spec.sweep();
    let n0 = *spec.sizes.iter().min().unwrap();
    let jobs: Vec<_> = sweep
        .expand()
        .into_iter()
        .filter(|j| j.coords.family == Family::PathOuterplanar && j.coords.n == n0)
        .collect();
    assert_eq!(jobs.len() as u64, spec.trials);

    let rec = CollectingRecorder::new();
    let mut scratch = WorkerScratch::new();
    let mut round_max = vec![0u64; 3];
    let mut proof = 0u64;
    let mut coins = 0u64;
    for job in &jobs {
        let r = execute_job(&sweep, job, &mut scratch, &rec).expect("job quarantined");
        assert!(r.accepted, "honest run rejected during replay");
        proof = proof.max(r.proof_size_bits as u64);
        coins = coins.max(r.coin_bits as u64);
    }
    let trace = rec.drain();
    for job in &jobs {
        for (i, slot) in round_max.iter_mut().enumerate() {
            let id = SpanId::at(Family::PathOuterplanar.name(), (i + 1) as u64);
            *slot = (*slot).max(trace.counter_total(job.coords.index, id, "round_max_bits"));
        }
    }

    let line = rows(&json, "family")
        .into_iter()
        .find(|l| {
            field(l, "family") == Family::PathOuterplanar.name() && field(l, "n") == n0.to_string()
        })
        .expect("smallest cell missing from committed report");
    assert_eq!(
        int_list(field(line, "round_max_bits")),
        round_max,
        "replayed round maxima diverge from committed artifact — regenerate with `pdip exp e10`"
    );
    assert_eq!(field(line, "proof_size_bits").parse::<u64>().unwrap(), proof);
    assert_eq!(field(line, "coin_bits").parse::<u64>().unwrap(), coins);
}

// ---- e11

#[test]
fn committed_e11_schema_parses_and_passes() {
    let json = committed("e11", "json");
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

    for line in rows(&json, "n") {
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
    let json = committed("e11", "json");
    let spec = ScaleSpec::full();
    let ns: Vec<usize> = rows(&json, "n").iter().map(|l| field(l, "n").parse().unwrap()).collect();
    assert_eq!(ns, spec.sizes, "row grid drifted from ScaleSpec::full()");
    assert!(
        ns.iter().copied().max().unwrap_or(0) >= 10_000_000,
        "the scaling claim requires at least a 10^7-node row"
    );
    // Shard size bounds the memory unit: every row must report shards of
    // (at most) the spec's target plus the generator's block slack.
    for line in rows(&json, "n") {
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
    let json = committed("e11", "json");
    let peaks: Vec<(u64, u64)> = rows(&json, "n")
        .iter()
        .map(|l| {
            let peak = field(l, "alloc_peak_bytes");
            assert_ne!(peak, "null", "untracked row in committed artifact: {l}");
            (field(l, "n").parse().unwrap(), peak.parse().unwrap())
        })
        .collect();
    let (n0, p0) = peaks[0];
    let (n1, p1) = *peaks.last().unwrap();
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
    let json = committed("e11", "json");
    let spec = ScaleSpec::full();
    let n0 = *spec.sizes.iter().min().unwrap();
    let line = rows(&json, "n")
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
        "replayed digest diverges from committed artifact — regenerate with `pdip exp e11`"
    );
    assert_eq!(field(line, "proof_size_bits").parse::<usize>().unwrap(), res.stats.proof_size());
    assert_eq!(field(line, "coin_bits").parse::<usize>().unwrap(), res.stats.coin_bits);
}

// ---- e13

#[test]
fn committed_e13_schema_parses_and_passes() {
    let json = committed("e13", "json");
    assert!(json.contains("\"experiment\": \"e13-serve-chaos\""));
    assert_eq!(field(section(&json, "seed"), "seed"), format!("{:#x}", E13_SEED));
    assert!(json.contains("\"passed\": true\n"), "committed audit must pass");
    assert_eq!(
        field(section(&json, "escaped_panics"), "escaped_panics"),
        "0",
        "a panic escaped a server thread in the committed run"
    );
}

#[test]
fn every_fault_class_cell_is_clean() {
    let json = committed("e13", "json");
    let cells = rows(&json, "class");
    let classes: Vec<&str> = cells.iter().map(|l| field(l, "class")).collect();
    assert_eq!(
        classes,
        vec![
            "mid-frame-disconnect",
            "truncated-frame",
            "garbage-interleaved",
            "stalled-writer",
            "oversized-length",
            "panic-blob",
            "busy-storm",
        ],
        "fault-class grid drifted"
    );
    // The four wire-level classes must account exactly one structured
    // connection fault per trial; the application-level classes
    // (garbage frames, panic payloads, busy storms) must cause none.
    let wire_fault_classes =
        ["mid-frame-disconnect", "truncated-frame", "stalled-writer", "oversized-length"];
    for line in cells {
        assert_eq!(field(line, "passed"), "true", "failing cell committed: {line}");
        let trials: u64 = field(line, "trials").parse().unwrap();
        assert!(trials >= 2, "degenerate cell (fewer than 2 trials): {line}");
        let conn_faults: u64 = field(line, "conn_faults").parse().unwrap();
        let class = field(line, "class");
        let want_faults = if wire_fault_classes.contains(&class) { trials } else { 0 };
        assert_eq!(
            conn_faults, want_faults,
            "fault accounting does not match the class contract: {line}"
        );
        assert_eq!(field(line, "expected"), trials.to_string(), "expected != trials: {line}");
        assert_eq!(
            field(line, "confirmed"),
            field(line, "expected"),
            "an attack trial went unconfirmed: {line}"
        );
        assert_eq!(
            field(line, "victim_clean"),
            field(line, "victim_requests"),
            "cross-connection damage: a victim saw a non-accept verdict: {line}"
        );
    }
}

#[test]
fn busy_storm_conserves_every_request() {
    let json = committed("e13", "json");
    let s = section(&json, "busy_storm");
    let submitted: u64 = field(s, "submitted").parse().unwrap();
    let queue_cap: u64 = field(s, "queue_cap").parse().unwrap();
    let busy: u64 = field(s, "busy").parse().unwrap();
    let verified: u64 = field(s, "verified").parse().unwrap();
    assert_eq!(busy + verified, submitted, "a storm request vanished unanswered");
    assert!(busy > 0, "the storm never overflowed the queue — not a backpressure test");
    assert!(verified >= queue_cap, "fewer verdicts than the queue could hold");
}

#[test]
fn drain_completed_every_accepted_request() {
    let json = committed("e13", "json");
    let s = section(&json, "drain");
    let requests: u64 = field(s, "requests").parse().unwrap();
    let completed: u64 = field(s, "completed").parse().unwrap();
    assert!(requests > 0, "degenerate drain probe");
    assert_eq!(completed, requests, "graceful drain lost an accepted request");
    assert_eq!(field(s, "stats_ok"), "true", "final stats frame missing or not drained=ok");
}

/// Replays the determinism probe at one worker thread against a live
/// server and compares the response-record digest with the committed
/// one. Any drift in the serve pipeline, the frame layer, the wire
/// codec, or the protocols shows up here as a digest mismatch.
#[test]
fn determinism_digest_replays_against_a_live_server() {
    let json = committed("e13", "json");
    let s = section(&json, "determinism");
    assert_eq!(field(s, "identical"), "true", "thread-variant responses committed");
    assert_eq!(field(s, "threads"), "[1, 4]", "determinism grid drifted");
    let requests: u64 = field(s, "requests").parse().unwrap();
    let (digest, replayed_requests) =
        determinism_probe(E13_SEED, 1).expect("determinism replay against a live server");
    assert_eq!(replayed_requests as u64, requests, "request mix drifted");
    assert_eq!(
        format!("{digest:016x}"),
        field(s, "digest"),
        "replayed digest diverges from committed artifact — regenerate with `pdip exp e13 --smoke`"
    );
}

#[test]
fn throughput_is_reported_and_positive() {
    // rps is wall-clock data: assert it parses and is positive, nothing
    // more. Byte-comparing it would make the artifact machine-dependent.
    let json = committed("e13", "json");
    let s = section(&json, "throughput");
    assert!(field(s, "requests").parse::<u64>().unwrap() > 0);
    assert!(field(s, "rps").parse::<f64>().unwrap() > 0.0, "zero measured throughput");
}

// ---- e14

#[test]
fn committed_e14_schema_parses_and_passes() {
    let json = committed("e14", "json");
    assert!(json.contains("\"experiment\": \"e14-obs-audit\""));
    assert_eq!(field(section(&json, "seed"), "seed"), format!("{E14_SEED:#x}"));
    assert!(json.contains("\"passed\": true\n"), "committed audit must pass");
    let m = section(&json, "metrics");
    for flag in ["deterministic", "monotone", "conserved", "stats_frame_ok"] {
        assert_eq!(field(m, flag), "true", "metrics law {flag:?} failed in the committed run");
    }
}

#[test]
fn every_fault_class_is_exactly_attributed() {
    let json = committed("e14", "json");
    let trials: u64 = field(section(&json, "fault_trials"), "fault_trials").parse().unwrap();
    assert!(trials >= 2, "degenerate audit (fewer than 2 trials per class)");
    let lines = rows(&json, "class");
    let classes: Vec<&str> = lines.iter().map(|l| field(l, "class")).collect();
    assert_eq!(
        classes,
        vec![
            "truncated-frame",
            "oversized-frame",
            "idle-timeout",
            "read-stall",
            "peer-reset",
            "io-error",
        ],
        "fault-class table drifted from pdip_wire::frame::fault::ALL"
    );
    // Injection contract: per trial, one truncated frame AND one
    // mid-frame disconnect (both classify as truncated-frame), one
    // oversized declaration, one read stall. No other class may fire —
    // a nonzero io-error or peer-reset count means the registry
    // misattributed a fault.
    for line in lines {
        let class = field(line, "class");
        let expected: u64 = field(line, "expected").parse().unwrap();
        let observed: u64 = field(line, "observed").parse().unwrap();
        let want = match class {
            "truncated-frame" => 2 * trials,
            "oversized-frame" | "read-stall" => trials,
            _ => 0,
        };
        assert_eq!(expected, want, "injection contract drifted: {line}");
        assert_eq!(observed, expected, "fault counter misattributed a fault: {line}");
    }
}

#[test]
fn panics_busy_and_flight_conserve() {
    let json = committed("e14", "json");
    let trials: u64 = field(section(&json, "fault_trials"), "fault_trials").parse().unwrap();
    let p = section(&json, "panics");
    assert_eq!(field(p, "expected"), trials.to_string(), "panic trial count drifted");
    assert_eq!(field(p, "observed"), field(p, "expected"), "a worker panic went uncounted");
    let b = section(&json, "busy");
    let busy_expected: u64 = field(b, "expected").parse().unwrap();
    let busy_observed: u64 = field(b, "observed").parse().unwrap();
    let busy_verified: u64 = field(b, "verified").parse().unwrap();
    assert_eq!(busy_expected, 8 * trials, "busy-storm sizing drifted");
    assert_eq!(busy_observed, busy_expected, "a busy rejection went uncounted");
    assert_eq!(busy_verified, 4 * trials, "a gated storm request was never verified");
    let f = section(&json, "flight");
    assert!(field(f, "events").parse::<u64>().unwrap() > 0, "empty flight ring committed");
    assert_eq!(field(f, "replay_ok"), "true", "flight ring does not replay the fault sequence");
}

#[test]
fn verdict_counters_conserve_every_request() {
    let json = committed("e14", "json");
    let v = section(&json, "verdicts");
    let requests: u64 = field(v, "requests").parse().unwrap();
    let accepted: u64 = field(v, "accepted").parse().unwrap();
    let rejected: u64 = field(v, "rejected").parse().unwrap();
    let malformed: u64 = field(v, "malformed").parse().unwrap();
    assert!(requests >= 100, "degenerate probe mix (fewer than 100 requests)");
    assert_eq!(accepted + rejected + malformed, requests, "a request vanished from the counters");
    assert!(field(v, "proof_bits").parse::<u64>().unwrap() > 0, "no proof bits accounted");
}

/// Replays the metrics probe at one worker thread against a live
/// server with a fresh registry and compares the deterministic-render
/// digest with the committed one. Any drift in the serve pipeline, the
/// recorder wiring, the histogram layout, or the counter names shows
/// up here as a digest mismatch.
#[test]
fn metrics_digest_replays_against_a_live_server() {
    let json = committed("e14", "json");
    let v = section(&json, "verdicts");
    let requests: u64 = field(v, "requests").parse().unwrap();
    let probe =
        metrics_determinism_probe(E14_SEED, 1).expect("metrics replay against a live server");
    assert_eq!(probe.failures, Vec::<String>::new(), "replay violated a conservation law");
    assert_eq!(probe.requests as u64, requests, "request mix drifted");
    assert_eq!(
        format!("{:016x}", probe.digest),
        field(section(&json, "metrics"), "digest"),
        "replayed digest diverges from committed artifact — regenerate with `pdip exp e14 --smoke`"
    );
}

#[test]
fn timing_is_reported_and_positive() {
    // rps and mean_verify_ns are wall-clock data: assert they parse and
    // are positive, nothing more. Byte-comparing them would make the
    // artifact machine-dependent.
    let json = committed("e14", "json");
    let t = section(&json, "timing");
    assert!(field(t, "rps").parse::<f64>().unwrap() > 0.0, "zero measured throughput");
    assert!(field(t, "mean_verify_ns").parse::<u64>().unwrap() > 0, "zero verify latency");
}
