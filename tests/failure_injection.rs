//! Failure injection: every kind of transcript corruption the runtime can
//! express must be caught by the verifiers.
//!
//! The corruption machinery lives in `pdip_engine::chaos`: a seeded
//! [`Mutator`] stream drives one of seven [`MutatorKind`]s against a
//! [`Tamperable`] target (a sub-protocol primitive or one of the six
//! derived Theorem 1.2–1.7 protocols), and the corrupted run is
//! classified as detected / miss / unchanged. These tests route the
//! hand-written corruptions of earlier revisions through that single API
//! — same coverage, one setup — and extend it to every derived protocol.
//! Deterministic corruption classes must be caught on every seed;
//! probabilistic ones within the soundness budget ε.
//!
//! A couple of corruptions the chaos taxonomy does not model (nesting
//! label omissions, LR no-instances with orientation flips) keep their
//! direct tests at the bottom.

use pdip_engine::chaos::{
    build_target, Determinism, MutatorKind, TamperOutcome, TargetId, MUTATORS,
};
use pdip_obs::NoopRecorder;
use planarity_dip::dip::{LabelRound, Rejections, Tag};
use planarity_dip::graph::gen;
use planarity_dip::protocols::nesting::{self, NestingLabels};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs every supported mutator kind on `id` over `seeds`, asserting the
/// deterministic contract (no soundness miss on any seed) for
/// deterministic kinds and returning `(detected, missed)` totals over the
/// probabilistic ones.
fn sweep_target(id: TargetId, n: usize, seeds: std::ops::Range<u64>) -> (u64, u64) {
    let target = build_target(id, n, 0xFA11);
    let (mut detected, mut missed) = (0u64, 0u64);
    let mut effective = 0u64;
    for kind in MUTATORS {
        if !target.supports(kind) {
            continue;
        }
        for seed in seeds.clone() {
            match target.run_mutated(kind, seed) {
                TamperOutcome::Detected { .. } => {
                    effective += 1;
                    if target.determinism(kind) == Determinism::Probabilistic {
                        detected += 1;
                    }
                }
                TamperOutcome::Miss => {
                    effective += 1;
                    assert_ne!(
                        target.determinism(kind),
                        Determinism::Deterministic,
                        "{}: deterministic kind {} missed on seed {seed}",
                        target.target_name(),
                        kind.name(),
                    );
                    missed += 1;
                }
                TamperOutcome::Unchanged => {}
            }
        }
    }
    assert!(effective > 0, "{}: every mutation was a semantic no-op", target.target_name());
    (detected, missed)
}

/// Forest-code corruptions (color flips, label swaps, truncation,
/// re-rooting, out-of-range colors, parity off-by-ones) all break at
/// least one decode — coin-independent, so every seed must catch them.
#[test]
fn forest_code_corruptions_detected() {
    sweep_target(TargetId::ForestCode, 30, 0..8);
}

/// The spanning-tree verifier catches structural corruptions (truncated
/// subtrees, swapped residues, fake roots) deterministically and stale
/// coins within ε.
#[test]
fn spanning_tree_corruptions_detected() {
    let (detected, missed) = sweep_target(TargetId::SpanningTree, 24, 0..12);
    // StaleCoins is the only probabilistic kind here: a replayed
    // transcript survives only if the fresh prime draw collides.
    assert!(
        detected >= 3 * (detected + missed) / 4,
        "stale-coin replays slipped past too often: {detected} detected, {missed} missed"
    );
}

/// Multiset equality rejects zeroed aggregates, swapped partials, stale
/// challenges and off-by-one sums on every seed.
#[test]
fn multiset_equality_tampering_detected() {
    sweep_target(TargetId::MultisetEq, 16, 0..8);
}

/// The LR-sorting core (§3–5) catches transcript corruptions within its
/// soundness budget and never panics on any of them.
#[test]
fn lr_sorting_corruptions_detected_within_budget() {
    let (detected, missed) = sweep_target(TargetId::LrSorting, 32, 0..8);
    assert!(
        2 * detected >= detected + missed,
        "LR corruption detection below 1/2: {detected} detected, {missed} missed"
    );
}

/// Every one of the six derived protocols (Theorems 1.2–1.7) rejects its
/// supported corruptions: witness-path tampering for path-outerplanarity,
/// added chords / rewired edges for the hereditary families, rotation
/// tampering for the embedding-based protocols. Deterministic classes
/// never miss; probabilistic ones stay within budget in aggregate.
#[test]
fn all_derived_protocols_reject_corruptions() {
    let derived = [
        TargetId::PathOuterplanar,
        TargetId::Outerplanar,
        TargetId::EmbeddedPlanarity,
        TargetId::Planarity,
        TargetId::SeriesParallel,
        TargetId::Treewidth2,
    ];
    let (mut detected, mut missed) = (0u64, 0u64);
    for id in derived {
        let (d, m) = sweep_target(id, 32, 0..4);
        detected += d;
        missed += m;
    }
    assert!(
        detected >= 3 * (detected + missed) / 5,
        "derived-protocol detection below 3/5: {detected} detected, {missed} missed"
    );
}

/// The taxonomy itself: every target supports at least one kind, and no
/// target panics on an unsupported kind either (the harness skips them,
/// but direct calls must still be safe to classify).
#[test]
fn every_target_names_its_surface() {
    for id in [TargetId::ForestCode, TargetId::SpanningTree, TargetId::MultisetEq] {
        let t = build_target(id, 16, 7);
        assert!(MUTATORS.iter().any(|&k| t.supports(k)));
        assert_eq!(TargetId::from_name(t.target_name()), Some(id));
    }
    assert_eq!(MutatorKind::from_name("stale-coins"), Some(MutatorKind::StaleCoins));
}

/// Nesting labels: dropping a gap label, blanking `above`, or unmarking
/// the longest arc must each be rejected. (Not modelled by the chaos
/// taxonomy — nesting labels are checked inside the LR round structure.)
#[test]
fn nesting_label_omissions_detected() {
    let mut rng = SmallRng::seed_from_u64(404);
    let inst = gen::outerplanar::random_path_outerplanar(40, 0.8, &mut rng);
    let g = &inst.graph;
    let n = g.n();
    let mut positions = vec![0usize; n];
    for (i, &v) in inst.path.iter().enumerate() {
        positions[v] = i;
    }
    let mut is_path_edge = vec![false; g.m()];
    for w in inst.path.windows(2) {
        is_path_edge[g.edge_between(w[0], w[1]).unwrap()] = true;
    }
    let tags: Vec<Tag> = (0..n).map(|_| Tag::random(20, &mut rng)).collect();
    let honest = nesting::sweep_assign(g, &positions, &inst.path, &is_path_edge, &tags);
    let run = |labels: &NestingLabels| {
        let mut rej = Rejections::new();
        for v in 0..n {
            let p = positions[v];
            let left = (p > 0).then(|| inst.path[p - 1]);
            let right = (p + 1 < n).then(|| inst.path[p + 1]);
            let is_left = |e: usize| positions[g.edge(e).other(v)] < p;
            nesting::check_node(
                g,
                v,
                left,
                right,
                &is_path_edge,
                &is_left,
                &tags,
                labels,
                &mut rej,
            );
        }
        rej.any()
    };
    assert!(!run(&honest));
    // Drop a gap label.
    let pe = (0..g.m()).find(|&e| is_path_edge[e]).unwrap();
    let mut t1 = honest.clone();
    t1.gaps[pe] = None;
    assert!(run(&t1), "missing gap label must reject");
    // Unmark a longest arc (if the instance has one).
    if let Some(arc) = (0..g.m()).find(|&e| !is_path_edge[e]) {
        let mut t2 = honest.clone();
        if let Some(l) = t2.arcs[arc].as_mut() {
            l.longest_right_of_tail = false;
            l.longest_left_of_head = false;
        }
        assert!(run(&t2), "fully unmarked arc must reject");
    }
}

/// Generic label-swap tampering through the LabelRound helper.
#[test]
fn label_round_swaps_are_visible() {
    let round = LabelRound::new(vec![10u32, 20, 30], |&x| x as usize);
    let mut tampered = round.clone();
    tampered.swap(0, 2);
    assert_eq!(*tampered.label(0), 30);
    assert_eq!(tampered.bits(0), 30);
    assert_eq!(round.max_bits(), tampered.max_bits());
}

/// End-to-end: random bit-level corruption of the committed path's labels
/// in the full Theorem 1.2 protocol is caught across seeds. (Chaos
/// targets corrupt honest yes-instance transcripts; this one drives the
/// cheating prover on genuine no-instances instead.)
#[test]
fn full_protocol_rejects_random_orientation_flips() {
    use planarity_dip::protocols::{LrCheat, LrParams, LrSorting, Transport};
    use rand::Rng;
    let mut rng = SmallRng::seed_from_u64(406);
    let mut rejected = 0;
    let trials = 30;
    for t in 0..trials {
        let Some(no) = gen::lr::random_lr_no(60, 30, true, 1 + (t % 3) as usize, &mut rng) else {
            rejected += 1; // flips cancelled: nothing to test
            continue;
        };
        let lr = LrSorting::new(&no, LrParams::default(), Transport::Native);
        let cheat = [LrCheat::ClaimInner, LrCheat::OuterTrueIndex, LrCheat::OuterForgedIndex]
            [rng.gen_range(0..3)];
        if !lr.run(Some(cheat), t as u64, &NoopRecorder).accepted() {
            rejected += 1;
        }
    }
    assert!(rejected >= trials - 2, "rejected only {rejected}/{trials}");
}
