//! Property-based tests (proptest) over the substrate and the protocols'
//! core invariants.

use pdip_obs::NoopRecorder;
use planarity_dip::dip::Rejections;
use planarity_dip::field::{multiset_poly_eval, smallest_prime_above, Fp};
use planarity_dip::graph::gen;
use planarity_dip::graph::{
    degeneracy_ordering, is_outerplanar, is_planar, is_properly_nested, Graph, RootedForest,
};
use planarity_dip::protocols::{decode_children, decode_parent, ForestCode, MultisetEq};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated planar instances always pass the left-right test, and
    /// their embeddings are valid; adding an edge to a triangulation makes
    /// it non-planar.
    #[test]
    fn planarity_test_vs_generators(seed in 0u64..10_000, n in 4usize..60) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let inst = gen::planar::random_triangulation(n, &mut rng);
        prop_assert!(is_planar(&inst.graph));
        prop_assert!(inst.rho.is_planar_embedding(&inst.graph));
        // A maximal planar graph plus any missing edge is non-planar.
        let mut g = inst.graph.clone();
        let mut found = None;
        'outer: for u in 0..n {
            for v in (u + 1)..n {
                if !g.has_edge(u, v) {
                    found = Some((u, v));
                    break 'outer;
                }
            }
        }
        if let Some((u, v)) = found {
            g.add_edge(u, v);
            prop_assert!(!is_planar(&g));
        }
    }

    /// Outerplanar generators produce outerplanar graphs; planar
    /// generators stay planar under random edge deletion (minor-closed).
    #[test]
    fn generator_families_are_sound(seed in 0u64..10_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let o = gen::outerplanar::random_outerplanar(24, 4, 0.5, &mut rng);
        prop_assert!(is_outerplanar(&o.graph));
        let p = gen::planar::random_planar(24, 0.5, &mut rng);
        prop_assert!(is_planar(&p.graph));
    }

    /// Forest-code round trip on arbitrary spanning trees of random
    /// planar graphs.
    #[test]
    fn forest_code_roundtrip(seed in 0u64..10_000, root in 0usize..20) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let inst = gen::planar::random_planar(20, 0.6, &mut rng);
        let root = root % inst.graph.n();
        let f = RootedForest::bfs_spanning_tree(&inst.graph, root);
        let code = ForestCode::encode(&inst.graph, &f);
        for v in 0..inst.graph.n() {
            prop_assert_eq!(decode_parent(&inst.graph, &code.labels, v), f.parent(v));
            let mut dec = decode_children(&inst.graph, &code.labels, v);
            let mut want = f.children(v).to_vec();
            dec.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(dec, want);
        }
    }

    /// Multiset-equality: equal multisets always accepted; one changed
    /// element rejected except with probability deg/p.
    #[test]
    fn multiset_equality_invariants(
        elems in prop::collection::vec(0u64..1000, 1..20),
        z in 0u64..65_521,
        delta in 1u64..999,
    ) {
        let f = Fp::new(smallest_prime_above(1 << 16));
        let ms = MultisetEq::new(f);
        let k = elems.len();
        let parent: Vec<Option<usize>> =
            (0..k).map(|i| if i == 0 { None } else { Some(i - 1) }).collect();
        // S1 = per-node singleton; S2 = everything at the root.
        let msgs = ms.honest_response(
            &parent,
            |i| &elems[i..=i],
            |i| if i == 0 { elems.as_slice() } else { &[] },
            z % f.modulus(),
        );
        let mut rej = Rejections::new();
        for i in 0..k {
            let children: Vec<usize> = if i + 1 < k { vec![i + 1] } else { vec![] };
            let s2 = if i == 0 { elems.clone() } else { vec![] };
            ms.check(i, i, parent[i], &children, &[elems[i]], &s2, &msgs,
                     if i == 0 { Some(z % f.modulus()) } else { None }, &mut rej);
        }
        prop_assert!(!rej.any(), "equal multisets rejected");
        // Perturb one element: the root totals almost surely differ.
        let mut perturbed = elems.clone();
        perturbed[0] = (perturbed[0] + delta) % 1000;
        if multiset_poly_eval(&f, perturbed.iter().copied(), z % f.modulus())
            != multiset_poly_eval(&f, elems.iter().copied(), z % f.modulus())
        {
            // The polynomials disagree at z, so an honest aggregation of the
            // perturbed S1 against the original S2 must be caught.
            let msgs2 = ms.honest_response(
                &parent,
                |i| &perturbed[i..=i],
                |i| if i == 0 { elems.as_slice() } else { &[] },
                z % f.modulus(),
            );
            let mut rej2 = Rejections::new();
            for i in 0..k {
                let children: Vec<usize> = if i + 1 < k { vec![i + 1] } else { vec![] };
                let s2 = if i == 0 { elems.clone() } else { vec![] };
                ms.check(i, i, parent[i], &children, &[perturbed[i]], &s2, &msgs2,
                         if i == 0 { Some(z % f.modulus()) } else { None }, &mut rej2);
            }
            prop_assert!(rej2.any(), "unequal multisets accepted at a separating point");
        }
    }

    /// Degeneracy ordering really is a degeneracy ordering: every node has
    /// at most `d` later neighbors.
    #[test]
    fn degeneracy_ordering_invariant(seed in 0u64..10_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let inst = gen::planar::random_planar(30, 0.8, &mut rng);
        let (order, d) = degeneracy_ordering(&inst.graph);
        prop_assert!(d <= 5, "planar degeneracy is at most 5, got {d}");
        let mut rank = vec![0usize; 30];
        for (i, &v) in order.iter().enumerate() {
            rank[v] = i;
        }
        for v in 0..30 {
            let later = inst.graph.neighbor_nodes(v).filter(|&u| rank[u] > rank[v]).count();
            prop_assert!(later <= d);
        }
    }

    /// Laminar arc families never cross, for any parameters.
    #[test]
    fn laminar_arcs_never_cross(seed in 0u64..10_000, n in 4usize..80, density in 0.0f64..1.0) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut arcs = Vec::new();
        gen::laminar_arcs(0, n - 1, density, &mut rng, &mut arcs);
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        for (a, b) in arcs {
            if !g.has_edge(a, b) {
                g.add_edge(a, b);
            }
        }
        let path: Vec<usize> = (0..n).collect();
        prop_assert!(is_properly_nested(&g, &path));
    }

    /// LR-sorting completeness over random instance shapes.
    #[test]
    fn lr_sorting_randomized_completeness(seed in 0u64..5_000, n in 2usize..120) {
        use planarity_dip::protocols::{LrParams, LrSorting, Transport};
        let mut rng = SmallRng::seed_from_u64(seed);
        let inst = gen::lr::random_lr_yes(n, n / 3 + 1, true, &mut rng);
        let lr = LrSorting::new(&inst, LrParams::default(), Transport::Native);
        let res = lr.run(None, seed ^ 0xABCD, &NoopRecorder);
        prop_assert!(res.accepted(), "{:?}", res.rejections.first());
    }
}
