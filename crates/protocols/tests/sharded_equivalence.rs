//! Properties of the sharded (block-cut-tree) verifier on small graphs:
//!
//! 1. **Ground truth factorizes.** On arbitrary connected graphs of at
//!    most 12 nodes, "every block is planar" equals the monolithic LR
//!    planarity verdict — the theorem the shard plan rests on, checked
//!    deterministically.
//! 2. **Completeness agrees.** On witness-carrying planar instances the
//!    honest monolithic run and the honest sharded run both accept, and
//!    the sharded result is byte-identical at shard-group counts
//!    {1, 2, 4} — for the honest prover *and every cheat prover*.
//! 3. **Soundness agrees.** On nonplanar instances (K5 / K3,3 core plus a
//!    pendant path, so the decomposition is nontrivial) both paths reject
//!    within a small seed budget (per-seed detection is probabilistic by
//!    design), and the sharded result stays group-count-invariant at
//!    every seed.
//!
//! Verdict-per-seed equality between the monolithic and sharded paths is
//! deliberately *not* asserted for cheat provers: the two paths run
//! different protocol compositions over different coin streams, so only
//! ground-truth agreement (1) and within-path byte-identity (2, 3) are
//! deterministic facts.

use pdip_core::RunResult;
use pdip_graph::gen::planar::random_planar;
use pdip_graph::Graph;
use pdip_obs::NoopRecorder;
use pdip_protocols::lr_sorting::Transport;
use pdip_protocols::path_outerplanar::PopParams;
use pdip_protocols::planarity::{PlInstance, Planarity, PL_CHEATS};
use pdip_protocols::sharded::ShardPlan;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const GROUPS: [usize; 3] = [1, 2, 4];

fn assert_same_result(a: &RunResult, b: &RunResult, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.verdict, b.verdict, "{}: verdict", what);
    prop_assert_eq!(&a.rejections, &b.rejections, "{}: rejections", what);
    prop_assert_eq!(&a.kinds, &b.kinds, "{}: kinds", what);
    prop_assert_eq!(&a.stats, &b.stats, "{}: stats", what);
    Ok(())
}

/// A connected graph on `n <= 12` nodes: a random tree (parent codes)
/// plus extra edges (pair codes), dedup'd, no self-loops.
fn small_connected(n: usize, parents: &[u8], extras: &[u8]) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(v, parents[v - 1] as usize % v);
    }
    for &code in extras {
        let a = code as usize % n;
        let b = (code as usize / 12) % n;
        if a != b && !g.has_edge(a, b) {
            g.add_edge(a, b);
        }
    }
    g
}

/// A nonplanar graph on `n <= 12` nodes: a K5 or K3,3 core plus a pendant
/// path, so the block-cut tree has a bad block *and* trivial bridge
/// blocks.
fn nonplanar_with_tail(use_k5: bool, n: usize) -> Graph {
    let core = if use_k5 { 5 } else { 6 };
    let n = n.max(core + 1);
    let mut g = Graph::new(n);
    if use_k5 {
        for u in 0..5 {
            for v in u + 1..5 {
                g.add_edge(u, v);
            }
        }
    } else {
        for u in 0..3 {
            for v in 3..6 {
                g.add_edge(u, v);
            }
        }
    }
    for v in core..n {
        g.add_edge(v - if v == core { core } else { 1 }, v);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: planarity of G equals planarity of every block.
    #[test]
    fn block_planarity_factorizes(
        n in 2usize..=12,
        parents in prop::collection::vec(0u8..12, 11..12),
        extras in prop::collection::vec(0u8..144, 0..10),
    ) {
        let g = small_connected(n, &parents, &extras);
        let monolithic = pdip_graph::is_planar(&g);
        let inst = PlInstance { graph: g, witness_rho: None, is_yes: monolithic };
        let plan = ShardPlan::decompose(&inst);
        prop_assert_eq!(plan.all_blocks_planar(), monolithic);
    }

    /// Property 2: honest completeness on both paths, and sharded
    /// byte-identity at group counts {1,2,4} for honest and every cheat.
    #[test]
    fn planar_instances_agree_across_paths_and_groupings(
        n in 4usize..=12,
        keep in 0.3f64..0.9,
        gen_seed in 0u64..1 << 48,
        run_seed in 0u64..1 << 48,
    ) {
        let mut rng = SmallRng::seed_from_u64(gen_seed);
        let gen = random_planar(n, keep, &mut rng);
        let inst = PlInstance { graph: gen.graph, witness_rho: Some(gen.rho), is_yes: true };
        let params = PopParams::default();

        let mono = Planarity::new(&inst, params, Transport::Native);
        let mono = mono.run(None, run_seed, &NoopRecorder);
        prop_assert!(mono.accepted(), "monolithic completeness: {:?}", mono.rejections.first());

        let plan = ShardPlan::decompose(&inst);
        prop_assert!(plan.all_blocks_planar());
        let base = plan.run_grouped(1, 1, params, Transport::Native, None, run_seed);
        prop_assert!(base.accepted(), "sharded completeness: {:?}", base.rejections.first());
        for groups in GROUPS {
            let r = plan.run_grouped(groups, 2, params, Transport::Native, None, run_seed);
            assert_same_result(&r, &base, &format!("honest, groups={groups}"))?;
        }
        for cheat in PL_CHEATS {
            let base = plan.run_grouped(1, 1, params, Transport::Native, Some(cheat), run_seed);
            for groups in GROUPS {
                let r =
                    plan.run_grouped(groups, 2, params, Transport::Native, Some(cheat), run_seed);
                assert_same_result(&r, &base, &format!("{cheat:?}, groups={groups}"))?;
            }
        }
    }

    /// Property 3: both paths reject nonplanar instances within the seed
    /// budget, and the sharded path stays group-invariant per seed.
    #[test]
    fn nonplanar_instances_rejected_by_both_paths(
        k5 in 0u8..2,
        n in 6usize..=12,
        seed0 in 0u64..1 << 48,
    ) {
        let g = nonplanar_with_tail(k5 == 0, n);
        prop_assert!(!pdip_graph::is_planar(&g));
        let inst = PlInstance { graph: g, witness_rho: None, is_yes: false };
        let params = PopParams::default();
        let plan = ShardPlan::decompose(&inst);
        prop_assert!(!plan.all_blocks_planar());

        let mut mono_rejected = false;
        let mut shard_rejected = false;
        for k in 0..8u64 {
            let seed = seed0.wrapping_add(k);
            if !mono_rejected {
                let mono = Planarity::new(&inst, params, Transport::Native);
                mono_rejected = !mono.run(None, seed, &NoopRecorder).accepted();
            }
            let base = plan.run_grouped(1, 1, params, Transport::Native, None, seed);
            for groups in GROUPS {
                let r = plan.run_grouped(groups, 2, params, Transport::Native, None, seed);
                assert_same_result(&r, &base, &format!("nonplanar seed {seed}, groups={groups}"))?;
            }
            shard_rejected |= !base.accepted();
            if mono_rejected && shard_rejected {
                break;
            }
        }
        prop_assert!(mono_rejected, "monolithic never rejected in 8 seeds");
        prop_assert!(shard_rejected, "sharded never rejected in 8 seeds");
    }
}
