//! Shard-by-block-cut-tree verification of the planarity protocol.
//!
//! A graph is planar iff every biconnected component ("block") is planar:
//! blocks meet in at most one (cut) node, and one-point unions of planar
//! embeddings glue into a planar embedding of the whole graph. The
//! [`ShardPlan`] exploits this to verify a multi-million-node instance
//! without ever holding more than one block's protocol state: each block
//! becomes an independent [`Planarity`] run on its own small instance, and
//! the [`ShardCombiner`] folds the per-block results back into one
//! [`RunResult`] — AND of verdicts, rejections absorbed in block order
//! with node ids mapped back to the global graph, per-round proof-size
//! maxima merged with [`SizeStats::merge_shard_max`].
//!
//! Determinism contract: the combined result depends only on the instance,
//! the cheat, and the base seed — never on how blocks are grouped into
//! jobs or how many threads run them. Per-block seeds are keyed by block
//! index ([`job_seed`]), groups are contiguous block ranges on the
//! worker-count-independent chunk grid, and partial combiners are absorbed
//! in chunk order, so `run_grouped(groups, workers, ..)` is byte-identical
//! for every choice of `groups` and `workers` (property-tested in
//! `tests/sharded_equivalence.rs`).

use crate::lr_sorting::Transport;
use crate::path_outerplanar::PopParams;
use crate::planarity::{PlCheat, PlInstance, Planarity};
use pdip_core::par::{chunk_ranges, map_chunks_with};
use pdip_core::{Rejections, RunResult, SizeStats};
use pdip_graph::seed::job_seed;
use pdip_graph::{BiconnectedComponents, EdgeId, Graph, NodeId, RotationSystem};
use pdip_obs::NoopRecorder;

/// One block of the decomposition, as a self-contained planarity instance
/// with the bookkeeping to map local ids back to the global graph.
#[derive(Debug, Clone)]
pub struct BlockShard {
    /// Position in the plan's block order.
    pub index: usize,
    /// Ascending global node ids; local node `v` is `globals[v]`.
    pub globals: Vec<NodeId>,
    /// Ascending global edge ids; local edge `e` is `edges[e]`.
    pub edges: Vec<EdgeId>,
    /// The block as an instance (local ids), with the witness embedding
    /// restricted from the global one when it exists.
    pub inst: PlInstance,
}

/// The sharded verification plan: one [`BlockShard`] per biconnected
/// component, in decomposition order.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// The shards, in block order.
    pub shards: Vec<BlockShard>,
}

impl ShardPlan {
    /// Decomposes an instance along its block–cut tree.
    ///
    /// Each biconnected component becomes an independent local instance:
    /// nodes relabeled by rank among the block's (ascending) global node
    /// ids, edges added in ascending global edge id order (so local edge
    /// ids are ranks too), and the witness embedding — when the instance
    /// carries one — restricted by filtering each node's rotation to the
    /// block's edges (a sub-rotation of a genus-0 system on a connected
    /// subgraph is genus-0). Per-block ground truth is re-derived with the
    /// LR planarity test, never trusted from the witness.
    ///
    /// An edgeless instance yields a single shard holding the instance
    /// unchanged.
    pub fn decompose(inst: &PlInstance) -> Self {
        let g = &inst.graph;
        if g.m() == 0 {
            let shard = BlockShard {
                index: 0,
                globals: (0..g.n()).collect(),
                edges: Vec::new(),
                inst: inst.clone(),
            };
            return ShardPlan { shards: vec![shard] };
        }
        let bcc = BiconnectedComponents::compute(g);
        let mut shards = Vec::with_capacity(bcc.count());
        for c in 0..bcc.count() {
            let globals = bcc.component_nodes(g, c);
            let mut edges = bcc.components[c].clone();
            edges.sort_unstable();
            let local_of = |v: NodeId| -> NodeId {
                globals.binary_search(&v).unwrap_or_else(|_| unreachable!("node not in block"))
            };
            let mut local = Graph::new(globals.len());
            for &e in &edges {
                let edge = g.edge(e);
                local.add_edge(local_of(edge.u), local_of(edge.v));
            }
            let witness_rho = inst.witness_rho.as_ref().map(|rho| {
                let order = globals
                    .iter()
                    .map(|&v| {
                        rho.order_at(v)
                            .iter()
                            .filter_map(|ge| edges.binary_search(ge).ok())
                            .collect()
                    })
                    .collect();
                RotationSystem::from_orders(&local, order)
            });
            let is_yes = pdip_graph::is_planar(&local);
            shards.push(BlockShard {
                index: c,
                globals,
                edges,
                inst: PlInstance { graph: local, witness_rho, is_yes },
            });
        }
        ShardPlan { shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Nodes of the largest shard — the memory high-water mark of a
    /// streamed verification is proportional to this, not to `n`.
    pub fn max_shard_n(&self) -> usize {
        self.shards.iter().map(|s| s.inst.graph.n()).max().unwrap_or(0)
    }

    /// Whether every block is planar (the decomposed ground truth).
    pub fn all_blocks_planar(&self) -> bool {
        self.shards.iter().all(|s| s.inst.is_yes)
    }

    /// Runs every block serially in block order and combines.
    /// Equivalent to `run_grouped(1, 1, ..)`.
    pub fn run(
        &self,
        params: PopParams,
        transport: Transport,
        cheat: Option<PlCheat>,
        seed: u64,
    ) -> RunResult {
        self.run_grouped(1, 1, params, transport, cheat, seed)
    }

    /// Runs the blocks grouped into (at most) `groups` contiguous jobs on
    /// (at most) `workers` threads, and combines the per-block results.
    ///
    /// The output is byte-identical for every `(groups, workers)` choice:
    /// block `i` always runs with seed `job_seed(seed, i)`, groups are
    /// cut on the deterministic chunk grid, and the per-group partial
    /// combiners are folded in group order.
    pub fn run_grouped(
        &self,
        groups: usize,
        workers: usize,
        params: PopParams,
        transport: Transport,
        cheat: Option<PlCheat>,
        seed: u64,
    ) -> RunResult {
        let k = self.shards.len();
        let grain = k.div_ceil(groups.max(1)).max(1);
        debug_assert_eq!(chunk_ranges(k, grain).count(), k.div_ceil(grain));
        let partials = map_chunks_with(
            workers,
            k,
            grain,
            || (),
            |(), range| {
                let mut part = ShardCombiner::new();
                for i in range {
                    let shard = &self.shards[i];
                    let p = Planarity::new(&shard.inst, params, transport);
                    let res = p.run(cheat, job_seed(seed, i as u64), &NoopRecorder);
                    part.absorb_block(|v| shard.globals[v], res);
                }
                part
            },
        );
        let mut combined = ShardCombiner::new();
        for part in partials {
            combined.absorb_partial(part);
        }
        combined.finish()
    }
}

/// Folds per-block [`RunResult`]s into the global one.
///
/// Also usable standalone (the streaming E11 driver feeds it block
/// results without ever building a [`ShardPlan`]): absorb blocks in block
/// order, or absorb per-chunk partial combiners in chunk order — both
/// reproduce the serial fold byte for byte, because
/// [`Rejections::absorb`] replays entries through the serial collector
/// and [`SizeStats::merge_shard_max`] is order-insensitive.
#[derive(Debug, Default)]
pub struct ShardCombiner {
    rej: Rejections,
    stats: SizeStats,
    blocks: usize,
}

impl ShardCombiner {
    /// An empty combiner (accepting, zero stats).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of block results absorbed so far (via either absorb path).
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Absorbs one block's result; `to_global` maps the block-local node
    /// ids in its rejections back to the global graph.
    pub fn absorb_block(&mut self, to_global: impl Fn(NodeId) -> NodeId, res: RunResult) {
        let items = res.rejections.into_iter().map(|(v, reason)| (to_global(v), reason)).collect();
        self.rej.absorb(Rejections::from_parts(items, res.kinds));
        self.stats.merge_shard_max(&res.stats);
        self.blocks += 1;
    }

    /// Absorbs a partial combiner built over a later contiguous block
    /// range (the parallel merge path).
    pub fn absorb_partial(&mut self, other: ShardCombiner) {
        self.rej.absorb(other.rej);
        self.stats.merge_shard_max(&other.stats);
        self.blocks += other.blocks;
    }

    /// Finalizes: accept iff *every* absorbed block accepted.
    pub fn finish(self) -> RunResult {
        self.rej.into_result(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdip_graph::gen::no_instances::nonplanar_with_gadget;
    use pdip_graph::gen::planar::random_planar;
    use pdip_graph::{StreamMode, StreamSkeleton, StreamSpec};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn planar_instance(n: usize, seed: u64) -> PlInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let gen = random_planar(n, 0.5, &mut rng);
        PlInstance { graph: gen.graph, witness_rho: Some(gen.rho), is_yes: true }
    }

    #[test]
    fn decompose_partitions_edges_and_restricts_witness() {
        let inst = planar_instance(60, 11);
        let plan = ShardPlan::decompose(&inst);
        let total_edges: usize = plan.shards.iter().map(|s| s.edges.len()).sum();
        assert_eq!(total_edges, inst.graph.m(), "blocks partition the edges");
        assert!(plan.all_blocks_planar());
        for s in &plan.shards {
            assert_eq!(s.inst.graph.n(), s.globals.len());
            assert_eq!(s.inst.graph.m(), s.edges.len());
            let rho = s.inst.witness_rho.as_ref().expect("witness restricts to every block");
            assert!(
                rho.is_planar_embedding(&s.inst.graph),
                "restricted witness stays genus-0 on block {}",
                s.index
            );
        }
    }

    #[test]
    fn honest_sharded_run_accepts_planar() {
        for seed in 0..3 {
            let inst = planar_instance(80, 20 + seed);
            let plan = ShardPlan::decompose(&inst);
            assert!(plan.shard_count() >= 1);
            let res = plan.run(PopParams::default(), Transport::Native, None, seed);
            assert!(res.accepted(), "seed {seed}: {:?}", res.rejections.first());
            assert!(res.stats.proof_size() > 0);
        }
    }

    #[test]
    fn sharded_run_rejects_nonplanar_blocks() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = nonplanar_with_gadget(30, 1, true, &mut rng);
        let inst = PlInstance { graph: g, witness_rho: None, is_yes: false };
        let plan = ShardPlan::decompose(&inst);
        assert!(!plan.all_blocks_planar());
        // Detection of the K5 subdivision is probabilistic per seed.
        let caught = (0..8)
            .any(|seed| !plan.run(PopParams::default(), Transport::Native, None, seed).accepted());
        assert!(caught, "no seed in 0..8 rejected the gadget block");
    }

    #[test]
    fn rejection_nodes_are_global_ids() {
        // Two triangles joined by a path; make the far triangle's ids large
        // so a local/global mixup is visible.
        let g = Graph::from_edges(
            8,
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 5)],
        );
        let inst = PlInstance { graph: g, witness_rho: None, is_yes: true };
        let plan = ShardPlan::decompose(&inst);
        // No witness: the per-block honest run uses port-order rotations,
        // which are planar here, so this still accepts — force rejections
        // with a cheat instead.
        let res =
            plan.run(PopParams::default(), Transport::Native, Some(PlCheat::PortOrderFakeTree), 3);
        for &(v, _) in &res.rejections {
            assert!(v < 8, "rejection node {v} is not a global id");
        }
    }

    #[test]
    fn grouping_and_workers_do_not_change_a_byte() {
        let inst = planar_instance(70, 40);
        let plan = ShardPlan::decompose(&inst);
        let base = plan.run_grouped(1, 1, PopParams::default(), Transport::Native, None, 9);
        for (groups, workers) in [(2, 1), (4, 2), (plan.shard_count().max(1), 4), (64, 3)] {
            let other =
                plan.run_grouped(groups, workers, PopParams::default(), Transport::Native, None, 9);
            assert_eq!(other.verdict, base.verdict, "groups={groups} workers={workers}");
            assert_eq!(other.rejections, base.rejections, "groups={groups} workers={workers}");
            assert_eq!(other.kinds, base.kinds, "groups={groups} workers={workers}");
            assert_eq!(other.stats, base.stats, "groups={groups} workers={workers}");
        }
    }

    #[test]
    fn combiner_matches_plan_run_on_streamed_blocks() {
        // The streaming path (per-shard instances straight from the
        // skeleton, no global graph) must produce the same combined result
        // as decomposing the materialized graph... up to block *order*,
        // which both sides fix as "skeleton block order" here.
        let spec =
            StreamSpec { n: 400, shard_n: 64, keep: 0.5, seed: 0xCAFE, mode: StreamMode::Planar };
        let skel = StreamSkeleton::new(spec);
        let mut combiner = ShardCombiner::new();
        for i in 0..skel.shard_count() {
            let shard = skel.shard(i);
            let inst =
                PlInstance { graph: shard.graph, witness_rho: shard.rho, is_yes: shard.planar };
            let p = Planarity::new(&inst, PopParams::default(), Transport::Native);
            let res = p.run(None, job_seed(7, i as u64), &NoopRecorder);
            combiner.absorb_block(|v| skel.to_global(i, v), res);
        }
        assert_eq!(combiner.blocks(), skel.shard_count());
        let streamed = combiner.finish();
        assert!(streamed.accepted(), "{:?}", streamed.rejections.first());
        assert!(streamed.stats.proof_size() > 0);
    }
}
