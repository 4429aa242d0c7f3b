//! The treewidth ≤ 2 protocol (Theorem 1.7, §8 of the paper).
//!
//! By Lemma 8.2 a graph has treewidth at most 2 iff every biconnected
//! component is series-parallel. The prover commits the rooted block–cut
//! tree exactly as in the outerplanarity protocol (§6) — spanning-tree
//! certification of the union structure plus block-membership tags — and
//! runs the series-parallel protocol (Theorem 1.6) inside every block in
//! parallel, with the separating nodes' labels deferred to their in-block
//! neighbors.

use crate::lr_sorting::Transport;
use crate::path_outerplanar::PopParams;
use crate::series_parallel::{SeriesParallel, SpaCheat, SpaInstance};
use crate::spanning_tree::{SpanningTreeVerification, StParams};
use pdip_core::{DipProtocol, Rejections, RunResult, SizeStats, Tag};
use pdip_graph::{BlockCutTree, Graph, RootedForest};
use pdip_obs::{span, Recorder, SpanId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A treewidth ≤ 2 instance.
#[derive(Debug, Clone)]
pub struct Tw2Instance {
    /// The instance graph (connected).
    pub graph: Graph,
    /// Ground truth.
    pub is_yes: bool,
}

/// Cheating strategies: which series-parallel cheat runs in the bad block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tw2Cheat {
    /// Hide the violating edges as single-edge ears inside the bad block.
    BlockHideExtraEdges,
    /// Commit a fake forest inside the bad block.
    BlockFakeForest,
}

/// All cheats in interface order.
pub const TW2_CHEATS: [Tw2Cheat; 2] = [Tw2Cheat::BlockHideExtraEdges, Tw2Cheat::BlockFakeForest];

/// The treewidth ≤ 2 DIP bound to an instance.
#[derive(Debug)]
pub struct Treewidth2<'a> {
    inst: &'a Tw2Instance,
    params: PopParams,
    transport: Transport,
    tag_bits: usize,
}

impl<'a> Treewidth2<'a> {
    /// Binds the protocol to an instance.
    pub fn new(inst: &'a Tw2Instance, params: PopParams, transport: Transport) -> Self {
        Treewidth2 { inst, params, transport, tag_bits: params.tag_bits(inst.graph.n()) }
    }

    fn g(&self) -> &Graph {
        &self.inst.graph
    }

    /// One full run with an instrumentation [`Recorder`]: stage spans,
    /// Lemma 2.5 primitive spans, the Theorem 1.6 sub-run traces per
    /// block, and per-round bit counters ([`pdip_core::trace_stats`]).
    /// With a disabled recorder this is the same run.
    pub fn run(&self, cheat: Option<Tw2Cheat>, seed: u64, rec: &dyn Recorder) -> RunResult {
        let g = self.g();
        let n = g.n();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rej = Rejections::new();
        let mut stats = SizeStats { rounds: 5, ..Default::default() };
        if n <= 2 || g.m() == 0 {
            return rej.into_result(stats).traced(rec, "treewidth-2");
        }

        // ---- Block-cut commitment: spanning tree + block tags ----
        let stage1 = span(rec, 0, SpanId::at("treewidth-2/stage", 1));
        let bct = BlockCutTree::rooted(g);
        let k = bct.block_count();
        let tags: Vec<Tag> = (0..k).map(|_| Tag::random(self.tag_bits, &mut rng)).collect();
        // Home block (where the node is not separating).
        let mut home = vec![usize::MAX; n];
        for c in 0..k {
            for &v in &bct.bcc.component_nodes(g, c) {
                if bct.separating_node[c] != Some(v) {
                    home[v] = c;
                }
            }
        }
        // Observe-only capture of the block-tag commitment for replay.
        pdip_core::capture::emit("tw2/block-tags", |s| {
            s.put_usize(k);
            for t in &tags {
                s.put_usize(t.bits);
                s.put_u64(t.value);
            }
            for &h in &home {
                s.put_u64(h as u64);
            }
        });
        // Block-membership tag checks: every edge lies in one block; its
        // endpoints' tags agree unless one endpoint is the block's
        // separating cut node.
        for v in 0..n {
            for e in g.incident_edges(v) {
                let u = g.edge(e).other(v);
                let block_e = bct.bcc.component_of_edge[e];
                let ok = home[v] == block_e || bct.separating_node[block_e] == Some(v);
                let ok_u = home[u] == block_e || bct.separating_node[block_e] == Some(u);
                rej.check(v, ok && ok_u, || "tw2: edge escapes its block".into());
                if home[v] == block_e && home[u] == block_e {
                    rej.check(v, tags[home[v]] == tags[home[u]], || {
                        "tw2: block tags differ within block".into()
                    });
                }
            }
        }
        // Spanning-tree certification of the union structure.
        let forest = RootedForest::bfs_spanning_tree(g, 0);
        let st = SpanningTreeVerification::new(StParams::for_n(
            n,
            self.params.c,
            self.params.st_repetitions,
        ));
        let st_coins = st.draw_coins(n, &mut rng);
        let st_msgs = st.honest_response_traced(&forest, &st_coins, rec);
        for v in 0..n {
            st.check(
                g,
                v,
                forest.parent(v),
                forest.parent(v).is_none(),
                &st_coins,
                &st_msgs,
                &mut rej,
            );
        }

        drop(stage1);

        // ---- Per-block series-parallel runs ----
        let _stage2 = span(rec, 0, SpanId::at("treewidth-2/stage", 2));
        let mut per_round_max = [0usize; 3];
        for c in 0..k {
            let nodes = bct.bcc.component_nodes(g, c);
            if nodes.len() <= 2 {
                continue; // single edges are series-parallel
            }
            let mut remap = std::collections::HashMap::new();
            for (i, &v) in nodes.iter().enumerate() {
                remap.insert(v, i);
            }
            let mut h = Graph::new(nodes.len());
            for &e in &bct.bcc.components[c] {
                let edge = g.edge(e);
                h.add_edge(remap[&edge.u], remap[&edge.v]);
            }
            let is_yes = pdip_graph::is_series_parallel(&h);
            let sub_inst = SpaInstance { graph: h, is_yes };
            let sub = SeriesParallel::new(&sub_inst, self.params, self.transport);
            let sub_cheat = if is_yes {
                None
            } else {
                Some(match cheat {
                    Some(Tw2Cheat::BlockFakeForest) => SpaCheat::FakeForest,
                    _ => SpaCheat::HideExtraEdges,
                })
            };
            let res = sub.run(sub_cheat, rng.gen(), rec);
            for (i, b) in res.stats.per_round_max_bits.iter().enumerate() {
                per_round_max[i] = per_round_max[i].max(*b);
            }
            for ((lv, reason), kind) in res.rejections.into_iter().zip(res.kinds) {
                rej.reject_as(
                    nodes.get(lv).copied().unwrap_or(nodes[0]),
                    kind,
                    format!("tw2/block {c}: {reason}"),
                );
            }
        }

        let own = SizeStats {
            per_round_max_bits: vec![
                2 + 2 * (1 + self.tag_bits) + per_round_max[0],
                st.msg_bits() + per_round_max[1],
                per_round_max[2],
            ],
            per_round_total_bits: vec![],
            coin_bits: n * (st.coin_bits() + self.tag_bits),
            rounds: 5,
        };
        stats.merge_parallel(&own);
        rej.into_result(stats).traced(rec, "treewidth-2")
    }
}

impl DipProtocol for Treewidth2<'_> {
    fn name(&self) -> String {
        "treewidth-2".into()
    }

    fn rounds(&self) -> usize {
        5
    }

    fn instance_size(&self) -> usize {
        self.g().n()
    }

    fn is_yes_instance(&self) -> bool {
        self.inst.is_yes
    }

    fn cheat_names(&self) -> Vec<String> {
        vec!["block-hide-extra-edges".into(), "block-fake-forest".into()]
    }

    fn run_honest_traced(&self, seed: u64, rec: &dyn Recorder) -> RunResult {
        self.run(None, seed, rec)
    }

    fn run_cheat_traced(&self, strategy: usize, seed: u64, rec: &dyn Recorder) -> RunResult {
        self.run(Some(TW2_CHEATS[strategy]), seed, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdip_graph::gen::no_instances::tw2_violator;
    use pdip_graph::gen::sp::random_treewidth2;
    use pdip_obs::NoopRecorder;

    #[test]
    fn perfect_completeness() {
        let mut rng = SmallRng::seed_from_u64(121);
        for (blocks, bs) in [(1usize, 8usize), (4, 5), (7, 3)] {
            for _ in 0..3 {
                let gen = random_treewidth2(blocks, bs, &mut rng);
                let inst = Tw2Instance { graph: gen.graph, is_yes: true };
                let p = Treewidth2::new(&inst, PopParams::default(), Transport::Native);
                let res = p.run_honest(rng.gen());
                assert!(res.accepted(), "blocks={blocks} bs={bs}: {:?}", res.rejections.first());
            }
        }
    }

    #[test]
    fn violators_rejected() {
        let mut rng = SmallRng::seed_from_u64(122);
        for cheat in TW2_CHEATS {
            let mut accepted = 0;
            for seed in 0..30 {
                let g = tw2_violator(3, 1, &mut rng);
                let inst = Tw2Instance { graph: g, is_yes: false };
                let p = Treewidth2::new(&inst, PopParams::default(), Transport::Native);
                if p.run(Some(cheat), seed, &NoopRecorder).accepted() {
                    accepted += 1;
                }
            }
            assert!(accepted <= 3, "{cheat:?} accepted {accepted}/30");
        }
    }
}
