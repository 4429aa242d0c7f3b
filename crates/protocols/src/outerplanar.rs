//! The outerplanarity protocol (Theorems 1.3 and 6.1, §6 of the paper).
//!
//! Theorem 6.1: a biconnected graph is outerplanar iff it is
//! path-outerplanar w.r.t. a Hamiltonian path whose endpoints are joined
//! by an edge — so a biconnected block is verified by the Theorem 1.2
//! protocol plus one endpoint check. For general graphs the prover commits
//! the rooted block–cut tree: for every non-root block `C` a Hamiltonian
//! path `P_C` leaving the *C-separating* cut node through the *C-leader*;
//! the sub-paths `P'_C` (a spanning forest of paths) and the connecting
//! edges `e_C` are encoded with the Lemma 2.3 forest code. Random tags at
//! cut nodes and leaders let every non-cut node check that all its
//! neighbors live in its own block; the union `∪ P_C` is certified a
//! spanning tree (Lemma 2.5); the block depths `d(C) mod 3` let every node
//! identify its block's separating node. Each block then runs the
//! biconnected-outerplanarity protocol in parallel (with the separating
//! node's labels deferred to its in-block neighbors, so cut nodes carry
//! O(1) blocks' worth of bits).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::lr_sorting::Transport;
use crate::path_outerplanar::{PathOuterplanarity, PopCheat, PopInstance, PopParams};
use crate::spanning_tree::{SpanningTreeVerification, StParams};
use pdip_core::{DipProtocol, Rejections, RunResult, SizeStats, Tag};
use pdip_graph::outerplanar::outer_cycle;
use pdip_graph::{BlockCutTree, EdgeId, Graph, NodeId, RootedForest};
use pdip_obs::{span, Recorder, SpanId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An outerplanarity instance.
#[derive(Debug, Clone)]
pub struct OpInstance {
    /// The instance graph (connected).
    pub graph: Graph,
    /// Ground truth.
    pub is_yes: bool,
}

/// Cheating strategies: which attack to run inside the offending block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpCheat {
    /// Commit a non-Hamiltonian path in the non-outerplanar block.
    FakeBlockPath,
    /// Honest sweep labels inside the bad block.
    BlockHonestSweep,
    /// Force-mark a violating arc inside the bad block.
    BlockForceMark,
}

/// All cheats in [`Outerplanarity::cheat_names`] order.
pub const OP_CHEATS: [OpCheat; 3] =
    [OpCheat::FakeBlockPath, OpCheat::BlockHonestSweep, OpCheat::BlockForceMark];

/// The outerplanarity DIP bound to an instance.
#[derive(Debug)]
pub struct Outerplanarity<'a> {
    inst: &'a OpInstance,
    params: PopParams,
    transport: Transport,
    tag_bits: usize,
}

impl<'a> Outerplanarity<'a> {
    /// Binds the protocol to an instance.
    pub fn new(inst: &'a OpInstance, params: PopParams, transport: Transport) -> Self {
        Outerplanarity { inst, params, transport, tag_bits: params.tag_bits(inst.graph.n()) }
    }

    fn g(&self) -> &Graph {
        &self.inst.graph
    }

    /// One full run with an instrumentation [`Recorder`]: stage spans,
    /// Lemma 2.3/2.5 primitive spans, and per-round bit counters
    /// ([`pdip_core::trace_stats`]). With a disabled recorder this is the
    /// same run.
    pub fn run(&self, cheat: Option<OpCheat>, seed: u64, rec: &dyn Recorder) -> RunResult {
        let g = self.g();
        let n = g.n();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rej = Rejections::new();
        let mut stats = SizeStats { rounds: 5, ..Default::default() };
        if n <= 1 || g.m() == 0 {
            return rej.into_result(stats).traced(rec, "outerplanarity");
        }

        // ---- The prover's block-cut decomposition ----
        let bct = BlockCutTree::rooted(g);
        let k = bct.block_count();
        // Per block: its node set and a Hamiltonian path starting at its
        // separating node (root block: any endpoint).
        let mut block_paths: Vec<Vec<NodeId>> = Vec::with_capacity(k);
        let mut block_ok = vec![true; k];
        // Node → block-local id, shared by every block graph built below.
        let mut local = vec![usize::MAX; n];
        for c in 0..k {
            let nodes = bct.bcc.component_nodes(g, c);
            let path = block_hamiltonian_path(
                g,
                &nodes,
                &bct.bcc.components[c],
                bct.separating_node[c],
                &mut local,
            );
            match path {
                Some(p) => block_paths.push(p),
                None => {
                    // Non-outerplanar block: the cheat decides what the
                    // prover commits (a greedy non-spanning path).
                    block_ok[c] = false;
                    block_paths.push(greedy_block_path(g, &nodes, bct.separating_node[c]));
                }
            }
        }

        // ---- Stage 1: component-membership tags ----
        let stage1 = span(rec, 0, SpanId::at("outerplanarity/stage", 1));
        // Per node: cut-node flag, leader flag, sep/lead tag echoes.
        let is_cut: Vec<bool> = (0..n).map(|v| bct.bcc.is_cut_node[v]).collect();
        let mut leader_of_block: Vec<Option<NodeId>> = vec![None; k];
        for c in 0..k {
            // The leader is the first node after the separating node.
            let p = &block_paths[c];
            let lead = if bct.separating_node[c].is_some() && p.len() >= 2 { p[1] } else { p[0] };
            leader_of_block[c] = Some(lead);
        }
        let tags: Vec<Tag> = (0..n).map(|_| Tag::random(self.tag_bits, &mut rng)).collect();
        // Observe-only capture of the per-node block tags for replay.
        pdip_core::capture::emit("op/block-tags", |s| {
            s.put_usize(n);
            for t in &tags {
                s.put_usize(t.bits);
                s.put_u64(t.value);
            }
        });
        // Home block of each node: the block where it is *not* separating.
        let mut home_block = vec![usize::MAX; n];
        for c in 0..k {
            for &v in &bct.bcc.component_nodes(g, c) {
                if bct.separating_node[c] != Some(v) {
                    home_block[v] = c;
                }
            }
        }
        // Every node of a connected graph has a home block; a decomposition
        // that leaves one homeless is structurally broken — reject instead
        // of indexing with the sentinel (which would panic).
        if let Some(orphan) = home_block.iter().position(|&c| c == usize::MAX) {
            rej.reject_malformed(orphan, "op: node without a home block in the decomposition");
            stats.per_round_max_bits = vec![self.tag_bits * 2 + 4, 0, 0];
            return rej.into_result(stats).traced(rec, "outerplanarity");
        }
        // Labels sep(v) / lead(v) for v's home block.
        let sep_tag: Vec<Option<Tag>> =
            (0..n).map(|v| bct.separating_node[home_block[v]].map(|s| tags[s])).collect();
        let zero_tag = Tag::zero(self.tag_bits);
        let lead_tag: Vec<Tag> = (0..n)
            .map(|v| leader_of_block[home_block[v]].map(|l| tags[l]).unwrap_or(zero_tag))
            .collect();
        // d(C) mod 3 per node (home block), cut nodes implicitly also hold
        // home depth - 1 for their child blocks.
        let d_mod3: Vec<u8> = (0..n).map(|v| (bct.block_depth[home_block[v]] % 3) as u8).collect();
        // Checks.
        for v in 0..n {
            let my_home = home_block[v];
            for u in g.neighbor_nodes(v) {
                let same_block = home_block[u] == my_home;
                if !is_cut[v] {
                    // Every neighbor is in my block: either same home tags,
                    // or u is a cut node separating my block (sep == s_u),
                    // or u is *my* separating... u cut with my sep tag.
                    let ok = (same_block && sep_tag[u] == sep_tag[v] && lead_tag[u] == lead_tag[v])
                        || (is_cut[u] && sep_tag[v] == Some(tags[u]));
                    rej.check(v, ok, || "op: neighbor outside my block".into());
                }
                if same_block {
                    rej.check(v, d_mod3[u] == d_mod3[v], || {
                        "op: block depth labels differ within block".into()
                    });
                } else if is_cut[u]
                    && sep_tag[v] == Some(tags[u])
                    && d_mod3[u] != (d_mod3[v] + 1) % 3
                {
                    // u is my block's separating node: its home depth is
                    // mine minus one (mod 3). A u one deeper lies in one of
                    // my child blocks and only shares the tag by chance.
                    rej.check(v, (d_mod3[u] + 1) % 3 == d_mod3[v], || {
                        "op: separating node depth inconsistent".into()
                    });
                }
            }
            // Leaders verify their connecting edge reaches the separating node.
            if Some(v)
                == leader_of_block[my_home].filter(|_| bct.separating_node[my_home].is_some())
            {
                let ok = g.neighbor_nodes(v).any(|u| Some(tags[u]) == sep_tag[v] && is_cut[u]);
                rej.check(v, ok, || "op: leader lacks edge to separating node".into());
            }
        }

        drop(stage1);

        // ---- Stage 2: union of block paths is a spanning tree ----
        let stage2 = span(rec, 0, SpanId::at("outerplanarity/stage", 2));
        let mut parent: Vec<Option<(NodeId, usize)>> = vec![None; n];
        let mut union_ok = true;
        for p in &block_paths {
            for w in p.windows(2) {
                let Some(e) = g.edge_between(w[0], w[1]) else {
                    union_ok = false;
                    continue;
                };
                if parent[w[1]].is_some() || home_block[w[1]] == usize::MAX {
                    union_ok = false;
                    continue;
                }
                parent[w[1]] = Some((w[0], e));
            }
        }
        let forest = RootedForest::from_parents(g, parent);
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
        if !union_ok || !forest.is_spanning_tree(g) {
            // Prover committed a broken union; if the probabilistic checks
            // passed anyway the adversary wins this run.
            stats.per_round_max_bits = vec![self.tag_bits * 2 + 4, st.msg_bits(), 0];
            stats.coin_bits = n * (st.coin_bits() + self.tag_bits);
            return rej.into_result(stats).traced(rec, "outerplanarity");
        }

        drop(stage2);

        // ---- Stage 3: per-block biconnected outerplanarity ----
        let _stage3 = span(rec, 0, SpanId::at("outerplanarity/stage", 3));
        let mut per_round_max = [0usize; 3];
        for c in 0..k {
            let nodes = bct.bcc.component_nodes(g, c);
            if nodes.len() < 3 {
                continue; // single edges are trivially fine
            }
            let h = g.subgraph_on(&nodes, &bct.bcc.components[c], &mut local);
            let witness: Option<Vec<NodeId>> = if block_ok[c] {
                Some(block_paths[c].iter().map(|&v| local[v]).collect())
            } else {
                None
            };
            // Theorem 6.1 extra condition: the path endpoints are adjacent.
            if let Some(w) = &witness {
                match (w.first(), w.last()) {
                    (Some(&first), Some(&last)) => {
                        rej.check(nodes[0], h.has_edge(first, last), || {
                            "op: block path endpoints not adjacent (Thm 6.1)".into()
                        });
                    }
                    _ => rej.reject_malformed(nodes[0], "op: empty committed block path"),
                }
            }
            let sub_inst = PopInstance { graph: h, witness, is_yes: block_ok[c] };
            let sub = PathOuterplanarity::new(&sub_inst, self.params, self.transport);
            let sub_cheat = if block_ok[c] {
                None
            } else {
                Some(match cheat {
                    Some(OpCheat::BlockHonestSweep) => PopCheat::NestingHonestSweep,
                    Some(OpCheat::BlockForceMark) => PopCheat::NestingForceMark,
                    _ => PopCheat::FakePath,
                })
            };
            let res = sub.run(sub_cheat, rng.gen(), rec);
            for (i, b) in res.stats.per_round_max_bits.iter().enumerate() {
                // Parallel per-block executions: a node is charged its own
                // block's labels (the deferral trick bounds cut nodes by a
                // constant number of blocks' labels).
                per_round_max[i] = per_round_max[i].max(*b);
            }
            for ((lv, reason), kind) in res.rejections.into_iter().zip(res.kinds) {
                rej.reject_as(
                    nodes.get(lv).copied().unwrap_or(nodes[0]),
                    kind,
                    format!("op/block {c}: {reason}"),
                );
            }
        }

        // ---- Size accounting ----
        let stage1_bits = 2 + 2 * (1 + self.tag_bits) + 2; // flags + sep/lead + d mod 3
        let own = SizeStats {
            per_round_max_bits: vec![
                stage1_bits + per_round_max[0],
                st.msg_bits() + per_round_max[1],
                per_round_max[2],
            ],
            per_round_total_bits: vec![],
            coin_bits: n * (st.coin_bits() + self.tag_bits),
            rounds: 5,
        };
        stats.merge_parallel(&own);
        rej.into_result(stats).traced(rec, "outerplanarity")
    }
}

/// A Hamiltonian path of the block on `nodes` with edges `block`,
/// starting at `start` if given (the separating node). Uses the
/// outer-cycle structure of biconnected outerplanar blocks; `None` when
/// the block is not one. `local` is the node → block-id buffer of
/// [`Graph::subgraph_on`].
fn block_hamiltonian_path(
    g: &Graph,
    nodes: &[NodeId],
    block: &[EdgeId],
    start: Option<NodeId>,
    local: &mut [usize],
) -> Option<Vec<NodeId>> {
    if nodes.len() == 1 {
        return Some(nodes.to_vec());
    }
    if nodes.len() == 2 {
        let (a, b) = (nodes[0], nodes[1]);
        return match start {
            Some(s) if s == b => Some(vec![b, a]),
            _ => Some(vec![a, b]),
        };
    }
    // The induced subgraph on `nodes`: every edge between two nodes of a
    // block lies in the block, so its edges in id order are exactly them.
    let mut edges = block.to_vec();
    edges.sort_unstable();
    let h = g.subgraph_on(nodes, &edges, local);
    let cycle_local = outer_cycle(&h)?;
    let mut cycle: Vec<NodeId> = cycle_local.iter().map(|&v| nodes[v]).collect();
    if let Some(s) = start {
        let pos = cycle.iter().position(|&v| v == s)?;
        cycle.rotate_left(pos);
    }
    Some(cycle)
}

/// Greedy (generally non-spanning) fallback path inside a block.
fn greedy_block_path(g: &Graph, nodes: &[NodeId], start: Option<NodeId>) -> Vec<NodeId> {
    let inside: std::collections::HashSet<NodeId> = nodes.iter().copied().collect();
    let s = start.unwrap_or(nodes[0]);
    let mut path = vec![s];
    let mut used = std::collections::HashSet::new();
    used.insert(s);
    let mut last = s;
    loop {
        let next = g.neighbor_nodes(last).find(|u| inside.contains(u) && !used.contains(u));
        match next {
            Some(u) => {
                used.insert(u);
                path.push(u);
                last = u;
            }
            None => break,
        }
    }
    path
}

impl DipProtocol for Outerplanarity<'_> {
    fn name(&self) -> String {
        "outerplanarity".into()
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
        vec!["fake-block-path".into(), "block-honest-sweep".into(), "block-force-mark".into()]
    }

    fn run_honest_traced(&self, seed: u64, rec: &dyn Recorder) -> RunResult {
        self.run(None, seed, rec)
    }

    fn run_cheat_traced(&self, strategy: usize, seed: u64, rec: &dyn Recorder) -> RunResult {
        self.run(Some(OP_CHEATS[strategy]), seed, rec)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use pdip_graph::gen::no_instances::planar_not_outerplanar;
    use pdip_graph::gen::outerplanar::random_outerplanar;
    use pdip_graph::is_outerplanar;
    use pdip_obs::NoopRecorder;

    #[test]
    fn perfect_completeness() {
        let mut rng = SmallRng::seed_from_u64(81);
        for (n, blocks) in [(6usize, 2usize), (20, 4), (60, 8), (40, 1)] {
            for _ in 0..3 {
                let gen = random_outerplanar(n, blocks, 0.5, &mut rng);
                assert!(is_outerplanar(&gen.graph));
                let inst = OpInstance { graph: gen.graph, is_yes: true };
                let op = Outerplanarity::new(&inst, PopParams::default(), Transport::Native);
                let res = op.run_honest(rng.gen());
                assert!(res.accepted(), "n={n} blocks={blocks}: {:?}", res.rejections.first());
            }
        }
    }

    #[test]
    fn crossing_chords_rejected() {
        let mut rng = SmallRng::seed_from_u64(82);
        for cheat in OP_CHEATS {
            let mut accepted = 0;
            for seed in 0..60 {
                let g = planar_not_outerplanar(12, &mut rng);
                let inst = OpInstance { graph: g, is_yes: false };
                let op = Outerplanarity::new(&inst, PopParams::default(), Transport::Native);
                if op.run(Some(cheat), seed, &NoopRecorder).accepted() {
                    accepted += 1;
                }
            }
            assert!(accepted <= 6, "{cheat:?} accepted {accepted}/60");
        }
    }

    #[test]
    fn k4_block_rejected() {
        // K4 hanging off an outerplanar host.
        let mut g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let t = g.add_node();
        g.add_edge(3, t);
        let u = g.add_node();
        g.add_edge(t, u);
        let inst = OpInstance { graph: g, is_yes: false };
        let op = Outerplanarity::new(&inst, PopParams::default(), Transport::Native);
        let mut accepted = 0;
        for seed in 0..100 {
            if op.run(Some(OpCheat::BlockForceMark), seed, &NoopRecorder).accepted() {
                accepted += 1;
            }
        }
        assert!(accepted <= 10, "K4 block accepted {accepted}/100");
    }

    /// A cut node whose child block holds a cut neighbour with the same
    /// random tag as its own separating node: the honest prover must
    /// still be accepted (perfect completeness).
    #[test]
    fn tag_collision_with_a_child_block_cut_node_is_accepted() {
        use crate::family::{Family, Instance};
        let inst = Instance::generate(Family::Outerplanar, 10_000, 7027697318292710474);
        let res = inst.with_protocol(PopParams::default(), Transport::Native, |p| {
            p.run_honest(1128331428645895827)
        });
        assert!(res.accepted(), "{:?}", res.rejections.first());
    }

    #[test]
    fn single_edge_graph() {
        let inst = OpInstance { graph: Graph::from_edges(2, [(0, 1)]), is_yes: true };
        let op = Outerplanarity::new(&inst, PopParams::default(), Transport::Native);
        assert!(op.run_honest(1).accepted());
    }
}
