//! The planar-embedding protocol (Theorem 1.4, §7 of the paper) and the
//! reduction `h(G, T, ρ)` to path-outerplanarity.
//!
//! Every node holds a clockwise rotation `ρ_v` of its incident edges; the
//! task is to decide whether `ρ` induces a genus-0 embedding. The prover
//! commits a rooted spanning tree `T` (Lemma 2.3 + Lemma 2.5); the Euler
//! tour of `T` in rotation order defines a path `P(G,T,ρ)` over node
//! *copies* `x_0(v), ..., x_χ(v)`, and every non-tree edge maps to an arc
//! between the copies determined by the first counterclockwise tree edges
//! at its endpoints. Lemma 7.3: `ρ` is a planar embedding iff
//! `h(G,T,ρ)` is path-outerplanar w.r.t. `P` — so the Theorem 1.2 protocol
//! runs on `h`, with each original node simulating its ≤ 5 visible copies
//! (`x_i(v)` is handled by child `c_i(v)`).

use crate::lr_sorting::Transport;
use crate::path_outerplanar::{PathOuterplanarity, PopCheat, PopInstance, PopParams};
use crate::spanning_tree::{SpanningTreeVerification, StParams};
use pdip_core::{DipProtocol, Rejections, RunResult, SizeStats};
use pdip_graph::{with_thread_scratch, EdgeId, Graph, NodeId, RootedForest, RotationSystem};
use pdip_obs::{span, Recorder, SpanId, Stopwatch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A planar-embedding instance: graph plus per-node rotations.
#[derive(Debug, Clone)]
pub struct EmbInstance {
    /// The instance graph (connected).
    pub graph: Graph,
    /// The given clockwise rotations ρ(G).
    pub rho: RotationSystem,
    /// Ground truth: does ρ induce a planar embedding?
    pub is_yes: bool,
}

/// The reduction output: the graph `h(G, T, ρ)` with bookkeeping.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The reduced graph: nodes are Euler-tour visits, `P` plus the arcs `Q`.
    pub h: Graph,
    /// The Hamiltonian path of `h` (tour order: node `i` is the i-th visit).
    pub path: Vec<NodeId>,
    /// Which original node each copy belongs to.
    pub copy_of: Vec<NodeId>,
    /// For each non-tree edge of `G`, the corresponding arc in `h`.
    pub arc_of_edge: Vec<Option<EdgeId>>,
}

/// Builds `h(G, T, ρ)`: the cut-along-the-tree disk boundary.
///
/// The announcement sketches `h` with `χ(v) + 1` copies per node (one per
/// Euler-tour visit). That granularity determines only which *corner* each
/// non-tree edge-end lies in — but the rotation also fixes the order of
/// edge-ends *within* a corner, and swapping two same-corner ends can
/// change the genus without changing corners. This implementation
/// therefore uses the exact dart-level construction underlying FFM+21's
/// proof: the path `P` walks the boundary of the fattened tree, emitting
/// one anchor node per Euler-tour visit and one node per non-tree
/// edge-end, in clockwise order within each corner; every non-tree edge
/// becomes an arc between its two end nodes. Then ρ is a planar embedding
/// iff the arcs are properly nested (Lemma 7.3). Edge-end labels ride on
/// the edges (Lemma 2.4), so the per-node label burden stays O(ℓ). See
/// DESIGN.md §3.
///
/// # Panics
/// Panics if `tree` is not a spanning tree of `g` rooted at `root`.
pub fn build_reduction(
    g: &Graph,
    rho: &RotationSystem,
    tree: &RootedForest,
    root: NodeId,
) -> Reduction {
    assert!(tree.is_spanning_tree(g), "reduction needs a spanning tree");
    let n = g.n();
    // Every transient table below is an integer buffer recycled through
    // the thread scratch's slice arena (and the tree-edge bitmap an
    // edge-mark epoch), so a warm round builds the reduction without
    // touching the heap for anything but the returned `Reduction` itself.
    with_thread_scratch(|scratch| {
        // Tree-edge marks: every tree edge incident to a node is either
        // its parent edge or a child's parent edge.
        scratch.begin_edges(g.m());
        for v in 0..n {
            if let Some(e) = tree.parent_edge(v) {
                scratch.mark_edge(e);
            }
        }
        // One clockwise pass per node computes both the child order
        // c_1(v), ..., c_χ(v) (clockwise from the parent edge; for the root by
        // increasing ρ_r position) and every corner's non-tree edge-ends.
        // Corner 0 opens with the parent edge; corner i > 0 with the edge to
        // c_i(v); each corner's ends are the non-tree edges up to the next tree
        // edge. The root's corner 0 is empty, and its pre-first-child sector
        // wraps into corner χ (the first-counterclockwise-tree-edge rule).
        // Corner i of v spans ends[corner_start[base[v] + i]..corner_start[base[v] + i + 1]].
        // Children live in a flat offsets-plus-data table — per-node views
        // are slices `child_flat[child_off[v]..child_off[v + 1]]`, not
        // per-node vectors.
        let mut child_off = scratch.arena().take();
        let mut child_flat = scratch.arena().take();
        let mut ends = scratch.arena().take();
        let mut corner_start = scratch.arena().take();
        let mut base = scratch.arena().take();
        let mut prefix = scratch.arena().take();
        base.resize(n + 1, 0);
        for v in 0..n {
            base[v] = corner_start.len();
            child_off.push(child_flat.len());
            let order = rho.order_at(v);
            let d = order.len();
            corner_start.push(ends.len());
            match tree.parent_edge(v) {
                Some(pe) => {
                    let pos = rho.position(v, pe);
                    for k in 1..d {
                        let e = order[(pos + k) % d];
                        if scratch.edge_marked(e) {
                            child_flat.push(g.edge(e).other(v));
                            corner_start.push(ends.len());
                        } else {
                            ends.push(e);
                        }
                    }
                }
                None => {
                    prefix.clear();
                    let mut seen_child = false;
                    for &e in order {
                        if scratch.edge_marked(e) {
                            child_flat.push(g.edge(e).other(v));
                            corner_start.push(ends.len());
                            seen_child = true;
                        } else if seen_child {
                            ends.push(e);
                        } else {
                            prefix.push(e);
                        }
                    }
                    ends.extend_from_slice(&prefix);
                }
            }
        }
        base[n] = corner_start.len();
        child_off.push(child_flat.len());
        corner_start.push(ends.len());
        // Emit the boundary walk: the Euler tour of the child table
        // (every visit in tour order), inlined so the tour is never
        // materialized. Node ids are assigned in walk order, so the total
        // count is known up front: a spanning tree's tour makes 2(n-1)+1
        // visits, plus one node per non-tree edge-end.
        let hn = 2 * n.saturating_sub(1) + 1 + ends.len();
        let mut h = Graph::new(hn);
        let mut copy_of: Vec<NodeId> = Vec::with_capacity(hn);
        // end_node[2e + side]: the h-node of edge e's end at edge.u (side 0)
        // or edge.v (side 1).
        let mut end_node = scratch.arena().take();
        end_node.resize(2 * g.m(), usize::MAX);
        let mut visit_count = scratch.arena().take();
        visit_count.resize(n, 0);
        let mut emit_visit = |v: NodeId| {
            let i = visit_count[v];
            visit_count[v] += 1;
            // Anchor for the visit itself.
            copy_of.push(v);
            let c = base[v] + i;
            for &e in &ends[corner_start[c]..corner_start[c + 1]] {
                end_node[2 * e + usize::from(g.edge(e).u != v)] = copy_of.len();
                copy_of.push(v);
            }
        };
        // DFS over the child table; a node is visited on arrival and
        // again after each child's subtree returns.
        let mut stack_node = scratch.arena().take();
        let mut stack_cur = scratch.arena().take();
        stack_node.push(root);
        stack_cur.push(child_off[root]);
        emit_visit(root);
        while let (Some(&v), Some(cur)) = (stack_node.last(), stack_cur.last_mut()) {
            if *cur < child_off[v + 1] {
                let c = child_flat[*cur];
                *cur += 1;
                emit_visit(c);
                stack_node.push(c);
                stack_cur.push(child_off[c]);
            } else {
                stack_node.pop();
                stack_cur.pop();
                if let Some(&p) = stack_node.last() {
                    emit_visit(p);
                }
            }
        }
        debug_assert_eq!(copy_of.len(), hn);
        let path: Vec<NodeId> = (0..hn).collect();
        for i in 0..hn - 1 {
            h.add_edge(i, i + 1);
        }
        let mut arc_of_edge = vec![None; g.m()];
        for e in 0..g.m() {
            if scratch.edge_marked(e) {
                continue;
            }
            let xu = end_node[2 * e];
            let xv = end_node[2 * e + 1];
            debug_assert_ne!(xu, xv);
            if xu.abs_diff(xv) > 1 {
                arc_of_edge[e] = Some(h.add_edge(xu, xv));
            }
            // Adjacent end nodes: the arc is parallel to the path and can
            // never cross; leave it implicit.
        }
        // Reverse take order: the arena is a LIFO, so the next round's
        // takes see each buffer back in the role it grew for.
        let arena = scratch.arena();
        for buf in [
            stack_cur,
            stack_node,
            visit_count,
            end_node,
            prefix,
            base,
            corner_start,
            ends,
            child_flat,
            child_off,
        ] {
            arena.give(buf);
        }
        Reduction { h, path, copy_of, arc_of_edge }
    })
}

/// Cheat strategies for invalid embeddings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbCheat {
    /// Honest reduction + honest sweep labels on the crossing `h`.
    HonestSweep,
    /// Honest reduction + force-marked violating arc.
    ForceMark,
    /// Commit a fake (non-spanning) tree.
    FakeTree,
}

/// All cheats in interface order.
pub const EMB_CHEATS: [EmbCheat; 3] =
    [EmbCheat::HonestSweep, EmbCheat::ForceMark, EmbCheat::FakeTree];

/// The planar-embedding DIP bound to an instance.
#[derive(Debug)]
pub struct EmbeddedPlanarity<'a> {
    inst: &'a EmbInstance,
    params: PopParams,
    transport: Transport,
}

impl<'a> EmbeddedPlanarity<'a> {
    /// Binds the protocol to an instance.
    pub fn new(inst: &'a EmbInstance, params: PopParams, transport: Transport) -> Self {
        EmbeddedPlanarity { inst, params, transport }
    }

    fn g(&self) -> &Graph {
        &self.inst.graph
    }

    /// One full run with an instrumentation [`Recorder`]: stage spans,
    /// Lemma 2.5 primitive spans, and per-round bit counters
    /// ([`pdip_core::trace_stats`]). With a disabled recorder this is the
    /// same run.
    pub fn run(&self, cheat: Option<EmbCheat>, seed: u64, rec: &dyn Recorder) -> RunResult {
        let g = self.g();
        let n = g.n();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rej = Rejections::new();
        let mut stats = SizeStats { rounds: 5, ..Default::default() };
        if n <= 2 {
            return rej.into_result(stats).traced(rec, "embedded-planarity");
        }

        // ---- Spanning-tree commitment + verification ----
        let stage1 = span(rec, 0, SpanId::at("embedded-planarity/stage", 1));
        let st_watch = Stopwatch::start(rec, "round/spanning-tree");
        let root = 0;
        let tree = if cheat == Some(EmbCheat::FakeTree) {
            // A non-spanning "tree": BFS stopped halfway, rest are roots.
            let full = RootedForest::bfs_spanning_tree(g, root);
            let mut parent: Vec<Option<(NodeId, usize)>> = vec![None; n];
            for v in 0..n / 2 {
                if let (Some(p), Some(e)) = (full.parent(v), full.parent_edge(v)) {
                    parent[v] = Some((p, e));
                }
            }
            RootedForest::from_parents(g, parent)
        } else {
            RootedForest::bfs_spanning_tree(g, root)
        };
        let st = SpanningTreeVerification::new(StParams::for_n(
            n,
            self.params.c,
            self.params.st_repetitions,
        ));
        let st_coins = st.draw_coins(n, &mut rng);
        let st_msgs = st.honest_response_traced(&tree, &st_coins, rec);
        for v in 0..n {
            st.check(g, v, tree.parent(v), tree.parent(v).is_none(), &st_coins, &st_msgs, &mut rej);
        }
        if !tree.is_spanning_tree(g) {
            stats.per_round_max_bits = vec![8, st.msg_bits(), 0];
            stats.coin_bits = n * st.coin_bits();
            return rej.into_result(stats).traced(rec, "embedded-planarity");
        }

        drop(st_watch);
        drop(stage1);

        // ---- The reduction + simulated path-outerplanarity on h ----
        let _stage2 = span(rec, 0, SpanId::at("embedded-planarity/stage", 2));
        let red_watch = Stopwatch::start(rec, "round/reduction");
        let red = build_reduction(g, &self.inst.rho, &tree, root);
        // Observe-only capture of the reduction shape for replay: the
        // auxiliary graph h and the Hamiltonian-path witness are pure
        // functions of (g, rho, tree), so their summary pins the stage-2
        // input deterministically.
        pdip_core::capture::emit("emb/reduction", |s| {
            s.put_usize(red.h.n());
            s.put_usize(red.h.m());
            s.put_usize(red.path.len());
            for &v in &red.path {
                s.put_usize(v);
            }
        });
        // Hand h and the witness path to the sub-instance by move — only
        // the copy_of map is needed after the sub-run (rejection remap).
        let Reduction { h, path, copy_of, arc_of_edge: _ } = red;
        let pop_inst = PopInstance { witness: Some(path), is_yes: self.inst.is_yes, graph: h };
        drop(red_watch);
        let sub = PathOuterplanarity::new(&pop_inst, self.params, self.transport);
        let sub_cheat = match cheat {
            Some(EmbCheat::HonestSweep) => Some(PopCheat::NestingHonestSweep),
            Some(EmbCheat::ForceMark) => Some(PopCheat::NestingForceMark),
            _ => None,
        };
        let res = sub.run(sub_cheat, rng.gen(), rec);
        // Each original node simulates at most 5 copies of h — multiply the
        // per-round bounds accordingly (§7 simulation argument).
        let mut sub_stats = res.stats.clone();
        for b in sub_stats.per_round_max_bits.iter_mut() {
            *b *= 5;
        }
        stats.merge_parallel(&sub_stats);
        let own = SizeStats {
            per_round_max_bits: vec![8, st.msg_bits(), 0],
            per_round_total_bits: vec![],
            coin_bits: n * st.coin_bits(),
            rounds: 5,
        };
        stats.merge_parallel(&own);
        for ((copy, reason), kind) in res.rejections.into_iter().zip(res.kinds) {
            let orig = copy_of.get(copy).copied().unwrap_or(0);
            rej.reject_as(orig, kind, format!("emb/h: {reason}"));
        }
        rej.into_result(stats).traced(rec, "embedded-planarity")
    }
}

impl DipProtocol for EmbeddedPlanarity<'_> {
    fn name(&self) -> String {
        "embedded-planarity".into()
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
        vec!["honest-sweep".into(), "force-mark".into(), "fake-tree".into()]
    }

    fn run_honest_traced(&self, seed: u64, rec: &dyn Recorder) -> RunResult {
        self.run(None, seed, rec)
    }

    fn run_cheat_traced(&self, strategy: usize, seed: u64, rec: &dyn Recorder) -> RunResult {
        self.run(Some(EMB_CHEATS[strategy]), seed, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdip_graph::gen::planar::{random_planar, random_triangulation, scrambled_embedding};
    use pdip_graph::outerplanar::is_path_outerplanar_with;
    use pdip_obs::NoopRecorder;

    #[test]
    fn lemma_7_3_forward() {
        // Valid embeddings reduce to path-outerplanar graphs.
        let mut rng = SmallRng::seed_from_u64(91);
        for n in [4usize, 8, 20, 60] {
            for keep in [0.3, 0.9] {
                let inst = random_planar(n, keep, &mut rng);
                let tree = RootedForest::bfs_spanning_tree(&inst.graph, 0);
                let red = build_reduction(&inst.graph, &inst.rho, &tree, 0);
                assert!(is_path_outerplanar_with(&red.h, &red.path), "n={n} keep={keep}");
            }
        }
    }

    #[test]
    fn lemma_7_3_reverse() {
        // Invalid embeddings reduce to crossing (non-nested) instances.
        let mut rng = SmallRng::seed_from_u64(92);
        let mut crossing = 0;
        let trials = 20;
        for _ in 0..trials {
            let inst = scrambled_embedding(30, &mut rng);
            let tree = RootedForest::bfs_spanning_tree(&inst.graph, 0);
            let red = build_reduction(&inst.graph, &inst.rho, &tree, 0);
            if !is_path_outerplanar_with(&red.h, &red.path) {
                crossing += 1;
            }
        }
        assert!(crossing >= trials - 2, "only {crossing}/{trials} reduced to crossings");
    }

    #[test]
    fn reduction_shape() {
        let mut rng = SmallRng::seed_from_u64(93);
        let inst = random_triangulation(12, &mut rng);
        let tree = RootedForest::bfs_spanning_tree(&inst.graph, 0);
        let red = build_reduction(&inst.graph, &inst.rho, &tree, 0);
        assert_eq!(red.h.n(), (2 * 12 - 1) + 2 * (inst.graph.m() - 11));
        assert_eq!(red.path.len(), red.h.n());
    }

    #[test]
    fn perfect_completeness() {
        let mut rng = SmallRng::seed_from_u64(94);
        for n in [4usize, 10, 40, 120] {
            let gen = random_planar(n, 0.6, &mut rng);
            let inst = EmbInstance { graph: gen.graph, rho: gen.rho, is_yes: true };
            let p = EmbeddedPlanarity::new(&inst, PopParams::default(), Transport::Native);
            for seed in 0..3 {
                let res = p.run_honest(seed);
                assert!(res.accepted(), "n={n}: {:?}", res.rejections.first());
            }
        }
    }

    #[test]
    fn scrambled_embeddings_rejected() {
        let mut rng = SmallRng::seed_from_u64(95);
        for cheat in [EmbCheat::HonestSweep, EmbCheat::ForceMark] {
            let mut accepted = 0;
            for seed in 0..60 {
                let gen = scrambled_embedding(25, &mut rng);
                let inst = EmbInstance { graph: gen.graph, rho: gen.rho, is_yes: false };
                let p = EmbeddedPlanarity::new(&inst, PopParams::default(), Transport::Native);
                if p.run(Some(cheat), seed, &NoopRecorder).accepted() {
                    accepted += 1;
                }
            }
            assert!(accepted <= 6, "{cheat:?}: accepted {accepted}/60");
        }
    }

    #[test]
    fn fake_tree_rejected() {
        let mut rng = SmallRng::seed_from_u64(96);
        let gen = random_planar(30, 0.5, &mut rng);
        let inst = EmbInstance { graph: gen.graph, rho: gen.rho, is_yes: true };
        let p = EmbeddedPlanarity::new(&inst, PopParams::default(), Transport::Native);
        let mut accepted = 0;
        for seed in 0..100 {
            if p.run(Some(EmbCheat::FakeTree), seed, &NoopRecorder).accepted() {
                accepted += 1;
            }
        }
        assert!(accepted <= 10, "fake tree accepted {accepted}/100");
    }
}
