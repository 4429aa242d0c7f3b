//! The path-outerplanarity protocol (Theorem 1.2, §5 of the paper).
//!
//! Three stages run in parallel over 5 interaction rounds:
//!
//! 1. **Committing to a path** — the prover encodes a Hamiltonian path `P`
//!    (rooted at its leftmost node) with the Lemma 2.3 forest code; each
//!    node checks it has at most one child, and the Lemma 2.5
//!    spanning-tree verification (amplified by parallel repetition)
//!    certifies that `P` spans the graph.
//! 2. **LR-sorting** — the prover claims an orientation bit per edge
//!    (`u ≺ v` or `v ≺ u`); the LR-sorting protocol (§4) verifies the
//!    claims against `P`, after which every node knows its left and right
//!    arcs.
//! 3. **Nesting verification** — random per-node tags name the arcs and
//!    the `longest`/`succ`/`above`/`gap` labels certify proper nesting
//!    (see [`crate::nesting`]).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::forest_code::{decode_parent, ForestCode};
use crate::lr_sorting::{LrCheat, LrParams, LrSorting, Transport};
use crate::nesting::{self, NestingLabels};
use crate::spanning_tree::{SpanningTreeVerification, StParams};
use pdip_core::{par, DipProtocol, Rejections, RunResult, SizeStats, Tag};
use pdip_graph::gen::lr::LrInstance;
use pdip_graph::{Graph, NodeId, Orientation, RootedForest};
use pdip_obs::{span, Recorder, SpanId, Stopwatch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A path-outerplanarity instance: the graph plus (when known) a witness
/// Hamiltonian path. No-instances may still carry a Hamiltonian path
/// (crossing instances) or none (non-Hamiltonian instances).
#[derive(Debug, Clone)]
pub struct PopInstance {
    /// The instance graph.
    pub graph: Graph,
    /// A Hamiltonian path, if one is known.
    pub witness: Option<Vec<NodeId>>,
    /// Ground truth.
    pub is_yes: bool,
}

/// Parameters of the composite protocol.
#[derive(Debug, Clone, Copy)]
pub struct PopParams {
    /// Soundness exponent (field sizes, tag widths, ST window).
    pub c: u32,
    /// Parallel repetitions of the spanning-tree verification.
    pub st_repetitions: usize,
}

impl Default for PopParams {
    fn default() -> Self {
        PopParams { c: 3, st_repetitions: 2 }
    }
}

/// Cheating strategies for path-outerplanarity no-instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopCheat {
    /// Commit a non-spanning path (greedy longest path) and flag the
    /// leftover nodes as roots of trivial trees — attacks the
    /// spanning-tree verification.
    FakePath,
    /// Lie about one crossing arc's orientation — attacks LR-sorting
    /// (runs the strongest LR sub-cheat).
    FlipOrientation,
    /// Honest sweep labels on a crossing instance (some arc violates
    /// Observation 2.1 and stays unmarked).
    NestingHonestSweep,
    /// Additionally force-mark a violating arc as longest — pushes the
    /// contradiction into the probabilistic `succ` chain.
    NestingForceMark,
}

/// Chunk grain for the intra-job parallel loops: coarse enough that a
/// chunk amortizes its thread hand-off, fine enough that n = 10⁵ still
/// splits across every worker. The grid depends only on `n` and this
/// constant, never on the worker count (see `pdip_core::par`).
pub const PAR_GRAIN: usize = 8192;

/// All cheats, in [`PathOuterplanarity::cheat_names`] order.
pub const POP_CHEATS: [PopCheat; 4] = [
    PopCheat::FakePath,
    PopCheat::FlipOrientation,
    PopCheat::NestingHonestSweep,
    PopCheat::NestingForceMark,
];

/// The path-outerplanarity DIP bound to an instance.
#[derive(Debug)]
pub struct PathOuterplanarity<'a> {
    inst: &'a PopInstance,
    params: PopParams,
    transport: Transport,
    tag_bits: usize,
}

impl<'a> PathOuterplanarity<'a> {
    /// Binds the protocol to an instance.
    pub fn new(inst: &'a PopInstance, params: PopParams, transport: Transport) -> Self {
        let n = inst.graph.n().max(4);
        let loglog = ((n as f64).log2()).log2().ceil() as usize;
        let tag_bits = ((params.c as usize) * loglog + 4).min(60);
        PathOuterplanarity { inst, params, transport, tag_bits }
    }

    fn g(&self) -> &Graph {
        &self.inst.graph
    }

    /// The claimed path for this run: the witness, or (for `FakePath`) a
    /// greedy longest path.
    fn claimed_path(&self, cheat: Option<PopCheat>) -> Vec<NodeId> {
        match (cheat, &self.inst.witness) {
            (Some(PopCheat::FakePath), _) | (_, None) => greedy_longest_path(self.g()),
            (_, Some(w)) => w.clone(),
        }
    }

    /// One full run with an instrumentation [`Recorder`]: stage spans
    /// (path commit / LR-sorting / nesting), Lemma 2.3/2.5 primitive
    /// spans, and per-round bit counters under span name
    /// `"path-outerplanarity"`. Identical RNG call order and result.
    pub fn run(&self, cheat: Option<PopCheat>, seed: u64, rec: &dyn Recorder) -> RunResult {
        let g = self.g();
        let n = g.n();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rej = Rejections::new();
        let mut stats = SizeStats { rounds: 5, ..Default::default() };

        // ---- Stage 1: committing to a path ----
        let stage1 = span(rec, 0, SpanId::at("path-outerplanarity/stage", 1));
        let commit_watch = Stopwatch::start(rec, "round/path-commit");
        let path = self.claimed_path(cheat);
        // A corrupted witness can name unknown nodes, revisit a node
        // (which would put a cycle in the parent pointers), or traverse
        // non-edges; in the real protocol no prover can make a node read
        // a forest-code pointer over a port it does not have, so this is
        // a deterministic structural reject (never a panic).
        let mut seen = vec![false; n];
        let mut path_ok = path.iter().all(|&v| v < n && !std::mem::replace(&mut seen[v], true));
        let mut parent: Vec<Option<(NodeId, usize)>> = vec![None; n];
        if path_ok {
            for w in path.windows(2) {
                match g.edge_between(w[0], w[1]) {
                    Some(e) => parent[w[1]] = Some((w[0], e)),
                    None => path_ok = false,
                }
            }
        }
        if !path_ok {
            rej.reject_malformed(
                path.first().copied().filter(|&v| v < n).unwrap_or(0),
                "pop: committed path uses a non-edge or unknown node",
            );
            stats.per_round_max_bits = vec![1, 0, 0];
            return rej.into_result(stats).traced(rec, "path-outerplanarity");
        }
        let forest = RootedForest::from_parents(g, parent);
        let code = ForestCode::encode_traced(g, &forest, rec);
        // The per-node label decode and every node-local check loop below
        // run on the intra-job chunk grid (`pdip_core::par`): chunk-local
        // rejection collectors absorbed in chunk order reproduce the
        // serial rejection stream — and with it every downstream artifact
        // — byte for byte at any worker count.
        let claimed_parent: Vec<Option<NodeId>> =
            par::map_indexed(n, PAR_GRAIN, |v| decode_parent(g, &code.labels, v));
        let claimed_root: Vec<bool> = (0..n).map(|v| code.labels[v].root).collect();
        // Node-local structure checks: at most one child; root flags match.
        // A neighbor u is a decoded child of v exactly when u's own parent
        // decode resolves to v (decode_children's parity/color/root filters
        // are implied by `decode_parent(u) == Some(v)`), so the child count
        // reads off the already-computed `claimed_parent` table instead of
        // re-deriving each neighbor's parent.
        for local in par::map_chunks(n, PAR_GRAIN, |vs| {
            let mut local = Rejections::new();
            for v in vs {
                let kids = g.neighbor_nodes(v).filter(|&u| claimed_parent[u] == Some(v)).count();
                local.check(v, kids <= 1, || "pop: committed path branches".into());
                local.check(v, claimed_root[v] == claimed_parent[v].is_none(), || {
                    "pop: root flag inconsistent with parent decode".into()
                });
            }
            local
        }) {
            rej.absorb(local);
        }
        // Spanning-tree verification on the committed structure.
        let st = SpanningTreeVerification::new(StParams::for_n(
            n,
            self.params.c,
            self.params.st_repetitions,
        ));
        let st_coins = st.draw_coins(n, &mut rng);
        let st_msgs = st.honest_response_traced(&forest, &st_coins, rec);
        for local in par::map_chunks(n, PAR_GRAIN, |vs| {
            let mut local = Rejections::new();
            for v in vs {
                st.check(g, v, claimed_parent[v], claimed_root[v], &st_coins, &st_msgs, &mut local);
            }
            local
        }) {
            rej.absorb(local);
        }
        // If the committed structure is not a genuine Hamiltonian path and
        // the probabilistic checks somehow passed, the adversary wins this
        // run (conservative accounting, see DESIGN.md §2).
        let truly_hamiltonian = path.len() == n && {
            let mut seen = vec![false; n];
            path.iter().all(|&v| !std::mem::replace(&mut seen[v], true))
                && path.windows(2).all(|w| g.has_edge(w[0], w[1]))
        };
        if !truly_hamiltonian {
            stats.per_round_max_bits = vec![code.label_bits() + 1, st.msg_bits(), 0];
            stats.coin_bits = n * st.coin_bits();
            return rej.into_result(stats).traced(rec, "path-outerplanarity");
        }
        drop(commit_watch);
        drop(stage1);

        // ---- Stage 2: LR-sorting on the claimed orientation ----
        let stage2 = span(rec, 0, SpanId::at("path-outerplanarity/stage", 2));
        let orient_watch = Stopwatch::start(rec, "round/lr-orientation");
        let mut positions = vec![0usize; n];
        for (i, &v) in path.iter().enumerate() {
            positions[v] = i;
        }
        let mut orientation = Orientation::by(g, |u, v| positions[u] < positions[v]);
        let mut lr_cheat: Option<LrCheat> = None;
        if cheat == Some(PopCheat::FlipOrientation) {
            if let Some(e) = first_unmarkable_arc(g, &positions) {
                orientation.flip(e);
                lr_cheat = Some(LrCheat::OuterForgedIndex);
            }
        }
        // Every window is a real edge here: `truly_hamiltonian` above
        // verified the path, so the filter drops nothing.
        let path_edges: Vec<usize> =
            path.windows(2).filter_map(|w| g.edge_between(w[0], w[1])).collect();
        let lr_inst = LrInstance {
            graph: g.clone(),
            orientation: orientation.clone(),
            path: path.clone(),
            path_edges: path_edges.clone(),
            is_yes: true,
        };
        let lr = LrSorting::new(
            &lr_inst,
            LrParams { c: self.params.c, block_len: None },
            self.transport,
        );
        drop(orient_watch);
        let lr_res = lr.run(lr_cheat, rng.gen(), rec);
        stats.merge_parallel(&lr_res.stats);
        for ((v, reason), kind) in lr_res.rejections.into_iter().zip(lr_res.kinds) {
            rej.reject_as(v, kind, format!("pop/lr: {reason}"));
        }
        drop(stage2);

        // ---- Stage 3: nesting verification ----
        let _stage3 = span(rec, 0, SpanId::at("path-outerplanarity/stage", 3));
        let _nest_watch = Stopwatch::start(rec, "round/nesting");
        let mut is_path_edge = vec![false; g.m()];
        for &e in &path_edges {
            is_path_edge[e] = true;
        }
        let tags: Vec<Tag> = (0..n).map(|_| Tag::random(self.tag_bits, &mut rng)).collect();
        pdip_core::capture::emit("pop/nesting-tags", |s| {
            for t in &tags {
                s.put_usize(t.bits);
                s.put_u64(t.value);
            }
        });
        let mut labels = nesting::sweep_assign(g, &positions, &path, &is_path_edge, &tags);
        if cheat == Some(PopCheat::NestingForceMark) {
            if let Some(e) = first_unmarkable_arc(g, &positions) {
                nesting::force_longest_left(&mut labels, g, &positions, e);
            }
        }
        // The per-node nesting checks chunk like the stage-1 loops; each
        // chunk owns its scratch (no sharing across workers) and the
        // merged rejection order is the serial one.
        for local in par::map_chunks(n, PAR_GRAIN, |vs| {
            let mut local = Rejections::new();
            let mut nest_scratch = nesting::NestingScratch::new();
            for v in vs {
                let posn = positions[v];
                let left_nb = if posn > 0 { Some(path[posn - 1]) } else { None };
                let right_nb = if posn + 1 < n { Some(path[posn + 1]) } else { None };
                // Left/right classification per the *claimed, LR-verified*
                // orientation: the arc is a left arc iff v is its head.
                let is_left = |e: usize| orientation.head(g, e) == v;
                nesting::check_node_with(
                    g,
                    v,
                    left_nb,
                    right_nb,
                    &is_path_edge,
                    &is_left,
                    &tags,
                    &labels,
                    &mut local,
                    &mut nest_scratch,
                );
            }
            local
        }) {
            rej.absorb(local);
        }

        // ---- Size accounting ----
        let tb = self.tag_bits;
        let arc_bits = NestingLabels::arc_bits(tb);
        let commit_bits = code.label_bits() + 1; // forest code + orientation stage flag
        let edge_p1_bits = 1 + 2; // orientation bit + two longest marks
        let edge_p2_bits = 2 * tb + (1 + 2 * tb) + NestingLabels::gap_bits(tb); // name + succ / gap
        let (p1_extra, p2_extra) = match self.transport {
            Transport::Native => (edge_p1_bits, edge_p2_bits),
            Transport::Simulated => {
                let max_deg_burden = 5; // forests carried per node (planar)
                (max_deg_burden * (edge_p1_bits + 1) + 5 * 8, max_deg_burden * (edge_p2_bits + 1))
            }
        };
        let own = SizeStats {
            per_round_max_bits: vec![
                commit_bits + p1_extra,
                st.msg_bits() + NestingLabels::node_bits(tb) + arc_bits.max(p2_extra),
                0,
            ],
            per_round_total_bits: vec![],
            coin_bits: n * (st.coin_bits() + tb),
            rounds: 5,
        };
        stats.merge_parallel(&own);
        let _ = &labels;
        rej.into_result(stats).traced(rec, "path-outerplanarity")
    }
}

/// A greedy longest path: repeated DFS deepening from the deepest node.
fn greedy_longest_path(g: &Graph) -> Vec<NodeId> {
    if g.n() == 0 {
        return Vec::new();
    }
    // Double-BFS heuristic endpoint, then greedy extension by unvisited
    // neighbors.
    let far = pdip_graph::bfs_order(g, 0).last().copied().unwrap_or(0);
    let mut path = vec![far];
    let mut used = vec![false; g.n()];
    used[far] = true;
    let mut last = far;
    loop {
        // Warnsdorff with dead-end avoidance: prefer the unvisited
        // neighbor with the fewest *positive* number of onward options;
        // enter a dead end only when nothing else remains.
        let next = g.neighbor_nodes(last).filter(|&u| !used[u]).min_by_key(|&u| {
            let onward = g.neighbor_nodes(u).filter(|&w| !used[w]).count();
            (onward == 0, onward)
        });
        match next {
            Some(u) => {
                used[u] = true;
                path.push(u);
                last = u;
            }
            None => break,
        }
    }
    path
}

/// An arc that violates Observation 2.1 w.r.t. the given positions (it is
/// neither the longest right arc of its tail nor the longest left arc of
/// its head), i.e. direct evidence of a crossing. Falls back to any
/// crossing arc.
fn first_unmarkable_arc(g: &Graph, positions: &[usize]) -> Option<usize> {
    let arcs: Vec<usize> = (0..g.m())
        .filter(|&e| {
            let edge = g.edge(e);
            positions[edge.u].abs_diff(positions[edge.v]) > 1
        })
        .collect();
    let span = |e: usize| {
        let edge = g.edge(e);
        let (a, b) = (positions[edge.u], positions[edge.v]);
        (a.min(b), a.max(b))
    };
    for &e in &arcs {
        let (lo, hi) = span(e);
        let longest_right = arcs.iter().all(|&f| {
            let (flo, fhi) = span(f);
            flo != lo || fhi <= hi
        });
        let longest_left = arcs.iter().all(|&f| {
            let (flo, fhi) = span(f);
            fhi != hi || flo >= lo
        });
        if !longest_right && !longest_left {
            return Some(e);
        }
    }
    // Fall back: any crossing arc.
    for (i, &e) in arcs.iter().enumerate() {
        let (lo, hi) = span(e);
        for &f in &arcs[i + 1..] {
            let (flo, fhi) = span(f);
            if (lo < flo && flo < hi && hi < fhi) || (flo < lo && lo < fhi && fhi < hi) {
                return Some(e);
            }
        }
    }
    None
}

impl DipProtocol for PathOuterplanarity<'_> {
    fn name(&self) -> String {
        "path-outerplanarity".into()
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
        vec![
            "fake-path".into(),
            "flip-orientation".into(),
            "nesting-honest-sweep".into(),
            "nesting-force-mark".into(),
        ]
    }

    fn run_honest_traced(&self, seed: u64, rec: &dyn Recorder) -> RunResult {
        self.run(None, seed, rec)
    }

    fn run_cheat_traced(&self, strategy: usize, seed: u64, rec: &dyn Recorder) -> RunResult {
        self.run(Some(POP_CHEATS[strategy]), seed, rec)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use pdip_graph::gen::no_instances::outerplanar_no_hamiltonian_path;
    use pdip_graph::gen::outerplanar::{fan_path_outerplanar, random_path_outerplanar};
    use pdip_obs::NoopRecorder;

    fn yes_instance(n: usize, seed: u64) -> PopInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let inst = random_path_outerplanar(n, 0.7, &mut rng);
        PopInstance { graph: inst.graph, witness: Some(inst.path), is_yes: true }
    }

    #[test]
    fn perfect_completeness() {
        for n in [2usize, 3, 8, 30, 101, 300] {
            for seed in 0..4 {
                let inst = yes_instance(n, seed);
                let p = PathOuterplanarity::new(&inst, PopParams::default(), Transport::Native);
                let res = p.run_honest(seed * 7 + 1);
                assert!(res.accepted(), "n={n} seed={seed}: {:?}", res.rejections.first());
            }
        }
    }

    #[test]
    fn completeness_with_simulated_edge_labels() {
        for seed in 0..5 {
            let inst = yes_instance(60, 100 + seed);
            let p = PathOuterplanarity::new(&inst, PopParams::default(), Transport::Simulated);
            let res = p.run_honest(seed);
            assert!(res.accepted(), "{:?}", res.rejections.first());
        }
    }

    #[test]
    fn fan_completeness() {
        let mut rng = SmallRng::seed_from_u64(3);
        let fan = fan_path_outerplanar(40, &mut rng);
        let inst = PopInstance { graph: fan.graph, witness: Some(fan.path), is_yes: true };
        let p = PathOuterplanarity::new(&inst, PopParams::default(), Transport::Native);
        for seed in 0..10 {
            assert!(p.run_honest(seed).accepted());
        }
    }

    #[test]
    fn non_hamiltonian_fake_path_rejected() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = outerplanar_no_hamiltonian_path(5, &mut rng);
        let inst = PopInstance { graph: g, witness: None, is_yes: false };
        let p = PathOuterplanarity::new(&inst, PopParams::default(), Transport::Native);
        let mut accepted = 0;
        for seed in 0..100 {
            if p.run(Some(PopCheat::FakePath), seed, &NoopRecorder).accepted() {
                accepted += 1;
            }
        }
        assert!(accepted <= 5, "fake path accepted {accepted}/100");
    }

    #[test]
    fn crossing_instances_rejected_under_all_cheats() {
        // Polygon with two crossing chords has a Hamiltonian path but is
        // not path-outerplanar w.r.t. it... it *is* path-outerplanar as a
        // graph though (biconnected outerplanar isn't -- crossing chords
        // make it non-outerplanar). Build it directly:
        let mut rng = SmallRng::seed_from_u64(5);
        let g = pdip_graph::gen::no_instances::planar_not_outerplanar(10, &mut rng);
        // Recover a Hamiltonian path: the polygon order is hidden by the
        // relabeling; rebuild an explicit instance instead.
        let mut h = Graph::new(8);
        for i in 0..8 {
            h.add_edge(i, (i + 1) % 8);
        }
        h.add_edge(0, 3);
        h.add_edge(2, 6);
        assert!(!pdip_graph::is_outerplanar(&h));
        let witness: Vec<usize> = (0..8).collect();
        let inst = PopInstance { graph: h, witness: Some(witness), is_yes: false };
        let p = PathOuterplanarity::new(&inst, PopParams::default(), Transport::Native);
        for (ci, cheat) in POP_CHEATS.iter().enumerate().skip(1) {
            let mut accepted = 0;
            for seed in 0..100 {
                if p.run(Some(*cheat), seed, &NoopRecorder).accepted() {
                    accepted += 1;
                }
            }
            assert!(accepted <= 10, "cheat {ci} accepted {accepted}/100");
        }
        let _ = g;
    }

    #[test]
    fn proof_size_loglog() {
        for n in [1usize << 8, 1 << 11, 1 << 13] {
            let inst = yes_instance(n, 9);
            let p = PathOuterplanarity::new(&inst, PopParams::default(), Transport::Native);
            let res = p.run_honest(1);
            let loglog = ((n as f64).log2()).log2();
            assert!(
                (res.stats.proof_size() as f64) <= 90.0 * loglog,
                "n={n}: {} bits",
                res.stats.proof_size()
            );
        }
    }
}
