//! The series-parallel protocol (Theorem 1.6, §8 of the paper).
//!
//! The prover commits a nested ear decomposition `P_1, ..., P_k`
//! (Lemma 8.1): the sub-ears `P'_i` (ears minus their endpoints; `P'_1 =
//! P_1`) form a spanning forest of node-disjoint paths, encoded with the
//! Lemma 2.3 forest code; connecting edges tie each sub-ear's endpoints to
//! its ear's endpoints. Verification:
//!
//! * each forest component is certified a simple path (degree ≤ 2 +
//!   Lemma 2.5 on the component);
//! * **condition (1)** — every sub-ear head samples an ear tag `r_Q`; the
//!   prover distributes `(ear(v), pred_ear(v))`; endpoints check their
//!   `pred_ear` equals the host's `ear` through the connecting edge, and
//!   single-edge ears check both endpoints carry the same `ear` tag;
//! * **condition (3)** — per host ear, the hosted ears act as virtual arcs
//!   and a path-outerplanarity run (Theorem 1.2 machinery) certifies
//!   proper nesting; virtual-arc labels are replicated along the guest
//!   sub-ear so both host endpoints can read them.
//!
//! Condition (2) (fresh interiors) follows from the forest structure:
//! every node lies in exactly one sub-ear.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::lr_sorting::Transport;
use crate::path_outerplanar::{PathOuterplanarity, PopCheat, PopInstance, PopParams};
use crate::spanning_tree::{SpanningTreeVerification, StParams};
use pdip_core::{DipProtocol, Rejections, RunResult, SizeStats, Tag};
use pdip_graph::ear::EarDecomposition;
use pdip_graph::{BiconnectedComponents, EdgeId, Graph, NodeId, RootedForest};
use pdip_obs::{span, Recorder, SpanId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A series-parallel instance.
#[derive(Debug, Clone)]
pub struct SpaInstance {
    /// The instance graph (connected).
    pub graph: Graph,
    /// Ground truth.
    pub is_yes: bool,
}

/// Cheating strategies on non-series-parallel instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaCheat {
    /// Remove edges until the graph becomes series-parallel, decompose the
    /// remainder honestly, and disguise each removed edge as a single-edge
    /// ear (its endpoints usually lie on different ears → the ear-tag
    /// check catches it with probability 1 − 1/polylog n).
    HideExtraEdges,
    /// Commit a greedy path forest with arbitrary host claims.
    FakeForest,
}

/// All cheats in interface order.
pub const SPA_CHEATS: [SpaCheat; 2] = [SpaCheat::HideExtraEdges, SpaCheat::FakeForest];

/// The series-parallel DIP bound to an instance.
#[derive(Debug)]
pub struct SeriesParallel<'a> {
    inst: &'a SpaInstance,
    params: PopParams,
    transport: Transport,
    tag_bits: usize,
}

/// The prover's committed decomposition: ear paths + host indices, plus
/// the set of edges disguised as single-edge ears whose host claims are
/// forged (cheats only).
struct Commitment {
    ears: Vec<(Vec<NodeId>, Option<usize>)>,
    /// Extra edges presented as single-edge ears hosted "wherever".
    disguised: Vec<usize>,
}

impl<'a> SeriesParallel<'a> {
    /// Binds the protocol to an instance.
    pub fn new(inst: &'a SpaInstance, params: PopParams, transport: Transport) -> Self {
        SeriesParallel { inst, params, transport, tag_bits: params.tag_bits(inst.graph.n()) }
    }

    fn g(&self) -> &Graph {
        &self.inst.graph
    }

    /// The prover's decomposition. On a series-parallel graph: the ears
    /// of [`EarDecomposition::from_sp_tree`], one SP tree, O(n + m).
    /// Otherwise the honest prover and `HideExtraEdges` hide edges
    /// greedily: each deletion costs one kept-graph rebuild, one SP-tree
    /// attempt and one biconnected pass, each O(n + m), so hiding h edges
    /// is O(h · (n + m)).
    fn commitment(&self, cheat: Option<SpaCheat>) -> Commitment {
        let g = self.g();
        if let Some(tree) = pdip_graph::sp_tree(g) {
            let d = EarDecomposition::from_sp_tree(&tree);
            return Commitment {
                ears: d.ears.into_iter().map(|e| (e.path, e.host)).collect(),
                disguised: Vec::new(),
            };
        }
        match cheat {
            Some(SpaCheat::HideExtraEdges) | None => {
                // Remove edges greedily until series-parallel: each round
                // drops the lowest-id kept edge whose removal keeps the
                // kept graph connected, i.e. the first non-bridge.
                let mut removed: Vec<usize> = Vec::new();
                let mut kept: Vec<EdgeId> = (0..g.m()).collect();
                loop {
                    // Edge i of `sub` is edge `kept[i]` of `g`.
                    let sub =
                        Graph::from_edges(g.n(), kept.iter().map(|&e| (g.edge(e).u, g.edge(e).v)));
                    if let Some(tree) = pdip_graph::sp_tree(&sub) {
                        let d = EarDecomposition::from_sp_tree(&tree);
                        return Commitment {
                            ears: d.ears.into_iter().map(|e| (e.path, e.host)).collect(),
                            disguised: removed,
                        };
                    }
                    // In a connected simple graph an edge is a bridge iff
                    // its biconnected component is the edge alone; a
                    // disconnected kept graph stays disconnected.
                    let next = if sub.is_connected() {
                        let bcc = BiconnectedComponents::compute(&sub);
                        (0..sub.m()).find(|&i| bcc.components[bcc.component_of_edge[i]].len() >= 2)
                    } else {
                        None
                    };
                    match next {
                        Some(i) => removed.push(kept.remove(i)),
                        None => {
                            return Commitment { ears: greedy_path_forest(g), disguised: removed }
                        }
                    }
                }
            }
            Some(SpaCheat::FakeForest) => {
                Commitment { ears: greedy_path_forest(g), disguised: Vec::new() }
            }
        }
    }

    /// One full run with an instrumentation [`Recorder`]: stage spans,
    /// the Theorem 1.2 sub-run traces per host ear, and per-round bit
    /// counters ([`pdip_core::trace_stats`]). With a disabled recorder
    /// this is the same run.
    pub fn run(&self, cheat: Option<SpaCheat>, seed: u64, rec: &dyn Recorder) -> RunResult {
        let g = self.g();
        let n = g.n();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rej = Rejections::new();
        let mut stats = SizeStats { rounds: 5, ..Default::default() };
        if n <= 2 || g.m() == 0 {
            return rej.into_result(stats).traced(rec, "series-parallel");
        }
        let stage1 = span(rec, 0, SpanId::at("series-parallel/stage", 1));
        let com = self.commitment(cheat);
        let ears = &com.ears;

        // Sub-ears: P'_1 = P_1; for i > 0 the interior path.
        let sub_ear: Vec<Vec<NodeId>> = ears
            .iter()
            .enumerate()
            .map(|(i, (p, _))| {
                if i == 0 {
                    p.clone()
                } else if p.len() >= 2 {
                    p[1..p.len() - 1].to_vec()
                } else {
                    Vec::new() // degenerate committed ear (cheats only)
                }
            })
            .collect();
        // Home sub-ear of each node.
        let mut home = vec![usize::MAX; n];
        let mut covered = true;
        for (i, se) in sub_ear.iter().enumerate() {
            for &v in se {
                if home[v] != usize::MAX {
                    covered = false;
                }
                home[v] = i;
            }
        }
        covered &= home.iter().all(|&h| h != usize::MAX);

        // ---- Spanning forest F = ∪ P'_i, verified per component ----
        let mut parent: Vec<Option<(NodeId, usize)>> = vec![None; n];
        let mut structure_ok = covered;
        for se in &sub_ear {
            for w in se.windows(2) {
                match g.edge_between(w[0], w[1]) {
                    Some(e) if parent[w[1]].is_none() => parent[w[1]] = Some((w[0], e)),
                    _ => structure_ok = false,
                }
            }
        }
        if !structure_ok {
            // Broken commitment: conservative immediate reject via local
            // coverage checks (a node outside every sub-ear sees no
            // consistent forest code).
            rej.reject_malformed(0, "spa: committed sub-ears do not partition the nodes");
            return rej.into_result(stats).traced(rec, "series-parallel");
        }
        let forest = RootedForest::from_parents(g, parent);
        // Degree-≤-2-in-F is structural for the honest commitment; the
        // component path structure is certified through the ear tags below
        // (a broken component mixes tags across sub-ears), with the
        // Lemma 2.5 machinery supplying the size/coin accounting for the
        // per-component path verification of the paper.
        let st = SpanningTreeVerification::new(StParams::for_n(
            n,
            self.params.c,
            self.params.st_repetitions,
        ));
        drop(stage1);
        // ---- Condition (1): ear tags ----
        let stage2 = span(rec, 0, SpanId::at("series-parallel/stage", 2));
        // Every ear draws a random tag (sampled by its sub-ear head —
        // here: by index, the coins being public). Node labels carry
        // (ear, pred_ear); connecting edges and single-edge-ear edges
        // carry their guest ear's (host_tag, guest_tag) so *both* sides
        // can verify membership: a node u lies on ear j's path iff u is
        // interior to it (ear(u) = r_j) or an endpoint of it — witnessed
        // by an incident connecting edge whose guest tag is r_j with u on
        // the host side.
        let ear_tag: Vec<Tag> =
            (0..ears.len()).map(|_| Tag::random(self.tag_bits, &mut rng)).collect();
        let node_ear: Vec<Tag> = (0..n).map(|v| ear_tag[home[v]]).collect();
        let node_pred: Vec<Option<Tag>> =
            (0..n).map(|v| ears[home[v]].1.map(|h| ear_tag[h])).collect();
        // Observe-only capture of the ear-tag commitment for replay.
        pdip_core::capture::emit("spa/ear-tags", |s| {
            s.put_usize(ear_tag.len());
            for t in &ear_tag {
                s.put_usize(t.bits);
                s.put_u64(t.value);
            }
            for v in 0..n {
                s.put_u64(node_ear[v].value);
                match node_pred[v] {
                    Some(p) => {
                        s.put_bool(true);
                        s.put_u64(p.value);
                    }
                    None => s.put_bool(false),
                }
            }
        });
        // Edge labels: (host_tag, guest_tag, guest-side endpoint) for
        // connecting edges, (host_tag,) for single-edge ears.
        #[derive(Clone, Copy, PartialEq)]
        enum EdgeClass {
            SubEarPath,
            Connecting { host: Tag, guest: Tag, guest_side: NodeId },
            SingleEdgeEar { host: Option<Tag> },
        }
        let mut class: Vec<EdgeClass> = vec![EdgeClass::SubEarPath; g.m()];
        for (i, (p, host)) in ears.iter().enumerate() {
            if i == 0 {
                continue;
            }
            let host_tag = host.and_then(|h| ear_tag.get(h).copied()).unwrap_or(ear_tag[0]);
            if p.len() < 2 {
                continue; // degenerate committed ear (cheats only)
            }
            if p.len() == 2 {
                if let Some(e) = g.edge_between(p[0], p[1]) {
                    class[e] = EdgeClass::SingleEdgeEar { host: Some(host_tag) };
                }
            } else {
                for (a, b) in [(p[0], p[1]), (p[p.len() - 1], p[p.len() - 2])] {
                    if let Some(e) = g.edge_between(a, b) {
                        class[e] = EdgeClass::Connecting {
                            host: host_tag,
                            guest: ear_tag[i],
                            guest_side: b,
                        };
                    }
                }
            }
        }
        for &e in &com.disguised {
            // The cheat has no real host; it forges the first endpoint's
            // home tag as the host tag.
            class[e] = EdgeClass::SingleEdgeEar { host: Some(node_ear[g.edge(e).u]) };
        }
        // Membership evidence: the set of ear tags each node can prove it
        // lies on (node-local: its own label + incident edge labels).
        let onset = |v: NodeId| -> Vec<Tag> {
            let mut set = vec![node_ear[v]];
            for e in g.incident_edges(v) {
                if let EdgeClass::Connecting { guest, guest_side, .. } = class[e] {
                    if guest_side != v {
                        set.push(guest);
                    }
                }
            }
            set
        };
        // Checks at every node.
        let mut pos_in_subear = vec![0usize; n];
        for se in &sub_ear {
            for (i, &v) in se.iter().enumerate() {
                pos_in_subear[v] = i;
            }
        }
        for v in 0..n {
            let se = &sub_ear[home[v]];
            let my_pos = pos_in_subear[v];
            let i_am_subear_end = my_pos == 0 || my_pos + 1 == se.len();
            // Same (ear, pred) along the sub-ear.
            for w in [my_pos.checked_sub(1), (my_pos + 1 < se.len()).then_some(my_pos + 1)]
                .into_iter()
                .flatten()
            {
                let u = se[w];
                rej.check(v, node_ear[u] == node_ear[v] && node_pred[u] == node_pred[v], || {
                    "spa: ear labels differ along sub-ear".into()
                });
            }
            let my_onset = onset(v);
            for e in g.incident_edges(v) {
                let u = g.edge(e).other(v);
                match class[e] {
                    EdgeClass::Connecting { host, guest, guest_side } => {
                        if guest_side == v {
                            // Guest side: I am my sub-ear's endpoint, my
                            // tags match the edge's claim.
                            rej.check(v, i_am_subear_end, || {
                                "spa: connecting edge at a non-endpoint".into()
                            });
                            rej.check(v, node_ear[v] == guest, || "spa: guest tag mismatch".into());
                            rej.check(v, node_pred[v] == Some(host), || {
                                "spa: pred_ear does not match connecting host".into()
                            });
                        } else {
                            // Host side: I must lie on the host ear's path.
                            rej.check(v, my_onset.contains(&host), || {
                                "spa: attach point not on the host ear".into()
                            });
                        }
                    }
                    EdgeClass::SingleEdgeEar { host } => {
                        let Some(h) = host else {
                            rej.reject_malformed(v, "spa: single-edge ear without host tag");
                            continue;
                        };
                        rej.check(v, my_onset.contains(&h), || {
                            "spa: single-edge ear endpoint not on host ear".into()
                        });
                    }
                    EdgeClass::SubEarPath => {
                        rej.check(v, home[u] == home[v], || {
                            "spa: unclassified edge leaves the sub-ear".into()
                        });
                    }
                }
            }
        }

        drop(stage2);

        // ---- Condition (3): per host ear, nesting of hosted arcs ----
        let _stage3 = span(rec, 0, SpanId::at("series-parallel/stage", 3));
        let mut per_round_max = [0usize; 3];
        // (host, guest) for every hosted ear, grouped by host and ascending
        // in the guest within a host.
        let mut hosted: Vec<(usize, usize)> =
            ears.iter().enumerate().skip(1).filter_map(|(j, (_, h))| h.map(|h| (h, j))).collect();
        hosted.sort_unstable();
        let mut next_hosted = 0;
        // Node → position on the current host path (`usize::MAX` off it).
        let mut pos = vec![usize::MAX; n];
        for (i, (p, _)) in ears.iter().enumerate() {
            let first = next_hosted;
            while hosted.get(next_hosted).is_some_and(|&(h, _)| h == i) {
                next_hosted += 1;
            }
            if p.is_empty() {
                continue; // degenerate committed ear (cheats only)
            }
            // Host path plus virtual arcs from each hosted ear. A node a
            // cheat repeats on the path keeps its last position.
            for (k, &v) in p.iter().enumerate() {
                pos[v] = k;
            }
            let mut flat = Graph::new(p.len());
            for k in 0..p.len() - 1 {
                flat.add_edge(k, k + 1);
            }
            let mut ok = true;
            for &(_, j) in &hosted[first..next_hosted] {
                let q = &ears[j].0;
                let Some((&a, &b)) = q.first().zip(q.last()) else {
                    ok = false; // degenerate hosted ear
                    continue;
                };
                match (pos[a], pos[b]) {
                    (ra, rb) if ra != usize::MAX && rb != usize::MAX && ra != rb => {
                        if ra.abs_diff(rb) > 1 && !flat.has_edge(ra, rb) {
                            flat.add_edge(ra, rb);
                        }
                    }
                    _ => ok = false,
                }
            }
            for &v in p {
                pos[v] = usize::MAX;
            }
            if !ok {
                rej.reject_malformed(p[0], "spa: hosted ear endpoints not on host");
                continue;
            }
            if flat.n() < 2 {
                continue;
            }
            let witness: Vec<NodeId> = (0..flat.n()).collect();
            let is_yes = pdip_graph::is_path_outerplanar_with(&flat, &witness);
            let pop_inst = PopInstance { graph: flat, witness: Some(witness), is_yes };
            let sub = PathOuterplanarity::new(&pop_inst, self.params, self.transport);
            let sub_cheat = if is_yes { None } else { Some(PopCheat::NestingForceMark) };
            let res = sub.run(sub_cheat, rng.gen(), rec);
            for (k, b) in res.stats.per_round_max_bits.iter().enumerate() {
                per_round_max[k] = per_round_max[k].max(*b);
            }
            for ((lv, reason), kind) in res.rejections.into_iter().zip(res.kinds) {
                rej.reject_as(*p.get(lv).unwrap_or(&p[0]), kind, format!("spa/ear {i}: {reason}"));
            }
        }

        // ---- Size accounting ----
        let own = SizeStats {
            per_round_max_bits: vec![
                4 + per_round_max[0], // forest code + edge class flags ride round 1
                2 * (1 + self.tag_bits) + st.msg_bits() + per_round_max[1],
                per_round_max[2],
            ],
            per_round_total_bits: vec![],
            coin_bits: n * (st.coin_bits() + self.tag_bits),
            rounds: 5,
        };
        stats.merge_parallel(&own);
        let _ = forest;
        rej.into_result(stats).traced(rec, "series-parallel")
    }
}

/// A fake decomposition: BFS-tree paths with every later ear claiming the
/// first as host.
fn greedy_path_forest(g: &Graph) -> Vec<(Vec<NodeId>, Option<usize>)> {
    let tree = RootedForest::bfs_spanning_tree(g, 0);
    let mut used = vec![false; g.n()];
    let mut ears: Vec<(Vec<NodeId>, Option<usize>)> = Vec::new();
    let order = tree.bottom_up_order();
    for &leaf in order.iter() {
        if used[leaf] || !tree.children(leaf).is_empty() {
            continue;
        }
        let mut path = vec![leaf];
        used[leaf] = true;
        let mut cur = leaf;
        while let Some(p) = tree.parent(cur) {
            if used[p] {
                break;
            }
            used[p] = true;
            path.push(p);
            cur = p;
        }
        let host = if ears.is_empty() { None } else { Some(0) };
        ears.push((path, host));
    }
    ears
}

impl DipProtocol for SeriesParallel<'_> {
    fn name(&self) -> String {
        "series-parallel".into()
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
        vec!["hide-extra-edges".into(), "fake-forest".into()]
    }

    fn run_honest_traced(&self, seed: u64, rec: &dyn Recorder) -> RunResult {
        self.run(None, seed, rec)
    }

    fn run_cheat_traced(&self, strategy: usize, seed: u64, rec: &dyn Recorder) -> RunResult {
        self.run(Some(SPA_CHEATS[strategy]), seed, rec)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use pdip_graph::gen::no_instances::tw2_violator;
    use pdip_graph::gen::planar::random_planar;
    use pdip_graph::gen::sp::random_series_parallel;
    use pdip_obs::NoopRecorder;

    /// The greedy hiding as it was before one bridge pass per deletion:
    /// every candidate edge rebuilds the kept graph and tests its
    /// connectivity. Kept as the differential oracle of
    /// [`SeriesParallel::commitment`].
    fn reference_commitment(g: &Graph, cheat: Option<SpaCheat>) -> Commitment {
        let subgraph = |keep: &[bool]| {
            let mut h = Graph::new(g.n());
            for (e, edge) in g.edges().iter().enumerate() {
                if keep[e] {
                    h.add_edge(edge.u, edge.v);
                }
            }
            h
        };
        let decomposed = |tree: &pdip_graph::SpTree, disguised: Vec<usize>| {
            let d = EarDecomposition::from_sp_tree(tree);
            Commitment { ears: d.ears.into_iter().map(|e| (e.path, e.host)).collect(), disguised }
        };
        if let Some(tree) = pdip_graph::sp_tree(g) {
            return decomposed(&tree, Vec::new());
        }
        if cheat == Some(SpaCheat::FakeForest) {
            return Commitment { ears: greedy_path_forest(g), disguised: Vec::new() };
        }
        let mut removed: Vec<usize> = Vec::new();
        let mut keep = vec![true; g.m()];
        loop {
            if let Some(tree) = pdip_graph::sp_tree(&subgraph(&keep)) {
                return decomposed(&tree, removed);
            }
            let next = (0..g.m()).find(|&e| {
                if !keep[e] {
                    return false;
                }
                keep[e] = false;
                let still = subgraph(&keep).is_connected();
                keep[e] = true;
                still
            });
            match next {
                Some(e) => {
                    keep[e] = false;
                    removed.push(e);
                }
                None => return Commitment { ears: greedy_path_forest(g), disguised: removed },
            }
        }
    }

    /// A `K4` with every edge subdivided `sub` times, hung off a path.
    fn k4_subdivision(sub: usize, tail: usize) -> Graph {
        let mut g = Graph::new(4);
        for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            let mut prev = a;
            for _ in 0..sub {
                let mid = g.add_node();
                g.add_edge(prev, mid);
                prev = mid;
            }
            g.add_edge(prev, b);
        }
        let mut prev = 3;
        for _ in 0..tail {
            let v = g.add_node();
            g.add_edge(prev, v);
            prev = v;
        }
        g
    }

    /// A random simple graph on `n` nodes with edge probability `p`
    /// (possibly disconnected).
    fn random_graph(n: usize, p: f64, rng: &mut SmallRng) -> Graph {
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                if rng.gen_bool(p) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    #[test]
    fn commitment_matches_the_per_candidate_hiding() {
        let mut rng = SmallRng::seed_from_u64(113);
        let mut graphs: Vec<Graph> = Vec::new();
        for size in [1usize, 3, 10, 40, 120] {
            graphs.push(random_series_parallel(size, &mut rng).graph);
        }
        for (blocks, sub) in [(1usize, 0usize), (2, 1), (4, 2), (8, 0)] {
            graphs.push(tw2_violator(blocks, sub, &mut rng));
        }
        for (sub, tail) in [(0usize, 0usize), (1, 2), (3, 5)] {
            graphs.push(k4_subdivision(sub, tail));
        }
        for n in [6usize, 15, 30] {
            graphs.push(random_planar(n, 0.7, &mut rng).graph);
        }
        for _ in 0..40 {
            let n = rng.gen_range(2..9);
            graphs.push(random_graph(n, rng.gen_range(0.2..0.9), &mut rng));
        }
        for g in &graphs {
            let inst = SpaInstance { graph: g.clone(), is_yes: pdip_graph::is_series_parallel(g) };
            let p = SeriesParallel::new(&inst, PopParams::default(), Transport::Native);
            for cheat in [None, Some(SpaCheat::HideExtraEdges)] {
                let (got, want) = (p.commitment(cheat), reference_commitment(g, cheat));
                assert_eq!(got.ears, want.ears, "ears of {cheat:?} on {:?}", g.edges());
                assert_eq!(got.disguised, want.disguised, "{cheat:?} on {:?}", g.edges());
            }
        }
    }

    #[test]
    fn perfect_completeness() {
        let mut rng = SmallRng::seed_from_u64(111);
        for size in [1usize, 4, 15, 60] {
            for _ in 0..3 {
                let gen = random_series_parallel(size, &mut rng);
                let inst = SpaInstance { graph: gen.graph, is_yes: true };
                let p = SeriesParallel::new(&inst, PopParams::default(), Transport::Native);
                let res = p.run_honest(rng.gen());
                assert!(res.accepted(), "size={size}: {:?}", res.rejections.first());
            }
        }
    }

    #[test]
    fn k4_gadget_rejected() {
        let mut rng = SmallRng::seed_from_u64(112);
        for cheat in SPA_CHEATS {
            let mut accepted = 0;
            for seed in 0..40 {
                let g = tw2_violator(2, 1, &mut rng);
                let inst = SpaInstance { graph: g, is_yes: false };
                let p = SeriesParallel::new(&inst, PopParams::default(), Transport::Native);
                if p.run(Some(cheat), seed, &NoopRecorder).accepted() {
                    accepted += 1;
                }
            }
            assert!(accepted <= 4, "{cheat:?} accepted {accepted}/40");
        }
    }

    #[test]
    fn plain_k4_rejected() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let inst = SpaInstance { graph: g, is_yes: false };
        let p = SeriesParallel::new(&inst, PopParams::default(), Transport::Native);
        let mut accepted = 0;
        for seed in 0..60 {
            if p.run(Some(SpaCheat::HideExtraEdges), seed, &NoopRecorder).accepted() {
                accepted += 1;
            }
        }
        assert!(accepted <= 6, "K4 accepted {accepted}/60");
    }
}
