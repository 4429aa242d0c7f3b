//! Series-parallel recognition and SP decomposition trees.
//!
//! The paper (§8) treats *series-parallel* graphs in the two-terminal sense
//! of Eppstein's nested-ear-decomposition characterization: a connected
//! graph is series-parallel iff it can be built from single edges by series
//! and parallel compositions (for some choice of terminals), iff it admits a
//! nested ear decomposition (Lemma 8.1), and a graph has treewidth ≤ 2 iff
//! every biconnected component is series-parallel (Lemma 8.2).
//!
//! Recognition uses the classical confluent reduction system: repeatedly
//! merge parallel edges and contract degree-2 vertices; the graph is
//! series-parallel iff it reduces to a single edge. The reduction history is
//! recorded as an [`SpTree`] whose leaves are the original edges — the
//! honest prover derives its nested ear decomposition
//! ([`crate::ear::EarDecomposition`]) from this tree.

use crate::biconnected::BiconnectedComponents;
use crate::graph::{EdgeId, Graph, NodeId};
use std::collections::HashMap;

/// A node of an SP decomposition tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpNode {
    /// An original edge of the graph.
    Leaf {
        /// The original edge id.
        edge: EdgeId,
    },
    /// Series composition: `children.0` spans `s`–`mid`, `children.1` spans
    /// `mid`–`t`.
    Series {
        /// The merged middle terminal.
        mid: NodeId,
        /// The two composed subtrees (indices into [`SpTree::nodes`]).
        children: (usize, usize),
    },
    /// Parallel composition of two subtrees over the same terminal pair.
    Parallel {
        /// The two composed subtrees (indices into [`SpTree::nodes`]).
        children: (usize, usize),
    },
}

/// An SP decomposition tree of a connected series-parallel graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpTree {
    /// All tree nodes; children indices point into this vector.
    pub nodes: Vec<SpTreeEntry>,
    /// Index of the root node.
    pub root: usize,
}

/// A tree node together with its (unordered) terminals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpTreeEntry {
    /// The composition kind and children.
    pub node: SpNode,
    /// One terminal.
    pub s: NodeId,
    /// The other terminal.
    pub t: NodeId,
}

impl SpTree {
    /// The terminals of node `i`.
    pub fn terminals(&self, i: usize) -> (NodeId, NodeId) {
        (self.nodes[i].s, self.nodes[i].t)
    }

    /// The spine of node `i` starting from terminal `from`: the unique
    /// path from `from` to the other terminal that stays on the "first
    /// branch" of every parallel composition. Returns the vertex sequence.
    ///
    /// Walks the spine's tree nodes once with an explicit stack, writing
    /// each vertex once: O(spine length + parallel nodes passed).
    ///
    /// # Panics
    /// Panics if `from` is not a terminal of node `i`.
    pub fn spine(&self, i: usize, from: NodeId) -> Vec<NodeId> {
        let entry = &self.nodes[i];
        assert!(from == entry.s || from == entry.t, "{from} is not a terminal of node {i}");
        let mut path = vec![from];
        // (tree node, the terminal its spine starts from), in path order
        // from the top of the stack.
        let mut stack = vec![(i, from)];
        while let Some((j, from)) = stack.pop() {
            let entry = &self.nodes[j];
            match entry.node {
                SpNode::Leaf { .. } => path.push(if from == entry.s { entry.t } else { entry.s }),
                SpNode::Parallel { children } => stack.push((children.0, from)),
                SpNode::Series { mid, children } => {
                    let (first, second) = self.series_order(children, from);
                    stack.push((second, mid));
                    stack.push((first, from));
                }
            }
        }
        path
    }

    /// The children of a series node in path order from terminal `from`:
    /// the child with `from` as a terminal comes first.
    pub(crate) fn series_order(&self, children: (usize, usize), from: NodeId) -> (usize, usize) {
        let (c0s, c0t) = self.terminals(children.0);
        if c0s == from || c0t == from {
            children
        } else {
            (children.1, children.0)
        }
    }

    /// The set of original edge ids in the subtree of node `i`.
    pub fn edges_in_subtree(&self, i: usize) -> Vec<EdgeId> {
        let mut out = Vec::new();
        let mut stack = vec![i];
        while let Some(j) = stack.pop() {
            match self.nodes[j].node {
                SpNode::Leaf { edge } => out.push(edge),
                SpNode::Series { children, .. } | SpNode::Parallel { children } => {
                    stack.push(children.0);
                    stack.push(children.1);
                }
            }
        }
        out
    }
}

/// Multigraph edge used during reduction.
#[derive(Debug, Clone, Copy)]
struct MEdge {
    u: NodeId,
    v: NodeId,
    sp: usize, // SP tree node index
    alive: bool,
}

impl MEdge {
    fn other(&self, v: NodeId) -> NodeId {
        if self.u == v {
            self.v
        } else {
            self.u
        }
    }
}

/// Attempts to recognize connected `g` as a (two-terminal) series-parallel
/// graph, returning its SP decomposition tree on success.
///
/// Returns `None` if `g` is empty, disconnected, or not series-parallel.
///
/// The worklist reduction merges a parallel pair as soon as it appears.
/// Since `g` is simple, only a series reduction at `v` can make one
/// (its new edge `x`–`y` beside a live `x`–`y` edge), and `y`, pushed
/// last, is the next node popped: so at most one pair is ever pending,
/// and it is merged at that pop. A pop is then O(1) plus the dead
/// incidence entries it drops, and the whole reduction is O(n + m)
/// expected (one hash lookup per merged edge).
///
/// # Examples
///
/// ```
/// use pdip_graph::{Graph, sp_tree};
///
/// let triangle = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
/// assert!(sp_tree(&triangle).is_some());
///
/// let k4 = Graph::from_edges(4, [(0,1),(0,2),(0,3),(1,2),(1,3),(2,3)]);
/// assert!(sp_tree(&k4).is_none());
/// ```
pub fn sp_tree(g: &Graph) -> Option<SpTree> {
    if g.m() == 0 || !g.is_connected() {
        return None;
    }
    let n = g.n();
    let mut nodes: Vec<SpTreeEntry> = Vec::with_capacity(2 * g.m());
    let mut medges: Vec<MEdge> = Vec::with_capacity(2 * g.m());
    // incidence[v] = medge ids, ascending (merged edges get fresh, larger
    // ids), compacted only when v is about to be contracted.
    let mut incidence: Vec<Vec<usize>> = vec![Vec::new(); n];
    // The live edge between each adjacent pair.
    let mut between: HashMap<(NodeId, NodeId), usize> = HashMap::with_capacity(g.m());
    for (id, e) in g.edges().iter().enumerate() {
        nodes.push(SpTreeEntry { node: SpNode::Leaf { edge: id }, s: e.u, t: e.v });
        medges.push(MEdge { u: e.u, v: e.v, sp: id, alive: true });
        incidence[e.u].push(id);
        incidence[e.v].push(id);
        between.insert(e.normalized(), id);
    }
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut alive_edges = g.m();
    let mut worklist: Vec<NodeId> = (0..n).collect();
    // The parallel pair (older, newer) the last series reduction made at
    // the node on top of the worklist.
    let mut pending: Option<(usize, usize)> = None;

    while let Some(v) = worklist.pop() {
        if let Some((older, newer)) = pending.take() {
            // Parallel reduction: merge the pair into one edge.
            debug_assert!(medges[newer].u == v || medges[newer].v == v, "{v} is not y");
            let other = medges[newer].other(v);
            let sp = nodes.len();
            nodes.push(SpTreeEntry {
                node: SpNode::Parallel { children: (medges[older].sp, medges[newer].sp) },
                s: v,
                t: other,
            });
            medges[older].alive = false;
            medges[newer].alive = false;
            let id = medges.len();
            medges.push(MEdge { u: v, v: other, sp, alive: true });
            incidence[v].push(id);
            incidence[other].push(id);
            between.insert(pair(v, other), id);
            degree[v] -= 1;
            degree[other] -= 1;
            alive_edges -= 1;
            // Both endpoints' degrees dropped; either may now admit a
            // series reduction.
            worklist.push(other);
            worklist.push(v);
            continue;
        }
        // Series reduction: v has exactly two live edges, to distinct
        // others (the live graph is simple here).
        if degree[v] != 2 {
            continue;
        }
        incidence[v].retain(|&e| medges[e].alive);
        debug_assert_eq!(incidence[v].len(), 2);
        let (e1, e2) = (incidence[v][0], incidence[v][1]);
        let (x, y) = (medges[e1].other(v), medges[e2].other(v));
        let sp = nodes.len();
        nodes.push(SpTreeEntry {
            node: SpNode::Series { mid: v, children: (medges[e1].sp, medges[e2].sp) },
            s: x,
            t: y,
        });
        medges[e1].alive = false;
        medges[e2].alive = false;
        between.remove(&pair(v, x));
        between.remove(&pair(v, y));
        let id = medges.len();
        medges.push(MEdge { u: x, v: y, sp, alive: true });
        incidence[x].push(id);
        incidence[y].push(id);
        if let Some(older) = between.insert(pair(x, y), id) {
            pending = Some((older, id));
        }
        degree[v] = 0;
        alive_edges -= 1;
        worklist.push(x);
        worklist.push(y);
    }
    if alive_edges != 1 {
        return None;
    }
    let last = medges.iter().rposition(|e| e.alive).expect("one live edge");
    let root = medges[last].sp;
    Some(SpTree { nodes, root })
}

/// The key of the unordered node pair `{u, v}`.
fn pair(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    (u.min(v), u.max(v))
}

/// Whether connected `g` is a (two-terminal) series-parallel graph.
pub fn is_series_parallel(g: &Graph) -> bool {
    sp_tree(g).is_some()
}

/// Whether `g` has treewidth at most 2, via Lemma 8.2 of the paper: every
/// biconnected component must be series-parallel. Forests (treewidth ≤ 1)
/// are accepted.
pub fn is_treewidth_at_most_2(g: &Graph) -> bool {
    if g.m() == 0 {
        return true;
    }
    let bcc = BiconnectedComponents::compute(g);
    let mut local = vec![usize::MAX; g.n()];
    for c in 0..bcc.count() {
        let nodes = bcc.component_nodes(g, c);
        if nodes.len() <= 2 {
            continue; // a single edge is series-parallel
        }
        let h = g.subgraph_on(&nodes, &bcc.components[c], &mut local);
        if !is_series_parallel(&h) {
            return false;
        }
    }
    true
}

/// Differential oracles for [`sp_tree`], [`SpTree::spine`] and
/// [`EarDecomposition::from_sp_tree`]: the straightforward versions,
/// which rescan a node's whole incidence list on every pop and copy
/// spines recursively (quadratic on hubs and deep spines).
#[cfg(test)]
mod reference {
    use super::*;
    use crate::ear::{Ear, EarDecomposition};

    /// Groups every popped node's live edges by the other endpoint.
    pub fn sp_tree(g: &Graph) -> Option<SpTree> {
        if g.m() == 0 || !g.is_connected() {
            return None;
        }
        let n = g.n();
        let mut nodes: Vec<SpTreeEntry> = Vec::with_capacity(2 * g.m());
        let mut medges: Vec<MEdge> = Vec::with_capacity(2 * g.m());
        // incidence[v] = medge ids (lazily cleaned).
        let mut incidence: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, e) in g.edges().iter().enumerate() {
            nodes.push(SpTreeEntry { node: SpNode::Leaf { edge: id }, s: e.u, t: e.v });
            medges.push(MEdge { u: e.u, v: e.v, sp: id, alive: true });
            incidence[e.u].push(id);
            incidence[e.v].push(id);
        }
        let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
        let mut alive_edges = g.m();
        let mut worklist: Vec<NodeId> = (0..n).collect();

        let live = |incidence: &Vec<Vec<usize>>, medges: &Vec<MEdge>, v: NodeId| -> Vec<usize> {
            incidence[v].iter().copied().filter(|&e| medges[e].alive).collect()
        };

        while let Some(v) = worklist.pop() {
            // Compact the incidence list of v.
            let inc = live(&incidence, &medges, v);
            incidence[v] = inc.clone();
            // Parallel reductions: group by the other endpoint (BTreeMap keeps
            // the reduction order deterministic).
            let mut by_other: std::collections::BTreeMap<NodeId, Vec<usize>> =
                std::collections::BTreeMap::new();
            for &e in &inc {
                let other = if medges[e].u == v { medges[e].v } else { medges[e].u };
                by_other.entry(other).or_default().push(e);
            }
            let mut did_parallel = false;
            for (other, group) in by_other.iter() {
                if group.len() >= 2 {
                    // Merge all edges of the group into one.
                    let mut acc = group[0];
                    for &e in &group[1..] {
                        let sp = nodes.len();
                        nodes.push(SpTreeEntry {
                            node: SpNode::Parallel { children: (medges[acc].sp, medges[e].sp) },
                            s: v,
                            t: *other,
                        });
                        medges[acc].alive = false;
                        medges[e].alive = false;
                        let id = medges.len();
                        medges.push(MEdge { u: v, v: *other, sp, alive: true });
                        incidence[v].push(id);
                        incidence[*other].push(id);
                        degree[v] -= 1;
                        degree[*other] -= 1;
                        alive_edges -= 1;
                        acc = id;
                    }
                    // The neighbor's degree dropped; it may now admit a series
                    // reduction of its own.
                    worklist.push(*other);
                    did_parallel = true;
                }
            }
            if did_parallel {
                worklist.push(v);
                continue;
            }
            // Series reduction: v has exactly two live edges to distinct others.
            if degree[v] == 2 {
                let inc = live(&incidence, &medges, v);
                debug_assert_eq!(inc.len(), 2);
                let (e1, e2) = (inc[0], inc[1]);
                let x = if medges[e1].u == v { medges[e1].v } else { medges[e1].u };
                let y = if medges[e2].u == v { medges[e2].v } else { medges[e2].u };
                if x != y {
                    let sp = nodes.len();
                    nodes.push(SpTreeEntry {
                        node: SpNode::Series { mid: v, children: (medges[e1].sp, medges[e2].sp) },
                        s: x,
                        t: y,
                    });
                    medges[e1].alive = false;
                    medges[e2].alive = false;
                    let id = medges.len();
                    medges.push(MEdge { u: x, v: y, sp, alive: true });
                    incidence[x].push(id);
                    incidence[y].push(id);
                    degree[v] = 0;
                    alive_edges -= 1;
                    worklist.push(x);
                    worklist.push(y);
                }
                // x == y is impossible here: parallel edges to the same
                // neighbor were merged above, leaving degree 1.
            }
        }
        if alive_edges != 1 {
            return None;
        }
        let last = medges.iter().rposition(|e| e.alive).expect("one live edge");
        let root = medges[last].sp;
        Some(SpTree { nodes, root })
    }

    /// Recursive spine that concatenates the children's spines.
    pub fn spine(tree: &SpTree, i: usize, from: NodeId) -> Vec<NodeId> {
        let entry = &tree.nodes[i];
        assert!(from == entry.s || from == entry.t, "{from} is not a terminal of node {i}");
        let to = if from == entry.s { entry.t } else { entry.s };
        match entry.node {
            SpNode::Leaf { .. } => vec![from, to],
            SpNode::Parallel { children } => spine(tree, children.0, from),
            SpNode::Series { mid, children } => {
                let (c0s, c0t) = tree.terminals(children.0);
                let (first, second) = if c0s == from || c0t == from {
                    (children.0, children.1)
                } else {
                    (children.1, children.0)
                };
                let mut path = spine(tree, first, from);
                let rest = spine(tree, second, mid);
                path.extend_from_slice(&rest[1..]);
                path
            }
        }
    }

    /// [`EarDecomposition::from_sp_tree`] over the recursive spine.
    pub fn from_sp_tree(tree: &SpTree) -> EarDecomposition {
        let mut ears: Vec<Ear> = Vec::new();
        let (root_s, _) = tree.terminals(tree.root);
        ears.push(Ear { path: spine(tree, tree.root, root_s), host: None });
        let mut stack: Vec<(usize, usize, NodeId)> = vec![(tree.root, 0, root_s)];
        while let Some((i, ear, from)) = stack.pop() {
            match tree.nodes[i].node {
                SpNode::Leaf { .. } => {}
                SpNode::Series { mid, children } => {
                    let (c0s, c0t) = tree.terminals(children.0);
                    let (first, second) = if c0s == from || c0t == from {
                        (children.0, children.1)
                    } else {
                        (children.1, children.0)
                    };
                    stack.push((first, ear, from));
                    stack.push((second, ear, mid));
                }
                SpNode::Parallel { .. } => {
                    let mut branches = Vec::new();
                    branches_of(tree, i, &mut branches);
                    stack.push((branches[0], ear, from));
                    for &b in &branches[1..] {
                        let new_ear = ears.len();
                        ears.push(Ear { path: spine(tree, b, from), host: Some(ear) });
                        stack.push((b, new_ear, from));
                    }
                }
            }
        }
        EarDecomposition { ears }
    }

    fn branches_of(tree: &SpTree, i: usize, out: &mut Vec<usize>) {
        match tree.nodes[i].node {
            SpNode::Parallel { children } => {
                branches_of(tree, children.0, out);
                branches_of(tree, children.1, out);
            }
            _ => out.push(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ear::EarDecomposition;
    use crate::gen::no_instances::tw2_violator;
    use crate::gen::planar::random_planar;
    use crate::gen::sp::{random_series_parallel, random_treewidth2};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Checks `g` against the reference reduction; on an SP tree, also
    /// every spine from both terminals and the ear decomposition.
    fn assert_matches_reference(g: &Graph) -> bool {
        let tree = sp_tree(g);
        assert_eq!(tree, reference::sp_tree(g), "sp_tree of {:?}", g.edges());
        let Some(tree) = tree else { return false };
        for i in 0..tree.nodes.len() {
            let (s, t) = tree.terminals(i);
            for from in [s, t] {
                assert_eq!(
                    tree.spine(i, from),
                    reference::spine(&tree, i, from),
                    "spine({i}, {from})"
                );
            }
        }
        assert_eq!(EarDecomposition::from_sp_tree(&tree), reference::from_sp_tree(&tree));
        true
    }

    /// Checks `g`, its biconnected blocks, and every graph of a greedy
    /// hiding (drop the first non-bridge edge until series-parallel).
    fn assert_family_matches_reference(g: &Graph) {
        let bcc = BiconnectedComponents::compute(g);
        let mut local = vec![usize::MAX; g.n()];
        for c in 0..bcc.count() {
            let nodes = bcc.component_nodes(g, c);
            assert_matches_reference(&g.subgraph_on(&nodes, &bcc.components[c], &mut local));
        }
        let mut kept: Vec<EdgeId> = (0..g.m()).collect();
        loop {
            let sub = Graph::from_edges(g.n(), kept.iter().map(|&e| (g.edge(e).u, g.edge(e).v)));
            if assert_matches_reference(&sub) || !sub.is_connected() {
                return;
            }
            let bcc = BiconnectedComponents::compute(&sub);
            match (0..sub.m()).find(|&i| bcc.components[bcc.component_of_edge[i]].len() >= 2) {
                Some(i) => {
                    kept.remove(i);
                }
                None => return,
            }
        }
    }

    #[test]
    fn reduction_spines_and_ears_match_the_reference() {
        let mut rng = SmallRng::seed_from_u64(7);
        for size in [1usize, 2, 5, 20, 80, 300] {
            for _ in 0..4 {
                assert!(assert_matches_reference(&random_series_parallel(size, &mut rng).graph));
            }
        }
        for _ in 0..4 {
            assert_family_matches_reference(&random_treewidth2(6, 8, &mut rng).graph);
        }
        for (blocks, sub) in [(1usize, 0usize), (2, 1), (5, 2), (10, 0)] {
            assert_family_matches_reference(&tw2_violator(blocks, sub, &mut rng));
        }
        for sub in 0..4 {
            let mut g = Graph::new(4);
            for e in k4().edges() {
                let mut prev = e.u;
                for _ in 0..sub {
                    let mid = g.add_node();
                    g.add_edge(prev, mid);
                    prev = mid;
                }
                g.add_edge(prev, e.v);
            }
            assert_family_matches_reference(&g);
        }
        for n in [5usize, 12, 30, 60] {
            assert_family_matches_reference(&random_planar(n, 0.6, &mut rng).graph);
        }
        for _ in 0..200 {
            let n = rng.gen_range(2..9);
            let p = rng.gen_range(0.2..0.9);
            let mut g = Graph::new(n);
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_bool(p) {
                        g.add_edge(u, v);
                    }
                }
            }
            assert_family_matches_reference(&g);
        }
    }

    #[test]
    fn subgraph_on_matches_the_induced_subgraph_of_a_block() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = random_treewidth2(6, 8, &mut rng).graph;
        let bcc = BiconnectedComponents::compute(&g);
        let mut local = vec![usize::MAX; g.n()];
        for c in 0..bcc.count() {
            let nodes = bcc.component_nodes(&g, c);
            let mut edges = bcc.components[c].clone();
            edges.sort_unstable();
            let (want, _) = g.induced_subgraph(&nodes);
            assert_eq!(g.subgraph_on(&nodes, &edges, &mut local).edges(), want.edges());
        }
    }

    fn k4() -> Graph {
        Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn single_edge_is_sp() {
        let g = Graph::from_edges(2, [(0, 1)]);
        let t = sp_tree(&g).unwrap();
        assert!(matches!(t.nodes[t.root].node, SpNode::Leaf { edge: 0 }));
    }

    #[test]
    fn path_is_sp() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let t = sp_tree(&g).unwrap();
        let (s, tt) = t.terminals(t.root);
        let mut ends = [s, tt];
        ends.sort_unstable();
        assert_eq!(ends, [0, 4]);
        assert_eq!(t.spine(t.root, 0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cycle_is_sp() {
        for n in 3..10 {
            let g = Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)));
            assert!(is_series_parallel(&g), "C{n}");
        }
    }

    #[test]
    fn theta_graph_is_sp() {
        // Three internally disjoint paths between 0 and 1.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)]);
        assert!(is_series_parallel(&g));
    }

    #[test]
    fn k4_is_not_sp() {
        assert!(!is_series_parallel(&k4()));
    }

    #[test]
    fn k4_subdivision_is_not_sp() {
        let base = k4();
        let mut g = Graph::new(4);
        for e in base.edges() {
            let mid = g.add_node();
            g.add_edge(e.u, mid);
            g.add_edge(mid, e.v);
        }
        assert!(!is_series_parallel(&g));
        assert!(!is_treewidth_at_most_2(&g));
    }

    #[test]
    fn two_triangles_sharing_a_node_is_sp() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        assert!(is_series_parallel(&g));
    }

    #[test]
    fn three_triangles_at_one_node_not_ttsp_but_tw2() {
        let g = Graph::from_edges(
            7,
            [(0, 1), (1, 6), (6, 0), (2, 3), (3, 6), (6, 2), (4, 5), (5, 6), (6, 4)],
        );
        assert!(!is_series_parallel(&g));
        assert!(is_treewidth_at_most_2(&g));
    }

    #[test]
    fn star_is_not_ttsp_but_tw2() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert!(!is_series_parallel(&g));
        assert!(is_treewidth_at_most_2(&g));
    }

    #[test]
    fn k4_minus_edge_is_sp() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        assert!(is_series_parallel(&g));
        assert!(is_treewidth_at_most_2(&g));
    }

    #[test]
    fn disconnected_not_sp() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(sp_tree(&g).is_none());
    }

    #[test]
    fn sp_tree_covers_all_edges() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)]);
        let t = sp_tree(&g).unwrap();
        let mut leaves = t.edges_in_subtree(t.root);
        leaves.sort_unstable();
        assert_eq!(leaves, (0..g.m()).collect::<Vec<_>>());
    }

    #[test]
    fn spine_is_a_real_path() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (0, 5), (5, 3)]);
        let t = sp_tree(&g).unwrap();
        let (s, _) = t.terminals(t.root);
        let spine = t.spine(t.root, s);
        for w in spine.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "spine step ({}, {})", w[0], w[1]);
        }
    }

    #[test]
    fn wheel_not_tw2() {
        // Wheel W5 contains K4 as a minor; treewidth 3.
        let mut g = Graph::from_edges(5, (0..5).map(|i| (i, (i + 1) % 5)));
        let hub = g.add_node();
        for v in 0..5 {
            g.add_edge(v, hub);
        }
        assert!(!is_treewidth_at_most_2(&g));
    }

    #[test]
    fn big_nested_sp_graph() {
        // Recursive theta construction: replace an edge by two parallel
        // 2-paths, several times.
        let mut g = Graph::new(2);
        let mut frontier = vec![(0usize, 1usize)];
        g.add_edge(0, 1);
        for _ in 0..6 {
            let mut next = Vec::new();
            for (u, v) in frontier {
                let a = g.add_node();
                let b = g.add_node();
                g.add_edge(u, a);
                g.add_edge(a, v);
                g.add_edge(u, b);
                g.add_edge(b, v);
                next.push((u, a));
                next.push((b, v));
            }
            frontier = next;
        }
        assert!(is_series_parallel(&g));
        assert!(is_treewidth_at_most_2(&g));
    }
}
