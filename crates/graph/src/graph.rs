//! Core undirected graph representation.
//!
//! The distributed interactive proof (DIP) model operates on simple,
//! connected, undirected graphs whose nodes are anonymous: a node only sees
//! its incident edges through local *port numbers*. [`Graph`] stores a fixed
//! edge list and materializes a packed CSR (compressed sparse row) adjacency
//! on first query — see the crate docs for the build-then-freeze layout.
//! Port numbers are edge-insertion order per node, so the port number of an
//! incident edge is simply its index in the node's CSR row.
//!
//! Node and edge identifiers are plain indices ([`NodeId`], [`EdgeId`]).
//! They exist only on the "simulator side"; protocol verifiers never see
//! them (see `pdip_core::transcript::neighbor_labels`).

use std::fmt;
use std::sync::OnceLock;

/// Index of a node in a [`Graph`] (simulator-side identifier).
pub type NodeId = usize;

/// Index of an edge in a [`Graph`] (simulator-side identifier).
pub type EdgeId = usize;

/// An undirected edge, stored as the ordered pair of its endpoints as given
/// at insertion time. The insertion order of endpoints is meaningless for
/// the graph structure but is preserved so directed overlays
/// ([`crate::Orientation`]) can refer to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// First endpoint as inserted.
    pub u: NodeId,
    /// Second endpoint as inserted.
    pub v: NodeId,
}

impl Edge {
    /// The endpoint different from `x`.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint of the edge.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("node {x} is not an endpoint of edge ({}, {})", self.u, self.v)
        }
    }

    /// Whether `x` is one of the two endpoints.
    pub fn is_incident(&self, x: NodeId) -> bool {
        self.u == x || self.v == x
    }

    /// Endpoints normalized so the smaller id comes first.
    pub fn normalized(&self) -> (NodeId, NodeId) {
        (self.u.min(self.v), self.u.max(self.v))
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.u, self.v)
    }
}

/// Sentinel for "no half-edge" in the construction-time intrusive lists.
const NO_HALF: u32 = u32::MAX;

/// Degree at or below which a frozen `edge_between` uses a linear scan of
/// the port-ordered row instead of binary search in the sorted row: for
/// tiny rows the scan wins on branch predictability and cache locality.
const SCAN_THRESHOLD: usize = 8;

/// Frozen CSR adjacency: one contiguous `(neighbor, edge)` array indexed by
/// `offsets`, in two orders (ports for iteration, sorted for lookups).
#[derive(Debug, Clone)]
struct Csr {
    /// `offsets[v]..offsets[v + 1]` indexes node `v`'s row (length n + 1).
    offsets: Vec<u32>,
    /// Rows in port order (edge-insertion order per node).
    pairs: Vec<(NodeId, EdgeId)>,
    /// Rows sorted by neighbor id, for binary-search lookups.
    sorted: Vec<(NodeId, EdgeId)>,
}

impl Csr {
    /// Counting-sort construction over the edge list: two passes, no
    /// per-node allocation. Port order falls out of scanning edges in
    /// insertion order.
    fn build(n: usize, edges: &[Edge]) -> Csr {
        let mut offsets = vec![0u32; n + 1];
        for e in edges {
            offsets[e.u + 1] += 1;
            offsets[e.v + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut pairs = vec![(0, 0); 2 * edges.len()];
        for (id, e) in edges.iter().enumerate() {
            pairs[cursor[e.u] as usize] = (e.v, id);
            cursor[e.u] += 1;
            pairs[cursor[e.v] as usize] = (e.u, id);
            cursor[e.v] += 1;
        }
        let mut sorted = pairs.clone();
        for v in 0..n {
            sorted[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Csr { offsets, pairs, sorted }
    }

    #[inline]
    fn row(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.pairs[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    #[inline]
    fn sorted_row(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.sorted[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// A simple undirected graph with port-ordered adjacency.
///
/// Storage follows a *build-then-freeze* discipline: during construction the
/// graph keeps only the edge list plus per-node intrusive half-edge lists
/// (O(1) per `add_edge`, O(min-degree) membership checks). The packed CSR
/// rows are materialized lazily on the first full-adjacency query
/// ([`Graph::neighbors`] and friends) or explicitly via [`Graph::freeze`];
/// any later mutation simply discards them, so the frozen view can never go
/// stale.
///
/// # Examples
///
/// ```
/// use pdip_graph::Graph;
///
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// g.add_edge(2, 3);
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    edges: Vec<Edge>,
    /// degree[v], maintained incrementally (valid frozen or not).
    degree: Vec<u32>,
    /// first[v] = most recently added half-edge at `v` (`NO_HALF` if none).
    /// Half-edge `2e` sits at `edges[e].u`, half-edge `2e + 1` at
    /// `edges[e].v`.
    first: Vec<u32>,
    /// next[h] = next half-edge at the same node (`NO_HALF` terminates).
    next: Vec<u32>,
    /// Lazily frozen CSR rows; invalidated by every mutation.
    csr: OnceLock<Csr>,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            edges: Vec::new(),
            degree: vec![0; n],
            first: vec![NO_HALF; n],
            next: Vec::new(),
            csr: OnceLock::new(),
        }
    }

    /// Builds a graph from an explicit edge list over nodes `0..n`.
    ///
    /// # Panics
    /// Panics if an edge references a node `>= n`, is a self-loop, or
    /// duplicates a previous edge.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.degree.len()
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge and returns its id.
    ///
    /// # Panics
    /// Panics on self-loops, out-of-range endpoints, or parallel edges:
    /// DIP instances are simple graphs.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> EdgeId {
        assert!(u < self.n() && v < self.n(), "edge ({u}, {v}) out of range (n = {})", self.n());
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(!self.has_edge(u, v), "parallel edge ({u}, {v})");
        let id = self.edges.len();
        assert!(2 * id + 1 < NO_HALF as usize, "graph too large for u32 half-edge ids");
        self.edges.push(Edge { u, v });
        self.next.push(self.first[u]);
        self.first[u] = (2 * id) as u32;
        self.next.push(self.first[v]);
        self.first[v] = (2 * id + 1) as u32;
        self.degree[u] += 1;
        self.degree[v] += 1;
        self.csr.take();
        id
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.degree.push(0);
        self.first.push(NO_HALF);
        self.csr.take();
        self.degree.len() - 1
    }

    /// Forces materialization of the frozen CSR rows now (they are built
    /// lazily on first query otherwise). Idempotent; `&self` because the
    /// frozen view is a cache, not a structural change.
    pub fn freeze(&self) {
        let _ = self.csr_rows();
    }

    /// Whether the CSR rows are currently materialized.
    pub fn is_frozen(&self) -> bool {
        self.csr.get().is_some()
    }

    #[inline]
    fn csr_rows(&self) -> &Csr {
        self.csr.get_or_init(|| Csr::build(self.n(), &self.edges))
    }

    /// The edge with id `e`.
    ///
    /// # Panics
    /// Panics if `e >= self.m()`.
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e]
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.degree[v] as usize
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.degree.iter().max().map_or(0, |&d| d as usize)
    }

    /// Neighbors of `v` with edge ids, in port order. Freezes the graph.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        self.csr_rows().row(v)
    }

    /// Iterator over the neighbor node ids of `v`, in port order.
    pub fn neighbor_nodes(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(v).iter().map(|&(u, _)| u)
    }

    /// Iterator over the incident edge ids of `v`, in port order.
    pub fn incident_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.neighbors(v).iter().map(|&(_, e)| e)
    }

    /// Returns the id of the edge between `u` and `v`, if present.
    ///
    /// Frozen: binary search in the sorted row of the lower-degree endpoint
    /// (a linear scan for short rows). Unfrozen: an O(min-degree)
    /// half-edge walk — querying during construction does *not* trigger a
    /// freeze, so generators can interleave `add_edge` and `has_edge`
    /// without rebuilding rows.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        if let Some(csr) = self.csr.get() {
            if self.degree(a) <= SCAN_THRESHOLD {
                return csr.row(a).iter().find(|&&(w, _)| w == b).map(|&(_, e)| e);
            }
            let row = csr.sorted_row(a);
            let i = row.partition_point(|&(w, _)| w < b);
            return match row.get(i) {
                Some(&(w, e)) if w == b => Some(e),
                _ => None,
            };
        }
        let mut h = self.first[a];
        while h != NO_HALF {
            let e = (h >> 1) as usize;
            let edge = self.edges[e];
            let w = if h & 1 == 0 { edge.v } else { edge.u };
            if w == b {
                return Some(e);
            }
            h = self.next[h as usize];
        }
        None
    }

    /// Whether `u` and `v` are adjacent.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// Whether the graph is connected (the 0-node graph counts as connected).
    pub fn is_connected(&self) -> bool {
        if self.n() == 0 {
            return true;
        }
        crate::scratch::with_thread_scratch(|s| s.reach_count(self, 0)) == self.n()
    }

    /// Subgraph induced by `nodes`.
    ///
    /// Returns the induced graph together with the map from new ids to old
    /// ids (`new -> old`); nodes appear in the order given.
    ///
    /// # Panics
    /// Panics if `nodes` contains duplicates or out-of-range ids.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut old_to_new = vec![usize::MAX; self.n()];
        for (new, &old) in nodes.iter().enumerate() {
            assert!(old < self.n(), "node {old} out of range");
            assert_eq!(old_to_new[old], usize::MAX, "duplicate node {old}");
            old_to_new[old] = new;
        }
        let mut g = Graph::new(nodes.len());
        for e in &self.edges {
            let (nu, nv) = (old_to_new[e.u], old_to_new[e.v]);
            if nu != usize::MAX && nv != usize::MAX {
                g.add_edge(nu, nv);
            }
        }
        (g, nodes.to_vec())
    }

    /// A copy of the graph with an extra apex node adjacent to every
    /// original node. Used by the outerplanarity recognizer: `G` is
    /// outerplanar iff `G + apex` is planar.
    pub fn with_apex(&self) -> (Graph, NodeId) {
        let mut g = self.clone();
        let apex = g.add_node();
        for v in 0..self.n() {
            g.add_edge(v, apex);
        }
        (g, apex)
    }

    /// Checks the necessary planarity edge bound `m <= 3n - 6` (for `n >= 3`).
    pub fn satisfies_planar_edge_bound(&self) -> bool {
        self.n() < 3 || self.m() <= 3 * self.n() - 6
    }
}

/// Structural equality: same node count and same edge list (the CSR rows
/// and half-edge lists are derived state and never compared).
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.n() == other.n() && self.edges == other.edges
    }
}

impl Eq for Graph {}

/// An edge orientation overlaid on a [`Graph`].
///
/// `forward[e] == true` means edge `e` is directed `edge.u -> edge.v`
/// (in insertion order of endpoints), `false` means `edge.v -> edge.u`.
///
/// # Examples
///
/// ```
/// use pdip_graph::{Graph, Orientation};
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
/// // Orient everything from the smaller to the larger endpoint.
/// let o = Orientation::by(&g, |u, v| u < v);
/// assert_eq!(o.head(&g, 0), 1);
/// assert_eq!(o.tail(&g, 0), 0);
/// assert!(o.is_acyclic(&g));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Orientation {
    forward: Vec<bool>,
}

impl Orientation {
    /// Orients every edge `(u, v)` in endpoint-insertion order
    /// (i.e. all-forward).
    pub fn all_forward(g: &Graph) -> Self {
        Orientation { forward: vec![true; g.m()] }
    }

    /// Orients each edge `e = {u, v}` from `u` to `v` when
    /// `decide(e.u, e.v)` is true, from `v` to `u` otherwise.
    pub fn by(g: &Graph, decide: impl Fn(NodeId, NodeId) -> bool) -> Self {
        Orientation { forward: g.edges().iter().map(|e| decide(e.u, e.v)).collect() }
    }

    /// Head (target) of directed edge `e`.
    pub fn head(&self, g: &Graph, e: EdgeId) -> NodeId {
        let edge = g.edge(e);
        if self.forward[e] {
            edge.v
        } else {
            edge.u
        }
    }

    /// Tail (source) of directed edge `e`.
    pub fn tail(&self, g: &Graph, e: EdgeId) -> NodeId {
        let edge = g.edge(e);
        if self.forward[e] {
            edge.u
        } else {
            edge.v
        }
    }

    /// Flips the direction of edge `e`.
    pub fn flip(&mut self, e: EdgeId) {
        self.forward[e] = !self.forward[e];
    }

    /// Whether the directed graph defined by this orientation is acyclic.
    pub fn is_acyclic(&self, g: &Graph) -> bool {
        // Kahn's algorithm on the oriented edges.
        let mut indeg = vec![0usize; g.n()];
        for e in 0..g.m() {
            indeg[self.head(g, e)] += 1;
        }
        let mut queue: Vec<NodeId> = (0..g.n()).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0usize;
        while let Some(v) = queue.pop() {
            seen += 1;
            for &(_, e) in g.neighbors(v) {
                if self.tail(g, e) == v {
                    let h = self.head(g, e);
                    indeg[h] -= 1;
                    if indeg[h] == 0 {
                        queue.push(h);
                    }
                }
            }
        }
        seen == g.n()
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, g: &Graph, v: NodeId) -> usize {
        g.incident_edges(v).filter(|&e| self.tail(g, e) == v).count()
    }

    /// Out-edges of `v` in port order.
    pub fn out_edges<'g>(&'g self, g: &'g Graph, v: NodeId) -> impl Iterator<Item = EdgeId> + 'g {
        g.incident_edges(v).filter(move |&e| self.tail(g, e) == v)
    }

    /// In-edges of `v` in port order.
    pub fn in_edges<'g>(&'g self, g: &'g Graph, v: NodeId) -> impl Iterator<Item = EdgeId> + 'g {
        g.incident_edges(v).filter(move |&e| self.head(g, e) == v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn triangle_basics() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn ports_are_insertion_order() {
        let g = Graph::from_edges(4, [(1, 0), (1, 2), (1, 3)]);
        let nbrs: Vec<NodeId> = g.neighbor_nodes(1).collect();
        assert_eq!(nbrs, vec![0, 2, 3]);
        let edges: Vec<EdgeId> = g.incident_edges(1).collect();
        assert_eq!(edges, vec![0, 1, 2]);
    }

    #[test]
    fn freeze_is_lazy_and_mutation_thaws() {
        let mut g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        assert!(!g.is_frozen(), "queries so far should not have frozen");
        assert!(g.has_edge(0, 1)); // pre-freeze lookup path
        assert!(!g.is_frozen());
        assert_eq!(g.neighbors(1).len(), 2); // first row query freezes
        assert!(g.is_frozen());
        g.add_edge(0, 2);
        assert!(!g.is_frozen(), "mutation must discard the frozen rows");
        assert_eq!(g.neighbor_nodes(0).collect::<Vec<_>>(), vec![1, 2]);
        let w = g.add_node();
        assert!(!g.is_frozen());
        assert_eq!(g.degree(w), 0);
        assert!(g.neighbors(w).is_empty());
    }

    #[test]
    fn edge_between_on_high_degree_hub() {
        // Degree above SCAN_THRESHOLD exercises the binary-search path.
        let k = 3 * SCAN_THRESHOLD;
        let mut g = Graph::new(k + 1);
        let mut ids = Vec::new();
        for v in 1..=k {
            ids.push(g.add_edge(0, v));
        }
        // Pre-freeze half-edge walk.
        for v in 1..=k {
            assert_eq!(g.edge_between(0, v), Some(ids[v - 1]));
            assert_eq!(g.edge_between(v, 0), Some(ids[v - 1]));
        }
        g.freeze();
        for v in 1..=k {
            assert_eq!(g.edge_between(0, v), Some(ids[v - 1]));
            assert_eq!(g.edge_between(v, 0), Some(ids[v - 1]));
        }
        assert_eq!(g.edge_between(1, 2), None);
    }

    #[test]
    fn equality_ignores_freeze_state() {
        let a = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let b = Graph::from_edges(3, [(0, 1), (1, 2)]);
        a.freeze();
        assert_eq!(a, b);
        assert_ne!(a, Graph::from_edges(4, [(0, 1), (1, 2)]));
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge { u: 3, v: 7 };
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
        assert!(e.is_incident(3));
        assert!(!e.is_incident(4));
        assert_eq!(e.normalized(), (3, 7));
        assert_eq!(Edge { u: 7, v: 3 }.normalized(), (3, 7));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics() {
        Edge { u: 0, v: 1 }.other(2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn no_self_loops() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "parallel edge")]
    fn no_parallel_edges() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
    }

    #[test]
    fn disconnected_detected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(!g.is_connected());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let (h, map) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(h.n(), 3);
        assert_eq!(h.m(), 3); // (1,2), (2,3), (1,3)
        assert_eq!(map, vec![1, 2, 3]);
    }

    #[test]
    fn apex_augmentation() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let (h, apex) = g.with_apex();
        assert_eq!(apex, 3);
        assert_eq!(h.n(), 4);
        assert_eq!(h.m(), 2 + 3);
        for v in 0..3 {
            assert!(h.has_edge(v, apex));
        }
    }

    #[test]
    fn orientation_heads_tails() {
        let g = Graph::from_edges(3, [(0, 1), (2, 1)]);
        let o = Orientation::all_forward(&g);
        assert_eq!(o.tail(&g, 0), 0);
        assert_eq!(o.head(&g, 0), 1);
        assert_eq!(o.tail(&g, 1), 2);
        assert_eq!(o.head(&g, 1), 1);
        let mut o2 = o.clone();
        o2.flip(1);
        assert_eq!(o2.tail(&g, 1), 1);
        assert_eq!(o2.head(&g, 1), 2);
    }

    #[test]
    fn orientation_acyclicity() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        // 0->1, 1->2, 2->0 is a directed cycle.
        let cyc = Orientation::all_forward(&g);
        assert!(!cyc.is_acyclic(&g));
        // Orient by node id: 0->1, 1->2, 0->2 is acyclic.
        let dag = Orientation::by(&g, |u, v| u < v);
        assert!(dag.is_acyclic(&g));
        assert_eq!(dag.out_degree(&g, 0), 2);
        assert_eq!(dag.out_degree(&g, 2), 0);
    }

    #[test]
    fn out_and_in_edges() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (3, 0)]);
        let o = Orientation::by(&g, |u, v| u < v);
        let outs: Vec<EdgeId> = o.out_edges(&g, 0).collect();
        assert_eq!(outs, vec![0, 1, 2]); // 0->1, 0->2, 0->3
        let ins: Vec<EdgeId> = o.in_edges(&g, 1).collect();
        assert_eq!(ins, vec![0]);
    }
}
