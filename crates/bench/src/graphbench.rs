//! Graph-substrate benchmarks behind `pdip exp bench-graph`.
//!
//! Five paired measurements over the frozen-CSR graph core, each timing
//! the optimized path against the shape it replaced:
//!
//! 1. **`edge_between_dense`** — `edge_between` on a degree-512 circulant
//!    (both endpoints high-degree, probe at the last port): frozen
//!    sorted-row binary search vs the old port-order linear scan (kept
//!    verbatim as [`NaiveAdjacency::edge_between`]).
//! 2. **`is_planar`** — the left-right planarity test on a warm
//!    [`TraversalScratch`] (reused LR arena) vs a cold scratch per call
//!    (the pre-scratch shape: every traversal buffer allocated fresh).
//! 3. **`biconnected`** — Tarjan's biconnected decomposition, warm vs
//!    cold scratch.
//! 4. **`spanning_forest`** — BFS spanning tree built during traversal on
//!    a warm scratch vs the legacy shape: BFS over `Vec<Vec<_>>`
//!    adjacency into a parent array, then the validating
//!    [`RootedForest::from_parents`] constructor.
//! 5. **`planarity_round`** — one full honest run of the Theorem 1.5
//!    planarity protocol, warm thread scratch vs reset-per-call.
//!
//! Graph-shaped entries run at n ∈ {10³, 10⁴, 10⁵} (`--smoke` restricts
//! to 10³ with a tiny time budget for CI). Inputs are seed-fixed, so only
//! timings vary run to run. The document written by `pdip exp bench-graph`
//! has schema [`crate::snapshot::GRAPH`] and is described in DESIGN.md
//! §1.1.

use crate::snapshot::{time_ns, Entry};
use pdip_engine::{Family, Instance};
use pdip_graph::gen::planar::random_planar;
use pdip_graph::{
    is_planar_with, reset_thread_scratch, BiconnectedComponents, Graph, NaiveAdjacency, NodeId,
    RootedForest, TraversalScratch,
};
use pdip_protocols::{PopParams, Transport};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Duration;

/// Knobs for one `bench-graph` run.
#[derive(Debug, Clone)]
pub struct GraphBenchConfig {
    /// Graph sizes for the traversal-shaped entries.
    pub sizes: Vec<usize>,
    /// Minimum wall time per measurement (iteration count doubles until
    /// one sample exceeds it).
    pub budget: Duration,
    /// Timing samples per measurement (the median is reported).
    pub samples: usize,
}

impl GraphBenchConfig {
    /// The full acceptance-criterion grid: n ∈ {10³, 10⁴, 10⁵}.
    pub fn full() -> Self {
        GraphBenchConfig {
            sizes: vec![1_000, 10_000, 100_000],
            budget: Duration::from_millis(20),
            samples: 5,
        }
    }

    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        GraphBenchConfig { sizes: vec![1_000], budget: Duration::from_millis(2), samples: 3 }
    }
}

/// A circulant graph: node `i` is adjacent to `i ± 1..=k` (mod `n`), so
/// every node has degree `2k`.
fn circulant(n: usize, k: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in 1..=k {
            let v = (i + j) % n;
            if !g.has_edge(i, v) {
                g.add_edge(i, v);
            }
        }
    }
    g
}

/// The pre-PR spanning-tree shape: BFS over naive `Vec<Vec<_>>` adjacency
/// with freshly allocated visited/parent buffers, then the validating
/// `from_parents` constructor (which re-walks every parent chain).
fn legacy_bfs_forest(g: &Graph, adj: &NaiveAdjacency, root: NodeId) -> RootedForest {
    let n = adj.n();
    let mut parent: Vec<Option<(NodeId, usize)>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    visited[root] = true;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        for &(u, e) in adj.neighbors(v) {
            if !visited[u] {
                visited[u] = true;
                parent[u] = Some((v, e));
                queue.push_back(u);
            }
        }
    }
    RootedForest::from_parents(g, parent)
}

/// Runs every paired measurement of the graph-substrate suite.
pub fn run_graphbench(cfg: &GraphBenchConfig) -> Vec<Entry> {
    let mut entries = Vec::new();

    // 1. edge_between where *both* endpoints are high-degree (a circulant
    //    with degree 512, so neither side offers a short row to scan): the
    //    satellite micro-bench for the O(deg) scan fix. Each probe targets
    //    the last port of the row — the old scan's worst case — and the
    //    frozen path answers it with a binary search over the sorted row.
    let (cn, ck) = (1024usize, 256usize);
    let dense = circulant(cn, ck);
    dense.freeze();
    let naive_dense = NaiveAdjacency::from_graph(&dense);
    entries.push(Entry {
        name: "edge_between_dense".into(),
        n: cn,
        baseline_ns: time_ns(cfg.budget, cfg.samples, || {
            let mut acc = 0usize;
            for i in 0..cn {
                acc ^= naive_dense.edge_between(i, black_box((i + ck) % cn)).unwrap();
            }
            black_box(acc);
        }),
        fast_ns: time_ns(cfg.budget, cfg.samples, || {
            let mut acc = 0usize;
            for i in 0..cn {
                acc ^= dense.edge_between(i, black_box((i + ck) % cn)).unwrap();
            }
            black_box(acc);
        }),
    });

    for &n in &cfg.sizes {
        // Larger jobs get fewer samples so the 10⁵ rows stay minutes-scale.
        let samples = if n >= 100_000 { cfg.samples.min(2) } else { cfg.samples };
        let mut rng = SmallRng::seed_from_u64(0x6_ea7 + n as u64);
        let inst = random_planar(n, 0.5, &mut rng);
        let g = inst.graph;
        g.freeze();
        let naive = NaiveAdjacency::from_graph(&g);

        // 2. Left-right planarity test: warm arena vs cold scratch.
        let mut warm = TraversalScratch::new();
        entries.push(Entry {
            name: "is_planar".into(),
            n,
            baseline_ns: time_ns(cfg.budget, samples, || {
                let mut cold = TraversalScratch::new();
                black_box(is_planar_with(&g, &mut cold));
            }),
            fast_ns: time_ns(cfg.budget, samples, || {
                black_box(is_planar_with(&g, &mut warm));
            }),
        });

        // 3. Biconnected decomposition: warm arena vs cold scratch.
        entries.push(Entry {
            name: "biconnected".into(),
            n,
            baseline_ns: time_ns(cfg.budget, samples, || {
                let mut cold = TraversalScratch::new();
                black_box(BiconnectedComponents::compute_with(&g, &mut cold));
            }),
            fast_ns: time_ns(cfg.budget, samples, || {
                black_box(BiconnectedComponents::compute_with(&g, &mut warm));
            }),
        });

        // 4. BFS spanning tree: built during traversal vs the legacy
        //    allocate-then-validate shape.
        entries.push(Entry {
            name: "spanning_forest".into(),
            n,
            baseline_ns: time_ns(cfg.budget, samples, || {
                black_box(legacy_bfs_forest(&g, &naive, 0));
            }),
            fast_ns: time_ns(cfg.budget, samples, || {
                black_box(RootedForest::bfs_spanning_tree_with(&g, 0, &mut warm));
            }),
        });

        // 5. One full honest planarity-protocol round on a cached
        //    instance: warm thread scratch vs reset-per-call.
        let yes = Instance::generate(Family::Planarity, n, 21);
        let round = || {
            yes.with_protocol(PopParams::default(), Transport::Native, |p| {
                black_box(p.run_honest(5).accepted());
            })
        };
        entries.push(Entry {
            name: "planarity_round".into(),
            n,
            baseline_ns: time_ns(cfg.budget, samples, || {
                reset_thread_scratch();
                round();
            }),
            fast_ns: time_ns(cfg.budget, samples, round),
        });
    }

    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_forest_matches_scratch_forest() {
        let mut rng = SmallRng::seed_from_u64(3);
        let inst = random_planar(120, 0.4, &mut rng);
        let naive = NaiveAdjacency::from_graph(&inst.graph);
        let legacy = legacy_bfs_forest(&inst.graph, &naive, 0);
        let fast = RootedForest::bfs_spanning_tree(&inst.graph, 0);
        assert_eq!(legacy.roots(), fast.roots());
        for v in 0..inst.graph.n() {
            assert_eq!(legacy.parent(v), fast.parent(v), "parent of {v}");
            assert_eq!(legacy.parent_edge(v), fast.parent_edge(v), "parent edge of {v}");
            assert_eq!(legacy.depth(v), fast.depth(v), "depth of {v}");
            assert_eq!(legacy.children(v), fast.children(v), "children of {v}");
        }
    }

    #[test]
    fn smoke_run_produces_all_benchmarks() {
        let cfg =
            GraphBenchConfig { sizes: vec![64], budget: Duration::from_micros(50), samples: 1 };
        let entries = run_graphbench(&cfg);
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        for want in
            ["edge_between_dense", "is_planar", "biconnected", "spanning_forest", "planarity_round"]
        {
            assert!(names.contains(&want), "missing {want}");
        }
        assert!(entries.iter().all(|e| e.baseline_ns > 0.0 && e.fast_ns > 0.0));
    }
}
