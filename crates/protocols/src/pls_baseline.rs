//! One-round Θ(log n) proof labeling schemes (the FFM+21 baselines).
//!
//! These are the non-interactive comparison points of the paper's
//! introduction: a single prover round, deterministic verification, and
//! labels of Θ(log n) bits because they spell out *path positions*. The
//! nesting conditions are the same as in [`crate::nesting`], instantiated
//! with deterministic position-"tags" instead of sampled ones — position
//! pairs are collision-free names, so no randomness is needed.
//!
//! The lower-bound experiment (Theorem 1.8, [`crate::lower_bound`]) reuses
//! these labelings: compressing them below ~log n bits creates label
//! collisions that admit forged hybrid proofs.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::embedded_planarity::build_reduction;
use crate::nesting::{self, NestingLabels};
use pdip_core::{bits_for_max, DipProtocol, Rejections, RunResult, SizeStats, Tag};
use pdip_graph::gen::lr::LrInstance;
use pdip_graph::{Graph, NodeId, RootedForest, RotationSystem};
use pdip_obs::Recorder;

/// The PLS label set for path-outerplanarity: positions plus the
/// deterministic nesting labels.
#[derive(Debug, Clone)]
pub struct PlsLabels {
    /// Claimed path position of every node.
    pub pos: Vec<usize>,
    /// Nesting labels with position-pair names.
    pub nesting: NestingLabels,
    /// Number of bits per position label.
    pub pos_bits: usize,
}

/// Position-derived deterministic tag.
fn pos_tag(pos: usize, bits: usize) -> Tag {
    Tag { value: pos as u64, bits }
}

/// The honest PLS labeling for a path-outerplanar witness.
pub fn pls_labels(g: &Graph, path: &[NodeId]) -> PlsLabels {
    let n = g.n();
    let pos_bits = bits_for_max(n.max(2) - 1);
    let mut pos = vec![0usize; n];
    for (i, &v) in path.iter().enumerate() {
        pos[v] = i;
    }
    let mut is_path_edge = vec![false; g.m()];
    for w in path.windows(2) {
        // The witness comes from the generator, so consecutive nodes are
        // adjacent; a malformed witness simply yields labels the verifier
        // rejects instead of a prover-side panic.
        if let Some(e) = g.edge_between(w[0], w[1]) {
            is_path_edge[e] = true;
        }
    }
    let tags: Vec<Tag> = (0..n).map(|v| pos_tag(pos[v], pos_bits)).collect();
    let nesting = nesting::sweep_assign(g, &pos, path, &is_path_edge, &tags);
    PlsLabels { pos, nesting, pos_bits }
}

/// The deterministic verifier: path structure from positions plus the
/// nesting conditions.
pub fn pls_check(g: &Graph, labels: &PlsLabels, rej: &mut Rejections) {
    let n = g.n();
    let pos = &labels.pos;
    let tags: Vec<Tag> = (0..n).map(|v| pos_tag(pos[v], labels.pos_bits)).collect();
    // Reconstruct path neighborhoods from positions.
    let mut is_path_edge = vec![false; g.m()];
    for v in 0..n {
        let mut left = None;
        let mut right = None;
        let mut left_count = 0;
        let mut right_count = 0;
        for (u, e) in g.neighbors(v).iter().copied() {
            if pos[u] + 1 == pos[v] {
                left = Some(u);
                left_count += 1;
                is_path_edge[e] = true;
            } else if pos[v] + 1 == pos[u] {
                right = Some(u);
                right_count += 1;
                is_path_edge[e] = true;
            }
            if pos[u] == pos[v] {
                rej.reject_malformed(v, "pls: neighbor shares my position");
                return;
            }
        }
        if pos[v] > 0 && left_count != 1 {
            rej.reject_malformed(v, "pls: interior node without unique predecessor");
            return;
        }
        let _ = (right, right_count);
        let _ = left;
    }
    for v in 0..n {
        let left_nb = g.neighbor_nodes(v).find(|&u| pos[u] + 1 == pos[v]);
        let right_nb = g.neighbor_nodes(v).find(|&u| pos[v] + 1 == pos[u]);
        let is_left = |e: usize| pos[g.edge(e).other(v)] < pos[v];
        nesting::check_node(
            g,
            v,
            left_nb,
            right_nb,
            &is_path_edge,
            &is_left,
            &tags,
            &labels.nesting,
            rej,
        );
    }
}

/// Size statistics of a PLS labeling (one prover round, no coins).
pub fn pls_stats(labels: &PlsLabels) -> SizeStats {
    let tb = labels.pos_bits;
    let bits = tb
        + NestingLabels::node_bits(tb)
        + NestingLabels::arc_bits(tb)
        + NestingLabels::gap_bits(tb);
    SizeStats {
        per_round_max_bits: vec![bits],
        per_round_total_bits: vec![bits * labels.pos.len()],
        coin_bits: 0,
        rounds: 1,
    }
}

/// One-round PLS for path-outerplanarity, bound to an instance (used as
/// the E1 baseline).
#[derive(Debug)]
pub struct PlsPathOuterplanar<'a> {
    /// The bound instance.
    pub graph: &'a Graph,
    /// The witness path, when known.
    pub witness: Option<&'a [NodeId]>,
    /// Ground truth.
    pub is_yes: bool,
}

impl PlsPathOuterplanar<'_> {
    /// One run (deterministic; `seed` ignored).
    pub fn run(&self) -> RunResult {
        let mut rej = Rejections::new();
        let Some(path) = self.witness else {
            rej.reject_malformed(0, "pls: prover has no Hamiltonian path to commit");
            return rej.into_result(SizeStats { rounds: 1, ..Default::default() });
        };
        let labels = pls_labels(self.graph, path);
        let stats = pls_stats(&labels);
        pls_check(self.graph, &labels, &mut rej);
        rej.into_result(stats)
    }
}

impl DipProtocol for PlsPathOuterplanar<'_> {
    fn name(&self) -> String {
        "pls-path-outerplanarity".into()
    }

    fn rounds(&self) -> usize {
        1
    }

    fn instance_size(&self) -> usize {
        self.graph.n()
    }

    fn is_yes_instance(&self) -> bool {
        self.is_yes
    }

    fn run_honest_traced(&self, _seed: u64, _rec: &dyn Recorder) -> RunResult {
        self.run()
    }

    fn cheat_names(&self) -> Vec<String> {
        vec!["honest-sweep".into()]
    }

    fn run_cheat_traced(&self, _strategy: usize, _seed: u64, _rec: &dyn Recorder) -> RunResult {
        // The scheme is deterministic: the best sweep-based cheat is the
        // honest labeling itself.
        self.run()
    }
}

/// One-round PLS for LR-sorting: plain position labels (the §3 warm-up).
#[derive(Debug)]
pub struct PlsLrSorting<'a> {
    /// The bound instance.
    pub inst: &'a LrInstance,
}

impl PlsLrSorting<'_> {
    /// One run (deterministic).
    pub fn run(&self) -> RunResult {
        let g = &self.inst.graph;
        let pos = self.inst.positions();
        let pos_bits = bits_for_max(g.n().max(2) - 1);
        let mut rej = Rejections::new();
        for v in 0..g.n() {
            for e in g.incident_edges(v) {
                let u = g.edge(e).other(v);
                let (t, h) = (self.inst.orientation.tail(g, e), self.inst.orientation.head(g, e));
                if t == v && pos[t] >= pos[h] {
                    rej.reject(v, "pls-lr: outgoing edge to a smaller position");
                }
                let _ = u;
            }
        }
        let stats = SizeStats {
            per_round_max_bits: vec![pos_bits],
            per_round_total_bits: vec![pos_bits * g.n()],
            coin_bits: 0,
            rounds: 1,
        };
        rej.into_result(stats)
    }
}

/// One-round PLS for embedded planarity: the `h(G,T,ρ)` reduction with the
/// PLS path-outerplanarity labels, plus spanning-tree depth labels.
#[derive(Debug)]
pub struct PlsEmbeddedPlanarity<'a> {
    /// The instance graph.
    pub graph: &'a Graph,
    /// Its rotation system.
    pub rho: &'a RotationSystem,
    /// Ground truth.
    pub is_yes: bool,
}

impl PlsEmbeddedPlanarity<'_> {
    /// One run (deterministic).
    pub fn run(&self) -> RunResult {
        let g = self.graph;
        let mut rej = Rejections::new();
        if g.n() <= 2 {
            return rej.into_result(SizeStats { rounds: 1, ..Default::default() });
        }
        let tree = RootedForest::bfs_spanning_tree(g, 0);
        let red = build_reduction(g, self.rho, &tree, 0);
        let labels = pls_labels(&red.h, &red.path);
        pls_check(&red.h, &labels, &mut rej);
        let mut stats = pls_stats(&labels);
        // Tree depth labels (log n) ride along; each original node carries
        // a constant number of h-labels (paper's simulation argument).
        stats.per_round_max_bits[0] = 5 * stats.per_round_max_bits[0] + bits_for_max(g.n());
        rej.into_result(stats)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use pdip_graph::gen::outerplanar::random_path_outerplanar;
    use pdip_graph::gen::planar::random_planar;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pls_completeness() {
        let mut rng = SmallRng::seed_from_u64(131);
        for n in [2usize, 5, 30, 200] {
            let gen = random_path_outerplanar(n, 0.7, &mut rng);
            let pls =
                PlsPathOuterplanar { graph: &gen.graph, witness: Some(&gen.path), is_yes: true };
            let res = pls.run();
            assert!(res.accepted(), "n={n}: {:?}", res.rejections.first());
            assert_eq!(res.stats.rounds, 1);
        }
    }

    #[test]
    fn pls_size_is_theta_log_n() {
        let mut rng = SmallRng::seed_from_u64(132);
        let mut sizes = Vec::new();
        for n in [1usize << 6, 1 << 10, 1 << 14] {
            let gen = random_path_outerplanar(n, 0.5, &mut rng);
            let pls =
                PlsPathOuterplanar { graph: &gen.graph, witness: Some(&gen.path), is_yes: true };
            let res = pls.run();
            sizes.push(res.stats.proof_size());
        }
        // Grows linearly in log n: doubling log n roughly doubles the size.
        assert!(sizes[2] > sizes[0] + 20, "{sizes:?}");
    }

    #[test]
    fn pls_rejects_crossings_deterministically() {
        let mut g = Graph::from_edges(6, (0..5).map(|i| (i, i + 1)));
        g.add_edge(0, 3);
        g.add_edge(2, 5);
        let path: Vec<usize> = (0..6).collect();
        let pls = PlsPathOuterplanar { graph: &g, witness: Some(&path), is_yes: false };
        assert!(!pls.run().accepted());
    }

    #[test]
    fn pls_lr_checks_orientation() {
        let mut rng = SmallRng::seed_from_u64(133);
        let inst = pdip_graph::gen::lr::random_lr_yes(30, 12, true, &mut rng);
        assert!(PlsLrSorting { inst: &inst }.run().accepted());
        let Some(no) = pdip_graph::gen::lr::random_lr_no(30, 12, true, 1, &mut rng) else {
            return;
        };
        assert!(!PlsLrSorting { inst: &no }.run().accepted());
    }

    #[test]
    fn pls_embedded_planarity_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(134);
        let gen = random_planar(40, 0.6, &mut rng);
        let pls = PlsEmbeddedPlanarity { graph: &gen.graph, rho: &gen.rho, is_yes: true };
        assert!(pls.run().accepted());
        let bad = pdip_graph::gen::planar::scrambled_embedding(40, &mut rng);
        let pls2 = PlsEmbeddedPlanarity { graph: &bad.graph, rho: &bad.rho, is_yes: false };
        assert!(!pls2.run().accepted());
    }
}
