//! The corruptible protocol surfaces of the chaos harness.
//!
//! One [`Tamperable`] implementation per protocol layer: the Lemma 2.3
//! forest code, the Lemma 2.5 spanning-tree verification, the Lemma 2.6
//! multiset equality, the §3–5 LR-sorting core, and the six Theorem
//! 1.2–1.7 derived protocols. Each target owns a deterministic
//! seed-generated instance and knows how to apply every supported
//! [`MutatorKind`] to *its* transcript or committed witness:
//!
//! * **primitives** (forest code, spanning tree, multiset equality,
//!   LR-sorting) tamper with the message vectors of one honest run and
//!   re-run the node checks;
//! * **witness protocols** (path-outerplanarity, planarity) tamper with
//!   the committed witness (Hamiltonian path / rotation system) and run
//!   the full honest protocol against it;
//! * **family protocols** (outerplanarity, embedded planarity,
//!   series-parallel, treewidth ≤ 2) tamper with the *instance itself* —
//!   a chord or a rewired edge pushes the graph out of the hereditary
//!   family — and run the strongest generic cheat, auditing the
//!   soundness bound end to end.
//!
//! Every target must resolve each run into detected / miss / unchanged
//! without panicking; the harness treats a panic as a failed audit.

use super::{Determinism, Mutator, MutatorKind, TamperOutcome, Tamperable};
use crate::family::{Family, Instance};
use crate::seed::sub_seed;
use pdip_core::{bits_for_domain, Rejections};
use pdip_field::{smallest_prime_above, Fp};
use pdip_graph::gen;
use pdip_graph::gen::lr::LrInstance;
use pdip_graph::{
    is_hamiltonian_path, is_outerplanar, is_series_parallel, is_treewidth_at_most_2, Graph,
    RootedForest, RotationSystem,
};
use pdip_protocols::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The ten corruptible surfaces, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TargetId {
    /// Lemma 2.3 forest code (decode-level corruption).
    ForestCode,
    /// Lemma 2.5 spanning-tree verification.
    SpanningTree,
    /// Lemma 2.6 multiset equality.
    MultisetEq,
    /// The 5-round LR-sorting core (§3–5).
    LrSorting,
    /// Theorem 1.2 (committed Hamiltonian path corruption).
    PathOuterplanar,
    /// Theorem 1.3 (instance pushed out of the family).
    Outerplanar,
    /// Theorem 1.4 (rotation-system corruption).
    EmbeddedPlanarity,
    /// Theorem 1.5 (witness rotation-system corruption).
    Planarity,
    /// Theorem 1.6 (instance pushed out of the family).
    SeriesParallel,
    /// Theorem 1.7 (instance pushed out of the family).
    Treewidth2,
}

/// All targets in report order.
pub const TARGETS: [TargetId; 10] = [
    TargetId::ForestCode,
    TargetId::SpanningTree,
    TargetId::MultisetEq,
    TargetId::LrSorting,
    TargetId::PathOuterplanar,
    TargetId::Outerplanar,
    TargetId::EmbeddedPlanarity,
    TargetId::Planarity,
    TargetId::SeriesParallel,
    TargetId::Treewidth2,
];

impl TargetId {
    /// Machine-readable name (stable: part of the E9 schema).
    pub fn name(&self) -> &'static str {
        match self {
            TargetId::ForestCode => "forest-code",
            TargetId::SpanningTree => "spanning-tree",
            TargetId::MultisetEq => "multiset-eq",
            TargetId::LrSorting => "lr-sorting",
            TargetId::PathOuterplanar => "path-outerplanarity",
            TargetId::Outerplanar => "outerplanarity",
            TargetId::EmbeddedPlanarity => "embedded-planarity",
            TargetId::Planarity => "planarity",
            TargetId::SeriesParallel => "series-parallel",
            TargetId::Treewidth2 => "treewidth-2",
        }
    }

    /// Inverse of [`TargetId::name`].
    pub fn from_name(s: &str) -> Option<TargetId> {
        TARGETS.iter().copied().find(|t| t.name() == s)
    }

    /// Whether `kind` is meaningful for this target's label structure.
    ///
    /// Static so the harness can lay out the grid without building
    /// instances. Unsupported combinations are structural, not lazy:
    /// e.g. hereditary families (outerplanar, series-parallel, tw ≤ 2)
    /// cannot be corrupted by truncation — deleting edges keeps the
    /// graph in the family — and a rotation system has no coins.
    pub fn supports(&self, kind: MutatorKind) -> bool {
        use MutatorKind::*;
        match self {
            // The forest code has no verifier coins to go stale.
            TargetId::ForestCode => !matches!(kind, StaleCoins),
            TargetId::SpanningTree => true,
            // The Lemma 2.6 aggregation tree has no root flags to flip.
            TargetId::MultisetEq | TargetId::LrSorting => !matches!(kind, ReRoot),
            // The committed path is prover-side data; its coins live in
            // the sub-protocols exercised by the primitive targets.
            TargetId::PathOuterplanar => !matches!(kind, StaleCoins),
            // Instance/embedding corruption only: a chord ("bit flip" on
            // the adjacency matrix) or a swap (rewired edge / transposed
            // rotation positions).
            TargetId::Outerplanar
            | TargetId::EmbeddedPlanarity
            | TargetId::Planarity
            | TargetId::SeriesParallel
            | TargetId::Treewidth2 => matches!(kind, BitFlip | LabelSwap),
        }
    }

    /// The calibrated detection class of `kind` on this target.
    ///
    /// `Deterministic` means a structural or value check catches the
    /// corruption on *every* coin sequence (audit threshold 1.0);
    /// `Probabilistic` means detection holds up to the protocol's
    /// soundness error ε (audit threshold 1 − ε).
    pub fn determinism(&self, kind: MutatorKind) -> Determinism {
        use Determinism::*;
        match (self, kind) {
            // Stale coins survive iff the stale prime window draw
            // collides with the fresh one (≈ 1/|primes| per repetition).
            (TargetId::SpanningTree, MutatorKind::StaleCoins) => Probabilistic,
            // Algebraic corruptions of the LR transcript are caught by
            // field-equation checks — up to coincidences mod p.
            (
                TargetId::LrSorting,
                MutatorKind::BitFlip
                | MutatorKind::LabelSwap
                | MutatorKind::StaleCoins
                | MutatorKind::DepthOffByOne,
            ) => Probabilistic,
            // A truncated committed path leaves extra flagged roots;
            // Lemma 2.5 catches them unless every extra root samples the
            // prover's prime.
            (TargetId::PathOuterplanar, MutatorKind::Truncate) => Probabilistic,
            // Full-protocol soundness on a corrupted instance/embedding
            // is exactly the theorems' 1 − ε guarantee.
            (
                TargetId::Outerplanar
                | TargetId::EmbeddedPlanarity
                | TargetId::Planarity
                | TargetId::SeriesParallel
                | TargetId::Treewidth2,
                _,
            ) => Probabilistic,
            _ => Deterministic,
        }
    }
}

/// Builds the target's seed-deterministic instance. `n` is the nominal
/// instance size; `gen_seed` drives all generator randomness.
pub fn build_target(id: TargetId, n: usize, gen_seed: u64) -> Box<dyn Tamperable> {
    match id {
        TargetId::ForestCode => Box::new(ForestCodeTarget::new(n, gen_seed)),
        TargetId::SpanningTree => Box::new(SpanningTreeTarget::new(n, gen_seed)),
        TargetId::MultisetEq => Box::new(MultisetEqTarget::new(n, gen_seed)),
        TargetId::LrSorting => Box::new(LrSortingTarget::new(n, gen_seed)),
        TargetId::PathOuterplanar
        | TargetId::Outerplanar
        | TargetId::EmbeddedPlanarity
        | TargetId::Planarity
        | TargetId::SeriesParallel
        | TargetId::Treewidth2 => Box::new(DerivedTarget::new(id, n, gen_seed)),
    }
}

/// Splits a job seed into the (mutation, verifier-run, auxiliary)
/// sub-streams every target uses.
fn streams(seed: u64) -> (Mutator, u64, u64) {
    (Mutator::new(sub_seed(seed, 1)), sub_seed(seed, 2), sub_seed(seed, 3))
}

/// Classifies a full protocol run of a corrupted instance/witness.
fn classify(res: pdip_core::RunResult) -> TamperOutcome {
    if res.accepted() {
        TamperOutcome::Miss
    } else {
        TamperOutcome::Detected { malformed: res.caught_malformed() }
    }
}

// ---------------------------------------------------------------------
// Lemma 2.3: forest code
// ---------------------------------------------------------------------

/// Corrupts the per-node forest-code labels and re-decodes.
struct ForestCodeTarget {
    graph: Graph,
    forest: RootedForest,
    code: ForestCode,
}

impl ForestCodeTarget {
    fn new(n: usize, gen_seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(gen_seed);
        let inst = gen::planar::random_planar(n.max(4), 0.6, &mut rng);
        let forest = RootedForest::bfs_spanning_tree(&inst.graph, 0);
        let code = ForestCode::encode(&inst.graph, &forest);
        ForestCodeTarget { graph: inst.graph, forest, code }
    }

    /// A node whose decode (parent pointer or root flag) no longer
    /// matches the committed forest — the protocol-level detection
    /// criterion (path-outerplanarity checks exactly these decodes).
    fn decode_differs(&self, labels: &[ForestCodeLabel]) -> bool {
        (0..self.graph.n()).any(|v| {
            decode_parent(&self.graph, labels, v) != self.forest.parent(v)
                || labels[v].root != self.forest.parent(v).is_none()
        })
    }
}

impl Tamperable for ForestCodeTarget {
    fn target_name(&self) -> &'static str {
        TargetId::ForestCode.name()
    }

    fn supports(&self, kind: MutatorKind) -> bool {
        TargetId::ForestCode.supports(kind)
    }

    fn determinism(&self, kind: MutatorKind) -> Determinism {
        TargetId::ForestCode.determinism(kind)
    }

    fn run_mutated(&self, kind: MutatorKind, seed: u64) -> TamperOutcome {
        let (mut m, _, _) = streams(seed);
        let n = self.graph.n();
        let mut labels = self.code.labels.clone();
        match kind {
            MutatorKind::BitFlip => {
                let v = m.index(n);
                let bit = m.bit(bits_for_domain(self.code.colors).max(1)) as u32;
                if m.coin() {
                    labels[v].c1 ^= bit;
                } else {
                    labels[v].c2 ^= bit;
                }
            }
            MutatorKind::LabelSwap => {
                let (i, j) = m.pair(n);
                labels.swap(i, j);
            }
            MutatorKind::Truncate => {
                labels.truncate(m.index(n));
            }
            MutatorKind::ReRoot => {
                let v = m.index(n);
                labels[v].root = !labels[v].root;
            }
            MutatorKind::OutOfRange => {
                let v = m.index(n);
                labels[v].c1 = self.code.colors as u32 + 1 + (m.next_u64() % 5) as u32;
            }
            MutatorKind::DepthOffByOne => {
                let v = m.index(n);
                labels[v].odd = !labels[v].odd;
            }
            MutatorKind::StaleCoins => return TamperOutcome::Unchanged,
        }
        if labels == self.code.labels {
            return TamperOutcome::Unchanged;
        }
        if labels.len() != n {
            // The arity check every consumer performs before decoding.
            return TamperOutcome::Detected { malformed: true };
        }
        if self.decode_differs(&labels) {
            TamperOutcome::Detected { malformed: true }
        } else {
            // The encoding is not injective: a label change that decodes
            // to the identical forest is a semantic no-op, not a miss.
            TamperOutcome::Unchanged
        }
    }
}

// ---------------------------------------------------------------------
// Lemma 2.5: spanning-tree verification
// ---------------------------------------------------------------------

/// Corrupts one honest spanning-tree transcript and re-checks all nodes.
struct SpanningTreeTarget {
    graph: Graph,
    forest: RootedForest,
    st: SpanningTreeVerification,
}

impl SpanningTreeTarget {
    fn new(n: usize, gen_seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(gen_seed);
        let inst = gen::planar::random_planar(n.max(4), 0.6, &mut rng);
        let forest = RootedForest::bfs_spanning_tree(&inst.graph, 0);
        let st = SpanningTreeVerification::new(StParams::for_n(inst.graph.n(), 3, 1));
        SpanningTreeTarget { graph: inst.graph, forest, st }
    }
}

impl Tamperable for SpanningTreeTarget {
    fn target_name(&self) -> &'static str {
        TargetId::SpanningTree.name()
    }

    fn supports(&self, kind: MutatorKind) -> bool {
        TargetId::SpanningTree.supports(kind)
    }

    fn determinism(&self, kind: MutatorKind) -> Determinism {
        TargetId::SpanningTree.determinism(kind)
    }

    fn run_mutated(&self, kind: MutatorKind, seed: u64) -> TamperOutcome {
        let (mut m, run_seed, aux_seed) = streams(seed);
        let n = self.graph.n();
        let mut rng = SmallRng::seed_from_u64(run_seed);
        let coins = self.st.draw_coins(n, &mut rng);
        let mut msgs = self.st.honest_response(&self.forest, &coins);
        let mut roots: Vec<bool> = (0..n).map(|v| self.forest.parent(v).is_none()).collect();
        match kind {
            MutatorKind::BitFlip => {
                let v = m.index(n);
                let width =
                    bits_for_domain(2 * self.st.primes().last().copied().unwrap_or(2) as usize);
                msgs[v].depth_mod_p[0] ^= m.bit(width.max(1));
            }
            MutatorKind::LabelSwap => {
                let (i, j) = m.pair(n);
                if msgs[i] == msgs[j] {
                    return TamperOutcome::Unchanged;
                }
                msgs.swap(i, j);
            }
            MutatorKind::Truncate => {
                let k = m.index(n);
                msgs.truncate(k);
            }
            MutatorKind::StaleCoins => {
                let mut stale_rng = SmallRng::seed_from_u64(aux_seed);
                let stale = self.st.draw_coins(n, &mut stale_rng);
                if stale == coins {
                    return TamperOutcome::Unchanged;
                }
                msgs = self.st.honest_response(&self.forest, &stale);
            }
            MutatorKind::ReRoot => {
                let v = m.index(n);
                roots[v] = !roots[v];
            }
            MutatorKind::OutOfRange => {
                let v = m.index(n);
                msgs[v].prime_indices[0] = self.st.primes().len() + 1 + m.index(7);
            }
            MutatorKind::DepthOffByOne => {
                let v = m.index(n);
                let p = self.st.primes()[msgs[v].prime_indices[0]];
                msgs[v].depth_mod_p[0] = (msgs[v].depth_mod_p[0] + 1) % p;
            }
        }
        let mut rej = Rejections::new();
        for (v, &is_root) in roots.iter().enumerate() {
            let claimed_parent = if is_root { None } else { self.forest.parent(v) };
            self.st.check(&self.graph, v, claimed_parent, is_root, &coins, &msgs, &mut rej);
        }
        if rej.any() {
            TamperOutcome::Detected { malformed: rej.any_malformed() }
        } else {
            TamperOutcome::Miss
        }
    }
}

// ---------------------------------------------------------------------
// Lemma 2.6: multiset equality
// ---------------------------------------------------------------------

/// Corrupts one honest multiset-equality transcript on a path-shaped
/// aggregation tree with two equal global multisets.
struct MultisetEqTarget {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    s1: Vec<Vec<u64>>,
    s2: Vec<Vec<u64>>,
    ms: MultisetEq,
}

impl MultisetEqTarget {
    fn new(n: usize, gen_seed: u64) -> Self {
        let k = n.max(4);
        let field = Fp::new(smallest_prime_above(1 << 16));
        let mut rng = SmallRng::seed_from_u64(gen_seed);
        let parent: Vec<Option<usize>> =
            (0..k).map(|i| if i == 0 { None } else { Some(i - 1) }).collect();
        let mut children = vec![Vec::new(); k];
        for i in 1..k {
            children[i - 1].push(i);
        }
        // Equal global multisets, differently distributed: S2 is S1
        // rotated by one element across the nodes.
        let pool: Vec<u64> = (0..2 * k).map(|_| rng.gen_range(0..field.modulus())).collect();
        let s1: Vec<Vec<u64>> = pool.chunks(2).map(|c| c.to_vec()).collect();
        let mut rot = pool.clone();
        rot.rotate_left(1);
        let s2: Vec<Vec<u64>> = rot.chunks(2).map(|c| c.to_vec()).collect();
        MultisetEqTarget { parent, children, s1, s2, ms: MultisetEq::new(field) }
    }
}

impl Tamperable for MultisetEqTarget {
    fn target_name(&self) -> &'static str {
        TargetId::MultisetEq.name()
    }

    fn supports(&self, kind: MutatorKind) -> bool {
        TargetId::MultisetEq.supports(kind)
    }

    fn determinism(&self, kind: MutatorKind) -> Determinism {
        TargetId::MultisetEq.determinism(kind)
    }

    fn run_mutated(&self, kind: MutatorKind, seed: u64) -> TamperOutcome {
        let (mut m, run_seed, _) = streams(seed);
        let k = self.parent.len();
        let f = self.ms.field();
        let mut rng = SmallRng::seed_from_u64(run_seed);
        let z = rng.gen_range(0..f.modulus());
        let mut msgs = self.ms.honest_response(&self.parent, |i| &self.s1[i], |i| &self.s2[i], z);
        match kind {
            MutatorKind::BitFlip => {
                let v = m.index(k);
                let bit = m.bit(f.element_bits().max(1));
                if m.coin() {
                    msgs[v].a1 ^= bit;
                } else {
                    msgs[v].a2 ^= bit;
                }
            }
            MutatorKind::LabelSwap => {
                let (i, j) = m.pair(k);
                if msgs[i] == msgs[j] {
                    return TamperOutcome::Unchanged;
                }
                msgs.swap(i, j);
            }
            MutatorKind::Truncate => {
                msgs.truncate(m.index(k));
            }
            MutatorKind::StaleCoins => {
                let z2 = rng.gen_range(0..f.modulus());
                if z2 == z {
                    return TamperOutcome::Unchanged;
                }
                // Prover answered an earlier challenge; verifier checks
                // against the fresh one.
                msgs = self.ms.honest_response(&self.parent, |i| &self.s1[i], |i| &self.s2[i], z2);
            }
            MutatorKind::OutOfRange => {
                let v = m.index(k);
                msgs[v].a1 += f.modulus();
            }
            MutatorKind::DepthOffByOne => {
                let v = m.index(k);
                if m.coin() {
                    msgs[v].a1 = (msgs[v].a1 + 1) % f.modulus();
                } else {
                    msgs[v].a2 = (msgs[v].a2 + 1) % f.modulus();
                }
            }
            MutatorKind::ReRoot => return TamperOutcome::Unchanged,
        }
        let mut rej = Rejections::new();
        for i in 0..k {
            let root_coin = if i == 0 { Some(z) } else { None };
            self.ms.check(
                i,
                i,
                self.parent[i],
                &self.children[i],
                &self.s1[i],
                &self.s2[i],
                &msgs,
                root_coin,
                &mut rej,
            );
        }
        if rej.any() {
            TamperOutcome::Detected { malformed: rej.any_malformed() }
        } else {
            TamperOutcome::Miss
        }
    }
}

// ---------------------------------------------------------------------
// §3–5: LR-sorting
// ---------------------------------------------------------------------

/// Corrupts one honest 5-round LR transcript via
/// [`LrSorting::run_tampered`].
struct LrSortingTarget {
    inst: LrInstance,
    params: LrParams,
}

impl LrSortingTarget {
    fn new(n: usize, gen_seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(gen_seed);
        let inst = gen::lr::random_lr_yes(n.max(8), (n / 4).max(2), true, &mut rng);
        LrSortingTarget { inst, params: LrParams { c: 3, block_len: None } }
    }
}

impl Tamperable for LrSortingTarget {
    fn target_name(&self) -> &'static str {
        TargetId::LrSorting.name()
    }

    fn supports(&self, kind: MutatorKind) -> bool {
        TargetId::LrSorting.supports(kind)
    }

    fn determinism(&self, kind: MutatorKind) -> Determinism {
        TargetId::LrSorting.determinism(kind)
    }

    fn run_mutated(&self, kind: MutatorKind, seed: u64) -> TamperOutcome {
        let (mut m, run_seed, aux_seed) = streams(seed);
        let lr = LrSorting::new(&self.inst, self.params, Transport::Native);
        let p_bits = lr.field_p.element_bits().max(1);
        let p_mod = lr.field_p.modulus();
        let pp_mod = lr.field_pp.modulus();
        let block_len = lr.block_len;
        let changed = std::cell::Cell::new(true);
        let res = lr.run_tampered(run_seed, |t, coins| {
            let n = t.r1_node.len();
            match kind {
                MutatorKind::BitFlip => {
                    let v = m.index(n);
                    let bit = m.bit(p_bits);
                    if m.coin() {
                        t.r2_node[v].a2 ^= bit;
                    } else {
                        t.r2_node[v].b1 ^= bit;
                    }
                }
                MutatorKind::LabelSwap => {
                    let (i, j) = m.pair(n);
                    if t.r1_node[i] == t.r1_node[j]
                        && t.r2_node[i] == t.r2_node[j]
                        && t.r3_node[i] == t.r3_node[j]
                    {
                        changed.set(false);
                        return;
                    }
                    t.r1_node.swap(i, j);
                    t.r2_node.swap(i, j);
                    t.r3_node.swap(i, j);
                }
                MutatorKind::Truncate => {
                    t.r1_node.truncate(m.index(n));
                }
                MutatorKind::StaleCoins => {
                    // Replace every verifier coin after the prover
                    // answered: the transcript is now stale everywhere.
                    let mut stale = SmallRng::seed_from_u64(aux_seed);
                    for c in coins.iter_mut() {
                        c.r = stale.gen_range(0..p_mod);
                        c.rp = stale.gen_range(0..p_mod);
                        c.rb = stale.gen_range(0..p_mod);
                        c.z1 = stale.gen_range(0..pp_mod);
                        c.z0 = stale.gen_range(0..pp_mod);
                    }
                }
                MutatorKind::OutOfRange => {
                    let v = m.index(n);
                    t.r1_node[v].idx = 2 * block_len.max(1) + 2 + m.index(5);
                }
                MutatorKind::DepthOffByOne => {
                    let v = m.index(n);
                    t.r1_node[v].idx += 1;
                }
                MutatorKind::ReRoot => changed.set(false),
            }
        });
        if !changed.get() {
            return TamperOutcome::Unchanged;
        }
        classify(res)
    }
}

// ---------------------------------------------------------------------
// Theorems 1.2–1.7: the derived protocols
// ---------------------------------------------------------------------

/// Corrupts the witness or instance of one derived protocol and runs it
/// end to end.
struct DerivedTarget {
    id: TargetId,
    inst: Instance,
    params: PopParams,
}

impl DerivedTarget {
    fn new(id: TargetId, n: usize, gen_seed: u64) -> Self {
        let family = match id {
            TargetId::PathOuterplanar => Family::PathOuterplanar,
            TargetId::Outerplanar => Family::Outerplanar,
            TargetId::EmbeddedPlanarity => Family::EmbeddedPlanarity,
            TargetId::Planarity => Family::Planarity,
            TargetId::SeriesParallel => Family::SeriesParallel,
            TargetId::Treewidth2 => Family::Treewidth2,
            _ => unreachable!("DerivedTarget::new on a primitive target"),
        };
        let inst = Instance::generate(family, n, gen_seed);
        DerivedTarget { id, inst, params: PopParams::default() }
    }
}

/// Genuine-witness check that tolerates arbitrary (even out-of-range)
/// path entries without panicking.
fn still_hamiltonian(g: &Graph, path: &[usize]) -> bool {
    path.iter().all(|&v| v < g.n()) && is_hamiltonian_path(g, path)
}

/// Adds one chord between a non-adjacent pair ("bit flip" on the
/// adjacency matrix). `None` when no candidate pair is found.
fn add_chord(g: &Graph, m: &mut Mutator) -> Option<Graph> {
    let n = g.n();
    if n < 4 {
        return None;
    }
    for _ in 0..16 {
        let (u, v) = m.pair(n);
        if !g.has_edge(u, v) {
            let mut edges: Vec<(usize, usize)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
            edges.push((u, v));
            return Some(Graph::from_edges(n, edges));
        }
    }
    None
}

/// Rewires one endpoint of one edge ("label swap" on the edge list),
/// keeping the graph simple and connected. `None` when no candidate
/// rewiring is found.
fn rewire_edge(g: &Graph, m: &mut Mutator) -> Option<Graph> {
    let n = g.n();
    if n < 4 || g.m() == 0 {
        return None;
    }
    for _ in 0..16 {
        let e = m.index(g.m());
        let (u, v) = (g.edges()[e].u, g.edges()[e].v);
        let w = m.index(n);
        if w == u || w == v || g.has_edge(u, w) {
            continue;
        }
        let mut edges: Vec<(usize, usize)> = g
            .edges()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != e)
            .map(|(_, ed)| (ed.u, ed.v))
            .collect();
        edges.push((u, w));
        let g2 = Graph::from_edges(n, edges);
        if g2.is_connected() {
            return Some(g2);
        }
    }
    None
}

/// Transposes two incident-edge positions in the rotation at a node of
/// degree ≥ 3 (`adjacent` picks neighbors in the cyclic order).
fn mutate_rotation(
    g: &Graph,
    rho: &RotationSystem,
    adjacent: bool,
    m: &mut Mutator,
) -> Option<RotationSystem> {
    let cands: Vec<usize> = (0..g.n()).filter(|&v| g.degree(v) >= 3).collect();
    if cands.is_empty() {
        return None;
    }
    let v = cands[m.index(cands.len())];
    let d = g.degree(v);
    let mut r = rho.clone();
    if adjacent {
        let i = m.index(d);
        r.swap_positions(v, i, (i + 1) % d);
    } else {
        let (i, j) = m.pair(d);
        r.swap_positions(v, i, j);
    }
    Some(r)
}

impl Tamperable for DerivedTarget {
    fn target_name(&self) -> &'static str {
        self.id.name()
    }

    fn supports(&self, kind: MutatorKind) -> bool {
        self.id.supports(kind)
    }

    fn determinism(&self, kind: MutatorKind) -> Determinism {
        self.id.determinism(kind)
    }

    fn run_mutated(&self, kind: MutatorKind, seed: u64) -> TamperOutcome {
        let (mut m, run_seed, _) = streams(seed);
        // Each arm yields the mutated instance and the prover to run on
        // it (`None` = honest, `Some(k)` = cheat strategy `k`).
        let (mutated, cheat) = match &self.inst {
            // Theorem 1.2: corrupt the committed Hamiltonian path.
            Instance::Pop(inst) => {
                let Some(path) = inst.witness.as_ref() else {
                    return TamperOutcome::Unchanged;
                };
                let n = inst.graph.n();
                let mut p = path.clone();
                match kind {
                    MutatorKind::BitFlip => {
                        let i = m.index(p.len());
                        p[i] ^= m.bit(bits_for_domain(n).max(1)) as usize;
                    }
                    MutatorKind::LabelSwap => {
                        let (i, j) = m.pair(p.len());
                        p.swap(i, j);
                    }
                    MutatorKind::Truncate => {
                        let drop = 1 + m.index((n / 4).max(1));
                        p.truncate(n.saturating_sub(drop).max(1));
                    }
                    MutatorKind::ReRoot => {
                        let k = 1 + m.index(n.saturating_sub(1).max(1));
                        p.rotate_left(k);
                    }
                    MutatorKind::OutOfRange => {
                        let i = m.index(p.len());
                        p[i] = n + 1 + m.index(7);
                    }
                    MutatorKind::DepthOffByOne => {
                        let i = m.index(p.len().saturating_sub(1).max(1));
                        let j = (i + 1).min(p.len() - 1);
                        p.swap(i, j);
                    }
                    MutatorKind::StaleCoins => return TamperOutcome::Unchanged,
                }
                if p == *path || still_hamiltonian(&inst.graph, &p) {
                    // Still a genuine witness (e.g. a rotation whose
                    // wrap-around is an edge): a semantic no-op.
                    return TamperOutcome::Unchanged;
                }
                let graph = inst.graph.clone();
                (Instance::Pop(PopInstance { graph, witness: Some(p), is_yes: inst.is_yes }), None)
            }
            // Theorem 1.3: push the instance out of the family.
            Instance::Op(inst) => {
                let g2 = match kind {
                    MutatorKind::BitFlip => add_chord(&inst.graph, &mut m),
                    MutatorKind::LabelSwap => rewire_edge(&inst.graph, &mut m),
                    _ => None,
                };
                let Some(g2) = g2 else { return TamperOutcome::Unchanged };
                if is_outerplanar(&g2) {
                    return TamperOutcome::Unchanged;
                }
                // BlockHonestSweep: honest labels inside the now-bad
                // block — the pure soundness question.
                (Instance::Op(OpInstance { graph: g2, is_yes: false }), Some(1))
            }
            // Theorem 1.4: corrupt the input rotation system.
            Instance::Emb(inst) => {
                let adjacent = matches!(kind, MutatorKind::BitFlip);
                let Some(rho) = mutate_rotation(&inst.graph, &inst.rho, adjacent, &mut m) else {
                    return TamperOutcome::Unchanged;
                };
                if rho.is_planar_embedding(&inst.graph) {
                    return TamperOutcome::Unchanged;
                }
                // HonestSweep: honest labels on the crossing embedding.
                let graph = inst.graph.clone();
                (Instance::Emb(EmbInstance { graph, rho, is_yes: false }), Some(0))
            }
            // Theorem 1.5: corrupt the prover's witness embedding.
            Instance::Pl(inst) => {
                let Some(w) = inst.witness_rho.as_ref() else {
                    return TamperOutcome::Unchanged;
                };
                let adjacent = matches!(kind, MutatorKind::BitFlip);
                let Some(rho) = mutate_rotation(&inst.graph, w, adjacent, &mut m) else {
                    return TamperOutcome::Unchanged;
                };
                if rho.is_planar_embedding(&inst.graph) {
                    return TamperOutcome::Unchanged;
                }
                // Honest run: the prover distributes the corrupted
                // witness and plays everything else straight.
                let graph = inst.graph.clone();
                (
                    Instance::Pl(PlInstance { graph, witness_rho: Some(rho), is_yes: inst.is_yes }),
                    None,
                )
            }
            // Theorem 1.6: push the instance out of the family.
            Instance::Spa(inst) => {
                let g2 = match kind {
                    MutatorKind::BitFlip => add_chord(&inst.graph, &mut m),
                    MutatorKind::LabelSwap => rewire_edge(&inst.graph, &mut m),
                    _ => None,
                };
                let Some(g2) = g2 else { return TamperOutcome::Unchanged };
                if is_series_parallel(&g2) {
                    return TamperOutcome::Unchanged;
                }
                // HideExtraEdges: remove-until-SP + disguised ears.
                (Instance::Spa(SpaInstance { graph: g2, is_yes: false }), Some(0))
            }
            // Theorem 1.7: push the instance out of the family.
            Instance::Tw2(inst) => {
                let g2 = match kind {
                    MutatorKind::BitFlip => add_chord(&inst.graph, &mut m),
                    MutatorKind::LabelSwap => rewire_edge(&inst.graph, &mut m),
                    _ => None,
                };
                let Some(g2) = g2 else { return TamperOutcome::Unchanged };
                if is_treewidth_at_most_2(&g2) {
                    return TamperOutcome::Unchanged;
                }
                (Instance::Tw2(Tw2Instance { graph: g2, is_yes: false }), Some(0))
            }
        };
        classify(mutated.with_protocol(self.params, Transport::Native, |p| match cheat {
            None => p.run_honest(run_seed),
            Some(k) => p.run_cheat(k, run_seed),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_names_roundtrip() {
        for id in TARGETS {
            assert_eq!(TargetId::from_name(id.name()), Some(id));
        }
        assert_eq!(TargetId::from_name("nonsense"), None);
    }

    #[test]
    fn every_target_supports_something() {
        use super::super::MUTATORS;
        for id in TARGETS {
            assert!(MUTATORS.iter().any(|&k| id.supports(k)), "{}", id.name());
        }
    }

    #[test]
    fn primitive_deterministic_kinds_never_miss() {
        use super::super::MUTATORS;
        for id in [TargetId::ForestCode, TargetId::SpanningTree, TargetId::MultisetEq] {
            let t = build_target(id, 20, 7);
            for kind in MUTATORS {
                if !t.supports(kind) || t.determinism(kind) != Determinism::Deterministic {
                    continue;
                }
                for s in 0..4u64 {
                    let out = t.run_mutated(kind, s);
                    assert_ne!(
                        out,
                        TamperOutcome::Miss,
                        "{} / {} / seed {s}",
                        id.name(),
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn derived_targets_resolve_without_panicking() {
        use super::super::MUTATORS;
        for id in [
            TargetId::LrSorting,
            TargetId::PathOuterplanar,
            TargetId::Outerplanar,
            TargetId::EmbeddedPlanarity,
            TargetId::Planarity,
            TargetId::SeriesParallel,
            TargetId::Treewidth2,
        ] {
            let t = build_target(id, 20, 11);
            for kind in MUTATORS {
                if !t.supports(kind) {
                    continue;
                }
                // Any of the three outcomes is legal; the point is that
                // the run resolves.
                let _ = t.run_mutated(kind, 5);
            }
        }
    }
}
