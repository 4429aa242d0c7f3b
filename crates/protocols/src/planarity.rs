//! The planarity protocol (Theorem 1.5, Lemma 7.2 of the paper).
//!
//! The prover computes a combinatorial planar embedding ρ(G) and hands
//! every node its clockwise values: for each edge `e = (u, v)` the ordered
//! pair `(ρ_u(e), ρ_v(e))` is written on the edge (via the Lemma 2.4
//! forest slots), costing O(log Δ) bits. Each node locally checks the
//! received values form a permutation of `0..deg(v)`, then the
//! embedded-planarity protocol (Theorem 1.4) verifies that ρ is planar.
//! `G` is planar iff some ρ passes — completeness picks the witness
//! embedding, soundness inherits from Theorem 1.4 because a non-planar
//! graph has no genus-0 rotation system.

use crate::embedded_planarity::{EmbCheat, EmbInstance, EmbeddedPlanarity};
use crate::lr_sorting::Transport;
use crate::path_outerplanar::PopParams;
use pdip_core::{bits_for_domain, DipProtocol, Rejections, RunResult};
use pdip_graph::{Graph, RotationSystem};
use pdip_obs::{counter, span, Recorder, SpanId, Stopwatch};

/// A planarity instance: graph plus (for yes-instances) a witness
/// embedding.
#[derive(Debug, Clone)]
pub struct PlInstance {
    /// The instance graph (connected).
    pub graph: Graph,
    /// A genus-0 rotation system, when one is known.
    pub witness_rho: Option<RotationSystem>,
    /// Ground truth.
    pub is_yes: bool,
}

/// Cheats: the rotation the prover distributes on a non-planar graph,
/// plus the sub-cheat played inside the embedded-planarity run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlCheat {
    /// Port-order rotations + honest sweep.
    PortOrderHonestSweep,
    /// Port-order rotations + force-marked arc.
    PortOrderForceMark,
    /// Port-order rotations + fake spanning tree.
    PortOrderFakeTree,
}

/// All cheats in interface order.
pub const PL_CHEATS: [PlCheat; 3] =
    [PlCheat::PortOrderHonestSweep, PlCheat::PortOrderForceMark, PlCheat::PortOrderFakeTree];

/// The planarity DIP bound to an instance.
#[derive(Debug)]
pub struct Planarity<'a> {
    inst: &'a PlInstance,
    params: PopParams,
    transport: Transport,
}

impl<'a> Planarity<'a> {
    /// Binds the protocol to an instance.
    pub fn new(inst: &'a PlInstance, params: PopParams, transport: Transport) -> Self {
        Planarity { inst, params, transport }
    }

    /// One full run with an instrumentation [`Recorder`]: a rotation
    /// span with a `delta_bits` counter, the inner Theorem 1.4 trace, and
    /// per-round bit counters ([`pdip_core::trace_stats`]). With a
    /// disabled recorder this is the same run.
    pub fn run(&self, cheat: Option<PlCheat>, seed: u64, rec: &dyn Recorder) -> RunResult {
        let g = &self.inst.graph;
        let mut rej = Rejections::new();
        // The prover's rotation system.
        let rot_span = span(rec, 0, SpanId::new("planarity/rotation"));
        let rot_watch = Stopwatch::start(rec, "round/rotation");
        let rho = match (&self.inst.witness_rho, cheat) {
            (Some(w), None) => w.clone(),
            _ => RotationSystem::port_order(g),
        };
        drop(rot_span);
        // Local well-formedness: each node's received values are a
        // permutation of 0..deg(v) (RotationSystem enforces this
        // structurally; a malformed assignment would be a deterministic
        // local reject, so nothing probabilistic is lost here).
        for v in 0..g.n() {
            rej.check(v, rho.order_at(v).len() == g.degree(v), || {
                "pl: rotation is not a permutation of incident edges".into()
            });
        }
        drop(rot_watch);
        let prep_watch = Stopwatch::start(rec, "round/instance-prep");
        let emb_inst = EmbInstance { graph: g.clone(), is_yes: rho.is_planar_embedding(g), rho };
        drop(prep_watch);
        let emb = EmbeddedPlanarity::new(&emb_inst, self.params, self.transport);
        let sub_cheat = match cheat {
            Some(PlCheat::PortOrderHonestSweep) => Some(EmbCheat::HonestSweep),
            Some(PlCheat::PortOrderForceMark) => Some(EmbCheat::ForceMark),
            Some(PlCheat::PortOrderFakeTree) => Some(EmbCheat::FakeTree),
            None => None,
        };
        let res = emb.run(sub_cheat, seed, rec);
        let mut stats = res.stats.clone();
        // The Δ-dependent overhead: the pair (ρ_u(e), ρ_v(e)) on each edge
        // rides round 1.
        let delta_bits = 2 * bits_for_domain(g.max_degree().max(1));
        counter(rec, 0, SpanId::new("planarity/rotation"), "delta_bits", delta_bits as u64);
        if let Some(b) = stats.per_round_max_bits.first_mut() {
            *b += match self.transport {
                Transport::Native => delta_bits,
                Transport::Simulated => 5 * (delta_bits + 1),
            };
        }
        for ((v, reason), kind) in res.rejections.into_iter().zip(res.kinds) {
            rej.reject_as(v, kind, reason);
        }
        rej.into_result(stats).traced(rec, "planarity")
    }
}

impl DipProtocol for Planarity<'_> {
    fn name(&self) -> String {
        "planarity".into()
    }

    fn rounds(&self) -> usize {
        5
    }

    fn instance_size(&self) -> usize {
        self.inst.graph.n()
    }

    fn is_yes_instance(&self) -> bool {
        self.inst.is_yes
    }

    fn cheat_names(&self) -> Vec<String> {
        vec![
            "port-order+honest-sweep".into(),
            "port-order+force-mark".into(),
            "port-order+fake-tree".into(),
        ]
    }

    fn run_honest_traced(&self, seed: u64, rec: &dyn Recorder) -> RunResult {
        self.run(None, seed, rec)
    }

    fn run_cheat_traced(&self, strategy: usize, seed: u64, rec: &dyn Recorder) -> RunResult {
        self.run(Some(PL_CHEATS[strategy]), seed, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdip_graph::gen::no_instances::nonplanar_with_gadget;
    use pdip_graph::gen::planar::{random_planar, triangulation_with_degree};
    use pdip_obs::NoopRecorder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn perfect_completeness() {
        let mut rng = SmallRng::seed_from_u64(101);
        for n in [4usize, 12, 50, 150] {
            let gen = random_planar(n, 0.7, &mut rng);
            let inst = PlInstance { graph: gen.graph, witness_rho: Some(gen.rho), is_yes: true };
            let p = Planarity::new(&inst, PopParams::default(), Transport::Native);
            for seed in 0..3 {
                let res = p.run_honest(seed);
                assert!(res.accepted(), "n={n}: {:?}", res.rejections.first());
            }
        }
    }

    #[test]
    fn nonplanar_rejected() {
        let mut rng = SmallRng::seed_from_u64(102);
        for cheat in [PlCheat::PortOrderHonestSweep, PlCheat::PortOrderForceMark] {
            let mut accepted = 0;
            for seed in 0..40 {
                let g = nonplanar_with_gadget(15, 1, seed % 2 == 0, &mut rng);
                let inst = PlInstance { graph: g, witness_rho: None, is_yes: false };
                let p = Planarity::new(&inst, PopParams::default(), Transport::Native);
                if p.run(Some(cheat), seed, &NoopRecorder).accepted() {
                    accepted += 1;
                }
            }
            assert!(accepted <= 4, "{cheat:?} accepted {accepted}/40");
        }
    }

    #[test]
    fn round1_size_grows_with_delta() {
        // The O(log Δ) term rides the first prover round (the rotation
        // values); with moderate Δ the O(log log n) rounds still dominate
        // the overall proof size, so measure round 1 directly.
        let mut rng = SmallRng::seed_from_u64(103);
        let mut sizes = Vec::new();
        for delta in [6usize, 30, 120] {
            let gen = triangulation_with_degree(200, delta, &mut rng);
            let inst = PlInstance { graph: gen.graph, witness_rho: Some(gen.rho), is_yes: true };
            let p = Planarity::new(&inst, PopParams::default(), Transport::Native);
            let res = p.run_honest(5);
            assert!(res.accepted());
            sizes.push(res.stats.per_round_max_bits[0]);
        }
        assert!(sizes[2] > sizes[0], "Δ-dependence missing: {sizes:?}");
    }
}
