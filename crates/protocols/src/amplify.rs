//! Parallel repetition of whole DIPs.
//!
//! The paper amplifies constant-soundness building blocks by parallel
//! repetition (remark after Lemma 2.5): `k` independent copies run in the
//! same rounds, every node rejects if any copy rejects, completeness is
//! preserved and the soundness error is raised to the k-th power, at a
//! ×k cost in label size. [`Amplified`] wraps any [`DipProtocol`] the same
//! way; the E8 ablation and the failure-injection tests use it to trade
//! label bits against soundness at the protocol level rather than inside
//! the sub-protocols.

use pdip_core::{DipProtocol, RunResult, SizeStats, Verdict};
use pdip_obs::Recorder;

/// A `k`-fold parallel repetition of an inner protocol.
#[derive(Debug)]
pub struct Amplified<P> {
    inner: P,
    k: usize,
}

impl<P: DipProtocol> Amplified<P> {
    /// Wraps `inner` with `k ≥ 1` parallel copies.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(inner: P, k: usize) -> Self {
        assert!(k >= 1, "at least one repetition required");
        Amplified { inner, k }
    }

    /// The inner protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Folds the `k` copies' runs (in copy order) into one result.
    fn combine(&self, runs: impl Iterator<Item = RunResult>) -> RunResult {
        let mut stats = SizeStats::default();
        let mut rejections = Vec::new();
        let mut kinds = Vec::new();
        let mut verdict = Verdict::Accept;
        for (copy, r) in runs.enumerate() {
            stats.merge_parallel(&r.stats);
            if !r.accepted() {
                verdict = Verdict::Reject;
                for ((v, reason), kind) in r.rejections.into_iter().zip(r.kinds) {
                    if rejections.len() < 16 {
                        rejections.push((v, format!("copy {copy}: {reason}")));
                        kinds.push(kind);
                    }
                }
            }
        }
        RunResult { verdict, stats, rejections, kinds }
    }
}

impl<P: DipProtocol> DipProtocol for Amplified<P> {
    fn name(&self) -> String {
        format!("{} x{}", self.inner.name(), self.k)
    }

    fn rounds(&self) -> usize {
        self.inner.rounds()
    }

    fn instance_size(&self) -> usize {
        self.inner.instance_size()
    }

    fn is_yes_instance(&self) -> bool {
        self.inner.is_yes_instance()
    }

    fn cheat_names(&self) -> Vec<String> {
        self.inner.cheat_names()
    }

    fn run_honest_traced(&self, seed: u64, rec: &dyn Recorder) -> RunResult {
        self.combine((0..self.k).map(|i| self.inner.run_honest_traced(copy_seed(seed, i), rec)))
    }

    fn run_cheat_traced(&self, strategy: usize, seed: u64, rec: &dyn Recorder) -> RunResult {
        self.combine(
            (0..self.k).map(|i| self.inner.run_cheat_traced(strategy, copy_seed(seed, i), rec)),
        )
    }
}

/// The run seed of copy `i` under the outer run seed `seed`.
fn copy_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lr_sorting::Transport;
    use crate::path_outerplanar::{PathOuterplanarity, PopInstance, PopParams};
    use pdip_graph::gen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn amplification_preserves_completeness() {
        let mut rng = SmallRng::seed_from_u64(141);
        let g = gen::outerplanar::random_path_outerplanar(60, 0.6, &mut rng);
        let inst = PopInstance { graph: g.graph, witness: Some(g.path), is_yes: true };
        let base = PathOuterplanarity::new(&inst, PopParams::default(), Transport::Native);
        let amp = Amplified::new(base, 3);
        assert_eq!(amp.rounds(), 5);
        for seed in 0..10 {
            let r = amp.run_honest(seed);
            assert!(r.accepted(), "{:?}", r.rejections.first());
        }
    }

    #[test]
    fn amplification_multiplies_label_sizes() {
        let mut rng = SmallRng::seed_from_u64(142);
        let g = gen::outerplanar::random_path_outerplanar(80, 0.6, &mut rng);
        let inst = PopInstance { graph: g.graph, witness: Some(g.path), is_yes: true };
        let base = PathOuterplanarity::new(&inst, PopParams::default(), Transport::Native);
        let single = base.run_honest(1).stats.proof_size();
        let amp = Amplified::new(base, 4);
        let quad = amp.run_honest(1).stats.proof_size();
        assert_eq!(quad, 4 * single);
    }

    #[test]
    fn amplification_reduces_cheat_survival() {
        // One-extra-root fake path: survival ~1/#primes per copy.
        let n = 40;
        let mut g = pdip_graph::Graph::from_edges(n - 1, (0..n - 2).map(|i| (i, i + 1)));
        let pend = g.add_node();
        g.add_edge(n / 2, pend);
        let inst = PopInstance { graph: g, witness: None, is_yes: false };
        let params = PopParams { c: 2, st_repetitions: 1 };
        let trials = 150u64;
        let count = |k: usize| {
            let base = PathOuterplanarity::new(&inst, params, Transport::Native);
            let amp = Amplified::new(base, k);
            (0..trials).filter(|&t| amp.run_cheat(0, t).accepted()).count()
        };
        let one = count(1);
        let three = count(3);
        assert!(three <= one, "x3 amplification should not increase survival");
        assert!(three <= trials as usize / 20, "x3 survival too high: {three}/{trials}");
    }
}
