//! The experiment-facing protocol interface.
//!
//! Every protocol in `pdip-protocols` exposes its runs through
//! [`DipProtocol`], so the experiment harness (E1–E8) can sweep protocols,
//! instance sizes, and prover behaviours uniformly. A `DipProtocol` value
//! is a protocol *bound to one instance* (graph plus task input plus
//! parameters).

use crate::outcome::RunResult;
use pdip_obs::{NoopRecorder, Recorder};

/// A DIP bound to a concrete instance.
pub trait DipProtocol {
    /// Short protocol name, e.g. `"lr-sorting"`.
    fn name(&self) -> String;

    /// Number of interaction rounds (the paper's measure; e.g. 5 for
    /// LR-sorting, 1 for the PLS baselines).
    fn rounds(&self) -> usize;

    /// Number of nodes of the bound instance.
    fn instance_size(&self) -> usize;

    /// Ground truth: is the bound instance a yes-instance?
    fn is_yes_instance(&self) -> bool;

    /// The named cheating-prover strategies this protocol implements.
    fn cheat_names(&self) -> Vec<String>;

    /// One run with the honest prover (defined only for yes-instances;
    /// implementations may panic or reject on no-instances), with round
    /// spans and bit counters emitted to `rec`. `rec` is observe-only:
    /// the RNG call order and the [`RunResult`] do not depend on it.
    fn run_honest_traced(&self, seed: u64, rec: &dyn Recorder) -> RunResult;

    /// One run against cheating strategy `strategy` (an index into
    /// [`DipProtocol::cheat_names`]), instrumented like
    /// [`DipProtocol::run_honest_traced`].
    fn run_cheat_traced(&self, strategy: usize, seed: u64, rec: &dyn Recorder) -> RunResult;

    /// [`DipProtocol::run_honest_traced`] without instrumentation.
    fn run_honest(&self, seed: u64) -> RunResult {
        self.run_honest_traced(seed, &NoopRecorder)
    }

    /// [`DipProtocol::run_cheat_traced`] without instrumentation.
    fn run_cheat(&self, strategy: usize, seed: u64) -> RunResult {
        self.run_cheat_traced(strategy, seed, &NoopRecorder)
    }
}

/// A borrowed protocol is a protocol, so wrappers such as `Amplified`
/// can take `&dyn DipProtocol`.
impl<P: DipProtocol + ?Sized> DipProtocol for &P {
    fn name(&self) -> String {
        (**self).name()
    }
    fn rounds(&self) -> usize {
        (**self).rounds()
    }
    fn instance_size(&self) -> usize {
        (**self).instance_size()
    }
    fn is_yes_instance(&self) -> bool {
        (**self).is_yes_instance()
    }
    fn cheat_names(&self) -> Vec<String> {
        (**self).cheat_names()
    }
    fn run_honest_traced(&self, seed: u64, rec: &dyn Recorder) -> RunResult {
        (**self).run_honest_traced(seed, rec)
    }
    fn run_cheat_traced(&self, strategy: usize, seed: u64, rec: &dyn Recorder) -> RunResult {
        (**self).run_cheat_traced(strategy, seed, rec)
    }
}

/// Empirical acceptance rate over `trials` runs with distinct seeds.
///
/// Zero trials means zero observed acceptances: the rate is defined as
/// `0.0` rather than the `0/0` NaN, so downstream aggregation and
/// formatting never see a non-number.
pub fn acceptance_rate(run: impl Fn(u64) -> RunResult, base_seed: u64, trials: usize) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    let mut accepted = 0usize;
    for t in 0..trials {
        if run(base_seed.wrapping_add(t as u64)).accepted() {
            accepted += 1;
        }
    }
    accepted as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::RunResult;
    use crate::transcript::SizeStats;

    #[test]
    fn acceptance_rate_counts() {
        // Accept on even seeds only.
        let rate = acceptance_rate(
            |seed| {
                if seed % 2 == 0 {
                    RunResult::accept(SizeStats::default())
                } else {
                    RunResult::reject(SizeStats::default(), vec![(0, "odd".into())])
                }
            },
            0,
            10,
        );
        assert!((rate - 0.5).abs() < 1e-9);
    }

    #[test]
    fn acceptance_rate_zero_trials_is_zero_not_nan() {
        let rate = acceptance_rate(|_| panic!("must not run any trial when trials == 0"), 42, 0);
        assert_eq!(rate, 0.0);
    }
}
