//! Property-based tests at the protocol level: completeness across all six
//! families under random instance shapes, seeds, transports and
//! amplification; determinism of repeated runs with equal seeds; and
//! proof-size monotonicity sanity.

use planarity_dip::protocols::{PopParams, Transport};
use proptest::prelude::*;

use pdip_engine::{no_instance, Family, Instance, FAMILIES};

fn family_strategy() -> impl Strategy<Value = Family> {
    prop::sample::select(FAMILIES.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Perfect completeness holds for every family, size and seed.
    #[test]
    fn completeness_everywhere(
        fam in family_strategy(),
        n in 8usize..200,
        gen_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let inst = Instance::generate(fam, n, gen_seed);
        inst.with_protocol(PopParams::default(), Transport::Native, |p| {
            prop_assert!(p.is_yes_instance(), "generator must produce yes-instances");
            let res = p.run_honest(run_seed);
            prop_assert!(res.accepted(), "{}: {:?}", p.name(), res.rejections.first());
            prop_assert_eq!(res.stats.rounds, 5);
            Ok(())
        })?;
    }

    /// Runs are deterministic in the seed: equal seeds give equal stats
    /// and verdicts.
    #[test]
    fn runs_are_seed_deterministic(
        fam in family_strategy(),
        n in 8usize..120,
        seed in 0u64..500,
    ) {
        let inst = Instance::generate(fam, n, 77);
        inst.with_protocol(PopParams::default(), Transport::Native, |p| {
            let a = p.run_honest(seed);
            let b = p.run_honest(seed);
            prop_assert_eq!(a.accepted(), b.accepted());
            prop_assert_eq!(a.stats.proof_size(), b.stats.proof_size());
            prop_assert_eq!(&a.stats.per_round_max_bits, &b.stats.per_round_max_bits);
            Ok(())
        })?;
    }

    /// Soundness smoke: for a random family and cheat, acceptance over a
    /// small batch of runs never exceeds 50% (the theorem bound is
    /// 1/polylog n, far below 1/2).
    #[test]
    fn cheats_never_beat_a_coin(
        fam in family_strategy(),
        strat_pick in 0usize..8,
        seed in 0u64..200,
    ) {
        let inst = no_instance(fam, 80, seed);
        inst.with_protocol(PopParams::default(), Transport::Native, |p| {
            prop_assert!(!p.is_yes_instance());
            let s = strat_pick % p.cheat_names().len();
            let accepted = (0..8).filter(|&t| p.run_cheat(s, seed * 31 + t).accepted()).count();
            prop_assert!(accepted <= 4, "{} cheat {} accepted {accepted}/8", p.name(), s);
            Ok(())
        })?;
    }

    /// The simulated edge-label transport preserves completeness for the
    /// planar families.
    #[test]
    fn simulated_transport_completeness(
        fam in prop::sample::select(vec![
            Family::PathOuterplanar,
            Family::Outerplanar,
            Family::EmbeddedPlanarity,
            Family::Planarity,
        ]),
        n in 8usize..100,
        seed in 0u64..300,
    ) {
        let inst = Instance::generate(fam, n, seed);
        inst.with_protocol(PopParams::default(), Transport::Simulated, |p| {
            let res = p.run_honest(seed ^ 0x5555);
            prop_assert!(res.accepted(), "{}: {:?}", p.name(), res.rejections.first());
            Ok(())
        })?;
    }
}
