//! Property-based audit of the chaos harness on tiny instances.
//!
//! The contract under test (experiment E9, ISSUE satellite): for *any*
//! target, mutator kind and seed pair on instances of size n ≤ 12, a
//! single-site mutation of an honest transcript is
//!
//! * never accepted when the corruption class is deterministic (the
//!   structural checks are coin-independent),
//! * never a panic (hardened verifiers reject structured corruption
//!   instead of unwinding), and
//! * reproducible: the same (target, n, gen seed, kind, run seed) tuple
//!   classifies identically on every execution.
//!
//! Probabilistic classes may miss on individual seeds — that is the ε
//! budget, audited in aggregate by `pdip exp e9` — so here they are only
//! required to be panic-free and reproducible.

use pdip_engine::chaos::{build_target, Determinism, TamperOutcome, MUTATORS, TARGETS};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn classify(
    target_idx: usize,
    kind_idx: usize,
    n: usize,
    gen_seed: u64,
    run_seed: u64,
) -> Result<Option<(TamperOutcome, Determinism)>, String> {
    let id = TARGETS[target_idx];
    let kind = MUTATORS[kind_idx];
    catch_unwind(AssertUnwindSafe(|| {
        let target = build_target(id, n, gen_seed);
        if !target.supports(kind) {
            return None;
        }
        Some((target.run_mutated(kind, run_seed), target.determinism(kind)))
    }))
    .map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        format!("{} / {} panicked at n={n}: {msg}", id.name(), kind.name())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// Any single-site mutation on a tiny instance is detected (if its
    /// class is deterministic), a budgeted miss, or a no-op — and never
    /// a panic, whatever the seeds.
    #[test]
    fn single_site_mutations_are_classified_not_panicked(
        target_idx in 0usize..TARGETS.len(),
        kind_idx in 0usize..MUTATORS.len(),
        n in 6usize..=12,
        gen_seed in 0u64..u64::MAX,
        run_seed in 0u64..u64::MAX,
    ) {
        match classify(target_idx, kind_idx, n, gen_seed, run_seed) {
            Err(msg) => prop_assert!(false, "{}", msg),
            Ok(None) => {} // unsupported kind for this target: skipped
            Ok(Some((outcome, determinism))) => {
                if determinism == Determinism::Deterministic {
                    prop_assert!(
                        outcome != TamperOutcome::Miss,
                        "{} / {}: deterministic corruption accepted at \
                         n={n} gen={gen_seed} run={run_seed}",
                        TARGETS[target_idx].name(),
                        MUTATORS[kind_idx].name(),
                    );
                }
            }
        }
    }

    /// The chaos path is a pure function of its seeds: re-running the
    /// same tuple classifies identically.
    #[test]
    fn chaos_classification_is_reproducible(
        target_idx in 0usize..TARGETS.len(),
        kind_idx in 0usize..MUTATORS.len(),
        n in 6usize..=12,
        gen_seed in 0u64..u64::MAX,
        run_seed in 0u64..u64::MAX,
    ) {
        let a = classify(target_idx, kind_idx, n, gen_seed, run_seed);
        let b = classify(target_idx, kind_idx, n, gen_seed, run_seed);
        prop_assert_eq!(a, b);
    }
}
