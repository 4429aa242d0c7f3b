//! Round-trip guarantees of the `pdip-wire` transcript format: for every
//! family and instance size, `decode(encode(t))` must reproduce the
//! transcript structurally AND re-encode to byte-identical output.

use pdip_engine::{no_instance, Family, Instance, FAMILIES};
use planarity_dip::protocols::{PopParams, Transport};
use planarity_dip::wire::Transcript;
use proptest::prelude::*;

/// Structural + byte round-trip of one recorded transcript.
fn assert_roundtrip(t: &Transcript) {
    let bytes = t.encode();
    let back = Transcript::decode(&bytes).expect("valid transcript must decode");
    assert_eq!(back.prover, t.prover);
    assert_eq!(back.transport, t.transport);
    assert_eq!(back.params_c, t.params_c);
    assert_eq!(back.params_st_reps, t.params_st_reps);
    assert_eq!(back.gen_seed, t.gen_seed);
    assert_eq!(back.run_seed, t.run_seed);
    assert_eq!(back.instance.family(), t.instance.family());
    assert_eq!(back.instance.n(), t.instance.n());
    assert_eq!(back.instance.is_yes(), t.instance.is_yes());
    assert_eq!(back.rounds.rounds.len(), t.rounds.rounds.len());
    for (a, b) in back.rounds.rounds.iter().zip(&t.rounds.rounds) {
        assert_eq!(a.stage, b.stage);
        assert_eq!(a.payload, b.payload);
    }
    assert_eq!(back.stats, t.stats);
    assert_eq!(back.accepted, t.accepted);
    assert_eq!(back.encode(), bytes, "re-encode must be byte-identical");
}

/// The fixed matrix the format must cover: all six families at the
/// requested sizes n ∈ {1, 2, 64} (generators apply their documented
/// per-family size floors), honest prover plus cheat strategy 0.
#[test]
fn all_families_roundtrip_at_small_and_medium_sizes() {
    for (fi, fam) in FAMILIES.iter().enumerate() {
        for (ni, n) in [1usize, 2, 64].iter().enumerate() {
            let seed = 1000 + (fi as u64) * 10 + ni as u64;
            let yes = Instance::generate(*fam, *n, seed);
            let honest = Transcript::record(
                yes,
                PopParams::default(),
                Transport::Simulated,
                0,
                seed,
                seed ^ 0x5eed,
            );
            assert_roundtrip(&honest);

            let no = no_instance(*fam, (*n).max(8), seed);
            let cheat = Transcript::record(
                no,
                PopParams::default(),
                Transport::Native,
                1,
                seed,
                seed ^ 0xbad,
            );
            assert_roundtrip(&cheat);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(36))]

    /// Random (family, size-class, seed, prover) points round-trip.
    #[test]
    fn random_transcripts_roundtrip(
        fi in 0usize..6,
        ni in 0usize..3,
        seed in 0u64..100_000,
        honest in 0u8..2,
    ) {
        let fam: Family = FAMILIES[fi];
        let n = [1usize, 2, 64][ni];
        let inst = if honest == 1 {
            Instance::generate(fam, n, seed)
        } else {
            no_instance(fam, n.max(8), seed)
        };
        let prover = if honest == 1 { 0 } else { 1 };
        let t = Transcript::record(
            inst,
            PopParams::default(),
            Transport::Simulated,
            prover,
            seed,
            seed.wrapping_mul(0x9e37_79b9) | 1,
        );
        assert_roundtrip(&t);
    }
}
