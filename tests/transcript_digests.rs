//! Byte pins of every family's transcripts. `results/golden_v1.transcript`
//! pins one path-outerplanarity run; this file pins all six families:
//! per family, the FNV-1a-64 digests of the encoded transcripts of
//!
//! * honest runs on `Instance::generate`, native and simulated transport;
//! * every prover (honest plus each cheat) on `no_instance`;
//!
//! at a few sizes and seeds are folded into one value and compared with
//! a constant. A prover or kernel rewrite that claims byte-identical
//! output must leave every constant unchanged; a deliberate change of
//! transcript bytes must update them and say why.

use pdip_engine::{no_instance, Family, Instance, FAMILIES};
use planarity_dip::protocols::{PopParams, Transport};
use planarity_dip::wire::{fnv1a64, Transcript};

const SIZES: [usize; 3] = [12, 40, 200];
const SEEDS: [u64; 3] = [0, 1, 2];

/// The folded digest of every pinned transcript of `family`.
fn family_digest(family: Family) -> u64 {
    let params = PopParams::default();
    let mut digests = Vec::new();
    let mut push = |t: Transcript| digests.extend_from_slice(&fnv1a64(&t.encode()).to_le_bytes());
    for n in SIZES {
        for seed in SEEDS {
            let run_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n as u64;
            for transport in [Transport::Native, Transport::Simulated] {
                let inst = Instance::generate(family, n, seed);
                push(Transcript::record(inst, params, transport, 0, seed, run_seed));
            }
            let no = no_instance(family, n, seed);
            for prover in 0..=family.cheat_count() {
                push(Transcript::record(
                    no.clone(),
                    params,
                    Transport::Native,
                    prover as u8,
                    seed,
                    run_seed,
                ));
            }
        }
    }
    fnv1a64(&digests)
}

#[test]
fn every_family_transcript_digest_is_pinned() {
    let expected: [(Family, u64); 6] = [
        (Family::PathOuterplanar, 0xa43a_e15d_f70f_464b),
        (Family::Outerplanar, 0x947d_9bb0_5b6f_e78d),
        (Family::EmbeddedPlanarity, 0x46c8_df17_b6fb_f10c),
        (Family::Planarity, 0x0158_b9be_132a_49bc),
        (Family::SeriesParallel, 0x7eea_8dfd_672e_1c26),
        (Family::Treewidth2, 0x8d57_2d1a_a785_ceb0),
    ];
    assert_eq!(expected.map(|(f, _)| f), FAMILIES, "one pin per family, in table order");
    let changed: Vec<String> = expected
        .iter()
        .map(|&(family, want)| (family, want, family_digest(family)))
        .filter(|&(_, want, have)| have != want)
        .map(|(family, want, have)| {
            format!("{}: digest {have:#018x}, pinned {want:#018x}", family.name())
        })
        .collect();
    assert!(changed.is_empty(), "transcripts changed:\n{}", changed.join("\n"));
}
