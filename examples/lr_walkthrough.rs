//! A guided walkthrough of the LR-sorting protocol (§4 of the paper) on a
//! small instance: prints the block construction, the per-node labels of
//! every prover round, and the verification-scheme multisets, so the
//! machinery of Lemma 4.1 can be read off directly.
//!
//! ```text
//! cargo run --example lr_walkthrough
//! ```

use pdip_obs::NoopRecorder;
use planarity_dip::graph::gen::lr::random_lr_yes;
use planarity_dip::protocols::{LrCheat, LrParams, LrSorting, Transport};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let n = 24;
    let mut rng = SmallRng::seed_from_u64(5);
    let inst = random_lr_yes(n, 10, true, &mut rng);
    let lr = LrSorting::new(&inst, LrParams::default(), Transport::Native);

    println!("LR-sorting on n = {n} nodes, m = {} edges", inst.graph.m());
    println!("block length L = ⌈log₂ n⌉ = {}", lr.block_len);
    println!(
        "fields: 𝔽_p with p = {} ({} bits), 𝔽_p' with p' = {} ({} bits)\n",
        lr.field_p.modulus(),
        lr.field_p.element_bits(),
        lr.field_pp.modulus(),
        lr.field_pp.element_bits()
    );

    println!("path order (node ids left to right):");
    println!("  {:?}\n", inst.path);

    let res = lr.run(None, 77, &NoopRecorder);
    println!("honest run: accepted = {}", res.accepted());
    println!("prover rounds (P1, P2, P3) max label bits: {:?}", res.stats.per_round_max_bits);
    println!("proof size (longest label): {} bits", res.stats.proof_size());
    println!("verifier coins: {} bits total over 2 verifier rounds\n", res.stats.coin_bits);

    println!("What each round carries (see §4 of the paper / lr_sorting.rs):");
    println!("  P1  block index i_v, the i-th bits of pos(b) and pos(b)+1, the");
    println!("      increment-pivot mark, the verification multiplicities, and");
    println!("      per-edge inner/outer flags with distinguishing indices.");
    println!("  V1  the path head samples r, r'; every block head samples r_b.");
    println!("  P2  echoes of r, r', r_b; the cumulative evaluations A2/B1 for");
    println!("      the adjacent-block equality x2(b) = x1(b'); the prefix");
    println!("      evaluations φ_i(r'); per-outer-edge commitments φ_(I-1)(r').");
    println!("  V2  block heads sample the verification challenges z0, z1.");
    println!("  P3  two in-block multiset equalities: C1(b) vs D1(b) and");
    println!("      C0(b) vs D0(b), aggregated along the block path.");

    // Show that one flipped edge flips the verdict.
    let mut bad = inst.clone();
    let non_path = (0..bad.graph.m())
        .find(|e| !bad.path_edges.contains(e))
        .expect("instance has a non-path edge");
    bad.orientation.flip(non_path);
    let lr_bad = LrSorting::new(&bad, LrParams::default(), Transport::Native);
    let mut rejected = 0;
    let trials = 50;
    for seed in 0..trials {
        if !lr_bad.run(Some(LrCheat::OuterForgedIndex), seed, &NoopRecorder).accepted() {
            rejected += 1;
        }
    }
    println!(
        "\nafter flipping one edge and playing the strongest cheat: rejected {rejected}/{trials} runs"
    );
}
