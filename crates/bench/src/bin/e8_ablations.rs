//! E8 — ablations on the design choices DESIGN.md calls out.
//!
//! 1. **Block length** (§4 remark): the paper picks blocks of ⌈log₂ n⌉
//!    nodes. Smaller blocks shrink the position fields but multiply the
//!    block count (and break once positions no longer fit — the
//!    implementation auto-bumps); larger blocks waste bits.
//! 2. **Soundness exponent c**: fields of size log^c n trade label width
//!    against the 1/polylog n soundness error.
//! 3. **Spanning-tree repetitions** (Lemma 2.5 amplification): each
//!    repetition adds a prime/residue pair and squares the cheat's
//!    survival probability.

use pdip_bench::print_table;
use pdip_graph::gen;
use pdip_obs::NoopRecorder;
use pdip_protocols::{LrCheat, LrParams, LrSorting, Transport};
use pdip_protocols::{PathOuterplanarity, PopCheat, PopInstance, PopParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let n = 4096;
    let mut rng = SmallRng::seed_from_u64(8);

    // --- Ablation 1: LR-sorting block length ---
    println!("E8a — LR-sorting block-length ablation (n = {n})\n");
    let inst = gen::lr::random_lr_yes(n, n / 3, true, &mut rng);
    let headers = ["requested L", "effective L", "proof size", "accepted"];
    let mut rows = Vec::new();
    for req in [2usize, 4, 8, 12, 24, 64, 256] {
        let lr = LrSorting::new(&inst, LrParams { c: 3, block_len: Some(req) }, Transport::Native);
        let res = lr.run(None, 1, &NoopRecorder);
        rows.push(vec![
            req.to_string(),
            lr.block_len.to_string(),
            res.stats.proof_size().to_string(),
            res.accepted().to_string(),
        ]);
    }
    print_table(&headers, &rows);
    println!(
        "\nThe paper's choice L = ⌈log₂ n⌉ = 12 sits at the sweet spot: shorter\n\
         blocks are bumped up (positions must fit in L bits), longer blocks only\n\
         add index width.\n"
    );

    // --- Ablation 2: soundness exponent c ---
    println!("E8b — field exponent c: label width vs measured soundness (n = 256)\n");
    let headers = ["c", "proof size", "cheat acceptance (outer-forged-index)"];
    let mut rows = Vec::new();
    for c in [1u32, 2, 3, 4] {
        let mut size = 0;
        let mut accepted = 0u32;
        let trials = 120;
        for t in 0..trials {
            let mut rng = SmallRng::seed_from_u64(1000 + t as u64);
            let Some(no) = gen::lr::random_lr_no(256, 100, true, 1, &mut rng) else { continue };
            let lr = LrSorting::new(&no, LrParams { c, block_len: None }, Transport::Native);
            if lr.run(Some(LrCheat::OuterForgedIndex), t as u64, &NoopRecorder).accepted() {
                accepted += 1;
            }
            let yes = gen::lr::random_lr_yes(256, 100, true, &mut rng);
            let lr_yes = LrSorting::new(&yes, LrParams { c, block_len: None }, Transport::Native);
            size = lr_yes.run(None, t as u64, &NoopRecorder).stats.proof_size();
        }
        rows.push(vec![c.to_string(), size.to_string(), format!("{accepted}/{trials}")]);
    }
    print_table(&headers, &rows);
    println!(
        "\nLarger c widens every field element but drives the soundness error down\n\
         polynomially in log n.\n"
    );

    // --- Ablation 3: spanning-tree repetition ---
    // A path with one pendant node: the greedy fake path misses exactly
    // the pendant, so the cheat survives iff the two claimed roots sample
    // the same prime in every repetition — the repetition count drives
    // the survival probability to (1/#primes)^rep.
    println!("E8c — spanning-tree verification repetitions (one-extra-root cheat, n = 64)\n");
    let headers = ["repetitions", "fake-path acceptance", "ST label bits"];
    let mut rows = Vec::new();
    let n_small = 64usize;
    let mut g = pdip_graph::Graph::from_edges(n_small - 1, (0..n_small - 2).map(|i| (i, i + 1)));
    let pend = g.add_node();
    g.add_edge(n_small / 2, pend);
    let inst = PopInstance { graph: g, witness: None, is_yes: false };
    for rep in [1usize, 2, 4] {
        let trials = 400;
        let mut accepted = 0;
        let mut size = 0;
        let params = PopParams { c: 2, st_repetitions: rep };
        let p = PathOuterplanarity::new(&inst, params, Transport::Native);
        for t in 0..trials {
            let res = p.run(Some(PopCheat::FakePath), 2000 + t as u64, &NoopRecorder);
            if res.accepted() {
                accepted += 1;
            }
            size = size.max(res.stats.per_round_max_bits.get(1).copied().unwrap_or(0));
        }
        rows.push(vec![rep.to_string(), format!("{accepted}/{trials}"), size.to_string()]);
    }
    print_table(&headers, &rows);
    println!(
        "\nEach repetition multiplies the cheat's survival probability by another\n\
         1/#primes factor while adding one prime/residue pair to the labels."
    );
}
