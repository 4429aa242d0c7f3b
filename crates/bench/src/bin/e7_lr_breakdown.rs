//! E7 — LR-sorting internals: the per-round communication breakdown.
//!
//! The key technical barrier of the paper (§3, §4) is LR-sorting. This
//! binary dissects the honest run: block length, field sizes, and the
//! bits of each of the three prover rounds, across instance sizes and
//! both edge-label transports (native / simulated via Lemma 2.4).

use pdip_bench::print_table;
use pdip_graph::gen;
use pdip_obs::NoopRecorder;
use pdip_protocols::{LrParams, LrSorting, Transport};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    println!("E7 — LR-sorting per-round breakdown (honest prover)\n");
    let headers = [
        "n",
        "transport",
        "block L",
        "|F_p| bits",
        "|F_p'| bits",
        "P1 bits",
        "P2 bits",
        "P3 bits",
        "proof size",
        "coin bits/node",
    ];
    let mut rows = Vec::new();
    for k in [8usize, 10, 12, 14, 16] {
        let n = 1usize << k;
        let mut rng = SmallRng::seed_from_u64(k as u64);
        let inst = gen::lr::random_lr_yes(n, n / 3, true, &mut rng);
        for transport in [Transport::Native, Transport::Simulated] {
            let lr = LrSorting::new(&inst, LrParams::default(), transport);
            let res = lr.run(None, 9, &NoopRecorder);
            assert!(res.accepted(), "n = {n}");
            rows.push(vec![
                n.to_string(),
                format!("{transport:?}"),
                lr.block_len.to_string(),
                lr.field_p.element_bits().to_string(),
                lr.field_pp.element_bits().to_string(),
                res.stats.per_round_max_bits[0].to_string(),
                res.stats.per_round_max_bits[1].to_string(),
                res.stats.per_round_max_bits[2].to_string(),
                res.stats.proof_size().to_string(),
                (res.stats.coin_bits / n).to_string(),
            ]);
        }
    }
    print_table(&headers, &rows);
    println!(
        "\nShape check: the block length is ⌈log₂ n⌉; the fields are polylog n, so\n\
         their element widths — and with them every round — grow with log log n.\n\
         The simulated transport adds the constant forest-code overhead of\n\
         Lemma 2.4 to round 1 and folds the per-edge labels into node labels."
    );
}
