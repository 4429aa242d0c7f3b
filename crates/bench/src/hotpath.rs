//! Hot-path microbenchmarks behind `pdip exp bench-hotpath`.
//!
//! Three measurements, each pairing the optimized path against the
//! division-based baseline it replaced:
//!
//! 1. **`field_mul`** — independent pairwise multiplications (the shape
//!    of per-node verifier checks): [`Fp::mul`] (Montgomery) vs
//!    [`Fp::mul_naive`] (`u128 %`).
//! 2. **`multiset_poly_eval`** — the fingerprint `φ_S(z)` over 10⁵
//!    elements: [`multiset_poly_eval`] (drifting-domain batch product)
//!    vs [`multiset_poly_eval_naive`].
//! 3. **`multiset_eq_tree_round`** — a full honest-prover aggregation
//!    over a block path: the one-pass borrowing
//!    [`MultisetEq::honest_response`] vs a reimplementation of the old
//!    shape (per-node multiset clones, naive evaluation, depth-sorted
//!    fold).
//!
//! Everything is deterministic (SplitMix64 inputs, no RNG state shared
//! across entries); only the timings vary run to run. The document
//! written by `pdip exp bench-hotpath` has schema [`HOTPATH`] and is
//! described in DESIGN.md §4a.

use crate::snapshot::{time_ns, Entry, Snapshot, HOTPATH};
use pdip_field::{multiset_poly_eval, multiset_poly_eval_naive, smallest_prime_above, Fp};
use pdip_protocols::multiset_eq::MultisetEq;
use std::hint::black_box;
use std::time::Duration;

/// Timing samples per measurement (the median is reported).
const SAMPLES: usize = 5;

/// Deterministic pseudo-random field elements (SplitMix64 stream).
fn elements(n: usize, p: u64, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % p
        })
        .collect()
}

/// The old `honest_response` shape: clone each multiset out of the
/// accessor, evaluate with the naive (`u128 %`) path, then fold
/// bottom-up by decreasing depth. Kept here purely as the
/// `multiset_eq_tree_round` baseline.
fn tree_round_legacy(
    f: &Fp,
    parent: &[Option<usize>],
    s1: &dyn Fn(usize) -> Vec<u64>,
    s2: &dyn Fn(usize) -> Vec<u64>,
    z: u64,
) -> (u64, u64) {
    let k = parent.len();
    let mut a1: Vec<u64> = (0..k).map(|i| multiset_poly_eval_naive(f, s1(i), z)).collect();
    let mut a2: Vec<u64> = (0..k).map(|i| multiset_poly_eval_naive(f, s2(i), z)).collect();
    let mut depth = vec![0usize; k];
    for (i, d_out) in depth.iter_mut().enumerate() {
        let mut d = 0;
        let mut cur = i;
        while let Some(p) = parent[cur] {
            d += 1;
            cur = p;
        }
        *d_out = d;
    }
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| depth[b].cmp(&depth[a]));
    for &i in &order {
        if let Some(p) = parent[i] {
            a1[p] = f.mul_naive(a1[p], a1[i]);
            a2[p] = f.mul_naive(a2[p], a2[i]);
        }
    }
    (a1[0], a2[0])
}

/// Runs all three paired measurements and returns the snapshot.
pub fn run_hotpath() -> Snapshot {
    let p = smallest_prime_above(1 << 20);
    let f = Fp::new(p);
    let budget = Duration::from_millis(30);
    let mut entries = Vec::new();

    // 1. Independent pairwise multiplications (the shape of per-node
    //    verifier checks: no product feeds the next).
    let xs = elements(4096, p, 11);
    let ys = elements(4096, p, 12);
    let each_with = |mul: &dyn Fn(u64, u64) -> u64| {
        let mut acc = 0u64;
        for (&a, &b) in xs.iter().zip(&ys) {
            acc = acc.wrapping_add(mul(black_box(a), black_box(b)));
        }
        black_box(acc)
    };
    entries.push(Entry {
        name: "field_mul".into(),
        n: xs.len(),
        baseline_ns: time_ns(budget, SAMPLES, || {
            each_with(&|a, b| f.mul_naive(a, b));
        }),
        fast_ns: time_ns(budget, SAMPLES, || {
            each_with(&|a, b| f.mul(a, b));
        }),
    });

    // 2. The fingerprint φ_S(z) at the acceptance-criterion size 10⁵.
    let s = elements(100_000, p, 13);
    let z = 987_654u64 % p;
    entries.push(Entry {
        name: "multiset_poly_eval".into(),
        n: s.len(),
        baseline_ns: time_ns(budget, SAMPLES, || {
            black_box(multiset_poly_eval_naive(&f, s.iter().copied(), black_box(z)));
        }),
        fast_ns: time_ns(budget, SAMPLES, || {
            black_box(multiset_poly_eval(&f, s.iter().copied(), black_box(z)));
        }),
    });

    // 3. A full multiset-equality prover round over a 512-node block path
    //    with 32 elements per node.
    let k = 512usize;
    let per = 32usize;
    let parent: Vec<Option<usize>> =
        (0..k).map(|i| if i == 0 { None } else { Some(i - 1) }).collect();
    let s1: Vec<Vec<u64>> = (0..k).map(|i| elements(per, p, 1000 + i as u64)).collect();
    let s2: Vec<Vec<u64>> = (0..k).map(|i| elements(per, p, 5000 + i as u64)).collect();
    let ms = MultisetEq::new(f);
    entries.push(Entry {
        name: "multiset_eq_tree_round".into(),
        n: k * per,
        baseline_ns: time_ns(budget, SAMPLES, || {
            black_box(tree_round_legacy(
                &f,
                &parent,
                &|i| s1[i].clone(),
                &|i| s2[i].clone(),
                black_box(z),
            ));
        }),
        fast_ns: time_ns(budget, SAMPLES, || {
            black_box(ms.honest_response(
                &parent,
                |i| s1[i].as_slice(),
                |i| s2[i].as_slice(),
                black_box(z),
            ));
        }),
    });

    Snapshot { schema: &HOTPATH, header: p.to_string(), entries, stages: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_tree_round_matches_one_pass() {
        let f = Fp::new(smallest_prime_above(1 << 16));
        let ms = MultisetEq::new(f);
        let k = 17;
        let parent: Vec<Option<usize>> =
            (0..k).map(|i| if i == 0 { None } else { Some(i - 1) }).collect();
        let s1: Vec<Vec<u64>> = (0..k).map(|i| elements(5, f.modulus(), i as u64)).collect();
        let s2: Vec<Vec<u64>> = (0..k).map(|i| elements(5, f.modulus(), 90 + i as u64)).collect();
        let z = 424_242 % f.modulus();
        let msgs = ms.honest_response(&parent, |i| s1[i].as_slice(), |i| s2[i].as_slice(), z);
        let (a1, a2) = tree_round_legacy(&f, &parent, &|i| s1[i].clone(), &|i| s2[i].clone(), z);
        assert_eq!((msgs[0].a1, msgs[0].a2), (a1, a2));
    }
}
