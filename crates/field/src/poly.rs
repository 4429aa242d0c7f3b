//! Multiset polynomials and prefix evaluations.
//!
//! * [`multiset_poly_eval`] computes `φ_S(z) = ∏_{s ∈ S} (s − z)` over 𝔽_p —
//!   the multiset-equality polynomial of Lemma 2.6 of the paper.
//! * [`prefix_poly_evals`] computes, for a bitstring `x[1..L]` (most
//!   significant bit first), the values `φ_i(z)` of the polynomials
//!   identified with the prefixes `x[1..i]` interpreted as the subset
//!   `{ j ≤ i : x[j] = 1 }` of `[L]` — exactly the per-node values
//!   `φ_i^b(r')` of the LR-sorting commitment scheme (§4.2).

use crate::field::Fp;

/// Evaluates `φ_S(z) = ∏_{s ∈ S} (s − z)` over the field.
///
/// Runs on [`Fp::product_accumulate`]: one Montgomery step per element
/// and a single domain fixup at the end, no divisions. The
/// division-based reference lives in [`multiset_poly_eval_naive`].
pub fn multiset_poly_eval(f: &Fp, s: impl IntoIterator<Item = u64>, z: u64) -> u64 {
    let z = f.reduce(z);
    f.product_accumulate(1, s.into_iter().map(|x| f.sub(x, z)))
}

/// Reference evaluation of `φ_S(z)` through [`Fp::mul_naive`] (one
/// `u128` hardware remainder per element) — the differential-test and
/// `pdip exp bench-hotpath` baseline.
pub fn multiset_poly_eval_naive(f: &Fp, s: impl IntoIterator<Item = u64>, z: u64) -> u64 {
    let z = f.reduce(z);
    let mut acc = 1u64;
    for x in s {
        acc = f.mul_naive(acc, f.sub(x, z));
    }
    acc
}

/// For a bitstring (MSB first, 1-indexed conceptually), the cumulative
/// evaluations `φ_0(z), φ_1(z), ..., φ_L(z)` where
/// `φ_i(z) = ∏_{j ≤ i, bits[j-1]} (j − z)`.
///
/// Returns a vector of length `L + 1` (`out[0] = 1`, empty prefix).
/// The index `j` fed into the polynomial is 1-based, matching the paper's
/// subset-of-`[⌈log n⌉]` encoding.
pub fn prefix_poly_evals(f: &Fp, bits: &[bool], z: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(bits.len() + 1);
    let mut acc = 1u64;
    out.push(acc);
    for (j, &b) in bits.iter().enumerate() {
        if b {
            acc = f.mul(acc, f.sub((j + 1) as u64, z));
        }
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::smallest_prime_above;

    #[test]
    fn empty_multiset_is_one() {
        let f = Fp::new(101);
        assert_eq!(multiset_poly_eval(&f, [], 42), 1);
        assert_eq!(multiset_poly_eval_naive(&f, [], 42), 1);
    }

    #[test]
    fn fast_and_naive_evaluations_agree() {
        let f = Fp::new(smallest_prime_above(1 << 16));
        let s: Vec<u64> = (0..500u64).map(|i| i * i + 3).collect();
        for z in [0u64, 1, 17, 65_536, u64::MAX] {
            assert_eq!(
                multiset_poly_eval(&f, s.iter().copied(), z),
                multiset_poly_eval_naive(&f, s.iter().copied(), z),
                "z={z}"
            );
        }
    }

    #[test]
    fn multiplicities_matter() {
        let f = Fp::new(smallest_prime_above(1000));
        let a = multiset_poly_eval(&f, [5u64, 5, 9], 3);
        let b = multiset_poly_eval(&f, [5u64, 9, 9], 3);
        assert_ne!(a, b);
        let c = multiset_poly_eval(&f, [9u64, 5, 5], 3);
        assert_eq!(a, c); // order-independent
    }

    #[test]
    fn roots_vanish() {
        let f = Fp::new(101);
        assert_eq!(multiset_poly_eval(&f, [7u64, 13], 7), 0);
        assert_eq!(multiset_poly_eval(&f, [7u64, 13], 13), 0);
        assert_ne!(multiset_poly_eval(&f, [7u64, 13], 8), 0);
    }

    #[test]
    fn prefix_evals_match_direct() {
        let f = Fp::new(smallest_prime_above(1 << 12));
        let bits = [true, false, true, true, false, true];
        let z = 999u64;
        let prefs = prefix_poly_evals(&f, &bits, z);
        assert_eq!(prefs.len(), bits.len() + 1);
        for i in 0..=bits.len() {
            let subset: Vec<u64> = (1..=i).filter(|&j| bits[j - 1]).map(|j| j as u64).collect();
            assert_eq!(prefs[i], multiset_poly_eval(&f, subset, z), "prefix {i}");
        }
    }

    #[test]
    fn equal_prefixes_agree_unequal_rarely() {
        let f = Fp::new(smallest_prime_above(1 << 16));
        let x = [true, true, false, true];
        let y = [true, false, false, true]; // differs at index 2
        let mut diff_at = Vec::new();
        for z in 0..100u64 {
            let px = prefix_poly_evals(&f, &x, z);
            let py = prefix_poly_evals(&f, &y, z);
            assert_eq!(px[1], py[1]); // shared prefix of length 1
            if px[2] != py[2] {
                diff_at.push(z);
            }
        }
        assert!(diff_at.len() >= 98); // degree <= 2 difference
    }
}
