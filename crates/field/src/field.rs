//! Prime-field arithmetic over `u64` moduli.
//!
//! Multiplication is the protocols' innermost operation (every multiset
//! fingerprint `φ_S(z) = ∏ (s − z)` is one product per element), so `Fp`
//! precomputes a Montgomery context at construction and performs all
//! products reduction-free: a Montgomery step costs three 64-bit
//! multiplies instead of a 128-by-64-bit hardware division. The
//! division-based reference implementations ([`Fp::mul_naive`],
//! [`Fp::pow_naive`]) remain available as the differential-testing and
//! benchmarking baseline.

/// The prime field 𝔽_p for a prime `p < 2⁶⁴`.
///
/// Elements are canonical representatives in `0..p`. For odd `p < 2⁶³`
/// (every modulus the protocols use) multiplication runs through a
/// precomputed Montgomery context and is division-free; the remaining
/// moduli (`p = 2` and primes above 2⁶³) fall back to exact `u128`
/// remainders.
///
/// # Examples
///
/// ```
/// use pdip_field::Fp;
///
/// let f = Fp::new(101);
/// assert_eq!(f.add(70, 70), 39);
/// assert_eq!(f.mul(f.inv(7), 7), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp {
    p: u64,
    /// Montgomery context active (odd `p < 2⁶³`).
    mont: bool,
    /// `-p⁻¹ mod 2⁶⁴`.
    n_inv: u64,
    /// `R mod p` with `R = 2⁶⁴` (the Montgomery form of 1).
    r1: u64,
    /// `R² mod p` (converts into Montgomery form).
    r2: u64,
}

impl Fp {
    /// Creates the field 𝔽_p and precomputes its Montgomery context.
    ///
    /// # Panics
    /// Panics if `p` is not prime (checked deterministically).
    pub fn new(p: u64) -> Self {
        assert!(crate::primes::is_prime(p), "{p} is not prime");
        let mont = p & 1 == 1 && p < 1u64 << 63;
        let (n_inv, r1, r2) = if mont {
            // Newton–Hensel inversion of p mod 2^64: x ← x(2 − px)
            // doubles the number of correct low bits each step; p odd
            // gives 3 correct bits to start, five steps reach ≥ 64.
            let mut inv = p;
            for _ in 0..5 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(inv)));
            }
            debug_assert_eq!(p.wrapping_mul(inv), 1);
            let r1 = ((1u128 << 64) % p as u128) as u64;
            let r2 = ((r1 as u128 * r1 as u128) % p as u128) as u64;
            (inv.wrapping_neg(), r1, r2)
        } else {
            (0, 0, 0)
        };
        Fp { p, mont, n_inv, r1, r2 }
    }

    /// The modulus.
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// Number of bits needed to transmit one field element.
    pub fn element_bits(&self) -> usize {
        64 - (self.p - 1).leading_zeros() as usize
    }

    /// Canonical representative of `x`. Division-free on canonical
    /// inputs (the hot case): only values `>= p` pay a remainder.
    pub fn reduce(&self, x: u64) -> u64 {
        if x < self.p {
            x
        } else {
            x % self.p
        }
    }

    /// Canonical representative of a signed value.
    pub fn reduce_i64(&self, x: i64) -> u64 {
        let r = x.rem_euclid(self.p as i64);
        r as u64
    }

    /// `a + b mod p`.
    pub fn add(&self, a: u64, b: u64) -> u64 {
        let (a, b) = (self.reduce(a), self.reduce(b));
        let s = a as u128 + b as u128;
        let p = self.p as u128;
        if s >= p {
            (s - p) as u64
        } else {
            s as u64
        }
    }

    /// `a - b mod p`.
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        let (a, b) = (self.reduce(a), self.reduce(b));
        if a >= b {
            a - b
        } else {
            // a < b < p, so (p − b) + a < p: no intermediate overflow
            // even for moduli just below 2⁶⁴.
            (self.p - b) + a
        }
    }

    /// `-a mod p`.
    pub fn neg(&self, a: u64) -> u64 {
        self.sub(0, a)
    }

    /// One Montgomery step: `a · b · R⁻¹ mod p` for canonical `a`, `b`.
    ///
    /// With `p < 2⁶³`: `t = ab < 2¹²⁶` and `mp < 2¹²⁷`, so `t + mp`
    /// cannot overflow `u128`, and the shifted result is `< 2p`, fixed by
    /// one conditional subtraction.
    #[inline]
    fn montmul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(self.mont);
        let t = a as u128 * b as u128;
        let m = (t as u64).wrapping_mul(self.n_inv);
        let u = ((t + m as u128 * self.p as u128) >> 64) as u64;
        if u >= self.p {
            u - self.p
        } else {
            u
        }
    }

    /// `a * b mod p`, division-free (two Montgomery steps: one product,
    /// one conversion back to the canonical domain).
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        if self.mont {
            let (a, b) = (self.reduce(a), self.reduce(b));
            self.montmul(self.montmul(a, b), self.r2)
        } else {
            self.mul_naive(a, b)
        }
    }

    /// Reference `a * b mod p` through a `u128` hardware remainder.
    ///
    /// This is the pre-Montgomery implementation, kept as the baseline
    /// for differential tests (`tests/differential.rs`) and for the
    /// speedup measurement of `pdip exp bench-hotpath`.
    pub fn mul_naive(&self, a: u64, b: u64) -> u64 {
        let (a, b) = (self.reduce(a), self.reduce(b));
        ((a as u128 * b as u128) % self.p as u128) as u64
    }

    /// `a^e mod p` by square-and-multiply, entirely in the Montgomery
    /// domain (one conversion in, one out).
    pub fn pow(&self, a: u64, mut e: u64) -> u64 {
        if !self.mont {
            return self.pow_naive(a, e);
        }
        let mut base = self.montmul(self.reduce(a), self.r2);
        let mut acc = self.r1;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.montmul(acc, base);
            }
            base = self.montmul(base, base);
            e >>= 1;
        }
        self.montmul(acc, 1)
    }

    /// Reference `a^e mod p` built on [`Fp::mul_naive`] (differential
    /// baseline).
    pub fn pow_naive(&self, a: u64, mut e: u64) -> u64 {
        let mut base = self.reduce(a);
        let mut acc = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul_naive(acc, base);
            }
            base = self.mul_naive(base, base);
            e >>= 1;
        }
        acc
    }

    /// `init · ∏ factors mod p` at one Montgomery step per factor.
    ///
    /// The product is split over eight independent accumulator lanes
    /// (element `i` multiplies into lane `i mod 8`), so consecutive
    /// Montgomery steps carry no data dependency and the multiplier
    /// pipeline stays full — a hardware divider cannot be pipelined this
    /// way, which is where the batch speedup over [`Fp::mul_naive`]
    /// comes from. Each lane drifts by one `R⁻¹` per absorbed element
    /// after its first (absorbed as-is); merging the `min(k, 8)` live
    /// lanes into `init` brings the total count of Montgomery steps to
    /// exactly `k`, and a single `R^(k+1)` fixup restores the canonical
    /// value. This is the batch entry point behind
    /// [`crate::poly::multiset_poly_eval`].
    pub fn product_accumulate(&self, init: u64, factors: impl IntoIterator<Item = u64>) -> u64 {
        let mut acc = self.reduce(init);
        if !self.mont {
            for f in factors {
                acc = self.mul_naive(acc, f);
            }
            return acc;
        }
        let mut it = factors.into_iter();
        // Prime each lane with its first factor as-is (no Montgomery
        // step), so a lane drifts only for elements after its first.
        let mut lanes = [0u64; 8];
        let mut primed = 0usize;
        while primed < 8 {
            match it.next() {
                Some(x) => {
                    lanes[primed] = self.reduce(x);
                    primed += 1;
                }
                None => break,
            }
        }
        let mut k = primed as u64;
        if primed == 8 {
            // Register-resident lanes; the unrolled body keeps eight
            // independent Montgomery steps in flight per pass.
            let [mut l0, mut l1, mut l2, mut l3, mut l4, mut l5, mut l6, mut l7] = lanes;
            'drain: loop {
                macro_rules! step {
                    ($lane:ident) => {
                        let Some(x) = it.next() else { break 'drain };
                        $lane = self.montmul($lane, self.reduce(x));
                        k += 1;
                    };
                }
                step!(l0);
                step!(l1);
                step!(l2);
                step!(l3);
                step!(l4);
                step!(l5);
                step!(l6);
                step!(l7);
            }
            lanes = [l0, l1, l2, l3, l4, l5, l6, l7];
        }
        // (k − primed) lane steps + primed merges = k Montgomery steps
        // in total, so acc = init · ∏f · R^{-k}; one montmul by R^{k+1}
        // multiplies by R^k and lands back in 0..p.
        for &lane in &lanes[..primed] {
            acc = self.montmul(acc, lane);
        }
        self.montmul(acc, self.pow(self.r1, k + 1))
    }

    /// `∏ factors mod p` (empty product = 1). See
    /// [`Fp::product_accumulate`].
    pub fn mul_many(&self, factors: impl IntoIterator<Item = u64>) -> u64 {
        self.product_accumulate(1, factors)
    }

    /// The multiplicative inverse of `a`.
    ///
    /// # Panics
    /// Panics if `a ≡ 0 (mod p)`.
    pub fn inv(&self, a: u64) -> u64 {
        let a = self.reduce(a);
        assert_ne!(a, 0, "zero has no inverse");
        // Fermat: a^(p-2).
        self.pow(a, self.p - 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        let f = Fp::new(13);
        assert_eq!(f.add(7, 9), 3);
        assert_eq!(f.sub(3, 9), 7);
        assert_eq!(f.neg(5), 8);
        assert_eq!(f.mul(7, 9), 63 % 13);
        assert_eq!(f.pow(2, 12), 1); // Fermat
    }

    #[test]
    fn inverses() {
        let f = Fp::new(1_000_003);
        for a in [1u64, 2, 999, 1_000_002] {
            assert_eq!(f.mul(a, f.inv(a)), 1);
        }
    }

    #[test]
    #[should_panic(expected = "zero has no inverse")]
    fn zero_inverse_panics() {
        Fp::new(7).inv(0);
    }

    #[test]
    #[should_panic(expected = "not prime")]
    fn composite_rejected() {
        Fp::new(10);
    }

    #[test]
    fn large_modulus_no_overflow() {
        // Largest prime below 2^63.
        let p = crate::primes::smallest_prime_above((1u64 << 62) + 1);
        let f = Fp::new(p);
        let a = p - 1;
        assert_eq!(f.mul(a, a), 1); // (-1)^2 = 1
        assert_eq!(f.add(a, 2), 1);
    }

    #[test]
    fn modulus_above_montgomery_range_falls_back() {
        // The largest u64 prime sits above 2^63: the Montgomery context
        // is disabled and everything routes through the naive path.
        let p = 18_446_744_073_709_551_557;
        let f = Fp::new(p);
        let a = p - 1;
        assert_eq!(f.mul(a, a), 1);
        assert_eq!(f.pow(a, 2), 1);
        assert_eq!(f.mul_many([a, a, a]), a);
        assert_eq!(f.add(a, 2), 1);
        assert_eq!(f.mul(f.inv(12345), 12345), 1);
    }

    #[test]
    fn smallest_prime_two_falls_back() {
        let f = Fp::new(2);
        assert_eq!(f.mul(1, 1), 1);
        assert_eq!(f.pow(1, 5), 1);
        assert_eq!(f.add(1, 1), 0);
        assert_eq!(f.mul_many([1, 1, 1]), 1);
    }

    #[test]
    fn montgomery_agrees_with_naive_on_fixed_grid() {
        for p in [3u64, 13, 65_537, 1_000_003, (1u64 << 61) - 1] {
            let f = Fp::new(p);
            for a in [0u64, 1, 2, p / 2, p - 2, p - 1] {
                for b in [0u64, 1, 3, p / 3, p - 1] {
                    assert_eq!(f.mul(a, b), f.mul_naive(a, b), "p={p} a={a} b={b}");
                }
                assert_eq!(f.pow(a, 12345), f.pow_naive(a, 12345), "p={p} a={a}");
            }
        }
    }

    #[test]
    fn batch_products_match_folds() {
        let f = Fp::new(65_537);
        assert_eq!(f.mul_many([]), 1);
        assert_eq!(f.mul_many([7]), 7);
        assert_eq!(f.product_accumulate(5, []), 5);
        let xs: Vec<u64> = (1..200).map(|i| i * 31 % 65_537).collect();
        let folded = xs.iter().fold(1u64, |acc, &x| f.mul_naive(acc, x));
        assert_eq!(f.mul_many(xs.iter().copied()), folded);
        assert_eq!(f.product_accumulate(42, xs.iter().copied()), f.mul_naive(42, folded));
    }

    #[test]
    fn batch_products_with_unreduced_inputs() {
        let f = Fp::new(101);
        // Inputs above p reduce exactly as the naive path reduces them.
        assert_eq!(f.mul_many([202, 305, 7]), f.mul_naive(f.mul_naive(202, 305), 7));
    }

    #[test]
    fn signed_reduction() {
        let f = Fp::new(11);
        assert_eq!(f.reduce_i64(-1), 10);
        assert_eq!(f.reduce_i64(-22), 0);
        assert_eq!(f.reduce_i64(25), 3);
    }

    #[test]
    fn element_bits() {
        assert_eq!(Fp::new(2).element_bits(), 1);
        assert_eq!(Fp::new(13).element_bits(), 4);
        assert_eq!(Fp::new(257).element_bits(), 9);
    }
}
