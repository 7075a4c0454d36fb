//! Montgomery-form modular arithmetic for odd moduli.
//!
//! Paillier spends virtually all of its time in modular exponentiation
//! with an odd modulus (`n²` to encrypt, `p²` and `q²` to decrypt).
//! Every product here is one CIOS (coarsely integrated operand scanning)
//! pass that multiplies and reduces together into a caller-owned buffer,
//! so an exponentiation allocates its few buffers once and nothing per
//! product.

use super::BigUint;

/// Precomputed context for Montgomery arithmetic modulo an odd `m`.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    modulus: BigUint,
    /// `-m⁻¹ mod 2^64`.
    n0_inv: u64,
    /// `R² mod m` with `R = 2^(64·L)` as `L` limbs, used to enter
    /// Montgomery form.
    r_squared: Vec<u64>,
}

impl MontgomeryCtx {
    /// Builds a context. Returns `None` for even or zero moduli.
    #[must_use]
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_zero() || modulus.is_even() {
            return None;
        }
        let l = modulus.limbs().len();
        let n0_inv = inv_mod_2_64(modulus.limbs()[0]).wrapping_neg();
        let mut r_squared = BigUint::one().shl(2 * 64 * l).rem(modulus).limbs().to_vec();
        r_squared.resize(l, 0);
        Some(MontgomeryCtx { modulus: modulus.clone(), n0_inv, r_squared })
    }

    /// The modulus `m`.
    pub(crate) fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    fn limbs(&self) -> usize {
        self.modulus.limbs().len()
    }

    /// Montgomery product `out = a · b · R⁻¹ mod m` for `L`-limb
    /// `a, b < m`, accumulated in the caller's `out` (which the borrow
    /// rules keep distinct from `a` and `b`).
    ///
    /// Each outer step adds `a · b[i]` and the multiple `u · m` that
    /// clears the low limb in one sweep, then shifts down a limb. The
    /// running value stays below `2m`, so the limb above `out` is at most
    /// 1 and one conditional subtraction reduces the result.
    pub(crate) fn mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let m = self.modulus.limbs();
        let l = m.len();
        let (a, t) = (&a[..l], &mut out[..l]);
        t.fill(0);
        let mut top = 0u64;
        for &bi in &b[..l] {
            let s = u128::from(t[0]) + u128::from(a[0]) * u128::from(bi);
            let u = (s as u64).wrapping_mul(self.n0_inv);
            let r = u128::from(s as u64) + u128::from(u) * u128::from(m[0]);
            let (mut c1, mut c2) = (s >> 64, r >> 64);
            for j in 1..l {
                let s = u128::from(t[j]) + u128::from(a[j]) * u128::from(bi) + c1;
                c1 = s >> 64;
                let r = u128::from(s as u64) + u128::from(u) * u128::from(m[j]) + c2;
                c2 = r >> 64;
                t[j - 1] = r as u64;
            }
            let s = u128::from(top) + c1 + c2;
            t[l - 1] = s as u64;
            top = (s >> 64) as u64;
        }
        if top != 0 || !less_than(t, m) {
            sub_in_place(t, m);
        }
    }

    /// Enters Montgomery form: `x · R mod m` as `L` limbs.
    pub(crate) fn to_mont(&self, x: &BigUint) -> Vec<u64> {
        let mut limbs = x.rem(&self.modulus).limbs().to_vec();
        limbs.resize(self.limbs(), 0);
        let mut out = vec![0; self.limbs()];
        self.mul_into(&limbs, &self.r_squared, &mut out);
        out
    }

    /// Leaves Montgomery form: the Montgomery product of `a` and 1.
    pub(crate) fn leave_mont(&self, a: &[u64]) -> BigUint {
        let mut one = vec![0; self.limbs()];
        one[0] = 1;
        let mut out = vec![0; self.limbs()];
        self.mul_into(a, &one, &mut out);
        BigUint::from_limbs(out)
    }

    /// `base^exp` for a `base` already in Montgomery form, result in
    /// Montgomery form.
    ///
    /// Left-to-right fixed window of [`FixedBaseWindow::WINDOW_BITS`]
    /// bits: a table of `base^d` for the digits the exponent uses, then
    /// per window that many squarings and at most one table product —
    /// about `1 + 1/w` products per exponent bit instead of square-and-
    /// multiply's ~1.5.
    pub(crate) fn pow_mont(&self, base: &[u64], exp: &BigUint) -> Vec<u64> {
        let w = FixedBaseWindow::WINDOW_BITS;
        let windows = exp.bits().div_ceil(w);
        if windows == 0 {
            return self.to_mont(&BigUint::one());
        }
        let l = self.limbs();
        // table[(d-1)·L..d·L] = base^d, built only up to the largest digit.
        let max_digit = (0..windows).map(|j| window_digit(exp, j, w)).max().unwrap_or(0);
        let mut table = vec![0; max_digit * l];
        table[..l].copy_from_slice(&base[..l]);
        for d in 2..=max_digit {
            let (done, rest) = table.split_at_mut((d - 1) * l);
            self.mul_into(&done[(d - 2) * l..], base, &mut rest[..l]);
        }
        let entry = |d: usize| &table[(d - 1) * l..d * l];
        // The top window holds the exponent's top bit, so its digit is
        // non-zero.
        let mut acc = entry(window_digit(exp, windows - 1, w)).to_vec();
        let mut tmp = vec![0; l];
        for j in (0..windows - 1).rev() {
            for _ in 0..w {
                self.mul_into(&acc, &acc, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            let d = window_digit(exp, j, w);
            if d != 0 {
                self.mul_into(&acc, entry(d), &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        acc
    }

    /// `base^exp mod m`.
    #[must_use]
    pub fn mod_pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if self.modulus.is_one() {
            return BigUint::zero();
        }
        self.leave_mont(&self.pow_mont(&self.to_mont(base), exp))
    }
}

/// Digit `j` of `exp` in base `2^w` (bits `j·w .. j·w + w`).
fn window_digit(exp: &BigUint, j: usize, w: usize) -> usize {
    (0..w).filter(|&b| exp.bit(j * w + b)).fold(0, |digit, b| digit | 1 << b)
}

/// Fixed-base modular exponentiation with a precomputed window table.
///
/// For a base `h` that is reused across many exponentiations (the Paillier
/// noise base `h = r₀ⁿ mod n²`), precompute `h^(d·2^(w·j))` in Montgomery
/// form for every window position `j` and digit `d ∈ [1, 2^w)`. An
/// exponentiation then costs one Montgomery product per *non-zero* window
/// of the exponent — about `exp_bits / w` products, with no squarings at
/// all — versus ~`(1 + 1/w)·exp_bits` products for a windowed power of a
/// fresh base. Table construction costs ~`(2^w + w - 2)·exp_bits / w`
/// products once.
#[derive(Clone, Debug)]
pub struct FixedBaseWindow {
    ctx: MontgomeryCtx,
    /// `table[j][d-1] = base^(d · 2^(w·j)) · R mod m` for `d` in `1..2^w`.
    table: Vec<Vec<Vec<u64>>>,
    max_exp_bits: usize,
}

impl FixedBaseWindow {
    /// Window width in bits. Four keeps the table small (15 entries per
    /// window) while already eliminating ~4x of the multiplications.
    pub const WINDOW_BITS: usize = 4;

    /// Precomputes the window table for `base` modulo the odd `modulus`,
    /// covering exponents up to `max_exp_bits` bits. Returns `None` for
    /// even or zero moduli.
    #[must_use]
    pub fn new(base: &BigUint, modulus: &BigUint, max_exp_bits: usize) -> Option<Self> {
        let ctx = MontgomeryCtx::new(modulus)?;
        let w = Self::WINDOW_BITS;
        let digits = (1usize << w) - 1;
        let windows = max_exp_bits.div_ceil(w).max(1);
        let l = ctx.limbs();
        let mut table = Vec::with_capacity(windows);
        // `cur` = base^(2^(w·j)) in Montgomery form for the current window.
        let mut cur = ctx.to_mont(base);
        let mut tmp = vec![0; l];
        for _ in 0..windows {
            let mut row: Vec<Vec<u64>> = Vec::with_capacity(digits);
            row.push(cur.clone());
            for d in 1..digits {
                let mut next = vec![0; l];
                ctx.mul_into(&row[d - 1], &cur, &mut next);
                row.push(next);
            }
            // Advance to the next window: cur^(2^w) by w squarings.
            for _ in 0..w {
                ctx.mul_into(&cur, &cur, &mut tmp);
                std::mem::swap(&mut cur, &mut tmp);
            }
            table.push(row);
        }
        Some(FixedBaseWindow { ctx, table, max_exp_bits })
    }

    /// The largest exponent width (in bits) the table covers.
    #[must_use]
    pub fn max_exp_bits(&self) -> usize {
        self.max_exp_bits
    }

    /// `base^exp mod m` from the precomputed table.
    ///
    /// # Panics
    /// Panics if `exp` is wider than the table was built for.
    #[must_use]
    pub fn pow(&self, exp: &BigUint) -> BigUint {
        assert!(
            exp.bits() <= self.max_exp_bits,
            "exponent of {} bits exceeds the {}-bit window table",
            exp.bits(),
            self.max_exp_bits
        );
        let w = Self::WINDOW_BITS;
        let mut tmp = vec![0; self.ctx.limbs()];
        let mut acc: Option<Vec<u64>> = None;
        for (j, row) in self.table.iter().enumerate() {
            let digit = window_digit(exp, j, w);
            if digit == 0 {
                continue;
            }
            let entry = &row[digit - 1];
            match &mut acc {
                None => acc = Some(entry.clone()),
                Some(a) => {
                    self.ctx.mul_into(a, entry, &mut tmp);
                    std::mem::swap(a, &mut tmp);
                }
            }
        }
        match acc {
            None => BigUint::one().rem(&self.ctx.modulus),
            Some(a) => self.ctx.leave_mont(&a),
        }
    }
}

/// Inverse of an odd `x` modulo 2^64 by Newton–Hensel lifting.
fn inv_mod_2_64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct mod 2^3 (x odd ⇒ x·x ≡ 1 mod 8)
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    inv
}

fn less_than(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

fn sub_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *x = d2;
        borrow = u64::from(b1) + u64::from(b2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn inv_mod_2_64_is_inverse() {
        for x in [1u64, 3, 5, 0xdead_beef | 1, u64::MAX] {
            assert_eq!(x.wrapping_mul(inv_mod_2_64(x)), 1, "x={x}");
        }
    }

    #[test]
    fn rejects_even_or_zero_modulus() {
        assert!(MontgomeryCtx::new(&BigUint::from_u64(10)).is_none());
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_none());
        assert!(MontgomeryCtx::new(&BigUint::from_u64(9)).is_some());
    }

    #[test]
    fn matches_plain_mod_pow_small() {
        let m = BigUint::from_u64(1_000_000_007);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        for (b, e) in [(2u64, 10u64), (12345, 67890), (999_999_999, 3)] {
            let base = BigUint::from_u64(b);
            let exp = BigUint::from_u64(e);
            assert_eq!(ctx.mod_pow(&base, &exp), base.mod_pow_plain(&exp, &m), "{b}^{e}");
        }
    }

    fn random_odd(rng: &mut StdRng, bits: usize) -> BigUint {
        let m = BigUint::random_bits(rng, bits);
        if m.is_even() {
            m.add_u64(1)
        } else {
            m
        }
    }

    #[test]
    fn matches_plain_mod_pow_large_random() {
        let mut rng = StdRng::seed_from_u64(5);
        // Up to the 4096-bit n² of a 2048-bit Paillier key.
        for (bits, reps) in [(128usize, 3), (384, 3), (512, 3), (1024, 2), (2048, 2), (4096, 1)] {
            let m = random_odd(&mut rng, bits);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            for _ in 0..reps {
                let base = BigUint::random_below(&mut rng, &m);
                let exp = BigUint::random_bits(&mut rng, bits / 2);
                assert_eq!(ctx.mod_pow(&base, &exp), base.mod_pow_plain(&exp, &m), "bits={bits}");
            }
        }
    }

    fn all_ones(k: usize) -> BigUint {
        BigUint::one().shl(k).sub(&BigUint::one())
    }

    #[test]
    fn products_are_fully_reduced() {
        // Miller–Rabin compares Montgomery-form values for equality, so a
        // product must be the residue in [0, m), not just congruent to it.
        // All-ones moduli sit just below R, where the running value most
        // often lands in [m, 2m) and needs the final subtraction.
        let mut rng = StdRng::seed_from_u64(29);
        for m in [all_ones(64), all_ones(128), all_ones(256), random_odd(&mut rng, 320)] {
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let l = m.limbs().len();
            let r_inv = BigUint::one().shl(64 * l).mod_inverse(&m).unwrap();
            let limbs = |x: &BigUint| {
                let mut v = x.limbs().to_vec();
                v.resize(l, 0);
                v
            };
            let mut out = vec![0; l];
            for _ in 0..200 {
                let a = BigUint::random_below(&mut rng, &m);
                let b = BigUint::random_below(&mut rng, &m);
                ctx.mul_into(&limbs(&a), &limbs(&b), &mut out);
                let want = a.mul(&b).mul(&r_inv).rem(&m);
                assert_eq!(BigUint::from_limbs(out.clone()), want, "m={}", m.to_hex());
            }
        }
    }

    #[test]
    fn kernel_edge_cases_match_plain_mod_pow() {
        let mut rng = StdRng::seed_from_u64(23);
        for bits in [61usize, 64, 192, 1024] {
            let m = random_odd(&mut rng, bits);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let mut exps = vec![BigUint::zero(), BigUint::one()];
            // All-ones exponents use digit 15 in every window; widths that
            // are not a multiple of the window leave a short top window.
            exps.extend([1usize, 3, 4, 5, 8, 63, 64, 65, 127, 128].map(all_ones));
            exps.extend(
                [2usize, 3, 5, 6, 7, 9, 66, 131].map(|k| BigUint::random_bits(&mut rng, k)),
            );
            let random = BigUint::random_below(&mut rng, &m);
            let bases = [
                BigUint::zero(),
                BigUint::one(),
                m.sub(&BigUint::one()),
                m.clone(),
                m.add_u64(5),
                m.mul_u64(3).add(&random),
                random,
            ];
            for base in &bases {
                for exp in &exps {
                    assert_eq!(
                        ctx.mod_pow(base, exp),
                        base.mod_pow_plain(exp, &m),
                        "bits={bits} base={} exp={}",
                        base.to_hex(),
                        exp.to_hex()
                    );
                }
            }
        }
    }

    #[test]
    fn edge_exponents() {
        let m = BigUint::from_u64(101);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let base = BigUint::from_u64(7);
        assert!(ctx.mod_pow(&base, &BigUint::zero()).is_one());
        assert_eq!(ctx.mod_pow(&base, &BigUint::one()).to_u64(), Some(7));
        assert!(ctx.mod_pow(&BigUint::zero(), &BigUint::from_u64(5)).is_zero());
    }

    #[test]
    fn fixed_base_window_matches_mod_pow() {
        let mut rng = StdRng::seed_from_u64(17);
        for bits in [64usize, 192, 512] {
            let mut m = BigUint::random_bits(&mut rng, bits);
            if m.is_even() {
                m = m.add_u64(1);
            }
            let base = BigUint::random_below(&mut rng, &m);
            let window = FixedBaseWindow::new(&base, &m, bits).unwrap();
            for exp_bits in [1usize, 3, bits / 2, bits - 1, bits] {
                let exp = BigUint::random_bits(&mut rng, exp_bits);
                assert_eq!(window.pow(&exp), base.mod_pow(&exp, &m), "bits={bits}/{exp_bits}");
            }
        }
    }

    #[test]
    fn fixed_base_window_edge_exponents() {
        let m = BigUint::from_u64(101);
        let base = BigUint::from_u64(7);
        let window = FixedBaseWindow::new(&base, &m, 64).unwrap();
        assert!(window.pow(&BigUint::zero()).is_one());
        assert_eq!(window.pow(&BigUint::one()).to_u64(), Some(7));
        assert_eq!(
            window.pow(&BigUint::from_u64(15)).to_u64(),
            base.mod_pow(&BigUint::from_u64(15), &m).to_u64()
        );
        assert!(FixedBaseWindow::new(&base, &BigUint::from_u64(10), 64).is_none());
    }
}
