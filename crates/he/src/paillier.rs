//! The Paillier cryptosystem: an exact, additively homomorphic public-key
//! scheme.
//!
//! VFPS-SM only needs to *sum* encrypted partial distances, which Paillier
//! supports natively: `Enc(a)·Enc(b) mod n² = Enc(a+b)`. Plaintexts live in
//! `Z_n`; signed values are wrapped modularly and decoded by the `n/2`
//! threshold.
//!
//! Implementation notes: `g = n + 1`, so encryption avoids a full
//! exponentiation (`g^m = 1 + m·n mod n²`). Decryption runs by CRT over
//! `p²` and `q²`; [`PaillierPrivateKey::decrypt_plain`], the textbook
//! `L(c^λ mod n²)·μ` with `μ = λ⁻¹ mod n`, is the oracle it is tested
//! against.
//!
//! Encryption has two paths. [`PaillierPublicKey::encrypt`] is the slow
//! reference: a fresh coprime `r` and a full `r.mod_pow(n, n²)` per call.
//! [`PaillierEncryptor`] is the hot path: it fixes `h = r₀ⁿ mod n²` at
//! setup, precomputes a fixed-base window table for `h` modulo `n²`, and
//! draws each noise factor as `h^x` for a short random `x` — the standard
//! shortened-randomness optimization, cutting an n-bit square-and-multiply
//! down to ~`x_bits / 4` table products. Since `h^x = (r₀^x mod n)^n`, the
//! result is ordinary Paillier randomness and decryption is bit-exact.

use crate::bigint::montgomery::{FixedBaseWindow, MontgomeryCtx};
use crate::bigint::BigUint;
use crate::error::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Mutex;

/// Minimum accepted modulus width. Far below any secure size — permitted so
/// tests stay fast — but production callers should use ≥ 2048.
pub const MIN_KEY_BITS: usize = 64;

/// Paillier public key: the modulus `n` and cached `n²`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PaillierPublicKey {
    n: BigUint,
    n_squared: BigUint,
    half_n: BigUint,
}

/// Paillier private key: Carmichael `λ` and `μ = λ⁻¹ mod n`, plus the
/// prime factorization that CRT decryption runs on.
#[derive(Clone, Debug)]
pub struct PaillierPrivateKey {
    lambda: BigUint,
    mu: BigUint,
    pk: PaillierPublicKey,
    crt: CrtParams,
}

/// Precomputed Chinese-Remainder-Theorem parameters (Paillier 1999 §7):
/// decrypting modulo `p²` and `q²` separately and recombining replaces
/// one `|n|`-bit exponent modulo `n²` with two half-width exponents
/// modulo quarter-width moduli, about a 4× saving in limb products.
#[derive(Clone, Debug)]
struct CrtParams {
    p: CrtBranch,
    q: CrtBranch,
    /// `p^{-1} mod q` for the final recombination.
    p_inv_q: BigUint,
}

/// One prime `r` of the factorization and what decrypting modulo `r²`
/// needs.
#[derive(Clone, Debug)]
struct CrtBranch {
    r: BigUint,
    /// `r − 1`, the branch's exponent.
    r_minus_1: BigUint,
    /// Montgomery context modulo `r²`, built once per key.
    r_squared: MontgomeryCtx,
    /// `L_r(g^{r−1} mod r²)^{-1} mod r` (with `g = n+1`).
    h: BigUint,
}

impl CrtParams {
    /// Parameters for distinct odd primes `p ≠ q` with `n = p·q`.
    fn new(p: &BigUint, q: &BigUint, n: &BigUint) -> CrtParams {
        let g = n.add(&BigUint::one());
        CrtParams {
            p: CrtBranch::new(p, &g),
            q: CrtBranch::new(q, &g),
            p_inv_q: p.mod_inverse(q).expect("distinct primes are coprime"),
        }
    }

    /// CRT decryption of ciphertext `c`.
    fn decrypt(&self, c: &BigUint) -> BigUint {
        let (mp, mq) = (self.p.residue(c), self.q.residue(c));
        // Garner recombination: m = m_p + p·((m_q − m_p)·p⁻¹ mod q).
        let (p, q) = (&self.p.r, &self.q.r);
        let diff = mq.sub_mod(&mp, q);
        mp.add(&p.mul(&diff.mul_mod(&self.p_inv_q, q)))
    }
}

impl CrtBranch {
    /// The branch for the odd prime factor `r` of `n`, with `g = n + 1`.
    /// The inverse always exists: `L_r(g^{r−1} mod r²) ≡ −n/r (mod r)`,
    /// a unit because the other prime is not `r`.
    fn new(r: &BigUint, g: &BigUint) -> CrtBranch {
        let r_squared = MontgomeryCtx::new(&r.square()).expect("odd prime, so r² is odd");
        let r_minus_1 = r.sub(&BigUint::one());
        // `h` comes from `l`, which needs the rest of the branch first.
        let mut branch = CrtBranch { r: r.clone(), r_minus_1, r_squared, h: BigUint::one() };
        branch.h = branch.l(g).mod_inverse(r).expect("L_r(g^(r-1)) is a unit for p != q");
        branch
    }

    /// `L_r(x^{r−1} mod r²)` with `L_r(y) = (y − 1) / r`. `y − 1` wraps
    /// modulo `r²`, so a ciphertext that shares a factor with `n`
    /// decrypts to garbage instead of underflowing.
    fn l(&self, x: &BigUint) -> BigUint {
        let y = self.r_squared.mod_pow(x, &self.r_minus_1);
        y.sub_mod(&BigUint::one(), self.r_squared.modulus()).divrem(&self.r).0
    }

    /// `m mod r = L_r(c^{r−1} mod r²) · h mod r`.
    fn residue(&self, c: &BigUint) -> BigUint {
        self.l(c).mul_mod(&self.h, &self.r)
    }
}

/// A public/private key pair.
#[derive(Clone, Debug)]
pub struct PaillierKeypair {
    /// Public half, distributed to every party and the aggregation server.
    pub public: PaillierPublicKey,
    /// Private half, held only by the leader participant.
    pub private: PaillierPrivateKey,
}

/// A Paillier ciphertext (an element of `Z_{n²}`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PaillierCiphertext(BigUint);

impl PaillierCiphertext {
    /// Serialized size in bytes (used for byte-accurate communication
    /// accounting).
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.0.byte_len()
    }

    /// Raw ciphertext value (exposed for serialization).
    #[must_use]
    pub fn as_biguint(&self) -> &BigUint {
        &self.0
    }

    /// Rebuilds a ciphertext from its raw value. The value is *not*
    /// validated against a key; use only with trusted serialized data.
    #[must_use]
    pub fn from_biguint(v: BigUint) -> Self {
        PaillierCiphertext(v)
    }
}

/// Generates a fresh keypair with an `n` of exactly `bits` bits.
///
/// # Errors
/// Returns [`Error::KeyTooSmall`] when `bits < MIN_KEY_BITS`.
pub fn generate_keypair<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Result<PaillierKeypair> {
    if bits < MIN_KEY_BITS {
        return Err(Error::KeyTooSmall { bits, min: MIN_KEY_BITS });
    }
    loop {
        let p = BigUint::random_prime(rng, bits / 2);
        let q = BigUint::random_prime(rng, bits - bits / 2);
        if p == q {
            continue;
        }
        let n = p.mul(&q);
        if n.bits() != bits {
            continue;
        }
        let one = BigUint::one();
        let lambda = p.sub(&one).lcm(&q.sub(&one));
        let Some(mu) = lambda.mod_inverse(&n) else {
            continue;
        };
        let n_squared = n.square();
        let half_n = n.shr(1);
        let crt = CrtParams::new(&p, &q, &n);
        let pk = PaillierPublicKey { n, n_squared, half_n };
        return Ok(PaillierKeypair {
            private: PaillierPrivateKey { lambda, mu, pk: pk.clone(), crt },
            public: pk,
        });
    }
}

impl PaillierPublicKey {
    /// The modulus `n`.
    #[must_use]
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Bit width of the modulus.
    #[must_use]
    pub fn key_bits(&self) -> usize {
        self.n.bits()
    }

    /// Encrypts a non-negative plaintext `m < n`.
    ///
    /// # Errors
    /// Returns [`Error::PlaintextOutOfRange`] if `m >= n`.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> Result<PaillierCiphertext> {
        if m >= &self.n {
            return Err(Error::PlaintextOutOfRange);
        }
        let r = BigUint::random_coprime(rng, &self.n);
        // g^m = (1 + n)^m = 1 + m·n (mod n²)
        let gm = BigUint::one().add(&m.mul(&self.n)).rem(&self.n_squared);
        let rn = r.mod_pow(&self.n, &self.n_squared);
        Ok(PaillierCiphertext(gm.mul_mod(&rn, &self.n_squared)))
    }

    /// Encrypts a signed 64-bit value (wrapped into `Z_n`).
    pub fn encrypt_i64<R: Rng + ?Sized>(&self, v: i64, rng: &mut R) -> Result<PaillierCiphertext> {
        self.encrypt(&self.encode_i64(v), rng)
    }

    /// Wraps a signed value into `Z_n` (negatives map to `n - |v|`).
    #[must_use]
    pub fn encode_i64(&self, v: i64) -> BigUint {
        if v >= 0 {
            BigUint::from_u64(v as u64)
        } else {
            self.n.sub(&BigUint::from_u64(v.unsigned_abs()))
        }
    }

    /// Homomorphic addition: `Enc(a) ⊕ Enc(b) = Enc(a + b mod n)`.
    #[must_use]
    pub fn add(&self, a: &PaillierCiphertext, b: &PaillierCiphertext) -> PaillierCiphertext {
        PaillierCiphertext(a.0.mul_mod(&b.0, &self.n_squared))
    }

    /// Adds a plaintext to a ciphertext without re-encryption.
    #[must_use]
    pub fn add_plain(&self, a: &PaillierCiphertext, m: &BigUint) -> PaillierCiphertext {
        let gm = BigUint::one().add(&m.rem(&self.n).mul(&self.n)).rem(&self.n_squared);
        PaillierCiphertext(a.0.mul_mod(&gm, &self.n_squared))
    }

    /// Multiplies the underlying plaintext by a constant: `Enc(a)^k = Enc(k·a)`.
    #[must_use]
    pub fn mul_plain(&self, a: &PaillierCiphertext, k: &BigUint) -> PaillierCiphertext {
        PaillierCiphertext(a.0.mod_pow(k, &self.n_squared))
    }

    /// Re-randomizes a ciphertext (multiplies by a fresh encryption of zero),
    /// breaking ciphertext linkability.
    pub fn rerandomize<R: Rng + ?Sized>(
        &self,
        a: &PaillierCiphertext,
        rng: &mut R,
    ) -> PaillierCiphertext {
        let r = BigUint::random_coprime(rng, &self.n);
        let rn = r.mod_pow(&self.n, &self.n_squared);
        PaillierCiphertext(a.0.mul_mod(&rn, &self.n_squared))
    }

    /// Decodes a `Z_n` element into a signed value via the `n/2` threshold.
    #[must_use]
    pub fn decode_i128(&self, m: &BigUint) -> i128 {
        if m > &self.half_n {
            let mag = self.n.sub(m);
            -(mag.to_u128().expect("decoded magnitude exceeds i128") as i128)
        } else {
            m.to_u128().expect("decoded value exceeds i128") as i128
        }
    }
}

impl PaillierPrivateKey {
    /// The associated public key.
    #[must_use]
    pub fn public(&self) -> &PaillierPublicKey {
        &self.pk
    }

    /// Decrypts to the plaintext residue in `[0, n)` by CRT over `p²`
    /// and `q²`.
    #[must_use]
    pub fn decrypt(&self, c: &PaillierCiphertext) -> BigUint {
        self.crt.decrypt(&c.0)
    }

    /// Division-based decryption via the full `n²` exponentiation — the
    /// oracle the CRT path is tested against.
    #[must_use]
    pub fn decrypt_plain(&self, c: &PaillierCiphertext) -> BigUint {
        let pk = &self.pk;
        let x = c.0.mod_pow(&self.lambda, &pk.n_squared);
        // L(x) = (x - 1) / n
        let l = x.sub(&BigUint::one()).divrem(&pk.n).0;
        l.mul_mod(&self.mu, &pk.n)
    }

    /// Decrypts to a signed value via the `n/2` threshold.
    #[must_use]
    pub fn decrypt_i128(&self, c: &PaillierCiphertext) -> i128 {
        let m = self.decrypt(c);
        self.pk.decode_i128(&m)
    }
}

// ---------------------------------------------------------------------------
// Precomputed fast-path encryption
// ---------------------------------------------------------------------------

/// Noise exponents are at least this wide even for the smallest keys.
const MIN_NOISE_BITS: usize = 64;

/// Precomputed fast-path encryptor: fixed-base window table over the noise
/// base `h = r₀ⁿ mod n²`, with noise factors `h^x` for short seeded `x`.
///
/// Construction costs a few hundred Montgomery products (one-time, at key
/// setup); each encryption afterwards costs ~`noise_bits / 4` products
/// instead of the ~`1.5 · key_bits` of the slow path, and skips the
/// coprime rejection loop entirely.
#[derive(Clone, Debug)]
pub struct PaillierEncryptor {
    pk: PaillierPublicKey,
    window: FixedBaseWindow,
    noise_bits: usize,
}

impl PaillierEncryptor {
    /// Builds the precomputed table for `pk`, drawing the base seed `r₀`
    /// from `rng`. Two encryptors built from identical RNG states produce
    /// identical ciphertexts for identical (plaintext, noise seed) pairs.
    pub fn new<R: Rng + ?Sized>(pk: &PaillierPublicKey, rng: &mut R) -> Self {
        let r0 = BigUint::random_coprime(rng, &pk.n);
        let h = r0.mod_pow(&pk.n, &pk.n_squared);
        // Half the key width keeps the noise group large (2^(k/2) choices)
        // while quartering the exponent the window walk has to cover.
        let noise_bits = (pk.key_bits() / 2).max(MIN_NOISE_BITS);
        let window = FixedBaseWindow::new(&h, &pk.n_squared, noise_bits)
            .expect("n² is odd, so the Montgomery context always exists");
        PaillierEncryptor { pk: pk.clone(), window, noise_bits }
    }

    /// The public key this encryptor serves.
    #[must_use]
    pub fn public(&self) -> &PaillierPublicKey {
        &self.pk
    }

    /// Bit width of the short noise exponents.
    #[must_use]
    pub fn noise_bits(&self) -> usize {
        self.noise_bits
    }

    /// Derives the noise factor `h^x mod n²` for a seeded short exponent
    /// `x`. Pure function of `seed`, so factors can be precomputed on any
    /// thread (or ahead of time by a [`NoisePool`]) without changing the
    /// ciphertexts.
    #[must_use]
    pub fn noise_for_seed(&self, seed: u64) -> BigUint {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = BigUint::random_bits(&mut rng, self.noise_bits);
        self.window.pow(&x)
    }

    /// Encrypts `m` with an explicit noise factor (from
    /// [`PaillierEncryptor::noise_for_seed`]).
    ///
    /// # Errors
    /// Returns [`Error::PlaintextOutOfRange`] if `m >= n`.
    pub fn encrypt_with_noise(&self, m: &BigUint, noise: &BigUint) -> Result<PaillierCiphertext> {
        if m >= &self.pk.n {
            return Err(Error::PlaintextOutOfRange);
        }
        // g^m = (1 + n)^m = 1 + m·n (mod n²)
        let gm = BigUint::one().add(&m.mul(&self.pk.n)).rem(&self.pk.n_squared);
        Ok(PaillierCiphertext(gm.mul_mod(noise, &self.pk.n_squared)))
    }

    /// Convenience: derive the seeded noise factor and encrypt in one call.
    ///
    /// # Errors
    /// Returns [`Error::PlaintextOutOfRange`] if `m >= n`.
    pub fn encrypt_seeded(&self, m: &BigUint, seed: u64) -> Result<PaillierCiphertext> {
        self.encrypt_with_noise(m, &self.noise_for_seed(seed))
    }
}

/// A seeded, refillable pool of noise-factor *indices*.
///
/// The pool does not own randomness: factor `j` is the pure function
/// `encryptor.noise_for_seed(split_seed(pool_seed, j))`, so a ciphertext
/// depends only on the order in which callers *reserve* indices — never on
/// whether the factor was prefilled, which thread computed it, or how many
/// were prefilled. [`NoisePool::prefill`] computes factors ahead of the
/// critical path and caches them; [`NoisePool::take`] consumes the cache
/// when it can and falls back to computing on demand.
#[derive(Debug)]
pub struct NoisePool {
    seed: u64,
    state: Mutex<NoisePoolState>,
}

#[derive(Debug, Default)]
struct NoisePoolState {
    /// Next unreserved index; reservations are contiguous and ordered by
    /// call sequence, which is what makes pooled output deterministic.
    cursor: u64,
    /// Prefilled factors not yet consumed, keyed by index.
    ready: HashMap<u64, BigUint>,
}

impl NoisePool {
    /// Creates an empty pool over `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        NoisePool { seed, state: Mutex::new(NoisePoolState::default()) }
    }

    /// The seed for factor index `j` (pure).
    #[must_use]
    pub fn seed_for(&self, index: u64) -> u64 {
        vfps_par::split_seed(self.seed, index)
    }

    /// Reserves `count` consecutive factor indices, returning the first.
    pub fn reserve(&self, count: usize) -> u64 {
        let mut state = self.state.lock().expect("noise pool mutex poisoned");
        let start = state.cursor;
        state.cursor += count as u64;
        start
    }

    /// The factor for a reserved index: the prefilled value if available,
    /// otherwise computed on demand (identical either way).
    #[must_use]
    pub fn take(&self, enc: &PaillierEncryptor, index: u64) -> BigUint {
        if let Some(hit) =
            self.state.lock().expect("noise pool mutex poisoned").ready.remove(&index)
        {
            return hit;
        }
        enc.noise_for_seed(self.seed_for(index))
    }

    /// Precomputes the next `count` unreserved factors on `pool`, off the
    /// encryption critical path. Safe to call at any time; already-reserved
    /// indices are never recomputed.
    pub fn prefill(&self, enc: &PaillierEncryptor, count: usize, pool: &vfps_par::Pool) {
        let start = self.state.lock().expect("noise pool mutex poisoned").cursor;
        let indices: Vec<u64> = (start..start + count as u64).collect();
        let factors =
            pool.par_map_indexed(&indices, |_, &j| (j, enc.noise_for_seed(self.seed_for(j))));
        let mut state = self.state.lock().expect("noise pool mutex poisoned");
        for (j, f) in factors {
            // A concurrent reserve/take may have consumed past `j` already;
            // caching it anyway is harmless (take falls back to computing).
            state.ready.insert(j, f);
        }
    }

    /// Number of prefilled factors currently cached.
    #[must_use]
    pub fn ready_len(&self) -> usize {
        self.state.lock().expect("noise pool mutex poisoned").ready.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn keypair(bits: usize) -> PaillierKeypair {
        let mut rng = StdRng::seed_from_u64(42);
        generate_keypair(&mut rng, bits).unwrap()
    }

    #[test]
    fn rejects_tiny_keys() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(generate_keypair(&mut rng, 32), Err(Error::KeyTooSmall { .. })));
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(1);
        for v in [0u64, 1, 42, 1_000_000, u64::MAX] {
            let m = BigUint::from_u64(v);
            let c = kp.public.encrypt(&m, &mut rng).unwrap();
            assert_eq!(kp.private.decrypt(&c), m, "v={v}");
        }
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(2);
        let m = BigUint::from_u64(7);
        let c1 = kp.public.encrypt(&m, &mut rng).unwrap();
        let c2 = kp.public.encrypt(&m, &mut rng).unwrap();
        assert_ne!(c1, c2, "semantic security: same plaintext, fresh randomness");
        assert_eq!(kp.private.decrypt(&c1), kp.private.decrypt(&c2));
    }

    #[test]
    fn additive_homomorphism() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(3);
        let a = kp.public.encrypt(&BigUint::from_u64(1234), &mut rng).unwrap();
        let b = kp.public.encrypt(&BigUint::from_u64(8766), &mut rng).unwrap();
        let sum = kp.public.add(&a, &b);
        assert_eq!(kp.private.decrypt(&sum).to_u64(), Some(10_000));
    }

    #[test]
    fn add_plain_and_mul_plain() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(4);
        let c = kp.public.encrypt(&BigUint::from_u64(100), &mut rng).unwrap();
        let c2 = kp.public.add_plain(&c, &BigUint::from_u64(23));
        assert_eq!(kp.private.decrypt(&c2).to_u64(), Some(123));
        let c3 = kp.public.mul_plain(&c, &BigUint::from_u64(5));
        assert_eq!(kp.private.decrypt(&c3).to_u64(), Some(500));
    }

    #[test]
    fn signed_values_roundtrip() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(5);
        for v in [-1_000_000i64, -1, 0, 1, 999_999_999] {
            let c = kp.public.encrypt_i64(v, &mut rng).unwrap();
            assert_eq!(kp.private.decrypt_i128(&c), i128::from(v), "v={v}");
        }
    }

    #[test]
    fn signed_sums_cross_zero() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(6);
        let a = kp.public.encrypt_i64(-500, &mut rng).unwrap();
        let b = kp.public.encrypt_i64(200, &mut rng).unwrap();
        assert_eq!(kp.private.decrypt_i128(&kp.public.add(&a, &b)), -300);
    }

    #[test]
    fn rerandomize_preserves_plaintext() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(7);
        let c = kp.public.encrypt(&BigUint::from_u64(77), &mut rng).unwrap();
        let c2 = kp.public.rerandomize(&c, &mut rng);
        assert_ne!(c, c2);
        assert_eq!(kp.private.decrypt(&c2).to_u64(), Some(77));
    }

    #[test]
    fn plaintext_out_of_range_rejected() {
        let kp = keypair(128);
        let mut rng = StdRng::seed_from_u64(8);
        let too_big = kp.public.modulus().clone();
        assert!(matches!(kp.public.encrypt(&too_big, &mut rng), Err(Error::PlaintextOutOfRange)));
    }

    /// One 256-bit key and fast encryptor shared by every property case.
    fn shared() -> &'static (PaillierKeypair, PaillierEncryptor) {
        static SHARED: OnceLock<(PaillierKeypair, PaillierEncryptor)> = OnceLock::new();
        SHARED.get_or_init(|| {
            let kp = keypair(256);
            let enc = PaillierEncryptor::new(&kp.public, &mut StdRng::seed_from_u64(10));
            (kp, enc)
        })
    }

    /// CRT decryption of `c` equals the `n²` oracle and the expected value.
    fn assert_crt_matches_plain(sk: &PaillierPrivateKey, c: &PaillierCiphertext, want: &BigUint) {
        let crt = sk.decrypt(c);
        assert_eq!(crt, sk.decrypt_plain(c), "CRT vs plain");
        assert_eq!(&crt, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// CRT decryption agrees with the `n²` oracle on random
        /// plaintexts, on fast-path ciphertexts and on homomorphic sums.
        #[test]
        fn crt_decrypt_matches_plain_decrypt(seed in any::<u64>(), noise in any::<u64>()) {
            let (kp, enc) = shared();
            let n = kp.public.modulus();
            let mut rng = StdRng::seed_from_u64(seed);
            let a = BigUint::random_below(&mut rng, n);
            let b = BigUint::random_below(&mut rng, n);
            let ca = kp.public.encrypt(&a, &mut rng).unwrap();
            let cb = enc.encrypt_seeded(&b, noise).unwrap();
            let sum = kp.public.add(&ca, &cb);
            assert_crt_matches_plain(&kp.private, &ca, &a);
            assert_crt_matches_plain(&kp.private, &cb, &b);
            assert_crt_matches_plain(&kp.private, &sum, &a.add_mod(&b, n));
        }
    }

    #[test]
    fn keygen_always_builds_crt_params() {
        for seed in 0..4 {
            for bits in [256usize, 512] {
                let kp = generate_keypair(&mut StdRng::seed_from_u64(seed), bits).unwrap();
                let crt = &kp.private.crt;
                assert_eq!(&crt.p.r.mul(&crt.q.r), kp.public.modulus(), "seed={seed} bits={bits}");
                // h inverts L_r(g^(r-1) mod r²) modulo r in both branches.
                let g = kp.public.modulus().add(&BigUint::one());
                for branch in [&crt.p, &crt.q] {
                    assert!(branch.residue(&g).is_one(), "seed={seed} bits={bits}");
                }
                let mut rng = StdRng::seed_from_u64(seed);
                let m = BigUint::random_below(&mut rng, kp.public.modulus());
                let c = kp.public.encrypt(&m, &mut rng).unwrap();
                assert_eq!(
                    crt.decrypt(&c.0),
                    kp.private.decrypt_plain(&c),
                    "seed={seed} bits={bits}"
                );
            }
        }
    }

    #[test]
    fn crt_decrypt_matches_plain_decrypt_at_2048_bits() {
        let kp = generate_keypair(&mut StdRng::seed_from_u64(2048), 2048).unwrap();
        let n = kp.public.modulus();
        let mut rng = StdRng::seed_from_u64(7);
        let enc = PaillierEncryptor::new(&kp.public, &mut rng);
        let a = BigUint::random_below(&mut rng, n);
        let b = BigUint::from_u64(u64::MAX);
        let ca = kp.public.encrypt(&a, &mut rng).unwrap();
        let cb = enc.encrypt_seeded(&b, 9).unwrap();
        assert_crt_matches_plain(&kp.private, &ca, &a);
        assert_crt_matches_plain(&kp.private, &cb, &b);
        assert_crt_matches_plain(&kp.private, &kp.public.add(&ca, &cb), &a.add_mod(&b, n));
    }

    /// The same seed gives the same `(n, λ, μ)` and ciphertext bytes as the
    /// division-based square-and-multiply kernel did, so no arithmetic
    /// change can shift Miller–Rabin's RNG draws or any output.
    #[test]
    fn keys_and_ciphertexts_are_pinned_for_a_fixed_seed() {
        let kp = keypair(256);
        let hex = |v: &BigUint| v.to_hex();
        assert_eq!(
            hex(kp.public.modulus()),
            "d44fd5abb9e3c5d5e1d0fbe52ae3b56203c40ddb0153391891e103e00bff0c25"
        );
        assert_eq!(
            hex(&kp.private.lambda),
            "6a27ead5dcf1e2eaf0e87df29571dab0189a0cef5f3c2e774479b00f6ea2f6a6"
        );
        assert_eq!(
            hex(&kp.private.mu),
            "8babd87f4848bab2bec1e77048169373d720873503899e5254033b2647004483"
        );
        let enc = PaillierEncryptor::new(&kp.public, &mut StdRng::seed_from_u64(11));
        let fast = enc.encrypt_seeded(&BigUint::from_u64(314_159), 7).unwrap();
        assert_eq!(
            hex(fast.as_biguint()),
            "49b86ff0a04587ab81fefd24361d2bf47444814bff7736f882dfb8c5ea24f5bb\
             820abca8caa9cd5a09e572aff9c78df2561d49dcb3735b2405aa441423e50f8d"
        );
        let slow =
            kp.public.encrypt(&BigUint::from_u64(271_828), &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(
            hex(slow.as_biguint()),
            "5d86143e9e763167374d2adf4bdd6207aa381458fe4b0a13240807d166281eb9\
             fe42e8b902e467ecf3ccc2ce40ec6e0b53c2d53f5e93d7dc2dd26929a50f3cfe"
        );
        assert_eq!(kp.private.decrypt(&fast).to_u64(), Some(314_159));
        assert_eq!(kp.private.decrypt(&slow).to_u64(), Some(271_828));
    }

    #[test]
    fn fast_path_decrypts_identically_to_slow_path() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(11);
        let enc = PaillierEncryptor::new(&kp.public, &mut rng);
        for (i, v) in [0u64, 1, 42, 1_000_000, u64::MAX].into_iter().enumerate() {
            let m = BigUint::from_u64(v);
            let fast = enc.encrypt_seeded(&m, 1000 + i as u64).unwrap();
            assert_eq!(kp.private.decrypt(&fast), m, "fast path roundtrip v={v}");
            // The fast ciphertext interoperates with slow-path ciphertexts.
            let slow = kp.public.encrypt(&m, &mut rng).unwrap();
            let sum = kp.public.add(&fast, &slow);
            assert_eq!(kp.private.decrypt(&sum), m.add(&m), "fast+slow interop v={v}");
        }
    }

    #[test]
    fn fast_path_is_deterministic_in_its_seed() {
        let kp = keypair(128);
        let enc_a = PaillierEncryptor::new(&kp.public, &mut StdRng::seed_from_u64(20));
        let enc_b = PaillierEncryptor::new(&kp.public, &mut StdRng::seed_from_u64(20));
        let m = BigUint::from_u64(314);
        assert_eq!(enc_a.encrypt_seeded(&m, 7).unwrap(), enc_b.encrypt_seeded(&m, 7).unwrap());
        assert_ne!(
            enc_a.encrypt_seeded(&m, 7).unwrap(),
            enc_a.encrypt_seeded(&m, 8).unwrap(),
            "different noise seeds randomize the ciphertext"
        );
    }

    #[test]
    fn fast_path_rejects_out_of_range_plaintext() {
        let kp = keypair(128);
        let mut rng = StdRng::seed_from_u64(21);
        let enc = PaillierEncryptor::new(&kp.public, &mut rng);
        let too_big = kp.public.modulus().clone();
        assert!(matches!(enc.encrypt_seeded(&too_big, 0), Err(Error::PlaintextOutOfRange)));
    }

    #[test]
    fn noise_pool_output_is_independent_of_prefill_and_threads() {
        let kp = keypair(128);
        let mut rng = StdRng::seed_from_u64(22);
        let enc = PaillierEncryptor::new(&kp.public, &mut rng);
        // Reference: no prefill at all, take on demand.
        let cold = NoisePool::new(777);
        let start = cold.reserve(12);
        let want: Vec<BigUint> = (start..start + 12).map(|j| cold.take(&enc, j)).collect();
        for threads in [1usize, 4] {
            let pool = vfps_par::Pool::with_threads(threads);
            let warm = NoisePool::new(777);
            warm.prefill(&enc, 5, &pool); // partial prefill: 5 of 12
            assert_eq!(warm.ready_len(), 5);
            let start = warm.reserve(12);
            let got: Vec<BigUint> = (start..start + 12).map(|j| warm.take(&enc, j)).collect();
            assert_eq!(got, want, "threads={threads}");
            assert_eq!(warm.ready_len(), 0, "prefilled factors consumed");
        }
    }

    #[test]
    fn noise_pool_reservations_are_contiguous() {
        let pool = NoisePool::new(1);
        assert_eq!(pool.reserve(3), 0);
        assert_eq!(pool.reserve(1), 3);
        assert_eq!(pool.reserve(0), 4);
        assert_eq!(pool.reserve(2), 4);
    }

    #[test]
    fn long_sum_chain() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(9);
        let mut acc = kp.public.encrypt(&BigUint::zero(), &mut rng).unwrap();
        let mut expect = 0u64;
        for i in 1..=50u64 {
            let c = kp.public.encrypt(&BigUint::from_u64(i * i), &mut rng).unwrap();
            acc = kp.public.add(&acc, &c);
            expect += i * i;
        }
        assert_eq!(kp.private.decrypt(&acc).to_u64(), Some(expect));
    }
}
