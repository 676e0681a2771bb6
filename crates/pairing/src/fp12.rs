//! The quadratic extension `Fp12 = Fp6[w] / (w² - v)`, the pairing target
//! field.

use std::sync::OnceLock;

use crate::arith::BigUint;
use crate::field::{field_operators, Field};
use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::fp6::Fp6;

/// An element `c0 + c1·w` of `Fp12`, with `w² = v`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Fp12 {
    /// Constant coefficient.
    pub c0: Fp6,
    /// Coefficient of `w`.
    pub c1: Fp6,
}

/// Frobenius twist factors, derived once at first use by exponentiating
/// the sextic non-residue — no transcribed constant tables.
struct FrobeniusCoeffs {
    /// `ξ^((p-1)/6)`, multiplies the `w` coefficient.
    gamma_w: Fp2,
    /// `ξ^((p-1)/3)`, multiplies the `v` coefficient inside `Fp6`.
    gamma_v1: Fp2,
    /// `ξ^(2(p-1)/3)`, multiplies the `v²` coefficient inside `Fp6`.
    gamma_v2: Fp2,
}

fn frobenius_coeffs() -> &'static FrobeniusCoeffs {
    static COEFFS: OnceLock<FrobeniusCoeffs> = OnceLock::new();
    COEFFS.get_or_init(|| {
        let p = BigUint::from_limbs(&Fp::MODULUS);
        let p_minus_1 = p.sub(&BigUint::from_limbs(&[1]));
        let (exp6, rem) = p_minus_1.div_rem(&BigUint::from_limbs(&[6]));
        assert!(rem.is_zero(), "p - 1 must be divisible by 6");
        let xi = Fp2::new(Fp::one(), Fp::one());
        let gamma_w = Field::pow(&xi, exp6.limbs());
        let gamma_v1 = gamma_w.square();
        let gamma_v2 = gamma_v1.square();
        FrobeniusCoeffs {
            gamma_w,
            gamma_v1,
            gamma_v2,
        }
    })
}

/// Frobenius endomorphism on `Fp6` (conjugate coefficients, twist by the
/// `γ` factors).
fn frobenius_fp6(a: &Fp6) -> Fp6 {
    let coeffs = frobenius_coeffs();
    Fp6::new(
        a.c0.conjugate(),
        a.c1.conjugate().mul(&coeffs.gamma_v1),
        a.c2.conjugate().mul(&coeffs.gamma_v2),
    )
}

impl Fp12 {
    /// Builds an element from its two `Fp6` coefficients.
    pub const fn new(c0: Fp6, c1: Fp6) -> Self {
        Self { c0, c1 }
    }

    /// The zero element.
    pub const fn zero() -> Self {
        Self {
            c0: Fp6::zero(),
            c1: Fp6::zero(),
        }
    }

    /// The one element.
    pub fn one() -> Self {
        Self {
            c0: Fp6::one(),
            c1: Fp6::zero(),
        }
    }

    /// Embeds an `Fp6` element.
    pub fn from_fp6(c0: Fp6) -> Self {
        Self {
            c0,
            c1: Fp6::zero(),
        }
    }

    /// True for the additive identity.
    pub fn is_zero(&self) -> bool {
        // ct-ok: short-circuit zero predicate; a secret-dependent
        // branch on its result is reported at the caller
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Component-wise addition.
    pub fn add(&self, other: &Self) -> Self {
        Self {
            c0: self.c0.add(&other.c0),
            c1: self.c1.add(&other.c1),
        }
    }

    /// Component-wise subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        Self {
            c0: self.c0.sub(&other.c0),
            c1: self.c1.sub(&other.c1),
        }
    }

    /// Doubling.
    pub fn double(&self) -> Self {
        Self {
            c0: self.c0.double(),
            c1: self.c1.double(),
        }
    }

    /// Additive inverse.
    pub fn neg(&self) -> Self {
        Self {
            c0: self.c0.neg(),
            c1: self.c1.neg(),
        }
    }

    /// Karatsuba multiplication over `w² = v`.
    pub fn mul(&self, other: &Self) -> Self {
        let v0 = self.c0.mul(&other.c0);
        let v1 = self.c1.mul(&other.c1);
        let s = self.c0.add(&self.c1).mul(&other.c0.add(&other.c1));
        Self {
            c0: v0.add(&v1.mul_by_v()),
            c1: s.sub(&v0).sub(&v1),
        }
    }

    /// Squaring (complex method over `w² = v`).
    pub fn square(&self) -> Self {
        // (a + bw)^2 = (a^2 + b^2 v) + 2ab w
        //            = ((a+b)(a+bv) - ab - ab v) + 2ab w
        let ab = self.c0.mul(&self.c1);
        let t = self.c0.add(&self.c1).mul(&self.c0.add(&self.c1.mul_by_v()));
        Self {
            c0: t.sub(&ab).sub(&ab.mul_by_v()),
            c1: ab.double(),
        }
    }

    /// Multiplicative inverse: `(a - bw) / (a² - b²v)`.
    pub fn invert(&self) -> Option<Self> {
        let denom = self.c0.square().sub(&self.c1.square().mul_by_v());
        denom.invert().map(|d| Self {
            c0: self.c0.mul(&d),
            c1: self.c1.neg().mul(&d),
        })
    }

    /// The conjugation `a - bw`.
    ///
    /// For elements of the cyclotomic subgroup (every pairing output),
    /// this equals the inverse and is far cheaper.
    pub fn conjugate(&self) -> Self {
        Self {
            c0: self.c0,
            c1: self.c1.neg(),
        }
    }

    /// One application of the Frobenius endomorphism `x ↦ x^p`.
    pub fn frobenius_map(&self) -> Self {
        let coeffs = frobenius_coeffs();
        let c0 = frobenius_fp6(&self.c0);
        let c1 = frobenius_fp6(&self.c1).mul_by_fp2(&coeffs.gamma_w);
        Self { c0, c1 }
    }

    /// Sparse multiplication by a Miller-loop line
    /// `l = a + (b·v + c·v²)·w` with `a, b, c ∈ Fp2`.
    ///
    /// Exploits the six structurally-zero coefficients of the line; the
    /// result is identical to building the full `Fp12` element and calling
    /// [`Fp12::mul`] (asserted by tests).
    pub fn mul_by_line(&self, a: &Fp2, b: &Fp2, c: &Fp2) -> Self {
        // other = A + B w, A = (a,0,0), B = (0,b,c). The B product
        // takes the sparse deferred-reduction path (mul_by_0bc), and
        // the dense product inherits the lazy Fp6 chain — this is the
        // Miller loop's per-iteration workhorse.
        let v0 = self.c0.mul_by_fp2(a);
        let v1 = self.c1.mul_by_0bc(b, c);
        // (a+b)(A+B) - v0 - v1, with A+B = (a, b, c)
        let sum = Fp6::new(*a, *b, *c);
        let s = self.c0.add(&self.c1).mul(&sum);
        Self {
            c0: v0.add(&v1.mul_by_v()),
            c1: s.sub(&v0).sub(&v1),
        }
    }

    /// Uniformly random element.
    pub fn random(rng: &mut (impl mccls_rng::RngCore + ?Sized)) -> Self {
        Self {
            c0: Fp6::random(rng),
            c1: Fp6::random(rng),
        }
    }

    /// Granger–Scott squaring, valid **only** for elements of the
    /// cyclotomic subgroup (anything that has been through the easy part
    /// of the final exponentiation, i.e. every pairing output). About
    /// half the cost of a generic [`Fp12::square`]; agreement on
    /// cyclotomic inputs is asserted by tests.
    pub fn cyclotomic_square(&self) -> Self {
        fn fp4_square(a: Fp2, b: Fp2) -> (Fp2, Fp2) {
            // (a + b·t)² over Fp4 = Fp2[t]/(t² - ξ).
            let t0 = a.square();
            let t1 = b.square();
            let c0 = t1.mul_by_nonresidue().add(&t0);
            let c1 = a.add(&b).square().sub(&t0).sub(&t1);
            (c0, c1)
        }

        let z0 = self.c0.c0;
        let z4 = self.c0.c1;
        let z3 = self.c0.c2;
        let z2 = self.c1.c0;
        let z1 = self.c1.c1;
        let z5 = self.c1.c2;

        let (t0, t1) = fp4_square(z0, z1);
        let z0 = t0.sub(&z0).double().add(&t0);
        let z1 = t1.add(&z1).double().add(&t1);

        let (t0, t1) = fp4_square(z2, z3);
        let (t2, t3) = fp4_square(z4, z5);
        let z4 = t0.sub(&z4).double().add(&t0);
        let z5 = t1.add(&z5).double().add(&t1);

        let t0 = t3.mul_by_nonresidue();
        let z2 = t0.add(&z2).double().add(&t0);
        let z3 = t2.sub(&z3).double().add(&t2);

        Self {
            c0: Fp6::new(z0, z4, z3),
            c1: Fp6::new(z2, z1, z5),
        }
    }

    /// Canonical 576-byte encoding (the twelve `Fp` coefficients in tower
    /// order), suitable for hashing pairing outputs.
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(576);
        for c6 in [&self.c0, &self.c1] {
            for c2 in [&c6.c0, &c6.c1, &c6.c2] {
                out.extend_from_slice(&c2.c0.to_be_bytes());
                out.extend_from_slice(&c2.c1.to_be_bytes());
            }
        }
        out
    }
}

impl Field for Fp12 {
    fn zero() -> Self {
        Self::zero()
    }
    fn one() -> Self {
        Self::one()
    }
    fn is_zero(&self) -> bool {
        self.is_zero()
    }
    fn add(&self, other: &Self) -> Self {
        self.add(other)
    }
    fn sub(&self, other: &Self) -> Self {
        self.sub(other)
    }
    fn mul(&self, other: &Self) -> Self {
        self.mul(other)
    }
    fn square(&self) -> Self {
        self.square()
    }
    fn double(&self) -> Self {
        self.double()
    }
    fn neg(&self) -> Self {
        self.neg()
    }
    fn invert(&self) -> Option<Self> {
        self.invert()
    }
    fn random(rng: &mut (impl mccls_rng::RngCore + ?Sized)) -> Self {
        Self::random(rng)
    }
    fn ct_select(a: &Self, b: &Self, choice: crate::ct::Choice) -> Self {
        Self {
            c0: Field::ct_select(&a.c0, &b.c0, choice),
            c1: Field::ct_select(&a.c1, &b.c1, choice),
        }
    }
    fn ct_eq(&self, other: &Self) -> crate::ct::Choice {
        Field::ct_eq(&self.c0, &other.c0).and(Field::ct_eq(&self.c1, &other.c1))
    }
}

impl core::fmt::Debug for Fp12 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({:?} + {:?}*w)", self.c0, self.c1)
    }
}

field_operators!(Fp12);

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use mccls_rng::SeedableRng;

    /// Runs `body` on `n` random elements drawn from a fixed seed.
    fn for_random_fp12(n: usize, seed: u64, mut body: impl FnMut(Fp12, Fp12, Fp12)) {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..n {
            body(
                Fp12::random(&mut rng),
                Fp12::random(&mut rng),
                Fp12::random(&mut rng),
            );
        }
    }

    #[test]
    fn w_squared_is_v() {
        let w = Fp12::new(Fp6::zero(), Fp6::one());
        let v = Fp12::from_fp6(Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero()));
        assert_eq!(w.square(), v);
        assert_eq!(w.mul(&w), v);
    }

    #[test]
    fn frobenius_matches_pow_p() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(20);
        let a = Fp12::random(&mut rng);
        assert_eq!(a.frobenius_map(), Field::pow(&a, &Fp::MODULUS));
    }

    #[test]
    fn frobenius_order_twelve() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(21);
        let a = Fp12::random(&mut rng);
        let mut b = a;
        for _ in 0..12 {
            b = b.frobenius_map();
        }
        assert_eq!(a, b);
    }

    #[test]
    fn cyclotomic_square_matches_generic_on_cyclotomic_elements() {
        use crate::fr::Fr;
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(23);
        for _ in 0..5 {
            let f = Fp12::random(&mut rng);
            // Push into the cyclotomic subgroup via the easy part
            // f^((p^6-1)(p^2+1)).
            let f = f.conjugate().mul(&f.invert().unwrap());
            let f = f.frobenius_map().frobenius_map().mul(&f);
            assert_eq!(f.cyclotomic_square(), f.square());
            // Powers stay cyclotomic.
            let g = Field::pow(&f, &Fr::from_u64(12345).to_raw());
            assert_eq!(g.cyclotomic_square(), g.square());
        }
    }

    #[test]
    fn cyclotomic_square_diverges_outside_subgroup() {
        // Sanity: for a generic element the shortcut is *not* the
        // square, confirming the test above exercises the subgroup.
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(24);
        let f = Fp12::random(&mut rng);
        assert_ne!(f.cyclotomic_square(), f.square());
    }

    #[test]
    fn mul_by_line_matches_dense_mul() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(22);
        for _ in 0..5 {
            let f = Fp12::random(&mut rng);
            let a = Fp2::random(&mut rng);
            let b = Fp2::random(&mut rng);
            let c = Fp2::random(&mut rng);
            let dense = Fp12::new(
                Fp6::new(a, Fp2::zero(), Fp2::zero()),
                Fp6::new(Fp2::zero(), b, c),
            );
            assert_eq!(f.mul_by_line(&a, &b, &c), f.mul(&dense));
        }
    }

    #[test]
    fn ring_axioms() {
        for_random_fp12(16, 0xE0, |a, b, c| {
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            assert_eq!(a.square(), a.mul(&a));
        });
    }

    #[test]
    fn inverse() {
        for_random_fp12(16, 0xE1, |a, _, _| {
            if a.is_zero() {
                return;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fp12::one());
        });
    }
}
