//! The optimal ate pairing `e : G1 × G2 → GT` and the target-group type
//! [`Gt`].
//!
//! # Construction notes
//!
//! * **Miller loop** — the one Miller loop is
//!   [`crate::multi_miller_loop`] over a [`crate::G2Prepared`] point:
//!   [`pairing`] prepares its G2 argument and runs it, so a prepared
//!   and an unprepared pairing share every line and every squaring.
//!   Lines come from affine iteration over the (negative) BLS parameter
//!   `u = -0xd201000000010000`, evaluated through the untwist
//!   `ψ(x', y') = (x'·v²/ξ, y'·v·w/ξ)` of the M-type sextic twist;
//!   after scaling by the subfield constant `ξ` (absorbed by the final
//!   exponentiation) a line through `(x₁, y₁)` with slope `λ`, evaluated
//!   at `P = (x_P, y_P)`, is the sparse element
//!   `ξ·y_P + (λ·x₁ - y₁)·v·w - λ·x_P·v²·w`.
//! * **Final exponentiation** — the easy part is the usual
//!   `(p⁶-1)(p²+1)`; the hard part `(p⁴-p²+1)/r` is *computed* as an
//!   integer at first use and evaluated as a 4-digit base-`p`
//!   multi-exponentiation using Frobenius powers — no transcribed
//!   addition chains to get subtly wrong.

use std::sync::OnceLock;

use crate::arith::BigUint;
#[cfg(test)]
use crate::field::Field;
use crate::fp::Fp;
use crate::fp12::Fp12;
use crate::fr::Fr;
use crate::g1::G1Affine;
use crate::g2::G2Affine;
use crate::prepared::{multi_miller_loop, G2Prepared};

/// `|u|` for the BLS parameter `u = -0xd201000000010000`.
pub(crate) const BLS_X: u64 = 0xd201_0000_0001_0000;

/// An element of the target group `GT ⊂ Fp12*` of order `r`.
///
/// Obtained from [`pairing`] or [`pairing_product`]; supports the group
/// operations the schemes need (multiplication, inversion, scalar
/// exponentiation).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Gt(Fp12);

impl Gt {
    /// The group identity.
    pub fn identity() -> Self {
        Gt(Fp12::one())
    }

    /// True for the identity.
    pub fn is_identity(&self) -> bool {
        self.0 == Fp12::one()
    }

    /// Group operation.
    pub fn mul(&self, other: &Self) -> Self {
        Gt(self.0.mul(&other.0))
    }

    /// Group inverse (cheap unitary conjugation).
    pub fn inverse(&self) -> Self {
        Gt(self.0.conjugate())
    }

    /// Exponentiation by a scalar (square-and-multiply with cyclotomic
    /// squarings — GT elements always lie in the cyclotomic subgroup).
    pub fn pow(&self, k: &Fr) -> Self {
        let mut res = Fp12::one();
        let mut started = false;
        for &limb in k.to_raw().iter().rev() {
            for i in (0..64).rev() {
                if started {
                    res = res.cyclotomic_square();
                }
                if (limb >> i) & 1 == 1 {
                    if started {
                        res = res.mul(&self.0);
                    } else {
                        res = self.0;
                        started = true;
                    }
                }
            }
        }
        Gt(res)
    }

    /// The raw `Fp12` representative (for serialization or hashing).
    pub fn as_fp12(&self) -> &Fp12 {
        &self.0
    }

    /// Canonical 576-byte encoding for hashing pairing outputs into
    /// challenges.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_be_bytes()
    }
}

impl core::ops::Mul for Gt {
    type Output = Gt;
    fn mul(self, rhs: Gt) -> Gt {
        Gt::mul(&self, &rhs)
    }
}

/// Base-p digits of the hard exponent `(p⁴ - p² + 1)/r`, least
/// significant first, cached after the first computation.
#[allow(clippy::expect_used)] // the digit count is asserted right above
fn hard_exponent_digits() -> &'static [Vec<u64>; 4] {
    static DIGITS: OnceLock<[Vec<u64>; 4]> = OnceLock::new();
    DIGITS.get_or_init(|| {
        let p = BigUint::from_limbs(&Fp::MODULUS);
        let r = BigUint::from_limbs(&Fr::MODULUS);
        let p2 = p.mul(&p);
        let p4 = p2.mul(&p2);
        let h = p4.sub(&p2).add_small(1);
        let (h, rem) = h.div_rem(&r);
        assert!(rem.is_zero(), "r must divide p^4 - p^2 + 1");
        let mut digits = Vec::with_capacity(4);
        let mut cur = h;
        for _ in 0..4 {
            let (q, d) = cur.div_rem(&p);
            digits.push(d.limbs().to_vec());
            cur = q;
        }
        assert!(cur.is_zero(), "hard exponent must have 4 base-p digits");
        // lint:allow(panic) the loop above pushes exactly 4 digits
        digits.try_into().expect("exactly 4 digits")
    })
}

/// The full final exponentiation `f ↦ f^((p¹²-1)/r)`.
pub fn final_exponentiation(f: &Fp12) -> Gt {
    // Easy part: f^((p^6 - 1)(p^2 + 1)).
    let f = match f.invert() {
        Some(inv) => f.conjugate().mul(&inv),
        None => return Gt::identity(), // f = 0 never arises from Miller loops
    };
    let f = f.frobenius_map().frobenius_map().mul(&f);

    // Hard part: multi-exponentiation over the base-p digits using
    // Frobenius powers of f.
    let digits = hard_exponent_digits();
    let f1 = f.frobenius_map();
    let f2 = f1.frobenius_map();
    let f3 = f2.frobenius_map();
    let bases = [f, f1, f2, f3];

    // Lookup table of all 15 non-empty base subsets.
    let mut table = [Fp12::one(); 16];
    for mask in 1usize..16 {
        let lsb = mask.trailing_zeros() as usize;
        // lint:allow(panic) mask & (mask - 1) < mask < 16 = table.len()
        table[mask] = table[mask & (mask - 1)].mul(&bases[lsb]);
    }

    let max_bits = digits
        .iter()
        .map(|d| BigUint::from_limbs(d).bit_len())
        .max()
        .unwrap_or(0);
    let mut acc = Fp12::one();
    for i in (0..max_bits).rev() {
        // acc stays in the cyclotomic subgroup (products of powers of a
        // post-easy-part element), so the cheap squaring applies.
        acc = acc.cyclotomic_square();
        let mut mask = 0usize;
        for (j, d) in digits.iter().enumerate() {
            let limb = i / 64;
            if limb < d.len() && (d[limb] >> (i % 64)) & 1 == 1 {
                mask |= 1 << j;
            }
        }
        if mask != 0 {
            acc = acc.mul(&table[mask]);
        }
    }
    Gt(acc)
}

/// Computes the optimal ate pairing `e(P, Q)`.
///
/// Returns the identity when either input is the identity.
///
/// # Examples
///
/// ```
/// use mccls_pairing::{pairing, G1Affine, G2Affine};
///
/// let e = pairing(&G1Affine::generator(), &G2Affine::generator());
/// assert!(!e.is_identity());
/// ```
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Gt {
    if p.is_identity() || q.is_identity() {
        return Gt::identity();
    }
    multi_miller_loop(&[(p, &G2Prepared::from_affine(q))]).final_exponentiation()
}

/// Computes `∏ e(P_i, Q_i)` with one shared final exponentiation.
///
/// This is how verifiers check pairing equations like
/// `e(A, B) = e(C, D)` efficiently: evaluate
/// `pairing_product(&[(A, B), (-C, D)])` and compare with the identity.
/// The factors share one [`multi_miller_loop`], so its `Fp12`
/// squarings are paid once for the whole product.
pub fn pairing_product(pairs: &[(G1Affine, G2Affine)]) -> Gt {
    let prepared: Vec<(&G1Affine, G2Prepared)> = pairs
        .iter()
        .filter(|(p, q)| !p.is_identity() && !q.is_identity())
        .map(|(p, q)| (p, G2Prepared::from_affine(q)))
        .collect();
    if prepared.is_empty() {
        return Gt::identity();
    }
    let refs: Vec<(&G1Affine, &G2Prepared)> = prepared.iter().map(|(p, q)| (*p, q)).collect();
    multi_miller_loop(&refs).final_exponentiation()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::curve::ProjectivePoint;
    use crate::g1::G1Projective;
    use crate::g2::G2Projective;
    use mccls_rng::SeedableRng;

    fn gen_pairing() -> Gt {
        pairing(&G1Affine::generator(), &G2Affine::generator())
    }

    #[test]
    fn pairing_is_non_degenerate() {
        let e = gen_pairing();
        assert!(!e.is_identity());
        // e has order r: e^r == 1, pinned via pow by r-1 times e.
        let r_minus_1 = Fr::zero().sub(&Fr::one());
        assert_eq!(e.pow(&r_minus_1).mul(&e), Gt::identity());
    }

    #[test]
    fn pairing_is_bilinear_left() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(30);
        let a = Fr::random(&mut rng);
        let pa = (G1Projective::generator() * a).to_affine();
        let q = G2Affine::generator();
        assert_eq!(pairing(&pa, &q), gen_pairing().pow(&a));
    }

    #[test]
    fn pairing_is_bilinear_right() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(31);
        let b = Fr::random(&mut rng);
        let qb = (G2Projective::generator() * b).to_affine();
        let p = G1Affine::generator();
        assert_eq!(pairing(&p, &qb), gen_pairing().pow(&b));
    }

    #[test]
    fn pairing_is_bilinear_both() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(32);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let pa = (G1Projective::generator() * a).to_affine();
        let qb = (G2Projective::generator() * b).to_affine();
        assert_eq!(pairing(&pa, &qb), gen_pairing().pow(&a.mul(&b)));
    }

    #[test]
    fn pairing_additivity_in_g1() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(33);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let g = G1Projective::generator();
        let sum = (g * a + g * b).to_affine();
        let q = G2Affine::generator();
        assert_eq!(
            pairing(&sum, &q),
            pairing(&(g * a).to_affine(), &q).mul(&pairing(&(g * b).to_affine(), &q))
        );
    }

    #[test]
    fn pairing_with_identity_is_identity() {
        assert!(pairing(&G1Affine::identity(), &G2Affine::generator()).is_identity());
        assert!(pairing(&G1Affine::generator(), &G2Affine::identity()).is_identity());
    }

    #[test]
    fn pairing_of_negated_point_is_inverse() {
        let e = gen_pairing();
        let neg = pairing(&G1Affine::generator().neg(), &G2Affine::generator());
        assert_eq!(e.mul(&neg), Gt::identity());
        assert_eq!(neg, e.inverse());
    }

    #[test]
    fn pairing_product_checks_dh_tuples() {
        // e(aG, bH) * e(-abG, H) == 1.
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(34);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let g = G1Projective::generator();
        let h = G2Projective::generator();
        let result = pairing_product(&[
            ((g * a).to_affine(), (h * b).to_affine()),
            ((g * a.mul(&b)).neg().to_affine(), h.to_affine()),
        ]);
        assert!(result.is_identity());
    }

    #[test]
    fn hard_exponent_digits_recompose_to_h() {
        // Horner-recompose the cached base-p digits and compare against a
        // fresh computation of (p^4 - p^2 + 1)/r.
        let p = BigUint::from_limbs(&Fp::MODULUS);
        let r = BigUint::from_limbs(&Fr::MODULUS);
        let p2 = p.mul(&p);
        let h = p2.mul(&p2).sub(&p2).add_small(1);
        let (h, rem) = h.div_rem(&r);
        assert!(rem.is_zero());

        let digits = hard_exponent_digits();
        let mut total = BigUint::zero();
        for d in digits.iter().rev() {
            // total = total * p + d
            let scaled = total.mul(&p);
            let mut limbs = scaled.limbs().to_vec();
            while limbs.len() < d.len() {
                limbs.push(0);
            }
            let mut carry = 0u64;
            for (i, l) in limbs.iter_mut().enumerate() {
                let add = d.get(i).copied().unwrap_or(0);
                let (v, c1) = l.overflowing_add(add);
                let (v, c2) = v.overflowing_add(carry);
                *l = v;
                carry = (c1 as u64) + (c2 as u64);
            }
            if carry > 0 {
                limbs.push(carry);
            }
            total = BigUint::from_limbs(&limbs);
        }
        assert_eq!(total, h, "digit decomposition must recompose to h");
    }

    #[test]
    fn final_exponentiation_output_has_order_r() {
        // For random f, final_exponentiation(f)^r must be the identity.
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(35);
        let f = Fp12::random(&mut rng);
        let e = final_exponentiation(&f);
        let r_minus_1 = Fr::zero().sub(&Fr::one());
        assert_eq!(e.pow(&r_minus_1).mul(&e), Gt::identity());
    }

    #[test]
    fn gt_pow_matches_generic_field_pow() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(37);
        let e = gen_pairing();
        for _ in 0..3 {
            let k = Fr::random(&mut rng);
            assert_eq!(e.pow(&k), Gt(Field::pow(e.as_fp12(), &k.to_raw())));
        }
        assert_eq!(e.pow(&Fr::zero()), Gt::identity());
        assert_eq!(e.pow(&Fr::one()), e);
    }

    #[test]
    fn gt_pow_respects_scalar_arithmetic() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(36);
        let e = gen_pairing();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        assert_eq!(e.pow(&a).pow(&b), e.pow(&a.mul(&b)));
        assert_eq!(e.pow(&a).mul(&e.pow(&b)), e.pow(&a.add(&b)));
    }

    #[test]
    fn gt_byte_encoding_is_canonical_and_injective() {
        let e = gen_pairing();
        assert_eq!(e.to_bytes().len(), 576);
        assert_eq!(e.to_bytes(), e.to_bytes());
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(38);
        let other = e.pow(&Fr::random(&mut rng));
        assert_ne!(e.to_bytes(), other.to_bytes());
        assert_eq!(Gt::identity().to_bytes()[..48], Fp::one().to_be_bytes());
    }

    #[test]
    fn identity_projective_inputs() {
        let id1 = ProjectivePoint::<crate::g1::G1Params>::identity().to_affine();
        assert!(pairing(&id1, &G2Affine::generator()).is_identity());
    }
}
