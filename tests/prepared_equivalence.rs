//! The prepared-path equivalence contract: for every scheme, the
//! pairing products the verifier evaluates over cached [`G2Prepared`]
//! line coefficients agree **bit-for-bit** with the same products
//! computed by an independent reference — and the accept/reject
//! decision derived from the reference reconstruction matches what
//! `CertificatelessScheme::verify` returns, on valid and tampered
//! signatures alike.
//!
//! The reference is a test-local affine Miller loop: it recomputes the
//! G2 line of every step inline, multiplies each pairing's factor
//! separately, and shares no code with [`multi_miller_loop`] beyond the
//! field tower and [`final_exponentiation`]. `pairing()` and
//! `pairing_product()` run `multi_miller_loop` themselves, so they are
//! checked against the same reference.

#![allow(clippy::unwrap_used)]

use mccls::cls::params::{h2_scalar, DST_HW};
use mccls::cls::{all_schemes, Signature, SystemParams, UserPublicKey};
use mccls::pairing::{
    final_exponentiation, hash_to_g1, multi_miller_loop, pairing, pairing_product, Fp, Fp12, Fp2,
    Fr, G1Affine, G1Projective, G2Affine, G2Prepared, G2Projective, Gt,
};
use mccls_rng::SeedableRng;

/// `|u|` for the BLS parameter `u = -0xd201000000010000`.
const BLS_X: u64 = 0xd201_0000_0001_0000;

/// Reference Miller loop `f_{u,Q}(P)`: affine steps over the bits of
/// `|u|`, the (ξ-scaled) line `ξ·y_P + (λ·x_T - y_T)·v·w - λ·x_P·v²·w`
/// through the working point `T` multiplied in at each step, and one
/// conjugation for the negative parameter. The identity on either side
/// yields the factor `1`.
fn reference_miller_loop(p: &G1Affine, q: &G2Affine) -> Fp12 {
    if p.is_identity() || q.is_identity() {
        return Fp12::one();
    }
    let line = |f: &Fp12, tx: &Fp2, ty: &Fp2, lambda: &Fp2| {
        let a = Fp2::new(p.y, p.y);
        let b = lambda.mul(tx).sub(ty);
        let c = lambda.mul_by_fp(&p.x.neg());
        f.mul_by_line(&a, &b, &c)
    };
    let three = Fp2::new(Fp::from_u64(3), Fp::zero());
    let mut f = Fp12::one();
    let (mut tx, mut ty) = (q.x, q.y);
    for i in (0..63).rev() {
        f = f.square();
        let lambda = tx.square().mul(&three).mul(&ty.double().invert().unwrap());
        f = line(&f, &tx, &ty, &lambda);
        let x3 = lambda.square().sub(&tx.double());
        (tx, ty) = (x3, lambda.mul(&tx.sub(&x3)).sub(&ty));
        if (BLS_X >> i) & 1 == 1 {
            let lambda = q.y.sub(&ty).mul(&q.x.sub(&tx).invert().unwrap());
            f = line(&f, &tx, &ty, &lambda);
            let x3 = lambda.square().sub(&tx).sub(&q.x);
            (tx, ty) = (x3, lambda.mul(&tx.sub(&x3)).sub(&ty));
        }
    }
    f.conjugate()
}

/// Reference pairing: [`reference_miller_loop`] then the final
/// exponentiation.
fn reference_pairing(p: &G1Affine, q: &G2Affine) -> Gt {
    final_exponentiation(&reference_miller_loop(p, q))
}

/// Evaluates a pairing product both ways — by the reference (one
/// affine Miller loop and final exponentiation per factor, multiplied
/// in Gt) and prepared (one multi-Miller loop over cached lines, one
/// shared final exponentiation) — and asserts the two Gt elements are
/// byte-identical before returning one.
fn product_both_ways(pairs: &[(G1Projective, G2Projective)], context: &str) -> Gt {
    let mut unprepared = Gt::identity();
    for (p, q) in pairs {
        unprepared = unprepared.mul(&reference_pairing(&p.to_affine(), &q.to_affine()));
    }
    let affine: Vec<_> = pairs
        .iter()
        .map(|(p, q)| (p.to_affine(), G2Prepared::from_projective(q)))
        .collect();
    let refs: Vec<_> = affine.iter().map(|(p, q)| (p, q)).collect();
    let prepared = multi_miller_loop(&refs).final_exponentiation();
    assert_eq!(
        unprepared.to_bytes(),
        prepared.to_bytes(),
        "{context}: prepared and unprepared products must agree bit-for-bit"
    );
    unprepared
}

/// Reconstructs the accept/reject decision of `scheme.verify` for a
/// given signature using only reference pairings, checking along the
/// way that every product also matches its prepared form.
fn unprepared_decision(
    params: &SystemParams,
    id: &[u8],
    public: &UserPublicKey,
    msg: &[u8],
    sig: &Signature,
) -> bool {
    let q_id = params.hash_identity(id);
    let p = params.p();
    match sig {
        Signature::McCls { v, s, r } => {
            let h = h2_scalar(&[
                b"mccls",
                msg,
                &r.to_affine().to_compressed(),
                &public.to_bytes(),
            ]);
            let Some(h_inv) = h.invert() else {
                return false;
            };
            let lhs_g2 = p.mul_scalar(v).sub(&r.mul_scalar(&h));
            let s_over_h = s.mul_scalar(&h_inv);
            if s_over_h.is_identity() || lhs_g2.is_identity() {
                return false;
            }
            let lhs = product_both_ways(&[(s_over_h, lhs_g2)], "McCLS lhs");
            let rhs = product_both_ways(&[(q_id, params.p_pub)], "McCLS rhs");
            lhs.to_bytes() == rhs.to_bytes()
        }
        Signature::Ap { u, v } => {
            let Some(x_a) = public.secondary else {
                return false;
            };
            let y_a = public.primary;
            let g = params.g();
            let wf_left = product_both_ways(&[(x_a, params.p_pub)], "AP well-formed left");
            let wf_right = product_both_ways(&[(g, y_a)], "AP well-formed right");
            if wf_left.to_bytes() != wf_right.to_bytes() {
                return false;
            }
            let e_u = product_both_ways(&[(*u, p)], "AP e(U, P)");
            let e_qy = product_both_ways(&[(q_id, y_a)], "AP e(Q_A, Y_A)");
            let rho = e_u.mul(&e_qy.pow(v).inverse());
            h2_scalar(&[b"ap", msg, &rho.to_bytes()]) == *v
        }
        Signature::Zwxf { u, v } => {
            // Rebuild the two message points exactly as the scheme does:
            // length-prefixed (msg, id, public, U) material, domain-
            // separated by a trailing 0/1 byte.
            let mut material = Vec::new();
            for part in [
                msg,
                id,
                &public.to_bytes()[..],
                &u.to_affine().to_compressed()[..],
            ] {
                material.extend_from_slice(&(part.len() as u64).to_be_bytes());
                material.extend_from_slice(part);
            }
            let mut w_input = material.clone();
            w_input.push(0);
            let mut wp_input = material;
            wp_input.push(1);
            let w = hash_to_g1(&w_input, DST_HW);
            let wp = hash_to_g1(&wp_input, DST_HW);
            let lhs = product_both_ways(&[(*v, p)], "ZWXF e(V, P)");
            let rhs = product_both_ways(
                &[(q_id, params.p_pub), (w, *u), (wp, public.primary)],
                "ZWXF rhs product",
            );
            lhs.to_bytes() == rhs.to_bytes()
        }
        Signature::Yhg { u, v } => {
            let h = h2_scalar(&[
                b"yhg",
                msg,
                &u.to_affine().to_compressed(),
                &public.to_bytes(),
            ]);
            let lhs = product_both_ways(&[(*v, p)], "YHG e(V, P)");
            let rhs = product_both_ways(
                &[(
                    u.add(&q_id.mul_scalar(&h)),
                    params.p_pub.add(&public.primary),
                )],
                "YHG rhs",
            );
            lhs.to_bytes() == rhs.to_bytes()
        }
    }
}

#[test]
fn prepared_verify_agrees_with_unprepared_path_for_all_schemes() {
    let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(0x9E9A);
    for scheme in all_schemes() {
        let (params, kgc) = scheme.setup(&mut rng);
        for case in 0u32..3 {
            let id = format!("node-{case}").into_bytes();
            let partial = scheme.extract_partial_private_key(&kgc, &id);
            let keys = scheme.generate_key_pair(&params, &mut rng);
            let msg = format!("payload {case}").into_bytes();
            let sig = scheme.sign(&params, &id, &partial, &keys, &msg, &mut rng);

            // Valid signature: both paths accept.
            let prepared = scheme
                .verify(&params, &id, &keys.public, &msg, &sig)
                .is_ok();
            let unprepared = unprepared_decision(&params, &id, &keys.public, &msg, &sig);
            assert!(prepared, "{}: honest signature rejected", scheme.name());
            assert_eq!(
                prepared,
                unprepared,
                "{}: paths disagree on a valid signature",
                scheme.name()
            );

            // Tampered message: both paths reject, for the same reason
            // (the pairing products still agree bit-for-bit; only the
            // equation's balance changes).
            let bad_msg = b"tampered".to_vec();
            let prepared = scheme
                .verify(&params, &id, &keys.public, &bad_msg, &sig)
                .is_ok();
            let unprepared = unprepared_decision(&params, &id, &keys.public, &bad_msg, &sig);
            assert!(!prepared, "{}: tampered message accepted", scheme.name());
            assert_eq!(
                prepared,
                unprepared,
                "{}: paths disagree on a tampered signature",
                scheme.name()
            );

            // Foreign identity: same agreement under a wrong Q_ID.
            let prepared = scheme
                .verify(&params, b"someone-else", &keys.public, &msg, &sig)
                .is_ok();
            let unprepared =
                unprepared_decision(&params, b"someone-else", &keys.public, &msg, &sig);
            assert_eq!(
                prepared,
                unprepared,
                "{}: paths disagree on a foreign identity",
                scheme.name()
            );
        }
    }
}

#[test]
fn pairing_entry_points_match_the_reference_miller_loop() {
    let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(0x9E9B);
    let mut points: Vec<(G1Affine, G2Affine)> = (0..3)
        .map(|_| {
            (
                (G1Projective::generator() * Fr::random(&mut rng)).to_affine(),
                (G2Projective::generator() * Fr::random(&mut rng)).to_affine(),
            )
        })
        .collect();
    points.push((G1Affine::generator(), G2Affine::generator()));

    // Single pairings: `pairing()`, a one-pair multi-Miller loop, and
    // the Miller-loop value itself before the final exponentiation.
    for (p, q) in &points {
        let expected = reference_pairing(p, q);
        assert_eq!(pairing(p, q), expected, "pairing() drifted");
        let prepared = G2Prepared::from_affine(q);
        let ml = multi_miller_loop(&[(p, &prepared)]);
        assert_eq!(
            *ml.as_fp12(),
            reference_miller_loop(p, q),
            "Miller loop drifted"
        );
        assert_eq!(ml.final_exponentiation(), expected);
    }

    // Products: the shared-squaring loop equals the product of the
    // reference factors as an `Fp12` value, not only after the final
    // exponentiation.
    let prepared: Vec<G2Prepared> = points
        .iter()
        .map(|(_, q)| G2Prepared::from_affine(q))
        .collect();
    let pairs: Vec<(&G1Affine, &G2Prepared)> =
        points.iter().map(|(p, _)| p).zip(prepared.iter()).collect();
    let reference = points
        .iter()
        .fold(Fp12::one(), |f, (p, q)| f.mul(&reference_miller_loop(p, q)));
    let ml = multi_miller_loop(&pairs);
    assert_eq!(*ml.as_fp12(), reference, "multi-Miller loop drifted");
    let expected = final_exponentiation(&reference);
    assert_eq!(ml.final_exponentiation(), expected);
    assert_eq!(
        pairing_product(&points),
        expected,
        "pairing_product drifted"
    );

    // Identity factors drop out of every entry point.
    let mut with_identities = points.clone();
    with_identities.insert(1, (G1Affine::identity(), G2Affine::generator()));
    with_identities.push((G1Affine::generator(), G2Affine::identity()));
    assert_eq!(pairing_product(&with_identities), expected);
    let id_prepared = G2Prepared::from_affine(&G2Affine::identity());
    let g1_id = G1Affine::identity();
    let mut pairs_with_identities = pairs.clone();
    pairs_with_identities.push((&g1_id, &prepared[0]));
    pairs_with_identities.push((&points[0].0, &id_prepared));
    assert_eq!(
        *multi_miller_loop(&pairs_with_identities).as_fp12(),
        reference
    );
    assert!(pairing_product(&[(G1Affine::identity(), G2Affine::generator())]).is_identity());
    assert!(pairing_product(&[]).is_identity());
    assert!(pairing(&G1Affine::identity(), &G2Affine::generator()).is_identity());
    assert!(pairing(&G1Affine::generator(), &G2Affine::identity()).is_identity());
}
