//! Bit-for-bit equivalence of the lazy-reduction tower against
//! reduction-eager reference implementations.
//!
//! The lazy chains (`mul_unreduced` → `montgomery_reduce`, the wide
//! `Fp2` product, the `Fp6` Karatsuba paths, the sparse line
//! multiplication) are certified for headroom by the xtask `range`
//! lint; *this* suite pins the other half of the contract: every lazy
//! path must compute exactly what an eager reference computes, on
//! structured edge representatives (zero, one, `p-1`, saturated and
//! striped limb patterns) and on a deterministic seeded sweep. Equality
//! is on the canonical Montgomery representation, which both paths end
//! in — a representation drift (a value left above `p`) fails `Eq` just
//! as an arithmetic bug does.
//!
//! The eager `Fp6`/`Fp12` references live here, written over the public
//! API: every `Fp2` product they take reduces on the spot, so they share
//! no deferred reduction with the lazy code under test. The debug
//! profile keeps the lazy primitives' `debug_assert!` carry and borrow
//! checks on, so a headroom overflow also fails here as a panic.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use mccls_pairing::{Fp, Fp12, Fp2, Fp6};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;

/// Reduction-eager schoolbook `Fp6` product: the reference the lazy
/// [`Fp6::mul`] must agree with bit-for-bit.
fn mul_eager6(a: &Fp6, b: &Fp6) -> Fp6 {
    let v0 = a.c0.mul(&b.c0);
    let v1 = a.c1.mul(&b.c1);
    let v2 = a.c2.mul(&b.c2);
    // c0 = v0 + ξ((a1+a2)(b1+b2) - v1 - v2)
    let c0 =
        a.c1.add(&a.c2)
            .mul(&b.c1.add(&b.c2))
            .sub(&v1)
            .sub(&v2)
            .mul_by_nonresidue()
            .add(&v0);
    // c1 = (a0+a1)(b0+b1) - v0 - v1 + ξ v2
    let c1 =
        a.c0.add(&a.c1)
            .mul(&b.c0.add(&b.c1))
            .sub(&v0)
            .sub(&v1)
            .add(&v2.mul_by_nonresidue());
    // c2 = (a0+a2)(b0+b2) - v0 - v2 + v1
    let c2 =
        a.c0.add(&a.c2)
            .mul(&b.c0.add(&b.c2))
            .sub(&v0)
            .sub(&v2)
            .add(&v1);
    Fp6::new(c0, c1, c2)
}

/// Reduction-eager Karatsuba `Fp12` product over `w² = v`, routed
/// through [`mul_eager6`]: the reference for the lazy [`Fp12::mul`].
fn mul_eager12(a: &Fp12, b: &Fp12) -> Fp12 {
    let v0 = mul_eager6(&a.c0, &b.c0);
    let v1 = mul_eager6(&a.c1, &b.c1);
    let s = mul_eager6(&a.c0.add(&a.c1), &b.c0.add(&b.c1));
    Fp12::new(v0.add(&v1.mul_by_v()), s.sub(&v0).sub(&v1))
}

/// Reduction-eager complex `Fp12` squaring: the reference for
/// [`Fp12::square`].
fn square_eager12(a: &Fp12) -> Fp12 {
    let ab = mul_eager6(&a.c0, &a.c1);
    let t = mul_eager6(&a.c0.add(&a.c1), &a.c0.add(&a.c1.mul_by_v()));
    Fp12::new(t.sub(&ab).sub(&ab.mul_by_v()), ab.double())
}

/// Edge limb words: zero, one, all-ones, a lone top bit, bit stripes.
const EDGE_WORDS: [u64; 5] = [0, 1, u64::MAX, 1 << 63, 0xaaaa_aaaa_aaaa_aaaa];

/// Edge `Fp` representatives: 0, 1, `p-1`, and reduced saturated /
/// striped patterns. `from_raw` canonicalizes, so every value is a
/// legal `<p` input to the lazy entry points.
fn edge_fps() -> Vec<Fp> {
    let mut p_minus_1 = Fp::MODULUS;
    // The low limb of p is odd, so subtracting one never borrows.
    p_minus_1[0] -= 1;
    let mut out = vec![Fp::zero(), Fp::one(), Fp::from_raw(p_minus_1)];
    for w in EDGE_WORDS {
        out.push(Fp::from_raw([
            w,
            w ^ u64::MAX,
            w.rotate_left(17),
            w,
            w.rotate_right(29),
            w ^ 0x5555_5555_5555_5555,
        ]));
    }
    out
}

/// Edge `Fp2` values: the cross product of the extreme `Fp` edges plus
/// one striped pair, small enough to sweep pairwise.
fn edge_fp2s() -> Vec<Fp2> {
    let fps = edge_fps();
    let mut out = Vec::new();
    for a in &fps[..3] {
        for b in &fps[..3] {
            out.push(Fp2::new(*a, *b));
        }
    }
    out.push(Fp2::new(fps[3], fps[4]));
    out.push(Fp2::new(fps[5], fps[6]));
    out
}

fn edge_fp6s() -> Vec<Fp6> {
    let f2 = edge_fp2s();
    let mut out = vec![
        Fp6::zero(),
        Fp6::one(),
        Fp6::new(f2[2], f2[6], f2[8]),
        Fp6::new(f2[8], f2[8], f2[8]),
        Fp6::new(f2[9], f2[10], f2[4]),
    ];
    let mut rng = StdRng::seed_from_u64(0x1a2b_0006);
    for _ in 0..4 {
        out.push(Fp6::random(&mut rng));
    }
    out
}

fn edge_fp12s() -> Vec<Fp12> {
    let f6 = edge_fp6s();
    let mut out = vec![
        Fp12::zero(),
        Fp12::one(),
        Fp12::new(f6[2], f6[3]),
        Fp12::new(f6[3], f6[2]),
    ];
    let mut rng = StdRng::seed_from_u64(0x1a2b_000c);
    for _ in 0..4 {
        out.push(Fp12::random(&mut rng));
    }
    out
}

#[test]
fn fp_lazy_primitives_match_eager_ops_on_edges_and_seeded_pairs() {
    let edges = edge_fps();
    let mut pairs: Vec<(Fp, Fp)> = Vec::new();
    for a in &edges {
        for b in &edges {
            pairs.push((*a, *b));
        }
    }
    let mut rng = StdRng::seed_from_u64(0x1a2b_0001);
    for _ in 0..128 {
        pairs.push((Fp::random(&mut rng), Fp::random(&mut rng)));
    }
    for (a, b) in pairs {
        assert_eq!(
            a.add_unreduced(&b).mul_unreduced(&b).montgomery_reduce(),
            a.add(&b).mul(&b),
            "add_unreduced feeding a wide product drifted on ({a:?} + {b:?}) * {b:?}"
        );
        assert_eq!(
            a.mul_unreduced(&b).montgomery_reduce(),
            a.mul(&b),
            "mul_unreduced+montgomery_reduce drifted from mul on {a:?} * {b:?}"
        );
        // A deferred three-term accumulation: ab + ab + ab, reduced
        // once, against the eager per-step reference.
        let wide = a.mul_unreduced(&b);
        let lazy = wide.wide_add(&wide).wide_add(&wide).montgomery_reduce();
        let eager = a.mul(&b).add(&a.mul(&b)).add(&a.mul(&b));
        assert_eq!(lazy, eager, "deferred accumulation drifted on {a:?}, {b:?}");
    }
}

#[test]
fn fp2_wide_product_matches_mul_and_square_matches_self_mul() {
    let edges = edge_fp2s();
    let mut rng = StdRng::seed_from_u64(0x1a2b_0002);
    let mut values = edges.clone();
    for _ in 0..64 {
        values.push(Fp2::random(&mut rng));
    }
    for a in &values {
        for b in &values {
            assert_eq!(
                a.mul_unreduced2(b).montgomery_reduce2(),
                a.mul(b),
                "wide Fp2 product drifted on {a:?} * {b:?}"
            );
        }
        assert_eq!(
            a.square(),
            a.mul(a),
            "square must equal self-multiplication on {a:?}"
        );
    }
}

#[test]
fn fp6_lazy_mul_square_and_sparse_mul_match_the_eager_reference() {
    let values = edge_fp6s();
    let sparse = edge_fp2s();
    for a in &values {
        for b in &values {
            assert_eq!(
                a.mul(b),
                mul_eager6(a, b),
                "Fp6 mul drifted on {a:?} * {b:?}"
            );
        }
        // CH-SQR3 squaring against the lazy product and the reference.
        assert_eq!(a.square(), a.mul(a), "Fp6 square drifted on {a:?}");
        assert_eq!(
            a.square(),
            mul_eager6(a, a),
            "Fp6 square drifted from the reference on {a:?}"
        );
        // The sparse 0bc path against a full multiplication by the same
        // (0, b, c) element, through the *eager* reference.
        for pair in sparse.chunks(2) {
            let (b, c) = (&pair[0], pair.get(1).unwrap_or(&pair[0]));
            let full = Fp6::new(Fp2::zero(), *b, *c);
            assert_eq!(
                a.mul_by_0bc(b, c),
                mul_eager6(a, &full),
                "sparse mul_by_0bc drifted on {a:?} with b={b:?}, c={c:?}"
            );
        }
    }
}

#[test]
fn fp12_lazy_mul_square_and_line_mul_match_the_eager_reference() {
    let values = edge_fp12s();
    let lines = edge_fp2s();
    for a in &values {
        for b in &values {
            assert_eq!(
                a.mul(b),
                mul_eager12(a, b),
                "Fp12 mul drifted on {a:?} * {b:?}"
            );
        }
        assert_eq!(
            a.square(),
            square_eager12(a),
            "Fp12 square drifted on {a:?}"
        );
        // The Miller-loop line path against the dense eager product of
        // the same sparse element a' + (b'·v + c'·v²)·w.
        for triple in lines.chunks(3) {
            let la = &triple[0];
            let lb = triple.get(1).unwrap_or(la);
            let lc = triple.get(2).unwrap_or(la);
            let full = Fp12::new(
                Fp6::new(*la, Fp2::zero(), Fp2::zero()),
                Fp6::new(Fp2::zero(), *lb, *lc),
            );
            assert_eq!(
                a.mul_by_line(la, lb, lc),
                mul_eager12(a, &full),
                "mul_by_line drifted on {a:?} with line ({la:?}, {lb:?}, {lc:?})"
            );
        }
    }
}

#[test]
fn seeded_lazy_chains_agree_with_eager_composition() {
    // Longer mixed chains: products feeding additions feeding products,
    // computed lazily (operator path) and eagerly, must stay identical
    // — the composition is where a headroom bug would first surface.
    let mut rng = StdRng::seed_from_u64(0x1a2b_0003);
    for _ in 0..32 {
        let a = Fp12::random(&mut rng);
        let b = Fp12::random(&mut rng);
        let c = Fp12::random(&mut rng);
        let lazy = a.mul(&b).add(&c.square()).mul(&a.add(&b));
        let eager = mul_eager12(&mul_eager12(&a, &b).add(&square_eager12(&c)), &a.add(&b));
        assert_eq!(lazy, eager, "mixed chain drifted");
    }
}
