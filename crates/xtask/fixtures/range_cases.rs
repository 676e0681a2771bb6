//! Seeded violations for the magnitude-range certification lint.
//!
//! Not compiled — parsed and analyzed by `range::analyze` in the gate
//! tests. The overflowing chain, the missing and stale contracts, the
//! undersized `k·p²` offset, and the bare `range-ok:` marker must
//! fire; the clean annotated twin and the justified suppression must
//! stay silent.

// The BLS12-381 base field: 381 bits over six limbs leaves three
// headroom bits, so the caps are 8p (narrow) and 64p² (wide).
montgomery_field!(
    Fx,
    6,
    [
        0xb9fe_ffff_ffff_aaab,
        0x1eab_fffe_b153_ffff,
        0x6730_d2a0_f6b0_f624,
        0x6477_4b84_f385_12bf,
        0x4b1b_a7b6_434b_acd7,
        0x1a01_11ea_397f_e69a,
    ]
);

impl Fx {
    /// Overflowing chain: four doublings reach class `<16p`, twice the
    /// narrow cap. Declared canonical, so the lint must flag the jump.
    // range: <p
    pub fn runaway(&self, other: &Self) -> Self {
        let a = self.add_unreduced(other);
        let b = a.add_unreduced(&a);
        let c = b.add_unreduced(&b);
        let d = c.add_unreduced(&c);
        d.mul_unreduced(other).montgomery_reduce()
    }

    /// Missing contract: touches a lazy primitive with no `// range:`.
    pub fn uncertified(&self, other: &Self) -> Self {
        self.add_unreduced(other).mul_unreduced(other).montgomery_reduce()
    }

    /// Stale contract: the body computes `<2p`, not the declared `<3p`.
    // range: <p -> <3p
    pub fn drifted(&self, other: &Self) -> Self {
        self.add_unreduced(other)
    }

    /// Undersized offset: the subtrahend has class `<4pp` but the
    /// `k·p²` offset only covers `2p²`.
    // range: <2p -> <8pp
    pub fn shaved(&self, other: &Self) -> FxWide {
        let minuend = self.mul_unreduced(other);
        let subtrahend = self.mul_unreduced(other);
        minuend.wide_sub_offset(&subtrahend, 2)
    }

    /// Clean twin: the certified lazy product. Must not be flagged.
    // range: <p
    pub fn lazy_mul(&self, other: &Self) -> Self {
        let wide = self.mul_unreduced(other);
        wide.montgomery_reduce()
    }

    /// Justified suppression: a reviewed chain. Must not be flagged.
    pub fn audited(&self, other: &Self) -> Self {
        // range-ok: the chain peaks at class 2p, reviewed in DESIGN.md §11
        self.add_unreduced(other).mul_unreduced(other).montgomery_reduce()
    }

    /// Bare suppression: gives no reason, so the site is still reported.
    pub fn waved(&self, other: &Self) -> Self {
        // range-ok:
        self.add_unreduced(other).mul_unreduced(other).montgomery_reduce()
    }
}
