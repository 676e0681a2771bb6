//! Certificateless signatures for mobile wireless cyber-physical systems.
//!
//! This crate is the reproduction of the paper's primary contribution:
//! the **McCLS** scheme ([`McCls`]) — a certificateless signature with no
//! pairing in the signing phase and one (cacheable-constant) pairing in
//! verification — together with the three prior CLS schemes its Table 1
//! compares against:
//!
//! * [`Ap`] — Al-Riyami–Paterson (AsiaCrypt 2003), sign `1p+3s`,
//!   verify `4p+1e`, two-point public keys;
//! * [`Zwxf`] — Zhang–Wong–Xu–Feng (ACNS 2006), sign `4s`,
//!   verify `4p+3s`;
//! * [`Yhg`] — Yap–Heng–Goi (EUC 2006), sign `2s`, verify `2p+3s`;
//! * [`McCls`] — this paper, sign `2s`, verify `1p+1s`.
//!
//! All four share the certificateless key hierarchy of [`params`]
//! (KGC master secret → identity-bound partial private keys → user
//! secret values), implement the object-safe
//! [`CertificatelessScheme`] trait, and route their group operations
//! through the instrumented wrappers in [`ops`] so the Table 1 harness
//! measures real operation counts.
//!
//! The [`security`] module contains the Type I / Type II adversary games
//! — including a constructive Type II forgery against McCLS that refutes
//! the paper's (unproved) Theorem 2.
//!
//! # Examples
//!
//! ```
//! use mccls_core::{CertificatelessScheme, McCls};
//! use mccls_rng::SeedableRng;
//!
//! let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(7);
//! let scheme = McCls::new();
//!
//! // KGC side.
//! let (params, kgc) = scheme.setup(&mut rng);
//! let partial = scheme.extract_partial_private_key(&kgc, b"node-1");
//!
//! // User side: self-generated secret value — no key escrow.
//! let keys = scheme.generate_key_pair(&params, &mut rng);
//!
//! let sig = scheme.sign(&params, b"node-1", &partial, &keys, b"RREQ|...", &mut rng);
//! assert!(scheme.verify(&params, b"node-1", &keys.public, b"RREQ|...", &sig).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ap;
pub mod batch;
pub mod ibs;
mod mccls;
pub mod ops;
pub mod params;
pub mod registry;
mod scheme;
pub mod security;
pub mod threshold;
mod verify;
mod yhg;
mod zwxf;

pub use ap::Ap;
pub use batch::{
    batch_verify, BatchAccumulator, BatchItem, BatchOutcome, BatchStats, FlushPolicy,
    OfflineSigner, Verdict,
};
pub use mccls::McCls;
pub use params::{
    h2_scalar, Kgc, MasterSecret, PartialPrivateKey, SystemParams, UserKeyPair, UserPublicKey,
};
pub use registry::{ShardedVerifier, SnapshotError, Verifier};
pub use scheme::{CertificatelessScheme, ClaimedOps, Signature};
pub use threshold::{
    combine_shares, threshold_setup, KgcShareServer, PartialKeyShare, ThresholdSetup,
};
pub use verify::VerifyError;
pub use yhg::Yhg;
pub use zwxf::Zwxf;

/// All four schemes behind the trait, in the paper's Table 1 order —
/// convenient for harness iteration.
pub fn all_schemes() -> Vec<Box<dyn CertificatelessScheme>> {
    vec![
        Box::new(Ap::new()),
        Box::new(Zwxf::new()),
        Box::new(Yhg::new()),
        Box::new(McCls::new()),
    ]
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use mccls_rng::SeedableRng;

    #[test]
    fn all_schemes_round_trip_and_cross_reject() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(100);
        for scheme in all_schemes() {
            let (params, kgc) = scheme.setup(&mut rng);
            let partial = scheme.extract_partial_private_key(&kgc, b"n1");
            let keys = scheme.generate_key_pair(&params, &mut rng);
            let sig = scheme.sign(&params, b"n1", &partial, &keys, b"msg", &mut rng);
            assert!(
                scheme
                    .verify(&params, b"n1", &keys.public, b"msg", &sig)
                    .is_ok(),
                "{} round trip",
                scheme.name()
            );
            assert!(
                scheme
                    .verify(&params, b"n1", &keys.public, b"other", &sig)
                    .is_err(),
                "{} must reject a different message",
                scheme.name()
            );
        }
    }

    #[test]
    fn scheme_names_match_table_1() {
        let names: Vec<&str> = all_schemes().iter().map(|s| s.name()).collect();
        assert_eq!(names, ["AP", "ZWXF", "YHG", "McCLS"]);
    }

    #[test]
    fn claimed_public_key_points_match_table_1() {
        let points: Vec<usize> = all_schemes()
            .iter()
            .map(|s| s.claimed_public_key_points())
            .collect();
        assert_eq!(points, [2, 1, 1, 1]);
    }

    #[test]
    fn generated_public_keys_have_claimed_point_count() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(101);
        for scheme in all_schemes() {
            let (params, _kgc) = scheme.setup(&mut rng);
            let keys = scheme.generate_key_pair(&params, &mut rng);
            assert_eq!(
                keys.public.num_points(),
                scheme.claimed_public_key_points(),
                "{}",
                scheme.name()
            );
        }
    }
}
