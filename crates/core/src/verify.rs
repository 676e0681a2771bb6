//! [`VerifyError`]: the structured rejection every verification entry
//! point in this crate returns.

/// Why a signature was rejected.
///
/// Every verification entry point in this crate returns
/// `Result<(), VerifyError>`; the variants distinguish malformed input
/// (encoding, wrong scheme, degenerate points) from an honest-to-goodness
/// failed pairing equation, which is what intrusion-detection layers
/// care about when deciding whether a peer is faulty or hostile.
///
/// # Examples
///
/// ```
/// use mccls_core::{CertificatelessScheme, McCls, VerifyError};
/// use mccls_rng::SeedableRng;
///
/// let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(1);
/// let scheme = McCls::new();
/// let (params, kgc) = scheme.setup(&mut rng);
/// let partial = scheme.extract_partial_private_key(&kgc, b"alice");
/// let keys = scheme.generate_key_pair(&params, &mut rng);
/// let sig = scheme.sign(&params, b"alice", &partial, &keys, b"msg", &mut rng);
///
/// // A tampered message is a pairing mismatch, not a parse error.
/// assert_eq!(
///     scheme.verify(&params, b"alice", &keys.public, b"other", &sig),
///     Err(VerifyError::PairingMismatch)
/// );
/// // `VerifyError` implements `std::error::Error` for `?`-friendly use.
/// let err: Box<dyn std::error::Error> = Box::new(VerifyError::PairingMismatch);
/// assert!(err.to_string().contains("pairing"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The signature bytes did not parse as any scheme's wire format.
    BadSignatureEncoding,
    /// The signature is from a different scheme than the verifier runs.
    WrongScheme,
    /// A signature or derived point was the group identity, which the
    /// pairing equation cannot accept (it would make `e(·,·) = 1`
    /// trivially and admit forgeries).
    IdentityPoint,
    /// The challenge scalar `h` hashed to zero, so `S/h` is undefined.
    NonInvertibleChallenge,
    /// The public key is missing a component the scheme requires
    /// (AP's second, G1 component).
    MissingKeyComponent,
    /// The public key failed the scheme's well-formedness pairing check
    /// (AP's `e(X_A, P_pub) = e(G, Y_A)`).
    MalformedPublicKey,
    /// A public-key component is the group identity. Pairing against
    /// the identity is constant, so such a "key" (the cheapest
    /// key-replacement attempt) would trivialize the equation.
    IdentityPublicKey,
    /// The verifier has no registered public key for this identity.
    UnknownPeer,
    /// The pairing equation did not balance: the signature is not valid
    /// for this `(identity, public key, message)`.
    PairingMismatch,
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            VerifyError::BadSignatureEncoding => "signature bytes do not parse",
            VerifyError::WrongScheme => "signature belongs to a different scheme",
            VerifyError::IdentityPoint => "degenerate identity point in the equation",
            VerifyError::NonInvertibleChallenge => "challenge scalar hashed to zero",
            VerifyError::MissingKeyComponent => "public key lacks a required component",
            VerifyError::MalformedPublicKey => "public key failed its well-formedness check",
            VerifyError::IdentityPublicKey => "public key contains the group identity",
            VerifyError::UnknownPeer => "no public key registered for this identity",
            VerifyError::PairingMismatch => "pairing equation did not balance",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_human_readable() {
        let rendered = format!("{}", VerifyError::PairingMismatch);
        assert!(rendered.contains("pairing"));
        let err: &dyn std::error::Error = &VerifyError::UnknownPeer;
        assert!(!err.to_string().is_empty());
    }
}
