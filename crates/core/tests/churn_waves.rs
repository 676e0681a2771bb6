//! Node-churn scenario: join/leave waves across a mobile fleet.
//!
//! A mobile wireless CPS fleet is never a fixed peer set — nodes join
//! (KGC partial-key extraction + enrollment pairing), roam, and leave
//! (revocation via [`ShardedVerifier::expel_peer`]). These tests drive
//! that lifecycle in waves over the [`ShardedVerifier`], cross-checking
//! every verdict bit-for-bit against a naive oracle — the set of
//! resident ids plus stateless [`McCls`] verification, which recomputes
//! `e(Q_ID, P_pub)` every time — and holding the `ClockMap` residency
//! bound at every step.
//!
//! The default run is scaled down so `cargo test` stays fast in debug
//! builds; set `MCCLS_CHURN_FULL=1` to run the full 5,000-peer fleet
//! (release builds recommended — every join pays a real pairing).

// Tests may panic freely; that is how they fail.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use std::collections::HashSet;

use mccls_core::{
    CertificatelessScheme, McCls, ShardedVerifier, Signature, SystemParams, UserKeyPair,
    VerifyError,
};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;

/// Fleet size with `MCCLS_CHURN_FULL=1`: the city-scale node count the
/// simulation benches sweep.
const FULL_PEERS: usize = 5_000;

/// Default fleet size: enough for several non-trivial waves while the
/// debug-build KGC extractions and signatures stay cheap.
const DEBUG_PEERS: usize = 36;

/// Number of join/leave waves the fleet cycles through.
const WAVES: usize = 6;

fn fleet_size() -> usize {
    match std::env::var_os("MCCLS_CHURN_FULL") {
        Some(v) if v != "0" => FULL_PEERS,
        _ => DEBUG_PEERS,
    }
}

/// Per-wave cross-check stride: every peer in the default run, a
/// deterministic sample at full scale (5,000 × 6 waves of double
/// verification would dominate the run without adding coverage).
fn check_stride(n: usize) -> usize {
    (n / 64).max(1)
}

struct Peer {
    id: Vec<u8>,
    keys: UserKeyPair,
    good: Signature,
    msg: Vec<u8>,
}

/// Builds the fleet: every peer goes through the full certificateless
/// join flow — KGC partial-key extraction, self-generated key pair,
/// and a signed route update — which is exactly the load a join wave
/// puts on the KGC.
fn build_fleet(n: usize) -> (SystemParams, Vec<Peer>) {
    let mut rng = StdRng::seed_from_u64(0xC4A2_2026);
    let scheme = McCls::new();
    let (params, kgc) = scheme.setup(&mut rng);
    let fleet = (0..n)
        .map(|i| {
            let id = format!("churn-peer-{i}").into_bytes();
            let keys = scheme.generate_key_pair(&params, &mut rng);
            let partial = kgc.extract_partial_private_key(&id);
            let msg = format!("route update {i}").into_bytes();
            let good = scheme.sign(&params, &id, &partial, &keys, &msg, &mut rng);
            Peer {
                id,
                keys,
                good,
                msg,
            }
        })
        .collect();
    (params, fleet)
}

/// The oracle's verdict: `UnknownPeer` for an id that is not resident,
/// otherwise whatever stateless verification — no cache at all — says.
fn oracle_verdict(
    params: &SystemParams,
    resident: &HashSet<Vec<u8>>,
    p: &Peer,
    msg: &[u8],
) -> Result<(), VerifyError> {
    if !resident.contains(&p.id) {
        return Err(VerifyError::UnknownPeer);
    }
    McCls::new().verify(params, &p.id, &p.keys.public, msg, &p.good)
}

/// The wave schedule: peers are partitioned into [`WAVES`] chunks;
/// wave `w` enrolls chunk `w` and expels chunk `w - 1`, so the resident
/// set slides across the fleet the way a convoy rolls through a
/// roadside unit's radio range.
fn chunk_bounds(n: usize, w: usize) -> std::ops::Range<usize> {
    let chunk = n.div_ceil(WAVES);
    (w * chunk).min(n)..((w + 1) * chunk).min(n)
}

#[test]
fn join_leave_waves_match_the_naive_oracle() {
    let n = fleet_size();
    let (params, fleet) = build_fleet(n);
    // The registry is sized to hold two consecutive chunks without
    // clock eviction, so every verdict below is decided by churn alone.
    let mut resident: HashSet<Vec<u8>> = HashSet::new();
    let registry = ShardedVerifier::with_shape(params.clone(), 16, n.div_ceil(16));

    for w in 0..WAVES {
        for i in chunk_bounds(n, w) {
            let p = &fleet[i];
            resident.insert(p.id.clone());
            registry.register_peer(&p.id, p.keys.public).unwrap();
        }
        if w > 0 {
            for i in chunk_bounds(n, w - 1) {
                let p = &fleet[i];
                assert!(resident.remove(&p.id), "oracle lost a resident peer");
                assert!(registry.expel_peer(&p.id), "registry lost a resident peer");
            }
        }
        assert!(
            registry.peer_count() <= registry.capacity(),
            "wave {w}: residency exceeded the configured bound"
        );

        // Lockstep cross-check: whatever the oracle says — accept for
        // the resident chunk, UnknownPeer for everyone expelled or not
        // yet joined, PairingMismatch for tampering — the sharded
        // registry must say bit-for-bit.
        for i in (0..n).step_by(check_stride(n)) {
            let p = &fleet[i];
            let want_good = oracle_verdict(&params, &resident, p, &p.msg);
            assert_eq!(
                registry.verify(&p.id, &p.msg, &p.good),
                want_good,
                "wave {w}: verdict diverged for peer {i}"
            );
            let want_bad = oracle_verdict(&params, &resident, p, b"tampered payload");
            assert_eq!(
                registry.verify(&p.id, b"tampered payload", &p.good),
                want_bad,
                "wave {w}: tamper verdict diverged for peer {i}"
            );
        }
        // The current chunk is resident and genuine; the previous one
        // is gone from both the registry and the oracle.
        let head = chunk_bounds(n, w).start;
        assert_eq!(
            registry.verify(&fleet[head].id, &fleet[head].msg, &fleet[head].good),
            Ok(())
        );
        if w > 0 {
            let expelled = chunk_bounds(n, w - 1).start;
            assert_eq!(
                registry.verify(
                    &fleet[expelled].id,
                    &fleet[expelled].msg,
                    &fleet[expelled].good
                ),
                Err(VerifyError::UnknownPeer)
            );
        }
    }

    // Re-join after revocation: an expelled peer re-pays enrollment and
    // verifies again — leaving is not forever.
    let p = &fleet[0];
    assert!(!registry.knows_peer(&p.id));
    registry.register_peer(&p.id, p.keys.public).unwrap();
    resident.insert(p.id.clone());
    assert_eq!(
        registry.verify(&p.id, &p.msg, &p.good),
        oracle_verdict(&params, &resident, p, &p.msg)
    );
    assert_eq!(registry.verify(&p.id, &p.msg, &p.good), Ok(()));
}

#[test]
fn churn_waves_never_exceed_the_clock_map_residency_bound() {
    let n = fleet_size();
    // Enrollment pressure only — one key pair shared across identities
    // keeps the focus on the ClockMap, not the signing flow.
    let mut rng = StdRng::seed_from_u64(0x0C1_0C4);
    let scheme = McCls::new();
    let (params, _) = scheme.setup(&mut rng);
    let keys = scheme.generate_key_pair(&params, &mut rng);

    // A registry far smaller than the fleet: every wave forces clock
    // eviction in some shard.
    let registry = ShardedVerifier::with_shape(params, 4, n.div_ceil(64).max(2));
    let bound = registry.capacity();
    let ids: Vec<Vec<u8>> = (0..n)
        .map(|i| format!("churn-wave-{i}").into_bytes())
        .collect();

    for w in 0..WAVES {
        for i in chunk_bounds(n, w) {
            registry.register_peer(&ids[i], keys.public).unwrap();
            assert!(
                registry.peer_count() <= bound,
                "wave {w}: clock eviction let residency pass the bound"
            );
        }
        // A leave wave expels whatever the clock hasn't already
        // evicted; either way the peer must be gone afterwards.
        if w > 0 {
            for i in chunk_bounds(n, w - 1) {
                registry.expel_peer(&ids[i]);
                assert!(!registry.knows_peer(&ids[i]));
                assert!(registry.peer_count() <= bound);
            }
        }
    }
    assert!(registry.peer_count() >= 1, "the last wave must be cached");
    assert!(registry.peer_count() <= bound);
}
