//! Cross-crate integration: the full pipeline from the KGC key
//! hierarchy through real-crypto network simulation.

// Tests may panic freely; that is how they fail.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mccls::aodv::{Behavior, Network, ScenarioConfig};
use mccls::cls::{CertificatelessScheme, McCls, ShardedVerifier, Signature};
use mccls::sim::SimDuration;
use mccls_rng::SeedableRng;

#[test]
fn full_key_hierarchy_and_signature_lifecycle() {
    let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(1);
    let scheme = McCls::new();
    let (params, kgc) = scheme.setup(&mut rng);

    // Enroll a fleet of nodes, each with its own identity.
    let ids: Vec<Vec<u8>> = (0..5u8).map(|i| format!("node-{i}").into_bytes()).collect();
    let verifier = ShardedVerifier::new(params.clone());
    for id in &ids {
        let partial = scheme.extract_partial_private_key(&kgc, id);
        assert!(partial.validate(&params, id));
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let msg = [id.as_slice(), b"|payload"].concat();
        let sig = scheme.sign(&params, id, &partial, &keys, &msg, &mut rng);

        // Wire round trip, then verify both ways.
        let parsed = Signature::from_bytes(&sig.to_bytes()).expect("canonical");
        assert!(scheme
            .verify(&params, id, &keys.public, &msg, &parsed)
            .is_ok());
        assert!(verifier
            .verify_with_key(id, &keys.public, &msg, &parsed)
            .is_ok());
        // Identity binding across the fleet.
        for other in &ids {
            if other != id {
                assert!(scheme
                    .verify(&params, other, &keys.public, &msg, &sig)
                    .is_err());
            }
        }
    }
    assert_eq!(verifier.peer_count(), ids.len());
}

#[test]
fn real_crypto_simulation_smoke() {
    // A short secured run with actual BLS12-381 signatures on every
    // routing control packet: traffic must flow and no honest packet
    // may be rejected.
    let mut cfg = ScenarioConfig::paper_baseline(5.0, 77).secured();
    cfg.duration = SimDuration::from_secs(5);
    cfg.real_crypto = true;
    let metrics = Network::new(cfg).run();
    assert!(metrics.data_sent > 0);
    assert!(metrics.data_delivered > 0, "{metrics}");
    assert!(metrics.signatures_checked > 0);
    assert_eq!(metrics.auth_rejected, 0, "{metrics}");
}

#[test]
fn real_crypto_rejects_real_attackers() {
    // With real signatures, a forging black hole's RREPs must actually
    // fail BLS12-381 verification — not just be modeled as failing.
    let mut cfg = ScenarioConfig::paper_baseline(5.0, 78)
        .secured()
        .with_attackers(Behavior::ForgingBlackHole, 2);
    cfg.duration = SimDuration::from_secs(5);
    cfg.real_crypto = true;
    let metrics = Network::new(cfg).run();
    assert!(
        metrics.auth_rejected > 0,
        "forged signatures must be rejected: {metrics}"
    );
    assert_eq!(metrics.attacker_dropped, 0, "{metrics}");
}

#[test]
fn model_and_real_crypto_agree_on_outcomes() {
    // The fast modeled provider must produce the same *qualitative*
    // outcome as the ground-truth provider on the same scenario:
    // attackers neutralized, honest traffic untouched.
    let build = |real: bool| {
        let mut cfg = ScenarioConfig::paper_baseline(5.0, 79)
            .secured()
            .with_attackers(Behavior::Rushing, 2);
        cfg.duration = SimDuration::from_secs(5);
        cfg.real_crypto = real;
        Network::new(cfg).run()
    };
    let modeled = build(false);
    let real = build(true);
    assert_eq!(modeled.attacker_dropped, 0);
    assert_eq!(real.attacker_dropped, 0);
    // Identical scenario seed and identical accept/reject behaviour ⇒
    // identical packet-level outcomes.
    assert_eq!(modeled.data_sent, real.data_sent);
    assert_eq!(modeled.data_delivered, real.data_delivered);
    assert_eq!(modeled.auth_rejected, real.auth_rejected);
}
