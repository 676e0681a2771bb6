//! Criterion benches backing **Table 1**: wall-clock sign and verify
//! times for each CLS scheme, plus McCLS verification with the
//! per-identity pairing cache warm (the paper's "1p" operating point).

use mccls_bench::harness::Criterion;
use mccls_bench::{criterion_group, criterion_main};
use mccls_core::{all_schemes, CertificatelessScheme, McCls, ShardedVerifier};
use mccls_rng::SeedableRng;

fn bench_sign_verify(c: &mut Criterion) {
    let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(1);
    for scheme in all_schemes() {
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = scheme.extract_partial_private_key(&kgc, b"node-1");
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let msg = b"bench message: routing control packet";
        let sig = scheme.sign(&params, b"node-1", &partial, &keys, msg, &mut rng);
        assert!(scheme
            .verify(&params, b"node-1", &keys.public, msg, &sig)
            .is_ok());

        let mut group = c.benchmark_group(format!("table1/{}", scheme.name()));
        group.sample_size(10);
        group.bench_function("sign", |b| {
            b.iter(|| scheme.sign(&params, b"node-1", &partial, &keys, msg, &mut rng))
        });
        group.bench_function("verify", |b| {
            b.iter(|| {
                assert!(scheme
                    .verify(&params, b"node-1", &keys.public, msg, &sig)
                    .is_ok());
            })
        });
        group.finish();
    }
}

fn bench_mccls_cached_verify(c: &mut Criterion) {
    let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(2);
    let scheme = McCls::new();
    let (params, kgc) = scheme.setup(&mut rng);
    let partial = scheme.extract_partial_private_key(&kgc, b"node-1");
    let keys = scheme.generate_key_pair(&params, &mut rng);
    let msg = b"bench message: routing control packet";
    let sig = scheme.sign(&params, b"node-1", &partial, &keys, msg, &mut rng);

    let registry = ShardedVerifier::new(params);
    assert!(registry
        .verify_with_key(b"node-1", &keys.public, msg, &sig)
        .is_ok());
    let mut group = c.benchmark_group("table1/McCLS");
    group.sample_size(10);
    group.bench_function("verify_cached", |b| {
        b.iter(|| {
            assert!(registry
                .verify_with_key(b"node-1", &keys.public, msg, &sig)
                .is_ok());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sign_verify, bench_mccls_cached_verify);
criterion_main!(benches);
