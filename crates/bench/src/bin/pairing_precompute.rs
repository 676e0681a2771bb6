//! The prepared-pairing harness: measures what the precomputation layer
//! buys on the verify hot path and guards the paper's "one pairing"
//! claim with op-counter assertions.
//!
//! Benchmark families, each with a before/after pair:
//!
//! * **pairing** — a full `pairing()` call (Miller-loop lines recomputed
//!   every time) vs. a prepared evaluation over cached [`G2Prepared`]
//!   line coefficients.
//! * **fixed-base** — generic double-and-add generator multiplication
//!   vs. the precomputed signed radix-16 tables in G1 and G2.
//! * **verify** — stateless `McCls::verify` (re-derives `e(Q_ID,
//!   P_pub)` per call) vs. the cached [`ShardedVerifier`] hot path, and `n`
//!   individual verifications vs. one `batch_verify` (`n + 1` Miller
//!   loops, one shared final exponentiation).
//!
//! Usage: `cargo run -p mccls-bench --release [-- --smoke]
//! [--update-baseline] [--baseline <path>]`.
//!
//! `--smoke` shrinks sample counts for CI; in both modes the run fails
//! (non-zero exit) on any op-count violation or on a >10x median
//! regression against the committed `BENCH_pairing.json`. Pass
//! `--update-baseline` to rewrite that file from the current run.

use std::process::ExitCode;

use mccls_bench::baseline::{Entry, Opts};
use mccls_bench::harness::Criterion;
use mccls_core::batch::{batch_verify, BatchItem};
use mccls_core::{ops, CertificatelessScheme, McCls, ShardedVerifier};
use mccls_pairing::{
    g1_generator_table, g2_generator_table, multi_miller_loop, pairing, Fp12, Fp2, Fp6, Fr,
    G1Projective, G2Prepared, G2Projective,
};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;

/// Batch size for the batch-verify comparison.
const BATCH_N: usize = 8;

/// One signer's worth of McCLS material for the verify benchmarks.
struct World {
    params: mccls_core::SystemParams,
    verifier: ShardedVerifier,
    items: Vec<(
        Vec<u8>,
        mccls_core::UserPublicKey,
        Vec<u8>,
        mccls_core::Signature,
    )>,
    rng: StdRng,
}

fn build_world() -> World {
    let mut rng = StdRng::seed_from_u64(0xBE_BC);
    let scheme = McCls::new();
    let (params, kgc) = scheme.setup(&mut rng);
    let verifier = ShardedVerifier::new(params.clone());
    let mut items = Vec::with_capacity(BATCH_N);
    for i in 0..BATCH_N {
        let id = format!("node-{i}").into_bytes();
        let partial = kgc.extract_partial_private_key(&id);
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let msg = format!("routing payload {i}").into_bytes();
        let sig = scheme.sign(&params, &id, &partial, &keys, &msg, &mut rng);
        let registered = verifier.register_peer(&id, keys.public);
        assert!(
            registered.is_ok(),
            "benchmark keys are honest: {registered:?}"
        );
        items.push((id, keys.public, msg, sig));
    }
    World {
        params,
        verifier,
        items,
        rng,
    }
}

/// The op-counter contract behind Table 1: violations panic, which CI
/// treats as failure.
fn assert_op_counts(world: &mut World) {
    let (id, _public, msg, sig) = &world.items[0];
    let (res, counts) = ops::measure(|| world.verifier.verify(id, msg, sig));
    assert!(res.is_ok(), "warm verify must accept: {res:?}");
    assert_eq!(counts.pairings, 1, "cached verify must cost one pairing");
    assert_eq!(
        counts.miller_loops, 1,
        "cached verify must run exactly one Miller loop"
    );
    assert_eq!(
        counts.final_exps, 1,
        "cached verify must run exactly one final exponentiation"
    );
    println!(
        "op-counts: cached single-verify = {} Miller loop(s) + {} final exp(s)  [OK]",
        counts.miller_loops, counts.final_exps
    );

    let batch: Vec<BatchItem> = world
        .items
        .iter()
        .map(|(id, public, msg, sig)| BatchItem {
            id,
            public,
            msg,
            sig,
        })
        .collect();
    let (res, counts) = ops::measure(|| batch_verify(&world.params, &batch, &mut world.rng));
    assert!(res.all_valid(), "batch verify must accept: {res:?}");
    assert!(
        counts.miller_loops <= batch.len() as u64 + 1,
        "batch of {} must cost at most n+1 Miller loops, got {}",
        batch.len(),
        counts.miller_loops
    );
    assert_eq!(
        counts.final_exps, 1,
        "batch verify must share a single final exponentiation"
    );
    println!(
        "op-counts: batch of {} = {} Miller loop(s) + {} final exp(s)  [OK]",
        batch.len(),
        counts.miller_loops,
        counts.final_exps
    );
}

fn run_benches(c: &mut Criterion, smoke: bool, world: &mut World) {
    let samples = if smoke { 3 } else { 12 };
    let mut rng = StdRng::seed_from_u64(0xF1E1D);
    let p = G1Projective::generator()
        .mul_scalar(&Fr::random_nonzero(&mut rng))
        .to_affine();
    let q_proj = G2Projective::generator().mul_scalar(&Fr::random_nonzero(&mut rng));
    let q = q_proj.to_affine();
    let q_prep = G2Prepared::from_affine(&q);

    let mut g = c.benchmark_group("pairing");
    g.sample_size(samples);
    g.bench_function("before_unprepared", |b| b.iter(|| pairing(&p, &q)));
    g.bench_function("after_prepared", |b| {
        b.iter(|| multi_miller_loop(&[(&p, &q_prep)]).final_exponentiation())
    });
    g.finish();

    // Tower-multiplication micro-rows: eager (per-product Montgomery
    // reduction) vs. the lazy-reduction chains certified by the `range`
    // lint. Both paths are kept in-tree, so the before/after pair stays
    // an honest like-for-like comparison.
    let x2 = Fp2::random(&mut rng);
    let y2 = Fp2::random(&mut rng);
    let mut g = c.benchmark_group("fp2_mul");
    g.sample_size(samples);
    g.bench_function("before_eager", |b| b.iter(|| x2.mul_eager(&y2)));
    g.bench_function("after_lazy", |b| b.iter(|| x2 * y2));
    g.finish();

    let x6 = Fp6::random(&mut rng);
    let y6 = Fp6::random(&mut rng);
    let mut g = c.benchmark_group("fp6_mul");
    g.sample_size(samples);
    g.bench_function("before_eager", |b| b.iter(|| x6.mul_eager6(&y6)));
    g.bench_function("after_lazy", |b| b.iter(|| x6 * y6));
    g.finish();

    let x12 = Fp12::random(&mut rng);
    let y12 = Fp12::random(&mut rng);
    let mut g = c.benchmark_group("fp12_mul");
    g.sample_size(samples);
    g.bench_function("before_eager", |b| b.iter(|| x12.mul_eager12(&y12)));
    g.bench_function("after_lazy", |b| b.iter(|| x12 * y12));
    g.finish();

    let k = Fr::random_nonzero(&mut rng);
    let mut g = c.benchmark_group("fixed_base_g1");
    g.sample_size(samples);
    g.bench_function("before_generic", |b| {
        b.iter(|| G1Projective::generator().mul_scalar(&k))
    });
    g.bench_function("after_table", |b| b.iter(|| g1_generator_table().mul(&k)));
    g.finish();

    let mut g = c.benchmark_group("fixed_base_g2");
    g.sample_size(samples);
    g.bench_function("before_generic", |b| {
        b.iter(|| G2Projective::generator().mul_scalar(&k))
    });
    g.bench_function("after_table", |b| b.iter(|| g2_generator_table().mul(&k)));
    g.finish();

    let scheme = McCls::new();
    let (id, public, msg, sig) = world.items[0].clone();
    let mut g = c.benchmark_group("verify");
    g.sample_size(samples);
    g.bench_function("before_stateless", |b| {
        b.iter(|| scheme.verify(&world.params, &id, &public, &msg, &sig))
    });
    g.bench_function("after_cached", |b| {
        b.iter(|| world.verifier.verify(&id, &msg, &sig))
    });
    g.finish();

    let items = world.items.clone();
    let batch: Vec<BatchItem> = items
        .iter()
        .map(|(id, public, msg, sig)| BatchItem {
            id,
            public,
            msg,
            sig,
        })
        .collect();
    let mut g = c.benchmark_group("batch8");
    g.sample_size(samples);
    g.bench_function("before_individual", |b| {
        b.iter(|| {
            batch
                .iter()
                .all(|item| world.verifier.verify(item.id, item.msg, item.sig).is_ok())
        })
    });
    g.bench_function("after_multi_miller_loop", |b| {
        b.iter(|| batch_verify(&world.params, &batch, &mut world.rng))
    });
    g.finish();
}

fn main() -> ExitCode {
    let opts = Opts::from_args("BENCH_pairing.json", "mccls-bench/pairing_precompute/v1");
    let mode = opts.mode();
    println!("pairing_precompute harness ({mode} mode)\n");

    let mut world = build_world();
    assert_op_counts(&mut world);
    println!();

    let mut c = Criterion::default();
    run_benches(&mut c, opts.smoke, &mut world);
    c.final_summary();

    let current: Vec<Entry> = c
        .results()
        .iter()
        .map(|r| Entry {
            id: r.id.clone(),
            median_ns: r.median_ns,
        })
        .collect();

    opts.write_or_gate(&current)
}
