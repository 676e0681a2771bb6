//! Poisoned-batch verification harness: what fault isolation costs.
//!
//! One family per bad rate over a 100-entry batch:
//!
//! * **clean** — 0% bad: the pure RLC fast path (`n + 1` Miller loops,
//!   one shared final exponentiation);
//! * **bad1pct** — 1 poisoned signature: one bisection descent on top
//!   of the base pass;
//! * **bad10pct** — 10 poisoned signatures: the `O(b·log n)` regime.
//!
//! Before timing, the run re-asserts the certified op-count shape and
//! that every poisoned index is isolated exactly. The measured medians
//! are gated two ways: a >10x regression budget against the committed
//! `BENCH_batch.json`, and the paper-level claim that the 1%-bad
//! throughput stays within 2x of the clean rate (isolation must not
//! poison the batch win).
//!
//! Usage: `cargo run -p mccls-bench --release --bin batch
//! [-- --smoke] [--update-baseline] [--baseline <path>]`.

// A panic in a benchmark binary is a loud, correct failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;
use std::time::Instant;

use mccls_bench::baseline::{Entry, Opts};
use mccls_core::{
    batch_verify, ops, BatchItem, CertificatelessScheme, McCls, Signature, SystemParams,
    UserKeyPair,
};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;

/// The isolation overhead budget: 1%-bad throughput must stay within
/// this factor of the clean rate.
const BAD1PCT_FACTOR: f64 = 2.0;

/// Batch size; the bad rates below are percentages of this.
const BATCH_N: usize = 100;

/// Bad-entry counts per family: 0%, 1%, 10% of [`BATCH_N`].
const BAD_RATES: [(usize, &str); 3] = [(0, "clean"), (1, "bad1pct"), (10, "bad10pct")];

struct World {
    params: SystemParams,
    ids: Vec<Vec<u8>>,
    keys: Vec<UserKeyPair>,
    msgs: Vec<Vec<u8>>,
    sigs: Vec<Signature>,
}

fn build_world() -> World {
    let mut rng = StdRng::seed_from_u64(0x000B_A7C4);
    let scheme = McCls::new();
    let (params, kgc) = scheme.setup(&mut rng);
    let mut world = World {
        params,
        ids: Vec::with_capacity(BATCH_N),
        keys: Vec::with_capacity(BATCH_N),
        msgs: Vec::with_capacity(BATCH_N),
        sigs: Vec::with_capacity(BATCH_N),
    };
    for i in 0..BATCH_N {
        let id = format!("batch-node-{i}").into_bytes();
        let partial = kgc.extract_partial_private_key(&id);
        let keys = scheme.generate_key_pair(&world.params, &mut rng);
        let msg = format!("sensor frame {i}").into_bytes();
        let sig = scheme.sign(&world.params, &id, &partial, &keys, &msg, &mut rng);
        world.ids.push(id);
        world.keys.push(keys);
        world.msgs.push(msg);
        world.sigs.push(sig);
    }
    world
}

impl World {
    /// Messages with the first `bad` entries tampered (spread across
    /// the batch so bisection cannot exploit adjacency).
    fn poisoned_msgs(&self, bad: usize) -> Vec<Vec<u8>> {
        let mut msgs = self.msgs.clone();
        let stride = BATCH_N / bad.max(1);
        for k in 0..bad {
            let i = k * stride;
            msgs[i] = format!("forged frame {i}").into_bytes();
        }
        msgs
    }

    fn items<'a>(&'a self, msgs: &'a [Vec<u8>]) -> Vec<BatchItem<'a>> {
        (0..BATCH_N)
            .map(|i| BatchItem {
                id: &self.ids[i],
                public: &self.keys[i].public,
                msg: &msgs[i],
                sig: &self.sigs[i],
            })
            .collect()
    }
}

/// Certified-shape assertions before any timing: the clean base pass
/// costs `n + 1` Miller loops with one shared final exponentiation, and
/// every poisoned index is isolated exactly.
fn assert_op_counts(world: &World) {
    let mut rng = StdRng::seed_from_u64(1);
    let clean = world.msgs.clone();
    let items = world.items(&clean);
    let (outcome, counts) = ops::measure(|| batch_verify(&world.params, &items, &mut rng));
    assert!(outcome.all_valid(), "clean batch must accept");
    assert_eq!(counts.miller_loops as usize, BATCH_N + 1);
    assert_eq!(counts.final_exps, 1);
    println!(
        "op-counts: clean batch of {BATCH_N} = {} Miller loop(s) + {} final exp(s)  [OK]",
        counts.miller_loops, counts.final_exps
    );

    for (bad, name) in BAD_RATES {
        if bad == 0 {
            continue;
        }
        let msgs = world.poisoned_msgs(bad);
        let items = world.items(&msgs);
        let (outcome, counts) = ops::measure(|| batch_verify(&world.params, &items, &mut rng));
        assert_eq!(
            outcome.invalid_indices().len(),
            bad,
            "{name}: every poisoned index is pinned"
        );
        assert!(
            outcome.unchecked_indices().is_empty(),
            "{name}: unlimited budget"
        );
        let extra = counts.miller_loops - (BATCH_N as u64 + 1);
        println!(
            "op-counts: {name} ({bad} bad) isolated in {extra} extra Miller loop(s), \
             {} sub-check(s), depth {}  [OK]",
            outcome.stats().isolation_checks,
            outcome.stats().bisection_depth
        );
    }
}

/// Median wall-clock nanoseconds of `samples` runs of `f`.
fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut runs: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    runs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    runs[runs.len() / 2]
}

fn main() -> ExitCode {
    let opts = Opts::from_args("BENCH_batch.json", "mccls-bench/batch/v1");
    let mode = opts.mode();
    println!("batch isolation harness ({mode} mode)\n");

    let world = build_world();
    assert_op_counts(&world);
    println!();

    let samples = if opts.smoke { 3 } else { 7 };
    let mut rng = StdRng::seed_from_u64(2);
    let mut current: Vec<Entry> = Vec::new();
    for (bad, name) in BAD_RATES {
        let msgs = world.poisoned_msgs(bad);
        let items = world.items(&msgs);
        let ns = median_ns(samples, || {
            let outcome = batch_verify(&world.params, &items, &mut rng);
            assert_eq!(outcome.invalid_indices().len(), bad);
        });
        println!(
            "batch/{name}_n{BATCH_N}: {ns:>12.0} ns/batch  ({:>9.0} sigs/sec)",
            BATCH_N as f64 * 1e9 / ns
        );
        current.push(Entry {
            id: format!("batch/{name}_n{BATCH_N}"),
            median_ns: ns,
        });
    }

    // The isolation-overhead claim: one bad entry in a hundred must not
    // poison the batch win.
    let clean_ns = current[0].median_ns;
    let bad1_ns = current[1].median_ns;
    if bad1_ns > clean_ns * BAD1PCT_FACTOR {
        eprintln!(
            "\n1%-bad batch is {:.2}x the clean batch (budget {BAD1PCT_FACTOR}x)",
            bad1_ns / clean_ns
        );
        return ExitCode::FAILURE;
    }
    println!(
        "\n1%-bad overhead: {:.2}x of clean (budget {BAD1PCT_FACTOR}x)  [OK]",
        bad1_ns / clean_ns
    );

    opts.write_or_gate(&current)
}
