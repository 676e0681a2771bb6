//! Unit costs of the layers below the workloads, for the traced run.
//!
//! A [`Probe`] holds a small signer set built from the workload's own
//! system parameters and keys, and 64 signatures they made. Each
//! [`Probe::round`] takes one signature and times every pairing-layer
//! primitive once on its points and scalar (the field products run on
//! the `Fp12` values its pairing produced). Workloads call `round`
//! between their own traced steps, so the unit costs are sampled on the
//! same host state as the workload; the reported cost is the median
//! over rounds.
//!
//! The probe also takes the exact `core.ops.*` counts with
//! `ops::measure` around one call of each op, and times a 64-entry batch
//! cold (`batch_verify`) and warm (`ShardedVerifier::verify_batch`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use mccls_core::{
    batch_verify, h2_scalar, ops, BatchAccumulator, BatchItem, CertificatelessScheme, FlushPolicy,
    Kgc, McCls, PartialPrivateKey, ShardedVerifier, Signature, SystemParams, UserKeyPair, Verifier,
};
use mccls_pairing::{
    g2_generator_table, hash_to_g1, multi_miller_loop, pairing, Fp, Fp12, Fp2, G2Prepared,
};
use mccls_rng::rngs::StdRng;

use crate::gen;
use crate::report::{Values, COUNTERS};

/// Signatures the probe cycles through (one flush window).
pub const ITEMS: usize = 64;

/// Signers behind those signatures.
const SIGNERS: usize = 16;

/// Chain lengths for the field products, so each sample is well above
/// timer resolution.
const FP_CHAIN: usize = 4096;
const FP2_CHAIN: usize = 1024;
const FP12_CHAIN: usize = 128;

/// One signer of the probe set.
pub struct Signer {
    id: Vec<u8>,
    partial: PartialPrivateKey,
    keys: UserKeyPair,
}

impl Signer {
    /// A signer with KGC-issued partial key for `id` and key pair `keys`.
    pub fn new(kgc: &Kgc, id: Vec<u8>, keys: UserKeyPair) -> Self {
        let partial = kgc.extract_partial_private_key(&id);
        Self { id, partial, keys }
    }
}

struct Item {
    signer: usize,
    msg: Vec<u8>,
    sig: Signature,
}

/// Per-round unit-cost samples plus the one-off measurements.
pub struct Probe {
    params: SystemParams,
    signers: Vec<Signer>,
    items: Vec<Item>,
    verifier: Verifier,
    registry: ShardedVerifier,
    rng: StdRng,
    cursor: usize,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Probe checks that disagreed (a prepared and an unprepared pairing
    /// of the same points, or a probe signature that did not verify).
    pub mismatches: u64,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

impl Probe {
    /// Builds the probe from the workload's parameters and up to
    /// [`SIGNERS`] of its signers; the signers sign [`ITEMS`] probe
    /// messages drawn from `seed`.
    pub fn new(params: &SystemParams, mut signers: Vec<Signer>, seed: u64) -> Self {
        signers.truncate(SIGNERS);
        let scheme = McCls::new();
        let mut rng = gen::rng(seed, 0x7072_6f62);
        let items: Vec<Item> = (0..ITEMS)
            .map(|k| {
                let signer = k % signers.len();
                let s = &signers[signer];
                let msg = format!("probe|{k}|{}", gen::mix64(seed ^ k as u64)).into_bytes();
                let sig = scheme.sign(params, &s.id, &s.partial, &s.keys, &msg, &mut rng);
                Item { signer, msg, sig }
            })
            .collect();
        let mut verifier = Verifier::new(params.clone());
        let registry = ShardedVerifier::new(params.clone());
        let mut mismatches = 0;
        for s in &signers {
            if verifier.register_peer(&s.id, s.keys.public).is_err()
                || registry.register_peer(&s.id, s.keys.public).is_err()
            {
                mismatches += 1;
            }
        }
        Self {
            params: params.clone(),
            signers,
            items,
            verifier,
            registry,
            rng,
            cursor: 0,
            samples: BTreeMap::new(),
            mismatches,
        }
    }

    /// A probe with its own parameters and signers, for workloads that
    /// hold no McCLS keys of their own (the sims).
    pub fn from_seed(seed: u64) -> Self {
        let scheme = McCls::new();
        let mut rng = gen::rng(seed, 0x6b67_6300);
        let (params, kgc) = scheme.setup(&mut rng);
        let signers = (0..SIGNERS)
            .map(|i| {
                let keys = scheme.generate_key_pair(&params, &mut rng);
                Signer::new(&kgc, format!("probe-node-{i}").into_bytes(), keys)
            })
            .collect();
        Self::new(&params, signers, seed)
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Rounds taken so far.
    pub fn rounds(&self) -> usize {
        self.samples.get("pairing.g1_mul_us").map_or(0, Vec::len)
    }

    /// Times every primitive once on the next probe signature.
    pub fn round(&mut self) {
        let idx = self.cursor % self.items.len();
        self.cursor += 1;
        let (si, msg, sig) = {
            let it = &self.items[idx];
            (it.signer, it.msg.clone(), it.sig.clone())
        };
        let Signature::McCls { v, s, r } = sig.clone() else {
            self.mismatches += 1;
            return;
        };
        let (id, public) = (self.signers[si].id.clone(), self.signers[si].keys.public);
        let (s_aff, r_aff) = (s.to_affine(), r.to_affine());

        let t = Instant::now();
        let gt = black_box(pairing(&s_aff, &r_aff));
        self.push("pairing.pairing_unprepared_us", us(t));
        let t = Instant::now();
        let prepared = black_box(G2Prepared::from_projective(&r));
        self.push("pairing.g2_prepare_us", us(t));
        let t = Instant::now();
        let ml = black_box(multi_miller_loop(&[(&s_aff, &prepared)]));
        self.push("pairing.miller_loop_prepared_us", us(t));
        let t = Instant::now();
        let gt_prepared = black_box(ml.final_exponentiation());
        self.push("pairing.final_exp_us", us(t));
        if gt != gt_prepared {
            self.mismatches += 1;
        }

        let t = Instant::now();
        black_box(s.mul_scalar(&v));
        self.push("pairing.g1_mul_us", us(t));
        let t = Instant::now();
        black_box(r.mul_scalar(&v));
        self.push("pairing.g2_mul_us", us(t));
        let t = Instant::now();
        black_box(g2_generator_table().mul(&v));
        self.push("pairing.g2_mul_fixed_us", us(t));
        let t = Instant::now();
        black_box(s.mul_scalar_ct(&v));
        self.push("pairing.g1_mul_ct_us", us(t));
        let t = Instant::now();
        black_box(r.mul_scalar_ct(&v));
        self.push("pairing.g2_mul_ct_us", us(t));
        let t = Instant::now();
        black_box(hash_to_g1(&id, mccls_core::params::DST_H1));
        self.push("pairing.hash_to_g1_us", us(t));
        let t = Instant::now();
        black_box(h2_scalar(&[
            b"mccls",
            &msg,
            &r_aff.to_compressed(),
            &public.to_bytes(),
        ]));
        self.push("core.params.h2_scalar_us", us(t));

        let a: Fp12 = *gt.as_fp12();
        let b: Fp12 = *gt_prepared.inverse().as_fp12();
        self.push("pairing.fp12.mul_ns", chain_ns(a, b, FP12_CHAIN, Fp12::mul));
        let (a2, b2): (Fp2, Fp2) = (a.c0.c0, b.c1.c2);
        self.push("pairing.fp2.mul_ns", chain_ns(a2, b2, FP2_CHAIN, Fp2::mul));
        let (a1, b1): (Fp, Fp) = (a2.c0, b2.c1);
        self.push("pairing.fp.mul_ns", chain_ns(a1, b1, FP_CHAIN, Fp::mul));

        let scheme = McCls::new();
        let t = Instant::now();
        let fresh = {
            let signer = &self.signers[si];
            black_box(scheme.sign(
                &self.params,
                &signer.id,
                &signer.partial,
                &signer.keys,
                &msg,
                &mut self.rng,
            ))
        };
        self.push("core.mccls.sign_unit_us", us(t));
        let t = Instant::now();
        let ok = black_box(self.verifier.verify(&id, &msg, &sig)).is_ok();
        self.push("core.verifier.warm_verify_us", us(t));
        if !ok || self.verifier.verify(&id, &msg, &fresh).is_err() {
            self.mismatches += 1;
        }
    }

    fn item_batch(&self) -> Vec<BatchItem<'_>> {
        self.items
            .iter()
            .map(|it| BatchItem {
                id: &self.signers[it.signer].id,
                public: &self.signers[it.signer].keys.public,
                msg: &it.msg,
                sig: &it.sig,
            })
            .collect()
    }

    /// Times the 64 probe signatures as one cold batch and one warm
    /// batch; call a few times between workload steps.
    pub fn batch_round(&mut self) {
        let mut rng = gen::rng(self.cursor as u64, 0x6261_7463);
        let items = self.item_batch();
        let t = Instant::now();
        let cold = batch_verify(&self.params, &items, &mut rng);
        let cold_us = us(t) / items.len() as f64;
        let t = Instant::now();
        let warm = self.registry.verify_batch(&items, &mut rng);
        let warm_us = us(t) / items.len() as f64;
        let bad = !cold.all_valid() || !warm.all_valid();
        drop(items);
        self.push("core.batch.cold_per_sig_us", cold_us);
        self.push("core.batch.warm_per_sig_us", warm_us);
        if bad {
            self.mismatches += 1;
        }
    }

    /// Exact per-call op counts for sign, register, warm verify and one
    /// full accumulator window (divided by its size).
    pub fn op_counts(&mut self) -> Values {
        let scheme = McCls::new();
        let item = &self.items[0];
        let signer = &self.signers[item.signer];
        let mut rng = gen::rng(0, 0x6f70_7300);
        let (_, sign) = ops::measure(|| {
            scheme.sign(
                &self.params,
                &signer.id,
                &signer.partial,
                &signer.keys,
                &item.msg,
                &mut rng,
            )
        });
        let (registered, register) =
            ops::measure(|| self.registry.register_peer(&signer.id, signer.keys.public));
        let (verified, verify) =
            ops::measure(|| self.registry.verify(&signer.id, &item.msg, &item.sig));
        let items = self.item_batch();
        let (outcome, window) = ops::measure(|| {
            let mut acc = BatchAccumulator::new(self.params.clone(), FlushPolicy::default());
            let mut last = None;
            for it in &items {
                last = acc.absorb(it, &mut rng).or(last);
            }
            last.unwrap_or_else(|| acc.flush())
        });
        let bad = registered.is_err() || verified.is_err() || !outcome.all_valid();
        let n = items.len() as f64;
        drop(items);
        self.mismatches += u64::from(bad);
        let mut out = Values::new();
        for (op, counts, per) in [
            ("sign", sign, 1.0),
            ("register", register, 1.0),
            ("verify", verify, 1.0),
            ("batch_per_sig", window, n),
        ] {
            for (counter, value) in COUNTERS.iter().zip(counter_values(&counts)) {
                out.insert(format!("core.ops.{op}.{counter}"), value as f64 / per);
            }
        }
        out
    }

    /// Median of every sampled unit cost, by name.
    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.samples
            .iter()
            .map(|(k, v)| (*k, crate::stats::median(v)))
            .collect()
    }
}

/// The counters of `counts` in [`COUNTERS`] order.
pub fn counter_values(counts: &ops::OpCounts) -> [u64; 6] {
    [
        counts.miller_loops,
        counts.final_exps,
        counts.g1_muls,
        counts.g2_muls,
        counts.gt_exps,
        counts.hashes_to_g1,
    ]
}

/// Nanoseconds per product in a dependent chain `x = mul(x, y)`.
fn chain_ns<T: Copy>(x: T, y: T, n: usize, mul: fn(&T, &T) -> T) -> f64 {
    let mut acc = black_box(x);
    let y = black_box(y);
    let t = Instant::now();
    for _ in 0..n {
        acc = mul(&acc, &y);
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / n as f64
}

/// The probe's part of the per-layer metrics: medians of the unit costs,
/// the exact op counts, and the share of a warm verify the counted ops
/// do not explain. `counts` may carry in-thread counts that replace the
/// probe's own.
pub fn layer_values(probe: &mut Probe, counts: Values) -> Values {
    let mut out = probe.op_counts();
    out.extend(counts);
    let med = probe.medians();
    for (name, value) in &med {
        if name.starts_with("pairing.")
            || name.starts_with("core.params.")
            || name.starts_with("core.batch.")
        {
            out.insert((*name).to_owned(), *value);
        }
    }
    let unit = |k: &str| med.get(k).copied().unwrap_or(0.0);
    let count = |c: &str| {
        out.get(&format!("core.ops.verify.{c}"))
            .copied()
            .unwrap_or(0.0)
    };
    // An unprepared Miller loop is the unprepared pairing minus its
    // final exponentiation; Gt exponentiations are not timed and count 0.
    let predicted = count("miller_loops")
        * (unit("pairing.pairing_unprepared_us") - unit("pairing.final_exp_us"))
        + count("final_exps") * unit("pairing.final_exp_us")
        + count("g1_muls") * unit("pairing.g1_mul_us")
        + count("g2_muls") * unit("pairing.g2_mul_us")
        + count("hashes_to_g1") * unit("pairing.hash_to_g1_us");
    let measured = unit("core.verifier.warm_verify_us");
    out.insert(
        "core.verify.unattributed_frac".to_owned(),
        1.0 - crate::stats::ratio(predicted, measured),
    );
    out
}

/// The probe's unit costs of one McCLS sign and one warm `Verifier`
/// verify, in microseconds.
pub fn sign_verify_units(probe: &Probe) -> (f64, f64) {
    let med = probe.medians();
    (
        med.get("core.mccls.sign_unit_us").copied().unwrap_or(0.0),
        med.get("core.verifier.warm_verify_us")
            .copied()
            .unwrap_or(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_counts_repeat_exactly_and_match_table_1() {
        let mut a = Probe::from_seed(5);
        let mut b = Probe::from_seed(5);
        let ca = a.op_counts();
        assert_eq!(ca, b.op_counts());
        // McCLS: the warm verify is one pairing (one Miller loop, one
        // final exponentiation) and the sign path no pairing at all.
        assert_eq!(ca["core.ops.verify.miller_loops"], 1.0);
        assert_eq!(ca["core.ops.verify.final_exps"], 1.0);
        assert_eq!(ca["core.ops.sign.miller_loops"], 0.0);
        // One window: n + 1 Miller loops, one final exponentiation.
        assert_eq!(ca["core.ops.batch_per_sig.miller_loops"], 65.0 / 64.0);
        assert_eq!(ca["core.ops.batch_per_sig.final_exps"], 1.0 / 64.0);
        a.round();
        a.batch_round();
        assert_eq!(a.mismatches, 0);
        let values = layer_values(&mut a, Values::new());
        for name in [
            "pairing.fp.mul_ns",
            "pairing.final_exp_us",
            "core.batch.warm_per_sig_us",
        ] {
            assert!(values[name] > 0.0, "{name}");
        }
        assert!(values["core.verify.unattributed_frac"].is_finite());
    }
}
