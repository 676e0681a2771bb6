//! `burst_batch`: nodes handling RREQ floods through a
//! `BatchAccumulator` each, one thread per node.
//!
//! Each burst is one flood as heard from distinct neighbours, 16 to 112
//! copies, straddling the default 64-entry flush window. Every copy is
//! signed just in time by its sender (`McCls::sign`) and absorbed; the
//! accumulator flushes on size inside a burst and is flushed explicitly
//! when the burst ends. One copy in a hundred is forged. A copy's
//! verification latency runs from its `absorb` to the flush that
//! settles it, so waiting for the window to fill counts.
//!
//! The timed run shares the bursts between two nodes on two threads,
//! each taking the next burst as it frees up, so both vCPUs stay loaded
//! the way the two-worker gateway loads them: on a 2-vCPU host whose
//! vCPUs trade a fast and a slow state every few seconds, a single
//! thread's medians land in one state or the other from run to run. The
//! traced run keeps one thread, alternating its untraced and traced
//! lanes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mccls_core::{
    BatchAccumulator, BatchItem, BatchOutcome, CertificatelessScheme, FlushPolicy, Kgc, McCls,
    PartialPrivateKey, SystemParams, UserKeyPair, Verdict,
};
use mccls_pairing::{Fr, G1Projective};
use mccls_rng::rngs::StdRng;

use crate::gen::{self, BurstPlan, BurstSpec, Forgery};
use crate::probe::{self, Probe};
use crate::report::Values;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{fill_unexercised, guarded, par_map, E2e, Outcome, RunCfg, Tally};

/// Neighbours a flood can arrive from.
const NEIGHBOURS: usize = 128;
/// Smallest burst.
const BURST_MIN: usize = 16;
/// Largest burst.
const BURST_MAX: usize = 112;
/// Share of forged copies.
const INVALID_FRAC: f64 = 0.01;
/// Nodes, one thread each, sharing the bursts of the timed run.
const NODES: usize = 2;
/// Bursts per `--seconds` on [`NODES`] threads (sized on a 2-vCPU
/// Xeon); the one-thread traced run takes half as many per second.
const BURSTS_PER_S: f64 = 5.0;
/// Modelled copies arriving per second, for `sim_s_per_simsec`.
const NOMINAL_RATE: f64 = 64.0;
/// Timed set-ups per run.
const SETUP_REPS: usize = 15;
/// Probe rounds the traced run takes at least.
const MIN_ROUNDS: usize = 24;

const SETUP_STREAM: u64 = 0x7365_7475;
const KEY_STREAM: u64 = 1 << 40;
const SIGN_STREAM: u64 = 3 << 40;

/// A neighbour's honest material plus what its forgeries use.
struct Neighbour {
    id: Vec<u8>,
    partial: PartialPrivateKey,
    keys: UserKeyPair,
    wrong_keys: UserKeyPair,
    outsider: PartialPrivateKey,
}

struct World {
    seed: u64,
    params: SystemParams,
    kgc: Kgc,
    neighbours: Vec<Neighbour>,
}

impl World {
    fn bootstrap(seed: u64) -> Self {
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut gen::rng(seed, SETUP_STREAM));
        let idx: Vec<usize> = (0..NEIGHBOURS).collect();
        let neighbours = par_map(&idx, |&i| {
            let mut rng = gen::rng(seed, KEY_STREAM + i as u64);
            let id = format!("neighbour-{i:03}").into_bytes();
            Neighbour {
                partial: kgc.extract_partial_private_key(&id),
                keys: scheme.generate_key_pair(&params, &mut rng),
                wrong_keys: scheme.generate_key_pair(&params, &mut rng),
                outsider: PartialPrivateKey {
                    d: G1Projective::generator().mul_scalar(&Fr::random_nonzero(&mut rng)),
                },
                id,
            }
        });
        Self {
            seed,
            params,
            kgc,
            neighbours,
        }
    }

    /// The measured side's set-up: system parameters and the
    /// accumulator. Returns it, the seconds it took, and whether the
    /// parameters matched the generator's.
    fn setup(&self) -> (BatchAccumulator, f64, bool) {
        let t = Instant::now();
        let (params, _kgc) = McCls::new().setup(&mut gen::rng(self.seed, SETUP_STREAM));
        let ok = params == self.params;
        let acc = BatchAccumulator::new(params, FlushPolicy::default());
        (acc, t.elapsed().as_secs_f64(), ok)
    }

    fn probe(&self) -> Probe {
        let signers = self
            .neighbours
            .iter()
            .map(|n| probe::Signer::new(&self.kgc, n.id.clone(), n.keys.clone()))
            .collect();
        Probe::new(&self.params, signers, self.seed)
    }
}

/// What one pass over the bursts recorded.
struct PassLog {
    tally: Tally,
    verify_ms: Vec<f64>,
    sign_ms: Vec<f64>,
    wall_s: f64,
    bursts: u64,
    miller_loops: u64,
    isolation_checks: u64,
    unchecked: u64,
    tracer: Tracer,
}

/// A copy waiting in the window: when it was absorbed and whether it
/// is honest.
struct Pending {
    absorbed: Instant,
    valid: bool,
}

impl PassLog {
    /// Settles the pending copies against `outcome`'s verdicts.
    fn settle(&mut self, pending: &mut Vec<Pending>, outcome: Option<BatchOutcome>) {
        let now = Instant::now();
        let Some(outcome) = outcome.filter(|o| o.verdicts().len() == pending.len()) else {
            for p in pending.drain(..) {
                self.tally.error(p.valid);
            }
            return;
        };
        let stats = outcome.stats();
        self.miller_loops += stats.miller_loops;
        self.isolation_checks += u64::from(stats.isolation_checks);
        for (p, verdict) in pending.drain(..).zip(outcome.verdicts()) {
            self.verify_ms.push((now - p.absorbed).as_secs_f64() * 1e3);
            match verdict {
                Verdict::Ok => self.tally.verdict(p.valid, true),
                Verdict::Invalid(_) => self.tally.verdict(p.valid, false),
                // Not proven either way: a wrong verdict for any copy.
                Verdict::Unchecked => {
                    self.unchecked += 1;
                    self.tally.error(p.valid);
                }
            }
        }
    }
}

/// The bytes a neighbour signs for its copy of flood `b`.
fn copy_payload(b: &BurstSpec, neighbour: usize) -> Vec<u8> {
    format!(
        "RREQ|origin={}|dest={}|id={}|via={neighbour}",
        b.origin, b.dest, b.id
    )
    .into_bytes()
}

/// One accumulator the bursts run through, and the log of what it did.
struct Lane {
    acc: BatchAccumulator,
    rng: StdRng,
    log: PassLog,
}

impl Lane {
    fn new(world: &World, node: u64, acc: BatchAccumulator, trace: bool, epoch: Instant) -> Self {
        Self {
            acc,
            rng: gen::rng(world.seed, 0x6261_7463 + node),
            log: PassLog {
                tally: Tally::default(),
                verify_ms: Vec::new(),
                sign_ms: Vec::new(),
                wall_s: 0.0,
                bursts: 0,
                miller_loops: 0,
                isolation_checks: 0,
                unchecked: 0,
                tracer: Tracer::new(trace, epoch),
            },
        }
    }

    /// Signs and absorbs every copy of burst `b` (timed).
    fn burst(&mut self, world: &World, b: &BurstSpec) {
        let scheme = McCls::new();
        let Self {
            acc,
            rng: batch_rng,
            log,
        } = self;
        let t = Instant::now();
        let root = log.tracer.enter("burst", b.id, None);
        let mut pending: Vec<Pending> = Vec::new();
        for (k, e) in b.entries.iter().enumerate() {
            let nb = &world.neighbours[e.neighbour];
            let msg = copy_payload(b, e.neighbour);
            let (partial, keys) = match e.forgery {
                Forgery::WrongKey => (&nb.partial, &nb.wrong_keys),
                Forgery::OutsiderPartial => (&nb.outsider, &nb.keys),
                Forgery::None | Forgery::TamperedMessage => (&nb.partial, &nb.keys),
            };
            let mut rng = gen::rng(world.seed, SIGN_STREAM + (b.id << 8) + k as u64);
            let h = log.tracer.enter("sign", b.id, root);
            let ts = Instant::now();
            let sig = scheme.sign(&world.params, &nb.id, partial, keys, &msg, &mut rng);
            log.sign_ms.push(ts.elapsed().as_secs_f64() * 1e3);
            log.tracer.exit(h);
            let mut delivered = msg;
            if e.forgery == Forgery::TamperedMessage {
                delivered.extend_from_slice(b"|hops=0");
            }
            let item = BatchItem {
                id: &nb.id,
                public: &nb.keys.public,
                msg: &delivered,
                sig: &sig,
            };
            pending.push(Pending {
                absorbed: Instant::now(),
                valid: e.forgery.is_valid(),
            });
            let h = log.tracer.enter("absorb", b.id, root);
            let full = guarded(|| acc.absorb(&item, batch_rng));
            log.tracer.exit(h);
            match full {
                Some(None) => {}
                Some(Some(outcome)) => {
                    log.tracer.rename(h, "absorb_flush");
                    log.settle(&mut pending, Some(outcome));
                }
                None => {
                    *acc = BatchAccumulator::new(world.params.clone(), FlushPolicy::default());
                    log.settle(&mut pending, None);
                }
            }
        }
        if !pending.is_empty() {
            let h = log.tracer.enter("flush", b.id, root);
            let outcome = guarded(|| acc.flush());
            log.tracer.exit(h);
            log.settle(&mut pending, outcome);
        }
        log.tracer.exit(root);
        log.wall_s += t.elapsed().as_secs_f64();
        log.bursts += 1;
    }
}

/// Runs every burst through each lane, the lanes taking turns to go
/// first so drift and warm-up fall on all of them. `between` runs after
/// each burst, outside the timed spans. Stops early, between bursts,
/// after `deadline`.
fn pass(
    world: &World,
    lanes: &mut [Lane],
    bursts: &[BurstSpec],
    deadline: Instant,
    mut between: impl FnMut(),
) {
    for (i, b) in bursts.iter().enumerate() {
        if Instant::now() > deadline {
            break;
        }
        let n = lanes.len();
        for k in 0..n {
            lanes[if i % 2 == 0 { k } else { n - 1 - k }].burst(world, b);
        }
        between();
    }
}

/// Shares the bursts between the lanes, one thread each: a thread takes
/// the next burst as it frees up, so a faster vCPU settles more of them.
/// Before every `every`-th burst, up to `setups` times, the thread that
/// takes it times a set-up. Starts no burst after `deadline`. Returns the
/// set-up times and their tally (one error per thread that died).
fn shared_pass(
    world: &World,
    lanes: &mut [Lane],
    bursts: &[BurstSpec],
    deadline: Instant,
    (every, setups): (usize, usize),
) -> (Vec<f64>, Tally) {
    let next = AtomicUsize::new(0);
    let results: Vec<Option<(Vec<f64>, Tally)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                let next = &next;
                scope.spawn(move || {
                    let (mut setup_s, mut tally) = (Vec::new(), Tally::default());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(b) = bursts.get(i) else { break };
                        if Instant::now() > deadline {
                            break;
                        }
                        if i.is_multiple_of(every) && i / every < setups {
                            let (acc, secs, ok) = world.setup();
                            drop(acc);
                            setup_s.push(secs);
                            tally.verdict(true, ok);
                        }
                        lane.burst(world, b);
                    }
                    (setup_s, tally)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    });
    let (mut setup_s, mut tally) = (Vec::new(), Tally::default());
    for r in results {
        match r {
            Some((s, t)) => {
                setup_s.extend(s);
                tally.add(&t);
            }
            None => tally.error(true),
        }
    }
    (setup_s, tally)
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let epoch = Instant::now();
    let world = World::bootstrap(cfg.seed);
    let share = if cfg.trace { 0.4 } else { 1.0 };
    let per_s = if cfg.trace {
        BURSTS_PER_S / NODES as f64
    } else {
        BURSTS_PER_S
    };
    let n = cfg.units(per_s, share, 4);
    let bursts: Vec<BurstSpec> =
        BurstPlan::new(cfg.seed, NEIGHBOURS, BURST_MIN, BURST_MAX, INVALID_FRAC)
            .take(n)
            .collect();
    let mut setup_tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut setup = || {
        let (acc, secs, ok) = world.setup();
        setup_s.push(secs);
        setup_tally.verdict(true, ok);
        acc
    };
    let acc = setup();

    if !cfg.trace {
        let mut accs = vec![acc];
        while accs.len() < NODES {
            accs.push(setup());
        }
        let mut lanes: Vec<Lane> = accs
            .into_iter()
            .enumerate()
            .map(|(node, acc)| Lane::new(&world, node as u64, acc, false, epoch))
            .collect();
        // Further set-ups are spread over the run, so their median
        // samples the same host states as the bursts.
        let extra = SETUP_REPS.saturating_sub(setup_s.len());
        let every = (bursts.len() / extra.max(1)).max(1);
        let (extra_s, extra_tally) = shared_pass(
            &world,
            &mut lanes,
            &bursts,
            cfg.deadline(1.0),
            (every, extra),
        );
        setup_s.extend(extra_s);
        let mut tally = setup_tally;
        tally.add(&extra_tally);
        let mut e2e = E2e::default();
        let (mut done, mut settled) = (0, 0.0);
        for Lane { log, .. } in lanes {
            tally.add(&log.tally);
            done += log.bursts;
            settled += log.tally.attempted as f64;
            // Each node's settle rate over its own busy time, summed.
            e2e.verify_per_s += stats::ratio(log.tally.attempted as f64, log.wall_s);
            e2e.verify_ms.extend(log.verify_ms);
            e2e.sign_ms.extend(log.sign_ms);
        }
        e2e.sim_s_per_simsec = stats::ratio(NOMINAL_RATE, e2e.verify_per_s);
        e2e.setup_s = setup_s;
        let (values, mut notes) = e2e.finish(&tally);
        notes.push(format!(
            "{done} of {} bursts on {NODES} nodes, {settled} copies; rejected {} of {} forged",
            bursts.len(),
            tally.rejected,
            tally.injected
        ));
        return Outcome {
            tally,
            values,
            notes,
            spans: None,
        };
    }

    // Traced run: every burst goes through an untraced accumulator and
    // a traced one, with probe rounds between bursts.
    let traced_acc = setup();
    let mut probe = world.probe();
    let mut lanes = [
        Lane::new(&world, 0, acc, false, epoch),
        Lane::new(&world, 1, traced_acc, true, epoch),
    ];
    pass(
        &world,
        &mut lanes,
        &bursts,
        cfg.deadline(2.0 * share),
        || {
            probe.round();
            if probe.rounds().is_multiple_of(8) {
                probe.batch_round();
            }
        },
    );
    let [Lane { log: untraced, .. }, Lane { log: traced, .. }] = lanes;
    while probe.rounds() < MIN_ROUNDS {
        probe.round();
    }
    probe.batch_round();
    let mut tally = traced.tally;
    tally.add(&untraced.tally);
    tally.add(&setup_tally);
    let mut values = probe::layer_values(&mut probe, Values::new());
    tally.attempted += 1;
    tally.failed += probe.mismatches;

    let spans = traced.tracer.summary();
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let copies = traced.tally.attempted as f64;
    let batch_ns = span("absorb").total_ns + span("absorb_flush").total_ns + span("flush").total_ns;
    values.insert("core.mccls.sign_us".into(), span("sign").mean_us());
    values.insert("core.batch.absorb_us".into(), span("absorb").mean_us());
    values.insert("core.batch.flush_us".into(), span("flush").mean_us());
    values.insert(
        "core.batch.per_sig_us".into(),
        stats::ratio(batch_ns as f64 / 1e3, copies),
    );
    values.insert(
        "core.batch.miller_loops_per_sig".into(),
        stats::ratio(traced.miller_loops as f64, copies),
    );
    values.insert(
        "core.batch.isolation_checks".into(),
        traced.isolation_checks as f64,
    );
    values.insert("core.batch.unchecked".into(), traced.unchecked as f64);
    let per_copy = |l: &PassLog| stats::ratio(l.wall_s, l.tally.attempted as f64);
    values.insert(
        "trace.overhead_frac".into(),
        stats::ratio(per_copy(&traced), per_copy(&untraced)) - 1.0,
    );
    fill_unexercised(&mut values, &["core.registry.", "sim.", "aodv."]);
    let notes = vec![format!(
        "{} bursts ({} copies) each untraced and traced, bursts alternating; {} probe rounds",
        traced.bursts,
        copies,
        probe.rounds()
    )];
    Outcome {
        tally,
        values,
        notes,
        spans: Some(traced.tracer),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_settle_every_copy_correctly() {
        let world = World::bootstrap(31);
        let (acc, _, ok) = world.setup();
        assert!(ok);
        // Two bursts, one past the window, with forged copies in them.
        let bursts: Vec<BurstSpec> = BurstPlan::new(31, NEIGHBOURS, 60, 70, 0.1)
            .take(2)
            .collect();
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let mut lanes = [Lane::new(&world, 0, acc, true, Instant::now())];
        pass(&world, &mut lanes, &bursts, far, || {});
        let log = &lanes[0].log;
        let copies: usize = bursts.iter().map(|b| b.entries.len()).sum();
        assert_eq!(log.tally.attempted as usize, copies);
        assert_eq!(log.tally.failed, 0, "{:?}", log.tally);
        assert!(log.tally.injected > 0);
        assert_eq!(log.tally.rejected, log.tally.injected);
        assert_eq!(log.unchecked, 0);
        assert!(log.tracer.summary().contains_key("absorb_flush"));
    }
}
