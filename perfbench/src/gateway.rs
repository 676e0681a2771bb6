//! `gateway`: a base station verifying signed telemetry from a large
//! sensor population through one `ShardedVerifier`.
//!
//! Closed loop, two worker threads. Each request is a distinct, freshly
//! signed reading from a sensor drawn by Zipf popularity. A worker that
//! meets an unknown sensor registers its key (`register_peer`, the cold
//! path) before verifying; every other request is a warm `verify`.
//! About 2% of requests are forged. The load generator makes keys and
//! signatures before the timed phase, on both threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mccls_core::{
    ops, CertificatelessScheme, Kgc, McCls, PartialPrivateKey, ShardedVerifier, Signature,
    SystemParams, UserKeyPair,
};
use mccls_pairing::{Fr, G1Projective};

use crate::gen::{self, Forgery, GatewayPlan, RequestSpec};
use crate::probe::{self, Probe};
use crate::report::{Values, COUNTERS};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{fill_unexercised, guarded, par_map, E2e, Outcome, RunCfg, Tally};

/// Sensor identities.
const POPULATION: usize = 4096;
/// Zipf exponent of sensor popularity.
const ZIPF_S: f64 = 1.1;
/// Share of forged requests.
const INVALID_FRAC: f64 = 0.02;
/// Most popular sensors, registered during set-up.
const WARM_SET: usize = 64;
/// Requests handed to the workers at a time.
const CHUNK: usize = 256;
/// Worker threads sharing the registry.
const WORKERS: usize = 2;
/// Requests per `--seconds` (sized on a 2-vCPU Xeon).
const REQUESTS_PER_S: f64 = 160.0;
/// Modelled telemetry arrivals per second, for `sim_s_per_simsec`.
const NOMINAL_RATE: f64 = 100.0;
/// Timed set-ups per run.
const SETUP_REPS: usize = 9;
/// Probe rounds the traced run takes at least.
const MIN_ROUNDS: usize = 24;

const SETUP_STREAM: u64 = 0x7365_7475;
const KEY_STREAM: u64 = 1 << 40;
const SIGN_STREAM: u64 = 2 << 40;

struct Sensor {
    id: Vec<u8>,
    partial: PartialPrivateKey,
    keys: UserKeyPair,
}

/// A materialised request: what arrives at the gateway, plus the
/// generator's ground truth.
struct Request {
    seq: u64,
    peer: usize,
    delivered: Vec<u8>,
    sig: Signature,
    valid: bool,
}

struct World {
    seed: u64,
    params: SystemParams,
    kgc: Kgc,
    sensors: HashMap<usize, Sensor>,
}

fn sensor_id(peer: usize) -> Vec<u8> {
    format!("sensor-{peer:04}").into_bytes()
}

impl World {
    fn bootstrap(seed: u64) -> Self {
        let (params, kgc) = McCls::new().setup(&mut gen::rng(seed, SETUP_STREAM));
        let mut world = Self {
            seed,
            params,
            kgc,
            sensors: HashMap::new(),
        };
        world.ensure_sensors((0..WARM_SET).collect());
        world
    }

    /// Load generator: keys for every sensor in `peers` not yet known.
    fn ensure_sensors(&mut self, mut peers: Vec<usize>) {
        peers.sort_unstable();
        peers.dedup();
        peers.retain(|p| !self.sensors.contains_key(p));
        let scheme = McCls::new();
        let made = par_map(&peers, |&peer| {
            let id = sensor_id(peer);
            let keys = scheme.generate_key_pair(
                &self.params,
                &mut gen::rng(self.seed, KEY_STREAM + peer as u64),
            );
            let partial = self.kgc.extract_partial_private_key(&id);
            (peer, Sensor { id, partial, keys })
        });
        self.sensors.extend(made);
    }

    /// The measured side's set-up: system parameters, the registry, and
    /// the warm-set prefill. Returns the registry, the seconds it took,
    /// and whether the parameters matched the generator's.
    fn setup(&self) -> (ShardedVerifier, f64, bool) {
        let t = Instant::now();
        let (params, _kgc) = McCls::new().setup(&mut gen::rng(self.seed, SETUP_STREAM));
        let registry = ShardedVerifier::new(params.clone());
        let mut ok = params == self.params;
        for peer in 0..WARM_SET {
            let s = &self.sensors[&peer];
            ok &= registry.register_peer(&s.id, s.keys.public).is_ok();
        }
        (registry, t.elapsed().as_secs_f64(), ok)
    }

    /// Load generator: signs every request, timing each `McCls::sign`.
    fn materialize(&self, specs: &[RequestSpec]) -> (Vec<Request>, Vec<f64>) {
        let scheme = McCls::new();
        let made = par_map(specs, |spec| {
            let s = &self.sensors[&spec.peer];
            let mut rng = gen::rng(self.seed, SIGN_STREAM + spec.seq);
            let msg = format!(
                "telemetry|{}|seq={}|reading={}",
                spec.peer, spec.seq, spec.reading
            )
            .into_bytes();
            let wrong_keys;
            let outsider;
            let (partial, keys) = match spec.forgery {
                Forgery::WrongKey => {
                    wrong_keys = scheme.generate_key_pair(&self.params, &mut rng);
                    (&s.partial, &wrong_keys)
                }
                Forgery::OutsiderPartial => {
                    outsider = PartialPrivateKey {
                        d: G1Projective::generator().mul_scalar(&Fr::random_nonzero(&mut rng)),
                    };
                    (&outsider, &s.keys)
                }
                Forgery::None | Forgery::TamperedMessage => (&s.partial, &s.keys),
            };
            let t = Instant::now();
            let sig = scheme.sign(&self.params, &s.id, partial, keys, &msg, &mut rng);
            let sign_ms = t.elapsed().as_secs_f64() * 1e3;
            let mut delivered = msg;
            if spec.forgery == Forgery::TamperedMessage {
                delivered.extend_from_slice(b"|reading=0");
            }
            let req = Request {
                seq: spec.seq,
                peer: spec.peer,
                delivered,
                sig,
                valid: spec.forgery.is_valid(),
            };
            (req, sign_ms)
        });
        made.into_iter().unzip()
    }

    /// The warm sensors as probe signers.
    fn probe(&self) -> Probe {
        let signers = (0..WARM_SET)
            .map(|p| {
                let s = &self.sensors[&p];
                probe::Signer::new(&self.kgc, s.id.clone(), s.keys.clone())
            })
            .collect();
        Probe::new(&self.params, signers, self.seed)
    }
}

/// Sums of `ops::measure` counts over calls of one op.
#[derive(Debug, Default, Clone, Copy)]
struct OpSums {
    calls: u64,
    sums: [u64; 6],
}

impl OpSums {
    fn add(&mut self, counts: &ops::OpCounts) {
        self.calls += 1;
        for (s, c) in self.sums.iter_mut().zip(probe::counter_values(counts)) {
            *s += c;
        }
    }

    fn merge(&mut self, o: &OpSums) {
        self.calls += o.calls;
        for (s, c) in self.sums.iter_mut().zip(o.sums) {
            *s += c;
        }
    }

    fn insert(&self, op: &str, out: &mut Values) {
        if self.calls == 0 {
            return;
        }
        for (counter, sum) in COUNTERS.iter().zip(self.sums) {
            out.insert(
                format!("core.ops.{op}.{counter}"),
                sum as f64 / self.calls as f64,
            );
        }
    }
}

/// One worker's (or one pass's) record.
struct PassLog {
    tally: Tally,
    verify_ms: Vec<f64>,
    sign_ms: Vec<f64>,
    chunks: usize,
    cold: u64,
    wall_s: f64,
    tracer: Tracer,
    register_ops: OpSums,
    verify_ops: OpSums,
}

impl PassLog {
    fn new(trace: bool, epoch: Instant) -> Self {
        Self {
            tally: Tally::default(),
            verify_ms: Vec::new(),
            sign_ms: Vec::new(),
            chunks: 0,
            cold: 0,
            wall_s: 0.0,
            tracer: Tracer::new(trace, epoch),
            register_ops: OpSums::default(),
            verify_ops: OpSums::default(),
        }
    }

    fn merge(&mut self, o: PassLog) {
        self.tally.add(&o.tally);
        self.verify_ms.extend(o.verify_ms);
        self.cold += o.cold;
        self.tracer.absorb(o.tracer);
        self.register_ops.merge(&o.register_ops);
        self.verify_ops.merge(&o.verify_ops);
    }

    fn secs_per_verdict(&self) -> f64 {
        stats::ratio(self.wall_s, self.tally.attempted as f64)
    }
}

/// Runs `f`, counting its group operations when tracing.
fn counted<T>(on: bool, sums: &mut OpSums, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let (out, counts) = ops::measure(f);
    sums.add(&counts);
    out
}

/// One worker: pulls requests until the chunk is drained.
fn worker(
    world: &World,
    reg: &ShardedVerifier,
    reqs: &[Request],
    next: &AtomicUsize,
    log: &mut PassLog,
) {
    let on = log.tracer.is_on();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(req) = reqs.get(i) else { break };
        let sensor = &world.sensors[&req.peer];
        let root = log.tracer.enter("request", req.seq, None);
        let t = Instant::now();
        let settled = guarded(|| {
            let mut cold = false;
            if !reg.knows_peer(&sensor.id) {
                cold = true;
                let h = log.tracer.enter("register_peer", req.seq, root);
                let r = counted(on, &mut log.register_ops, || {
                    reg.register_peer(&sensor.id, sensor.keys.public)
                });
                log.tracer.exit(h);
                r.ok()?;
            }
            let h = log.tracer.enter("verify", req.seq, root);
            let verdict = counted(on, &mut log.verify_ops, || {
                reg.verify(&sensor.id, &req.delivered, &req.sig)
            });
            log.tracer.exit(h);
            Some((cold, verdict.is_ok()))
        });
        log.verify_ms.push(t.elapsed().as_secs_f64() * 1e3);
        log.tracer.exit(root);
        match settled.flatten() {
            Some((cold, accepted)) => {
                log.cold += u64::from(cold);
                log.tally.verdict(req.valid, accepted);
            }
            None => log.tally.error(req.valid),
        }
    }
}

/// One registry the requests run through, and the log of what it did.
struct Lane<'a> {
    reg: &'a ShardedVerifier,
    log: PassLog,
}

/// Verifies one chunk on [`WORKERS`] threads (timed).
fn verify_chunk(world: &World, reg: &ShardedVerifier, chunk: &[Request], total: &mut PassLog) {
    let (trace, epoch) = (total.tracer.is_on(), total.tracer.epoch());
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let logs: Vec<PassLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut log = PassLog::new(trace, epoch);
                    worker(world, reg, chunk, next, &mut log);
                    log
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    total.wall_s += t.elapsed().as_secs_f64();
    total.chunks += 1;
    let settled: u64 = logs.iter().map(|l| l.tally.attempted).sum();
    for log in logs {
        total.merge(log);
    }
    // A worker that died takes its unsettled requests with it.
    for req in &chunk[..chunk.len() - settled.min(chunk.len() as u64) as usize] {
        total.tally.error(req.valid);
    }
}

/// Generates and verifies `specs` chunk by chunk: the load generator
/// makes a chunk's keys and signatures (untimed), then each lane
/// verifies it, the lanes taking turns to go first so drift and
/// warm-up fall on all of them. `between` runs after each chunk,
/// outside the timed spans. Stops early, between chunks, after
/// `deadline`.
fn pass(
    world: &mut World,
    lanes: &mut [Lane<'_>],
    specs: &[RequestSpec],
    deadline: Instant,
    mut between: impl FnMut(&World),
) {
    for (ci, chunk_specs) in specs.chunks(CHUNK).enumerate() {
        if Instant::now() > deadline {
            break;
        }
        world.ensure_sensors(chunk_specs.iter().map(|s| s.peer).collect());
        let (chunk, sign_ms) = world.materialize(chunk_specs);
        let world = &*world;
        let n = lanes.len();
        for k in 0..n {
            let lane = &mut lanes[if ci % 2 == 0 { k } else { n - 1 - k }];
            lane.log.sign_ms.extend(&sign_ms);
            verify_chunk(world, lane.reg, &chunk, &mut lane.log);
        }
        between(world);
    }
}

/// 2-thread over 1-thread verify throughput on the same 32 warm
/// requests, median of three alternations.
fn thread_scaling(
    world: &World,
    reg: &ShardedVerifier,
    specs: &[RequestSpec],
    tally: &mut Tally,
) -> f64 {
    let warm: Vec<RequestSpec> = specs
        .iter()
        .filter(|r| r.forgery.is_valid() && r.peer < WARM_SET)
        .take(32)
        .cloned()
        .collect();
    let reqs = world.materialize(&warm).0;
    let sample: Vec<&Request> = reqs.iter().collect();
    let run = |part: &[&Request]| {
        part.iter()
            .filter(|r| {
                let s = &world.sensors[&r.peer];
                reg.verify(&s.id, &r.delivered, &r.sig).is_err()
            })
            .count() as u64
    };
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let bad_one = run(&sample);
        let one = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (left, right) = sample.split_at(sample.len() / 2);
        let bad_two = std::thread::scope(|scope| {
            let h = scope.spawn(|| run(right));
            run(left) + h.join().unwrap_or(1)
        });
        let two = t.elapsed().as_secs_f64();
        tally.attempted += 2 * sample.len() as u64;
        tally.failed += bad_one + bad_two;
        ratios.push(stats::ratio(one, two));
    }
    stats::median(&ratios)
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let epoch = Instant::now();
    let mut world = World::bootstrap(cfg.seed);
    let share = if cfg.trace { 0.4 } else { 1.0 };
    let n = cfg.units(REQUESTS_PER_S, share, CHUNK);
    let specs: Vec<RequestSpec> = GatewayPlan::new(cfg.seed, POPULATION, ZIPF_S, INVALID_FRAC)
        .take(n)
        .collect();
    let chunks = n.div_ceil(CHUNK);
    let mut setup_tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut timed_setup = |world: &World| {
        let (reg, secs, ok) = world.setup();
        setup_s.push(secs);
        setup_tally.verdict(true, ok);
        reg
    };
    let reg = timed_setup(&world);

    if !cfg.trace {
        // Further set-ups are spread over the run, so their median
        // samples the same host states as the requests.
        let every = (chunks / SETUP_REPS).max(1);
        let (mut done, mut extra) = (0usize, 0);
        let mut lanes = [Lane {
            reg: &reg,
            log: PassLog::new(false, epoch),
        }];
        pass(&mut world, &mut lanes, &specs, cfg.deadline(1.0), |w| {
            done += 1;
            if done.is_multiple_of(every) && extra + 1 < SETUP_REPS {
                extra += 1;
                drop(timed_setup(w));
            }
        });
        let [Lane { log, .. }] = lanes;
        let mut tally = log.tally;
        tally.add(&setup_tally);
        let settled = log.tally.attempted as f64;
        let e2e = E2e {
            verify_per_s: stats::ratio(settled, log.wall_s),
            verify_ms: log.verify_ms,
            sign_ms: log.sign_ms,
            sim_s_per_simsec: stats::ratio(log.wall_s, settled / NOMINAL_RATE),
            setup_s,
        };
        let (values, mut notes) = e2e.finish(&tally);
        notes.push(format!(
            "{} requests in {} of {} chunks, {} cold; rejected {} of {} forged",
            settled, log.chunks, chunks, log.cold, tally.rejected, tally.injected
        ));
        return Outcome {
            tally,
            values,
            notes,
            spans: None,
        };
    }

    // Traced run: every chunk goes through an untraced registry and a
    // traced one, with probe rounds between chunks.
    let traced_reg = timed_setup(&world);
    let mut probe = world.probe();
    let mut rounds = 0usize;
    let mut lanes = [
        Lane {
            reg: &reg,
            log: PassLog::new(false, epoch),
        },
        Lane {
            reg: &traced_reg,
            log: PassLog::new(true, epoch),
        },
    ];
    pass(
        &mut world,
        &mut lanes,
        &specs,
        cfg.deadline(2.0 * share),
        |_| {
            probe.round();
            rounds += 1;
            if rounds.is_multiple_of(4) {
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
    let scaling = thread_scaling(&world, &traced_reg, &specs, &mut tally);

    let mut counts = Values::new();
    traced.register_ops.insert("register", &mut counts);
    traced.verify_ops.insert("verify", &mut counts);
    let mut values = probe::layer_values(&mut probe, counts);
    tally.attempted += 1;
    tally.failed += probe.mismatches;
    let spans = traced.tracer.summary();
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let sign_ms = &traced.sign_ms;
    values.insert(
        "core.mccls.sign_us".into(),
        stats::ratio(sign_ms.iter().sum::<f64>() * 1e3, sign_ms.len() as f64),
    );
    values.insert("core.registry.verify_us".into(), span("verify").mean_us());
    values.insert(
        "core.registry.register_us".into(),
        span("register_peer").mean_us(),
    );
    values.insert(
        "core.registry.hit_frac".into(),
        1.0 - stats::ratio(traced.cold as f64, traced.tally.attempted as f64),
    );
    values.insert("core.registry.thread_scaling".into(), scaling);
    values.insert(
        "trace.overhead_frac".into(),
        stats::ratio(traced.secs_per_verdict(), untraced.secs_per_verdict()) - 1.0,
    );
    fill_unexercised(&mut values, &["core.batch.", "sim.", "aodv."]);
    let notes = vec![format!(
        "{} requests ({} cold) each untraced and traced, chunks alternating; {} probe rounds",
        traced.tally.attempted,
        traced.cold,
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

    fn tiny(world: &World, n: usize) -> (Vec<RequestSpec>, ShardedVerifier) {
        let specs: Vec<RequestSpec> = GatewayPlan::new(world.seed, 256, ZIPF_S, 0.2)
            .take(n)
            .collect();
        let (reg, _, ok) = world.setup();
        assert!(ok);
        (specs, reg)
    }

    fn far() -> Instant {
        Instant::now() + std::time::Duration::from_secs(3600)
    }

    #[test]
    fn verdicts_match_ground_truth() {
        let mut world = World::bootstrap(21);
        let (specs, reg) = tiny(&world, 24);
        let mut lanes = [Lane {
            reg: &reg,
            log: PassLog::new(false, Instant::now()),
        }];
        pass(&mut world, &mut lanes, &specs, far(), |_| {});
        let log = &lanes[0].log;
        assert_eq!(log.tally.attempted, 24);
        assert_eq!(log.tally.failed, 0, "{:?}", log.tally);
        assert!(log.tally.injected > 0);
        assert_eq!(log.tally.rejected, log.tally.injected);
    }

    #[test]
    fn injected_false_accept_fails_the_run() {
        let mut world = World::bootstrap(22);
        let (specs, reg) = tiny(&world, 8);
        world.ensure_sensors(specs.iter().map(|s| s.peer).collect());
        let (mut reqs, _) = world.materialize(&specs);
        // Corrupt the ground truth: an honest request labelled forged
        // is accepted by the verifier, which the oracle must count as a
        // false accept.
        let honest = reqs
            .iter_mut()
            .find(|r| r.valid)
            .expect("an honest request");
        honest.valid = false;
        let next = AtomicUsize::new(0);
        let mut log = PassLog::new(false, Instant::now());
        worker(&world, &reg, &reqs, &next, &mut log);
        assert_eq!(log.tally.false_accepts, 1);
        assert!(log.tally.failed >= 1);
    }
}
