//! `secured_manet` and `city_model`: whole secured-AODV simulations.
//!
//! * `secured_manet` is the paper's scenario (20 nodes, 1500 m × 300 m,
//!   10 m/s, two forging black holes) with real McCLS signatures on
//!   every control packet. Each sub-run is checked against the
//!   model-provider run of the same scenario: every `Metrics` field must
//!   be equal.
//! * `city_model` is the 5,000-node scaled scenario with 50 forging
//!   black holes and the model provider; no attacker may capture data
//!   and some forgeries must be rejected.
//!
//! A workload runs several short sub-runs, each with its own scenario
//! seed drawn from `--seed`, and reports wall seconds per simulated
//! second over all of them. The sims settle their verdicts inside
//! `Network::run`, so per-verdict latency is taken from a replay:
//! re-broadcast RREQ hops signed and verified through the same
//! `AuthProvider` type the sim uses, with the sim's node count and
//! attacker set.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mccls_aodv::{
    AuthProvider, Behavior, Metrics, ModelAuthProvider, Network, NodeId, RealAuthProvider, Rreq,
    ScenarioConfig, SeqNo,
};
use mccls_sim::SimDuration;

use crate::gen::{self, HopPlan, HopSpec};
use crate::probe::{self, Probe};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{fill_unexercised, guarded, E2e, Outcome, RunCfg, Tally, Workload};

/// Probe rounds the traced run takes at least.
const MIN_ROUNDS: usize = 24;
/// Set-ups timed at least (extra `Network::new` calls, spread between
/// the sub-runs, when a run has fewer sub-runs).
const MIN_SETUPS: usize = 9;
/// Share of forged replay hops (altered after signing).
const TAMPER_FRAC: f64 = 0.01;
/// Threads the sub-runs are split over.
const THREADS: usize = 2;

/// The per-workload shape.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Simulated seconds per sub-run.
    sim_secs: u64,
    /// Sub-runs per wall second (sized on a 2-vCPU Xeon).
    runs_per_s: f64,
    /// Share of the run spent in sub-runs.
    sim_share: f64,
    /// Replay hops per wall second.
    hops_per_s: f64,
    /// Share of the run spent replaying.
    hop_share: f64,
    /// Minimum replay hops.
    min_hops: usize,
    /// Run length as a multiple of `--seconds`.
    length: f64,
}

/// `secured_manet` runs 1.5x `--seconds`: its sub-runs vary most from
/// seed to seed, so it needs the most of them.
const MANET: Shape = Shape {
    sim_secs: 2,
    runs_per_s: 0.4,
    sim_share: 0.8,
    hops_per_s: 180.0,
    hop_share: 0.11,
    min_hops: 240,
    length: 1.5,
};

const CITY: Shape = Shape {
    sim_secs: 3,
    runs_per_s: 1.0 / 1.5,
    sim_share: 0.9,
    hops_per_s: 6_000.0,
    hop_share: 0.05,
    min_hops: 6_000,
    length: 1.0,
};

fn scenario(w: Workload, seed: u64) -> ScenarioConfig {
    let (mut cfg, shape) = match w {
        Workload::CityModel => (
            ScenarioConfig::scaled(5000, 10.0, seed)
                .secured()
                .with_attackers(Behavior::ForgingBlackHole, 50),
            CITY,
        ),
        _ => {
            let mut cfg = ScenarioConfig::paper_baseline(10.0, seed)
                .secured()
                .with_attackers(Behavior::ForgingBlackHole, 2);
            cfg.real_crypto = true;
            (cfg, MANET)
        }
    };
    cfg.duration = SimDuration::from_secs(shape.sim_secs);
    cfg
}

/// The oracle for one sub-run: `None` when it passes, otherwise why not.
fn oracle(w: Workload, cfg: &ScenarioConfig, got: &Metrics) -> Option<String> {
    match w {
        Workload::CityModel => (got.attacker_dropped != 0 || got.auth_rejected == 0).then(|| {
            format!(
                "city oracle: attacker_dropped={} auth_rejected={}",
                got.attacker_dropped, got.auth_rejected
            )
        }),
        _ => {
            let mut model = cfg.clone();
            model.real_crypto = false;
            let expected = Network::new(model).run();
            metrics_mismatch(&expected, got)
        }
    }
}

/// Full `Metrics` equality: `None` when equal, otherwise both sides.
pub fn metrics_mismatch(expected: &Metrics, got: &Metrics) -> Option<String> {
    (expected != got)
        .then(|| format!("metrics differ from the model run: model {expected:?}, real {got:?}"))
}

/// What one lane of sub-runs recorded.
struct SimLog {
    tally: Tally,
    runs: usize,
    run_s: f64,
    sim_secs: u64,
    setup_s: Vec<f64>,
    totals: Metrics,
    problems: Vec<String>,
    tracer: Tracer,
}

impl SimLog {
    fn new(trace: bool, epoch: Instant) -> Self {
        Self {
            tally: Tally::default(),
            runs: 0,
            run_s: 0.0,
            sim_secs: 0,
            setup_s: Vec::new(),
            totals: Metrics::default(),
            problems: Vec::new(),
            tracer: Tracer::new(trace, epoch),
        }
    }

    /// Adds the other thread's log of the same lane.
    fn merge(&mut self, o: SimLog) {
        self.tally.add(&o.tally);
        self.runs += o.runs;
        self.run_s += o.run_s;
        self.sim_secs += o.sim_secs;
        self.setup_s.extend(o.setup_s);
        self.totals.merge(&o.totals);
        self.problems.extend(o.problems);
        self.tracer.absorb(o.tracer);
    }

    /// Builds (timed as set-up) and runs (timed) sub-run `j`, then
    /// checks it against its oracle.
    fn sub_run(&mut self, w: Workload, j: usize, seed: u64) {
        self.runs += 1;
        let cfg = scenario(w, seed);
        let t = Instant::now();
        let h = self.tracer.enter("network_new", j as u64, None);
        let net = guarded(|| Network::new(cfg.clone()));
        self.tracer.exit(h);
        self.setup_s.push(t.elapsed().as_secs_f64());
        let Some(net) = net else {
            self.tally.error(true);
            return;
        };
        let t = Instant::now();
        let h = self.tracer.enter("network_run", j as u64, None);
        let metrics = guarded(|| net.run());
        self.tracer.exit(h);
        self.run_s += t.elapsed().as_secs_f64();
        self.sim_secs += cfg.duration.as_secs_f64().round() as u64;
        match metrics {
            Some(m) => {
                let problem = oracle(w, &cfg, &m);
                self.tally.verdict(true, problem.is_none());
                self.problems.extend(problem);
                self.totals.merge(&m);
            }
            None => self.tally.error(true),
        }
    }
}

/// The work both threads take items from: item `j` is sub-run `j`
/// through every lane, then replay slice `j`, then the item's share of
/// the extra set-ups.
struct Queue<'a> {
    w: Workload,
    seeds: &'a [u64],
    next: AtomicUsize,
    slice: usize,
    extra_setups: usize,
    deadline: Instant,
}

/// One thread's side of a sim workload: its lanes, its replay, and (on
/// thread 0) the probe, which takes rounds after each of its items.
struct Job {
    lanes: Vec<SimLog>,
    rep: Replayer,
    replay_tracer: Tracer,
    probe: Option<Probe>,
    extra_setup_s: Vec<f64>,
}

impl Job {
    /// Takes items until the queue is drained, so a faster vCPU runs
    /// more of them; the lanes take turns to go first so drift and
    /// warm-up fall on all of them. Starts no item after the deadline.
    fn run(mut self, q: &Queue<'_>) -> Self {
        let per_item = q.extra_setups.div_ceil(q.seeds.len().max(1));
        loop {
            let j = q.next.fetch_add(1, Ordering::Relaxed);
            let Some(&seed) = q.seeds.get(j) else { break };
            if Instant::now() > q.deadline {
                break;
            }
            let n = self.lanes.len();
            for i in 0..n {
                self.lanes[if j.is_multiple_of(2) { i } else { n - 1 - i }].sub_run(q.w, j, seed);
            }
            self.rep.hops(j as u64, q.slice, &mut self.replay_tracer);
            if let Some(probe) = &mut self.probe {
                for _ in 0..4 {
                    probe.round();
                }
                probe.batch_round();
            }
            for _ in (j * per_item..(j + 1) * per_item).take_while(|&e| e < q.extra_setups) {
                let t = Instant::now();
                drop(guarded(|| Network::new(scenario(q.w, seed))));
                self.extra_setup_s.push(t.elapsed().as_secs_f64());
            }
        }
        self
    }
}

/// Per-hop sign and verify latencies through the sim's auth provider.
struct Replayer {
    provider: Box<dyn AuthProvider>,
    attackers: BTreeSet<NodeId>,
    seed: u64,
    nodes: usize,
    done: u64,
    tally: Tally,
    sign_ms: Vec<f64>,
    verify_ms: Vec<f64>,
}

impl Replayer {
    /// Builds the provider the sim would build for the scenario seeded
    /// `seed`. With real signatures every node first signs once and is
    /// verified (checked, not timed), so the timed hops see the warm
    /// per-peer cache a running sim has.
    fn new(w: Workload, seed: u64) -> Self {
        let cfg = scenario(w, seed);
        let attackers: BTreeSet<NodeId> = cfg.attacker_ids().into_iter().collect();
        let n = cfg.num_nodes;
        let provider: Box<dyn AuthProvider> = if cfg.real_crypto {
            Box::new(RealAuthProvider::new(
                n,
                &attackers,
                gen::sub_seed(seed, 0x6175_7468),
            ))
        } else {
            let legit = (0..n as u16)
                .map(NodeId)
                .filter(|id| !attackers.contains(id));
            Box::new(ModelAuthProvider::new(legit))
        };
        let mut r = Self {
            provider,
            attackers,
            seed,
            nodes: n,
            done: 0,
            tally: Tally::default(),
            sign_ms: Vec::new(),
            verify_ms: Vec::new(),
        };
        if cfg.real_crypto {
            let mut off = Tracer::new(false, Instant::now());
            for i in 0..n {
                let hop = HopSpec {
                    forwarder: i as u16,
                    origin: 0,
                    dest: 1,
                    rreq_id: i as u32,
                    hop_count: 0,
                    tampered: false,
                };
                r.hop(&hop, false, &mut off);
            }
        }
        r
    }

    /// Adds the other thread's replay record.
    fn merge(&mut self, o: Replayer) {
        self.done += o.done;
        self.tally.add(&o.tally);
        self.sign_ms.extend(o.sign_ms);
        self.verify_ms.extend(o.verify_ms);
    }

    /// Replays slice `slice` of the hops, `n` of them, timed. A slice's
    /// hops depend only on the replay seed and `slice`, not on the
    /// thread that replays it.
    fn hops(&mut self, slice: u64, n: usize, tracer: &mut Tracer) {
        let plan = HopPlan::new(gen::sub_seed(self.seed, slice), self.nodes, TAMPER_FRAC);
        for hop in plan.take(n) {
            self.hop(&hop, true, tracer);
        }
    }

    /// Signs one re-broadcast RREQ as its forwarder and verifies what
    /// arrives.
    fn hop(&mut self, hop: &HopSpec, timed: bool, tracer: &mut Tracer) {
        let id = self.done;
        self.done += 1;
        let fwd = NodeId(hop.forwarder);
        let mut rreq = Rreq {
            origin: NodeId(hop.origin),
            origin_seq: SeqNo(hop.rreq_id),
            rreq_id: hop.rreq_id,
            dest: NodeId(hop.dest),
            dest_seq: None,
            hop_count: hop.hop_count,
            ttl: 16,
            auth: None,
        };
        let payload = rreq.auth_payload(fwd);
        let provider = &mut self.provider;
        let h = tracer.enter("sign", id, None);
        let t = Instant::now();
        let auth = guarded(|| provider.sign(fwd, &payload));
        let sign_ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.exit(h);
        if hop.tampered {
            rreq.hop_count = rreq.hop_count.wrapping_add(1);
        }
        let delivered = rreq.auth_payload(fwd);
        let valid = !hop.tampered && !self.attackers.contains(&fwd);
        let Some(auth) = auth else {
            self.tally.error(valid);
            return;
        };
        let h = tracer.enter("verify", id, None);
        let t = Instant::now();
        let accepted = guarded(|| provider.verify(&delivered, &auth));
        let verify_ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.exit(h);
        match accepted {
            Some(accepted) => self.tally.verdict(valid, accepted),
            None => self.tally.error(valid),
        }
        if timed {
            self.sign_ms.push(sign_ms);
            self.verify_ms.push(verify_ms);
        }
    }
}

/// Runs the workload: the sub-runs shared between two threads, each with
/// its own replay provider built from one seed, so both vCPUs stay
/// loaded the way the two-worker gateway loads them.
pub fn run(cfg: &RunCfg) -> Outcome {
    let epoch = Instant::now();
    let w = cfg.workload;
    let shape = if w == Workload::CityModel {
        CITY
    } else {
        MANET
    };
    let share = if cfg.trace { 0.4 } else { 1.0 };
    let length = shape.length * share;
    let runs = cfg.units(shape.runs_per_s, shape.sim_share * length, THREADS);
    let seeds = gen::sim_seeds(cfg.seed, runs);
    let hops = cfg.units(
        shape.hops_per_s,
        shape.hop_share * shape.length,
        shape.min_hops,
    );
    // One replay slice after each sub-run.
    let slice = hops.div_ceil(runs);
    let lanes = if cfg.trace { 2 } else { 1 };
    let mut probe = cfg.trace.then(|| Probe::from_seed(cfg.seed));
    if cfg.trace && w == Workload::CityModel {
        // The first 5,000-node run of a process pays its page faults;
        // a short untimed run keeps that out of the overhead ratio.
        let mut warm = scenario(w, seeds[0]);
        warm.duration = SimDuration::from_secs(1);
        let _ = guarded(|| Network::new(warm).run());
    }
    let replay_seed = gen::sub_seed(cfg.seed, 0x7265_706c);
    let jobs: Vec<Job> = (0..THREADS)
        .map(|t| Job {
            lanes: (0..lanes).map(|l| SimLog::new(l == 1, epoch)).collect(),
            rep: Replayer::new(w, replay_seed),
            // Replay spans feed `core.mccls.sign_us`; the model
            // provider's hops are too short to be worth keeping.
            replay_tracer: Tracer::new(cfg.trace && w == Workload::SecuredManet, epoch),
            probe: if t == 0 { probe.take() } else { None },
            extra_setup_s: Vec::new(),
        })
        .collect();
    let queue = Queue {
        w,
        seeds: &seeds,
        next: AtomicUsize::new(0),
        slice,
        extra_setups: if cfg.trace {
            0
        } else {
            MIN_SETUPS.saturating_sub(runs)
        },
        deadline: cfg.deadline(length * lanes as f64),
    };
    let mut done: Vec<Job> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                let queue = &queue;
                scope.spawn(move || job.run(queue))
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let mut tally = Tally::default();
    if done.len() < THREADS {
        tally.error(true);
    }
    let mut first = done.remove(0);
    for job in done {
        for (lane, other) in first.lanes.iter_mut().zip(job.lanes) {
            lane.merge(other);
        }
        first.rep.merge(job.rep);
        first.replay_tracer.absorb(job.replay_tracer);
        first.extra_setup_s.extend(job.extra_setup_s);
    }
    let Job {
        mut lanes,
        rep,
        replay_tracer,
        probe,
        extra_setup_s,
        ..
    } = first;
    tally.add(&rep.tally);

    if !cfg.trace {
        let sims = lanes.remove(0);
        tally.add(&sims.tally);
        let mut setup_s = sims.setup_s.clone();
        setup_s.extend(extra_setup_s);
        let e2e = E2e {
            verify_per_s: stats::ratio(sims.totals.signatures_checked as f64, sims.run_s),
            verify_ms: rep.verify_ms,
            sign_ms: rep.sign_ms,
            sim_s_per_simsec: stats::ratio(sims.run_s, sims.sim_secs as f64),
            setup_s,
        };
        let (values, mut notes) = e2e.finish(&tally);
        notes.push(format!(
            "{} of {} sub-runs of {} simulated s on {THREADS} threads: {} events, {} signatures \
             made, {} checked, {} rejected; latencies from {} replayed hops",
            sims.runs,
            seeds.len(),
            shape.sim_secs,
            sims.totals.events,
            sims.totals.signatures_made,
            sims.totals.signatures_checked,
            sims.totals.auth_rejected,
            rep.done
        ));
        notes.extend(sims.problems);
        return Outcome {
            tally,
            values,
            notes,
            spans: None,
        };
    }

    // Traced run: every sub-run went through an untraced lane and a
    // traced one, with probe rounds and replay slices between them.
    let (Some(mut probe), Some(mut traced)) = (probe, lanes.pop()) else {
        tally.error(true);
        return Outcome {
            tally,
            values: Default::default(),
            notes: Vec::new(),
            spans: None,
        };
    };
    let untraced = lanes.remove(0);
    while probe.rounds() < MIN_ROUNDS {
        probe.round();
    }
    let replay_spans = replay_tracer.summary();
    let spans = traced.tracer.summary();
    traced.tracer.absorb(replay_tracer);
    tally.add(&traced.tally);
    tally.add(&untraced.tally);
    let mut values = probe::layer_values(&mut probe, Default::default());
    tally.attempted += 1;
    tally.failed += probe.mismatches;

    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let m = &traced.totals;
    let run_ns = span("network_run").total_ns as f64;
    values.insert("sim.events".into(), m.events as f64);
    values.insert("sim.event_ns".into(), stats::ratio(run_ns, m.events as f64));
    values.insert("aodv.signatures_made".into(), m.signatures_made as f64);
    values.insert(
        "aodv.signatures_checked".into(),
        m.signatures_checked as f64,
    );
    values.insert("aodv.auth_rejected".into(), m.auth_rejected as f64);
    values.insert("aodv.rreq_forwarded".into(), m.rreq_forwarded as f64);
    if w == Workload::SecuredManet {
        let (sign_us, verify_us) = probe::sign_verify_units(&probe);
        let crypto_us =
            m.signatures_made as f64 * sign_us + m.signatures_checked as f64 * verify_us;
        values.insert(
            "aodv.crypto_est_share".into(),
            stats::ratio(crypto_us * 1e3, run_ns),
        );
        let sign = replay_spans.get("sign").copied().unwrap_or_default();
        values.insert("core.mccls.sign_us".into(), sign.mean_us());
    }
    values.insert(
        "trace.overhead_frac".into(),
        stats::ratio(traced.run_s, untraced.run_s) - 1.0,
    );
    fill_unexercised(
        &mut values,
        &[
            "core.registry.",
            "core.batch.absorb",
            "core.batch.flush",
            "core.batch.per_sig",
            "core.batch.miller",
            "core.batch.isolation",
            "core.batch.unchecked",
            "core.mccls.",
            "aodv.crypto",
        ],
    );
    let mut notes = vec![format!(
        "{} sub-runs each untraced and traced on {THREADS} threads, order alternating; \
         {} replayed hops; {} probe rounds",
        traced.runs,
        rep.done,
        probe.rounds()
    )];
    notes.extend(traced.problems);
    notes.extend(untraced.problems);
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
    fn perturbed_metrics_fail_the_oracle() {
        let cfg = {
            let mut c = scenario(Workload::SecuredManet, 3);
            c.real_crypto = false;
            c
        };
        let good = Network::new(cfg.clone()).run();
        assert!(oracle(Workload::SecuredManet, &cfg, &good).is_none());
        let mut bad = good.clone();
        bad.auth_rejected += 1;
        assert!(oracle(Workload::SecuredManet, &cfg, &bad).is_some());
        let mut bad = good;
        bad.events -= 1;
        assert!(metrics_mismatch(&Network::new(cfg).run(), &bad).is_some());
    }

    #[test]
    fn city_oracle_needs_rejections_and_no_capture() {
        let cfg = scenario(Workload::CityModel, 4);
        let mut m = Metrics {
            auth_rejected: 3,
            ..Metrics::default()
        };
        assert!(oracle(Workload::CityModel, &cfg, &m).is_none());
        m.attacker_dropped = 1;
        assert!(oracle(Workload::CityModel, &cfg, &m).is_some());
        m.attacker_dropped = 0;
        m.auth_rejected = 0;
        assert!(oracle(Workload::CityModel, &cfg, &m).is_some());
    }

    #[test]
    fn replay_verdicts_match_ground_truth() {
        let mut off = Tracer::new(false, Instant::now());
        let mut rep = Replayer::new(Workload::SecuredManet, 9);
        rep.hops(0, 40, &mut off);
        assert_eq!(rep.tally.failed, 0, "{:?}", rep.tally);
        assert_eq!(rep.verify_ms.len(), 40);
        assert!(rep.tally.rejected > 0, "the two outsiders sign some hops");
        let mut rep = Replayer::new(Workload::CityModel, 9);
        rep.hops(0, 2000, &mut off);
        assert_eq!(rep.tally.failed, 0, "{:?}", rep.tally);
        assert!(rep.tally.rejected > 0);
    }
}
