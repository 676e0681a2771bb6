//! What every workload reports, and the shared end-to-end assembly.

use crate::report::Values;
use crate::stats;
use crate::trace::Tracer;

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Base station verifying signed telemetry through the registry.
    Gateway,
    /// One node batch-verifying RREQ floods.
    BurstBatch,
    /// The paper's 20-node secured MANET with real signatures.
    SecuredManet,
    /// A 5,000-node secured MANET with the model provider.
    CityModel,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Gateway,
        Workload::BurstBatch,
        Workload::SecuredManet,
        Workload::CityModel,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Gateway => "gateway",
            Workload::BurstBatch => "burst_batch",
            Workload::SecuredManet => "secured_manet",
            Workload::CityModel => "city_model",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Nominal measuring time; workloads size their fixed work from it.
    pub seconds: u64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

impl RunCfg {
    /// Work units for a phase taking `share` of the run at `per_s` units
    /// per second on the reference host (at least `min`).
    pub fn units(&self, per_s: f64, share: f64, min: usize) -> usize {
        ((self.seconds as f64 * share * per_s).round() as usize).max(min)
    }

    /// When a phase sized for `share` of the run must stop early: at
    /// 1.2x its nominal length, so a slow host cannot stretch a run
    /// without bound.
    pub fn deadline(&self, share: f64) -> std::time::Instant {
        let secs = 1.2 * share * self.seconds as f64;
        std::time::Instant::now() + std::time::Duration::from_secs_f64(secs)
    }
}

/// Correctness bookkeeping shared by all workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (verdicts, sub-runs, replayed hops).
    pub attempted: u64,
    /// Wrong verdicts, errors, panics and oracle mismatches.
    pub failed: u64,
    /// Forged inputs that were accepted.
    pub false_accepts: u64,
    /// Forged inputs generated.
    pub injected: u64,
    /// Inputs rejected.
    pub rejected: u64,
}

impl Tally {
    /// Records one verdict against its ground truth.
    pub fn verdict(&mut self, valid: bool, accepted: bool) {
        self.attempted += 1;
        if !valid {
            self.injected += 1;
        }
        if !accepted {
            self.rejected += 1;
        }
        if valid != accepted {
            self.failed += 1;
            if accepted {
                self.false_accepts += 1;
            }
        }
    }

    /// Records one operation that errored or panicked.
    pub fn error(&mut self, valid: bool) {
        self.attempted += 1;
        self.failed += 1;
        if !valid {
            self.injected += 1;
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.false_accepts += o.false_accepts;
        self.injected += o.injected;
        self.rejected += o.rejected;
    }

    /// `(wrong verdicts + errors + mismatches) / attempted`.
    pub fn error_rate(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// What a workload hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    /// Correctness counts.
    pub tally: Tally,
    /// Metric values by name (end-to-end or per-layer, per mode).
    pub values: Values,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of the traced run, written out when the run ends.
    pub spans: Option<Tracer>,
}

/// The raw end-to-end measurements of an untraced run.
#[derive(Debug, Default)]
pub struct E2e {
    /// Verdicts settled per wall second.
    pub verify_per_s: f64,
    /// Per-verdict latencies, ms.
    pub verify_ms: Vec<f64>,
    /// Per-signature latencies, ms.
    pub sign_ms: Vec<f64>,
    /// Wall seconds per simulated (or modelled) second.
    pub sim_s_per_simsec: f64,
    /// Set-up repetitions, s.
    pub setup_s: Vec<f64>,
}

impl E2e {
    /// Reduces the raw measurements to the end-to-end metrics (all but
    /// `peak_rss_mb`, which `main` reads last), plus note lines.
    pub fn finish(mut self, tally: &Tally) -> (Values, Vec<String>) {
        stats::sort(&mut self.verify_ms);
        stats::sort(&mut self.sign_ms);
        let tail = stats::tail(&self.verify_ms);
        let mut v = Values::new();
        v.insert("verify_per_s".into(), self.verify_per_s);
        v.insert(
            "verify_p50_ms".into(),
            stats::percentile(&self.verify_ms, 50.0),
        );
        v.insert("verify_tail_ms".into(), tail.value);
        v.insert("sign_p50_ms".into(), stats::percentile(&self.sign_ms, 50.0));
        v.insert("sim_s_per_simsec".into(), self.sim_s_per_simsec);
        v.insert("setup_s".into(), stats::median(&self.setup_s));
        let notes = vec![
            format!(
                "verify_tail_ms is p{} over {} verdicts ({} beyond)",
                tail.percentile, tail.samples, tail.beyond
            ),
            format!(
                "sign_p50_ms over {} signatures; setup_s is the median of {} set-ups",
                self.sign_ms.len(),
                self.setup_s.len()
            ),
            format!(
                "error_rate = {} ({} failed of {} attempted; {} forged, {} rejected, {} false accepts)",
                tally.error_rate(),
                tally.failed,
                tally.attempted,
                tally.injected,
                tally.rejected,
                tally.false_accepts
            ),
        ];
        (v, notes)
    }
}

/// Maps `f` over `items` on two threads, keeping order. The load
/// generator uses it to make keys and signatures outside the timed
/// phases.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let half = items.len().div_ceil(2);
    let (a, b) = items.split_at(half);
    let f = &f;
    std::thread::scope(|scope| {
        let right = scope.spawn(move || b.iter().map(f).collect::<Vec<R>>());
        let mut out: Vec<R> = a.iter().map(f).collect();
        out.extend(right.join().expect("load-generator thread panicked"));
        out
    })
}

/// Inserts 0 for every per-layer metric starting with one of `prefixes`
/// that the workload did not measure: layers it never calls.
pub fn fill_unexercised(values: &mut Values, prefixes: &[&str]) {
    for (name, _) in crate::report::per_layer() {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            values.entry(name).or_insert(0.0);
        }
    }
}

/// Catches a panic from `f`, so one failing operation is counted
/// instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn false_accept_is_a_failure() {
        let mut t = Tally::default();
        t.verdict(true, true);
        t.verdict(false, false);
        assert_eq!(
            (t.failed, t.false_accepts, t.injected, t.rejected),
            (0, 0, 1, 1)
        );
        t.verdict(false, true);
        assert_eq!((t.failed, t.false_accepts), (1, 1));
        t.verdict(true, false);
        assert_eq!(t.failed, 2);
        assert_eq!(t.error_rate(), 0.5);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
