//! Metric names, the result line, and run provenance.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("verify_per_s", "1/s"),
    ("verify_p50_ms", "ms"),
    ("verify_tail_ms", "ms"),
    ("sign_p50_ms", "ms"),
    ("sim_s_per_simsec", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The `core.ops.<op>` rows.
pub const OPS: [&str; 4] = ["sign", "register", "verify", "batch_per_sig"];

/// The `core.ops.<op>.<counter>` columns.
pub const COUNTERS: [&str; 6] = [
    "miller_loops",
    "final_exps",
    "g1_muls",
    "g2_muls",
    "gt_exps",
    "hashes_to_g1",
];

/// Per-layer metrics other than `core.ops.*`, printed by every traced
/// run: `(name, unit)`.
pub const LAYERS: [(&str, &str); 37] = [
    ("pairing.fp.mul_ns", "ns"),
    ("pairing.fp2.mul_ns", "ns"),
    ("pairing.fp12.mul_ns", "ns"),
    ("pairing.pairing_unprepared_us", "us"),
    ("pairing.miller_loop_prepared_us", "us"),
    ("pairing.final_exp_us", "us"),
    ("pairing.g2_prepare_us", "us"),
    ("pairing.g1_mul_us", "us"),
    ("pairing.g2_mul_us", "us"),
    ("pairing.g2_mul_fixed_us", "us"),
    ("pairing.g1_mul_ct_us", "us"),
    ("pairing.g2_mul_ct_us", "us"),
    ("pairing.hash_to_g1_us", "us"),
    ("core.params.h2_scalar_us", "us"),
    ("core.verify.unattributed_frac", "fraction"),
    ("core.mccls.sign_us", "us"),
    ("core.registry.verify_us", "us"),
    ("core.registry.register_us", "us"),
    ("core.registry.hit_frac", "fraction"),
    ("core.registry.thread_scaling", "ratio"),
    ("core.batch.absorb_us", "us"),
    ("core.batch.flush_us", "us"),
    ("core.batch.per_sig_us", "us"),
    ("core.batch.miller_loops_per_sig", "count"),
    ("core.batch.isolation_checks", "count"),
    ("core.batch.unchecked", "count"),
    ("core.batch.cold_per_sig_us", "us"),
    ("core.batch.warm_per_sig_us", "us"),
    ("sim.events", "count"),
    ("sim.event_ns", "ns"),
    ("aodv.signatures_made", "count"),
    ("aodv.signatures_checked", "count"),
    ("aodv.auth_rejected", "count"),
    ("aodv.rreq_forwarded", "count"),
    ("aodv.crypto_est_share", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("host.ref_kernel_ns", "ns"),
];

/// Every per-layer metric, `core.ops.*` included, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for op in OPS {
        for counter in COUNTERS {
            out.push((format!("core.ops.{op}.{counter}"), "count"));
        }
    }
    out.extend(LAYERS.iter().map(|&(n, u)| (n.to_owned(), u)));
    out
}

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Values a workload measured, by metric name.
pub type Values = BTreeMap<String, f64>;

/// The final result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Result {
    /// No wrong verdict, error, panic or oracle mismatch, and every
    /// metric present and finite.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// `(name, unit, value)` in print order.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Expected metrics the workload did not produce (or produced
    /// non-finite, or under an illegal name).
    pub missing: Vec<String>,
}

impl Result {
    /// Picks `wanted` out of `values`; anything absent or non-finite
    /// makes the result incorrect.
    pub fn assemble(
        wanted: &[(String, &'static str)],
        values: &Values,
        attempted: u64,
        failed: u64,
    ) -> Self {
        let mut metrics = Vec::new();
        let mut missing = Vec::new();
        for (name, unit) in wanted {
            match values.get(name) {
                Some(v) if v.is_finite() && valid_name(name) => {
                    metrics.push((name.clone(), *unit, *v))
                }
                _ => missing.push(name.clone()),
            }
        }
        Self {
            correct: failed == 0 && missing.is_empty() && attempted > 0,
            attempted,
            failed,
            metrics,
            missing,
        }
    }

    /// The one-line JSON object the run ends with.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// A fixed std-only kernel timed before and after each run: four
/// independent 64x64->128-bit multiply chains, the operation the field
/// arithmetic is made of, so a host whose multipliers are contended
/// shows it here. Returns the median nanoseconds per step over seven
/// repetitions.
pub fn ref_kernel_ns() -> f64 {
    const STEPS: u64 = 1 << 18;
    let k = std::hint::black_box(0xD1B5_4A32_D192_ED03u64);
    let mut lanes = std::hint::black_box([1u64, 2, 3, 4]);
    let mut reps = Vec::with_capacity(7);
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..STEPS {
            for x in &mut lanes {
                let wide = u128::from(*x) * u128::from(k);
                *x = (wide as u64) ^ ((wide >> 64) as u64);
            }
        }
        reps.push(t.elapsed().as_nanos() as f64 / STEPS as f64);
        lanes = std::hint::black_box(lanes);
    }
    crate::stats::median(&reps)
}

/// Peak resident set (`VmHWM`) of this process in MiB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// CPU model string.
    pub cpu: String,
    /// Whether the CPU reports AVX2.
    pub avx2: bool,
    /// Whether the CPU reports AVX-512 IFMA.
    pub avx512ifma: bool,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// The field-arithmetic kernel the pairing crate dispatches to.
    pub backend: &'static str,
}

impl Provenance {
    /// Reads the host description.
    pub fn detect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        };
        let flags = field("flags").unwrap_or_default();
        let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
        Self {
            cpu: field("model name").unwrap_or_else(|| "unknown".to_owned()),
            avx2: has("avx2"),
            avx512ifma: has("avx512ifma"),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            backend: mccls_pairing::backend::active(),
        }
    }

    /// The provenance line, with the run's own parameters.
    pub fn line(
        &self,
        workload: &str,
        seed: u64,
        seconds: u64,
        trace: bool,
        refs: (f64, f64),
    ) -> String {
        format!(
            "provenance {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
             \"trace\": {trace}, \"cpu\": \"{}\", \"avx2\": {}, \"avx512ifma\": {}, \"nproc\": {}, \
             \"backend\": \"{}\", \"ref_kernel_ns_before\": {}, \"ref_kernel_ns_after\": {}}}",
            self.cpu.replace(['"', '\\'], ""),
            self.avx2,
            self.avx512ifma,
            self.nproc,
            self.backend,
            refs.0,
            refs.1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the benchmark")
    }

    #[test]
    fn every_emitted_name_is_legal_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "a metric name repeats");
        assert!(count <= 7 + 128);
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        for bad in [
            "",
            "-lead",
            "has space",
            "semi;colon",
            "quote\"",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name("core.ops.sign.g1_muls"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = benchmark_json();
        for (name, unit) in END_TO_END {
            let row = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&row), "end-to-end {name} missing");
        }
        for (name, unit) in per_layer() {
            let row = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&row), "per-layer {name} missing");
        }
        let rows = json.matches("\"name\": ").count();
        let workloads = json.matches("\"why\": ").count();
        assert_eq!(rows, workloads + END_TO_END.len() + per_layer().len());
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let wanted: Vec<(String, &'static str)> =
            vec![("a_ms".to_owned(), "ms"), ("b".to_owned(), "count")];
        let mut values = Values::new();
        values.insert("a_ms".to_owned(), 1.25);
        values.insert("b".to_owned(), 3.0);
        let r = Result::assemble(&wanted, &values, 10, 0);
        assert!(r.correct);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a_ms\": \
             {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        values.insert("b".to_owned(), f64::NAN);
        let r = Result::assemble(&wanted, &values, 10, 0);
        assert!(!r.correct);
        assert_eq!(r.missing, ["b"]);
        let r = Result::assemble(&wanted, &Values::new(), 10, 1);
        assert!(!r.correct);
    }

    #[test]
    fn ref_kernel_is_positive() {
        assert!(ref_kernel_ns() > 0.0);
    }
}
