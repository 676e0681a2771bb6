//! The McCLS benchmark driver.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gateway|burst_batch|secured_manet|city_model> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, drives them through
//! the public APIs of `mccls-core`, `mccls-pairing` and `mccls-aodv`,
//! checks every verdict against the generator's ground truth (or the
//! sim against its oracle), and ends with one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 on any false accept, wrong verdict or oracle mismatch, and 2
//! on bad arguments. See `perfbench/README.md`.

mod burst;
mod gateway;
mod gen;
mod probe;
mod report;
mod sims;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Provenance, END_TO_END};
use workload::{RunCfg, Workload};

const USAGE: &str = "usage: perfbench --workload <gateway|burst_batch|secured_manet|city_model> \
                     --seed <u64> --seconds <1..600> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<RunCfg, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunCfg {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Provenance::detect();
    let ref_before = report::ref_kernel_ns();
    let outcome = match cfg.workload {
        Workload::Gateway => gateway::run(&cfg),
        Workload::BurstBatch => burst::run(&cfg),
        Workload::SecuredManet | Workload::CityModel => sims::run(&cfg),
    };
    let ref_after = report::ref_kernel_ns();
    let mut values = outcome.values;
    let wanted: Vec<(String, &'static str)> = if cfg.trace {
        values.insert(
            "host.ref_kernel_ns".to_owned(),
            (ref_before + ref_after) / 2.0,
        );
        report::per_layer()
    } else {
        if let Some(rss) = report::peak_rss_mb() {
            values.insert("peak_rss_mb".to_owned(), rss);
        }
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };

    println!(
        "{}",
        host.line(
            cfg.workload.name(),
            cfg.seed,
            cfg.seconds,
            cfg.trace,
            (ref_before, ref_after)
        )
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }
    if let Some(spans) = &outcome.spans {
        let path = PathBuf::from("perfbench/out").join(format!(
            "spans-{}-{}.tsv",
            cfg.workload.name(),
            cfg.seed
        ));
        match spans.write_tsv(&path) {
            Ok(()) => println!(
                "note: {} spans written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => println!("note: spans not written to {}: {e}", path.display()),
        }
    }
    let result = report::Result::assemble(
        &wanted,
        &values,
        outcome.tally.attempted,
        outcome.tally.failed,
    );
    for (name, unit, value) in &result.metrics {
        println!("metric {name} = {value} {unit}");
    }
    for name in &result.missing {
        println!("note: metric {name} was not measured");
    }
    if outcome.tally.false_accepts > 0 {
        println!("note: {} false accepts", outcome.tally.false_accepts);
    }
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunCfg, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cfg = parse(&[
            "--workload",
            "city_model",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(cfg.workload, Workload::CityModel);
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (9, 10, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--seed", "1"],
            &["--workload", "gateway"],
            &["--workload", "gateway", "--seed", "x"],
            &["--workload", "gateway", "--seed", "1", "--trace", "2"],
            &["--workload", "gateway", "--seed", "1", "--seconds", "0"],
            &["--workload", "gateway", "--seed"],
            &["--workload", "gateway", "--seed", "1", "--bogus", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
