//! Shared plumbing for the figure-regeneration binaries (`all_figures`,
//! `ablations`): CLI parsing and the standard sweep configurations.
//!
//! `all_figures` reproduces all five figures of the paper's evaluation
//! section from shared sweeps; run it with `cargo run --release -p
//! mccls-bench --bin all_figures` (add `-- --trials 5 --seed 7` to
//! override defaults).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod harness;

use mccls_aodv::experiment::{sweep, AttackKind, SweepSeries, PAPER_SPEEDS};
use mccls_aodv::Protocol;

/// Options common to all figure binaries.
#[derive(Debug, Clone, Copy)]
pub struct FigureOpts {
    /// Independent trials pooled per (speed, configuration) point.
    pub trials: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for FigureOpts {
    fn default() -> Self {
        Self {
            trials: 3,
            seed: 2008,
        }
    }
}

impl FigureOpts {
    /// Parses `--trials N` and `--seed N` from the process arguments,
    /// ignoring anything it does not recognize.
    pub fn from_args() -> Self {
        let mut opts = Self::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--trials" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.trials = v;
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.seed = v;
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        opts
    }
}

/// Runs the two no-attack series (AODV, McCLS) used by Figures 1–3.
pub fn baseline_series(opts: FigureOpts) -> Vec<SweepSeries> {
    vec![
        sweep(
            Protocol::Aodv,
            AttackKind::None,
            &PAPER_SPEEDS,
            opts.trials,
            opts.seed,
        ),
        sweep(
            Protocol::McClsSecured,
            AttackKind::None,
            &PAPER_SPEEDS,
            opts.trials,
            opts.seed,
        ),
    ]
}

/// Runs the four attacked series (AODV/McCLS × black hole/rushing) used
/// by Figures 4 and 5.
pub fn attack_series(opts: FigureOpts) -> Vec<SweepSeries> {
    vec![
        sweep(
            Protocol::Aodv,
            AttackKind::BlackHole2,
            &PAPER_SPEEDS,
            opts.trials,
            opts.seed,
        ),
        sweep(
            Protocol::Aodv,
            AttackKind::Rushing2,
            &PAPER_SPEEDS,
            opts.trials,
            opts.seed,
        ),
        sweep(
            Protocol::McClsSecured,
            AttackKind::BlackHole2,
            &PAPER_SPEEDS,
            opts.trials,
            opts.seed,
        ),
        sweep(
            Protocol::McClsSecured,
            AttackKind::Rushing2,
            &PAPER_SPEEDS,
            opts.trials,
            opts.seed,
        ),
    ]
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn default_opts() {
        let o = FigureOpts::default();
        assert_eq!(o.trials, 3);
        assert_eq!(o.seed, 2008);
    }
}
