//! The baseline-gated harnesses share one command line: a mistyped flag
//! or a `--baseline` with no path must stop the run with exit code 2
//! before any benchmark work, never fall through to full mode.

// Tests may panic freely; that is how they fail.
#![allow(clippy::expect_used)]

use std::process::Command;

#[test]
fn bad_arguments_exit_with_code_2() {
    let harnesses = [
        env!("CARGO_BIN_EXE_pairing_precompute"),
        env!("CARGO_BIN_EXE_throughput"),
        env!("CARGO_BIN_EXE_batch"),
        env!("CARGO_BIN_EXE_sim"),
    ];
    for bin in harnesses {
        for args in [&["--smok"][..], &["--smoke", "--baseline"]] {
            let status = Command::new(bin)
                .args(args)
                .output()
                .expect("harness binary runs")
                .status;
            assert_eq!(status.code(), Some(2), "{bin} {args:?}");
        }
    }
}
