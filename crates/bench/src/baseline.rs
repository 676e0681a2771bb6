//! Reading, writing, and regression-checking the committed benchmark
//! baselines (`BENCH_pairing.json`, `BENCH_throughput.json`,
//! `BENCH_batch.json` and `BENCH_sim.json` at the repository root),
//! plus the command line and gate every baseline-gated harness shares
//! ([`Opts`]).
//!
//! The workspace has no serde, so the format is a deliberately small
//! JSON subset written and parsed by hand: a `results` array of
//! `{"id": ..., "median_ns": ...}` objects. [`parse`] only needs to
//! read back what [`render`] wrote, but it is tolerant of whitespace
//! and field reordering so hand edits don't break the gate.

use std::path::PathBuf;
use std::process::ExitCode;

/// Median regression budget against the committed baseline.
const REGRESSION_FACTOR: f64 = 10.0;

/// One benchmark's committed number.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// `group/function` benchmark identifier.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
}

/// Renders entries as a committed JSON document under `schema` — each
/// baseline file carries its own tag so a stray copy can't silently
/// gate the wrong harness.
pub fn render(schema: &str, mode: &str, entries: &[Entry]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{schema}\",\n"));
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"id\": \"{}\", \"median_ns\": {:.1} }}{comma}\n",
            e.id, e.median_ns
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Parses a document produced by [`render`] (or a hand-edited variant)
/// back into entries. Unrecognized content is skipped; an object only
/// yields an entry when both `id` and `median_ns` are present.
pub fn parse(json: &str) -> Vec<Entry> {
    let mut entries = Vec::new();
    // Objects cannot nest in this schema, so splitting on braces after
    // the opening of the results array is unambiguous.
    let Some(results_at) = json.find("\"results\"") else {
        return entries;
    };
    let tail = &json[results_at..];
    for obj in tail.split('{').skip(1) {
        let Some(end) = obj.find('}') else { continue };
        let body = &obj[..end];
        let id = string_field(body, "id");
        let median = number_field(body, "median_ns");
        if let (Some(id), Some(median_ns)) = (id, median) {
            entries.push(Entry { id, median_ns });
        }
    }
    entries
}

/// Extracts a `"key": "value"` string field from an object body.
fn string_field(body: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let at = body.find(&pat)?;
    let after_colon = body[at + pat.len()..].split_once(':')?.1;
    let open = after_colon.find('"')?;
    let rest = &after_colon[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_owned())
}

/// Extracts a `"key": number` field from an object body.
fn number_field(body: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = body.find(&pat)?;
    let after_colon = body[at + pat.len()..].split_once(':')?.1;
    let token: String = after_colon
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect();
    token.parse().ok()
}

/// Compares current medians against the committed baseline and returns
/// one human-readable line per benchmark that regressed by more than
/// `factor`, and one per committed benchmark the run no longer produces
/// (a renamed or deleted row would otherwise gate nothing). Rows only
/// the current run has are ignored — adding a new benchmark must not
/// fail CI until its number is committed.
pub fn regressions(current: &[Entry], baseline: &[Entry], factor: f64) -> Vec<String> {
    let mut out = Vec::new();
    for base in baseline {
        let Some(cur) = current.iter().find(|c| c.id == base.id) else {
            out.push(format!(
                "{}: committed in the baseline but missing from this run \
                 (regenerate with --update-baseline if it was renamed or deleted)",
                base.id
            ));
            continue;
        };
        if base.median_ns > 0.0 && cur.median_ns > base.median_ns * factor {
            out.push(format!(
                "{}: {:.0} ns vs baseline {:.0} ns ({:.1}x > {factor}x budget)",
                cur.id,
                cur.median_ns,
                base.median_ns,
                cur.median_ns / base.median_ns
            ));
        }
    }
    out
}

/// The command line shared by the baseline-gated harnesses:
/// `[--smoke] [--update-baseline] [--baseline <path>]`.
#[derive(Debug)]
pub struct Opts {
    /// Shrink sample counts for CI.
    pub smoke: bool,
    /// Rewrite the baseline from this run instead of gating against it.
    pub update_baseline: bool,
    /// The baseline file to gate against or rewrite.
    pub baseline_path: PathBuf,
    /// Schema tag written into the baseline file.
    pub schema: &'static str,
}

impl Opts {
    /// Parses the process arguments for the harness whose committed
    /// baseline is `file` (at the repository root) under `schema`. An
    /// unknown flag or a `--baseline` without a path prints the usage
    /// and exits with code 2, so a typo never silently runs full mode.
    pub fn from_args(file: &str, schema: &'static str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let default_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file);
        match Self::parse(&args, default_path, schema) {
            Ok(opts) => opts,
            Err(err) => {
                eprintln!("{err}\nusage: [--smoke] [--update-baseline] [--baseline <path>]");
                std::process::exit(2);
            }
        }
    }

    /// Parses `args` (without the program name).
    fn parse(
        args: &[String],
        baseline_path: PathBuf,
        schema: &'static str,
    ) -> Result<Self, String> {
        let mut opts = Self {
            smoke: false,
            update_baseline: false,
            baseline_path,
            schema,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--update-baseline" => opts.update_baseline = true,
                "--baseline" => {
                    let path = args.next().ok_or("`--baseline` needs a path")?;
                    opts.baseline_path = PathBuf::from(path);
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(opts)
    }

    /// `"smoke"` or `"full"`, the mode tag of the baseline document.
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// The harness tail: with `--update-baseline`, writes `current` as
    /// the new baseline; otherwise gates `current` against the
    /// committed file at [`REGRESSION_FACTOR`]. A missing baseline
    /// file passes with a note.
    pub fn write_or_gate(&self, current: &[Entry]) -> ExitCode {
        let path = self.baseline_path.display();
        if self.update_baseline {
            let doc = render(self.schema, self.mode(), current);
            return match std::fs::write(&self.baseline_path, doc) {
                Ok(()) => {
                    println!("\nbaseline written to {path}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("\nfailed to write baseline {path}: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        let Ok(doc) = std::fs::read_to_string(&self.baseline_path) else {
            println!(
                "\nno committed baseline at {path} — run with --update-baseline to create one"
            );
            return ExitCode::SUCCESS;
        };
        let bad = regressions(current, &parse(&doc), REGRESSION_FACTOR);
        if bad.is_empty() {
            println!("\nno regression > {REGRESSION_FACTOR}x against {path}");
            ExitCode::SUCCESS
        } else {
            eprintln!("\nregressions against {path}:");
            for line in &bad {
                eprintln!("  {line}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    fn sample() -> Vec<Entry> {
        vec![
            Entry {
                id: "pairing/before_unprepared".into(),
                median_ns: 1_500_000.0,
            },
            Entry {
                id: "pairing/after_prepared".into(),
                median_ns: 900_000.0,
            },
        ]
    }

    #[test]
    fn render_parse_round_trip() {
        let doc = render("mccls-bench/throughput/v1", "full", &sample());
        assert_eq!(parse(&doc), sample());
        assert!(doc.contains("\"mode\": \"full\""));
        assert!(doc.contains("\"schema\": \"mccls-bench/throughput/v1\""));
    }

    #[test]
    fn parse_tolerates_reordered_fields_and_noise() {
        let doc = r#"{ "results": [
            { "median_ns": 42.5, "id": "a/b" },
            { "id": "incomplete" },
            { "median_ns": 7 }
        ] }"#;
        let entries = parse(doc);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].id, "a/b");
        assert!((entries[0].median_ns - 42.5).abs() < 1e-9);
    }

    #[test]
    fn regression_fires_only_past_the_factor() {
        let base = sample();
        let mut cur = sample();
        assert!(regressions(&cur, &base, 10.0).is_empty(), "parity is fine");
        cur[1].median_ns = base[1].median_ns * 11.0;
        let r = regressions(&cur, &base, 10.0);
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("pairing/after_prepared"));
        // A row only the current run has never fails the check.
        cur.push(Entry {
            id: "brand/new".into(),
            median_ns: 1.0,
        });
        cur[1].median_ns = base[1].median_ns;
        assert!(regressions(&cur, &base, 10.0).is_empty());
    }

    #[test]
    fn committed_rows_missing_from_the_run_are_findings() {
        let base = sample();
        let mut cur = sample();
        cur[1].id = "pairing/renamed".into();
        let r = regressions(&cur, &base, 10.0);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].starts_with("pairing/after_prepared: "), "{r:?}");
        assert!(r[0].contains("missing from this run"), "{r:?}");
        assert_eq!(regressions(&[], &base, 10.0).len(), 2);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn opts_parse_known_flags_and_reject_the_rest() {
        let default = PathBuf::from("BENCH_x.json");
        let schema = "mccls-bench/x/v1";
        let opts = Opts::parse(&[], default.clone(), schema).unwrap();
        assert!(!opts.smoke && !opts.update_baseline);
        assert_eq!(opts.baseline_path, default);
        assert_eq!(opts.mode(), "full");

        let opts = Opts::parse(
            &args(&["--smoke", "--baseline", "/tmp/b.json", "--update-baseline"]),
            default.clone(),
            schema,
        )
        .unwrap();
        assert!(opts.smoke && opts.update_baseline);
        assert_eq!(opts.baseline_path, PathBuf::from("/tmp/b.json"));
        assert_eq!(opts.mode(), "smoke");
        assert_eq!(opts.schema, schema);

        let typo = Opts::parse(&args(&["--smok"]), default.clone(), schema).unwrap_err();
        assert!(typo.contains("--smok"), "{typo}");
        let bare = Opts::parse(&args(&["--smoke", "--baseline"]), default, schema).unwrap_err();
        assert!(bare.contains("--baseline"), "{bare}");
    }
}
