//! End-to-end and per-layer benchmark of the energy-driven workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-dense|sim-sparse|serve-mixed> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`) as the last line of standard output, one JSON object, and
//! exits non-zero when the output oracle fails. See `perfbench/README.md`.

mod gen;
mod layers;
mod oracle;
mod serve;
mod sims;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What one invocation measured and whether its outputs were right.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Overrides the recorded digest (proves that a mismatch fails a run).
    pub expect_digest: Option<u64>,
}

impl Args {
    /// The digest the run's outputs must hash to, if one is pinned.
    pub fn expected_digest(&self) -> Option<u64> {
        self.expect_digest.or_else(|| {
            (self.seed == oracle::DEFAULT_SEED)
                .then(|| oracle::recorded(&self.workload))
                .flatten()
        })
    }

    /// Scratch space inside the benchmark's own directory, unique to this
    /// process.
    pub fn work_dir(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("work-{}", std::process::id()))
    }

    /// Where the traced run writes its spans.
    pub fn span_path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.tsv", self.workload, self.seed))
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: oracle::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        expect_digest: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--expect-digest" => {
                args.expect_digest =
                    Some(u64::from_str_radix(&value, 16).map_err(|_| bad("16 hex digits"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Peak resident set size of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end metrics, the same on every workload. `setups` holds the
/// run's set-up times in seconds; `repeats` one row per pass (round) of the
/// time in milliseconds of each operation in it, in a fixed order: a cell of
/// the sweep, or a request of the serve script. Each operation is timed at
/// its slow-phase value across passes; `ops_per_s` weighs operations by
/// their time, `op_geomean_ms` counts each once, so a slower cheap
/// operation shows beside the costly ones that dominate throughput.
pub fn end_to_end(setups: &[f64], repeats: &[Vec<f64>]) -> Vec<Metric> {
    let ops_per_s = |times: &[f64]| times.len() as f64 / (times.iter().sum::<f64>() / 1e3);
    let rates: Vec<f64> = repeats.iter().map(|row| ops_per_s(row)).collect();
    let geomeans: Vec<f64> = repeats.iter().map(|row| stats::geomean(row)).collect();
    stats::print_reps(&[
        ("ops_per_s", &rates),
        ("op_geomean_ms", &geomeans),
        ("setup_s", setups),
    ]);
    let slow = stats::slow_times(repeats);
    vec![
        Metric::new(
            "setup_s",
            stats::percentile(setups, 1.0 - stats::SLOW_PHASE),
            "s",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("ops_per_s", ops_per_s(&slow), "1/s"),
        Metric::new("op_geomean_ms", stats::geomean(&slow), "ms"),
    ]
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sim-dense|sim-sparse|serve-mixed> [--seed N] \
                 [--seconds S] [--trace 0|1] [--expect-digest HEX]\n\
                 seeds: {} is the default, {} is held out from tuning",
                oracle::DEFAULT_SEED,
                oracle::HELD_OUT_SEED
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "sim-dense" | "sim-sparse" => sims::run(&args),
        "serve-mixed" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload '{other}' (sim-dense, sim-sparse, serve-mixed)");
            return ExitCode::from(2);
        }
    };
    for failure in &outcome.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }
    let correct = outcome.failures.is_empty();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        outcome.attempted.max(1),
        outcome.failures.len(),
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
