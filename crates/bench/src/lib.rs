//! Shared helpers for the figure/table regeneration binaries and the
//! Criterion benches.
//!
//! Each binary in `src/bin/` regenerates one figure or claim from the paper
//! (see DESIGN.md's per-experiment index) and prints its data as aligned
//! text plus TSV blocks that external plotting tools can consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod sweep;

pub use diff::{diff_artifacts, DiffReport, Policy, Rule};
pub use sweep::{par_map, render_json, render_text, SweepRow, SweepRun, SweepTiming};

use std::fmt::Display;

use edc_core::json::Json;

/// Version of the BENCH artifact envelope written by [`artifact`]. Bump it
/// whenever the meaning or layout of a shared section changes, so
/// [`diff_artifacts`] flags a cross-version comparison as a schema
/// difference instead of a forest of spurious leaf diffs.
pub const SCHEMA_VERSION: u64 = 1;

/// Wraps a BENCH binary's sections in the versioned artifact envelope:
/// `bench` (the artifact's name) and `schema` ([`SCHEMA_VERSION`]) first,
/// then the sections in the given order.
///
/// # Examples
///
/// ```
/// use edc_core::json::Json;
///
/// let artifact = edc_bench::artifact(
///     "example",
///     vec![("cells", Json::Uint(12))],
/// );
/// let text = artifact.to_string();
/// assert!(text.starts_with("{\"bench\":\"example\",\"schema\":"));
/// assert!(text.ends_with("\"cells\":12}"));
/// ```
pub fn artifact(name: &str, sections: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("bench", Json::Str(name.into())),
        ("schema", Json::Uint(SCHEMA_VERSION)),
    ];
    pairs.extend(sections);
    Json::obj(pairs)
}

/// The artifact path a BENCH binary writes to: the first CLI argument, or
/// `default` (the committed-baseline name) when none is given. CI passes a
/// `target/`-prefixed path so committed baselines are only rewritten when
/// intentionally regenerated.
///
/// # Examples
///
/// ```
/// let path = edc_bench::artifact_path("BENCH_example.json");
/// assert!(path.ends_with(".json"));
/// ```
pub fn artifact_path(default: &str) -> String {
    std::env::args()
        .nth(1)
        .unwrap_or_else(|| default.to_string())
}

/// CLI arguments shared by the BENCH binaries that can warm-start from a
/// persistent evaluation store: the artifact output path (the positional
/// argument, or the committed-baseline `default` when absent) plus the
/// optional `--store DIR` flag naming an `edc-store` directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Where the artifact is written.
    pub path: String,
    /// Directory of the persistent evaluation store, when `--store` was
    /// given. Store-backed runs also assert their Pareto fronts against
    /// the committed cold artifact.
    pub store: Option<String>,
}

/// Parses `[path] [--store DIR]` (in either order) from an argument
/// iterator. The testable core of [`bench_args`].
///
/// # Errors
///
/// Returns a usage message for a `--store` with no value, an unknown
/// flag, or a second positional argument.
///
/// # Examples
///
/// ```
/// use edc_bench::bench_args_from;
///
/// let args = ["--store", "runs/store", "out.json"].map(String::from);
/// let parsed = bench_args_from(args.into_iter(), "BENCH_example.json").unwrap();
/// assert_eq!(parsed.path, "out.json");
/// assert_eq!(parsed.store.as_deref(), Some("runs/store"));
///
/// let parsed = bench_args_from(std::iter::empty(), "BENCH_example.json").unwrap();
/// assert_eq!(parsed.path, "BENCH_example.json");
/// assert_eq!(parsed.store, None);
///
/// assert!(bench_args_from(["--store"].map(String::from).into_iter(), "d").is_err());
/// ```
pub fn bench_args_from(
    mut args: impl Iterator<Item = String>,
    default: &str,
) -> Result<BenchArgs, String> {
    let mut path: Option<String> = None;
    let mut store: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => match args.next() {
                Some(dir) => store = Some(dir),
                None => return Err("--store needs a directory argument".into()),
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            positional => {
                if path.is_some() {
                    return Err(format!("unexpected extra argument {positional}"));
                }
                path = Some(positional.to_string());
            }
        }
    }
    Ok(BenchArgs {
        path: path.unwrap_or_else(|| default.to_string()),
        store,
    })
}

/// Parses the process arguments as `[path] [--store DIR]` — the
/// store-aware superset of [`artifact_path`]. Prints usage and exits
/// with status 2 when the arguments do not parse.
pub fn bench_args(default: &str) -> BenchArgs {
    match bench_args_from(std::env::args().skip(1), default) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: <bench> [ARTIFACT_PATH] [--store DIR]");
            std::process::exit(2);
        }
    }
}

/// Loads section `section` of the committed artifact at `committed`,
/// for store-backed BENCH runs that assert warm results byte-identical
/// to the committed cold ones.
///
/// # Errors
///
/// Fails when the artifact is missing, unparsable, or lacks the section,
/// so CI cannot mistake a skipped comparison for a passing one.
pub fn committed_section(committed: &str, section: &str) -> Result<Json, MainError> {
    let text = std::fs::read_to_string(committed)
        .map_err(|e| format!("cannot read committed artifact {committed}: {e}"))?;
    let json = Json::parse(&text)
        .map_err(|e| format!("committed artifact {committed} is not valid JSON: {e}"))?;
    json.get(section)
        .cloned()
        .ok_or_else(|| format!("committed artifact {committed} has no section {section:?}").into())
}

/// Checks that `front` is byte-identical to the `front` member of
/// section `section` in the committed artifact at `committed` — the
/// warm-start contract of the `--store` flag: a store-backed search must
/// reproduce the committed cold Pareto front exactly. Logs the check.
///
/// # Errors
///
/// Fails on any mismatch, or when the committed front cannot be read.
pub fn assert_front_matches(committed: &str, section: &str, front: &Json) -> Result<(), MainError> {
    let committed_front = committed_section(committed, section)?;
    let committed_front = committed_front
        .get("front")
        .ok_or_else(|| format!("committed section {section:?} of {committed} has no front"))?;
    if committed_front.to_string() != front.to_string() {
        return Err(format!(
            "FAIL: store-backed {section} front differs from committed {committed}"
        )
        .into());
    }
    println!("store: {section} front byte-identical to committed {committed}");
    Ok(())
}

/// Writes a BENCH artifact (the JSON plus a trailing newline) to `path`,
/// logging the destination. Exits the process with status 1 when the write
/// fails, so CI never mistakes a missing artifact for success.
///
/// # Examples
///
/// ```no_run
/// use edc_core::json::Json;
///
/// let artifact = Json::obj(vec![("bench", Json::Str("example".into()))]);
/// edc_bench::write_artifact("target/BENCH_example.json", &artifact);
/// ```
pub fn write_artifact(path: &str, artifact: &Json) {
    match std::fs::write(path, format!("{artifact}\n")) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The error a harness binary's `main` returns. It is made from any
/// displayable error by `?` and prints as that error's message, so a
/// failing `main` exits with status 1 after `Error: <message>`.
pub struct MainError(String);

impl<E: Display> From<E> for MainError {
    fn from(e: E) -> Self {
        MainError(e.to_string())
    }
}

impl std::fmt::Debug for MainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A minimal aligned-text table builder for harness output.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<D: Display>(&mut self, cells: &[D]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Prints a section banner so multi-part harness output is scannable.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Logarithmically spaced sweep points.
///
/// # Panics
///
/// Panics unless `0 < lo < hi` and `n ≥ 2`.
pub fn log_space(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo && n >= 2);
    (0..n)
        .map(|i| lo * (hi / lo).powf(i as f64 / (n - 1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["a", "1"]);
        t.row(&["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].ends_with("1"));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn log_space_endpoints() {
        let v = log_space(1.0, 100.0, 3);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[1] - 10.0).abs() < 1e-9);
        assert!((v[2] - 100.0).abs() < 1e-9);
    }
}
