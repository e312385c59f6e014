//! `edc_lint` — lint experiment-spec and trace-catalog JSON from disk.
//!
//! Usage: `edc_lint [--json] FILE.json [FILE.json ...]`
//!
//! Each file is parsed and walked recursively. Arrays whose every element
//! carries `name`/`hash`/`samples` are treated as trace-catalog sections
//! and merged into one shared catalog (across *all* files, so a catalog
//! committed in one artifact resolves traces referenced by another).
//! Objects carrying `source`/`strategy`/`workload`/`decoupling_f` are
//! treated as experiment specs and linted; diagnostics are printed with
//! the file and the spec's JSON path. Exit status is non-zero when any
//! `E`-severity diagnostic (or a malformed file/spec) is found.
//!
//! With `--json` the combined reports are emitted as a single JSON object
//! keyed by file path instead of text lines. With `--bounds` each spec's
//! static score brackets from the shared interval engine are printed next
//! to its diagnostics (in text mode as extra lines; in JSON mode each
//! file's value becomes `{"lint": ..., "bounds": {path: ...}}`). With
//! `--metrics PATH` the process's metrics registry (files linted,
//! diagnostics by severity, the catalog's registration counters) is
//! written to `PATH` as OpenMetrics text on exit.

use std::process::ExitCode;

use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::json::Json;
use edc_lint::{Code, Diagnostic, LintReport, Linter};

const USAGE: &str =
    "usage: edc_lint [--json] [--bounds] [--metrics PATH] FILE.json [FILE.json ...]";

/// Per-file output: the file path, its lint report, and (with `--bounds`)
/// the `(spec path, bound-report JSON)` pairs found in it.
type FileReport = (String, LintReport, Vec<(String, Json)>);

fn main() -> ExitCode {
    let mut json_output = false;
    let mut bounds_output = false;
    let mut metrics_path: Option<String> = None;
    let mut files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_output = true,
            "--bounds" => bounds_output = true,
            "--metrics" => match args.next() {
                Some(path) => metrics_path = Some(path),
                None => {
                    eprintln!("--metrics needs a path argument\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }

    // Pass 1: parse every file and merge every catalog section found.
    let mut parsed: Vec<(String, Option<Json>)> = Vec::new();
    let mut catalog = TraceCatalog::new();
    let mut io_errors = false;
    for file in files {
        let doc = match std::fs::read_to_string(&file) {
            Ok(text) => match Json::parse(&text) {
                Ok(doc) => Some(doc),
                Err(e) => {
                    eprintln!("{file}: not valid JSON: {e}");
                    io_errors = true;
                    None
                }
            },
            Err(e) => {
                eprintln!("{file}: {e}");
                io_errors = true;
                None
            }
        };
        if let Some(doc) = &doc {
            for problem in catalog.merge_sections(doc) {
                eprintln!("{file}: {problem}");
            }
        }
        parsed.push((file, doc));
    }

    // Pass 2: lint every spec object against the merged catalog.
    let mut linter = Linter::with_catalog(catalog);
    let mut reports: Vec<FileReport> = Vec::new();
    for (file, doc) in &parsed {
        let mut report = LintReport::new();
        let mut bounds = Vec::new();
        if let Some(doc) = doc {
            lint_specs(
                doc,
                "$",
                &mut linter,
                &mut report,
                bounds_output.then_some(&mut bounds),
            );
        }
        reports.push((file.clone(), report, bounds));
    }

    let registry = edc_metrics::global();
    registry
        .counter("edc_lint_files", "Files linted.", &[])
        .inc_by(reports.len() as u64);
    registry
        .counter(
            "edc_lint_diagnostics",
            "Diagnostics emitted, by severity.",
            &[("severity", "error")],
        )
        .inc_by(reports.iter().map(|(_, r, _)| r.error_count() as u64).sum());
    registry
        .counter(
            "edc_lint_diagnostics",
            "Diagnostics emitted, by severity.",
            &[("severity", "warning")],
        )
        .inc_by(
            reports
                .iter()
                .map(|(_, r, _)| r.warning_count() as u64)
                .sum(),
        );
    if let Some(path) = &metrics_path {
        if let Err(e) = std::fs::write(path, registry.render_text_full()) {
            eprintln!("could not write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let any_errors = io_errors || reports.iter().any(|(_, r, _)| r.has_errors());
    if json_output {
        let obj = Json::Obj(
            reports
                .into_iter()
                .map(|(file, r, bounds)| {
                    // The plain shape stays byte-stable unless --bounds
                    // opts into the nested one.
                    let value = if bounds_output {
                        Json::Obj(vec![
                            ("lint".to_string(), r.to_json()),
                            ("bounds".to_string(), Json::Obj(bounds)),
                        ])
                    } else {
                        r.to_json()
                    };
                    (file, value)
                })
                .collect(),
        );
        println!("{obj}");
    } else {
        let mut total = (0usize, 0usize);
        for (file, report, bounds) in &reports {
            for d in report.diagnostics() {
                println!("{file}: {d}");
            }
            for (path, bracket) in bounds {
                println!("{file}: {path}: bounds {bracket}");
            }
            total.0 += report.error_count();
            total.1 += report.warning_count();
        }
        println!(
            "edc_lint: {} error(s), {} warning(s) across {} file(s)",
            total.0,
            total.1,
            reports.len(),
        );
    }
    if any_errors {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Walks `json` linting every spec object, merging diagnostics (prefixed
/// with the spec's JSON path) into `report`. When `bounds` is `Some`, each
/// spec's static score brackets are appended to it, keyed by the same path
/// (specs the interval engine cannot bound — invalid ones — are skipped;
/// their `E001` diagnostics already tell the story).
fn lint_specs(
    json: &Json,
    path: &str,
    linter: &mut Linter,
    report: &mut LintReport,
    mut bounds: Option<&mut Vec<(String, Json)>>,
) {
    if ExperimentSpec::is_spec_json(json) {
        match ExperimentSpec::from_json(json, linter.catalog()) {
            Ok(spec) => {
                report.merge_prefixed(path, linter.lint_spec(&spec));
                if let Some(bounds) = bounds {
                    if let Some(bound) = linter.bounder().bound_spec(&spec) {
                        bounds.push((path.to_string(), bound.to_json()));
                    }
                }
            }
            Err(msg) => report.push(Diagnostic::new(
                Code::E001,
                path,
                format!("unparseable experiment spec: {msg}"),
            )),
        }
        return;
    }
    match json {
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                lint_specs(
                    item,
                    &format!("{path}[{i}]"),
                    linter,
                    report,
                    bounds.as_deref_mut(),
                );
            }
        }
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                lint_specs(
                    v,
                    &format!("{path}.{k}"),
                    linter,
                    report,
                    bounds.as_deref_mut(),
                );
            }
        }
        _ => {}
    }
}
