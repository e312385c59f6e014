//! `edc_timeline` — run spec JSON from disk and export a Perfetto trace.
//!
//! Usage: `edc_timeline [-o OUT.perfetto.json] FILE.json`
//!
//! The file is parsed and walked recursively, with the same document scan
//! as `edc_lint`. Arrays whose every element carries
//! `name`/`hash`/`samples` are merged into one shared trace catalog
//! (`TraceCatalog::merge_sections`), so trace-backed specs resolve
//! exactly as they do under the linter. Objects carrying
//! `field`/`design`/`nodes` are treated as fleet specs and deployed — one
//! Perfetto track (process) per node; objects carrying
//! `source`/`strategy`/`workload`/`decoupling_f` are treated as single
//! experiment specs — one track each. Every run is forced onto
//! [`TelemetryKind::Timeline`] telemetry, so the export carries lifecycle
//! phase slices, event instants, and stored-energy/supply-power counters.
//!
//! The output (default: the input path with `.json` replaced by
//! `.perfetto.json`) is classic Chrome trace-event JSON, loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>. Timestamps are
//! simulation time, so the file is byte-identical across repeated runs.
//!
//! With `--metrics PATH` the process's metrics registry (runner lifecycle
//! counters, sweep/fleet fan-out counters, catalog registrations) is
//! written to `PATH` as OpenMetrics text on exit.

use std::process::ExitCode;

use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::fleet::FleetSpec;
use edc_core::json::Json;
use edc_core::Telemetry;
use edc_core::TelemetryKind;
use edc_fleet::Fleet;
use edc_obs::PerfettoTrace;

const USAGE: &str = "usage: edc_timeline [-o OUT.perfetto.json] [--metrics PATH] FILE.json";

fn main() -> ExitCode {
    let mut out: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-o" | "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics" => match args.next() {
                Some(path) => metrics_path = Some(path),
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if file.is_none() => file = Some(arg),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(file) = file else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };

    let doc = match std::fs::read_to_string(&file) {
        Ok(text) => match Json::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("{file}: not valid JSON: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut catalog = TraceCatalog::new();
    for problem in catalog.merge_sections(&doc) {
        eprintln!("{file}: {problem}");
    }

    let mut trace = PerfettoTrace::new();
    if let Err(msg) = render(&doc, "$", &catalog, &mut trace) {
        eprintln!("{file}: {msg}");
        return ExitCode::FAILURE;
    }
    if trace.tracks() == 0 {
        eprintln!("{file}: no experiment or fleet specs found");
        return ExitCode::FAILURE;
    }

    let out = out.unwrap_or_else(|| default_out(&file));
    if let Err(e) = std::fs::write(&out, format!("{}\n", trace.to_json())) {
        eprintln!("could not write {out}: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &metrics_path {
        // The runs above record runner/sweep/fleet counters into the
        // process-wide registry; dump the full exposition (quarantined
        // wall gauges included) for offline inspection.
        if let Err(e) = std::fs::write(path, edc_metrics::global().render_text_full()) {
            eprintln!("could not write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "edc_timeline: {} track(s), {} trace event(s) -> {out}",
        trace.tracks(),
        trace.len()
    );
    ExitCode::SUCCESS
}

/// `FILE.json` → `FILE.perfetto.json`; other extensions just append.
fn default_out(file: &str) -> String {
    match file.strip_suffix(".json") {
        Some(stem) => format!("{stem}.perfetto.json"),
        None => format!("{file}.perfetto.json"),
    }
}

/// True for an object that looks like `FleetSpec::to_json` output.
fn is_fleet_object(json: &Json) -> bool {
    json.get("field").is_some() && json.get("design").is_some() && json.get("nodes").is_some()
}

/// Walks `json`, running every fleet or experiment spec it finds with
/// timeline telemetry and adding one track per run to `trace`.
fn render(
    json: &Json,
    path: &str,
    catalog: &TraceCatalog,
    trace: &mut PerfettoTrace,
) -> Result<(), String> {
    if is_fleet_object(json) {
        let mut spec = FleetSpec::from_json(json, catalog)
            .map_err(|e| format!("{path}: unparseable fleet spec: {e}"))?;
        spec.design = spec.design.telemetry(TelemetryKind::Timeline);
        let deadline = spec.design.deadline;
        let report = Fleet::new(spec)
            .catalog(catalog.clone())
            .run()
            .map_err(|e| format!("{path}: {e}"))?;
        for (i, node) in report.nodes.iter().enumerate() {
            if let Some(Telemetry::Timeline(tl)) = &node.telemetry {
                let end = node.stats.completed_at.unwrap_or(deadline);
                trace.add_track(&format!("node{i}"), tl, end);
            }
        }
        return Ok(());
    }
    if ExperimentSpec::is_spec_json(json) {
        let spec = ExperimentSpec::from_json(json, catalog)
            .map_err(|e| format!("{path}: unparseable experiment spec: {e}"))?
            .telemetry(TelemetryKind::Timeline);
        let report = spec.run_in(catalog).map_err(|e| format!("{path}: {e}"))?;
        if let Some(Telemetry::Timeline(tl)) = &report.telemetry {
            let end = report.stats.completed_at.unwrap_or(spec.deadline);
            trace.add_track(&spec.label(), tl, end);
        }
        return Ok(());
    }
    match json {
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                render(item, &format!("{path}[{i}]"), catalog, trace)?;
            }
        }
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                render(v, &format!("{path}.{k}"), catalog, trace)?;
            }
        }
        _ => {}
    }
    Ok(())
}
