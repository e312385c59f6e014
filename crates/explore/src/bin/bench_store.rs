//! Store benchmark: cold vs. warm search over the persistent evaluation
//! store, on `bench_lint`'s 224-design space.
//!
//! The scenario is the tentpole claim of the store layer, asserted hard:
//!
//! - a **cold** run (fresh store) simulates every design and writes each
//!   result back;
//! - a **fully-warm** run over the *reopened* store performs **zero**
//!   simulations yet produces a byte-identical Pareto front;
//! - a **half-warm** run (a second store seeded with every other entry)
//!   simulates exactly the missing half, same front again;
//! - an **independent rebuild** (a third store, cold) followed by
//!   deterministic compaction leaves all three store directories
//!   **byte-identical** — entry insertion order never leaks into the
//!   serialized files.
//!
//! The binary exits non-zero if any property fails, so CI regression
//! checks are the assertions themselves. `BENCH_store.json` layout: the
//! catalog, the three deterministic `ExploreReport` sections
//! (byte-diffable between commits), the comparison, and wall-clock
//! timing (non-deterministic, kept outside the reports).
//!
//! Run: `cargo run --release -p edc-explore --bin bench_store`
//! Output path override: `bench_store <path>` (default `BENCH_store.json`).
//! Store directories live under the system temp dir and are rebuilt from
//! scratch on every run.

#[path = "common/recordings.rs"]
mod recordings;
#[path = "common/space224.rs"]
mod space224;
#[path = "common/store.rs"]
mod store;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use edc_bench::{banner, MainError};
use edc_core::catalog::TraceCatalog;
use edc_core::json::Json;
use edc_explore::{
    CompletionTime, EnergyPerTask, ExhaustiveGrid, ExploreReport, Explorer, SpecSpace, Store,
};

use recordings::catalog;
use space224::space;

/// One exhaustive grid over the space, backed by the store at `dir`.
fn run(
    catalog: &TraceCatalog,
    space: &SpecSpace,
    dir: &Path,
) -> Result<(ExploreReport, f64), MainError> {
    let explorer = Explorer::new()
        .objective(CompletionTime)
        .objective(EnergyPerTask)
        .catalog(catalog.clone())
        .store(store::open(dir)?);
    let started = Instant::now();
    let report = explorer
        .run(space, &ExhaustiveGrid)
        .map_err(|e| format!("exploration failed: {e}"))?;
    Ok((report, started.elapsed().as_secs_f64()))
}

/// Compacts the store at `dir` so its file bytes are a pure function of
/// its contents.
fn compact(dir: &Path) -> Result<(), MainError> {
    let mut store =
        Store::open(dir).map_err(|e| format!("cannot reopen store at {}: {e}", dir.display()))?;
    store
        .compact()
        .map_err(|e| format!("compaction failed at {}: {e}", dir.display()))?;
    Ok(())
}

/// Every file in `dir` as sorted `(name, bytes)` pairs — the directory's
/// identity for byte-level comparison.
fn files(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, MainError> {
    let listing_failed = |e: std::io::Error| format!("cannot list {}: {e}", dir.display());
    let mut out: Vec<(String, Vec<u8>)> = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(listing_failed)? {
        let entry = entry.map_err(listing_failed)?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let bytes = std::fs::read(entry.path())
            .map_err(|e| format!("cannot read {}: {e}", entry.path().display()))?;
        out.push((name, bytes));
    }
    out.sort();
    Ok(out)
}

fn main() -> Result<(), MainError> {
    let path = edc_bench::artifact_path("BENCH_store.json");
    let root: PathBuf = std::env::temp_dir().join("edc-bench-store");
    let _ = std::fs::remove_dir_all(&root);
    let (dir_a, dir_b, dir_c) = (root.join("cold"), root.join("half"), root.join("rebuild"));

    let catalog = catalog()?;
    let space = space(&catalog)?;
    let designs = space.len() as u64;

    // Cold: a fresh store simulates everything and writes it all back.
    let (cold, cold_s) = run(&catalog, &space, &dir_a)?;
    if (cold.evaluations, cold.store_hits) != (designs, 0) {
        return Err("FAIL: cold run must simulate every design with zero store hits".into());
    }

    // Fully warm: reopen the store from disk — zero simulations, same
    // front. This is the tentpole claim: persistence replaces simulation
    // without perturbing the result.
    let (warm, warm_s) = run(&catalog, &space, &dir_a)?;
    if (warm.evaluations, warm.store_hits) != (0, designs) {
        return Err(
            "FAIL: fully-warm run must hit the store for every design and simulate nothing".into(),
        );
    }
    let objectives: Vec<String> = cold.objectives.clone();
    let cold_front = cold.front.to_json(&objectives);
    if warm.front.to_json(&objectives).to_string() != cold_front.to_string() {
        return Err("FAIL: fully-warm front differs from the cold front".into());
    }

    // Half-warm: a second store seeded with every other entry simulates
    // exactly the missing half.
    let seeded = {
        let source = Store::open(&dir_a)
            .map_err(|e| format!("cannot reopen store at {}: {e}", dir_a.display()))?;
        let mut target = Store::open(&dir_b)
            .map_err(|e| format!("cannot open store at {}: {e}", dir_b.display()))?;
        let mut seeded = 0u64;
        for entry in source.sorted_entries().iter().step_by(2) {
            let spec = Json::parse(&entry.spec_json)
                .map_err(|e| format!("stored spec is not valid JSON: {e}"))?;
            let scores: BTreeMap<String, f64> = entry.scores.clone();
            match target.put(&spec, entry.report.clone(), scores, entry.cost) {
                Ok(true) => seeded += 1,
                Ok(false) => {
                    return Err("FAIL: seeding a fresh store must append every entry".into())
                }
                Err(e) => {
                    return Err(format!("seeding failed: {e}").into());
                }
            }
        }
        seeded
    };
    let (half, half_s) = run(&catalog, &space, &dir_b)?;
    if (half.evaluations, half.store_hits) != (designs - seeded, seeded) {
        return Err("FAIL: half-warm run must simulate exactly the unseeded half".into());
    }
    if half.front.to_json(&objectives).to_string() != cold_front.to_string() {
        return Err("FAIL: half-warm front differs from the cold front".into());
    }

    // Independent rebuild: a third store built from scratch, in whatever
    // order the parallel evaluator writes back.
    let (rebuild, rebuild_s) = run(&catalog, &space, &dir_c)?;
    if (rebuild.evaluations, rebuild.store_hits) != (designs, 0) {
        return Err("FAIL: rebuild run must simulate every design with zero store hits".into());
    }

    // Deterministic compaction: all three stores now hold the same runs,
    // inserted in different orders; their files must end up
    // byte-identical.
    for dir in [&dir_a, &dir_b, &dir_c] {
        compact(dir)?;
    }
    let (files_a, files_b, files_c) = (files(&dir_a)?, files(&dir_b)?, files(&dir_c)?);
    let stores_identical = files_a == files_b && files_a == files_c;
    if !stores_identical {
        return Err("FAIL: compacted stores are not byte-identical".into());
    }
    let store_bytes: u64 = files_a.iter().map(|(_, bytes)| bytes.len() as u64).sum();

    banner("Store warm-start on bench_lint's 224-design space");
    println!(
        "cold:      {} sims, {} hits in {cold_s:.3} s",
        cold.evaluations, cold.store_hits
    );
    println!(
        "warm:      {} sims, {} hits in {warm_s:.3} s (front byte-identical)",
        warm.evaluations, warm.store_hits
    );
    println!(
        "half-warm: {} sims, {} hits in {half_s:.3} s ({seeded} entries seeded)",
        half.evaluations, half.store_hits
    );
    println!(
        "rebuild:   {} sims in {rebuild_s:.3} s; 3 compacted stores byte-identical \
         ({} files, {store_bytes} bytes each)",
        rebuild.evaluations,
        files_a.len()
    );

    edc_bench::banner("Metrics");
    print!("{}", edc_metrics::global().render_text());

    let artifact = edc_bench::artifact(
        "store",
        vec![
            ("catalog", catalog.to_json()),
            ("cold", cold.to_json()),
            ("warm", warm.to_json()),
            ("half_warm", half.to_json()),
            (
                "comparison",
                Json::obj(vec![
                    ("designs", Json::Uint(designs)),
                    ("fronts_identical", Json::Bool(true)),
                    ("cold_simulations", Json::Uint(cold.evaluations)),
                    ("warm_simulations", Json::Uint(warm.evaluations)),
                    ("warm_store_hits", Json::Uint(warm.store_hits)),
                    ("half_seeded", Json::Uint(seeded)),
                    ("half_simulations", Json::Uint(half.evaluations)),
                    ("half_store_hits", Json::Uint(half.store_hits)),
                    ("rebuild_simulations", Json::Uint(rebuild.evaluations)),
                    ("stores_identical", Json::Bool(stores_identical)),
                    ("store_files", Json::Uint(files_a.len() as u64)),
                    ("store_bytes", Json::Uint(store_bytes)),
                ]),
            ),
            // Non-deterministic section, deliberately outside the reports.
            (
                "timing",
                Json::obj(vec![
                    ("cold_s", Json::Num(cold_s)),
                    ("warm_s", Json::Num(warm_s)),
                    ("half_s", Json::Num(half_s)),
                    ("rebuild_s", Json::Num(rebuild_s)),
                ]),
            ),
        ],
    );
    edc_bench::write_artifact(&path, &artifact);
    Ok(())
}
