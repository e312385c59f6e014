//! `serve-mixed`: one closed-loop client driving `ServeSession::handle_line`
//! the way `edc_serve`'s stdin loop does, against a store seeded before
//! timing. Every round replays the same request script against a fresh
//! copy of that store, so every round's response stream hashes alike.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use edc_bound::Bounder;
use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::json::Json;
use edc_explore::evaluator::Evaluator;
use edc_explore::objective::{CompletionTime, EnergyPerTask, Objective};
use edc_explore::serve::ServeSession;
use edc_lint::Linter;
use edc_store::{key_hash, Store, StoreHandle};

use crate::gen::{self, Class, Request, ServePlan};
use crate::layers::{self, ratio, SimTotals};
use crate::oracle::{self, DigestCheck};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{end_to_end, Args, Metric, Outcome};

/// Evaluate lines per flush while seeding the store.
const SEED_BATCH: usize = 50;

/// A session ready to serve, and how long it took to get there.
struct Round {
    session: ServeSession,
    store: StoreHandle,
    registry: edc_metrics::Registry,
    open_ns: f64,
    setup_s: f64,
    entries: usize,
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    if to.exists() {
        fs::remove_dir_all(to)?;
    }
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Evaluates every store spec through a session of its own and compacts
/// the result, as a previous `edc_serve` process would have left it.
fn seed_store(plan: &ServePlan, dir: &Path, failures: &mut Vec<String>) {
    let store = Store::open(dir).expect("the seed store directory opens");
    let mut session = ServeSession::new().threads(1).store(store.into_handle());
    for batch in plan.store_specs.chunks(SEED_BATCH) {
        for spec in batch {
            session.handle_line(&format!(r#"{{"op":"evaluate","spec":{}}}"#, spec.to_json()));
        }
        for response in session.handle_line("") {
            if !response.contains(r#""source":"simulated""#) {
                failures.push(format!("seeding the store: {response}"));
            }
        }
    }
    session.finish();
}

/// Pins the `index`th round to its CPU, opens a fresh copy of the seeded
/// store and starts a session on it; the copy is plumbing, the open and
/// session start are the set-up.
fn start_round(seed_dir: &Path, round_dir: &Path, index: usize) -> Round {
    if !pin_round(index) && index == 0 {
        eprintln!("perfbench: could not pin to one CPU; latencies include cross-core wake-ups");
    }
    copy_dir(seed_dir, round_dir).expect("the seeded store copies");
    let started = Instant::now();
    let store = Store::open(round_dir).expect("the seeded store opens");
    let open_ns = started.elapsed().as_nanos() as f64;
    let entries = store.len();
    let store = store.into_handle();
    let registry = edc_metrics::Registry::new();
    let session = ServeSession::new()
        .threads(1)
        .store(store.clone())
        .metrics(registry.clone());
    Round {
        session,
        store,
        registry,
        open_ns,
        setup_s: started.elapsed().as_secs_f64(),
        entries,
    }
}

/// Sends one request's lines and collects the responses.
fn send(session: &mut ServeSession, request: &Request) -> Vec<String> {
    let mut out = Vec::with_capacity(1);
    for line in &request.lines {
        out.extend(session.handle_line(line));
    }
    out
}

/// A request must get exactly one successful response, resolved the way
/// its class demands.
fn check_response(request: &Request, responses: &[String]) -> Result<(), String> {
    let [response] = responses else {
        return Err(format!("{} responses to one request", responses.len()));
    };
    let resolved = match request.class.source() {
        Some(source) => response.contains(&format!(r#""source":"{source}""#)),
        None => response.contains(r#""op":"lint""#),
    };
    if response.contains(r#""ok":true"#) && resolved {
        Ok(())
    } else {
        Err(format!(
            "{} request answered {response}",
            request.class.name()
        ))
    }
}

/// The CPUs this process may run on, as it started.
fn allowed_cpus() -> Vec<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16]; // a 1024-CPU `cpu_set_t`
                               // SAFETY: `mask` is a live buffer of exactly the size passed, and pid 0
                               // names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Keeps this thread, and every thread it spawns from now on, on one CPU:
/// for round `round`, the next of the CPUs the process started with, in
/// turn. The evaluator starts a worker thread per batch even at
/// `threads(1)`; pinned, that worker runs as soon as the client blocks on
/// it, instead of queueing for the other shared core, so latencies measure
/// the program rather than cross-core wake-ups. The host's cores go
/// through their slow phases independently, so a run pinned to one core
/// for good read that core's state: whole runs came out up to 1.5x apart.
/// Taking the cores in turn gives every run a share of each. Returns
/// whether the kernel accepted the mask.
fn pin_round(round: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    let cpus = CPUS.get_or_init(allowed_cpus);
    if cpus.is_empty() {
        return false;
    }
    let cpu = cpus[round % cpus.len()];
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

pub fn run(args: &Args) -> Outcome {
    let plan = gen::serve(args.seed);
    let work = args.work_dir();
    let seed_dir = work.join("seed");
    let round_dir = work.join("round");
    let mut failures = Vec::new();
    let _ = fs::remove_dir_all(&work);
    seed_store(&plan, &seed_dir, &mut failures);
    let seed_bytes: u64 = fs::read_dir(&seed_dir)
        .and_then(|entries| entries.map(|e| Ok(e?.metadata()?.len())).sum())
        .expect("the seeded store lists");
    let outcome = if args.trace {
        traced(args, &plan, &seed_dir, &round_dir, seed_bytes, failures)
    } else {
        measured(args, &plan, &seed_dir, &round_dir, failures)
    };
    let _ = fs::remove_dir_all(&work);
    outcome
}

fn measured(
    args: &Args,
    plan: &ServePlan,
    seed_dir: &Path,
    round_dir: &Path,
    mut failures: Vec<String>,
) -> Outcome {
    let mut digests = DigestCheck::new(args.expected_digest());
    let mut setups = Vec::new();
    // Per round, the latency of every request of the script, in its order.
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let mut round = start_round(seed_dir, round_dir, rounds.len());
        setups.push(round.setup_s);
        let mut latencies = Vec::with_capacity(plan.requests.len());
        let mut stream = Vec::with_capacity(plan.requests.len());
        for request in &plan.requests {
            let t = Instant::now();
            let responses = send(&mut round.session, request);
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = check_response(request, &responses) {
                failures.push(e);
            }
            stream.extend(responses);
        }
        rounds.push(latencies);
        digests.check(oracle::digest(stream), &mut failures);
    }
    println!(
        "digest serve-mixed: {:016x} (seed {}, {} requests per round)",
        digests.first(),
        args.seed,
        plan.requests.len(),
    );
    Outcome {
        attempted: (rounds.len() * plan.requests.len()) as u64,
        failures,
        metrics: end_to_end(&setups, &rounds),
    }
}

/// Sums of the replayed layer calls over a traced run.
#[derive(Default)]
struct ServeTotals {
    host_ns: f64,
    parse: (f64, f64),
    emit: (f64, f64),
    from_json_ns: f64,
    key: (f64, u64),
    evaluate: (f64, u64),
    evaluate_self_ns: f64,
    get: (f64, u64),
    put: (f64, u64),
    lint: (f64, u64),
    lint_errors: u64,
    bound: (f64, u64),
    render: (f64, u64),
    serve_self: BTreeMap<Class, (f64, u64)>,
    sims: SimTotals,
}

/// Replays the layer calls one request made, as children of its span.
#[allow(clippy::too_many_arguments)]
fn replay_request(
    request: &Request,
    responses: &[String],
    span: SpanId,
    id: u64,
    round: &Round,
    scratch: &mut Store,
    catalog: &TraceCatalog,
    objectives: &[Box<dyn Objective>],
    tracer: &mut Tracer,
    t: &mut ServeTotals,
) {
    let mut children = 0.0;
    let line = &request.lines[0];
    let (json, s) = tracer.leaf("json.parse", Some(span), id, || Json::parse(line));
    let json = json.expect("generated request lines parse");
    t.parse.0 += tracer.duration_ns(s);
    t.parse.1 += line.len() as f64;
    children += tracer.duration_ns(s);
    let spec_json = json.get("spec").expect("every request carries a spec");
    let (spec, s) = tracer.leaf("core.from_json", Some(span), id, || {
        ExperimentSpec::from_json(spec_json, catalog)
    });
    let spec = spec.expect("generated specs decode");
    t.from_json_ns += tracer.duration_ns(s);
    children += tracer.duration_ns(s);

    match request.class {
        Class::Memo | Class::Store | Class::Sim => {
            let (_, s) = tracer.leaf("core.spec_key", Some(span), id, || {
                key_hash(&spec.to_json().to_string())
            });
            t.key.0 += tracer.duration_ns(s);
            t.key.1 += 1;
            children += tracer.duration_ns(s);
        }
        Class::Lint => {}
    }
    match request.class {
        Class::Memo => {}
        Class::Store => {
            let eval = tracer.begin("explore.evaluate", Some(span), id);
            let mut evaluator = Evaluator::new(objectives, 1, None, spec.timestep)
                .with_catalog(catalog.clone())
                .with_store(round.store.clone());
            let evaluation = evaluator.evaluate(vec![spec], "serve").expect("store hit");
            tracer.end(eval);
            let key = &evaluation[0].key;
            let (_, get) = tracer.leaf("store.get", Some(eval), id, || {
                round.store.lock().expect("store lock").get(key).is_some()
            });
            let eval_ns = tracer.duration_ns(eval);
            t.evaluate.0 += eval_ns;
            t.evaluate.1 += 1;
            t.get.0 += tracer.duration_ns(get);
            t.get.1 += 1;
            t.evaluate_self_ns += eval_ns - tracer.duration_ns(get);
            children += eval_ns;
        }
        Class::Sim => {
            let eval = tracer.begin("explore.evaluate", Some(span), id);
            let mut evaluator =
                Evaluator::new(objectives, 1, None, spec.timestep).with_catalog(catalog.clone());
            let evaluation = evaluator.evaluate(vec![spec], "serve").expect("simulates");
            tracer.end(eval);
            let canonical = evaluation[0].spec;
            let run = tracer.begin("transient.run", Some(eval), id);
            let sim = layers::run_traced(&canonical, catalog, tracer, Some(run), id);
            tracer.end(run);
            let calibrate = tracer.begin("calibrate", None, id);
            let units = layers::replay(&canonical, catalog, &sim, tracer, Some(calibrate), id);
            tracer.end(calibrate);
            t.sims.add(&sim, units);
            t.evaluate_self_ns += tracer.duration_ns(eval) - tracer.duration_ns(run);
            children += tracer.duration_ns(eval);

            let entry = round
                .store
                .lock()
                .expect("store lock")
                .get(&evaluation[0].key)
                .cloned()
                .expect("the session wrote the simulation back");
            let spec_value = Json::parse(&entry.spec_json).expect("stored specs parse");
            let (_, put) = tracer.leaf("store.put", Some(span), id, || {
                scratch.put(&spec_value, entry.report, entry.scores, entry.cost)
            });
            t.put.0 += tracer.duration_ns(put);
            t.put.1 += 1;
            children += tracer.duration_ns(put);
        }
        Class::Lint => {
            let lint = tracer.begin("lint.lint_spec", Some(span), id);
            let report = Linter::with_catalog(catalog.clone()).lint_spec(&spec);
            tracer.end(lint);
            let (_, bound) = tracer.leaf("bound.bound_spec", Some(lint), id, || {
                Bounder::with_catalog(catalog.clone()).bound_spec(&spec)
            });
            t.lint.0 += tracer.duration_ns(lint);
            t.lint.1 += 1;
            t.lint_errors += u64::from(report.has_errors());
            t.bound.0 += tracer.duration_ns(bound);
            t.bound.1 += 1;
            children += tracer.duration_ns(lint);
        }
    }
    for response in responses {
        let value = Json::parse(response).expect("responses are JSON");
        let (text, s) = tracer.leaf("json.emit", Some(span), id, || value.to_string());
        t.emit.0 += tracer.duration_ns(s);
        t.emit.1 += text.len() as f64;
        children += tracer.duration_ns(s);
    }
    let own = t.serve_self.entry(request.class).or_default();
    own.0 += tracer.duration_ns(span) - children;
    own.1 += 1;
}

fn traced(
    args: &Args,
    plan: &ServePlan,
    seed_dir: &Path,
    round_dir: &Path,
    seed_bytes: u64,
    mut failures: Vec<String>,
) -> Outcome {
    let (catalog, _) = gen::catalog();
    let objectives: Vec<Box<dyn Objective>> =
        vec![Box::new(CompletionTime), Box::new(EnergyPerTask)];
    let scratch_dir = args.work_dir().join("scratch");
    let mut tracer = Tracer::new();
    let mut t = ServeTotals::default();
    let (mut open_ns, mut entries) = (Vec::new(), 0);
    let (mut rounds, mut attempted, mut store_hits, mut sims) = (0u64, 0u64, 0u64, 0u64);
    let mut digests = DigestCheck::new(args.expected_digest());
    let started = Instant::now();
    while rounds == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let mut round = start_round(seed_dir, round_dir, rounds as usize);
        open_ns.push(round.open_ns);
        entries = round.entries;
        let _ = fs::remove_dir_all(&scratch_dir);
        let mut scratch = Store::open(&scratch_dir).expect("the scratch store opens");
        let mut stream = Vec::with_capacity(plan.requests.len());
        for (i, request) in plan.requests.iter().enumerate() {
            let id = rounds * plan.requests.len() as u64 + i as u64;
            let span = tracer.begin(request.class.name(), None, id);
            let responses = send(&mut round.session, request);
            tracer.end(span);
            t.host_ns += tracer.duration_ns(span);
            if let Err(e) = check_response(request, &responses) {
                failures.push(e);
            }
            store_hits += u64::from(request.class == Class::Store);
            sims += u64::from(request.class == Class::Sim);
            replay_request(
                request,
                &responses,
                span,
                id,
                &round,
                &mut scratch,
                &catalog,
                &objectives,
                &mut tracer,
                &mut t,
            );
            stream.extend(responses);
        }
        let (_, render) = tracer.leaf("metrics.render", None, rounds, || {
            round.registry.render_text()
        });
        t.render.0 += tracer.duration_ns(render);
        t.render.1 += 1;
        digests.check(oracle::digest(stream), &mut failures);
        attempted += plan.requests.len() as u64;
        rounds += 1;
    }
    if let Err(e) = tracer.write(&args.span_path()) {
        failures.push(format!("writing spans: {e}"));
    }

    let mean_us = |(ns, n): (f64, u64)| ratio(ns, n as f64) / 1e3;
    let mut measured = Vec::new();
    t.sims.metrics(rounds, &mut measured);
    measured.extend([
        Metric::new(
            "json.parse_ns_per_byte",
            ratio(t.parse.0, t.parse.1),
            "ns/B",
        ),
        Metric::new("json.emit_ns_per_byte", ratio(t.emit.0, t.emit.1), "ns/B"),
        Metric::new("core.spec_key_us", mean_us(t.key), "us"),
        Metric::new("explore.evaluate_us", mean_us(t.evaluate), "us"),
        Metric::new("store.get_us", mean_us(t.get), "us"),
        Metric::new(
            "store.hit_ratio",
            ratio(store_hits as f64, (store_hits + sims) as f64),
            "ratio",
        ),
        Metric::new("store.put_us", mean_us(t.put), "us"),
        Metric::new(
            "store.open_ns_per_byte",
            median(&open_ns) / seed_bytes as f64,
            "ns/B",
        ),
        Metric::new("store.entries", entries as f64, "count"),
        Metric::new("lint.us_per_spec", mean_us(t.lint), "us"),
        Metric::new("bound.us_per_spec", mean_us(t.bound), "us"),
        Metric::new(
            "lint.error_share",
            ratio(t.lint_errors as f64, t.lint.1 as f64),
            "ratio",
        ),
        Metric::new("metrics.render_us", mean_us(t.render), "us"),
    ]);
    for (class, own) in &t.serve_self {
        measured.push(Metric::new(
            &format!("serve.self_us.{}", class.name()),
            mean_us(*own),
            "us",
        ));
        measured.push(Metric::new(
            &format!("serve.count.{}", class.name()),
            own.1 as f64 / rounds as f64,
            "count",
        ));
    }
    let serve_self: f64 = t.serve_self.values().map(|(ns, _)| ns).sum();
    let mut self_ns = t.sims.shares().to_vec();
    self_ns.extend([
        ("edc-explore", serve_self + t.evaluate_self_ns),
        ("edc-core", t.parse.0 + t.emit.0 + t.from_json_ns + t.key.0),
        ("edc-store", t.get.0 + t.put.0),
        ("edc-lint", t.lint.0 - t.bound.0),
        ("edc-bound", t.bound.0),
    ]);
    Outcome {
        attempted,
        failures,
        metrics: layers::finish(&args.workload, &tracer, measured, &self_ns, t.host_ns),
    }
}
