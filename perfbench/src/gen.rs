//! Seeded workload generation. The program under test only ever sees the
//! specs and request lines built here.

use edc_core::catalog::{TraceCatalog, TraceId};
use edc_core::experiment::ExperimentSpec;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_units::{Farads, Seconds};
use edc_workloads::WorkloadKind;

/// SplitMix64: small, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_0fed_c0de)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: u16, hi: u16) -> u16 {
        lo + self.below(u64::from(hi - lo) + 1) as u16
    }

    /// Uniform in `[lo, hi)`, rounded to a millesimal grid so specs print
    /// short, exact decimals.
    pub fn real(&mut self, lo: f64, hi: f64) -> f64 {
        let x = lo + (hi - lo) * (self.below(1 << 20) as f64 / (1u64 << 20) as f64);
        (x * 1000.0).round() / 1000.0
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A workload's two random streams. `shape` draws everything that drives
/// cost (which kernel, source, cost stratum or request sits where) from a
/// stream fixed per workload; `jitter` draws small moves inside those
/// strata from the seed. Two seeds' specs all differ, but cost alike, so
/// the spread across seeds is the host's, and each request keeps the
/// neighbours whose cache footprint its tail latency depends on.
struct Draws {
    shape: Rng,
    jitter: Rng,
}

impl Draws {
    fn new(seed: u64, workload: u64) -> Self {
        Self {
            shape: Rng::new(workload),
            jitter: Rng::new(seed ^ workload),
        }
    }
}

/// What the oracle demands of one simulated cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Must complete and pass the workload's golden-model verification.
    Complete,
    /// Must run to its deadline without completing (the restart-DNF cells).
    Dnf,
    /// May complete or run out of time; a completed run must verify.
    Either,
}

#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub spec: ExperimentSpec,
    pub expect: Expect,
}

/// The bursty office profile `bench_lint` plays back: strong 6 mW bursts
/// over 0.5 mW troughs, 2 ms apart.
pub fn catalog() -> (TraceCatalog, TraceId) {
    let mut catalog = TraceCatalog::new();
    let bursty: Vec<(f64, f64)> = (0..16)
        .map(|i| (i as f64 * 2e-3, if i % 4 < 2 { 6e-3 } else { 0.5e-3 }))
        .collect();
    let id = catalog
        .register("bursty-office", bursty)
        .expect("the bursty-office recording is well formed");
    (catalog, id)
}

/// `n` kernels covering `kinds` kernel kinds evenly, in a fixed order.
/// Each occurrence of a kind takes its own stratum of the kind's size range
/// (jittered inside it by the seed), so every seed gets the same mix and
/// its set-up and run costs repeat. `make(kind, occurrence, s)` builds one
/// kernel at stratum position `s` in `[0, 1)`.
fn kernels(
    draws: &mut Draws,
    n: usize,
    kinds: usize,
    make: fn(usize, usize, f64) -> WorkloadKind,
) -> Vec<WorkloadKind> {
    let mut out: Vec<WorkloadKind> = (0..n)
        .map(|i| {
            let (kind, occurrence) = (i % kinds, i / kinds);
            let count = (n - kind).div_ceil(kinds);
            let jitter = draws.jitter.real(0.25, 0.75);
            make(
                kind,
                occurrence,
                (occurrence as f64 + jitter) / count as f64,
            )
        })
        .collect();
    draws.shape.shuffle(&mut out);
    out
}

/// Large terminating kernels, in ranges whose golden models verify. Kinds
/// with two sizes alternate them by occurrence.
fn large_workload(kind: usize, occurrence: usize, s: f64) -> WorkloadKind {
    let int = |lo: u16, hi: u16| lo + (f64::from(hi - lo) * s) as u16;
    let pick = |a: u16, b: u16| if occurrence.is_multiple_of(2) { a } else { b };
    match kind {
        0 => WorkloadKind::Fourier(pick(128, 256)),
        1 => WorkloadKind::Crc16(int(2048, 4096)),
        2 => WorkloadKind::RadixFft(pick(128, 256)),
        3 => WorkloadKind::PrimeSieve(int(256, 512)),
        4 => WorkloadKind::MatMul,
        5 => WorkloadKind::BusyLoop(int(16384, 32767)),
        6 => WorkloadKind::InsertionSort(int(128, 256)),
        7 => WorkloadKind::DotProduct(pick(128, 256)),
        _ => WorkloadKind::FirFilter {
            n: int(128, 256),
            taps: pick(16, 32),
        },
    }
}

/// Small kernels: a few hundred instructions per boot on a weak supply.
fn small_workload(kind: usize, occurrence: usize, s: f64) -> WorkloadKind {
    let int = |lo: u16, hi: u16| lo + (f64::from(hi - lo) * s) as u16;
    match kind {
        0 => WorkloadKind::BusyLoop(int(4, 32)),
        1 => WorkloadKind::DotProduct(if occurrence.is_multiple_of(2) { 8 } else { 16 }),
        2 => WorkloadKind::Crc16(int(4, 16)),
        _ => WorkloadKind::PrimeSieve(int(8, 32)),
    }
}

/// `sim-dense`: strong supplies, large kernels, every strategy. The two
/// restart cells on the 50 Hz rectified sine never finish (restart
/// re-executes from scratch every half-cycle) and spend a million ticks
/// interpreting.
pub fn dense(seed: u64) -> Vec<Cell> {
    let mut draws = Draws::new(seed, 0xde75e);
    let mut cells: Vec<Cell> = [WorkloadKind::Fourier(64), WorkloadKind::Crc16(1024)]
        .into_iter()
        .map(|w| Cell {
            spec: ExperimentSpec::new(
                SourceKind::RectifiedSine { hz: 50.0 },
                StrategyKind::Restart,
                w,
            )
            .deadline(Seconds(20.0)),
            expect: Expect::Dnf,
        })
        .collect();
    let volts = draws.jitter.real(4.0, 4.5);
    let mut kernels =
        kernels(&mut draws, 4 * StrategyKind::ALL.len(), 9, large_workload).into_iter();
    for strategy in StrategyKind::ALL {
        for kernel in kernels.by_ref().take(4) {
            cells.push(Cell {
                spec: ExperimentSpec::new(SourceKind::Dc { volts }, strategy, kernel)
                    .deadline(Seconds(20.0)),
                expect: Expect::Complete,
            });
        }
    }
    cells
}

/// `sim-sparse`: weak or intermittent supplies with multi-second
/// deadlines; the node is off or charging on nearly every tick.
pub fn sparse(seed: u64, bursty: TraceId) -> Vec<Cell> {
    let mut draws = Draws::new(seed, 0x5ba5e);
    const SOURCES: usize = 5;
    let strategies = StrategyKind::ALL.len();
    // Kernels, deadlines and interruption rates are stratified per source,
    // so the supply scans and the simulated time a pass reaches repeat too.
    let kernels: Vec<Vec<WorkloadKind>> = (0..SOURCES)
        .map(|_| kernels(&mut draws, strategies, 4, small_workload))
        .collect();
    let hz = strata(&mut draws.shape, strategies);
    let deadlines: Vec<Vec<f64>> = (0..SOURCES)
        .map(|_| strata(&mut draws.shape, strategies))
        .collect();
    let mut cells = Vec::new();
    for (i, strategy) in StrategyKind::ALL.into_iter().enumerate() {
        let sources: [SourceKind; SOURCES] = [
            SourceKind::IndoorPv {
                seed: draws.shape.below(1 << 16),
            },
            SourceKind::OutdoorPv {
                seed: draws.shape.below(1 << 16),
            },
            SourceKind::Turbine,
            SourceKind::Interrupted {
                hz: ((0.2 + 0.8 * hz[i]) * 1000.0).round() / 1000.0,
            },
            SourceKind::Trace {
                id: bursty,
                decimate: 1 + (i % 2) as u64,
                looped: true,
            },
        ];
        for (j, source) in sources.into_iter().enumerate() {
            let stratum = 6.0 / strategies as f64;
            let lo = 4.0 + 6.0 * deadlines[j][i];
            cells.push(Cell {
                spec: ExperimentSpec::new(source, strategy, kernels[j][i])
                    .deadline(Seconds(draws.jitter.real(lo, lo + stratum))),
                expect: Expect::Either,
            });
        }
    }
    cells
}

/// One closed-loop client request of `serve-mixed`.
#[derive(Debug, Clone)]
pub struct Request {
    pub class: Class,
    /// The lines sent, one `handle_line` call each.
    pub lines: Vec<String>,
}

/// How the session must resolve a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Memo,
    Store,
    Sim,
    Lint,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Memo, Class::Store, Class::Sim, Class::Lint];

    pub fn name(self) -> &'static str {
        match self {
            Class::Memo => "memo",
            Class::Store => "store",
            Class::Sim => "sim",
            Class::Lint => "lint",
        }
    }

    pub fn per_round(self) -> usize {
        match self {
            Class::Memo | Class::Store => CHEAP_PER_ROUND,
            Class::Sim => SIMS_PER_ROUND,
            Class::Lint => LINTS_PER_ROUND,
        }
    }

    /// The `"source"` an evaluate response must carry (`None` for lint).
    pub fn source(self) -> Option<&'static str> {
        match self {
            Class::Memo => Some("memo"),
            Class::Store => Some("store"),
            Class::Sim => Some("simulated"),
            Class::Lint => None,
        }
    }
}

/// `memo` and `store` requests in one round. They cost tens of
/// microseconds, and the session's memo table grows by rehashing on a
/// handful of `store` requests per round; at 2000 a round those are a
/// fraction of a percent of the class.
pub const CHEAP_PER_ROUND: usize = 2000;
/// `sim` requests in one round: each costs milliseconds.
pub const SIMS_PER_ROUND: usize = 125;
/// `lint` requests in one round. With the `sim` requests they make a round
/// last about a second, so a run repeats each request dozens of times and
/// meets the host's slow phase.
pub const LINTS_PER_ROUND: usize = 500;
/// Specs seeded into the store before timing.
pub const STORE_ENTRIES: usize = 2500;

/// The serve workload for one seed: the specs seeded into the store before
/// timing, and one round of requests (every round replays it against a
/// fresh copy of that store).
pub struct ServePlan {
    pub store_specs: Vec<ExperimentSpec>,
    pub requests: Vec<Request>,
}

/// Always-terminating evaluate candidates on a strong DC supply. Stored
/// specs run a busy loop (under a millisecond each, so seeding the store
/// stays cheap); fresh `sim` specs run a 3000-4096-word CRC, a few
/// milliseconds each, so the ~1 ms scheduling jitter of the evaluator's
/// worker thread on a shared host stays small beside the simulation.
/// Hibernus++ is left out: its calibrated boot threshold sits above what
/// these supplies reach, which would make a second, slower cost mode.
fn evaluate_specs(draws: &mut Draws, n: usize, heavy: bool) -> Vec<ExperimentSpec> {
    const STRATEGIES: [StrategyKind; 6] = [
        StrategyKind::Restart,
        StrategyKind::Mementos,
        StrategyKind::Hibernus,
        StrategyKind::HibernusPn,
        StrategyKind::QuickRecall,
        StrategyKind::Nvp,
    ];
    const CAPS_UF: [f64; 3] = [4.7, 10.0, 22.0];
    let (lo, hi): (usize, usize) = if heavy { (3000, 4096) } else { (8000, 20000) };
    let mut specs: Vec<ExperimentSpec> = (0..n)
        .map(|i| {
            // One size per stratum, jittered inside it: sizes never repeat,
            // so neither do specs, and every seed covers the range alike.
            let size = (lo + (hi - lo) * i / n) as u16 + draws.jitter.int(0, 3);
            let workload = if heavy {
                WorkloadKind::Crc16(size)
            } else {
                WorkloadKind::BusyLoop(size)
            };
            ExperimentSpec::new(
                SourceKind::Dc { volts: 3.3 },
                STRATEGIES[i % STRATEGIES.len()],
                workload,
            )
            .decoupling(Farads::from_micro(draws.shape.pick(&CAPS_UF)))
            .deadline(Seconds(1.0))
        })
        .collect();
    draws.shape.shuffle(&mut specs);
    specs
}

/// A seeded permutation of `0..n`, as fractions of `n`: stratified draws
/// in `[0, 1)`.
fn strata(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order.into_iter().map(|k| k as f64 / n as f64).collect()
}

/// Lint candidates: weak and strong supplies over sub-second deadlines,
/// so both clean reports and `E`-coded ones occur. Source kinds,
/// workloads, sizes and deadlines are stratified, so every seed's mix
/// costs alike; the seed moves each deadline inside its stratum.
fn lint_specs(draws: &mut Draws, n: usize) -> Vec<ExperimentSpec> {
    let sizes = strata(&mut draws.shape, n);
    let deadlines = strata(&mut draws.shape, n);
    let mut specs: Vec<ExperimentSpec> = (0..n)
        .map(|i| {
            let size = sizes[i];
            let deadline = deadlines[i] + draws.jitter.real(0.0, 1.0) / n as f64;
            let source = match i % 4 {
                0 => SourceKind::IndoorPv {
                    seed: draws.shape.below(1 << 16),
                },
                1 => SourceKind::Turbine,
                2 => SourceKind::OutdoorPv {
                    seed: draws.shape.below(1 << 16),
                },
                _ => SourceKind::Dc {
                    volts: 2.0 + (1.6 * size * 1000.0).round() / 1000.0,
                },
            };
            let workload = match (i / 4) % 3 {
                0 => WorkloadKind::BusyLoop(100 + (900.0 * size) as u16),
                1 => WorkloadKind::Crc16(64 + (192.0 * size) as u16),
                _ => WorkloadKind::DotProduct(if size < 0.5 { 32 } else { 64 }),
            };
            ExperimentSpec::new(
                source,
                StrategyKind::ALL[i % StrategyKind::ALL.len()],
                workload,
            )
            .deadline(Seconds(0.3 + (0.7 * deadline * 1e4).round() / 1e4))
        })
        .collect();
    draws.shape.shuffle(&mut specs);
    specs
}

pub fn serve(seed: u64) -> ServePlan {
    let mut draws = Draws::new(seed, 0x5e7e);
    let store_specs = evaluate_specs(&mut draws, STORE_ENTRIES, false);
    let sim_specs = evaluate_specs(&mut draws, SIMS_PER_ROUND, true);
    let mut lint_specs = lint_specs(&mut draws, LINTS_PER_ROUND).into_iter();
    let rng = &mut draws.shape;

    // Blocks of 16 memo, 16 store, 1 sim and 4 lint requests, each block
    // shuffled.
    let block: Vec<Class> = Class::ALL
        .iter()
        .flat_map(|&c| std::iter::repeat_n(c, c.per_round() / SIMS_PER_ROUND))
        .collect();
    let mut order = Vec::with_capacity(block.len() * SIMS_PER_ROUND);
    for _ in 0..SIMS_PER_ROUND {
        let mut b = block.clone();
        rng.shuffle(&mut b);
        order.extend(b);
    }
    // A memo hit needs an earlier resolution in the same round.
    if let Some(first) = order
        .iter()
        .position(|&c| c != Class::Memo && c != Class::Lint)
    {
        order[..=first].rotate_right(1);
    }

    let evaluate = |id: usize, spec: &ExperimentSpec| {
        vec![
            format!(r#"{{"id":{id},"op":"evaluate","spec":{}}}"#, spec.to_json()),
            String::new(),
        ]
    };
    let (mut next_store, mut next_sim) = (0, 0);
    let mut resolved: Vec<ExperimentSpec> = Vec::new();
    let mut requests = Vec::with_capacity(order.len());
    for (id, class) in order.into_iter().enumerate() {
        let lines = match class {
            Class::Memo => evaluate(id, &resolved[rng.below(resolved.len() as u64) as usize]),
            Class::Store | Class::Sim => {
                let spec = if class == Class::Store {
                    next_store += 1;
                    store_specs[next_store - 1]
                } else {
                    next_sim += 1;
                    sim_specs[next_sim - 1]
                };
                resolved.push(spec);
                evaluate(id, &spec)
            }
            Class::Lint => vec![format!(
                r#"{{"id":{id},"op":"lint","spec":{}}}"#,
                lint_specs
                    .next()
                    .expect("one lint spec per lint request")
                    .to_json()
            )],
        };
        requests.push(Request { class, lines });
    }
    ServePlan {
        store_specs,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{DEFAULT_SEED, HELD_OUT_SEED};

    #[test]
    fn both_documented_seeds_generate_valid_workloads() {
        let (catalog, bursty) = catalog();
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for cell in dense(seed).iter().chain(&sparse(seed, bursty)) {
                assert_eq!(cell.spec.validate_in(&catalog), Ok(()), "{:?}", cell.spec);
            }
            let plan = serve(seed);
            for class in Class::ALL {
                let n = plan.requests.iter().filter(|r| r.class == class).count();
                assert_eq!(
                    n,
                    class.per_round(),
                    "seed {seed}: {} requests",
                    class.name()
                );
            }
            // The first evaluate must resolve something a memo hit can repeat.
            assert!(matches!(plan.requests[0].class, Class::Store | Class::Sim));
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a: Vec<String> = serve(9)
            .requests
            .into_iter()
            .flat_map(|r| r.lines)
            .collect();
        let b: Vec<String> = serve(9)
            .requests
            .into_iter()
            .flat_map(|r| r.lines)
            .collect();
        assert_eq!(a, b);
        assert_ne!(
            a,
            serve(10)
                .requests
                .into_iter()
                .flat_map(|r| r.lines)
                .collect::<Vec<_>>()
        );
    }
}
