//! `edc-bound`: sound interval abstract interpretation of experiment-spec
//! dynamics.
//!
//! The linter (`edc-lint`) answers the boolean question "could this design
//! possibly work"; this crate answers the quantitative one "how well could
//! it possibly do". For a valid [`ExperimentSpec`] the [`Bounder`] derives
//! a [`BoundReport`] — one [`ScoreBracket`] `{lo, hi}` per built-in
//! objective — by propagating interval closed forms through the supply
//! (per-sample Thévenin/power/current envelopes), the storage RC, the
//! strategy's rail thresholds and the workload's cycle demand. Every
//! bracket is **sound**: the simulated score of the spec provably lands in
//! `[lo, hi]` (lower-is-better scores; `INFINITY` encodes "did not
//! finish").
//!
//! The arithmetic here is the single source of truth the linter's
//! `E002`–`E005` passes are built from (the linter is a thin client that
//! formats [`DynamicsFacts`] into diagnostics), and what the explore
//! evaluator's branch-and-bound pruning consumes: a candidate whose
//! objective *lower* bounds are dominated by an already-simulated exact
//! score can be scored statically, because its true score can only be
//! worse.
//!
//! # Bound derivations
//!
//! - **Supply energy upper bound**: the supply node integrates charge, so
//!   one tick's stored-energy gain is `i·dt·v₀ + (i·dt)²/(2C)`. Both terms
//!   are bounded per sample kind — a Thévenin source by its maximum power
//!   transfer `v_oc²/(4r)`, a constant-power sample by `p` itself (current
//!   is clamped at `p / 0.2 V`, so `i·v ≤ p` uniformly), a current source
//!   by `i·v_compliance` — with the discretisation term added explicitly.
//! - **Rail upper bound**: the voltage after one tick is a convex
//!   combination of `v₀` and the (rectified) open-circuit voltage when
//!   `η·dt/(rC) ≤ 1`, and bounded by `v_oc·η·dt/(rC)` otherwise; current
//!   sources cannot exceed compliance plus one tick of charge;
//!   constant-power samples are unbounded (the bound collapses to the
//!   overvoltage clamp). A full-window rail bound below the strategy's
//!   restore threshold proves the MCU never executes.
//! - **Boot-time lower bound**: the node starts at 0 V and boots when the
//!   rail reaches `v_high`, i.e. when the stored energy reaches
//!   `C·v_high²/2`. Stored energy at tick `k` is at most the cumulative
//!   per-tick supply upper bound, so the first tick whose cumulative bound
//!   reaches the boot energy is a lower bound on the boot tick — and a
//!   full window that never reaches it proves the MCU never powers on
//!   (which pins the brownout count and outage tail to exactly zero:
//!   brownouts and outages are only recorded after a boot).
//! - **Cycle lower bound**: a bare run's cycle count is *the* demand in
//!   cycles (frequency- and residence-independent); the runner grants at
//!   most `⌊f_max·dt⌋ + 1` cycles per tick over at most `⌊deadline/dt⌋ +
//!   1` ticks, so completion at tick-start time `m·dt` needs
//!   `(m+1)·per_tick_ub ≥ demand`.
//! - **Energy lower bound**: a completed run's consumed energy is at least
//!   the execution energy of its cycle demand at the cheapest clock level
//!   with zero boot/restore/checkpoint overhead; a run that does not
//!   complete scores `INFINITY`, which any lower bound is below.
//!
//! # The supply scan
//!
//! The scan samples the source in batches of 256 ticks. After the first
//! batch (which always runs tick by tick: a strong supply settles the
//! verdicts within a few ticks), a batch whose samples are all
//! bit-identical to its first (DC, a PV cell at night, a calm turbine, a
//! trace plateau) is evaluated once: its per-tick energy bound `e` and
//! rail bound are computed once, the rail maximum is updated once (`max`
//! is idempotent), and the running energy sum `s` advances in closed form
//! to the next threshold it can cross (boot energy, then the demand) with
//! [`edc_units::advance`], bit-identical to adding `e` once per tick (its
//! docs give the argument). Batches whose samples vary (a gust, a
//! rectified sine, pulse edges, trace ramps) accumulate tick by tick.
//!
//! # Example
//!
//! ```
//! use edc_bound::Bounder;
//! use edc_core::experiment::ExperimentSpec;
//! use edc_core::scenarios::{SourceKind, StrategyKind};
//! use edc_units::Seconds;
//! use edc_workloads::WorkloadKind;
//!
//! // A 1.5 V rail can never reach any boot threshold above V_min = 2 V:
//! // the bracket proves the MCU never powers on, so the brownout count
//! // is *exactly* zero and completion is provably infinite.
//! let spec = ExperimentSpec::new(
//!     SourceKind::Dc { volts: 1.5 },
//!     StrategyKind::Restart,
//!     WorkloadKind::Crc16(64),
//! )
//! .deadline(Seconds(0.1));
//! let report = Bounder::new().bound_spec(&spec).expect("valid spec");
//! assert!(report.never_boots && report.proven_dnf);
//! assert_eq!(report.completion_s.lo, f64::INFINITY);
//! assert!(report.brownouts.is_exact() && report.brownouts.lo == 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::fleet::{FleetError, FleetSpec};
use edc_core::system::Topology;
use edc_harvest::{SourceSample, POWER_SOURCE_COMPLIANCE_FLOOR};
use edc_mcu::{Mcu, RunExit};
use edc_units::{advance, Farads, Joules, Seconds, Volts};
use edc_workloads::WorkloadKind;

/// The runner's overvoltage clamp — specs never override it.
pub const V_MAX: Volts = Volts(3.6);

/// Cycle budget for the bare demand run. A workload that exhausts it
/// still yields a sound lower bound (`≥ CYCLE_FLOOR_CAP` cycles).
pub const CYCLE_FLOOR_CAP: u64 = 1_000_000_000;

/// Ceiling on supply-scan length (ticks). Past this the scan would cost
/// more than it saves; the supply-dependent brackets widen to their
/// trivial values (analysis incompleteness, never unsoundness).
pub const SUPPLY_SCAN_CAP: u64 = 4_000_000;

/// Ticks sampled per [`edc_harvest::EnergySource::sample_batch`] call of
/// the supply scan.
const SCAN_BATCH: usize = 256;

/// A sound closed interval `[lo, hi]` around a score (lower is better;
/// `INFINITY` encodes "did not finish").
///
/// ```
/// use edc_bound::ScoreBracket;
///
/// let b = ScoreBracket::new(1.0, f64::INFINITY);
/// assert!(b.contains(2.5) && b.contains(f64::INFINITY));
/// assert!(!b.contains(0.5));
/// assert!(ScoreBracket::exact(0.0).is_exact());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreBracket {
    /// Inclusive lower bound on the score.
    pub lo: f64,
    /// Inclusive upper bound on the score.
    pub hi: f64,
}

impl ScoreBracket {
    /// The bracket `[lo, hi]`.
    pub fn new(lo: f64, hi: f64) -> Self {
        Self { lo, hi }
    }

    /// The degenerate bracket `[v, v]` — the score is statically known.
    pub fn exact(v: f64) -> Self {
        Self { lo: v, hi: v }
    }

    /// Whether `v` lies inside the bracket (inclusive on both ends;
    /// `INFINITY` is inside `[x, INFINITY]`).
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// `true` when the bracket pins the score to a single value.
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// `{"lo": .., "hi": ..}` with non-finite ends emitted as `null`,
    /// matching the explore trace's score convention.
    pub fn to_json(&self) -> edc_core::json::Json {
        edc_core::json::Json::obj(vec![
            ("lo", edc_core::json::Json::Num(self.lo)),
            ("hi", edc_core::json::Json::Num(self.hi)),
        ])
    }
}

/// What the supply scan established over the deadline window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplyFacts {
    /// Upper bound on total harvestable energy over the scanned ticks, J.
    pub supply_ub: f64,
    /// Upper bound on the rail voltage over the scanned ticks, V (capped
    /// at [`V_MAX`]).
    pub rail_ub: f64,
    /// First tick whose cumulative supply-energy upper bound reaches the
    /// boot energy `C·v_high²/2` — a lower bound on the boot tick. `None`
    /// after a full scan proves the MCU can never boot in the window.
    pub boot_tick: Option<u64>,
    /// `true` when the scan covered every tick of the window (no early
    /// feasibility exit); only then are the "never" verdicts sound.
    pub scanned_full: bool,
}

/// Closed-form facts about a valid spec's dynamics — everything the
/// linter formats into diagnostics and the bracket derivations consume.
#[derive(Debug, Clone)]
pub struct DynamicsFacts {
    /// The platform's brownout threshold, V.
    pub v_min: Volts,
    /// The strategy's boot/restore threshold for this spec, V.
    pub v_high: Volts,
    /// Effective storage the runner integrates into (decoupling plus any
    /// buffered storage), F.
    pub capacitance: Farads,
    /// Harvest-path efficiency (1.0 for a direct topology).
    pub efficiency: f64,
    /// Energy one snapshot costs on this platform, J.
    pub snapshot_energy: Joules,
    /// The MCU's boot clock frequency, Hz.
    pub boot_hz: f64,
    /// `true` for the `endless` workload (no completion state).
    pub endless: bool,
    /// The workload's bare cycle demand; `None` for endless workloads.
    pub demand_cycles: Option<u64>,
    /// Upper bound on runner ticks in the deadline window.
    pub ticks_ub: u64,
    /// Upper bound on cycles the runner grants per tick.
    pub per_tick_ub: u64,
    /// The clock ladder's maximum frequency, Hz.
    pub f_max: f64,
    /// Lower bound on the energy a completed run consumes, J (cheapest
    /// clock level, zero overhead); `None` for endless workloads.
    pub demand_lb: Option<f64>,
    /// The supply scan's verdicts; `None` when the workload is endless or
    /// the window exceeds [`SUPPLY_SCAN_CAP`].
    pub supply: Option<SupplyFacts>,
}

impl DynamicsFacts {
    /// Total cycles the runner can grant in the window (`ticks × per-tick`).
    pub fn granted_cycles(&self) -> u128 {
        (self.ticks_ub as u128) * (self.per_tick_ub as u128)
    }

    /// `true` when the deadline provably grants fewer cycles than the
    /// workload demands (the `E003` condition).
    pub fn deadline_infeasible(&self) -> bool {
        match self.demand_cycles {
            Some(demand) => self.granted_cycles() < demand as u128,
            None => false,
        }
    }
}

/// Sound score brackets for one spec, one per built-in explore objective.
///
/// ```
/// use edc_bound::Bounder;
/// use edc_core::experiment::ExperimentSpec;
/// use edc_core::scenarios::{SourceKind, StrategyKind};
/// use edc_units::Seconds;
/// use edc_workloads::WorkloadKind;
///
/// let spec = ExperimentSpec::new(
///     SourceKind::Dc { volts: 3.3 },
///     StrategyKind::Restart,
///     WorkloadKind::BusyLoop(100),
/// )
/// .deadline(Seconds(0.05));
/// let report = Bounder::new().bound_spec(&spec).expect("valid spec");
/// // Brackets are addressable by the objectives' stable names.
/// let by_name = report.bracket("completion_s").expect("built-in name");
/// assert_eq!(*by_name, report.completion_s);
/// assert!(!report.proven_dnf);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BoundReport {
    /// Bracket on the `completion_s` objective.
    pub completion_s: ScoreBracket,
    /// Bracket on the `energy_per_task_j` objective.
    pub energy_per_task_j: ScoreBracket,
    /// Bracket on the `brownouts` objective.
    pub brownouts: ScoreBracket,
    /// Bracket on the `p99_outage_s` objective.
    pub p99_outage_s: ScoreBracket,
    /// `true` when the spec provably never completes its workload (the
    /// completion and energy brackets are exactly `INFINITY`).
    pub proven_dnf: bool,
    /// `true` when the MCU provably never powers on — which pins the
    /// brownout count and the outage tail to exactly zero.
    pub never_boots: bool,
}

impl BoundReport {
    /// The bracket for a built-in objective by its stable name, if any.
    pub fn bracket(&self, objective: &str) -> Option<&ScoreBracket> {
        match objective {
            "completion_s" => Some(&self.completion_s),
            "energy_per_task_j" => Some(&self.energy_per_task_j),
            "brownouts" => Some(&self.brownouts),
            "p99_outage_s" => Some(&self.p99_outage_s),
            _ => None,
        }
    }

    /// Deterministic JSON: the four brackets keyed by objective name plus
    /// the two proof flags.
    pub fn to_json(&self) -> edc_core::json::Json {
        edc_core::json::Json::obj(vec![
            ("completion_s", self.completion_s.to_json()),
            ("energy_per_task_j", self.energy_per_task_j.to_json()),
            ("brownouts", self.brownouts.to_json()),
            ("p99_outage_s", self.p99_outage_s.to_json()),
            ("proven_dnf", edc_core::json::Json::Bool(self.proven_dnf)),
            ("never_boots", edc_core::json::Json::Bool(self.never_boots)),
        ])
    }
}

/// The interval engine. Holds the trace catalog specs resolve against, a
/// memo of workload cycle demands (the one genuinely expensive input) and
/// a per-spec memo of finished bound reports.
///
/// ```
/// use edc_bound::Bounder;
/// use edc_core::experiment::ExperimentSpec;
/// use edc_core::scenarios::{SourceKind, StrategyKind};
/// use edc_units::Seconds;
/// use edc_workloads::WorkloadKind;
///
/// let spec = ExperimentSpec::new(
///     SourceKind::Dc { volts: 3.3 },
///     StrategyKind::Restart,
///     WorkloadKind::Crc16(64),
/// )
/// .deadline(Seconds(0.5));
/// let report = Bounder::new().bound_spec(&spec).expect("valid spec");
/// assert!(!report.proven_dnf);
/// assert!(report.completion_s.lo > 0.0, "boot takes at least one tick");
/// ```
#[derive(Debug, Default)]
pub struct Bounder {
    catalog: TraceCatalog,
    cycle_memo: HashMap<WorkloadKind, u64>,
    memo: HashMap<String, Option<BoundReport>>,
}

impl Bounder {
    /// A bounder with an empty catalog (synthetic sources only).
    pub fn new() -> Self {
        Self::default()
    }

    /// A bounder resolving trace-backed sources through `catalog`.
    pub fn with_catalog(catalog: TraceCatalog) -> Self {
        Self {
            catalog,
            cycle_memo: HashMap::new(),
            memo: HashMap::new(),
        }
    }

    /// The catalog specs resolve against.
    pub fn catalog(&self) -> &TraceCatalog {
        &self.catalog
    }

    /// Runs `f` over `fleet`'s per-node specs with a node bounder whose
    /// catalog is this one's plus the traces the fleet's field registers.
    /// The node bounder shares this bounder's workload cycle memo (cycle
    /// floors do not depend on the catalog) but starts an empty per-spec
    /// memo that is dropped afterwards: node trace ids mean something only
    /// in the extended catalog, and two fleets' extensions reuse the same
    /// ids.
    ///
    /// # Errors
    ///
    /// Returns the [`FleetError`] of expanding the fleet into node specs.
    pub fn with_fleet_nodes<R>(
        &mut self,
        fleet: &FleetSpec,
        f: impl FnOnce(&mut Bounder, &[ExperimentSpec]) -> R,
    ) -> Result<R, FleetError> {
        let mut catalog = self.catalog.clone();
        let specs = fleet.node_specs_in(&mut catalog)?;
        let mut nodes = Bounder {
            catalog,
            cycle_memo: std::mem::take(&mut self.cycle_memo),
            memo: HashMap::new(),
        };
        let out = f(&mut nodes, &specs);
        self.cycle_memo = nodes.cycle_memo;
        Ok(out)
    }

    /// The workload's bare cycle demand (memoized). Sound lower bound even
    /// when the cap is exhausted.
    pub fn cycle_floor(&mut self, kind: WorkloadKind) -> u64 {
        if let Some(&n) = self.cycle_memo.get(&kind) {
            return n;
        }
        let workload = kind.make();
        let mut mcu = Mcu::new(workload.program());
        let run = mcu.run(CYCLE_FLOOR_CAP, false);
        let n = match run.exit {
            RunExit::Completed => run.cycles,
            RunExit::BudgetExhausted => CYCLE_FLOOR_CAP,
            // A faulting or marker-stopped bare run still consumed its
            // cycles; use them as a conservative floor.
            _ => run.cycles,
        };
        self.cycle_memo.insert(kind, n);
        n
    }

    /// Derives the closed-form dynamics facts for `spec`, or `None` when
    /// the spec fails validation (no component can be instantiated).
    pub fn facts(&mut self, spec: &ExperimentSpec) -> Option<DynamicsFacts> {
        if !spec.violations_in(&self.catalog).is_empty() {
            return None;
        }

        // Instantiate exactly what the runner's build step would.
        let workload = spec.workload.make();
        let mut strategy = spec.strategy.make();
        let mut mcu = Mcu::new(workload.program()).with_residence(strategy.residence());
        if let Some(pm) = strategy.power_model() {
            mcu = mcu.with_power_model(pm);
        }
        let v_min = mcu.power_model().v_min;
        let (capacitance, efficiency) = match spec.topology {
            Topology::Direct => (spec.decoupling, 1.0),
            Topology::Buffered {
                storage,
                efficiency,
            } => (Farads(spec.decoupling.0 + storage.0), efficiency),
        };
        let (_v_low, v_high) = strategy.thresholds(&mcu, capacitance, v_min, V_MAX);

        let endless = spec.workload == WorkloadKind::Endless;
        let demand_cycles = if endless {
            None
        } else {
            Some(self.cycle_floor(spec.workload))
        };
        let boot_hz = mcu.clock().frequency().0;

        let dt = spec.timestep.0;
        let ticks_ub = (spec.deadline.0 / dt).floor() as u64 + 1;
        let ladder = mcu.clock().levels().to_vec();
        let f_max = ladder.iter().map(|f| f.0).fold(0.0f64, f64::max);
        let per_tick_ub = (f_max * dt).floor() as u64 + 1;

        // Demand lower bound: cheapest clock level, actual residence and
        // power model, no boot/restore/checkpoint overhead.
        let pm = mcu.power_model();
        let residence = mcu.residence();
        let demand_lb = demand_cycles.map(|n| {
            ladder
                .iter()
                .map(|&f| pm.execution_energy(n, f, residence).0)
                .fold(f64::INFINITY, f64::min)
        });

        let supply = match demand_lb {
            Some(dlb) if ticks_ub <= SUPPLY_SCAN_CAP => {
                Some(self.supply_scan(spec, ticks_ub, efficiency, capacitance, v_high, dlb))
            }
            _ => None,
        };

        Some(DynamicsFacts {
            v_min,
            v_high,
            capacitance,
            efficiency,
            snapshot_energy: mcu.snapshot_energy(),
            boot_hz,
            endless,
            demand_cycles,
            ticks_ub,
            per_tick_ub,
            f_max,
            demand_lb,
            supply,
        })
    }

    /// Brackets every built-in objective for `spec`, or `None` when the
    /// spec fails validation. Results are memoized per spec (keyed by its
    /// canonical JSON), so scoring several objectives of one candidate
    /// costs one analysis.
    pub fn bound_spec(&mut self, spec: &ExperimentSpec) -> Option<BoundReport> {
        let key = spec.to_json().to_string();
        if let Some(report) = self.memo.get(&key) {
            return report.clone();
        }
        let report = self.facts(spec).map(|facts| bound_from_facts(spec, &facts));
        self.memo.insert(key, report.clone());
        report
    }

    /// The shared supply scan: per-tick energy and rail upper bounds over
    /// the deadline window, plus the boot-tick lower bound. Exits early
    /// once every verdict is settled feasible — which is exactly when no
    /// full-window value is needed (the linter only formats full-scan
    /// values into diagnostics, and the "never" proofs require a full
    /// scan).
    fn supply_scan(
        &self,
        spec: &ExperimentSpec,
        ticks_ub: u64,
        efficiency: f64,
        capacitance: Farads,
        v_high: Volts,
        demand_lb: f64,
    ) -> SupplyFacts {
        let dt = spec.timestep.0;
        let c = capacitance.0;
        let mut scan = Scan {
            spec,
            efficiency,
            c,
            // Boot needs the stored energy to reach C·v_high²/2 from 0 V;
            // a hair of relative slack keeps float rounding on the sound
            // side (an earlier boot bound is always sound).
            e_boot: 0.5 * c * v_high.0 * v_high.0 * (1.0 - 1e-9),
            v_high: v_high.0,
            demand_lb,
            supply_ub: 0.0,
            rail_ub: 0.0,
            boot_tick: None,
        };
        let mut source = spec.source.make_in(&self.catalog);
        let mut times = [Seconds(0.0); SCAN_BATCH];
        let mut samples = [SourceSample::OFF; SCAN_BATCH];
        let mut start = 0u64;
        let mut settled = false;
        while start < ticks_ub && !settled {
            // Sample the next batch ahead; an early exit discards the rest
            // of it.
            let n = (ticks_ub - start).min(SCAN_BATCH as u64) as usize;
            for (tick, slot) in (start..).zip(&mut times[..n]) {
                *slot = Seconds(tick as f64 * dt);
            }
            source.sample_batch(&times[..n], &mut samples[..n]);
            // The first batch always runs tick by tick: the sum starts at
            // zero, where it crosses a binade every few ticks, and a strong
            // supply settles within a few ticks, before comparing the
            // batch's samples would pay.
            settled = if start > 0 && SourceSample::is_repeated(&samples[..n]) {
                scan.repeated(start, n as u64, samples[0])
            } else {
                scan.ticks(start, &samples[..n])
            };
            start += n as u64;
        }
        SupplyFacts {
            supply_ub: scan.supply_ub,
            rail_ub: scan.rail_ub,
            boot_tick: scan.boot_tick,
            scanned_full: !settled,
        }
    }
}

/// One supply scan: the per-sample bound inputs, the thresholds, and the
/// running energy sum, rail maximum and boot tick.
struct Scan<'a> {
    spec: &'a ExperimentSpec,
    efficiency: f64,
    c: f64,
    e_boot: f64,
    v_high: f64,
    demand_lb: f64,
    supply_ub: f64,
    rail_ub: f64,
    boot_tick: Option<u64>,
}

impl Scan<'_> {
    /// One tick's energy and rail upper bounds for one sample (see the
    /// module docs' derivations), the rail already capped at [`V_MAX`].
    /// Forced inline: called from both scan paths, the compiler keeps it
    /// out of line, and the per-tick loop runs ~8% slower.
    #[inline(always)]
    fn bounds(&self, sample: SourceSample) -> (f64, f64) {
        let (efficiency, c, dt) = (self.efficiency, self.c, self.spec.timestep.0);
        let (e_ub, v_ub) = match sample {
            SourceSample::Thevenin { v_oc, r_s } => {
                let v = self
                    .spec
                    .rectifier
                    .map_or(v_oc, |r| r.rectify(v_oc))
                    .0
                    .max(0.0);
                let r = r_s.0;
                let i_max = efficiency * v / r;
                (
                    efficiency * v * v / (4.0 * r) * dt + i_max * i_max * dt * dt / (2.0 * c),
                    v * (efficiency * dt / (r * c)).max(1.0),
                )
            }
            SourceSample::Power(p) => {
                if p.0 > 0.0 {
                    let i_max = efficiency * p.0 / POWER_SOURCE_COMPLIANCE_FLOOR.0;
                    (
                        efficiency * p.0 * dt + i_max * i_max * dt * dt / (2.0 * c),
                        // A constant-power sample has no open-circuit
                        // ceiling: the rail bound collapses to the clamp.
                        f64::INFINITY,
                    )
                } else {
                    (0.0, 0.0)
                }
            }
            SourceSample::Current { i, v_compliance } => {
                let i = i.0.max(0.0) * efficiency;
                let vc = v_compliance.0.max(0.0);
                (i * vc * dt + i * i * dt * dt / (2.0 * c), vc + i * dt / c)
            }
        };
        (e_ub, v_ub.min(V_MAX.0))
    }

    /// Whether a rail bound reaches the boot threshold (with a hair of
    /// slack, as the "never boots" verdict uses).
    fn reaches_boot(&self, rail_ub: f64) -> bool {
        rail_ub + 1e-9 >= self.v_high
    }

    /// Accumulates one batch tick by tick from tick `start`; `true` once
    /// every verdict is settled feasible. The running values stay in
    /// locals through the loop.
    fn ticks(&mut self, start: u64, samples: &[SourceSample]) -> bool {
        let (mut supply_ub, mut rail_ub, mut boot_tick) =
            (self.supply_ub, self.rail_ub, self.boot_tick);
        let mut settled = false;
        for (tick, &sample) in (start..).zip(samples) {
            let (e_ub, v_ub) = self.bounds(sample);
            supply_ub += e_ub;
            rail_ub = rail_ub.max(v_ub);
            if boot_tick.is_none() && supply_ub >= self.e_boot {
                boot_tick = Some(tick);
            }
            if supply_ub >= self.demand_lb && self.reaches_boot(rail_ub) && boot_tick.is_some() {
                settled = true;
                break;
            }
        }
        (self.supply_ub, self.rail_ub, self.boot_tick) = (supply_ub, rail_ub, boot_tick);
        settled
    }

    /// Accumulates `n` ticks of one repeated `sample` from tick `start`,
    /// bit-identical to [`Scan::ticks`] (see the module docs): one bound,
    /// one rail update (`max` is idempotent), and the energy sum advanced
    /// in closed form to the next threshold it can cross — the boot
    /// energy, then the demand once the boot and rail verdicts allow an
    /// exit.
    fn repeated(&mut self, start: u64, n: u64, sample: SourceSample) -> bool {
        let (e_ub, v_ub) = self.bounds(sample);
        self.rail_ub = self.rail_ub.max(v_ub);
        let mut left = n;
        while left > 0 {
            let thr = match self.boot_tick {
                None => self.e_boot,
                Some(_) if self.reaches_boot(self.rail_ub) => self.demand_lb,
                Some(_) => f64::INFINITY,
            };
            let (adds, sum, reached) = advance(self.supply_ub, e_ub, left, thr);
            self.supply_ub = sum;
            left -= adds;
            if !reached {
                break;
            }
            self.boot_tick = self.boot_tick.or(Some(start + n - left - 1));
            if self.supply_ub >= self.demand_lb && self.reaches_boot(self.rail_ub) {
                return true;
            }
        }
        false
    }
}

/// Derives the per-objective brackets from a spec's dynamics facts.
fn bound_from_facts(spec: &ExperimentSpec, facts: &DynamicsFacts) -> BoundReport {
    let dt = spec.timestep.0;
    let mut proven_dnf = facts.endless || facts.deadline_infeasible();
    let mut never_boots = false;
    if let Some(supply) = &facts.supply {
        if supply.scanned_full {
            if supply.rail_ub + 1e-9 < facts.v_high.0 || supply.boot_tick.is_none() {
                // The rail can never reach the restore threshold, or the
                // whole window's energy cannot charge the node to it.
                never_boots = true;
                proven_dnf = true;
            } else if let Some(demand_lb) = facts.demand_lb {
                if supply.supply_ub < demand_lb {
                    proven_dnf = true;
                }
            }
        }
    }

    let completion_s = if proven_dnf {
        ScoreBracket::exact(f64::INFINITY)
    } else {
        // Completion cannot precede the boot-tick lower bound, nor the
        // tick by which the granted cycles first cover the demand.
        let boot_lb = facts
            .supply
            .as_ref()
            .and_then(|s| s.boot_tick)
            .map(|k| k as f64 * dt)
            .unwrap_or(0.0);
        let cycle_lb = facts
            .demand_cycles
            .map(|n| (n as f64 / facts.per_tick_ub as f64 - 1.0).max(0.0) * dt)
            .unwrap_or(0.0);
        ScoreBracket::new(boot_lb.max(cycle_lb), f64::INFINITY)
    };

    let energy_per_task_j = if proven_dnf {
        ScoreBracket::exact(f64::INFINITY)
    } else {
        // The runner accumulates per-tick energies while the demand bound
        // is one closed-form product; a hair of relative slack keeps the
        // ULP-level summation difference on the sound side.
        ScoreBracket::new(facts.demand_lb.unwrap_or(0.0) * (1.0 - 1e-9), f64::INFINITY)
    };

    // Brownouts and outages are only recorded after a boot, so a proven
    // never-boot pins both to exactly zero.
    let (brownouts, p99_outage_s) = if never_boots {
        (ScoreBracket::exact(0.0), ScoreBracket::exact(0.0))
    } else {
        (
            ScoreBracket::new(0.0, f64::INFINITY),
            ScoreBracket::new(0.0, f64::INFINITY),
        )
    };

    BoundReport {
        completion_s,
        energy_per_task_j,
        brownouts,
        p99_outage_s,
        proven_dnf,
        never_boots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_core::fleet::FieldSpec;
    use edc_core::scenarios::{FieldEnvelope, SourceKind, StrategyKind};
    use edc_core::TelemetryKind;
    use edc_core::{SystemReport, Telemetry};

    fn spec(source: SourceKind) -> ExperimentSpec {
        ExperimentSpec::new(source, StrategyKind::Hibernus, WorkloadKind::Crc16(64))
            .deadline(Seconds(0.5))
    }

    /// The four built-in objective scores, computed the way
    /// `edc-explore`'s objectives do (this crate cannot depend on it).
    fn scores(report: &SystemReport) -> [f64; 4] {
        let completion = report
            .stats
            .completed_at
            .map(|t| t.0)
            .unwrap_or(f64::INFINITY);
        let energy = if report.stats.completed_at.is_some() {
            report.stats.energy_consumed.0
        } else {
            f64::INFINITY
        };
        let brownouts = report.stats.brownouts as f64;
        let p99 = match &report.telemetry {
            Some(Telemetry::Stats(stats)) => stats.outage_s().summary().p99,
            _ => f64::INFINITY,
        };
        [completion, energy, brownouts, p99]
    }

    fn assert_sound(spec: &ExperimentSpec, catalog: &TraceCatalog) {
        let report = Bounder::with_catalog(catalog.clone())
            .bound_spec(spec)
            .expect("valid spec");
        let run = spec
            .telemetry(TelemetryKind::Stats)
            .run_in(catalog)
            .expect("spec runs");
        let [completion, energy, brownouts, p99] = scores(&run);
        assert!(
            report.completion_s.contains(completion),
            "completion {completion} outside {:?} for {}",
            report.completion_s,
            spec.to_json(),
        );
        assert!(
            report.energy_per_task_j.contains(energy),
            "energy {energy} outside {:?} for {}",
            report.energy_per_task_j,
            spec.to_json(),
        );
        assert!(
            report.brownouts.contains(brownouts),
            "brownouts {brownouts} outside {:?} for {}",
            report.brownouts,
            spec.to_json(),
        );
        assert!(
            report.p99_outage_s.contains(p99),
            "p99 outage {p99} outside {:?} for {}",
            report.p99_outage_s,
            spec.to_json(),
        );
    }

    #[test]
    fn healthy_spec_brackets_contain_simulated_scores() {
        let catalog = TraceCatalog::new();
        assert_sound(&spec(SourceKind::Dc { volts: 3.3 }), &catalog);
        assert_sound(&spec(SourceKind::RectifiedSine { hz: 50.0 }), &catalog);
    }

    #[test]
    fn sub_boot_dc_proves_never_boot_with_exact_zero_brownouts() {
        let report = Bounder::new()
            .bound_spec(&spec(SourceKind::Dc { volts: 1.5 }))
            .expect("valid spec");
        assert!(report.never_boots);
        assert!(report.proven_dnf);
        assert_eq!(report.brownouts, ScoreBracket::exact(0.0));
        assert_eq!(report.p99_outage_s, ScoreBracket::exact(0.0));
        assert_eq!(report.completion_s, ScoreBracket::exact(f64::INFINITY));
        assert_sound(&spec(SourceKind::Dc { volts: 1.5 }), &TraceCatalog::new());
    }

    #[test]
    fn starved_trace_proves_dnf_but_not_never_boot_exactness() {
        let mut catalog = TraceCatalog::new();
        let id = catalog
            .register_uniform("dim", Seconds(1e-3), &[1e-6, 1e-6, 1e-6])
            .expect("valid trace");
        let starved = spec(SourceKind::Trace {
            id,
            decimate: 1,
            looped: false,
        });
        let report = Bounder::with_catalog(catalog.clone())
            .bound_spec(&starved)
            .expect("valid spec");
        assert!(report.proven_dnf, "E004-style energy starvation");
        // 1 µW over 0.5 s cannot even charge 10 µF to the boot threshold.
        assert!(report.never_boots);
        assert_sound(&starved, &catalog);
    }

    #[test]
    fn endless_workload_is_proven_dnf_with_open_brownouts() {
        let endless = spec(SourceKind::Dc { volts: 3.3 }).workload(WorkloadKind::Endless);
        let report = Bounder::new().bound_spec(&endless).expect("valid spec");
        assert!(report.proven_dnf);
        assert!(!report.never_boots, "a powered endless spec does boot");
        assert_eq!(report.brownouts, ScoreBracket::new(0.0, f64::INFINITY));
        assert_sound(&endless, &TraceCatalog::new());
    }

    #[test]
    fn impossible_deadline_is_proven_dnf() {
        let tight = spec(SourceKind::RectifiedSine { hz: 50.0 }).deadline(Seconds(10e-6));
        let report = Bounder::new().bound_spec(&tight).expect("valid spec");
        assert!(report.proven_dnf, "E003-style deadline starvation");
        assert_sound(&tight, &TraceCatalog::new());
    }

    #[test]
    fn invalid_spec_gets_no_report() {
        let bad = spec(SourceKind::RectifiedSine { hz: -1.0 });
        assert!(Bounder::new().bound_spec(&bad).is_none());
        assert!(Bounder::new().facts(&bad).is_none());
    }

    #[test]
    fn completion_lower_bound_combines_boot_and_cycle_floors() {
        let healthy = spec(SourceKind::Dc { volts: 3.3 });
        let mut bounder = Bounder::new();
        let facts = bounder.facts(&healthy).expect("valid spec");
        let supply = facts.supply.expect("window under the scan cap");
        let boot = supply.boot_tick.expect("3.3 V boots");
        assert!(boot > 0, "charging 10 µF from 0 V takes more than a tick");
        let report = bounder.bound_spec(&healthy).expect("valid spec");
        assert!(report.completion_s.lo >= boot as f64 * healthy.timestep.0);
    }

    #[test]
    fn memo_serves_repeat_specs_and_cycle_memo_moves() {
        let mut bounder = Bounder::new();
        let s = spec(SourceKind::Dc { volts: 3.3 });
        let a = bounder.bound_spec(&s).expect("valid");
        let b = bounder.bound_spec(&s).expect("valid");
        assert_eq!(a, b);
        // A fleet's node bounder starts from this cycle memo and hands it
        // back extended; its per-spec memo is its own.
        let memo_len = bounder.memo.len();
        let design = ExperimentSpec {
            workload: WorkloadKind::Crc16(32),
            ..s
        };
        let fleet = FleetSpec::new(
            FieldSpec::Envelope(FieldEnvelope::Dc { volts: 3.3 }),
            design,
            2,
        );
        bounder
            .with_fleet_nodes(&fleet, |nodes, specs| {
                assert!(nodes.cycle_memo.contains_key(&WorkloadKind::Crc16(64)));
                assert!(nodes.memo.is_empty());
                for spec in specs {
                    assert!(nodes.bound_spec(spec).is_some());
                }
            })
            .expect("envelope fleets expand");
        assert_eq!(
            bounder.cycle_memo.get(&WorkloadKind::Crc16(32)).copied(),
            Some(Bounder::new().cycle_floor(WorkloadKind::Crc16(32)))
        );
        assert_eq!(bounder.memo.len(), memo_len, "node specs stay out");
    }

    #[test]
    fn bracket_json_is_deterministic_and_null_for_infinities() {
        let report = Bounder::new()
            .bound_spec(&spec(SourceKind::Dc { volts: 1.5 }))
            .expect("valid spec");
        let json = report.to_json().to_string();
        assert_eq!(json, report.to_json().to_string());
        assert!(json.contains("\"completion_s\""));
        assert!(json.contains("\"never_boots\":true"));
    }

    /// The per-tick supply scan the batched one replaced: one sample, one
    /// bound and one add per tick. The scan-equivalence property holds
    /// the batched scan to it bit for bit.
    fn reference_scan(
        bounder: &Bounder,
        spec: &ExperimentSpec,
        facts: &DynamicsFacts,
    ) -> SupplyFacts {
        let dt = spec.timestep.0;
        let c = facts.capacitance.0;
        let efficiency = facts.efficiency;
        let v_high = facts.v_high.0;
        let e_boot = 0.5 * c * v_high * v_high * (1.0 - 1e-9);
        let demand_lb = facts.demand_lb.unwrap_or(f64::INFINITY);
        let bounds = |sample: SourceSample| match sample {
            SourceSample::Thevenin { v_oc, r_s } => {
                let v = spec.rectifier.map_or(v_oc, |r| r.rectify(v_oc)).0.max(0.0);
                let r = r_s.0;
                let i_max = efficiency * v / r;
                (
                    efficiency * v * v / (4.0 * r) * dt + i_max * i_max * dt * dt / (2.0 * c),
                    v * (efficiency * dt / (r * c)).max(1.0),
                )
            }
            SourceSample::Power(p) => {
                if p.0 > 0.0 {
                    let i_max = efficiency * p.0 / POWER_SOURCE_COMPLIANCE_FLOOR.0;
                    (
                        efficiency * p.0 * dt + i_max * i_max * dt * dt / (2.0 * c),
                        f64::INFINITY,
                    )
                } else {
                    (0.0, 0.0)
                }
            }
            SourceSample::Current { i, v_compliance } => {
                let i = i.0.max(0.0) * efficiency;
                let vc = v_compliance.0.max(0.0);
                (i * vc * dt + i * i * dt * dt / (2.0 * c), vc + i * dt / c)
            }
        };
        let mut source = spec.source.make_in(bounder.catalog());
        let mut supply_ub = 0.0f64;
        let mut rail_ub = 0.0f64;
        let mut boot_tick: Option<u64> = None;
        for tick in 0..facts.ticks_ub {
            let (e_ub, v_ub) = bounds(source.sample(Seconds(tick as f64 * dt)));
            supply_ub += e_ub;
            rail_ub = rail_ub.max(v_ub.min(V_MAX.0));
            if boot_tick.is_none() && supply_ub >= e_boot {
                boot_tick = Some(tick);
            }
            if supply_ub >= demand_lb && rail_ub + 1e-9 >= v_high && boot_tick.is_some() {
                return SupplyFacts {
                    supply_ub,
                    rail_ub,
                    boot_tick,
                    scanned_full: false,
                };
            }
        }
        SupplyFacts {
            supply_ub,
            rail_ub,
            boot_tick,
            scanned_full: true,
        }
    }

    fn facts_bits(s: &SupplyFacts) -> (u64, u64, Option<u64>, bool) {
        (
            s.supply_ub.to_bits(),
            s.rail_ub.to_bits(),
            s.boot_tick,
            s.scanned_full,
        )
    }

    mod properties {
        use super::*;
        use edc_core::catalog::TraceId;
        use edc_core::scenarios::FieldEnvelope;
        use edc_power::{Rectifier, RectifierKind};
        use proptest::prelude::*;

        /// A trace with flat plateaus (constant batches) and ramps.
        fn scan_trace(catalog: &mut TraceCatalog) -> TraceId {
            let powers: Vec<f64> = (0..400)
                .map(|i| match (i / 50) % 4 {
                    0 => 0.0,
                    1 => 2e-3,
                    2 => 1e-5 * f64::from(i % 50),
                    _ => 5e-4,
                })
                .collect();
            catalog
                .register_uniform("scan-plateaus", Seconds(1e-3), &powers)
                .expect("valid trace")
        }

        fn scan_source(pick: usize, x: f64, seed: u64, id: TraceId) -> SourceKind {
            let field = |i: u64| match i % 5 {
                0 => FieldEnvelope::Turbine,
                1 => FieldEnvelope::Dc {
                    volts: 1.5 + 2.5 * x,
                },
                2 => FieldEnvelope::Interrupted { hz: 0.5 + 20.0 * x },
                3 => FieldEnvelope::OutdoorPv { seed },
                _ => FieldEnvelope::Trace {
                    id,
                    decimate: 1 + i % 3,
                    looped: true,
                },
            };
            match pick {
                0 => SourceKind::Dc {
                    volts: 0.5 + 4.0 * x,
                },
                1 => SourceKind::RectifiedSine { hz: 1.0 + 99.0 * x },
                2 => SourceKind::Turbine,
                3 => SourceKind::Interrupted { hz: 0.2 + 20.0 * x },
                4 => SourceKind::IndoorPv { seed },
                5 => SourceKind::OutdoorPv { seed },
                6 => SourceKind::Trace {
                    id,
                    decimate: 1 + seed % 3,
                    looped: seed.is_multiple_of(2),
                },
                _ => SourceKind::FieldView {
                    field: field(seed),
                    attenuation: 0.2 + 0.8 * x,
                    phase_s: 3.0 * x,
                },
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

            /// A repeated sample's closed form leaves the scan exactly where
            /// `n` single ticks of it would, from any running state: every
            /// sample kind, rails below and above the running maximum, and
            /// thresholds already passed, ahead, or out of reach.
            #[test]
            fn repeated_sample_matches_single_ticks(
                sample_pick in (0u8..3, 0.0f64..5.0, 0.0f64..1.0),
                state in (0.0f64..1e-3, 0.0f64..4.0, 0u64..3),
                thresholds in (0.0f64..2e-3, 1.5f64..3.7, 0.0f64..3e-3),
                n in 1u64..=256,
                dt_pick in 0usize..3,
            ) {
                let sample = match sample_pick.0 {
                    0 => SourceSample::Thevenin {
                        v_oc: Volts(sample_pick.1 - 0.5),
                        r_s: edc_units::Ohms(1.0 + 200.0 * sample_pick.2),
                    },
                    1 => SourceSample::Power(edc_units::Watts(sample_pick.2 * 1e-2)),
                    _ => SourceSample::Current {
                        i: edc_units::Amps(sample_pick.2 * 1e-3),
                        v_compliance: Volts(sample_pick.1),
                    },
                };
                let spec = spec(SourceKind::Dc { volts: 3.3 })
                    .timestep(Seconds([1e-5, 2e-5, 1e-4][dt_pick]));
                let scan = || Scan {
                    spec: &spec,
                    efficiency: 0.8,
                    c: 1e-5,
                    e_boot: thresholds.0,
                    v_high: thresholds.1,
                    demand_lb: thresholds.2,
                    supply_ub: state.0,
                    rail_ub: state.1,
                    boot_tick: [None, Some(3), Some(700)][state.2 as usize],
                };
                let (mut closed, mut single) = (scan(), scan());
                let settled = closed.repeated(700, n, sample);
                let mut single_settled = false;
                for tick in 700..700 + n {
                    if single.ticks(tick, &[sample]) {
                        single_settled = true;
                        break;
                    }
                }
                prop_assert_eq!(
                    (closed.supply_ub.to_bits(), closed.rail_ub.to_bits(), closed.boot_tick, settled),
                    (single.supply_ub.to_bits(), single.rail_ub.to_bits(), single.boot_tick, single_settled)
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

            /// The batched scan's facts equal the per-tick reference bit
            /// for bit across every source kind, rectifier, topology,
            /// timestep, deadline, strategy and workload.
            #[test]
            fn batched_scan_matches_the_per_tick_reference(
                picks in (0usize..8, 0usize..StrategyKind::ALL.len(), 0usize..WorkloadKind::ALL.len()),
                shape in (0usize..3, 0usize..4, 0usize..4),
                x in 0.0f64..1.0,
                seed in 0u64..1000,
                decoupling_uf in 2.0f64..50.0,
            ) {
                let mut catalog = TraceCatalog::new();
                let id = scan_trace(&mut catalog);
                let (rectify, topology, timing) = shape;
                let mut s = ExperimentSpec::new(
                    scan_source(picks.0, x, seed, id),
                    StrategyKind::ALL[picks.1],
                    WorkloadKind::ALL[picks.2],
                )
                .decoupling(Farads::from_micro(decoupling_uf))
                .timestep(Seconds([1e-5, 2e-5, 5e-5, 1e-4][timing]))
                .deadline(Seconds([0.01, 0.2, 1.0, 3.0][(seed % 4) as usize]));
                match rectify {
                    0 => {}
                    1 => s = s.rectifier(Rectifier::new(RectifierKind::HalfWave, Volts(0.3))),
                    _ => s = s.rectifier(Rectifier::ideal(RectifierKind::FullWave)),
                }
                if topology > 1 {
                    s = s.topology(Topology::Buffered {
                        storage: Farads::from_micro(10.0 * topology as f64),
                        efficiency: 0.5 + 0.5 * x,
                    });
                }
                let mut bounder = Bounder::with_catalog(catalog);
                let facts = bounder.facts(&s);
                prop_assert!(facts.is_some(), "generated specs are valid: {}", s.to_json());
                let facts = facts.expect("checked above");
                let batched = facts.supply.expect("windows sit under the scan cap");
                let reference = reference_scan(&bounder, &s, &facts);
                prop_assert_eq!(facts_bits(&batched), facts_bits(&reference), "{}", s.to_json());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

            /// Soundness property: across DC levels, strategies, workload
            /// sizes and decoupling values, every simulated score lands
            /// inside its bracket.
            #[test]
            fn brackets_contain_simulated_scores(
                volts in 0.5f64..3.5,
                strategy_i in 0usize..StrategyKind::ALL.len(),
                words in 16u16..96,
                decoupling_uf in 4.0f64..22.0,
            ) {
                let s = ExperimentSpec::new(
                    SourceKind::Dc { volts },
                    StrategyKind::ALL[strategy_i],
                    WorkloadKind::Crc16(words),
                )
                .decoupling(Farads::from_micro(decoupling_uf))
                .deadline(Seconds(0.2));
                let catalog = TraceCatalog::new();
                let report = Bounder::new().bound_spec(&s);
                prop_assert!(report.is_some(), "generated specs are valid");
                let report = report.expect("checked above");
                let run = s
                    .telemetry(TelemetryKind::Stats)
                    .run_in(&catalog)
                    .expect("spec runs");
                let [completion, energy, brownouts, p99] = scores(&run);
                prop_assert!(report.completion_s.contains(completion));
                prop_assert!(report.energy_per_task_j.contains(energy));
                prop_assert!(report.brownouts.contains(brownouts));
                prop_assert!(report.p99_outage_s.contains(p99));
            }
        }
    }
}
