//! The transient execution harness: couples an energy source, the supply
//! node, the voltage monitor, the MCU, and a [`Strategy`].
//!
//! This is the software realisation of the paper's Fig. 4 topology — the
//! harvester drives the load directly, with only the node capacitance
//! (decoupling or a small task buffer) in between. Figures 7 and 8 are
//! traces of this loop.

use std::fmt;

use edc_harvest::{EnergySource, SourceSample};
use edc_mcu::{Mcu, PowerState, RunExit};
use edc_power::{MonitorEvent, Rectifier, VoltageMonitor};
use edc_sim::{SupplyNode, TimeSeries};
use edc_telemetry::{Event, Phase, Record, Telemetry, TelemetryKind};
use edc_units::{advance, Amps, Farads, Joules, Seconds, Volts, Watts};

use crate::{LowVoltageResponse, MarkerResponse, SnapshotObservation, Strategy};

/// Aggregate statistics of a transient run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunnerStats {
    /// Sealed snapshots taken.
    pub snapshots: u64,
    /// Snapshot attempts that tore (supply died mid-copy).
    pub torn_snapshots: u64,
    /// Successful restores.
    pub restores: u64,
    /// Brownouts (Eq. 2 violations while up).
    pub brownouts: u64,
    /// Cold boots.
    pub boots: u64,
    /// Time spent actively executing.
    pub active_time: Seconds,
    /// Time spent asleep (including hibernation).
    pub sleep_time: Seconds,
    /// Time spent unpowered.
    pub off_time: Seconds,
    /// Total cycles retired by the workload.
    pub cycles: u64,
    /// Completion time of the workload, if reached.
    pub completed_at: Option<Seconds>,
    /// Energy drawn by execution, snapshots and restores.
    pub energy_consumed: Joules,
    /// Simulation timesteps advanced.
    pub ticks: u64,
    /// Instructions retired by the workload.
    pub instructions: u64,
    /// Ticks that banked their whole cycle budget because even the head
    /// instruction could not be funded (see `TransientRunner`'s
    /// `cycle_carry`).
    pub carry_activations: u64,
}

impl RunnerStats {
    /// Fraction of wall-clock time spent executing.
    pub fn duty_cycle(&self) -> f64 {
        let total = self.active_time.0 + self.sleep_time.0 + self.off_time.0;
        if total > 0.0 {
            self.active_time.0 / total
        } else {
            0.0
        }
    }
}

/// Why [`TransientRunner::run_until_complete`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The workload halted.
    Completed,
    /// The deadline passed first.
    DeadlineExpired,
    /// The machine faulted (a bug in strategy or workload).
    Faulted,
}

/// Why [`RunnerBuilder::build`] rejected its configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunnerBuildError {
    /// No checkpoint strategy was provided.
    MissingStrategy,
    /// No workload program was provided.
    MissingProgram,
    /// No energy source was provided.
    MissingSource,
    /// Input conversion efficiency outside `(0, 1]`.
    InvalidEfficiency(f64),
}

impl fmt::Display for RunnerBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingStrategy => f.write_str("a checkpoint strategy is required"),
            Self::MissingProgram => f.write_str("a workload program is required"),
            Self::MissingSource => f.write_str("an energy source is required"),
            Self::InvalidEfficiency(x) => write!(f, "efficiency must be in (0, 1], got {x}"),
        }
    }
}

impl std::error::Error for RunnerBuildError {}

/// Builder for [`TransientRunner`] ([C-BUILDER]).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html
pub struct RunnerBuilder<'a> {
    capacitance: Farads,
    initial_voltage: Volts,
    v_max: Volts,
    dt: Seconds,
    leakage: Option<edc_units::Ohms>,
    trace_decimation: Option<u64>,
    strategy: Option<Box<dyn Strategy + 'a>>,
    program: Option<edc_mcu::isa::Program>,
    source: Option<Box<dyn EnergySource + 'a>>,
    rectifier: Option<Rectifier>,
    efficiency: f64,
    telemetry: TelemetryKind,
}

impl<'a> RunnerBuilder<'a> {
    fn new() -> Self {
        Self {
            capacitance: Farads::from_micro(10.0),
            initial_voltage: Volts(0.0),
            v_max: Volts(3.6),
            dt: Seconds(20e-6),
            leakage: None,
            trace_decimation: None,
            strategy: None,
            program: None,
            source: None,
            rectifier: None,
            efficiency: 1.0,
            telemetry: TelemetryKind::Null,
        }
    }

    /// Adds a board-leakage path across the supply node (real boards bleed
    /// tens of µA; this is what makes the rail collapse fully between
    /// supply cycles in the Fig. 7 waveform).
    pub fn leakage(mut self, r: edc_units::Ohms) -> Self {
        self.leakage = Some(r);
        self
    }

    /// Total supply-node capacitance (decoupling + any added storage).
    pub fn capacitance(mut self, c: Farads) -> Self {
        self.capacitance = c;
        self
    }

    /// Starting rail voltage (default 0 V — cold start).
    pub fn initial_voltage(mut self, v: Volts) -> Self {
        self.initial_voltage = v;
        self
    }

    /// Overvoltage clamp (default 3.6 V).
    pub fn clamp(mut self, v: Volts) -> Self {
        self.v_max = v;
        self
    }

    /// Simulation timestep (default 20 µs).
    pub fn timestep(mut self, dt: Seconds) -> Self {
        self.dt = dt;
        self
    }

    /// Records a decimated `V_cc` trace for figure output.
    pub fn trace(mut self, decimation: u64) -> Self {
        self.trace_decimation = Some(decimation);
        self
    }

    /// The checkpoint strategy (required).
    pub fn strategy(mut self, s: Box<dyn Strategy + 'a>) -> Self {
        self.strategy = Some(s);
        self
    }

    /// The workload program (required).
    pub fn program(mut self, p: edc_mcu::isa::Program) -> Self {
        self.program = Some(p);
        self
    }

    /// The energy source (required).
    pub fn source(mut self, s: Box<dyn EnergySource + 'a>) -> Self {
        self.source = Some(s);
        self
    }

    /// Rectifies the source's Thévenin open-circuit voltage before it
    /// meets the rail (default: none).
    pub fn rectifier(mut self, r: Rectifier) -> Self {
        self.rectifier = Some(r);
        self
    }

    /// Input conversion efficiency in `(0, 1]` scaling the current the
    /// source pushes into the rail (default 1).
    pub fn efficiency(mut self, efficiency: f64) -> Self {
        self.efficiency = efficiency;
        self
    }

    /// Selects the telemetry sink receiving a typed [`Record`] at every
    /// lifecycle event; read it back through [`TransientRunner::telemetry`].
    /// With [`TelemetryKind::Null`] (the default) no sink is built and
    /// emission is a single `Option::None` branch — zero overhead.
    pub fn telemetry(mut self, kind: TelemetryKind) -> Self {
        self.telemetry = kind;
        self
    }

    /// Builds the runner.
    ///
    /// # Errors
    ///
    /// Returns a [`RunnerBuildError`] if strategy, program or source is
    /// missing (checked in that order), or the efficiency lies outside
    /// `(0, 1]`.
    pub fn build(self) -> Result<TransientRunner<'a>, RunnerBuildError> {
        let mut strategy = self.strategy.ok_or(RunnerBuildError::MissingStrategy)?;
        let program = self.program.ok_or(RunnerBuildError::MissingProgram)?;
        let source = self.source.ok_or(RunnerBuildError::MissingSource)?;
        if !(self.efficiency > 0.0 && self.efficiency <= 1.0) {
            return Err(RunnerBuildError::InvalidEfficiency(self.efficiency));
        }
        let source = RailSource {
            source,
            rectifier: self.rectifier,
            efficiency: self.efficiency,
        };
        let mut mcu = Mcu::new(program).with_residence(strategy.residence());
        if let Some(pm) = strategy.power_model() {
            mcu = mcu.with_power_model(pm);
        }
        let v_min = mcu.power_model().v_min;
        let (v_low, v_high) = strategy.thresholds(&mcu, self.capacitance, v_min, self.v_max);
        if self.initial_voltage < v_min {
            // The machine begins unpowered; it boots once the harvester has
            // charged the rail past V_R.
            mcu.power_loss();
        }
        let mut node =
            SupplyNode::new(self.capacitance, self.initial_voltage).with_clamp(self.v_max);
        if let Some(r) = self.leakage {
            node = node.with_leakage(r);
        }
        let monitor = VoltageMonitor::new(v_low, v_high);
        let mut runner = TransientRunner {
            phase: phase_of(mcu.state()),
            mcu,
            node,
            monitor,
            strategy,
            source,
            dt: self.dt,
            time: Seconds(0.0),
            v_min,
            hibernated: false,
            cycle_carry: 0,
            stats: RunnerStats::default(),
            vcc_trace: self
                .trace_decimation
                .map(|d| TimeSeries::with_decimation("Vcc", d)),
            freq_trace: self
                .trace_decimation
                .map(|d| TimeSeries::with_decimation("f_core_MHz", d)),
            faulted: false,
            off_times: vec![Seconds(0.0); OFF_BATCH],
            off_samples: vec![SourceSample::OFF; OFF_BATCH],
            skipped_ticks: 0,
            supply_power: Watts::ZERO,
            sink: self.telemetry.make(),
        };
        // Open the initial phase span (and a t = 0 gauge) so timelines
        // start at the origin rather than at the first transition.
        if runner.sink.is_some() {
            let phase = runner.phase;
            let stored = runner.stored_energy();
            if let Some(sink) = &mut runner.sink {
                sink.phase(Seconds(0.0), phase);
                sink.gauge(Seconds(0.0), stored, Watts::ZERO);
            }
        }
        Ok(runner)
    }
}

/// The harvester as the rail sees it: a source, an optional input
/// rectifier and the input conversion efficiency.
struct RailSource<'a> {
    source: Box<dyn EnergySource + 'a>,
    rectifier: Option<Rectifier>,
    efficiency: f64,
}

impl RailSource<'_> {
    fn rectified(&self, sample: SourceSample) -> SourceSample {
        match (self.rectifier, sample) {
            (Some(rect), SourceSample::Thevenin { v_oc, r_s }) => SourceSample::Thevenin {
                v_oc: rect.rectify(v_oc),
                r_s,
            },
            _ => sample,
        }
    }

    /// The rectified sample at `t`.
    fn sample(&mut self, t: Seconds) -> SourceSample {
        let sample = self.source.sample(t);
        self.rectified(sample)
    }

    /// The rectified samples at every time of `times`.
    fn sample_batch(&mut self, times: &[Seconds], out: &mut [SourceSample]) {
        if let ([t], [slot]) = (times, &mut *out) {
            // A batch of one is a plain sample (`TransientRunner::step`).
            *slot = self.sample(*t);
            return;
        }
        self.source.sample_batch(times, out);
        if self.rectifier.is_some() {
            for s in out {
                *s = self.rectified(*s);
            }
        }
    }

    /// Current a rectified sample pushes into a rail at `v`.
    fn current(&self, sample: SourceSample, v: Volts) -> Amps {
        sample.current_into(v) * self.efficiency
    }
}

/// Off ticks sampled per [`SourceSample`] batch: 5 ms of simulated time at
/// the default 20 µs timestep.
const OFF_BATCH: usize = 256;

/// What every tick of one batch of Off ticks shares.
#[derive(Clone, Copy)]
struct OffBatch {
    /// The unpowered machine's static draw.
    i_static: Amps,
    /// The boot threshold `V_H`.
    v_high: Volts,
    /// Whether the figure traces record each tick.
    tracing: bool,
    /// The batch stops once the time reaches it.
    deadline: Seconds,
}

/// The lifecycle phase a power state maps to.
fn phase_of(state: PowerState) -> Phase {
    match state {
        PowerState::Off => Phase::Off,
        PowerState::Sleep => Phase::Sleep,
        PowerState::Active => Phase::Active,
    }
}

/// Fixed-timestep transient-computing simulation loop.
pub struct TransientRunner<'a> {
    mcu: Mcu,
    node: SupplyNode,
    monitor: VoltageMonitor,
    strategy: Box<dyn Strategy + 'a>,
    source: RailSource<'a>,
    dt: Seconds,
    time: Seconds,
    v_min: Volts,
    /// `true` between a hibernation snapshot and the subsequent wake/boot.
    hibernated: bool,
    /// Cycles banked from ticks whose budget could not fund even the head
    /// instruction (multi-cycle peripheral ops at fine timesteps), so that
    /// instruction accrues cycles across ticks instead of stalling forever.
    cycle_carry: u64,
    stats: RunnerStats,
    vcc_trace: Option<TimeSeries>,
    freq_trace: Option<TimeSeries>,
    faulted: bool,
    /// Sampling times and samples of the current batch of Off ticks
    /// (scratch, [`OFF_BATCH`] long, kept across calls).
    off_times: Vec<Seconds>,
    off_samples: Vec<SourceSample>,
    /// Off ticks run in closed form by [`TransientRunner::off_ticks`].
    skipped_ticks: u64,
    /// The lifecycle phase last reported to the sink; transitions are
    /// emitted only on change.
    phase: Phase,
    /// Supply power at the last step, sampled only while a sink is
    /// installed (gauge emission reads it at event time).
    supply_power: Watts,
    sink: Option<Telemetry>,
}

impl<'a> TransientRunner<'a> {
    /// Starts a builder.
    pub fn builder() -> RunnerBuilder<'a> {
        RunnerBuilder::new()
    }

    /// The machine under test.
    pub fn mcu(&self) -> &Mcu {
        &self.mcu
    }

    /// The supply node.
    pub fn node(&self) -> &SupplyNode {
        &self.node
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RunnerStats {
        self.stats
    }

    /// The recorded `V_cc` trace, when tracing was enabled.
    pub fn vcc_trace(&self) -> Option<&TimeSeries> {
        self.vcc_trace.as_ref()
    }

    /// The recorded core-frequency trace (MHz), when tracing was enabled.
    pub fn frequency_trace(&self) -> Option<&TimeSeries> {
        self.freq_trace.as_ref()
    }

    /// Current simulation time.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// Current monitor thresholds `(V_H, V_R)`.
    pub fn thresholds(&self) -> (Volts, Volts) {
        (self.monitor.low(), self.monitor.high())
    }

    /// The telemetry sink, unless the kind was [`TelemetryKind::Null`].
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.sink.as_ref()
    }

    /// Off ticks this runner advanced in closed form rather than one by one
    /// (a fixed point of the rail under a repeated source sample; see
    /// `off_ticks`). They are counted in [`RunnerStats::ticks`] like any
    /// other tick; this count is the only trace of the shortcut, and no
    /// report or metric carries it.
    pub fn skipped_ticks(&self) -> u64 {
        self.skipped_ticks
    }

    /// Energy currently stored in the supply-node capacitance.
    fn stored_energy(&self) -> Joules {
        self.node
            .capacitance()
            .energy_between(self.node.voltage(), Volts::ZERO)
            .max(Joules::ZERO)
    }

    /// Stamps `event` with the current time and cumulative consumed energy
    /// and hands it to the sink, preceded by a gauge sample (stored energy
    /// and supply power) at the same instant. With no sink installed this
    /// is one branch.
    fn tap(&mut self, event: Event) {
        if self.sink.is_some() {
            let stored = self.stored_energy();
            let supply = self.supply_power;
            let rec = Record {
                t: self.time,
                energy: self.stats.energy_consumed,
                event,
            };
            if let Some(sink) = &mut self.sink {
                sink.gauge(rec.t, stored, supply);
                sink.record(rec);
            }
        }
    }

    /// Reports a lifecycle-phase transition to the sink, once per change.
    fn set_phase(&mut self, phase: Phase) {
        if phase == self.phase {
            return;
        }
        self.phase = phase;
        if let Some(sink) = &mut self.sink {
            sink.phase(self.time, phase);
        }
    }

    fn draw(&mut self, e: Joules) {
        self.node.draw_energy(e);
        self.stats.energy_consumed += e;
    }

    /// Performs a snapshot attempt with the energy available *above*
    /// `V_min` — the Eq. (4) budget: the copy loop can only execute while
    /// the rail stays in the operating range, so charge below `V_min` is
    /// unreachable. Reports the observation to the strategy.
    fn attempt_snapshot(&mut self) -> bool {
        let v_before = self.node.voltage();
        let available = self
            .node
            .capacitance()
            .energy_between(v_before, self.v_min)
            .max(Joules::ZERO);
        let outcome = self.mcu.take_snapshot(Some(available));
        self.draw(outcome.energy);
        let v_after = self.node.voltage();
        if outcome.completed {
            self.stats.snapshots += 1;
        } else {
            self.stats.torn_snapshots += 1;
        }
        self.tap(Event::Snapshot {
            sealed: outcome.completed,
            cost: outcome.energy,
        });
        if let Some((low, high)) = self.strategy.after_snapshot(SnapshotObservation {
            v_before,
            v_after,
            energy: outcome.energy,
            completed: outcome.completed,
        }) {
            self.monitor.set_thresholds(low, high);
        }
        outcome.completed
    }

    fn boot_sequence(&mut self) {
        self.mcu.cold_boot();
        self.stats.boots += 1;
        self.tap(Event::Boot);
        if self.strategy.restores_snapshots() && self.mcu.has_valid_snapshot() {
            let e = self.mcu.restore_energy();
            if let Some(_r) = self.mcu.restore_snapshot() {
                self.draw(e);
                self.stats.restores += 1;
                self.tap(Event::Restore);
            }
        }
        self.hibernated = false;
        self.set_phase(Phase::Active);
    }

    /// Advances the simulation by one timestep. Returns `false` once the
    /// workload has completed or the machine has faulted.
    pub fn step(&mut self) -> bool {
        self.advance(1, self.time)
    }

    /// Advances by one tick while the machine is powered, or by up to
    /// `max_off` ticks while it stays off and the time stays before
    /// `deadline` (at least one tick either way). Returns what
    /// [`TransientRunner::step`] returns.
    fn advance(&mut self, max_off: usize, deadline: Seconds) -> bool {
        if self.mcu.state() == PowerState::Off {
            self.off_ticks(max_off, deadline);
            true
        } else {
            self.powered_tick()
        }
    }

    /// Runs `PowerState::Off` ticks from one batch of source samples until
    /// the rail reaches `V_H` and the machine boots, the time reaches
    /// `deadline`, or `max_off` ticks (at most [`OFF_BATCH`]) have run. The
    /// first tick always runs. Each tick does exactly what a per-tick step
    /// would: charge the node, book the static draw, record the traces and
    /// the off time, compare against `V_H`.
    ///
    /// When tracing is off and the first tick of a batch left the rail
    /// voltage bit-identical, with every sample of the batch bit-identical
    /// to the first, every later tick of the batch would repeat it exactly:
    /// it changes only sums with a constant addend (the time, the off time,
    /// the static draw `V·I_static·dt`, the node's energy books). The rest
    /// of the batch then runs in closed form with [`edc_units::advance`],
    /// stopping at `deadline` as the tick loop does, and the node's
    /// [`SupplyNode::repeat_fixed_step`] confirms the fixed point. The
    /// result is bit for bit the tick loop's; every other batch runs that
    /// loop.
    fn off_ticks(&mut self, max_off: usize, deadline: Seconds) {
        let dt = self.dt;
        let n = max_off.clamp(1, OFF_BATCH);
        let (mut times, mut samples) = (
            std::mem::take(&mut self.off_times),
            std::mem::take(&mut self.off_samples),
        );
        // The same accumulation `self.time += dt` performs tick by tick.
        let mut t = self.time;
        for slot in &mut times[..n] {
            *slot = t;
            t += dt;
        }
        self.source.sample_batch(&times[..n], &mut samples[..n]);

        let batch = OffBatch {
            i_static: self.mcu.supply_current(),
            v_high: self.monitor.high(),
            tracing: self.vcc_trace.is_some() || self.freq_trace.is_some(),
            deadline,
        };
        let mut ticks = times[..n].iter().zip(&samples[..n]);
        let v_first = self.node.voltage();
        let mut boot = None;
        let mut more = ticks
            .next()
            .is_some_and(|(&t, &sample)| self.off_tick(batch, t, sample, &mut boot));
        // Comparing `V` first spares the batch scan on charging rails; the
        // node repeats the full fixed-point check before any skip.
        if more
            && n > 1
            && !batch.tracing
            && self.node.voltage().0.to_bits() == v_first.0.to_bits()
            && SourceSample::is_repeated(&samples[..n])
        {
            more = !self.skip_fixed_point(batch, samples[0], n - 1);
        }
        if more {
            for (&t, &sample) in ticks {
                if !self.off_tick(batch, t, sample, &mut boot) {
                    break;
                }
            }
        }
        (self.off_times, self.off_samples) = (times, samples);

        if let Some(supply_power) = boot {
            // Gauges read the supply power only at event time.
            if self.sink.is_some() {
                self.supply_power = supply_power;
            }
            let v = self.node.voltage();
            self.monitor.reset();
            self.monitor.update(v);
            self.tap(Event::SupplyCrossing { rising: true });
            self.boot_sequence();
            self.time += dt;
        }
    }

    /// One Off tick at time `t` (see [`TransientRunner::off_ticks`]).
    /// Returns `false` when the batch must stop: the rail reached `v_high`
    /// (the supply power at the crossing goes to `boot`) or the time
    /// reached `deadline`.
    #[inline(always)]
    fn off_tick(
        &mut self,
        batch: OffBatch,
        t: Seconds,
        sample: SourceSample,
        boot: &mut Option<Watts>,
    ) -> bool {
        let dt = self.dt;
        self.stats.ticks += 1;
        let v_before = self.node.voltage();
        let i_src = self.source.current(sample, v_before);
        self.node.step(i_src, batch.i_static, dt);
        self.stats.energy_consumed += self.node.voltage() * batch.i_static * dt;
        let v = self.node.voltage();
        if batch.tracing {
            self.push_traces(t, v);
        }
        self.stats.off_time += dt;
        if v >= batch.v_high {
            *boot = Some(v_before * i_src);
            return false;
        }
        self.time += dt;
        if self.time >= batch.deadline {
            return false;
        }
        true
    }

    /// Runs up to `max` more Off ticks of a repeated `sample` in closed
    /// form, stopping right after the tick that reaches the deadline, when
    /// the node confirms the tick is a fixed point. Returns whether it did
    /// (otherwise nothing changed).
    fn skip_fixed_point(&mut self, batch: OffBatch, sample: SourceSample, max: usize) -> bool {
        let dt = self.dt;
        let (k, time, _) = advance(self.time.0, dt.0, max as u64, batch.deadline.0);
        let i_src = self.source.current(sample, self.node.voltage());
        if !self.node.repeat_fixed_step(i_src, batch.i_static, dt, k) {
            return false;
        }
        let draw = self.node.voltage() * batch.i_static * dt;
        let repeat = |sum: f64, e: f64| advance(sum, e, k, f64::INFINITY).1;
        self.time = Seconds(time);
        self.stats.ticks += k;
        self.stats.off_time = Seconds(repeat(self.stats.off_time.0, dt.0));
        self.stats.energy_consumed = Joules(repeat(self.stats.energy_consumed.0, draw.0));
        self.skipped_ticks += k;
        true
    }

    /// Appends one sample to each enabled figure trace.
    fn push_traces(&mut self, t: Seconds, v: Volts) {
        if let Some(trace) = &mut self.vcc_trace {
            trace.push(t, v.0);
        }
        if let Some(trace) = &mut self.freq_trace {
            let f = if self.mcu.state() == PowerState::Active {
                self.mcu.frequency().0 / 1e6
            } else {
                0.0
            };
            trace.push(t, f);
        }
    }

    /// One tick of a `Sleep` or `Active` machine.
    fn powered_tick(&mut self) -> bool {
        let t = self.time;
        let dt = self.dt;
        self.stats.ticks += 1;

        // 1. Source charges the node; static (sleep) load discharges it.
        let v = self.node.voltage();
        let sample = self.source.sample(t);
        let i_src = self.source.current(sample, v);
        if self.sink.is_some() {
            self.supply_power = v * i_src;
        }
        let i_static = match self.mcu.state() {
            PowerState::Active => Amps::ZERO, // drawn as lump energy below
            _ => self.mcu.supply_current(),
        };
        self.node.step(i_src, i_static, dt);
        if self.mcu.state() != PowerState::Active {
            self.stats.energy_consumed += self.node.voltage() * i_static * dt;
        }
        let v = self.node.voltage();
        self.push_traces(t, v);

        // 2. State machine.
        match self.mcu.state() {
            PowerState::Off => unreachable!("off ticks run in `off_ticks`"),
            PowerState::Sleep => {
                if v < self.v_min {
                    // The node kept sagging: the sleeping machine dies too.
                    self.mcu.power_loss();
                    self.monitor.reset();
                    self.stats.brownouts += 1;
                    self.tap(Event::PowerFail);
                    self.set_phase(Phase::Off);
                    self.stats.sleep_time += dt;
                } else if self.mcu.is_halted() {
                    self.stats.sleep_time += dt;
                } else if v >= self.monitor.high() && self.hibernated {
                    // Supply recovered before dying: RAM intact, continue.
                    self.monitor.update(v);
                    self.mcu.wake();
                    self.hibernated = false;
                    self.tap(Event::SupplyCrossing { rising: true });
                    self.set_phase(Phase::Active);
                    self.stats.sleep_time += dt;
                } else {
                    self.stats.sleep_time += dt;
                }
            }
            PowerState::Active => {
                if v < self.v_min {
                    self.mcu.power_loss();
                    self.monitor.reset();
                    self.cycle_carry = 0;
                    self.stats.brownouts += 1;
                    self.tap(Event::Brownout);
                    self.set_phase(Phase::Off);
                    return true;
                }
                self.strategy.on_tick(v, &mut self.mcu);
                // Voltage interrupt?
                if let Some(MonitorEvent::FellBelowLow) = self.monitor.update(v) {
                    self.tap(Event::SupplyCrossing { rising: false });
                    if self.strategy.on_low_voltage() == LowVoltageResponse::Hibernate {
                        self.attempt_snapshot();
                        self.mcu.sleep();
                        self.hibernated = true;
                        self.cycle_carry = 0;
                        self.set_phase(Phase::Sleep);
                        self.stats.active_time += dt;
                        return true;
                    }
                }
                // Execute this tick's cycle budget (plus any cycles banked
                // by starved ticks before it).
                let mut budget = self.mcu.cycles_in(dt) + self.cycle_carry;
                self.cycle_carry = 0;
                let stop_at_markers = self.strategy.wants_markers();
                let mut retired_this_tick = 0u64;
                while budget > 0 {
                    let report = self.mcu.run(budget, stop_at_markers);
                    self.draw(report.energy);
                    self.stats.cycles += report.cycles;
                    self.stats.instructions += report.instructions;
                    retired_this_tick += report.instructions;
                    let remaining = budget.saturating_sub(report.cycles.max(1));
                    match report.exit {
                        RunExit::Completed => {
                            if self.stats.completed_at.is_none() {
                                self.stats.completed_at = Some(self.time);
                                self.tap(Event::TaskComplete);
                                // A finished program must not be resurrected.
                                self.mcu.invalidate_snapshot();
                                self.mcu.sleep();
                                self.set_phase(Phase::Sleep);
                            }
                            self.stats.active_time += dt;
                            return false;
                        }
                        RunExit::Marker(_) => {
                            let v_now = self.node.voltage();
                            if self.strategy.on_marker(v_now) == MarkerResponse::Checkpoint {
                                self.attempt_snapshot();
                                if self.node.voltage() < self.v_min {
                                    // The snapshot burst killed the rail.
                                    break;
                                }
                            }
                        }
                        RunExit::BudgetExhausted => {
                            if retired_this_tick == 0 {
                                // Even the head instruction costs more than
                                // the whole tick (multi-cycle peripheral
                                // ops like `Sense`/`Tx` at fine timesteps).
                                // Bank the budget so the instruction accrues
                                // cycles over the following ticks instead
                                // of stalling forever; ticks that made any
                                // progress discard their remainder exactly
                                // as before.
                                self.cycle_carry = budget;
                                self.stats.carry_activations += 1;
                            }
                            break;
                        }
                        RunExit::Fault(_) => {
                            self.faulted = true;
                            return false;
                        }
                    }
                    budget = remaining;
                }
                self.stats.active_time += dt;
            }
        }
        self.time += dt;
        true
    }

    /// Runs until the workload completes, the machine faults, or `deadline`
    /// passes.
    pub fn run_until_complete(&mut self, deadline: Seconds) -> RunOutcome {
        while self.time < deadline {
            if !self.advance(OFF_BATCH, deadline) {
                break;
            }
        }
        if self.faulted {
            RunOutcome::Faulted
        } else if self.stats.completed_at.is_some() {
            RunOutcome::Completed
        } else {
            RunOutcome::DeadlineExpired
        }
    }

    /// Runs for a fixed duration regardless of completion (figure traces).
    pub fn run_for(&mut self, duration: Seconds) {
        let end = Seconds(self.time.0 + duration.0);
        while self.time < end && !self.faulted {
            let live = self.advance(OFF_BATCH, end);
            if !live {
                // Completed: keep simulating the idle system so traces cover
                // the full window.
                self.time += self.dt;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hibernus, Restart};
    use edc_harvest::{DcSupply, Gated};
    use edc_units::Ohms;
    use edc_workloads::{BusyLoop, Workload};

    fn dc_source(v_oc: f64, r: f64) -> Box<dyn EnergySource> {
        Box::new(DcSupply::new(Volts(v_oc)).with_resistance(Ohms(r)))
    }

    #[test]
    fn steady_supply_completes_without_snapshots() {
        let wl = BusyLoop::new(2000);
        let mut runner = TransientRunner::builder()
            .strategy(Box::new(Hibernus::new()))
            .program(wl.program())
            .source(dc_source(3.3, 10.0))
            .build()
            .unwrap();
        let out = runner.run_until_complete(Seconds(1.0));
        assert_eq!(out, RunOutcome::Completed);
        assert_eq!(runner.stats().snapshots, 0);
        assert_eq!(runner.stats().brownouts, 0);
        wl.verify(runner.mcu()).unwrap();
    }

    #[test]
    fn build_names_each_missing_part_and_bad_efficiency() {
        let wl = BusyLoop::new(10);
        let restart = || -> Box<dyn Strategy> { Box::new(Restart::new()) };
        let no_strategy = TransientRunner::builder()
            .program(wl.program())
            .source(dc_source(3.3, 10.0));
        assert_eq!(
            no_strategy.build().err(),
            Some(RunnerBuildError::MissingStrategy)
        );
        let no_program = TransientRunner::builder()
            .strategy(restart())
            .source(dc_source(3.3, 10.0));
        assert_eq!(
            no_program.build().err(),
            Some(RunnerBuildError::MissingProgram)
        );
        let no_source = TransientRunner::builder()
            .strategy(restart())
            .program(wl.program());
        assert_eq!(
            no_source.build().err(),
            Some(RunnerBuildError::MissingSource)
        );
        for efficiency in [0.0, 1.5] {
            let bad = TransientRunner::builder()
                .strategy(restart())
                .program(wl.program())
                .source(dc_source(3.3, 10.0))
                .efficiency(efficiency);
            assert_eq!(
                bad.build().err(),
                Some(RunnerBuildError::InvalidEfficiency(efficiency))
            );
        }
    }

    #[test]
    fn restart_strategy_eventually_completes_on_gappy_supply() {
        // Supply present 60 ms of every 100 ms: short workload fits an
        // on-window, so even restart completes.
        let wl = BusyLoop::new(500);
        let mut runner = TransientRunner::builder()
            .strategy(Box::new(Restart::new()))
            .program(wl.program())
            .source(Box::new(Gated::new(
                DcSupply::new(Volts(3.3)).with_resistance(Ohms(10.0)),
                (0..20)
                    .map(|k| (Seconds(k as f64 * 0.1), Seconds(k as f64 * 0.1 + 0.06)))
                    .collect(),
            )))
            .build()
            .unwrap();
        let out = runner.run_until_complete(Seconds(2.0));
        assert_eq!(out, RunOutcome::Completed);
        wl.verify(runner.mcu()).unwrap();
    }

    #[test]
    fn rail_source_applies_rectifier_and_efficiency() {
        use edc_harvest::{SignalGenerator, Waveform};
        use edc_power::RectifierKind;
        use edc_units::Hertz;

        let mut dc = RailSource {
            source: dc_source(3.0, 10.0),
            rectifier: None,
            efficiency: 0.5,
        };
        let sample = dc.sample(Seconds(0.0));
        let i = dc.current(sample, Volts(1.0));
        assert!((i.0 - 0.1).abs() < 1e-12); // (3−1)/10 × 0.5

        let mut sine = RailSource {
            source: Box::new(
                SignalGenerator::new(Waveform::Sine, Volts(3.0), Hertz(1.0))
                    .with_resistance(Ohms(10.0)),
            ),
            rectifier: Some(Rectifier::ideal(RectifierKind::HalfWave)),
            efficiency: 1.0,
        };
        // Negative half-cycle → rectified to zero → no current.
        let trough = sine.sample(Seconds(0.75));
        assert_eq!(sine.current(trough, Volts(0.0)), Amps::ZERO);
        // The batch path rectifies identically.
        let times = [Seconds(0.25), Seconds(0.75)];
        let mut batch = [SourceSample::OFF; 2];
        sine.sample_batch(&times, &mut batch);
        let crest = sine.sample(times[0]);
        assert_eq!(batch, [crest, trough]);
    }

    #[test]
    fn stats_duty_cycle_is_fraction() {
        let stats = RunnerStats {
            active_time: Seconds(1.0),
            sleep_time: Seconds(2.0),
            off_time: Seconds(1.0),
            ..RunnerStats::default()
        };
        assert!((stats.duty_cycle() - 0.25).abs() < 1e-12);
        assert_eq!(RunnerStats::default().duty_cycle(), 0.0);
    }

    #[test]
    fn telemetry_sink_receives_lifecycle_events() {
        let wl = BusyLoop::new(500);
        let mut runner = TransientRunner::builder()
            .strategy(Box::new(Restart::new()))
            .program(wl.program())
            .source(dc_source(3.3, 10.0))
            .telemetry(TelemetryKind::Ring { capacity: 64 })
            .build()
            .unwrap();
        let out = runner.run_until_complete(Seconds(1.0));
        assert_eq!(out, RunOutcome::Completed);
        let Some(Telemetry::Ring(ring)) = runner.telemetry() else {
            panic!("a ring kind builds a ring");
        };
        let events: Vec<Event> = ring.records().iter().map(|r| r.event).collect();
        assert_eq!(events[0], Event::SupplyCrossing { rising: true });
        assert_eq!(events[1], Event::Boot);
        assert_eq!(*events.last().unwrap(), Event::TaskComplete);
        for w in ring.records().windows(2) {
            assert!(w[1].energy >= w[0].energy, "energy stamps are monotone");
            assert!(w[1].t >= w[0].t, "timestamps are monotone");
        }
    }

    #[test]
    fn timeline_sink_sees_phases_and_gauges() {
        let wl = BusyLoop::new(500);
        let mut runner = TransientRunner::builder()
            .strategy(Box::new(Restart::new()))
            .program(wl.program())
            .source(dc_source(3.3, 10.0))
            .telemetry(TelemetryKind::Timeline)
            .build()
            .unwrap();
        let out = runner.run_until_complete(Seconds(1.0));
        assert_eq!(out, RunOutcome::Completed);
        let Some(Telemetry::Timeline(tl)) = runner.telemetry() else {
            panic!("a timeline kind builds a timeline");
        };
        let phases: Vec<Phase> = tl.phases().iter().map(|p| p.phase).collect();
        assert_eq!(
            phases,
            vec![Phase::Off, Phase::Active, Phase::Sleep],
            "cold start → boot → completion"
        );
        assert_eq!(tl.phases()[0].t, Seconds(0.0), "initial span opens at 0");
        assert_eq!(
            tl.gauges().len(),
            tl.records().len() + 1,
            "one gauge per event plus the t = 0 sample"
        );
        for w in tl.phases().windows(2) {
            assert!(w[1].t >= w[0].t, "phase stamps are monotone");
        }
        assert!(
            tl.gauges().iter().skip(1).any(|g| g.supply.0 > 0.0),
            "supply power is sampled"
        );
        assert!(tl.gauges().iter().all(|g| g.stored.0 >= 0.0));
    }
}
