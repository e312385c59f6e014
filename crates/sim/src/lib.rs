//! Fixed-timestep simulation primitives for energy-harvesting systems.
//!
//! The analog heart of every experiment in the paper is a single supply node:
//! a capacitance `C` (added storage plus parasitic/decoupling capacitance)
//! charged by a harvester and discharged by a computational load. Figures 7
//! and 8 of the paper are literally plots of this node's voltage. This crate
//! provides that node ([`SupplyNode`]), the sampled-trace recorder
//! ([`TimeSeries`]) the figure-regeneration harnesses use, and an energy
//! integrator ([`EnergyIntegrator`]).
//!
//! Integration is explicit forward Euler on the charge balance
//! `dV/dt = (I_in − I_load − V/R_leak) / C`, which is accurate for the
//! comparator-threshold dynamics of interest as long as the timestep is small
//! relative to both the source period and the RC time constant; the defaults
//! used throughout the workspace keep `dt ≤ τ/100`.
//!
//! # Examples
//!
//! Charging a 10 µF rail with a constant 1 mA source:
//!
//! ```
//! use edc_sim::SupplyNode;
//! use edc_units::{Amps, Farads, Seconds, Volts};
//!
//! let mut node = SupplyNode::new(Farads::from_micro(10.0), Volts(0.0));
//! for _ in 0..1000 {
//!     node.step(Amps::from_milli(1.0), Amps(0.0), Seconds(1e-6));
//! }
//! // Q = I·t = 1 mA · 1 ms = 1 µC  →  V = Q/C = 0.1 V
//! assert!((node.voltage().0 - 0.1).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use edc_units::{advance, Amps, Coulombs, Farads, Joules, Ohms, Seconds, Volts, Watts};

/// A single supply rail: storage capacitance, its voltage, and bookkeeping
/// for the energy that has flowed through it.
///
/// The node models the "Energy Storage" box of the paper's Fig. 3 — or, for
/// energy-driven systems (Fig. 4), the parasitic/decoupling capacitance that
/// remains once explicit storage is removed.
#[derive(Debug, Clone)]
pub struct SupplyNode {
    capacitance: Farads,
    voltage: Volts,
    /// Self-discharge path; `None` models an ideal capacitor.
    leakage: Option<Ohms>,
    /// Overvoltage clamp (e.g. a protection zener or regulator input limit).
    clamp: Option<Volts>,
    energy_in: Joules,
    energy_out: Joules,
    energy_leaked: Joules,
    energy_clamped: Joules,
}

impl SupplyNode {
    /// Creates a supply node with the given capacitance and initial voltage.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance` is not strictly positive or if the initial
    /// voltage is negative ([C-VALIDATE]).
    ///
    /// [C-VALIDATE]: https://rust-lang.github.io/api-guidelines/dependability.html
    pub fn new(capacitance: Farads, initial: Volts) -> Self {
        assert!(
            capacitance.is_positive(),
            "supply node capacitance must be > 0, got {capacitance}"
        );
        assert!(
            initial.0 >= 0.0,
            "supply node initial voltage must be ≥ 0, got {initial}"
        );
        Self {
            capacitance,
            voltage: initial,
            leakage: None,
            clamp: None,
            energy_in: Joules::ZERO,
            energy_out: Joules::ZERO,
            energy_leaked: Joules::ZERO,
            energy_clamped: Joules::ZERO,
        }
    }

    /// Adds a parallel leakage resistance (self-discharge).
    pub fn with_leakage(mut self, leakage: Ohms) -> Self {
        assert!(leakage.is_positive(), "leakage resistance must be > 0");
        self.leakage = Some(leakage);
        self
    }

    /// Adds an overvoltage clamp: charge pushing the rail above this voltage
    /// is shunted (and accounted under [`SupplyNode::energy_clamped`]).
    pub fn with_clamp(mut self, clamp: Volts) -> Self {
        assert!(clamp.is_positive(), "clamp voltage must be > 0");
        self.clamp = Some(clamp);
        self
    }

    /// Current rail voltage `V_cc`.
    pub fn voltage(&self) -> Volts {
        self.voltage
    }

    /// Node capacitance.
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// Energy currently stored in the capacitance (`C·V²/2`).
    pub fn stored_energy(&self) -> Joules {
        self.capacitance.energy_at(self.voltage)
    }

    /// Cumulative energy delivered *into* the node by sources.
    pub fn energy_in(&self) -> Joules {
        self.energy_in
    }

    /// Cumulative energy drawn *out of* the node by loads.
    pub fn energy_out(&self) -> Joules {
        self.energy_out
    }

    /// Cumulative energy lost to the leakage path.
    pub fn energy_leaked(&self) -> Joules {
        self.energy_leaked
    }

    /// Cumulative energy shunted by the overvoltage clamp.
    pub fn energy_clamped(&self) -> Joules {
        self.energy_clamped
    }

    /// Advances the node by `dt` with the given source and load currents.
    ///
    /// Currents are clamped to physical behaviour: the rail voltage can never
    /// go negative (a load cannot extract charge that is not there), and the
    /// optional clamp bounds it from above. Returns the voltage after the
    /// step.
    pub fn step(&mut self, i_in: Amps, i_out: Amps, dt: Seconds) -> Volts {
        debug_assert!(dt.is_positive(), "timestep must be > 0");
        let i_leak = match self.leakage {
            Some(r) => self.voltage / r,
            None => Amps::ZERO,
        };
        let dq = (i_in - i_out - i_leak) * dt;
        let q0 = self.capacitance * self.voltage;
        let mut q1 = q0 + dq;

        // Book-keep at the pre-step voltage; adequate at the small timesteps
        // used throughout (error is second order in dt).
        self.energy_in += (self.voltage * i_in) * dt;
        self.energy_out += (self.voltage * i_out) * dt;
        self.energy_leaked += (self.voltage * i_leak) * dt;

        if q1.0 < 0.0 {
            // The load wanted more charge than available: rail collapses to 0.
            // Refund the over-counted draw so the books stay conservative.
            let overdraw = Coulombs(-q1.0);
            self.energy_out -= self.voltage * (overdraw / dt) * dt;
            q1 = Coulombs::ZERO;
        }
        let mut v1 = q1 / self.capacitance;
        if let Some(clamp) = self.clamp {
            if v1 > clamp {
                let excess = self.capacitance.energy_between(v1, clamp);
                self.energy_clamped += excess;
                v1 = clamp;
            }
        }
        self.voltage = v1;
        v1
    }

    /// Repeats `k` times a [`SupplyNode::step`] that leaves the rail voltage
    /// bit-identical, advancing the energy books in closed form with
    /// [`edc_units::advance`]: the result is bit for bit what `k` calls of
    /// `step` would leave. Returns `false` and changes nothing when the
    /// step is not such a fixed point.
    pub fn repeat_fixed_step(&mut self, i_in: Amps, i_out: Amps, dt: Seconds, k: u64) -> bool {
        // One step from books of -0.0, the additive identity, leaves each
        // book holding exactly the addend the step adds to it.
        let mut probe = Self {
            energy_in: Joules(-0.0),
            energy_out: Joules(-0.0),
            energy_leaked: Joules(-0.0),
            energy_clamped: Joules(-0.0),
            ..self.clone()
        };
        probe.step(i_in, i_out, dt);
        if probe.voltage.0.to_bits() != self.voltage.0.to_bits() {
            return false;
        }
        // A step that refunds an overdraw leaves the rail at +0 V, and it
        // books the draw and then the refund: `energy_out` takes one
        // constant addend only when both are exact zeros, so their
        // difference must be +0.0.
        if self.voltage.0.to_bits() == 0 && probe.energy_out.0.to_bits() != 0 {
            return false;
        }
        let repeat = |sum: &mut Joules, e: Joules| {
            sum.0 = advance(sum.0, e.0, k, f64::INFINITY).1;
        };
        repeat(&mut self.energy_in, probe.energy_in);
        repeat(&mut self.energy_out, probe.energy_out);
        repeat(&mut self.energy_leaked, probe.energy_leaked);
        repeat(&mut self.energy_clamped, probe.energy_clamped);
        true
    }

    /// Removes a lump of energy from the node immediately (e.g. the cost of a
    /// snapshot burst that is small relative to the timestep). Returns the
    /// energy actually removed, which is less than requested if the node ran
    /// dry.
    pub fn draw_energy(&mut self, e: Joules) -> Joules {
        assert!(e.0 >= 0.0, "cannot draw negative energy");
        let available = self.stored_energy();
        let taken = e.min(available);
        self.voltage = self.capacitance.voltage_after(self.voltage, -taken);
        self.energy_out += taken;
        taken
    }

    /// Injects a lump of energy into the node immediately.
    pub fn inject_energy(&mut self, e: Joules) {
        assert!(e.0 >= 0.0, "cannot inject negative energy");
        self.voltage = self.capacitance.voltage_after(self.voltage, e);
        self.energy_in += e;
        if let Some(clamp) = self.clamp {
            if self.voltage > clamp {
                let excess = self.capacitance.energy_between(self.voltage, clamp);
                self.energy_clamped += excess;
                self.voltage = clamp;
            }
        }
    }
}

/// A recorded scalar-vs-time series with optional decimation, used by the
/// figure harnesses (e.g. the `V_cc` trace of Fig. 7).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    points: Vec<(Seconds, f64)>,
    /// Record every `decimation`-th sample (1 = record all).
    decimation: u64,
    counter: u64,
}

impl TimeSeries {
    /// Creates an empty series with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            points: Vec::new(),
            decimation: 1,
            counter: 0,
        }
    }

    /// Creates a series that keeps only every `decimation`-th pushed sample.
    ///
    /// # Panics
    ///
    /// Panics if `decimation == 0`.
    pub fn with_decimation(name: impl Into<String>, decimation: u64) -> Self {
        assert!(decimation > 0, "decimation must be ≥ 1");
        Self {
            decimation,
            ..Self::new(name)
        }
    }

    /// The display name of the series.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pushes a sample, honouring decimation.
    pub fn push(&mut self, t: Seconds, value: f64) {
        if self.counter.is_multiple_of(self.decimation) {
            self.points.push((t, value));
        }
        self.counter += 1;
    }

    /// The recorded `(time, value)` points.
    pub fn points(&self) -> &[(Seconds, f64)] {
        &self.points
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Minimum recorded value, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Maximum recorded value, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .max_by(|a, b| a.total_cmp(b))
    }

    /// Arithmetic mean of recorded values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }

    /// Times at which the series crosses `threshold` in the given direction.
    pub fn crossings(&self, threshold: f64, direction: CrossingDirection) -> Vec<Seconds> {
        let mut out = Vec::new();
        for window in self.points.windows(2) {
            let (_, a) = window[0];
            let (tb, b) = window[1];
            let rising = a < threshold && b >= threshold;
            let falling = a > threshold && b <= threshold;
            let hit = match direction {
                CrossingDirection::Rising => rising,
                CrossingDirection::Falling => falling,
                CrossingDirection::Either => rising || falling,
            };
            if hit {
                out.push(tb);
            }
        }
        out
    }

    /// Renders the series as `t<TAB>value` lines — the format the figure
    /// binaries emit so results can be plotted with any external tool.
    pub fn to_tsv(&self) -> String {
        let mut s = String::with_capacity(self.points.len() * 24);
        s.push_str(&format!("# {}\n", self.name));
        for (t, v) in &self.points {
            s.push_str(&format!("{:.6}\t{:.6}\n", t.0, v));
        }
        s
    }
}

/// Direction selector for [`TimeSeries::crossings`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossingDirection {
    /// Low → high transitions only.
    Rising,
    /// High → low transitions only.
    Falling,
    /// Both directions.
    Either,
}

/// Running energy/power integrator: accumulates `P·dt` and reports averages.
///
/// Used by the energy-neutrality audit (Eq. 1) and by metrics collection.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyIntegrator {
    total: Joules,
    elapsed: Seconds,
}

impl EnergyIntegrator {
    /// Creates a zeroed integrator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates `p · dt`.
    pub fn add(&mut self, p: Watts, dt: Seconds) {
        self.total += p * dt;
        self.elapsed += dt;
    }

    /// Total integrated energy.
    pub fn total(&self) -> Joules {
        self.total
    }

    /// Total integrated time.
    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }

    /// Mean power over the integrated window (zero if nothing integrated).
    pub fn mean_power(&self) -> Watts {
        if self.elapsed.0 > 0.0 {
            self.total / self.elapsed
        } else {
            Watts::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn micro(uf: f64) -> Farads {
        Farads::from_micro(uf)
    }

    #[test]
    fn charging_matches_analytic_ramp() {
        let mut node = SupplyNode::new(micro(100.0), Volts(0.0));
        let dt = Seconds(1e-6);
        for _ in 0..10_000 {
            node.step(Amps::from_milli(1.0), Amps::ZERO, dt);
        }
        // V = I·t/C = 1e-3 * 0.01 / 1e-4 = 0.1 V
        assert!((node.voltage().0 - 0.1).abs() < 1e-9);
    }

    #[test]
    fn discharge_cannot_go_negative() {
        let mut node = SupplyNode::new(micro(1.0), Volts(0.5));
        for _ in 0..1000 {
            node.step(Amps::ZERO, Amps(1.0), Seconds(1e-3));
        }
        assert_eq!(node.voltage(), Volts(0.0));
    }

    #[test]
    fn clamp_limits_voltage_and_accounts_energy() {
        let mut node = SupplyNode::new(micro(1.0), Volts(0.0)).with_clamp(Volts(3.6));
        for _ in 0..100_000 {
            node.step(Amps::from_milli(10.0), Amps::ZERO, Seconds(1e-5));
        }
        assert!((node.voltage().0 - 3.6).abs() < 1e-9);
        assert!(node.energy_clamped().is_positive());
    }

    #[test]
    fn leakage_decays_exponentially() {
        let c = micro(100.0);
        let r = Ohms(10_000.0);
        let mut node = SupplyNode::new(c, Volts(3.0)).with_leakage(r);
        let tau = r.0 * c.0; // 1 s
        let dt = Seconds(tau / 1000.0);
        let steps = 1000; // one time constant
        for _ in 0..steps {
            node.step(Amps::ZERO, Amps::ZERO, dt);
        }
        let expected = 3.0 * (-1.0f64).exp();
        assert!(
            (node.voltage().0 - expected).abs() < 0.01,
            "voltage {} vs analytic {}",
            node.voltage(),
            expected
        );
    }

    #[test]
    fn draw_energy_respects_availability() {
        let mut node = SupplyNode::new(micro(10.0), Volts(2.0));
        let stored = node.stored_energy();
        let taken = node.draw_energy(stored * 2.0);
        assert!((taken.0 - stored.0).abs() < 1e-15);
        assert_eq!(node.voltage(), Volts(0.0));
    }

    #[test]
    fn inject_energy_raises_voltage() {
        let mut node = SupplyNode::new(micro(10.0), Volts(1.0));
        node.inject_energy(Joules::from_micro(10.0));
        let expected = micro(10.0).voltage_after(Volts(1.0), Joules::from_micro(10.0));
        assert_eq!(node.voltage(), expected);
    }

    #[test]
    fn inject_energy_honours_clamp() {
        let mut node = SupplyNode::new(micro(1.0), Volts(3.5)).with_clamp(Volts(3.6));
        node.inject_energy(Joules(1.0));
        assert_eq!(node.voltage(), Volts(3.6));
        assert!(node.energy_clamped().is_positive());
    }

    #[test]
    #[should_panic(expected = "capacitance must be > 0")]
    fn zero_capacitance_rejected() {
        let _ = SupplyNode::new(Farads(0.0), Volts(0.0));
    }

    #[test]
    fn timeseries_stats_and_crossings() {
        let mut ts = TimeSeries::new("v");
        for i in 0..100 {
            let t = i as f64 * 0.01;
            // Cosine-like: starts at +1, falls through 0 at t=0.25, rises at t=0.75.
            ts.push(Seconds(t), (2.0 * std::f64::consts::PI * (t + 0.25)).sin());
        }
        assert!(ts.max().unwrap() > 0.99);
        assert!(ts.min().unwrap() < -0.99);
        assert!(ts.mean().unwrap().abs() < 0.05);
        let rising = ts.crossings(0.0, CrossingDirection::Rising);
        let falling = ts.crossings(0.0, CrossingDirection::Falling);
        assert_eq!(rising.len(), 1);
        assert_eq!(falling.len(), 1);
        let either = ts.crossings(0.0, CrossingDirection::Either);
        assert_eq!(either.len(), 2);
    }

    #[test]
    fn timeseries_decimation_keeps_every_nth() {
        let mut ts = TimeSeries::with_decimation("v", 10);
        for i in 0..100 {
            ts.push(Seconds(i as f64), i as f64);
        }
        assert_eq!(ts.len(), 10);
        assert_eq!(ts.points()[1].1, 10.0);
    }

    #[test]
    fn timeseries_tsv_format() {
        let mut ts = TimeSeries::new("vcc");
        ts.push(Seconds(0.5), 3.3);
        let tsv = ts.to_tsv();
        assert!(tsv.starts_with("# vcc\n"));
        assert!(tsv.contains("0.500000\t3.300000"));
    }

    #[test]
    fn energy_integrator_mean_power() {
        let mut acc = EnergyIntegrator::new();
        acc.add(Watts(2.0), Seconds(1.0));
        acc.add(Watts(4.0), Seconds(1.0));
        assert_eq!(acc.total(), Joules(6.0));
        assert_eq!(acc.mean_power(), Watts(3.0));
        assert_eq!(EnergyIntegrator::new().mean_power(), Watts::ZERO);
    }

    /// A node's voltage and energy books, as exact bits.
    fn node_bits(node: &SupplyNode) -> [u64; 5] {
        [
            node.voltage().0.to_bits(),
            node.energy_in().0.to_bits(),
            node.energy_out().0.to_bits(),
            node.energy_leaked().0.to_bits(),
            node.energy_clamped().0.to_bits(),
        ]
    }

    /// `repeat_fixed_step` against `k` plain steps from the same node:
    /// returns whether it took the step.
    fn check_repeat(node: &SupplyNode, i_in: Amps, i_out: Amps, dt: Seconds, k: u64) -> bool {
        let (mut closed, mut plain) = (node.clone(), node.clone());
        let fixed = closed.repeat_fixed_step(i_in, i_out, dt, k);
        if fixed {
            for _ in 0..k {
                plain.step(i_in, i_out, dt);
            }
        }
        assert_eq!(
            node_bits(&closed),
            node_bits(&plain),
            "{node:?} {i_in} {i_out} k={k}"
        );
        fixed
    }

    #[test]
    fn repeat_fixed_step_matches_plain_steps_at_fixed_points() {
        let dt = Seconds(2e-5);
        // A dead rail under load: every step refunds an exact +0.0.
        let dead = SupplyNode::new(micro(10.0), Volts(0.0)).with_leakage(Ohms(1e5));
        assert!(check_repeat(
            &dead,
            Amps::ZERO,
            Amps::from_micro(5.0),
            dt,
            255
        ));
        // An unbounded draw makes the refund NaN, not zero: no fixed point.
        assert!(!check_repeat(&dead, Amps::ZERO, Amps(f64::INFINITY), dt, 3));
        // A rail on its clamp books the same excess every step.
        let mut clamped = SupplyNode::new(micro(10.0), Volts(0.0)).with_clamp(Volts(1.0));
        for _ in 0..1000 {
            clamped.step(Amps::from_milli(10.0), Amps::ZERO, dt);
        }
        assert_eq!(clamped.voltage(), Volts(1.0));
        assert!(check_repeat(
            &clamped,
            Amps::from_milli(10.0),
            Amps::ZERO,
            dt,
            100_000
        ));
        // A charging rail is no fixed point and is left alone.
        assert!(!check_repeat(
            &clamped,
            Amps::ZERO,
            Amps::from_milli(1.0),
            dt,
            10
        ));
        // An overdraw that empties a charged rail refunds a non-zero draw.
        let full = SupplyNode::new(micro(1.0), Volts(0.1));
        assert!(!check_repeat(&full, Amps::ZERO, Amps(1.0), dt, 10));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

        /// From random states, `repeat_fixed_step` either equals `k` plain
        /// steps bit for bit or changes nothing.
        #[test]
        fn prop_repeat_fixed_step_matches_plain_steps(
            v0_pick in (0u8..4, 0.0f64..3.6),
            currents in (0u8..4, 0.0f64..1e-3, 0.0f64..1e-3),
            shape in (0u8..4, 1.0f64..100.0),
            books in (0.0f64..1.0, 0u8..3),
            k in 0u64..600,
        ) {
            let c = micro(shape.1);
            let clamp = Volts(0.5 + v0_pick.1 / 2.0);
            let v0 = match v0_pick.0 {
                0 => Volts::ZERO,
                1 if shape.0 & 2 == 2 => clamp,
                _ => Volts(v0_pick.1),
            };
            let mut node = SupplyNode::new(c, v0);
            if shape.0 & 1 == 1 {
                node = node.with_leakage(Ohms(1e4 + 1e6 * currents.1));
            }
            if shape.0 & 2 == 2 {
                node = node.with_clamp(clamp);
            }
            // Books already in a high binade, so each add rounds.
            let scale = [0.0, 1e-6, 1e3][books.1 as usize];
            node.energy_in = Joules(books.0 * scale);
            node.energy_out = Joules(books.0 * scale * 0.5);
            node.energy_leaked = Joules(books.0 * scale * 0.25);
            node.energy_clamped = Joules(books.0 * scale * 0.125);
            let (i_in, i_out) = match currents.0 {
                0 => (Amps::ZERO, Amps(currents.2)),
                1 => (Amps(currents.1), Amps::ZERO),
                2 => (Amps(currents.1 * 1e-12), Amps::ZERO),
                _ => (Amps(currents.1), Amps(currents.2)),
            };
            check_repeat(&node, i_in, i_out, Seconds(2e-5), k);
        }
    }

    proptest! {
        #[test]
        fn prop_energy_books_balance(
            c_uf in 1.0f64..1000.0,
            v0 in 0.0f64..3.6,
            i_in_ma in 0.0f64..10.0,
            i_out_ma in 0.0f64..10.0,
            steps in 1usize..2000,
        ) {
            let mut node = SupplyNode::new(Farads::from_micro(c_uf), Volts(v0));
            let dt = Seconds(1e-5);
            let e0 = node.stored_energy();
            for _ in 0..steps {
                node.step(Amps::from_milli(i_in_ma), Amps::from_milli(i_out_ma), dt);
            }
            let e1 = node.stored_energy();
            let balance = e0.0 + node.energy_in().0
                - node.energy_out().0
                - node.energy_leaked().0
                - node.energy_clamped().0;
            // Forward Euler book-keeping error is bounded and small.
            let scale = e0.0.abs() + node.energy_in().0 + node.energy_out().0 + 1e-12;
            prop_assert!((balance - e1.0).abs() <= 0.05 * scale + 1e-9,
                "imbalance: {} vs {}", balance, e1.0);
        }

        #[test]
        fn prop_voltage_never_negative(
            v0 in 0.0f64..3.6,
            i_out_ma in 0.0f64..100.0,
            steps in 1usize..500,
        ) {
            let mut node = SupplyNode::new(Farads::from_micro(4.7), Volts(v0));
            for _ in 0..steps {
                node.step(Amps::ZERO, Amps::from_milli(i_out_ma), Seconds(1e-4));
                prop_assert!(node.voltage().0 >= 0.0);
            }
        }
    }
}
