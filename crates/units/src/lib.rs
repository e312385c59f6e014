//! Typed physical quantities for the `energy-driven` workspace.
//!
//! Every crate in the workspace trades in electrical quantities — voltages on
//! a supply rail, harvested currents, capacitor energies, clock frequencies.
//! Mixing those up as bare `f64`s is exactly the class of bug a simulation of
//! a paper full of `V_H`, `P_h(t)` and `E_S` symbols cannot afford, so each
//! quantity is a dedicated newtype with only the dimensionally sensible
//! arithmetic defined ([C-NEWTYPE]).
//!
//! # Examples
//!
//! Computing the hibernation-threshold energy budget of Eq. (4) from the
//! paper (`E_S ≤ C·(V_H² − V_min²)/2`):
//!
//! ```
//! use edc_units::{Farads, Volts};
//!
//! let c = Farads::from_micro(10.0);
//! let budget = c.energy_between(Volts(2.27), Volts(2.0));
//! assert!(budget > edc_units::Joules(0.0));
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Formats a raw SI value with an engineering prefix (`µ`, `m`, `k`, …).
///
/// Used by the [`fmt::Display`] impls of every quantity so that traces read
/// like the paper's figures (`430 µA`, `2.27 V`) rather than `0.00043`.
fn format_si(f: &mut fmt::Formatter<'_>, value: f64, unit: &str) -> fmt::Result {
    if value == 0.0 || !value.is_finite() {
        return write!(f, "{value} {unit}");
    }
    let magnitude = value.abs();
    let (scale, prefix) = if magnitude >= 1e9 {
        (1e-9, "G")
    } else if magnitude >= 1e6 {
        (1e-6, "M")
    } else if magnitude >= 1e3 {
        (1e-3, "k")
    } else if magnitude >= 1.0 {
        (1.0, "")
    } else if magnitude >= 1e-3 {
        (1e3, "m")
    } else if magnitude >= 1e-6 {
        (1e6, "µ")
    } else if magnitude >= 1e-9 {
        (1e9, "n")
    } else {
        (1e12, "p")
    };
    let scaled = value * scale;
    if let Some(precision) = f.precision() {
        write!(f, "{scaled:.precision$} {prefix}{unit}")
    } else {
        write!(f, "{scaled:.3} {prefix}{unit}")
    }
}

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw SI value.
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Creates a quantity from a value expressed in milli-units.
            pub fn from_milli(value: f64) -> Self {
                Self(value * 1e-3)
            }

            /// Creates a quantity from a value expressed in micro-units.
            pub fn from_micro(value: f64) -> Self {
                Self(value * 1e-6)
            }

            /// Creates a quantity from a value expressed in nano-units.
            pub fn from_nano(value: f64) -> Self {
                Self(value * 1e-9)
            }

            /// Creates a quantity from a value expressed in kilo-units.
            pub fn from_kilo(value: f64) -> Self {
                Self(value * 1e3)
            }

            /// Creates a quantity from a value expressed in mega-units.
            pub fn from_mega(value: f64) -> Self {
                Self(value * 1e6)
            }

            /// Returns the raw SI value.
            pub const fn raw(self) -> f64 {
                self.0
            }

            /// Returns the value expressed in milli-units.
            pub fn as_milli(self) -> f64 {
                self.0 * 1e3
            }

            /// Returns the value expressed in micro-units.
            pub fn as_micro(self) -> f64 {
                self.0 * 1e6
            }

            /// Returns the absolute value.
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the value to the inclusive range `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` or either bound is NaN (as [`f64::clamp`]).
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// `true` when the underlying value is finite (not NaN/±∞).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// `true` when the value is `> 0`.
            pub fn is_positive(self) -> bool {
                self.0 > 0.0
            }

            /// Linear interpolation between `self` (at `t = 0`) and `other`
            /// (at `t = 1`).
            pub fn lerp(self, other: Self, t: f64) -> Self {
                Self(self.0 + (other.0 - self.0) * t)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                format_si(f, self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Dimensionless ratio of two like quantities.
        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// Electric potential in volts.
    Volts,
    "V"
);
quantity!(
    /// Electric current in amperes.
    Amps,
    "A"
);
quantity!(
    /// Power in watts.
    Watts,
    "W"
);
quantity!(
    /// Energy in joules.
    Joules,
    "J"
);
quantity!(
    /// Capacitance in farads.
    Farads,
    "F"
);
quantity!(
    /// Electric charge in coulombs.
    Coulombs,
    "C"
);
quantity!(
    /// Resistance in ohms.
    Ohms,
    "Ω"
);
quantity!(
    /// Time in seconds.
    Seconds,
    "s"
);
quantity!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);

// --- Cross-dimensional arithmetic ------------------------------------------

impl Mul<Amps> for Volts {
    type Output = Watts;
    /// `P = V · I`.
    fn mul(self, rhs: Amps) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Mul<Volts> for Amps {
    type Output = Watts;
    fn mul(self, rhs: Volts) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    /// `E = P · t`.
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    /// `P = E / t`.
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    /// `t = E / P`.
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Mul<Seconds> for Amps {
    type Output = Coulombs;
    /// `Q = I · t`.
    fn mul(self, rhs: Seconds) -> Coulombs {
        Coulombs(self.0 * rhs.0)
    }
}

impl Mul<Amps> for Seconds {
    type Output = Coulombs;
    fn mul(self, rhs: Amps) -> Coulombs {
        Coulombs(self.0 * rhs.0)
    }
}

impl Div<Seconds> for Coulombs {
    type Output = Amps;
    /// `I = Q / t`.
    fn div(self, rhs: Seconds) -> Amps {
        Amps(self.0 / rhs.0)
    }
}

impl Div<Volts> for Coulombs {
    type Output = Farads;
    /// `C = Q / V`.
    fn div(self, rhs: Volts) -> Farads {
        Farads(self.0 / rhs.0)
    }
}

impl Div<Farads> for Coulombs {
    type Output = Volts;
    /// `V = Q / C`.
    fn div(self, rhs: Farads) -> Volts {
        Volts(self.0 / rhs.0)
    }
}

impl Mul<Volts> for Farads {
    type Output = Coulombs;
    /// `Q = C · V`.
    fn mul(self, rhs: Volts) -> Coulombs {
        Coulombs(self.0 * rhs.0)
    }
}

impl Div<Ohms> for Volts {
    type Output = Amps;
    /// Ohm's law: `I = V / R`.
    fn div(self, rhs: Ohms) -> Amps {
        Amps(self.0 / rhs.0)
    }
}

impl Mul<Ohms> for Amps {
    type Output = Volts;
    /// Ohm's law: `V = I · R`.
    fn mul(self, rhs: Ohms) -> Volts {
        Volts(self.0 * rhs.0)
    }
}

impl Div<Amps> for Volts {
    type Output = Ohms;
    /// Ohm's law: `R = V / I`.
    fn div(self, rhs: Amps) -> Ohms {
        Ohms(self.0 / rhs.0)
    }
}

impl Div<Volts> for Watts {
    type Output = Amps;
    /// `I = P / V` — how a constant-power load translates to rail current.
    fn div(self, rhs: Volts) -> Amps {
        Amps(self.0 / rhs.0)
    }
}

impl Div<Amps> for Watts {
    type Output = Volts;
    /// `V = P / I`.
    fn div(self, rhs: Amps) -> Volts {
        Volts(self.0 / rhs.0)
    }
}

impl Seconds {
    /// Converts a period to its frequency (`f = 1 / t`).
    ///
    /// Returns an infinite frequency for a zero period.
    pub fn to_hertz(self) -> Hertz {
        Hertz(1.0 / self.0)
    }

    /// Creates a duration from minutes.
    pub fn from_minutes(minutes: f64) -> Self {
        Seconds(minutes * 60.0)
    }

    /// Creates a duration from hours.
    pub fn from_hours(hours: f64) -> Self {
        Seconds(hours * 3600.0)
    }

    /// Returns the duration expressed in hours.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }
}

impl Hertz {
    /// Converts a frequency to its period (`t = 1 / f`).
    ///
    /// Returns an infinite period for a zero frequency.
    pub fn to_period(self) -> Seconds {
        Seconds(1.0 / self.0)
    }

    /// Number of (possibly fractional) cycles completed in `dt`.
    pub fn cycles_in(self, dt: Seconds) -> f64 {
        self.0 * dt.0
    }
}

impl Farads {
    /// Energy stored at a given voltage: `E = C·V²/2`.
    pub fn energy_at(self, v: Volts) -> Joules {
        Joules(0.5 * self.0 * v.0 * v.0)
    }

    /// Energy released when discharging from `hi` to `lo`:
    /// `E = C·(V_hi² − V_lo²)/2` — the right-hand side of the paper's Eq. (4).
    ///
    /// Negative when `hi < lo` (i.e. the result is signed).
    pub fn energy_between(self, hi: Volts, lo: Volts) -> Joules {
        Joules(0.5 * self.0 * (hi.0 * hi.0 - lo.0 * lo.0))
    }

    /// Voltage reached after adding `e` of energy starting from `v`.
    ///
    /// Clamps at 0 V when more energy is removed than stored.
    pub fn voltage_after(self, v: Volts, e: Joules) -> Volts {
        let stored = self.energy_at(v).0 + e.0;
        if stored <= 0.0 {
            Volts(0.0)
        } else {
            Volts((2.0 * stored / self.0).sqrt())
        }
    }
}

impl Volts {
    /// The voltage-squared term `V²` used by capacitor-energy formulas.
    pub fn squared(self) -> f64 {
        self.0 * self.0
    }
}

// --- Exact closed forms of repeated sums ------------------------------------
//
// Simulations keep running sums that grow by one constant addend per
// timestep: an energy bound per tick of a constant supply sample, the time
// of a run of identical ticks, the books of a supply node at a fixed point.
// `advance` performs `k` such adds in closed form, bit-identical to the
// plain loop, so a caller may skip the loop without changing a result bit.

/// Up to `k` sequential `s += e`, stopping right after the first sum
/// `>= thr`: returns the adds made, the sum, and whether `thr` was
/// reached. Bit-identical to the plain loop: each add runs plainly
/// unless the previous one proved the step repeats exactly, in which case
/// the rest of the binade is taken in one integer jump. A `thr` of NaN is
/// never reached.
///
/// # Exactness
///
/// Inside one binade (the floats sharing `s`'s exponent, an even grid of
/// one ulp) rounding treats every `s` alike. Write `e = q·ulp + r` with
/// `0 ≤ r < ulp`: `fl(s + e)` is `s + q·ulp`, or one ulp more when
/// `r > ulp/2`, whatever `s` is, and only an exact tie (`r = ulp/2`)
/// depends on `s` through round-half-even. One plain add shows the step
/// `δ = fl(s + e) - s` (exact inside a binade) and TwoSum's exact error
/// `e - δ`, which rules out a tie. `k` adds then equal `s + k·δ` until the
/// mantissa would leave the binade, and the first sum at or above a
/// threshold is an integer division on the ulp grid. Zero, subnormal,
/// non-finite and negative values, ties, and the add that crosses into
/// the next binade all run as plain adds; an add that leaves `s`
/// unchanged is a fixed point. (Goldberg, "What Every Computer Scientist
/// Should Know About Floating-Point Arithmetic", 1991.)
///
/// # Examples
///
/// ```
/// use edc_units::advance;
///
/// let (mut s, e) = (0.1, 3.3e-9);
/// for _ in 0..1000 {
///     s += e;
/// }
/// assert_eq!(advance(0.1, e, 1000, f64::INFINITY), (1000, s, false));
/// ```
#[inline]
pub fn advance(mut s: f64, e: f64, k: u64, thr: f64) -> (u64, f64, bool) {
    const MANTISSA: u64 = (1 << 52) - 1;
    let mut adds = 0;
    while adds < k {
        let t = s + e;
        adds += 1;
        if t >= thr {
            return (adds, t, true);
        }
        let (sb, tb) = (s.to_bits(), t.to_bits());
        if tb == sb {
            // A fixed point (`e == 0`, a step under half an ulp, NaN,
            // infinity): every later add returns `t` again.
            return (k, t, false);
        }
        let prev = s;
        s = t;
        // The step repeats exactly when `prev` is a positive normal, `t`
        // stays in its binade, and the rounding was not a tie: then
        // `t - prev` is exact, `e - (t - prev)` is TwoSum's exact error,
        // and every later sum in the binade rounds the same way.
        let exponent = sb >> 52;
        if exponent == 0 || exponent >= 0x7ff || tb >> 52 != exponent || tb < sb {
            continue;
        }
        let ulp = f64::from_bits(sb + 1) - prev;
        if (e - (t - prev)).abs() == 0.5 * ulp {
            continue;
        }
        // Further adds step the mantissa by `d` while it stays in the
        // binade; the threshold, when it lies in the binade, sits on the
        // same ulp grid.
        let d = tb - sb;
        let room = (MANTISSA - (tb & MANTISSA)) / d;
        let n = room.min(k - adds);
        if thr.to_bits() >> 52 == exponent {
            let need = ((thr.to_bits() & MANTISSA) - (tb & MANTISSA)).div_ceil(d);
            if need <= n {
                return (adds + need, f64::from_bits(tb + need * d), true);
            }
        }
        s = f64::from_bits(tb + n * d);
        adds += n;
    }
    (adds, s, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ohms_law_round_trips() {
        let v = Volts(3.3);
        let r = Ohms(1000.0);
        let i = v / r;
        assert!((i.0 - 0.0033).abs() < 1e-12);
        let back = i * r;
        assert!((back.0 - v.0).abs() < 1e-12);
        assert!((v / i).0 - 1000.0 < 1e-9);
    }

    #[test]
    fn power_energy_relationships() {
        let p = Volts(3.0) * Amps(0.010);
        assert_eq!(p, Watts(0.030));
        let e = p * Seconds(2.0);
        assert_eq!(e, Joules(0.060));
        assert_eq!(e / Seconds(2.0), p);
        assert_eq!(e / p, Seconds(2.0));
        assert_eq!(Watts(0.030) / Volts(3.0), Amps(0.010));
    }

    #[test]
    fn charge_relationships() {
        let q = Amps(0.001) * Seconds(5.0);
        assert_eq!(q, Coulombs(0.005));
        let c = q / Volts(2.5);
        assert_eq!(c, Farads(0.002));
        assert_eq!(c * Volts(2.5), q);
        assert_eq!(q / Farads(0.002), Volts(2.5));
        assert_eq!(q / Seconds(5.0), Amps(0.001));
    }

    #[test]
    fn capacitor_energy_matches_closed_form() {
        let c = Farads::from_micro(10.0);
        let e = c.energy_at(Volts(3.0));
        assert!((e.0 - 45e-6).abs() < 1e-12);
        // Eq. (4) energy budget between V_H = 2.27 and V_min = 2.0:
        let budget = c.energy_between(Volts(2.27), Volts(2.0));
        assert!((budget.0 - 0.5 * 10e-6 * (2.27f64.powi(2) - 4.0)).abs() < 1e-15);
    }

    #[test]
    fn voltage_after_energy_injection_round_trips() {
        let c = Farads::from_micro(100.0);
        let v0 = Volts(2.0);
        let added = Joules(50e-6);
        let v1 = c.voltage_after(v0, added);
        let recovered = c.energy_at(v1) - c.energy_at(v0);
        assert!((recovered.0 - added.0).abs() < 1e-12);
    }

    #[test]
    fn voltage_after_clamps_at_zero() {
        let c = Farads::from_micro(1.0);
        let v = c.voltage_after(Volts(1.0), Joules(-1.0));
        assert_eq!(v, Volts(0.0));
    }

    #[test]
    fn period_frequency_inverse() {
        assert_eq!(Hertz(50.0).to_period(), Seconds(0.02));
        assert_eq!(Seconds(0.02).to_hertz(), Hertz(50.0));
        assert_eq!(Hertz(8e6).cycles_in(Seconds(1e-3)), 8000.0);
    }

    #[test]
    fn si_display_uses_engineering_prefixes() {
        assert_eq!(format!("{}", Amps::from_micro(430.0)), "430.000 µA");
        assert_eq!(format!("{:.2}", Volts(2.27)), "2.27 V");
        assert_eq!(format!("{:.1}", Farads::from_milli(6.0)), "6.0 mF");
        assert_eq!(format!("{:.0}", Watts(0.0)), "0 W");
        assert_eq!(format!("{:.1}", Hertz::from_mega(8.0)), "8.0 MHz");
        assert_eq!(format!("{:.1}", Joules::from_nano(250.0)), "250.0 nJ");
    }

    #[test]
    fn scaling_constructors() {
        assert!((Farads::from_micro(10.0).0 - 10e-6).abs() < 1e-18);
        assert!((Volts::from_milli(3300.0).0 - 3.3).abs() < 1e-12);
        assert!((Hertz::from_kilo(32.768).0 - 32768.0).abs() < 1e-9);
        assert_eq!(Seconds::from_minutes(2.0), Seconds(120.0));
        assert_eq!(Seconds::from_hours(1.5), Seconds(5400.0));
        assert!((Seconds(7200.0).as_hours() - 2.0).abs() < 1e-12);
        assert_eq!(Watts(0.5).as_milli(), 500.0);
        assert_eq!(Amps(0.000_43).as_micro(), 430.0);
    }

    #[test]
    fn sum_and_lerp() {
        let total: Joules = [Joules(1.0), Joules(2.0), Joules(3.5)].into_iter().sum();
        assert_eq!(total, Joules(6.5));
        assert_eq!(Volts(1.0).lerp(Volts(3.0), 0.5), Volts(2.0));
    }

    #[test]
    fn min_max_abs_helpers() {
        assert_eq!(Volts(-2.0).abs(), Volts(2.0));
        assert_eq!(Volts(1.0).max(Volts(2.0)), Volts(2.0));
        assert_eq!(Volts(1.0).min(Volts(2.0)), Volts(1.0));
        assert!(Volts(1.0).is_positive());
        assert!(!Volts(0.0).is_positive());
        assert!(!Volts(f64::NAN).is_finite());
    }

    proptest! {
        #[test]
        fn prop_add_sub_inverse(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let x = Volts(a);
            let y = Volts(b);
            let back = (x + y) - y;
            prop_assert!((back.0 - x.0).abs() <= 1e-6 * (1.0 + x.0.abs() + y.0.abs()));
        }

        #[test]
        fn prop_energy_between_antisymmetric(hi in 0.0f64..10.0, lo in 0.0f64..10.0, c in 1e-9f64..1e-1) {
            let cap = Farads(c);
            let a = cap.energy_between(Volts(hi), Volts(lo));
            let b = cap.energy_between(Volts(lo), Volts(hi));
            prop_assert!((a.0 + b.0).abs() < 1e-12 * (1.0 + a.0.abs()));
        }

        #[test]
        fn prop_voltage_after_monotone(v0 in 0.0f64..5.0, e in 0.0f64..1e-3, c in 1e-8f64..1e-2) {
            let cap = Farads(c);
            let v1 = cap.voltage_after(Volts(v0), Joules(e));
            prop_assert!(v1.0 >= v0 - 1e-12);
        }

        #[test]
        fn prop_clamp_within_bounds(v in -10.0f64..10.0) {
            let clamped = Volts(v).clamp(Volts(0.0), Volts(3.6));
            prop_assert!(clamped.0 >= 0.0 && clamped.0 <= 3.6);
        }

        #[test]
        fn prop_ratio_is_dimensionless(a in 1e-6f64..1e6, b in 1e-6f64..1e6) {
            let ratio = Watts(a) / Watts(b);
            prop_assert!((ratio * b - a).abs() <= 1e-9 * a.abs().max(1.0));
        }
    }

    /// [`advance`]'s reference: the plain loop.
    fn plain_advance(mut s: f64, e: f64, k: u64, thr: f64) -> (u64, f64, bool) {
        for adds in 1..=k {
            s += e;
            if s >= thr {
                return (adds, s, true);
            }
        }
        (k, s, false)
    }

    fn advance_bits(r: (u64, f64, bool)) -> (u64, u64, bool) {
        (r.0, r.1.to_bits(), r.2)
    }

    #[test]
    fn advance_matches_the_plain_loop_on_edge_cases() {
        let one_ulp = f64::EPSILON;
        let below_two = 2.0 - one_ulp;
        let min_normal = f64::MIN_POSITIVE;
        let tiny = f64::from_bits(1);
        let cases = [
            // Ties: half an ulp of 1.0, and one and a half.
            (1.0, one_ulp / 2.0),
            (1.0 + one_ulp, one_ulp / 2.0),
            (1.0, 1.5 * one_ulp),
            // Steps under half an ulp are stationary; `e == 0` too.
            (1.0, one_ulp / 4.0),
            (1.0, 0.0),
            (1.0, -0.0),
            (-0.0, 0.0),
            (-0.0, -0.0),
            (0.0, 0.0),
            (0.0, 1e-3),
            (-0.0, 1e-3),
            // Subnormals and the smallest normal binade.
            (tiny, tiny),
            (min_normal, tiny),
            (min_normal - tiny, tiny),
            (min_normal, 3.0 * tiny),
            // Non-finite values and negative steps.
            (f64::NAN, 1.0),
            (1.0, f64::NAN),
            (f64::INFINITY, 1.0),
            (1.0, f64::INFINITY),
            (f64::INFINITY, f64::NEG_INFINITY),
            (1.0, -1e-3),
            (-1.0, 1e-3),
            (f64::MAX, f64::MAX),
            // Binade crossings.
            (below_two, one_ulp),
            (below_two - 4.0 * one_ulp, 3.0 * one_ulp),
            (0.1, 0.3),
            (1e-12, 3.3e-9),
        ];
        for (s, e) in cases {
            for k in [0, 1, 2, 3, 255, 256, 5000] {
                for thr in [
                    f64::NEG_INFINITY,
                    -1.0,
                    0.0,
                    s,
                    s + e,
                    s + 7.0 * e,
                    s + 200.0 * e,
                    2.0,
                    1.0 + 100.0 * one_ulp,
                    f64::INFINITY,
                    f64::NAN,
                ] {
                    assert_eq!(
                        advance_bits(advance(s, e, k, thr)),
                        advance_bits(plain_advance(s, e, k, thr)),
                        "s={s:e} e={e:e} k={k} thr={thr:e}"
                    );
                }
            }
        }
    }

    mod properties {
        use super::*;

        /// A float from a random bit pattern, steered towards the values the
        /// kernel treats specially: `mode` picks raw bits (any class and
        /// sign), the same bits made positive, a multiple of half an ulp of
        /// `base` (a tie at every odd count), or a multiple of 1e-12 below
        /// 1e-6.
        fn float_from(bits: u64, mode: u8, base: f64) -> f64 {
            match mode % 4 {
                0 => f64::from_bits(bits),
                1 => f64::from_bits(bits & !(1 << 63)),
                2 => {
                    let ulp = f64::from_bits(base.abs().to_bits() + 1) - base.abs();
                    (bits % 64) as f64 * ulp / 2.0
                }
                _ => (bits % 1_000_000) as f64 * 1e-12,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 4000, ..ProptestConfig::default() })]

            /// The closed-form kernel is bit-identical to the plain loop on
            /// random starts, steps and thresholds of every float class.
            #[test]
            fn advance_matches_the_plain_loop(
                bits in (proptest::num::u64::ANY, proptest::num::u64::ANY, proptest::num::u64::ANY),
                modes in (0u8..4, 0u8..4, 0u8..6),
                k in 0u64..3000,
            ) {
                let s = float_from(bits.0, modes.0, 1.0);
                let e = float_from(bits.1, modes.1, s);
                let thr = match modes.2 {
                    0 => f64::INFINITY,
                    1 => s - e,
                    2 => s,
                    // A threshold some way past the start, on or off the
                    // sum's grid.
                    3 => s + (bits.2 % 4000) as f64 * e,
                    4 => s + (bits.2 % 4000) as f64 * e * 1.000_000_1,
                    _ => float_from(bits.2, 0, s),
                };
                prop_assert_eq!(
                    advance_bits(advance(s, e, k, thr)),
                    advance_bits(plain_advance(s, e, k, thr))
                );
            }
        }
    }
}
