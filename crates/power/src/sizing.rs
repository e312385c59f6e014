//! Storage-sizing math: the paper's Eqs. (1), (2) and (4).
//!
//! - Eq. (1): energy-neutrality over a period `T` — `∫P_h dt = ∫P_c dt`;
//! - Eq. (2): survival — `V_cc(t) ≥ V_min ∀t`;
//! - Eq. (4): the Hibernus hibernate threshold — `E_S ≤ C·(V_H² − V_min²)/2`.
//!
//! The functions here answer the designer's questions: *given a snapshot
//! cost, where must `V_H` sit?* (Hibernus design-time calibration step 1),
//! *how much capacitance do I need?*, and *how large a buffer makes a
//! harvest/consumption profile energy-neutral?*

use std::fmt;

use edc_units::{Farads, Joules, Seconds, Volts, Watts};

/// Why a sizing computation rejected its arguments.
///
/// The explorer (`edc-explore`) seeds search spaces from these functions,
/// so a bad argument must surface as a value — never as a silent `NaN`
/// propagating into a capacitance axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizingError {
    /// A parameter that must be finite was NaN or infinite.
    NonFinite(&'static str),
    /// A parameter violated its sign or ordering constraint.
    Domain(&'static str),
}

impl fmt::Display for SizingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizingError::NonFinite(what) => write!(f, "{what} must be finite"),
            SizingError::Domain(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for SizingError {}

/// Checks that `x` is finite, naming it on failure.
fn finite(x: f64, what: &'static str) -> Result<f64, SizingError> {
    if x.is_finite() {
        Ok(x)
    } else {
        Err(SizingError::NonFinite(what))
    }
}

/// Solves Eq. (4) for the hibernate threshold `V_H`: the lowest rail voltage
/// at which the capacitance `c` still holds enough energy above `v_min` to
/// fund a snapshot of cost `e_snapshot`, inflated by `margin` (e.g. `0.1`
/// for 10% safety).
///
/// The outer `Result` reports argument violations as a [`SizingError`]
/// instead of a panic or a `NaN` threshold. The inner `Option` is `None`
/// when no threshold below `v_max` satisfies the budget — the platform's
/// capacitance is simply too small to ever checkpoint safely (the failure
/// mode Hibernus++ was designed to detect at run time). Note
/// `v_max ≤ v_min` is *infeasibility*, not an argument error: no threshold
/// can exist in an empty rail window, so it yields `Ok(None)` — the
/// "under-provisioned platform limps along" path the strategy calibrators
/// rely on.
///
/// # Examples
///
/// ```
/// use edc_power::sizing::try_hibernate_threshold;
/// use edc_units::{Farads, Joules, Volts};
///
/// # fn main() -> Result<(), edc_power::sizing::SizingError> {
/// let v_h = try_hibernate_threshold(
///     Joules::from_micro(5.0),
///     Farads::from_micro(10.0),
///     Volts(2.0),
///     Volts(3.6),
///     0.1,
/// )?;
/// // 10 µF is plenty for a 5 µJ snapshot.
/// assert!(v_h.is_some_and(|v| v > Volts(2.0) && v < Volts(3.6)));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns the first violated constraint: all arguments must be finite,
/// `e_snapshot ≥ 0`, `c > 0`, `margin ≥ 0`, and `v_min ≥ 0`.
pub fn try_hibernate_threshold(
    e_snapshot: Joules,
    c: Farads,
    v_min: Volts,
    v_max: Volts,
    margin: f64,
) -> Result<Option<Volts>, SizingError> {
    if finite(e_snapshot.0, "snapshot energy")? < 0.0 {
        return Err(SizingError::Domain("snapshot energy must be ≥ 0"));
    }
    if finite(c.0, "capacitance")? <= 0.0 {
        return Err(SizingError::Domain("capacitance must be > 0"));
    }
    if finite(v_min.0, "V_min")? < 0.0 {
        return Err(SizingError::Domain("V_min must be ≥ 0"));
    }
    finite(v_max.0, "V_max")?;
    if finite(margin, "margin")? < 0.0 {
        return Err(SizingError::Domain("margin must be ≥ 0"));
    }
    let budget = e_snapshot * (1.0 + margin);
    // E ≤ C(V_H² − V_min²)/2  ⇒  V_H = sqrt(2E/C + V_min²)
    let v_h = Volts((2.0 * budget.0 / c.0 + v_min.squared()).sqrt());
    Ok(if v_h < v_max { Some(v_h) } else { None })
}

/// Inverse of [`try_hibernate_threshold`]: the minimum capacitance for which
/// a snapshot of cost `e_snapshot` fits between `v_h` and `v_min` (Eq. 4
/// solved for `C`).
///
/// # Errors
///
/// Returns the first violated constraint: all arguments must be finite,
/// `e_snapshot ≥ 0`, and `v_h > v_min ≥ 0`.
pub fn try_required_capacitance(
    e_snapshot: Joules,
    v_h: Volts,
    v_min: Volts,
) -> Result<Farads, SizingError> {
    if finite(e_snapshot.0, "snapshot energy")? < 0.0 {
        return Err(SizingError::Domain("snapshot energy must be ≥ 0"));
    }
    if finite(v_min.0, "V_min")? < 0.0 {
        return Err(SizingError::Domain("V_min must be ≥ 0"));
    }
    if finite(v_h.0, "V_H")? <= v_min.0 {
        return Err(SizingError::Domain("V_H must exceed V_min"));
    }
    Ok(Farads(
        2.0 * e_snapshot.0 / (v_h.squared() - v_min.squared()),
    ))
}

/// Checks Eq. (1) over a sampled window: `true` when harvested and consumed
/// energy agree within `tolerance` (relative).
///
/// # Errors
///
/// Returns [`SizingError::Domain`] when the slices differ in length,
/// `dt ≤ 0`, or `tolerance < 0`, and [`SizingError::NonFinite`] when `dt`
/// or `tolerance` is NaN or infinite.
pub fn try_is_energy_neutral(
    harvested: &[Watts],
    consumed: &[Watts],
    dt: Seconds,
    tolerance: f64,
) -> Result<bool, SizingError> {
    if harvested.len() != consumed.len() {
        return Err(SizingError::Domain("profiles must cover the same samples"));
    }
    if finite(dt.0, "dt")? <= 0.0 {
        return Err(SizingError::Domain("dt must be > 0"));
    }
    if finite(tolerance, "tolerance")? < 0.0 {
        return Err(SizingError::Domain("tolerance must be ≥ 0"));
    }
    let e_h: f64 = harvested.iter().map(|p| p.0 * dt.0).sum();
    let e_c: f64 = consumed.iter().map(|p| p.0 * dt.0).sum();
    let scale = e_h.abs().max(e_c.abs()).max(1e-30);
    Ok((e_h - e_c).abs() / scale <= tolerance)
}

/// Sizes the buffer Eq. (1)/(2) implies: the maximum cumulative deficit of
/// `harvested − consumed` over the window. A system starting with this much
/// stored energy never violates Eq. (2) *for this profile*. Returns zero
/// when harvest always covers consumption.
///
/// # Errors
///
/// Returns [`SizingError::Domain`] when the slices differ in length or
/// `dt ≤ 0`, and [`SizingError::NonFinite`] when `dt` is NaN or infinite.
pub fn try_required_buffer_energy(
    harvested: &[Watts],
    consumed: &[Watts],
    dt: Seconds,
) -> Result<Joules, SizingError> {
    if harvested.len() != consumed.len() {
        return Err(SizingError::Domain("profiles must cover the same samples"));
    }
    if finite(dt.0, "dt")? <= 0.0 {
        return Err(SizingError::Domain("dt must be > 0"));
    }
    let mut balance = 0.0f64;
    let mut worst = 0.0f64;
    for (h, c) in harvested.iter().zip(consumed) {
        balance += (h.0 - c.0) * dt.0;
        if balance < worst {
            worst = balance;
        }
    }
    Ok(Joules(-worst))
}

/// Converts a buffer energy into the capacitance that stores it between the
/// operating rails `v_max` (full) and `v_min` (empty).
///
/// # Errors
///
/// Returns the first violated constraint: all arguments must be finite,
/// `e ≥ 0`, and `v_max > v_min ≥ 0`.
pub fn try_buffer_capacitance(
    e: Joules,
    v_max: Volts,
    v_min: Volts,
) -> Result<Farads, SizingError> {
    if finite(e.0, "buffer energy")? < 0.0 {
        return Err(SizingError::Domain("buffer energy must be ≥ 0"));
    }
    if finite(v_min.0, "V_min")? < 0.0 {
        return Err(SizingError::Domain("V_min must be ≥ 0"));
    }
    if finite(v_max.0, "V_max")? <= v_min.0 {
        return Err(SizingError::Domain("V_max must exceed V_min"));
    }
    Ok(Farads(2.0 * e.0 / (v_max.squared() - v_min.squared())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eq4_round_trips() {
        let e = Joules::from_micro(8.0);
        let v_min = Volts(2.0);
        let v_h = try_hibernate_threshold(e, Farads::from_micro(10.0), v_min, Volts(3.6), 0.0)
            .expect("valid arguments")
            .expect("threshold exists");
        // Energy between V_H and V_min equals the snapshot cost.
        let budget = Farads::from_micro(10.0).energy_between(v_h, v_min);
        assert!((budget.0 - e.0).abs() < 1e-12);
        // And the inverse gives back the capacitance.
        let c = try_required_capacitance(e, v_h, v_min).expect("valid arguments");
        assert!((c.as_micro() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn margin_raises_threshold() {
        let threshold = |margin| {
            try_hibernate_threshold(
                Joules::from_micro(5.0),
                Farads::from_micro(10.0),
                Volts(2.0),
                Volts(3.6),
                margin,
            )
            .unwrap()
            .unwrap()
        };
        let base = threshold(0.0);
        let margined = threshold(0.25);
        assert!(margined > base);
    }

    #[test]
    fn impossible_threshold_returns_none() {
        // 100 µJ snapshot on 1 µF between 2.0 and 3.6 V: needs V_H ≈ 14.3 V.
        let v_h = try_hibernate_threshold(
            Joules::from_micro(100.0),
            Farads::from_micro(1.0),
            Volts(2.0),
            Volts(3.6),
            0.0,
        );
        assert_eq!(v_h, Ok(None));
    }

    #[test]
    fn energy_neutrality_check() {
        let h = vec![Watts(1.0); 10];
        let c = vec![Watts(1.0); 10];
        assert_eq!(try_is_energy_neutral(&h, &c, Seconds(1.0), 1e-9), Ok(true));
        let c2 = vec![Watts(1.2); 10];
        assert_eq!(
            try_is_energy_neutral(&h, &c2, Seconds(1.0), 0.05),
            Ok(false)
        );
        assert_eq!(try_is_energy_neutral(&h, &c2, Seconds(1.0), 0.25), Ok(true));
    }

    #[test]
    fn buffer_sizing_finds_worst_deficit() {
        // Harvest 2 W for 5 s then 0 W for 5 s; consume 1 W throughout.
        // The surplus banked in the bright half covers the dark half exactly,
        // so no *initial* buffer energy is needed…
        let mut h = vec![Watts(2.0); 5];
        h.extend(vec![Watts(0.0); 5]);
        let c = vec![Watts(1.0); 10];
        let e = try_required_buffer_energy(&h, &c, Seconds(1.0));
        assert_eq!(e, Ok(Joules(0.0)));
        // …but raising consumption to 1.5 W leaves a terminal deficit of 5 J.
        let c2 = vec![Watts(1.5); 10];
        let e2 = try_required_buffer_energy(&h, &c2, Seconds(1.0)).unwrap();
        assert!((e2.0 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn surplus_profile_needs_no_buffer() {
        let h = vec![Watts(2.0); 10];
        let c = vec![Watts(1.0); 10];
        assert_eq!(
            try_required_buffer_energy(&h, &c, Seconds(1.0)),
            Ok(Joules(0.0))
        );
    }

    #[test]
    fn deficit_at_start_counts() {
        // Dark first: buffer must cover the opening deficit.
        let mut h = vec![Watts(0.0); 5];
        h.extend(vec![Watts(2.0); 5]);
        let c = vec![Watts(1.0); 10];
        let e = try_required_buffer_energy(&h, &c, Seconds(1.0)).unwrap();
        assert!((e.0 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bad_arguments_come_back_as_values_not_nans() {
        // Non-finite inputs are named.
        assert_eq!(
            try_hibernate_threshold(Joules(f64::NAN), Farads(1e-6), Volts(2.0), Volts(3.6), 0.0),
            Err(SizingError::NonFinite("snapshot energy"))
        );
        assert_eq!(
            try_required_capacitance(Joules(1e-6), Volts(f64::INFINITY), Volts(2.0)),
            Err(SizingError::NonFinite("V_H"))
        );
        // Ordering violations that previously produced NaN/negative sizes.
        assert_eq!(
            try_required_capacitance(Joules(1e-6), Volts(2.0), Volts(2.0)),
            Err(SizingError::Domain("V_H must exceed V_min"))
        );
        assert_eq!(
            try_buffer_capacitance(Joules(-1.0), Volts(3.0), Volts(2.0)),
            Err(SizingError::Domain("buffer energy must be ≥ 0"))
        );
        assert_eq!(
            try_is_energy_neutral(&[Watts(1.0)], &[], Seconds(1.0), 0.1),
            Err(SizingError::Domain("profiles must cover the same samples"))
        );
        assert_eq!(
            try_required_buffer_energy(&[Watts(1.0)], &[Watts(1.0)], Seconds(0.0)),
            Err(SizingError::Domain("dt must be > 0"))
        );
        // Errors display their constraint.
        assert!(SizingError::NonFinite("V_H").to_string().contains("finite"));
    }

    #[test]
    fn zero_capacitance_is_a_domain_error() {
        assert_eq!(
            try_hibernate_threshold(Joules(1e-6), Farads(0.0), Volts(2.0), Volts(3.6), 0.0),
            Err(SizingError::Domain("capacitance must be > 0"))
        );
    }

    #[test]
    fn inverted_rail_window_is_infeasible_not_an_error() {
        // The strategy calibrators' "under-provisioned platform" fallback
        // depends on an empty/inverted (V_min, V_max) window reporting
        // infeasibility (`None`), never panicking.
        assert_eq!(
            try_hibernate_threshold(Joules(1e-6), Farads(1e-6), Volts(3.6), Volts(2.0), 0.0),
            Ok(None)
        );
    }

    #[test]
    fn buffer_capacitance_conversion() {
        let c = try_buffer_capacitance(Joules(5.0), Volts(3.0), Volts(2.0)).unwrap();
        // E = C(9-4)/2 = 2.5 C ⇒ C = 2 F
        assert!((c.0 - 2.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_threshold_above_vmin(
            e_uj in 0.1f64..50.0,
            c_uf in 1.0f64..1000.0,
            v_min in 0.5f64..3.0,
        ) {
            if let Some(v_h) = try_hibernate_threshold(
                Joules::from_micro(e_uj),
                Farads::from_micro(c_uf),
                Volts(v_min),
                Volts(20.0),
                0.1,
            )
            .unwrap()
            {
                prop_assert!(v_h > Volts(v_min));
                // The stored budget really covers the snapshot with margin.
                let budget = Farads::from_micro(c_uf).energy_between(v_h, Volts(v_min));
                prop_assert!(budget.0 >= e_uj * 1e-6 * 1.1 - 1e-12);
            }
        }

        #[test]
        fn prop_buffer_energy_nonnegative(
            hs in proptest::collection::vec(0.0f64..5.0, 1..50),
        ) {
            let h: Vec<Watts> = hs.iter().map(|&x| Watts(x)).collect();
            let c: Vec<Watts> = hs.iter().rev().map(|&x| Watts(x)).collect();
            let e = try_required_buffer_energy(&h, &c, Seconds(1.0)).unwrap();
            prop_assert!(e.0 >= 0.0);
        }

        #[test]
        fn prop_buffer_suffices_by_construction(
            hs in proptest::collection::vec(0.0f64..5.0, 2..50),
            cs in proptest::collection::vec(0.0f64..5.0, 2..50),
        ) {
            let n = hs.len().min(cs.len());
            let h: Vec<Watts> = hs[..n].iter().map(|&x| Watts(x)).collect();
            let c: Vec<Watts> = cs[..n].iter().map(|&x| Watts(x)).collect();
            let e = try_required_buffer_energy(&h, &c, Seconds(1.0)).unwrap();
            // Replay: starting with e stored, the balance never goes negative.
            let mut store = e.0;
            for (hh, cc) in h.iter().zip(&c) {
                store += hh.0 - cc.0;
                prop_assert!(store >= -1e-9);
            }
        }
    }
}
