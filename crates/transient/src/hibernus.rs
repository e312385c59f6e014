//! Hibernus and Hibernus-PN — the paper's Section III.
//!
//! Hibernus \[9\] snapshots volatile state exactly once per supply failure,
//! triggered by a voltage interrupt at `V_H` chosen per Eq. (4):
//! `E_S ≤ C·(V_H² − V_min²)/2`. Hibernus-PN \[14\] adds a power-neutral DFS
//! governor (Fig. 8): while running, the core clock is continuously retuned
//! so consumption tracks the harvested power, postponing — often avoiding —
//! hibernation during shallow supply dips.

use edc_mcu::Mcu;
use edc_power::sizing::try_hibernate_threshold;
use edc_units::{Farads, Volts};

use crate::{LowVoltageResponse, Strategy};

/// Restore-threshold headroom above `V_H`.
const RESTORE_HEADROOM: Volts = Volts(0.4);

/// The Hibernus checkpoint strategy (design-time calibrated).
#[derive(Debug, Clone, Copy)]
pub struct Hibernus {
    /// Safety margin on the Eq. (4) snapshot budget.
    margin: f64,
}

impl Hibernus {
    /// Creates Hibernus with the default 50% energy margin and 0.4 V restore
    /// headroom.
    pub fn new() -> Self {
        Self { margin: 0.5 }
    }

    /// Overrides the Eq. (4) safety margin.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is negative.
    pub fn with_margin(mut self, margin: f64) -> Self {
        assert!(margin >= 0.0, "margin must be ≥ 0");
        self.margin = margin;
        self
    }

    /// The Eq. (4) threshold pair for a given platform — exposed so
    /// experiments can display the calibration (as the paper's Fig. 7
    /// annotates `V_H` and `V_R`).
    pub fn calibrate(&self, mcu: &Mcu, c: Farads, v_min: Volts, v_max: Volts) -> (Volts, Volts) {
        let e_s = mcu.snapshot_energy();
        let v_h = try_hibernate_threshold(e_s, c, v_min, v_max, self.margin)
            .ok()
            .flatten()
            // If the arguments are degenerate or the capacitance cannot
            // fund a snapshot at all, park the threshold just under the
            // clamp: the system will hibernate almost immediately and limp
            // along (matching the paper's description of an
            // under-provisioned Hibernus).
            .unwrap_or(v_max - Volts(0.05));
        let v_r = (v_h + RESTORE_HEADROOM).min(v_max - Volts(0.01));
        (v_h, v_r)
    }
}

impl Default for Hibernus {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for Hibernus {
    fn name(&self) -> &str {
        "hibernus"
    }

    fn thresholds(&mut self, mcu: &Mcu, c: Farads, v_min: Volts, v_max: Volts) -> (Volts, Volts) {
        self.calibrate(mcu, c, v_min, v_max)
    }

    fn on_low_voltage(&mut self) -> LowVoltageResponse {
        LowVoltageResponse::Hibernate
    }
}

/// Hibernus-PN: Hibernus plus a power-neutral DFS governor.
///
/// The governor holds `V_cc` inside a band above `V_H`: sagging voltage
/// means consumption exceeds harvest → step the clock down; rising voltage
/// means surplus → step up. This is Eq. (3) implemented with the
/// decoupling capacitor as the error integrator, exactly the paper's Fig. 8
/// behaviour.
#[derive(Debug, Clone, Copy)]
pub struct HibernusPn {
    inner: Hibernus,
    /// Lower edge of the regulation band (set at calibration).
    band_low: Volts,
    /// Upper edge of the regulation band.
    band_high: Volts,
    /// Ticks between governor actions (rate limit).
    period_ticks: u32,
    tick: u32,
}

impl HibernusPn {
    /// Creates Hibernus-PN with default calibration.
    pub fn new() -> Self {
        Self {
            inner: Hibernus::new(),
            band_low: Volts(0.0),
            band_high: Volts(0.0),
            period_ticks: 8,
            tick: 0,
        }
    }

    /// Overrides the governor's actuation period (in runner ticks).
    ///
    /// # Panics
    ///
    /// Panics if `ticks == 0`.
    pub fn with_period_ticks(mut self, ticks: u32) -> Self {
        assert!(ticks > 0, "period must be ≥ 1 tick");
        self.period_ticks = ticks;
        self
    }

    /// The regulation band, available after thresholds have been computed.
    pub fn band(&self) -> (Volts, Volts) {
        (self.band_low, self.band_high)
    }
}

impl Default for HibernusPn {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for HibernusPn {
    fn name(&self) -> &str {
        "hibernus-pn"
    }

    fn thresholds(&mut self, mcu: &Mcu, c: Farads, v_min: Volts, v_max: Volts) -> (Volts, Volts) {
        let (v_h, v_r) = self.inner.calibrate(mcu, c, v_min, v_max);
        // Regulate between V_H and the clamp, biased low so the governor
        // reacts before the hibernate interrupt fires.
        self.band_low = v_h + Volts(0.15);
        self.band_high = (v_h + Volts(0.45)).min(v_max - Volts(0.05));
        (v_h, v_r)
    }

    fn on_low_voltage(&mut self) -> LowVoltageResponse {
        LowVoltageResponse::Hibernate
    }

    fn on_tick(&mut self, v: Volts, mcu: &mut Mcu) {
        self.tick += 1;
        if !self.tick.is_multiple_of(self.period_ticks) {
            return;
        }
        if v < self.band_low {
            mcu.clock_mut().step_down();
        } else if v > self.band_high {
            mcu.clock_mut().step_up();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_workloads::{BusyLoop, Workload};

    #[test]
    fn eq4_thresholds_in_expected_range() {
        let mcu = Mcu::new(BusyLoop::new(10).program());
        let mut h = Hibernus::new().with_margin(0.0);
        let (v_h, v_r) = h.thresholds(&mcu, Farads::from_micro(10.0), Volts(2.0), Volts(3.6));
        // With E_S ≈ 5 µJ on 10 µF above 2.0 V: V_H ≈ √(2·5µ/10µ + 4) ≈ 2.24 V.
        assert!(v_h > Volts(2.1) && v_h < Volts(2.5), "V_H = {v_h}");
        assert!(v_r > v_h);
        // The Eq. 4 budget really covers a snapshot.
        let budget = Farads::from_micro(10.0).energy_between(v_h, Volts(2.0));
        assert!(budget >= mcu.snapshot_energy());
    }

    #[test]
    fn margin_raises_v_h() {
        let mcu = Mcu::new(BusyLoop::new(10).program());
        let base = Hibernus::new().with_margin(0.0).calibrate(
            &mcu,
            Farads::from_micro(10.0),
            Volts(2.0),
            Volts(3.6),
        );
        let safe = Hibernus::new().with_margin(1.0).calibrate(
            &mcu,
            Farads::from_micro(10.0),
            Volts(2.0),
            Volts(3.6),
        );
        assert!(safe.0 > base.0);
    }

    #[test]
    fn undersized_capacitance_parks_threshold_high() {
        let mcu = Mcu::new(BusyLoop::new(10).program());
        // 0.1 µF cannot fund a multi-µJ snapshot between 3.6 and 2.0 V.
        let (v_h, v_r) =
            Hibernus::new().calibrate(&mcu, Farads::from_micro(0.1), Volts(2.0), Volts(3.6));
        assert!(v_h > Volts(3.4));
        assert!(v_r <= Volts(3.6));
    }

    #[test]
    fn pn_governor_tracks_band() {
        let mut pn = HibernusPn::new().with_period_ticks(1);
        let mcu_template = Mcu::new(BusyLoop::new(10).program());
        let _ = pn.thresholds(
            &mcu_template,
            Farads::from_micro(10.0),
            Volts(2.0),
            Volts(3.6),
        );
        let (lo, hi) = pn.band();
        assert!(lo < hi);

        let mut mcu = Mcu::new(BusyLoop::new(10).program());
        let start = mcu.clock().level();
        // Voltage below band: slow down.
        pn.on_tick(lo - Volts(0.1), &mut mcu);
        assert!(mcu.clock().level() < start);
        // Voltage above band: speed back up.
        pn.on_tick(hi + Volts(0.1), &mut mcu);
        assert_eq!(mcu.clock().level(), start);
        // Inside band: hold.
        let level = mcu.clock().level();
        pn.on_tick(lo.lerp(hi, 0.5), &mut mcu);
        assert_eq!(mcu.clock().level(), level);
    }
}
