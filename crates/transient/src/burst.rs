//! Task-based transient systems: energy bursts.
//!
//! WISPCam \[4\], Gomez et al.'s dynamic energy-burst scaling \[5\] and
//! Monjolo \[6\] all share one structure the paper places right of the
//! continuous/task-based arc in Fig. 2: buffer enough energy in a small
//! capacitor to complete *one atomic task*, execute it, go dark, repeat.
//! No checkpointing is needed because the task either runs to completion or
//! (with a correctly sized buffer) never starts.
//!
//! [`EnergyBurstRunner`] simulates that loop for an abstract task and
//! reports completion timestamps — for Monjolo, the "ping" times whose
//! frequency encodes the harvested power.

use std::cmp::Ordering;

use edc_power::sizing::SizingError;
use edc_sim::SupplyNode;
use edc_units::{Amps, Farads, Joules, Seconds, Volts, Watts};

/// An atomic task: the energy it needs and how long it takes once started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Energy one execution consumes.
    pub energy: Joules,
    /// Wall-clock duration of one execution.
    pub duration: Seconds,
}

impl TaskSpec {
    /// A WISPCam-style photo: capture + store to NVM (~5.5 mJ, 400 ms).
    pub fn wispcam_photo() -> Self {
        Self {
            energy: Joules::from_milli(5.5),
            duration: Seconds(0.4),
        }
    }

    /// A Monjolo-style wireless ping (~120 µJ, 3 ms).
    pub fn monjolo_ping() -> Self {
        Self {
            energy: Joules::from_micro(120.0),
            duration: Seconds(0.003),
        }
    }

    /// A Gomez-style sensor sample + process (~40 µJ, 5 ms).
    pub fn sense_sample() -> Self {
        Self {
            energy: Joules::from_micro(40.0),
            duration: Seconds(0.005),
        }
    }
}

/// State of the burst loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Accumulating charge until the task budget is met.
    Charging,
    /// Executing; the remaining task time counts down.
    Executing { remaining: Seconds },
}

/// Fixed-timestep simulation of a task-based (energy-burst) system.
///
/// # Examples
///
/// ```
/// use edc_transient::burst::{EnergyBurstRunner, TaskSpec};
/// use edc_units::{Amps, Farads, Seconds, Volts};
///
/// let mut runner = EnergyBurstRunner::new(
///     Farads::from_micro(500.0),
///     TaskSpec::monjolo_ping(),
///     Volts(2.0),
///     Volts(3.6),
/// )?;
/// // 1 mA of harvest: pings arrive at a steady rate.
/// runner.run(|_v, _t| Amps::from_milli(1.0), Seconds(5.0), Seconds(1e-4));
/// assert!(runner.completions().len() > 10);
/// # Ok::<(), edc_power::sizing::SizingError>(())
/// ```
#[derive(Debug)]
pub struct EnergyBurstRunner {
    node: SupplyNode,
    task: TaskSpec,
    v_min: Volts,
    /// Voltage at which the stored energy above `v_min` covers one task.
    v_start: Volts,
    phase: Phase,
    completions: Vec<Seconds>,
    aborted_tasks: u64,
    time: Seconds,
}

impl EnergyBurstRunner {
    /// Creates a burst runner for a task buffered on capacitance `c`.
    ///
    /// # Errors
    ///
    /// [`SizingError::Domain`] if the capacitor cannot hold one task's
    /// energy between `v_max` and `v_min` — the buffer is simply too small
    /// for the task, which a designer must fix by resizing (the paper's
    /// WISPCam example sizes 6 mF for exactly this reason).
    pub fn new(c: Farads, task: TaskSpec, v_min: Volts, v_max: Volts) -> Result<Self, SizingError> {
        let usable = c.energy_between(v_max, v_min);
        // Incomparable (a NaN anywhere) fails like a short buffer.
        if usable.partial_cmp(&task.energy).is_none_or(Ordering::is_lt) {
            return Err(SizingError::Domain(
                "buffer cannot hold one task's energy between the rails",
            ));
        }
        // E = C(V_start² − V_min²)/2 with 10% margin.
        let v_start = Volts((2.0 * task.energy.0 * 1.1 / c.0 + v_min.squared()).sqrt());
        Ok(Self {
            node: SupplyNode::new(c, Volts(0.0)).with_clamp(v_max),
            task,
            v_min,
            v_start,
            phase: Phase::Charging,
            completions: Vec::new(),
            aborted_tasks: 0,
            time: Seconds(0.0),
        })
    }

    /// The voltage threshold at which tasks fire.
    pub fn start_threshold(&self) -> Volts {
        self.v_start
    }

    /// Timestamps of completed tasks (Monjolo's pings).
    pub fn completions(&self) -> &[Seconds] {
        &self.completions
    }

    /// Tasks that began but ran out of energy (a sizing failure).
    pub fn aborted_tasks(&self) -> u64 {
        self.aborted_tasks
    }

    /// The supply node (for voltage inspection).
    pub fn node(&self) -> &SupplyNode {
        &self.node
    }

    /// Mean task rate over the simulated window.
    pub fn task_rate(&self) -> f64 {
        if self.time.0 > 0.0 {
            self.completions.len() as f64 / self.time.0
        } else {
            0.0
        }
    }

    /// Runs the burst loop for `duration` with the given source.
    pub fn run(
        &mut self,
        mut source: impl FnMut(Volts, Seconds) -> Amps,
        duration: Seconds,
        dt: Seconds,
    ) {
        let end = Seconds(self.time.0 + duration.0);
        let task_power = Watts(self.task.energy.0 / self.task.duration.0);
        while self.time < end {
            let v = self.node.voltage();
            let i_src = source(v, self.time);
            let i_load = match self.phase {
                Phase::Charging => Amps::ZERO,
                Phase::Executing { .. } => {
                    if v.0 > 0.0 {
                        task_power / v
                    } else {
                        Amps::ZERO
                    }
                }
            };
            self.node.step(i_src, i_load, dt);
            let v = self.node.voltage();

            self.phase = match self.phase {
                Phase::Charging => {
                    if v >= self.v_start {
                        Phase::Executing {
                            remaining: self.task.duration,
                        }
                    } else {
                        Phase::Charging
                    }
                }
                Phase::Executing { remaining } => {
                    if v < self.v_min {
                        // Task died mid-flight: buffer margin was too thin
                        // for the concurrent load.
                        self.aborted_tasks += 1;
                        Phase::Charging
                    } else {
                        let left = Seconds(remaining.0 - dt.0);
                        if left.0 <= 0.0 {
                            self.completions.push(self.time);
                            Phase::Charging
                        } else {
                            Phase::Executing { remaining: left }
                        }
                    }
                }
            };
            self.time += dt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_rate_tracks_harvested_power() {
        // Monjolo's principle: completions-per-second ∝ harvested power.
        let rate_at = |p_mw: f64| {
            let mut r = EnergyBurstRunner::new(
                Farads::from_micro(500.0),
                TaskSpec::monjolo_ping(),
                Volts(2.0),
                Volts(3.6),
            )
            .unwrap();
            r.run(
                move |v, _| {
                    if v.0 > 0.05 {
                        Amps(p_mw * 1e-3 / v.0.max(0.2))
                    } else {
                        Amps(p_mw * 1e-3 / 0.2)
                    }
                },
                Seconds(20.0),
                Seconds(1e-4),
            );
            r.task_rate()
        };
        let slow = rate_at(0.5);
        let fast = rate_at(2.0);
        assert!(slow > 0.1, "harvester should produce pings: {slow}/s");
        let ratio = fast / slow;
        assert!(
            (2.0..8.0).contains(&ratio),
            "4× power should give roughly 4× pings, got {ratio:.2}×"
        );
    }

    #[test]
    fn undersized_buffer_is_rejected() {
        // 10 µF cannot store a 5.5 mJ photo between 3.6 and 2.0 V.
        let result = EnergyBurstRunner::new(
            Farads::from_micro(10.0),
            TaskSpec::wispcam_photo(),
            Volts(2.0),
            Volts(3.6),
        );
        assert!(matches!(result, Err(SizingError::Domain(_))));
    }

    #[test]
    fn wispcam_takes_photos_when_reader_present() {
        let mut r = EnergyBurstRunner::new(
            Farads::from_milli(6.0),
            TaskSpec::wispcam_photo(),
            Volts(2.0),
            Volts(3.6),
        )
        .unwrap();
        // 4 mW RF harvest, always on.
        r.run(
            |v, _| Amps(4e-3 / v.0.max(0.2)),
            Seconds(60.0),
            Seconds(1e-3),
        );
        // Steady state: ~5.5 mJ × 1.1 margin per photo at 4 mW in
        // ≈ 1.5 s/photo, minus the initial charge of the 6 mF buffer.
        let photos = r.completions().len();
        assert!(
            (20..=45).contains(&photos),
            "expected ≈ 40 photos in 60 s, got {photos}"
        );
        assert_eq!(r.aborted_tasks(), 0);
    }

    #[test]
    fn no_harvest_no_tasks() {
        let mut r = EnergyBurstRunner::new(
            Farads::from_micro(500.0),
            TaskSpec::sense_sample(),
            Volts(2.0),
            Volts(3.6),
        )
        .unwrap();
        r.run(|_, _| Amps::ZERO, Seconds(5.0), Seconds(1e-4));
        assert!(r.completions().is_empty());
        assert_eq!(r.task_rate(), 0.0);
    }
}
