//! Perfetto/Chrome trace-event export of run timelines.
//!
//! The emitted JSON is the classic trace-event format — an object with a
//! `traceEvents` array — which both `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) open directly. The mapping:
//!
//! | timeline stream                  | trace events                        |
//! |----------------------------------|-------------------------------------|
//! | lifecycle phases (`PhaseChange`) | `"X"` duration slices, one thread   |
//! | event records (`Record`)         | `"i"` instants, a second thread     |
//! | gauges (`GaugeSample`)           | `"C"` counter tracks (J and W)      |
//!
//! Each track added to a [`PerfettoTrace`] becomes its own process (so a
//! fleet renders as one process per node), named by `"M"` metadata
//! events. Timestamps are **simulation microseconds**, so the export is a
//! pure function of the run: byte-identical across repeats, machines, and
//! serial-vs-parallel execution.

use edc_core::json::Json;
use edc_telemetry::{Event, TimelineSink};
use edc_units::Seconds;

/// Trace-event timestamps are microseconds.
fn us(t: Seconds) -> Json {
    Json::Num(t.0 * 1e6)
}

/// A Perfetto/Chrome trace-event document under construction: a list of
/// tracks, each built from one run's [`TimelineSink`].
///
/// # Examples
///
/// ```
/// use edc_obs::PerfettoTrace;
/// use edc_telemetry::{Phase, TimelineSink};
/// use edc_units::Seconds;
///
/// let mut tl = TimelineSink::new();
/// tl.phase(Seconds(0.0), Phase::Off);
/// tl.phase(Seconds(0.4), Phase::Active);
///
/// let mut trace = PerfettoTrace::new();
/// trace.add_track("node0", &tl, Seconds(1.0));
/// let json = trace.to_json().to_string();
/// assert!(json.contains("\"process_name\""));
/// assert!(json.contains("\"ph\":\"X\""), "phases become duration slices");
/// ```
#[derive(Debug, Clone, Default)]
pub struct PerfettoTrace {
    events: Vec<Json>,
    tracks: u64,
}

impl PerfettoTrace {
    /// An empty trace document.
    ///
    /// # Examples
    ///
    /// ```
    /// let trace = edc_obs::PerfettoTrace::new();
    /// assert_eq!(trace.len(), 0);
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of trace events emitted so far (metadata included).
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_obs::PerfettoTrace;
    /// use edc_telemetry::TimelineSink;
    /// use edc_units::Seconds;
    ///
    /// let mut trace = PerfettoTrace::new();
    /// trace.add_track("run", &TimelineSink::new(), Seconds(1.0));
    /// assert!(trace.len() >= 3, "metadata events alone");
    /// ```
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no track has been added yet.
    ///
    /// # Examples
    ///
    /// ```
    /// assert!(edc_obs::PerfettoTrace::new().is_empty());
    /// ```
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of tracks (processes) added so far.
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_obs::PerfettoTrace;
    /// use edc_telemetry::TimelineSink;
    /// use edc_units::Seconds;
    ///
    /// let mut trace = PerfettoTrace::new();
    /// trace.add_track("run", &TimelineSink::new(), Seconds(1.0));
    /// assert_eq!(trace.tracks(), 1);
    /// ```
    pub fn tracks(&self) -> u64 {
        self.tracks
    }

    /// Adds one run's timeline as a new track (its own process in the
    /// trace). `end` closes the final phase span — pass the completion
    /// time or the deadline.
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_obs::PerfettoTrace;
    /// use edc_telemetry::{Event, Record, TimelineSink};
    /// use edc_units::{Joules, Seconds};
    ///
    /// let mut tl = TimelineSink::new();
    /// tl.record(Record {
    ///     t: Seconds(0.2),
    ///     energy: Joules(5e-6),
    ///     event: Event::TaskComplete,
    /// });
    /// let mut trace = PerfettoTrace::new();
    /// trace.add_track("run", &tl, Seconds(0.2));
    /// assert!(trace.to_json().to_string().contains("task-complete"));
    /// ```
    pub fn add_track(&mut self, name: &str, tl: &TimelineSink, end: Seconds) {
        self.tracks += 1;
        let pid = self.tracks;
        self.push_meta("process_name", pid, 0, name);
        self.push_meta("thread_name", pid, 0, "lifecycle");
        self.push_meta("thread_name", pid, 1, "events");

        // Lifecycle phases: consecutive transitions become duration
        // slices; the last one is closed by `end` (clamped so a phase
        // change at the deadline still gets a zero-length slice, never a
        // negative one).
        let phases = tl.phases();
        for (i, change) in phases.iter().enumerate() {
            let until = match phases.get(i + 1) {
                Some(next) => next.t,
                None => Seconds(end.0.max(change.t.0)),
            };
            self.events.push(Json::obj(vec![
                ("name", Json::Str(change.phase.name().into())),
                ("cat", Json::Str("phase".into())),
                ("ph", Json::Str("X".into())),
                ("ts", us(change.t)),
                ("dur", Json::Num((until.0 - change.t.0) * 1e6)),
                ("pid", Json::Uint(pid)),
                ("tid", Json::Uint(0)),
            ]));
        }

        // Lifecycle events: thread-scoped instants carrying the
        // cumulative energy stamp (and the attempt cost for snapshots).
        for rec in tl.records() {
            let mut args = vec![("energy_j", Json::Num(rec.energy.0))];
            if let Event::Snapshot { cost, .. } = rec.event {
                args.push(("cost_j", Json::Num(cost.0)));
            }
            self.events.push(Json::obj(vec![
                ("name", Json::Str(rec.event.name().into())),
                ("cat", Json::Str("event".into())),
                ("ph", Json::Str("i".into())),
                ("s", Json::Str("t".into())),
                ("ts", us(rec.t)),
                ("pid", Json::Uint(pid)),
                ("tid", Json::Uint(1)),
                ("args", Json::obj(args)),
            ]));
        }

        // Gauges: two counter tracks per run — stored energy and supply
        // power.
        for g in tl.gauges() {
            for (name, value) in [("stored_j", g.stored.0), ("supply_w", g.supply.0)] {
                self.events.push(Json::obj(vec![
                    ("name", Json::Str(name.into())),
                    ("ph", Json::Str("C".into())),
                    ("ts", us(g.t)),
                    ("pid", Json::Uint(pid)),
                    ("tid", Json::Uint(0)),
                    ("args", Json::obj(vec![("value", Json::Num(value))])),
                ]));
            }
        }
    }

    fn push_meta(&mut self, kind: &str, pid: u64, tid: u64, name: &str) {
        self.events.push(Json::obj(vec![
            ("name", Json::Str(kind.into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Uint(pid)),
            ("tid", Json::Uint(tid)),
            ("args", Json::obj(vec![("name", Json::Str(name.into()))])),
        ]));
    }

    /// The finished document: `{"traceEvents": [...], "displayTimeUnit":
    /// "ms"}`, serialisable byte-deterministically via
    /// [`Json::to_string`](std::string::ToString).
    ///
    /// # Examples
    ///
    /// ```
    /// let doc = edc_obs::PerfettoTrace::new().to_json();
    /// assert!(doc.get("traceEvents").is_some());
    /// ```
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("traceEvents", Json::Arr(self.events.clone())),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_telemetry::{Phase, Record};
    use edc_units::{Joules, Watts};

    fn scripted_timeline() -> TimelineSink {
        let mut tl = TimelineSink::new();
        tl.phase(Seconds(0.0), Phase::Off);
        tl.gauge(Seconds(0.0), Joules::ZERO, Watts::ZERO);
        tl.gauge(Seconds(0.06), Joules(2e-6), Watts(1e-3));
        tl.record(Record {
            t: Seconds(0.06),
            energy: Joules::ZERO,
            event: Event::Boot,
        });
        tl.phase(Seconds(0.06), Phase::Active);
        tl.record(Record {
            t: Seconds(0.1),
            energy: Joules(3e-6),
            event: Event::Snapshot {
                sealed: true,
                cost: Joules(1e-6),
            },
        });
        tl.phase(Seconds(0.1), Phase::Sleep);
        tl
    }

    #[test]
    fn export_covers_slices_instants_counters_and_metadata() {
        let tl = scripted_timeline();
        let mut trace = PerfettoTrace::new();
        trace.add_track("run", &tl, Seconds(0.5));
        let json = trace.to_json().to_string();
        for needle in [
            "\"process_name\"",
            "\"thread_name\"",
            "\"ph\":\"X\"",
            "\"ph\":\"i\"",
            "\"ph\":\"C\"",
            "\"ph\":\"M\"",
            "\"name\":\"snapshot-sealed\"",
            "\"cost_j\":0.000001",
            "\"stored_j\"",
            "\"supply_w\"",
            "\"displayTimeUnit\":\"ms\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // 3 phase slices: off [0, 0.06), active [0.06, 0.1), sleep
        // closed by `end` at 0.5 s.
        assert!(json.contains("\"ts\":100000,\"dur\":400000"));
        assert_eq!(
            Json::parse(&json).expect("valid JSON").to_string(),
            json,
            "parse → emit round-trips byte-identically"
        );
    }

    #[test]
    fn export_is_deterministic_and_tracks_are_separate_processes() {
        let tl = scripted_timeline();
        let export = |tl: &TimelineSink| {
            let mut trace = PerfettoTrace::new();
            trace.add_track("node0", tl, Seconds(0.5));
            trace.add_track("node1", tl, Seconds(0.5));
            trace.to_json().to_string()
        };
        let a = export(&tl);
        let b = export(&tl);
        assert_eq!(a, b, "byte-identical across repeated exports");
        assert!(a.contains("\"pid\":1") && a.contains("\"pid\":2"));
        assert!(a.contains("node0") && a.contains("node1"));
    }

    #[test]
    fn final_phase_never_gets_negative_duration() {
        let mut tl = TimelineSink::new();
        tl.phase(Seconds(0.8), Phase::Off);
        let mut trace = PerfettoTrace::new();
        // `end` before the last transition: clamp to a zero-length slice.
        trace.add_track("run", &tl, Seconds(0.5));
        let json = trace.to_json().to_string();
        assert!(json.contains("\"dur\":0"), "clamped, not negative: {json}");
    }
}
