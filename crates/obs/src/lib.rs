//! `edc-obs`: Perfetto timeline export of runs.
//!
//! [`perfetto`] maps a run's retained
//! [`TimelineSink`](edc_telemetry::TimelineSink) streams onto
//! Perfetto/Chrome trace-event JSON — one track per run (or fleet node),
//! lifecycle phases as duration slices, events as instants, and
//! stored-energy/supply-power counter tracks. Everything is stamped in
//! *simulation* time, so the export is a pure function of the run and
//! byte-identical across repeats.
//!
//! # Examples
//!
//! ```
//! use edc_obs::PerfettoTrace;
//! use edc_telemetry::{Event, Record, Sink, TimelineSink};
//! use edc_units::{Joules, Seconds};
//!
//! let mut tl = TimelineSink::new();
//! tl.record(Record {
//!     t: Seconds(0.1),
//!     energy: Joules(1e-6),
//!     event: Event::Boot,
//! });
//! let mut trace = PerfettoTrace::new();
//! trace.add_track("run", &tl, Seconds(1.0));
//! let json = trace.to_json().to_string();
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perfetto;

pub use perfetto::PerfettoTrace;
