//! Energy-driven computing: the core of the workspace.
//!
//! This crate holds the paper's primary contribution — the **taxonomy of
//! computing systems** from Section II (Fig. 2) — together with the system
//! assembly layer that wires the substrate crates (`edc-harvest`,
//! `edc-power`, `edc-mcu`, `edc-workloads`, `edc-transient`, `edc-neutral`,
//! `edc-mpsoc`) into runnable experiments, and the canonical scenario
//! presets behind every figure reproduction.
//!
//! # Examples
//!
//! Classifying the paper's exemplar systems (Fig. 2):
//!
//! ```
//! use edc_core::taxonomy::{catalog, classify};
//!
//! for profile in catalog() {
//!     let class = classify(&profile);
//!     println!("{:<26} {}", profile.name, class);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod experiment;
pub mod fleet;
pub mod json;
pub mod scenarios;
pub mod system;
pub mod taxonomy;
pub mod telemetry;

pub use catalog::{TraceCatalog, TraceError, TraceId};
pub use edc_telemetry::{Telemetry, TelemetryKind};
pub use experiment::{BuildError, Experiment, ExperimentSpec, SpecKey, System};
pub use fleet::{FieldSpec, FleetError, FleetSpec, Placement};
pub use scenarios::{FieldEnvelope, SourceKind, StrategyKind};
pub use system::{SystemReport, Topology};
pub use taxonomy::{classify, Adaptation, Classification, SupplyKind, SystemProfile};
