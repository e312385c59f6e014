//! The diagnostics vocabulary: stable codes, severities, and the
//! deterministic [`LintReport`] container and its JSON form.

use edc_core::json::Json;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// The spec is *provably* unable to complete its workload: simulating
    /// it can only confirm the closed-form verdict.
    Error,
    /// A hazard: the design is suspicious (tearing snapshots, aliased
    /// traces, wasted placements) but may still limp to completion.
    Warning,
}

impl Severity {
    /// Display name (`"error"` / `"warning"`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Stable diagnostic codes. `E0xx` = provably infeasible (the soundness
/// contract: an `E`-flagged spec never produces a completed run — see the
/// `lint` integration test), `W1xx` = hazards.
///
/// The triggering conditions below are *static*: every pass runs from the
/// spec and the trace catalog alone, never the transient runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// A spec parameter violates its constructor domain — every
    /// [`BuildError`](edc_core::experiment::BuildError) from the
    /// collect-all validation
    /// ([`ExperimentSpec::violations_in`](edc_core::experiment::ExperimentSpec::violations_in))
    /// is reported as one `E001` diagnostic, so a spec with three bad
    /// fields gets three diagnostics instead of the first.
    ///
    /// ```
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::scenarios::{SourceKind, StrategyKind};
    /// use edc_lint::{Code, Linter};
    /// use edc_units::{Farads, Seconds};
    /// use edc_workloads::WorkloadKind;
    ///
    /// let spec = ExperimentSpec::new(
    ///     SourceKind::Dc { volts: 3.3 },
    ///     StrategyKind::Hibernus,
    ///     WorkloadKind::Fourier(100), // not a power of two
    /// )
    /// .timestep(Seconds(0.0))       // non-positive
    /// .decoupling(Farads(-1.0));    // negative
    /// let report = Linter::new().lint_spec(&spec);
    /// assert_eq!(report.diagnostics().iter().filter(|d| d.code == Code::E001).count(), 3);
    /// ```
    E001,
    /// The boot threshold is unreachable: an upper bound on the rail
    /// voltage the source can ever produce (over the whole deadline
    /// window, including single-tick overshoot) stays below the strategy's
    /// restore/boot threshold, so the MCU never powers on.
    ///
    /// ```
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::scenarios::{SourceKind, StrategyKind};
    /// use edc_lint::{Code, Linter};
    /// use edc_workloads::WorkloadKind;
    ///
    /// // A 1.5 V EMF behind 10 Ω can never charge the rail to the
    /// // restart boot threshold (V_min + 0.4 = 2.4 V).
    /// let spec = ExperimentSpec::new(
    ///     SourceKind::Dc { volts: 1.5 },
    ///     StrategyKind::Restart,
    ///     WorkloadKind::Crc16(64),
    /// );
    /// let report = Linter::new().lint_spec(&spec);
    /// assert!(report.diagnostics().iter().any(|d| d.code == Code::E002));
    /// ```
    E002,
    /// The deadline is below the cycle lower bound: even at the top clock
    /// frequency with the supply never failing, the runner cannot grant
    /// enough cycles before the deadline to retire the workload's bare
    /// instruction count.
    ///
    /// ```
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::scenarios::{SourceKind, StrategyKind};
    /// use edc_lint::{Code, Linter};
    /// use edc_units::Seconds;
    /// use edc_workloads::WorkloadKind;
    ///
    /// // One 20 µs tick at 24 MHz grants < 500 cycles — a 256-point
    /// // Fourier transform cannot fit under a 10 µs deadline.
    /// let spec = ExperimentSpec::new(
    ///     SourceKind::RectifiedSine { hz: 50.0 },
    ///     StrategyKind::Hibernus,
    ///     WorkloadKind::Fourier(256),
    /// )
    /// .deadline(Seconds(10e-6));
    /// let report = Linter::new().lint_spec(&spec);
    /// assert!(report.diagnostics().iter().any(|d| d.code == Code::E003));
    /// ```
    E003,
    /// The supply cannot fund the workload: an upper bound on the energy
    /// the source can deliver into the storage capacitor over the deadline
    /// window is below a lower bound on the execution energy demand
    /// (cheapest clock level, no restarts, no checkpoint overhead).
    ///
    /// ```
    /// use edc_core::catalog::TraceCatalog;
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::scenarios::{SourceKind, StrategyKind};
    /// use edc_lint::{Code, Linter};
    /// use edc_units::Seconds;
    /// use edc_workloads::WorkloadKind;
    ///
    /// // A 1 µW recording delivers ~0.5 µJ over half a second — orders of
    /// // magnitude short of a CRC over 1024 words.
    /// let mut catalog = TraceCatalog::new();
    /// let id = catalog.register_uniform("dim", Seconds(1e-3), &[1e-6, 1e-6, 1e-6]).unwrap();
    /// let spec = ExperimentSpec::new(
    ///     SourceKind::Trace { id, decimate: 1, looped: true },
    ///     StrategyKind::Hibernus,
    ///     WorkloadKind::Crc16(1024),
    /// )
    /// .deadline(Seconds(0.5));
    /// let report = Linter::with_catalog(catalog).lint_spec(&spec);
    /// assert!(report.diagnostics().iter().any(|d| d.code == Code::E004));
    /// ```
    E004,
    /// The workload never terminates:
    /// [`WorkloadKind::Endless`](edc_workloads::WorkloadKind::Endless) has
    /// no completion state, so no run of this spec can ever report success.
    ///
    /// ```
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::scenarios::{SourceKind, StrategyKind};
    /// use edc_lint::{Code, Linter};
    /// use edc_workloads::WorkloadKind;
    ///
    /// let spec = ExperimentSpec::new(
    ///     SourceKind::Dc { volts: 3.3 },
    ///     StrategyKind::Hibernus,
    ///     WorkloadKind::Endless,
    /// );
    /// let report = Linter::new().lint_spec(&spec);
    /// assert!(report.diagnostics().iter().any(|d| d.code == Code::E005));
    /// ```
    E005,
    /// Decoupling below the Eq. (4) floor: even with zero safety margin no
    /// hibernate threshold `V_H ≤ V_max` can fund a snapshot, so every
    /// snapshot the strategy attempts tears. A warning, not an error —
    /// strategies park their threshold just under the clamp and limp
    /// along, and restart-style recovery can still complete.
    ///
    /// ```
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::scenarios::{SourceKind, StrategyKind};
    /// use edc_lint::{Code, Linter};
    /// use edc_units::Farads;
    /// use edc_workloads::WorkloadKind;
    ///
    /// // 0.1 µF cannot hold a multi-µJ snapshot budget between the rails.
    /// let spec = ExperimentSpec::new(
    ///     SourceKind::RectifiedSine { hz: 50.0 },
    ///     StrategyKind::Hibernus,
    ///     WorkloadKind::Crc16(64),
    /// )
    /// .decoupling(Farads::from_micro(0.1));
    /// let report = Linter::new().lint_spec(&spec);
    /// assert!(report.diagnostics().iter().any(|d| d.code == Code::W101));
    /// ```
    W101,
    /// Trace decimation aliasing: the decimated sample spacing exceeds the
    /// workload's bare execution time at the boot clock, so an entire
    /// uninterrupted execution sees a single interpolated supply segment —
    /// the dynamics the recording captured are aliased away. (Heuristic:
    /// the bare duration is the workload's period between completions.)
    ///
    /// ```
    /// use edc_core::catalog::TraceCatalog;
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::scenarios::{SourceKind, StrategyKind};
    /// use edc_lint::{Code, Linter};
    /// use edc_units::Seconds;
    /// use edc_workloads::WorkloadKind;
    ///
    /// let mut catalog = TraceCatalog::new();
    /// let samples: Vec<f64> = (0..40).map(|i| 1e-3 * (i % 2) as f64).collect();
    /// let id = catalog.register_uniform("fast", Seconds(1e-3), &samples).unwrap();
    /// // Keeping every 16th sample leaves 16 ms between samples — longer
    /// // than a tiny busy-loop's entire execution.
    /// let spec = ExperimentSpec::new(
    ///     SourceKind::Trace { id, decimate: 16, looped: true },
    ///     StrategyKind::Hibernus,
    ///     WorkloadKind::BusyLoop(10),
    /// );
    /// let report = Linter::with_catalog(catalog).lint_spec(&spec);
    /// assert!(report.diagnostics().iter().any(|d| d.code == Code::W102));
    /// ```
    W102,
    /// A non-looped trace is shorter than the deadline: playback holds the
    /// final sample's power forever after the recording ends, so the tail
    /// of the run is driven by an artefact, not data.
    ///
    /// ```
    /// use edc_core::catalog::TraceCatalog;
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::scenarios::{SourceKind, StrategyKind};
    /// use edc_lint::{Code, Linter};
    /// use edc_units::Seconds;
    /// use edc_workloads::WorkloadKind;
    ///
    /// let mut catalog = TraceCatalog::new();
    /// let id = catalog.register_uniform("short", Seconds(1e-3), &[8e-3, 8e-3, 8e-3]).unwrap();
    /// // 2 ms of recording driving a 1 s deadline.
    /// let spec = ExperimentSpec::new(
    ///     SourceKind::Trace { id, decimate: 1, looped: false },
    ///     StrategyKind::Hibernus,
    ///     WorkloadKind::Crc16(64),
    /// )
    /// .deadline(Seconds(1.0));
    /// let report = Linter::with_catalog(catalog).lint_spec(&spec);
    /// assert!(report.diagnostics().iter().any(|d| d.code == Code::W103));
    /// ```
    W103,
    /// Duplicate fleet placement buckets: two nodes share the exact same
    /// `(attenuation, phase)` pair, so they run byte-identical experiments
    /// — the duplicate buys no extra information, only wall-clock.
    ///
    /// ```
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::fleet::{FieldSpec, FleetSpec};
    /// use edc_core::scenarios::{FieldEnvelope, SourceKind, StrategyKind};
    /// use edc_lint::{Code, Linter};
    /// use edc_workloads::WorkloadKind;
    ///
    /// let design = ExperimentSpec::new(
    ///     SourceKind::Dc { volts: 3.3 },
    ///     StrategyKind::Hibernus,
    ///     WorkloadKind::Crc16(64),
    /// );
    /// // Three colocated nodes with zero stagger: identical buckets.
    /// let fleet = FleetSpec::new(
    ///     FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 }),
    ///     design,
    ///     3,
    /// );
    /// let report = Linter::new().lint_fleet(&fleet);
    /// assert_eq!(report.diagnostics().iter().filter(|d| d.code == Code::W104).count(), 2);
    /// ```
    W104,
    /// Dead axis in a `SpecSpace`: every value along the axis lints to the
    /// same non-clean outcome, so searching it cannot change the verdict.
    /// Emitted by `edc_explore::lint_space` (the space type lives there);
    /// see that function's documentation for a triggering example.
    W105,
}

impl Code {
    /// Every code, in numeric order.
    pub const ALL: [Code; 10] = [
        Code::E001,
        Code::E002,
        Code::E003,
        Code::E004,
        Code::E005,
        Code::W101,
        Code::W102,
        Code::W103,
        Code::W104,
        Code::W105,
    ];

    /// The stable code string (`"E001"`, …).
    pub fn name(self) -> &'static str {
        match self {
            Code::E001 => "E001",
            Code::E002 => "E002",
            Code::E003 => "E003",
            Code::E004 => "E004",
            Code::E005 => "E005",
            Code::W101 => "W101",
            Code::W102 => "W102",
            Code::W103 => "W103",
            Code::W104 => "W104",
            Code::W105 => "W105",
        }
    }

    /// The severity class the code's prefix encodes.
    pub fn severity(self) -> Severity {
        match self {
            Code::E001 | Code::E002 | Code::E003 | Code::E004 | Code::E005 => Severity::Error,
            Code::W101 | Code::W102 | Code::W103 | Code::W104 | Code::W105 => Severity::Warning,
        }
    }

    /// A one-line summary of the condition (the README codes table).
    pub fn summary(self) -> &'static str {
        match self {
            Code::E001 => "spec parameter violates its constructor domain",
            Code::E002 => "supply can never raise the rail to the boot threshold",
            Code::E003 => "deadline is below the workload's cycle lower bound",
            Code::E004 => "supply energy upper bound is below the demand lower bound",
            Code::E005 => "workload never terminates",
            Code::W101 => "decoupling below the Eq. (4) snapshot floor",
            Code::W102 => "trace decimation aliases the workload's supply dynamics",
            Code::W103 => "non-looped trace shorter than the deadline",
            Code::W104 => "duplicate fleet (attenuation, phase) bucket",
            Code::W105 => "spec-space axis whose every value lints identically",
        }
    }
}

/// One finding: a code, a JSON-path location into the offending spec, and
/// a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Location as a JSON path into the spec's
    /// [`to_json`](edc_core::experiment::ExperimentSpec::to_json) form,
    /// e.g. `$.decoupling_f` or `$.nodes[2].source`.
    pub path: String,
    /// What is wrong, with the numbers that prove it.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(code: Code, path: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            code,
            path: path.into(),
            message: message.into(),
        }
    }

    /// The severity of [`Diagnostic::code`].
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// The diagnostic relocated under `prefix` (e.g. `$.nodes[2]`):
    /// `$.source` becomes `$.nodes[2].source`.
    pub fn with_path_prefix(mut self, prefix: &str) -> Self {
        let tail = self.path.strip_prefix('$').unwrap_or(&self.path);
        self.path = format!("{prefix}{tail}");
        self
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity().name(),
            self.code.name(),
            self.path,
            self.message
        )
    }
}

/// An ordered collection of diagnostics with a deterministic JSON form.
/// Pass order is fixed, so two lints of the same spec against the same
/// catalog produce byte-identical reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends every diagnostic of `other`, relocated under `prefix`.
    pub fn merge_prefixed(&mut self, prefix: &str, other: LintReport) {
        for d in other.diagnostics {
            self.diagnostics.push(d.with_path_prefix(prefix));
        }
    }

    /// All diagnostics, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// `true` when no diagnostics were emitted.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when any `E`-class diagnostic is present — the prefilter's
    /// prune condition and the `edc_lint` binary's failure condition.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error)
    }

    /// Number of `E`-class diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of `W`-class diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// The report as a JSON value: counts first, then every diagnostic in
    /// emission order. Deterministic: the same report always emits the
    /// same bytes.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("errors", Json::Uint(self.error_count() as u64)),
            ("warnings", Json::Uint(self.warning_count() as u64)),
            (
                "diagnostics",
                Json::Arr(
                    self.diagnostics
                        .iter()
                        .map(|d| {
                            Json::obj(vec![
                                ("code", Json::Str(d.code.name().into())),
                                ("severity", Json::Str(d.severity().name().into())),
                                ("path", Json::Str(d.path.clone())),
                                ("message", Json::Str(d.message.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// A plain-text rendering, one diagnostic per line (the `edc_lint`
    /// binary's output format).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_have_unique_names_and_matching_severity() {
        let mut names: Vec<&str> = Code::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Code::ALL.len());
        for code in Code::ALL {
            let expect = if code.name().starts_with('E') {
                Severity::Error
            } else {
                Severity::Warning
            };
            assert_eq!(code.severity(), expect, "{}", code.name());
        }
    }

    #[test]
    fn report_counts_and_flags() {
        let mut r = LintReport::new();
        assert!(r.is_clean() && !r.has_errors());
        r.push(Diagnostic::new(Code::W101, "$.decoupling_f", "floor"));
        assert!(!r.is_clean() && !r.has_errors());
        r.push(Diagnostic::new(Code::E004, "$.source", "starved"));
        assert!(r.has_errors());
        assert_eq!((r.error_count(), r.warning_count()), (1, 1));
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut r = LintReport::new();
        r.push(Diagnostic::new(Code::E002, "$.source", "max 1.5 V < 2.4 V"));
        r.push(Diagnostic::new(Code::W103, "$.source.looped", "2 ms < 1 s"));
        let text = r.to_json().to_string();
        assert!(text.starts_with(r#"{"errors":1,"warnings":1,"diagnostics":[{"code":"E002""#));
        let reparsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(reparsed.to_string(), text);
    }

    #[test]
    fn path_prefixing_relocates() {
        let d = Diagnostic::new(Code::E002, "$.source", "m").with_path_prefix("$.nodes[3]");
        assert_eq!(d.path, "$.nodes[3].source");
    }
}
