//! Canonical experiment scenarios — one preset per figure/claim, shared by
//! the examples, the integration tests, and the bench harnesses so that
//! every consumer reproduces the *same* experiment.

use edc_harvest::{
    DcSupply, EnergySource, FieldView, GustProfile, Photovoltaic, SignalGenerator, Waveform,
    WindTurbine,
};
use edc_transient::{
    Hibernus, HibernusPP, HibernusPn, Mementos, Nvp, QuickRecall, Restart, Strategy,
};
use edc_units::{Hertz, Ohms, Seconds, Volts};

use crate::catalog::{TraceCatalog, TraceId};
use crate::json::Json;

/// The checkpoint strategies compared throughout the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Recompute-from-scratch baseline.
    Restart,
    /// Mementos (compile-time sites + voltage poll).
    Mementos,
    /// Hibernus (Eq. 4 voltage interrupt).
    Hibernus,
    /// Hibernus++ (self-calibrating).
    HibernusPP,
    /// Hibernus-PN (power-neutral DFS governor on top of Hibernus).
    HibernusPn,
    /// QuickRecall (unified FRAM).
    QuickRecall,
    /// Non-volatile processor.
    Nvp,
}

impl StrategyKind {
    /// Every strategy, in presentation order.
    pub const ALL: [StrategyKind; 7] = [
        StrategyKind::Restart,
        StrategyKind::Mementos,
        StrategyKind::Hibernus,
        StrategyKind::HibernusPP,
        StrategyKind::HibernusPn,
        StrategyKind::QuickRecall,
        StrategyKind::Nvp,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Restart => "restart",
            StrategyKind::Mementos => "mementos",
            StrategyKind::Hibernus => "hibernus",
            StrategyKind::HibernusPP => "hibernus++",
            StrategyKind::HibernusPn => "hibernus-pn",
            StrategyKind::QuickRecall => "quickrecall",
            StrategyKind::Nvp => "nvp",
        }
    }

    /// The kind with the given [`StrategyKind::name`], for JSON decoding.
    pub fn from_name(name: &str) -> Option<StrategyKind> {
        Self::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// Instantiates the strategy with its default calibration.
    pub fn make(self) -> Box<dyn Strategy> {
        match self {
            StrategyKind::Restart => Box::new(Restart::new()),
            StrategyKind::Mementos => Box::new(Mementos::new()),
            StrategyKind::Hibernus => Box::new(Hibernus::new()),
            StrategyKind::HibernusPP => Box::new(HibernusPP::new()),
            StrategyKind::HibernusPn => Box::new(HibernusPn::new()),
            StrategyKind::QuickRecall => Box::new(QuickRecall::new()),
            StrategyKind::Nvp => Box::new(Nvp::new()),
        }
    }
}

/// An energy source identified by kind and parameters — plain `Copy` data,
/// so experiment grids can carry, clone and serialise their stimulus the
/// same way they carry a [`StrategyKind`].
///
/// Every variant instantiates one of the canonical supplies used across the
/// paper's figures; custom sources still plug in through
/// [`Experiment::source`](crate::experiment::Experiment::source).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceKind {
    /// The Fig. 7 stimulus: 4 V half-wave rectified sine behind 100 Ω at
    /// the given frequency.
    RectifiedSine {
        /// Supply frequency in hertz.
        hz: f64,
    },
    /// The Fig. 8 supply: a micro wind turbine's gust (5 V peak, 8 Hz
    /// electrical, Fig. 1(a) envelope, 150 Ω).
    Turbine,
    /// Square-wave interrupted supply, 50% availability at the given
    /// interruption frequency — the Eq. (5) stimulus.
    Interrupted {
        /// Interruption frequency in hertz.
        hz: f64,
    },
    /// A steady DC bench supply behind 10 Ω.
    Dc {
        /// Supply EMF in volts.
        volts: f64,
    },
    /// Indoor photovoltaic cell (Fig. 1(b) band) with the given noise seed.
    IndoorPv {
        /// Deterministic noise seed.
        seed: u64,
    },
    /// Outdoor photovoltaic cell with the given noise seed.
    OutdoorPv {
        /// Deterministic noise seed.
        seed: u64,
    },
    /// One fleet node's view of a shared harvest field: the ambient
    /// [`FieldEnvelope`] seen through a placement attenuation and a phase
    /// stagger. Built by `edc-fleet` when it partitions one field across a
    /// population of nodes; plain `Copy` data like every other kind, so
    /// per-node specs flow through sweeps and searchers unchanged.
    FieldView {
        /// The shared ambient envelope.
        field: FieldEnvelope,
        /// Placement attenuation in `(0, 1]` applied to the envelope's
        /// amplitude.
        attenuation: f64,
        /// Phase stagger in seconds: the node samples the field at
        /// `t + phase_s`.
        phase_s: f64,
    },
    /// A recorded harvested-power trace from the
    /// [`TraceCatalog`]: the spec names the
    /// recording by its `Copy` [`TraceId`] handle (interned name + content
    /// hash) and build-time consumers resolve the samples through the
    /// catalog threaded into `build_in`/`run_specs_timed_in`. Absent from
    /// [`SourceKind::ALL`] because traces have no canonical parameters —
    /// a catalog supplies them.
    Trace {
        /// The registered trace.
        id: TraceId,
        /// Fidelity knob: keep every `decimate`-th sample (`1` = full
        /// fidelity). The explore evaluator discounts decimated runs the
        /// same way it discounts coarse timesteps.
        decimate: u64,
        /// Repeat the recording indefinitely instead of holding its last
        /// value.
        looped: bool,
    },
}

impl SourceKind {
    /// Every standalone source kind at its canonical parameters, in
    /// presentation order. [`SourceKind::FieldView`] is deliberately absent:
    /// it has no canonical parameters of its own — `edc-fleet` derives one
    /// per node placement.
    pub const ALL: [SourceKind; 6] = [
        SourceKind::RectifiedSine { hz: 50.0 },
        SourceKind::Turbine,
        SourceKind::Interrupted { hz: 10.0 },
        SourceKind::Dc { volts: 3.3 },
        SourceKind::IndoorPv { seed: 2017 },
        SourceKind::OutdoorPv { seed: 7 },
    ];

    /// A full-fidelity, non-looping spec handle for a registered trace —
    /// the common case when building a `SpecSpace` source axis from
    /// [`TraceCatalog::ids`].
    pub fn trace(id: TraceId) -> SourceKind {
        SourceKind::Trace {
            id,
            decimate: 1,
            looped: false,
        }
    }

    /// Display name of the source class.
    pub fn name(self) -> &'static str {
        match self {
            SourceKind::RectifiedSine { .. } => "rectified-sine",
            SourceKind::Turbine => "turbine",
            SourceKind::Interrupted { .. } => "interrupted",
            SourceKind::Dc { .. } => "dc",
            SourceKind::IndoorPv { .. } => "indoor-pv",
            SourceKind::OutdoorPv { .. } => "outdoor-pv",
            SourceKind::FieldView { .. } => "field-view",
            SourceKind::Trace { .. } => "trace",
        }
    }

    /// The fidelity discount a trace-backed kind runs at: its decimation
    /// factor (`≥ 1`), or `1.0` for synthetic kinds. The explore
    /// evaluator divides a run's cost by this, mirroring the coarse-`dt`
    /// discount.
    pub fn fidelity_discount(self) -> f64 {
        match self {
            SourceKind::Trace { decimate, .. }
            | SourceKind::FieldView {
                field: FieldEnvelope::Trace { decimate, .. },
                ..
            } => decimate.max(1) as f64,
            _ => 1.0,
        }
    }

    /// Checks the kind's parameters against the source constructors'
    /// domains, so fallible assembly layers can reject a bad kind instead
    /// of letting [`SourceKind::make`] hit a constructor assert.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint.
    pub fn validate(self) -> Result<(), &'static str> {
        match self {
            SourceKind::RectifiedSine { hz } | SourceKind::Interrupted { hz }
                if !(hz.is_finite() && hz > 0.0) =>
            {
                Err("supply frequency must be positive and finite")
            }
            SourceKind::Dc { volts } if !volts.is_finite() => {
                Err("DC supply voltage must be finite")
            }
            SourceKind::FieldView {
                field,
                attenuation,
                phase_s,
            } => {
                field.validate()?;
                if !(attenuation.is_finite() && attenuation > 0.0 && attenuation <= 1.0) {
                    return Err("field-view attenuation must be in (0, 1]");
                }
                if !(phase_s.is_finite() && phase_s >= 0.0) {
                    return Err("field-view phase must be finite and ≥ 0");
                }
                Ok(())
            }
            SourceKind::Trace { decimate: 0, .. } => Err("trace decimation must be ≥ 1"),
            _ => Ok(()),
        }
    }

    /// [`SourceKind::validate`], plus resolution of trace handles against
    /// the build catalog — the check `build_in`/`run_specs_timed_in` gate
    /// on, so a spec naming a trace the catalog does not hold fails as a
    /// value, never a panic.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint.
    pub fn validate_in(self, catalog: &TraceCatalog) -> Result<(), &'static str> {
        self.validate()?;
        match self {
            SourceKind::Trace { id, .. }
            | SourceKind::FieldView {
                field: FieldEnvelope::Trace { id, .. },
                ..
            } if !catalog.contains(id) => Err("trace is not registered in the build catalog"),
            _ => Ok(()),
        }
    }

    /// Instantiates the source, resolving trace handles through `catalog`.
    /// A trace that does not resolve in `catalog` builds a dead source
    /// ([`SourceSample::OFF`](edc_harvest::SourceSample::OFF) at every
    /// time); [`SourceKind::validate_in`] reports it as a violation.
    ///
    /// # Panics
    ///
    /// Panics when the parameters violate the constructor domain; call
    /// [`SourceKind::validate_in`] first to get the violation as a value.
    pub fn make_in(self, catalog: &TraceCatalog) -> Box<dyn EnergySource> {
        match self {
            SourceKind::RectifiedSine { hz } => Box::new(fig7_supply(Hertz(hz))),
            SourceKind::Turbine => Box::new(fig8_turbine()),
            SourceKind::Interrupted { hz } => Box::new(interrupted_supply(Hertz(hz))),
            SourceKind::Dc { volts } => {
                Box::new(DcSupply::new(Volts(volts)).with_resistance(Ohms(10.0)))
            }
            SourceKind::IndoorPv { seed } => Box::new(Photovoltaic::indoor(seed)),
            SourceKind::OutdoorPv { seed } => Box::new(Photovoltaic::outdoor(seed)),
            SourceKind::FieldView {
                field,
                attenuation,
                phase_s,
            } => Box::new(FieldView::new(
                field.make_in(catalog),
                attenuation,
                Seconds(phase_s),
            )),
            SourceKind::Trace {
                id,
                decimate,
                looped,
            } => match catalog.playback(id, decimate, looped) {
                Ok(trace) => Box::new(trace),
                Err(_) => Box::new(DcSupply::new(Volts(0.0))),
            },
        }
    }

    /// Instantiates the source without a catalog, so trace-backed kinds,
    /// whose samples live in a [`TraceCatalog`], build a dead source; use
    /// [`SourceKind::make_in`] for those.
    ///
    /// # Panics
    ///
    /// Panics when the parameters violate the constructor domain.
    pub fn make(self) -> Box<dyn EnergySource> {
        self.make_in(&TraceCatalog::new())
    }

    /// The kind as a JSON value, lossless: every parameter that
    /// distinguishes one source from another is serialised. Used by
    /// [`ExperimentSpec::to_json`](crate::experiment::ExperimentSpec::to_json)
    /// and fleet field serialisation, so one encoding covers both.
    pub fn to_json(self) -> Json {
        match self {
            SourceKind::RectifiedSine { hz } => Json::obj(vec![
                ("kind", Json::Str("rectified-sine".into())),
                ("hz", Json::Num(hz)),
            ]),
            SourceKind::Turbine => Json::obj(vec![("kind", Json::Str("turbine".into()))]),
            SourceKind::Interrupted { hz } => Json::obj(vec![
                ("kind", Json::Str("interrupted".into())),
                ("hz", Json::Num(hz)),
            ]),
            SourceKind::Dc { volts } => Json::obj(vec![
                ("kind", Json::Str("dc".into())),
                ("volts", Json::Num(volts)),
            ]),
            SourceKind::IndoorPv { seed } => Json::obj(vec![
                ("kind", Json::Str("indoor-pv".into())),
                ("seed", Json::Uint(seed)),
            ]),
            SourceKind::OutdoorPv { seed } => Json::obj(vec![
                ("kind", Json::Str("outdoor-pv".into())),
                ("seed", Json::Uint(seed)),
            ]),
            SourceKind::FieldView {
                field,
                attenuation,
                phase_s,
            } => Json::obj(vec![
                ("kind", Json::Str("field-view".into())),
                ("field", field.source_kind().to_json()),
                ("attenuation", Json::Num(attenuation)),
                ("phase_s", Json::Num(phase_s)),
            ]),
            // Lossless by reference: name + content hash pin *which*
            // recording this is; the samples themselves are serialised once
            // by `TraceCatalog::to_json`, not per spec.
            SourceKind::Trace {
                id,
                decimate,
                looped,
            } => Json::obj(vec![
                ("kind", Json::Str("trace".into())),
                ("name", Json::Str(id.name().into())),
                ("hash", Json::Uint(id.content_hash())),
                ("decimate", Json::Uint(decimate)),
                ("looped", Json::Bool(looped)),
            ]),
        }
    }

    /// Rebuilds a kind from [`SourceKind::to_json`] output, resolving trace
    /// references (name + content hash) through `catalog`.
    ///
    /// # Errors
    ///
    /// Returns the first shape mismatch, unknown kind, or trace reference
    /// the catalog does not hold.
    pub fn from_json(json: &Json, catalog: &TraceCatalog) -> Result<SourceKind, &'static str> {
        let num = |key: &str| match json.get(key) {
            Some(Json::Num(n)) => Some(*n),
            Some(Json::Uint(u)) => Some(*u as f64),
            _ => None,
        };
        let uint = |key: &str| match json.get(key) {
            Some(Json::Uint(u)) => Some(*u),
            _ => None,
        };
        let Some(Json::Str(kind)) = json.get("kind") else {
            return Err("source missing 'kind'");
        };
        match kind.as_str() {
            "rectified-sine" => Ok(SourceKind::RectifiedSine {
                hz: num("hz").ok_or("rectified-sine missing 'hz'")?,
            }),
            "turbine" => Ok(SourceKind::Turbine),
            "interrupted" => Ok(SourceKind::Interrupted {
                hz: num("hz").ok_or("interrupted missing 'hz'")?,
            }),
            "dc" => Ok(SourceKind::Dc {
                volts: num("volts").ok_or("dc missing 'volts'")?,
            }),
            "indoor-pv" => Ok(SourceKind::IndoorPv {
                seed: uint("seed").ok_or("indoor-pv missing 'seed'")?,
            }),
            "outdoor-pv" => Ok(SourceKind::OutdoorPv {
                seed: uint("seed").ok_or("outdoor-pv missing 'seed'")?,
            }),
            "field-view" => {
                let field = json.get("field").ok_or("field-view missing 'field'")?;
                let field = FieldEnvelope::from_source_kind(Self::from_json(field, catalog)?)
                    .ok_or("field-view cannot nest another field-view")?;
                Ok(SourceKind::FieldView {
                    field,
                    attenuation: num("attenuation").ok_or("field-view missing 'attenuation'")?,
                    phase_s: num("phase_s").ok_or("field-view missing 'phase_s'")?,
                })
            }
            "trace" => {
                let Some(Json::Str(name)) = json.get("name") else {
                    return Err("trace missing 'name'");
                };
                let hash = uint("hash").ok_or("trace missing 'hash'")?;
                let decimate = uint("decimate").ok_or("trace missing 'decimate'")?;
                let Some(Json::Bool(looped)) = json.get("looped") else {
                    return Err("trace missing 'looped'");
                };
                let id = catalog
                    .ids()
                    .into_iter()
                    .find(|id| id.name() == name && id.content_hash() == hash)
                    .ok_or("trace is not registered in the build catalog")?;
                Ok(SourceKind::Trace {
                    id,
                    decimate,
                    looped: *looped,
                })
            }
            _ => Err("unknown source kind"),
        }
    }
}

/// The ambient envelope of a shared harvest field, as plain `Copy` data.
///
/// A field is an *environment* — the wind over a deployment site, a room's
/// light, a reader's carrier — where a [`SourceKind`] is one node's supply.
/// The variants mirror the synthetic source kinds one-for-one, plus
/// [`FieldEnvelope::Trace`] for recorded fields named through the
/// [`TraceCatalog`]; `edc-fleet` hands each node a
/// [`SourceKind::FieldView`] over the shared envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldEnvelope {
    /// Half-wave rectified sine ambient (the Fig. 7 stimulus).
    RectifiedSine {
        /// Supply frequency in hertz.
        hz: f64,
    },
    /// The Fig. 8 micro wind turbine gust envelope.
    Turbine,
    /// Square-wave interrupted ambient, 50% availability.
    Interrupted {
        /// Interruption frequency in hertz.
        hz: f64,
    },
    /// A steady DC field (bench conditions).
    Dc {
        /// Supply EMF in volts.
        volts: f64,
    },
    /// Indoor photovoltaic band with the given noise seed.
    IndoorPv {
        /// Deterministic noise seed.
        seed: u64,
    },
    /// Outdoor photovoltaic band with the given noise seed.
    OutdoorPv {
        /// Deterministic noise seed.
        seed: u64,
    },
    /// A recorded ambient field from the [`TraceCatalog`] — what
    /// `edc_core::fleet::FieldSpec::PowerTrace` registers itself as, so
    /// trace-backed fleets run through the same spec-driven path as
    /// synthetic ones.
    Trace {
        /// The registered trace.
        id: TraceId,
        /// Fidelity knob: keep every `decimate`-th sample (`1` = full
        /// fidelity).
        decimate: u64,
        /// Repeat the recording indefinitely.
        looped: bool,
    },
}

impl FieldEnvelope {
    /// The inverse of [`FieldEnvelope::source_kind`]: every standalone kind
    /// maps to its envelope; [`SourceKind::FieldView`] (already a view of a
    /// field) has none.
    pub fn from_source_kind(kind: SourceKind) -> Option<FieldEnvelope> {
        match kind {
            SourceKind::RectifiedSine { hz } => Some(FieldEnvelope::RectifiedSine { hz }),
            SourceKind::Turbine => Some(FieldEnvelope::Turbine),
            SourceKind::Interrupted { hz } => Some(FieldEnvelope::Interrupted { hz }),
            SourceKind::Dc { volts } => Some(FieldEnvelope::Dc { volts }),
            SourceKind::IndoorPv { seed } => Some(FieldEnvelope::IndoorPv { seed }),
            SourceKind::OutdoorPv { seed } => Some(FieldEnvelope::OutdoorPv { seed }),
            SourceKind::Trace {
                id,
                decimate,
                looped,
            } => Some(FieldEnvelope::Trace {
                id,
                decimate,
                looped,
            }),
            SourceKind::FieldView { .. } => None,
        }
    }

    /// The equivalent standalone source kind (the envelope sampled at full
    /// strength, zero stagger).
    pub fn source_kind(self) -> SourceKind {
        match self {
            FieldEnvelope::RectifiedSine { hz } => SourceKind::RectifiedSine { hz },
            FieldEnvelope::Turbine => SourceKind::Turbine,
            FieldEnvelope::Interrupted { hz } => SourceKind::Interrupted { hz },
            FieldEnvelope::Dc { volts } => SourceKind::Dc { volts },
            FieldEnvelope::IndoorPv { seed } => SourceKind::IndoorPv { seed },
            FieldEnvelope::OutdoorPv { seed } => SourceKind::OutdoorPv { seed },
            FieldEnvelope::Trace {
                id,
                decimate,
                looped,
            } => SourceKind::Trace {
                id,
                decimate,
                looped,
            },
        }
    }

    /// Display name of the envelope class.
    pub fn name(self) -> &'static str {
        self.source_kind().name()
    }

    /// Checks the envelope's parameters (see [`SourceKind::validate`]).
    ///
    /// # Errors
    ///
    /// Returns the violated constraint.
    pub fn validate(self) -> Result<(), &'static str> {
        self.source_kind().validate()
    }

    /// Instantiates the bare envelope as an energy source, resolving
    /// trace-backed fields through `catalog` as [`SourceKind::make_in`]
    /// does.
    ///
    /// # Panics
    ///
    /// Panics when the parameters violate the constructor domain; validate
    /// via [`SourceKind::validate_in`] first to get the violation as a
    /// value.
    pub fn make_in(self, catalog: &TraceCatalog) -> Box<dyn EnergySource> {
        self.source_kind().make_in(catalog)
    }

    /// Instantiates the bare envelope without a catalog, so a
    /// [`FieldEnvelope::Trace`] builds a dead source; use
    /// [`FieldEnvelope::make_in`] for those.
    ///
    /// # Panics
    ///
    /// Panics when the parameters violate the constructor domain.
    pub fn make(self) -> Box<dyn EnergySource> {
        self.source_kind().make()
    }
}

/// The Fig. 7 supply: a half-wave rectified sine from a signal generator
/// (4 V peak behind 100 Ω). The frequency is a parameter because the figure
/// is defined by *cycles*, not absolute time.
pub fn fig7_supply(frequency: Hertz) -> SignalGenerator {
    SignalGenerator::new(Waveform::HalfRectifiedSine, Volts(4.0), frequency)
        .with_resistance(Ohms(100.0))
}

/// The Fig. 8 supply: a micro wind turbine's output during a gust,
/// half-wave rectified at the system input (the rectifier is applied by the
/// system builder). 5 V peak, 8 Hz electrical frequency.
pub fn fig8_turbine() -> WindTurbine {
    WindTurbine::new(Volts(5.0), Hertz(8.0), GustProfile::fig1a()).with_resistance(Ohms(150.0))
}

/// A square-wave interrupted supply with the given interruption frequency
/// and 50% availability — the stimulus of the Eq. (5) crossover sweep
/// (outages at a controlled rate).
pub fn interrupted_supply(interruptions: Hertz) -> SignalGenerator {
    SignalGenerator::new(Waveform::Pulse { duty: 0.5 }, Volts(3.4), interruptions)
        .with_resistance(Ohms(15.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_harvest::EnergySource;
    use edc_units::Seconds;

    #[test]
    fn all_strategies_instantiate() {
        for kind in StrategyKind::ALL {
            let s = kind.make();
            assert_eq!(s.name(), kind.name());
        }
    }

    #[test]
    fn all_sources_instantiate_and_deliver() {
        for kind in SourceKind::ALL {
            let mut s = kind.make();
            assert!(!s.name().is_empty(), "{kind:?}");
            // Every canonical source must push some current into a low rail
            // at some point of its first day. Probe on an irrational-ish
            // stride so periodic sources aren't sampled at zero crossings.
            let delivers = (0..100_000)
                .any(|i| s.current_into(Volts(0.5), Seconds(i as f64 * 0.8641)).0 > 0.0);
            assert!(delivers, "{kind:?} never delivers current");
        }
    }

    #[test]
    fn trace_kind_validates_resolves_and_serialises() {
        let mut catalog = TraceCatalog::new();
        let id = catalog
            .register("site", vec![(0.0, 1e-3), (0.5, 3e-3), (1.0, 2e-3)])
            .expect("valid trace");
        let kind = SourceKind::Trace {
            id,
            decimate: 2,
            looped: true,
        };
        assert_eq!(kind.name(), "trace");
        assert_eq!(kind.fidelity_discount(), 2.0);
        kind.validate().expect("kind-level checks pass");
        kind.validate_in(&catalog).expect("resolves");
        assert_eq!(
            kind.validate_in(&TraceCatalog::new()),
            Err("trace is not registered in the build catalog")
        );
        assert_eq!(
            SourceKind::Trace {
                id,
                decimate: 0,
                looped: false,
            }
            .validate(),
            Err("trace decimation must be ≥ 1")
        );
        let mut source = kind.make_in(&catalog);
        assert_eq!(source.name(), "site");
        assert!(source.sample(Seconds(0.5)).power_into(Volts(1.0)).0 > 0.0);
        // Unresolved, the same kind builds a dead source.
        let mut dead = kind.make_in(&TraceCatalog::new());
        assert_eq!(dead.sample(Seconds(0.5)), edc_harvest::SourceSample::OFF);
        let json = kind.to_json().to_string();
        assert!(json.contains("\"kind\":\"trace\""), "{json}");
        assert!(json.contains("\"name\":\"site\""), "{json}");
        assert!(
            json.contains(&format!("\"hash\":{}", id.content_hash())),
            "{json}"
        );
        assert!(json.contains("\"decimate\":2"), "{json}");
        assert!(json.contains("\"looped\":true"), "{json}");
        // The shorthand constructor is full fidelity, non-looping.
        assert_eq!(
            SourceKind::trace(id),
            SourceKind::Trace {
                id,
                decimate: 1,
                looped: false,
            }
        );
    }

    #[test]
    fn trace_envelope_views_resolve_through_the_catalog() {
        let mut catalog = TraceCatalog::new();
        let id = catalog
            .register("field", vec![(0.0, 4e-3), (1.0, 4e-3)])
            .expect("valid trace");
        let view = SourceKind::FieldView {
            field: FieldEnvelope::Trace {
                id,
                decimate: 1,
                looped: true,
            },
            attenuation: 0.5,
            phase_s: 0.25,
        };
        view.validate_in(&catalog).expect("resolves");
        assert!(view.validate_in(&TraceCatalog::new()).is_err());
        assert_eq!(view.fidelity_discount(), 1.0);
        let mut source = view.make_in(&catalog);
        // Half the field's regulated 4 mW.
        let p = source.sample(Seconds(0.0)).power_into(Volts(1.0));
        assert!((p.0 - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn fig7_supply_is_rectified() {
        let g = fig7_supply(Hertz(2.0));
        assert_eq!(g.voltage_at(Seconds(0.375)), Volts(0.0));
        assert!(g.voltage_at(Seconds(0.125)).0 > 3.9);
    }

    #[test]
    fn fig8_turbine_has_gust_window() {
        let mut t = fig8_turbine();
        assert_eq!(t.sample(Seconds(0.0)).current_into(Volts(0.5)).0, 0.0);
        let mid_gust: f64 = (0..100)
            .map(|i| t.output_voltage(Seconds(3.0 + i as f64 * 0.01)).0.abs())
            .fold(0.0, f64::max);
        assert!(mid_gust > 4.0);
    }

    #[test]
    fn interrupted_supply_has_outages() {
        let g = interrupted_supply(Hertz(10.0));
        assert!(g.voltage_at(Seconds(0.01)).0 > 3.0);
        assert_eq!(g.voltage_at(Seconds(0.06)), Volts(0.0));
    }
}
