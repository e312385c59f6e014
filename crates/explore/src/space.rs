//! The typed design space: axes over [`ExperimentSpec`].
//!
//! A [`SpecSpace`] is a base spec plus one value list per *axis* — the
//! spec fields the paper's co-design questions vary: source, workload and
//! strategy kinds, decoupling capacitance, simulation timestep, and board
//! leakage. Every combination of axis values is one candidate design,
//! addressed either by a [`Point`] (one index per axis) or by a flat index
//! in the deterministic enumeration order (source-major, then workload,
//! strategy, decoupling, timestep, leakage). It is the workspace's one
//! cartesian spec grid: [`SpecSpace::all_specs`] feeds the sweep engine
//! (`edc_bench::sweep::run_specs_timed_in`) directly.
//!
//! The space is *description*, not computation: searchers decide which of
//! its points to evaluate.

use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_units::{Farads, Ohms, Seconds};
use edc_workloads::WorkloadKind;

use crate::ExploreError;

/// Number of axes in a [`SpecSpace`].
pub const AXES: usize = 6;

/// Human-readable axis names, in axis order.
pub const AXIS_NAMES: [&str; AXES] = [
    "source",
    "workload",
    "strategy",
    "decoupling",
    "timestep",
    "leakage",
];

/// One candidate design's position: an index into each axis, in
/// [`AXIS_NAMES`] order.
pub type Point = [usize; AXES];

/// A cartesian design space over [`ExperimentSpec`] axes.
///
/// # Examples
///
/// ```
/// use edc_core::experiment::ExperimentSpec;
/// use edc_core::scenarios::{SourceKind, StrategyKind};
/// use edc_explore::SpecSpace;
/// use edc_units::Farads;
/// use edc_workloads::WorkloadKind;
///
/// let base = ExperimentSpec::new(
///     SourceKind::RectifiedSine { hz: 50.0 },
///     StrategyKind::Hibernus,
///     WorkloadKind::Crc16(64),
/// );
/// let space = SpecSpace::over(base)
///     .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
///     .decoupling(&[Farads::from_micro(4.7), Farads::from_micro(10.0)]);
/// assert_eq!(space.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SpecSpace {
    base: ExperimentSpec,
    sources: Vec<SourceKind>,
    workloads: Vec<WorkloadKind>,
    strategies: Vec<StrategyKind>,
    decoupling: Vec<Farads>,
    timesteps: Vec<Seconds>,
    leakages: Vec<Option<Ohms>>,
}

impl SpecSpace {
    /// A space whose axes all start as the base spec's own values — a
    /// single point until widened with the axis setters.
    pub fn over(base: ExperimentSpec) -> Self {
        Self {
            sources: vec![base.source],
            workloads: vec![base.workload],
            strategies: vec![base.strategy],
            decoupling: vec![base.decoupling],
            timesteps: vec![base.timestep],
            leakages: vec![base.leakage],
            base,
        }
    }

    /// Sets the source axis.
    pub fn sources(mut self, axis: &[SourceKind]) -> Self {
        self.sources = axis.to_vec();
        self
    }

    /// Sets the workload axis.
    pub fn workloads(mut self, axis: &[WorkloadKind]) -> Self {
        self.workloads = axis.to_vec();
        self
    }

    /// Sets the strategy axis.
    pub fn strategies(mut self, axis: &[StrategyKind]) -> Self {
        self.strategies = axis.to_vec();
        self
    }

    /// Sets the decoupling-capacitance axis.
    pub fn decoupling(mut self, axis: &[Farads]) -> Self {
        self.decoupling = axis.to_vec();
        self
    }

    /// Sets the simulation-timestep axis.
    pub fn timesteps(mut self, axis: &[Seconds]) -> Self {
        self.timesteps = axis.to_vec();
        self
    }

    /// Sets the board-leakage axis (`None` = no leakage path).
    pub fn leakages(mut self, axis: &[Option<Ohms>]) -> Self {
        self.leakages = axis.to_vec();
        self
    }

    /// The base spec the axes modify.
    pub fn base(&self) -> &ExperimentSpec {
        &self.base
    }

    /// Axis sizes, in [`AXIS_NAMES`] order.
    pub fn dims(&self) -> Point {
        [
            self.sources.len(),
            self.workloads.len(),
            self.strategies.len(),
            self.decoupling.len(),
            self.timesteps.len(),
            self.leakages.len(),
        ]
    }

    /// Total number of candidate designs (the product of axis sizes).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// The finest (smallest) timestep on the timestep axis — the space's
    /// full-fidelity evaluation cost reference.
    pub fn finest_timestep(&self) -> Seconds {
        Seconds(
            self.timesteps
                .iter()
                .map(|t| t.0)
                .fold(f64::INFINITY, f64::min),
        )
    }

    /// Checks that every axis is non-empty and every axis value passes the
    /// spec registry's own validation, so a search never trips a
    /// `BuildError` mid-run. Axis values are independent spec fields, so
    /// checking each value once (against the base) covers the whole
    /// cartesian product; the base's deadline and other fixed fields ride
    /// along in every probe.
    ///
    /// # Errors
    ///
    /// Returns the first empty axis or the first invalid axis value.
    pub fn validate(&self) -> Result<(), ExploreError> {
        self.validate_probes(None)
    }

    /// [`SpecSpace::validate`], plus resolution of every trace-backed
    /// source-axis value against `catalog` — so a search over registered
    /// recordings fails up front, as a value, when a handle belongs to a
    /// different catalog.
    ///
    /// # Errors
    ///
    /// Returns the first empty axis or the first invalid axis value.
    pub fn validate_in(&self, catalog: &TraceCatalog) -> Result<(), ExploreError> {
        self.validate_probes(Some(catalog))
    }

    fn validate_probes(&self, catalog: Option<&TraceCatalog>) -> Result<(), ExploreError> {
        let dims = self.dims();
        for (axis, &n) in dims.iter().enumerate() {
            if n == 0 {
                return Err(ExploreError::EmptyAxis(AXIS_NAMES[axis]));
            }
        }
        for i in 0..dims.iter().max().copied().unwrap_or(0) {
            let mut probe = [0usize; AXES];
            for (axis, p) in probe.iter_mut().enumerate() {
                *p = i.min(dims[axis] - 1);
            }
            let spec = self.spec(probe);
            match catalog {
                Some(catalog) => spec.validate_in(catalog)?,
                None => spec.validate()?,
            }
        }
        Ok(())
    }

    /// The spec at a [`Point`].
    ///
    /// # Panics
    ///
    /// Panics if any index is out of its axis's range.
    pub fn spec(&self, point: Point) -> ExperimentSpec {
        let mut spec = self
            .base
            .source(self.sources[point[0]])
            .workload(self.workloads[point[1]])
            .strategy(self.strategies[point[2]])
            .decoupling(self.decoupling[point[3]])
            .timestep(self.timesteps[point[4]]);
        spec.leakage = self.leakages[point[5]];
        spec
    }

    /// The spec at a flat enumeration index.
    ///
    /// # Panics
    ///
    /// Panics if `flat >= self.len()`.
    pub fn spec_at(&self, flat: usize) -> ExperimentSpec {
        self.spec(self.point_of(flat))
    }

    /// Converts a flat enumeration index into a [`Point`]
    /// (source-major order, leakage fastest).
    ///
    /// # Panics
    ///
    /// Panics if `flat >= self.len()`.
    pub fn point_of(&self, flat: usize) -> Point {
        assert!(flat < self.len(), "flat index out of range");
        let dims = self.dims();
        let mut rem = flat;
        let mut point = [0usize; AXES];
        for axis in (0..AXES).rev() {
            point[axis] = rem % dims[axis];
            rem /= dims[axis];
        }
        point
    }

    /// Converts a [`Point`] into its flat enumeration index.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of its axis's range.
    pub fn flat_of(&self, point: Point) -> usize {
        let dims = self.dims();
        let mut flat = 0usize;
        for axis in 0..AXES {
            assert!(point[axis] < dims[axis], "axis index out of range");
            flat = flat * dims[axis] + point[axis];
        }
        flat
    }

    /// Every candidate spec, in flat enumeration order.
    pub fn all_specs(&self) -> Vec<ExperimentSpec> {
        (0..self.len()).map(|i| self.spec_at(i)).collect()
    }

    /// The space's full axis values as a JSON value. Unlike
    /// [`SpecSpace::to_json`] — a lossy report header carrying only axis
    /// *sizes* — this codec is invertible by [`SpecSpace::from_json`], so
    /// a design space can travel over the wire (the `edc_serve` `search`
    /// op) or live in a config file.
    ///
    /// ```
    /// use edc_core::catalog::TraceCatalog;
    /// use edc_core::experiment::ExperimentSpec;
    /// use edc_core::scenarios::{SourceKind, StrategyKind};
    /// use edc_explore::SpecSpace;
    /// use edc_units::Farads;
    /// use edc_workloads::WorkloadKind;
    ///
    /// let base = ExperimentSpec::new(
    ///     SourceKind::Dc { volts: 3.3 },
    ///     StrategyKind::Restart,
    ///     WorkloadKind::Crc16(64),
    /// );
    /// let space = SpecSpace::over(base)
    ///     .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
    ///     .decoupling(&[Farads::from_micro(4.7), Farads::from_micro(10.0)]);
    /// let round = SpecSpace::from_json(&space.axes_json(), &TraceCatalog::new())?;
    /// assert_eq!(round.axes_json().to_string(), space.axes_json().to_string());
    /// assert_eq!(round.len(), 4);
    /// # Ok::<(), &'static str>(())
    /// ```
    pub fn axes_json(&self) -> edc_core::json::Json {
        use edc_core::json::Json;
        Json::obj(vec![
            ("base", self.base.to_json()),
            (
                "sources",
                Json::Arr(self.sources.iter().map(|s| s.to_json()).collect()),
            ),
            (
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(edc_core::experiment::workload_to_json)
                        .collect(),
                ),
            ),
            (
                "strategies",
                Json::Arr(
                    self.strategies
                        .iter()
                        .map(|s| Json::Str(s.name().into()))
                        .collect(),
                ),
            ),
            (
                "decoupling_f",
                Json::Arr(self.decoupling.iter().map(|f| Json::Num(f.0)).collect()),
            ),
            (
                "timestep_s",
                Json::Arr(self.timesteps.iter().map(|t| Json::Num(t.0)).collect()),
            ),
            (
                "leakage_ohm",
                Json::Arr(
                    self.leakages
                        .iter()
                        .map(|l| Json::option(*l, |r| Json::Num(r.0)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a space from [`SpecSpace::axes_json`] output, resolving
    /// trace-backed sources through `catalog`. A missing axis key leaves
    /// that axis at the base spec's own value, exactly like
    /// [`SpecSpace::over`] — so a request may name only the axes it
    /// varies. Parsing is shape-only: the result may still fail
    /// [`SpecSpace::validate_in`], which callers run separately.
    ///
    /// # Errors
    ///
    /// Returns the first shape mismatch, unknown kind name, or trace
    /// reference the catalog does not hold.
    pub fn from_json(
        json: &edc_core::json::Json,
        catalog: &TraceCatalog,
    ) -> Result<Self, &'static str> {
        use edc_core::json::Json;
        let num = |j: &Json| match j {
            Json::Num(n) => Some(*n),
            Json::Uint(u) => Some(*u as f64),
            _ => None,
        };
        let axis = |key: &'static str| match json.get(key) {
            None => Ok(None),
            Some(Json::Arr(items)) => Ok(Some(items)),
            Some(_) => Err("axis is not an array"),
        };
        let base =
            ExperimentSpec::from_json(json.get("base").ok_or("space missing 'base'")?, catalog)?;
        let mut space = SpecSpace::over(base);
        if let Some(items) = axis("sources")? {
            space.sources = items
                .iter()
                .map(|j| SourceKind::from_json(j, catalog))
                .collect::<Result<_, _>>()?;
        }
        if let Some(items) = axis("workloads")? {
            space.workloads = items
                .iter()
                .map(edc_core::experiment::workload_from_json)
                .collect::<Result<_, _>>()?;
        }
        if let Some(items) = axis("strategies")? {
            space.strategies = items
                .iter()
                .map(|j| match j {
                    Json::Str(name) => StrategyKind::from_name(name).ok_or("unknown strategy name"),
                    _ => Err("strategy axis value is not a string"),
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(items) = axis("decoupling_f")? {
            space.decoupling = items
                .iter()
                .map(|j| {
                    num(j)
                        .map(Farads)
                        .ok_or("decoupling axis value is not a number")
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(items) = axis("timestep_s")? {
            space.timesteps = items
                .iter()
                .map(|j| {
                    num(j)
                        .map(Seconds)
                        .ok_or("timestep axis value is not a number")
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(items) = axis("leakage_ohm")? {
            space.leakages = items
                .iter()
                .map(|j| match j {
                    Json::Null => Ok(None),
                    other => num(other)
                        .map(|r| Some(Ohms(r)))
                        .ok_or("leakage axis value is not a number or null"),
                })
                .collect::<Result<_, _>>()?;
        }
        Ok(space)
    }

    /// The space's axes as a JSON value (sizes plus the base spec), for
    /// [`ExploreReport`](crate::ExploreReport) headers.
    pub fn to_json(&self) -> edc_core::json::Json {
        use edc_core::json::Json;
        let dims = self.dims();
        Json::obj(vec![
            ("size", Json::Uint(self.len() as u64)),
            (
                "axes",
                Json::obj(
                    AXIS_NAMES
                        .iter()
                        .zip(dims)
                        .map(|(name, n)| (*name, Json::Uint(n as u64)))
                        .collect(),
                ),
            ),
            ("base", self.base.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ExperimentSpec {
        ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(100),
        )
    }

    #[test]
    fn single_point_space_is_the_base() {
        let space = SpecSpace::over(base());
        assert_eq!(space.len(), 1);
        assert_eq!(space.spec_at(0), base());
    }

    #[test]
    fn flat_and_point_round_trip() {
        let space = SpecSpace::over(base())
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .decoupling(&[
                Farads::from_micro(4.7),
                Farads::from_micro(10.0),
                Farads::from_micro(22.0),
            ])
            .leakages(&[None, Some(Ohms(100_000.0))]);
        assert_eq!(space.len(), 12);
        for flat in 0..space.len() {
            assert_eq!(space.flat_of(space.point_of(flat)), flat);
        }
        // Leakage is the fastest axis, strategies the slowest varied one.
        assert_eq!(space.spec_at(0).leakage, None);
        assert_eq!(space.spec_at(1).leakage, Some(Ohms(100_000.0)));
        assert_eq!(space.spec_at(0).strategy, StrategyKind::Restart);
        assert_eq!(space.spec_at(6).strategy, StrategyKind::Hibernus);
    }

    #[test]
    fn grid_order_is_source_major_then_workload_then_strategy() {
        let specs = SpecSpace::over(base())
            .sources(&[SourceKind::Dc { volts: 3.3 }, SourceKind::Dc { volts: 2.8 }])
            .workloads(&[WorkloadKind::BusyLoop(100), WorkloadKind::Crc16(32)])
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .all_specs();
        assert_eq!(specs.len(), 8);
        assert_eq!(specs[0].strategy, StrategyKind::Restart);
        assert_eq!(specs[1].strategy, StrategyKind::Hibernus);
        assert_eq!(specs[1].workload, WorkloadKind::BusyLoop(100));
        assert_eq!(specs[2].workload, WorkloadKind::Crc16(32));
        assert_eq!(specs[3].source, SourceKind::Dc { volts: 3.3 });
        assert_eq!(specs[4].source, SourceKind::Dc { volts: 2.8 });
    }

    #[test]
    fn enumeration_covers_every_combination_once() {
        let space = SpecSpace::over(base())
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .timesteps(&[Seconds(20e-6), Seconds(80e-6)]);
        let specs = space.all_specs();
        assert_eq!(specs.len(), 4);
        let mut keys: Vec<_> = specs.iter().map(ExperimentSpec::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 4, "all enumerated specs are distinct");
    }

    #[test]
    fn validation_rejects_empty_axes_and_bad_values() {
        let empty = SpecSpace::over(base()).strategies(&[]);
        assert!(matches!(
            empty.validate(),
            Err(ExploreError::EmptyAxis("strategy"))
        ));
        let bad = SpecSpace::over(base()).decoupling(&[Farads(-1.0)]);
        assert!(bad.validate().is_err());
        // No axis varies the deadline, so every probe carries the base's
        // and its `validate` rejects it up front.
        let dead = SpecSpace::over(base().deadline(Seconds(0.0)));
        assert!(matches!(
            dead.validate(),
            Err(ExploreError::Build(
                edc_core::experiment::BuildError::InvalidDeadline(_)
            ))
        ));
        assert!(SpecSpace::over(base()).validate().is_ok());
    }

    #[test]
    fn axes_json_round_trips_and_defaults_missing_axes() {
        let space = SpecSpace::over(base())
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .workloads(&[WorkloadKind::Crc16(32), WorkloadKind::Fourier(64)])
            .decoupling(&[Farads::from_micro(4.7), Farads::from_micro(10.0)])
            .timesteps(&[Seconds(20e-6), Seconds(80e-6)])
            .leakages(&[None, Some(Ohms(100_000.0))]);
        let catalog = TraceCatalog::new();
        let round = SpecSpace::from_json(&space.axes_json(), &catalog).expect("round trip");
        assert_eq!(round.axes_json().to_string(), space.axes_json().to_string());
        let specs: Vec<String> = space
            .all_specs()
            .iter()
            .map(|s| s.to_json().to_string())
            .collect();
        let round_specs: Vec<String> = round
            .all_specs()
            .iter()
            .map(|s| s.to_json().to_string())
            .collect();
        assert_eq!(specs, round_specs);

        // Missing axis keys fall back to the base's own value, like over().
        let sparse = edc_core::json::Json::obj(vec![("base", base().to_json())]);
        let single = SpecSpace::from_json(&sparse, &catalog).expect("base only");
        assert_eq!(single.len(), 1);
        assert_eq!(single.spec_at(0), base());

        assert!(SpecSpace::from_json(&edc_core::json::Json::Null, &catalog).is_err());
        let bad = edc_core::json::Json::obj(vec![
            ("base", base().to_json()),
            (
                "strategies",
                edc_core::json::Json::Arr(vec![edc_core::json::Json::Str("warp".into())]),
            ),
        ]);
        assert!(matches!(
            SpecSpace::from_json(&bad, &catalog),
            Err("unknown strategy name")
        ));
    }

    #[test]
    fn finest_timestep_is_the_minimum() {
        let space = SpecSpace::over(base()).timesteps(&[Seconds(80e-6), Seconds(20e-6)]);
        assert_eq!(space.finest_timestep(), Seconds(20e-6));
    }
}
