//! The trace catalog: recorded `P_h(t)` series as first-class registry
//! entries.
//!
//! The paper's experiments are ultimately about *real* harvested-power
//! waveforms, but a recorded series is not `Copy`, so it cannot live
//! inside an [`ExperimentSpec`](crate::experiment::ExperimentSpec)
//! directly. The catalog closes that gap:
//!
//! - a [`TraceCatalog`] holds recorded power series, registered **once**
//!   (name + samples, or name + sample period + values);
//! - registration yields a small `Copy` [`TraceId`] handle carrying the
//!   trace's interned name and a content hash, so
//!   [`SourceKind::Trace`](crate::scenarios::SourceKind::Trace) stays
//!   plain spec data and spec JSON identifies the trace losslessly
//!   (name + hash) without embedding the samples;
//! - build-time consumers (`Experiment`, the sweep engine, the explore
//!   evaluator, the fleet runner) resolve the id back to its samples
//!   through a shared catalog reference.
//!
//! Cloning a catalog is cheap (entries are shared via [`Arc`]), and a
//! clone can keep registering without affecting the original — so one
//! catalog value can be handed to sweeps, searchers and fleets alike.
//!
//! # Examples
//!
//! ```
//! use edc_core::catalog::TraceCatalog;
//! use edc_core::experiment::ExperimentSpec;
//! use edc_core::scenarios::{SourceKind, StrategyKind};
//! use edc_units::Seconds;
//! use edc_workloads::WorkloadKind;
//!
//! let mut catalog = TraceCatalog::new();
//! let site = catalog
//!     .register_uniform("site-a", Seconds(0.001), &[0.0, 2e-3, 3e-3, 1e-3])
//!     .expect("valid trace");
//! let report = ExperimentSpec::new(
//!     SourceKind::Trace { id: site, decimate: 1, looped: true },
//!     StrategyKind::Hibernus,
//!     WorkloadKind::Crc16(64),
//! )
//! .deadline(Seconds(5.0))
//! .run_in(&catalog)
//! .expect("trace spec assembles through the catalog");
//! assert_eq!(report.strategy, "hibernus");
//! ```

use std::fmt;
use std::sync::Arc;

use edc_harvest::TracePlayback;
use edc_units::{Seconds, Watts};

use crate::json::Json;

/// Why a trace could not be registered (or a catalog not deserialised).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Fewer than two samples.
    TooShort,
    /// Sample times not strictly increasing.
    NonMonotonic,
    /// A non-finite sample time or value.
    NonFinite,
    /// The name is already registered with *different* content (hashes
    /// disagree). Registering identical content under an existing name is
    /// not an error — it returns the existing id.
    NameTaken(&'static str),
    /// The catalog is full (more than `u32::MAX` traces).
    Full,
    /// A catalog JSON document did not have the expected shape.
    MalformedJson(&'static str),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::TooShort => f.write_str("a trace needs at least two samples"),
            TraceError::NonMonotonic => f.write_str("trace times must be strictly increasing"),
            TraceError::NonFinite => f.write_str("trace samples must be finite"),
            TraceError::NameTaken(name) => {
                write!(
                    f,
                    "trace '{name}' already registered with different samples"
                )
            }
            TraceError::Full => f.write_str("trace catalog is full"),
            TraceError::MalformedJson(why) => write!(f, "malformed catalog JSON: {why}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A registered trace's handle: plain `Copy` data small enough to live in
/// a [`SourceKind`](crate::scenarios::SourceKind), carrying everything a
/// spec needs to *name* the trace (the interned name and a content hash)
/// but not the samples themselves — those stay in the catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceId {
    index: u32,
    name: &'static str,
    hash: u64,
}

impl TraceId {
    /// The trace's registered name.
    pub fn name(self) -> &'static str {
        self.name
    }

    /// FNV-1a content hash over the name and every sample's bit pattern.
    /// Two traces with equal hashes and names are treated as the same
    /// recording.
    pub fn content_hash(self) -> u64 {
        self.hash
    }

    /// Position in the owning catalog's registration order.
    pub fn index(self) -> usize {
        self.index as usize
    }
}

/// One recorded series: the name, the `(t_s, watts)` samples, and the
/// content hash they were registered under.
#[derive(Debug)]
struct TraceEntry {
    name: &'static str,
    samples: Vec<(f64, f64)>,
    hash: u64,
}

/// The checks every registration path applies to a candidate series.
fn validate_samples(samples: &[(f64, f64)]) -> Result<(), TraceError> {
    if samples.len() < 2 {
        return Err(TraceError::TooShort);
    }
    // NaN times fail the ordering comparison and would be reported as
    // non-monotone by the window check, so test finiteness first.
    if samples
        .iter()
        .any(|&(t, w)| !(t.is_finite() && w.is_finite()))
    {
        return Err(TraceError::NonFinite);
    }
    if samples.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
        return Err(TraceError::NonMonotonic);
    }
    Ok(())
}

/// Process-wide name interning: the same name string is leaked at most
/// once, however many catalogs register it.
fn intern(name: String) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock, PoisonError};
    static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    // A panic elsewhere cannot leave the set half-updated: recover it.
    let mut set = INTERNED
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    match set.get(name.as_str()) {
        Some(&interned) => interned,
        None => {
            let leaked: &'static str = Box::leak(name.into_boxed_str());
            set.insert(leaked);
            leaked
        }
    }
}

/// FNV-1a over the name's bytes followed by every sample's bit patterns.
fn content_hash(name: &str, samples: &[(f64, f64)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(PRIME);
    };
    for b in name.bytes() {
        eat(b);
    }
    for &(t, w) in samples {
        for b in t.to_bits().to_le_bytes() {
            eat(b);
        }
        for b in w.to_bits().to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// The registry of recorded power traces.
///
/// See the [module docs](self) for the design; in short: register once,
/// carry the `Copy` [`TraceId`] through specs, resolve at build time.
#[derive(Debug, Clone, Default)]
pub struct TraceCatalog {
    entries: Vec<Arc<TraceEntry>>,
}

impl TraceCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered traces.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every registered trace's id, in registration order — ready to
    /// become a `SpecSpace` source axis via
    /// [`SourceKind::trace`](crate::scenarios::SourceKind::trace).
    pub fn ids(&self) -> Vec<TraceId> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| TraceId {
                index: i as u32,
                name: e.name,
                hash: e.hash,
            })
            .collect()
    }

    /// Registers a recorded `(t_s, watts)` power series and returns its
    /// handle. Registering the *same* name-and-content pair again (into
    /// this catalog or any clone) returns the existing id without copying
    /// anything — the catalog is a set, not a log, and identity is the
    /// name + content hash, exactly what spec JSON pins.
    ///
    /// # Errors
    ///
    /// [`TraceError`] for series shorter than two samples, non-monotone or
    /// non-finite samples, or a name already bound to different content.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        samples: Vec<(f64, f64)>,
    ) -> Result<TraceId, TraceError> {
        let name = name.into();
        validate_samples(&samples)?;
        let hash = content_hash(&name, &samples);
        match self.slot_for(&name, hash)? {
            Ok(id) => Ok(id),
            Err(index) => Ok(self.insert(index, name, samples, hash)),
        }
    }

    /// Borrowing form of [`TraceCatalog::register`]: the samples are only
    /// copied when the trace is genuinely new to this catalog, so callers
    /// that re-register per run (e.g. the fleet runner expanding a
    /// `FieldSpec::PowerTrace` field) pay a hash, not an allocation, after
    /// the first time.
    ///
    /// # Errors
    ///
    /// Exactly [`TraceCatalog::register`]'s.
    pub fn register_ref(
        &mut self,
        name: &str,
        samples: &[(f64, f64)],
    ) -> Result<TraceId, TraceError> {
        validate_samples(samples)?;
        let hash = content_hash(name, samples);
        match self.slot_for(name, hash)? {
            Ok(id) => Ok(id),
            Err(index) => Ok(self.insert(index, name.to_string(), samples.to_vec(), hash)),
        }
    }

    /// The existing id for `name` + `hash` (`Ok`), or the insertion index
    /// for a new entry (`Err`).
    #[allow(clippy::result_large_err)] // Result-as-either, both sides small
    fn slot_for(&self, name: &str, hash: u64) -> Result<Result<TraceId, u32>, TraceError> {
        if let Some((index, entry)) = self
            .entries
            .iter()
            .enumerate()
            .find(|(_, e)| e.name == name)
        {
            if entry.hash == hash {
                edc_metrics::global()
                    .counter(
                        "edc_catalog_reverifications",
                        "Idempotent re-registrations whose content hash verified \
                         against the existing entry.",
                        &[],
                    )
                    .inc();
                return Ok(Ok(TraceId {
                    index: index as u32,
                    name: entry.name,
                    hash,
                }));
            }
            return Err(TraceError::NameTaken(entry.name));
        }
        u32::try_from(self.entries.len())
            .map(Err)
            .map_err(|_| TraceError::Full)
    }

    fn insert(&mut self, index: u32, name: String, samples: Vec<(f64, f64)>, hash: u64) -> TraceId {
        // Interned process-wide so TraceId (and thus SourceKind) can stay
        // Copy: registering the same name again — in this catalog, a
        // clone, or a fresh one — reuses the first allocation, so leaked
        // names are bounded by the number of *distinct* trace names the
        // process ever registers.
        let name = intern(name);
        self.entries.push(Arc::new(TraceEntry {
            name,
            samples,
            hash,
        }));
        edc_metrics::global()
            .counter(
                "edc_catalog_registrations",
                "Traces registered into catalogs (distinct per catalog).",
                &[],
            )
            .inc();
        TraceId { index, name, hash }
    }

    /// Registers a uniformly sampled power series: sample `i` is taken at
    /// `i × period` seconds.
    ///
    /// # Errors
    ///
    /// Everything [`TraceCatalog::register`] rejects, plus a non-positive
    /// or non-finite period (reported as [`TraceError::NonMonotonic`],
    /// since it cannot produce increasing times).
    pub fn register_uniform(
        &mut self,
        name: impl Into<String>,
        period: Seconds,
        watts: &[f64],
    ) -> Result<TraceId, TraceError> {
        if !(period.0 > 0.0 && period.0.is_finite()) {
            return Err(TraceError::NonMonotonic);
        }
        let samples = watts
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as f64 * period.0, w))
            .collect();
        self.register(name, samples)
    }

    /// Looks a handle up, verifying that it really names this catalog's
    /// entry (index in range, name and content hash matching). `None`
    /// means the id belongs to a different (or newer) catalog.
    fn entry(&self, id: TraceId) -> Option<&TraceEntry> {
        self.entries
            .get(id.index())
            .map(Arc::as_ref)
            .filter(|e| e.name == id.name && e.hash == id.hash)
    }

    /// `true` when `id` resolves in this catalog.
    pub fn contains(&self, id: TraceId) -> bool {
        self.entry(id).is_some()
    }

    /// The raw `(t_s, watts)` samples behind a handle.
    pub fn samples(&self, id: TraceId) -> Option<&[(f64, f64)]> {
        self.entry(id).map(|e| e.samples.as_slice())
    }

    /// Instantiates a playback source for a registered trace, decimated by
    /// keeping every `decimate`-th sample (the fidelity knob the explore
    /// evaluator discounts), optionally looping.
    ///
    /// # Errors
    ///
    /// Returns the reason as a string when `id` does not resolve here or
    /// `decimate` is zero.
    pub fn playback(
        &self,
        id: TraceId,
        decimate: u64,
        looped: bool,
    ) -> Result<TracePlayback, &'static str> {
        if decimate == 0 {
            return Err("trace decimation must be ≥ 1");
        }
        let entry = self
            .entry(id)
            .ok_or("trace is not registered in the build catalog")?;
        let series: Vec<(Seconds, Watts)> = entry
            .samples
            .iter()
            .map(|&(t, w)| (Seconds(t), Watts(w)))
            .collect();
        let mut trace = TracePlayback::from_power_series(entry.name, series).decimated(decimate);
        if looped {
            trace = trace.looping();
        }
        Ok(trace)
    }

    /// The catalog as a JSON value: every entry's name, content hash and
    /// full sample series, in registration order. Together with spec JSON
    /// (which names traces by name + hash) this makes trace-backed specs
    /// lossless: [`TraceCatalog::from_json`] rebuilds an equivalent
    /// catalog.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.entries
                .iter()
                .map(|e| {
                    Json::obj(vec![
                        ("name", Json::Str(e.name.to_string())),
                        ("hash", Json::Uint(e.hash)),
                        (
                            "samples",
                            Json::Arr(
                                e.samples
                                    .iter()
                                    .map(|&(t, w)| Json::Arr(vec![Json::Num(t), Json::Num(w)]))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }

    /// Rebuilds a catalog from [`TraceCatalog::to_json`] output,
    /// re-verifying every entry's content hash.
    ///
    /// # Errors
    ///
    /// [`TraceError::MalformedJson`] for shape mismatches or a stored hash
    /// that disagrees with the recomputed one, plus everything
    /// [`TraceCatalog::register`] rejects.
    pub fn from_json(json: &Json) -> Result<Self, TraceError> {
        let Json::Arr(items) = json else {
            return Err(TraceError::MalformedJson("expected an array of entries"));
        };
        let mut catalog = TraceCatalog::new();
        for item in items {
            let Some(Json::Str(name)) = item.get("name") else {
                return Err(TraceError::MalformedJson("entry missing 'name'"));
            };
            let Some(Json::Uint(hash)) = item.get("hash") else {
                return Err(TraceError::MalformedJson("entry missing 'hash'"));
            };
            let Some(Json::Arr(pairs)) = item.get("samples") else {
                return Err(TraceError::MalformedJson("entry missing 'samples'"));
            };
            let mut samples = Vec::with_capacity(pairs.len());
            for pair in pairs {
                let Json::Arr(tw) = pair else {
                    return Err(TraceError::MalformedJson("sample is not a [t, w] pair"));
                };
                let (Some(t), Some(w)) = (tw.first().and_then(num), tw.get(1).and_then(num)) else {
                    return Err(TraceError::MalformedJson("sample is not a [t, w] pair"));
                };
                samples.push((t, w));
            }
            let id = catalog.register(name.clone(), samples)?;
            if id.content_hash() != *hash {
                return Err(TraceError::MalformedJson("content hash mismatch"));
            }
        }
        Ok(catalog)
    }

    /// Walks a JSON document and merges into this catalog every section
    /// shaped like [`TraceCatalog::to_json`] output (a non-empty array
    /// whose every element carries `name`, `hash` and `samples`), at any
    /// depth. Re-registering the same name and content is idempotent, so
    /// sections from several documents can be merged into one catalog.
    ///
    /// A malformed section, or an entry whose name is already bound to
    /// different content, does not stop the walk: each comes back as one
    /// message, in document order, for the caller to report.
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_core::catalog::TraceCatalog;
    /// use edc_core::json::Json;
    ///
    /// let mut recorded = TraceCatalog::new();
    /// recorded.register("site", vec![(0.0, 1e-3), (1.0, 2e-3)])?;
    /// let doc = Json::obj(vec![("traces", recorded.to_json())]);
    /// let mut catalog = TraceCatalog::new();
    /// assert!(catalog.merge_sections(&doc).is_empty());
    /// assert_eq!(catalog.len(), 1);
    /// # Ok::<(), edc_core::catalog::TraceError>(())
    /// ```
    pub fn merge_sections(&mut self, doc: &Json) -> Vec<String> {
        let mut problems = Vec::new();
        self.merge_sections_into(doc, &mut problems);
        problems
    }

    fn merge_sections_into(&mut self, json: &Json, problems: &mut Vec<String>) {
        if is_catalog_array(json) {
            match TraceCatalog::from_json(json) {
                Ok(found) => {
                    for entry in &found.entries {
                        if let Err(e) = self.register_ref(entry.name, &entry.samples) {
                            problems.push(format!("catalog entry '{}': {e}", entry.name));
                        }
                    }
                }
                Err(e) => problems.push(format!("malformed trace catalog: {e}")),
            }
            return;
        }
        match json {
            Json::Arr(items) => items
                .iter()
                .for_each(|i| self.merge_sections_into(i, problems)),
            Json::Obj(pairs) => pairs
                .iter()
                .for_each(|(_, v)| self.merge_sections_into(v, problems)),
            _ => {}
        }
    }
}

/// True for an array that looks like [`TraceCatalog::to_json`] output.
fn is_catalog_array(json: &Json) -> bool {
    match json {
        Json::Arr(items) => {
            !items.is_empty()
                && items.iter().all(|i| {
                    i.get("name").is_some() && i.get("hash").is_some() && i.get("samples").is_some()
                })
        }
        _ => false,
    }
}

/// JSON numbers arrive as `Uint` or `Num` depending on their spelling.
fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Num(x) => Some(*x),
        Json::Uint(n) => Some(*n as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_harvest::EnergySource as _;

    fn samples() -> Vec<(f64, f64)> {
        vec![(0.0, 0.0), (0.5, 2e-3), (1.0, 1e-3)]
    }

    #[test]
    fn merge_sections_finds_nested_catalogs_and_reports_bad_ones() {
        let mut recorded = TraceCatalog::new();
        recorded.register("site", samples()).expect("valid");
        let mut conflicting = TraceCatalog::new();
        conflicting
            .register("site", vec![(0.0, 1.0), (1.0, 1.0)])
            .expect("valid");
        let malformed = Json::Arr(vec![Json::obj(vec![
            ("name", Json::Str("bad".into())),
            ("hash", Json::Uint(1)),
            ("samples", Json::Arr(vec![])),
        ])]);
        let doc = Json::obj(vec![
            (
                "run",
                Json::obj(vec![("deep", Json::Arr(vec![recorded.to_json()]))]),
            ),
            ("broken", malformed),
            ("other", conflicting.to_json()),
        ]);
        let mut catalog = TraceCatalog::new();
        let problems = catalog.merge_sections(&doc);
        assert_eq!(catalog.ids(), recorded.ids(), "the nested section merged");
        assert_eq!(
            problems,
            vec![
                "malformed trace catalog: a trace needs at least two samples".to_string(),
                "catalog entry 'site': trace 'site' already registered with different samples"
                    .to_string(),
            ]
        );
        // Merging the same document again is idempotent apart from the
        // same two problems.
        assert_eq!(catalog.merge_sections(&doc), problems);
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn register_yields_a_resolvable_handle() {
        let mut catalog = TraceCatalog::new();
        let id = catalog.register("site", samples()).expect("valid");
        assert_eq!(id.name(), "site");
        assert!(catalog.contains(id));
        assert_eq!(catalog.samples(id), Some(samples().as_slice()));
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.ids(), vec![id]);
    }

    #[test]
    fn reregistering_identical_content_is_idempotent() {
        let mut catalog = TraceCatalog::new();
        let a = catalog.register("site", samples()).expect("valid");
        let b = catalog.register("site", samples()).expect("idempotent");
        assert_eq!(a, b);
        assert_eq!(catalog.len(), 1);
        let err = catalog
            .register("site", vec![(0.0, 1.0), (1.0, 2.0)])
            .expect_err("same name, different content");
        assert_eq!(err, TraceError::NameTaken("site"));
    }

    #[test]
    fn bad_series_are_rejected_as_values() {
        let mut catalog = TraceCatalog::new();
        assert_eq!(
            catalog.register("short", vec![(0.0, 1.0)]),
            Err(TraceError::TooShort)
        );
        assert_eq!(
            catalog.register("mono", vec![(1.0, 1.0), (0.5, 2.0)]),
            Err(TraceError::NonMonotonic)
        );
        assert_eq!(
            catalog.register("nan", vec![(0.0, f64::NAN), (1.0, 2.0)]),
            Err(TraceError::NonFinite)
        );
        assert_eq!(
            catalog.register_uniform("flat", Seconds(0.0), &[1.0, 2.0]),
            Err(TraceError::NonMonotonic)
        );
        assert!(catalog.is_empty());
    }

    #[test]
    fn uniform_registration_spaces_samples_by_the_period() {
        let mut catalog = TraceCatalog::new();
        let id = catalog
            .register_uniform("u", Seconds(0.25), &[1.0, 2.0, 3.0])
            .expect("valid");
        assert_eq!(
            catalog.samples(id),
            Some([(0.0, 1.0), (0.25, 2.0), (0.5, 3.0)].as_slice())
        );
    }

    #[test]
    fn names_are_interned_once_across_catalogs() {
        // Fleet runners re-register their field's trace into a fresh
        // catalog clone on every run; the process-wide intern table keeps
        // that from leaking a new name allocation each time.
        let mut a = TraceCatalog::new();
        let mut b = TraceCatalog::new();
        let ia = a.register("shared-name", samples()).expect("valid");
        let ib = b.register_ref("shared-name", &samples()).expect("valid");
        assert_eq!(ia, ib);
        assert!(
            std::ptr::eq(ia.name(), ib.name()),
            "one allocation per distinct name, however many catalogs"
        );
    }

    #[test]
    fn register_ref_is_idempotent_without_copying() {
        let mut catalog = TraceCatalog::new();
        let first = catalog.register_ref("site", &samples()).expect("valid");
        let again = catalog
            .register_ref("site", &samples())
            .expect("idempotent");
        assert_eq!(first, again);
        assert_eq!(catalog.len(), 1);
        assert_eq!(
            catalog.register_ref("site", &[(0.0, 9.0), (1.0, 9.0)]),
            Err(TraceError::NameTaken("site"))
        );
    }

    #[test]
    fn foreign_ids_do_not_resolve() {
        let mut a = TraceCatalog::new();
        let mut b = TraceCatalog::new();
        let id_a = a.register("site", samples()).expect("valid");
        let _ = b.register("other", vec![(0.0, 1.0), (1.0, 2.0)]).unwrap();
        assert!(!b.contains(id_a), "hash/name verification rejects");
        assert!(a.playback(id_a, 1, false).is_ok());
        assert!(b.playback(id_a, 1, false).is_err());
        assert!(a.playback(id_a, 0, false).is_err(), "zero decimation");
    }

    #[test]
    fn playback_matches_a_hand_built_trace() {
        let mut catalog = TraceCatalog::new();
        let id = catalog.register("site", samples()).expect("valid");
        let mut from_catalog = catalog.playback(id, 1, true).expect("resolves");
        let mut by_hand = TracePlayback::from_power_series(
            "site",
            samples()
                .into_iter()
                .map(|(t, w)| (Seconds(t), Watts(w)))
                .collect(),
        )
        .looping();
        for i in 0..40 {
            let t = Seconds(i as f64 * 0.173);
            assert_eq!(
                from_catalog.sample(t),
                by_hand.sample(t),
                "diverged at t = {t:?}"
            );
        }
    }

    #[test]
    fn json_round_trip_preserves_ids_and_samples() {
        let mut catalog = TraceCatalog::new();
        let a = catalog.register("site-a", samples()).expect("valid");
        let b = catalog
            .register("site-b", vec![(0.0, 5e-3), (2.0, 0.0)])
            .expect("valid");
        let text = catalog.to_json().to_string();
        let parsed = Json::parse(&text).expect("valid JSON");
        let rebuilt = TraceCatalog::from_json(&parsed).expect("round-trips");
        assert_eq!(rebuilt.len(), 2);
        assert!(rebuilt.contains(a) && rebuilt.contains(b));
        assert_eq!(rebuilt.samples(a), catalog.samples(a));
        assert_eq!(rebuilt.to_json().to_string(), text, "byte-identical");
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(TraceCatalog::from_json(&Json::Null).is_err());
        let missing = Json::parse(r#"[{"name":"x"}]"#).unwrap();
        assert!(TraceCatalog::from_json(&missing).is_err());
        let bad_hash = Json::parse(r#"[{"name":"x","hash":1,"samples":[[0,1],[1,2]]}]"#).unwrap();
        assert_eq!(
            TraceCatalog::from_json(&bad_hash).err(),
            Some(TraceError::MalformedJson("content hash mismatch"))
        );
    }

    #[test]
    fn clones_share_entries_but_register_independently() {
        let mut a = TraceCatalog::new();
        let id = a.register("site", samples()).expect("valid");
        let mut b = a.clone();
        let extra = b.register("extra", vec![(0.0, 1.0), (1.0, 0.0)]).unwrap();
        assert!(b.contains(id) && b.contains(extra));
        assert_eq!(a.len(), 1, "original unaffected");
        // Shared entries answer identically through either clone.
        let va = a
            .playback(id, 1, false)
            .unwrap()
            .try_power_at(Seconds(0.25));
        let vb = b
            .playback(id, 1, false)
            .unwrap()
            .try_power_at(Seconds(0.25));
        assert_eq!(va, vb);
    }
}
