//! Deterministic process metrics with OpenMetrics text exposition.
//!
//! The registry here is the aggregate-observability counterpart to the
//! per-run timelines and profile spans in `edc-obs`: typed
//! [`Counter`]/[`Gauge`]/[`Histogram`] handles with label sets, cheap
//! atomic increments, and mergeable per-thread histogram shards, rendered
//! as OpenMetrics/Prometheus text by [`Registry::render_text`].
//!
//! The determinism contract mirrors the rest of the workspace: exposition
//! is a **pure function of the recorded multiset** — families sort by
//! name, children by label set, histogram shards merge in exact integer
//! arithmetic (fixed-point sums, like `edc-telemetry`'s `FixedSum`) — so
//! serial and parallel runs of the same work render byte-identically.
//! Wall-clock readings are quarantined exactly like `SweepRun.timing`:
//! gauges registered via [`Registry::wall_gauge`] are excluded from
//! [`Registry::render_text`] and only appear in
//! [`Registry::render_text_full`].
//!
//! # Examples
//!
//! ```
//! use edc_metrics::Registry;
//!
//! let registry = Registry::new();
//! let cells = registry.counter("edc_sweep_cells", "Grid cells simulated.", &[]);
//! cells.inc_by(12);
//! let text = registry.render_text();
//! assert!(text.contains("edc_sweep_cells_total 12"));
//! assert!(text.ends_with("# EOF\n"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Fixed-point scale for histogram sums: 2⁶⁰ keeps ~18 decimal digits
/// below the unit while an `i128` total still spans ±10²⁰ units. Matches
/// `edc-telemetry`'s `FixedSum`, for the same reason: integer addition is
/// exactly associative and commutative, so any shard merge order yields
/// the identical total.
const FIXED_SCALE: f64 = (1u128 << 60) as f64;

/// Number of histogram shards. Observations hash their thread onto a
/// shard, so concurrent workers rarely contend on one mutex; exposition
/// merges all shards in index order with integer arithmetic, which makes
/// the rendered text independent of how work was threaded.
const SHARDS: usize = 16;

/// A monotonically increasing counter handle.
///
/// Cloning is cheap (an [`Arc`] bump) and every clone addresses the same
/// underlying cell, so handles can be stashed per-worker.
///
/// # Examples
///
/// ```
/// let registry = edc_metrics::Registry::new();
/// let boots = registry.counter("edc_runner_boots", "Cold boots.", &[("strategy", "hibernus")]);
/// boots.inc();
/// boots.inc_by(2);
/// assert_eq!(boots.get(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    ///
    /// # Examples
    ///
    /// ```
    /// let c = edc_metrics::Registry::new().counter("edc_ticks", "Ticks.", &[]);
    /// c.inc();
    /// assert_eq!(c.get(), 1);
    /// ```
    pub fn inc(&self) {
        self.inc_by(1);
    }

    /// Adds `n`.
    ///
    /// # Examples
    ///
    /// ```
    /// let c = edc_metrics::Registry::new().counter("edc_ticks", "Ticks.", &[]);
    /// c.inc_by(40);
    /// assert_eq!(c.get(), 40);
    /// ```
    pub fn inc_by(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    ///
    /// # Examples
    ///
    /// ```
    /// let c = edc_metrics::Registry::new().counter("edc_ticks", "Ticks.", &[]);
    /// assert_eq!(c.get(), 0);
    /// ```
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle holding one `f64`.
///
/// Gauges are for point-in-time readings (configured thread counts,
/// quarantined wall-clock totals); concurrent `set` calls race by design
/// and the last writer wins, so deterministic exposition requires either
/// single-writer use or value-independent writes.
///
/// # Examples
///
/// ```
/// let registry = edc_metrics::Registry::new();
/// let threads = registry.gauge("edc_sweep_threads", "Configured worker threads.", &[]);
/// threads.set(8.0);
/// assert_eq!(threads.get(), 8.0);
/// ```
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Stores `v`, replacing any previous value.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = edc_metrics::Registry::new().gauge("edc_threads", "Threads.", &[]);
    /// g.set(4.0);
    /// g.set(2.0);
    /// assert_eq!(g.get(), 2.0);
    /// ```
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `v` to the stored value (not atomic across racing writers;
    /// meant for single-writer accumulation such as wall-clock totals).
    ///
    /// # Examples
    ///
    /// ```
    /// let g = edc_metrics::Registry::new().gauge("edc_wall", "Wall seconds.", &[]);
    /// g.add(0.25);
    /// g.add(0.5);
    /// assert_eq!(g.get(), 0.75);
    /// ```
    pub fn add(&self, v: f64) {
        self.set(self.get() + v);
    }

    /// The current value.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = edc_metrics::Registry::new().gauge("edc_threads", "Threads.", &[]);
    /// assert_eq!(g.get(), 0.0);
    /// ```
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// One histogram shard: per-bucket counts plus an exact fixed-point sum.
#[derive(Debug, Default)]
struct Shard {
    /// Per-bucket (non-cumulative) counts; `bounds.len() + 1` entries,
    /// the last being the implicit `+Inf` bucket. Lazily sized on first
    /// observation so an untouched shard costs nothing.
    counts: Vec<u64>,
    count: u64,
    sum: i128,
}

/// The shared state behind [`Histogram`] handles.
#[derive(Debug)]
struct HistogramCell {
    bounds: Vec<f64>,
    shards: Vec<Mutex<Shard>>,
}

/// An order-invariant merged view of every shard of one histogram.
#[derive(Debug, Clone, PartialEq)]
struct HistogramSnapshot {
    /// Non-cumulative per-bucket counts (`bounds.len() + 1` entries).
    counts: Vec<u64>,
    count: u64,
    sum: i128,
}

/// A sharded histogram handle with explicit bucket upper bounds.
///
/// Observations land in the bucket of the first upper bound `le` with
/// `x ≤ le` (an implicit `+Inf` bucket catches the rest), on a per-thread
/// shard chosen by hashing the current thread. Counts and the fixed-point
/// sum merge with exact integer arithmetic at exposition time, so the
/// rendered text is byte-identical however the observations were
/// interleaved across threads.
///
/// # Examples
///
/// ```
/// let registry = edc_metrics::Registry::new();
/// let sizes = registry.histogram("edc_batch_cells", "Cells per batch.", &[], &[1.0, 8.0, 64.0]);
/// sizes.observe(3.0);
/// sizes.observe(500.0);
/// assert_eq!(sizes.count(), 2);
/// let text = registry.render_text();
/// assert!(text.contains(r#"edc_batch_cells_bucket{le="8"} 1"#));
/// assert!(text.contains(r#"edc_batch_cells_bucket{le="+Inf"} 2"#));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Records one observation. Non-finite values are ignored (they cannot
    /// be bucketed deterministically and indicate an upstream bug).
    ///
    /// # Examples
    ///
    /// ```
    /// let h = edc_metrics::Registry::new().histogram("edc_cost", "Cost.", &[], &[1.0]);
    /// h.observe(f64::NAN);
    /// h.observe(0.5);
    /// assert_eq!(h.count(), 1);
    /// ```
    pub fn observe(&self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let idx = self.cell.bounds.partition_point(|&b| b < x);
        let mut hasher = DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        let shard = &self.cell.shards[(hasher.finish() as usize) % SHARDS];
        let mut shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if shard.counts.is_empty() {
            shard.counts = vec![0; self.cell.bounds.len() + 1];
        }
        shard.counts[idx] += 1;
        shard.count += 1;
        shard.sum += (x * FIXED_SCALE) as i128;
    }

    /// Total number of recorded observations across all shards.
    ///
    /// # Examples
    ///
    /// ```
    /// let h = edc_metrics::Registry::new().histogram("edc_cost", "Cost.", &[], &[1.0]);
    /// h.observe(2.0);
    /// assert_eq!(h.count(), 1);
    /// ```
    pub fn count(&self) -> u64 {
        self.snapshot().count
    }

    /// Sum of observations, accumulated in order-invariant fixed-point
    /// arithmetic (quantised at 2⁻⁶⁰).
    ///
    /// # Examples
    ///
    /// ```
    /// let h = edc_metrics::Registry::new().histogram("edc_cost", "Cost.", &[], &[1.0]);
    /// h.observe(0.25);
    /// h.observe(0.5);
    /// assert_eq!(h.sum(), 0.75);
    /// ```
    pub fn sum(&self) -> f64 {
        self.snapshot().sum as f64 / FIXED_SCALE
    }

    /// Merges every shard (index order, integer adds) into one snapshot.
    fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; self.cell.bounds.len() + 1];
        let mut count = 0u64;
        let mut sum = 0i128;
        for shard in &self.cell.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (a, b) in counts.iter_mut().zip(&shard.counts) {
                *a += b;
            }
            count += shard.count;
            sum += shard.sum;
        }
        HistogramSnapshot { counts, count, sum }
    }
}

/// The metric kinds a family can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn exposition_name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One child metric (a concrete label set) of a family.
#[derive(Debug, Clone)]
enum Child {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One metric family: a name, help text, kind, and children keyed by
/// their sorted label pairs, kept in key order (so exposition order is
/// deterministic) and found by binary search on borrowed labels.
#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    quarantined: bool,
    children: Vec<(Vec<(String, String)>, Child)>,
}

/// A cloneable handle to one metrics registry.
///
/// Clones share state, so a registry can be threaded through builders the
/// same way `TraceCatalog` is: every layer records into the same cells.
/// The process-global instance is [`global`]; local instances isolate
/// tests and determinism checks.
///
/// # Examples
///
/// ```
/// use edc_metrics::Registry;
///
/// let registry = Registry::new();
/// registry.counter("edc_runs", "Runs.", &[("kind", "sweep")]).inc();
/// registry.counter("edc_runs", "Runs.", &[("kind", "fleet")]).inc_by(2);
/// let text = registry.render_text();
/// assert!(text.contains(r#"edc_runs_total{kind="fleet"} 2"#));
/// assert!(text.contains(r#"edc_runs_total{kind="sweep"} 1"#));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry.
    ///
    /// # Examples
    ///
    /// ```
    /// let registry = edc_metrics::Registry::new();
    /// assert_eq!(registry.render_text(), "# EOF\n");
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-fetches) a counter. Registration is idempotent:
    /// the same `name` + label set always returns a handle to the same
    /// cell, and the first registration's help text wins.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    ///
    /// # Examples
    ///
    /// ```
    /// let registry = edc_metrics::Registry::new();
    /// let a = registry.counter("edc_hits", "Cache hits.", &[("phase", "rung0")]);
    /// let b = registry.counter("edc_hits", "Cache hits.", &[("phase", "rung0")]);
    /// a.inc();
    /// assert_eq!(b.get(), 1, "same cell behind both handles");
    /// ```
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let child = self.child(name, help, labels, Kind::Counter, false, &[]);
        match child {
            Child::Counter(c) => c,
            _ => unreachable!("kind checked in child()"),
        }
    }

    /// Registers (or re-fetches) a gauge. Same idempotence rules as
    /// [`Registry::counter`].
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind, or as a
    /// quarantined (wall-clock) gauge.
    ///
    /// # Examples
    ///
    /// ```
    /// let registry = edc_metrics::Registry::new();
    /// registry.gauge("edc_threads", "Worker threads.", &[]).set(4.0);
    /// assert!(registry.render_text().contains("edc_threads 4"));
    /// ```
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.child(name, help, labels, Kind::Gauge, false, &[]) {
            Child::Gauge(g) => g,
            _ => unreachable!("kind checked in child()"),
        }
    }

    /// Registers (or re-fetches) a **quarantined** wall-clock gauge:
    /// excluded from [`Registry::render_text`], visible only in
    /// [`Registry::render_text_full`] — the same quarantine
    /// `SweepRun.timing` applies to wall-clock readings in artifacts.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind, or as a
    /// non-quarantined gauge.
    ///
    /// # Examples
    ///
    /// ```
    /// let registry = edc_metrics::Registry::new();
    /// registry.wall_gauge("edc_sweep_wall_seconds", "Wall clock.", &[]).set(1.5);
    /// assert!(!registry.render_text().contains("edc_sweep_wall_seconds"));
    /// assert!(registry.render_text_full().contains("edc_sweep_wall_seconds 1.5"));
    /// ```
    pub fn wall_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.child(name, help, labels, Kind::Gauge, true, &[]) {
            Child::Gauge(g) => g,
            _ => unreachable!("kind checked in child()"),
        }
    }

    /// Registers (or re-fetches) a histogram with the given finite,
    /// strictly increasing bucket upper bounds (an implicit `+Inf` bucket
    /// is always appended). Same idempotence rules as
    /// [`Registry::counter`].
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind or with
    /// different bounds, or if `bounds` is empty, unsorted, or non-finite.
    ///
    /// # Examples
    ///
    /// ```
    /// let registry = edc_metrics::Registry::new();
    /// let h = registry.histogram("edc_nodes", "Nodes per fleet.", &[], &[1.0, 4.0, 16.0]);
    /// h.observe(3.0);
    /// assert!(registry.render_text().contains(r#"edc_nodes_bucket{le="4"} 1"#));
    /// ```
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        assert!(!bounds.is_empty(), "histogram {name}: empty bounds");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram {name}: bounds must be finite and strictly increasing"
        );
        match self.child(name, help, labels, Kind::Histogram, false, bounds) {
            Child::Histogram(h) => h,
            _ => unreachable!("kind checked in child()"),
        }
    }

    /// Looks up or creates the child cell for `name` + `labels`. An
    /// existing family and child are found by `&str`: only registering
    /// one allocates (and labels not given in sorted order).
    fn child(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        quarantined: bool,
        bounds: &[f64],
    ) -> Child {
        let sorted: Cow<'_, [(&str, &str)]> = if labels.is_sorted() {
            Cow::Borrowed(labels)
        } else {
            let mut owned = labels.to_vec();
            owned.sort_unstable();
            Cow::Owned(owned)
        };
        let mut families = self
            .inner
            .families
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let family = match families.get_mut(name) {
            Some(family) => family,
            None => families.entry(name.to_string()).or_insert(Family {
                help: help.to_string(),
                kind,
                quarantined,
                children: Vec::new(),
            }),
        };
        assert!(
            family.kind == kind && family.quarantined == quarantined,
            "metric {name} re-registered as a different kind"
        );
        let at = family.children.binary_search_by(|(key, _)| {
            key.iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .cmp(sorted.iter().copied())
        });
        let child = match at {
            Ok(i) => &family.children[i].1,
            Err(i) => {
                let key = sorted
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect();
                let child = match kind {
                    Kind::Counter => Child::Counter(Counter {
                        cell: Arc::new(AtomicU64::new(0)),
                    }),
                    Kind::Gauge => Child::Gauge(Gauge {
                        cell: Arc::new(AtomicU64::new(0f64.to_bits())),
                    }),
                    Kind::Histogram => Child::Histogram(Histogram {
                        cell: Arc::new(HistogramCell {
                            bounds: bounds.to_vec(),
                            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
                        }),
                    }),
                };
                family.children.insert(i, (key, child));
                &family.children[i].1
            }
        };
        if let Child::Histogram(h) = child {
            assert!(
                h.cell.bounds == bounds,
                "histogram {name} re-registered with different bounds"
            );
        }
        child.clone()
    }

    /// The deterministic OpenMetrics text exposition: every family except
    /// quarantined wall-clock gauges, families sorted by name, children by
    /// label set, terminated by `# EOF`. Byte-identical across serial,
    /// parallel, and repeated runs of the same work.
    ///
    /// # Examples
    ///
    /// ```
    /// let registry = edc_metrics::Registry::new();
    /// registry.counter("edc_cells", "Cells.", &[]).inc_by(6);
    /// let text = registry.render_text();
    /// assert!(text.starts_with("# HELP edc_cells Cells.\n# TYPE edc_cells counter\n"));
    /// assert!(text.contains("edc_cells_total 6\n"));
    /// ```
    pub fn render_text(&self) -> String {
        self.render(false)
    }

    /// Like [`Registry::render_text`] but **including** quarantined
    /// wall-clock gauges — for `--metrics` dumps and logs, never for
    /// committed artifacts or byte-equality assertions.
    ///
    /// # Examples
    ///
    /// ```
    /// let registry = edc_metrics::Registry::new();
    /// registry.wall_gauge("edc_wall_seconds", "Wall clock.", &[]).set(0.5);
    /// assert!(registry.render_text_full().contains("edc_wall_seconds 0.5"));
    /// ```
    pub fn render_text_full(&self) -> String {
        self.render(true)
    }

    fn render(&self, include_quarantined: bool) -> String {
        let families = self
            .inner
            .families
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for (name, family) in families.iter() {
            if family.quarantined && !include_quarantined {
                continue;
            }
            out.push_str(&format!(
                "# HELP {name} {}\n# TYPE {name} {}\n",
                escape_help(&family.help),
                family.kind.exposition_name()
            ));
            for (labels, child) in &family.children {
                match child {
                    Child::Counter(c) => {
                        out.push_str(&format!(
                            "{name}_total{} {}\n",
                            render_labels(labels, None),
                            c.get()
                        ));
                    }
                    Child::Gauge(g) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(labels, None),
                            fmt_float(g.get())
                        ));
                    }
                    Child::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (i, le) in h.cell.bounds.iter().enumerate() {
                            cumulative += snap.counts[i];
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                render_labels(labels, Some(&fmt_float(*le)))
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            render_labels(labels, Some("+Inf")),
                            snap.count
                        ));
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            render_labels(labels, None),
                            fmt_float(snap.sum as f64 / FIXED_SCALE)
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            render_labels(labels, None),
                            snap.count
                        ));
                    }
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

/// The process-global registry: what the bench bins and the `--metrics`
/// flags expose, and the default sink for every instrumented layer when no
/// local registry is threaded in.
///
/// # Examples
///
/// ```
/// let registry = edc_metrics::global();
/// registry.counter("edc_doc_example", "Doc example counter.", &[]).inc();
/// assert!(registry.render_text().contains("edc_doc_example_total"));
/// ```
pub fn global() -> Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new).clone()
}

/// Renders a label set (plus an optional `le` label appended last, as the
/// OpenMetrics histogram convention puts it) as `{k="v",...}`, or the
/// empty string when there are no labels.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Escapes a label value per the exposition format: backslash, quote, and
/// newline.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes help text per the exposition format: backslash and newline.
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Shortest round-trip decimal for a finite `f64` (Rust's `Display`),
/// with the exposition-format spellings for the non-finite values.
fn fmt_float(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_in_name_and_label_order() {
        let r = Registry::new();
        r.counter("edc_z_last", "Last.", &[]).inc();
        r.counter("edc_a_first", "First.", &[("phase", "rung1")])
            .inc_by(2);
        r.counter("edc_a_first", "First.", &[("phase", "rung0")])
            .inc_by(3);
        r.gauge("edc_m_mid", "Mid.", &[]).set(1.25);
        let text = r.render_text();
        let a = text.find("edc_a_first").unwrap();
        let m = text.find("edc_m_mid").unwrap();
        let z = text.find("edc_z_last").unwrap();
        assert!(a < m && m < z, "families sort by name");
        let r0 = text.find(r#"edc_a_first_total{phase="rung0"} 3"#).unwrap();
        let r1 = text.find(r#"edc_a_first_total{phase="rung1"} 2"#).unwrap();
        assert!(r0 < r1, "children sort by label set");
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn label_order_at_registration_is_irrelevant() {
        let r = Registry::new();
        let a = r.counter("edc_c", "C.", &[("b", "2"), ("a", "1")]);
        let b = r.counter("edc_c", "C.", &[("a", "1"), ("b", "2")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "one cell regardless of label order");
        assert!(r.render_text().contains(r#"edc_c_total{a="1",b="2"} 2"#));
    }

    #[test]
    fn many_children_keep_one_cell_each_and_render_in_label_order() {
        let r = Registry::new();
        // Registered in a scrambled order (7 is coprime to 20), each one
        // re-fetched once with its labels reversed.
        for i in (0..20).map(|i| i * 7 % 20) {
            let (phase, rung) = (format!("p{:02}", i % 5), format!("r{i:02}"));
            r.counter("edc_c", "C.", &[("phase", &phase), ("rung", &rung)])
                .inc();
            r.counter("edc_c", "C.", &[("rung", &rung), ("phase", &phase)])
                .inc_by(i);
        }
        let text = r.render_text();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("edc_c_total"))
            .collect();
        let mut expected: Vec<(String, u64)> = (0..20)
            .map(|i| (format!("phase=\"p{:02}\",rung=\"r{i:02}\"", i % 5), i + 1))
            .collect();
        expected.sort();
        let expected: Vec<String> = expected
            .iter()
            .map(|(labels, n)| format!("edc_c_total{{{labels}}} {n}"))
            .collect();
        assert_eq!(lines, expected);
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf() {
        let r = Registry::new();
        let h = r.histogram("edc_h", "H.", &[], &[1.0, 10.0]);
        for x in [0.5, 0.5, 5.0, 50.0] {
            h.observe(x);
        }
        let text = r.render_text();
        assert!(text.contains(r#"edc_h_bucket{le="1"} 2"#));
        assert!(text.contains(r#"edc_h_bucket{le="10"} 3"#));
        assert!(text.contains(r#"edc_h_bucket{le="+Inf"} 4"#));
        assert!(text.contains("edc_h_sum 56\n"));
        assert!(text.contains("edc_h_count 4\n"));
    }

    #[test]
    fn histogram_le_is_inclusive() {
        let r = Registry::new();
        let h = r.histogram("edc_h", "H.", &[], &[1.0]);
        h.observe(1.0);
        assert!(r.render_text().contains(r#"edc_h_bucket{le="1"} 1"#));
    }

    #[test]
    fn exposition_is_independent_of_thread_interleaving() {
        let serial = Registry::new();
        let sh = serial.histogram("edc_h", "H.", &[], &[0.1, 1.0, 10.0]);
        let sc = serial.counter("edc_c", "C.", &[]);
        for i in 0..400 {
            sh.observe(i as f64 * 0.05);
            sc.inc();
        }
        let parallel = Registry::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let r = parallel.clone();
                scope.spawn(move || {
                    let h = r.histogram("edc_h", "H.", &[], &[0.1, 1.0, 10.0]);
                    let c = r.counter("edc_c", "C.", &[]);
                    for i in (t..400).step_by(4) {
                        h.observe(i as f64 * 0.05);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(serial.render_text(), parallel.render_text());
    }

    #[test]
    fn wall_gauges_are_quarantined() {
        let r = Registry::new();
        r.counter("edc_c", "C.", &[]).inc();
        r.wall_gauge("edc_wall_seconds", "Wall.", &[]).set(3.25);
        assert!(!r.render_text().contains("edc_wall_seconds"));
        let full = r.render_text_full();
        assert!(full.contains("edc_wall_seconds 3.25"));
        assert!(
            full.contains("edc_c_total 1"),
            "full includes deterministic too"
        );
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic() {
        let r = Registry::new();
        r.counter("edc_x", "X.", &[]);
        r.gauge("edc_x", "X.", &[]);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn bounds_conflicts_panic() {
        let r = Registry::new();
        r.histogram("edc_x", "X.", &[], &[1.0]);
        r.histogram("edc_x", "X.", &[], &[2.0]);
    }

    #[test]
    fn global_is_one_shared_registry() {
        let c = global().counter("edc_metrics_global_test", "Test.", &[]);
        c.inc();
        assert!(global()
            .render_text()
            .contains("edc_metrics_global_test_total"));
    }
}
