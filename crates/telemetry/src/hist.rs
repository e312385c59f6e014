//! Deterministic streaming histograms for run/sweep analytics.
//!
//! The sinks must produce **byte-identical** JSON across repeated runs and
//! across serial vs. parallel sweep execution, so the histogram here is a
//! pure function of the inserted multiset: fixed geometric bins (no
//! adaptive resizing, no randomised sketches), exact `count`/`min`/`max`,
//! an order-invariant fixed-point `sum` (see `FixedSum`), and quantiles
//! answered from bin midpoints. Memory is O(1) per histogram regardless of
//! run length, which is what lets a sweep keep one per grid cell and merge
//! them afterwards — in *any* grouping order — without changing a byte of
//! the aggregate JSON.

/// Number of bins per decade. Eight gives ~33% relative quantile error,
/// plenty for outage/overhead distributions that span many decades.
const BINS_PER_DECADE: usize = 8;
/// Exponent of the smallest representable positive value (`1e-12`):
/// comfortably below one simulation timestep and one snapshot's energy.
const LO_EXP: i32 = -12;
/// Exponent one past the largest bin (`1e4`).
const HI_EXP: i32 = 4;
/// Total bin count.
const NBINS: usize = ((HI_EXP - LO_EXP) as usize) * BINS_PER_DECADE;

/// Fixed-point scale for [`FixedSum`]: 2⁶⁰ keeps ~18 decimal digits below
/// the unit, far finer than any simulated duration or energy, while an
/// `i128` total still spans ±10²⁰ units before saturating.
const FIXED_SCALE: f64 = (1u128 << 60) as f64;

/// An exactly associative-and-commutative accumulator: observations are
/// quantised once (to 2⁻⁶⁰) and summed in integer arithmetic, so any
/// merge grouping or order produces the *identical* total — which is what
/// lets merged-sink JSON stay byte-stable no matter how a sweep's cells
/// were combined. (Plain `f64 +=` is order-sensitive in the last ulp.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FixedSum(i128);

impl FixedSum {
    /// Adds one observation (quantised to the fixed-point grid).
    pub(crate) fn add(&mut self, x: f64) {
        self.0 += (x * FIXED_SCALE) as i128;
    }

    /// Folds another accumulator in — exact integer addition.
    pub(crate) fn merge(&mut self, other: &FixedSum) {
        self.0 += other.0;
    }

    /// The accumulated total as an `f64`.
    pub(crate) fn value(&self) -> f64 {
        self.0 as f64 / FIXED_SCALE
    }
}

/// A fixed-bin geometric histogram over positive values.
///
/// Values `≤ 0` are counted in a dedicated zero bucket (torn snapshots can
/// cost nothing); positive values below `1e-12` clamp into the first bin
/// and values above `1e4` into the last, with exact `min`/`max` preserved
/// alongside.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bins: Vec<u64>,
    zeros: u64,
    count: u64,
    sum: FixedSum,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            bins: vec![0; NBINS],
            zeros: 0,
            count: 0,
            sum: FixedSum::default(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bin_index(x: f64) -> usize {
        let idx = ((x.log10() - LO_EXP as f64) * BINS_PER_DECADE as f64).floor();
        if idx < 0.0 {
            0
        } else {
            (idx as usize).min(NBINS - 1)
        }
    }

    /// Geometric midpoint of bin `i` — the representative value quantile
    /// queries report.
    fn bin_mid(i: usize) -> f64 {
        10f64.powf(LO_EXP as f64 + (i as f64 + 0.5) / BINS_PER_DECADE as f64)
    }

    /// Upper bound of bin `i` — the `le` label bucket exposition uses.
    fn bin_upper(i: usize) -> f64 {
        10f64.powf(LO_EXP as f64 + (i as f64 + 1.0) / BINS_PER_DECADE as f64)
    }

    /// Records one observation. Non-finite values are ignored (they cannot
    /// be binned deterministically and indicate an upstream bug, not data).
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if x <= 0.0 {
            self.zeros += 1;
        } else {
            self.bins[Self::bin_index(x)] += 1;
        }
        self.count += 1;
        self.sum.add(x);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Exact minimum, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean over the sum of observations, or `None` when empty.
    /// The sum is accumulated in order-invariant fixed-point arithmetic
    /// (quantised at 2⁻⁶⁰), so merging histograms in any grouping order
    /// yields the bit-identical mean.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum.value() / self.count as f64)
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) estimated from bin midpoints and
    /// clamped to the exact observed range, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.zeros;
        if rank <= seen {
            // The zero bucket also holds negative observations, so clamp
            // its representative into the exact observed range too.
            return Some(0.0f64.clamp(self.min, self.max));
        }
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if rank <= seen {
                return Some(Self::bin_mid(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The distribution as cumulative `(le, count)` buckets, exposition
    /// style: each entry counts observations `≤ le`, with `None` standing
    /// for `+Inf`. This resolves the blind spot a fixed summary leaves
    /// between p999 and max.
    ///
    /// The list is compact — only bounds where the cumulative count
    /// increases appear (the zero bucket surfaces as `le = 0` when
    /// populated) — and always closes with the `+Inf` entry at the total
    /// count. The top geometric bin folds into `+Inf` rather than
    /// reporting its finite bound, because out-of-range values clamp into
    /// it and would make that bound a lie. Empty histograms yield an empty
    /// list.
    ///
    /// # Examples
    ///
    /// ```
    /// let mut h = edc_telemetry::Histogram::new();
    /// h.add(0.0);
    /// h.add(0.5);
    /// let buckets = h.le_buckets();
    /// assert_eq!(buckets.first(), Some(&(Some(0.0), 1)), "zero bucket");
    /// assert_eq!(buckets.last(), Some(&(None, 2)), "+Inf closes the list");
    /// ```
    pub fn le_buckets(&self) -> Vec<(Option<f64>, u64)> {
        if self.count == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        if self.zeros > 0 {
            cumulative += self.zeros;
            out.push((Some(0.0), cumulative));
        }
        for (i, &n) in self.bins.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cumulative += n;
            if i + 1 == NBINS {
                break;
            }
            out.push((Some(Self::bin_upper(i)), cumulative));
        }
        out.push((None, self.count));
        out
    }

    /// Folds another histogram into this one (used by sweep aggregation).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum.merge(&other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The fixed summary (count, exact min/max/mean, p50/p90/p99/p999)
    /// every JSON emitter reports.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            min: self.min().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
            mean: self.mean().unwrap_or(0.0),
            p50: self.quantile(0.50).unwrap_or(0.0),
            p90: self.quantile(0.90).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
            p999: self.quantile(0.999).unwrap_or(0.0),
        }
    }
}

/// Plain-data summary of a [`Histogram`] (zeroed when empty).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Observation count.
    pub count: u64,
    /// Exact minimum (0 when empty).
    pub min: f64,
    /// Exact maximum (0 when empty).
    pub max: f64,
    /// Exact mean (0 when empty).
    pub mean: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// 99.9th-percentile estimate — resolves tail outages that p99 hides
    /// once sweeps aggregate thousands of cells.
    pub p999: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_stats_are_exact() {
        let mut h = Histogram::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            h.add(x);
        }
        assert_eq!(h.summary().count, 4);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
        assert_eq!(h.mean(), Some(2.5));
    }

    #[test]
    fn quantiles_land_in_the_right_bin() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.add(1e-3);
        }
        h.add(10.0);
        let p50 = h.quantile(0.5).unwrap();
        assert!(
            (p50 / 1e-3) < 1.4 && (p50 / 1e-3) > 0.7,
            "p50 {p50} should sit near 1e-3"
        );
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 < 1e-2, "p99 {p99} still in the bulk");
        assert_eq!(h.quantile(1.0), Some(10.0), "p100 clamps to exact max");
    }

    #[test]
    fn zeros_and_extremes_are_handled() {
        let mut h = Histogram::new();
        h.add(0.0);
        h.add(-1.0);
        h.add(1e-20); // below the first bin: clamped, min stays exact
        h.add(1e9); // above the last bin: clamped, max stays exact
        h.add(f64::NAN); // ignored
        assert_eq!(h.summary().count, 4);
        assert_eq!(h.min(), Some(-1.0));
        assert_eq!(h.max(), Some(1e9));
        assert_eq!(h.quantile(0.25), Some(0.0), "zero bucket answers low q");
    }

    #[test]
    fn all_negative_quantiles_stay_in_observed_range() {
        let mut h = Histogram::new();
        for _ in 0..3 {
            h.add(-1.0);
        }
        assert_eq!(h.quantile(0.5), Some(-1.0), "p50 cannot exceed the max");
        let s = h.summary();
        assert!(s.p99 <= s.max && s.p50 >= s.min);
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 1..100 {
            let x = i as f64 * 0.013;
            whole.add(x);
            if i % 2 == 0 {
                a.add(x);
            } else {
                b.add(x);
            }
        }
        a.merge(&b);
        let (m, w) = (a.summary(), whole.summary());
        assert_eq!(m.count, w.count);
        assert_eq!(m.min, w.min);
        assert_eq!(m.max, w.max);
        assert_eq!(m.p50, w.p50);
        assert_eq!(m.p99, w.p99);
        // Fixed-point accumulation makes the sum order-invariant, so even
        // the mean is bit-identical across merge orders.
        assert_eq!(m.mean, w.mean);
    }

    #[test]
    fn summary_of_empty_is_zeroed() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p99, 0.0);
        assert_eq!(s.p999, 0.0);
    }

    #[test]
    fn p999_resolves_the_tail_p99_hides() {
        let mut h = Histogram::new();
        for _ in 0..1995 {
            h.add(1e-3);
        }
        for _ in 0..5 {
            h.add(10.0);
        }
        let s = h.summary();
        assert!(s.p99 < 1e-2, "p99 {} still in the bulk", s.p99);
        assert!(s.p999 > 1.0, "p999 {} reaches the tail", s.p999);
        assert!(s.p99 <= s.p999 && s.p999 <= s.max, "quantiles are ordered");
    }

    #[test]
    fn le_buckets_are_cumulative_compact_and_closed_by_inf() {
        let mut h = Histogram::new();
        assert!(h.le_buckets().is_empty(), "empty histogram, no buckets");
        h.add(0.0);
        h.add(1e-3);
        h.add(1e-3);
        h.add(5.0);
        h.add(1e9); // clamps into the top bin → folded into +Inf
        let buckets = h.le_buckets();
        assert_eq!(buckets[0], (Some(0.0), 1), "zero bucket first");
        let last = *buckets.last().unwrap();
        assert_eq!(last, (None, 5), "+Inf carries the total count");
        for w in buckets.windows(2) {
            assert!(w[1].1 > w[0].1, "cumulative counts strictly increase");
            if let (Some(a), Some(b)) = (w[0].0, w[1].0) {
                assert!(a < b, "bounds strictly increase");
            }
        }
        // Every finite bound really covers its cumulative count.
        for &(le, n) in &buckets {
            if let Some(le) = le {
                let covered = [0.0, 1e-3, 1e-3, 5.0, 1e9]
                    .iter()
                    .filter(|&&x| x <= le)
                    .count() as u64;
                assert_eq!(n, covered, "le = {le} counts everything ≤ it");
            }
        }
        assert!(
            buckets.len() <= 4,
            "only populated bounds appear, got {buckets:?}"
        );
    }

    #[test]
    fn deterministic_across_identical_streams() {
        let feed = |h: &mut Histogram| {
            for i in 0..1000 {
                h.add((i as f64 * 0.7).sin().abs() * 1e-3 + 1e-9);
            }
        };
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a, b);
        assert_eq!(a.summary(), b.summary());
    }
}
