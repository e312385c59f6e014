//! Order statistics over measured samples.

/// The shared host alternates phases, lasting seconds, in which the same
/// work runs up to ~1.7x slower; how much of a run each phase takes, and
/// whether the quick one comes at all, varies from run to run. The slow
/// phase shows up in nearly every run, so work a run repeats is timed in
/// it: throughputs at this percentile of their per-pass rates, times (a
/// set-up, a request of the serve script) at the mirror percentile of
/// their repeats.
pub const SLOW_PHASE: f64 = 0.10;

/// The slow-phase time of each unit of repeated work: `repeats` holds one
/// row of per-unit times per repeat (round), all of equal length.
pub fn slow_times(repeats: &[Vec<f64>]) -> Vec<f64> {
    let units = repeats.first().map_or(0, Vec::len);
    (0..units)
        .map(|j| {
            let across: Vec<f64> = repeats.iter().map(|row| row[j]).collect();
            percentile(&across, 1.0 - SLOW_PHASE)
        })
        .collect()
}

/// Sorts a copy of `values` (NaN-free by construction).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so the
/// spread a run reports reads the same as the one computed across runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = ((i * m) / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Nearest-rank percentile, `p` in `(0, 1]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Prints each metric's per-rep quartiles, so the spread within a run can
/// be read beside the spread across runs.
pub fn print_reps(series: &[(&str, &[f64])]) {
    for (name, values) in series {
        let (q1, q2, q3) = quartiles(values);
        println!(
            "reps {name}: n={} q1={q1:.6} median={q2:.6} q3={q3:.6} spread={:.4}",
            values.len(),
            (q3 - q1) / q2
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
            (2.75, 5.5, 8.25)
        );
        // statistics.quantiles([1, 2, 3], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
    }
}
