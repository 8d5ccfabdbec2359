//! Operation records, percentiles and the result line.

use std::fmt::Write as _;

/// One timed operation.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// `solve`, `certain`, `insert`, `snapshot` or `restart`.
    pub kind: &'static str,
    /// Latency in milliseconds; a failed operation is recorded at the
    /// deadline.
    pub ms: f64,
    /// Why it failed, if it did.
    pub failure: Option<crate::oracle::Failure>,
}

/// Linear-interpolated percentile (`q` in 0..=1) of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Uniform-kernel percentile (`q` in 0..=1) of unsorted values: the mean
/// of the values ranked within ten points of `q`, and never more than
/// half-way from `q` to either end, so a tail's window leaves out the
/// extreme values beyond it. It rests on up to a fifth of the samples
/// instead of the one or two a plain percentile reads, so noise on single
/// operations moves it much less.
pub fn smooth_percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let h = 0.1f64.min(q / 2.0).min((1.0 - q) / 2.0);
    let last = (v.len() - 1) as f64;
    // The slack keeps a window edge that falls on a rank from being lost
    // to rounding.
    let lo = ((q - h) * last - 1e-9).ceil() as usize;
    let hi = (((q + h) * last + 1e-9).floor() as usize).max(lo);
    let window = &v[lo..=hi];
    window.iter().sum::<f64>() / window.len() as f64
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The highest whole percentile with at least ten samples beyond it, or
/// `None` when there are too few samples for any tail.
pub fn tail_quantile(n: usize) -> Option<f64> {
    if n < 20 {
        return None;
    }
    let q = ((n - 10) as f64 / n as f64 * 100.0).floor() / 100.0;
    Some(q.max(0.5))
}

/// One metric of the result line.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The last stdout line: correctness, operation counts and metrics.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values are not JSON; 0 stands in and the report line
        // above says why.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(tail_quantile(10), None);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        let ramp: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(smooth_percentile(&ramp, 0.5), 50.0);
        assert_eq!(smooth_percentile(&ramp, 0.9), 90.0);
        assert_eq!(smooth_percentile(&ramp, 1.0), 100.0);
        // The p90 window spans ranks 85..=95: the top values are left out.
        let mut spiked = ramp.clone();
        spiked[96..].iter_mut().for_each(|x| *x = 1e9);
        assert_eq!(smooth_percentile(&spiked, 0.9), 90.0);
        assert_eq!(smooth_percentile(&[7.0], 0.9), 7.0);
    }
}
