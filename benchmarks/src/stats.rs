//! Summary statistics over repetition samples.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is the
/// rule the driver applies to the benchmark's runs.  A single value is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    match len {
        0 => return [0.0; 3],
        1 => return [sorted[0]; 3],
        _ => {}
    }
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let rank = (i + 1) * (len + 1);
        let j = (rank / 4).clamp(1, len - 1);
        let delta = rank as f64 - (j * 4) as f64;
        *cut = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

/// Distance between the first and third quartile as a share of the median:
/// the spread the driver holds each end-to-end metric's bound against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / q2.abs()
    }
}

/// The percentiles a tail may be reported at, highest first, each with the
/// share of samples beyond it in parts per thousand.
const TAILS: [(f64, u64); 5] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];

/// The highest percentile of [`TAILS`] that has at least ten samples beyond
/// it, or `None` when even the 75th has not (fewer than 40 samples).
pub fn supported_tail(samples: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|(_, beyond)| samples as u64 * beyond >= 10 * 1000)
        .map(|(p, _)| p)
}

/// The `p`-th percentile: the smallest sample with at least `p` percent of
/// the samples at or below it (the convention of `Histogram::percentile`
/// and `LatencySummary` in the repository); 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// `percentile(values, wanted)` when the sample supports that percentile by
/// the ten-beyond rule, else the highest percentile it does support (the
/// median when none).  Returns `(percentile used, value)`.
pub fn tail(values: &[f64], wanted: f64) -> (f64, f64) {
    let p = match supported_tail(values.len()) {
        Some(p) if p >= wanted => wanted,
        Some(p) => p,
        None => 50.0,
    };
    (p, percentile(values, p))
}
