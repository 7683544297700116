//! Summary statistics over raw slices.
//!
//! These back the paper's characterization figures: the daily-total
//! histograms of Figure 5, the utilization/power correlation of Figure 3,
//! and the quantile analysis behind the "best ten days of the year" claim.

use crate::TimeSeriesError;

/// A fixed-width histogram over a closed value range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<usize>,
}

impl Histogram {
    /// Builds a histogram of `values` with `bins` equal-width bins spanning
    /// `[lo, hi]`. Values outside the range are clamped into the edge bins.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::Empty`] if `bins == 0` or `hi <= lo`.
    pub fn new(values: &[f64], lo: f64, hi: f64, bins: usize) -> Result<Self, TimeSeriesError> {
        if bins == 0 || hi <= lo {
            return Err(TimeSeriesError::Empty);
        }
        let mut counts = vec![0usize; bins];
        let width = (hi - lo) / bins as f64;
        for &v in values {
            let idx = ((v - lo) / width).floor();
            let idx = idx.clamp(0.0, (bins - 1) as f64) as usize;
            counts[idx] += 1;
        }
        Ok(Self { counts })
    }

    /// Builds a histogram spanning the observed min..max of `values`.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::Empty`] for empty input or zero bins.
    pub fn from_values(values: &[f64], bins: usize) -> Result<Self, TimeSeriesError> {
        let lo = values
            .iter()
            .copied()
            .reduce(f64::min)
            .ok_or(TimeSeriesError::Empty)?;
        let hi = values
            .iter()
            .copied()
            .reduce(f64::max)
            .ok_or(TimeSeriesError::Empty)?;
        let hi = if hi > lo { hi } else { lo + 1.0 };
        Self::new(values, lo, hi, bins)
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total number of samples recorded.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

/// Pearson correlation coefficient between two equal-length slices.
///
/// # Errors
///
/// Returns [`TimeSeriesError::LengthMismatch`] for unequal lengths and
/// [`TimeSeriesError::Empty`] for fewer than 2 samples.
pub fn pearson(a: &[f64], b: &[f64]) -> Result<f64, TimeSeriesError> {
    if a.len() != b.len() {
        return Err(TimeSeriesError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.len() < 2 {
        return Err(TimeSeriesError::Empty);
    }
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    // ce:allow(float-eq, reason = "a constant series has exactly zero variance; correlation is undefined and reported as 0")
    if va == 0.0 || vb == 0.0 {
        return Ok(0.0);
    }
    Ok(cov / (va.sqrt() * vb.sqrt()))
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values`.
///
/// Values are ranked with IEEE-754 total order, so NaN inputs sort to the
/// top instead of aborting; callers with possibly-NaN data should filter
/// first.
///
/// # Errors
///
/// Returns [`TimeSeriesError::Empty`] for empty input.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> Result<f64, TimeSeriesError> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if values.is_empty() {
        return Err(TimeSeriesError::Empty);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Mean of the `k` largest values.
///
/// # Errors
///
/// Returns [`TimeSeriesError::Empty`] if `values` is empty or `k == 0`.
pub fn mean_of_top_k(values: &[f64], k: usize) -> Result<f64, TimeSeriesError> {
    if values.is_empty() || k == 0 {
        return Err(TimeSeriesError::Empty);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let k = k.min(sorted.len());
    Ok(sorted[..k].iter().sum::<f64>() / k as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_centers() {
        let values = [0.5, 1.5, 1.6, 2.5, 9.9];
        let h = Histogram::new(&values, 0.0, 10.0, 10).unwrap();
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[2], 1);
        assert_eq!(h.counts()[9], 1);
    }

    #[test]
    fn histogram_clamps_outliers() {
        let values = [-5.0, 15.0];
        let h = Histogram::new(&values, 0.0, 10.0, 2).unwrap();
        assert_eq!(h.counts(), &[1, 1]);
    }

    #[test]
    fn histogram_rejects_degenerate_params() {
        assert!(Histogram::new(&[1.0], 0.0, 10.0, 0).is_err());
        assert!(Histogram::new(&[1.0], 5.0, 5.0, 3).is_err());
        assert!(Histogram::from_values(&[], 4).is_err());
    }

    #[test]
    fn histogram_from_values_handles_constant_input() {
        let h = Histogram::from_values(&[2.0, 2.0, 2.0], 4).unwrap();
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn pearson_perfect_correlations() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &c).unwrap() + 1.0).abs() < 1e-12);
        let flat = [3.0, 3.0, 3.0, 3.0];
        assert_eq!(pearson(&a, &flat).unwrap(), 0.0);
        assert!(pearson(&a, &[1.0]).is_err());
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&v, 1.0).unwrap(), 4.0);
        assert_eq!(quantile(&v, 0.5).unwrap(), 2.5);
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn top_k() {
        let v = [5.0, 1.0, 9.0, 3.0];
        assert_eq!(mean_of_top_k(&v, 2).unwrap(), 7.0);
        // k larger than the slice falls back to the whole slice.
        assert_eq!(mean_of_top_k(&v, 10).unwrap(), 4.5);
        assert!(mean_of_top_k(&v, 0).is_err());
    }
}
