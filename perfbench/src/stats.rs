//! Order statistics and the seeded generator the load loops draw from.

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// closest ranks. `NaN` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values` without the lowest and the highest `share` of
/// them. Unlike the median it moves smoothly when the samples fall into
/// two modes in changing proportions. `NaN` when `values` is empty.
pub fn trimmed_mean(values: &[f64], share: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * share.clamp(0.0, 0.49)) as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The median over windows of each window's `q`-quantile, where window
/// `i` of `values` ends at `ends[i]`; the plain quantile when no window
/// closed.
pub fn windowed_quantile(values: &[f64], ends: &[usize], q: f64) -> f64 {
    if ends.is_empty() {
        return quantile(values, q);
    }
    let mut start = 0;
    let per_window: Vec<f64> = ends
        .iter()
        .map(|&end| {
            let v = quantile(&values[start..end], q);
            start = end;
            v
        })
        .filter(|v| !v.is_nan())
        .collect();
    median(&per_window)
}

/// SplitMix64: a tiny deterministic generator, so a seed fixes every
/// choice the load loops make.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`; `stream` separates independent users of
    /// one seed.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -100.0];
        assert_eq!(trimmed_mean(&v, 0.1), 4.5);
        assert_eq!(trimmed_mean(&[2.0, 4.0], 0.1), 3.0);
        assert!(trimmed_mean(&[], 0.1).is_nan());
    }

    #[test]
    fn windowed_quantile_takes_the_median_window() {
        let v = [1.0, 1.0, 9.0, 9.0, 2.0, 2.0];
        assert_eq!(windowed_quantile(&v, &[2, 4, 6], 0.5), 2.0);
        assert_eq!(windowed_quantile(&v, &[], 0.5), 2.0);
    }

    #[test]
    fn generator_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix::new(7, 1).next_u64(),
            SplitMix::new(7, 2).next_u64()
        );
    }
}
