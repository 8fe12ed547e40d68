//! Medians, quartiles and the exactness audit of counts.

/// Five-number summary of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(xs, n=4)` gives them
    /// (the exclusive method), so the spreads printed here are the ones the
    /// acceptance check computes. `None` for an empty sample.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (&min, &max) = (v.first()?, v.last()?);
        let quantile = |k: usize| {
            if n == 1 {
                return v[0];
            }
            // Position k(n+1)/4 counted from 1, clamped to the sample.
            let pos = (k * (n + 1)) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * frac
        };
        Some(Summary {
            median: quantile(2),
            q1: quantile(1),
            q3: quantile(3),
            min,
            max,
            n,
        })
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Mean of the sorted sample from quantile `lo` up to quantile `hi`
/// (shares of its length, rounded down; at least one value).
pub fn band_mean(xs: &[f64], lo: f64, hi: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let from = (lo * v.len() as f64) as usize;
    let to = ((hi * v.len() as f64) as usize).max(from + 1).min(v.len());
    let band = &v[from.min(to.saturating_sub(1))..to];
    band.iter().sum::<f64>() / band.len() as f64
}

/// A count is exact when every repetition produced the same value.
pub fn exact(xs: &[u64]) -> bool {
    xs.windows(2).all(|w| w[0] == w[1])
}

pub fn median_u64(xs: &[u64]) -> u64 {
    let mut v = xs.to_vec();
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn band_mean_drops_both_tails() {
        // Ten values: the band from 0.2 to 0.5 is the third to the fifth.
        let xs = [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 100.0];
        assert_eq!(band_mean(&xs, 0.2, 0.5), 4.0);
        assert_eq!(band_mean(&[7.0], 0.2, 0.5), 7.0);
        assert_eq!(band_mean(&[1.0, 3.0], 0.2, 0.5), 1.0);
        assert!(band_mean(&[], 0.2, 0.5).is_nan());
    }

    #[test]
    fn degenerate_samples() {
        assert!(Summary::of(&[]).is_none());
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn exactness() {
        assert!(exact(&[]) && exact(&[7]) && exact(&[7, 7, 7]));
        assert!(!exact(&[7, 7, 8]));
        assert_eq!(median_u64(&[9, 1, 5]), 5);
    }
}
