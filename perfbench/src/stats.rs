//! Sample summaries: the median plus the highest percentile that still has at least
//! [`MIN_BEYOND`] samples beyond it, so a tail figure never rests on a handful of points.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAIL_CANDIDATES: [f64; 7] = [99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100). Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples beyond it; the
/// median when even that has fewer (the summary then reports so through `tail_pct`).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// A timing distribution as the benchmark reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
    pub mean: f64,
}

impl Summary {
    /// Summarise `samples` (any order). `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(sorted.len());
        Some(Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail_pct,
            tail: percentile(&sorted, tail_pct),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        })
    }

    /// One report line: `name  p50 … pNN … (n=…)`.
    pub fn line(&self, name: &str, unit: &str) -> String {
        format!(
            "{name:<22} p50 {:>12.3} {unit}  p{} {:>12.3} {unit}  mean {:>12.3} {unit}  (n={})",
            self.p50, self.tail_pct, self.tail, self.mean, self.n
        )
    }
}

/// Median of `samples` (any order); 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

/// Mean of `samples`; 0 for none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has 10 beyond it: allowed.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), 99.0);
        // 999 samples leave only 9 beyond p99 (rank 990), so p98 is the highest allowed.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), 98.0);
        // 100 samples: p90 has exactly 10 beyond.
        assert_eq!(tail_percentile(100), 90.0);
        // 40 samples: p75 has 10 beyond, p80 only 8.
        assert_eq!(tail_percentile(40), 75.0);
        // Too few for any candidate: the median is reported and labelled as such.
        assert_eq!(tail_percentile(15), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn summary_reports_median_and_tail() {
        let samples: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 989.0);
        assert!((s.mean - 499.5).abs() < 1e-9);
        assert!(Summary::of(&[]).is_none());
    }
}
