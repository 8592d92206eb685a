//! Order statistics for timings.

/// The `p`-th percentile (0–100) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `p` % of the samples at or below it.
/// `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `samples` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [u64; 5] = [99, 95, 90, 75, 50];

/// The highest ladder percentile that leaves at least ten of `n` samples
/// beyond it; 50 when none does (too few samples for any tail, so the
/// median is the best-supported statistic). Integer arithmetic: the
/// test `n × (100 − p) / 100 ≥ 10` is exact at the ladder's edges.
pub fn tail_percentile(n: usize) -> f64 {
    let n = n as u64;
    let p = TAIL_LADDER.iter().copied().find(|&p| n * (100 - p) >= 1000).unwrap_or(50);
    p as f64
}

/// A latency summary: the median and the tail at the highest supported
/// percentile up to p99 (both nearest-rank), and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median sample.
    pub p50: f64,
    /// The sample at percentile `tail_pct`.
    pub tail: f64,
    /// Which percentile `tail` is (99 when the samples support it; 50
    /// when they support no tail).
    pub tail_pct: f64,
    /// How many samples were taken.
    pub samples: usize,
}

impl Latency {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Latency> {
        let tail_pct = tail_percentile(samples.len());
        Some(Latency {
            p50: percentile(samples, 50.0)?,
            tail: percentile(samples, tail_pct)?,
            tail_pct,
            samples: samples.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 needs 1000 samples, p95 200, p90 100, p75 40.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        // Never above p99, however many samples there are.
        assert_eq!(tail_percentile(1_000_000), 99.0);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_percentile(3), 50.0);
    }

    #[test]
    fn latency_reports_its_percentile_and_count() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = Latency::of(&xs).expect("non-empty");
        assert_eq!((l.p50, l.tail_pct, l.tail, l.samples), (500.0, 99.0, 990.0, 1000));
        let few = Latency::of(&[5.0, 1.0, 3.0]).expect("non-empty");
        assert_eq!((few.p50, few.tail_pct, few.tail, few.samples), (3.0, 50.0, 3.0, 3));
        assert!(Latency::of(&[]).is_none());
    }
}
