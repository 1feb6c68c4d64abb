//! Percentiles from raw samples.
//!
//! Every percentile the benchmark reports comes from the raw sample list,
//! never from the program's log₂ histograms (one bucket per octave, so
//! p95, p99 and p99.9 can all read the same bucket bound).

/// The rungs a tail percentile may take, highest first.
const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() as usize >= MIN_BEYOND
}

/// The highest rung of the tail ladder, capped at `cap`, that `n` samples
/// support; `None` when not even the median has ten samples beyond it.
pub fn tail_rung(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER.into_iter().filter(|&q| q <= cap).find(|&q| supports(n, q))
}

/// Sort a sample list in place and return it (NaN-free input assumed).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of an unsorted sample list; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5).unwrap_or(0.0)
}

/// Lower quartile (nearest rank) of an unsorted sample list; 0 when
/// empty.
pub fn lower_quartile(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.25).unwrap_or(0.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Label of a percentile rung, e.g. `0.99` → `"p99"`, `0.999` → `"p99.9"`.
pub fn rung_label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round() as u64)
    } else {
        format!("p{pct:.1}")
    }
}

/// A latency sample set summarised the way every report line uses it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Highest supported tail percentile (capped at p99) and its value.
    pub tail: Option<(f64, f64)>,
    /// p99 itself, only when the sample supports it.
    pub p99: Option<f64>,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise raw samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let s = sorted(samples.to_vec());
        let n = s.len();
        let p50 = percentile(&s, 0.5)?;
        let tail = tail_rung(n, 0.99).map(|q| (q, percentile(&s, q).expect("non-empty")));
        let p99 = supports(n, 0.99).then(|| percentile(&s, 0.99).expect("non-empty"));
        Some(Summary { n, p50, tail, p99, max: s[n - 1] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(!supports(999, 0.99), "999 samples leave 9 beyond p99");
        assert!(supports(1000, 0.99), "1000 samples leave 10 beyond p99");
        assert!(!supports(199, 0.95));
        assert!(supports(200, 0.95));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
    }

    #[test]
    fn tail_rung_is_the_highest_supported_and_respects_the_cap() {
        assert_eq!(tail_rung(10_000, 0.99), Some(0.99));
        assert_eq!(tail_rung(10_000, 1.0), Some(0.999));
        assert_eq!(tail_rung(999, 0.99), Some(0.95));
        assert_eq!(tail_rung(150, 0.99), Some(0.90));
        assert_eq!(tail_rung(40, 0.99), Some(0.75));
        assert_eq!(tail_rung(25, 0.99), Some(0.50));
        assert_eq!(tail_rung(19, 0.99), None);
    }

    #[test]
    fn summary_reports_p99_only_when_supported() {
        let small: Vec<f64> = (1..=500).map(f64::from).collect();
        let s = Summary::of(&small).unwrap();
        assert_eq!(s.p99, None);
        assert_eq!(s.tail, Some((0.95, 475.0)));
        assert_eq!(s.max, 500.0);
        let big: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let s = Summary::of(&big).unwrap();
        assert_eq!(s.p99, Some(1980.0));
        assert_eq!(s.p50, 1000.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn rung_labels() {
        assert_eq!(rung_label(0.99), "p99");
        assert_eq!(rung_label(0.999), "p99.9");
        assert_eq!(rung_label(0.5), "p50");
    }
}
