//! Percentiles and the per-metric summary the results file carries.

/// The `q`-quantile (`0.0..=1.0`) by linear interpolation between order
/// statistics; `0.0` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Sample count, median and the p10/p90 band of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p10: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            n: s.len(),
            median: percentile(&s, 0.5),
            p10: percentile(&s, 0.1),
            p90: percentile(&s, 0.9),
            p99: percentile(&s, 0.99),
            max: s.last().copied().unwrap_or(0.0),
        }
    }

    /// A single measurement (a total, a ratio, a count).
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn empty_and_singleton_samples() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.n, s.median, s.max), (3, 3.0, 5.0));
        assert!(s.p10 < s.median && s.median < s.p90);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }
}
