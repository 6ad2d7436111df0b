//! Order statistics over the samples a run collects.

/// Nearest-rank percentile (`p` in `0..=100`) of unsorted samples: the
/// smallest sample with at least `p` percent of the samples at or below it.
/// Returns `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median and quartiles of a sample, by linear interpolation between order
/// statistics at `(n - 1) * q` (medians of even samples average the middle
/// pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn quartiles(samples: &[f64]) -> Option<Quartiles> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = (sorted.len() - 1) as f64 * q;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    Some(Quartiles {
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
        n: sorted.len(),
    })
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quartiles(samples).map(|q| q.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 5.0), Some(15.0));
        assert_eq!(percentile(&s, 30.0), Some(20.0));
        assert_eq!(percentile(&s, 40.0), Some(20.0));
        assert_eq!(percentile(&s, 50.0), Some(35.0));
        assert_eq!(percentile(&s, 100.0), Some(50.0));
        assert_eq!(percentile(&s, 0.0), Some(15.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of arrival does not matter.
        assert_eq!(
            percentile(&[50.0, 15.0, 40.0, 20.0, 35.0], 90.0),
            Some(50.0)
        );
        // 200 samples support p90 but p99 is the third largest.
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&many, 90.0), Some(180.0));
        assert_eq!(percentile(&many, 99.0), Some(198.0));
    }

    #[test]
    fn median_and_quartiles() {
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(q.median, 2.5);
        assert_eq!(q.q1, 1.75);
        assert_eq!(q.q3, 3.25);
        assert_eq!(q.n, 4);
        let q = quartiles(&[7.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }
}
