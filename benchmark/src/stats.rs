//! Order statistics over the per-rep samples.

/// One metric over its samples: the value reported for it, and the
/// median, quartiles and count behind that value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// What the run reports: the median, unless [`quiet`] chose a decile.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A metric that is one reading, not a sample of readings.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Interquartile range as a share of the median (0 when undefined).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }

    /// Whether the two interquartile ranges share a point.
    pub fn overlaps(&self, other: &Summary) -> bool {
        self.q1.max(other.q1) <= self.q3.min(other.q3)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The quartiles `statistics.quantiles(values, n=4)` gives (exclusive
/// method), so spreads computed here match the ones the driver computes.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => Summary::single(0.0),
        1 => Summary::single(v[0]),
        _ => {
            let cut = |i: usize| {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Summary {
                value: cut(2),
                median: cut(2),
                q1: cut(1),
                q3: cut(3),
                n,
            }
        }
    }
}

/// [`summarize`], but reporting the decile on the metric's good side (the
/// 90th percentile of a rate, the 10th of a cost) instead of the median.
///
/// This host's two CPUs are shared with other tenants, who only ever slow a
/// rep down: the samples are the undisturbed cost plus one-sided noise that
/// comes and goes over minutes. The good decile needs only a tenth of a run
/// to be undisturbed, so it moves far less between runs than the median
/// (ten same-commit runs in a noisy hour, interquartile range ÷ median:
/// `inproc_contended` 4.1 % against 15.6 %, `tcp_stream` 4.7 % against
/// 10.6 %), and unlike the single best rep it shrugs off one freak sample.
/// A change to the code moves every quantile, this one included.
pub fn quiet(values: &[f64], higher_is_better: bool) -> Summary {
    Summary {
        value: percentile(values, if higher_is_better { 0.9 } else { 0.1 }),
        ..summarize(values)
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Nearest-rank percentile, `p` in 0..=1 (0 for an empty sample).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(s.value, 1.5);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 0.999), 999.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet(&twenty, true).value, 18.0);
        assert_eq!(quiet(&twenty, false).value, 2.0);
        assert_eq!(quiet(&twenty, false).median, 10.5);
        assert_eq!(quiet(&[3.0, 1.0, 2.0], true).value, 3.0);
    }
}
