//! Order statistics and digests shared by every workload.

/// A percentile together with the number of samples it was taken over,
/// so no percentile is ever reported without its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile's value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Ceiling nearest-rank percentile (the same rule `ServiceReport` uses):
/// the smallest sample with at least `p`% of the samples at or below it.
/// An empty sample gives 0 over 0 samples.
pub fn percentile(samples: &[f64], p: f64) -> Percentile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            samples: 0,
        };
    }
    let rank = ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n);
    Percentile {
        value: sorted[rank - 1],
        samples: n,
    }
}

/// The median, averaging the two middle samples of an even-sized sample
/// (0 for an empty one).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive ratios (1 for an empty sample).
pub fn gmean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a over a stream of integers: the per-workload output
/// digest that two runs of the same seed must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one value in, byte by byte.
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_ceiling_nearest_rank_and_carries_its_sample_count() {
        let ten: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(percentile(&ten, 50.0).value, 50.0);
        let p99 = percentile(&ten, 99.0);
        assert_eq!(p99.value, 100.0, "p99 of 10 samples is the maximum");
        assert_eq!(p99.samples, 10);
        // Input order does not matter.
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&shuffled, 50.0).value, 3.0);
        assert_eq!(percentile(&shuffled, 20.0).value, 1.0);
        assert_eq!(percentile(&shuffled, 21.0).value, 2.0);
        assert_eq!(percentile(&[7.0], 99.0).value, 7.0);
        assert_eq!(
            percentile(&[], 99.0),
            Percentile {
                value: 0.0,
                samples: 0
            }
        );
    }

    #[test]
    fn median_and_gmean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((gmean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 1.0);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.push(1);
        a.push(2);
        let mut b = Fnv::default();
        b.push(2);
        b.push(1);
        assert_ne!(a.finish(), b.finish());
    }
}
