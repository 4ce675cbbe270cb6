//! Order statistics over measured samples.

/// Median of `values` (sorts in place). 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Total number of samples.
    pub samples: usize,
}

/// Tail of `values` (sorts in place). With ten samples or fewer no
/// percentile has ten beyond it; the maximum is reported as the 100th.
pub fn tail(values: &mut [f64]) -> Tail {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n <= 10 {
        return Tail {
            value: values.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            samples: n,
        };
    }
    let index = n - 11;
    Tail { value: values[index], percentile: 100.0 * (index + 1) as f64 / n as f64, samples: n }
}

/// Log-linear latency histogram with 128 sub-buckets per power of two
/// (under 1% relative error), for samples too many to keep one by one.
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

impl LogHist {
    pub fn new() -> Self {
        LogHist { counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB as usize], total: 0 }
    }

    fn bucket(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros();
        let sub = (value >> (octave - SUB_BITS)) - SUB;
        ((octave - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// `[low, high)` value range of bucket `b`.
    fn range(b: usize) -> (f64, f64) {
        let b = b as u64;
        if b < 2 * SUB {
            return (b as f64, (b + 1) as f64);
        }
        let shift = b / SUB - 1;
        let low = ((SUB + b % SUB) << shift) as f64;
        (low, low + (1u64 << shift) as f64)
    }

    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.total += 1;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// Value at rank `rank` (0-based, ascending), interpolated inside its
    /// bucket.
    fn at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0u64;
        for (b, &count) in self.counts.iter().enumerate() {
            if count > 0 && seen + count > rank {
                let (low, high) = Self::range(b);
                return low + (high - low) * ((rank - seen) as f64 + 0.5) / count as f64;
            }
            seen += count;
        }
        0.0
    }

    pub fn median(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.at_rank((self.total - 1) / 2)
    }

    /// Same definition as [`tail`].
    pub fn tail(&self) -> Tail {
        let n = self.total as usize;
        if n == 0 {
            return Tail { value: 0.0, percentile: 100.0, samples: 0 };
        }
        if n <= 10 {
            return Tail { value: self.at_rank(self.total - 1), percentile: 100.0, samples: n };
        }
        let index = n - 11;
        Tail {
            value: self.at_rank(index as u64),
            percentile: 100.0 * (index + 1) as f64 / n as f64,
            samples: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&mut v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_tracks_exact_quantiles_closely() {
        let mut h = LogHist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert!((h.median() - 50_000.0).abs() / 50_000.0 < 0.01);
        let t = h.tail();
        assert!((t.value - 99_990.0).abs() / 99_990.0 < 0.01);
        for b in 0..h.counts.len() - 1 {
            assert_eq!(LogHist::range(b).1, LogHist::range(b + 1).0, "buckets tile at {b}");
        }
        for v in [0u64, 1, 127, 128, 255, 256, 1000, 1 << 40, u64::MAX] {
            let (lo, hi) = LogHist::range(LogHist::bucket(v));
            assert!(lo <= v as f64 && (v as f64) < hi || v == u64::MAX, "value {v}");
        }
    }
}
