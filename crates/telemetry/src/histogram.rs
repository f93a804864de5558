//! Fixed-footprint streaming latency histogram.
//!
//! Lives here, below `bliss_serve` in the crate DAG, so the serving
//! report (`bliss_serve::LatencyStats::from_histogram`) and the soak
//! harness in `bliss_bench` share one implementation.

use serde::{Deserialize, Serialize};

/// Number of fixed geometric latency buckets in a [`StreamingHistogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Lower edge of bucket 0, in seconds (1 µs).
pub const HISTOGRAM_BASE_S: f64 = 1e-6;

/// Geometric growth factor between consecutive bucket edges (√2 — at most
/// ~41% relative quantile error, and 64 buckets then span 1 µs to ~50 min,
/// far past any virtual-time frame latency this simulator can produce).
pub const HISTOGRAM_GROWTH: f64 = std::f64::consts::SQRT_2;

/// A fixed-footprint streaming latency histogram.
///
/// Buckets are geometric: bucket `i` covers
/// `[BASE·G^i, BASE·G^(i+1))` seconds, with underflow clamped into bucket 0
/// and overflow into the last bucket. [`StreamingHistogram::record`] is a
/// branch-light index increment — no allocation, no sorting, no retained
/// samples — so it can absorb an unbounded stream at constant memory. The
/// exact maximum is tracked on the side so the tail of the report is not
/// bucket-quantised.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum_s: f64,
    max_s: f64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        StreamingHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_s: 0.0,
            max_s: 0.0,
        }
    }

    /// The bucket index a latency of `seconds` files under.
    fn bucket_of(seconds: f64) -> usize {
        if seconds < HISTOGRAM_BASE_S {
            return 0;
        }
        // log_G(x / BASE) with G = 2^(1/2) is 2·log2(x / BASE).
        let idx = (2.0 * (seconds / HISTOGRAM_BASE_S).log2()).floor();
        (idx as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Exclusive upper edge of bucket `i`, in seconds.
    pub fn bucket_upper_s(i: usize) -> f64 {
        HISTOGRAM_BASE_S * HISTOGRAM_GROWTH.powi(i as i32 + 1)
    }

    /// Records one latency sample. Allocation-free.
    pub fn record(&mut self, seconds: f64) {
        self.buckets[Self::bucket_of(seconds)] += 1;
        self.count += 1;
        self.sum_s += seconds;
        if seconds > self.max_s {
            self.max_s = seconds;
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of every recorded sample, in seconds (0 when empty).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_s / self.count as f64
        }
    }

    /// Exact maximum recorded sample, in seconds (0 when empty).
    pub fn max_s(&self) -> f64 {
        self.max_s
    }

    /// The raw bucket counts (index `i` covers `[BASE·G^i, BASE·G^(i+1))`).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Nearest-rank quantile `q ∈ [0, 1]`, in seconds: the upper edge of
    /// the bucket holding the rank (clamped to the exact maximum, so
    /// `quantile_s(1.0) == max_s()`). Relative error is bounded by the
    /// bucket growth factor.
    pub fn quantile_s(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The overflow bucket has no honest upper edge; report the
                // exact tracked maximum there (and clamp everywhere else).
                if i == HISTOGRAM_BUCKETS - 1 {
                    return self.max_s;
                }
                return Self::bucket_upper_s(i).min(self.max_s);
            }
        }
        self.max_s
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_s += other.sum_s;
        self.max_s = self.max_s.max(other.max_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bracket_true_values() {
        let mut h = StreamingHistogram::new();
        assert_eq!(h.quantile_s(0.5), 0.0);
        for i in 1..=1000 {
            h.record(i as f64 * 1e-5); // 10 µs .. 10 ms
        }
        let p50 = h.quantile_s(0.50);
        assert!((5e-3 / HISTOGRAM_GROWTH..=5e-3 * HISTOGRAM_GROWTH).contains(&p50));
        assert_eq!(h.count(), 1000);
        assert!((h.mean_s() - 5.005e-3).abs() < 1e-9);
        assert_eq!(h.quantile_s(1.0), h.max_s());
    }

    #[test]
    fn merge_equals_sequential_record() {
        let (mut a, mut b, mut whole) = (
            StreamingHistogram::new(),
            StreamingHistogram::new(),
            StreamingHistogram::new(),
        );
        for i in 0..100 {
            let s = 1e-6 * (1 + i * 37 % 1000) as f64;
            if i % 2 == 0 {
                a.record(s)
            } else {
                b.record(s)
            }
            whole.record(s);
        }
        a.merge(&b);
        assert_eq!(a.buckets(), whole.buckets());
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max_s(), whole.max_s());
        // Summation order differs between the two paths; the means agree
        // to rounding.
        assert!((a.mean_s() - whole.mean_s()).abs() < 1e-12);
    }

    #[test]
    fn overflow_lands_in_last_bucket_with_exact_max() {
        let mut h = StreamingHistogram::new();
        h.record(1e9);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.quantile_s(1.0), 1e9);
    }
}
