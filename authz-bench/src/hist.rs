//! Fixed log-bucket latency histogram.
//!
//! Every timing the benchmark reports goes through this type, so a p99
//! means the same thing on every workload. Recording touches one counter
//! (no per-sample allocation). Buckets are exact below 32 and split each
//! power of two into 32 above it, so a bucket is at most 1/32 of its lower
//! bound wide; quantiles interpolate inside the bucket by rank, so two
//! runs do not collapse onto the same bucket edge.

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets needed for every `u64`: 32 exact ones plus 32 per remaining
/// power of two.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// Histogram of `u64` samples (nanoseconds by convention).
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let group = u64::from(e - SUB_BITS + 1);
    let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
    ((group << SUB_BITS) + sub) as usize
}

/// Smallest value in bucket `i` and the number of values it covers.
fn bucket_span(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = (i >> SUB_BITS) - 1;
    ((SUB + (i & (SUB - 1))) << shift, 1 << shift)
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist {
            counts: Box::new([0; BUCKETS]),
            n: 0,
        }
    }

    /// Add one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The value below which a share `q` (0..=1) of the samples lie,
    /// interpolated by rank inside the bucket that holds it. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.n as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (low, width) = bucket_span(i);
                let into = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return low as f64 + into * width as f64;
            }
            below += c;
        }
        unreachable!("rank {rank} lies within {} samples", self.n)
    }
}

/// The tail percentile a report may quote for `n` samples: the highest of
/// p99, p95, p90 that still has at least ten samples beyond it (p99 is the
/// highest the metrics quote). Returns the quantile and its label.
pub fn tail_quantile(n: u64) -> (f64, &'static str) {
    // (quantile, label, samples per one sample beyond it)
    const LADDER: [(f64, &str, u64); 3] =
        [(0.99, "p99", 100), (0.95, "p95", 20), (0.90, "p90", 10)];
    LADDER
        .into_iter()
        .find(|(_, _, one_in)| n / one_in >= 10)
        .map_or((0.5, "p50"), |(q, label, _)| (q, label))
}

/// Median of a list of numbers (mean of the middle two for an even
/// count). 0 for an empty list.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift, so the test does not depend on the rand shim.
    fn samples(seed: u64, n: usize, spread: u32) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Log-uniform over `spread` octaves: latencies look like this.
                let octave = (x >> 58) as u32 % spread;
                (1u64 << octave) + (x & ((1u64 << octave) - 1))
            })
            .collect()
    }

    #[test]
    fn buckets_tile_the_u64_range() {
        let mut expected_low = 0u64;
        for i in 0..BUCKETS {
            let (low, width) = bucket_span(i);
            assert_eq!(low, expected_low, "bucket {i}");
            assert_eq!(bucket_of(low), i);
            assert_eq!(bucket_of(low + (width - 1)), i);
            assert!(width == 1 || width * SUB <= low, "bucket {i} too wide");
            expected_low = low.wrapping_add(width);
        }
        assert_eq!(expected_low, 0, "last bucket ends at u64::MAX");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_match_a_sorted_vector_within_bucket_width() {
        for seed in [1, 2, 3] {
            let data = samples(seed, 50_000, 30);
            let mut h = Hist::new();
            data.iter().for_each(|&v| h.record(v));
            let mut sorted = data.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
                let exact = sorted[idx] as f64;
                let got = h.quantile(q);
                assert!(
                    (got - exact).abs() <= exact / 32.0 + 1.0,
                    "seed {seed} q {q}: histogram {got} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn merge_adds_the_samples() {
        let (mut a, mut b, mut both) = (Hist::new(), Hist::new(), Hist::new());
        for v in samples(9, 1000, 20) {
            a.record(v);
            both.record(v);
        }
        for v in samples(10, 1000, 20) {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 2000);
        assert_eq!(a.quantile(0.5), both.quantile(0.5));
        assert_eq!(Hist::new().quantile(0.5), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(0).1, "p50");
        assert_eq!(tail_quantile(99).1, "p50");
        assert_eq!(tail_quantile(100).1, "p90");
        assert_eq!(tail_quantile(200).1, "p95");
        assert_eq!(tail_quantile(999).1, "p95");
        assert_eq!(tail_quantile(1_000).1, "p99");
        assert_eq!(tail_quantile(100_000), (0.99, "p99"));
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
