//! Order statistics over timing samples, and the behaviour digest.

/// Percentiles the report may quote, highest first.
const LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest percentile of [`LADDER`] that has at least ten of `n`
/// samples beyond it — the tail a sample count of `n` can support.
/// `None` when not even the median has ten samples above it.
#[must_use]
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Sub-buckets per power of two in [`Hist`]: readings are within
/// 1/2^`SUB_BITS` (0.8 %) of the sample.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of non-negative samples (nanoseconds): exact
/// below 128, then 128 buckets per power of two. Its size is fixed, so
/// pooling samples across rounds costs no memory that grows with the
/// run — `peak_rss_mb` stays the program's.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; ((64 - SUB_BITS + 1) as usize) << SUB_BITS],
            n: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) + (v >> shift) as usize - SUB as usize
    }

    /// The middle of bucket `b`'s value range.
    fn value(b: usize) -> u64 {
        let (group, offset) = (b >> SUB_BITS, b as u64 & (SUB - 1));
        if group == 0 {
            return offset;
        }
        let shift = group as u32 - 1;
        ((SUB + offset) << shift) + ((1u64 << shift) - 1) / 2
    }

    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile `p` (in `0..=100`), read to the bucket's
    /// middle; 0 when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.n as f64)
            .ceil()
            .clamp(1.0, self.n as f64) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(b);
            }
        }
        unreachable!("rank {rank} is at most the {} samples counted", self.n)
    }
}

impl FromIterator<u64> for Hist {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Hist::default();
        iter.into_iter().for_each(|v| h.record(v));
        h
    }
}

/// Median of `values` (mean of the middle two for even counts); 0 for an
/// empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Interquartile mean of `values`: the mean of those between the first
/// and third quartiles (the middle half by rank, at least one value).
/// Robust to the odd stalled round like a median, but it moves smoothly
/// when round times cluster in two modes, where a median jumps between
/// them. 0 for an empty slice.
#[must_use]
pub fn iqm(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// An order-sensitive digest of a stream of `u64` words (FNV-style
/// multiply-xor per word, with a final avalanche): the same on every
/// machine and toolchain for the same sequence.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `word` into the digest.
    pub fn push(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// The digest folded to 52 bits, so it prints exactly as a JSON
    /// number.
    #[must_use]
    pub fn value(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h & ((1 << 52) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank percentile `p` (in `0..=100`) of `sorted` (ascending).
    /// Returns 0 for an empty slice.
    fn percentile(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples leaves exactly 10 beyond it.
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn histogram_reads_within_its_resolution() {
        let h: Hist = (1..=100_000u64).collect();
        assert_eq!(h.count(), 100_000);
        for p in [50.0, 90.0, 99.0, 99.9] {
            let exact = percentile(&(1..=100_000u64).collect::<Vec<_>>(), p) as f64;
            let read = h.percentile(p) as f64;
            assert!(
                (read - exact).abs() / exact < 1.0 / 128.0,
                "p{p}: {read} vs {exact}"
            );
        }
        // Exact below 128, and at the extremes of the range.
        let small: Hist = [3u64, 5, 7].into_iter().collect();
        assert_eq!(small.percentile(50.0), 5);
        let big: Hist = [u64::MAX].into_iter().collect();
        assert!(big.percentile(50.0) > u64::MAX / 2);
        assert_eq!(Hist::default().percentile(50.0), 0);
    }

    #[test]
    fn merged_histograms_pool_their_samples() {
        let mut a: Hist = (0..100u64).collect();
        let b: Hist = (100..200u64).collect();
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.percentile(50.0), 99);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(iqm(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(iqm(&[2.0, 4.0]), 3.0);
        assert_eq!(iqm(&[7.0]), 7.0);
        assert_eq!(iqm(&[]), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive_and_fits_a_json_number() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.push(1);
        a.push(2);
        b.push(2);
        b.push(1);
        assert_ne!(a.value(), b.value());
        assert!(a.value() < 1 << 52);
    }
}
