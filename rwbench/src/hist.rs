//! A log-linear histogram of tick counts for wait-time quantiles.
//!
//! Values below [`EXACT`] ticks get a bucket each; above that every octave
//! is split into [`SUB`] equal buckets, so a quantile is off by at most
//! 1/[`SUB`] of its value. Quantiles interpolate linearly inside the
//! bucket they fall in.

const EXACT_BITS: u32 = 10;
const EXACT: u64 = 1 << EXACT_BITS;
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const OCTAVES: usize = (64 - EXACT_BITS) as usize;
const BUCKETS: usize = EXACT as usize + OCTAVES * SUB as usize;

/// Counts of tick values.
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let log = 63 - v.leading_zeros();
    let octave = (log - EXACT_BITS) as usize;
    let sub = ((v >> (log - SUB_BITS)) & (SUB - 1)) as usize;
    EXACT as usize + octave * SUB as usize + sub
}

/// The lowest value of bucket `b` and the bucket's width.
fn bounds_of(b: usize) -> (f64, f64) {
    if b < EXACT as usize {
        return (b as f64, 1.0);
    }
    let octave = (b - EXACT as usize) / SUB as usize;
    let sub = ((b - EXACT as usize) % SUB as usize) as u64;
    let shift = octave as u32 + EXACT_BITS - SUB_BITS;
    (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    /// Counts one value.
    #[inline]
    pub fn record(&mut self, ticks: u64) {
        self.counts[bucket_of(ticks)] += 1;
        self.total += 1;
    }

    /// Writes every page of the counts, so that the first values counted
    /// in a measured phase take no page faults.
    pub fn prefault(&mut self) {
        for c in self.counts.iter_mut().step_by(512) {
            *c = std::hint::black_box(0);
        }
    }

    /// Number of values counted.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Adds every count of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q` quantile (0 < q < 1) in ticks; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q * self.total as f64;
        let mut below = 0.0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if below + c >= target {
                let (lo, width) = bounds_of(b);
                return lo + width * ((target - below) / c).clamp(0.0, 1.0);
            }
            below += c;
        }
        let (lo, width) = bounds_of(BUCKETS - 1);
        lo + width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for v in [0, 1, 1023, 1024, 1025, 2047, 2048, 99_999, u64::MAX / 3] {
            let (lo, width) = bounds_of(bucket_of(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v}: {lo} {width}"
            );
        }
    }

    #[test]
    fn quantiles_of_a_uniform_run() {
        let mut h = Hist::default();
        for v in 0..1000 {
            h.record(v);
        }
        assert!((h.quantile(0.5) - 500.0).abs() <= 1.0);
        assert!((h.quantile(0.99) - 990.0).abs() <= 1.0);
        assert_eq!(h.len(), 1000);
    }
}
