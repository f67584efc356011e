//! Statistics primitives used across the simulator and the evaluation
//! harness: histograms, the per-tenant share integral behind the paper's
//! TLB and walker shares, and the geometric / arithmetic means the paper
//! reports.

use crate::{Cycle, TenantId};

/// A fixed-bucket histogram of integer samples (e.g., queue depths or
/// latencies). The final bucket is an overflow bucket.
///
/// # Examples
///
/// ```
/// use walksteal_sim_core::Histogram;
///
/// let mut h = Histogram::new(4, 10); // 4 buckets of width 10: [0,10), [10,20), ...
/// h.record(5);
/// h.record(35);
/// h.record(1000); // lands in the overflow bucket (the last one)
/// assert_eq!(h.bucket_count(0), 1);
/// assert_eq!(h.bucket_count(3), 2);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    width: u64,
    total: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets of `width` each.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or `width` is zero.
    #[must_use]
    pub fn new(buckets: usize, width: u64) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(width > 0, "bucket width must be positive");
        Histogram {
            buckets: vec![0; buckets],
            width,
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        let idx = ((sample / self.width) as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.total += 1;
        self.sum += u128::from(sample);
        self.max = self.max.max(sample);
    }

    /// Count in bucket `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn bucket_count(&self, idx: usize) -> u64 {
        self.buckets[idx]
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of recorded samples, or 0.0 if none.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest recorded sample (0 if none).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate p-th percentile (`0.0..=1.0`) using bucket lower bounds.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        if self.total == 0 {
            return 0;
        }
        let target = (p * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return i as u64 * self.width;
            }
        }
        (self.buckets.len() as u64 - 1) * self.width
    }
}

/// Per-tenant counts of one shared resource and their integral over
/// cycles: the time-averaged *share* of the resource each tenant held.
///
/// It computes both of the paper's Fig. 9 shares, of the L2 TLB's entries
/// and of the page-table walkers, and the trace replay rebuilds the walker
/// share with it, so the two agree bit for bit. A caller
/// [`advance`](Self::advance)s to a change's cycle before applying it.
///
/// # Examples
///
/// ```
/// use walksteal_sim_core::{Cycle, ShareIntegral, TenantId};
///
/// let t = TenantId(0);
/// let mut walkers = ShareIntegral::new(2, 4); // 2 tenants, 4 walkers
/// walkers.add(t, 2); // tenant 0 holds 2 of 4 walkers from cycle 0...
/// walkers.advance(Cycle(100));
/// walkers.sub(t, 2); // ...to cycle 100, then none until cycle 200
/// assert_eq!(walkers.share(t, Cycle(200)), 0.25);
/// ```
#[derive(Debug, Clone)]
pub struct ShareIntegral {
    counts: Vec<usize>,
    /// Integral of each count over `[0, last]`.
    integral: Vec<f64>,
    last: Cycle,
    capacity: usize,
}

impl ShareIntegral {
    /// Zero counts for `n_tenants` tenants of a resource with `capacity`
    /// units, the denominator of every share.
    #[must_use]
    pub fn new(n_tenants: usize, capacity: usize) -> Self {
        ShareIntegral {
            counts: vec![0; n_tenants],
            integral: vec![0.0; n_tenants],
            last: Cycle::ZERO,
            capacity,
        }
    }

    /// Integrates every tenant's count up to `now`. A `now` at or before
    /// the last advance is a no-op.
    #[inline]
    pub fn advance(&mut self, now: Cycle) {
        let dt = now.saturating_since(self.last) as f64;
        if dt > 0.0 {
            for (acc, &c) in self.integral.iter_mut().zip(&self.counts) {
                *acc += c as f64 * dt;
            }
            self.last = now;
        }
    }

    /// Adds `n` units to `tenant`'s count.
    #[inline]
    pub fn add(&mut self, tenant: TenantId, n: usize) {
        self.counts[tenant.index()] += n;
    }

    /// Removes `n` units from `tenant`'s count.
    #[inline]
    pub fn sub(&mut self, tenant: TenantId, n: usize) {
        self.counts[tenant.index()] -= n;
    }

    /// Units `tenant` holds now.
    #[must_use]
    pub fn count(&self, tenant: TenantId) -> usize {
        self.counts[tenant.index()]
    }

    /// Units each tenant holds now, indexed by tenant.
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Time-averaged fraction of the capacity `tenant` held over
    /// `[0, now]`; 0 at cycle 0.
    #[must_use]
    pub fn share(&self, tenant: TenantId, now: Cycle) -> f64 {
        let t = tenant.index();
        let dt = now.saturating_since(self.last) as f64;
        let integral = self.integral[t] + self.counts[t] as f64 * dt;
        let denom = now.0 as f64 * self.capacity as f64;
        if denom == 0.0 {
            0.0
        } else {
            integral / denom
        }
    }
}

/// Geometric mean of strictly positive values; non-positive entries are
/// skipped. Returns 1.0 for an empty (or all-skipped) input — the identity of
/// a normalized-speedup product.
///
/// # Examples
///
/// ```
/// use walksteal_sim_core::gmean;
///
/// let g = gmean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// assert_eq!(gmean(&[]), 1.0);
/// ```
#[must_use]
pub fn gmean(values: &[f64]) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0u64;
    for &v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Arithmetic mean; returns 0.0 for an empty input.
///
/// # Examples
///
/// ```
/// use walksteal_sim_core::amean;
///
/// assert_eq!(amean(&[1.0, 2.0, 3.0]), 2.0);
/// assert_eq!(amean(&[]), 0.0);
/// ```
#[must_use]
pub fn amean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(3, 10);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(25);
        h.record(99999);
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 2);
        assert_eq!(h.total(), 5);
        assert_eq!(h.max(), 99999);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new(10, 1);
        h.record(2);
        h.record(4);
        assert_eq!(h.mean(), 3.0);
    }

    #[test]
    fn histogram_percentile() {
        let mut h = Histogram::new(100, 1);
        for i in 0..100 {
            h.record(i);
        }
        assert_eq!(h.percentile(0.5), 49);
        assert_eq!(h.percentile(1.0), 99);
        assert_eq!(h.percentile(0.0), 0);
    }

    #[test]
    fn histogram_empty_percentile_is_zero() {
        let h = Histogram::new(4, 2);
        assert_eq!(h.percentile(0.9), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_zero_buckets_panics() {
        let _ = Histogram::new(0, 1);
    }

    const T0: TenantId = TenantId(0);
    const T1: TenantId = TenantId(1);

    #[test]
    fn share_integrates_across_count_changes() {
        let mut s = ShareIntegral::new(2, 4);
        s.add(T0, 2);
        s.add(T1, 1);
        s.advance(Cycle(100));
        s.sub(T0, 1);
        s.add(T1, 2);
        s.advance(Cycle(300));
        s.sub(T0, 1);
        // T0: 2 units for 100 cycles, 1 for 200, 0 for 100, out of 4 x 400.
        assert_eq!(s.share(T0, Cycle(400)), 400.0 / 1600.0);
        // T1: 1 unit for 100 cycles, then 3 for 300.
        assert_eq!(s.share(T1, Cycle(400)), 1000.0 / 1600.0);
        assert_eq!((s.count(T0), s.count(T1)), (0, 3));
        assert_eq!(s.counts(), &[0, 3]);
    }

    #[test]
    fn advance_to_an_earlier_cycle_is_a_no_op() {
        let mut s = ShareIntegral::new(1, 2);
        s.add(T0, 1);
        s.advance(Cycle(50));
        s.advance(Cycle(10));
        s.add(T0, 1);
        // The count changed at cycle 50, not 10: 1 unit over [0, 50), then
        // 2 over [50, 100).
        assert_eq!(s.share(T0, Cycle(100)), 150.0 / 200.0);
    }

    #[test]
    fn share_at_cycle_zero_is_zero() {
        let mut s = ShareIntegral::new(2, 8);
        s.add(T0, 8);
        assert_eq!(s.share(T0, Cycle::ZERO), 0.0);
        assert_eq!(s.share(T1, Cycle::ZERO), 0.0);
        assert_eq!(s.share(T0, Cycle(10)), 1.0);
    }

    #[test]
    fn gmean_matches_hand_computation() {
        let g = gmean(&[2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn gmean_skips_nonpositive() {
        let g = gmean(&[2.0, 0.0, -3.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn amean_basics() {
        assert_eq!(amean(&[4.0]), 4.0);
        assert!((amean(&[1.0, 2.0]) - 1.5).abs() < 1e-12);
    }
}
