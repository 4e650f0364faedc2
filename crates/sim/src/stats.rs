//! Online statistics for simulation output analysis.
//!
//! * [`Welford`] — numerically stable running mean/variance of i.i.d.
//!   samples.
//! * [`TimeWeighted`] — the time-weighted average of a piecewise-constant
//!   signal (e.g. "bandwidth currently reserved"), the estimator the paper's
//!   simulation uses for average bandwidth.
//! * [`Counter`] — a labelled tally of discrete outcomes.

use crate::time::SimTime;

/// Welford's online algorithm for mean and variance.
///
/// # Examples
///
/// ```
/// use drqos_sim::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 2.5);
/// assert!((w.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

/// Time-weighted average of a piecewise-constant signal.
///
/// Feed it the signal's value whenever the value *changes*; the accumulator
/// integrates value·dt between updates.
///
/// # Examples
///
/// ```
/// use drqos_sim::stats::TimeWeighted;
/// use drqos_sim::time::SimTime;
///
/// let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
/// tw.update(SimTime::new(1.0), 10.0); // signal was 0 on [0,1)
/// tw.update(SimTime::new(3.0), 0.0);  // signal was 10 on [1,3)
/// assert_eq!(tw.mean_until(SimTime::new(3.0)), 20.0 / 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeighted {
    start: SimTime,
    last_time: SimTime,
    last_value: f64,
    integral: f64,
}

impl TimeWeighted {
    /// Starts integrating at `start` with initial signal `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        Self {
            start,
            last_time: start,
            last_value: value,
            integral: 0.0,
        }
    }

    /// Records that the signal changed to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn update(&mut self, now: SimTime, value: f64) {
        assert!(
            now >= self.last_time,
            "TimeWeighted updates must be in time order"
        );
        self.integral += self.last_value * (now - self.last_time);
        self.last_time = now;
        self.last_value = value;
    }

    /// The integral of the signal from start until `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last update.
    pub fn integral_until(&self, now: SimTime) -> f64 {
        assert!(now >= self.last_time, "cannot integrate into the past");
        self.integral + self.last_value * (now - self.last_time)
    }

    /// The time-weighted mean over `[start, now]`, or the current value if
    /// no time has elapsed.
    pub fn mean_until(&self, now: SimTime) -> f64 {
        let elapsed = now - self.start;
        if elapsed <= 0.0 {
            self.last_value
        } else {
            self.integral_until(now) / elapsed
        }
    }

    /// The most recently recorded signal value.
    pub fn current(&self) -> f64 {
        self.last_value
    }
}

/// A small labelled tally of discrete outcomes (accepted / rejected / ...).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counter {
    entries: Vec<(String, u64)>,
}

impl Counter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments `label` by `n`.
    pub fn add(&mut self, label: &str, n: u64) {
        if let Some(e) = self.entries.iter_mut().find(|(l, _)| l == label) {
            e.1 += n;
        } else {
            self.entries.push((label.to_string(), n));
        }
    }

    /// The current count for `label` (zero if never bumped).
    pub fn get(&self, label: &str) -> u64 {
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |(_, n)| *n)
    }

    /// Iterates over `(label, count)` pairs in first-seen order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(l, n)| (l.as_str(), *n))
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|(_, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_empty() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn welford_known_values() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.mean(), 5.0);
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_single_sample() {
        let mut w = Welford::new();
        w.push(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.variance(), 0.0);
    }

    /// Pins the count < 2 behaviour: a naive `m2 / (count - 1)` underflows
    /// the unsigned count (or yields NaN) for 0 or 1 samples. The variance
    /// must be exactly 0.0 — finite, not NaN — so assertions downstream
    /// never see poisoned values.
    #[test]
    fn welford_spread_is_zero_below_two_samples() {
        let mut w = Welford::new();
        for expected_count in [0u64, 1] {
            assert_eq!(w.count(), expected_count);
            assert_eq!(w.variance(), 0.0, "count {expected_count}");
            w.push(42.0);
        }
        // Past the guard, spread becomes meaningful: samples are now
        // {42, 42, 44}, whose unbiased variance is 8/3 / 2 = 4/3.
        w.push(44.0);
        assert!((w.variance() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        let before = a.clone();
        a.merge(&Welford::new());
        assert_eq!(a, before);

        let mut empty = Welford::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn time_weighted_constant_signal() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 5.0);
        tw.update(SimTime::new(10.0), 5.0);
        assert_eq!(tw.mean_until(SimTime::new(10.0)), 5.0);
    }

    #[test]
    fn time_weighted_step_signal() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.update(SimTime::new(2.0), 6.0);
        // 0 on [0,2), 6 on [2,4) → mean = 12/4 = 3
        assert_eq!(tw.mean_until(SimTime::new(4.0)), 3.0);
    }

    #[test]
    fn time_weighted_zero_elapsed_returns_current() {
        let tw = TimeWeighted::new(SimTime::new(1.0), 9.0);
        assert_eq!(tw.mean_until(SimTime::new(1.0)), 9.0);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn time_weighted_rejects_backwards_update() {
        let mut tw = TimeWeighted::new(SimTime::new(5.0), 0.0);
        tw.update(SimTime::new(1.0), 1.0);
    }

    #[test]
    fn counter_tallies() {
        let mut c = Counter::new();
        c.add("accepted", 1);
        c.add("accepted", 1);
        c.add("rejected", 3);
        assert_eq!(c.get("accepted"), 2);
        assert_eq!(c.get("rejected"), 3);
        assert_eq!(c.get("never"), 0);
        assert_eq!(c.total(), 5);
        let labels: Vec<&str> = c.iter().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["accepted", "rejected"]);
    }
}
