//! Online statistics for simulation output analysis.
//!
//! * [`TimeWeighted`] — the time-weighted average of a piecewise-constant
//!   signal (e.g. "bandwidth currently reserved"), the estimator the paper's
//!   simulation uses for average bandwidth.

use crate::time::SimTime;

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
