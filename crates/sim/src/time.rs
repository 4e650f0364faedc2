//! Virtual simulation time.
//!
//! Simulation time is a non-negative, finite `f64` wrapped in [`SimTime`],
//! which provides a total order (so it can live in a priority queue) and
//! validated arithmetic.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};

/// A point in virtual simulation time.
///
/// Invariant: the wrapped value is finite and non-negative. This makes
/// `SimTime` totally ordered and `Eq`, unlike a raw `f64`.
///
/// # Examples
///
/// ```
/// use drqos_sim::time::SimTime;
///
/// let t = SimTime::ZERO + 5.0;
/// assert!(t > SimTime::ZERO);
/// assert_eq!(t.as_secs(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// The origin of simulation time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a `SimTime` from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or infinite.
    pub fn new(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative, got {secs}"
        );
        SimTime(secs)
    }

    /// The wrapped value, in (virtual) seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Values are finite by construction, so total_cmp agrees with the
        // usual order.
        self.0.total_cmp(&other.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    /// Advances time by `rhs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative or non-finite.
    fn add(self, rhs: f64) -> SimTime {
        SimTime::new(self.0 + rhs)
    }
}

impl Sub for SimTime {
    type Output = f64;

    /// The (possibly negative) elapsed seconds between two instants.
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn add_advances() {
        let t = SimTime::new(1.5) + 2.5;
        assert_eq!(t.as_secs(), 4.0);
    }

    #[test]
    fn sub_gives_elapsed() {
        assert_eq!(SimTime::new(5.0) - SimTime::new(2.0), 3.0);
        assert_eq!(SimTime::new(2.0) - SimTime::new(5.0), -3.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_rejected() {
        SimTime::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_time_rejected() {
        SimTime::new(f64::NAN);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::new(1.5).to_string(), "t=1.500000");
    }
}
