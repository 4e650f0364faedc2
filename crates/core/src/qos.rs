//! Quality-of-Service types: bandwidth and the elastic min–max range model.
//!
//! The paper's elastic QoS (Section 2.2) is the *range* model: a client
//! specifies the minimum bandwidth required for acceptable service, the
//! maximum bandwidth it can exploit, and a utility used when extra
//! resources are divided. Reservations move in multiples of a fixed
//! *increment size* `Δ`, giving `N = 1 + (B_max − B_min)/Δ` discrete levels
//! — the states of the paper's Markov chain.

use crate::error::QosError;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A bandwidth amount in kilobits per second.
///
/// Integer Kbps keeps the elastic-allocation arithmetic exact: levels,
/// increments, and link budgets never accumulate floating-point drift.
///
/// # Examples
///
/// ```
/// use drqos_core::qos::Bandwidth;
///
/// let link = Bandwidth::mbps(10);
/// let channel = Bandwidth::kbps(500);
/// assert_eq!(link - channel, Bandwidth::kbps(9_500));
/// assert_eq!(channel.to_string(), "500 Kbps");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Creates a bandwidth of `v` Kbps.
    pub const fn kbps(v: u64) -> Self {
        Bandwidth(v)
    }

    /// Creates a bandwidth of `v` Mbps.
    pub const fn mbps(v: u64) -> Self {
        Bandwidth(v * 1_000)
    }

    /// The value in Kbps.
    pub const fn as_kbps(self) -> u64 {
        self.0
    }

    /// The value in Kbps as `f64` (for statistics).
    pub fn as_kbps_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by an integer count (e.g. `increment × level`).
    pub fn times(self, n: u64) -> Bandwidth {
        Bandwidth(self.0 * n)
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;

    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;

    /// # Panics
    ///
    /// Panics on underflow (a bookkeeping bug); use
    /// [`Bandwidth::saturating_sub`] when underflow is expected.
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(
            self.0
                .checked_sub(rhs.0)
                .expect("bandwidth subtraction underflow"),
        )
    }
}

impl SubAssign for Bandwidth {
    fn sub_assign(&mut self, rhs: Bandwidth) {
        *self = *self - rhs;
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, Add::add)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Kbps", self.0)
    }
}

/// An elastic (min–max range) QoS specification.
///
/// # Examples
///
/// ```
/// use drqos_core::qos::{Bandwidth, ElasticQos};
///
/// // The paper's video service: 100–500 Kbps in 50 Kbps steps.
/// let qos = ElasticQos::new(
///     Bandwidth::kbps(100),
///     Bandwidth::kbps(500),
///     Bandwidth::kbps(50),
///     1.0,
/// )?;
/// assert_eq!(qos.num_levels(), 9);
/// assert_eq!(qos.level_bandwidth(8), Bandwidth::kbps(500));
/// # Ok::<(), drqos_core::error::QosError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticQos {
    min: Bandwidth,
    max: Bandwidth,
    increment: Bandwidth,
    utility: f64,
}

impl ElasticQos {
    /// Creates an elastic QoS range.
    ///
    /// # Errors
    ///
    /// * [`QosError::ZeroMinimum`] if `min` is zero.
    /// * [`QosError::MaxBelowMin`] if `max < min`.
    /// * [`QosError::ZeroIncrement`] if `max > min` but `increment` is zero.
    /// * [`QosError::IncrementDoesNotDivideRange`] if `(max − min)` is not
    ///   a multiple of `increment`.
    /// * [`QosError::InvalidUtility`] if `utility` is not finite and
    ///   positive.
    pub fn new(
        min: Bandwidth,
        max: Bandwidth,
        increment: Bandwidth,
        utility: f64,
    ) -> Result<Self, QosError> {
        if min == Bandwidth::ZERO {
            return Err(QosError::ZeroMinimum);
        }
        if max < min {
            return Err(QosError::MaxBelowMin);
        }
        if max > min {
            if increment == Bandwidth::ZERO {
                return Err(QosError::ZeroIncrement);
            }
            if !(max.as_kbps() - min.as_kbps()).is_multiple_of(increment.as_kbps()) {
                return Err(QosError::IncrementDoesNotDivideRange);
            }
        }
        if !utility.is_finite() || utility <= 0.0 {
            return Err(QosError::InvalidUtility(utility));
        }
        Ok(Self {
            min,
            max,
            increment,
            utility,
        })
    }

    /// A rigid (single-value) QoS — the baseline scheme the paper improves
    /// on, where `min == max` and no extra resources are ever taken.
    ///
    /// # Errors
    ///
    /// Returns [`QosError::ZeroMinimum`] if `bandwidth` is zero.
    pub fn rigid(bandwidth: Bandwidth) -> Result<Self, QosError> {
        Self::new(bandwidth, bandwidth, Bandwidth::kbps(1), 1.0)
    }

    /// The paper's evaluation QoS: 100–500 Kbps with the given increment
    /// (50 Kbps → 9 states, 100 Kbps → 5 states) and unit utility.
    ///
    /// # Panics
    ///
    /// Panics if `increment_kbps` does not divide 400 (only used with the
    /// paper's 50/100 values).
    pub fn paper_video(increment_kbps: u64) -> Self {
        Self::new(
            Bandwidth::kbps(100),
            Bandwidth::kbps(500),
            Bandwidth::kbps(increment_kbps),
            1.0,
        )
        .expect("paper parameters are valid")
    }

    /// Minimum (guaranteed) bandwidth.
    pub fn min(&self) -> Bandwidth {
        self.min
    }

    /// Maximum (best-effort ceiling) bandwidth.
    pub fn max(&self) -> Bandwidth {
        self.max
    }

    /// Increment size `Δ`.
    pub fn increment(&self) -> Bandwidth {
        self.increment
    }

    /// Utility / coefficient used by the adaptation policy.
    pub fn utility(&self) -> f64 {
        self.utility
    }

    /// Returns a copy with a different utility.
    ///
    /// # Errors
    ///
    /// Returns [`QosError::InvalidUtility`] if `utility` is not finite and
    /// positive.
    pub fn with_utility(mut self, utility: f64) -> Result<Self, QosError> {
        if !utility.is_finite() || utility <= 0.0 {
            return Err(QosError::InvalidUtility(utility));
        }
        self.utility = utility;
        Ok(self)
    }

    /// Number of bandwidth levels `N = 1 + (max − min)/Δ` — the state count
    /// of the paper's Markov chain.
    pub fn num_levels(&self) -> usize {
        if self.max == self.min {
            1
        } else {
            1 + ((self.max.as_kbps() - self.min.as_kbps()) / self.increment.as_kbps()) as usize
        }
    }

    /// The highest level index (`N − 1`).
    pub fn max_level(&self) -> usize {
        self.num_levels() - 1
    }

    /// The bandwidth at `level`: `min + level·Δ`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level_bandwidth(&self, level: usize) -> Bandwidth {
        assert!(level < self.num_levels(), "level {level} out of range");
        self.min + self.increment.times(level as u64)
    }
}

/// How extra resources are divided among elastic channels (Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdaptationPolicy {
    /// The max-utility scheme (Han, 1998): extra increments go to the
    /// channel with the highest utility until it is saturated, "allowing a
    /// real-time channel to monopolize all the extra resources even when
    /// its utility is slightly higher than the others".
    MaxUtility,
    /// The coefficient scheme (Buttazzo et al., 1998): extra increments are
    /// divided in proportion to each channel's coefficient — weighted
    /// max–min fairness on the increment grid. With equal coefficients this
    /// is the "fair distribution of resources" the paper's experiments use.
    #[default]
    Coefficient,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_constructors() {
        assert_eq!(Bandwidth::mbps(10), Bandwidth::kbps(10_000));
        assert_eq!(Bandwidth::kbps(5).as_kbps(), 5);
        assert_eq!(Bandwidth::ZERO.as_kbps(), 0);
        assert_eq!(Bandwidth::kbps(7).as_kbps_f64(), 7.0);
    }

    #[test]
    fn bandwidth_arithmetic() {
        let a = Bandwidth::kbps(100);
        let b = Bandwidth::kbps(30);
        assert_eq!(a + b, Bandwidth::kbps(130));
        assert_eq!(a - b, Bandwidth::kbps(70));
        assert_eq!(b.saturating_sub(a), Bandwidth::ZERO);
        assert_eq!(b.times(3), Bandwidth::kbps(90));
        let mut c = a;
        c += b;
        c -= Bandwidth::kbps(10);
        assert_eq!(c, Bandwidth::kbps(120));
        let total: Bandwidth = [a, b].into_iter().sum();
        assert_eq!(total, Bandwidth::kbps(130));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn bandwidth_sub_underflow_panics() {
        let _ = Bandwidth::kbps(1) - Bandwidth::kbps(2);
    }

    #[test]
    fn bandwidth_ordering_and_display() {
        assert!(Bandwidth::kbps(1) < Bandwidth::kbps(2));
        assert_eq!(Bandwidth::kbps(500).to_string(), "500 Kbps");
    }

    #[test]
    fn paper_video_levels() {
        let q50 = ElasticQos::paper_video(50);
        assert_eq!(q50.num_levels(), 9);
        assert_eq!(q50.max_level(), 8);
        let q100 = ElasticQos::paper_video(100);
        assert_eq!(q100.num_levels(), 5);
        assert_eq!(q100.level_bandwidth(0), Bandwidth::kbps(100));
        assert_eq!(q100.level_bandwidth(4), Bandwidth::kbps(500));
    }

    #[test]
    fn validation_errors() {
        let k = Bandwidth::kbps;
        assert_eq!(
            ElasticQos::new(Bandwidth::ZERO, k(10), k(1), 1.0),
            Err(QosError::ZeroMinimum)
        );
        assert_eq!(
            ElasticQos::new(k(10), k(5), k(1), 1.0),
            Err(QosError::MaxBelowMin)
        );
        assert_eq!(
            ElasticQos::new(k(5), k(10), Bandwidth::ZERO, 1.0),
            Err(QosError::ZeroIncrement)
        );
        assert_eq!(
            ElasticQos::new(k(100), k(500), k(150), 1.0),
            Err(QosError::IncrementDoesNotDivideRange)
        );
        assert!(matches!(
            ElasticQos::new(k(5), k(10), k(5), 0.0),
            Err(QosError::InvalidUtility(_))
        ));
        assert!(matches!(
            ElasticQos::new(k(5), k(10), k(5), f64::INFINITY),
            Err(QosError::InvalidUtility(_))
        ));
    }

    #[test]
    fn rigid_has_one_level() {
        let q = ElasticQos::rigid(Bandwidth::kbps(100)).unwrap();
        assert_eq!(q.min(), q.max());
        assert_eq!(q.num_levels(), 1);
        assert_eq!(q.level_bandwidth(0), Bandwidth::kbps(100));
        assert!(ElasticQos::rigid(Bandwidth::ZERO).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn level_bandwidth_bounds_checked() {
        ElasticQos::paper_video(50).level_bandwidth(9);
    }

    #[test]
    fn equal_min_max_is_a_single_state_chain() {
        let k = Bandwidth::kbps;
        // B_min == B_max degenerates to the rigid single-state chain no
        // matter what increment is supplied — including zero.
        for inc in [0u64, 1, 50] {
            let q = ElasticQos::new(k(300), k(300), k(inc), 1.0).unwrap();
            assert_eq!(q.num_levels(), 1, "inc {inc}");
            assert_eq!(q.max_level(), 0, "inc {inc}");
            assert_eq!(q.level_bandwidth(0), k(300), "inc {inc}");
        }
    }

    #[test]
    fn increment_must_divide_range_exactly() {
        let k = Bandwidth::kbps;
        // Δ larger than the range, Δ equal to the range, and a Δ that
        // leaves a remainder: only the exact divisor is accepted.
        assert_eq!(
            ElasticQos::new(k(100), k(500), k(600), 1.0),
            Err(QosError::IncrementDoesNotDivideRange)
        );
        assert_eq!(
            ElasticQos::new(k(100), k(500), k(300), 1.0),
            Err(QosError::IncrementDoesNotDivideRange)
        );
        let q = ElasticQos::new(k(100), k(500), k(400), 1.0).unwrap();
        assert_eq!(q.num_levels(), 2);
        assert_eq!(q.level_bandwidth(1), k(500));
    }

    #[test]
    fn zero_increment_rejected_only_when_elastic() {
        let k = Bandwidth::kbps;
        assert_eq!(
            ElasticQos::new(k(100), k(101), Bandwidth::ZERO, 1.0),
            Err(QosError::ZeroIncrement)
        );
        assert!(ElasticQos::new(k(100), k(100), Bandwidth::ZERO, 1.0).is_ok());
    }

    #[test]
    fn with_utility_replaces() {
        let q = ElasticQos::paper_video(50).with_utility(2.5).unwrap();
        assert_eq!(q.utility(), 2.5);
        assert!(ElasticQos::paper_video(50).with_utility(-1.0).is_err());
    }

    #[test]
    fn default_policy_is_coefficient() {
        assert_eq!(AdaptationPolicy::default(), AdaptationPolicy::Coefficient);
    }
}
