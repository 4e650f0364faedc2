//! Random-variate distributions used by the workload and fault models.
//!
//! All distributions implement [`Distribution`] and draw from the
//! workspace's deterministic [`crate::rng::Rng`].
//!
//! # Examples
//!
//! ```
//! use drqos_sim::dist::{Distribution, Exponential};
//! use drqos_sim::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(1);
//! let inter_arrival = Exponential::new(0.001).unwrap();
//! let dt = inter_arrival.sample(&mut rng);
//! assert!(dt > 0.0);
//! ```

use crate::rng::Rng;
use std::fmt;

/// Error returned when constructing a distribution with invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidParameter {
    what: String,
}

impl InvalidParameter {
    pub(crate) fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

impl fmt::Display for InvalidParameter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for InvalidParameter {}

/// A source of random variates of type `T`.
pub trait Distribution<T> {
    /// Draws one variate.
    fn sample(&self, rng: &mut Rng) -> T;

    /// Draws `n` variates into a `Vec`.
    fn sample_n(&self, rng: &mut Rng, n: usize) -> Vec<T> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// The exponential distribution with rate `λ` (mean `1/λ`).
///
/// Inter-arrival times of DR-connection requests, holding times, and link
/// failure inter-arrival times are all exponential in the paper's model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameter`] if `rate` is not finite and positive.
    pub fn new(rate: f64) -> Result<Self, InvalidParameter> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(InvalidParameter::new(format!(
                "exponential rate must be finite and positive, got {rate}"
            )));
        }
        Ok(Self { rate })
    }

    /// Creates an exponential distribution from its mean (`1/rate`).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameter`] if `mean` is not finite and positive.
    pub fn from_mean(mean: f64) -> Result<Self, InvalidParameter> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(InvalidParameter::new(format!(
                "exponential mean must be finite and positive, got {mean}"
            )));
        }
        Ok(Self { rate: 1.0 / mean })
    }

    /// The rate parameter `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The mean `1/λ`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

impl Distribution<f64> for Exponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse transform on (0, 1]; ln of the open interval avoids -inf.
        -rng.next_f64_open().ln() / self.rate
    }
}

/// The Pareto (type I) distribution with scale `x_m` and shape `α`.
///
/// Heavy-tailed holding times for the adversarial scenarios: the paper's
/// Markov model assumes exponential holding, so Pareto holding (finite
/// mean only for `α > 1`, infinite variance for `α ≤ 2`) is exactly the
/// regime where its predictions should start to break.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with the given scale and shape.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameter`] unless both parameters are finite and
    /// positive.
    pub fn new(scale: f64, shape: f64) -> Result<Self, InvalidParameter> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(InvalidParameter::new(format!(
                "Pareto scale must be finite and positive, got {scale}"
            )));
        }
        if !shape.is_finite() || shape <= 0.0 {
            return Err(InvalidParameter::new(format!(
                "Pareto shape must be finite and positive, got {shape}"
            )));
        }
        Ok(Self { scale, shape })
    }

    /// Creates a Pareto distribution with the given mean and shape.
    ///
    /// Solves `mean = α·x_m / (α - 1)` for the scale, so swapping an
    /// exponential holding model for a Pareto one preserves offered load.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameter`] unless `mean` is finite and positive
    /// and `shape > 1` (the mean is infinite otherwise).
    pub fn from_mean(mean: f64, shape: f64) -> Result<Self, InvalidParameter> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(InvalidParameter::new(format!(
                "Pareto mean must be finite and positive, got {mean}"
            )));
        }
        if !shape.is_finite() || shape <= 1.0 {
            return Err(InvalidParameter::new(format!(
                "Pareto shape must exceed 1 for a finite mean, got {shape}"
            )));
        }
        Self::new(mean * (shape - 1.0) / shape, shape)
    }

    /// The analytic mean `α·x_m / (α - 1)`, or `+∞` when `α ≤ 1`.
    pub fn mean(&self) -> f64 {
        if self.shape <= 1.0 {
            f64::INFINITY
        } else {
            self.shape * self.scale / (self.shape - 1.0)
        }
    }
}

impl Distribution<f64> for Pareto {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse transform: x_m / U^(1/α) on the open unit interval.
        self.scale / rng.next_f64_open().powf(1.0 / self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(2024)
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let d = Exponential::new(0.001).unwrap();
        let mut r = rng();
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut r)).sum();
        let mean = sum / n as f64;
        // True mean is 1000; allow 2% sampling error.
        assert!((mean - 1000.0).abs() < 20.0, "mean {mean}");
    }

    #[test]
    fn exponential_from_mean_round_trips() {
        let d = Exponential::from_mean(250.0).unwrap();
        assert!((d.rate() - 0.004).abs() < 1e-12);
        assert!((d.mean() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_samples_positive() {
        let d = Exponential::new(5.0).unwrap();
        let mut r = rng();
        assert!(d.sample_n(&mut r, 10_000).iter().all(|&x| x > 0.0));
    }

    #[test]
    fn pareto_rejects_bad_parameters() {
        assert!(Pareto::new(0.0, 1.5).is_err());
        assert!(Pareto::new(1.0, 0.0).is_err());
        assert!(Pareto::new(-1.0, 2.0).is_err());
        assert!(Pareto::new(f64::NAN, 2.0).is_err());
        assert!(Pareto::new(1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn pareto_from_mean_requires_shape_above_one() {
        assert!(Pareto::from_mean(100.0, 1.0).is_err());
        assert!(Pareto::from_mean(100.0, 0.5).is_err());
        assert!(Pareto::from_mean(-1.0, 2.5).is_err());
        let d = Pareto::from_mean(100.0, 2.5).unwrap();
        assert!((d.mean() - 100.0).abs() < 1e-9, "mean {}", d.mean());
    }

    #[test]
    fn pareto_samples_at_least_scale() {
        let d = Pareto::new(7.0, 1.8).unwrap();
        let mut r = rng();
        assert!(d.sample_n(&mut r, 10_000).iter().all(|&x| x >= 7.0));
    }

    #[test]
    fn pareto_infinite_mean_below_shape_one() {
        let d = Pareto::new(1.0, 0.9).unwrap();
        assert!(d.mean().is_infinite());
    }
}
