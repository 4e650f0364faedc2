//! Birth–death chains.
//!
//! The paper's bandwidth-level chain is *not* birth–death (retreats jump
//! straight to the bottom state), but birth–death chains have exact
//! product-form stationary distributions (`π_k ∝ Π_{i<k} birth[i] /
//! death[i]`, Erlang-B for the loss chain) that the tests hold GTH to.

use crate::ctmc::{Ctmc, CtmcBuilder};
use crate::error::MarkovError;

/// Builds the CTMC of a birth–death process with `birth[i]` the rate
/// `i → i+1` and `death[i]` the rate `i+1 → i`.
///
/// The chain has `birth.len() + 1` states.
///
/// # Errors
///
/// * [`MarkovError::DimensionMismatch`] if `death.len() != birth.len()`.
/// * [`MarkovError::Empty`] if `birth` is empty.
/// * [`MarkovError::InvalidRate`] if any rate is negative or non-finite.
pub fn birth_death_ctmc(birth: &[f64], death: &[f64]) -> Result<Ctmc, MarkovError> {
    if birth.is_empty() {
        return Err(MarkovError::Empty);
    }
    if birth.len() != death.len() {
        return Err(MarkovError::DimensionMismatch {
            expected: birth.len(),
            actual: death.len(),
        });
    }
    let n = birth.len() + 1;
    let mut b = CtmcBuilder::new(n);
    for (i, &rate) in birth.iter().enumerate() {
        b = b.rate(i, i + 1, rate)?;
    }
    for (i, &rate) in death.iter().enumerate() {
        b = b.rate(i + 1, i, rate)?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steady_state;

    #[test]
    fn ctmc_structure() {
        let c = birth_death_ctmc(&[1.0, 2.0], &[3.0, 4.0]).unwrap();
        assert_eq!(c.n_states(), 3);
        assert_eq!(c.rate(0, 1), 1.0);
        assert_eq!(c.rate(1, 2), 2.0);
        assert_eq!(c.rate(1, 0), 3.0);
        assert_eq!(c.rate(2, 1), 4.0);
        assert_eq!(c.rate(0, 2), 0.0);
    }

    #[test]
    fn construction_errors() {
        assert!(birth_death_ctmc(&[], &[]).is_err());
        assert!(birth_death_ctmc(&[1.0], &[]).is_err());
        assert!(birth_death_ctmc(&[-1.0], &[1.0]).is_err());
    }

    #[test]
    fn mm1k_utilization_half() {
        // λ = 1, μ = 2, K = 3: π_k ∝ (1/2)^k.
        let chain = birth_death_ctmc(&[1.0; 3], &[2.0; 3]).unwrap();
        let ss = steady_state::gth(&chain).unwrap();
        let z: f64 = 1.0 + 0.5 + 0.25 + 0.125;
        for (k, &p) in ss.probs().iter().enumerate() {
            assert!((p - 0.5f64.powi(k as i32) / z).abs() < 1e-12);
        }
    }

    #[test]
    fn mmcc_blocking_matches_erlang_b() {
        // The M/M/c/c loss chain (states = busy servers) against the
        // Erlang-B recurrence B(k, a) = a·B(k−1, a) / (k + a·B(k−1, a)).
        let (lambda, mu, c) = (3.0, 1.0, 5);
        let death: Vec<f64> = (1..=c).map(|k| k as f64 * mu).collect();
        let chain = birth_death_ctmc(&vec![lambda; c], &death).unwrap();
        let ss = steady_state::gth(&chain).unwrap();
        let blocking = ss.prob(c);
        let a = lambda / mu;
        let eb = (1..=c).fold(1.0, |b, k| a * b / (k as f64 + a * b));
        assert!(
            (blocking - eb).abs() < 1e-12,
            "chain {blocking} vs erlang-b {eb}"
        );
    }
}
