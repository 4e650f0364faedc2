//! The steady-state (stationary) solver for CTMCs.
//!
//! The paper solves its Markov model with the SHARPE package; this module is
//! the in-repo replacement. It has one algorithm:
//!
//! * [`gth`] — Grassmann–Taksar–Heyman elimination. Subtraction-free, hence
//!   numerically robust even for stiff chains.
//!
//! [`solve`] is the front door: it handles chains with transient states by
//! restricting to the unique closed recurrent class (a situation that
//! arises with *measured* transition probabilities — e.g. at light load a
//! channel is never observed below the top bandwidth level).
//!
//! The tests check GTH against exact answers and, in this crate's
//! `tests/properties.rs`, against one independent oracle: a dense solve of
//! `πQ = 0, Σπ = 1` through [`Matrix::solve`](crate::linalg::Matrix::solve).

use crate::ctmc::Ctmc;
use crate::error::MarkovError;
use crate::linalg;

/// A stationary distribution together with convenience accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyState {
    probs: Vec<f64>,
}

impl SteadyState {
    /// Wraps a probability vector (internal; produced by the solvers).
    fn new(probs: Vec<f64>) -> Self {
        Self { probs }
    }

    /// The stationary probabilities, indexed by state.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The probability of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn prob(&self, state: usize) -> f64 {
        self.probs[state]
    }

    /// The expectation of a state-indexed quantity:
    /// `Σ_i π_i · value(i)`.
    ///
    /// This is how the paper derives the *average bandwidth reserved* from
    /// the stationary distribution of bandwidth levels.
    pub fn expectation(&self, value: impl Fn(usize) -> f64) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(i, &p)| p * value(i))
            .sum()
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the distribution is over zero states (never true for a
    /// solver-produced value).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }
}

/// GTH (Grassmann–Taksar–Heyman) elimination.
///
/// # Errors
///
/// Returns [`MarkovError::NotIrreducible`] if the chain is not irreducible
/// (use [`solve`] for chains with transient states).
pub fn gth(ctmc: &Ctmc) -> Result<SteadyState, MarkovError> {
    if !ctmc.is_irreducible() {
        return Err(MarkovError::NotIrreducible);
    }
    let n = ctmc.n_states();
    if n == 1 {
        return Ok(SteadyState::new(vec![1.0]));
    }
    // Work on a dense copy of the off-diagonal rates.
    let mut q = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                q[i * n + j] = ctmc.rate(i, j);
            }
        }
    }
    // Elimination from the last state down to state 1, remembering each
    // eliminated row's outflow sum for the back substitution.
    let mut row_sums = vec![0.0; n];
    for k in (1..n).rev() {
        let s: f64 = (0..k).map(|j| q[k * n + j]).sum();
        debug_assert!(s > 0.0, "irreducible chain keeps positive row sums");
        row_sums[k] = s;
        for j in 0..k {
            q[k * n + j] /= s;
        }
        for i in 0..k {
            let qik = q[i * n + k];
            if qik == 0.0 {
                continue;
            }
            for j in 0..k {
                if i != j {
                    q[i * n + j] += qik * q[k * n + j];
                }
            }
        }
    }
    // Back substitution: π_k = (Σ_{i<k} π_i q_ik) / S_k.
    let mut pi = vec![0.0; n];
    pi[0] = 1.0;
    for k in 1..n {
        pi[k] = (0..k).map(|i| pi[i] * q[i * n + k]).sum::<f64>() / row_sums[k];
    }
    linalg::normalize_l1(&mut pi)?;
    Ok(SteadyState::new(pi))
}

/// The general entry point: solves chains that may contain transient
/// states by restricting to the unique closed recurrent class (GTH on the
/// restriction; transient states get probability zero).
///
/// # Errors
///
/// Returns [`MarkovError::NotIrreducible`] if the chain has multiple closed
/// recurrent classes.
pub fn solve(ctmc: &Ctmc) -> Result<SteadyState, MarkovError> {
    if ctmc.is_irreducible() {
        return gth(ctmc);
    }
    let class = ctmc.recurrent_class()?;
    let restricted = ctmc.restrict(&class)?;
    let sub = gth(&restricted)?;
    let mut pi = vec![0.0; ctmc.n_states()];
    for (sub_idx, &state) in class.iter().enumerate() {
        pi[state] = sub.prob(sub_idx);
    }
    Ok(SteadyState::new(pi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::CtmcBuilder;

    fn two_state() -> Ctmc {
        // π = (1/4, 3/4): rate(0→1)=3, rate(1→0)=1 → π0·3 = π1·1.
        CtmcBuilder::new(2)
            .rate(0, 1, 3.0)
            .unwrap()
            .rate(1, 0, 1.0)
            .unwrap()
            .build()
            .unwrap()
    }

    fn cyclic3() -> Ctmc {
        // Unidirectional cycle with distinct rates; π_i ∝ 1/rate_i.
        CtmcBuilder::new(3)
            .rate(0, 1, 1.0)
            .unwrap()
            .rate(1, 2, 2.0)
            .unwrap()
            .rate(2, 0, 4.0)
            .unwrap()
            .build()
            .unwrap()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn gth_two_state() {
        let ss = gth(&two_state()).unwrap();
        assert_close(ss.probs(), &[0.25, 0.75], 1e-12);
    }

    #[test]
    fn gth_cyclic() {
        let ss = gth(&cyclic3()).unwrap();
        // π ∝ (1/1, 1/2, 1/4) = (4, 2, 1)/7.
        assert_close(ss.probs(), &[4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0], 1e-12);
    }

    #[test]
    fn stiff_chain_gth_stays_accurate() {
        // Rates differing by 8 orders of magnitude.
        let chain = CtmcBuilder::new(3)
            .rate(0, 1, 1e-8)
            .unwrap()
            .rate(1, 2, 1.0)
            .unwrap()
            .rate(2, 0, 1e4)
            .unwrap()
            .rate(1, 0, 2.0)
            .unwrap()
            .build()
            .unwrap();
        // The matrix-tree answer: π ∝ (3·10⁴, 10⁻⁴, 10⁻⁸).
        let weights = [3e4, 1e-4, 1e-8];
        let z: f64 = weights.iter().sum();
        let g = gth(&chain).unwrap();
        for (a, w) in g.probs().iter().zip(weights) {
            let exact = w / z;
            let rel = (a - exact).abs() / exact;
            assert!(rel < 1e-12, "{:?} vs {weights:?} / {z}", g.probs());
        }
    }

    #[test]
    fn single_state_chain() {
        let c = CtmcBuilder::new(1).build().unwrap();
        for solver in [gth(&c), solve(&c)] {
            assert_eq!(solver.unwrap().probs(), &[1.0]);
        }
    }

    #[test]
    fn reducible_chain_rejected_by_strict_solvers() {
        let c = CtmcBuilder::new(2)
            .rate(0, 1, 1.0)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(gth(&c), Err(MarkovError::NotIrreducible));
    }

    #[test]
    fn solve_handles_transient_states() {
        // 0 → 1 ↔ 2 (0 transient).
        let c = CtmcBuilder::new(3)
            .rate(0, 1, 5.0)
            .unwrap()
            .rate(1, 2, 1.0)
            .unwrap()
            .rate(2, 1, 3.0)
            .unwrap()
            .build()
            .unwrap();
        let ss = solve(&c).unwrap();
        assert_eq!(ss.prob(0), 0.0);
        assert_close(&[ss.prob(1), ss.prob(2)], &[0.75, 0.25], 1e-12);
    }

    #[test]
    fn solve_rejects_two_absorbing_classes() {
        let c = CtmcBuilder::new(3)
            .rate(0, 1, 1.0)
            .unwrap()
            .rate(0, 2, 1.0)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(solve(&c), Err(MarkovError::NotIrreducible));
    }

    #[test]
    fn expectation_weights_states() {
        let ss = gth(&two_state()).unwrap();
        // E[i] = 0·0.25 + 1·0.75.
        assert!((ss.expectation(|i| i as f64) - 0.75).abs() < 1e-12);
        assert_eq!(ss.len(), 2);
        assert!(!ss.is_empty());
    }

    #[test]
    fn detailed_balance_birth_death() {
        // Birth-death chains satisfy detailed balance; check GTH against it.
        let chain = CtmcBuilder::new(4)
            .rate(0, 1, 2.0)
            .unwrap()
            .rate(1, 2, 2.0)
            .unwrap()
            .rate(2, 3, 2.0)
            .unwrap()
            .rate(1, 0, 1.0)
            .unwrap()
            .rate(2, 1, 1.0)
            .unwrap()
            .rate(3, 2, 1.0)
            .unwrap()
            .build()
            .unwrap();
        let ss = gth(&chain).unwrap();
        for i in 0..3 {
            let lhs = ss.prob(i) * 2.0;
            let rhs = ss.prob(i + 1) * 1.0;
            assert!((lhs - rhs).abs() < 1e-12);
        }
    }
}
