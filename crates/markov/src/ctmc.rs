//! Continuous-time Markov chains (CTMCs).
//!
//! A CTMC over states `0..n` is described by non-negative transition rates
//! `q(i, j)` for `i ≠ j`; the generator matrix `Q` has these off-diagonal
//! entries and `Q[i][i] = -Σ_j q(i, j)`.
//!
//! The paper's elastic-QoS bandwidth model (Section 3.2) is exactly such a
//! chain, with one state per bandwidth level of a primary channel.

use crate::error::MarkovError;
use crate::linalg::Matrix;

/// Builder for a [`Ctmc`]; accumulates rates (multiple calls for the same
/// pair add up, mirroring how the paper's model sums the contributions of
/// arrivals, terminations, and failures on the same transition).
///
/// # Examples
///
/// ```
/// use drqos_markov::ctmc::CtmcBuilder;
///
/// let chain = CtmcBuilder::new(2)
///     .rate(0, 1, 1.0)?
///     .rate(1, 0, 2.0)?
///     .build()?;
/// assert_eq!(chain.n_states(), 2);
/// assert_eq!(chain.rate(0, 1), 1.0);
/// # Ok::<(), drqos_markov::error::MarkovError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CtmcBuilder {
    n: usize,
    rates: Vec<f64>, // dense n×n, diagonal unused (kept zero)
}

impl CtmcBuilder {
    /// Starts a builder for a chain with `n` states.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            rates: vec![0.0; n * n],
        }
    }

    /// Adds `rate` to the transition `from → to`.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::InvalidState`] if either state is out of range or
    ///   `from == to` (self-rates are meaningless in a CTMC).
    /// * [`MarkovError::InvalidRate`] if `rate` is negative or non-finite.
    pub fn rate(mut self, from: usize, to: usize, rate: f64) -> Result<Self, MarkovError> {
        if from >= self.n {
            return Err(MarkovError::InvalidState(from));
        }
        if to >= self.n || from == to {
            return Err(MarkovError::InvalidState(to));
        }
        if !rate.is_finite() || rate < 0.0 {
            return Err(MarkovError::InvalidRate {
                from,
                to,
                value: rate,
            });
        }
        self.rates[from * self.n + to] += rate;
        Ok(self)
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Empty`] if the chain has no states.
    pub fn build(self) -> Result<Ctmc, MarkovError> {
        if self.n == 0 {
            return Err(MarkovError::Empty);
        }
        Ok(Ctmc {
            n: self.n,
            rates: self.rates,
        })
    }
}

/// A continuous-time Markov chain with dense rate storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    n: usize,
    rates: Vec<f64>,
}

impl Ctmc {
    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// The rate of `from → to` (zero if no transition; zero on the
    /// diagonal).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn rate(&self, from: usize, to: usize) -> f64 {
        assert!(from < self.n && to < self.n, "state index out of range");
        self.rates[from * self.n + to]
    }

    /// Total outgoing rate of `state` (the exponential holding-time rate).
    pub(crate) fn total_rate(&self, state: usize) -> f64 {
        assert!(state < self.n, "state index out of range");
        (0..self.n).map(|j| self.rates[state * self.n + j]).sum()
    }

    /// The generator matrix `Q` (off-diagonal rates, diagonal `-Σ`).
    pub fn generator(&self) -> Matrix {
        let mut q = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    q[(i, j)] = self.rate(i, j);
                }
            }
            q[(i, i)] = -self.total_rate(i);
        }
        q
    }

    /// A uniformization constant `Λ ≥ max_i Σ_j q(i,j)`, strictly larger so
    /// the uniformized DTMC has self-loops in every state (hence is
    /// aperiodic and power iteration converges).
    pub(crate) fn uniformization_rate(&self) -> f64 {
        let max = (0..self.n).map(|i| self.total_rate(i)).fold(0.0, f64::max);
        if max == 0.0 {
            1.0
        } else {
            max * 1.05
        }
    }

    /// The uniformized transition-probability matrix
    /// `P = I + Q / Λ` for `Λ =` [`Ctmc::uniformization_rate`].
    pub(crate) fn uniformized(&self) -> Matrix {
        let lambda = self.uniformization_rate();
        let mut p = Matrix::identity(self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    let r = self.rate(i, j) / lambda;
                    p[(i, j)] = r;
                    p[(i, i)] -= r;
                }
            }
        }
        p
    }

    /// Whether every state can reach every other state through positive
    /// rates (strong connectivity of the transition graph).
    pub fn is_irreducible(&self) -> bool {
        if self.n == 1 {
            return true;
        }
        self.reachable_from(0, false).iter().all(|&r| r)
            && self.reachable_from(0, true).iter().all(|&r| r)
    }

    /// BFS reachability from `start` (or to it, if `reverse`).
    fn reachable_from(&self, start: usize, reverse: bool) -> Vec<bool> {
        let mut seen = vec![false; self.n];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(u) = stack.pop() {
            for v in 0..self.n {
                let r = if reverse {
                    self.rate(v, u)
                } else {
                    self.rate(u, v)
                };
                if r > 0.0 && !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }

    /// The unique closed recurrent class of the chain, if there is exactly
    /// one: the set of states from which the long-run behaviour is drawn.
    ///
    /// Transient states (states that can reach the class but not be reached
    /// from it) are permitted; they receive stationary probability zero.
    /// This matters for measured chains: at light load a channel may never
    /// be observed leaving the top bandwidth level, making lower levels
    /// transient.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::NotIrreducible`] if there are two or more
    /// closed recurrent classes (the stationary distribution would not be
    /// unique).
    pub(crate) fn recurrent_class(&self) -> Result<Vec<usize>, MarkovError> {
        // A state's SCC is closed iff no member has a positive rate to a
        // non-member. With n ≤ a few dozen, the O(n²·n) approach below is
        // plenty: compute pairwise reachability, group into SCCs, test
        // closedness.
        let mut reach: Vec<Vec<bool>> =
            (0..self.n).map(|i| self.reachable_from(i, false)).collect();
        for i in 0..self.n {
            reach[i][i] = true;
        }
        let mut assigned = vec![usize::MAX; self.n];
        let mut sccs: Vec<Vec<usize>> = Vec::new();
        for i in 0..self.n {
            if assigned[i] != usize::MAX {
                continue;
            }
            let mut scc = Vec::new();
            for j in 0..self.n {
                if reach[i][j] && reach[j][i] {
                    scc.push(j);
                }
            }
            let id = sccs.len();
            for &j in &scc {
                assigned[j] = id;
            }
            sccs.push(scc);
        }
        let mut closed: Vec<&Vec<usize>> = Vec::new();
        for scc in &sccs {
            let is_closed = scc.iter().all(|&i| {
                (0..self.n).all(|j| self.rate(i, j) == 0.0 || assigned[j] == assigned[i])
            });
            if is_closed {
                closed.push(scc);
            }
        }
        match closed.as_slice() {
            [only] => Ok((*only).clone()),
            _ => Err(MarkovError::NotIrreducible),
        }
    }

    /// Restricts the chain to `states` (which must be closed under positive
    /// rates), renumbering them `0..states.len()` in the given order.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidState`] if `states` is empty, contains
    /// an out-of-range or duplicate index, or has a positive rate leaving
    /// the set.
    pub(crate) fn restrict(&self, states: &[usize]) -> Result<Ctmc, MarkovError> {
        if states.is_empty() {
            return Err(MarkovError::Empty);
        }
        let mut index = vec![usize::MAX; self.n];
        for (new, &old) in states.iter().enumerate() {
            if old >= self.n || index[old] != usize::MAX {
                return Err(MarkovError::InvalidState(old));
            }
            index[old] = new;
        }
        let m = states.len();
        let mut rates = vec![0.0; m * m];
        for (new_i, &old_i) in states.iter().enumerate() {
            for old_j in 0..self.n {
                let r = self.rate(old_i, old_j);
                if r > 0.0 {
                    let new_j = index[old_j];
                    if new_j == usize::MAX {
                        return Err(MarkovError::InvalidState(old_j));
                    }
                    rates[new_i * m + new_j] = r;
                }
            }
        }
        Ok(Ctmc { n: m, rates })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> Ctmc {
        CtmcBuilder::new(2)
            .rate(0, 1, 3.0)
            .unwrap()
            .rate(1, 0, 1.0)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn builder_accumulates_rates() {
        let c = CtmcBuilder::new(2)
            .rate(0, 1, 1.0)
            .unwrap()
            .rate(0, 1, 2.5)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(c.rate(0, 1), 3.5);
    }

    #[test]
    fn builder_rejects_bad_input() {
        assert!(CtmcBuilder::new(2).rate(2, 0, 1.0).is_err());
        assert!(CtmcBuilder::new(2).rate(0, 2, 1.0).is_err());
        assert!(CtmcBuilder::new(2).rate(0, 0, 1.0).is_err());
        assert!(CtmcBuilder::new(2).rate(0, 1, -1.0).is_err());
        assert!(CtmcBuilder::new(2).rate(0, 1, f64::NAN).is_err());
        assert!(matches!(
            CtmcBuilder::new(0).build(),
            Err(MarkovError::Empty)
        ));
    }

    #[test]
    fn zero_rate_is_allowed_and_inert() {
        let c = CtmcBuilder::new(2)
            .rate(0, 1, 0.0)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(c.rate(0, 1), 0.0);
        assert!(!c.is_irreducible());
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let q = two_state().generator();
        for i in 0..2 {
            let sum: f64 = (0..2).map(|j| q[(i, j)]).sum();
            assert!(sum.abs() < 1e-12);
        }
        assert_eq!(q[(0, 0)], -3.0);
        assert_eq!(q[(0, 1)], 3.0);
    }

    #[test]
    fn total_rate_sums_row() {
        let c = two_state();
        assert_eq!(c.total_rate(0), 3.0);
        assert_eq!(c.total_rate(1), 1.0);
    }

    #[test]
    fn uniformization_exceeds_max_rate() {
        let c = two_state();
        assert!(c.uniformization_rate() > 3.0);
    }

    #[test]
    fn uniformization_of_rateless_chain_is_positive() {
        let c = CtmcBuilder::new(2).build().unwrap();
        assert_eq!(c.uniformization_rate(), 1.0);
    }

    #[test]
    fn uniformized_is_stochastic_with_self_loops() {
        let p = two_state().uniformized();
        for i in 0..2 {
            let sum: f64 = (0..2).map(|j| p[(i, j)]).sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(p[(i, i)] > 0.0, "uniformized chain must be aperiodic");
        }
    }

    #[test]
    fn irreducibility_detection() {
        assert!(two_state().is_irreducible());
        let one_way = CtmcBuilder::new(2)
            .rate(0, 1, 1.0)
            .unwrap()
            .build()
            .unwrap();
        assert!(!one_way.is_irreducible());
        let single = CtmcBuilder::new(1).build().unwrap();
        assert!(single.is_irreducible());
    }

    #[test]
    fn recurrent_class_of_irreducible_is_everything() {
        assert_eq!(two_state().recurrent_class().unwrap(), vec![0, 1]);
    }

    #[test]
    fn recurrent_class_with_transient_states() {
        // 0 → 1 ↔ 2: state 0 is transient, {1, 2} recurrent.
        let c = CtmcBuilder::new(3)
            .rate(0, 1, 1.0)
            .unwrap()
            .rate(1, 2, 1.0)
            .unwrap()
            .rate(2, 1, 1.0)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(c.recurrent_class().unwrap(), vec![1, 2]);
    }

    #[test]
    fn two_closed_classes_is_an_error() {
        // {0} and {1} both absorbing.
        let c = CtmcBuilder::new(2).build().unwrap();
        assert_eq!(c.recurrent_class(), Err(MarkovError::NotIrreducible));
    }

    #[test]
    fn restrict_renumbers() {
        let c = CtmcBuilder::new(3)
            .rate(1, 2, 4.0)
            .unwrap()
            .rate(2, 1, 5.0)
            .unwrap()
            .build()
            .unwrap();
        let r = c.restrict(&[1, 2]).unwrap();
        assert_eq!(r.n_states(), 2);
        assert_eq!(r.rate(0, 1), 4.0);
        assert_eq!(r.rate(1, 0), 5.0);
    }

    #[test]
    fn restrict_rejects_open_set() {
        let c = CtmcBuilder::new(3)
            .rate(0, 2, 1.0)
            .unwrap()
            .build()
            .unwrap();
        assert!(c.restrict(&[0, 1]).is_err());
        assert!(c.restrict(&[]).is_err());
        assert!(c.restrict(&[0, 0]).is_err());
        assert!(c.restrict(&[5]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rate_bounds_checked() {
        two_state().rate(0, 5);
    }
}
