//! Measurement of the Markov-model parameters from simulation.
//!
//! The paper's transition probabilities cannot be derived in closed form
//! for irregular topologies ("it is almost impossible to parameterize these
//! probabilities analytically"), so they are *measured* from a detailed
//! simulation (Section 3.3). This module accumulates, over churn events:
//!
//! * `P_f` — the probability that an existing channel is **directly
//!   chained** to (shares at least one link with) a newly arrived
//!   connection;
//! * `P_s` — the probability that it is **indirectly chained** (shares no
//!   link with the new connection, but a third channel traverses links of
//!   both);
//! * `A_ij` — level-transition distribution of directly-chained channels on
//!   an arrival or a backup activation;
//! * `B_ij` — level-transition distribution of indirectly-chained channels
//!   on an arrival;
//! * `T_ij` — level-transition distribution of directly-chained channels on
//!   a termination.

use std::fmt;

/// A `(before, after)` level transition of one channel at one event.
pub type LevelTransition = (usize, usize);

/// The plan memo's counters
/// ([`crate::network::Network::route_cache_stats`]). The memo is
/// consulted only by a plan made at a state that a release undoing the
/// last commit gave back; every other plan is a fresh search and counts
/// nowhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Plans the memo answered.
    pub hits: u64,
    /// Plans the memo was consulted for and could not answer: each was a
    /// fresh search, which the memo then kept.
    pub misses: u64,
    /// Entries dropped because the state they were planned at was left.
    pub stale_evictions: u64,
}

/// Errors from parameter estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EstimateError {
    /// No arrival events were recorded, so `P_f`/`P_s` are undefined.
    NoArrivals,
    /// A recorded level was outside `0..n_states`.
    LevelOutOfRange(usize),
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::NoArrivals => write!(f, "no arrival events were recorded"),
            EstimateError::LevelOutOfRange(l) => write!(f, "level {l} out of range"),
        }
    }
}

impl std::error::Error for EstimateError {}

/// Accumulates the paper's model parameters over a churn run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterEstimator {
    n_states: usize,
    arrival_events: u64,
    termination_events: u64,
    failure_events: u64,
    pf_sum: f64,
    ps_sum: f64,
    pf_fault_sum: f64,
    a: Vec<Vec<u64>>,
    b: Vec<Vec<u64>>,
    t: Vec<Vec<u64>>,
    f: Vec<Vec<u64>>,
    occupancy: Vec<u64>,
}

impl ParameterEstimator {
    /// Creates an estimator for a model with `n_states` bandwidth levels.
    ///
    /// # Panics
    ///
    /// Panics if `n_states == 0`.
    pub fn new(n_states: usize) -> Self {
        assert!(n_states > 0, "estimator needs at least one state");
        let zeros = || vec![vec![0u64; n_states]; n_states];
        Self {
            n_states,
            arrival_events: 0,
            termination_events: 0,
            failure_events: 0,
            pf_sum: 0.0,
            ps_sum: 0.0,
            pf_fault_sum: 0.0,
            a: zeros(),
            b: zeros(),
            t: zeros(),
            f: zeros(),
            occupancy: vec![0; n_states],
        }
    }

    /// Records the bandwidth levels of the channels alive at a measurement
    /// instant. Occupancy is the model's fallback when a load level is so
    /// light that *no* level transitions are ever observed (every state
    /// would be absorbing); it also serves as a diagnostic.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::LevelOutOfRange`] on a bad level index.
    pub(crate) fn record_occupancy(
        &mut self,
        levels: impl IntoIterator<Item = usize>,
    ) -> Result<(), EstimateError> {
        for level in levels {
            if level >= self.n_states {
                return Err(EstimateError::LevelOutOfRange(level));
            }
            self.occupancy[level] += 1;
        }
        Ok(())
    }

    /// Number of bandwidth levels.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    fn check(&self, transitions: &[LevelTransition]) -> Result<(), EstimateError> {
        for &(i, j) in transitions {
            if i >= self.n_states {
                return Err(EstimateError::LevelOutOfRange(i));
            }
            if j >= self.n_states {
                return Err(EstimateError::LevelOutOfRange(j));
            }
        }
        Ok(())
    }

    /// Records one accepted arrival: `existing` is the number of channels
    /// that existed before the arrival, `direct` / `indirect` the
    /// transitions of the directly / indirectly chained ones.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::LevelOutOfRange`] on a bad level index.
    pub(crate) fn record_arrival(
        &mut self,
        existing: usize,
        direct: &[LevelTransition],
        indirect: &[LevelTransition],
    ) -> Result<(), EstimateError> {
        self.check(direct)?;
        self.check(indirect)?;
        self.arrival_events += 1;
        if existing > 0 {
            self.pf_sum += direct.len() as f64 / existing as f64;
            self.ps_sum += indirect.len() as f64 / existing as f64;
        }
        for &(i, j) in direct {
            self.a[i][j] += 1;
        }
        for &(i, j) in indirect {
            self.b[i][j] += 1;
        }
        Ok(())
    }

    /// Records one termination: the transitions of channels that shared at
    /// least one link with the departed connection.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::LevelOutOfRange`] on a bad level index.
    pub(crate) fn record_termination(
        &mut self,
        direct: &[LevelTransition],
    ) -> Result<(), EstimateError> {
        self.check(direct)?;
        self.termination_events += 1;
        for &(i, j) in direct {
            self.t[i][j] += 1;
        }
        Ok(())
    }

    /// Records one link failure: `existing` is the number of channels alive
    /// before the failure, `affected` the `(before, after)` level
    /// transitions across the failure of the **whole surviving
    /// population**.
    ///
    /// Unlike arrivals/terminations (where the affected sub-population is
    /// the directly/indirectly chained channels), a failure's
    /// re-distribution both demotes channels (those sharing links with
    /// activated backups) *and* promotes their neighbours; sampling the
    /// whole population keeps both flows in `F` (whose rows are therefore
    /// mostly diagonal). `P_f^fault` is then simply the survivor fraction
    /// (≈ 1), and the failure rate term is `P_f^fault · F_ij · γ`.
    ///
    /// The paper instead folds failures into the arrival matrix with the
    /// arrival incidence (downward rate `P_f · A_ij · (λ + γ)`), which
    /// overestimates failure pressure as γ approaches λ; with γ = 0 the
    /// two formulations coincide, and ours reproduces the paper's Figure 4
    /// *finding* (failures have no visible effect) over the whole swept
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::LevelOutOfRange`] on a bad level index.
    pub(crate) fn record_failure(
        &mut self,
        existing: usize,
        affected: &[LevelTransition],
    ) -> Result<(), EstimateError> {
        self.check(affected)?;
        self.failure_events += 1;
        if existing > 0 {
            self.pf_fault_sum += affected.len() as f64 / existing as f64;
        }
        for &(i, j) in affected {
            self.f[i][j] += 1;
        }
        Ok(())
    }

    /// Produces the measured parameters.
    ///
    /// Transition matrices are row-normalized; rows with no observations
    /// become identity rows (state never observed → no transition mass,
    /// hence no rate contribution in the model).
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::NoArrivals`] if no arrivals were recorded.
    pub(crate) fn finalize(&self) -> Result<MeasuredParams, EstimateError> {
        if self.arrival_events == 0 {
            return Err(EstimateError::NoArrivals);
        }
        let normalize = |counts: &Vec<Vec<u64>>| -> Vec<Vec<f64>> {
            counts
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    let total: u64 = row.iter().sum();
                    if total == 0 {
                        let mut r = vec![0.0; self.n_states];
                        r[i] = 1.0;
                        r
                    } else {
                        row.iter().map(|&c| c as f64 / total as f64).collect()
                    }
                })
                .collect()
        };
        let occ_total: u64 = self.occupancy.iter().sum();
        let occupancy = if occ_total == 0 {
            vec![0.0; self.n_states]
        } else {
            self.occupancy
                .iter()
                .map(|&c| c as f64 / occ_total as f64)
                .collect()
        };
        Ok(MeasuredParams {
            n_states: self.n_states,
            pf: self.pf_sum / self.arrival_events as f64,
            ps: self.ps_sum / self.arrival_events as f64,
            pf_fault: if self.failure_events == 0 {
                0.0
            } else {
                self.pf_fault_sum / self.failure_events as f64
            },
            a: normalize(&self.a),
            b: normalize(&self.b),
            t: normalize(&self.t),
            f: normalize(&self.f),
            occupancy,
        })
    }
}

/// The measured parameters of the paper's Markov model.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredParams {
    /// Number of bandwidth levels `N`.
    pub n_states: usize,
    /// Probability that a channel shares a link with a new arrival.
    pub pf: f64,
    /// Probability that a channel is indirectly chained to a new arrival.
    pub ps: f64,
    /// Probability that a channel retreats on a link failure (measured per
    /// failure event; zero when no failures were injected).
    pub pf_fault: f64,
    /// Row-stochastic transition matrix on arrival/failure (directly
    /// chained channels; the paper's `A_ij`).
    pub a: Vec<Vec<f64>>,
    /// Row-stochastic transition matrix on arrival (indirectly chained
    /// channels; the paper's `B_ij`).
    pub b: Vec<Vec<f64>>,
    /// Row-stochastic transition matrix on termination (directly chained
    /// channels; the paper's `T_ij`).
    pub t: Vec<Vec<f64>>,
    /// Row-stochastic transition matrix on link failure (channels sharing
    /// links with activated backups; see
    /// `ParameterEstimator::record_failure`).
    pub f: Vec<Vec<f64>>,
    /// Observed fraction of channel-observations at each level (all zeros
    /// when occupancy was never recorded). Used as the model's degenerate
    /// fallback and as a diagnostic.
    pub occupancy: Vec<f64>,
}

impl MeasuredParams {
    /// Sanity-checks shape and stochasticity (used by tests and the
    /// analysis crate before model construction).
    pub fn is_consistent(&self) -> bool {
        let square = |m: &Vec<Vec<f64>>| {
            m.len() == self.n_states
                && m.iter().all(|row| {
                    row.len() == self.n_states
                        && row.iter().all(|&p| (0.0..=1.0 + 1e-9).contains(&p))
                        && (row.iter().sum::<f64>() - 1.0).abs() < 1e-9
                })
        };
        let occ_sum: f64 = self.occupancy.iter().sum();
        self.n_states > 0
            && (0.0..=1.0).contains(&self.pf)
            && (0.0..=1.0).contains(&self.ps)
            && (0.0..=1.0).contains(&self.pf_fault)
            && square(&self.a)
            && square(&self.b)
            && square(&self.t)
            && square(&self.f)
            && self.occupancy.len() == self.n_states
            && self
                .occupancy
                .iter()
                .all(|&p| (0.0..=1.0 + 1e-9).contains(&p))
            && (occ_sum == 0.0 || (occ_sum - 1.0).abs() < 1e-9)
    }

    /// The occupancy-weighted average bandwidth level, if occupancy was
    /// recorded.
    pub fn occupancy_mean_level(&self) -> Option<f64> {
        let total: f64 = self.occupancy.iter().sum();
        if total == 0.0 {
            None
        } else {
            Some(
                self.occupancy
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| i as f64 * p)
                    .sum(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_estimator_has_no_data() {
        let e = ParameterEstimator::new(5);
        assert_eq!(e.n_states(), 5);
        assert_eq!(e.finalize(), Err(EstimateError::NoArrivals));
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn zero_states_panics() {
        ParameterEstimator::new(0);
    }

    #[test]
    fn pf_ps_average_over_events() {
        let mut e = ParameterEstimator::new(3);
        // Event 1: 4 existing, 2 direct, 1 indirect.
        e.record_arrival(4, &[(2, 0), (1, 0)], &[(0, 1)]).unwrap();
        // Event 2: 2 existing, 1 direct, 0 indirect.
        e.record_arrival(2, &[(2, 2)], &[]).unwrap();
        let p = e.finalize().unwrap();
        assert!((p.pf - (0.5 + 0.5) / 2.0).abs() < 1e-12);
        assert!((p.ps - (0.25 + 0.0) / 2.0).abs() < 1e-12);
        assert!(p.is_consistent());
    }

    #[test]
    fn empty_network_arrival_counts_event_only() {
        let mut e = ParameterEstimator::new(2);
        e.record_arrival(0, &[], &[]).unwrap();
        let p = e.finalize().unwrap();
        assert_eq!(p.pf, 0.0);
        assert_eq!(p.ps, 0.0);
    }

    #[test]
    fn matrices_row_normalize() {
        let mut e = ParameterEstimator::new(3);
        e.record_arrival(3, &[(2, 0), (2, 0), (2, 2)], &[(0, 1)])
            .unwrap();
        e.record_termination(&[(0, 2), (0, 2), (0, 0), (0, 1)])
            .unwrap();
        let p = e.finalize().unwrap();
        assert!((p.a[2][0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.a[2][2] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.b[0][1], 1.0);
        assert_eq!(p.t[0][2], 0.5);
        assert_eq!(p.t[0][0], 0.25);
        assert!(p.is_consistent());
    }

    #[test]
    fn unobserved_rows_become_identity() {
        let mut e = ParameterEstimator::new(3);
        e.record_arrival(1, &[(2, 0)], &[]).unwrap();
        let p = e.finalize().unwrap();
        assert_eq!(p.a[0], vec![1.0, 0.0, 0.0]);
        assert_eq!(p.a[1], vec![0.0, 1.0, 0.0]);
        assert!(p.is_consistent());
    }

    #[test]
    fn failure_transitions_have_their_own_matrix() {
        let mut e = ParameterEstimator::new(2);
        e.record_arrival(1, &[], &[]).unwrap();
        e.record_failure(4, &[(1, 0), (1, 0)]).unwrap();
        let p = e.finalize().unwrap();
        assert_eq!(p.f[1][0], 1.0);
        // Arrivals' A matrix is untouched by failures.
        assert_eq!(p.a[1][1], 1.0);
        assert!((p.pf_fault - 0.5).abs() < 1e-12);
        assert!(p.is_consistent());
    }

    #[test]
    fn pf_fault_averages_over_failure_events() {
        let mut e = ParameterEstimator::new(2);
        e.record_arrival(1, &[], &[]).unwrap();
        e.record_failure(10, &[(1, 0)]).unwrap(); // 0.1
        e.record_failure(10, &[(1, 0), (1, 0), (1, 0)]).unwrap(); // 0.3
        let p = e.finalize().unwrap();
        assert!((p.pf_fault - 0.2).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_levels_rejected() {
        let mut e = ParameterEstimator::new(2);
        assert_eq!(
            e.record_arrival(1, &[(2, 0)], &[]),
            Err(EstimateError::LevelOutOfRange(2))
        );
        assert_eq!(
            e.record_termination(&[(0, 5)]),
            Err(EstimateError::LevelOutOfRange(5))
        );
        assert_eq!(
            e.record_failure(1, &[(3, 0)]),
            Err(EstimateError::LevelOutOfRange(3))
        );
    }

    #[test]
    fn consistency_detects_bad_params() {
        let mut p = MeasuredParams {
            n_states: 2,
            pf: 0.5,
            ps: 0.1,
            pf_fault: 0.05,
            a: vec![vec![1.0, 0.0], vec![0.5, 0.5]],
            b: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            t: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            f: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            occupancy: vec![0.25, 0.75],
        };
        assert!(p.is_consistent());
        p.pf = 1.5;
        assert!(!p.is_consistent());
        p.pf = 0.5;
        p.a[0][0] = 0.9;
        assert!(!p.is_consistent());
        p.a[0][0] = 1.0;
        p.occupancy = vec![0.5, 0.1];
        assert!(!p.is_consistent());
    }

    #[test]
    fn occupancy_normalizes_and_averages() {
        let mut e = ParameterEstimator::new(3);
        e.record_arrival(1, &[], &[]).unwrap();
        e.record_occupancy([0, 2, 2, 2]).unwrap();
        let p = e.finalize().unwrap();
        assert_eq!(p.occupancy, vec![0.25, 0.0, 0.75]);
        assert!((p.occupancy_mean_level().unwrap() - 1.5).abs() < 1e-12);
        assert!(p.is_consistent());
    }

    #[test]
    fn occupancy_absent_is_zeroes() {
        let mut e = ParameterEstimator::new(2);
        e.record_arrival(1, &[], &[]).unwrap();
        let p = e.finalize().unwrap();
        assert_eq!(p.occupancy, vec![0.0, 0.0]);
        assert_eq!(p.occupancy_mean_level(), None);
        assert!(p.is_consistent());
    }

    #[test]
    fn occupancy_rejects_bad_level() {
        let mut e = ParameterEstimator::new(2);
        assert_eq!(
            e.record_occupancy([5]),
            Err(EstimateError::LevelOutOfRange(5))
        );
    }

    #[test]
    fn error_display() {
        assert!(EstimateError::NoArrivals.to_string().contains("arrival"));
        assert!(EstimateError::LevelOutOfRange(7).to_string().contains('7'));
    }
}
