//! The paper's analytic model (Section 3.2): a CTMC over the bandwidth
//! levels of a single primary channel.
//!
//! Transition rates between level `i` and level `j ≠ i`:
//!
//! * downward mass from `A` (directly-chained channels hit by an arrival):
//!   `P_f · A_ij · λ`;
//! * downward mass from `F` (channels retreating for a backup activation):
//!   `P_f^fault · F_ij · γ`;
//! * upward mass from `B` (indirectly-chained channels on an arrival):
//!   `P_s · B_ij · λ`;
//! * upward mass from `T` (directly-chained channels on a termination):
//!   `P_f · T_ij · μ`.
//!
//! With γ = 0 this is exactly the paper's chain. For γ > 0 the paper reuses
//! the *arrival* incidence `P_f` for the failure term (`P_f·A_ij·(λ+γ)`);
//! we use the measured failure-specific incidence instead, which keeps the
//! model in agreement with the simulation over the whole γ range of
//! Figure 4 (see `ParameterEstimator::record_failure`).
//!
//! The paper draws `A` strictly below the diagonal and `B`/`T` strictly
//! above; we place each measured matrix's full off-diagonal mass into the
//! generator, which reduces to the paper's chain when the measurements have
//! the paper's structure and remains well-defined when rare counter-flow
//! transitions are observed (e.g. a retreated channel re-climbing past its
//! old level within the same re-distribution).

use drqos_core::measure::MeasuredParams;
use drqos_core::qos::ElasticQos;
use drqos_markov::ctmc::{Ctmc, CtmcBuilder};
use drqos_markov::error::MarkovError;
use drqos_markov::steady_state::{self, SteadyState};
use std::fmt;

/// Rates of the three event processes driving the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRates {
    /// DR-connection request arrival rate λ.
    pub lambda: f64,
    /// DR-connection termination rate μ (steady state assumes μ = λ).
    pub mu: f64,
    /// Link failure rate γ.
    pub gamma: f64,
}

impl EventRates {
    /// The paper's evaluation rates: λ = μ = 0.001 and the given γ.
    pub fn paper_default(gamma: f64) -> Self {
        Self {
            lambda: 0.001,
            mu: 0.001,
            gamma,
        }
    }
}

/// Errors from model construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// The measured parameters failed their consistency check.
    InconsistentParams,
    /// The QoS level count does not match the measured matrices.
    StateMismatch {
        /// Levels in the QoS range.
        qos: usize,
        /// States in the measurement.
        measured: usize,
    },
    /// A rate was negative or non-finite.
    InvalidRate(f64),
    /// The underlying chain could not be solved.
    Solve(MarkovError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InconsistentParams => {
                write!(f, "measured parameters are inconsistent")
            }
            ModelError::StateMismatch { qos, measured } => write!(
                f,
                "QoS has {qos} levels but measurements cover {measured} states"
            ),
            ModelError::InvalidRate(r) => {
                write!(f, "event rates must be finite and non-negative, got {r}")
            }
            ModelError::Solve(e) => write!(f, "failed to solve the model chain: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MarkovError> for ModelError {
    fn from(e: MarkovError) -> Self {
        ModelError::Solve(e)
    }
}

/// The assembled elastic-QoS model: chain + QoS grid.
#[derive(Debug, Clone)]
pub struct ElasticQosModel {
    qos: ElasticQos,
    chain: Ctmc,
    /// States with at least one observed in- or out-transition. States
    /// outside this set never moved during measurement; they are excluded
    /// from the chain (they would otherwise be spurious absorbing states).
    active: Vec<usize>,
    /// Degenerate fallback when *no* transitions were observed at all: the
    /// occupancy-weighted mean bandwidth (the system simply sat still).
    occupancy_avg: Option<f64>,
    /// Observed level occupancy (all zeros when not recorded) — used to
    /// validate that the solved chain's recurrent class covers where the
    /// system actually lives.
    occupancy: Vec<f64>,
}

impl ElasticQosModel {
    /// Builds the model chain from measured parameters and event rates.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InconsistentParams`] if `params` fails its
    ///   consistency check.
    /// * [`ModelError::StateMismatch`] if `qos.num_levels()` differs from
    ///   `params.n_states`.
    /// * [`ModelError::InvalidRate`] if any event rate is negative or
    ///   non-finite.
    pub fn new(
        qos: ElasticQos,
        params: &MeasuredParams,
        rates: EventRates,
    ) -> Result<Self, ModelError> {
        if !params.is_consistent() {
            return Err(ModelError::InconsistentParams);
        }
        if qos.num_levels() != params.n_states {
            return Err(ModelError::StateMismatch {
                qos: qos.num_levels(),
                measured: params.n_states,
            });
        }
        for r in [rates.lambda, rates.mu, rates.gamma] {
            if !r.is_finite() || r < 0.0 {
                return Err(ModelError::InvalidRate(r));
            }
        }
        let n = params.n_states;
        let mut rate_matrix = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                rate_matrix[i * n + j] = params.pf * params.a[i][j] * rates.lambda
                    + params.pf_fault * params.f[i][j] * rates.gamma
                    + params.ps * params.b[i][j] * rates.lambda
                    + params.pf * params.t[i][j] * rates.mu;
            }
        }
        // Keep only states that participate in some transition; untouched
        // states carry no dynamics and would otherwise appear absorbing.
        let active: Vec<usize> = (0..n)
            .filter(|&i| {
                (0..n).any(|j| rate_matrix[i * n + j] > 0.0 || rate_matrix[j * n + i] > 0.0)
            })
            .collect();
        let mut builder = CtmcBuilder::new(active.len().max(1));
        for (ai, &i) in active.iter().enumerate() {
            for (aj, &j) in active.iter().enumerate() {
                let r = rate_matrix[i * n + j];
                if r > 0.0 {
                    builder = builder.rate(ai, aj, r).map_err(ModelError::Solve)?;
                }
            }
        }
        let occupancy_avg = params
            .occupancy_mean_level()
            .map(|mean_level| qos.min().as_kbps_f64() + mean_level * qos.increment().as_kbps_f64());
        Ok(Self {
            qos,
            chain: builder.build()?,
            active,
            occupancy_avg,
            occupancy: params.occupancy.clone(),
        })
    }

    /// The underlying CTMC (over the *active* states only; see
    /// [`ElasticQosModel::active_states`]).
    pub fn chain(&self) -> &Ctmc {
        &self.chain
    }

    /// The original level indices of the chain's states.
    pub fn active_states(&self) -> &[usize] {
        &self.active
    }

    /// The QoS grid the states map onto.
    pub fn qos(&self) -> &ElasticQos {
        &self.qos
    }

    /// Solves for the stationary level distribution over all `N` levels
    /// (GTH on the recurrent class of the active sub-chain; inactive and
    /// transient levels get probability zero).
    ///
    /// # Errors
    ///
    /// * [`ModelError::Solve`] with [`MarkovError::Empty`] if no
    ///   transitions were observed at all (use
    ///   [`ElasticQosModel::average_bandwidth`], which falls back to
    ///   occupancy).
    /// * [`ModelError::Solve`] if the active chain has multiple closed
    ///   recurrent classes (degenerate measurements).
    pub fn steady_state(&self) -> Result<SteadyState, ModelError> {
        if self.active.is_empty() {
            return Err(ModelError::Solve(MarkovError::Empty));
        }
        Ok(steady_state::solve(&self.chain)?)
    }

    /// The model's headline output: the expected bandwidth reserved for a
    /// primary channel, `Σ_i π_i (B_min + i·Δ)`, in Kbps.
    ///
    /// When no transitions were observed (a load so light that nothing ever
    /// moved), the observed occupancy is returned instead — the stationary
    /// distribution of a frozen system is wherever it sits.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Solve`] if the chain degenerated and no
    /// occupancy was recorded either.
    pub fn average_bandwidth(&self) -> Result<f64, ModelError> {
        if self.active.is_empty() {
            return self
                .occupancy_avg
                .ok_or(ModelError::Solve(MarkovError::Empty));
        }
        let solved = self.steady_state();
        let ss = match solved {
            Ok(ss) => ss,
            // Multiple closed classes: sparse-measurement degeneracy. Fall
            // back to occupancy when available.
            Err(e) => {
                return self.occupancy_avg.ok_or(e);
            }
        };
        // Coverage check: the recurrent class must contain the bulk of the
        // observed occupancy, or the sparse measurement led the chain to a
        // corner the real system rarely visits (seen at very light loads,
        // where transitions are rare events). Occupancy is the more direct
        // estimator there.
        let occ_total: f64 = self.occupancy.iter().sum();
        if occ_total > 0.0 {
            let covered: f64 = self
                .active
                .iter()
                .enumerate()
                .filter(|&(ai, _)| ss.prob(ai) > 1e-12)
                .map(|(_, &state)| self.occupancy[state])
                .sum();
            if covered / occ_total < 0.5 {
                if let Some(fallback) = self.occupancy_avg {
                    return Ok(fallback);
                }
            }
        }
        Ok(ss.expectation(|ai| self.qos.level_bandwidth(self.active[ai]).as_kbps_f64()))
    }

    /// Transient solution (uniformization): the distribution over all `N`
    /// levels a virtual time `t` after starting from `initial` (a
    /// distribution over levels — e.g. all mass on level 0 right after a
    /// retreat). Levels outside the active set keep their initial mass
    /// (they have no dynamics).
    ///
    /// This is the "can be expanded" item from the paper's conclusion: it
    /// predicts how quickly a channel recovers its QoS after a disturbance.
    ///
    /// # Errors
    ///
    /// * [`ModelError::StateMismatch`] if `initial` has the wrong length.
    /// * [`ModelError::InvalidRate`] if `t` is negative or non-finite.
    /// * [`ModelError::Solve`] if the distribution restricted to active
    ///   states is empty or the solver fails.
    pub(crate) fn transient_levels(&self, initial: &[f64], t: f64) -> Result<Vec<f64>, ModelError> {
        let n = self.qos.num_levels();
        if initial.len() != n {
            return Err(ModelError::StateMismatch {
                qos: n,
                measured: initial.len(),
            });
        }
        if self.active.is_empty() {
            // No dynamics at all: the distribution is frozen.
            return Ok(initial.to_vec());
        }
        let sub_initial: Vec<f64> = self.active.iter().map(|&i| initial[i]).collect();
        let sub_mass: f64 = sub_initial.iter().sum();
        if sub_mass <= 0.0 {
            return Err(ModelError::Solve(MarkovError::Singular));
        }
        let evolved = drqos_markov::transient::transient(&self.chain, &sub_initial, t, 1e-10)?;
        let mut out = initial.to_vec();
        for (&state, _) in self.active.iter().zip(&evolved) {
            out[state] = 0.0;
        }
        for (&state, &p) in self.active.iter().zip(&evolved) {
            out[state] = p * sub_mass;
        }
        Ok(out)
    }

    /// The expected time for a channel at level `from` to first reach
    /// level `to` (e.g. from a post-retreat minimum back to full quality).
    /// Returns `f64::INFINITY` when the chain cannot make the trip.
    ///
    /// # Errors
    ///
    /// * [`ModelError::StateMismatch`] if either level is out of range.
    /// * [`ModelError::Solve`] if either level had no observed dynamics
    ///   (not represented in the chain) or the solve fails.
    pub fn mean_passage_time(&self, from: usize, to: usize) -> Result<f64, ModelError> {
        let n = self.qos.num_levels();
        if from >= n || to >= n {
            return Err(ModelError::StateMismatch {
                qos: n,
                measured: from.max(to),
            });
        }
        let from_idx = self
            .active
            .iter()
            .position(|&s| s == from)
            .ok_or(ModelError::Solve(MarkovError::InvalidState(from)))?;
        let to_idx = self
            .active
            .iter()
            .position(|&s| s == to)
            .ok_or(ModelError::Solve(MarkovError::InvalidState(to)))?;
        let times = drqos_markov::hitting::mean_hitting_times(&self.chain, &[to_idx])?;
        Ok(times[from_idx])
    }

    /// The expected bandwidth a time `t` after starting from `initial`.
    ///
    /// # Errors
    ///
    /// See [`ElasticQosModel::transient_levels`].
    pub fn transient_average_bandwidth(&self, initial: &[f64], t: f64) -> Result<f64, ModelError> {
        let dist = self.transient_levels(initial, t)?;
        Ok(dist
            .iter()
            .enumerate()
            .map(|(i, &p)| p * self.qos.level_bandwidth(i).as_kbps_f64())
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_core::qos::Bandwidth;

    /// Hand-built parameters with the paper's structure: retreats to the
    /// bottom on arrival, single-increment climbs on termination.
    fn synthetic_params(n: usize, pf: f64, ps: f64) -> MeasuredParams {
        let mut a = vec![vec![0.0; n]; n];
        let mut b = vec![vec![0.0; n]; n];
        let mut t = vec![vec![0.0; n]; n];
        for i in 0..n {
            // Arrival: full retreat to level 0.
            a[i][0] = 1.0;
            // Indirect arrival: one step up (if possible).
            if i + 1 < n {
                b[i][i + 1] = 1.0;
                t[i][i + 1] = 1.0;
            } else {
                b[i][i] = 1.0;
                t[i][i] = 1.0;
            }
        }
        let f = a.clone();
        MeasuredParams {
            n_states: n,
            pf,
            ps,
            pf_fault: pf,
            a,
            b,
            t,
            f,
            occupancy: vec![1.0 / n as f64; n],
        }
    }

    fn qos5() -> ElasticQos {
        ElasticQos::paper_video(100)
    }

    #[test]
    fn builds_and_solves() {
        let params = synthetic_params(5, 0.3, 0.1);
        let model = ElasticQosModel::new(qos5(), &params, EventRates::paper_default(0.0)).unwrap();
        let avg = model.average_bandwidth().unwrap();
        assert!(
            (100.0..=500.0).contains(&avg),
            "average bandwidth {avg} out of the QoS range"
        );
    }

    #[test]
    fn stronger_contention_lowers_average() {
        let rates = EventRates::paper_default(0.0);
        let light = ElasticQosModel::new(qos5(), &synthetic_params(5, 0.05, 0.2), rates)
            .unwrap()
            .average_bandwidth()
            .unwrap();
        let heavy = ElasticQosModel::new(qos5(), &synthetic_params(5, 0.9, 0.02), rates)
            .unwrap()
            .average_bandwidth()
            .unwrap();
        assert!(
            heavy < light,
            "more direct chaining should depress bandwidth: {heavy} vs {light}"
        );
    }

    #[test]
    fn failure_rate_adds_downward_pressure() {
        let params = synthetic_params(5, 0.3, 0.1);
        let calm = ElasticQosModel::new(qos5(), &params, EventRates::paper_default(0.0))
            .unwrap()
            .average_bandwidth()
            .unwrap();
        let stormy = ElasticQosModel::new(qos5(), &params, EventRates::paper_default(0.01))
            .unwrap()
            .average_bandwidth()
            .unwrap();
        assert!(
            stormy < calm,
            "γ should depress bandwidth: {stormy} vs {calm}"
        );
    }

    #[test]
    fn tiny_gamma_is_invisible() {
        // The paper's Figure 4: γ ≪ λ has no visible effect.
        let params = synthetic_params(9, 0.3, 0.1);
        let qos = ElasticQos::paper_video(50);
        let base = ElasticQosModel::new(qos, &params, EventRates::paper_default(0.0))
            .unwrap()
            .average_bandwidth()
            .unwrap();
        let tiny = ElasticQosModel::new(qos, &params, EventRates::paper_default(1e-7))
            .unwrap()
            .average_bandwidth()
            .unwrap();
        assert!((base - tiny).abs() < 0.01, "{base} vs {tiny}");
    }

    #[test]
    fn state_mismatch_detected() {
        let params = synthetic_params(5, 0.3, 0.1);
        let qos9 = ElasticQos::paper_video(50);
        assert!(matches!(
            ElasticQosModel::new(qos9, &params, EventRates::paper_default(0.0)),
            Err(ModelError::StateMismatch {
                qos: 9,
                measured: 5
            })
        ));
    }

    #[test]
    fn inconsistent_params_detected() {
        let mut params = synthetic_params(5, 0.3, 0.1);
        params.pf = 2.0;
        assert_eq!(
            ElasticQosModel::new(qos5(), &params, EventRates::paper_default(0.0)).unwrap_err(),
            ModelError::InconsistentParams
        );
    }

    #[test]
    fn invalid_rates_detected() {
        let params = synthetic_params(5, 0.3, 0.1);
        let bad = EventRates {
            lambda: -1.0,
            mu: 0.001,
            gamma: 0.0,
        };
        assert!(matches!(
            ElasticQosModel::new(qos5(), &params, bad),
            Err(ModelError::InvalidRate(_))
        ));
    }

    #[test]
    fn rigid_qos_single_state() {
        let qos = ElasticQos::rigid(Bandwidth::kbps(100)).unwrap();
        let params = synthetic_params(1, 0.3, 0.1);
        let model = ElasticQosModel::new(qos, &params, EventRates::paper_default(0.0)).unwrap();
        assert_eq!(model.average_bandwidth().unwrap(), 100.0);
    }

    #[test]
    fn two_state_closed_form() {
        // n = 2: down rate d = pf·λ (a[1][0] = 1), up rate u = ps·λ + pf·μ.
        // π₁ = u/(u+d); average = min + π₁·Δ.
        let params = synthetic_params(2, 0.4, 0.2);
        let qos = ElasticQos::new(
            Bandwidth::kbps(100),
            Bandwidth::kbps(200),
            Bandwidth::kbps(100),
            1.0,
        )
        .unwrap();
        let rates = EventRates {
            lambda: 0.001,
            mu: 0.001,
            gamma: 0.0,
        };
        let model = ElasticQosModel::new(qos, &params, rates).unwrap();
        let d = 0.4 * 0.001;
        let u = 0.2 * 0.001 + 0.4 * 0.001;
        let pi1 = u / (u + d);
        let expected = 100.0 + pi1 * 100.0;
        assert!((model.average_bandwidth().unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn transient_recovers_toward_steady_state() {
        let params = synthetic_params(5, 0.3, 0.2);
        let model = ElasticQosModel::new(qos5(), &params, EventRates::paper_default(0.0)).unwrap();
        // All mass on level 0 (just retreated).
        let mut initial = vec![0.0; 5];
        initial[0] = 1.0;
        let bw0 = model.transient_average_bandwidth(&initial, 0.0).unwrap();
        assert!((bw0 - 100.0).abs() < 1e-9);
        // Recovery is monotone towards the stationary average.
        let stationary = model.average_bandwidth().unwrap();
        let mut last = bw0;
        for t in [100.0, 1_000.0, 10_000.0, 100_000.0] {
            let bw = model.transient_average_bandwidth(&initial, t).unwrap();
            assert!(bw >= last - 1e-9, "recovery regressed at t={t}");
            last = bw;
        }
        assert!(
            (last - stationary).abs() < 0.5,
            "t=100000 should have converged: {last} vs {stationary}"
        );
    }

    #[test]
    fn mean_passage_time_is_positive_and_monotone() {
        let params = synthetic_params(5, 0.3, 0.2);
        let model = ElasticQosModel::new(qos5(), &params, EventRates::paper_default(0.0)).unwrap();
        let t1 = model.mean_passage_time(0, 1).unwrap();
        let t4 = model.mean_passage_time(0, 4).unwrap();
        assert!(t1 > 0.0);
        assert!(t4 > t1, "farther targets take longer: {t1} vs {t4}");
        assert_eq!(model.mean_passage_time(4, 4).unwrap(), 0.0);
    }

    #[test]
    fn mean_passage_time_validates_levels() {
        let params = synthetic_params(5, 0.3, 0.2);
        let model = ElasticQosModel::new(qos5(), &params, EventRates::paper_default(0.0)).unwrap();
        assert!(model.mean_passage_time(9, 0).is_err());
        assert!(model.mean_passage_time(0, 9).is_err());
    }

    #[test]
    fn transient_validates_inputs() {
        let params = synthetic_params(5, 0.3, 0.2);
        let model = ElasticQosModel::new(qos5(), &params, EventRates::paper_default(0.0)).unwrap();
        assert!(model.transient_levels(&[1.0; 3], 1.0).is_err());
        assert!(model.transient_levels(&[0.2; 5], -1.0).is_err());
    }

    #[test]
    fn transient_mass_is_conserved() {
        let params = synthetic_params(4, 0.5, 0.1);
        let qos = ElasticQos::new(
            Bandwidth::kbps(100),
            Bandwidth::kbps(400),
            Bandwidth::kbps(100),
            1.0,
        )
        .unwrap();
        let model = ElasticQosModel::new(qos, &params, EventRates::paper_default(0.0)).unwrap();
        let initial = vec![0.25; 4];
        let dist = model.transient_levels(&initial, 500.0).unwrap();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-8, "{dist:?}");
        assert!(dist.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn error_display() {
        assert!(ModelError::InconsistentParams
            .to_string()
            .contains("inconsistent"));
        assert!(ModelError::StateMismatch {
            qos: 2,
            measured: 3
        }
        .to_string()
        .contains("2 levels"));
        assert!(ModelError::InvalidRate(-1.0).to_string().contains("-1"));
        assert!(ModelError::Solve(MarkovError::Empty)
            .to_string()
            .contains("solve"));
    }
}
