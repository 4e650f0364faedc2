//! Adversarial workload scenarios: where the paper's model breaks.
//!
//! Every experiment up to now ran the paper's friendliest world —
//! independent Poisson arrivals, exponential holding times, independent
//! single-link failures — exactly the regime the DSN'01 Markov model is
//! calibrated for. A [`Scenario`] composes harsher worlds on top of the
//! existing [`crate::workload::Workload`] machinery:
//!
//! * **flash crowd** — a non-homogeneous Poisson arrival process whose
//!   rate multiplies by [`Scenario::burst_factor`] inside seeded burst
//!   windows (one per modulation period, offset drawn deterministically
//!   from the seed);
//! * **diurnal** — piecewise-constant rate modulation over a repeating
//!   period, with factors averaging 1 so the *total* offered load matches
//!   the flat-Poisson baseline;
//! * **Pareto holding** — per-connection heavy-tailed holding times
//!   (shape ≤ 2 ⇒ infinite variance), replacing the baseline's
//!   memoryless termination process;
//! * **SRLG churn** — correlated failures through shared-risk link
//!   groups: [`crate::network::Network::fail_srlg`] events driven by the
//!   seeded [`drqos_sim::srlg::SrlgChurn`] stream.
//!
//! This module holds what *is* a scenario — the kinds, the rate curve,
//! the burst windows and the shared-risk-group derivation. The loop that
//! runs one is [`run_scenario_churn`] in [`crate::experiment`]: the same
//! loop the paper's own experiment runs under [`Scenario::baseline`].

pub use crate::experiment::run_scenario_churn;
use crate::network::Network;
use drqos_sim::rng::Rng;
use drqos_topology::graph::{Graph, LinkId};
use std::fmt;

/// RNG stream tag for deriving shared-risk groups from an experiment seed
/// (ASCII "SRLG"), mirroring the testkit's stream-separation idiom.
pub(crate) const SRLG_STREAM: u64 = 0x5352_4C47;

/// Which adversarial world to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScenarioKind {
    /// The paper's calibrated regime: flat Poisson arrivals, memoryless
    /// terminations, independent link failures.
    Baseline,
    /// Seeded burst epochs multiply the arrival rate.
    FlashCrowd,
    /// Piecewise day/night rate modulation, load-neutral on average.
    Diurnal,
    /// Heavy-tailed per-connection holding times.
    ParetoHolding,
    /// Correlated failures over shared-risk link groups.
    SrlgChurn,
}

impl ScenarioKind {
    /// Every kind, in sweep order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::Baseline,
        ScenarioKind::FlashCrowd,
        ScenarioKind::Diurnal,
        ScenarioKind::ParetoHolding,
        ScenarioKind::SrlgChurn,
    ];

    /// The canonical name (also the CSV column value and the
    /// `DRQOS_SCENARIO` spelling).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Baseline => "baseline",
            ScenarioKind::FlashCrowd => "flash-crowd",
            ScenarioKind::Diurnal => "diurnal",
            ScenarioKind::ParetoHolding => "pareto",
            ScenarioKind::SrlgChurn => "srlg",
        }
    }

    /// Parses a scenario name (case-insensitive, trimmed; `flashcrowd`
    /// and `flash-crowd` both work). `None` for anything else.
    pub fn parse(s: &str) -> Option<ScenarioKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "baseline" | "poisson" => Some(ScenarioKind::Baseline),
            "flash-crowd" | "flashcrowd" | "flash" => Some(ScenarioKind::FlashCrowd),
            "diurnal" => Some(ScenarioKind::Diurnal),
            "pareto" | "pareto-holding" => Some(ScenarioKind::ParetoHolding),
            "srlg" | "srlg-churn" => Some(ScenarioKind::SrlgChurn),
            _ => None,
        }
    }
}

impl fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Diurnal piecewise rate factors (four equal segments per period). They
/// average exactly 1.0, so the rate integral over any whole number of
/// periods equals the flat-Poisson integral — the scenario reshapes
/// *when* load arrives, not *how much*.
pub(crate) const DIURNAL_FACTORS: [f64; 4] = [0.4, 0.8, 1.6, 1.2];

/// A fully-parameterized adversarial scenario. All time-like parameters
/// are expressed in units of the mean inter-arrival time `1/λ`, so one
/// scenario definition behaves comparably across load points.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Which world to simulate.
    pub kind: ScenarioKind,
    /// Modulation period for flash-crowd and diurnal scenarios, in
    /// expected arrivals per period.
    pub period_events: f64,
    /// Arrival-rate multiplier inside a flash-crowd burst window.
    pub burst_factor: f64,
    /// Fraction of each period covered by the burst window.
    pub burst_fraction: f64,
    /// Pareto tail index for heavy-tailed holding times (must exceed 1
    /// for a finite mean; ≤ 2 gives infinite variance).
    pub pareto_shape: f64,
    /// Number of shared-risk groups derived from the seed.
    pub srlg_count: usize,
    /// Links per shared-risk group.
    pub srlg_size: usize,
    /// Mean group time-to-failure, in units of `1/λ`.
    pub srlg_mean_up: f64,
    /// Mean group time-to-repair, in units of `1/λ`.
    pub srlg_mean_down: f64,
}

impl Scenario {
    /// The default parameterization of a kind.
    pub fn new(kind: ScenarioKind) -> Self {
        Self {
            kind,
            period_events: 250.0,
            burst_factor: 6.0,
            burst_fraction: 0.12,
            pareto_shape: 1.6,
            srlg_count: 4,
            srlg_size: 3,
            srlg_mean_up: 150.0,
            srlg_mean_down: 40.0,
        }
    }

    /// The paper's calibrated regime.
    pub fn baseline() -> Self {
        Self::new(ScenarioKind::Baseline)
    }

    /// The canonical scenario name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The modulation period in virtual seconds at arrival rate `lambda`.
    pub(crate) fn period_time(&self, lambda: f64) -> f64 {
        self.period_events / lambda
    }

    /// The seeded burst window of period `index` as absolute
    /// `(start, end)` times: the offset within the period is a pure hash
    /// of `(seed, index)`, so burst epochs are deterministic per seed and
    /// need no RNG state.
    pub(crate) fn burst_window(&self, seed: u64, lambda: f64, index: u64) -> (f64, f64) {
        let period = self.period_time(lambda);
        let len = self.burst_fraction.clamp(0.0, 1.0) * period;
        let offset = hash_fraction(seed, index) * (period - len);
        let start = index as f64 * period + offset;
        (start, start + len)
    }

    /// The instantaneous arrival rate at virtual time `t` for base rate
    /// `lambda`. Flat for every kind except flash-crowd and diurnal.
    pub fn rate_at(&self, seed: u64, lambda: f64, t: f64) -> f64 {
        match self.kind {
            ScenarioKind::FlashCrowd => {
                let index = (t / self.period_time(lambda)).floor().max(0.0) as u64;
                let (start, end) = self.burst_window(seed, lambda, index);
                if t >= start && t < end {
                    lambda * self.burst_factor
                } else {
                    lambda
                }
            }
            ScenarioKind::Diurnal => {
                let period = self.period_time(lambda);
                let phase = (t / period).rem_euclid(1.0);
                let segment = ((phase * DIURNAL_FACTORS.len() as f64) as usize)
                    .min(DIURNAL_FACTORS.len() - 1);
                lambda * DIURNAL_FACTORS[segment]
            }
            _ => lambda,
        }
    }

    /// An upper bound on [`Scenario::rate_at`] over all `t`, used as the
    /// thinning envelope for non-homogeneous arrival sampling.
    pub fn peak_rate(&self, lambda: f64) -> f64 {
        match self.kind {
            ScenarioKind::FlashCrowd => lambda * self.burst_factor.max(1.0),
            ScenarioKind::Diurnal => lambda * DIURNAL_FACTORS.iter().copied().fold(1.0, f64::max),
            _ => lambda,
        }
    }
}

/// Deterministic hash of `(seed, index)` onto `[0, 1)` (splitmix64
/// finalizer): burst-epoch placement without consuming RNG state.
fn hash_fraction(seed: u64, index: u64) -> f64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Derives `count` shared-risk groups of `size` links each from the seed:
/// a seeded shuffle of the link ids, chunked. Deterministic per
/// `(graph, count, size, seed)`, so every diff-harness side and every
/// daemon replica derives identical groups.
pub(crate) fn seeded_srlgs(
    graph: &Graph,
    count: usize,
    size: usize,
    seed: u64,
) -> Vec<Vec<LinkId>> {
    let mut ids: Vec<LinkId> = (0..graph.link_count()).map(LinkId).collect();
    let mut rng = Rng::seed_from_u64(seed ^ SRLG_STREAM);
    rng.shuffle(&mut ids);
    ids.chunks(size.max(1))
        .take(count)
        .map(|chunk| chunk.to_vec())
        .collect()
}

/// Registers the seeded groups on `net`; returns how many were
/// registered. Registration cannot fail for groups derived from the
/// network's own graph, but the result is checked anyway so callers in
/// panic-free zones can use this directly.
pub fn register_seeded_srlgs(net: &mut Network, count: usize, size: usize, seed: u64) -> usize {
    let groups = seeded_srlgs(net.graph(), count, size, seed);
    let mut registered = 0;
    for group in groups {
        if net.register_srlg(group).is_ok() {
            registered += 1;
        }
    }
    registered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::qos::ElasticQos;
    use drqos_sim::dist::{Distribution, Pareto};
    use drqos_topology::waxman;
    use std::collections::BTreeSet;

    fn small_graph(seed: u64) -> Graph {
        waxman::paper_waxman(30)
            .generate(&mut Rng::seed_from_u64(seed))
            .unwrap()
    }

    fn quick_config(target: usize) -> ExperimentConfig {
        ExperimentConfig {
            churn_events: 300,
            ..ExperimentConfig::paper_default(target, 100)
        }
    }

    #[test]
    fn kind_names_round_trip_through_parse() {
        for kind in ScenarioKind::ALL {
            assert_eq!(ScenarioKind::parse(kind.name()), Some(kind));
            assert_eq!(ScenarioKind::parse(&kind.name().to_uppercase()), Some(kind));
        }
        assert_eq!(
            ScenarioKind::parse("flashcrowd"),
            Some(ScenarioKind::FlashCrowd)
        );
        assert_eq!(ScenarioKind::parse(" srlg "), Some(ScenarioKind::SrlgChurn));
        assert_eq!(ScenarioKind::parse("nope"), None);
    }

    #[test]
    fn burst_windows_are_deterministic_per_seed() {
        let s = Scenario::new(ScenarioKind::FlashCrowd);
        let a: Vec<(f64, f64)> = (0..32).map(|i| s.burst_window(7, 0.001, i)).collect();
        let b: Vec<(f64, f64)> = (0..32).map(|i| s.burst_window(7, 0.001, i)).collect();
        assert_eq!(a, b);
        let c: Vec<(f64, f64)> = (0..32).map(|i| s.burst_window(8, 0.001, i)).collect();
        assert_ne!(a, c, "different seeds must place bursts differently");
        let period = s.period_time(0.001);
        for (i, &(start, end)) in a.iter().enumerate() {
            assert!(start >= i as f64 * period && end <= (i + 1) as f64 * period);
            assert!((end - start - s.burst_fraction * period).abs() < 1e-6);
        }
    }

    #[test]
    fn flash_crowd_rate_is_elevated_exactly_inside_the_window() {
        let s = Scenario::new(ScenarioKind::FlashCrowd);
        let (lambda, seed) = (0.001, 11);
        let (start, end) = s.burst_window(seed, lambda, 3);
        let mid = (start + end) / 2.0;
        assert_eq!(s.rate_at(seed, lambda, mid), lambda * s.burst_factor);
        assert_eq!(s.rate_at(seed, lambda, end + 1.0), lambda);
        assert!(s.peak_rate(lambda) >= s.rate_at(seed, lambda, mid));
    }

    #[test]
    fn diurnal_factors_are_load_neutral() {
        let mean: f64 = DIURNAL_FACTORS.iter().sum::<f64>() / DIURNAL_FACTORS.len() as f64;
        assert!(
            (mean - 1.0).abs() < 1e-12,
            "factors must average 1, got {mean}"
        );
        let s = Scenario::new(ScenarioKind::Diurnal);
        // Piecewise segments hit each factor across one period.
        let period = s.period_time(0.001);
        for (i, f) in DIURNAL_FACTORS.iter().enumerate() {
            let t = (i as f64 + 0.5) / DIURNAL_FACTORS.len() as f64 * period;
            assert_eq!(s.rate_at(0, 0.001, t), 0.001 * f);
        }
    }

    #[test]
    fn seeded_srlgs_are_deterministic_and_disjoint() {
        let g = small_graph(5);
        let a = seeded_srlgs(&g, 4, 3, 2001);
        let b = seeded_srlgs(&g, 4, 3, 2001);
        assert_eq!(a, b);
        assert_ne!(a, seeded_srlgs(&g, 4, 3, 2002));
        assert_eq!(a.len(), 4);
        let mut seen = BTreeSet::new();
        for group in &a {
            assert_eq!(group.len(), 3);
            for l in group {
                assert!(seen.insert(*l), "groups must not overlap");
                assert!(l.index() < g.link_count());
            }
        }
    }

    #[test]
    fn register_seeded_srlgs_registers_on_the_network() {
        let mut net = Network::new(small_graph(6), crate::network::NetworkConfig::default());
        let n = register_seeded_srlgs(&mut net, 3, 2, 99);
        assert_eq!(n, 3);
        assert_eq!(net.srlg_count(), 3);
    }

    #[test]
    fn every_scenario_runs_and_conserves_accounting() {
        for kind in ScenarioKind::ALL {
            let (report, net) =
                run_scenario_churn(small_graph(3), &quick_config(50), &Scenario::new(kind));
            assert_eq!(
                report.attempted,
                report.accepted + report.rejected_primary + report.rejected_backup,
                "{kind}"
            );
            assert!(report.accepted > 0, "{kind}");
            assert!(report.avg_bandwidth_sim >= 100.0, "{kind}");
            assert!(report.avg_bandwidth_sim <= 500.0, "{kind}");
            net.validate();
        }
    }

    #[test]
    fn scenarios_are_deterministic_given_seed() {
        for kind in [
            ScenarioKind::FlashCrowd,
            ScenarioKind::ParetoHolding,
            ScenarioKind::SrlgChurn,
        ] {
            let s = Scenario::new(kind);
            let a = run_scenario_churn(small_graph(4), &quick_config(40), &s).0;
            let b = run_scenario_churn(small_graph(4), &quick_config(40), &s).0;
            assert_eq!(a, b, "{kind}");
        }
    }

    #[test]
    fn srlg_scenario_injects_correlated_failures() {
        let mut cfg = quick_config(60);
        cfg.churn_events = 600;
        let (report, net) = run_scenario_churn(
            small_graph(7),
            &cfg,
            &Scenario::new(ScenarioKind::SrlgChurn),
        );
        assert!(
            report.failures > 1,
            "SRLG churn should fail multiple links, got {}",
            report.failures
        );
        assert!(net.srlg_count() > 0);
        net.validate();
    }

    #[test]
    fn pareto_mean_holding_matches_analytic_mean() {
        let holding = Pareto::from_mean(1000.0, 1.8).unwrap();
        let mut rng = Rng::seed_from_u64(17);
        let n = 400_000;
        let mean: f64 = (0..n).map(|_| holding.sample(&mut rng)).sum::<f64>() / n as f64;
        // Heavy tail ⇒ slow convergence: generous 15% band.
        assert!(
            (mean - 1000.0).abs() / 1000.0 < 0.15,
            "sample mean {mean} too far from 1000"
        );
    }

    #[test]
    fn flash_crowd_depresses_bandwidth_versus_baseline() {
        // The burst epochs concentrate arrivals, so contention during the
        // bursts should pull the time-weighted average at least slightly
        // below (or equal to) the flat-Poisson run at the same load.
        let cfg = quick_config(120);
        let base = run_scenario_churn(small_graph(9), &cfg, &Scenario::baseline()).0;
        let flash = run_scenario_churn(
            small_graph(9),
            &cfg,
            &Scenario::new(ScenarioKind::FlashCrowd),
        )
        .0;
        assert!(
            flash.avg_bandwidth_sim <= base.avg_bandwidth_sim + 20.0,
            "flash crowd should not beat baseline meaningfully: {} vs {}",
            flash.avg_bandwidth_sim,
            base.avg_bandwidth_sim
        );
    }

    #[test]
    fn scenario_uses_qos_template() {
        let mut cfg = quick_config(30);
        cfg.qos = ElasticQos::paper_video(50);
        let (report, _) =
            run_scenario_churn(small_graph(8), &cfg, &Scenario::new(ScenarioKind::Diurnal));
        assert!(report.accepted > 0);
    }
}
