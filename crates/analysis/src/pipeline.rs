//! One-call experiment pipeline: simulate → measure → model → compare.
//!
//! Every data point of the paper's figures is produced the same way:
//! run a churn simulation at some load, measure the transition parameters,
//! solve the Markov model built from them, and put the simulated average,
//! the analytic average, and the ideal reference side by side. This module
//! packages that sequence for the bench binaries and examples.

use crate::ideal;
use crate::model::{ElasticQosModel, EventRates};
use drqos_core::experiment::{ExperimentConfig, ExperimentReport};
use drqos_core::network::Network;
use drqos_core::scenario::{run_scenario_churn, Scenario};
use drqos_topology::graph::Graph;
use drqos_topology::metrics;

/// Simulation, model, and reference outputs for one experiment point.
#[derive(Debug, Clone)]
pub struct ExperimentAnalysis {
    /// The simulation's own report (ground truth).
    pub report: ExperimentReport,
    /// Average bandwidth predicted by the Markov model, in Kbps
    /// (`None` if no parameters were measured or the chain degenerated).
    pub analytic_avg: Option<f64>,
    /// The ideal average bandwidth (clamped to the QoS range), in Kbps.
    pub ideal_avg: f64,
    /// Edges in the topology (the paper's Figure 3 plots this).
    pub edges: usize,
    /// The final network state, for further inspection.
    pub network: Network,
}

impl ExperimentAnalysis {
    /// Absolute analytic − simulated gap in Kbps, if the model solved.
    pub fn model_error(&self) -> Option<f64> {
        self.analytic_avg
            .map(|a| (a - self.report.avg_bandwidth_sim).abs())
    }
}

/// Runs one experiment point on `graph` in the paper's calibrated regime:
/// [`analyze_scenario`] under [`Scenario::baseline`].
pub fn analyze(graph: Graph, config: &ExperimentConfig) -> ExperimentAnalysis {
    analyze_scenario(graph, config, &Scenario::baseline())
}

/// Runs one experiment point under `scenario`: simulate
/// ([`run_scenario_churn`]) → measure → model → compare. The Markov model
/// always assumes the paper's calibrated regime, so under an adversarial
/// [`Scenario`] the analytic column quantifies how far that scenario
/// pushes reality away from the model's world — the divergence the
/// scenario sweep reports per scenario.
///
/// The graph is consumed (the network takes ownership); topology statistics
/// needed for the ideal reference are computed before the run.
pub fn analyze_scenario(
    graph: Graph,
    config: &ExperimentConfig,
    scenario: &Scenario,
) -> ExperimentAnalysis {
    let edges = graph.link_count();
    let (report, network) = run_scenario_churn(graph, config, scenario);
    let rates = EventRates {
        lambda: config.lambda,
        mu: config.lambda,
        gamma: config.gamma,
    };
    let analytic_avg = report.params.as_ref().and_then(|params| {
        ElasticQosModel::new(config.qos, params, rates)
            .and_then(|m| m.average_bandwidth())
            .ok()
    });
    // The ideal line divides all resources among the *active* channels
    // using their measured average route length.
    let avg_hops = if report.avg_path_hops > 0.0 {
        report.avg_path_hops
    } else {
        metrics::average_hop_count(network.graph()).unwrap_or(1.0)
    };
    let ideal_avg = ideal::ideal_clamped(
        config.network.capacity,
        edges,
        report.active_end.max(1),
        avg_hops,
        &config.qos,
    );
    ExperimentAnalysis {
        report,
        analytic_avg,
        ideal_avg,
        edges,
        network,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_sim::rng::Rng;
    use drqos_topology::waxman;

    fn graph(seed: u64) -> Graph {
        waxman::paper_waxman(30)
            .generate(&mut Rng::seed_from_u64(seed))
            .unwrap()
    }

    fn config(target: usize) -> ExperimentConfig {
        ExperimentConfig {
            churn_events: 400,
            ..ExperimentConfig::paper_default(target, 100)
        }
    }

    #[test]
    fn produces_all_three_series() {
        let a = analyze(graph(1), &config(60));
        assert!(a.report.accepted > 0);
        assert!(a.analytic_avg.is_some());
        assert!((100.0..=500.0).contains(&a.ideal_avg));
        assert!(a.edges > 0);
        assert!(a.model_error().is_some());
        a.network.validate();
    }

    #[test]
    fn analytic_tracks_simulation() {
        // The paper's headline claim: the model "accurately represents the
        // behavior of DR-connections". Allow a generous tolerance at this
        // tiny scale — the benches verify the full-size match.
        let a = analyze(graph(2), &config(80));
        let sim = a.report.avg_bandwidth_sim;
        let model = a.analytic_avg.expect("model solved");
        assert!(
            (model - sim).abs() < 150.0,
            "model {model} vs simulation {sim}"
        );
    }

    #[test]
    fn light_load_all_three_agree_high() {
        let a = analyze(graph(3), &config(2));
        assert!(a.report.avg_bandwidth_sim > 450.0);
        assert_eq!(a.ideal_avg, 500.0);
        if let Some(m) = a.analytic_avg {
            assert!(m > 400.0, "analytic {m}");
        }
    }
}
