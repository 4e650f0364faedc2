//! The paper's experiments as reusable functions.
//!
//! All experiments share the paper's setup: 10 Mbps links, elastic QoS
//! 100–500 Kbps, λ = μ = 0.001, equal utilities, random (Waxman) networks
//! calibrated to the paper's 100-node/354-edge statistics, and a
//! transit-stub ("Tier") alternative for Table 1.
//!
//! Each experiment is a sweep over independent points and runs through
//! [`crate::runner::sweep`], which fans the points across worker threads
//! (`DRQOS_THREADS`) and returns rows in input order with per-point
//! timing/counters attached. Per-point seeds come from
//! [`crate::runner::derive_seed`] — a split-mix hash of `(base seed,
//! point index)` — and sub-runs within a point (Table 1's four networks,
//! Figure 4's two load levels, the ablation's three variants) derive
//! further with a distinct salt each, so no two simulated streams share a
//! seed.

use crate::runner::{derive_seed, sweep, PointObs, Sweep};
use drqos_analysis::pipeline::{analyze, analyze_scenario, ExperimentAnalysis};
use drqos_core::experiment::ExperimentConfig;
use drqos_core::network::NetworkConfig;
use drqos_core::qos::{AdaptationPolicy, Bandwidth, ElasticQos};
use drqos_core::scenario::{Scenario, ScenarioKind};
use drqos_sim::rng::Rng;
use drqos_topology::graph::Graph;
use drqos_topology::transit_stub::TransitStubConfig;
use drqos_topology::waxman;

/// The paper's evaluation network: 100-node Waxman calibrated to 354
/// edges, deterministic for a seed.
pub fn paper_graph(nodes: usize, seed: u64) -> Graph {
    waxman::paper_waxman(nodes)
        .generate(&mut Rng::seed_from_u64(seed))
        .expect("calibrated parameters are valid")
}

/// The paper's Figure 3 network: the same Waxman model grown at constant
/// density.
pub(crate) fn paper_graph_scaled(nodes: usize, seed: u64) -> Graph {
    waxman::paper_waxman_scaled(nodes)
        .generate(&mut Rng::seed_from_u64(seed))
        .expect("calibrated parameters are valid")
}

/// The paper's "Tier" network: a ~100-node transit-stub graph.
pub(crate) fn tier_graph(seed: u64) -> Graph {
    TransitStubConfig::paper_default()
        .generate(&mut Rng::seed_from_u64(seed))
        .expect("paper defaults are valid")
        .graph
}

// ------------------------------------------------------------- Figure 2 --

/// One point of Figure 2: average bandwidth vs. number of DR-connections.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// Connections attempted during warm-up (the x-axis).
    pub nchan: usize,
    /// Connections active at the end of the run.
    pub active: usize,
    /// Simulated average bandwidth (Kbps) — the paper's solid line.
    pub sim: f64,
    /// Markov-model average bandwidth (Kbps) — the dashed line
    /// (`NaN` when the model degenerated).
    pub analytic: f64,
    /// Ideal average bandwidth (Kbps) — the dotted line.
    pub ideal: f64,
}

/// Runs Figure 2: a sweep over the offered number of DR-connections on the
/// 100-node random network, 9-state chain (Δ = 50 Kbps), γ = 0.
pub fn fig2(points: &[usize], churn_events: usize, seed: u64) -> Sweep<Fig2Row> {
    sweep(seed, points, |&nchan, point_seed| {
        let mut config = ExperimentConfig::paper_default(nchan, 50);
        config.churn_events = churn_events;
        config.seed = point_seed;
        let a = analyze(paper_graph(100, seed), &config);
        let mut obs = PointObs::default();
        obs.absorb(&config, &a.report);
        (fig2_row(nchan, &a), obs)
    })
}

fn fig2_row(nchan: usize, a: &ExperimentAnalysis) -> Fig2Row {
    Fig2Row {
        nchan,
        active: a.report.active_end,
        sim: a.report.avg_bandwidth_sim,
        analytic: a.analytic_avg.unwrap_or(f64::NAN),
        ideal: a.ideal_avg,
    }
}

// -------------------------------------------------------------- Table 1 --

/// One row of Table 1: average bandwidth for 5-state (Δ = 100) vs. 9-state
/// (Δ = 50) chains, on the Random and Tier networks.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Connections attempted (the paper notes that on the Tier network most
    /// are rejected; the column counts *attempts*).
    pub nchan: usize,
    /// Analytic average bandwidth, Random network, 5-state chain.
    pub random5: f64,
    /// Analytic average bandwidth, Random network, 9-state chain.
    pub random9: f64,
    /// Analytic average bandwidth, Tier network, 5-state chain.
    pub tier5: f64,
    /// Analytic average bandwidth, Tier network, 9-state chain.
    pub tier9: f64,
    /// Connections actually active on the Tier network at the end.
    pub tier_active: usize,
}

/// Runs Table 1 for the given load points.
pub fn table1(points: &[usize], churn_events: usize, seed: u64) -> Sweep<Table1Row> {
    sweep(seed, points, |&nchan, point_seed| {
        let mut obs = PointObs::default();
        let mut run = |graph: Graph, increment: u64, salt: u64| {
            let mut config = ExperimentConfig::paper_default(nchan, increment);
            config.churn_events = churn_events;
            config.seed = derive_seed(point_seed, salt);
            let a = analyze(graph, &config);
            obs.absorb(&config, &a.report);
            a
        };
        let r5 = run(paper_graph(100, seed), 100, 0);
        let r9 = run(paper_graph(100, seed), 50, 1);
        let t5 = run(tier_graph(seed), 100, 2);
        let t9 = run(tier_graph(seed), 50, 3);
        let row = Table1Row {
            nchan,
            random5: r5.analytic_avg.unwrap_or(f64::NAN),
            random9: r9.analytic_avg.unwrap_or(f64::NAN),
            tier5: t5.analytic_avg.unwrap_or(f64::NAN),
            tier9: t9.analytic_avg.unwrap_or(f64::NAN),
            tier_active: t9.report.active_end,
        };
        (row, obs)
    })
}

// ------------------------------------------------------------- Figure 3 --

/// One point of Figure 3: average bandwidth vs. network size at a fixed
/// load of 3000 connections.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Nodes in the network (the x-axis).
    pub nodes: usize,
    /// Edges in the generated network (the paper's upper dotted line).
    pub edges: usize,
    /// Simulated average bandwidth (Kbps).
    pub sim: f64,
    /// Analytic average bandwidth (Kbps).
    pub analytic: f64,
}

/// Runs Figure 3: network size sweep at fixed offered load.
pub fn fig3(node_counts: &[usize], nchan: usize, churn_events: usize, seed: u64) -> Sweep<Fig3Row> {
    sweep(seed, node_counts, |&nodes, point_seed| {
        let mut config = ExperimentConfig::paper_default(nchan, 50);
        config.churn_events = churn_events;
        config.seed = point_seed;
        let a = analyze(paper_graph_scaled(nodes, seed), &config);
        let mut obs = PointObs::default();
        obs.absorb(&config, &a.report);
        let row = Fig3Row {
            nodes,
            edges: a.edges,
            sim: a.report.avg_bandwidth_sim,
            analytic: a.analytic_avg.unwrap_or(f64::NAN),
        };
        (row, obs)
    })
}

// ------------------------------------------------------------- Figure 4 --

/// One point of Figure 4: average bandwidth vs. link failure rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Link failure rate γ (the x-axis, log scale in the paper).
    pub gamma: f64,
    /// Simulated average with 2000 connections.
    pub sim2000: f64,
    /// Analytic average with 2000 connections.
    pub analytic2000: f64,
    /// Simulated average with 3000 connections.
    pub sim3000: f64,
    /// Analytic average with 3000 connections.
    pub analytic3000: f64,
}

/// Runs Figure 4: failure-rate sweep at 2000 and 3000 connections,
/// 9-state chain.
pub fn fig4(gammas: &[f64], churn_events: usize, seed: u64) -> Sweep<Fig4Row> {
    sweep(seed, gammas, |&gamma, point_seed| {
        let mut obs = PointObs::default();
        let mut run = |nchan: usize| {
            let mut config = ExperimentConfig::paper_default(nchan, 50);
            config.churn_events = churn_events;
            config.gamma = gamma;
            config.seed = derive_seed(point_seed, nchan as u64);
            let a = analyze(paper_graph(100, seed), &config);
            obs.absorb(&config, &a.report);
            a
        };
        let a2 = run(2000);
        let a3 = run(3000);
        let row = Fig4Row {
            gamma,
            sim2000: a2.report.avg_bandwidth_sim,
            analytic2000: a2.analytic_avg.unwrap_or(f64::NAN),
            sim3000: a3.report.avg_bandwidth_sim,
            analytic3000: a3.analytic_avg.unwrap_or(f64::NAN),
        };
        (row, obs)
    })
}

// ------------------------------------------------------------- ablation --

/// One row of the elastic-vs-rigid ablation (the gain the paper's scheme
/// delivers over single-value QoS, Section 1's motivation).
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Connections attempted.
    pub nchan: usize,
    /// Average bandwidth with elastic QoS (Kbps).
    pub elastic_avg: f64,
    /// Connections accepted with elastic QoS.
    pub elastic_accepted: u64,
    /// Average bandwidth with rigid (single-value minimum) QoS (Kbps).
    pub rigid_avg: f64,
    /// Connections accepted with rigid QoS.
    pub rigid_accepted: u64,
    /// Average bandwidth under the max-utility policy (Kbps).
    pub max_utility_avg: f64,
}

/// Runs the ablation: elastic (coefficient), rigid, and max-utility
/// variants at each load point.
pub fn ablation(points: &[usize], churn_events: usize, seed: u64) -> Sweep<AblationRow> {
    sweep(seed, points, |&nchan, point_seed| {
        let mut obs = PointObs::default();
        let mut run = |qos: ElasticQos, policy: AdaptationPolicy, salt: u64| {
            let mut config = ExperimentConfig::paper_default(nchan, 50);
            config.qos = qos;
            config.network = NetworkConfig {
                policy,
                ..NetworkConfig::default()
            };
            config.churn_events = churn_events;
            config.seed = derive_seed(point_seed, salt);
            let a = analyze(paper_graph(100, seed), &config);
            obs.absorb(&config, &a.report);
            a
        };
        let elastic = run(
            ElasticQos::paper_video(50),
            AdaptationPolicy::Coefficient,
            0,
        );
        let rigid = run(
            ElasticQos::rigid(Bandwidth::kbps(100)).expect("non-zero"),
            AdaptationPolicy::Coefficient,
            1,
        );
        let max_utility = run(ElasticQos::paper_video(50), AdaptationPolicy::MaxUtility, 2);
        let row = AblationRow {
            nchan,
            elastic_avg: elastic.report.avg_bandwidth_sim,
            elastic_accepted: elastic.report.accepted,
            rigid_avg: rigid.report.avg_bandwidth_sim,
            rigid_accepted: rigid.report.accepted,
            max_utility_avg: max_utility.report.avg_bandwidth_sim,
        };
        (row, obs)
    })
}

// -------------------------------------------------- dependability sweep --

/// One row of the backup-count dependability ablation: how many
/// connections die under a failure storm, for 0 / 1 / 2 backups each.
#[derive(Debug, Clone, PartialEq)]
pub struct DependabilityRow {
    /// Backups configured per connection.
    pub backup_count: usize,
    /// Connections accepted.
    pub accepted: u64,
    /// Connections dropped by failures.
    pub dropped: u64,
    /// Failures injected.
    pub failures: u64,
    /// Average bandwidth over the run (Kbps).
    pub avg_bandwidth: f64,
    /// Connections still being served when the storm ended — the carried
    /// load, which is what actually collapses without backups.
    pub active_end: usize,
}

/// Runs a failure storm (γ comparable to λ, slow repair) against networks
/// configured with different per-connection backup counts — the
/// dependability payoff the passive backup scheme exists for, extended to
/// the Han–Shin "one or more backups" case.
///
/// Per-point seeds come from the split-mix derivation, so the
/// `backup_count = 0` row no longer reuses the graph seed verbatim (the
/// old `seed ^ count` scheme did exactly that at count 0).
pub fn dependability(
    backup_counts: &[usize],
    nchan: usize,
    churn_events: usize,
    seed: u64,
) -> Sweep<DependabilityRow> {
    sweep(seed, backup_counts, |&count, point_seed| {
        let mut config = ExperimentConfig::paper_default(nchan, 50);
        config.churn_events = churn_events;
        config.gamma = 2.0 * config.lambda; // storm: failures outpace arrivals
        config.mean_repair = 5_000.0; // slow repair crews
        config.network = NetworkConfig {
            backup_count: count,
            require_backup: count > 0,
            ..NetworkConfig::default()
        };
        config.seed = point_seed;
        let (report, _) = drqos_core::experiment::run_churn(paper_graph(100, seed), &config);
        let mut obs = PointObs::default();
        obs.absorb(&config, &report);
        let row = DependabilityRow {
            backup_count: count,
            accepted: report.accepted,
            dropped: report.dropped,
            failures: report.failures,
            avg_bandwidth: report.avg_bandwidth_sim,
            active_end: report.active_end,
        };
        (row, obs)
    })
}

// ------------------------------------------------------ scenario sweep --

/// One row of the adversarial scenario sweep: a Figure 2 load point
/// re-run under one [`ScenarioKind`], with the Markov model's relative
/// divergence alongside — the number that says how far each adversarial
/// world pushes reality away from the paper's calibrated regime.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSweepRow {
    /// Canonical scenario name (the `DRQOS_SCENARIO` spelling).
    pub scenario: &'static str,
    /// Connections attempted during warm-up (the x-axis).
    pub nchan: usize,
    /// Connections active at the end of the run.
    pub active: usize,
    /// Connections dropped by failures (correlated ones included).
    pub dropped: u64,
    /// Simulated average bandwidth (Kbps).
    pub sim: f64,
    /// Markov-model average bandwidth (Kbps; `NaN` when degenerate).
    pub analytic: f64,
    /// Relative model-vs-sim divergence `|model − sim| / sim`
    /// (`NaN` when the model degenerated).
    pub divergence: f64,
}

/// Relative model-vs-sim divergence; `NaN` when either side degenerated.
pub(crate) fn model_divergence(sim: f64, analytic: f64) -> f64 {
    if sim > 0.0 && analytic.is_finite() {
        (analytic - sim).abs() / sim
    } else {
        f64::NAN
    }
}

/// Re-runs the Figure 2 load sweep under **every** scenario kind (the
/// cross product `ScenarioKind::ALL × points`, each its own sweep point
/// with its own derived seed) on the 100-node random network, 9-state
/// chain. The baseline rows calibrate the divergence column: the model
/// should track them closely, and lose ground under the adversarial
/// kinds it was never fitted for.
pub fn scenario_sweep(points: &[usize], churn_events: usize, seed: u64) -> Sweep<ScenarioSweepRow> {
    let cross: Vec<(ScenarioKind, usize)> = ScenarioKind::ALL
        .iter()
        .flat_map(|&kind| points.iter().map(move |&nchan| (kind, nchan)))
        .collect();
    sweep(seed, &cross, |&(kind, nchan), point_seed| {
        let mut config = ExperimentConfig::paper_default(nchan, 50);
        config.churn_events = churn_events;
        config.seed = point_seed;
        let a = analyze_scenario(paper_graph(100, seed), &config, &Scenario::new(kind));
        let mut obs = PointObs::default();
        obs.absorb(&config, &a.report);
        (scenario_sweep_row(kind, nchan, &a), obs)
    })
}

/// Re-runs the Figure 3 network-size sweep under every scenario kind at a
/// fixed offered load, same divergence column as [`scenario_sweep`].
pub fn scenario_scaling(
    node_counts: &[usize],
    nchan: usize,
    churn_events: usize,
    seed: u64,
) -> Sweep<ScenarioSweepRow> {
    let cross: Vec<(ScenarioKind, usize)> = ScenarioKind::ALL
        .iter()
        .flat_map(|&kind| node_counts.iter().map(move |&nodes| (kind, nodes)))
        .collect();
    sweep(seed, &cross, |&(kind, nodes), point_seed| {
        let mut config = ExperimentConfig::paper_default(nchan, 50);
        config.churn_events = churn_events;
        config.seed = point_seed;
        let a = analyze_scenario(
            paper_graph_scaled(nodes, seed),
            &config,
            &Scenario::new(kind),
        );
        let mut obs = PointObs::default();
        obs.absorb(&config, &a.report);
        (scenario_sweep_row(kind, nodes, &a), obs)
    })
}

fn scenario_sweep_row(
    kind: ScenarioKind,
    nchan: usize,
    a: &ExperimentAnalysis,
) -> ScenarioSweepRow {
    let sim = a.report.avg_bandwidth_sim;
    let analytic = a.analytic_avg.unwrap_or(f64::NAN);
    ScenarioSweepRow {
        scenario: kind.name(),
        nchan,
        active: a.report.active_end,
        dropped: a.report.dropped,
        sim,
        analytic,
        divergence: model_divergence(sim, analytic),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Scaled-down smoke tests: the binaries run the full-size versions.

    #[test]
    fn fig2_shape_holds_at_small_scale() {
        let rows = fig2(&[50, 600], 300, 7).into_rows();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].sim > rows[1].sim, "load must depress bandwidth");
        // Channel-time weighting can carry ~1e-10 float noise past the rails.
        assert!(rows[0].sim <= 500.0 + 1e-6 && rows[1].sim >= 100.0 - 1e-6);
    }

    #[test]
    fn fig2_records_observability() {
        let result = fig2(&[50], 100, 7);
        let rec = &result.records[0];
        assert!(rec.obs.events > 0, "events must be counted");
        assert!(rec.obs.attempted > 0);
        assert!(rec.wall > std::time::Duration::ZERO);
        assert_eq!(result.total_events(), rec.obs.events);
    }

    #[test]
    fn table1_increment_size_is_immaterial() {
        let rows = table1(&[400], 300, 7).into_rows();
        let r = &rows[0];
        // The paper: "no difference in the average bandwidth even though
        // they have a different number of states" — allow a loose band at
        // this tiny scale.
        if r.random5.is_finite() && r.random9.is_finite() {
            assert!(
                (r.random5 - r.random9).abs() < 120.0,
                "5-state {} vs 9-state {}",
                r.random5,
                r.random9
            );
        }
        assert!(r.tier_active < 400, "Tier should reject many");
    }

    #[test]
    fn fig3_edges_grow_with_nodes() {
        let rows = fig3(&[50, 150], 200, 100, 7).into_rows();
        assert!(rows[1].edges > rows[0].edges);
    }

    #[test]
    fn fig4_failure_rate_has_no_visible_effect() {
        let rows = fig4(&[1e-7, 1e-4], 300, 7).into_rows();
        let spread = (rows[0].sim2000 - rows[1].sim2000).abs();
        assert!(
            spread < 60.0,
            "tiny γ should not move the average: {spread}"
        );
    }

    #[test]
    fn dependability_backups_preserve_carried_load() {
        let rows = dependability(&[0, 1], 300, 300, 7).into_rows();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].failures > 0, "storm must produce failures");
        // Without backups the population collapses under the storm; with
        // one backup per connection the carried load survives.
        assert!(
            rows[1].active_end > rows[0].active_end,
            "backups must preserve carried load: {} vs {}",
            rows[1].active_end,
            rows[0].active_end
        );
        assert!(rows[0].dropped > 0);
    }

    #[test]
    fn scenario_sweep_covers_every_kind_with_divergence() {
        let rows = scenario_sweep(&[60], 300, 7).into_rows();
        assert_eq!(rows.len(), ScenarioKind::ALL.len());
        let names: Vec<&str> = rows.iter().map(|r| r.scenario).collect();
        for kind in ScenarioKind::ALL {
            assert!(names.contains(&kind.name()), "{kind} row missing");
        }
        for r in &rows {
            assert!(r.sim >= 100.0 - 1e-6 && r.sim <= 500.0 + 1e-6, "{r:?}");
            if r.analytic.is_finite() {
                assert!(r.divergence.is_finite() && r.divergence >= 0.0, "{r:?}");
            }
        }
        // The baseline row must carry a usable divergence — the sweep's
        // calibration anchor.
        let base = rows.iter().find(|r| r.scenario == "baseline").unwrap();
        assert!(base.divergence.is_finite(), "{base:?}");
    }

    #[test]
    fn scenario_scaling_covers_every_kind() {
        let rows = scenario_scaling(&[40], 50, 200, 7).into_rows();
        assert_eq!(rows.len(), ScenarioKind::ALL.len());
        for r in &rows {
            assert_eq!(r.nchan, 40, "the x column carries the node count");
        }
    }

    #[test]
    fn model_divergence_handles_degenerate_inputs() {
        assert!((model_divergence(400.0, 440.0) - 0.1).abs() < 1e-12);
        assert!(model_divergence(0.0, 440.0).is_nan());
        assert!(model_divergence(400.0, f64::NAN).is_nan());
    }

    #[test]
    fn ablation_elastic_beats_rigid_bandwidth() {
        let rows = ablation(&[100], 200, 7).into_rows();
        let r = &rows[0];
        assert!(
            r.elastic_avg > r.rigid_avg,
            "elastic {} must beat rigid {}",
            r.elastic_avg,
            r.rigid_avg
        );
        assert!(
            (r.rigid_avg - 100.0).abs() < 1e-6,
            "rigid sits at the single value, got {}",
            r.rigid_avg
        );
    }
}
