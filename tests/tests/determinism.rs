//! Reproducibility: every layer of the stack must be a pure function of
//! its seed, or the paper's measured parameters would not be replicable.

use drqos_analysis::pipeline::analyze;
use drqos_core::experiment::run_churn;
use drqos_sim::rng::Rng;
use drqos_tests::{quick_experiment, small_paper_graph};
use drqos_topology::transit_stub::TransitStubConfig;

#[test]
fn graphs_are_identical_across_runs() {
    let a = small_paper_graph(50, 99);
    let b = small_paper_graph(50, 99);
    assert_eq!(a.link_count(), b.link_count());
    assert_eq!(
        a.links().map(|l| l.endpoints()).collect::<Vec<_>>(),
        b.links().map(|l| l.endpoints()).collect::<Vec<_>>()
    );
}

#[test]
fn transit_stub_is_deterministic() {
    let a = TransitStubConfig::paper_default()
        .generate(&mut Rng::seed_from_u64(4))
        .unwrap();
    let b = TransitStubConfig::paper_default()
        .generate(&mut Rng::seed_from_u64(4))
        .unwrap();
    assert_eq!(a.graph.link_count(), b.graph.link_count());
    assert_eq!(a.transit_nodes, b.transit_nodes);
}

#[test]
fn churn_reports_are_bit_identical() {
    let r1 = run_churn(small_paper_graph(40, 5), &quick_experiment(200, 500, 5)).0;
    let r2 = run_churn(small_paper_graph(40, 5), &quick_experiment(200, 500, 5)).0;
    assert_eq!(r1, r2);
}

#[test]
fn full_pipeline_is_deterministic_including_model() {
    let a1 = analyze(small_paper_graph(40, 6), &quick_experiment(250, 500, 6));
    let a2 = analyze(small_paper_graph(40, 6), &quick_experiment(250, 500, 6));
    assert_eq!(a1.report, a2.report);
    assert_eq!(a1.analytic_avg, a2.analytic_avg);
    assert_eq!(a1.ideal_avg, a2.ideal_avg);
}

#[test]
fn different_seeds_give_different_runs() {
    let a = run_churn(small_paper_graph(40, 7), &quick_experiment(200, 500, 7)).0;
    let b = run_churn(small_paper_graph(40, 7), &quick_experiment(200, 500, 8)).0;
    assert_ne!(a, b);
}

#[test]
fn failure_seeded_runs_are_reproducible() {
    let mut config = quick_experiment(150, 600, 9);
    config.gamma = 0.001;
    config.mean_repair = 200.0;
    let a = run_churn(small_paper_graph(40, 9), &config).0;
    let b = run_churn(small_paper_graph(40, 9), &config).0;
    assert_eq!(a, b);
    assert!(a.failures > 0);
}
