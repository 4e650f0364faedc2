//! Golden-trace verification: canonical scenarios replayed against the
//! blessed traces in `tests/golden/`, byte-exact.
//!
//! To update after an intentional behaviour change:
//!
//! ```text
//! DRQOS_BLESS=1 cargo test -p drqos-tests --test golden_traces
//! ```
//!
//! then commit the rewritten `tests/golden/*.txt`.

use drqos_bench::runner::{sweep, PointObs, Sweep};
use drqos_core::experiment::{run_churn, ExperimentConfig, ExperimentReport};
use drqos_core::network::Network;
use drqos_core::scenario::{run_scenario_churn, Scenario, ScenarioKind};
use drqos_testkit::golden::{scenarios, verify_golden};
use drqos_tests::{quick_experiment, small_paper_graph};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

#[test]
fn canonical_scenarios_match_blessed_traces() {
    for (name, content) in scenarios::all() {
        if let Err(e) = verify_golden(&golden_dir(), name, &content) {
            panic!("{e}");
        }
    }
}

/// One trace row and its sweep observation from a finished run: `label`
/// followed by the integer counters both series pin — no floats, no
/// wall-clock — so the text is byte-stable across machines and worker
/// counts.
fn row(
    label: &str,
    config: &ExperimentConfig,
    report: &ExperimentReport,
    net: &Network,
) -> (String, PointObs) {
    net.validate();
    let mut obs = PointObs::default();
    obs.absorb(config, report);
    let row = format!(
        "{label} accepted={} rejected={} dropped={} failures={} epoch={}",
        report.accepted,
        report.rejected_primary + report.rejected_backup,
        report.dropped,
        report.failures,
        net.topology_epoch(),
    );
    (row, obs)
}

/// A series' rows under its title line.
fn trace(title: &str, rows: &Sweep<String>) -> String {
    let mut out = format!("# drqos golden trace: {title}\n");
    for row in rows.rows() {
        out.push_str(row);
        out.push('\n');
    }
    out
}

/// The deterministic series columns of a small sweep, as trace lines.
fn sweep_series() -> String {
    let points: Vec<(usize, usize)> = vec![(30, 40), (30, 80), (40, 60), (50, 100)];
    let result = sweep(2001, &points, |&(nodes, target), seed| {
        let graph = small_paper_graph(nodes, seed);
        let config = quick_experiment(target, 150, seed);
        let (report, net) = run_churn(graph, &config);
        row(
            &format!("nodes={nodes} target={target}"),
            &config,
            &report,
            &net,
        )
    });
    trace("sweep_series (4 points, seed 2001)", &result)
}

/// Every arm of the churn loop, pinned: each [`ScenarioKind`] at γ = 0 and
/// at γ = λ with two-link failure bursts. Blessed on the parent of the PR
/// that merged `run_churn` and `run_scenario_churn` into one loop, and
/// carried over unchanged (TESTING.md, "Golden traces").
fn churn_series() -> String {
    let points: Vec<(ScenarioKind, bool)> = ScenarioKind::ALL
        .into_iter()
        .flat_map(|kind| [(kind, false), (kind, true)])
        .collect();
    let result = sweep(2001, &points, |&(kind, failing), seed| {
        let mut config = quick_experiment(60, 400, seed);
        if failing {
            config.gamma = config.lambda;
            config.failure_burst = 2;
        }
        let graph = small_paper_graph(30, seed);
        let (report, net) = run_scenario_churn(graph, &config, &Scenario::new(kind));
        let gamma = if failing { "lambda" } else { "0" };
        let (row, obs) = row(
            &format!("kind={kind} gamma={gamma}"),
            &config,
            &report,
            &net,
        );
        (format!("{row} active_end={}", report.active_end), obs)
    });
    trace("churn_series (10 points, seed 2001)", &result)
}

#[test]
fn churn_series_matches_golden() {
    if let Err(e) = verify_golden(&golden_dir(), "churn_series", &churn_series()) {
        panic!("{e}");
    }
}

#[test]
fn sweep_series_is_thread_invariant_and_matches_golden() {
    // The sweep engine must produce identical series columns regardless of
    // the worker count; pin it to 1 and 4 threads explicitly and compare
    // both against the blessed trace. (This test is the only one in this
    // binary touching DRQOS_THREADS, so the process-global env is safe.)
    let prev = drqos_core::env::raw(drqos_core::env::THREADS);
    std::env::set_var(drqos_core::env::THREADS, "1");
    let serial = sweep_series();
    std::env::set_var(drqos_core::env::THREADS, "4");
    let parallel = sweep_series();
    match prev {
        Some(v) => std::env::set_var(drqos_core::env::THREADS, v),
        None => std::env::remove_var(drqos_core::env::THREADS),
    }
    assert_eq!(
        serial, parallel,
        "sweep series diverged between 1 and 4 worker threads"
    );
    if let Err(e) = verify_golden(&golden_dir(), "sweep_series", &serial) {
        panic!("{e}");
    }
}
