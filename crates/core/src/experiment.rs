//! The churn experiment harness: the paper's "detailed simulation".
//!
//! An experiment (Section 4):
//!
//! 1. loads the network by *attempting* a target number of DR-connections
//!    ("we measured the probabilities P_f and P_s after setting up a
//!    certain number of DR-connections");
//! 2. churns — Poisson arrivals and terminations at equal rates λ = μ (and
//!    optionally link failures at rate γ with exponential repair) — "while
//!    maintaining the number of DR-connections in the network close to the
//!    initial number";
//! 3. measures, per event, the chaining probabilities and level transitions
//!    feeding the Markov model, plus the time-weighted average bandwidth
//!    that serves as the simulation ground truth.
//!
//! There is one churn loop, [`run_scenario_churn`]; a
//! [`Scenario`] chooses the processes that feed it
//! (arrival-rate curve, holding-time law, correlated failures) and
//! [`run_churn`] is that loop in the paper's own world,
//! [`Scenario::baseline`].

use crate::channel::ConnectionId;
use crate::measure::{LevelTransition, MeasuredParams, ParameterEstimator, RouteCacheStats};
use crate::network::{Network, NetworkConfig};
use crate::qos::ElasticQos;
use crate::scenario::{register_seeded_srlgs, Scenario, ScenarioKind, SRLG_STREAM};
use crate::workload::Workload;
use drqos_sim::dist::{Distribution, Exponential, Pareto};
use drqos_sim::engine::Simulator;
use drqos_sim::rng::Rng;
use drqos_sim::srlg::{SrlgChurn, SrlgEvent};
use drqos_sim::stats::TimeWeighted;
use drqos_sim::time::SimTime;
use drqos_topology::graph::{Graph, LinkId};
use std::collections::BTreeSet;

/// Configuration of a churn experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// QoS template for every request.
    pub qos: ElasticQos,
    /// Number of connection requests attempted during warm-up (the paper's
    /// "number of DR-connections"; in congested networks many are
    /// rejected).
    pub target_connections: usize,
    /// Number of churn events to simulate after warm-up.
    pub churn_events: usize,
    /// DR-connection request arrival rate λ (= termination rate μ).
    pub lambda: f64,
    /// Link failure rate γ (network-wide failure event rate; 0 disables
    /// failures).
    pub gamma: f64,
    /// Mean link repair time (seconds of virtual time).
    pub mean_repair: f64,
    /// Links failed per failure event (1 = the paper's single-failure
    /// model; >1 simulates correlated failure bursts such as a conduit
    /// cut taking several fibres down at once).
    pub failure_burst: usize,
    /// Network manager configuration.
    pub network: NetworkConfig,
    /// Ignored: nothing reads it. It stays because `benchmark/` sets it
    /// (ROADMAP 3(c)).
    pub shards: usize,
    /// RNG seed (experiments are deterministic given the seed).
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's evaluation defaults: λ = μ = 0.001, γ = 0, elastic
    /// 100–500 Kbps QoS with the given increment, 10 Mbps links.
    pub fn paper_default(target_connections: usize, increment_kbps: u64) -> Self {
        Self {
            qos: ElasticQos::paper_video(increment_kbps),
            target_connections,
            churn_events: 2_000,
            lambda: 0.001,
            gamma: 0.0,
            mean_repair: 1_000.0,
            failure_burst: 1,
            network: NetworkConfig::default(),
            shards: 1,
            seed: 2001,
        }
    }
}

/// Outcome of a churn experiment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentReport {
    /// Requests attempted (warm-up + churn arrivals).
    pub attempted: u64,
    /// Requests accepted.
    pub accepted: u64,
    /// Rejections for lack of a primary route.
    pub rejected_primary: u64,
    /// Rejections for lack of a backup route.
    pub rejected_backup: u64,
    /// Connections active when the run ended.
    pub active_end: usize,
    /// Time-weighted mean bandwidth per primary channel over the churn
    /// window (Kbps) — the paper's simulation metric.
    pub avg_bandwidth_sim: f64,
    /// Mean bandwidth per channel at the end of the run (Kbps).
    pub avg_bandwidth_end: f64,
    /// Mean primary-path hop count at the end of the run.
    pub avg_path_hops: f64,
    /// Link failures injected.
    pub failures: u64,
    /// Connections dropped by failures.
    pub dropped: u64,
    /// The measured Markov-model parameters (`None` when no churn arrivals
    /// were recorded).
    pub params: Option<MeasuredParams>,
    /// Admission route-cache counters over the whole run (all zero when
    /// the cache is disabled). Deliberately *not* written to the CSV
    /// observable columns: the cache must not change experiment results,
    /// only how fast they are computed.
    pub cache: RouteCacheStats,
}

/// The churn loop's events. A scenario decides which of them are ever
/// scheduled; the arms that handle them are the same for every kind.
#[derive(Debug)]
enum Event {
    /// A candidate of the arrival process, before thinning.
    Candidate,
    /// Memoryless global termination (non-Pareto scenarios).
    Termination,
    /// Per-connection heavy-tailed holding expiry (Pareto scenario).
    Expire(ConnectionId),
    /// Independent link failure (the γ process).
    Failure,
    /// Scheduled repair of an independently-failed link.
    Repair(LinkId),
    /// The next event of the SRLG churn driver is due.
    Srlg,
}

/// Whether churn experiments validate the full invariant set after every
/// event. The `DRQOS_CHECKED` environment variable overrides (`1`/`true`/
/// `on`/`yes` to force on, anything else to force off); without it,
/// checking follows `cfg!(debug_assertions)`, so `cargo test` runs fully
/// checked and `--release` experiments stay fast.
pub fn checked_mode() -> bool {
    crate::env::checked().unwrap_or(cfg!(debug_assertions))
}

/// Runs the paper's churn experiment on `graph`: [`run_scenario_churn`]
/// under [`Scenario::baseline`].
///
/// Deterministic for a given `(graph, config)`; the graph is moved in, and
/// the final network state is returned alongside the report for further
/// inspection.
pub fn run_churn(graph: Graph, config: &ExperimentConfig) -> (ExperimentReport, Network) {
    run_scenario_churn(graph, config, &Scenario::baseline())
}

/// Runs the churn experiment under `scenario` — the one churn loop. Every
/// kind shares the warm-up, the event arms and the measurement tail; a
/// scenario varies only which processes feed the loop:
///
/// * arrivals are drawn by thinning against [`Scenario::peak_rate`], so
///   flash-crowd and diurnal modulation are exact (not stepwise), and the
///   flat kinds keep every candidate;
/// * the Pareto scenario schedules one expiry per accepted connection
///   (mean holding time `target_connections/λ`, preserving the target
///   population) instead of the memoryless global termination process;
/// * the SRLG scenario fires [`Network::fail_srlg`] /
///   [`Network::repair_srlg`] events from the seeded churn driver on top
///   of the independent γ failures every kind has.
pub fn run_scenario_churn(
    graph: Graph,
    config: &ExperimentConfig,
    scenario: &Scenario,
) -> (ExperimentReport, Network) {
    let checked = checked_mode();
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut net = Network::new(graph, config.network.clone());
    let workload = Workload::new(config.qos);
    let n_nodes = net.graph().node_count();
    let mut report = ExperimentReport::default();

    warm_up(&mut net, config, &workload, &mut rng, &mut report);

    // ---- Churn. ----
    // A degenerate configuration (non-positive rates or shapes) runs no
    // churn at all rather than panicking: this path is reachable from the
    // daemon.
    let mut estimator = ParameterEstimator::new(config.qos.num_levels());
    // Estimator updates are contracts ("levels in range by construction");
    // a violated contract abandons parameter estimation for the run
    // (`params: None`) instead of panicking the caller.
    let mut estimation_ok = true;
    let mut sim: Simulator<Event> = Simulator::new();

    // Non-homogeneous arrivals by thinning: candidates at the peak rate,
    // each kept with probability rate(t)/peak. `Rng::chance` consumes a
    // draw even at probability one, and every committed series was
    // produced with that draw taken by every kind except the baseline —
    // so Pareto and SRLG, whose rate is flat, still take theirs (dropping
    // it would shift every later sample and move their series), and the
    // baseline, whose `peak == λ` makes the candidates *be* the arrivals,
    // takes none.
    let thinned = scenario.kind != ScenarioKind::Baseline;
    let peak = scenario.peak_rate(config.lambda);
    let Ok(candidate_dist) = Exponential::new(peak) else {
        return (report, net);
    };
    sim.schedule(
        SimTime::ZERO + candidate_dist.sample(&mut rng),
        Event::Candidate,
    );

    // Departures: heavy-tailed per-connection expiry for the Pareto
    // scenario, the memoryless process (steady state: μ = λ) otherwise.
    let pareto_holding = if scenario.kind == ScenarioKind::ParetoHolding {
        let mean = config.target_connections.max(1) as f64 / config.lambda;
        let Ok(holding) = Pareto::from_mean(mean, scenario.pareto_shape) else {
            return (report, net);
        };
        Some(holding)
    } else {
        None
    };
    let Ok(termination_dist) = Exponential::new(config.lambda) else {
        return (report, net);
    };
    if let Some(holding) = &pareto_holding {
        let live: Vec<ConnectionId> = net.connections().map(|c| c.id()).collect();
        for id in live {
            sim.schedule(SimTime::ZERO + holding.sample(&mut rng), Event::Expire(id));
        }
    } else {
        sim.schedule(
            SimTime::ZERO + termination_dist.sample(&mut rng),
            Event::Termination,
        );
    }

    // Independent failures (γ).
    let failure_dist = (config.gamma > 0.0)
        .then(|| Exponential::new(config.gamma))
        .and_then(Result::ok);
    if let Some(fd) = &failure_dist {
        sim.schedule(SimTime::ZERO + fd.sample(&mut rng), Event::Failure);
    }
    let Ok(repair_dist) = Exponential::from_mean(config.mean_repair.max(f64::MIN_POSITIVE)) else {
        return (report, net);
    };

    // Correlated failures: seeded groups + the drqos-sim churn driver,
    // which runs on its own RNG stream.
    let mut srlg_churn = if scenario.kind == ScenarioKind::SrlgChurn {
        let registered = register_seeded_srlgs(
            &mut net,
            scenario.srlg_count,
            scenario.srlg_size,
            config.seed,
        );
        let Ok(churn) = SrlgChurn::new(
            registered.max(1),
            scenario.srlg_mean_up / config.lambda,
            scenario.srlg_mean_down / config.lambda,
            config.seed ^ SRLG_STREAM,
        ) else {
            return (report, net);
        };
        Some(churn)
    } else {
        None
    };
    if let Some(t) = srlg_churn.as_ref().and_then(SrlgChurn::peek_time) {
        sim.schedule(SimTime::ZERO + t, Event::Srlg);
    }

    // Average bandwidth per channel over the churn window, weighted by
    // channel-time: ∫ total_bandwidth dt / ∫ channel_count dt. (Weighting
    // by wall time instead would let empty-network stretches drag the
    // average below B_min at light load.)
    let mut total_bw_tracker =
        TimeWeighted::new(SimTime::ZERO, net.total_primary_bandwidth().as_kbps_f64());
    let mut count_tracker = TimeWeighted::new(SimTime::ZERO, net.len() as f64);
    let mut churn_done = 0usize;
    while churn_done < config.churn_events {
        let Some((now, event)) = sim.pop() else { break };
        match event {
            Event::Candidate => {
                let keep = !thinned || {
                    let rate = scenario.rate_at(config.seed, config.lambda, now.as_secs());
                    rng.chance(rate / peak)
                };
                if keep {
                    let req = workload.request(&mut rng, n_nodes);
                    report.attempted += 1;
                    match net.plan_establish(req.src, req.dst, req.qos) {
                        Ok(plan) => {
                            let (existing, direct, indirect) = observe_arrival(&net, &plan);
                            let id = net.commit_establish(plan);
                            let direct_t = transitions_after(&net, &direct);
                            let indirect_t = transitions_after(&net, &indirect);
                            estimation_ok &= estimator
                                .record_arrival(existing, &direct_t, &indirect_t)
                                .is_ok();
                            report.accepted += 1;
                            if let Some(holding) = &pareto_holding {
                                sim.schedule_in(holding.sample(&mut rng), Event::Expire(id));
                            }
                        }
                        Err(e) => classify_rejection(&mut report, &e),
                    }
                    churn_done += 1;
                }
                sim.schedule_in(candidate_dist.sample(&mut rng), Event::Candidate);
            }
            Event::Termination => {
                let ids: Vec<ConnectionId> = net.connections().map(|c| c.id()).collect();
                if let Some(&victim) = rng.choose(&ids) {
                    estimation_ok &= release_measured(&mut net, &mut estimator, victim);
                }
                sim.schedule_in(termination_dist.sample(&mut rng), Event::Termination);
                churn_done += 1;
            }
            Event::Expire(id) => {
                // The connection may have been dropped by a failure since
                // its expiry was scheduled; an expired ghost is a no-op
                // and does not count as a churn event.
                if net.connection(id).is_some() {
                    estimation_ok &= release_measured(&mut net, &mut estimator, id);
                    churn_done += 1;
                }
            }
            Event::Failure => {
                for _ in 0..config.failure_burst.max(1) {
                    let up: Vec<LinkId> = net.up_links().collect();
                    let Some(&link) = rng.choose(&up) else { break };
                    let fail = |net: &mut Network| net.fail_link(link).is_ok().then_some(1);
                    let Some((downed, ok)) = fail_measured(&mut net, &mut estimator, fail) else {
                        break; // raced another failure source; stop the burst
                    };
                    estimation_ok &= ok;
                    report.failures += downed;
                    sim.schedule_in(repair_dist.sample(&mut rng), Event::Repair(link));
                }
                if let Some(fd) = &failure_dist {
                    sim.schedule_in(fd.sample(&mut rng), Event::Failure);
                }
                churn_done += 1;
            }
            Event::Repair(link) => {
                // Ignore the error if something else repaired it already.
                let _ = net.repair_link(link);
            }
            Event::Srlg => {
                if let Some(churn) = &mut srlg_churn {
                    match churn.next_event() {
                        Some((_, SrlgEvent::Fail(group))) => {
                            // Already-down members (overlap with other
                            // failure sources) make this a no-op.
                            let fail = |net: &mut Network| {
                                net.fail_srlg(group).ok().map(|r| r.links.len() as u64)
                            };
                            if let Some((downed, ok)) =
                                fail_measured(&mut net, &mut estimator, fail)
                            {
                                estimation_ok &= ok;
                                report.failures += downed;
                                churn_done += 1;
                            }
                        }
                        Some((_, SrlgEvent::Repair(group))) => {
                            let _ = net.repair_srlg(group);
                        }
                        None => {}
                    }
                    if let Some(t) = churn.peek_time() {
                        sim.schedule(SimTime::ZERO + t, Event::Srlg);
                    }
                }
            }
        }
        if checked {
            net.validate();
        }
        total_bw_tracker.update(now, net.total_primary_bandwidth().as_kbps_f64());
        count_tracker.update(now, net.len() as f64);
        estimation_ok &= estimator
            .record_occupancy(net.connections().map(|c| c.level()))
            .is_ok();
    }

    let end = sim.now();
    let channel_time = count_tracker.integral_until(end);
    report.avg_bandwidth_sim = if channel_time > 0.0 {
        total_bw_tracker.integral_until(end) / channel_time
    } else {
        0.0
    };
    report.avg_bandwidth_end = net.average_bandwidth().unwrap_or(0.0);
    report.avg_path_hops = net.average_path_hops().unwrap_or(0.0);
    report.active_end = net.len();
    report.dropped = net.dropped_total();
    report.params = estimation_ok.then(|| estimator.finalize().ok()).flatten();
    report.cache = net.route_cache_stats();
    (report, net)
}

/// Takes links down through `fail` while recording the failure's level
/// transitions; `fail` returns how many links went down, or `None` when it
/// refused and changed nothing (then nothing is recorded either). Returns
/// that count and whether the estimator accepted the record.
///
/// The effect is measured over the *whole* population: a failure both
/// forces retreats (channels sharing links with activated backups) and
/// lets their neighbours grow in the same re-distribution. Conditioning
/// only on the retreat set would record the losers and miss the gainers,
/// biasing the model's failure term downward (see
/// `ParameterEstimator::record_failure`).
fn fail_measured(
    net: &mut Network,
    estimator: &mut ParameterEstimator,
    fail: impl FnOnce(&mut Network) -> Option<u64>,
) -> Option<(u64, bool)> {
    let all_before: LevelSnapshot = net.connections().map(|c| (c.id(), c.level())).collect();
    let downed = fail(net)?;
    let affected_t = transitions_after(net, &all_before);
    let recorded = estimator.record_failure(all_before.len(), &affected_t);
    Some((downed, recorded.is_ok()))
}

/// Releases `victim` while recording the termination's level transitions.
/// Tolerant of a stale id (a no-op) and of estimator contract violations:
/// the returned flag is `false` when an estimator update failed, which
/// abandons parameter estimation for the run instead of panicking — this
/// path is reachable from the daemon zone.
fn release_measured(
    net: &mut Network,
    estimator: &mut ParameterEstimator,
    victim: ConnectionId,
) -> bool {
    let mut touched: BTreeSet<LinkId> = BTreeSet::new();
    {
        let Some(conn) = net.connection(victim) else {
            return true;
        };
        touched.extend(conn.primary().links().iter().copied());
        for b in conn.backups() {
            touched.extend(b.links().iter().copied());
        }
    }
    let mut direct = snapshot_levels(net, touched.iter().copied());
    direct.retain(|(id, _)| *id != victim);
    if net.release(victim).is_err() {
        return true;
    }
    let direct_t = transitions_after(net, &direct);
    estimator.record_termination(&direct_t).is_ok()
}

/// Warm-up: attempt the target number of connections, one draw and one
/// establish at a time (admission never consumes the RNG).
fn warm_up(
    net: &mut Network,
    config: &ExperimentConfig,
    workload: &Workload,
    rng: &mut Rng,
    report: &mut ExperimentReport,
) {
    let n_nodes = net.graph().node_count();
    for _ in 0..config.target_connections {
        let req = workload.request(rng, n_nodes);
        report.attempted += 1;
        match net.establish(req.src, req.dst, req.qos) {
            Ok(_) => report.accepted += 1,
            Err(e) => classify_rejection(report, &e),
        }
    }
}

fn classify_rejection(report: &mut ExperimentReport, e: &crate::error::AdmissionError) {
    match e {
        crate::error::AdmissionError::NoBackupRoute => report.rejected_backup += 1,
        _ => report.rejected_primary += 1,
    }
}

/// Levels of all primaries crossing `links`, as `(id, level)` pairs.
fn snapshot_levels(
    net: &Network,
    links: impl IntoIterator<Item = LinkId>,
) -> Vec<(ConnectionId, usize)> {
    net.primaries_sharing(links)
        .into_iter()
        .filter_map(|id| net.connection(id).map(|c| (id, c.level())))
        .collect()
}

/// `(id, level)` pairs captured before an event.
type LevelSnapshot = Vec<(ConnectionId, usize)>;

/// Classifies the network before committing an arrival plan: returns
/// (existing channel count, direct `(id, level)` set, indirect set).
fn observe_arrival(
    net: &Network,
    plan: &crate::network::EstablishPlan,
) -> (usize, LevelSnapshot, LevelSnapshot) {
    let backup_links = plan.backups().iter().flat_map(|b| b.links());
    let new_links = plan.primary().links().iter().chain(backup_links).copied();
    let direct_ids = net.primaries_sharing(new_links);
    // Indirectly chained: share a link with a directly-chained channel but
    // not with the new connection itself.
    let direct_links: Vec<LinkId> = direct_ids
        .iter()
        .filter_map(|id| net.connection(*id))
        .flat_map(|c| c.primary().links().iter().copied())
        .collect();
    let mut indirect_ids = net.primaries_sharing(direct_links);
    indirect_ids.retain(|id| direct_ids.binary_search(id).is_err());
    let levels = |ids: &[ConnectionId]| {
        ids.iter()
            .filter_map(|&id| net.connection(id).map(|c| (id, c.level())))
            .collect::<Vec<_>>()
    };
    (net.len(), levels(&direct_ids), levels(&indirect_ids))
}

/// Re-reads the levels of previously snapshotted channels, skipping any that
/// no longer exist (dropped by a failure).
fn transitions_after(net: &Network, before: &[(ConnectionId, usize)]) -> Vec<LevelTransition> {
    before
        .iter()
        .filter_map(|&(id, old)| net.connection(id).map(|c| (old, c.level())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_sim::rng::Rng;
    use drqos_topology::waxman;

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
    fn runs_and_reports() {
        let (report, net) = run_churn(small_graph(1), &quick_config(50));
        assert_eq!(
            report.attempted,
            report.accepted + report.rejected_primary + report.rejected_backup
        );
        assert!(report.accepted > 0);
        assert!(report.avg_bandwidth_sim >= 100.0);
        assert!(report.avg_bandwidth_sim <= 500.0);
        assert!(report.params.is_some());
        net.validate();
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_churn(small_graph(2), &quick_config(40)).0;
        let b = run_churn(small_graph(2), &quick_config(40)).0;
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = quick_config(40);
        let a = run_churn(small_graph(3), &cfg).0;
        cfg.seed += 1;
        let b = run_churn(small_graph(3), &cfg).0;
        assert_ne!(a, b);
    }

    #[test]
    fn light_load_sits_at_maximum() {
        let (report, _) = run_churn(small_graph(4), &quick_config(3));
        assert!(
            report.avg_bandwidth_sim > 450.0,
            "uncontended channels should be near 500, got {}",
            report.avg_bandwidth_sim
        );
    }

    #[test]
    fn heavy_load_pushes_toward_minimum() {
        let light = run_churn(small_graph(5), &quick_config(3)).0;
        let heavy = run_churn(small_graph(5), &quick_config(600)).0;
        assert!(
            heavy.avg_bandwidth_sim < light.avg_bandwidth_sim,
            "load should depress the average: {} vs {}",
            heavy.avg_bandwidth_sim,
            light.avg_bandwidth_sim
        );
    }

    #[test]
    fn measured_params_are_consistent() {
        let (report, _) = run_churn(small_graph(6), &quick_config(80));
        let params = report.params.expect("churn recorded arrivals");
        assert!(params.is_consistent());
        assert!(params.pf > 0.0, "some channels must overlap");
        assert_eq!(params.n_states, 5);
    }

    #[test]
    fn failures_are_injected_and_survived() {
        let mut cfg = quick_config(60);
        cfg.gamma = 0.002; // comparable to λ: failures will happen
        cfg.mean_repair = 200.0;
        let (report, net) = run_churn(small_graph(7), &cfg);
        assert!(report.failures > 0, "expected failures at γ = 2λ");
        net.validate();
    }

    #[test]
    fn failure_bursts_multiply_failures() {
        let mut single = quick_config(60);
        single.gamma = 0.002;
        single.mean_repair = 200.0;
        let mut burst = single.clone();
        burst.failure_burst = 3;
        let (r1, _) = run_churn(small_graph(9), &single);
        let (r3, n3) = run_churn(small_graph(9), &burst);
        assert!(r1.failures > 0);
        assert!(
            r3.failures > r1.failures,
            "bursts should fail more links: {} vs {}",
            r3.failures,
            r1.failures
        );
        n3.validate();
    }

    #[test]
    fn route_cache_does_not_change_results() {
        let mut on = quick_config(60);
        on.gamma = 0.001; // exercise failure-path eviction too
        on.mean_repair = 300.0;
        on.network.route_cache = true;
        let mut off = on.clone();
        off.network.route_cache = false;
        let (mut report_on, _) = run_churn(small_graph(10), &on);
        let (report_off, _) = run_churn(small_graph(10), &off);
        assert!(report_on.cache.lookups() > 0, "cache must be exercised");
        assert_eq!(report_off.cache, RouteCacheStats::default());
        // Every observable except the counters themselves is identical.
        report_on.cache = report_off.cache;
        assert_eq!(report_on, report_off);
    }

    #[test]
    fn invariants_hold_after_long_churn() {
        let mut cfg = quick_config(100);
        cfg.churn_events = 800;
        cfg.gamma = 0.0005;
        let (_, net) = run_churn(small_graph(8), &cfg);
        net.validate();
    }
}
