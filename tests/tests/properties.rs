//! Property-style tests on the workspace's core invariants.
//!
//! These used to run under proptest; the offline build has no crates.io
//! access, so each property is now exercised over a deterministic family
//! of cases derived with the bench runner's split-mix hash. Coverage is
//! equivalent in spirit (dozens of seeds × sizes per property) and
//! failures are trivially reproducible: the panic message carries the
//! exact seed and parameters.

use drqos_bench::runner::derive_seed;
use drqos_core::network::{Network, NetworkConfig};
use drqos_core::qos::{Bandwidth, ElasticQos};
use drqos_sim::rng::{splitmix64, Rng};
use drqos_topology::graph::{Graph, NodeId};
use drqos_topology::paths::{bfs_path, pass_all};
use drqos_topology::{metrics, waxman};

/// Deterministic case seeds for one property (`salt` names the property).
fn case_seeds(salt: u64, n: usize) -> impl Iterator<Item = u64> {
    (0..n as u64).map(move |i| derive_seed(salt, i))
}

/// Maps a case seed into `lo..hi`.
fn in_range(seed: u64, lo: usize, hi: usize) -> usize {
    lo + (splitmix64(seed) % (hi - lo) as u64) as usize
}

/// A connected random graph from a seed (size 8..40).
fn seeded_graph(seed: u64, nodes: usize) -> Graph {
    waxman::WaxmanConfig::new(nodes, 0.8, 0.4)
        .expect("static parameters are valid")
        .generate(&mut Rng::seed_from_u64(seed))
        .expect("valid config")
}

#[test]
fn generated_graphs_are_connected_and_sane() {
    for seed in case_seeds(1, 48) {
        let nodes = in_range(seed, 8, 40);
        let g = seeded_graph(seed, nodes);
        assert_eq!(g.node_count(), nodes, "seed {seed}");
        assert!(metrics::is_connected(&g), "seed {seed} nodes {nodes}");
        // Handshake lemma.
        let degree_sum: usize = g.nodes().map(|n| g.degree(n)).sum();
        assert_eq!(degree_sum, 2 * g.link_count(), "seed {seed}");
    }
}

#[test]
fn bfs_paths_are_shortest_and_valid() {
    for seed in case_seeds(2, 24) {
        let nodes = in_range(seed, 8, 30);
        let g = seeded_graph(seed, nodes);
        let dist = metrics::bfs_distances(&g, NodeId(0));
        for dst in g.nodes().skip(1) {
            let p = bfs_path(&g, NodeId(0), dst, &pass_all).expect("connected graph");
            assert_eq!(Some(p.hop_count()), dist[dst.index()], "seed {seed}");
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.destination(), dst);
        }
    }
}

#[test]
fn elastic_qos_levels_are_exact() {
    for seed in case_seeds(7, 48) {
        let min = 1 + splitmix64(seed) % 499;
        let steps = 1 + splitmix64(seed ^ 1) % 11;
        let inc = 1 + splitmix64(seed ^ 2) % 99;
        let qos = ElasticQos::new(
            Bandwidth::kbps(min),
            Bandwidth::kbps(min + steps * inc),
            Bandwidth::kbps(inc),
            1.0,
        )
        .expect("constructed to divide evenly");
        assert_eq!(qos.num_levels(), steps as usize + 1, "seed {seed}");
        for level in 0..qos.num_levels() {
            let bw = qos.level_bandwidth(level);
            assert_eq!(bw.as_kbps(), min + level as u64 * inc, "seed {seed}");
            assert!(bw >= qos.min() && bw <= qos.max());
        }
    }
}

#[test]
fn establish_release_cycles_preserve_invariants() {
    for seed in case_seeds(8, 12) {
        let nodes = in_range(seed, 10, 25);
        let ops = in_range(seed ^ 1, 10, 60);
        let g = seeded_graph(seed, nodes);
        let mut net = Network::new(
            g,
            NetworkConfig {
                capacity: Bandwidth::kbps(2_000),
                ..NetworkConfig::default()
            },
        );
        let mut rng = Rng::seed_from_u64(seed ^ 0xF00D);
        let qos = ElasticQos::paper_video(100);
        let mut live: Vec<drqos_core::channel::ConnectionId> = Vec::new();
        for _ in 0..ops {
            if live.is_empty() || rng.chance(0.6) {
                let s = rng.range_usize(nodes);
                let mut d = rng.range_usize(nodes - 1);
                if d >= s {
                    d += 1;
                }
                if let Ok(id) = net.establish(NodeId(s), NodeId(d), qos) {
                    live.push(id);
                }
            } else {
                let victim = live.swap_remove(rng.range_usize(live.len()));
                net.release(victim).expect("tracked as live");
            }
        }
        net.validate();
        // Every connection sits within its QoS range on every link.
        for c in net.connections() {
            assert!(
                c.bandwidth() >= qos.min() && c.bandwidth() <= qos.max(),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn multi_backup_invariants_under_churn() {
    for seed in case_seeds(9, 12) {
        let nodes = in_range(seed, 10, 20);
        let backups = in_range(seed ^ 1, 1, 4);
        let g = seeded_graph(seed, nodes);
        let mut net = Network::new(
            g,
            NetworkConfig {
                capacity: Bandwidth::kbps(3_000),
                backup_count: backups,
                ..NetworkConfig::default()
            },
        );
        let mut rng = Rng::seed_from_u64(seed ^ 0xCAFE);
        let qos = ElasticQos::paper_video(100);
        for _ in 0..25 {
            let s = rng.range_usize(nodes);
            let mut d = rng.range_usize(nodes - 1);
            if d >= s {
                d += 1;
            }
            let _ = net.establish(NodeId(s), NodeId(d), qos);
        }
        // One failure round.
        let up: Vec<_> = net.up_links().collect();
        if let Some(&l) = rng.choose(&up) {
            net.fail_link(l).expect("verified up");
        }
        net.validate();
        for c in net.connections() {
            assert!(c.backup_count() <= backups, "seed {seed}");
            // Backups never exceed the configured count and are mutually
            // link-disjoint (validate() asserts the rest).
            for (i, a) in c.backups().iter().enumerate() {
                for b in &c.backups()[i + 1..] {
                    assert!(a.is_link_disjoint(b), "seed {seed}");
                }
            }
        }
    }
}

#[test]
fn mixed_ops_with_failures_preserve_invariants() {
    for seed in case_seeds(10, 12) {
        let nodes = in_range(seed, 10, 20);
        let ops = in_range(seed ^ 1, 10, 40);
        let g = seeded_graph(seed, nodes);
        let mut net = Network::new(
            g,
            NetworkConfig {
                capacity: Bandwidth::kbps(1_500),
                ..NetworkConfig::default()
            },
        );
        let mut rng = Rng::seed_from_u64(seed ^ 0xBEEF);
        let qos = ElasticQos::paper_video(100);
        for _ in 0..ops {
            match rng.range_usize(4) {
                0 | 1 => {
                    let s = rng.range_usize(nodes);
                    let mut d = rng.range_usize(nodes - 1);
                    if d >= s {
                        d += 1;
                    }
                    let _ = net.establish(NodeId(s), NodeId(d), qos);
                }
                2 => {
                    let ids: Vec<_> = net.connections().map(|c| c.id()).collect();
                    if let Some(&id) = rng.choose(&ids) {
                        net.release(id).expect("live id");
                    }
                }
                _ => {
                    let up: Vec<_> = net.up_links().collect();
                    // Keep at least half the links alive.
                    if up.len() * 2 > net.graph().link_count() {
                        if let Some(&l) = rng.choose(&up) {
                            net.fail_link(l).expect("verified up");
                        }
                    } else {
                        let down: Vec<_> = net
                            .graph()
                            .links()
                            .map(|l| l.id())
                            .filter(|&l| !net.link_usage(l).is_up())
                            .collect();
                        if let Some(&l) = rng.choose(&down) {
                            net.repair_link(l).expect("verified down");
                        }
                    }
                }
            }
            net.validate();
        }
    }
}
