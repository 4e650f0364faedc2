//! The worst single correlated failure, found by exhaustive search: how
//! many DR-connections one shared-risk group, one pair of groups, or one
//! node takes down together with their backups, and why each one went.
//!
//! The paper's dependability is a property under single *link* failures:
//! a backup is only link-disjoint from its primary. So a group event can
//! take both channels of a connection at once, and so can a node event
//! when the backup crosses a transit node of its primary — or when the
//! node is a cut node between the connection's endpoints, where no route
//! could have saved it. These counts are that gap, before anything
//! closes it. EXPERIMENTS.md has the table.

use crate::experiments::{paper_graph, tier_graph};
use drqos_core::network::{FailureReport, Network, NetworkConfig};
use drqos_core::qos::ElasticQos;
use drqos_core::scenario::register_seeded_srlgs;
use drqos_core::workload::Workload;
use drqos_sim::rng::Rng;
use drqos_topology::graph::{Graph, NodeId};
use drqos_topology::paths::Path;

/// The `srlg` scenario's shape: four groups of three links.
const GROUPS: usize = 4;
const GROUP_LINKS: usize = 3;

/// The connections one event dropped, by cause. A drop counts once, under
/// the first cause that holds, in this order. For a node event a backup
/// that crossed the node lost the node's links, so it counts as shared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Drops {
    /// A node event only: no route between the endpoints avoids the node.
    pub cut: usize,
    /// The connection had no backup.
    pub unprotected: usize,
    /// Every backup crossed what failed: a link of the event, or the node.
    pub shared: usize,
    /// A backup survived but could not activate (overbooked).
    pub inactive: usize,
}

impl Drops {
    /// All drops.
    pub fn total(&self) -> usize {
        self.cut + self.unprotected + self.shared + self.inactive
    }

    /// Adds `other`'s drops, cause by cause.
    fn add(&mut self, other: Drops) {
        self.cut += other.cut;
        self.unprotected += other.unprotected;
        self.shared += other.shared;
        self.inactive += other.inactive;
    }

    /// The worse of the two, by total; the earlier on a tie.
    fn worse(self, other: Drops) -> Drops {
        if other.total() > self.total() {
            other
        } else {
            self
        }
    }
}

/// One network's worst events.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstRow {
    /// `waxman` (the paper's 100-node random network) or `tier`.
    pub graph: &'static str,
    /// The seed of the graph, the groups and the requests.
    pub seed: u64,
    /// Connections asked for.
    pub target: usize,
    /// Connections admitted (the Tier network may admit fewer).
    pub admitted: usize,
    /// The worst single group.
    pub k1: Drops,
    /// The worst pair of groups, failed one after the other.
    pub k2: Drops,
    /// The worst single node, counting transit drops only: a connection
    /// whose endpoint is the node is lost whatever its routes.
    pub node: Drops,
}

/// The worst events on both paper networks, for every seed and target.
pub fn worst_group(targets: &[usize], seeds: &[u64]) -> Vec<WorstRow> {
    let mut rows = Vec::new();
    for &seed in seeds {
        for (name, graph) in [
            ("waxman", paper_graph(100, seed)),
            ("tier", tier_graph(seed)),
        ] {
            for &target in targets {
                let net = loaded(graph.clone(), target, seed);
                rows.push(WorstRow {
                    graph: name,
                    seed,
                    target,
                    admitted: net.len(),
                    k1: worst_k1(&net),
                    k2: worst_k2(&net),
                    node: worst_node(&net),
                });
            }
        }
    }
    rows
}

/// The CSV columns of [`export`], one row per [`WorstRow`].
const COLUMNS: [&str; 17] = [
    "graph",
    "seed",
    "target",
    "admitted",
    "worst_k1_dropped",
    "k1_shared",
    "k1_inactive",
    "k1_unprotected",
    "worst_k2_dropped",
    "k2_shared",
    "k2_inactive",
    "k2_unprotected",
    "worst_node_dropped",
    "node_cut",
    "node_crossed",
    "node_inactive",
    "node_unprotected",
];

/// Writes `rows` to `target/experiments/worst_group.csv`.
pub fn export(rows: &[WorstRow]) {
    let cells = rows.iter().map(|r| {
        let mut cells = vec![r.graph.to_string()];
        cells.extend([r.seed as usize, r.target, r.admitted].map(|n| n.to_string()));
        for d in [r.k1, r.k2] {
            cells.extend([d.total(), d.shared, d.inactive, d.unprotected].map(|n| n.to_string()));
        }
        let node = [
            r.node.total(),
            r.node.cut,
            r.node.shared,
            r.node.inactive,
            r.node.unprotected,
        ];
        cells.extend(node.map(|n| n.to_string()));
        cells
    });
    crate::csv::export("worst_group", &COLUMNS, &cells.collect::<Vec<_>>());
}

/// A network on `graph` with the default configuration and the seeded
/// groups, loaded with requests drawn under `seed` until `target` are
/// admitted or twenty times as many were tried.
fn loaded(graph: Graph, target: usize, seed: u64) -> Network {
    let mut net = Network::new(graph, NetworkConfig::default());
    register_seeded_srlgs(&mut net, GROUPS, GROUP_LINKS, seed);
    let mut rng = Rng::seed_from_u64(seed);
    let workload = Workload::new(ElasticQos::paper_video(50));
    let nodes = net.graph().node_count();
    for _ in 0..20 * target {
        if net.len() >= target {
            break;
        }
        let r = workload.request(&mut rng, nodes);
        let _ = net.establish(r.src, r.dst, r.qos);
    }
    net
}

/// The worst single group of `net`.
fn worst_k1(net: &Network) -> Drops {
    let events = (0..net.srlg_count()).map(|g| fail_groups(net, &[g]));
    events.fold(Drops::default(), Drops::worse)
}

/// The worst pair of groups of `net`.
fn worst_k2(net: &Network) -> Drops {
    let groups = net.srlg_count();
    let pairs = (0..groups).flat_map(|a| (a + 1..groups).map(move |b| [a, b]));
    let events = pairs.map(|pair| fail_groups(net, &pair));
    events.fold(Drops::default(), Drops::worse)
}

/// Fails `groups` on a clone of `net`, one after the other, and sorts
/// each one's drops by what its connection held just before it.
fn fail_groups(net: &Network, groups: &[usize]) -> Drops {
    let (mut before, mut drops) = (net.clone(), Drops::default());
    for &group in groups {
        let mut after = before.clone();
        if let Ok(report) = after.fail_srlg(group) {
            drops.add(classify(&before, &after, &report, None));
        }
        before = after;
    }
    drops
}

/// The worst single node of `net`, by transit drops.
fn worst_node(net: &Network) -> Drops {
    let graph = net.graph();
    let events = graph.nodes().map(|node| {
        let mut after = net.clone();
        let Ok(report) = after.fail_node(node) else {
            return Drops::default();
        };
        let apart = graph.cut_nodes()[node.0].then(|| components_without(graph, node));
        classify(net, &after, &report, Some((node, apart.as_deref())))
    });
    events.fold(Drops::default(), Drops::worse)
}

/// Sorts the connections `report` dropped by cause, reading their routes
/// in `before` and the links' state in `after`. For a node event,
/// `node` names it and, when it is a cut node, each node's component
/// once it is gone; a connection that ends at the node is not counted.
fn classify(
    before: &Network,
    after: &Network,
    report: &FailureReport,
    node: Option<(NodeId, Option<&[usize]>)>,
) -> Drops {
    let failed = |l| !after.link_usage(l).is_up();
    let mut drops = Drops::default();
    for conn in report
        .dropped
        .iter()
        .filter_map(|&id| before.connection(id))
    {
        let (src, dst) = (conn.primary().source(), conn.primary().destination());
        if node.is_some_and(|(n, _)| n == src || n == dst) {
            continue;
        }
        let separated = node
            .and_then(|(_, apart)| apart)
            .is_some_and(|c| c[src.0] != c[dst.0]);
        let lost = |b: &Path| {
            b.links().iter().any(|&l| failed(l))
                || node.is_some_and(|(n, _)| b.nodes().contains(&n))
        };
        if separated {
            drops.cut += 1;
        } else if !conn.has_backup() {
            drops.unprotected += 1;
        } else if conn.backups().iter().all(lost) {
            drops.shared += 1;
        } else {
            drops.inactive += 1;
        }
    }
    drops
}

/// Each node's connected component in `graph` without `gone` and its
/// links, by breadth-first search; `gone` gets a component of its own.
fn components_without(graph: &Graph, gone: NodeId) -> Vec<usize> {
    let mut component = vec![usize::MAX; graph.node_count()];
    component[gone.0] = 0;
    let mut next = 1;
    for start in graph.nodes() {
        if component[start.0] != usize::MAX {
            continue;
        }
        component[start.0] = next;
        let mut queue = vec![start];
        while let Some(u) = queue.pop() {
            for &(v, _) in graph.neighbors(u) {
                if component[v.0] == usize::MAX {
                    component[v.0] = next;
                    queue.push(v);
                }
            }
        }
        next += 1;
    }
    component
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_topology::regular;

    /// A 6-ring and one connection 0→3: the primary one way round, the
    /// backup the other. One group covering one link of each path drops
    /// it, the backup sharing the event; a group on the primary alone, or
    /// a transit node of the primary, does not, the backup avoiding it.
    #[test]
    fn a_group_across_both_paths_of_a_ring_drops_its_connection() {
        let mut net = Network::new(regular::ring(6).unwrap(), NetworkConfig::default());
        let id = net.establish(NodeId(0), NodeId(3), ElasticQos::paper_video(100));
        let conn = net.connection(id.unwrap()).unwrap();
        let (primary, backup) = (conn.primary().links(), conn.backup().unwrap().links());
        let (across, one_side) = (vec![primary[0], backup[0]], vec![primary[1]]);
        net.register_srlg(across).unwrap();
        net.register_srlg(one_side).unwrap();
        let shared = Drops {
            shared: 1,
            ..Drops::default()
        };
        assert_eq!((worst_k1(&net), worst_k2(&net)), (shared, shared));
        assert_eq!(worst_node(&net), Drops::default());
    }

    /// A line 0–1–2 with one connection 0→2 and no backup: node 1 is a cut
    /// node between its endpoints, and node 0 is an endpoint.
    #[test]
    fn a_cut_node_drops_what_no_route_could_save() {
        let config = NetworkConfig {
            require_backup: false,
            ..NetworkConfig::default()
        };
        let mut net = Network::new(regular::grid(1, 3).unwrap(), config);
        net.establish(NodeId(0), NodeId(2), ElasticQos::paper_video(100))
            .unwrap();
        assert_eq!(net.graph().cut_nodes(), [false, true, false]);
        let cut = Drops {
            cut: 1,
            ..Drops::default()
        };
        assert_eq!(worst_node(&net), cut);
    }
}
