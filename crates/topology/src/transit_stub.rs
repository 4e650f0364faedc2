//! Transit-stub hierarchical topologies — the "Tier" network model of the
//! paper's Table 1 (Zegura, Calvert & Bhattacharjee, INFOCOM 1996; the
//! GT-ITM package).
//!
//! A transit-stub internetwork has a small core of *transit* domains whose
//! routers are well connected, and many *stub* domains (campus/edge
//! networks) that hang off individual transit nodes. Traffic between stubs
//! must cross the transit core, which is why the paper's Table 1 finds the
//! tiered network saturating much earlier than the flat random network: the
//! thin stub→transit uplinks are the bottleneck.

use crate::error::TopologyError;
use crate::graph::{Graph, NodeId};
use crate::metrics;
use drqos_sim::rng::Rng;

/// Configuration for the transit-stub generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitStubConfig {
    /// Number of transit domains (≥ 1).
    pub transit_domains: usize,
    /// Routers per transit domain (≥ 1).
    pub transit_nodes_per_domain: usize,
    /// Stub domains attached to each transit router (≥ 1).
    pub stubs_per_transit_node: usize,
    /// Routers per stub domain (≥ 1).
    pub stub_nodes_per_domain: usize,
    /// Probability of each extra intra-domain edge beyond the spanning tree,
    /// for transit domains.
    pub transit_extra_edge_prob: f64,
    /// Probability of each extra intra-domain edge beyond the spanning tree,
    /// for stub domains.
    pub stub_extra_edge_prob: f64,
}

impl TransitStubConfig {
    /// A ~100-node configuration comparable to the paper's Tier network:
    /// one transit domain of 4 routers, 3 stubs per transit router,
    /// 8 routers per stub → 4 + 96 = 100 nodes.
    pub fn paper_default() -> Self {
        Self {
            transit_domains: 1,
            transit_nodes_per_domain: 4,
            stubs_per_transit_node: 3,
            stub_nodes_per_domain: 8,
            transit_extra_edge_prob: 0.6,
            stub_extra_edge_prob: 0.25,
        }
    }

    fn validate(&self) -> Result<(), TopologyError> {
        if self.transit_domains == 0
            || self.transit_nodes_per_domain == 0
            || self.stubs_per_transit_node == 0
            || self.stub_nodes_per_domain == 0
        {
            return Err(TopologyError::InvalidParameter(
                "all transit-stub counts must be positive".into(),
            ));
        }
        for (name, p) in [
            ("transit_extra_edge_prob", self.transit_extra_edge_prob),
            ("stub_extra_edge_prob", self.stub_extra_edge_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(TopologyError::InvalidParameter(format!(
                    "{name} must be in [0, 1], got {p}"
                )));
            }
        }
        Ok(())
    }

    /// Generates a connected transit-stub graph.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] if any count is zero or
    /// a probability is out of range.
    pub fn generate(&self, rng: &mut Rng) -> Result<TransitStub, TopologyError> {
        self.validate()?;
        let mut g = Graph::new();
        let mut transit_nodes: Vec<NodeId> = Vec::new();
        let mut domains: Vec<Vec<NodeId>> = Vec::new();

        // Transit domains: each a random connected subgraph.
        for d in 0..self.transit_domains {
            let base_x = d as f64;
            let members = random_connected_subgraph(
                &mut g,
                self.transit_nodes_per_domain,
                self.transit_extra_edge_prob,
                (base_x, 0.0),
                rng,
            );
            transit_nodes.extend(&members);
            domains.push(members);
        }
        // Interconnect transit domains in a chain plus one random extra edge
        // per adjacent pair (simplified GT-ITM inter-domain wiring).
        for w in 0..self.transit_domains.saturating_sub(1) {
            let a = *rng.choose(&domains[w]).expect("domains are non-empty");
            let b = *rng.choose(&domains[w + 1]).expect("domains are non-empty");
            let _ = g.add_link(a, b);
        }

        // Stub domains hanging off each transit node.
        let mut stub_nodes: Vec<NodeId> = Vec::new();
        for (t_idx, &t) in transit_nodes.iter().enumerate() {
            for s in 0..self.stubs_per_transit_node {
                let members = random_connected_subgraph(
                    &mut g,
                    self.stub_nodes_per_domain,
                    self.stub_extra_edge_prob,
                    (t_idx as f64, 1.0 + s as f64),
                    rng,
                );
                let gateway = *rng.choose(&members).expect("stub is non-empty");
                g.add_link(t, gateway)
                    .expect("stub gateway link cannot duplicate");
                stub_nodes.extend(&members);
            }
        }
        debug_assert!(metrics::is_connected(&g));
        Ok(TransitStub {
            graph: g,
            transit_nodes,
            stub_nodes,
        })
    }
}

/// A generated transit-stub topology with its node classification.
#[derive(Debug, Clone)]
pub struct TransitStub {
    /// The network graph.
    pub graph: Graph,
    /// Transit (core) routers.
    pub transit_nodes: Vec<NodeId>,
    /// Stub (edge) routers.
    pub stub_nodes: Vec<NodeId>,
}

/// Adds `n` new nodes (placed near `origin` for display), wires a random
/// spanning tree over them, and adds each remaining pair with probability
/// `extra_prob`. Returns the member list.
fn random_connected_subgraph(
    g: &mut Graph,
    n: usize,
    extra_prob: f64,
    origin: (f64, f64),
    rng: &mut Rng,
) -> Vec<NodeId> {
    let members: Vec<NodeId> = (0..n)
        .map(|_| {
            g.add_node_at(
                origin.0 + 0.5 * rng.next_f64(),
                origin.1 + 0.5 * rng.next_f64(),
            )
        })
        .collect();
    // Random spanning tree: attach each node (after the first) to a random
    // earlier node.
    for i in 1..n {
        let j = rng.range_usize(i);
        g.add_link(members[i], members[j])
            .expect("tree edges are fresh");
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if g.link_between(members[i], members[j]).is_none() && rng.chance(extra_prob) {
                g.add_link(members[i], members[j])
                    .expect("checked for duplicates");
            }
        }
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(777)
    }

    #[test]
    fn paper_default_has_100_nodes() {
        let cfg = TransitStubConfig::paper_default();
        let ts = cfg.generate(&mut rng()).unwrap();
        assert_eq!(ts.graph.node_count(), 100);
        assert_eq!(ts.transit_nodes.len(), 4);
        assert_eq!(ts.stub_nodes.len(), 96);
        assert!(metrics::is_connected(&ts.graph));
    }

    #[test]
    fn classification_is_consistent() {
        let ts = TransitStubConfig::paper_default()
            .generate(&mut rng())
            .unwrap();
        for s in &ts.stub_nodes {
            assert!(!ts.transit_nodes.contains(s));
        }
    }

    #[test]
    fn multi_transit_domains_connect() {
        let cfg = TransitStubConfig {
            transit_domains: 3,
            transit_nodes_per_domain: 2,
            stubs_per_transit_node: 1,
            stub_nodes_per_domain: 3,
            transit_extra_edge_prob: 0.5,
            stub_extra_edge_prob: 0.5,
        };
        let ts = cfg.generate(&mut rng()).unwrap();
        // 3 × 2 transit routers, each with one 3-router stub domain.
        assert_eq!(ts.graph.node_count(), 6 + 6 * 3);
        assert!(metrics::is_connected(&ts.graph));
    }

    #[test]
    fn rejects_zero_counts_and_bad_probs() {
        let mut cfg = TransitStubConfig::paper_default();
        cfg.transit_domains = 0;
        assert!(cfg.generate(&mut rng()).is_err());

        let mut cfg = TransitStubConfig::paper_default();
        cfg.stub_nodes_per_domain = 0;
        assert!(cfg.generate(&mut rng()).is_err());

        let mut cfg = TransitStubConfig::paper_default();
        cfg.stub_extra_edge_prob = 1.5;
        assert!(cfg.generate(&mut rng()).is_err());
    }

    #[test]
    fn stub_traffic_must_cross_transit() {
        // In a 1-transit-domain graph, remove the transit nodes and stubs
        // from *different* transit routers should be disconnected.
        let ts = TransitStubConfig::paper_default()
            .generate(&mut rng())
            .unwrap();
        let g = &ts.graph;
        // BFS from a stub of transit node 0, forbidding links that touch any
        // transit node: should reach at most its own stub domain.
        let first_stub = ts.stub_nodes[0];
        let transit: std::collections::HashSet<NodeId> = ts.transit_nodes.iter().copied().collect();
        let filter = |l: crate::graph::LinkId| {
            let link = g.link(l);
            !transit.contains(&link.a()) && !transit.contains(&link.b())
        };
        let reached = g
            .nodes()
            .filter(|&n| crate::paths::bfs_path(g, first_stub, n, &filter).is_some())
            .count();
        assert!(
            reached <= ts.stub_nodes.len() / 2,
            "stub reached {reached} nodes without crossing transit"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = TransitStubConfig::paper_default();
        let a = cfg.generate(&mut Rng::seed_from_u64(9)).unwrap();
        let b = cfg.generate(&mut Rng::seed_from_u64(9)).unwrap();
        assert_eq!(a.graph.link_count(), b.graph.link_count());
    }
}
