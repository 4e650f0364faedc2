//! Workload generation: who requests DR-connections, between which nodes,
//! and with what QoS.

use crate::network::EstablishRequest;
use crate::qos::ElasticQos;
use drqos_sim::rng::Rng;
use drqos_topology::NodeId;

/// How source/destination pairs are drawn.
#[derive(Debug, Clone, PartialEq)]
pub enum PairSampler {
    /// Uniformly random distinct node pair (the paper's workload).
    Uniform,
    /// With probability `hub_prob`, one endpoint is drawn from `hubs`
    /// (server-concentration workloads; an extension for the examples).
    HotSpot {
        /// The popular nodes.
        hubs: Vec<NodeId>,
        /// Probability that a request touches a hub.
        hub_prob: f64,
    },
}

impl PairSampler {
    /// Draws a distinct `(src, dst)` pair from a graph with `n_nodes`
    /// nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes < 2`, or for [`PairSampler::HotSpot`] if `hubs`
    /// is empty or `hub_prob` is outside `[0, 1]`.
    pub fn sample(&self, rng: &mut Rng, n_nodes: usize) -> (NodeId, NodeId) {
        assert!(n_nodes >= 2, "need at least two nodes to form a pair");
        match self {
            PairSampler::Uniform => {
                let src = rng.range_usize(n_nodes);
                let mut dst = rng.range_usize(n_nodes - 1);
                if dst >= src {
                    dst += 1;
                }
                (NodeId(src), NodeId(dst))
            }
            PairSampler::HotSpot { hubs, hub_prob } => {
                assert!(!hubs.is_empty(), "hot-spot sampler needs hubs");
                assert!(
                    (0.0..=1.0).contains(hub_prob),
                    "hub_prob must be a probability"
                );
                if rng.chance(*hub_prob) {
                    let hub = hubs[rng.range_usize(hubs.len())];
                    let mut other = NodeId(rng.range_usize(n_nodes));
                    while other == hub {
                        other = NodeId(rng.range_usize(n_nodes));
                    }
                    if rng.chance(0.5) {
                        (hub, other)
                    } else {
                        (other, hub)
                    }
                } else {
                    PairSampler::Uniform.sample(rng, n_nodes)
                }
            }
        }
    }
}

/// A stream of DR-connection requests with a fixed QoS template between
/// uniformly drawn node pairs (the paper's workload).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    qos: ElasticQos,
}

impl Workload {
    /// A uniform workload with the given QoS template.
    pub fn new(qos: ElasticQos) -> Self {
        Self { qos }
    }

    /// The QoS template.
    pub fn qos(&self) -> &ElasticQos {
        &self.qos
    }

    /// Draws the next request.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes < 2` (see [`PairSampler::sample`]).
    pub fn request(&self, rng: &mut Rng, n_nodes: usize) -> EstablishRequest {
        let (src, dst) = PairSampler::Uniform.sample(rng, n_nodes);
        EstablishRequest {
            src,
            dst,
            qos: self.qos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(31)
    }

    #[test]
    fn uniform_pairs_are_distinct_and_in_range() {
        let mut r = rng();
        for _ in 0..10_000 {
            let (s, d) = PairSampler::Uniform.sample(&mut r, 7);
            assert_ne!(s, d);
            assert!(s.index() < 7 && d.index() < 7);
        }
    }

    #[test]
    fn uniform_covers_all_nodes() {
        let mut r = rng();
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let (s, d) = PairSampler::Uniform.sample(&mut r, 5);
            seen[s.index()] = true;
            seen[d.index()] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn pair_needs_two_nodes() {
        PairSampler::Uniform.sample(&mut rng(), 1);
    }

    #[test]
    fn hotspot_touches_hubs_often() {
        let sampler = PairSampler::HotSpot {
            hubs: vec![NodeId(0)],
            hub_prob: 1.0,
        };
        let mut r = rng();
        for _ in 0..500 {
            let (s, d) = sampler.sample(&mut r, 10);
            assert!(s == NodeId(0) || d == NodeId(0));
            assert_ne!(s, d);
        }
    }

    #[test]
    fn hotspot_zero_prob_is_uniform() {
        let sampler = PairSampler::HotSpot {
            hubs: vec![NodeId(0)],
            hub_prob: 0.0,
        };
        let mut r = rng();
        let hits = (0..2000)
            .filter(|_| {
                let (s, d) = sampler.sample(&mut r, 10);
                s == NodeId(0) || d == NodeId(0)
            })
            .count();
        // Uniform touch probability of node 0 is ~ 2/10.
        assert!((hits as f64 / 2000.0 - 0.2).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "needs hubs")]
    fn hotspot_requires_hubs() {
        PairSampler::HotSpot {
            hubs: vec![],
            hub_prob: 0.5,
        }
        .sample(&mut rng(), 5);
    }

    #[test]
    fn workload_requests_use_template() {
        let qos = ElasticQos::paper_video(50);
        let w = Workload::new(qos);
        let req = w.request(&mut rng(), 6);
        assert_eq!(req.qos, qos);
        assert_ne!(req.src, req.dst);
        assert_eq!(w.qos(), &qos);
    }
}
