//! Workload generation: who requests DR-connections, between which nodes,
//! and with what QoS.

use crate::network::EstablishRequest;
use crate::qos::ElasticQos;
use drqos_sim::rng::Rng;
use drqos_topology::NodeId;

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

    /// Draws the next request: a uniformly random distinct node pair.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes < 2`.
    pub fn request(&self, rng: &mut Rng, n_nodes: usize) -> EstablishRequest {
        assert!(n_nodes >= 2, "need at least two nodes to form a pair");
        let src = rng.range_usize(n_nodes);
        let mut dst = rng.range_usize(n_nodes - 1);
        if dst >= src {
            dst += 1;
        }
        EstablishRequest {
            src: NodeId(src),
            dst: NodeId(dst),
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

    fn workload() -> Workload {
        Workload::new(ElasticQos::paper_video(50))
    }

    #[test]
    fn uniform_pairs_are_distinct_and_in_range() {
        let mut r = rng();
        for _ in 0..10_000 {
            let req = workload().request(&mut r, 7);
            assert_ne!(req.src, req.dst);
            assert!(req.src.index() < 7 && req.dst.index() < 7);
        }
    }

    #[test]
    fn uniform_covers_all_nodes() {
        let mut r = rng();
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let req = workload().request(&mut r, 5);
            seen[req.src.index()] = true;
            seen[req.dst.index()] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn pair_needs_two_nodes() {
        workload().request(&mut rng(), 1);
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
