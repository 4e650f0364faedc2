//! The names `benchmark/src/layers.rs` still calls, frozen there until
//! ROADMAP 4(c) deletes the calls: [`ShardedNetwork::establish_wave`] is
//! [`Network::establish_batch`], the shard count is ignored and
//! [`ShardedNetwork::stale_replans`] is always zero.

use crate::channel::ConnectionId;
use crate::error::AdmissionError;
use crate::network::{EstablishRequest, Network};

/// A [`Network`], frozen for `benchmark/` (see the module docs).
#[derive(Debug)]
pub struct ShardedNetwork(Network);

impl ShardedNetwork {
    /// Wraps `net`; `_shards` is ignored.
    pub fn new(net: Network, _shards: usize) -> Self {
        Self(net)
    }

    /// The inner network, for every other operation.
    pub fn inner_mut(&mut self) -> &mut Network {
        &mut self.0
    }

    /// Always zero: nothing is planned ahead of its sequential point.
    pub fn stale_replans(&self) -> u64 {
        0
    }

    /// [`Network::establish_batch`].
    pub fn establish_wave(
        &mut self,
        requests: &[EstablishRequest],
    ) -> Vec<Result<ConnectionId, AdmissionError>> {
        self.0.establish_batch(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use crate::qos::ElasticQos;
    use crate::snapshot::NetworkSnapshot;
    use drqos_sim::rng::Rng;
    use drqos_topology::waxman;
    use drqos_topology::NodeId;

    #[test]
    fn one_shard_degenerates_to_the_monolith() {
        // The wave is `establish_batch`, whatever shard count it is
        // given; `layers` reads a zero `route_mismatches` from this.
        let graph = waxman::paper_waxman(40)
            .generate(&mut Rng::seed_from_u64(4))
            .unwrap();
        let net = Network::new(graph, NetworkConfig::default());
        let mut rng = Rng::seed_from_u64(11);
        let wave: Vec<EstablishRequest> = (0..16)
            .map(|_| EstablishRequest {
                src: NodeId(rng.range_usize(40)),
                dst: NodeId(rng.range_usize(40)),
                qos: ElasticQos::paper_video(25),
            })
            .collect();
        for shards in [1, 4] {
            let mut batched = net.clone();
            let mut wrapped = ShardedNetwork::new(net.clone(), shards);
            assert_eq!(
                wrapped.establish_wave(&wave),
                batched.establish_batch(&wave)
            );
            assert_eq!(wrapped.stale_replans(), 0);
            let inner = wrapped.inner_mut();
            assert_eq!(
                NetworkSnapshot::capture(inner),
                NetworkSnapshot::capture(&batched)
            );
        }
    }
}
