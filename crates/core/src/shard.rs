//! Sharded admission over topology partitions.
//!
//! The paper's dependable-channel manager is a single sequential admission
//! authority; [`crate::network::Network`] reproduces that limit. A
//! [`ShardedNetwork`] splits the admission *planning* problem by region —
//! a request's home shard is the [`Partition`] region owning its source
//! node — while keeping results **byte-identical** to the monolith:
//!
//! 1. **Pre-plan in parallel.** When a wave's requests have at least two
//!    distinct home shards, each active shard routes its requests against
//!    the frozen network via
//!    [`crate::network::Network::plan_establish_traced`], which records
//!    the admission *footprint*: every link the search probed, with its
//!    plan digest at planning time. With fewer than two active home shards
//!    there is nothing to run side by side, so nothing is pre-planned.
//! 2. **Admit in order.** A single committer walks the wave in original
//!    request order through [`crate::network::Network::admit`] — the one
//!    admission step — handing it the pre-planned result as a hint. A
//!    hint whose footprint digests are all unchanged is exactly what
//!    planning at that point would produce, rejections included; any
//!    other request is planned there and then, the monolith's own path
//!    (counted in [`ShardedNetwork::stale_replans`]).
//!
//! A wave at one shard is therefore `establish_batch`, and a wave of one
//! request is `establish`. The remaining gap — a multi-shard wave versus
//! the monolith replaying the same ops one at a time — is closed by
//! `fuzz --diff-shard` in `drqos-testkit`.

use crate::channel::ConnectionId;
use crate::error::AdmissionError;
use crate::network::{EstablishRequest, Network, PrePlanned};
use crate::routing::RouteScratch;
use drqos_topology::Partition;

/// Seed for the default [`Partition::seeded_bfs`] partition, fixed so a
/// daemon restarted on the same topology shards it identically.
pub(crate) const DEFAULT_PARTITION_SEED: u64 = 0x5EED_2001;

/// Fault injection for the differential harness's mutation self-test: a
/// deliberately broken sharded engine the `fuzz --diff-shard` harness must
/// catch, proving the comparison has teeth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardFault {
    /// Behave correctly.
    #[default]
    None,
    /// The wave committer uses every hint without comparing digests, so a
    /// plan made before an earlier commit of the same wave is committed
    /// against state it never saw.
    TrustStaleFootprint,
}

/// A [`Network`] fronted by partition-sharded admission planning.
///
/// All non-establish operations (release, failures, repairs, snapshots)
/// go straight to the inner monolith via [`ShardedNetwork::inner_mut`] —
/// sharding accelerates admission, the measured bottleneck, and leaves
/// every other path untouched.
#[derive(Debug)]
pub struct ShardedNetwork {
    net: Network,
    partition: Partition,
    stale_replans: u64,
    fault: ShardFault,
}

impl ShardedNetwork {
    /// Shards `net` into (up to) `shards` regions using the deterministic
    /// seeded-BFS partition of its graph.
    pub fn new(net: Network, shards: usize) -> Self {
        let partition = Partition::seeded_bfs(net.graph(), shards, DEFAULT_PARTITION_SEED);
        Self::with_partition(net, partition)
    }

    /// Shards `net` by an explicit partition (the transit-stub natural
    /// cut, or a fuzzer-chosen one).
    pub(crate) fn with_partition(net: Network, partition: Partition) -> Self {
        Self {
            net,
            partition,
            stale_replans: 0,
            fault: ShardFault::None,
        }
    }

    /// The inner monolith, read-only.
    pub fn inner(&self) -> &Network {
        &self.net
    }

    /// The inner monolith, for all non-establish operations.
    pub fn inner_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Unwraps the inner monolith.
    pub fn into_inner(self) -> Network {
        self.net
    }

    /// Number of shards (after clamping to the node count).
    pub fn shards(&self) -> usize {
        self.partition.shards()
    }

    /// The node/link partition in force.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Arms (or clears) fault injection for the mutation self-test.
    pub fn set_fault(&mut self, fault: ShardFault) {
        self.fault = fault;
    }

    /// Pre-planned requests whose footprint had gone stale by their turn
    /// and were planned again there. Purely observational (contention
    /// telemetry for benches and tests).
    pub fn stale_replans(&self) -> u64 {
        self.stale_replans
    }

    /// Admits a wave of establish requests: parallel per-shard
    /// pre-planning against the frozen network, then one
    /// [`Network::admit`] per request in original order. Returns one
    /// result per request, in request order, byte-identical to what
    /// [`Network::establish`] would return replaying the wave serially.
    pub fn establish_wave(
        &mut self,
        requests: &[EstablishRequest],
    ) -> Vec<Result<ConnectionId, AdmissionError>> {
        let mut hints = self.pre_plan(requests).into_iter();
        let mut pending = None;
        let mut results = Vec::with_capacity(requests.len());
        for req in requests {
            let mut hint = hints.next().flatten();
            if self.fault == ShardFault::TrustStaleFootprint {
                // An empty footprint is vacuously current.
                hint = hint.map(|(plan, _)| (plan, Vec::new()));
            }
            let (result, stale) = self.net.admit(req, hint, &mut pending);
            self.stale_replans += u64::from(stale);
            results.push(result);
        }
        self.net.batch_flush(pending);
        results
    }

    /// Phase 1: one hint slot per request — or none at all unless the
    /// wave has at least two active home shards. Each planner owns a
    /// fresh route scratch and shares the frozen `&Network`; hints land in
    /// index-addressed slots, so the admit loop is independent of thread
    /// scheduling (and a planner that died merely leaves its slots empty).
    fn pre_plan(&self, requests: &[EstablishRequest]) -> Vec<Option<PrePlanned>> {
        let home = |r: &EstablishRequest| self.partition.shard_of_node(r.src);
        let first = requests.first().map(home);
        if requests.iter().all(|r| Some(home(r)) == first) {
            return Vec::new();
        }
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.partition.shards()];
        for (i, req) in requests.iter().enumerate() {
            groups[home(req)].push(i);
        }
        groups.retain(|g| !g.is_empty());
        let net = &self.net;
        let plan_group = |group: &Vec<usize>| -> Vec<(usize, PrePlanned)> {
            let mut scratch = RouteScratch::new();
            let plan = |&i: &usize| {
                let r = &requests[i];
                let planned = net.plan_establish_traced(&mut scratch, r.src, r.dst, r.qos);
                (i, planned)
            };
            group.iter().map(plan).collect()
        };
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let planned: Vec<Vec<(usize, PrePlanned)>> = if workers <= 1 {
            // One core: same plans in the same slots, minus the spawns.
            groups.iter().map(plan_group).collect()
        } else {
            std::thread::scope(|scope| {
                let planners: Vec<_> = groups
                    .iter()
                    .map(|group| scope.spawn(|| plan_group(group)))
                    .collect();
                planners.into_iter().filter_map(|p| p.join().ok()).collect()
            })
        };
        let mut hints: Vec<Option<PrePlanned>> = requests.iter().map(|_| None).collect();
        for (i, hint) in planned.into_iter().flatten() {
            hints[i] = Some(hint);
        }
        hints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use crate::qos::ElasticQos;
    use crate::snapshot::NetworkSnapshot;
    use drqos_sim::rng::Rng;
    use drqos_topology::regular::ring;
    use drqos_topology::waxman;
    use drqos_topology::NodeId;

    fn waxman_net(seed: u64) -> Network {
        let graph = waxman::paper_waxman(40)
            .generate(&mut Rng::seed_from_u64(seed))
            .unwrap();
        Network::new(graph, NetworkConfig::default())
    }

    fn random_wave(seed: u64, n_nodes: usize, count: usize) -> Vec<EstablishRequest> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let s = rng.range_usize(n_nodes);
                let mut d = rng.range_usize(n_nodes - 1);
                if d >= s {
                    d += 1;
                }
                EstablishRequest {
                    src: NodeId(s),
                    dst: NodeId(d),
                    qos: ElasticQos::paper_video(25),
                }
            })
            .collect()
    }

    fn contended_ring() -> Network {
        Network::new(ring(6).unwrap(), NetworkConfig::default())
    }

    fn antipodal_wave() -> Vec<EstablishRequest> {
        (0..12)
            .map(|i| EstablishRequest {
                src: NodeId(i % 6),
                dst: NodeId((i + 3) % 6),
                qos: ElasticQos::paper_video(25),
            })
            .collect()
    }

    fn assert_matches_serial(net: Network, wave: &[EstablishRequest], shards: usize) -> u64 {
        let mut serial = net.clone();
        let mut sharded = ShardedNetwork::new(net, shards);
        let got = sharded.establish_wave(wave);
        let want: Vec<_> = wave
            .iter()
            .map(|r| serial.establish(r.src, r.dst, r.qos))
            .collect();
        assert_eq!(got, want, "per-request results diverged");
        assert_eq!(
            NetworkSnapshot::capture(sharded.inner()),
            NetworkSnapshot::capture(&serial),
            "post-wave state diverged"
        );
        sharded.stale_replans()
    }

    #[test]
    fn a_quiet_wave_matches_serial_replay() {
        for seed in 0..5u64 {
            let net = waxman_net(seed);
            let n = net.graph().node_count();
            assert_matches_serial(net, &random_wave(seed ^ 0x77, n, 24), 4);
        }
    }

    #[test]
    fn a_contended_wave_replans_stale_footprints_and_still_matches() {
        // Antipodal requests on a small ring all fight for the same links,
        // so wave plans go stale and `admit` must plan them again at their
        // sequential point — and the result must still match.
        let stale = assert_matches_serial(contended_ring(), &antipodal_wave(), 3);
        assert!(stale > 0, "contended ring wave should hit the stale path");
    }

    #[test]
    fn the_injected_fault_commits_a_plan_that_went_stale() {
        // Links so tight that the tail of the wave is rejected at its
        // sequential point — but not on the empty network it was
        // pre-planned against.
        let tight = || {
            let config = NetworkConfig {
                capacity: crate::qos::Bandwidth::kbps(800),
                ..NetworkConfig::default()
            };
            Network::new(ring(6).unwrap(), config)
        };
        let mut serial = tight();
        let mut sharded = ShardedNetwork::new(tight(), 3);
        sharded.set_fault(ShardFault::TrustStaleFootprint);
        let got = sharded.establish_wave(&antipodal_wave());
        assert_eq!(sharded.stale_replans(), 0, "the mutant never re-plans");
        assert_ne!(
            got,
            serial.establish_batch(&antipodal_wave()),
            "TrustStaleFootprint must over-admit"
        );
    }

    #[test]
    fn waves_compose_with_interleaved_monolith_operations() {
        let net = waxman_net(9);
        let n = net.graph().node_count();
        let mut serial = net.clone();
        let mut sharded = ShardedNetwork::new(net, 4);
        for round in 0..4u64 {
            let wave = random_wave(round ^ 0x1CE, n, 10);
            let got = sharded.establish_wave(&wave);
            let want: Vec<_> = wave
                .iter()
                .map(|r| serial.establish(r.src, r.dst, r.qos))
                .collect();
            assert_eq!(got, want, "round {round}");
            // Interleave non-establish traffic through the monolith path.
            let first = sharded.inner().connections().next().map(|c| c.id());
            if let Some(id) = first {
                sharded.inner_mut().release(id).unwrap();
                serial.release(id).unwrap();
            }
            let link = drqos_topology::LinkId(round as usize);
            sharded.inner_mut().fail_link(link).unwrap();
            serial.fail_link(link).unwrap();
            assert_eq!(
                NetworkSnapshot::capture(sharded.inner()),
                NetworkSnapshot::capture(&serial),
                "round {round}"
            );
        }
    }

    #[test]
    fn one_shard_degenerates_to_the_monolith() {
        // One shard ⇒ one home shard ⇒ no pre-planning: the wave is
        // `establish_batch`, down to the route-cache counters.
        let net = waxman_net(4);
        let wave = random_wave(11, net.graph().node_count(), 16);
        let mut batched = net.clone();
        let mut sharded = ShardedNetwork::new(net, 1);
        assert_eq!(
            sharded.establish_wave(&wave),
            batched.establish_batch(&wave)
        );
        assert_eq!(sharded.stale_replans(), 0);
        assert_eq!(
            sharded.inner().route_cache_stats(),
            batched.route_cache_stats()
        );
        let net = waxman_net(4);
        assert_matches_serial(net, &wave, 1);
    }
}
