//! Sharded admission over topology partitions.
//!
//! The paper's dependable-channel manager is a single sequential admission
//! authority; [`crate::network::Network`] reproduces that limit. A
//! [`ShardedNetwork`] splits the admission *planning* problem by region —
//! each shard of a [`Partition`] is the single-writer owner of its links —
//! while keeping results **byte-identical** to the monolith:
//!
//! 1. **Parallel plan.** A wave of requests is grouped by home shard
//!    (the shard owning the source node). One planning thread per
//!    non-empty shard routes its requests against the frozen network via
//!    [`crate::network::Network::plan_establish_traced`], which records
//!    the admission *footprint*: every link the search probed, with its
//!    plan digest at planning time.
//! 2. **Two-phase reserve/commit.** A single committer walks the wave in
//!    original request order. For each request it acquires the ledgers of
//!    exactly the shards the footprint touches — **in ascending shard
//!    order** ([`Partition::touched_shards`]), so the lock order is a
//!    total order and deadlock is impossible by construction — inserts a
//!    pending reservation per touched shard, and revalidates every
//!    footprint digest. If every probed link is unchanged, the plan (or
//!    planned rejection) is exactly what serial planning would produce
//!    now, and it commits. If any digest moved, the reservation is
//!    aborted (released) and the request is re-planned serially at its
//!    sequential point — the monolith's own path.
//!
//! The equivalence argument is the route cache's (proven by
//! `fuzz --diff-cache`): the route search is a deterministic function of
//! the digests of the links it probes, so "all probed digests unchanged"
//! implies "the serial search would make the same decisions". It covers
//! *rejections* too — footprints are recorded even for failed plans,
//! because intervening commits can change which error a request gets.
//! Commits go through [`crate::network::Network::batch_commit`], the same
//! deferred-fill machinery as `establish_batch` (proven by
//! `fuzz --diff-batch`). The remaining gap — a sharded wave versus the
//! monolith replaying the same ops one at a time — is closed by
//! `fuzz --diff-shard` in `drqos-testkit`.

use crate::error::AdmissionError;
use crate::network::{EstablishRequest, Network, PendingFill};
use crate::routing::RouteScratch;
use drqos_topology::{LinkId, Partition};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Seed for the default [`Partition::seeded_bfs`] partition, fixed so a
/// daemon restarted on the same topology shards it identically.
pub const DEFAULT_PARTITION_SEED: u64 = 0x5EED_2001;

/// Fault injection for the differential harness's mutation self-test: a
/// deliberately broken sharded engine the `fuzz --diff-shard` harness must
/// catch, proving the comparison has teeth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardFault {
    /// Behave correctly.
    #[default]
    None,
    /// Skip releasing one two-phase reservation after its commit, leaking
    /// a pending-ledger entry (caught by the harness's
    /// [`ShardedNetwork::pending_reservations`] check).
    LoseReservationRelease,
}

/// Per-shard reservation ledger: the links of in-flight two-phase tickets
/// that this shard owns. Emptied again as each ticket commits or aborts;
/// non-empty between waves means a committer leaked a reservation.
#[derive(Debug, Default)]
struct ShardLedger {
    pending: BTreeMap<u64, Vec<LinkId>>,
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
    ledgers: Vec<Mutex<ShardLedger>>,
    next_ticket: u64,
    stale_replans: u64,
    fault: ShardFault,
    fault_fired: bool,
}

fn lock_ledger(m: &Mutex<ShardLedger>) -> MutexGuard<'_, ShardLedger> {
    // Ledger operations cannot panic, so a poisoned lock is unreachable;
    // the daemon zone forbids `unwrap`, so shrug poison off regardless.
    m.lock().unwrap_or_else(|e| e.into_inner())
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
    pub fn with_partition(net: Network, partition: Partition) -> Self {
        let ledgers = (0..partition.shards())
            .map(|_| Mutex::new(ShardLedger::default()))
            .collect();
        Self {
            net,
            partition,
            ledgers,
            next_ticket: 0,
            stale_replans: 0,
            fault: ShardFault::None,
            fault_fired: false,
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
        self.fault_fired = false;
    }

    /// Two-phase reservations currently pending across all shard ledgers.
    /// Zero between waves on a correct engine; a leak here is how the
    /// differential harness catches [`ShardFault::LoseReservationRelease`].
    pub fn pending_reservations(&self) -> usize {
        self.ledgers
            .iter()
            .map(|l| lock_ledger(l).pending.len())
            .sum()
    }

    /// Wave commits that found a stale footprint and re-planned serially.
    /// Purely observational (contention telemetry for benches and tests).
    pub fn stale_replans(&self) -> u64 {
        self.stale_replans
    }

    /// Admits a wave of establish requests: parallel per-shard planning
    /// against the frozen network, then a deterministic two-phase
    /// reserve/commit in original request order. Returns one result per
    /// request, in request order, byte-identical to what
    /// [`Network::establish`] would return replaying the wave serially.
    pub fn establish_wave(
        &mut self,
        requests: &[EstablishRequest],
    ) -> Vec<Result<crate::channel::ConnectionId, AdmissionError>> {
        type Planned = (
            Result<crate::network::EstablishPlan, AdmissionError>,
            Vec<(LinkId, u64)>,
        );
        // Phase 1: group by home shard and plan in parallel. Each worker
        // owns a fresh route scratch; the network is frozen (`&Network`),
        // so planning threads share it without coordination. Workers
        // deposit results into index-addressed slots, so the commit phase
        // below is independent of thread scheduling.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.partition.shards()];
        for (i, req) in requests.iter().enumerate() {
            groups[self.partition.shard_of_node(req.src)].push(i);
        }
        let net = &self.net;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let active = groups.iter().filter(|g| !g.is_empty()).count();
        let mut planned: Vec<Option<Planned>> = if workers <= 1 || active <= 1 {
            // No parallelism to exploit (single core, or one home shard):
            // plan inline, skipping per-wave thread spawns. Same plans in
            // the same slots — planning is a pure function of the frozen
            // network — so the commit phase cannot tell the difference.
            let mut scratch = RouteScratch::new();
            let mut slots: Vec<Option<Planned>> = requests.iter().map(|_| None).collect();
            for group in groups.iter().filter(|g| !g.is_empty()) {
                for &i in group {
                    let r = &requests[i];
                    slots[i] = Some(net.plan_establish_traced(&mut scratch, r.src, r.dst, r.qos));
                }
            }
            slots
        } else {
            let planned: Mutex<Vec<Option<Planned>>> =
                Mutex::new(requests.iter().map(|_| None).collect());
            std::thread::scope(|scope| {
                for group in groups.iter().filter(|g| !g.is_empty()) {
                    scope.spawn(|| {
                        let mut scratch = RouteScratch::new();
                        let local: Vec<(usize, Planned)> = group
                            .iter()
                            .map(|&i| {
                                let r = &requests[i];
                                (
                                    i,
                                    net.plan_establish_traced(&mut scratch, r.src, r.dst, r.qos),
                                )
                            })
                            .collect();
                        let mut slots = planned.lock().unwrap_or_else(|e| e.into_inner());
                        for (i, p) in local {
                            slots[i] = Some(p);
                        }
                    });
                }
            });
            planned.into_inner().unwrap_or_else(|e| e.into_inner())
        };

        // Phase 2: single committer, original request order.
        let mut results = Vec::with_capacity(requests.len());
        let mut pending_fill = None;
        for (i, req) in requests.iter().enumerate() {
            let Some((plan_res, footprint)) = planned[i].take() else {
                // Unreachable (every index has exactly one home shard),
                // but degrade to the serial path rather than panic.
                results.push(self.replan_serially(req, &mut pending_fill));
                continue;
            };
            // Reserve: lock exactly the touched shards, ascending — the
            // canonical total order, so no two committers (present or
            // future concurrent ones) can deadlock.
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            let touched = self
                .partition
                .touched_shards(footprint.iter().map(|&(l, _)| l));
            let mut guards: Vec<(usize, MutexGuard<'_, ShardLedger>)> = Vec::new();
            for &s in &touched {
                let mut guard = lock_ledger(&self.ledgers[s]);
                let owned: Vec<LinkId> = footprint
                    .iter()
                    .map(|&(l, _)| l)
                    .filter(|&l| self.partition.shard_of_link(l) == s)
                    .collect();
                guard.pending.insert(ticket, owned);
                guards.push((s, guard));
            }
            // Validate: every link the planner probed must be unchanged,
            // for rejections as much as for admissions.
            let valid = footprint
                .iter()
                .all(|&(l, d)| self.net.link_usage(l).plan_digest() == d);
            // Release reservations (commit and abort both release; the
            // injected fault "forgets" one release to prove the harness
            // notices).
            let lose_one = self.fault == ShardFault::LoseReservationRelease
                && !self.fault_fired
                && !guards.is_empty();
            if lose_one {
                self.fault_fired = true;
            }
            for (n, (_, guard)) in guards.iter_mut().enumerate() {
                if lose_one && n == 0 {
                    continue;
                }
                guard.pending.remove(&ticket);
            }
            drop(guards);
            let result = if valid {
                match plan_res {
                    Ok(plan) => Ok(self.net.batch_commit(plan, &mut pending_fill)),
                    Err(e) => Err(e),
                }
            } else {
                // Abort: the wave plan observed state that has since
                // moved; replay this request at its sequential point.
                self.stale_replans += 1;
                self.replan_serially(req, &mut pending_fill)
            };
            results.push(result);
        }
        self.net.batch_flush(pending_fill);
        results
    }

    /// The monolith's own plan-and-commit, at the request's sequential
    /// point in the wave (deferred-fill protocol preserved).
    fn replan_serially(
        &mut self,
        req: &EstablishRequest,
        pending_fill: &mut PendingFill,
    ) -> Result<crate::channel::ConnectionId, AdmissionError> {
        let plan = self.net.plan_establish(req.src, req.dst, req.qos)?;
        Ok(self.net.batch_commit(plan, pending_fill))
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
        assert_eq!(sharded.pending_reservations(), 0, "leaked reservations");
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
        // so wave plans go stale and the two-phase validation must abort
        // into serial replans — and the result must still match.
        let net = Network::new(ring(6).unwrap(), NetworkConfig::default());
        let wave: Vec<EstablishRequest> = (0..12)
            .map(|i| EstablishRequest {
                src: NodeId(i % 6),
                dst: NodeId((i + 3) % 6),
                qos: ElasticQos::paper_video(25),
            })
            .collect();
        let stale = assert_matches_serial(net, &wave, 3);
        assert!(stale > 0, "contended ring wave should hit the stale path");
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
        assert_eq!(sharded.pending_reservations(), 0);
    }

    #[test]
    fn the_injected_fault_leaks_a_reservation() {
        let net = waxman_net(2);
        let n = net.graph().node_count();
        let mut sharded = ShardedNetwork::new(net, 4);
        sharded.set_fault(ShardFault::LoseReservationRelease);
        sharded.establish_wave(&random_wave(5, n, 8));
        assert!(
            sharded.pending_reservations() > 0,
            "LoseReservationRelease must leak a pending-ledger entry"
        );
    }

    #[test]
    fn one_shard_degenerates_to_the_monolith() {
        let net = waxman_net(4);
        let n = net.graph().node_count();
        let stale = assert_matches_serial(net, &random_wave(11, n, 16), 1);
        // Single shard ⇒ single planning thread, but the two-phase commit
        // machinery still runs (and still must be invisible).
        let _ = stale;
    }
}
