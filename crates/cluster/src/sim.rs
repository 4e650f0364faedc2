//! An in-process N-member cluster: the federation's semantics without
//! sockets.
//!
//! [`ClusterSim`] wires a [`Coordinator`] to a roster of [`Member`]
//! replicas through direct calls instead of the TCP protocol, which makes
//! it the deterministic test double for the daemons: the differential
//! harness (`fuzz --diff-cluster`) replays fuzzed operation sequences
//! against it and a monolithic oracle. Fault injection ([`ClusterFault`])
//! covers the two cluster-specific failure modes the mutation self-tests
//! must catch: a lost prepare (a ticket never closed) and a member crash
//! in the middle of a wave (its planned requests are orphaned and must be
//! re-established by the coordinator).
//!
//! A wave is planned on the frozen carrier replicas, then committed one
//! `Network::admit` per request in request order behind the coordinator's
//! PREPARE/COMMIT, each admission settling its own fill — so a cluster
//! wave is byte-identical to a monolithic serial run, churn or no churn.

use crate::coordinator::{ApplyOutcome, Coordinator, MemberOp};
use crate::member::Member;
use drqos_core::channel::ConnectionId;
use drqos_core::env::RebalancePolicy;
use drqos_core::error::{AdmissionError, ClusterError};
use drqos_core::network::{EstablishRequest, Network, PrePlanned};

/// Injected cluster faults for the mutation self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterFault {
    /// Correct behaviour.
    #[default]
    None,
    /// The coordinator forgets to close the first committed ticket
    /// (caught as a pending-prepare leak between waves).
    LosePrepare,
    /// The given member crashes in the middle of the first wave, after
    /// planning but before any commit: its planned requests are orphaned
    /// and the coordinator re-establishes them serially.
    CrashDuringWave(u64),
}

/// An in-process federation: one coordinator plus N member replicas
/// (dead members are `None`).
#[derive(Debug)]
pub struct ClusterSim {
    coord: Coordinator,
    members: Vec<Option<Member>>,
    genesis: Network,
    fault: ClusterFault,
    crash_fired: bool,
}

impl ClusterSim {
    /// Builds a cluster of `members` live members over `net`.
    pub fn new(net: Network, members: usize) -> Self {
        let members = members.max(1);
        let genesis = net.clone();
        let coord = Coordinator::new(net, members, 0, RebalancePolicy::Bfs);
        let roster = (0..members)
            .map(|m| Some(Member::new(m as u64, genesis.clone())))
            .collect();
        Self {
            coord,
            members: roster,
            genesis,
            fault: ClusterFault::None,
            crash_fired: false,
        }
    }

    /// Arms a fault for the next wave(s).
    pub fn set_fault(&mut self, fault: ClusterFault) {
        self.fault = fault;
        self.crash_fired = false;
        self.coord
            .set_lose_prepare(matches!(fault, ClusterFault::LosePrepare));
    }

    /// The authoritative network.
    pub fn authoritative(&self) -> &Network {
        self.coord.net()
    }

    /// The coordinator (counters, roster, invariants).
    pub fn coordinator(&self) -> &Coordinator {
        &self.coord
    }

    /// Live member replicas, in id order.
    pub fn replicas(&self) -> impl Iterator<Item = &Member> {
        self.members.iter().flatten()
    }

    /// Live member ids.
    pub fn alive_members(&self) -> Vec<u64> {
        self.members.iter().flatten().map(Member::id).collect()
    }

    /// Tickets still open after the last wave (must be zero on a correct
    /// cluster).
    pub fn pending_prepares(&self) -> usize {
        self.coord.pending_prepares()
    }

    /// The live member carrying each of `n` requests: request index modulo
    /// live members, which is what the daemons' clients do. Synced replicas
    /// are byte-identical, so the choice cannot change a result.
    fn carriers(&self, n: usize) -> Vec<u64> {
        let live = self.alive_members();
        live.iter().copied().cycle().take(n).collect()
    }

    /// Admits a wave of requests: each is planned on its carrier's replica
    /// ([`ClusterSim::carriers`]), then committed through the
    /// coordinator's PREPARE/COMMIT in request order, one admission at a
    /// time. Replicas sync before the wave returns.
    pub fn establish_wave(
        &mut self,
        requests: &[EstablishRequest],
    ) -> Vec<Result<ConnectionId, AdmissionError>> {
        let mut carriers = self.carriers(requests.len());
        // Phase 0: plan on the (frozen, synced) carrier replicas.
        let mut planned: Vec<Option<PrePlanned>> = Vec::with_capacity(requests.len());
        for (req, &carrier) in requests.iter().zip(&carriers) {
            let slot = self
                .members
                .get_mut(carrier as usize)
                .and_then(Option::as_mut)
                .map(|m| m.plan(req));
            planned.push(slot);
        }
        // Fault: a member dies after planning, before any commit. Its
        // plans are orphaned; a survivor carries each request to the
        // coordinator unplanned.
        if let ClusterFault::CrashDuringWave(victim) = self.fault {
            if !self.crash_fired && self.coord.is_alive(victim) && self.coord.alive_count() > 1 {
                self.crash_fired = true;
                let _ = self.coord.crash(victim);
                if let Some(slot) = self.members.get_mut(victim as usize) {
                    *slot = None;
                }
                let survivors = self.carriers(requests.len());
                for ((slot, carrier), survivor) in
                    planned.iter_mut().zip(&mut carriers).zip(survivors)
                {
                    if *carrier == victim {
                        *slot = None;
                        *carrier = survivor;
                    }
                }
            }
        }
        // Phase 1+2: prepare, commit — in request order.
        let mut results = Vec::with_capacity(requests.len());
        for ((req, slot), &carrier) in requests.iter().zip(planned).zip(&carriers) {
            let (plan_opt, footprint) = match slot {
                Some((plan_res, fp)) => (Some(plan_res), fp),
                None => (None, Vec::new()),
            };
            let committed = self.coord.prepare(carrier, &footprint).and_then(|p| {
                self.coord
                    .commit_prepared(p.ticket, plan_opt, req, &mut None)
            });
            match committed {
                Ok(result) => results.push(result),
                // Unreachable on live members; keep the wave total anyway.
                Err(_) => results.push(self.coord.establish_unprepared(req)),
            }
        }
        self.sync();
        results
    }

    /// Forwards a non-establish operation through the lowest-id live
    /// member (results are member-independent) and syncs replicas.
    ///
    /// # Errors
    ///
    /// Propagates coordinator errors (none on a live cluster).
    pub fn apply(&mut self, op: MemberOp) -> Result<ApplyOutcome, ClusterError> {
        let carrier = self.members.iter().flatten().next().map_or(0, Member::id);
        let outcome = self.coord.forward(carrier, op)?;
        self.sync();
        Ok(outcome)
    }

    /// JOIN: member `member` (re)joins with a genesis replica and catches
    /// up by replaying the full oplog.
    ///
    /// # Errors
    ///
    /// [`ClusterError::DuplicateMember`] when already alive.
    pub fn join(&mut self, member: u64) -> Result<(), ClusterError> {
        self.coord.join(member)?;
        let idx = member as usize;
        if idx >= self.members.len() {
            self.members.resize_with(idx + 1, || None);
        }
        if let Some(slot) = self.members.get_mut(idx) {
            *slot = Some(Member::new(member, self.genesis.clone()));
        }
        self.sync();
        Ok(())
    }

    /// LEAVE: graceful departure.
    ///
    /// # Errors
    ///
    /// See [`Coordinator::leave`].
    pub fn leave(&mut self, member: u64) -> Result<(), ClusterError> {
        self.coord.leave(member)?;
        if let Some(slot) = self.members.get_mut(member as usize) {
            *slot = None;
        }
        self.sync();
        Ok(())
    }

    /// CRASH: abrupt departure; the member's in-flight prepares abort.
    ///
    /// # Errors
    ///
    /// See [`Coordinator::crash`].
    pub fn crash(&mut self, member: u64) -> Result<(), ClusterError> {
        self.coord.crash(member)?;
        if let Some(slot) = self.members.get_mut(member as usize) {
            *slot = None;
        }
        self.sync();
        Ok(())
    }

    /// Replays new oplog records onto every live replica.
    fn sync(&mut self) {
        let coord = &self.coord;
        for m in self.members.iter_mut().flatten() {
            if let Ok(records) = coord.records_since(m.applied()) {
                m.apply(records);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_core::network::NetworkConfig;
    use drqos_core::qos::ElasticQos;
    use drqos_core::snapshot::NetworkSnapshot;
    use drqos_sim::rng::Rng;
    use drqos_topology::regular::ring;
    use drqos_topology::NodeId;

    fn fresh_net() -> Network {
        Network::new(ring(8).unwrap(), NetworkConfig::default())
    }

    fn request(src: usize, dst: usize) -> EstablishRequest {
        EstablishRequest {
            src: NodeId(src),
            dst: NodeId(dst),
            qos: ElasticQos::paper_video(100),
        }
    }

    fn wave(n: usize, rng: &mut Rng) -> Vec<EstablishRequest> {
        (0..n)
            .map(|_| {
                let s = rng.range_usize(8);
                let mut d = rng.range_usize(7);
                if d >= s {
                    d += 1;
                }
                request(s, d)
            })
            .collect()
    }

    /// A cluster wave must be byte-identical to the monolithic serial
    /// oracle — the core federation claim.
    #[test]
    fn cluster_waves_match_the_serial_oracle() {
        for members in [1usize, 2, 3, 5] {
            let mut oracle = fresh_net();
            let mut cluster = ClusterSim::new(fresh_net(), members);
            let mut rng = Rng::seed_from_u64(42 + members as u64);
            for _ in 0..4 {
                let reqs = wave(12, &mut rng);
                let got = cluster.establish_wave(&reqs);
                let want = oracle.establish_batch(&reqs);
                assert_eq!(got, want, "{members}-member wave results diverged");
                assert_eq!(
                    NetworkSnapshot::capture(cluster.authoritative()),
                    NetworkSnapshot::capture(&oracle),
                    "{members}-member authoritative state diverged"
                );
            }
            assert_eq!(cluster.pending_prepares(), 0);
            for m in cluster.replicas() {
                assert_eq!(
                    NetworkSnapshot::capture(m.net()),
                    NetworkSnapshot::capture(&oracle),
                    "replica m{} diverged from the oracle",
                    m.id()
                );
            }
        }
    }

    /// Churn between waves must not disturb the replicated state: after
    /// LEAVE/CRASH/JOIN the survivors still match the oracle exactly.
    #[test]
    fn churn_preserves_oracle_equivalence() {
        let mut oracle = fresh_net();
        let mut cluster = ClusterSim::new(fresh_net(), 3);
        let mut rng = Rng::seed_from_u64(7);
        let reqs = wave(10, &mut rng);
        assert_eq!(cluster.establish_wave(&reqs), oracle.establish_batch(&reqs));
        cluster.crash(1).unwrap();
        let reqs = wave(10, &mut rng);
        assert_eq!(cluster.establish_wave(&reqs), oracle.establish_batch(&reqs));
        cluster.join(1).unwrap();
        cluster.leave(0).unwrap();
        let reqs = wave(10, &mut rng);
        assert_eq!(cluster.establish_wave(&reqs), oracle.establish_batch(&reqs));
        assert_eq!(
            NetworkSnapshot::capture(cluster.authoritative()),
            NetworkSnapshot::capture(&oracle)
        );
        // The rejoined member replayed the whole history from genesis and
        // must equal the oracle too.
        for m in cluster.replicas() {
            assert_eq!(
                NetworkSnapshot::capture(m.net()),
                NetworkSnapshot::capture(&oracle),
                "replica m{} diverged after churn",
                m.id()
            );
        }
    }

    /// Satellite property: a wave interrupted by a member crash commits
    /// every request exactly once (no double-commit across the handoff)
    /// and still matches the serial oracle.
    #[test]
    fn no_double_commit_across_a_mid_wave_crash() {
        let mut oracle = fresh_net();
        let mut cluster = ClusterSim::new(fresh_net(), 3);
        cluster.set_fault(ClusterFault::CrashDuringWave(2));
        let mut rng = Rng::seed_from_u64(99);
        let reqs = wave(16, &mut rng);
        let got = cluster.establish_wave(&reqs);
        let want = oracle.establish_batch(&reqs);
        assert_eq!(
            got.len(),
            reqs.len(),
            "every request gets exactly one result"
        );
        assert_eq!(got, want, "orphaned requests must re-establish serially");
        assert_eq!(
            NetworkSnapshot::capture(cluster.authoritative()),
            NetworkSnapshot::capture(&oracle)
        );
        // Exactly one establish record per request — committed once each.
        let establishes = cluster
            .coordinator()
            .records_since(0)
            .unwrap()
            .iter()
            .filter(|r| matches!(r, crate::coordinator::CommittedOp::Establish(_)))
            .count();
        assert_eq!(establishes, reqs.len());
        assert_eq!(cluster.alive_members(), vec![0, 1]);
        assert_eq!(cluster.pending_prepares(), 0);
    }

    /// The lost-prepare fault must be observable as a ticket leak —
    /// the signal the mutation self-test relies on.
    #[test]
    fn a_lost_prepare_leaks_a_pending_reservation() {
        let mut cluster = ClusterSim::new(fresh_net(), 2);
        cluster.set_fault(ClusterFault::LosePrepare);
        let mut rng = Rng::seed_from_u64(5);
        let reqs = wave(6, &mut rng);
        cluster.establish_wave(&reqs);
        assert!(
            cluster.pending_prepares() > 0,
            "LosePrepare must leak a ticket"
        );
    }

    /// Forwarded failure/repair/release ops flow through the oplog and
    /// keep replicas synced.
    #[test]
    fn forwarded_ops_replicate() {
        let mut oracle = fresh_net();
        let mut cluster = ClusterSim::new(fresh_net(), 3);
        let mut rng = Rng::seed_from_u64(11);
        let reqs = wave(8, &mut rng);
        cluster.establish_wave(&reqs);
        oracle.establish_batch(&reqs);
        let link = oracle.graph().links().next().unwrap().id();
        let got = cluster.apply(MemberOp::FailLink { link }).unwrap();
        let want = oracle.fail_link(link);
        assert_eq!(got, ApplyOutcome::FailLink(want));
        let got = cluster.apply(MemberOp::RepairLink { link }).unwrap();
        let want = oracle.repair_link(link);
        assert_eq!(got, ApplyOutcome::RepairLink(want));
        for m in cluster.replicas() {
            assert_eq!(
                NetworkSnapshot::capture(m.net()),
                NetworkSnapshot::capture(&oracle)
            );
        }
    }
}
