//! An in-process N-member cluster: the federation's semantics without
//! sockets.
//!
//! [`ClusterSim`] wires a [`Coordinator`] to a roster of [`Member`]
//! replicas through direct calls instead of the TCP protocol, which makes
//! it the deterministic test double for the daemons: the differential
//! harness (`fuzz --diff-cluster`) replays fuzzed operation sequences
//! against it and a monolithic oracle. Fault injection ([`ClusterFault`])
//! covers the two cluster-specific failure modes the mutation self-tests
//! must catch: a lost oplog record (the authority admits a request no
//! replica ever replays) and a member that crashes while it carries an
//! operation (a survivor must carry it instead).
//!
//! Every operation, `ESTABLISH` included, is one [`Coordinator::forward`]
//! through the member carrying it — the call a member daemon's `OP` makes
//! — with carriers rotating over the live roster from one operation to
//! the next, and each admission settles its own fill, so a cluster run is
//! byte-identical to a monolithic serial run, churn or no churn.

use crate::coordinator::{ApplyOutcome, Coordinator, MemberOp};
use crate::member::Member;
use drqos_core::env::RebalancePolicy;
use drqos_core::error::ClusterError;
use drqos_core::network::Network;

/// Injected cluster faults for the mutation self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterFault {
    /// Correct behaviour.
    #[default]
    None,
    /// The coordinator admits the first establish it can but appends no
    /// oplog record for it (caught as replicas that differ from the
    /// authority).
    DropRecord,
    /// The next operation's carrier crashes after the operation was
    /// handed to it but before its commit: a survivor carries it instead.
    CrashCarrier,
}

/// An in-process federation: one coordinator plus N member replicas
/// (dead members are `None`).
#[derive(Debug)]
pub struct ClusterSim {
    coord: Coordinator,
    members: Vec<Option<Member>>,
    genesis: Network,
    fault: ClusterFault,
    /// Operations carried so far: the next carrier's turn.
    carried: usize,
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
            carried: 0,
        }
    }

    /// Arms a fault; each fires once.
    pub fn set_fault(&mut self, fault: ClusterFault) {
        self.fault = fault;
        self.coord
            .set_drop_record(matches!(fault, ClusterFault::DropRecord));
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

    /// The live member whose turn it is to carry an operation: the
    /// operation count modulo live members, which is what the daemons'
    /// clients do. Synced replicas are byte-identical, so the choice
    /// cannot change a result.
    fn carrier(&self) -> u64 {
        let live = self.alive_members();
        live.get(self.carried % live.len().max(1))
            .copied()
            .unwrap_or(0)
    }

    /// Commits one operation through [`Coordinator::forward`] on its
    /// carrier ([`ClusterSim::carrier`]) and syncs every replica.
    ///
    /// # Errors
    ///
    /// Propagates coordinator errors (none on a live cluster).
    pub fn apply(&mut self, op: MemberOp) -> Result<ApplyOutcome, ClusterError> {
        // Fault: the carrier dies after the operation was handed to it,
        // before its commit. A survivor carries it instead.
        if self.fault == ClusterFault::CrashCarrier && self.coord.alive_count() > 1 {
            self.fault = ClusterFault::None;
            self.crash(self.carrier())?;
        }
        let carrier = self.carrier();
        self.carried += 1;
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

    /// CRASH: abrupt departure — at the coordinator the same roster
    /// change as [`ClusterSim::leave`].
    ///
    /// # Errors
    ///
    /// See [`Coordinator::leave`].
    pub fn crash(&mut self, member: u64) -> Result<(), ClusterError> {
        self.leave(member)
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
    use drqos_core::network::{EstablishRequest, NetworkConfig};
    use drqos_core::qos::ElasticQos;
    use drqos_core::snapshot::NetworkSnapshot;
    use drqos_sim::rng::Rng;
    use drqos_topology::regular::ring;
    use drqos_topology::NodeId;

    fn fresh_net() -> Network {
        Network::new(ring(8).unwrap(), NetworkConfig::default())
    }

    /// `n` seeded admissions between distinct nodes.
    fn establishes(n: usize, rng: &mut Rng) -> Vec<MemberOp> {
        (0..n)
            .map(|_| {
                let s = rng.range_usize(8);
                let mut d = rng.range_usize(7);
                if d >= s {
                    d += 1;
                }
                MemberOp::Establish {
                    req: EstablishRequest {
                        src: NodeId(s),
                        dst: NodeId(d),
                        qos: ElasticQos::paper_video(100),
                    },
                }
            })
            .collect()
    }

    /// Applies `ops` to the cluster and to the oracle, asserting equal
    /// outcomes op by op.
    fn apply_both(cluster: &mut ClusterSim, oracle: &mut Network, ops: &[MemberOp]) {
        for &op in ops {
            let got = cluster.apply(op).unwrap();
            assert_eq!(got, op.apply(oracle), "{op:?}");
        }
    }

    /// Churn between operations must not disturb the replicated state:
    /// after LEAVE/CRASH/JOIN the survivors still match the oracle exactly.
    #[test]
    fn churn_preserves_oracle_equivalence() {
        let mut oracle = fresh_net();
        let mut cluster = ClusterSim::new(fresh_net(), 3);
        let mut rng = Rng::seed_from_u64(7);
        apply_both(&mut cluster, &mut oracle, &establishes(10, &mut rng));
        cluster.crash(1).unwrap();
        apply_both(&mut cluster, &mut oracle, &establishes(10, &mut rng));
        cluster.join(1).unwrap();
        cluster.leave(0).unwrap();
        apply_both(&mut cluster, &mut oracle, &establishes(10, &mut rng));
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

    /// A carrier that crashes before its operation commits hands the
    /// operation to a survivor: it is committed exactly once, and the run
    /// still matches the serial oracle.
    #[test]
    fn no_double_commit_across_a_carrier_crash() {
        let mut oracle = fresh_net();
        let mut cluster = ClusterSim::new(fresh_net(), 3);
        let mut rng = Rng::seed_from_u64(99);
        let ops = establishes(16, &mut rng);
        apply_both(&mut cluster, &mut oracle, &ops[..5]);
        // The sixth operation is member 2's to carry.
        cluster.set_fault(ClusterFault::CrashCarrier);
        apply_both(&mut cluster, &mut oracle, &ops[5..]);
        assert_eq!(
            NetworkSnapshot::capture(cluster.authoritative()),
            NetworkSnapshot::capture(&oracle)
        );
        // One record per operation — each committed once.
        assert_eq!(cluster.coordinator().records_since(0).unwrap(), ops);
        assert_eq!(cluster.alive_members(), vec![0, 1]);
    }

    /// The dropped-record fault must be observable as replicas that
    /// differ from an authority that is still right — the signal the
    /// mutation self-test relies on.
    #[test]
    fn a_dropped_record_leaves_every_replica_behind() {
        let mut oracle = fresh_net();
        let mut cluster = ClusterSim::new(fresh_net(), 2);
        cluster.set_fault(ClusterFault::DropRecord);
        let mut rng = Rng::seed_from_u64(5);
        let ops = establishes(6, &mut rng);
        apply_both(&mut cluster, &mut oracle, &ops);
        let want = NetworkSnapshot::capture(&oracle);
        assert_eq!(NetworkSnapshot::capture(cluster.authoritative()), want);
        assert_eq!(cluster.coordinator().seq(), ops.len() as u64 - 1);
        for m in cluster.replicas() {
            assert_ne!(NetworkSnapshot::capture(m.net()), want, "m{}", m.id());
        }
    }

    /// Forwarded failure/repair/release ops flow through the oplog and
    /// keep replicas synced.
    #[test]
    fn forwarded_ops_replicate() {
        let mut oracle = fresh_net();
        let mut cluster = ClusterSim::new(fresh_net(), 3);
        let mut rng = Rng::seed_from_u64(11);
        apply_both(&mut cluster, &mut oracle, &establishes(8, &mut rng));
        let link = oracle.graph().links().next().unwrap().id();
        let id = oracle.connections().next().unwrap().id();
        let ops = [
            MemberOp::FailLink { link },
            MemberOp::RepairLink { link },
            MemberOp::Release { id },
        ];
        apply_both(&mut cluster, &mut oracle, &ops);
        for m in cluster.replicas() {
            assert_eq!(
                NetworkSnapshot::capture(m.net()),
                NetworkSnapshot::capture(&oracle)
            );
        }
    }
}
