//! A cluster member's replica of the federated network.
//!
//! Every member holds a *full* copy of the network, kept current by
//! replaying the coordinator's oplog ([`Member::apply`]: one
//! [`MemberOp::apply`] per record, the transition the coordinator
//! committed with). A member plans nothing: its clients' admissions are
//! forwarded and decided at the coordinator. Because replay is the exact
//! serial operation sequence the authoritative network executed, a synced
//! replica is byte-identical to
//! the authority — `fuzz --diff-cluster` compares full
//! [`drqos_core::snapshot::NetworkSnapshot`]s to prove it — and a member
//! daemon can therefore answer its clients *from its own replay outcome*
//! of the committed record.

use crate::coordinator::{ApplyOutcome, MemberOp};
use drqos_core::network::{EstablishRequest, Network, PrePlanned};
use drqos_core::routing::RouteScratch;

/// One member's replica state: the network copy, the routing scratch
/// [`Member::plan`] uses, and the oplog sequence already applied.
#[derive(Debug)]
pub struct Member {
    id: u64,
    net: Network,
    scratch: RouteScratch,
    applied: u64,
}

impl Member {
    /// Creates a member from the genesis network (the empty network every
    /// daemon constructs from the shared topology arguments). A joining
    /// member catches up by replaying the full oplog from sequence 0.
    pub fn new(id: u64, genesis: Network) -> Self {
        Self {
            id,
            net: genesis,
            scratch: RouteScratch::new(),
            applied: 0,
        }
    }

    /// This member's cluster id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Oplog records applied so far (the sequence to sync from).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The replica network, read-only.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Plans an admission against the replica, returning the plan (or
    /// rejection) plus the footprint digests it rests on. No daemon calls
    /// this; it stays only because `benchmark/`'s layer replica times it
    /// (ROADMAP 4(c)).
    pub fn plan(&mut self, req: &EstablishRequest) -> PrePlanned {
        self.net
            .plan_establish_traced(&mut self.scratch, req.src, req.dst, req.qos)
    }

    /// Replays committed records in sequence order, returning the outcome
    /// of each (the last one is typically this member's own operation,
    /// whose outcome it renders to the requesting client).
    pub fn apply(&mut self, records: &[MemberOp]) -> Vec<ApplyOutcome> {
        records
            .iter()
            .map(|op| {
                self.applied += 1;
                op.apply(&mut self.net)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_core::network::NetworkConfig;
    use drqos_core::qos::ElasticQos;
    use drqos_core::NetworkSnapshot;
    use drqos_topology::regular::ring;
    use drqos_topology::NodeId;

    fn genesis() -> Network {
        Network::new(ring(6).unwrap(), NetworkConfig::default())
    }

    #[test]
    fn replay_tracks_the_authority_byte_for_byte() {
        let mut authority = genesis();
        let mut member = Member::new(0, genesis());
        let establish = |src, dst| MemberOp::Establish {
            req: EstablishRequest {
                src: NodeId(src),
                dst: NodeId(dst),
                qos: ElasticQos::paper_video(100),
            },
        };
        let ops = vec![
            establish(0, 3),
            establish(1, 4),
            MemberOp::FailLink {
                link: authority.graph().links().next().unwrap().id(),
            },
            MemberOp::Release {
                id: drqos_core::ConnectionId(0),
            },
        ];
        let direct: Vec<ApplyOutcome> = ops.iter().map(|op| op.apply(&mut authority)).collect();
        let replayed = member.apply(&ops);
        assert_eq!(direct, replayed, "replay outcomes must match the authority");
        assert_eq!(member.applied(), ops.len() as u64);
        assert_eq!(
            NetworkSnapshot::capture(&authority),
            NetworkSnapshot::capture(member.net()),
            "replica must be byte-identical after replay"
        );
    }

    #[test]
    fn a_local_plan_matches_the_serial_plan_on_equal_state() {
        let mut member = Member::new(1, genesis());
        let req = EstablishRequest {
            src: NodeId(2),
            dst: NodeId(5),
            qos: ElasticQos::paper_video(100),
        };
        let (planned, footprint) = member.plan(&req);
        assert!(planned.is_ok());
        assert!(!footprint.is_empty(), "planning must trace its footprint");
        let serial = member.net().plan_establish(req.src, req.dst, req.qos);
        assert_eq!(planned, serial, "traced plan must equal the serial plan");
    }
}
