//! The cluster coordinator: commit authority and oplog sequencer.
//!
//! A federation keeps exactly one authoritative [`Network`]; the
//! coordinator owns it. Members hold full replicas and plan nothing: a
//! member forwards every state-changing verb of its clients, `ESTABLISH`
//! included, as one [`MemberOp`], and [`Coordinator::forward`] applies it
//! at the operation's sequential point with [`MemberOp::apply`] — the one
//! transition of the workspace, whose `ESTABLISH` arm is
//! [`Network::admit`]. That is the paper's one decision point (§3.1):
//! whichever member the client happens to be connected to, the request
//! is planned, committed and settled here, once.
//!
//! Every committed operation — admissions, releases, failures and
//! repairs — is appended to an **oplog** of [`MemberOp`]s. Replicas pull
//! records they have not yet applied ([`Coordinator::records_since`]) and
//! replay them serially through the same [`MemberOp::apply`]; because
//! replay order equals commit order and every operation is deterministic,
//! each replica is byte-identical to the authoritative network at the
//! same sequence number (proven by `fuzz --diff-cluster`).
//!
//! Membership churn (JOIN/LEAVE/CRASH) changes the roster and nothing
//! else: the replicated network state is untouched and the oplog gains no
//! record.

use drqos_core::channel::ConnectionId;
use drqos_core::env::RebalancePolicy;
use drqos_core::error::{AdmissionError, ClusterError, NetworkError, QosError};
use drqos_core::invariant::InvariantViolation;
use drqos_core::network::{EstablishPlan, EstablishRequest, FailureReport, Network};
use drqos_core::qos::{Bandwidth, ElasticQos};
use drqos_core::wire::MAX_OPERANDS;
use drqos_topology::{LinkId, NodeId};
use std::collections::BTreeMap;

/// One state-changing operation: one variant per
/// [`Route::Forward`](drqos_core::wire::Route) row of
/// [`VERBS`](drqos_core::wire::VERBS). It is what a member forwards, what
/// the coordinator commits and what the oplog holds; replaying the log
/// serially from the genesis network reconstructs the authoritative state
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemberOp {
    /// Admit a connection (the committed result may still be a rejection
    /// — replay reproduces it deterministically).
    Establish {
        /// The admission request.
        req: EstablishRequest,
    },
    /// Release a connection.
    Release {
        /// The connection id.
        id: ConnectionId,
    },
    /// Fail a link.
    FailLink {
        /// The link.
        link: LinkId,
    },
    /// Repair a link.
    RepairLink {
        /// The link.
        link: LinkId,
    },
    /// Fail a node.
    FailNode {
        /// The node.
        node: NodeId,
    },
    /// Fail a shared-risk group.
    FailSrlg {
        /// The group index.
        group: usize,
    },
    /// Repair a shared-risk group.
    RepairSrlg {
        /// The group index.
        group: usize,
    },
}

impl MemberOp {
    /// The operation's verb (its row of [`drqos_core::wire::VERBS`], by
    /// name) and its operands, as many as the row declares. With
    /// [`MemberOp::from_parts`] this is the only per-variant code between
    /// an operation and any wire.
    pub fn parts(self) -> (&'static str, [u64; MAX_OPERANDS]) {
        let one = |operand: u64| [operand, 0, 0, 0, 0];
        match self {
            MemberOp::Establish { req } => (
                "ESTABLISH",
                [
                    req.src.index() as u64,
                    req.dst.index() as u64,
                    req.qos.min().as_kbps(),
                    req.qos.max().as_kbps(),
                    req.qos.increment().as_kbps(),
                ],
            ),
            MemberOp::Release { id } => ("RELEASE", one(id.0)),
            MemberOp::FailLink { link } => ("FAIL-LINK", one(link.index() as u64)),
            MemberOp::RepairLink { link } => ("REPAIR-LINK", one(link.index() as u64)),
            MemberOp::FailNode { node } => ("FAIL-NODE", one(node.index() as u64)),
            MemberOp::FailSrlg { group } => ("FAIL-SRLG", one(group as u64)),
            MemberOp::RepairSrlg { group } => ("REPAIR-SRLG", one(group as u64)),
        }
    }

    /// The inverse of [`MemberOp::parts`]: `None` for a verb that changes
    /// no state, or an index operand that does not fit `usize`; the
    /// `ESTABLISH` QoS range (unit utility) is checked here, for the
    /// client protocols and the inter-daemon link alike.
    pub fn from_parts(
        verb: &str,
        [a, b, c, d, e]: [u64; MAX_OPERANDS],
    ) -> Option<Result<Self, QosError>> {
        let index = usize::try_from(a).ok();
        let op = match verb {
            "ESTABLISH" => {
                let (src, dst) = (NodeId(index?), NodeId(usize::try_from(b).ok()?));
                let [bmin, bmax, delta] = [c, d, e].map(Bandwidth::kbps);
                match ElasticQos::new(bmin, bmax, delta, 1.0) {
                    Ok(qos) => MemberOp::Establish {
                        req: EstablishRequest { src, dst, qos },
                    },
                    Err(e) => return Some(Err(e)),
                }
            }
            "RELEASE" => MemberOp::Release {
                id: ConnectionId(a),
            },
            "FAIL-LINK" => MemberOp::FailLink {
                link: LinkId(index?),
            },
            "REPAIR-LINK" => MemberOp::RepairLink {
                link: LinkId(index?),
            },
            "FAIL-NODE" => MemberOp::FailNode {
                node: NodeId(index?),
            },
            "FAIL-SRLG" => MemberOp::FailSrlg { group: index? },
            "REPAIR-SRLG" => MemberOp::RepairSrlg { group: index? },
            _ => return None,
        };
        Some(Ok(op))
    }

    /// Applies the operation to a network, exactly as the monolithic
    /// manager would: the one transition the service engine, the
    /// coordinator and every replica share.
    pub fn apply(self, net: &mut Network) -> ApplyOutcome {
        match self {
            MemberOp::Establish { req } => ApplyOutcome::Establish(net.admit(&req)),
            MemberOp::Release { id } => {
                // `release` retreats the channel to its minimum before
                // removing it, so read the bandwidth actually held first
                // (the service engine renders this as `freed=`).
                let held = net.connection(id).map(|c| c.bandwidth().as_kbps());
                ApplyOutcome::Release(net.release(id).map(|_| held))
            }
            MemberOp::FailLink { link } => ApplyOutcome::FailLink(net.fail_link(link)),
            MemberOp::RepairLink { link } => ApplyOutcome::RepairLink(net.repair_link(link)),
            MemberOp::FailNode { node } => ApplyOutcome::FailNode(net.fail_node(node)),
            MemberOp::FailSrlg { group } => ApplyOutcome::FailSrlg(net.fail_srlg(group)),
            MemberOp::RepairSrlg { group } => ApplyOutcome::RepairSrlg(net.repair_srlg(group)),
        }
    }
}

/// The outcome of applying one committed operation to a network. Both the
/// coordinator (at commit time) and every replica (at replay time)
/// produce one of these; on a correct cluster they are equal at equal
/// sequence numbers, which is how member daemons answer their clients
/// from their own replica.
#[derive(Debug, Clone, PartialEq)]
pub enum ApplyOutcome {
    /// Establish result.
    Establish(Result<ConnectionId, AdmissionError>),
    /// Release result; `Ok` carries the bandwidth (Kbps) the connection
    /// held before the release (`None` would mean inconsistent state).
    Release(Result<Option<u64>, NetworkError>),
    /// Link-failure report.
    FailLink(Result<FailureReport, NetworkError>),
    /// Repair result: the connections that regained a backup.
    RepairLink(Result<Vec<ConnectionId>, NetworkError>),
    /// Node-failure report: every adjacent up link, failed as one event.
    FailNode(Result<FailureReport, NetworkError>),
    /// Shared-risk-group failure report: every up member, failed as one
    /// event.
    FailSrlg(Result<FailureReport, NetworkError>),
    /// Group repair result: the connections that regained a backup.
    RepairSrlg(Result<Vec<ConnectionId>, NetworkError>),
}

/// A ticket [`Coordinator::prepare`] opened, and whether every footprint
/// digest was current when it did. Only `benchmark/`'s layer replica still
/// opens one (ROADMAP 4(c)); no daemon sends a `PREPARE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prepared {
    /// The ticket [`Coordinator::commit_prepared`] closes.
    pub ticket: u64,
    /// The prepare-time verdict: `true` when all probed digests were
    /// unchanged.
    pub fresh: bool,
}

/// The commit authority of a federation (see the module docs).
#[derive(Debug)]
pub struct Coordinator {
    net: Network,
    alive: Vec<bool>,
    oplog: Vec<MemberOp>,
    /// The footprints of the tickets [`Coordinator::prepare`] opened and
    /// [`Coordinator::commit_prepared`] has not closed yet.
    prepared: BTreeMap<u64, Vec<(LinkId, u64)>>,
    next_ticket: u64,
    stale_replans: u64,
    drop_record: bool,
}

impl Coordinator {
    /// Creates a coordinator over `net` with `members` live members
    /// (ids `0..members`). `_seed` and `_policy` are ignored; they stay in
    /// the parameter list only because `benchmark/` calls this signature.
    pub fn new(net: Network, members: usize, _seed: u64, _policy: RebalancePolicy) -> Self {
        Self {
            net,
            alive: vec![true; members.max(1)],
            oplog: Vec::new(),
            prepared: BTreeMap::new(),
            next_ticket: 0,
            stale_replans: 0,
            drop_record: false,
        }
    }

    /// The authoritative network, read-only.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The current oplog sequence number (= committed operation count).
    pub fn seq(&self) -> u64 {
        self.oplog.len() as u64
    }

    /// Liveness by member id.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Whether `member` is a live roster entry.
    pub(crate) fn is_alive(&self, member: u64) -> bool {
        usize::try_from(member)
            .ok()
            .and_then(|m| self.alive.get(m).copied())
            .unwrap_or(false)
    }

    /// Count of live members.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Arms (or clears) the dropped-record fault for the mutation checks
    /// of `drqos-service`'s in-process coordinator: the next establish
    /// admitted appends no oplog record, so no replica ever replays it.
    pub fn set_drop_record(&mut self, drop: bool) {
        self.drop_record = drop;
    }

    /// Opens a ticket holding `footprint` and answers whether every digest
    /// in it is current. No daemon calls this; it stays, with
    /// [`Coordinator::commit_prepared`], [`Coordinator::flush`],
    /// [`Coordinator::stale_replans`] and [`Prepared`], only because
    /// `benchmark/`'s layer replica times it (ROADMAP 4(c)).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownMember`] when `member` is not alive.
    pub fn prepare(
        &mut self,
        member: u64,
        footprint: &[(LinkId, u64)],
    ) -> Result<Prepared, ClusterError> {
        if !self.is_alive(member) {
            return Err(ClusterError::UnknownMember(member));
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let fresh = self.net.footprint_is_current(footprint);
        self.prepared.insert(ticket, footprint.to_vec());
        Ok(Prepared { ticket, fresh })
    }

    /// Closes a [`Coordinator::prepare`] ticket and commits the request's
    /// [`MemberOp::Establish`] like [`Coordinator::forward`], counting a
    /// footprint that went stale in [`Coordinator::stale_replans`].
    /// `_planned` and `_fill` are ignored — every admission plans and
    /// settles at its sequential point — and stay only because
    /// `benchmark/` passes them (ROADMAP 4(c)).
    ///
    /// # Errors
    ///
    /// [`ClusterError::StalePrepare`] when the ticket is not open.
    pub fn commit_prepared(
        &mut self,
        ticket: u64,
        _planned: Option<Result<EstablishPlan, AdmissionError>>,
        req: &EstablishRequest,
        _fill: &mut Option<()>,
    ) -> Result<Result<ConnectionId, AdmissionError>, ClusterError> {
        let footprint = self
            .prepared
            .remove(&ticket)
            .ok_or(ClusterError::StalePrepare(ticket))?;
        if !self.net.footprint_is_current(&footprint) {
            self.stale_replans += 1;
        }
        match self.commit(MemberOp::Establish { req: *req }) {
            ApplyOutcome::Establish(result) => Ok(result),
            _ => unreachable!("an establish commits to an establish outcome"),
        }
    }

    /// Commits whose prepare-time footprint had gone stale (see
    /// [`Coordinator::prepare`] for why it stays).
    pub fn stale_replans(&self) -> u64 {
        self.stale_replans
    }

    /// Does nothing: every commit has already settled (see
    /// [`Coordinator::prepare`] for why it stays).
    pub fn flush(&mut self, _fill: Option<()>) {}

    /// Commits an operation a member forwarded: [`MemberOp::apply`] at its
    /// sequential point, then the oplog record — the one commit path of
    /// the coordinator daemon and of its in-process twin.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownMember`] when `member` is not alive.
    pub fn forward(&mut self, member: u64, op: MemberOp) -> Result<ApplyOutcome, ClusterError> {
        if !self.is_alive(member) {
            return Err(ClusterError::UnknownMember(member));
        }
        Ok(self.commit(op))
    }

    /// [`MemberOp::apply`] + oplog, less the record the armed
    /// dropped-record fault swallows.
    fn commit(&mut self, op: MemberOp) -> ApplyOutcome {
        let outcome = op.apply(&mut self.net);
        if self.drop_record && matches!(outcome, ApplyOutcome::Establish(Ok(_))) {
            self.drop_record = false;
        } else {
            self.oplog.push(op);
        }
        outcome
    }

    /// Oplog records from sequence `from` (exclusive of nothing — `from`
    /// is the count of records the replica has already applied).
    ///
    /// # Errors
    ///
    /// [`ClusterError::SequenceGap`] when `from` is past the current
    /// sequence number.
    pub fn records_since(&self, from: u64) -> Result<&[MemberOp], ClusterError> {
        let at = usize::try_from(from).map_err(|_| ClusterError::SequenceGap(from))?;
        self.oplog.get(at..).ok_or(ClusterError::SequenceGap(from))
    }

    /// Adds (or revives) member id `member`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::DuplicateMember`] when the id is already alive.
    pub fn join(&mut self, member: u64) -> Result<(), ClusterError> {
        let idx = usize::try_from(member).map_err(|_| ClusterError::DuplicateMember(member))?;
        if self.alive.get(idx).copied().unwrap_or(false) {
            return Err(ClusterError::DuplicateMember(member));
        }
        if idx >= self.alive.len() {
            self.alive.resize(idx + 1, false);
        }
        self.alive[idx] = true;
        Ok(())
    }

    /// The lowest unused member id, for coordinator-assigned joins.
    pub fn next_member_id(&self) -> u64 {
        self.alive
            .iter()
            .position(|&a| !a)
            .unwrap_or(self.alive.len()) as u64
    }

    /// A departure, graceful (`LEAVE`) or not (a crash): the member's
    /// roster slot goes dead. A member holds nothing at the coordinator
    /// between its exchanges, so there is nothing else to undo.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownMember`] for a dead/unknown id,
    /// [`ClusterError::LastMember`] when it is the only live member.
    pub fn leave(&mut self, member: u64) -> Result<(), ClusterError> {
        if !self.is_alive(member) {
            return Err(ClusterError::UnknownMember(member));
        }
        if self.alive_count() == 1 {
            return Err(ClusterError::LastMember(member));
        }
        if let Some(slot) = self.alive.get_mut(member as usize) {
            *slot = false;
        }
        Ok(())
    }

    /// Runs the full invariant oracle over the authoritative network.
    pub fn check_invariants(&self) -> Vec<InvariantViolation> {
        self.net.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_core::network::NetworkConfig;
    use drqos_core::qos::ElasticQos;
    use drqos_topology::regular::ring;

    fn coordinator(members: usize) -> Coordinator {
        let net = Network::new(ring(6).unwrap(), NetworkConfig::default());
        Coordinator::new(net, members, 2001, RebalancePolicy::Bfs)
    }

    fn request(src: usize, dst: usize) -> EstablishRequest {
        EstablishRequest {
            src: NodeId(src),
            dst: NodeId(dst),
            qos: ElasticQos::paper_video(100),
        }
    }

    fn establish(src: usize, dst: usize) -> MemberOp {
        MemberOp::Establish {
            req: request(src, dst),
        }
    }

    fn admitted(outcome: ApplyOutcome) -> bool {
        matches!(outcome, ApplyOutcome::Establish(Ok(_)))
    }

    #[test]
    fn membership_guards_reject_bad_transitions() {
        let mut c = coordinator(3);
        assert_eq!(c.alive_count(), 3);
        assert_eq!(c.join(1), Err(ClusterError::DuplicateMember(1)));
        assert_eq!(c.leave(7), Err(ClusterError::UnknownMember(7)));
        c.leave(1).unwrap();
        assert_eq!(c.leave(1), Err(ClusterError::UnknownMember(1)));
        c.leave(2).unwrap();
        assert_eq!(c.leave(0), Err(ClusterError::LastMember(0)));
        c.join(1).unwrap();
        assert_eq!(c.alive_count(), 2);
        assert_eq!(c.alive(), [true, true, false]);
        // The roster is not replicated state: no transition, accepted or
        // refused, moved the oplog.
        assert_eq!(c.seq(), 0);
    }

    #[test]
    fn an_establish_is_admitted_and_appended_like_any_commit() {
        let mut c = coordinator(2);
        let op = establish(0, 3);
        let mut serial = c.net().clone();
        let got = c.forward(1, op).unwrap();
        assert_eq!(got, op.apply(&mut serial));
        assert!(admitted(got));
        assert_eq!(c.records_since(0).unwrap(), [op]);
        // A rejection is a record too: replay reproduces it.
        assert!(!admitted(c.forward(0, establish(2, 2)).unwrap()));
        assert_eq!(c.seq(), 2);
    }

    #[test]
    fn two_phase_commit_appends_to_the_oplog_and_clears_ledgers() {
        let mut c = coordinator(2);
        let req = request(0, 3);
        let footprint: Vec<(LinkId, u64)> = c
            .net()
            .up_links()
            .map(|l| (l, c.net().link_usage(l).plan_digest()))
            .collect();
        let p = c.prepare(0, &footprint).unwrap();
        assert!(p.fresh, "untouched digests must validate");
        let got = c.commit_prepared(p.ticket, None, &req, &mut None).unwrap();
        assert!(got.is_ok());
        assert_eq!((c.seq(), c.stale_replans()), (1, 0));
        assert_eq!(
            c.commit_prepared(p.ticket, None, &req, &mut None),
            Err(ClusterError::StalePrepare(p.ticket)),
            "double commit must be rejected"
        );
        // The first commit moved the footprint's digests.
        let p = c.prepare(1, &footprint).unwrap();
        assert!(!p.fresh);
        c.commit_prepared(p.ticket, None, &request(1, 4), &mut None)
            .unwrap()
            .unwrap();
        assert_eq!((c.seq(), c.stale_replans()), (2, 1));
    }

    #[test]
    fn prepares_from_dead_members_are_rejected() {
        let mut c = coordinator(2);
        c.leave(0).unwrap();
        assert_eq!(
            c.prepare(0, &[]).unwrap_err(),
            ClusterError::UnknownMember(0)
        );
        assert_eq!(
            c.forward(0, establish(0, 3)).unwrap_err(),
            ClusterError::UnknownMember(0)
        );
        assert_eq!(
            c.forward(0, MemberOp::FailLink { link: LinkId(0) })
                .unwrap_err(),
            ClusterError::UnknownMember(0)
        );
        assert_eq!(c.seq(), 0, "a refused operation is no record");
    }

    #[test]
    fn records_since_guards_the_sequence_space() {
        let mut c = coordinator(2);
        c.forward(0, MemberOp::FailLink { link: LinkId(0) })
            .unwrap();
        assert_eq!(c.records_since(0).unwrap().len(), 1);
        assert_eq!(c.records_since(1).unwrap().len(), 0);
        assert_eq!(c.records_since(2), Err(ClusterError::SequenceGap(2)));
    }

    #[test]
    fn the_dropped_record_fault_loses_the_first_admission() {
        let mut c = coordinator(2);
        c.set_drop_record(true);
        assert!(!admitted(c.forward(0, establish(2, 2)).unwrap()));
        assert_eq!(c.seq(), 1, "a rejection does not fire the fault");
        assert!(admitted(c.forward(0, establish(0, 2)).unwrap()));
        assert_eq!(c.seq(), 1, "the first admission leaves no record");
        assert_eq!(c.net().connections().count(), 1);
        assert!(admitted(c.forward(1, establish(1, 4)).unwrap()));
        assert_eq!(c.seq(), 2, "the fault fires once");
    }
}
