//! The cluster coordinator: commit authority and oplog sequencer.
//!
//! A federation keeps exactly one authoritative [`Network`]; the
//! coordinator owns it. Members hold full replicas, plan admissions
//! locally against their replica — whichever member the client happens to
//! be connected to; replicas are byte-identical, so it does not matter
//! which — and send the coordinator a **PREPARE** carrying the admission
//! footprint: every link the member's planner probed, with its plan
//! digest at planning time. The two phases are:
//!
//! 1. **PREPARE = validate + ticket.** The coordinator answers whether
//!    every footprint digest is current *now* ([`Prepared::fresh`], the
//!    verdict on the wire) and opens a ticket holding the member id and
//!    the footprint. Tickets are the coordinator's only two-phase state;
//!    the opening member's crash or leave aborts them.
//! 2. **COMMIT = admit + oplog.** The ticket closes and the request goes
//!    through [`Network::admit`] — the same admission step as every other
//!    establish — with the member's plan and the ticket's footprint as the
//!    hint, so the footprint is validated *at commit time*: a verdict
//!    that was fresh at prepare and went stale since is re-planned at the
//!    request's sequential point like any other stale hint (counted in
//!    [`Coordinator::stale_replans`]).
//!
//! Every committed operation — admissions, releases, failures and
//! repairs — is appended to an **oplog**. Replicas pull
//! records they have not yet applied ([`Coordinator::records_since`]) and
//! replay them serially; because replay order equals commit order and
//! every operation is deterministic, each replica is byte-identical to
//! the authoritative network at the same sequence number (proven by
//! `fuzz --diff-cluster`).
//!
//! Membership churn (JOIN/LEAVE/CRASH) changes the roster and nothing
//! else: the replicated network state is untouched and the oplog gains no
//! record. A departure aborts the member's open tickets.

use drqos_core::channel::ConnectionId;
use drqos_core::env::RebalancePolicy;
use drqos_core::error::{AdmissionError, ClusterError, NetworkError};
use drqos_core::invariant::InvariantViolation;
use drqos_core::network::{EstablishPlan, EstablishRequest, FailureReport, Network, PrePlanned};
use drqos_topology::{LinkId, NodeId};
use std::collections::BTreeMap;

/// One committed operation in the coordinator's oplog. Replaying the log
/// serially from the genesis network reconstructs the authoritative
/// state exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum CommittedOp {
    /// An admission (committed result may still be a rejection — replay
    /// reproduces it deterministically).
    Establish(EstablishRequest),
    /// A forwarded operation.
    Op(MemberOp),
}

/// A non-establish operation forwarded by a member (establishes go
/// through the two-phase [`Coordinator::prepare`] /
/// [`Coordinator::commit_prepared`] path instead): one variant per
/// [`Route::Forward`](drqos_core::wire::Route) row of
/// [`VERBS`](drqos_core::wire::VERBS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberOp {
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
    /// name) and its one operand. With [`MemberOp::from_parts`] this is
    /// the only per-variant code between an operation and any wire.
    pub fn parts(self) -> (&'static str, u64) {
        match self {
            MemberOp::Release { id } => ("RELEASE", id.0),
            MemberOp::FailLink { link } => ("FAIL-LINK", link.index() as u64),
            MemberOp::RepairLink { link } => ("REPAIR-LINK", link.index() as u64),
            MemberOp::FailNode { node } => ("FAIL-NODE", node.index() as u64),
            MemberOp::FailSrlg { group } => ("FAIL-SRLG", group as u64),
            MemberOp::RepairSrlg { group } => ("REPAIR-SRLG", group as u64),
        }
    }

    /// The inverse of [`MemberOp::parts`]: `None` for a verb that is not
    /// forwarded, or an index operand that does not fit `usize`.
    pub fn from_parts(verb: &str, operand: u64) -> Option<Self> {
        let index = usize::try_from(operand).ok();
        Some(match verb {
            "RELEASE" => MemberOp::Release {
                id: ConnectionId(operand),
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
        })
    }

    /// Applies the operation to a network, exactly as the monolithic
    /// manager would: the transition the service engine, the coordinator
    /// and every replica share.
    pub fn apply(self, net: &mut Network) -> ApplyOutcome {
        match self {
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
    /// Node-failure reports, one per adjacent link failed.
    FailNode(Result<Vec<FailureReport>, NetworkError>),
    /// Shared-risk-group failure reports, one per member link failed.
    FailSrlg(Result<Vec<FailureReport>, NetworkError>),
    /// Group repair result: the connections that regained a backup.
    RepairSrlg(Result<Vec<ConnectionId>, NetworkError>),
}

/// Applies one committed operation to a network. This is the single
/// replay function shared by the coordinator's serial path and every
/// replica, so the two cannot drift.
pub(crate) fn apply_committed(net: &mut Network, op: &CommittedOp) -> ApplyOutcome {
    match op {
        CommittedOp::Establish(req) => {
            ApplyOutcome::Establish(net.establish(req.src, req.dst, req.qos))
        }
        CommittedOp::Op(op) => op.apply(net),
    }
}

/// An open ticket, and whether every footprint digest was current when
/// it was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prepared {
    /// The two-phase ticket.
    pub ticket: u64,
    /// The prepare-time verdict: `true` when all probed digests were
    /// unchanged. Advisory — the commit validates again.
    pub fresh: bool,
}

/// An in-flight prepare, between PREPARE and COMMIT (or its member's
/// departure).
#[derive(Debug, Clone)]
struct PendingPrepare {
    member: u64,
    footprint: Vec<(LinkId, u64)>,
}

/// The commit authority of a federation (see the module docs).
#[derive(Debug)]
pub struct Coordinator {
    net: Network,
    alive: Vec<bool>,
    pending: BTreeMap<u64, PendingPrepare>,
    next_ticket: u64,
    oplog: Vec<CommittedOp>,
    stale_replans: u64,
    aborted_prepares: u64,
    lose_prepare: bool,
    fault_fired: bool,
}

impl Coordinator {
    /// Creates a coordinator over `net` with `members` live members
    /// (ids `0..members`). `_seed` and `_policy` are ignored; they stay in
    /// the parameter list only because `benchmark/` calls this signature.
    pub fn new(net: Network, members: usize, _seed: u64, _policy: RebalancePolicy) -> Self {
        Self {
            net,
            alive: vec![true; members.max(1)],
            pending: BTreeMap::new(),
            next_ticket: 0,
            oplog: Vec::new(),
            stale_replans: 0,
            aborted_prepares: 0,
            lose_prepare: false,
            fault_fired: false,
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

    /// Commits that found a stale footprint and re-planned serially: some
    /// probed link's digest moved between the member's plan and the
    /// commit. That is the federation's contention signal — another
    /// member committed in between — and a member daemon plans on the
    /// replica it has, not on a caught-up one, so over TCP it also counts
    /// every establish whose serving member was behind at plan time.
    pub fn stale_replans(&self) -> u64 {
        self.stale_replans
    }

    /// Prepares aborted without committing (their member left or crashed).
    pub fn aborted_prepares(&self) -> u64 {
        self.aborted_prepares
    }

    /// Tickets currently open. Zero between waves on a correct cluster; a
    /// leak here is how the differential harness catches
    /// [`ClusterFault::LosePrepare`](crate::sim::ClusterFault).
    pub fn pending_prepares(&self) -> usize {
        self.pending.len()
    }

    /// The member that opened `ticket`, while it is open. A commit is the
    /// opener's to send: the daemon refuses any other link's
    /// ([`ClusterError::StalePrepare`]) before it reaches
    /// [`Coordinator::commit_prepared`], which takes no member.
    pub fn ticket_member(&self, ticket: u64) -> Option<u64> {
        self.pending.get(&ticket).map(|p| p.member)
    }

    /// Arms (or clears) the lost-prepare fault for the mutation
    /// self-test: the next commit "forgets" to close its ticket.
    pub(crate) fn set_lose_prepare(&mut self, lose: bool) {
        self.lose_prepare = lose;
        self.fault_fired = false;
    }

    /// Phase 1: answer the prepare-time verdict and open a ticket holding
    /// the footprint for the commit to validate.
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
        let footprint = footprint.to_vec();
        self.pending
            .insert(ticket, PendingPrepare { member, footprint });
        Ok(Prepared { ticket, fresh })
    }

    /// Phase 2: close the ticket and admit the request, with the member's
    /// `planned` result (when one was shipped) and the ticket's footprint
    /// as the hint. A commit without a shipped plan — the TCP daemons'
    /// mode — plans at this sequential point. Either way the operation is
    /// appended to the oplog. `_fill` is ignored: every admission settles
    /// its own fill, so none is ever deferred. It stays only because
    /// `benchmark/` threads one through this and [`Coordinator::flush`]
    /// (ROADMAP 3(c)).
    ///
    /// # Errors
    ///
    /// [`ClusterError::StalePrepare`] when the ticket is not pending
    /// (already committed, or aborted by a crash).
    pub fn commit_prepared(
        &mut self,
        ticket: u64,
        planned: Option<Result<EstablishPlan, AdmissionError>>,
        req: &EstablishRequest,
        _fill: &mut Option<()>,
    ) -> Result<Result<ConnectionId, AdmissionError>, ClusterError> {
        let prepared = if self.lose_prepare && !self.fault_fired {
            self.fault_fired = true;
            self.pending.get(&ticket).cloned()
        } else {
            self.pending.remove(&ticket)
        }
        .ok_or(ClusterError::StalePrepare(ticket))?;
        if planned.is_none() && !self.net.footprint_is_current(&prepared.footprint) {
            // Nothing was shipped to validate, but the member's plan would
            // have been re-planned: the contention counter says so.
            self.stale_replans += 1;
        }
        let hint = planned.map(|plan| (plan, prepared.footprint));
        Ok(self.admit(req, hint))
    }

    /// Admits a request without a member prepare: used to re-establish
    /// requests orphaned by a member crash mid-wave. Appends the oplog
    /// record like any commit.
    pub(crate) fn establish_unprepared(
        &mut self,
        req: &EstablishRequest,
    ) -> Result<ConnectionId, AdmissionError> {
        self.admit(req, None)
    }

    /// COMMIT = [`Network::admit`] + oplog.
    fn admit(
        &mut self,
        req: &EstablishRequest,
        hint: Option<PrePlanned>,
    ) -> Result<ConnectionId, AdmissionError> {
        let (result, stale) = self.net.admit(req, hint);
        self.stale_replans += u64::from(stale);
        self.oplog.push(CommittedOp::Establish(*req));
        result
    }

    /// Does nothing: every commit has already settled (see
    /// [`Coordinator::commit_prepared`]).
    pub fn flush(&mut self, _fill: Option<()>) {}

    /// Applies a forwarded non-establish operation serially and appends
    /// it to the oplog.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownMember`] when `member` is not alive.
    pub fn forward(&mut self, member: u64, op: MemberOp) -> Result<ApplyOutcome, ClusterError> {
        if !self.is_alive(member) {
            return Err(ClusterError::UnknownMember(member));
        }
        self.oplog.push(CommittedOp::Op(op));
        Ok(op.apply(&mut self.net))
    }

    /// Oplog records from sequence `from` (exclusive of nothing — `from`
    /// is the count of records the replica has already applied).
    ///
    /// # Errors
    ///
    /// [`ClusterError::SequenceGap`] when `from` is past the current
    /// sequence number.
    pub fn records_since(&self, from: u64) -> Result<&[CommittedOp], ClusterError> {
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

    /// Graceful departure: the member's open tickets abort and its roster
    /// slot goes dead.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownMember`] for a dead/unknown id,
    /// [`ClusterError::LastMember`] when it is the only live member.
    pub fn leave(&mut self, member: u64) -> Result<(), ClusterError> {
        self.depart(member)
    }

    /// Abrupt departure: like [`Coordinator::leave`], but the member's
    /// open tickets abort even when the departure itself is refused (the
    /// requests are the member's to retry — or its clients').
    ///
    /// # Errors
    ///
    /// Same as [`Coordinator::leave`].
    pub fn crash(&mut self, member: u64) -> Result<(), ClusterError> {
        if !self.is_alive(member) {
            return Err(ClusterError::UnknownMember(member));
        }
        self.abort_tickets_of(member);
        self.depart(member)
    }

    fn abort_tickets_of(&mut self, member: u64) {
        let open = self.pending.len();
        self.pending.retain(|_, p| p.member != member);
        self.aborted_prepares += (open - self.pending.len()) as u64;
    }

    fn depart(&mut self, member: u64) -> Result<(), ClusterError> {
        if !self.is_alive(member) {
            return Err(ClusterError::UnknownMember(member));
        }
        if self.alive_count() == 1 {
            return Err(ClusterError::LastMember(member));
        }
        // A graceful leave must not strand tickets either.
        self.abort_tickets_of(member);
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

    #[test]
    fn membership_guards_reject_bad_transitions() {
        let mut c = coordinator(3);
        assert_eq!(c.alive_count(), 3);
        assert_eq!(c.join(1), Err(ClusterError::DuplicateMember(1)));
        assert_eq!(c.leave(7), Err(ClusterError::UnknownMember(7)));
        c.leave(1).unwrap();
        assert_eq!(c.leave(1), Err(ClusterError::UnknownMember(1)));
        c.crash(2).unwrap();
        assert_eq!(c.crash(0), Err(ClusterError::LastMember(0)));
        c.join(1).unwrap();
        assert_eq!(c.alive_count(), 2);
        assert_eq!(c.alive(), [true, true, false]);
        // The roster is not replicated state: no transition, accepted or
        // refused, moved the oplog.
        assert_eq!(c.seq(), 0);
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
        assert_eq!(c.pending_prepares(), 1, "the ticket must be open");
        let got = c.commit_prepared(p.ticket, None, &req, &mut None).unwrap();
        assert!(got.is_ok());
        assert_eq!(c.pending_prepares(), 0);
        assert_eq!(c.seq(), 1);
        assert_eq!(
            c.commit_prepared(p.ticket, None, &req, &mut None),
            Err(ClusterError::StalePrepare(p.ticket)),
            "double commit must be rejected"
        );
    }

    #[test]
    fn a_crash_aborts_the_members_prepares() {
        let mut c = coordinator(3);
        let footprint = vec![(LinkId(0), c.net().link_usage(LinkId(0)).plan_digest())];
        let [p0, p1, p2] = [0, 1, 2].map(|m| c.prepare(m, &footprint).unwrap().ticket);
        assert_eq!(
            [p0, p1, p2].map(|t| c.ticket_member(t)),
            [0, 1, 2].map(Some)
        );
        c.crash(1).unwrap();
        assert_eq!(c.pending_prepares(), 2, "crash aborts m1's ticket only");
        assert_eq!(c.ticket_member(p1), None);
        c.leave(2).unwrap();
        assert_eq!(c.pending_prepares(), 1, "leave aborts m2's ticket only");
        assert_eq!(c.aborted_prepares(), 2);
        for gone in [p1, p2] {
            assert_eq!(
                c.commit_prepared(gone, None, &request(0, 3), &mut None),
                Err(ClusterError::StalePrepare(gone)),
                "a commit after the departure is stale"
            );
        }
        assert_eq!(
            c.seq(),
            0,
            "neither departures nor stale commits are records"
        );
        // The survivor's ticket is still good — and a refused departure of
        // the last member aborts its tickets all the same.
        assert_eq!(c.crash(0), Err(ClusterError::LastMember(0)));
        assert_eq!((c.pending_prepares(), c.aborted_prepares()), (0, 3));
        assert_eq!(c.ticket_member(p0), None);
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
            c.forward(0, MemberOp::FailLink { link: LinkId(0) })
                .unwrap_err(),
            ClusterError::UnknownMember(0)
        );
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
    fn the_lost_prepare_fault_leaks_a_reservation() {
        let mut c = coordinator(2);
        c.set_lose_prepare(true);
        let footprint = vec![(LinkId(0), c.net().link_usage(LinkId(0)).plan_digest())];
        let p = c.prepare(0, &footprint).unwrap();
        c.commit_prepared(p.ticket, None, &request(0, 2), &mut None)
            .unwrap()
            .unwrap();
        assert_eq!(c.pending_prepares(), 1, "LosePrepare must leak a ticket");
    }

    /// The public API lets two prepares interleave before either commits
    /// (the in-process sim and the daemons never do). Both verdicts are
    /// fresh; by B's commit A has moved the links B's plan probed. The
    /// commit must validate *then*, not trust the prepare-time verdict.
    #[test]
    fn a_verdict_that_went_stale_before_commit_is_replanned() {
        use drqos_core::qos::Bandwidth;
        use drqos_core::snapshot::NetworkSnapshot;
        // 100 Kbps links: A's primary fills one side of the ring and its
        // backup reservation the other, leaving nothing for B.
        let config = NetworkConfig {
            capacity: Bandwidth::kbps(100),
            ..NetworkConfig::default()
        };
        let net = Network::new(ring(6).unwrap(), config);
        let mut serial = net.clone();
        let mut c = Coordinator::new(net, 2, 2001, RebalancePolicy::Bfs);
        let mut scratch = drqos_core::routing::RouteScratch::new();
        let (req_a, req_b) = (request(0, 3), request(3, 0));
        let mut plan = |c: &Coordinator, r: &EstablishRequest| {
            c.net()
                .plan_establish_traced(&mut scratch, r.src, r.dst, r.qos)
        };
        let (plan_a, fp_a) = plan(&c, &req_a);
        let (plan_b, fp_b) = plan(&c, &req_b);
        let a = c.prepare(0, &fp_a).unwrap();
        let b = c.prepare(1, &fp_b).unwrap();
        assert!(a.fresh && b.fresh, "both verdicts are fresh at prepare");
        let got = [
            c.commit_prepared(a.ticket, Some(plan_a), &req_a, &mut None),
            c.commit_prepared(b.ticket, Some(plan_b), &req_b, &mut None),
        ]
        .map(Result::unwrap);
        let want = [req_a, req_b].map(|r| serial.establish(r.src, r.dst, r.qos));
        assert_eq!(got, want);
        assert_ne!(got[0].is_ok(), got[1].is_ok(), "A admitted, B rejected");
        assert_eq!(
            NetworkSnapshot::capture(c.net()),
            NetworkSnapshot::capture(&serial)
        );
        assert_eq!(c.stale_replans(), 1);
        assert!(c.check_invariants().is_empty());
    }
}
