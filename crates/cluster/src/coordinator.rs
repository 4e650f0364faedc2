//! The cluster coordinator: commit authority and oplog sequencer.
//!
//! A federation keeps exactly one authoritative [`Network`]; the
//! coordinator owns it. Members hold full replicas and decide nothing: a
//! member forwards every state-changing verb of its clients, `ESTABLISH`
//! included, as one [`MemberOp`], and [`Coordinator::forward`] applies it
//! at the operation's sequential point with [`MemberOp::apply`] — the one
//! transition of the workspace, whose `ESTABLISH` arm is
//! [`Network::admit`]. That is the paper's one decision point (§3.1):
//! whichever member the client happens to be connected to, the request
//! is decided here, once. The record carries the request, not its
//! routes, so every replica plans it again when it replays the record
//! ([`crate::member::Member::apply`] → [`MemberOp::apply`] →
//! [`Network::admit`]) and, replaying the same state, reaches the same
//! routes.
//!
//! Every committed operation — admissions, releases, failures and
//! repairs — is appended to an **oplog**. The log is packed bytes of
//! wire-form ops: each record is its verb's tag byte, the one the wire
//! writes, then the row's [`MemberOp::parts`] operands as unsigned LEB128
//! — about 6 bytes an operation — and an offset every 16th record is
//! all the index there is. What goes in comes back as
//! [`MemberOp::from_parts`] rebuilds it, so an `ESTABLISH` has unit
//! utility, exactly as it arrived over the wire. Replicas pull records
//! they have not yet applied ([`Coordinator::records`]), decoded only as
//! far as they are sent, and replay them serially through the same
//! [`MemberOp::apply`]; because
//! replay order equals commit order and every operation is deterministic,
//! each replica is byte-identical to the authoritative network at the
//! same sequence number (proven by `fuzz --diff-cluster`).
//!
//! Membership churn (JOIN/LEAVE/CRASH) changes the roster and nothing
//! else: the replicated network state is untouched and the oplog gains no
//! record.

use crate::proto::{put_record, unpack_records, Packing};
use drqos_core::channel::ConnectionId;
use drqos_core::env::RebalancePolicy;
use drqos_core::error::{AdmissionError, ClusterError, NetworkError, QosError};
use drqos_core::invariant::InvariantViolation;
use drqos_core::network::{EstablishPlan, EstablishRequest, FailureReport, Network};
use drqos_core::qos::{Bandwidth, ElasticQos};
use drqos_core::wire::MAX_OPERANDS;
use drqos_sim::seam::{self, Seam};
use drqos_topology::{LinkId, NodeId};
use std::collections::BTreeSet;

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

/// A ticket [`Coordinator::prepare`] opened. Only `benchmark/`'s layer
/// replica still opens one (ROADMAP 4(c)); no daemon sends a `PREPARE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prepared {
    /// The ticket [`Coordinator::commit_prepared`] closes.
    pub ticket: u64,
    /// Always `true`: nothing is validated, since every admission plans
    /// at its sequential point.
    pub fresh: bool,
}

/// Records per entry of [`Oplog`]'s offset index: a read decodes at most
/// `INDEX_STRIDE - 1` records before its first.
const INDEX_STRIDE: u64 = 16;

/// The oplog, packed: each committed operation as its record tag and its
/// [`MemberOp::parts`] operands in unsigned LEB128
/// ([`Packing::Log`]), with the byte offset of every
/// [`INDEX_STRIDE`]-th record.
#[derive(Debug, Default)]
struct Oplog {
    /// The records, back to back.
    bytes: Vec<u8>,
    /// Where records `0`, `INDEX_STRIDE`, `2 * INDEX_STRIDE`, … start.
    index: Vec<usize>,
    /// Records appended.
    len: u64,
}

impl Oplog {
    fn push(&mut self, op: MemberOp) {
        if self.len.is_multiple_of(INDEX_STRIDE) {
            self.index.push(self.bytes.len());
        }
        put_record(&mut self.bytes, op, Packing::Log);
        self.len += 1;
    }

    /// At most `max` records from sequence `from` on, decoding none past
    /// them; `None` when `from` is past the end or a record does not
    /// decode (which a log [`Oplog::push`] wrote never does).
    fn read(&self, from: u64, max: usize) -> Option<Vec<MemberOp>> {
        let behind = usize::try_from(self.len.checked_sub(from)?).unwrap_or(usize::MAX);
        let block = usize::try_from(from / INDEX_STRIDE).ok()?;
        let at = self.index.get(block).copied().unwrap_or(self.bytes.len());
        let skip = (from % INDEX_STRIDE) as usize;
        unpack_records(&self.bytes, at, skip, behind.min(max)).ok()
    }
}

/// The commit authority of a federation (see the module docs).
#[derive(Debug)]
pub struct Coordinator {
    net: Network,
    alive: Vec<bool>,
    oplog: Oplog,
    /// The tickets [`Coordinator::prepare`] opened and
    /// [`Coordinator::commit_prepared`] has not closed yet.
    prepared: BTreeSet<u64>,
    next_ticket: u64,
}

impl Coordinator {
    /// Creates a coordinator over `net` with `members` live members
    /// (ids `0..members`). `_seed` and `_policy` are ignored; they stay in
    /// the parameter list only because `benchmark/` calls this signature.
    pub fn new(net: Network, members: usize, _seed: u64, _policy: RebalancePolicy) -> Self {
        Self {
            net,
            alive: vec![true; members.max(1)],
            oplog: Oplog::default(),
            prepared: BTreeSet::new(),
            next_ticket: 0,
        }
    }

    /// The authoritative network, read-only.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The current oplog sequence number (= committed operation count).
    pub fn seq(&self) -> u64 {
        self.oplog.len
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

    /// Opens a ticket; `_footprint` is not validated. No daemon calls
    /// this; it stays, with
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
        _footprint: &[(LinkId, u64)],
    ) -> Result<Prepared, ClusterError> {
        if !self.is_alive(member) {
            return Err(ClusterError::UnknownMember(member));
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.prepared.insert(ticket);
        Ok(Prepared {
            ticket,
            fresh: true,
        })
    }

    /// Closes a [`Coordinator::prepare`] ticket and commits the request's
    /// [`MemberOp::Establish`] like [`Coordinator::forward`].
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
        if !self.prepared.remove(&ticket) {
            return Err(ClusterError::StalePrepare(ticket));
        }
        match self.commit(MemberOp::Establish { req: *req }) {
            ApplyOutcome::Establish(result) => Ok(result),
            _ => unreachable!("an establish commits to an establish outcome"),
        }
    }

    /// Always 0: no prepare is validated (see [`Coordinator::prepare`]
    /// for why it stays).
    pub fn stale_replans(&self) -> u64 {
        0
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

    /// [`MemberOp::apply`] + oplog, less every admission's record while
    /// `Seam::DropRecord` is armed.
    fn commit(&mut self, op: MemberOp) -> ApplyOutcome {
        let outcome = op.apply(&mut self.net);
        if !(seam::armed(Seam::DropRecord) && matches!(outcome, ApplyOutcome::Establish(Ok(_)))) {
            self.oplog.push(op);
        }
        outcome
    }

    /// At most `max` oplog records from sequence `from` on (`from` is the
    /// count of records the replica has already applied), decoded from
    /// the packed log in their wire form: an `ESTABLISH` comes back with
    /// unit utility, as [`MemberOp::from_parts`] builds it. Only the
    /// records returned are decoded, however far behind `from` is.
    ///
    /// # Errors
    ///
    /// [`ClusterError::SequenceGap`] when `from` is past the current
    /// sequence number.
    pub fn records(&self, from: u64, max: usize) -> Result<Vec<MemberOp>, ClusterError> {
        self.oplog
            .read(from, max)
            .ok_or(ClusterError::SequenceGap(from))
    }

    /// Every oplog record from sequence `from` on: [`Coordinator::records`]
    /// without a cap.
    ///
    /// # Errors
    ///
    /// [`ClusterError::SequenceGap`] when `from` is past the current
    /// sequence number.
    pub fn records_since(&self, from: u64) -> Result<Vec<MemberOp>, ClusterError> {
        self.records(from, usize::MAX)
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
    use drqos_core::wire::{Route, VERBS};
    use drqos_sim::rng::Rng;
    use drqos_topology::regular::ring;
    use drqos_topology::waxman::paper_waxman;

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
        let p = c.prepare(0, &[]).unwrap();
        let got = c.commit_prepared(p.ticket, None, &req, &mut None).unwrap();
        assert!(got.is_ok());
        assert_eq!((c.seq(), c.stale_replans()), (1, 0));
        assert_eq!(
            c.commit_prepared(p.ticket, None, &req, &mut None),
            Err(ClusterError::StalePrepare(p.ticket)),
            "double commit must be rejected"
        );
        assert_eq!(
            c.commit_prepared(p.ticket + 1, None, &req, &mut None),
            Err(ClusterError::StalePrepare(p.ticket + 1)),
            "a ticket never opened must be rejected"
        );
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

    /// The operation of forwarded row `verb` whose every operand is `v`
    /// (an admission's QoS is the rigid `v.max(1)`, so `v` still shows in
    /// its increment).
    fn edge_op(verb: &str, v: u64) -> MemberOp {
        let bw = v.max(1);
        let op = MemberOp::from_parts(verb, [v, v, bw, bw, v]);
        op.expect(verb).expect(verb)
    }

    /// Bytes unsigned LEB128 takes for `v`.
    fn varint_width(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
    }

    /// Every forwarded row round-trips through the packed log, with its
    /// operands at each LEB128 width edge, in the bytes the packing says.
    #[test]
    fn every_forwarded_row_round_trips_through_the_packed_log() {
        let rows: Vec<_> = VERBS.iter().filter(|v| v.route == Route::Forward).collect();
        assert!(rows.len() >= 7, "one operation per forwarded row");
        let mut log = Oplog::default();
        let mut ops = Vec::new();
        for v in [0, 127, 128, 16_383, 16_384, u64::MAX] {
            for verb in &rows {
                let op = edge_op(verb.name, v);
                let before = log.bytes.len();
                log.push(op);
                let width = 1 + verb.operands.len() * varint_width(v);
                assert_eq!(log.bytes.len() - before, width, "{op:?}");
                assert_eq!(log.read(log.len - 1, 1), Some(vec![op]), "{op:?}");
                ops.push(op);
            }
        }
        assert_eq!([0, 127, 128, 16_384].map(varint_width), [1, 1, 2, 3]);
        assert_eq!(varint_width(u64::MAX), 10);
        assert_eq!(log.read(0, usize::MAX), Some(ops));
    }

    /// One operand of a seeded width: a small index, then one per
    /// LEB128 width class up to the full `u64`.
    fn operand(rng: &mut Rng) -> u64 {
        match rng.range_usize(5) {
            0 => rng.range_u64(6),
            1 => rng.range_u64(128),
            2 => rng.range_u64(1 << 14),
            3 => rng.range_u64(1 << 21),
            _ => rng.next_u64(),
        }
    }

    /// A seeded wire-form operation of any forwarded row, as a daemon
    /// receives it: built by [`MemberOp::from_parts`].
    fn mixed_op(rng: &mut Rng, rows: &[&'static str]) -> MemberOp {
        let verb = rows[rng.range_usize(rows.len())];
        let mut operands = [0; MAX_OPERANDS].map(|_| operand(rng));
        if verb == "ESTABLISH" {
            // Mostly ring nodes, so some requests are admitted; a QoS
            // range that validates.
            operands[..2].iter_mut().for_each(|n| *n %= 7);
            let (bmin, delta) = (operands[2].max(1), operands[4].max(1));
            let steps = rng.range_u64(4);
            let bmax = steps.checked_mul(delta).and_then(|r| bmin.checked_add(r));
            operands[2..].copy_from_slice(&[bmin, bmax.unwrap_or(bmin), delta]);
        }
        MemberOp::from_parts(verb, operands)
            .expect(verb)
            .expect(verb)
    }

    /// Commits `n` seeded operations through [`Coordinator::forward`]
    /// beside a `Vec<MemberOp>` reference log, then reads the packed log
    /// back from every index: the first disagreement, if any.
    fn packed_log_disagreement(seed: u64, n: usize) -> Option<String> {
        let rows = VERBS.iter().filter(|v| v.route == Route::Forward);
        let rows: Vec<&'static str> = rows.map(|v| v.name).collect();
        let mut rng = Rng::seed_from_u64(seed);
        let mut c = coordinator(2);
        let mut reference = Vec::with_capacity(n);
        for _ in 0..n {
            let op = mixed_op(&mut rng, &rows);
            c.forward(0, op).unwrap();
            reference.push(op);
        }
        if c.seq() != n as u64 {
            return Some(format!("seq {} after {n} commits", c.seq()));
        }
        for from in 0..=n {
            let got = c.records_since(from as u64);
            if got.as_deref() != Ok(&reference[from..]) {
                return Some(format!("records_since({from}): {got:?}"));
            }
        }
        let past = c.seq() + 1;
        (c.records_since(past) != Err(ClusterError::SequenceGap(past)))
            .then(|| format!("records_since({past}) is no gap"))
    }

    /// Seeded differential: the packed log returns exactly what was
    /// committed, from every index — and the packer that keeps an
    /// operand's low 7 bits only is caught.
    #[test]
    fn the_packed_log_returns_what_was_committed() {
        assert_eq!(packed_log_disagreement(2001, 10_000), None);
        let mutant = seam::with(Seam::PackLowSevenBits, || {
            packed_log_disagreement(2001, 10_000)
        });
        assert!(mutant.is_some(), "a low-7-bit packer went unnoticed");
    }

    /// `cluster3`-shaped churn — the paper graph, 250 live connections,
    /// releases of held ids and refills — packs to at most 8 bytes a
    /// record, index included; a `MemberOp` slot is 56.
    #[test]
    fn churn_packs_to_at_most_eight_bytes_a_record() {
        let graph = paper_waxman(100)
            .generate(&mut Rng::seed_from_u64(2001))
            .unwrap();
        let nodes = graph.node_count() as u64;
        let mut c = Coordinator::new(
            Network::new(graph, NetworkConfig::default()),
            1,
            0,
            RebalancePolicy::Bfs,
        );
        let mut rng = Rng::seed_from_u64(7);
        let mut held = Vec::new();
        while c.seq() < 10_000 {
            let op = if held.len() >= 250 {
                let id = held.swap_remove(rng.range_usize(held.len()));
                MemberOp::from_parts("RELEASE", [id, 0, 0, 0, 0])
            } else {
                let src = rng.range_u64(nodes);
                let dst = (src + 1 + rng.range_u64(nodes - 1)) % nodes;
                MemberOp::from_parts("ESTABLISH", [src, dst, 100, 500, 50])
            };
            let outcome = c.forward(0, op.unwrap().unwrap()).unwrap();
            if let ApplyOutcome::Establish(Ok(id)) = outcome {
                held.push(id.0);
            }
        }
        let log = &c.oplog;
        let bytes = log.bytes.len() + log.index.len() * std::mem::size_of::<usize>();
        let per_record = bytes as f64 / log.len as f64;
        assert!(per_record <= 8.0, "{per_record:.2} bytes a record");
    }

    #[test]
    fn the_dropped_record_fault_loses_the_first_admission() {
        let mut c = coordinator(2);
        seam::with(Seam::DropRecord, || {
            assert!(!admitted(c.forward(0, establish(2, 2)).unwrap()));
            assert_eq!(c.seq(), 1, "a rejection does not fire the fault");
            assert!(admitted(c.forward(0, establish(0, 2)).unwrap()));
            assert_eq!(c.seq(), 1, "the first admission leaves no record");
        });
        assert_eq!(c.net().connections().count(), 1);
        assert!(admitted(c.forward(1, establish(1, 4)).unwrap()));
        assert_eq!(c.seq(), 2, "the fault fires once");
    }
}
