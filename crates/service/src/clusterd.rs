//! TCP daemons for the cluster federation: the coordinator process that
//! owns the authoritative [`Network`] and the open two-phase tickets, and member
//! processes that serve the ordinary client text protocol backed by a
//! full replica plus the inter-daemon protocol of [`drqos_cluster::proto`].
//!
//! The split mirrors [`crate::server`] exactly one layer up: where the
//! monolithic daemon wraps one [`crate::engine::Engine`] in sockets and
//! timeouts, `drqos-clusterd` wraps one [`Coordinator`] plus N
//! [`Member`] replicas. All admission logic stays in the clock-free
//! `drqos-cluster` crate; this module adds only per-connection threads
//! over the shared connection reader and accept loop (`crate::conn`).
//!
//! ## Commit protocol (member side)
//!
//! A client `ESTABLISH` on a member daemon becomes:
//!
//! 1. plan locally, on the replica as it stands, to trace the admission
//!    **footprint** digests (advisory: a replica that is behind only makes
//!    the commit count a `stale_replans`),
//! 2. `PREPARE` the footprint → `VERDICT {ticket, fresh}`,
//! 3. `COMMIT {ticket, req}` → `RECORDS {seq, records}`: every oplog
//!    record this link has not been sent yet, the commit's own last. The
//!    TCP mode ships no plan, so the coordinator plans at the commit's
//!    sequential point (`fresh` short-circuits nothing here; the ticket's
//!    footprint is checked again at commit for the `stale_replans`
//!    counter). The member replays the records and renders the reply from
//!    its *own* outcome of the last one.
//!
//! A forwarded verb is step 3 alone (`OP` → `RECORDS`). The coordinator
//! keeps, per link, the sequence it has sent that link through (set by
//! every `SYNC` it answers); a link that never `SYNC`ed, or one more than
//! [`RECORDS_PER_SYNC`] records behind, gets `DONE {op_seq}` instead and
//! the member pulls with `SYNC` until it is past `op_seq`.
//!
//! Either way no result ever rides the wire: replay is deterministic
//! (`drqos_cluster::coordinator::apply_committed` is the single shared
//! transition function), so the outcome the member replays is the
//! outcome the coordinator committed. `fuzz --diff-cluster` proves the
//! equivalence against the monolithic engine.
//!
//! ## Churn
//!
//! A member daemon that loses its coordinator link answers every
//! forwarding command with wire code 504 (prepare timeout) but keeps
//! serving `SNAPSHOT`-free local commands and its own `SHUTDOWN`. A
//! member *connection* that reaches EOF at the coordinator without a
//! graceful `LEAVE` is a **crash**: the coordinator aborts its pending
//! prepares and marks its roster slot dead.

use crate::conn::{accept_until, lock_shrug, Conn, POLL_INTERVAL};
use crate::engine::{
    establish_request, forwarded_op, render_admitted, render_outcome, render_violations,
    snapshot_payload, wire_err,
};
use crate::error::ProtocolError;
use crate::protocol::{self, Request, Response};
use drqos_cluster::coordinator::{ApplyOutcome, Coordinator};
use drqos_cluster::member::Member;
use drqos_cluster::proto::{
    decode_cluster_msg, decode_coord_msg, encode_cluster_msg, encode_coord_msg, ClusterMsg,
    CoordMsg, WireRequest, RECORDS_PER_SYNC,
};
use drqos_core::env::{RebalancePolicy, WireMode};
use drqos_core::error::ClusterError;
use drqos_core::framing;
use drqos_core::network::{EstablishRequest, Network};
use drqos_topology::LinkId;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

fn link_down() -> io::Error {
    io::Error::new(io::ErrorKind::NotConnected, "coordinator link is down")
}

fn bad_reply(msg: &CoordMsg) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected coordinator reply {msg:?}"),
    )
}

/// Renders a coordinator-refused operation as a wire-coded `ERR` using
/// the stable [`drqos_core::wire`] description for the message.
fn cluster_err(code: u16) -> Response {
    let message = drqos_core::wire::describe(code)
        .unwrap_or("cluster error")
        .to_string();
    Response::Err { code, message }
}

fn err_of(e: ClusterError) -> CoordMsg {
    CoordMsg::Err {
        code: e.wire_code(),
    }
}

// ---------------------------------------------------------------------------
// Coordinator daemon
// ---------------------------------------------------------------------------

/// Shared coordinator state: the authority plus which roster ids are
/// currently claimed by a *connected* daemon (alive-but-unclaimed ids are
/// genesis or vacated slots a joiner takes before the roster grows).
struct CoordShared {
    coord: Coordinator,
    claimed: Vec<bool>,
    /// `SYNC` frames answered since boot.
    syncs: u64,
    /// Mutation seam: a commit's `RECORDS` reply starts one record late.
    #[cfg(test)]
    skip_a_record: bool,
}

/// What the coordinator keeps per inter-daemon connection.
#[derive(Default)]
struct Peer {
    /// The roster id the connection holds once it has joined.
    member: Option<u64>,
    /// The oplog sequence this link has been sent through: set by every
    /// `SYNC` answered, moved on by every `RECORDS` that answers a commit;
    /// unknown until the link's first `SYNC`.
    cursor: Option<u64>,
}

/// End-of-run summary returned by [`ClusterCoordinator::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinatorReport {
    /// Invariant violations on the authoritative network at stop.
    pub violations: usize,
    /// Final oplog sequence number.
    pub seq: u64,
    /// Commits whose member planned on state that had moved by commit
    /// time (see [`Coordinator::stale_replans`]).
    pub stale_replans: u64,
    /// Prepares aborted by their member's crash or leave.
    pub aborted_prepares: u64,
    /// `SYNC` frames answered: join-time catch-ups, `SNAPSHOT`s and the
    /// pulls after a `DONE` — a commit answered by `RECORDS` costs none.
    pub syncs: u64,
}

/// The coordinator daemon: accepts inter-daemon connections and serves
/// the [`ClusterMsg`] protocol over length-prefixed binary frames.
pub struct ClusterCoordinator {
    listener: TcpListener,
    shared: Arc<Mutex<CoordShared>>,
    stop: Arc<AtomicBool>,
}

impl ClusterCoordinator {
    /// Binds the coordinator on `addr` with a genesis roster of
    /// `members` ids (none yet claimed by a connection). `seed` and
    /// `policy` are ignored (see [`Coordinator::new`]); `benchmark/` calls
    /// this signature.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(
        addr: &str,
        net: Network,
        members: usize,
        seed: u64,
        policy: RebalancePolicy,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let roster = members.max(1);
        Ok(Self {
            listener,
            shared: Arc::new(Mutex::new(CoordShared {
                coord: Coordinator::new(net, roster, seed, policy),
                claimed: vec![false; roster],
                syncs: 0,
                #[cfg(test)]
                skip_a_record: false,
            })),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with port 0 in tests).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves inter-daemon connections until a `STOP` arrives, then
    /// checks the authority's invariants and reports.
    ///
    /// # Errors
    ///
    /// Propagates listener errors.
    pub fn run(self) -> io::Result<CoordinatorReport> {
        self.listener.set_nonblocking(true)?;
        accept_until(&self.listener, &self.stop, || {
            let (shared, stop) = (Arc::clone(&self.shared), Arc::clone(&self.stop));
            move |stream| serve_cluster_peer(stream, &shared, &stop)
        });
        // One poll interval for in-flight handlers to finish their reply.
        thread::sleep(POLL_INTERVAL);
        let shared = lock_shrug(&self.shared);
        Ok(CoordinatorReport {
            violations: shared.coord.check_invariants().len(),
            seq: shared.coord.seq(),
            stale_replans: shared.coord.stale_replans(),
            aborted_prepares: shared.coord.aborted_prepares(),
            syncs: shared.syncs,
        })
    }
}

/// Claims a member id for a joining connection: an alive-but-unclaimed
/// roster slot if one exists (genesis boot, or a vacated slot), otherwise
/// a fresh `JOIN` of the lowest dead or new id.
fn claim_member(s: &mut CoordShared) -> Result<u64, ClusterError> {
    let unclaimed = s
        .coord
        .alive()
        .iter()
        .enumerate()
        .find(|&(i, &alive)| alive && !s.claimed.get(i).copied().unwrap_or(false))
        .map(|(i, _)| i as u64);
    let id = match unclaimed {
        Some(id) => id,
        None => {
            let id = s.coord.next_member_id();
            s.coord.join(id)?;
            id
        }
    };
    let idx = usize::try_from(id).unwrap_or(usize::MAX);
    if s.claimed.len() <= idx {
        s.claimed.resize(idx.saturating_add(1), false);
    }
    if let Some(slot) = s.claimed.get_mut(idx) {
        *slot = true;
    }
    Ok(id)
}

/// The greppable one-line coordinator status served to `STATUS` clients
/// (`drqos-clusterd status` and the CI smoke job parse it).
/// `stale_replans` is [`Coordinator::stale_replans`] — commits planned
/// on state that had moved by commit time — and `syncs` the `SYNC` frames
/// answered since boot; new fields go on the end.
fn status_line(s: &CoordShared) -> String {
    let roster: String = s
        .coord
        .alive()
        .iter()
        .map(|&a| if a { '1' } else { '0' })
        .collect();
    format!(
        "members={} alive={} seq={} pending={} stale_replans={} aborted_prepares={} roster={} syncs={}",
        s.coord.alive().len(),
        s.coord.alive_count(),
        s.coord.seq(),
        s.coord.pending_prepares(),
        s.coord.stale_replans(),
        s.coord.aborted_prepares(),
        roster,
        s.syncs
    )
}

impl CoordShared {
    /// Frees a departed member's roster slot for the next joiner.
    fn unclaim(&mut self, member: u64) {
        if let Some(slot) = usize::try_from(member)
            .ok()
            .and_then(|m| self.claimed.get_mut(m))
        {
            *slot = false;
        }
    }

    /// The reply to a committed operation — the oplog's last record —
    /// built under the lock acquisition that committed it: `RECORDS` from
    /// the link's cursor through that record, or `DONE` when the cursor
    /// is unknown or more than one frame's worth behind (the member then
    /// pulls with `SYNC`, which sets the cursor).
    fn committed(&self, cursor: &mut Option<u64>) -> CoordMsg {
        let seq = self.coord.seq();
        let from = *cursor;
        #[cfg(test)]
        let from = from.map(|c| c.saturating_add(u64::from(self.skip_a_record)));
        match from.and_then(|from| self.coord.records_since(from).ok()) {
            Some(records) if records.len() <= RECORDS_PER_SYNC => {
                *cursor = Some(seq);
                CoordMsg::Records {
                    seq,
                    records: records.to_vec(),
                }
            }
            _ => CoordMsg::Done {
                op_seq: seq.saturating_sub(1),
                seq,
            },
        }
    }
}

fn handle_cluster_msg(s: &mut CoordShared, peer: &mut Peer, msg: ClusterMsg) -> CoordMsg {
    match msg {
        ClusterMsg::Join => {
            if let Some(m) = peer.member {
                // One daemon, one id: a second JOIN on the same link is a
                // duplicate of whatever this link already holds.
                return err_of(ClusterError::DuplicateMember(m));
            }
            match claim_member(s) {
                Ok(id) => {
                    peer.member = Some(id);
                    CoordMsg::Welcome {
                        member: id,
                        seq: s.coord.seq(),
                    }
                }
                Err(e) => err_of(e),
            }
        }
        ClusterMsg::Prepare { footprint } => {
            let Some(m) = peer.member else {
                return err_of(ClusterError::UnknownMember(u64::MAX));
            };
            let fp: Vec<(LinkId, u64)> = footprint
                .iter()
                .filter_map(|&(l, d)| usize::try_from(l).ok().map(|l| (LinkId(l), d)))
                .collect();
            match s.coord.prepare(m, &fp) {
                Ok(p) => CoordMsg::Verdict {
                    ticket: p.ticket,
                    fresh: p.fresh,
                },
                Err(e) => err_of(e),
            }
        }
        ClusterMsg::Commit { ticket, req } => {
            let Some(m) = peer.member else {
                return err_of(ClusterError::UnknownMember(u64::MAX));
            };
            // A ticket is its opener's to commit; anyone else's COMMIT
            // leaves it open.
            if s.coord.ticket_member(ticket) != Some(m) {
                return err_of(ClusterError::StalePrepare(ticket));
            }
            let Ok(req) = req.to_request() else {
                // An unbuildable QoS can only reach COMMIT through a peer
                // that skipped its local validation; treat as stale.
                return err_of(ClusterError::StalePrepare(ticket));
            };
            // The TCP daemons ship no plan: a commit without one plans at
            // its sequential point.
            match s.coord.commit_prepared(ticket, None, &req, &mut None) {
                Ok(_result) => s.committed(&mut peer.cursor),
                Err(e) => err_of(e),
            }
        }
        ClusterMsg::Op { op } => {
            let Some(m) = peer.member else {
                return err_of(ClusterError::UnknownMember(u64::MAX));
            };
            match s.coord.forward(m, op) {
                Ok(_outcome) => s.committed(&mut peer.cursor),
                Err(e) => err_of(e),
            }
        }
        ClusterMsg::Sync { applied } => {
            s.syncs = s.syncs.saturating_add(1);
            match s.coord.records_since(applied) {
                Ok(records) => {
                    let take = records.len().min(RECORDS_PER_SYNC);
                    peer.cursor = Some(applied.saturating_add(take as u64));
                    CoordMsg::Records {
                        seq: s.coord.seq(),
                        records: records.get(..take).unwrap_or_default().to_vec(),
                    }
                }
                Err(e) => err_of(e),
            }
        }
        ClusterMsg::Leave => {
            let Some(m) = peer.member else {
                return err_of(ClusterError::UnknownMember(u64::MAX));
            };
            match s.coord.leave(m) {
                Ok(()) => {
                    s.unclaim(m);
                    CoordMsg::Ok
                }
                Err(e) => err_of(e),
            }
        }
        ClusterMsg::Status => CoordMsg::State {
            text: status_line(s),
        },
        ClusterMsg::Stop => CoordMsg::Ok,
    }
}

/// Serves one inter-daemon connection. A connection that joined and ends
/// without a `LEAVE` — EOF, or any framing, protocol or write error — is a
/// member **crash**: its pending prepares abort and its slot goes dead.
fn serve_cluster_peer(
    stream: TcpStream,
    shared: &Mutex<CoordShared>,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut peer = Peer::default();
    let served = serve_peer_messages(stream, shared, stop, &mut peer);
    // Once the coordinator is going away, a peer's silence is no crash.
    if let Some(m) = peer.member.filter(|_| !stop.load(Ordering::Acquire)) {
        let mut s = lock_shrug(shared);
        // LastMember: the roster cannot empty — the id stays alive on the
        // books but its slot is free for the next joiner.
        let _ = s.coord.crash(m);
        s.unclaim(m);
    }
    served
}

/// The peer's request/reply loop; `peer.member` is the id the connection
/// holds whenever it returns.
fn serve_peer_messages(
    stream: TcpStream,
    shared: &Mutex<CoordShared>,
    stop: &AtomicBool,
    peer: &mut Peer,
) -> io::Result<()> {
    let mut conn = Conn::open(stream, WireMode::Binary)?;
    while let Some(body) = conn.next_unit(stop)? {
        let Ok(msg) = decode_cluster_msg(&body) else {
            break;
        };
        let leaving = matches!(msg, ClusterMsg::Leave);
        let stopping = matches!(msg, ClusterMsg::Stop);
        let reply = handle_cluster_msg(&mut lock_shrug(shared), peer, msg);
        conn.send_frame(encode_coord_msg(&reply))?;
        if stopping {
            stop.store(true, Ordering::Release);
        }
        if stopping || (leaving && !matches!(reply, CoordMsg::Err { .. })) {
            peer.member = None;
            break;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Member daemon
// ---------------------------------------------------------------------------

/// One framed request/reply stream to the coordinator, with
/// [`LINK_TIMEOUT`] applied to both directions.
struct CoordLink {
    stream: TcpStream,
}

impl CoordLink {
    fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(LINK_TIMEOUT))?;
        stream.set_write_timeout(Some(LINK_TIMEOUT))?;
        Ok(Self { stream })
    }

    /// One framed request/reply exchange. Any error — including a read
    /// timeout — means the stream can no longer be resynchronized.
    fn roundtrip(&mut self, msg: &ClusterMsg) -> io::Result<CoordMsg> {
        self.stream
            .write_all(&framing::finish(encode_cluster_msg(msg)))?;
        self.stream.flush()?;
        let body = framing::read_frame(&mut self.stream)?;
        decode_coord_msg(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// How long a member (or a control client) waits on one coordinator read
/// or write before giving the link up (wire code 504).
const LINK_TIMEOUT: Duration = Duration::from_secs(2);

/// Member daemon state behind one lock: the coordinator link (None once
/// it has failed), the full replica, and the client-visible counters.
struct MemberState {
    link: Option<CoordLink>,
    replica: Member,
    ops: u64,
    errors: u64,
}

impl MemberState {
    /// One `SYNC` round trip: pulls the next records and replays them,
    /// returning the coordinator's sequence number and the outcomes.
    fn pull(&mut self) -> io::Result<(u64, Vec<ApplyOutcome>)> {
        let applied = self.replica.applied();
        let link = self.link.as_mut().ok_or_else(link_down)?;
        match link.roundtrip(&ClusterMsg::Sync { applied })? {
            CoordMsg::Records { seq, records } => Ok((seq, self.replica.apply(&records))),
            other => Err(bad_reply(&other)),
        }
    }

    /// Pulls records until the replica has applied `target`, capturing
    /// the replayed outcome at sequence `target - 1` (this member's own
    /// operation, whose rendering answers the waiting client).
    fn sync_to(&mut self, target: u64) -> io::Result<Option<ApplyOutcome>> {
        let mut wanted = None;
        while self.replica.applied() < target {
            let applied = self.replica.applied();
            let (_, mut outcomes) = self.pull()?;
            if outcomes.is_empty() {
                break;
            }
            let offset = usize::try_from(target.saturating_sub(1).saturating_sub(applied))
                .unwrap_or(usize::MAX);
            if offset < outcomes.len() {
                wanted = Some(outcomes.swap_remove(offset));
            }
        }
        Ok(wanted)
    }

    /// Replays until the replica is level with the coordinator.
    fn catch_up(&mut self) -> io::Result<()> {
        while self.pull()?.0 > self.replica.applied() {}
        Ok(())
    }

    /// Sends a message that commits one operation and replays the oplog
    /// up to it: the outcome this replica replayed for it, or — inner
    /// `Err` — the coordinator's refusal as the client's reply. The
    /// records normally ride on the reply, the committed operation last;
    /// a `RECORDS` that does not start where the replica stands is a
    /// failed exchange (nothing is applied, the caller gives the link
    /// up), because replaying past a gap is a diverged replica that still
    /// answers clients.
    fn commit(&mut self, msg: &ClusterMsg) -> io::Result<Result<Option<ApplyOutcome>, Response>> {
        let link = self.link.as_mut().ok_or_else(link_down)?;
        match link.roundtrip(msg)? {
            CoordMsg::Records { seq, records } => {
                let applied = self.replica.applied();
                if seq.checked_sub(records.len() as u64) != Some(applied) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{} records ending at {seq} do not continue a replica at {applied}",
                            records.len()
                        ),
                    ));
                }
                Ok(Ok(self.replica.apply(&records).pop()))
            }
            CoordMsg::Done { op_seq, .. } => Ok(Ok(self.sync_to(op_seq.saturating_add(1))?)),
            CoordMsg::Err { code } => Ok(Err(cluster_err(code))),
            other => Err(bad_reply(&other)),
        }
    }

    fn two_phase_establish(&mut self, req: &EstablishRequest) -> io::Result<Response> {
        // Plan locally for the footprint, on the replica as it stands:
        // the footprint is advisory (the TCP mode ships no plan and the
        // coordinator plans at the commit's sequential point), so a
        // replica that is behind costs a `stale_replans` count, not a
        // round trip — what it missed arrives with the COMMIT's reply.
        // Even a local rejection goes through prepare/commit so the
        // oplog records every attempt exactly like the monolithic engine.
        let (_planned, footprint) = self.replica.plan(req);
        let wire_fp: Vec<(u64, u64)> = footprint
            .iter()
            .map(|&(l, d)| (l.index() as u64, d))
            .collect();
        let link = self.link.as_mut().ok_or_else(link_down)?;
        let ticket = match link.roundtrip(&ClusterMsg::Prepare { footprint: wire_fp })? {
            CoordMsg::Verdict { ticket, .. } => ticket,
            CoordMsg::Err { code } => return Ok(cluster_err(code)),
            other => return Err(bad_reply(&other)),
        };
        let req = WireRequest::from_request(req);
        Ok(match self.commit(&ClusterMsg::Commit { ticket, req })? {
            Ok(Some(ApplyOutcome::Establish(Ok(id)))) => render_admitted(self.replica.net(), id),
            Ok(Some(ApplyOutcome::Establish(Err(e)))) => wire_err(e.wire_code(), e),
            Ok(_) => {
                ProtocolError::internal("replayed outcome does not match the committed op").into()
            }
            Err(refused) => refused,
        })
    }

    /// Member-local counters; deliberately simpler than the engine's
    /// `STATS` (no latency percentiles — the replica does no admission
    /// work of its own to time).
    fn stats(&self) -> Response {
        Response::Ok(format!(
            "ops={} errors={} member={} applied={} linked={}",
            self.ops,
            self.errors,
            self.replica.id(),
            self.replica.applied(),
            u8::from(self.link.is_some())
        ))
    }

    /// Graceful departure: `LEAVE` (tolerating a dead coordinator or a
    /// last-member refusal — the roster cannot empty), then a *local*
    /// invariant check over the replica, mirroring the engine's
    /// `SHUTDOWN` contract.
    fn shutdown(&mut self) -> Response {
        if let Some(link) = self.link.as_mut() {
            let _ = link.roundtrip(&ClusterMsg::Leave);
        }
        self.link = None;
        render_violations(&self.replica.net().check_invariants())
    }

    fn dispatch(&mut self, req: &Request) -> io::Result<Response> {
        // QoS validation is local, exactly like the engine: a malformed
        // range never reaches the coordinator.
        if let Some(validated) = establish_request(req) {
            return match validated {
                Ok(req) => self.two_phase_establish(&req),
                Err(resp) => Ok(resp),
            };
        }
        Ok(match req {
            Request::Snapshot => {
                self.catch_up()?;
                Response::Ok(snapshot_payload(self.replica.net()))
            }
            Request::Stats => self.stats(),
            Request::Shutdown => self.shutdown(),
            // Every other verb is a forwarded row of the table.
            _ => match forwarded_op(req) {
                Some(op) => match self.commit(&ClusterMsg::Op { op })? {
                    Ok(outcome) => render_outcome(outcome),
                    Err(refused) => refused,
                },
                None => ProtocolError::internal("verb is neither local nor forwarded").into(),
            },
        })
    }

    /// Parses and serves one client line; the flag is true when the line
    /// was a `SHUTDOWN` and the daemon should stop accepting. A failed
    /// coordinator exchange poisons the link: the framed stream cannot be
    /// resynchronized, so this and every later forwarding command answer
    /// 504 until the daemon is restarted.
    fn handle_line(&mut self, line: &str) -> (Response, bool) {
        self.ops = self.ops.saturating_add(1);
        let parsed = protocol::parse(line);
        let stop = matches!(parsed, Ok(Request::Shutdown));
        let resp = match parsed.map(|req| self.dispatch(&req)) {
            Ok(Ok(resp)) => resp,
            Ok(Err(_)) => {
                self.link = None;
                let timeout = ClusterError::PrepareTimeout(0);
                wire_err(timeout.wire_code(), timeout)
            }
            Err(e) => e.into(),
        };
        if resp.is_err() {
            self.errors = self.errors.saturating_add(1);
        }
        (resp, stop)
    }
}

/// End-of-run summary returned by [`ClusterMember::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberReport {
    /// The id the coordinator assigned at join.
    pub member: u64,
    /// Client lines served.
    pub ops: u64,
    /// Invariant violations on the replica at shutdown.
    pub violations: usize,
}

/// A member daemon: joins the federation, replicates the oplog, and
/// serves the ordinary client text protocol on its own port.
pub struct ClusterMember {
    listener: TcpListener,
    state: Arc<Mutex<MemberState>>,
    member_id: u64,
}

impl ClusterMember {
    /// Connects to the coordinator, joins, catches the replica up to the
    /// coordinator's sequence, and binds the client listener.
    ///
    /// `genesis` must be the same network the coordinator was booted
    /// with (same topology flags): replicas replay the oplog from the
    /// shared genesis, they never transfer state.
    ///
    /// # Errors
    ///
    /// Socket errors, a refused join, or a protocol violation.
    pub fn bind(addr: &str, genesis: Network, coordinator: &str) -> io::Result<Self> {
        let mut link = CoordLink::connect(coordinator)?;
        let (member_id, _seq) = match link.roundtrip(&ClusterMsg::Join)? {
            CoordMsg::Welcome { member, seq } => (member, seq),
            CoordMsg::Err { code } => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("coordinator refused join (wire code {code})"),
                ))
            }
            other => return Err(bad_reply(&other)),
        };
        let mut state = MemberState {
            link: Some(link),
            replica: Member::new(member_id, genesis),
            ops: 0,
            errors: 0,
        };
        state.catch_up()?;
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(Mutex::new(state)),
            member_id,
        })
    }

    /// The assigned member id.
    pub fn member_id(&self) -> u64 {
        self.member_id
    }

    /// The bound client address (useful with port 0 in tests).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves client connections until a `SHUTDOWN` line arrives.
    ///
    /// # Errors
    ///
    /// Propagates listener errors.
    pub fn run(self) -> io::Result<MemberReport> {
        self.listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        accept_until(&self.listener, &shutdown, || {
            let (state, flag) = (Arc::clone(&self.state), Arc::clone(&shutdown));
            move |stream| serve_member_client(stream, &state, &flag)
        });
        thread::sleep(POLL_INTERVAL);
        let state = lock_shrug(&self.state);
        Ok(MemberReport {
            member: self.member_id,
            ops: state.ops,
            violations: state.replica.net().check_invariants().len(),
        })
    }
}

/// Serves one client connection — text only, whatever `DRQOS_WIRE` says —
/// one locked [`MemberState::handle_line`] per request.
fn serve_member_client(
    stream: TcpStream,
    state: &Mutex<MemberState>,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    let mut conn = Conn::open(stream, WireMode::Text)?;
    while let Some(line) = conn.next_request(shutdown)? {
        let (resp, stop) = lock_shrug(state).handle_line(&line);
        conn.reply(&resp)?;
        if stop {
            shutdown.store(true, Ordering::Release);
            break;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Control clients (status / stop)
// ---------------------------------------------------------------------------

/// Fetches the coordinator's one-line status.
///
/// # Errors
///
/// Socket errors or a protocol violation.
pub fn fetch_status(coordinator: &str) -> io::Result<String> {
    let mut link = CoordLink::connect(coordinator)?;
    match link.roundtrip(&ClusterMsg::Status)? {
        CoordMsg::State { text } => Ok(text),
        other => Err(bad_reply(&other)),
    }
}

/// Asks the coordinator to stop serving and report.
///
/// # Errors
///
/// Socket errors or a protocol violation.
pub fn request_stop(coordinator: &str) -> io::Result<()> {
    let mut link = CoordLink::connect(coordinator)?;
    match link.roundtrip(&ClusterMsg::Stop)? {
        CoordMsg::Ok => Ok(()),
        other => Err(bad_reply(&other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use drqos_cluster::coordinator::{CommittedOp, MemberOp};
    use drqos_core::network::NetworkConfig;
    use drqos_core::NetworkSnapshot;
    use drqos_topology::regular::ring;
    use std::io::{BufRead, BufReader};
    use std::thread::JoinHandle;

    /// A ring of six with two disjoint two-link shared-risk groups —
    /// registered identically on every daemon, like the topology itself.
    fn genesis() -> Network {
        let mut net = Network::new(ring(6).unwrap(), NetworkConfig::default());
        assert_eq!(drqos_core::register_seeded_srlgs(&mut net, 2, 2, 2001), 2);
        net
    }

    /// One text connection to a member's client port.
    struct Client {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            Self {
                writer: stream.try_clone().unwrap(),
                reader: BufReader::new(stream),
            }
        }

        fn ask(&mut self, line: &str) -> String {
            writeln!(self.writer, "{line}").unwrap();
            self.writer.flush().unwrap();
            let mut reply = String::new();
            self.reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        }
    }

    /// Drives one text session against `addr`, one reply per line.
    fn session(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut client = Client::connect(addr);
        lines.iter().map(|l| client.ask(l)).collect()
    }

    struct Booted {
        coordinator: String,
        members: Vec<SocketAddr>,
        coord_handle: JoinHandle<io::Result<CoordinatorReport>>,
        member_handles: Vec<JoinHandle<io::Result<MemberReport>>>,
    }

    /// A bare coordinator with a genesis roster of `members`, and its
    /// address.
    fn coordinator(members: usize) -> (String, JoinHandle<io::Result<CoordinatorReport>>) {
        let coord =
            ClusterCoordinator::bind("127.0.0.1:0", genesis(), members, 7, RebalancePolicy::Bfs)
                .unwrap();
        let addr = coord.local_addr().unwrap().to_string();
        (addr, thread::spawn(move || coord.run()))
    }

    fn boot(members: usize) -> Booted {
        let (coordinator, coord_handle) = coordinator(members);
        let mut addrs = Vec::new();
        let mut member_handles = Vec::new();
        for _ in 0..members {
            let m = ClusterMember::bind("127.0.0.1:0", genesis(), &coordinator).unwrap();
            addrs.push(m.local_addr().unwrap());
            member_handles.push(thread::spawn(move || m.run()));
        }
        Booted {
            coordinator,
            members: addrs,
            coord_handle,
            member_handles,
        }
    }

    #[test]
    fn a_federated_session_matches_the_monolithic_engine() {
        let booted = boot(2);
        let &[a, b] = &booted.members[..] else {
            panic!("expected two members");
        };
        // Alternate commands across both member daemons; mirror every one
        // on a monolithic engine and demand byte-equal replies.
        let script: &[(SocketAddr, &str)] = &[
            (a, "ESTABLISH 0 3 64 256 64"),
            (b, "ESTABLISH 1 4 64 256 64"),
            (b, "SNAPSHOT"),
            (a, "FAIL-LINK 0"),
            (b, "SNAPSHOT"),
            (b, "REPAIR-LINK 0"),
            // A registered group through either member, then states it is
            // already in (306) and a group nobody registered (305).
            (a, "FAIL-SRLG 0"),
            (b, "FAIL-SRLG 0"),
            (b, "SNAPSHOT"),
            (b, "REPAIR-SRLG 0"),
            (a, "REPAIR-SRLG 0"),
            (a, "FAIL-SRLG 99"),
            (b, "REPAIR-SRLG 99"),
            (b, "RELEASE 0"),
            (a, "RELEASE 99"),
            (b, "FAIL-NODE 2"),
            (a, "SNAPSHOT"),
            (a, "ESTABLISH 0 0 64 256 64"),
            (b, "ESTABLISH 0 3 0 0 0"),
        ];
        let mut oracle = Engine::new(genesis());
        for &(addr, line) in script {
            let got = session(addr, &[line]).remove(0);
            let want = oracle.handle_line(line).to_string();
            assert_eq!(got, want, "divergence on {line:?}");
        }
        // Both members shut down cleanly; the second is the last live
        // member (LEAVE refused) but its local invariants still hold.
        for &addr in &[a, b] {
            let replies = session(addr, &["SHUTDOWN"]);
            assert_eq!(replies, vec!["OK violations=0".to_string()]);
        }
        request_stop(&booted.coordinator).unwrap();
        let report = booted.coord_handle.join().unwrap().unwrap();
        assert_eq!(report.violations, 0);
        // Every scripted op except SNAPSHOT and the malformed QoS range
        // lands in the oplog (establishes including rejections, releases
        // including the unknown id, fails and repairs including the
        // refused ones); the first member's LEAVE is no record.
        assert_eq!(report.seq, 14);
        for h in booted.member_handles {
            let r = h.join().unwrap().unwrap();
            assert_eq!(r.violations, 0);
        }
    }

    /// `key=<n>` out of a status or `STATS` line.
    fn field(line: &str, key: &str) -> u64 {
        protocol::payload_field(line, key).unwrap_or_else(|| panic!("no {key}= in {line:?}"))
    }

    /// The `i`-th line of a mixed session on the ring of six; every one of
    /// them, admitted or refused, is an oplog record.
    fn mixed_op(i: u64) -> String {
        let r = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
        match i % 5 {
            0 | 1 => format!("ESTABLISH {} {} 64 256 64", r % 6, (r / 6) % 6),
            2 => format!("RELEASE {}", r % (i / 2 + 1)),
            3 => format!("FAIL-LINK {}", r % 6),
            _ => format!("REPAIR-LINK {}", (r / 6) % 6),
        }
    }

    fn shut_down(booted: Booted) -> CoordinatorReport {
        for &addr in &booted.members {
            assert_eq!(session(addr, &["SHUTDOWN"]), ["OK violations=0"]);
        }
        for h in booted.member_handles {
            assert_eq!(h.join().unwrap().unwrap().violations, 0);
        }
        request_stop(&booted.coordinator).unwrap();
        let report = booted.coord_handle.join().unwrap().unwrap();
        assert_eq!(report.violations, 0);
        report
    }

    /// Alternating members are each one record behind at every commit:
    /// the record rides in on the reply, so after the two join-time
    /// catch-ups the coordinator answers no `SYNC` at all.
    #[test]
    fn an_alternating_session_is_served_without_a_sync() {
        let booted = boot(2);
        let mut clients: Vec<Client> = booted.members.iter().map(|&a| Client::connect(a)).collect();
        let mut oracle = Engine::new(genesis());
        for i in 0..240u64 {
            let line = mixed_op(i);
            let client = &mut clients[(i % 2) as usize];
            let want = oracle.handle_line(&line).to_string();
            assert_eq!(client.ask(&line), want, "divergence on op {i}: {line:?}");
            // The serving member is level with the coordinator the moment
            // it answers: its own operation was the reply's last record.
            assert_eq!(field(&client.ask("STATS"), "applied"), i + 1);
        }
        let status = fetch_status(&booted.coordinator).unwrap();
        assert_eq!((field(&status, "seq"), field(&status, "syncs")), (240, 2));
        // Every establish was planned one record behind, and on a ring of
        // six that record is rarely elsewhere.
        assert!(field(&status, "stale_replans") > 0, "status was {status}");
        drop(clients);
        let report = shut_down(booted);
        assert_eq!((report.seq, report.syncs), (240, 2));
    }

    /// A member more than one frame's worth of records behind gets `DONE`
    /// and pulls with `SYNC`, as every commit did before records rode on
    /// the reply.
    #[test]
    fn a_member_a_frame_behind_falls_back_to_done_and_sync() {
        let booted = boot(2);
        let &[a, b] = &booted.members[..] else {
            panic!("expected two members");
        };
        let mut oracle = Engine::new(genesis());
        let mut busy = Client::connect(b);
        let sat_out = RECORDS_PER_SYNC as u64 + 8;
        for i in 0..sat_out {
            let line = mixed_op(i);
            let want = oracle.handle_line(&line).to_string();
            assert_eq!(busy.ask(&line), want, "divergence on op {i}: {line:?}");
        }
        let mut idle = Client::connect(a);
        assert_eq!(field(&idle.ask("STATS"), "applied"), 0);
        for line in ["ESTABLISH 0 3 64 256 64", "RELEASE 0", "RELEASE 7"] {
            let want = oracle.handle_line(line).to_string();
            assert_eq!(idle.ask(line), want, "divergence on {line:?}");
        }
        assert_eq!(field(&idle.ask("STATS"), "applied"), sat_out + 3);
        // Two joins, then the establish's DONE took two pulls (a full
        // frame and the rest); the releases rode on their replies.
        let status = fetch_status(&booted.coordinator).unwrap();
        assert_eq!(field(&status, "syncs"), 4, "status was {status}");
        drop((busy, idle));
        assert_eq!(shut_down(booted).seq, sat_out + 3);
    }

    /// The cursor is what a `SYNC` said: before the first one a commit is
    /// answered `DONE`, after it `RECORDS`.
    #[test]
    fn a_link_that_never_synced_is_answered_done() {
        let (coordinator, coord_handle) = coordinator(1);
        let mut link = joined(&coordinator, 0);
        let ticket = prepare(&mut link);
        let commit = link.roundtrip(&ClusterMsg::Commit { ticket, req: REQ });
        assert_eq!(commit.unwrap(), CoordMsg::Done { op_seq: 0, seq: 1 });
        let op = MemberOp::FailLink { link: LinkId(0) };
        let forwarded = link.roundtrip(&ClusterMsg::Op { op });
        assert_eq!(forwarded.unwrap(), CoordMsg::Done { op_seq: 1, seq: 2 });

        let pulled = link.roundtrip(&ClusterMsg::Sync { applied: 0 }).unwrap();
        let CoordMsg::Records { seq: 2, records } = pulled else {
            panic!("expected both records, got {pulled:?}");
        };
        assert_eq!(records.len(), 2);
        let ticket = prepare(&mut link);
        let commit = link.roundtrip(&ClusterMsg::Commit { ticket, req: REQ });
        let establish = CommittedOp::Establish(REQ.to_request().unwrap());
        assert_eq!(
            commit.unwrap(),
            CoordMsg::Records {
                seq: 3,
                records: vec![establish]
            }
        );
        let op = MemberOp::RepairLink { link: LinkId(0) };
        assert_eq!(
            link.roundtrip(&ClusterMsg::Op { op }).unwrap(),
            CoordMsg::Records {
                seq: 4,
                records: vec![CommittedOp::Op(op)]
            }
        );
        request_stop(&coordinator).unwrap();
        let report = coord_handle.join().unwrap().unwrap();
        assert_eq!((report.violations, report.seq, report.syncs), (0, 4, 1));
    }

    /// Mutant: the coordinator starts a commit's `RECORDS` one record
    /// late. The member that was a record behind must refuse the reply —
    /// nothing applied, link given up, 504 — not replay past the gap.
    #[test]
    fn a_commit_reply_that_skips_a_record_is_refused_not_replayed() {
        let coord =
            ClusterCoordinator::bind("127.0.0.1:0", genesis(), 2, 7, RebalancePolicy::Bfs).unwrap();
        let addr = coord.local_addr().unwrap().to_string();
        let shared = Arc::clone(&coord.shared);
        let coord_handle = thread::spawn(move || coord.run());
        // Two members without their client ports: the test is the client.
        let members: Vec<ClusterMember> = (0..2)
            .map(|_| ClusterMember::bind("127.0.0.1:0", genesis(), &addr).unwrap())
            .collect();
        let [a, b] = &members[..] else {
            panic!("expected two members");
        };
        let mut oracle = Engine::new(genesis());
        let honest: [(&ClusterMember, &str); 4] = [
            (a, "ESTABLISH 0 3 64 256 64"),
            (b, "ESTABLISH 1 4 64 256 64"),
            (a, "FAIL-LINK 0"),
            (b, "ESTABLISH 2 5 64 256 64"),
        ];
        for (member, line) in honest {
            let (got, _) = lock_shrug(&member.state).handle_line(line);
            assert_eq!(got.to_string(), oracle.handle_line(line).to_string());
        }

        // A is one record (B's last) behind; its next reply skips it.
        lock_shrug(&shared).skip_a_record = true;
        let skipped = "RELEASE 0";
        let (got, _) = lock_shrug(&a.state).handle_line(skipped);
        assert!(got.to_string().starts_with("ERR 504 "), "got {got}");
        lock_shrug(&shared).skip_a_record = false;
        // The coordinator had committed it all the same.
        oracle.handle_line(skipped);

        // A applied nothing from the refused reply: it still is the
        // coordinator's log replayed through its last honest exchange.
        let a = lock_shrug(&a.state);
        assert!(a.link.is_none());
        assert_eq!(a.replica.applied(), 3);
        let mut replayed = Member::new(9, genesis());
        replayed.apply(&lock_shrug(&shared).coord.records_since(0).unwrap()[..3]);
        assert_eq!(
            NetworkSnapshot::capture(a.replica.net()),
            NetworkSnapshot::capture(replayed.net())
        );
        drop(a);

        // B, two records behind now, is served as before.
        let line = "ESTABLISH 0 3 64 256 64";
        let (got, _) = lock_shrug(&b.state).handle_line(line);
        assert_eq!(got.to_string(), oracle.handle_line(line).to_string());
        assert_eq!(lock_shrug(&b.state).replica.applied(), 6);

        request_stop(&addr).unwrap();
        let report = coord_handle.join().unwrap().unwrap();
        assert_eq!((report.violations, report.seq, report.syncs), (0, 6, 2));
    }

    /// The member's client port reads through the same connection reader
    /// as `drqosd`: a line is capped, and a half-received one is dropped
    /// at the first idle poll after `SHUTDOWN`.
    #[test]
    fn the_member_port_caps_a_line_and_drops_a_half_line_at_shutdown() {
        use std::io::Read;
        let booted = boot(1);
        let Some(&addr) = booted.members.first() else {
            panic!("expected one member");
        };
        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile
            .write_all(&vec![b'x'; framing::MAX_FRAME_BYTES + 1])
            .unwrap();
        let mut reply = String::new();
        hostile.read_to_string(&mut reply).unwrap();
        assert!(
            reply.starts_with("ERR 4 "),
            "answered, then closed: {reply:?}"
        );
        assert_eq!(reply.matches('\n').count(), 1, "{reply:?}");

        // One whole request first, so the connection has its reader; when
        // the half line lands relative to the flag then does not matter.
        let mut parked = TcpStream::connect(addr).unwrap();
        parked.write_all(b"STATS\nES").unwrap();
        let mut stats = Vec::new();
        while stats.last() != Some(&b'\n') {
            let mut byte = [0u8];
            parked.read_exact(&mut byte).unwrap();
            stats.extend(byte);
        }
        assert!(stats.starts_with(b"OK ops="), "{stats:?}");
        assert_eq!(session(addr, &["SHUTDOWN"]), ["OK violations=0"]);
        parked
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let dropped = parked.read(&mut [0u8; 8]);
        assert!(matches!(dropped, Ok(0)), "parked client: {dropped:?}");
        for h in booted.member_handles {
            assert_eq!(h.join().unwrap().unwrap().violations, 0);
        }
        request_stop(&booted.coordinator).unwrap();
        assert_eq!(booted.coord_handle.join().unwrap().unwrap().violations, 0);
    }

    /// A raw inter-daemon link that joined as member `want`.
    fn joined(coordinator: &str, want: u64) -> CoordLink {
        let mut link = CoordLink::connect(coordinator).unwrap();
        match link.roundtrip(&ClusterMsg::Join).unwrap() {
            CoordMsg::Welcome { member, .. } if member == want => link,
            other => panic!("joiner should claim id {want}, got {other:?}"),
        }
    }

    /// Polls `STATUS` until the line contains `want`.
    fn status_with(coordinator: &str, want: &str) -> String {
        let mut status = String::new();
        for _ in 0..100 {
            status = fetch_status(coordinator).unwrap();
            if status.contains(want) {
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        assert!(status.contains(want), "status was {status}");
        status
    }

    const REQ: WireRequest = WireRequest {
        src: 0,
        dst: 3,
        bmin: 64,
        bmax: 256,
        delta: 64,
    };

    /// PREPARE with an empty footprint: fresh on any network.
    fn prepare(link: &mut CoordLink) -> u64 {
        match link.roundtrip(&ClusterMsg::Prepare { footprint: vec![] }) {
            Ok(CoordMsg::Verdict {
                ticket,
                fresh: true,
            }) => ticket,
            other => panic!("prepare should be fresh, got {other:?}"),
        }
    }

    #[test]
    fn a_dropped_peer_is_a_crash_and_its_slot_is_reclaimable() {
        let (coordinator, coord_handle) = coordinator(2);
        let mut link0 = joined(&coordinator, 0);
        let link1 = joined(&coordinator, 1);

        // EOF without LEAVE = crash: the slot goes dead and is freed.
        drop(link1);
        let status = status_with(&coordinator, "alive=1");
        assert!(status.contains("roster=10"), "status was {status}");

        // The survivor still commits two-phase establishes — at sequence
        // 0: the crash was no record.
        let ticket = prepare(&mut link0);
        let commit = link0.roundtrip(&ClusterMsg::Commit { ticket, req: REQ });
        assert_eq!(commit.unwrap(), CoordMsg::Done { op_seq: 0, seq: 1 });

        // A new joiner reclaims the crashed id without growing the roster.
        let _link2 = joined(&coordinator, 1);
        let status = fetch_status(&coordinator).unwrap();
        assert!(status.contains("alive=2"), "status was {status}");

        request_stop(&coordinator).unwrap();
        let report = coord_handle.join().unwrap().unwrap();
        assert_eq!(report.violations, 0);
        // The establish, and nothing for the crash or the rejoin.
        assert_eq!(report.seq, 1);
        assert_eq!(report.aborted_prepares, 0);
    }

    #[test]
    fn a_ticket_is_its_openers_to_commit() {
        let (coordinator, coord_handle) = coordinator(2);
        let mut a = joined(&coordinator, 0);
        let mut b = joined(&coordinator, 1);
        let ticket = prepare(&mut a);
        let stale = ClusterError::StalePrepare(ticket).wire_code();
        let commit = ClusterMsg::Commit { ticket, req: REQ };
        assert_eq!(
            b.roundtrip(&commit).unwrap(),
            CoordMsg::Err { code: stale },
            "B must not close A's ticket"
        );
        let status = fetch_status(&coordinator).unwrap();
        assert!(status.contains(" seq=0 pending=1 "), "status was {status}");
        assert_eq!(
            a.roundtrip(&commit).unwrap(),
            CoordMsg::Done { op_seq: 0, seq: 1 }
        );
        assert_eq!(
            a.roundtrip(&commit).unwrap(),
            CoordMsg::Err { code: stale },
            "a second commit is stale for its opener too"
        );
        request_stop(&coordinator).unwrap();
        let report = coord_handle.join().unwrap().unwrap();
        assert_eq!((report.violations, report.seq), (0, 1));
        assert_eq!(report.aborted_prepares, 0);
    }

    /// The two byte patterns the protocol no longer has — `ABORT {ticket}`
    /// (opcode 0x13) and a `RECORDS` reply carrying a tag-0 roster record —
    /// are refused like any other garbage: the link closes, a joined
    /// sender is crashed, and the other members keep being served.
    #[test]
    fn retired_byte_patterns_close_the_link_and_crash_the_sender() {
        let (coordinator, coord_handle) = coordinator(3);
        let mut survivor = joined(&coordinator, 0);
        let open = prepare(&mut survivor);
        let mut abort = vec![0x13];
        framing::put_u64(&mut abort, open);
        // RECORDS {seq 0, one record: tag 0, a roster of two}.
        let mut records = vec![0x23];
        framing::put_u64(&mut records, 0);
        framing::put_u64(&mut records, 1);
        records.push(0);
        framing::put_u64(&mut records, 2);
        records.extend([1, 1]);
        for (id, body, roster) in [(1, abort, "roster=101"), (2, records, "roster=100")] {
            let mut sender = joined(&coordinator, id);
            let own = prepare(&mut sender);
            sender.stream.write_all(&framing::finish(body)).unwrap();
            let closed = framing::read_frame(&mut sender.stream);
            assert!(closed.is_err(), "m{id} got a reply: {closed:?}");
            let status = status_with(&coordinator, roster);
            // The sender's own ticket aborted with it; the survivor's —
            // the one the ABORT named — is still open.
            assert!(status.contains(" pending=1 "), "status was {status}");
            assert!(
                status.contains(&format!("aborted_prepares={id} ")),
                "status was {status}, m{id} held ticket {own}"
            );
        }
        let commit = survivor.roundtrip(&ClusterMsg::Commit {
            ticket: open,
            req: REQ,
        });
        assert_eq!(commit.unwrap(), CoordMsg::Done { op_seq: 0, seq: 1 });
        request_stop(&coordinator).unwrap();
        let report = coord_handle.join().unwrap().unwrap();
        assert_eq!((report.violations, report.seq), (0, 1));
        assert_eq!(report.aborted_prepares, 2);
    }

    #[test]
    fn a_member_with_a_dead_coordinator_answers_504_but_shuts_down() {
        let booted = boot(1);
        let Some(&addr) = booted.members.first() else {
            panic!("expected one member");
        };
        // Stop the coordinator out from under the member.
        request_stop(&booted.coordinator).unwrap();
        booted.coord_handle.join().unwrap().unwrap();

        let replies = session(addr, &["ESTABLISH 0 3 64 256 64", "STATS", "SHUTDOWN"]);
        let [est, stats, bye] = &replies[..] else {
            panic!("expected three replies, got {replies:?}");
        };
        assert!(
            est.starts_with("ERR 504 "),
            "expected a prepare-timeout error, got {est:?}"
        );
        assert!(stats.contains("linked=0"), "stats was {stats:?}");
        assert_eq!(bye, "OK violations=0");
        for h in booted.member_handles {
            assert_eq!(h.join().unwrap().unwrap().violations, 0);
        }
    }
}
