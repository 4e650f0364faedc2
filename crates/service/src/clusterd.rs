//! TCP daemons for the cluster federation: the coordinator process that
//! owns the authoritative [`Network`] and its oplog, and member processes
//! that serve clients from a full replica, synced over the inter-daemon
//! protocol of [`drqos_cluster::proto`].
//!
//! A member's client port *is* `drqosd`'s front — [`Server`] over an
//! [`Engine`], in either framing, with `BUSY` and the shutdown drain —
//! and differs only in where an operation commits: the engine's
//! [`Authority`] is [`MemberState`], whose commit is the exchange below.
//! All admission logic stays in the clock-free `drqos-cluster` crate.
//!
//! A member reaches its coordinator over TCP, or in-process through a
//! [`LocalCoordinator`], which serves each encoded frame with the per-peer
//! handler the socket loop runs; `fuzz --diff-cluster` drives members
//! that way.
//!
//! ## Commit protocol (member side)
//!
//! Every client verb that changes state — `ESTABLISH` among them — is one
//! [`drqos_cluster::coordinator::MemberOp`] and one exchange: `OP` →
//! `RECORDS {seq, records}`, every oplog record this link has not been
//! sent yet, the operation's own last. The coordinator commits it at its
//! sequential point ([`Coordinator::forward`]); the member plans nothing.
//! It replays the records and renders the reply from its *own* outcome of
//! the last one; a `RECORDS` that does not start where its replica stands
//! is refused (the contiguity guard).
//! The coordinator keeps, per link, the sequence it has sent that link
//! through (set by every `SYNC` it answers); a link that never `SYNC`ed,
//! or one more than [`RECORDS_PER_SYNC`] records behind, gets
//! `DONE {op_seq}` instead and the member pulls with `SYNC` until it is
//! past `op_seq`.
//!
//! Either way no result ever rides the wire: replay is deterministic
//! (`drqos_cluster::coordinator::MemberOp::apply` is the single shared
//! transition function), so the outcome the member replays is the
//! outcome the coordinator committed. `fuzz --diff-cluster` proves the
//! equivalence against the monolithic network.
//!
//! ## Churn
//!
//! A member daemon that loses its coordinator link answers every
//! forwarding command and `SNAPSHOT` with wire code 504 (coordinator link
//! down) but keeps serving `STATS` and its own `SHUTDOWN`. A
//! member *connection* that reaches EOF at the coordinator without a
//! graceful `LEAVE` — or sends a frame the coordinator does not serve — is
//! a **crash**: the coordinator marks its roster slot dead.

use crate::conn::{accept_until, lock_shrug, wake, Conn};
use crate::engine::{Authority, Engine};
use crate::protocol::Response;
use crate::server::Server;
use drqos_cluster::coordinator::{ApplyOutcome, Coordinator, MemberOp};
use drqos_cluster::member::Member;
use drqos_cluster::proto::{
    decode_cluster_msg, decode_coord_msg, encode_cluster_msg, encode_coord_msg, ClusterMsg,
    CoordMsg, RECORDS_PER_SYNC,
};
use drqos_core::env::{RebalancePolicy, WireMode};
use drqos_core::error::ClusterError;
use drqos_core::framing;
use drqos_core::network::Network;
use drqos_sim::seam::{self, Seam};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
    /// Whether every commit's `RECORDS` starts one record late
    /// ([`LocalCoordinator::skip_records`]).
    skip_records: bool,
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
    /// `SYNC` frames answered: join-time catch-ups, `SNAPSHOT`s and the
    /// pulls after a `DONE` — a commit answered by `RECORDS` costs none.
    pub syncs: u64,
}

/// A coordinator daemon's state without its listener: in-process members
/// ([`LocalCoordinator::join`]) reach it through the daemon's per-peer
/// handler, deterministically (no thread, no clock).
#[derive(Clone)]
pub struct LocalCoordinator {
    shared: Arc<Mutex<CoordShared>>,
    stop: Arc<AtomicBool>,
}

impl LocalCoordinator {
    /// A coordinator over `genesis` with a roster of `members` ids, none
    /// claimed yet.
    pub fn new(genesis: Network, members: usize) -> Self {
        let roster = members.max(1);
        Self {
            shared: Arc::new(Mutex::new(CoordShared {
                coord: Coordinator::new(genesis, roster, 0, RebalancePolicy::Bfs),
                claimed: vec![false; roster],
                syncs: 0,
                skip_records: false,
            })),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Arms (or clears) the one fault a coordinator can carry at run
    /// time: every commit's `RECORDS` starts one record late, which the
    /// member's contiguity guard refuses.
    pub fn skip_records(&self, skip: bool) {
        lock_shrug(&self.shared).skip_records = skip;
    }

    /// A member daemon's [`Authority`] on an in-process link: it joins
    /// and catches up exactly as [`ClusterMember::bind`] does.
    ///
    /// # Errors
    ///
    /// A refused join or a protocol violation.
    pub fn join(&self, genesis: Network) -> io::Result<MemberState> {
        let link = CoordLink::Local(PeerLink {
            coordinator: self.clone(),
            peer: Peer::default(),
        });
        MemberState::join(link, genesis)
    }

    /// Calls `read` with the authoritative network and the oplog sequence,
    /// under the lock every peer frame is served under.
    pub fn authority<R>(&self, read: impl FnOnce(&Network, u64) -> R) -> R {
        let s = lock_shrug(&self.shared);
        read(s.coord.net(), s.coord.seq())
    }

    /// The per-peer handler both link kinds run, one frame at a time: the
    /// encoded reply and whether the link stays open after it (`OK`
    /// answers a `STOP` or a `LEAVE` that succeeded, and ends it), or
    /// `None` when the link closes without a reply (a frame that does not
    /// decode, or one no daemon sends any more).
    fn serve_frame(&self, peer: &mut Peer, body: &[u8]) -> Option<(Vec<u8>, bool)> {
        let msg = decode_cluster_msg(body).ok()?;
        let stopping = matches!(msg, ClusterMsg::Stop);
        let reply = handle_cluster_msg(&mut lock_shrug(&self.shared), peer, msg)?;
        self.stop.fetch_or(stopping, Ordering::Release);
        Some((encode_coord_msg(&reply), reply != CoordMsg::Ok))
    }
}

/// The coordinator daemon: accepts inter-daemon connections and serves
/// the [`ClusterMsg`] protocol over length-prefixed binary frames.
pub struct ClusterCoordinator {
    listener: TcpListener,
    local: LocalCoordinator,
}

impl ClusterCoordinator {
    /// Binds the coordinator on `addr` with a genesis roster of
    /// `members` ids (none yet claimed by a connection). `_seed` and
    /// `_policy` are ignored (see [`Coordinator::new`]); `benchmark/`
    /// calls this signature.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(
        addr: &str,
        net: Network,
        members: usize,
        _seed: u64,
        _policy: RebalancePolicy,
    ) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            local: LocalCoordinator::new(net, members),
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

    /// Serves inter-daemon connections until a `STOP` arrives, waits for
    /// every peer handler to return, then checks the authority's
    /// invariants and reports.
    ///
    /// # Errors
    ///
    /// Propagates listener errors.
    pub fn run(self) -> io::Result<CoordinatorReport> {
        let addr = self.listener.local_addr()?;
        // Each handler holds a sender until it returns, so `recv` fails
        // once the last one has: the channel counts the live handlers.
        let (live, gone) = mpsc::channel::<()>();
        accept_until(&self.listener, &self.local.stop, || {
            let (local, live) = (self.local.clone(), live.clone());
            move |stream| {
                let _live = live;
                serve_cluster_peer(stream, local, addr)
            }
        });
        drop(live);
        let _ = gone.recv();
        let s = lock_shrug(&self.local.shared);
        Ok(CoordinatorReport {
            violations: s.coord.check_invariants().len(),
            seq: s.coord.seq(),
            syncs: s.syncs,
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
/// (`drqos-clusterd status` and the CI smoke job parse it). `syncs` is
/// the `SYNC` frames answered since boot; new fields go on the end.
fn status_line(s: &CoordShared) -> String {
    let roster: String = s
        .coord
        .alive()
        .iter()
        .map(|&a| if a { '1' } else { '0' })
        .collect();
    format!(
        "members={} alive={} seq={} roster={} syncs={}",
        s.coord.alive().len(),
        s.coord.alive_count(),
        s.coord.seq(),
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
    /// pulls with `SYNC`, which sets the cursor). The choice is made on
    /// the distance alone, so a `DONE` decodes no record.
    fn committed(&self, cursor: &mut Option<u64>) -> CoordMsg {
        let seq = self.coord.seq();
        let unguarded = seam::armed(Seam::UnguardedSkip);
        let skip = self.skip_records || unguarded;
        let from = cursor
            .map(|c| c.saturating_add(u64::from(skip)))
            .filter(|&from| seq.saturating_sub(from) <= RECORDS_PER_SYNC as u64);
        match from.and_then(|from| self.coord.records(from, RECORDS_PER_SYNC).ok()) {
            Some(records) => {
                *cursor = Some(seq);
                let short = u64::from(unguarded);
                CoordMsg::Records {
                    seq: seq.saturating_sub(short),
                    records,
                }
            }
            _ => CoordMsg::Done {
                op_seq: seq.saturating_sub(1),
                seq,
            },
        }
    }

    /// Commits one operation for the member `peer` holds and answers it
    /// ([`CoordShared::committed`]), or refuses it with a wire code.
    fn commit(&mut self, peer: &mut Peer, op: MemberOp) -> CoordMsg {
        let Some(m) = peer.member else {
            return err_of(ClusterError::UnknownMember(u64::MAX));
        };
        match self.coord.forward(m, op) {
            Ok(_) => self.committed(&mut peer.cursor),
            Err(e) => err_of(e),
        }
    }
}

/// The reply to one peer message, or `None` when the message is one no
/// daemon sends any more (`PREPARE`, `COMMIT`): the link is then closed
/// like a frame that does not decode.
fn handle_cluster_msg(s: &mut CoordShared, peer: &mut Peer, msg: ClusterMsg) -> Option<CoordMsg> {
    Some(match msg {
        ClusterMsg::Join => {
            if let Some(m) = peer.member {
                // One daemon, one id: a second JOIN on the same link is a
                // duplicate of whatever this link already holds.
                return Some(err_of(ClusterError::DuplicateMember(m)));
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
        ClusterMsg::Prepare { .. } | ClusterMsg::Commit { .. } => return None,
        ClusterMsg::Op { op } => s.commit(peer, op),
        ClusterMsg::Sync { applied } => {
            s.syncs = s.syncs.saturating_add(1);
            match s.coord.records(applied, RECORDS_PER_SYNC) {
                Ok(records) => {
                    peer.cursor = Some(applied.saturating_add(records.len() as u64));
                    CoordMsg::Records {
                        seq: s.coord.seq(),
                        records,
                    }
                }
                Err(e) => err_of(e),
            }
        }
        ClusterMsg::Leave => {
            let Some(m) = peer.member else {
                return Some(err_of(ClusterError::UnknownMember(u64::MAX)));
            };
            match s.coord.leave(m) {
                Ok(()) => {
                    s.unclaim(m);
                    peer.member = None;
                    CoordMsg::Ok
                }
                Err(e) => err_of(e),
            }
        }
        ClusterMsg::Status => CoordMsg::State {
            text: status_line(s),
        },
        ClusterMsg::Stop => CoordMsg::Ok,
    })
}

/// Serves one inter-daemon connection through the coordinator's end of
/// it: dropped when the loop ends without a `LEAVE` — EOF, or any
/// framing, protocol or write error — it is a member **crash**. A peer
/// that stops reading is given up after [`LINK_TIMEOUT`], so it cannot
/// hold [`ClusterCoordinator::run`]'s wait for its handlers; nor can a
/// chatty one, since a frame that completes under a raised flag is late
/// and closes the link unanswered.
///
/// The handler that answers the `STOP` wakes the accept loop on
/// `listener` once its `OK` is written, not before: the loop's return
/// lets `run` report and close the port.
fn serve_cluster_peer(
    stream: TcpStream,
    coordinator: LocalCoordinator,
    listener: SocketAddr,
) -> io::Result<()> {
    let mut end = PeerLink {
        coordinator,
        peer: Peer::default(),
    };
    let stop = &end.coordinator.stop;
    stream.set_write_timeout(Some(LINK_TIMEOUT))?;
    let mut conn = Conn::open(stream, WireMode::Binary)?;
    while let Some(body) = conn.next_unit(stop)? {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Some((reply, open)) = end.coordinator.serve_frame(&mut end.peer, &body) else {
            break;
        };
        let written = conn.send_frame(reply);
        if !open && stop.load(Ordering::Acquire) {
            let _ = wake(listener);
        }
        written?;
        if !open {
            break;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Member daemon
// ---------------------------------------------------------------------------

/// One framed request/reply stream to the coordinator: a socket with
/// [`LINK_TIMEOUT`] applied to both directions, or, in-process, the
/// coordinator's end of the link itself.
enum CoordLink {
    Tcp(TcpStream),
    Local(PeerLink),
}

/// The coordinator's end of one inter-daemon link: its per-peer state,
/// each frame served by [`LocalCoordinator::serve_frame`].
struct PeerLink {
    coordinator: LocalCoordinator,
    peer: Peer,
}

/// Dropping the link's end is the crash epilogue: a member that did not
/// `LEAVE` crashed, and its slot goes dead — unless the coordinator is
/// going away, when a peer's silence is no crash.
impl Drop for PeerLink {
    fn drop(&mut self) {
        let stopping = self.coordinator.stop.load(Ordering::Acquire);
        if let Some(m) = self.peer.member.take().filter(|_| !stopping) {
            let mut s = lock_shrug(&self.coordinator.shared);
            // LastMember: the roster cannot empty — the id stays alive on
            // the books but its slot is free for the next joiner.
            let _ = s.coord.leave(m);
            s.unclaim(m);
        }
    }
}

impl CoordLink {
    fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(LINK_TIMEOUT))?;
        stream.set_write_timeout(Some(LINK_TIMEOUT))?;
        Ok(Self::Tcp(stream))
    }

    /// One framed request/reply exchange. Any error — including a read
    /// timeout — means the stream can no longer be resynchronized.
    fn roundtrip(&mut self, msg: &ClusterMsg) -> io::Result<CoordMsg> {
        let body = match self {
            CoordLink::Tcp(stream) => {
                stream.write_all(&framing::finish(encode_cluster_msg(msg)))?;
                stream.flush()?;
                framing::read_frame(stream)?
            }
            CoordLink::Local(link) => {
                let served = link
                    .coordinator
                    .serve_frame(&mut link.peer, &encode_cluster_msg(msg));
                served.ok_or_else(link_down)?.0
            }
        };
        decode_coord_msg(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// How long a member (or a control client) waits on one coordinator read
/// or write before giving the link up (wire code 504).
const LINK_TIMEOUT: Duration = Duration::from_secs(2);

/// A member's commit [`Authority`]: the coordinator link (None once it
/// has been given up) and the full replica replies are read from.
/// Dropping it drops the link: a crash, as the coordinator sees it.
pub struct MemberState {
    link: Option<CoordLink>,
    replica: Member,
}

impl MemberState {
    /// `JOIN`, then a catch-up to the coordinator's sequence: how every
    /// member starts, whichever link it has.
    fn join(mut link: CoordLink, genesis: Network) -> io::Result<Self> {
        let member = match link.roundtrip(&ClusterMsg::Join)? {
            CoordMsg::Welcome { member, .. } => member,
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
            replica: Member::new(member, genesis),
        };
        state.catch_up()?;
        Ok(state)
    }

    /// The id the coordinator assigned at join.
    pub fn id(&self) -> u64 {
        self.replica.id()
    }

    /// Oplog records the replica has replayed.
    pub fn applied(&self) -> u64 {
        self.replica.applied()
    }

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

    /// Pulls records until the replica has applied `target`, returning
    /// the replayed outcome at sequence `target - 1` (after a `DONE`, this
    /// member's own operation, whose rendering answers the waiting
    /// client).
    ///
    /// # Errors
    ///
    /// The link is down, or the coordinator broke the protocol.
    pub fn sync_to(&mut self, target: u64) -> io::Result<Option<ApplyOutcome>> {
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

    /// Sends the `OP` that commits one operation and replays the oplog up
    /// to it: the outcome this replica replayed for it, or — inner `Err`
    /// — the coordinator's refusal as the client's reply. Even a
    /// rejected admission is a record, so the oplog holds every attempt
    /// exactly like the monolithic engine's. The records normally ride on
    /// the reply, the committed operation last; a `RECORDS` that does not
    /// start where the replica stands is a failed exchange (nothing is
    /// applied, the link is given up), because replaying past a gap is a
    /// diverged replica that still answers clients.
    fn exchange(&mut self, op: MemberOp) -> io::Result<Result<Option<ApplyOutcome>, Response>> {
        let link = self.link.as_mut().ok_or_else(link_down)?;
        match link.roundtrip(&ClusterMsg::Op { op })? {
            CoordMsg::Records { seq, records }
                if seq.checked_sub(records.len() as u64) == Some(self.replica.applied()) =>
            {
                Ok(Ok(self.replica.apply(&records).pop()))
            }
            CoordMsg::Done { op_seq, .. } => Ok(Ok(self.sync_to(op_seq.saturating_add(1))?)),
            CoordMsg::Err { code } => Ok(Err(cluster_err(code))),
            other => Err(bad_reply(&other)),
        }
    }

    /// Gives the link up after a failed exchange: the framed stream
    /// cannot be resynchronized, so this and every later forwarding
    /// command answer 504 (coordinator link down) until the daemon is
    /// restarted.
    fn give_up(&mut self) -> Response {
        self.link = None;
        cluster_err(ClusterError::CoordinatorLinkDown.wire_code())
    }
}

impl Authority for MemberState {
    fn net(&self) -> &Network {
        self.replica.net()
    }

    fn commit(&mut self, op: MemberOp) -> Result<Option<ApplyOutcome>, Response> {
        self.exchange(op).unwrap_or_else(|_| Err(self.give_up()))
    }

    fn sync(&mut self) -> Result<(), Response> {
        self.catch_up().map_err(|_| self.give_up())
    }

    /// Graceful departure, tolerating a dead coordinator or a last-member
    /// refusal (the roster cannot empty); the final check that follows is
    /// local, over the replica.
    fn leave(&mut self) {
        if let Some(link) = self.link.as_mut() {
            let _ = link.roundtrip(&ClusterMsg::Leave);
        }
        self.link = None;
    }

    fn stats_tail(&self) -> String {
        format!(
            " member={} applied={} linked={}",
            self.replica.id(),
            self.replica.applied(),
            u8::from(self.link.is_some())
        )
    }
}

/// End-of-run summary returned by [`ClusterMember::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberReport {
    /// The id the coordinator assigned at join.
    pub member: u64,
    /// Client requests the engine handled.
    pub ops: u64,
    /// Invariant violations on the replica at shutdown.
    pub violations: usize,
}

/// A member daemon: joins the federation, replicates the oplog, and
/// serves clients on its own port through `drqosd`'s [`Server`], whose
/// engine commits at the coordinator.
pub struct ClusterMember {
    /// The client front; `DRQOS_QUEUE_DEPTH` and `DRQOS_WIRE` apply as in
    /// `drqosd`.
    pub(crate) server: Server,
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
        let state = MemberState::join(CoordLink::connect(coordinator)?, genesis)?;
        let member_id = state.id();
        Ok(Self {
            server: Server::over(addr, Engine::over(Box::new(state)))?,
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
        self.server.local_addr()
    }

    /// Serves clients until a `SHUTDOWN` has been answered ([`Server::run`]).
    ///
    /// # Errors
    ///
    /// Propagates listener errors.
    pub fn run(self) -> io::Result<MemberReport> {
        let report = self.server.run()?;
        Ok(MemberReport {
            member: self.member_id,
            ops: report.ops,
            violations: report.violations,
        })
    }
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
    match CoordLink::connect(coordinator)?.roundtrip(&ClusterMsg::Status)? {
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
    match CoordLink::connect(coordinator)?.roundtrip(&ClusterMsg::Stop)? {
        CoordMsg::Ok => Ok(()),
        other => Err(bad_reply(&other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol;
    use drqos_core::env::WireMode;
    use drqos_core::network::{EstablishRequest, NetworkConfig};
    use drqos_core::NetworkSnapshot;
    use drqos_topology::regular::ring;
    use drqos_topology::LinkId;
    use std::io::Read;
    use std::thread::{self, JoinHandle};
    use std::time::Instant;

    /// A ring of six with two disjoint two-link shared-risk groups —
    /// registered identically on every daemon, like the topology itself.
    fn genesis() -> Network {
        let mut net = Network::new(ring(6).unwrap(), NetworkConfig::default());
        assert_eq!(drqos_core::register_seeded_srlgs(&mut net, 2, 2, 2001), 2);
        net
    }

    /// A text connection to a member's client port.
    fn text(addr: SocketAddr) -> Client {
        Client::connect(addr, WireMode::Text).unwrap()
    }

    /// One command on its own connection in `wire` framing; the reply
    /// comes back as a text line.
    fn ask_in(wire: WireMode, addr: SocketAddr, line: &str) -> String {
        Client::connect(addr, wire)
            .unwrap()
            .roundtrip(line)
            .unwrap()
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
        boot_in(WireMode::Text, members)
    }

    /// [`boot`] with the members' client ports in `wire` framing.
    fn boot_in(wire: WireMode, members: usize) -> Booted {
        let (coordinator, coord_handle) = coordinator(members);
        let mut addrs = Vec::new();
        let mut member_handles = Vec::new();
        for _ in 0..members {
            let mut m = ClusterMember::bind("127.0.0.1:0", genesis(), &coordinator).unwrap();
            m.server = m.server.with_wire(wire);
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

    /// Run with the members' client ports in each framing: a binary
    /// session decodes to the text one's replies.
    #[test]
    fn a_federated_session_matches_the_monolithic_engine() {
        for wire in [WireMode::Text, WireMode::Binary] {
            federated_session_matches_the_monolithic_engine(wire);
        }
    }

    fn federated_session_matches_the_monolithic_engine(wire: WireMode) {
        let booted = boot_in(wire, 2);
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
            let got = ask_in(wire, addr, line);
            let want = oracle.handle_line(line).to_string();
            assert_eq!(got, want, "divergence on {line:?} ({wire:?})");
        }
        // Both members shut down cleanly; the second is the last live
        // member (LEAVE refused) but its local invariants still hold.
        for &addr in &[a, b] {
            assert_eq!(ask_in(wire, addr, "SHUTDOWN"), "OK violations=0");
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
            assert_eq!(ask_in(WireMode::Text, addr, "SHUTDOWN"), "OK violations=0");
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
        let mut clients: Vec<Client> = booted.members.iter().map(|&a| text(a)).collect();
        let mut oracle = Engine::new(genesis());
        for i in 0..240u64 {
            let line = mixed_op(i);
            let client = &mut clients[(i % 2) as usize];
            let want = oracle.handle_line(&line).to_string();
            let got = client.roundtrip(&line).unwrap();
            assert_eq!(got, want, "divergence on op {i}: {line:?}");
            // The serving member is level with the coordinator the moment
            // it answers: its own operation was the reply's last record.
            assert_eq!(field(&client.roundtrip("STATS").unwrap(), "applied"), i + 1);
        }
        let status = fetch_status(&booted.coordinator).unwrap();
        assert_eq!((field(&status, "seq"), field(&status, "syncs")), (240, 2));
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
        let mut busy = text(b);
        let sat_out = RECORDS_PER_SYNC as u64 + 8;
        for i in 0..sat_out {
            let line = mixed_op(i);
            let want = oracle.handle_line(&line).to_string();
            let got = busy.roundtrip(&line).unwrap();
            assert_eq!(got, want, "divergence on op {i}: {line:?}");
        }
        let mut idle = text(a);
        assert_eq!(field(&idle.roundtrip("STATS").unwrap(), "applied"), 0);
        for line in ["ESTABLISH 0 3 64 256 64", "RELEASE 0", "RELEASE 7"] {
            let want = oracle.handle_line(line).to_string();
            let got = idle.roundtrip(line).unwrap();
            assert_eq!(got, want, "divergence on {line:?}");
        }
        let applied = field(&idle.roundtrip("STATS").unwrap(), "applied");
        assert_eq!(applied, sat_out + 3);
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
        let establish = link.roundtrip(&establish_op());
        assert_eq!(establish.unwrap(), CoordMsg::Done { op_seq: 0, seq: 1 });
        let op = MemberOp::FailLink { link: LinkId(0) };
        let forwarded = link.roundtrip(&ClusterMsg::Op { op });
        assert_eq!(forwarded.unwrap(), CoordMsg::Done { op_seq: 1, seq: 2 });

        let pulled = link.roundtrip(&ClusterMsg::Sync { applied: 0 }).unwrap();
        let CoordMsg::Records { seq: 2, records } = pulled else {
            panic!("expected both records, got {pulled:?}");
        };
        assert_eq!(records.len(), 2);
        let establish = link.roundtrip(&establish_op());
        assert_eq!(
            establish.unwrap(),
            CoordMsg::Records {
                seq: 3,
                records: vec![MemberOp::Establish { req: req() }]
            }
        );
        let op = MemberOp::RepairLink { link: LinkId(0) };
        assert_eq!(
            link.roundtrip(&ClusterMsg::Op { op }).unwrap(),
            CoordMsg::Records {
                seq: 4,
                records: vec![op]
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
        let local = coord.local.clone();
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
        let handle_line = |member: &ClusterMember, line: &str| {
            member
                .server
                .with_engine(|e| e.handle_line(line).to_string())
        };
        let stats = |member: &ClusterMember, key: &str| field(&handle_line(member, "STATS"), key);
        for (member, line) in honest {
            let got = handle_line(member, line);
            assert_eq!(got, oracle.handle_line(line).to_string());
        }

        // A is one record (B's last) behind; its next reply skips it.
        local.skip_records(true);
        let skipped = "RELEASE 0";
        let got = handle_line(a, skipped);
        assert!(got.starts_with("ERR 504 "), "got {got}");
        local.skip_records(false);
        // The coordinator had committed it all the same.
        oracle.handle_line(skipped);

        // A applied nothing from the refused reply: it still is the
        // coordinator's log replayed through its last honest exchange.
        assert_eq!(stats(a, "linked"), 0);
        assert_eq!(stats(a, "applied"), 3);
        let mut replayed = Member::new(9, genesis());
        replayed.apply(&lock_shrug(&local.shared).coord.records_since(0).unwrap()[..3]);
        assert_eq!(
            a.server
                .with_engine(|e| NetworkSnapshot::capture(e.network())),
            NetworkSnapshot::capture(replayed.net())
        );

        // B, two records behind now, is served as before.
        let line = "ESTABLISH 0 3 64 256 64";
        let got = handle_line(b, line);
        assert_eq!(got, oracle.handle_line(line).to_string());
        assert_eq!(stats(b, "applied"), 6);

        request_stop(&addr).unwrap();
        let report = coord_handle.join().unwrap().unwrap();
        assert_eq!((report.violations, report.seq, report.syncs), (0, 6, 2));
    }

    /// The member's client port reads through the same connection reader
    /// as `drqosd`: a line is capped, and a half-received one is dropped
    /// at the first idle poll after `SHUTDOWN`.
    #[test]
    fn the_member_port_caps_a_line_and_drops_a_half_line_at_shutdown() {
        let booted = boot(1);
        let Some(&addr) = booted.members.first() else {
            panic!("expected one member");
        };
        let mut hostile = text(addr);
        let flood = vec![b'x'; framing::MAX_FRAME_BYTES + 1];
        hostile.stream().write_all(&flood).unwrap();
        let reply = hostile.recv().unwrap();
        assert!(reply.starts_with("ERR 4 "), "answered: {reply:?}");
        let closed = hostile.recv().map_err(|e| e.kind());
        assert_eq!(closed, Err(io::ErrorKind::UnexpectedEof), "then closed");

        // One whole request first, so the connection has its reader; when
        // the half line lands relative to the flag then does not matter.
        let mut parked = text(addr);
        parked.stream().write_all(b"STATS\nES").unwrap();
        let stats = parked.recv().unwrap();
        assert!(stats.starts_with("OK ops="), "{stats:?}");
        assert_eq!(ask_in(WireMode::Text, addr, "SHUTDOWN"), "OK violations=0");
        let timeout = Some(Duration::from_secs(1));
        parked.stream().set_read_timeout(timeout).unwrap();
        let dropped = parked.recv().map_err(|e| e.kind());
        assert_eq!(dropped, Err(io::ErrorKind::UnexpectedEof), "parked client");
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

    fn req() -> EstablishRequest {
        EstablishRequest {
            src: drqos_topology::NodeId(0),
            dst: drqos_topology::NodeId(3),
            qos: drqos_core::qos::ElasticQos::paper_video(100),
        }
    }

    /// The `OP` a member's `ESTABLISH 0 3 100 500 100` sends.
    fn establish_op() -> ClusterMsg {
        ClusterMsg::Op {
            op: MemberOp::Establish { req: req() },
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

        // The survivor still commits establishes — at sequence 0: the
        // crash was no record.
        let establish = link0.roundtrip(&establish_op());
        assert_eq!(establish.unwrap(), CoordMsg::Done { op_seq: 0, seq: 1 });

        // A new joiner reclaims the crashed id without growing the roster.
        let _link2 = joined(&coordinator, 1);
        let status = fetch_status(&coordinator).unwrap();
        assert!(status.contains("alive=2"), "status was {status}");

        request_stop(&coordinator).unwrap();
        let report = coord_handle.join().unwrap().unwrap();
        assert_eq!(report.violations, 0);
        // The establish, and nothing for the crash or the rejoin.
        assert_eq!(report.seq, 1);
    }

    /// Only a joined link commits: an `ESTABLISH` from a link that never
    /// joined is refused with 500 and is no record.
    #[test]
    fn an_establish_from_a_link_that_never_joined_is_refused() {
        let (coordinator, coord_handle) = coordinator(2);
        let mut stranger = CoordLink::connect(&coordinator).unwrap();
        let establish = establish_op();
        let unknown = ClusterError::UnknownMember(u64::MAX).wire_code();
        assert_eq!(unknown, 500);
        assert_eq!(
            stranger.roundtrip(&establish).unwrap(),
            CoordMsg::Err { code: unknown }
        );
        let status = fetch_status(&coordinator).unwrap();
        assert!(status.contains(" seq=0 "), "status was {status}");
        // The link stays open, and once it has joined it commits.
        assert!(matches!(
            stranger.roundtrip(&ClusterMsg::Join).unwrap(),
            CoordMsg::Welcome { member: 0, seq: 0 }
        ));
        assert_eq!(
            stranger.roundtrip(&establish).unwrap(),
            CoordMsg::Done { op_seq: 0, seq: 1 }
        );
        request_stop(&coordinator).unwrap();
        let report = coord_handle.join().unwrap().unwrap();
        assert_eq!((report.violations, report.seq), (0, 1));
    }

    /// The byte patterns the protocol no longer has — `ABORT {ticket}`
    /// (opcode 0x13), a `RECORDS` reply carrying a tag-0 roster record, and
    /// the `PREPARE` and `COMMIT` only `benchmark/` still encodes — are
    /// refused like any other garbage: the link closes, a joined sender is
    /// crashed, and the other members keep being served.
    #[test]
    fn retired_byte_patterns_close_the_link_and_crash_the_sender() {
        let (coordinator, coord_handle) = coordinator(5);
        let mut survivor = joined(&coordinator, 0);
        let mut abort = vec![0x13];
        framing::put_u64(&mut abort, 0);
        // RECORDS {seq 0, one record: tag 0, a roster of two}.
        let mut records = vec![0x23];
        framing::put_u64(&mut records, 0);
        framing::put_u64(&mut records, 1);
        records.push(0);
        framing::put_u64(&mut records, 2);
        records.extend([1, 1]);
        let prepare = encode_cluster_msg(&ClusterMsg::Prepare { footprint: vec![] });
        let commit = encode_cluster_msg(&ClusterMsg::Commit {
            ticket: 0,
            req: drqos_cluster::proto::WireRequest::from_request(&req()),
        });
        let retired = [
            (1, abort, "roster=10111"),
            (2, records, "roster=10011"),
            (3, prepare, "roster=10001"),
            (4, commit, "roster=10000"),
        ];
        for (id, body, roster) in retired {
            let CoordLink::Tcp(mut sender) = joined(&coordinator, id) else {
                panic!("a socket link");
            };
            sender.write_all(&framing::finish(body)).unwrap();
            let closed = framing::read_frame(&mut sender);
            assert!(closed.is_err(), "m{id} got a reply: {closed:?}");
            let status = status_with(&coordinator, roster);
            assert!(status.contains(" seq=0 "), "status was {status}");
        }
        let establish = survivor.roundtrip(&establish_op());
        assert_eq!(establish.unwrap(), CoordMsg::Done { op_seq: 0, seq: 1 });
        request_stop(&coordinator).unwrap();
        let report = coord_handle.join().unwrap().unwrap();
        assert_eq!((report.violations, report.seq), (0, 1));
    }

    /// `run` returns only after every peer handler has, so each member's
    /// link is closed by then: its first forwarding verb answers 504 on
    /// the first try, and it still shuts down clean.
    #[test]
    fn a_member_with_a_dead_coordinator_answers_504_but_shuts_down() {
        let booted = boot(3);
        // Stop the coordinator out from under the members.
        request_stop(&booted.coordinator).unwrap();
        booted.coord_handle.join().unwrap().unwrap();

        for &addr in &booted.members {
            let mut client = text(addr);
            let mut ask = |line| client.roundtrip(line).unwrap();
            let [est, stats, bye] = ["ESTABLISH 0 3 64 256 64", "STATS", "SHUTDOWN"].map(&mut ask);
            assert!(
                est.starts_with("ERR 504 "),
                "{addr}: expected a link-down error, got {est:?}"
            );
            assert!(stats.contains("linked=0"), "stats was {stats:?}");
            assert_eq!(bye, "OK violations=0");
        }
        for h in booted.member_handles {
            assert_eq!(h.join().unwrap().unwrap().violations, 0);
        }
    }

    /// A joined peer parked on the first two bytes of a frame does not
    /// hold `run`: its handler drops the half at its next idle poll, and
    /// the peer reads EOF. `run` returns only after that handler has, so
    /// by then no handler holds the coordinator's state any more.
    #[test]
    fn a_peer_parked_on_half_a_frame_does_not_hold_the_stop() {
        let coord =
            ClusterCoordinator::bind("127.0.0.1:0", genesis(), 1, 7, RebalancePolicy::Bfs).unwrap();
        let coordinator = coord.local_addr().unwrap().to_string();
        let local = coord.local.clone();
        let coord_handle = thread::spawn(move || coord.run());
        let CoordLink::Tcp(mut parked) = joined(&coordinator, 0) else {
            panic!("a socket link");
        };
        let frame = framing::finish(encode_cluster_msg(&establish_op()));
        parked.write_all(&frame[..2]).unwrap();

        let asked = Instant::now();
        request_stop(&coordinator).unwrap();
        let report = coord_handle.join().unwrap().unwrap();
        let took = asked.elapsed();
        assert_eq!((report.violations, report.seq), (0, 0));
        assert!(
            took < Duration::from_millis(900),
            "the stop waited {took:?} on a parked half frame"
        );
        assert_eq!(
            Arc::strong_count(&local.shared),
            1,
            "a handler outlived run"
        );
        let dropped = parked.read(&mut [0u8; 8]);
        assert!(matches!(dropped, Ok(0)), "parked peer: {dropped:?}");
    }

    /// A frame that completes after the flag rose is late: the link
    /// closes unanswered and nothing is committed, whether the handler
    /// was still polling or had already gone.
    #[test]
    fn a_frame_completed_after_stop_is_not_served() {
        let (coordinator, coord_handle) = coordinator(1);
        let mut late = joined(&coordinator, 0);
        request_stop(&coordinator).unwrap();
        let refused = late.roundtrip(&establish_op());
        assert!(refused.is_err(), "a late OP was answered: {refused:?}");
        let report = coord_handle.join().unwrap().unwrap();
        assert_eq!((report.violations, report.seq), (0, 0));
    }

    // -----------------------------------------------------------------
    // The in-process federation: members on `LocalCoordinator` links.
    // -----------------------------------------------------------------

    fn ring8() -> Network {
        Network::new(ring(8).unwrap(), NetworkConfig::default())
    }

    /// `n` seeded admissions between distinct nodes of the ring of eight.
    fn establishes(n: usize, rng: &mut drqos_sim::rng::Rng) -> Vec<MemberOp> {
        (0..n)
            .map(|_| {
                let s = rng.range_usize(8);
                let mut d = rng.range_usize(7);
                if d >= s {
                    d += 1;
                }
                MemberOp::Establish {
                    req: EstablishRequest {
                        src: drqos_topology::NodeId(s),
                        dst: drqos_topology::NodeId(d),
                        qos: drqos_core::qos::ElasticQos::paper_video(100),
                    },
                }
            })
            .collect()
    }

    /// Members of `local`, joined one after another.
    fn joined_members(local: &LocalCoordinator, n: usize) -> Vec<MemberState> {
        (0..n).map(|_| local.join(ring8()).unwrap()).collect()
    }

    /// Commits `ops` through carriers rotating over `members` (`carried`
    /// counts the turns) and demands each carrier's replayed outcome equal
    /// the oracle's.
    fn carry_both(
        members: &mut [MemberState],
        carried: &mut usize,
        oracle: &mut Network,
        ops: &[MemberOp],
    ) {
        for &op in ops {
            let carrier = &mut members[*carried % members.len()];
            *carried += 1;
            assert_eq!(carrier.commit(op), Ok(Some(op.apply(oracle))), "{op:?}");
        }
    }

    fn authority_snapshot(local: &LocalCoordinator) -> NetworkSnapshot {
        local.authority(|net, _| NetworkSnapshot::capture(net))
    }

    /// Churn between operations must not disturb the replicated state:
    /// after a crash, a rejoin and a LEAVE the survivors still match the
    /// oracle exactly.
    #[test]
    fn churn_preserves_oracle_equivalence() {
        let local = LocalCoordinator::new(ring8(), 3);
        let mut members = joined_members(&local, 3);
        let (mut oracle, mut carried) = (ring8(), 0);
        let mut rng = drqos_sim::rng::Rng::seed_from_u64(7);
        carry_both(
            &mut members,
            &mut carried,
            &mut oracle,
            &establishes(10, &mut rng),
        );
        // A dropped link is a crash; the rejoiner reclaims its id.
        drop(members.remove(1));
        carry_both(
            &mut members,
            &mut carried,
            &mut oracle,
            &establishes(10, &mut rng),
        );
        members.insert(1, local.join(ring8()).unwrap());
        assert_eq!(members[1].id(), 1);
        members.remove(0).leave();
        carry_both(
            &mut members,
            &mut carried,
            &mut oracle,
            &establishes(10, &mut rng),
        );
        let want = NetworkSnapshot::capture(&oracle);
        assert_eq!(authority_snapshot(&local), want);
        // The rejoined member replayed the whole history from genesis and
        // must equal the oracle too.
        for m in &mut members {
            m.sync().unwrap();
            let got = NetworkSnapshot::capture(m.net());
            assert_eq!(got, want, "replica m{} diverged after churn", m.id());
        }
    }

    /// A carrier that crashes before its operation is sent hands the
    /// operation to a survivor: it is committed exactly once, and the run
    /// still matches the serial oracle.
    #[test]
    fn no_double_commit_across_a_carrier_crash() {
        let local = LocalCoordinator::new(ring8(), 3);
        let mut members = joined_members(&local, 3);
        let (mut oracle, mut carried) = (ring8(), 0);
        let ops = establishes(16, &mut drqos_sim::rng::Rng::seed_from_u64(99));
        carry_both(&mut members, &mut carried, &mut oracle, &ops[..5]);
        // The sixth operation is m2's to carry.
        drop(members.remove(2));
        carry_both(&mut members, &mut carried, &mut oracle, &ops[5..]);
        assert_eq!(
            authority_snapshot(&local),
            NetworkSnapshot::capture(&oracle)
        );
        // One record per operation — each committed once.
        let s = lock_shrug(&local.shared);
        assert_eq!(s.coord.records_since(0).unwrap(), ops);
        assert_eq!(s.coord.alive(), [true, true, false]);
    }

    /// The dropped-record fault: the authority is still right, the
    /// carrier's own replay never reaches the lost record, and every
    /// replica, levelled, differs from the authority.
    #[test]
    fn a_dropped_record_leaves_every_replica_behind() {
        let local = LocalCoordinator::new(ring8(), 2);
        let mut members = joined_members(&local, 2);
        let mut oracle = ring8();
        let ops = establishes(6, &mut drqos_sim::rng::Rng::seed_from_u64(5));
        let carried: Vec<_> = ops
            .iter()
            .enumerate()
            .map(|(i, &op)| {
                let want = op.apply(&mut oracle);
                let mut commit = || members[i % 2].commit(op);
                let got = match i {
                    0 => seam::with(Seam::DropRecord, commit),
                    _ => commit(),
                };
                (got, want)
            })
            .collect();
        assert_eq!(carried[0].0, Ok(None), "the first admission left no record");
        let want = NetworkSnapshot::capture(&oracle);
        assert_eq!(authority_snapshot(&local), want);
        assert_eq!(local.authority(|_, seq| seq), ops.len() as u64 - 1);
        for m in &mut members {
            m.sync().unwrap();
            assert_ne!(NetworkSnapshot::capture(m.net()), want, "m{}", m.id());
        }
    }

    /// A link `3 × RECORDS_PER_SYNC + 5` records behind: its commit is
    /// answered `DONE`, and four `SYNC`s — three full frames, then the
    /// rest with its own operation last — bring it level.
    #[test]
    fn a_link_three_frames_behind_catches_up_in_four_syncs() {
        let local = LocalCoordinator::new(ring8(), 2);
        let joined = || {
            let mut link = CoordLink::Local(PeerLink {
                coordinator: local.clone(),
                peer: Peer::default(),
            });
            let welcome = link.roundtrip(&ClusterMsg::Join).unwrap();
            assert!(matches!(welcome, CoordMsg::Welcome { .. }), "{welcome:?}");
            link
        };
        let (mut busy, mut idle) = (joined(), joined());
        let level = idle.roundtrip(&ClusterMsg::Sync { applied: 0 }).unwrap();
        assert_eq!(
            level,
            CoordMsg::Records {
                seq: 0,
                records: vec![]
            }
        );
        let behind = 3 * RECORDS_PER_SYNC as u64 + 5;
        let mut ops = establishes(
            behind as usize + 1,
            &mut drqos_sim::rng::Rng::seed_from_u64(3),
        );
        let own = ops.pop().unwrap();
        for &op in &ops {
            busy.roundtrip(&ClusterMsg::Op { op }).unwrap();
        }
        let done = idle.roundtrip(&ClusterMsg::Op { op: own }).unwrap();
        assert_eq!(
            done,
            CoordMsg::Done {
                op_seq: behind,
                seq: behind + 1
            }
        );
        ops.push(own);
        let mut applied = 0;
        for want in [RECORDS_PER_SYNC, RECORDS_PER_SYNC, RECORDS_PER_SYNC, 6] {
            let reply = idle.roundtrip(&ClusterMsg::Sync { applied }).unwrap();
            let at = applied as usize;
            let records = ops.get(at..at + want).unwrap().to_vec();
            assert_eq!(
                reply,
                CoordMsg::Records {
                    seq: behind + 1,
                    records
                }
            );
            applied += want as u64;
        }
        assert_eq!(applied, behind + 1);
        // One level-setting pull, then the four.
        assert_eq!(lock_shrug(&local.shared).syncs, 5);
    }

    /// Forwarded failure/repair/release ops flow through the oplog and
    /// keep replicas synced.
    #[test]
    fn forwarded_ops_replicate() {
        let local = LocalCoordinator::new(ring8(), 3);
        let mut members = joined_members(&local, 3);
        let (mut oracle, mut carried) = (ring8(), 0);
        let mut rng = drqos_sim::rng::Rng::seed_from_u64(11);
        carry_both(
            &mut members,
            &mut carried,
            &mut oracle,
            &establishes(8, &mut rng),
        );
        let link = oracle.graph().links().next().unwrap().id();
        let id = oracle.connections().next().unwrap().id();
        let ops = [
            MemberOp::FailLink { link },
            MemberOp::RepairLink { link },
            MemberOp::Release { id },
        ];
        carry_both(&mut members, &mut carried, &mut oracle, &ops);
        for m in &mut members {
            m.sync().unwrap();
            assert_eq!(
                NetworkSnapshot::capture(m.net()),
                NetworkSnapshot::capture(&oracle)
            );
        }
    }
}
