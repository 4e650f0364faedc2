//! TCP daemons for the cluster federation: the coordinator process that
//! owns the authoritative [`Network`] and its oplog, and member processes
//! that serve the ordinary client text protocol backed by a full replica
//! plus the inter-daemon protocol of [`drqos_cluster::proto`].
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
//! Every client verb that changes state — `ESTABLISH` among them — is one
//! [`drqos_cluster::coordinator::MemberOp`] and one exchange: `OP` →
//! `RECORDS {seq, records}`, every oplog record this link has not been
//! sent yet, the operation's own last. The coordinator commits it at its
//! sequential point ([`Coordinator::forward`]); the member plans nothing.
//! It replays the records and renders the reply from its *own* outcome of
//! the last one.
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
//! equivalence against the monolithic engine.
//!
//! ## Churn
//!
//! A member daemon that loses its coordinator link answers every
//! forwarding command with wire code 504 (coordinator link down) but keeps
//! serving `SNAPSHOT`-free local commands and its own `SHUTDOWN`. A
//! member *connection* that reaches EOF at the coordinator without a
//! graceful `LEAVE` — or sends a frame the coordinator does not serve — is
//! a **crash**: the coordinator marks its roster slot dead.

use crate::conn::{accept_until, lock_shrug, Conn, POLL_INTERVAL};
use crate::engine::{member_op, render_outcome, render_violations, snapshot_payload, wire_err};
use crate::error::ProtocolError;
use crate::protocol::{self, Request, Response};
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
                return Some(err_of(ClusterError::UnknownMember(u64::MAX)));
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
    })
}

/// Serves one inter-daemon connection. A connection that joined and ends
/// without a `LEAVE` — EOF, or any framing, protocol or write error — is a
/// member **crash**: its slot goes dead.
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
        let _ = s.coord.leave(m);
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
        let Some(reply) = handle_cluster_msg(&mut lock_shrug(shared), peer, msg) else {
            break;
        };
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

    /// Sends the `OP` that commits one operation and replays the oplog up
    /// to it: the outcome this replica replayed for it, or — inner `Err`
    /// — the coordinator's refusal as the client's reply. Even a
    /// rejected admission is a record, so the oplog holds every attempt
    /// exactly like the monolithic engine's. The records normally ride on
    /// the reply, the committed operation last; a `RECORDS` that does not
    /// start where the replica stands is a failed exchange (nothing is
    /// applied, the caller gives the link up), because replaying past a
    /// gap is a diverged replica that still answers clients.
    fn commit(&mut self, op: MemberOp) -> io::Result<Result<Option<ApplyOutcome>, Response>> {
        let link = self.link.as_mut().ok_or_else(link_down)?;
        match link.roundtrip(&ClusterMsg::Op { op })? {
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
        Ok(match req {
            Request::Snapshot => {
                self.catch_up()?;
                Response::Ok(snapshot_payload(self.replica.net()))
            }
            Request::Stats => self.stats(),
            Request::Shutdown => self.shutdown(),
            // Every other verb is a forwarded row of the table. QoS
            // validation is local, exactly like the engine: a malformed
            // range never reaches the coordinator.
            _ => match member_op(req) {
                Some(Ok(op)) => match self.commit(op)? {
                    Ok(outcome) => render_outcome(self.replica.net(), outcome),
                    Err(refused) => refused,
                },
                Some(Err(refused)) => refused,
                None => ProtocolError::internal("verb is neither local nor forwarded").into(),
            },
        })
    }

    /// Parses and serves one client line; the flag is true when the line
    /// was a `SHUTDOWN` and the daemon should stop accepting. A failed
    /// coordinator exchange poisons the link: the framed stream cannot be
    /// resynchronized, so this and every later forwarding command answer
    /// 504 (coordinator link down) until the daemon is restarted.
    fn handle_line(&mut self, line: &str) -> (Response, bool) {
        self.ops = self.ops.saturating_add(1);
        let parsed = protocol::parse(line);
        let stop = matches!(parsed, Ok(Request::Shutdown));
        let resp = match parsed.map(|req| self.dispatch(&req)) {
            Ok(Ok(resp)) => resp,
            Ok(Err(_)) => {
                self.link = None;
                let down = ClusterError::CoordinatorLinkDown;
                wire_err(down.wire_code(), down)
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
    use drqos_core::network::{EstablishRequest, NetworkConfig};
    use drqos_core::NetworkSnapshot;
    use drqos_topology::regular::ring;
    use drqos_topology::LinkId;
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
            let mut sender = joined(&coordinator, id);
            sender.stream.write_all(&framing::finish(body)).unwrap();
            let closed = framing::read_frame(&mut sender.stream);
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
            "expected a link-down error, got {est:?}"
        );
        assert!(stats.contains("linked=0"), "stats was {stats:?}");
        assert_eq!(bye, "OK violations=0");
        for h in booted.member_handles {
            assert_eq!(h.join().unwrap().unwrap().violations, 0);
        }
    }
}
