//! The client front of `drqosd` and of a federation member, whose engine
//! commits at its coordinator (`crate::clusterd`): std-only TCP, one
//! locked engine call per request.
//!
//! Architecture (one box per thread):
//!
//! ```text
//!  client ──TCP──▶ reader thread ──count──▶ lock(Engine) ──▶ reply
//!                      ▲            (DRQOS_QUEUE_DEPTH full → BUSY)
//!                    accept loop (spawns one reader per connection)
//! ```
//!
//! * Each reader serves its own connection: it takes one request at a
//!   time off it (`crate::conn`: its canonical text line, in either
//!   framing), makes one engine call under the shared `Mutex<Engine>`,
//!   and writes the reply itself. The coordinator's peer port
//!   (`crate::clusterd`) serves the same way.
//! * `DRQOS_QUEUE_DEPTH` caps the requests waiting for the engine or
//!   holding it. The count is an atomic taken before the lock, so a full
//!   count answers `BUSY` at once and the request never reaches the
//!   engine (backpressure).
//! * `SHUTDOWN` is graceful: its reader raises the flag, waits until every
//!   request already counted has been served, runs `check_invariants()`
//!   under the lock, replies, and only then hands the report to
//!   [`Server::run`]. A request counted after the check is answered
//!   `ERR 11`; nothing reaches the engine after it.
//! * The accept loop blocks in `accept`, so a client is served as soon as
//!   it connects. [`Server::run`] wakes it once it has the report and
//!   joins it, so the port is closed by the time `run` returns.

use crate::conn::{accept_until, lock_shrug, wake, Conn};
use crate::engine::{Engine, Handled};
use crate::error::ProtocolError;
use crate::protocol::Response;
use drqos_core::env::{self, WireMode};
use drqos_core::network::Network;
use drqos_sim::seam::{self, Seam};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// What a finished server run reports.
#[derive(Debug)]
pub struct ServiceReport {
    /// Invariant violations found by the shutdown check (clean exit ⇔
    /// empty).
    pub violations: usize,
    /// Final request-metrics dump (the `service_runtime.json` payload).
    pub metrics_json: String,
    /// Total requests handled by the engine.
    pub ops: u64,
}

/// The engine and how far shutdown has got, behind the one lock.
struct State {
    engine: Engine,
    /// The `SHUTDOWN` reply, set once the final check has run: from then
    /// on no request reaches the engine.
    closed: Option<Response>,
    /// The `SHUTDOWN` reader has written that reply; [`Server::run`] may
    /// report.
    replied: bool,
}

/// What every reader thread and [`Server::run`] share.
struct Shared {
    state: Mutex<State>,
    /// Woken when a request leaves the engine under a raised flag, and when
    /// the `SHUTDOWN` reader has replied.
    settled: Condvar,
    /// Requests counted in: waiting for the engine or holding it.
    pending: AtomicUsize,
    shutdown: AtomicBool,
    /// `BUSY` answers (the engine's `STATS` counter; they never reach it).
    busy: Arc<AtomicU64>,
}

/// What one request came to.
enum Served {
    Reply(Response),
    /// Counted after the final check: answered `ERR 11`, then closed.
    Late,
    /// The `SHUTDOWN` reply, sent after the drain and the final check.
    Final(Response),
}

impl Shared {
    fn new(engine: Engine) -> Self {
        Self {
            busy: engine.busy_counter(),
            state: Mutex::new(State {
                engine,
                closed: None,
                replied: false,
            }),
            settled: Condvar::new(),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Counts a request in unless `depth` are already counted.
    fn admit(&self, depth: usize) -> bool {
        self.pending
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < depth).then_some(n + 1)
            })
            .is_ok()
    }

    /// Serves one request read off a connection: `BUSY` without touching
    /// the engine when the count is full.
    fn serve(&self, line: &str, depth: usize) -> Served {
        if !self.admit(depth) {
            self.busy.fetch_add(1, Ordering::Relaxed);
            return Served::Reply(Response::Busy);
        }
        self.serve_admitted(line)
    }

    /// The one locked engine call of a counted request. The count drops
    /// under the lock, so a drain waiting on it cannot miss the wakeup.
    fn serve_admitted(&self, line: &str) -> Served {
        let mut state = lock_shrug(&self.state);
        let handled = if state.closed.is_some() {
            None
        } else {
            Some(state.engine.handle_one(line))
        };
        self.pending.fetch_sub(1, Ordering::AcqRel);
        if self.shutdown.load(Ordering::Acquire) {
            self.settled.notify_all();
        }
        match handled {
            None => Served::Late,
            Some(Handled::Reply(resp)) => Served::Reply(resp),
            Some(Handled::ShutdownRequested) => Served::Final(self.drain(state)),
        }
    }

    /// Raises the flag, lets every request counted so far be served, then
    /// runs the final check — all before the lock is given up for good.
    fn drain(&self, mut state: MutexGuard<'_, State>) -> Response {
        self.shutdown.store(true, Ordering::Release);
        if seam::armed(Seam::CheckBeforeDrain) {
            close(&mut state);
        }
        let mut state = self
            .settled
            .wait_while(state, |s| {
                s.closed.is_none() && self.pending.load(Ordering::Acquire) > 0
            })
            .unwrap_or_else(PoisonError::into_inner);
        close(&mut state)
    }

    /// Tells [`Server::run`] the `SHUTDOWN` reply is out.
    fn hand_off(&self) {
        lock_shrug(&self.state).replied = true;
        self.settled.notify_all();
    }

    /// Waits for [`Shared::hand_off`], then reports.
    fn report(&self) -> ServiceReport {
        let state = self
            .settled
            .wait_while(lock_shrug(&self.state), |s| !s.replied)
            .unwrap_or_else(PoisonError::into_inner);
        let violations = match state.closed {
            Some(Response::Ok(_)) => 0,
            _ => state.engine.network().check_invariants().len(),
        };
        ServiceReport {
            violations,
            metrics_json: state.engine.metrics().to_json("drqosd"),
            ops: state.engine.metrics().total_ops(),
        }
    }
}

/// The final check, run once: a second `SHUTDOWN` gets the first's reply.
fn close(state: &mut State) -> Response {
    let State { engine, closed, .. } = state;
    closed
        .get_or_insert_with(|| engine.finish_shutdown())
        .clone()
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    queue_depth: usize,
    wire: WireMode,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) over `net`,
    /// reading `DRQOS_QUEUE_DEPTH` / `DRQOS_WIRE` from the environment.
    ///
    /// # Errors
    ///
    /// Any socket-binding error.
    pub fn bind(addr: &str, net: Network) -> io::Result<Self> {
        Self::over(addr, Engine::new(net))
    }

    /// [`Server::bind`] over an engine already built (a member's).
    pub(crate) fn over(addr: &str, engine: Engine) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            shared: Arc::new(Shared::new(engine)),
            queue_depth: env::queue_depth(),
            wire: env::wire(),
        })
    }

    /// The bound address (read the ephemeral port from here).
    ///
    /// # Errors
    ///
    /// Propagates `TcpListener::local_addr` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Returns the server unchanged: there is no batch left to size. It
    /// stays only because `benchmark/` calls it (ROADMAP 4(c)).
    pub fn with_batch(self, _batch: usize) -> Self {
        self
    }

    /// Overrides the queue depth (tests; production uses
    /// `DRQOS_QUEUE_DEPTH`).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Overrides the wire mode (tests; production uses `DRQOS_WIRE`).
    pub fn with_wire(mut self, wire: WireMode) -> Self {
        self.wire = wire;
        self
    }

    /// The wire mode this server will speak.
    pub fn wire(&self) -> WireMode {
        self.wire
    }

    /// One call on the engine of a server that is not running.
    #[cfg(test)]
    pub(crate) fn with_engine<R>(&self, call: impl FnOnce(&mut Engine) -> R) -> R {
        call(&mut lock_shrug(&self.shared.state).engine)
    }

    /// Serves until a `SHUTDOWN` has been answered, then returns the final
    /// report. Blocks the calling thread (spawn it for in-process use).
    ///
    /// # Errors
    ///
    /// Socket-configuration errors; per-connection I/O errors only
    /// terminate that connection's reader.
    pub fn run(self) -> io::Result<ServiceReport> {
        let Self {
            listener,
            shared,
            queue_depth,
            wire,
        } = self;
        let addr = listener.local_addr()?;
        let accepting = Arc::clone(&shared);
        // It owns the listener; the readers it spawns are detached and
        // leave at their next idle poll under the flag.
        let accept_thread = thread::spawn(move || {
            accept_until(&listener, &accepting.shutdown, || {
                let shared = Arc::clone(&accepting);
                move |stream| reader_loop(stream, wire, queue_depth, &shared)
            });
        });
        let report = shared.report();
        // The drain raised the flag before the report could be taken. A
        // failed wake leaves the accept thread blocked, so it is joined
        // only after one that connected.
        if wake(addr).is_ok() {
            let _ = accept_thread.join();
        }
        Ok(report)
    }
}

/// Serves one client's requests, in either framing: the [`Conn`] hands
/// over canonical text lines (and answers what never becomes one — see
/// [`Conn::next_request`]), so the engine is wire-agnostic and the reply
/// comes back as a [`Response`] for the connection to write its own way.
fn reader_loop(stream: TcpStream, wire: WireMode, depth: usize, shared: &Shared) -> io::Result<()> {
    let mut conn = Conn::open(stream, wire)?;
    while let Some(line) = conn.next_request(&shared.shutdown)? {
        match shared.serve(&line, depth) {
            Served::Reply(resp) => conn.reply(&resp)?,
            Served::Late => return conn.reply(&ProtocolError::shutting_down().into()),
            Served::Final(resp) => {
                let written = conn.reply(&resp);
                shared.hand_off();
                return written;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clusterd::{request_stop, ClusterCoordinator, ClusterMember};
    use crate::{frame, protocol};
    use drqos_core::env::RebalancePolicy;
    use drqos_core::network::NetworkConfig;
    use drqos_topology::regular;
    use std::io::{BufRead, BufReader, Write};
    use std::time::{Duration, Instant};

    fn ring() -> Network {
        Network::new(regular::ring(6).unwrap(), NetworkConfig::default())
    }

    fn client_session(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut replies = Vec::new();
        for line in lines {
            writeln!(writer, "{line}").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            replies.push(resp.trim_end().to_string());
        }
        replies
    }

    fn test_server() -> (SocketAddr, thread::JoinHandle<io::Result<ServiceReport>>) {
        let server = Server::bind("127.0.0.1:0", ring()).expect("bind ephemeral");
        let addr = server.local_addr().unwrap();
        let handle = thread::spawn(move || server.run());
        (addr, handle)
    }

    /// The daemons whose client front this module is.
    #[derive(Debug, Clone, Copy)]
    enum Subject {
        Drqosd,
        /// A federation member: the same server over an engine that
        /// commits at a coordinator.
        Member,
    }

    const SUBJECTS: [Subject; 2] = [Subject::Drqosd, Subject::Member];

    /// A bound, not yet running server of `subject` over the ring of six,
    /// and what stops its coordinator once the server has reported.
    fn bound(subject: Subject) -> (Server, Box<dyn FnOnce()>) {
        match subject {
            Subject::Drqosd => (
                Server::bind("127.0.0.1:0", ring()).unwrap(),
                Box::new(|| {}),
            ),
            Subject::Member => {
                let coord =
                    ClusterCoordinator::bind("127.0.0.1:0", ring(), 1, 0, RebalancePolicy::Bfs)
                        .unwrap();
                let at = coord.local_addr().unwrap().to_string();
                let coordinating = thread::spawn(move || coord.run());
                let member = ClusterMember::bind("127.0.0.1:0", ring(), &at).unwrap();
                let stop = move || {
                    request_stop(&at).unwrap();
                    assert_eq!(coordinating.join().unwrap().unwrap().violations, 0);
                };
                (member.server, Box::new(stop))
            }
        }
    }

    /// Spins until `cond` holds; a 10 s deadline turns a hang into a
    /// failure.
    fn await_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn serves_a_session_and_shuts_down_clean() {
        let (addr, handle) = test_server();
        let replies = client_session(
            addr,
            &[
                "ESTABLISH 0 3 100 500 100",
                "SNAPSHOT",
                "RELEASE 0",
                "BOGUS",
                "SHUTDOWN",
            ],
        );
        assert!(replies[0].starts_with("OK id=0"), "{}", replies[0]);
        assert!(replies[1].starts_with("OK conns=1"), "{}", replies[1]);
        assert_eq!(replies[2], "OK freed=500");
        assert!(replies[3].starts_with("ERR 2 "), "{}", replies[3]);
        assert_eq!(replies[4], "OK violations=0");
        let report = handle.join().unwrap().unwrap();
        assert_eq!(report.violations, 0);
        assert_eq!(report.ops, 5);
        assert!(report.metrics_json.contains("\"admitted\":1"));
    }

    /// The drain race, white-box: a reader counts its `ESTABLISH` in while
    /// the flag is still clear, and reaches the engine lock only after
    /// `SHUTDOWN` has raised it. Returns the raced reply, the `SHUTDOWN`
    /// reply and the engine's op count.
    fn race_the_drain(check_before_drain: bool) -> (String, String, u64) {
        let shared = Shared::new(Engine::new(ring()));
        let render = |served: Served| match served {
            Served::Reply(resp) | Served::Final(resp) => resp.to_string(),
            Served::Late => "late".to_string(),
        };
        thread::scope(|scope| {
            assert!(shared.admit(1), "the raced request is read and counted");
            assert!(
                !shared.shutdown.load(Ordering::Acquire),
                "race precondition"
            );
            let stop = scope.spawn(|| {
                let stop = || render(shared.serve("SHUTDOWN", 2));
                match check_before_drain {
                    true => seam::with(Seam::CheckBeforeDrain, stop),
                    false => stop(),
                }
            });
            await_until("the flag", || shared.shutdown.load(Ordering::Acquire));
            let raced = render(shared.serve_admitted("ESTABLISH 0 3 100 500 100"));
            let stop = stop.join().unwrap();
            let ops = lock_shrug(&shared.state).engine.metrics().total_ops();
            (raced, stop, ops)
        })
    }

    /// Before the drain waited for racing readers, the check ran as soon as
    /// `SHUTDOWN` reached the engine: a request read just before the flag
    /// then reached the lock after the check, and was never served. Now the
    /// drain waits for every counted request, so it gets a real engine
    /// reply, and the check sees the state it left.
    #[test]
    fn shutdown_drain_serves_a_command_sent_after_the_flag_check() {
        let (raced, stop, ops) = race_the_drain(false);
        assert!(
            raced.starts_with("OK id="),
            "raced ESTABLISH served: {raced}"
        );
        assert_eq!(stop, "OK violations=0");
        assert_eq!(ops, 2, "engine must have seen both commands");
    }

    /// The mutant the test above must catch: the check before the drain
    /// leaves the raced request to arrive at a closed engine.
    #[test]
    fn checking_before_the_drain_strands_the_raced_command() {
        let (raced, stop, ops) = race_the_drain(true);
        assert_eq!(
            raced, "late",
            "the raced ESTABLISH never reached the engine"
        );
        assert_eq!(stop, "OK violations=0");
        assert_eq!(ops, 1);
    }

    /// The drain race, end to end: four clients hammer `ESTABLISH` while a
    /// fifth fires `SHUTDOWN` mid-burst. Every client must see a
    /// well-formed reply for each command until the server closes on it —
    /// never a hang, never a torn line — and the daemon must still exit
    /// invariant-clean.
    /// A member's final check gives its coordinator link up, so a request
    /// that reached its engine after that check would be answered 504.
    #[test]
    fn shutdown_concurrent_with_establish_bursts_never_strands_a_client() {
        for subject in SUBJECTS {
            shutdown_concurrent_with_establish_bursts(subject);
        }
    }

    fn shutdown_concurrent_with_establish_bursts(subject: Subject) {
        let (server, stop_coordinator) = bound(subject);
        let addr = server.local_addr().unwrap();
        let handle = thread::spawn(move || server.run());
        thread::scope(|scope| {
            for c in 0..4usize {
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).unwrap();
                    let mut writer = stream.try_clone().unwrap();
                    let mut reader = BufReader::new(stream);
                    for _ in 0..100 {
                        if writeln!(writer, "ESTABLISH {} {} 100 500 100", c, (c + 3) % 6).is_err()
                        {
                            break; // server closed mid-burst: allowed
                        }
                        let mut resp = String::new();
                        match reader.read_line(&mut resp) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => {
                                let r = resp.trim_end();
                                assert!(
                                    r.starts_with("OK ") || r.starts_with("ERR ") || r == "BUSY",
                                    "malformed reply mid-shutdown: {r:?}"
                                );
                                assert!(
                                    !r.starts_with("ERR 504 "),
                                    "{subject:?} served a request after its final check"
                                );
                                if r.starts_with("ERR 11 ") {
                                    break; // shutting down; reader closes next
                                }
                            }
                        }
                    }
                });
            }
            scope.spawn(move || {
                thread::sleep(Duration::from_millis(5));
                let stream = TcpStream::connect(addr).expect("connect");
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                writeln!(writer, "SHUTDOWN").unwrap();
                let mut resp = String::new();
                reader.read_line(&mut resp).unwrap();
                assert_eq!(resp.trim_end(), "OK violations=0");
            });
        });
        let report = handle.join().unwrap().unwrap();
        assert_eq!(report.violations, 0);
        stop_coordinator();
    }

    /// One closed-loop binary session: encode requests, decode response
    /// frames, and confirm the replies equal the text protocol's — plus a
    /// malformed frame answered with a text-protocol code and a clean
    /// binary shutdown.
    #[test]
    fn binary_wire_serves_a_session_and_shuts_down_clean() {
        let server = Server::bind("127.0.0.1:0", ring())
            .unwrap()
            .with_wire(WireMode::Binary);
        let addr = server.local_addr().unwrap();
        let handle = thread::spawn(move || server.run());
        fn roundtrip(stream: &mut TcpStream, cmd: &str) -> String {
            let req = protocol::parse(cmd).unwrap();
            stream.write_all(&frame::encode_request(&req)).unwrap();
            stream.flush().unwrap();
            let body = frame::read_frame(stream).unwrap();
            frame::decode_response(&body).unwrap().to_string()
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        assert!(roundtrip(&mut stream, "ESTABLISH 0 3 100 500 100").starts_with("OK id=0"));
        assert!(roundtrip(&mut stream, "SNAPSHOT").starts_with("OK conns=1"));
        assert_eq!(roundtrip(&mut stream, "RELEASE 0"), "OK freed=500");
        // A malformed frame (unknown opcode) answers with the text
        // protocol's code 2 and does not desynchronize the stream.
        stream
            .write_all(&[1u8, 0, 0, 0, 99]) // len=1, opcode 99
            .unwrap();
        stream.flush().unwrap();
        let body = frame::read_frame(&mut stream).unwrap();
        let resp = frame::decode_response(&body).unwrap();
        assert!(
            matches!(resp, Response::Err { code: 2, .. }),
            "unknown opcode: {resp}"
        );
        assert_eq!(roundtrip(&mut stream, "SHUTDOWN"), "OK violations=0");
        let report = handle.join().unwrap().unwrap();
        assert_eq!(report.violations, 0);
        assert_eq!(report.ops, 4, "decode errors never reach the engine");
    }

    /// `run` joins its accept loop before it returns, so a client that
    /// comes after the report is refused, not left in a queue nobody
    /// reads.
    #[test]
    fn a_returned_server_has_closed_its_port() {
        for subject in SUBJECTS {
            let (server, stop_coordinator) = bound(subject);
            let addr = server.local_addr().unwrap();
            let handle = thread::spawn(move || server.run());
            assert_eq!(client_session(addr, &["SHUTDOWN"]), ["OK violations=0"]);
            assert_eq!(handle.join().unwrap().unwrap().violations, 0);
            let late = TcpStream::connect(addr).map_err(|e| e.kind());
            assert_eq!(
                late.err(),
                Some(io::ErrorKind::ConnectionRefused),
                "{subject:?}"
            );
            stop_coordinator();
        }
    }

    #[test]
    fn env_knobs_have_sane_defaults() {
        // (Reads the real environment; CI never sets these for unit tests.)
        assert!(env::queue_depth() >= 1);
    }

    /// Depth 1, the engine lock held: one connection's request is counted
    /// and waits for the engine, so a second connection's is answered
    /// `BUSY` at once, is counted by `STATS`, and never reaches the engine.
    #[test]
    fn a_full_depth_answers_busy_without_reaching_the_engine() {
        for subject in SUBJECTS {
            full_depth_answers_busy(subject);
        }
    }

    fn full_depth_answers_busy(subject: Subject) {
        let (server, stop_coordinator) = bound(subject);
        let server = server.with_queue_depth(1);
        let (addr, shared) = (server.local_addr().unwrap(), Arc::clone(&server.shared));
        let handle = thread::spawn(move || server.run());
        let held = lock_shrug(&shared.state);
        let waiting = TcpStream::connect(addr).unwrap();
        let mut writer = waiting.try_clone().unwrap();
        let mut reader = BufReader::new(waiting);
        writeln!(writer, "SNAPSHOT").unwrap();
        await_until("the first request to be counted", || {
            shared.pending.load(Ordering::Acquire) == 1
        });
        assert_eq!(client_session(addr, &["SNAPSHOT"]), ["BUSY"]);
        drop(held);
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        assert!(first.starts_with("OK conns=0"), "{first}");
        drop((writer, reader));
        let replies = client_session(addr, &["STATS", "SHUTDOWN"]);
        let stats = replies[0].strip_prefix("OK ").expect("STATS succeeds");
        assert_eq!(protocol::payload_field(stats, "busy"), Some(1));
        assert_eq!(protocol::payload_field(stats, "ops"), Some(1), "{stats}");
        assert_eq!(replies[1], "OK violations=0");
        let report = handle.join().unwrap().unwrap();
        assert_eq!(report.ops, 3, "SNAPSHOT, STATS, SHUTDOWN: BUSY never ran");
        stop_coordinator();
    }
}
