//! The end-to-end run: real daemons, in-process, over loopback TCP.
//!
//! Everything here goes through the daemon-level surface only — the
//! public constructors of `Server`, `ClusterCoordinator`, `ClusterMember`
//! and `Engine`, the wire codecs a client needs, and the topology
//! builders — so a refactor underneath cannot break the yardstick.
//! Load comes from this process with at most two client threads and two
//! client connections, closed loop: the wire contract allows one request
//! in flight per connection.

use crate::ops::{Exec, Kind, Script, Spec, Topology, Transport};
use crate::slices::{nanos, sliced, Slice, NOMINAL_NS, SLICES};
use crate::stats::{slice_rates, Digest, Latency};
use drqos_bench::experiments::paper_graph;
use drqos_core::env::{RebalancePolicy, WireMode};
use drqos_core::network::{Network, NetworkConfig};
use drqos_service::clusterd::{
    request_stop, ClusterCoordinator, ClusterMember, CoordinatorReport, MemberReport,
};
use drqos_service::engine::{Engine, Handled};
use drqos_service::frame;
use drqos_service::protocol::{self, payload_field};
use drqos_service::server::{Server, ServiceReport};
use drqos_topology::graph::Graph;
use drqos_topology::regular::torus;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Pinned daemon knobs: with these set through the builders, no exported
/// `DRQOS_*` variable can change what is measured.
pub const BATCH: usize = 64;
/// See [`BATCH`].
pub const QUEUE_DEPTH: usize = 1024;
/// See [`BATCH`].
pub const SHARDS: usize = 1;
/// Members of the `cluster3` federation.
pub const CLUSTER_MEMBERS: usize = 3;
/// Partition seed of the `cluster3` coordinator.
pub const CLUSTER_SEED: u64 = 7;
/// `BUSY` retries before a request counts as failed.
pub const BUSY_RETRIES: usize = 64;
/// Set-ups a full end-to-end run times.
pub const SETUPS: usize = 3;
/// A window that runs past this multiple of its nominal length is cut
/// short (the counts then no longer repeat, and the run says so).
pub const OVERRUN_FACTOR: f64 = 2.5;

/// Refuses to measure under an exported `DRQOS_*` variable: several knobs
/// are read at construction time below the surface this module may touch.
///
/// # Errors
///
/// The offending variable names.
pub fn refuse_exported_knobs() -> Result<(), String> {
    let prefix = match drqos_core::env::THREADS.split_once('_') {
        Some((head, _)) => format!("{head}_"),
        None => return Ok(()),
    };
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(&prefix))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to measure with {} set: unset every {prefix}* variable",
            set.join(", ")
        ))
    }
}

/// The pinned configuration, as printed in the JSON.
pub fn pinned_json() -> String {
    format!(
        "{{\"batch\":{BATCH},\"queue_depth\":{QUEUE_DEPTH},\"shards\":{SHARDS},\
         \"route_cache\":true,\"cluster_members\":{CLUSTER_MEMBERS},\
         \"cluster_seed\":{CLUSTER_SEED},\"cluster_rebalance\":\"bfs\",\
         \"graph_seed\":{},\"slices\":{SLICES},\"reference_kernel_nominal_ns\":{NOMINAL_NS}}}",
        crate::ops::GRAPH_SEED
    )
}

/// Builds a workload's topology.
///
/// # Panics
///
/// Never for the fixed dimensions used here.
pub fn graph(topology: Topology) -> Graph {
    match topology {
        Topology::Paper => paper_graph(100, crate::ops::GRAPH_SEED),
        Topology::Torus6 => torus(6, 6).expect("6×6 is a valid torus"),
    }
}

/// A fresh network over `graph`, route cache pinned on.
pub fn network(graph: Graph) -> Network {
    Network::new(
        graph,
        NetworkConfig {
            route_cache: true,
            ..NetworkConfig::default()
        },
    )
}

// ----------------------------------------------------------------- targets --

/// A text-protocol connection.
pub struct TextConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl TextConn {
    /// Connects with `TCP_NODELAY`.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }
}

impl Exec for TextConn {
    fn exec(&mut self, line: &str) -> io::Result<String> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.writer.write_all(out.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }
}

/// A binary-frame connection; commands and replies still cross this
/// boundary as canonical text, so scripts are wire-agnostic.
pub struct BinaryConn(TcpStream);

impl BinaryConn {
    /// Connects with `TCP_NODELAY`.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self(stream))
    }
}

impl Exec for BinaryConn {
    fn exec(&mut self, line: &str) -> io::Result<String> {
        let req = protocol::parse(line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.message))?;
        self.0.write_all(&frame::encode_request(&req))?;
        let body = frame::read_frame(&mut self.0)?;
        Ok(frame::decode_response(&body)?.to_string())
    }
}

/// One client thread alternating its requests over several connections
/// (the `cluster3` client: members 0 and 1).
pub struct Alternating {
    conns: Vec<TextConn>,
    next: usize,
}

impl Exec for Alternating {
    fn exec(&mut self, line: &str) -> io::Result<String> {
        let n = self.conns.len();
        let conn = self
            .conns
            .get_mut(self.next % n.max(1))
            .ok_or(io::ErrorKind::NotConnected)?;
        self.next = self.next.wrapping_add(1);
        conn.exec(line)
    }
}

/// The engine boundary, no socket. `via_batch` routes single lines
/// through `handle_server_batch(&[line])`, the call the daemon's event
/// loop makes; otherwise through `handle_line`.
pub struct EngineTarget {
    engine: Engine,
    via_batch: bool,
}

impl EngineTarget {
    /// Wraps a one-shard engine over `net`.
    pub fn new(net: Network, via_batch: bool) -> Self {
        Self {
            engine: Engine::with_shards(net, SHARDS),
            via_batch,
        }
    }

    fn render(&mut self, handled: Handled) -> String {
        match handled {
            Handled::Reply(r) => r.to_string(),
            Handled::ShutdownRequested => self.engine.finish_shutdown().to_string(),
        }
    }
}

impl Exec for EngineTarget {
    fn exec(&mut self, line: &str) -> io::Result<String> {
        if !self.via_batch {
            return Ok(self.engine.handle_line(line).to_string());
        }
        let handled = self.engine.handle_server_batch(&[line.to_string()]);
        let first = handled
            .into_iter()
            .next()
            .ok_or(io::ErrorKind::InvalidData)?;
        Ok(self.render(first))
    }

    fn exec_batch(&mut self, lines: &[String]) -> io::Result<Vec<String>> {
        let handled = self.engine.handle_server_batch(lines);
        Ok(handled.into_iter().map(|h| self.render(h)).collect())
    }
}

// ------------------------------------------------------------------ tally --

/// What the replies said, by count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests answered (a request retried through `BUSY` counts once).
    pub requests: u64,
    /// `ESTABLISH` admitted.
    pub admitted: u64,
    /// `ESTABLISH` refused by admission control or QoS (codes 100–299).
    pub rejected: u64,
    /// `RELEASE` that freed a connection.
    pub released: u64,
    /// `RELEASE` of an id a failure had already dropped (code 300).
    pub stale_releases: u64,
    /// `FAIL-LINK` applied.
    pub faults: u64,
    /// Connections dropped by those faults.
    pub dropped: u64,
    /// `REPAIR-LINK` applied.
    pub repairs: u64,
    /// `BUSY` replies retried.
    pub busy: u64,
    /// Requests still `BUSY` after [`BUSY_RETRIES`].
    pub busy_exhausted: u64,
    /// Malformed-command codes 1–99 or an unreadable reply.
    pub protocol_errors: u64,
    /// Any other `ERR`.
    pub other_errors: u64,
}

impl Tally {
    fn count(&mut self, kind: Kind, reply: &str) {
        self.requests += 1;
        if let Some(payload) = reply.strip_prefix("OK ") {
            match kind {
                Kind::Establish if payload_field(payload, "id").is_some() => self.admitted += 1,
                Kind::Establish => self.protocol_errors += 1,
                Kind::Release => self.released += 1,
                Kind::Fail => {
                    self.faults += 1;
                    self.dropped += payload_field(payload, "dropped").unwrap_or(0);
                }
                Kind::Repair => self.repairs += 1,
            }
            return;
        }
        if reply == "BUSY" {
            self.busy_exhausted += 1;
            return;
        }
        let code = reply
            .strip_prefix("ERR ")
            .and_then(|rest| rest.split_ascii_whitespace().next())
            .and_then(|c| c.parse::<u16>().ok());
        match (kind, code) {
            (_, None | Some(0..=99)) => self.protocol_errors += 1,
            (Kind::Establish, Some(100..=299)) => self.rejected += 1,
            (Kind::Release, Some(300)) => self.stale_releases += 1,
            _ => self.other_errors += 1,
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, o: &Tally) -> Tally {
        self.zip(o, |a, b| a + b)
    }

    /// Field-wise difference (`self` is the later reading).
    pub fn since(&self, o: &Tally) -> Tally {
        self.zip(o, |a, b| a - b)
    }

    fn zip(&self, o: &Tally, f: impl Fn(u64, u64) -> u64) -> Tally {
        Tally {
            requests: f(self.requests, o.requests),
            admitted: f(self.admitted, o.admitted),
            rejected: f(self.rejected, o.rejected),
            released: f(self.released, o.released),
            stale_releases: f(self.stale_releases, o.stale_releases),
            faults: f(self.faults, o.faults),
            dropped: f(self.dropped, o.dropped),
            repairs: f(self.repairs, o.repairs),
            busy: f(self.busy, o.busy),
            busy_exhausted: f(self.busy_exhausted, o.busy_exhausted),
            protocol_errors: f(self.protocol_errors, o.protocol_errors),
            other_errors: f(self.other_errors, o.other_errors),
        }
    }

    /// Requests that did not do what was asked: refused, stale, errored
    /// or starved. The numerator of `failed_ratio`.
    pub fn refused(&self) -> u64 {
        self.rejected + self.stale_releases + self.unexpected()
    }

    /// Failures no correct daemon produces on these workloads.
    pub fn unexpected(&self) -> u64 {
        self.busy_exhausted + self.protocol_errors + self.other_errors
    }

    /// Connections the replies say are live: admitted − released − dropped.
    pub fn live(&self) -> i128 {
        i128::from(self.admitted) - i128::from(self.released) - i128::from(self.dropped)
    }
}

// --------------------------------------------------------------- recorder --

/// Passes commands on to the executor it wraps, keeping the reply digest
/// always, the tally of every script command (one [`Kind::of`] knows),
/// and a latency sample of each while a window is open.
pub struct Recorder {
    target: Box<dyn Exec + Send>,
    window: Option<Instant>,
    /// One entry per timed call, in completion order.
    pub samples: Vec<Sample>,
    /// Digest of every (command, reply) pair so far.
    pub digest: Digest,
    /// Tally of every reply so far.
    pub tally: Tally,
    at_open: Tally,
}

impl Recorder {
    /// Wraps `target`; no window is open.
    pub fn new(target: Box<dyn Exec + Send>) -> Self {
        Self {
            target,
            window: None,
            samples: Vec::new(),
            digest: Digest::default(),
            tally: Tally::default(),
            at_open: Tally::default(),
        }
    }

    /// Opens the timed window at `origin` (shared by all clients).
    pub fn open(&mut self, origin: Instant) {
        self.window = Some(origin);
        self.at_open = self.tally;
    }

    /// Tally of the open window only.
    pub fn window_tally(&self) -> Tally {
        self.tally.since(&self.at_open)
    }

    /// The wrapped executor, for commands that must leave no trace here
    /// (`SHUTDOWN`, probes).
    pub fn target(&mut self) -> &mut (dyn Exec + Send) {
        self.target.as_mut()
    }

    fn call_through_busy(&mut self, line: &str) -> io::Result<String> {
        let mut attempt = 0;
        loop {
            let reply = self.target.exec(line)?;
            if reply != "BUSY" || attempt >= BUSY_RETRIES {
                return Ok(reply);
            }
            self.tally.busy += 1;
            thread::sleep(Duration::from_micros(200 << attempt.min(8)));
            attempt += 1;
        }
    }

    fn stamp(&mut self, kind: Kind, t0: Instant, requests: usize) {
        if let Some(origin) = self.window {
            let t1 = Instant::now();
            self.samples.push(Sample {
                at_ns: nanos(t1 - origin),
                latency_ns: nanos(t1 - t0),
                kind,
                requests: requests as u32,
            });
        }
    }
}

/// One timed call: a request and its reply, or one whole batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Completion time, ns since the window opened.
    pub at_ns: u64,
    /// Send → reply, ns, as the clock read it.
    pub latency_ns: u64,
    /// What was sent.
    pub kind: Kind,
    /// Requests the call carried (16 for a `burst16` batch, else 1).
    pub requests: u32,
}

/// The samples of one timed window, reduced.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduced {
    /// Latency by [`Kind`].
    pub latency: [Option<Latency>; 4],
    /// Mean latency over every call, ns.
    pub mean_ns: f64,
    /// (median, min, max) slice rate, requests per second.
    pub rates: (f64, f64, f64),
}

/// Reduces the samples of one window (all clients together): latency
/// quantiles over every sample, throughput as the median over the slices
/// of requests per second. Each sample's latency and each slice's span
/// are divided by `factor` of the slice they fall in: `|_| 1.0` gives the
/// values as the clock read them, `|s| s.host_speed_factor` the `norm.*`
/// ones.
pub fn reduce<'a>(
    samples: impl Iterator<Item = &'a Sample> + Clone,
    slices: &[Slice],
    factor: impl Fn(&Slice) -> f64,
) -> Option<Reduced> {
    let factor_at = |at_ns: u64| {
        let i = slices.partition_point(|s| s.end_ns < at_ns);
        slices.get(i).or(slices.last()).map_or(1.0, &factor)
    };
    let mut latency = [None; 4];
    let (mut sum_ns, mut count) = (0.0, 0usize);
    for kind in Kind::ALL {
        let mut series: Vec<u64> = samples
            .clone()
            .filter(|s| s.kind == kind)
            .map(|s| (s.latency_ns as f64 / factor_at(s.at_ns)) as u64)
            .collect();
        sum_ns += series.iter().map(|&ns| ns as f64).sum::<f64>();
        count += series.len();
        if let Some(slot) = latency.get_mut(kind.index()) {
            *slot = Latency::of(&mut series);
        }
    }
    let spans: Vec<(u64, u64, f64)> = slices
        .iter()
        .map(|s| (s.start_ns, s.end_ns, factor(s)))
        .collect();
    let completions: Vec<(u64, u32)> = samples.map(|s| (s.at_ns, s.requests)).collect();
    Some(Reduced {
        latency,
        mean_ns: sum_ns / count.max(1) as f64,
        rates: slice_rates(&spans, &completions)?,
    })
}

impl Exec for Recorder {
    fn exec(&mut self, line: &str) -> io::Result<String> {
        let t0 = Instant::now();
        let reply = self.call_through_busy(line)?;
        if let Some(kind) = Kind::of(line) {
            self.stamp(kind, t0, 1);
            self.tally.count(kind, &reply);
        }
        self.digest.push(line, &reply);
        Ok(reply)
    }

    /// The latency sample is the whole batch — what each of the waiting
    /// clients would see — never a per-request share of it.
    fn exec_batch(&mut self, lines: &[String]) -> io::Result<Vec<String>> {
        let t0 = Instant::now();
        let replies = self.target.exec_batch(lines)?;
        self.stamp(Kind::Establish, t0, replies.len());
        for (line, reply) in lines.iter().zip(&replies) {
            self.digest.push(line, reply);
            self.tally.count(Kind::Establish, reply);
        }
        Ok(replies)
    }
}

// ---------------------------------------------------------------- daemons --

/// The daemons of one run, each on its own thread(s) in this process.
enum Daemons {
    Drqosd(JoinHandle<io::Result<ServiceReport>>),
    Cluster {
        coordinator: SocketAddr,
        members: Vec<SocketAddr>,
        coord_handle: JoinHandle<io::Result<CoordinatorReport>>,
        member_handles: Vec<JoinHandle<io::Result<MemberReport>>>,
    },
    /// `burst16`: the engine sits inside the client's target.
    None,
}

/// One client: its script and its recorder.
pub struct Client {
    /// The op stream.
    pub script: Script,
    /// The executor with its measurements.
    pub rec: Recorder,
}

/// A booted, warmed system under test.
pub struct Live {
    daemons: Daemons,
    /// The clients, one per client thread.
    pub clients: Vec<Client>,
    /// `TcpStream::connect` → first `SNAPSHOT` reply of client 0, ns
    /// (0 without a socket).
    pub connect_ns: u64,
}

fn joined<T>(h: JoinHandle<io::Result<T>>) -> io::Result<T> {
    h.join()
        .map_err(|_| io::Error::other("daemon thread panicked"))?
}

impl Live {
    /// Set-up as the benchmark defines it: build graph and network, bind,
    /// connect, warm to `P`, run `2·P` churn cycles.
    ///
    /// # Errors
    ///
    /// Socket errors, or a set-up that cannot reach `P`.
    pub fn boot(spec: &Spec, seed: u64) -> io::Result<Live> {
        let g = graph(spec.topology);
        let (nodes, links) = (g.node_count(), g.link_count());
        let mut connect_ns = 0;
        let mut timed_connect = |connect: &mut dyn FnMut() -> io::Result<Box<dyn Exec + Send>>| {
            let t0 = Instant::now();
            let mut target = connect()?;
            let reply = target.exec("SNAPSHOT")?;
            if connect_ns == 0 {
                connect_ns = nanos(t0.elapsed());
            }
            if payload_field(&reply, "nodes") != Some(nodes as u64) {
                return Err(io::Error::other(format!("bad SNAPSHOT reply: {reply}")));
            }
            Ok(target)
        };
        let mut targets: Vec<Box<dyn Exec + Send>> = Vec::new();
        let daemons = match spec.transport {
            Transport::DaemonBinary | Transport::DaemonText => {
                let wire = if spec.transport == Transport::DaemonBinary {
                    WireMode::Binary
                } else {
                    WireMode::Text
                };
                let server = Server::bind("127.0.0.1:0", network(g))?
                    .with_wire(wire)
                    .with_batch(BATCH)
                    .with_queue_depth(QUEUE_DEPTH);
                let addr = server.local_addr()?;
                let handle = thread::spawn(move || server.run());
                for _ in 0..spec.clients {
                    targets.push(timed_connect(&mut || {
                        Ok(match wire {
                            WireMode::Binary => Box::new(BinaryConn::connect(addr)?),
                            WireMode::Text => Box::new(TextConn::connect(addr)?),
                        })
                    })?);
                }
                Daemons::Drqosd(handle)
            }
            Transport::Cluster3 => {
                let coord = ClusterCoordinator::bind(
                    "127.0.0.1:0",
                    network(g.clone()),
                    CLUSTER_MEMBERS,
                    CLUSTER_SEED,
                    RebalancePolicy::Bfs,
                )?;
                let coordinator = coord.local_addr()?;
                let coord_handle = thread::spawn(move || coord.run());
                let mut members = Vec::new();
                let mut member_handles = Vec::new();
                for _ in 0..CLUSTER_MEMBERS {
                    let m = ClusterMember::bind(
                        "127.0.0.1:0",
                        network(g.clone()),
                        &coordinator.to_string(),
                    )?;
                    members.push(m.local_addr()?);
                    member_handles.push(thread::spawn(move || m.run()));
                }
                // Members 0 and 1 serve the client; member 2 only replicates.
                let serving: Vec<SocketAddr> = members.iter().take(2).copied().collect();
                targets.push(timed_connect(&mut || {
                    let conns = serving
                        .iter()
                        .map(|&a| TextConn::connect(a))
                        .collect::<io::Result<Vec<_>>>()?;
                    Ok(Box::new(Alternating { conns, next: 0 }))
                })?);
                Daemons::Cluster {
                    coordinator,
                    members,
                    coord_handle,
                    member_handles,
                }
            }
            Transport::EngineBatch => {
                targets.push(Box::new(EngineTarget::new(network(g), false)));
                Daemons::None
            }
        };
        let mut clients: Vec<Client> = targets
            .into_iter()
            .enumerate()
            .map(|(i, target)| Client {
                script: Script::new(spec, seed, i, nodes, links),
                rec: Recorder::new(target),
            })
            .collect();
        each_client(&mut clients, |c| c.script.set_up(&mut c.rec))?;
        Ok(Live {
            daemons,
            clients,
            connect_ns,
        })
    }

    /// Runs the timed window: `steps` steps per client in [`SLICES`]
    /// equal slices, all clients sharing one origin and meeting between
    /// slices.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn run_window(&mut self, steps: usize, nominal: Duration) -> io::Result<Vec<Slice>> {
        let origin = Instant::now();
        for c in &mut self.clients {
            c.rec.open(origin);
        }
        let clients = &mut self.clients;
        sliced(origin, steps, nominal.mul_f64(OVERRUN_FACTOR), |range| {
            each_client(clients, |c| {
                range.clone().try_for_each(|_| c.script.step(&mut c.rec))
            })
        })
    }

    /// The closing checks every run makes: the final `SNAPSHOT` agrees
    /// with what the replies said is live, and every daemon shuts down
    /// reporting zero invariant violations.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn close(&mut self) -> io::Result<Closing> {
        let total = self.total();
        let first = self
            .clients
            .first_mut()
            .ok_or(io::ErrorKind::NotConnected)?;
        let snapshot = first.rec.exec("SNAPSHOT")?;
        let conserved = payload_field(&snapshot, "conns").map(i128::from) == Some(total.live());
        let t0 = Instant::now();
        let mut clean = true;
        match std::mem::replace(&mut self.daemons, Daemons::None) {
            Daemons::Drqosd(handle) => {
                clean &= first.rec.target().exec("SHUTDOWN")? == SHUTDOWN_CLEAN;
                clean &= joined(handle)?.violations == 0;
            }
            Daemons::Cluster {
                coordinator,
                members,
                coord_handle,
                member_handles,
            } => {
                for &addr in &members {
                    clean &= TextConn::connect(addr)?.exec("SHUTDOWN")? == SHUTDOWN_CLEAN;
                }
                request_stop(&coordinator.to_string())?;
                clean &= joined(coord_handle)?.violations == 0;
                for h in member_handles {
                    clean &= joined(h)?.violations == 0;
                }
            }
            Daemons::None => clean &= first.rec.target().exec("SHUTDOWN")? == SHUTDOWN_CLEAN,
        }
        Ok(Closing {
            conserved,
            clean,
            shutdown_ns: nanos(t0.elapsed()),
        })
    }

    /// Sum of every client's tally so far.
    pub fn total(&self) -> Tally {
        self.clients
            .iter()
            .fold(Tally::default(), |t, c| t.plus(&c.rec.tally))
    }
}

/// The reply every clean daemon gives to `SHUTDOWN`.
pub const SHUTDOWN_CLEAN: &str = "OK violations=0";

/// What [`Live::close`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closing {
    /// admitted − released − dropped equals the final `SNAPSHOT`'s count.
    pub conserved: bool,
    /// Every daemon answered [`SHUTDOWN_CLEAN`] and reported no violation.
    pub clean: bool,
    /// `SHUTDOWN` sent → every daemon joined, ns.
    pub shutdown_ns: u64,
}

/// Runs `f` on every client, each on its own thread when there are
/// several (never more than two).
fn each_client(
    clients: &mut [Client],
    f: impl Fn(&mut Client) -> io::Result<()> + Sync,
) -> io::Result<()> {
    if let [only] = clients {
        return f(only);
    }
    thread::scope(|s| {
        let handles: Vec<_> = clients.iter_mut().map(|c| s.spawn(|| f(c))).collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| io::Error::other("client thread panicked"))?
        })
    })
}

// ---------------------------------------------------------------- measure --

/// How to run one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Drives the op streams (never the graph).
    pub seed: u64,
    /// Nominal window length the step count is sized for.
    pub seconds: u64,
    /// Smoke-sized run; see [`Spec::quick`].
    pub quick: bool,
    /// The traced run: half the steps, because the op stream is then
    /// replayed twice more in-process.
    pub trace: bool,
}

impl Options {
    /// Set-ups to time; `setup_s` is their median. The first one carries
    /// the window. One is all a smoke or traced run needs.
    pub fn setups(&self) -> usize {
        if self.quick || self.trace {
            1
        } else {
            SETUPS
        }
    }

    /// The effective spec and window step count for `spec`.
    pub fn sized(&self, spec: &Spec) -> (Spec, usize) {
        let (spec, steps) = if self.quick {
            let q = spec.quick();
            (q, q.steps)
        } else {
            (*spec, spec.steps_for(self.seconds))
        };
        // Never below the 1 000 establish samples a 99th percentile needs.
        (
            spec,
            if self.trace && steps >= 2_000 {
                steps / 2
            } else {
                steps
            },
        )
    }
}

/// One workload, measured end to end with tracing off.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The spec as run (quick-sized when asked).
    pub spec: Spec,
    /// Wall time of every set-up, seconds.
    pub setups_s: Vec<f64>,
    /// Wall time of the window's slices, seconds.
    pub window_s: f64,
    /// Mean reference-kernel reading of the window over nominal: how much
    /// slower than nominal the host was. A diagnostic; only the `norm.*`
    /// metrics use it, slice by slice.
    pub host_speed_factor: f64,
    /// Steps each client took (the minimum over clients).
    pub steps: u64,
    /// The window hit [`OVERRUN_FACTOR`] and stopped early.
    pub cut_short: bool,
    /// Client-observed latencies and throughput of the window, as the
    /// clock read them.
    pub raw: Reduced,
    /// The same, each observation divided by its slice's host-speed
    /// factor.
    pub norm: Reduced,
    /// Tally of the window.
    pub window: Tally,
    /// Tally of set-up plus window.
    pub total: Tally,
    /// Transcript digest of client 0.
    pub digest: u64,
    /// Digest of the same op stream through an in-process engine
    /// (single-client workloads only).
    pub reference: Option<u64>,
    /// See [`Closing`].
    pub closing: Closing,
    /// Every further, discarded set-up also closed clean and conserved.
    pub setups_clean: bool,
    /// `VmHWM` after the daemons stopped, MiB.
    pub peak_rss_mb: f64,
    /// Connect → first `SNAPSHOT` reply, ns (0 without a socket).
    pub connect_ns: u64,
}

impl Measured {
    /// Share of the window's requests that did not do what was asked.
    pub fn failed_ratio(&self) -> f64 {
        self.window.refused() as f64 / self.window.requests.max(1) as f64
    }

    /// Every correctness check of the run.
    pub fn checks(&self) -> [(&'static str, bool); 5] {
        [
            (
                "transcript digest equals in-process replay",
                self.reference.is_none_or(|r| r == self.digest),
            ),
            ("daemons shut down with violations=0", self.closing.clean),
            (
                "admitted − released − dropped equals SNAPSHOT conns",
                self.closing.conserved,
            ),
            ("discarded set-ups closed clean", self.setups_clean),
            (
                "no protocol error, stray ERR or exhausted BUSY",
                self.total.unexpected() == 0,
            ),
        ]
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks().iter().all(|&(_, ok)| ok)
    }
}

/// Measures `spec` end to end and checks its transcript against the
/// in-process reference.
///
/// # Errors
///
/// Transport failures and set-ups that cannot reach `P`; a failed
/// correctness check is reported in the result, not here.
pub fn measure(spec: &Spec, opt: &Options) -> io::Result<Measured> {
    let mut m = measure_with(spec, opt, &mut |_| Ok(()))?;
    if m.spec.deterministic() && m.spec.transport != Transport::EngineBatch {
        m.reference = Some(
            replay(&m.spec, opt.seed, m.steps, false)?
                .client
                .rec
                .digest
                .0,
        );
    }
    Ok(m)
}

/// [`measure`] without the reference replay (`reference` stays `None`
/// for the caller to fill), running `after_window` on the live system
/// between the window and the closing checks.
///
/// # Errors
///
/// See [`measure`]; also whatever `after_window` returns.
pub fn measure_with(
    spec: &Spec,
    opt: &Options,
    after_window: &mut dyn FnMut(&mut Live) -> io::Result<()>,
) -> io::Result<Measured> {
    let (spec, steps) = opt.sized(spec);
    let t0 = Instant::now();
    let mut live = Live::boot(&spec, opt.seed)?;
    let mut setups_s = vec![t0.elapsed().as_secs_f64()];
    let slices = live.run_window(steps, Duration::from_secs(opt.seconds.max(1)))?;
    let steps_done = live
        .clients
        .iter()
        .map(|c| c.script.steps_done())
        .min()
        .unwrap_or(0);
    after_window(&mut live)?;
    let closing = live.close()?;
    let peak_rss_mb = peak_rss_mb();
    // The further set-ups only feed `setup_s`; they come after the
    // high-water mark is read so that they cannot move it.
    let mut setups_clean = true;
    while setups_s.len() < opt.setups() {
        let t0 = Instant::now();
        let mut extra = Live::boot(&spec, opt.seed)?;
        setups_s.push(t0.elapsed().as_secs_f64());
        let closing = extra.close()?;
        setups_clean &= closing.clean && closing.conserved;
    }

    let samples = live.clients.iter().flat_map(|c| c.rec.samples.iter());
    let too_short = || io::Error::other("window too short to reduce");
    let raw = reduce(samples.clone(), &slices, |_| 1.0).ok_or_else(too_short)?;
    let norm = reduce(samples, &slices, |s| s.host_speed_factor).ok_or_else(too_short)?;
    let window_ns: u64 = slices.iter().map(|s| s.end_ns - s.start_ns).sum();
    let host_speed_factor =
        slices.iter().map(|s| s.host_speed_factor).sum::<f64>() / slices.len().max(1) as f64;
    let first = live.clients.first().ok_or(io::ErrorKind::NotConnected)?;
    let digest = first.rec.digest.0;
    let window_tally = live
        .clients
        .iter()
        .fold(Tally::default(), |t, c| t.plus(&c.rec.window_tally()));
    Ok(Measured {
        spec,
        setups_s,
        window_s: window_ns as f64 / 1e9,
        host_speed_factor,
        steps: steps_done,
        cut_short: (steps_done as usize) < steps,
        raw,
        norm,
        window: window_tally,
        total: live.total(),
        digest,
        reference: None,
        closing,
        setups_clean,
        peak_rss_mb,
        connect_ns: live.connect_ns,
    })
}

/// Client 0's op stream — set-up, `steps` steps, the closing `SNAPSHOT`
/// — replayed through an in-process engine.
pub struct Replayed {
    /// The script and recorder after the replay.
    pub client: Client,
    /// Wall time of the steps.
    pub wall: Duration,
}

/// Replays client 0's op stream through an in-process engine. With
/// `timed`, the steps go through `handle_server_batch(&[line])` with the
/// recorder's window open, so it holds engine-boundary samples.
///
/// # Errors
///
/// A set-up that cannot reach `P`, or a dirty `SHUTDOWN`.
pub fn replay(spec: &Spec, seed: u64, steps: u64, timed: bool) -> io::Result<Replayed> {
    let g = graph(spec.topology);
    let (nodes, links) = (g.node_count(), g.link_count());
    let mut c = Client {
        script: Script::new(spec, seed, 0, nodes, links),
        rec: Recorder::new(Box::new(EngineTarget::new(network(g), timed))),
    };
    c.script.set_up(&mut c.rec)?;
    let origin = Instant::now();
    if timed {
        c.rec.open(origin);
    }
    (0..steps).try_for_each(|_| c.script.step(&mut c.rec))?;
    let wall = origin.elapsed();
    c.rec.exec("SNAPSHOT")?;
    if c.rec.target().exec("SHUTDOWN")? != SHUTDOWN_CLEAN {
        return Err(io::Error::other("reference engine shut down dirty"));
    }
    Ok(Replayed { client: c, wall })
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_ascii_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
