//! The traced run: each workload's op stream replayed against in-process
//! replicas, with a span around every call into a layer's public
//! function. Unlike [`crate::e2e`] this module may call below the daemon
//! surface; when layer boundaries move, it is this file that follows.
//!
//! Spans stay in memory and are written out at the end. Functions that
//! take tens of nanoseconds (the codecs) are timed in a loop over the
//! recorded transcript instead: a span's two clock reads would cost as
//! much as the call.

use crate::e2e::{self, Options};
use crate::json::Json;
use crate::ops::{Exec, Script, Shape, Spec, Transport, GRAPH_SEED};
use crate::report::{Metric, Record};
use crate::stats::Digest;
use drqos_bench::experiments::paper_graph;
use drqos_cluster::coordinator::{ApplyOutcome, Coordinator, MemberOp};
use drqos_cluster::member::Member;
use drqos_cluster::proto::{
    decode_cluster_msg, decode_coord_msg, encode_cluster_msg, encode_coord_msg, ClusterMsg,
    CoordMsg, WireRequest,
};
use drqos_core::channel::ConnectionId;
use drqos_core::env::RebalancePolicy;
use drqos_core::error::AdmissionError;
use drqos_core::experiment::{run_churn, ExperimentConfig};
use drqos_core::network::{EstablishRequest, Network, NetworkConfig};
use drqos_core::qos::{Bandwidth, ElasticQos};
use drqos_core::routing::{self, RouteScratch};
use drqos_core::scenario::{run_scenario_churn, Scenario, ScenarioKind};
use drqos_core::shard::ShardedNetwork;
use drqos_markov::birth_death::birth_death_ctmc;
use drqos_markov::steady_state::gth;
use drqos_service::frame;
use drqos_service::protocol::{self, Request, Response};
use drqos_topology::graph::{Graph, LinkId, NodeId};
use drqos_topology::paths::Path;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, Write as _};
use std::time::{Duration, Instant};

/// The per-layer metrics, in `BENCHMARK.json` order: (name, unit).
pub const PER_LAYER: [(&str, &str); 63] = [
    // The client's view as the clock read it, under the issue's names.
    ("ops_per_s", "1/s"),
    ("establish_p50_us", "us"),
    ("establish_p99_us", "us"),
    ("release_p50_us", "us"),
    ("fault_p50_us", "us"),
    ("failed_ratio", "ratio"),
    ("host_speed_factor", "ratio"),
    ("client.mean_latency_us", "us"),
    ("core.routing.primary_us", "us"),
    ("core.routing.backup_us", "us"),
    ("core.routing.footprint_links", "count"),
    ("core.network.plan_us", "us"),
    ("core.route_cache.hit_ratio", "ratio"),
    ("core.route_cache.stale_ratio", "ratio"),
    ("core.route_cache.hit_plan_us", "us"),
    ("core.route_cache.miss_plan_us", "us"),
    ("core.network.commit_us", "us"),
    ("core.network.chained_primaries", "count"),
    ("core.network.release_us", "us"),
    ("core.network.fail_link_us", "us"),
    ("core.network.repair_link_us", "us"),
    ("core.network.activated_per_fault", "count"),
    ("core.network.dropped_per_fault", "count"),
    ("core.network.rejected_ratio", "ratio"),
    ("core.network.check_invariants_ms", "ms"),
    ("core.network.batch16_us", "us"),
    ("core.shard.wave16_us", "us"),
    ("core.shard.stale_replan_ratio", "ratio"),
    ("service.protocol.parse_ns", "ns"),
    ("service.protocol.render_ns", "ns"),
    ("service.protocol.request_bytes", "bytes"),
    ("service.protocol.response_bytes", "bytes"),
    ("service.frame.encode_request_ns", "ns"),
    ("service.frame.decode_request_ns", "ns"),
    ("service.frame.encode_response_ns", "ns"),
    ("service.frame.decode_response_ns", "ns"),
    ("service.frame.request_bytes", "bytes"),
    ("service.frame.response_bytes", "bytes"),
    ("service.engine.handle_us", "us"),
    ("service.engine.overhead_us", "us"),
    ("service.server.remainder_us", "us"),
    ("service.server.rtt_floor_us", "us"),
    ("service.server.busy_ratio", "ratio"),
    ("service.server.connect_us", "us"),
    ("service.server.shutdown_ms", "ms"),
    ("cluster.member.plan_us", "us"),
    ("cluster.coordinator.prepare_us", "us"),
    ("cluster.coordinator.commit_us", "us"),
    ("cluster.coordinator.forward_us", "us"),
    ("cluster.member.apply_us", "us"),
    ("cluster.replica_set.op_us", "us"),
    ("cluster.proto.encode_ns", "ns"),
    ("cluster.proto.decode_ns", "ns"),
    ("cluster.proto.bytes_per_op", "bytes"),
    ("cluster.coordinator.stale_replan_ratio", "ratio"),
    ("cluster.coordinator.records_per_op", "count"),
    ("service.clusterd.remainder_us", "us"),
    ("core.experiment.churn_events_per_s", "1/s"),
    ("core.scenario.flashcrowd_events_per_s", "1/s"),
    ("markov.steady_state_9_ns", "ns"),
    ("topology.paper_graph_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Round trips of the floor probe.
pub const FLOOR_PROBES: usize = 2_000;
/// Transcript pairs kept for the codec loops.
pub const CODEC_SAMPLE: usize = 4_096;
/// Churn events of the experiment-level figures.
pub const EXPERIMENT_EVENTS: usize = 2_000;

// ------------------------------------------------------------------ spans --

const NO_PARENT: u32 = u32::MAX;
/// `Network::plan_establish` answered from the route cache…
const PLAN_HIT: &str = "core.network.plan(hit)";
/// …or by a search.
const PLAN_MISS: &str = "core.network.plan(miss)";

/// One traced call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer function, as a module path.
    pub name: &'static str,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
    /// Index of the span that caused this one (`u32::MAX` for a root).
    pub parent: u32,
    /// The request this span belongs to; spans of one request share it.
    pub op: u32,
}

/// In-memory span log. Off during set-up, so the replica warms at the
/// plain path's cost.
#[derive(Debug)]
pub struct Tracer {
    /// Zero of every span's clock.
    pub origin: Instant,
    /// Spans in start order.
    pub spans: Vec<Span>,
    on: bool,
    op: u32,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            on: false,
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of the next request.
    fn begin_op(&mut self) -> u32 {
        self.op = self.op.wrapping_add(1);
        self.begin("op", NO_PARENT)
    }

    fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let at = self.now();
        self.spans.push(Span {
            name,
            start_ns: at,
            end_ns: at,
            parent,
            op: self.op,
        });
        (self.spans.len() - 1) as u32
    }

    fn end(&mut self, span: u32) {
        let at = self.now();
        if let Some(s) = self.spans.get_mut(span as usize) {
            s.end_ns = at;
        }
    }

    /// Total nanoseconds and call count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns) as f64;
            e.1 += 1;
        }
        out
    }

    fn rename(&mut self, span: u32, name: &'static str) {
        if let Some(s) = self.spans.get_mut(span as usize) {
            s.name = name;
        }
    }

    /// Writes the spans as one JSON document.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn write(&self, path: &std::path::Path, workload: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            f,
            "{{\"workload\":\"{workload}\",\"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\"],\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                f,
                "{}[\"{}\",{},{},{},{}]",
                if i > 0 { "," } else { "" },
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.op
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

// --------------------------------------------------------------- rendering --

fn err_reply(code: u16, message: String) -> Response {
    Response::Err { code, message }
}

fn admitted_reply(net: &Network, id: ConnectionId) -> Response {
    match net.connection(id) {
        Some(c) => Response::Ok(format!(
            "id={} bw={} hops={} backups={}",
            id.0,
            c.bandwidth().as_kbps(),
            c.primary().hop_count(),
            c.backup_count()
        )),
        None => err_reply(900, "established connection not readable back".into()),
    }
}

fn snapshot_reply(net: &Network) -> Response {
    Response::Ok(format!(
        "conns={} bw={} dropped={} epoch={} up={} nodes={} links={}",
        net.len(),
        net.total_primary_bandwidth().as_kbps(),
        net.dropped_total(),
        net.topology_epoch(),
        net.up_links().count(),
        net.graph().node_count(),
        net.graph().link_count()
    ))
}

fn shutdown_reply(net: &Network) -> Response {
    match net.check_invariants().len() {
        0 => Response::Ok("violations=0".into()),
        n => err_reply(400, format!("shutdown with {n} invariant violations")),
    }
}

fn qos_of(bmin: u64, bmax: u64, delta: u64) -> Result<ElasticQos, Response> {
    ElasticQos::new(
        Bandwidth::kbps(bmin),
        Bandwidth::kbps(bmax),
        Bandwidth::kbps(delta),
        1.0,
    )
    .map_err(|e| err_reply(e.wire_code(), e.to_string()))
}

/// The primary links whose failure activates a backup registered on
/// `on_link` (as `Network` computes it).
fn conflict_set(primary_links: &[LinkId], on_link: LinkId) -> Vec<LinkId> {
    primary_links
        .iter()
        .copied()
        .filter(|&l| l != on_link)
        .collect()
}

// --------------------------------------------------------- monolith replica --

/// Exact counts the monolith replica gathers where the work happens.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    plans: u64,
    rejected: u64,
    footprint_links: u64,
    commits: u64,
    chained: u64,
    faults: u64,
    activated: u64,
    dropped: u64,
    batch_requests: u64,
    route_mismatches: u64,
}

/// A `Network` driven one layer call at a time, answering exactly as the
/// engine would (its transcript digest is checked against the engine's).
struct Layered {
    net: Network,
    /// `burst16` only: a 4-shard twin fed the same stream, so the wave
    /// path is timed beside the batch path.
    wave: Option<ShardedNetwork>,
    scratch: RouteScratch,
    scratch_epoch: u64,
    tr: Tracer,
    counts: Counts,
    digest: Digest,
    sample: Vec<(String, String)>,
}

impl Layered {
    fn new(net: Network, wave: bool) -> Self {
        Self {
            wave: wave.then(|| ShardedNetwork::new(net.clone(), 4)),
            net,
            scratch: RouteScratch::new(),
            scratch_epoch: 0,
            tr: Tracer::new(),
            counts: Counts::default(),
            digest: Digest::default(),
            sample: Vec::new(),
        }
    }

    fn fresh_scratch(&mut self) {
        if self.scratch_epoch != self.net.topology_epoch() {
            self.scratch.invalidate();
            self.scratch_epoch = self.net.topology_epoch();
        }
    }

    /// Times the two route searches on the replica's current state, with
    /// filter and allowance built from `Network::link_usage` exactly as
    /// `Network` builds them. Returns the primary found.
    fn probe_routes(
        &mut self,
        root: u32,
        src: NodeId,
        dst: NodeId,
        min: Bandwidth,
    ) -> Option<Path> {
        self.fresh_scratch();
        let Self {
            net, scratch, tr, ..
        } = self;
        let config = net.config();
        let filter = |l: LinkId| net.link_usage(l).can_admit_primary(min);
        let allowance = |l: LinkId| {
            let u = net.link_usage(l);
            u.capacity().saturating_sub(u.hard_committed())
        };
        let s = tr.begin("core.routing.primary", root);
        let primary = routing::route_primary_with(
            scratch,
            config.router,
            net.graph(),
            src,
            dst,
            &filter,
            &allowance,
        );
        tr.end(s);
        if let Some(p) = &primary {
            let links = p.links();
            let filter = |l: LinkId| {
                net.link_usage(l)
                    .can_admit_backup(min, &conflict_set(links, l))
            };
            let allowance = |l: LinkId| {
                let u = net.link_usage(l);
                u.capacity().saturating_sub(
                    u.primary_min_sum()
                        + u.reservation_if_backup_added(min, &conflict_set(links, l)),
                )
            };
            let s = tr.begin("core.routing.backup", root);
            black_box(routing::route_backup_with(
                scratch,
                config.router,
                net.graph(),
                p,
                config.disjointness,
                &filter,
                &allowance,
            ));
            tr.end(s);
        }
        primary
    }

    fn establish(&mut self, root: u32, src: usize, dst: usize, qos: ElasticQos) -> Response {
        let (src, dst) = (NodeId(src), NodeId(dst));
        let endpoints_ok = self.net.graph().contains_node(src)
            && self.net.graph().contains_node(dst)
            && src != dst;
        let probed = if self.tr.on && endpoints_ok {
            let primary = self.probe_routes(root, src, dst, qos.min());
            self.fresh_scratch();
            let (_, footprint) = self
                .net
                .plan_establish_traced(&mut self.scratch, src, dst, qos);
            self.counts.footprint_links += footprint.len() as u64;
            Some(primary)
        } else {
            None
        };
        let hits = self.net.route_cache_stats().hits;
        let s = self.tr.begin(PLAN_MISS, root);
        let plan = self.net.plan_establish(src, dst, qos);
        self.tr.end(s);
        if self.tr.on {
            self.counts.plans += 1;
            if self.net.route_cache_stats().hits > hits {
                self.tr.rename(s, PLAN_HIT);
            }
            if let Some(primary) = probed {
                let agrees = match &plan {
                    Ok(p) => primary.as_ref() == Some(p.primary()),
                    Err(AdmissionError::NoPrimaryRoute) => primary.is_none(),
                    Err(_) => true,
                };
                if !agrees {
                    self.counts.route_mismatches += 1;
                }
            }
        }
        match plan {
            Ok(plan) => {
                if self.tr.on {
                    let links = plan
                        .primary()
                        .links()
                        .iter()
                        .chain(plan.backups().iter().flat_map(|b| b.links()))
                        .copied();
                    self.counts.chained += self.net.primaries_sharing(links).len() as u64;
                    self.counts.commits += 1;
                }
                let s = self.tr.begin("core.network.commit", root);
                let id = self.net.commit_establish(plan);
                self.tr.end(s);
                admitted_reply(&self.net, id)
            }
            Err(e) => {
                if self.tr.on {
                    self.counts.rejected += 1;
                }
                err_reply(e.wire_code(), e.to_string())
            }
        }
    }

    fn dispatch(&mut self, root: u32, req: &Request) -> Response {
        match *req {
            Request::Establish {
                src,
                dst,
                bmin,
                bmax,
                delta,
            } => match qos_of(bmin, bmax, delta) {
                Ok(qos) => self.establish(root, src, dst, qos),
                Err(resp) => resp,
            },
            Request::Release { id } => {
                let cid = ConnectionId(id);
                let held = self.net.connection(cid).map(|c| c.bandwidth().as_kbps());
                let s = self.tr.begin("core.network.release", root);
                let released = self.net.release(cid);
                self.tr.end(s);
                match (released, held) {
                    (Ok(_), Some(kbps)) => Response::Ok(format!("freed={kbps}")),
                    (Ok(_), None) => err_reply(900, "released connection was not readable".into()),
                    (Err(e), _) => err_reply(e.wire_code(), e.to_string()),
                }
            }
            Request::FailLink { link } => {
                let s = self.tr.begin("core.network.fail_link", root);
                let report = self.net.fail_link(LinkId(link));
                self.tr.end(s);
                match report {
                    Ok(r) => {
                        if self.tr.on {
                            self.counts.faults += 1;
                            self.counts.activated += r.activated.len() as u64;
                            self.counts.dropped += r.dropped.len() as u64;
                        }
                        Response::Ok(format!(
                            "activated={} dropped={} lost_backup={} retreated={}",
                            r.activated.len(),
                            r.dropped.len(),
                            r.lost_backup.len(),
                            r.retreated.len()
                        ))
                    }
                    Err(e) => err_reply(e.wire_code(), e.to_string()),
                }
            }
            Request::RepairLink { link } => {
                let s = self.tr.begin("core.network.repair_link", root);
                let regained = self.net.repair_link(LinkId(link));
                self.tr.end(s);
                match regained {
                    Ok(r) => Response::Ok(format!("regained={}", r.len())),
                    Err(e) => err_reply(e.wire_code(), e.to_string()),
                }
            }
            Request::Snapshot => snapshot_reply(&self.net),
            Request::Shutdown => shutdown_reply(&self.net),
            _ => err_reply(900, "verb outside the benchmark's op streams".into()),
        }
    }

    fn mirror_on_wave(&mut self, req: &Request) {
        let Some(wave) = self.wave.as_mut() else {
            return;
        };
        let net = wave.inner_mut();
        match *req {
            Request::Release { id } => drop(net.release(ConnectionId(id))),
            Request::Establish {
                src,
                dst,
                bmin,
                bmax,
                delta,
            } => {
                if let Ok(qos) = qos_of(bmin, bmax, delta) {
                    drop(net.establish(NodeId(src), NodeId(dst), qos));
                }
            }
            _ => {}
        }
    }

    fn keep(&mut self, line: &str, reply: &str) {
        self.digest.push(line, reply);
        if self.tr.on && self.sample.len() < CODEC_SAMPLE {
            self.sample.push((line.to_string(), reply.to_string()));
        }
    }
}

impl Exec for Layered {
    fn exec(&mut self, line: &str) -> io::Result<String> {
        let root = self.tr.begin_op();
        let reply = match protocol::parse(line) {
            Ok(req) => {
                let reply = self.dispatch(root, &req);
                self.mirror_on_wave(&req);
                reply
            }
            Err(e) => e.into(),
        }
        .to_string();
        self.tr.end(root);
        self.keep(line, &reply);
        Ok(reply)
    }

    /// One drained batch, as the engine serves it: contention-sorted, then
    /// `Network::establish_batch`; the 4-shard twin takes the same sorted
    /// requests through `ShardedNetwork::establish_wave`.
    fn exec_batch(&mut self, lines: &[String]) -> io::Result<Vec<String>> {
        let root = self.tr.begin_op();
        let reqs: Vec<EstablishRequest> = lines
            .iter()
            .map(|l| match protocol::parse(l) {
                Ok(Request::Establish {
                    src,
                    dst,
                    bmin,
                    bmax,
                    delta,
                }) => qos_of(bmin, bmax, delta)
                    .map(|qos| EstablishRequest {
                        src: NodeId(src),
                        dst: NodeId(dst),
                        qos,
                    })
                    .map_err(|_| io::Error::other("bad QoS in a batch line")),
                _ => Err(io::Error::other("a batch holds ESTABLISH lines only")),
            })
            .collect::<io::Result<_>>()?;
        let order = self.net.contention_order(&reqs);
        let sorted: Vec<EstablishRequest> =
            order.iter().filter_map(|&i| reqs.get(i).copied()).collect();
        let s = self.tr.begin("core.network.batch16", root);
        let results = self.net.establish_batch(&sorted);
        self.tr.end(s);
        if let Some(wave) = self.wave.as_mut() {
            let s = self.tr.begin("core.shard.wave16", root);
            let twin = wave.establish_wave(&sorted);
            self.tr.end(s);
            if twin != results {
                self.counts.route_mismatches += 1;
            }
        }
        if self.tr.on {
            self.counts.batch_requests += sorted.len() as u64;
        }
        let mut replies = vec![String::new(); lines.len()];
        for (result, &i) in results.iter().zip(&order) {
            let reply = match result {
                Ok(id) => admitted_reply(&self.net, *id),
                Err(e) => err_reply(e.wire_code(), e.to_string()),
            };
            if let Some(slot) = replies.get_mut(i) {
                *slot = reply.to_string();
            }
        }
        self.tr.end(root);
        for (line, reply) in lines.iter().zip(&replies) {
            self.keep(line, reply);
        }
        Ok(replies)
    }
}

// ---------------------------------------------------------- cluster replica --

/// The federation driven one layer call at a time, in the order the TCP
/// daemons make the calls: catch up, plan, prepare, commit, sync.
struct ClusterLayered {
    coord: Coordinator,
    members: Vec<Member>,
    next: usize,
    tr: Tracer,
    digest: Digest,
    sample: Vec<(String, String)>,
    applied_records: u64,
    proto_encode_ns: u64,
    proto_decode_ns: u64,
    proto_bytes: u64,
    proto_msgs: u64,
    ops: u64,
}

impl ClusterLayered {
    fn new(genesis: impl Fn() -> Network) -> Self {
        Self {
            coord: Coordinator::new(
                genesis(),
                e2e::CLUSTER_MEMBERS,
                e2e::CLUSTER_SEED,
                RebalancePolicy::Bfs,
            ),
            members: (0..e2e::CLUSTER_MEMBERS as u64)
                .map(|id| Member::new(id, genesis()))
                .collect(),
            next: 0,
            tr: Tracer::new(),
            digest: Digest::default(),
            sample: Vec::new(),
            applied_records: 0,
            proto_encode_ns: 0,
            proto_decode_ns: 0,
            proto_bytes: 0,
            proto_msgs: 0,
            ops: 0,
        }
    }

    /// What one member → coordinator message costs to put on the wire.
    fn wire_msg(&mut self, msg: &ClusterMsg) {
        if !self.tr.on {
            return;
        }
        let t0 = Instant::now();
        let body = encode_cluster_msg(msg);
        let t1 = Instant::now();
        black_box(decode_cluster_msg(&body).ok());
        self.note_wire(t0, t1, body.len());
    }

    /// What one coordinator → member message costs to put on the wire.
    fn wire_reply(&mut self, msg: &CoordMsg) {
        if !self.tr.on {
            return;
        }
        let t0 = Instant::now();
        let body = encode_coord_msg(msg);
        let t1 = Instant::now();
        black_box(decode_coord_msg(&body).ok());
        self.note_wire(t0, t1, body.len());
    }

    fn note_wire(&mut self, t0: Instant, t1: Instant, body: usize) {
        self.proto_encode_ns += (t1 - t0).as_nanos() as u64;
        self.proto_decode_ns += t1.elapsed().as_nanos() as u64;
        // Frames carry a 4-byte length prefix.
        self.proto_bytes += body as u64 + 4;
        self.proto_msgs += 1;
    }

    /// `SYNC` until member `m` is level with the coordinator; returns the
    /// outcome of the last record replayed.
    fn sync(&mut self, root: u32, m: usize) -> io::Result<Option<ApplyOutcome>> {
        let applied = self.members.get(m).map_or(0, Member::applied);
        let records = self
            .coord
            .records_since(applied)
            .map_err(|e| io::Error::other(e.to_string()))?
            .to_vec();
        self.wire_msg(&ClusterMsg::Sync { applied });
        self.wire_reply(&CoordMsg::Records {
            seq: self.coord.seq(),
            records: records.clone(),
        });
        let member = self.members.get_mut(m).ok_or(io::ErrorKind::NotFound)?;
        let s = self.tr.begin("cluster.member.apply", root);
        let outcomes = member.apply(&records);
        self.tr.end(s);
        if self.tr.on {
            self.applied_records += records.len() as u64;
        }
        Ok(outcomes.into_iter().last())
    }

    fn establish(&mut self, root: u32, m: usize, req: EstablishRequest) -> io::Result<Response> {
        self.sync(root, m)?;
        let member = self.members.get_mut(m).ok_or(io::ErrorKind::NotFound)?;
        let s = self.tr.begin("cluster.member.plan", root);
        let (_planned, footprint) = member.plan(&req);
        self.tr.end(s);
        self.wire_msg(&ClusterMsg::Prepare {
            footprint: footprint
                .iter()
                .map(|&(l, d)| (l.index() as u64, d))
                .collect(),
        });
        let s = self.tr.begin("cluster.coordinator.prepare", root);
        let prepared = self.coord.prepare(m as u64, &footprint);
        self.tr.end(s);
        let prepared = prepared.map_err(|e| io::Error::other(e.to_string()))?;
        self.wire_reply(&CoordMsg::Verdict {
            ticket: prepared.ticket,
            fresh: prepared.fresh,
        });
        self.wire_msg(&ClusterMsg::Commit {
            ticket: prepared.ticket,
            req: WireRequest::from_request(&req),
        });
        // The TCP daemons ship no plan: the coordinator re-plans serially
        // under the reservation.
        let s = self.tr.begin("cluster.coordinator.commit", root);
        let mut fill = None;
        let committed = self
            .coord
            .commit_prepared(prepared.ticket, None, &req, &mut fill);
        self.coord.flush(fill);
        self.tr.end(s);
        // The admission result itself is read back from the replayed record.
        let _admission = committed.map_err(|e| io::Error::other(e.to_string()))?;
        self.done_reply();
        Ok(match self.sync(root, m)? {
            Some(ApplyOutcome::Establish(Ok(id))) => match self.members.get(m) {
                Some(member) => admitted_reply(member.net(), id),
                None => err_reply(900, "no such member".into()),
            },
            Some(ApplyOutcome::Establish(Err(e))) => err_reply(e.wire_code(), e.to_string()),
            _ => err_reply(
                900,
                "replayed outcome does not match the committed op".into(),
            ),
        })
    }

    fn done_reply(&mut self) {
        let seq = self.coord.seq();
        self.wire_reply(&CoordMsg::Done {
            op_seq: seq.saturating_sub(1),
            seq,
        });
    }

    fn release(&mut self, root: u32, m: usize, id: u64) -> io::Result<Response> {
        let op = MemberOp::Release {
            id: ConnectionId(id),
        };
        self.wire_msg(&ClusterMsg::Op { op });
        let s = self.tr.begin("cluster.coordinator.forward", root);
        let forwarded = self.coord.forward(m as u64, op);
        self.tr.end(s);
        forwarded.map_err(|e| io::Error::other(e.to_string()))?;
        self.done_reply();
        Ok(match self.sync(root, m)? {
            Some(ApplyOutcome::Release(Ok(Some(kbps)))) => Response::Ok(format!("freed={kbps}")),
            Some(ApplyOutcome::Release(Err(e))) => err_reply(e.wire_code(), e.to_string()),
            _ => err_reply(
                900,
                "replayed outcome does not match the committed op".into(),
            ),
        })
    }
}

impl Exec for ClusterLayered {
    fn exec(&mut self, line: &str) -> io::Result<String> {
        // The client alternates over members 0 and 1, like the TCP run.
        let m = self.next % 2;
        self.next += 1;
        let root = self.tr.begin_op();
        let reply = match protocol::parse(line) {
            Ok(Request::Establish {
                src,
                dst,
                bmin,
                bmax,
                delta,
            }) => match qos_of(bmin, bmax, delta) {
                Ok(qos) => self.establish(
                    root,
                    m,
                    EstablishRequest {
                        src: NodeId(src),
                        dst: NodeId(dst),
                        qos,
                    },
                )?,
                Err(resp) => resp,
            },
            Ok(Request::Release { id }) => self.release(root, m, id)?,
            Ok(Request::Snapshot) => {
                self.sync(root, m)?;
                match self.members.get(m) {
                    Some(member) => snapshot_reply(member.net()),
                    None => err_reply(900, "no such member".into()),
                }
            }
            Ok(_) => err_reply(900, "verb outside the benchmark's op streams".into()),
            Err(e) => e.into(),
        }
        .to_string();
        self.tr.end(root);
        if self.tr.on {
            self.ops += 1;
            if self.sample.len() < CODEC_SAMPLE {
                self.sample.push((line.to_string(), reply.clone()));
            }
        }
        self.digest.push(line, &reply);
        Ok(reply)
    }
}

// ------------------------------------------------------------ small timers --

fn mean_ns(total: Duration, calls: usize) -> f64 {
    total.as_nanos() as f64 / calls.max(1) as f64
}

/// Runs `f` and returns its result and the wall time it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Times each codec in a loop over the recorded transcript and returns
/// (metric, value) pairs.
fn codec_metrics(sample: &[(String, String)]) -> Vec<(&'static str, f64)> {
    if sample.is_empty() {
        return Vec::new();
    }
    let reps = (200_000 / sample.len()).max(1);
    let calls = reps * sample.len();
    let requests: Vec<Request> = sample
        .iter()
        .filter_map(|(l, _)| protocol::parse(l).ok())
        .collect();
    let responses: Vec<Response> = sample
        .iter()
        .map(|(_, r)| protocol::parse_response(r))
        .collect();
    let request_frames: Vec<Vec<u8>> = requests.iter().map(frame::encode_request).collect();
    let response_frames: Vec<Vec<u8>> = responses.iter().map(frame::encode_response).collect();
    let looped = |f: &mut dyn FnMut()| {
        let ((), took) = timed(|| {
            for _ in 0..reps {
                f();
            }
        });
        mean_ns(took, calls)
    };
    // Frame bodies start after the 4-byte length prefix.
    let body = |f: &[u8]| f.get(4..).unwrap_or_default().to_vec();
    let request_bodies: Vec<Vec<u8>> = request_frames.iter().map(|f| body(f)).collect();
    let response_bodies: Vec<Vec<u8>> = response_frames.iter().map(|f| body(f)).collect();
    let mean_len = |bytes: usize| bytes as f64 / sample.len() as f64;
    vec![
        (
            "service.protocol.parse_ns",
            looped(&mut || {
                for (l, _) in sample {
                    black_box(protocol::parse(black_box(l)).ok());
                }
            }),
        ),
        (
            "service.protocol.render_ns",
            looped(&mut || {
                for r in &responses {
                    black_box(black_box(r).to_string());
                }
            }),
        ),
        (
            "service.frame.encode_request_ns",
            looped(&mut || {
                for r in &requests {
                    black_box(frame::encode_request(black_box(r)));
                }
            }),
        ),
        (
            "service.frame.decode_request_ns",
            looped(&mut || {
                for b in &request_bodies {
                    black_box(frame::decode_request(black_box(b)).ok());
                }
            }),
        ),
        (
            "service.frame.encode_response_ns",
            looped(&mut || {
                for r in &responses {
                    black_box(frame::encode_response(black_box(r)));
                }
            }),
        ),
        (
            "service.frame.decode_response_ns",
            looped(&mut || {
                for b in &response_bodies {
                    black_box(frame::decode_response(black_box(b)).ok());
                }
            }),
        ),
        (
            "service.protocol.request_bytes",
            mean_len(sample.iter().map(|(l, _)| l.len() + 1).sum()),
        ),
        (
            "service.protocol.response_bytes",
            mean_len(sample.iter().map(|(_, r)| r.len() + 1).sum()),
        ),
        (
            "service.frame.request_bytes",
            mean_len(request_frames.iter().map(Vec::len).sum()),
        ),
        (
            "service.frame.response_bytes",
            mean_len(response_frames.iter().map(Vec::len).sum()),
        ),
    ]
}

/// GTH solve of the 9-state chain Δ = 50 gives (100–500 Kbps).
fn markov_ns() -> f64 {
    let Ok(chain) = birth_death_ctmc(&[0.4; 8], &[0.6; 8]) else {
        return 0.0;
    };
    let calls = 2_000;
    let ((), took) = timed(|| {
        for _ in 0..calls {
            black_box(gth(black_box(&chain)).ok());
        }
    });
    mean_ns(took, calls)
}

fn paper_graph_ms() -> f64 {
    let calls = 5;
    let ((), took) = timed(|| {
        for _ in 0..calls {
            black_box(paper_graph(100, GRAPH_SEED));
        }
    });
    mean_ns(took, calls) / 1e6
}

/// Events per second of the figure sweeps' unit of work, plain and under
/// the flash-crowd scenario.
fn experiment_rates() -> (f64, f64) {
    let config = ExperimentConfig {
        churn_events: EXPERIMENT_EVENTS,
        network: NetworkConfig {
            route_cache: true,
            ..NetworkConfig::default()
        },
        shards: e2e::SHARDS,
        ..ExperimentConfig::paper_default(1000, 50)
    };
    let rate = |run: &dyn Fn()| {
        let ((), took) = timed(run);
        EXPERIMENT_EVENTS as f64 / took.as_secs_f64()
    };
    (
        rate(&|| drop(black_box(run_churn(paper_graph(100, GRAPH_SEED), &config)))),
        rate(&|| {
            drop(black_box(run_scenario_churn(
                paper_graph(100, GRAPH_SEED),
                &config,
                &Scenario::new(ScenarioKind::FlashCrowd),
            )))
        }),
    )
}

// ------------------------------------------------------------------- trace --

type Values = BTreeMap<&'static str, f64>;

/// What a fine-span replay hands back to [`trace`].
struct Fine {
    tracer: Tracer,
    digest: Digest,
    /// Time inside the layer calls proper, per call, ns.
    per_call_ns: f64,
    /// Wall time of the traced steps.
    wall: Duration,
}

/// Mean duration, µs, of the spans under any of `names`.
fn mean_us(totals: &BTreeMap<&'static str, (f64, u64)>, names: &[&str]) -> f64 {
    let (ns, calls) = names
        .iter()
        .filter_map(|n| totals.get(n))
        .fold((0.0, 0), |(a, b), &(ns, calls)| (a + ns, b + calls));
    ns / calls.max(1) as f64 / 1e3
}

/// The fine-span replay of `cluster3`: coordinator and replicas driven in
/// the order the TCP daemons make the calls.
fn cluster_layers(
    g: Graph,
    script: &mut Script,
    steps: usize,
    client_mean_ns: f64,
    v: &mut Values,
) -> io::Result<Fine> {
    let mut x = ClusterLayered::new(|| e2e::network(g.clone()));
    script.set_up(&mut x)?;
    let seq0 = x.coord.seq();
    x.tr.on = true;
    let (stepped, wall) = timed(|| (0..steps).try_for_each(|_| script.step(&mut x)));
    stepped?;
    x.tr.on = false;
    x.exec("SNAPSHOT")?;
    let totals = x.tr.totals();
    let mean_us = |name: &str| mean_us(&totals, &[name]);
    v.insert("cluster.member.plan_us", mean_us("cluster.member.plan"));
    v.insert(
        "cluster.coordinator.prepare_us",
        mean_us("cluster.coordinator.prepare"),
    );
    v.insert(
        "cluster.coordinator.commit_us",
        mean_us("cluster.coordinator.commit"),
    );
    v.insert(
        "cluster.coordinator.forward_us",
        mean_us("cluster.coordinator.forward"),
    );
    let apply_ns = totals.get("cluster.member.apply").map_or(0.0, |t| t.0);
    v.insert(
        "cluster.member.apply_us",
        apply_ns / x.applied_records.max(1) as f64 / 1e3,
    );
    let ops = x.ops.max(1) as f64;
    let msgs = x.proto_msgs.max(1) as f64;
    v.insert("cluster.proto.encode_ns", x.proto_encode_ns as f64 / msgs);
    v.insert("cluster.proto.decode_ns", x.proto_decode_ns as f64 / msgs);
    v.insert("cluster.proto.bytes_per_op", x.proto_bytes as f64 / ops);
    v.insert(
        "cluster.coordinator.stale_replan_ratio",
        x.coord.stale_replans() as f64 / ops,
    );
    v.insert(
        "cluster.coordinator.records_per_op",
        (x.coord.seq() - seq0) as f64 / ops,
    );
    let op_ns = totals.get("op").map_or(0.0, |t| t.0) / ops;
    v.insert("cluster.replica_set.op_us", op_ns / 1e3);
    v.insert(
        "service.clusterd.remainder_us",
        (client_mean_ns - op_ns) / 1e3,
    );
    for (name, value) in codec_metrics(&x.sample) {
        v.insert(name, value);
    }
    Ok(Fine {
        tracer: x.tr,
        digest: x.digest,
        per_call_ns: op_ns,
        wall,
    })
}

/// The fine-span replay of a single-daemon workload: one `Network` driven
/// one layer call at a time (`wave`: with the 4-shard twin beside it).
fn monolith_layers(
    g: Graph,
    wave: bool,
    script: &mut Script,
    steps: usize,
    calls: usize,
    v: &mut Values,
) -> io::Result<Fine> {
    let mut x = Layered::new(e2e::network(g), wave);
    script.set_up(&mut x)?;
    let cache0 = x.net.route_cache_stats();
    let wave0 = x.wave.as_ref().map_or(0, ShardedNetwork::stale_replans);
    x.tr.on = true;
    let (stepped, wall) = timed(|| (0..steps).try_for_each(|_| script.step(&mut x)));
    stepped?;
    x.tr.on = false;
    let cache1 = x.net.route_cache_stats();
    x.exec("SNAPSHOT")?;
    let (violations, checking) = timed(|| x.net.check_invariants().len());
    v.insert(
        "core.network.check_invariants_ms",
        checking.as_secs_f64() * 1e3,
    );
    if violations > 0 || x.counts.route_mismatches > 0 {
        return Err(io::Error::other(format!(
            "layer replica: {violations} invariant violations, {} route mismatches",
            x.counts.route_mismatches
        )));
    }
    let totals = x.tr.totals();
    let mean_us = |names: &[&str]| mean_us(&totals, names);
    let c = x.counts;
    let per = |sum: u64, n: u64| sum as f64 / n.max(1) as f64;
    v.insert(
        "core.routing.primary_us",
        mean_us(&["core.routing.primary"]),
    );
    v.insert("core.routing.backup_us", mean_us(&["core.routing.backup"]));
    v.insert(
        "core.routing.footprint_links",
        per(c.footprint_links, c.plans),
    );
    v.insert("core.network.plan_us", mean_us(&[PLAN_HIT, PLAN_MISS]));
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    v.insert("core.route_cache.hit_ratio", per(hits, hits + misses));
    v.insert(
        "core.route_cache.stale_ratio",
        per(cache1.stale_evictions - cache0.stale_evictions, misses),
    );
    v.insert("core.route_cache.hit_plan_us", mean_us(&[PLAN_HIT]));
    v.insert("core.route_cache.miss_plan_us", mean_us(&[PLAN_MISS]));
    v.insert("core.network.commit_us", mean_us(&["core.network.commit"]));
    v.insert("core.network.chained_primaries", per(c.chained, c.commits));
    v.insert(
        "core.network.release_us",
        mean_us(&["core.network.release"]),
    );
    v.insert(
        "core.network.fail_link_us",
        mean_us(&["core.network.fail_link"]),
    );
    v.insert(
        "core.network.repair_link_us",
        mean_us(&["core.network.repair_link"]),
    );
    v.insert(
        "core.network.activated_per_fault",
        per(c.activated, c.faults),
    );
    v.insert("core.network.dropped_per_fault", per(c.dropped, c.faults));
    v.insert("core.network.rejected_ratio", per(c.rejected, c.plans));
    v.insert(
        "core.network.batch16_us",
        mean_us(&["core.network.batch16"]),
    );
    v.insert("core.shard.wave16_us", mean_us(&["core.shard.wave16"]));
    let wave1 = x.wave.as_ref().map_or(0, ShardedNetwork::stale_replans);
    v.insert(
        "core.shard.stale_replan_ratio",
        per(wave1 - wave0, c.batch_requests),
    );
    for (name, value) in codec_metrics(&x.sample) {
        v.insert(name, value);
    }
    // Time inside the layers proper, per request, for the overhead
    // column (the route probes are diagnostics, not engine work).
    // Per call, as `handle_us` is: a `burst16` batch is one call.
    let layer_ns = [
        PLAN_HIT,
        PLAN_MISS,
        "core.network.commit",
        "core.network.release",
        "core.network.fail_link",
        "core.network.repair_link",
        "core.network.batch16",
    ]
    .iter()
    .map(|n| totals.get(n).map_or(0.0, |t| t.0))
    .sum::<f64>()
        / calls.max(1) as f64;
    Ok(Fine {
        tracer: x.tr,
        digest: x.digest,
        per_call_ns: layer_ns,
        wall,
    })
}

/// The traced run of one workload.
#[derive(Debug)]
pub struct Traced {
    /// The per-layer record (every [`PER_LAYER`] metric, 0 where the
    /// workload does not exercise the layer).
    pub record: Record,
    /// The spans, for the trace file.
    pub tracer: Tracer,
}

/// Runs `spec` traced: the socket run for the client's view, the plain
/// engine replay for `handle_us`, then the fine-span replay.
///
/// # Errors
///
/// Transport failures and set-ups that cannot reach `P`.
pub fn trace(spec: &Spec, opt: &Options) -> io::Result<Traced> {
    let (sized, _) = opt.sized(spec);
    let mut v = Values::new();

    // 1. The client's view, over the real transport, probes included.
    let mut floor_ns = 0.0;
    let mut m = e2e::measure_with(spec, opt, &mut |live| {
        floor_ns = floor_probe_ns(live)?;
        Ok(())
    })?;
    let steps = m.steps;
    for (name, value) in crate::report::observed(&m) {
        v.insert(name, value);
    }
    v.insert("host_speed_factor", m.host_speed_factor);
    v.insert("client.mean_latency_us", m.raw.mean_ns / 1e3);
    v.insert("service.server.rtt_floor_us", floor_ns / 1e3);
    v.insert("service.server.connect_us", m.connect_ns as f64 / 1e3);
    v.insert(
        "service.server.shutdown_ms",
        m.closing.shutdown_ns as f64 / 1e6,
    );
    v.insert(
        "service.server.busy_ratio",
        m.window.busy as f64 / m.window.requests.max(1) as f64,
    );

    // 2. The same op stream through the engine alone, one
    //    `handle_server_batch(&[line])` per request.
    let plain = e2e::replay(&sized, opt.seed, steps, true)?;
    if sized.deterministic() {
        m.reference = Some(plain.client.rec.digest.0);
    }
    let handled = &plain.client.rec.samples;
    let handle_ns =
        handled.iter().map(|s| s.latency_ns as f64).sum::<f64>() / handled.len().max(1) as f64;
    v.insert("service.engine.handle_us", handle_ns / 1e3);

    // 3. The fine-span replay against in-process replicas.
    let g = e2e::graph(sized.topology);
    let mut script = Script::new(&sized, opt.seed, 0, g.node_count(), g.link_count());
    let steps = usize::try_from(steps).unwrap_or(usize::MAX);
    let fine = if sized.transport == Transport::Cluster3 {
        cluster_layers(g, &mut script, steps, m.raw.mean_ns, &mut v)?
    } else {
        // Per call, as `handle_us` is: a `burst16` batch is one call.
        let calls = plain.client.rec.samples.len();
        let wave = sized.shape == Shape::Burst;
        monolith_layers(g, wave, &mut script, steps, calls, &mut v)?
    };

    // How the columns reconcile, per request:
    //   client latency = engine.handle + server.remainder
    //   engine.handle  = layer calls   + engine.overhead
    if sized.transport != Transport::Cluster3 {
        v.insert(
            "service.engine.overhead_us",
            (handle_ns - fine.per_call_ns) / 1e3,
        );
        let remainder = if sized.transport == Transport::EngineBatch {
            0.0
        } else {
            m.raw.mean_ns - handle_ns
        };
        v.insert("service.server.remainder_us", remainder / 1e3);
    }
    v.insert("trace.spans", fine.tracer.spans.len() as f64);
    v.insert(
        "trace.overhead_ratio",
        fine.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0,
    );
    v.insert("markov.steady_state_9_ns", markov_ns());
    v.insert("topology.paper_graph_ms", paper_graph_ms());
    if spec.name == "paper_churn" && !opt.quick {
        let (churn, flash) = experiment_rates();
        v.insert("core.experiment.churn_events_per_s", churn);
        v.insert("core.scenario.flashcrowd_events_per_s", flash);
    }

    let replica_matches = fine.digest.0 == plain.client.rec.digest.0;
    let mut detail = crate::report::detail(&m);
    detail.push((
        "layer_replica_digest_matches_engine".into(),
        Json::Bool(replica_matches),
    ));
    let record = Record {
        workload: spec.name.to_string(),
        correct: m.correct() && replica_matches,
        attempted: m.window.requests,
        failed: m.window.unexpected(),
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, v.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
        observed: Vec::new(),
        detail,
    };
    Ok(Traced {
        record,
        tracer: fine.tracer,
    })
}

/// Round trip of a `RELEASE` of an id that never existed, p50 over
/// [`FLOOR_PROBES`]: the whole path — codec, socket, reader thread, queue,
/// engine dispatch, reply — with no network work at the end of it.
fn floor_probe_ns(live: &mut e2e::Live) -> io::Result<f64> {
    let Some(first) = live.clients.first_mut() else {
        return Ok(0.0);
    };
    let line = format!("RELEASE {}", u64::MAX);
    let mut samples = Vec::with_capacity(FLOOR_PROBES);
    for _ in 0..FLOOR_PROBES {
        let t0 = Instant::now();
        first.rec.target().exec(&line)?;
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    Ok(crate::stats::nearest_rank(&samples, 0.5).unwrap_or(0) as f64)
}
