//! The admission-control engine: the request-metrics layer over the
//! `Authority` its operations commit at, driven one command — or one
//! batch of lines — at a time.
//!
//! The engine has no interior locking: the daemon keeps it behind one
//! lock and calls it once per request (see [`crate::server`]), so every
//! call sees the state the previous one left. Every response except
//! `STATS` is a pure function of the command sequence applied so far,
//! which is what makes protocol sessions golden-traceable.

use crate::error::ProtocolError;
use crate::metrics::{Metrics, OpTimer, INVALID};
use crate::protocol::{self, Request, Response};
use drqos_cluster::coordinator::{ApplyOutcome, MemberOp};
use drqos_core::error::NetworkError;
use drqos_core::network::{EstablishRequest, FailureReport, Network};
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where an operation commits — the one thing `drqosd` (on its own
/// [`Network`]) and a federation member (at its coordinator, replayed on
/// its replica: [`crate::clusterd::MemberState`]) decide differently.
/// Nothing else in the engine asks which daemon it serves.
pub trait Authority: Send {
    /// The network replies are rendered from.
    fn net(&self) -> &Network;
    /// Commits one operation: its outcome on [`Authority::net`] (`None`:
    /// the replay never reached it), or a refusal that is the reply.
    fn commit(&mut self, op: MemberOp) -> Result<Option<ApplyOutcome>, Response>;
    /// Levels [`Authority::net`] with every commit, before a `SNAPSHOT`.
    fn sync(&mut self) -> Result<(), Response> {
        Ok(())
    }
    /// Runs once, before the final invariant check.
    fn leave(&mut self) {}
    /// Fields appended to the `STATS` line.
    fn stats_tail(&self) -> String {
        String::new()
    }
}

/// `drqosd`: the network is its own authority.
impl Authority for Network {
    fn net(&self) -> &Network {
        self
    }
    fn commit(&mut self, op: MemberOp) -> Result<Option<ApplyOutcome>, Response> {
        Ok(Some(op.apply(self)))
    }
}

/// One `ESTABLISH` waiting in a batch run: its reply slot, its metrics
/// row and timer (started at parse time), and the validated request.
struct PendingEstablish {
    slot: usize,
    row: usize,
    t0: OpTimer,
    req: EstablishRequest,
}

/// Fills a reply slot without indexing (the daemon zone is panic-free).
fn set_slot(out: &mut [Option<Handled>], slot: usize, handled: Handled) {
    if let Some(s) = out.get_mut(slot) {
        *s = Some(handled);
    }
}

/// What the server should do with a handled line.
#[derive(Debug)]
pub enum Handled {
    /// Send this response to the client.
    Reply(Response),
    /// The line was a `SHUTDOWN` request: serve every request already
    /// read, then call [`Engine::finish_shutdown`] and send its response.
    ShutdownRequested,
}

/// The network engine behind either daemon.
pub struct Engine {
    authority: Box<dyn Authority>,
    metrics: Metrics,
    /// `BUSY` responses sent by reader threads (they never reach the
    /// engine, so the count crosses threads via an atomic).
    busy: Arc<AtomicU64>,
}

impl Engine {
    /// Wraps a network.
    pub fn new(net: Network) -> Self {
        Self::over(Box::new(net))
    }

    /// An engine whose operations commit at `authority`.
    pub(crate) fn over(authority: Box<dyn Authority>) -> Self {
        Self {
            authority,
            metrics: Metrics::new(),
            busy: Arc::new(AtomicU64::new(0)),
        }
    }

    /// [`Engine::new`]; `_shards` is ignored. It stays only because
    /// `benchmark/` calls this signature (ROADMAP 4(c)).
    pub fn with_shards(net: Network, _shards: usize) -> Self {
        Self::new(net)
    }

    /// The network under the engine.
    pub fn network(&self) -> &Network {
        self.authority.net()
    }

    /// The request-metrics layer.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The shared counter reader threads bump when they answer `BUSY`.
    pub(crate) fn busy_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.busy)
    }

    /// Handles one line for an interactive (non-server) caller, except
    /// that `SHUTDOWN` completes immediately. This is the entry point
    /// golden-session replays use.
    pub fn handle_line(&mut self, line: &str) -> Response {
        match self.handle_one(line) {
            Handled::Reply(r) => r,
            Handled::ShutdownRequested => self.finish_shutdown(),
        }
    }

    /// Handles one line for the server: parse, commit, render, record —
    /// what [`Engine::handle_server_batch`] does with a line outside an
    /// establish run, and with a run of one.
    pub(crate) fn handle_one(&mut self, line: &str) -> Handled {
        let t0 = OpTimer::start();
        let (row, parsed, op) = read(line);
        self.serve(t0, row, parsed, op)
    }

    /// Handles a batch of lines. `SHUTDOWN` is deferred so the caller can
    /// serve what came before it first; metrics are recorded for every
    /// line, including malformed ones. Every state-changing line is one
    /// [`MemberOp::apply`]; runs of consecutive `ESTABLISH` commands are
    /// applied back to back before any of them is answered.
    ///
    /// Replies land in input order, one per line. Each run is sorted by
    /// [`Network::contention_order`] before admission and the results are
    /// mapped back; this is observable only as admission order. The `bw=`
    /// field of a batched establish reply reflects the network *after the
    /// whole run commits*, exactly as if the requests had been admitted
    /// back-to-back with no reader between them.
    pub fn handle_server_batch(&mut self, lines: &[String]) -> Vec<Handled> {
        let mut out: Vec<Option<Handled>> = Vec::with_capacity(lines.len());
        let mut run: Vec<PendingEstablish> = Vec::new();
        for (slot, line) in lines.iter().enumerate() {
            out.push(None);
            let t0 = OpTimer::start();
            let (row, parsed, op) = read(line);
            if let Some(Ok(MemberOp::Establish { req })) = op {
                run.push(PendingEstablish { slot, row, t0, req });
                continue;
            }
            // Any other command but a refused QoS range, which never
            // touches the network, is an ordering barrier: flush the run
            // first so state mutations keep their queue order.
            if !matches!(op, Some(Err(_))) {
                self.flush_pending(&mut run, &mut out);
            }
            let handled = self.serve(t0, row, parsed, op);
            set_slot(&mut out, slot, handled);
        }
        self.flush_pending(&mut run, &mut out);
        out.into_iter()
            .map(|h| {
                h.unwrap_or_else(|| {
                    Handled::Reply(ProtocolError::internal("batch reply slot unfilled").into())
                })
            })
            .collect()
    }

    /// The one commit → render → record body, for a line [`read`] has
    /// read and `t0` started timing.
    fn serve(&mut self, t0: OpTimer, row: usize, parsed: Parsed, op: Option<Op>) -> Handled {
        let handled = match (parsed, op) {
            (_, Some(Ok(op))) => {
                let committed = self.authority.commit(op);
                Handled::Reply(self.render(committed))
            }
            (_, Some(Err(refused))) => Handled::Reply(refused),
            (Ok(Request::Shutdown), None) => Handled::ShutdownRequested,
            (Ok(req), None) => Handled::Reply(self.dispatch(&req)),
            (Err(e), None) => Handled::Reply(e.into()),
        };
        let failed = matches!(&handled, Handled::Reply(r) if r.is_err());
        self.metrics.record(row, t0.elapsed(), failed);
        handled
    }

    /// Applies one buffered establish run in contention order — a run of
    /// one is a single establish — and renders each reply from the
    /// settled network.
    fn flush_pending(&mut self, run: &mut Vec<PendingEstablish>, out: &mut [Option<Handled>]) {
        if run.is_empty() {
            return;
        }
        let reqs: Vec<EstablishRequest> = run.iter().map(|p| p.req).collect();
        let order = self.authority.net().contention_order(&reqs);
        let committed: Vec<_> = order
            .iter()
            .filter_map(|&i| reqs.get(i).copied())
            .map(|req| self.authority.commit(MemberOp::Establish { req }))
            .collect();
        // Un-permute: the outcome at batch position k answers request
        // `order[k]`.
        for (&i, committed) in order.iter().zip(committed) {
            let Some(p) = run.get(i) else { continue };
            let resp = self.render(committed);
            self.metrics.record(p.row, p.t0.elapsed(), resp.is_err());
            set_slot(out, p.slot, Handled::Reply(resp));
        }
        run.clear();
    }

    /// The reply to a committed operation, read from the settled network.
    fn render(&self, committed: Result<Option<ApplyOutcome>, Response>) -> Response {
        committed.map_or_else(
            |refused| refused,
            |outcome| render_outcome(self.authority.net(), outcome),
        )
    }

    /// Runs the final invariant check and reports the first violation's
    /// stable code and the full count (the daemon also exits non-zero
    /// then). The caller (the server's drain or [`Engine::handle_line`])
    /// sends this as the `SHUTDOWN` response once every earlier request
    /// is served.
    pub fn finish_shutdown(&mut self) -> Response {
        self.authority.leave();
        let violations = self.authority.net().check_invariants();
        match violations.first() {
            None => Response::Ok("violations=0".to_string()),
            Some(first) => Response::Err {
                code: first.wire_code(),
                message: format!("shutdown with {} invariant violations", violations.len()),
            },
        }
    }

    /// The deterministic `SNAPSHOT` reply, read once the network is level
    /// with every commit: counts and integer totals only — no floats, no
    /// wall-clock — so concurrent sessions that end in the same network
    /// state produce the same line.
    fn snapshot(&mut self) -> Response {
        if let Err(refused) = self.authority.sync() {
            return refused;
        }
        let net = self.authority.net();
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

    /// Serves one parsed local verb. Every state-changing verb is a
    /// [`MemberOp`] committed at the [`Authority`] instead, so both
    /// daemons answer from the same transition function and the same
    /// renderer.
    fn dispatch(&mut self, req: &Request) -> Response {
        match req {
            Request::Snapshot => self.snapshot(),
            Request::Stats => Response::Ok(self.stats_payload()),
            Request::Shutdown => self.finish_shutdown(),
            // `serve` commits every operation; answering one here
            // anyway (instead of unreachable!) keeps dispatch total.
            _ => ProtocolError::internal("operation bypassed its commit").into(),
        }
    }

    /// The `STATS` payload: the one intentionally non-deterministic reply
    /// (latency and throughput are wall-clock measurements), then the
    /// authority's own fields.
    fn stats_payload(&self) -> String {
        let merged = self.metrics.merged_latency();
        format!(
            "ops={} errors={} admitted={} rejected={} busy={} \
             p50_us={} p95_us={} p99_us={} ops_per_sec={}{}",
            self.metrics.total_ops(),
            self.metrics.total_errors(),
            self.metrics.admitted,
            self.metrics.rejected,
            self.busy.load(Ordering::Relaxed),
            merged.quantile_us(0.50),
            merged.quantile_us(0.95),
            merged.quantile_us(0.99),
            self.metrics.ops_per_sec() as u64,
            self.authority.stats_tail()
        )
    }
}

/// A parsed line.
type Parsed = Result<Request, ProtocolError>;

/// What [`member_op`] makes of a request.
type Op = Result<MemberOp, Response>;

/// Parses `line`: its metrics row, the request, and the operation it asks
/// the [`Authority`] for.
fn read(line: &str) -> (usize, Parsed, Option<Op>) {
    let parsed = protocol::parse(line);
    let row = parsed.as_ref().map_or(INVALID, Request::row);
    let op = parsed.as_ref().ok().and_then(member_op);
    (row, parsed, op)
}

/// The operation a request asks the [`Authority`] for: `None` for a
/// local verb. A refused QoS range ([`MemberOp::from_parts`]) is already
/// the wire-coded reply, and never reaches a network or a coordinator.
/// The one `Request → MemberOp` conversion.
fn member_op(req: &Request) -> Option<Op> {
    let (verb, operands) = req.parts();
    MemberOp::from_parts(verb, operands).map(|op| op.map_err(|e| wire_err(e.wire_code(), e)))
}

/// An `ERR` reply carrying a domain error's stable wire code.
fn wire_err(code: u16, e: impl Display) -> Response {
    Response::Err {
        code,
        message: e.to_string(),
    }
}

/// Renders the outcome of an operation — applied directly by `drqosd`,
/// or replayed from the oplog by a member daemon (`None`: the replay never
/// reached the operation's sequence number). An admitted connection is
/// read back from `net`, the network it was applied to.
fn render_outcome(net: &Network, outcome: Option<ApplyOutcome>) -> Response {
    fn reply<T>(result: Result<T, NetworkError>, ok: impl FnOnce(T) -> String) -> Response {
        match result {
            Ok(value) => Response::Ok(ok(value)),
            Err(e) => wire_err(e.wire_code(), e),
        }
    }
    fn link_totals(report: FailureReport) -> String {
        format!(
            "links={} activated={} dropped={}",
            report.links.len(),
            report.activated.len(),
            report.dropped.len()
        )
    }
    match outcome {
        Some(ApplyOutcome::Establish(Ok(id))) => match net.connection(id) {
            Some(c) => Response::Ok(format!(
                "id={} bw={} hops={} backups={}",
                id.0,
                c.bandwidth().as_kbps(),
                c.primary().hop_count(),
                c.backup_count()
            )),
            // An admitted connection must be readable back; if not the
            // state is inconsistent — report, don't panic.
            None => ProtocolError::internal("established connection not readable back").into(),
        },
        Some(ApplyOutcome::Establish(Err(e))) => wire_err(e.wire_code(), e),
        // `release` retreats the channel to its QoS minimum before
        // removing it, so the outcome carries the bandwidth held before.
        Some(ApplyOutcome::Release(Ok(Some(kbps)))) => Response::Ok(format!("freed={kbps}")),
        // A successful release of a connection that was not readable
        // beforehand would mean the network is inconsistent; report,
        // don't panic.
        Some(ApplyOutcome::Release(Ok(None))) => {
            ProtocolError::internal("released connection had no readable bandwidth").into()
        }
        Some(ApplyOutcome::Release(Err(e))) => wire_err(e.wire_code(), e),
        Some(ApplyOutcome::FailLink(r)) => reply(r, |report| {
            format!(
                "activated={} dropped={} lost_backup={} retreated={}",
                report.activated.len(),
                report.dropped.len(),
                report.lost_backup.len(),
                report.retreated.len()
            )
        }),
        Some(ApplyOutcome::RepairLink(r) | ApplyOutcome::RepairSrlg(r)) => {
            reply(r, |regained| format!("regained={}", regained.len()))
        }
        Some(ApplyOutcome::FailNode(r) | ApplyOutcome::FailSrlg(r)) => reply(r, link_totals),
        None => ProtocolError::internal("replayed outcome does not match the committed op").into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_core::network::NetworkConfig;
    use drqos_topology::regular;

    fn engine() -> Engine {
        Engine::new(Network::new(
            regular::ring(6).unwrap(),
            NetworkConfig::default(),
        ))
    }

    #[test]
    fn establish_release_round_trip() {
        let mut e = engine();
        let r = e.handle_line("ESTABLISH 0 3 100 500 100");
        let Response::Ok(payload) = &r else {
            panic!("expected OK, got {r}");
        };
        let id = protocol::payload_field(payload, "id").unwrap();
        assert_eq!(protocol::payload_field(payload, "bw"), Some(500));
        assert_eq!(protocol::payload_field(payload, "backups"), Some(1));
        let r = e.handle_line(&format!("RELEASE {id}"));
        assert_eq!(r, Response::Ok("freed=500".to_string()));
        assert_eq!(e.metrics().admitted, 1);
    }

    #[test]
    fn errors_carry_stable_codes() {
        let mut e = engine();
        match e.handle_line("RELEASE 42") {
            Response::Err { code, .. } => assert_eq!(code, 300),
            other => panic!("expected ERR, got {other}"),
        }
        match e.handle_line("ESTABLISH 1 1 100 500 100") {
            Response::Err { code, .. } => assert_eq!(code, 201),
            other => panic!("expected ERR, got {other}"),
        }
        match e.handle_line("ESTABLISH 0 2 0 500 100") {
            Response::Err { code, .. } => assert_eq!(code, 100),
            other => panic!("expected ERR, got {other}"),
        }
        match e.handle_line("NONSENSE") {
            Response::Err { code, .. } => assert_eq!(code, 2),
            other => panic!("expected ERR, got {other}"),
        }
        assert_eq!(e.metrics().total_errors(), 4);
    }

    #[test]
    fn snapshot_is_deterministic_and_integer_only() {
        let mut e = engine();
        e.handle_line("ESTABLISH 0 3 100 500 100");
        let a = e.handle_line("SNAPSHOT");
        let b = e.handle_line("SNAPSHOT");
        assert_eq!(a, b);
        let Response::Ok(payload) = a else {
            panic!("SNAPSHOT must succeed")
        };
        assert_eq!(protocol::payload_field(&payload, "conns"), Some(1));
        assert_eq!(protocol::payload_field(&payload, "bw"), Some(500));
        assert_eq!(protocol::payload_field(&payload, "nodes"), Some(6));
        assert!(!payload.contains('.'), "floats leak: {payload}");
    }

    #[test]
    fn failure_commands_report_counts() {
        let mut e = engine();
        assert!(matches!(
            e.handle_line("ESTABLISH 0 3 100 500 100"),
            Response::Ok(_)
        ));
        let r = e.handle_line("FAIL-LINK 0");
        let Response::Ok(payload) = r else {
            panic!("FAIL-LINK on an up link must succeed");
        };
        assert!(payload.starts_with("activated="));
        let r = e.handle_line("FAIL-LINK 0");
        assert!(matches!(r, Response::Err { code: 302, .. }));
        let r = e.handle_line("REPAIR-LINK 0");
        assert!(matches!(r, Response::Ok(_)));
    }

    #[test]
    fn shutdown_checks_invariants() {
        let mut e = engine();
        e.handle_line("ESTABLISH 0 2 100 500 100");
        assert_eq!(
            e.handle_line("SHUTDOWN"),
            Response::Ok("violations=0".to_string())
        );
    }

    #[test]
    fn server_batch_matches_sequential_lines_on_an_idle_network() {
        // On an idle network every link has zero heat, so the contention
        // sort is the identity and the batch path must reproduce the
        // sequential replies byte-for-byte — including the error slots.
        let lines: Vec<String> = [
            "ESTABLISH 0 3 100 500 100",
            "ESTABLISH 1 4 100 500 100",
            "ESTABLISH 2 2 100 500 100", // src == dst: admission error
            "BOGUS",
            "RELEASE 0",
            "SNAPSHOT",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut sequential = engine();
        let expected: Vec<String> = lines
            .iter()
            .map(|l| sequential.handle_line(l).to_string())
            .collect();
        let mut batched = engine();
        let got: Vec<String> = batched
            .handle_server_batch(&lines)
            .into_iter()
            .map(|h| match h {
                Handled::Reply(r) => r.to_string(),
                Handled::ShutdownRequested => "SHUTDOWN".to_string(),
            })
            .collect();
        assert_eq!(got, expected);
        assert_eq!(
            batched.metrics().total_ops(),
            sequential.metrics().total_ops()
        );
        assert_eq!(batched.metrics().admitted, 2);
        assert_eq!(batched.metrics().rejected, 1);
    }

    #[test]
    fn a_one_line_batch_is_handle_line() {
        // Admissions, a rejection, a QoS-range error, a barrier op and a
        // malformed line: each as a batch of one and through handle_line.
        let lines = [
            "ESTABLISH 0 3 100 500 100",
            "ESTABLISH 3 0 100 500 100",
            "ESTABLISH 2 2 100 500 100",
            "ESTABLISH 0 2 0 500 100",
            "RELEASE 0",
            "BOGUS",
            "SNAPSHOT",
        ];
        let (mut by_line, mut by_batch) = (engine(), engine());
        for line in lines {
            let want = by_line.handle_line(line);
            let got = by_batch.handle_server_batch(&[line.to_string()]);
            let [Handled::Reply(got)] = got.as_slice() else {
                panic!("one line, one reply: {got:?}");
            };
            assert_eq!(got, &want, "{line}");
        }
        let (a, b) = (by_line.metrics(), by_batch.metrics());
        assert_eq!(a.total_ops(), b.total_ops());
        assert_eq!(a.total_errors(), b.total_errors());
        assert_eq!((a.admitted, a.rejected), (b.admitted, b.rejected));
        assert_eq!((a.admitted, a.rejected, a.total_errors()), (2, 2, 3));
    }

    #[test]
    fn server_batch_defers_shutdown_and_serves_the_rest() {
        let lines: Vec<String> = ["ESTABLISH 0 3 100 500 100", "SHUTDOWN", "SNAPSHOT"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut e = engine();
        let handled = e.handle_server_batch(&lines);
        assert!(matches!(
            handled.first(),
            Some(Handled::Reply(Response::Ok(_)))
        ));
        assert!(matches!(handled.get(1), Some(Handled::ShutdownRequested)));
        assert!(matches!(
            handled.get(2),
            Some(Handled::Reply(Response::Ok(_)))
        ));
    }

    #[test]
    fn batched_establish_replies_read_post_batch_bandwidth() {
        // Two antipodal connections on a tight ring force redistribution;
        // both replies must report the settled (post-batch) bandwidth, and
        // both must be admitted.
        let mut e = Engine::new(Network::new(
            regular::ring(6).unwrap(),
            drqos_core::network::NetworkConfig {
                capacity: drqos_core::qos::Bandwidth::kbps(800),
                ..drqos_core::network::NetworkConfig::default()
            },
        ));
        let lines: Vec<String> = ["ESTABLISH 0 3 100 500 100", "ESTABLISH 3 0 100 500 100"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut ids = Vec::new();
        for h in e.handle_server_batch(&lines) {
            let Handled::Reply(Response::Ok(payload)) = h else {
                panic!("both batched establishes must be admitted: {h:?}");
            };
            let id = protocol::payload_field(&payload, "id").unwrap();
            let bw = protocol::payload_field(&payload, "bw").unwrap();
            let now = e
                .network()
                .connection(drqos_core::channel::ConnectionId(id))
                .unwrap()
                .bandwidth()
                .as_kbps();
            assert_eq!(bw, now, "reply bw must match settled state for id {id}");
            ids.push(id);
        }
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn stats_reports_counters() {
        let mut e = engine();
        e.handle_line("ESTABLISH 0 2 100 500 100");
        e.handle_line("BOGUS");
        let Response::Ok(payload) = e.handle_line("STATS") else {
            panic!("STATS must succeed");
        };
        assert_eq!(protocol::payload_field(&payload, "admitted"), Some(1));
        assert_eq!(protocol::payload_field(&payload, "errors"), Some(1));
        assert_eq!(protocol::payload_field(&payload, "busy"), Some(0));
        // ops counted *before* this STATS call is recorded: establish +
        // invalid.
        assert_eq!(protocol::payload_field(&payload, "ops"), Some(2));
    }
}
