//! Closed-loop multi-client load generation against a running `drqosd`.
//!
//! Each of N worker threads opens its own TCP connection and replays a
//! seeded slice of the repo's standard workload
//! ([`drqos_core::workload::Workload`]): establish a connection, sometimes
//! release one it owns, finally release everything it still holds.
//! Workers are *closed-loop* — at most one in-flight request per
//! connection — so achieved throughput is a fair serving benchmark, not a
//! buffer-depth artifact. Per-request latency is measured client-side
//! (send → response) into the same histogram the daemon uses.
//!
//! Streams are disjoint by construction: a worker only ever releases ids
//! it established itself, so any `ERR` outside admission rejections
//! (codes 200–299) indicates a server bug and fails the run.
//!
//! **Multi-endpoint mode** (`endpoints` non-empty / `--endpoints`)
//! spreads the workers round-robin over several daemons — the cluster's
//! member endpoints — with split-mix seeding per endpoint *then* per
//! worker, so adding an endpoint reshuffles no other endpoint's streams.
//! Per-endpoint tallies land in the runtime JSON, a worker whose daemon
//! dies mid-run records a disconnect (plus its partial stats) instead of
//! failing the run, and **availability** — completed establish attempts
//! over planned — becomes the headline churn metric.

use crate::client::Client;
use crate::metrics::Histogram;
use crate::protocol::payload_field;
use drqos_bench::runner::derive_seed;
use drqos_core::env::WireMode;
use drqos_core::qos::{Bandwidth, ElasticQos};
use drqos_core::scenario::{Scenario, ScenarioKind};
use drqos_core::workload::Workload;
use drqos_sim::rng::Rng;
use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7841` (single-endpoint mode).
    pub addr: String,
    /// Cluster member endpoints; when non-empty, workers are assigned
    /// round-robin over these and `addr` is ignored. A single daemon
    /// dying mid-run is tolerated (counted as disconnects), the rest of
    /// the fleet keeps serving.
    pub endpoints: Vec<String>,
    /// Worker threads (= concurrent client connections).
    pub clients: usize,
    /// `ESTABLISH` attempts per worker.
    pub requests_per_client: usize,
    /// Base seed; worker i runs on `derive_seed(seed, i)`.
    pub seed: u64,
    /// Probability of issuing a `RELEASE` after each establish attempt.
    pub release_prob: f64,
    /// Elastic range minimum (Kbps).
    pub bmin: u64,
    /// Elastic range maximum (Kbps).
    pub bmax: u64,
    /// Increment Δ (Kbps).
    pub delta: u64,
    /// Send `SHUTDOWN` after the run and verify the clean-exit reply.
    pub shutdown: bool,
    /// Wire mode to speak (must match the daemon's `DRQOS_WIRE`).
    pub wire: WireMode,
    /// Arrival-shaping scenario (`DRQOS_SCENARIO`): each worker thins its
    /// request slots against the scenario's rate curve, so a flash-crowd
    /// run concentrates establishes in seeded burst windows while a
    /// diurnal run modulates them piecewise. `Baseline` (and any scenario
    /// whose arrival rate is flat) sends every slot, byte-identical to the
    /// unshaped generator.
    pub scenario: ScenarioKind,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7841".to_string(),
            endpoints: Vec::new(),
            clients: 4,
            requests_per_client: 250,
            seed: 2001,
            release_prob: 0.4,
            bmin: 100,
            bmax: 500,
            delta: 100,
            shutdown: false,
            wire: drqos_core::env::wire(),
            scenario: drqos_core::env::scenario(),
        }
    }
}

/// Per-endpoint tallies of a multi-endpoint run (one row per daemon).
#[derive(Debug, Clone)]
pub struct EndpointStats {
    /// The endpoint address.
    pub addr: String,
    /// Requests answered by this endpoint.
    pub ops: u64,
    /// Connections admitted here.
    pub admitted: u64,
    /// Admission rejections here.
    pub rejected: u64,
    /// `BUSY` replies here.
    pub busy_retries: u64,
    /// Protocol errors here.
    pub protocol_errors: u64,
    /// Workers that lost this endpoint mid-run (daemon crash/EOF).
    pub disconnects: u64,
}

impl EndpointStats {
    fn new(addr: String) -> Self {
        Self {
            addr,
            ops: 0,
            admitted: 0,
            rejected: 0,
            busy_retries: 0,
            protocol_errors: 0,
            disconnects: 0,
        }
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"addr\":\"{}\",\"ops\":{},\"admitted\":{},\"rejected\":{},",
                "\"busy_retries\":{},\"protocol_errors\":{},\"disconnects\":{}}}"
            ),
            self.addr,
            self.ops,
            self.admitted,
            self.rejected,
            self.busy_retries,
            self.protocol_errors,
            self.disconnects,
        )
    }
}

/// Aggregated outcome of a load-generation run.
#[derive(Debug)]
pub struct LoadgenReport {
    /// Total requests sent (establish + release, excluding the initial
    /// snapshot and any final shutdown).
    pub ops: u64,
    /// Connections admitted.
    pub admitted: u64,
    /// Admission rejections (expected under load; codes 100–299).
    pub rejected: u64,
    /// `BUSY` replies (each is retried until the command lands).
    pub busy_retries: u64,
    /// Protocol errors: malformed-command codes (1–99), unexpected
    /// network-level errors (300+), or unparseable replies. Must be zero
    /// for a healthy server.
    pub protocol_errors: u64,
    /// Client-observed request latency.
    pub latency: Histogram,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Whether the final `SHUTDOWN` (if requested) reported a clean,
    /// invariant-checked exit — on *every* reachable endpoint in
    /// multi-endpoint mode.
    pub clean_shutdown: Option<bool>,
    /// Completed establish attempts over planned (`clients` ×
    /// `requests_per_client`). 1.0 when every worker finished its script;
    /// lower when daemons died under churn.
    pub availability: f64,
    /// Workers that lost their endpoint mid-run (multi-endpoint mode).
    pub disconnects: u64,
    /// Per-endpoint tallies, in `endpoints` order (one row — `addr` — in
    /// single-endpoint mode).
    pub endpoints: Vec<EndpointStats>,
}

impl LoadgenReport {
    /// Achieved operations per second across all clients.
    pub(crate) fn ops_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.ops as f64 / secs
        } else {
            0.0
        }
    }

    /// Human-readable summary (what the binary prints).
    pub fn summary(&self) -> String {
        format!(
            "ops={} admitted={} rejected={} busy_retries={} protocol_errors={} \
             disconnects={} availability={:.3} ops_per_sec={:.0} p50_us={} p99_us={}",
            self.ops,
            self.admitted,
            self.rejected,
            self.busy_retries,
            self.protocol_errors,
            self.disconnects,
            self.availability,
            self.ops_per_sec(),
            self.latency.quantile_us(0.50),
            self.latency.quantile_us(0.99),
        )
    }

    /// JSON for the `runtime.json` convention of `drqos-bench`.
    pub fn to_json(&self, clients: usize, seed: u64) -> String {
        format!(
            concat!(
                "{{\"name\":\"loadgen\",\"clients\":{},\"seed\":{},",
                "\"ops\":{},\"admitted\":{},\"rejected\":{},",
                "\"busy_retries\":{},\"protocol_errors\":{},",
                "\"disconnects\":{},\"availability\":{:.4},",
                "\"wall_s\":{:.6},\"ops_per_sec\":{:.1},",
                "\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},",
                "\"endpoints\":[{}]}}"
            ),
            clients,
            seed,
            self.ops,
            self.admitted,
            self.rejected,
            self.busy_retries,
            self.protocol_errors,
            self.disconnects,
            self.availability,
            self.wall.as_secs_f64(),
            self.ops_per_sec(),
            self.latency.quantile_us(0.50),
            self.latency.quantile_us(0.95),
            self.latency.quantile_us(0.99),
            self.endpoints
                .iter()
                .map(EndpointStats::to_json)
                .collect::<Vec<_>>()
                .join(","),
        )
    }
}

/// One worker's tallies, merged into the report under a mutex at the end.
#[derive(Debug, Default)]
struct WorkerStats {
    ops: u64,
    establishes: u64,
    admitted: u64,
    rejected: u64,
    busy_retries: u64,
    protocol_errors: u64,
    latency: Histogram,
}

/// `BUSY` retries per command before a worker gives up.
const BUSY_RETRIES: usize = 64;

/// Bounded `BUSY` retry policy: exponential backoff with seeded jitter.
///
/// The cap is [`BUSY_RETRIES`]; the delay before
/// retry `attempt` is `200 µs · 2^attempt` capped at ~51 ms, scaled by a
/// seeded jitter factor in `[0.5, 1.5)` so lock-stepped workers do not
/// hammer the queue in phase.
struct Backoff {
    max_retries: usize,
    rng: Rng,
}

impl Backoff {
    fn new(seed: u64) -> Self {
        Self {
            max_retries: BUSY_RETRIES,
            rng: Rng::seed_from_u64(seed ^ 0xB05F_B05F),
        }
    }

    fn delay(&mut self, attempt: usize) -> Duration {
        let base_us = 200u64 << attempt.min(8) as u32;
        let jitter = self.rng.range_f64(0.5, 1.5);
        Duration::from_micros((base_us as f64 * jitter) as u64)
    }
}

/// Round-trips `command` on `client` with bounded `BUSY` retry; counts
/// retries into `stats` and errors out once the backoff's cap is
/// exhausted (a queue that never drains is a server bug, not a reason to
/// spin).
fn roundtrip_retrying(
    client: &mut Client,
    backoff: &mut Backoff,
    command: &str,
    stats: &mut WorkerStats,
) -> io::Result<String> {
    let mut attempt = 0usize;
    loop {
        let resp = client.roundtrip(command)?;
        if resp != "BUSY" {
            return Ok(resp);
        }
        if attempt >= backoff.max_retries {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "server still BUSY after {} retries of {command:?}",
                    backoff.max_retries
                ),
            ));
        }
        stats.busy_retries += 1;
        std::thread::sleep(backoff.delay(attempt));
        attempt += 1;
    }
}

/// Classifies a reply for the tallies. Returns the admitted id for an
/// establish `OK`.
fn tally(resp: &str, establishing: bool, stats: &mut WorkerStats) -> Option<u64> {
    if let Some(payload) = resp.strip_prefix("OK ") {
        if establishing {
            let id = payload_field(payload, "id");
            if id.is_some() {
                stats.admitted += 1;
            } else {
                stats.protocol_errors += 1;
            }
            return id;
        }
        return None;
    }
    if let Some(rest) = resp.strip_prefix("ERR ") {
        let code: u16 = rest
            .split_ascii_whitespace()
            .next()
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        if (100..300).contains(&code) && establishing {
            // QoS or admission rejection: expected under load.
            stats.rejected += 1;
        } else {
            stats.protocol_errors += 1;
        }
        return None;
    }
    stats.protocol_errors += 1;
    None
}

/// Runs one worker's scripted workload against `endpoint`. Returns the
/// stats gathered so far even on I/O failure, so a daemon dying mid-run
/// costs the run a disconnect, not the worker's whole tally.
fn worker(
    config: &LoadgenConfig,
    endpoint: &str,
    worker_seed: u64,
    nodes: usize,
) -> (WorkerStats, Option<io::Error>) {
    let mut stats = WorkerStats::default();
    let err = worker_script(config, endpoint, worker_seed, nodes, &mut stats).err();
    (stats, err)
}

fn worker_script(
    config: &LoadgenConfig,
    endpoint: &str,
    worker_seed: u64,
    nodes: usize,
    stats: &mut WorkerStats,
) -> io::Result<()> {
    let mut client = Client::connect(endpoint, config.wire)?;
    let mut backoff = Backoff::new(worker_seed);
    let mut rng = Rng::seed_from_u64(worker_seed);
    let qos = ElasticQos::new(
        Bandwidth::kbps(config.bmin),
        Bandwidth::kbps(config.bmax),
        Bandwidth::kbps(config.delta),
        1.0,
    )
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let workload = Workload::new(qos);
    let scenario = Scenario::new(config.scenario);
    let peak = scenario.peak_rate(1.0);
    let mut held: Vec<u64> = Vec::new();
    let mut send_timed =
        |command: &str, establishing: bool, stats: &mut WorkerStats| -> io::Result<Option<u64>> {
            let t0 = Instant::now();
            let resp = roundtrip_retrying(&mut client, &mut backoff, command, stats)?;
            stats.latency.record(t0.elapsed());
            stats.ops += 1;
            if establishing {
                stats.establishes += 1;
            }
            Ok(tally(&resp, establishing, stats))
        };
    for slot in 0..config.requests_per_client {
        // Virtual time advances one mean inter-arrival per slot; thinning
        // against the scenario's rate curve shapes the arrival stream. A
        // thinned-out slot counts as completed for availability — the
        // scenario skipped it, the daemon did not fail it. Flat-rate
        // scenarios never call the RNG here, so the baseline stream is
        // byte-identical to the unshaped generator.
        let accept = scenario.rate_at(config.seed, 1.0, slot as f64) / peak;
        if accept < 1.0 && !rng.chance(accept) {
            stats.establishes += 1;
            continue;
        }
        let req = workload.request(&mut rng, nodes);
        let command = format!(
            "ESTABLISH {} {} {} {} {}",
            req.src.index(),
            req.dst.index(),
            config.bmin,
            config.bmax,
            config.delta
        );
        if let Some(id) = send_timed(&command, true, stats)? {
            held.push(id);
        }
        if !held.is_empty() && rng.chance(config.release_prob) {
            let idx = rng.range_usize(held.len());
            let id = held.swap_remove(idx);
            send_timed(&format!("RELEASE {id}"), false, stats)?;
        }
    }
    // Drain: release everything this worker still owns.
    for id in held.drain(..) {
        send_timed(&format!("RELEASE {id}"), false, stats)?;
    }
    Ok(())
}

/// Runs the load generator.
///
/// # Errors
///
/// Connection or I/O failures (including a worker's). A run that
/// *completes* always returns a report; protocol errors are counted, not
/// fatal.
pub fn run(config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let endpoints: Vec<String> = if config.endpoints.is_empty() {
        vec![config.addr.clone()]
    } else {
        config.endpoints.clone()
    };
    let multi = endpoints.len() > 1;
    // Discover the topology size from the first endpoint (every cluster
    // member serves the same replicated topology).
    let mut probe = Client::connect(&endpoints[0], config.wire)?;
    let snapshot = probe.roundtrip("SNAPSHOT")?;
    let nodes = snapshot
        .strip_prefix("OK ")
        .and_then(|p| payload_field(p, "nodes"))
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad SNAPSHOT reply: {snapshot}"),
            )
        })? as usize;
    if nodes < 2 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "server topology has fewer than two nodes",
        ));
    }
    let t0 = Instant::now();
    let merged = Mutex::new(WorkerStats::default());
    let per_endpoint = Mutex::new(
        endpoints
            .iter()
            .map(|a| EndpointStats::new(a.clone()))
            .collect::<Vec<_>>(),
    );
    let errors = Mutex::new(Vec::<io::Error>::new());
    std::thread::scope(|scope| {
        for i in 0..config.clients.max(1) {
            let merged = &merged;
            let per_endpoint = &per_endpoint;
            let errors = &errors;
            let eidx = i % endpoints.len();
            let endpoint = &endpoints[eidx];
            // Split-mix chain: per-endpoint stream, then per-worker slice
            // of it — adding an endpoint reshuffles no other endpoint.
            let worker_seed = derive_seed(derive_seed(config.seed, eidx as u64), i as u64);
            scope.spawn(move || {
                let (stats, err) = worker(config, endpoint, worker_seed, nodes);
                {
                    let mut m = merged.lock().expect("no worker panics holding the lock");
                    m.ops += stats.ops;
                    m.establishes += stats.establishes;
                    m.admitted += stats.admitted;
                    m.rejected += stats.rejected;
                    m.busy_retries += stats.busy_retries;
                    m.protocol_errors += stats.protocol_errors;
                    m.latency.merge(&stats.latency);
                }
                {
                    let mut rows = per_endpoint
                        .lock()
                        .expect("no worker panics holding the lock");
                    let row = &mut rows[eidx];
                    row.ops += stats.ops;
                    row.admitted += stats.admitted;
                    row.rejected += stats.rejected;
                    row.busy_retries += stats.busy_retries;
                    row.protocol_errors += stats.protocol_errors;
                    if err.is_some() {
                        row.disconnects += 1;
                    }
                }
                if let Some(e) = err {
                    if !multi {
                        // Single-endpoint mode keeps the strict contract:
                        // any worker I/O failure fails the run.
                        errors
                            .lock()
                            .expect("no worker panics holding the lock")
                            .push(e);
                    }
                }
            });
        }
    });
    if let Some(e) = errors
        .into_inner()
        .expect("scope joined all workers")
        .into_iter()
        .next()
    {
        return Err(e);
    }
    let wall = t0.elapsed();
    let stats = merged.into_inner().expect("scope joined all workers");
    let endpoint_rows = per_endpoint.into_inner().expect("scope joined all workers");
    let disconnects: u64 = endpoint_rows.iter().map(|r| r.disconnects).sum();
    let planned = (config.clients.max(1) * config.requests_per_client) as f64;
    let availability = if planned > 0.0 {
        stats.establishes as f64 / planned
    } else {
        1.0
    };
    let clean_shutdown = if config.shutdown {
        let mut all_clean = true;
        let mut reachable = 0usize;
        for (idx, addr) in endpoints.iter().enumerate() {
            let resp = if idx == 0 {
                probe.roundtrip("SHUTDOWN")
            } else {
                Client::connect(addr, config.wire).and_then(|mut c| c.roundtrip("SHUTDOWN"))
            };
            match resp {
                Ok(r) => {
                    reachable += 1;
                    all_clean &= r == "OK violations=0";
                }
                // A crashed member cannot be shut down; in multi-endpoint
                // mode its absence is the expected churn outcome.
                Err(e) if multi => {
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
        Some(all_clean && reachable > 0)
    } else {
        None
    };
    Ok(LoadgenReport {
        ops: stats.ops,
        admitted: stats.admitted,
        rejected: stats.rejected,
        busy_retries: stats.busy_retries,
        protocol_errors: stats.protocol_errors,
        latency: stats.latency,
        wall,
        clean_shutdown,
        availability,
        disconnects,
        endpoints: endpoint_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A server whose queue never drains: every command line is answered
    /// `BUSY`, forever. The retry cap must turn this into an error, not an
    /// infinite 200 µs spin.
    #[test]
    fn busy_retry_is_bounded_against_a_never_draining_server() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().unwrap().to_string();
        let stub = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("one client connects");
            let mut writer = stream.try_clone().unwrap();
            let reader = BufReader::new(stream);
            for line in reader.lines() {
                if line.is_err() || writeln!(writer, "BUSY").is_err() {
                    break;
                }
                let _ = writer.flush();
            }
        });
        let mut client = Client::connect(&addr, WireMode::Text).expect("connect to stub");
        let mut backoff = Backoff::new(7);
        backoff.max_retries = 3;
        let mut stats = WorkerStats::default();
        let err = roundtrip_retrying(
            &mut client,
            &mut backoff,
            "ESTABLISH 0 1 100 500 100",
            &mut stats,
        )
        .expect_err("a never-draining server must exhaust the retry cap");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("after 3 retries"), "{err}");
        assert_eq!(stats.busy_retries, 3, "every attempt before the cap counts");
        drop(client);
        stub.join().unwrap();
    }

    #[test]
    fn backoff_delay_is_exponential_jittered_and_capped() {
        let mut b = Backoff::new(42);
        for attempt in 0..24 {
            let base_us = 200u64 << attempt.min(8) as u32;
            let d = b.delay(attempt);
            assert!(
                d >= Duration::from_micros(base_us / 2) && d < Duration::from_micros(base_us * 2),
                "attempt {attempt}: {d:?} outside jitter band of {base_us} µs"
            );
        }
        // Deterministic for a given seed.
        let (mut x, mut y) = (Backoff::new(9), Backoff::new(9));
        assert_eq!(x.delay(4), y.delay(4));
    }

    #[test]
    fn tally_classifies_replies() {
        let mut s = WorkerStats::default();
        assert_eq!(
            tally("OK id=4 bw=500 hops=2 backups=1", true, &mut s),
            Some(4)
        );
        assert_eq!(s.admitted, 1);
        tally("ERR 202 no feasible primary route", true, &mut s);
        assert_eq!(s.rejected, 1);
        tally("ERR 300 unknown connection c9", false, &mut s);
        assert_eq!(s.protocol_errors, 1);
        tally("garbage", false, &mut s);
        assert_eq!(s.protocol_errors, 2);
        tally("OK freed=500", false, &mut s);
        assert_eq!(s.ops, 0, "tally does not count ops; the send path does");
        assert_eq!(s.admitted, 1);
    }

    #[test]
    fn report_summary_names_the_tail() {
        let mut latency = Histogram::new();
        latency.record(Duration::from_micros(50));
        let report = LoadgenReport {
            ops: 10,
            admitted: 8,
            rejected: 2,
            busy_retries: 1,
            protocol_errors: 0,
            latency,
            wall: Duration::from_millis(100),
            clean_shutdown: Some(true),
            availability: 0.875,
            disconnects: 1,
            endpoints: vec![
                EndpointStats {
                    addr: "127.0.0.1:7901".into(),
                    ops: 6,
                    admitted: 5,
                    rejected: 1,
                    busy_retries: 1,
                    protocol_errors: 0,
                    disconnects: 0,
                },
                EndpointStats {
                    addr: "127.0.0.1:7902".into(),
                    ops: 4,
                    admitted: 3,
                    rejected: 1,
                    busy_retries: 0,
                    protocol_errors: 0,
                    disconnects: 1,
                },
            ],
        };
        let s = report.summary();
        assert!(s.contains("p50_us=") && s.contains("p99_us=") && s.contains("ops_per_sec="));
        assert!(s.contains("availability=0.875") && s.contains("disconnects=1"));
        let json = report.to_json(4, 2001);
        assert!(json.contains("\"protocol_errors\":0"));
        assert!(json.contains("\"clients\":4"));
        assert!(json.contains("\"availability\":0.8750"));
        assert!(json.contains("\"endpoints\":[{\"addr\":\"127.0.0.1:7901\""));
        assert!(json.contains("\"disconnects\":1"));
    }
}
