//! Protocol-session tests for `drqos-service`: a golden transcript
//! covering every verb and error family, an order-independence proof for
//! concurrent disjoint-stream clients, and an in-process load-generator
//! smoke run (the PR's acceptance criterion).
//!
//! Re-bless the transcript after an intentional protocol change:
//!
//! ```text
//! DRQOS_BLESS=1 cargo test -p drqos-tests --test service_session
//! ```

use drqos_core::network::{Network, NetworkConfig};
use drqos_service::engine::Engine;
use drqos_service::loadgen::{self, LoadgenConfig};
use drqos_service::protocol::payload_field;
use drqos_service::server::Server;
use drqos_testkit::golden::verify_golden;
use drqos_testkit::session::replay_script;
use drqos_topology::regular;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

fn ring_engine() -> Engine {
    Engine::new(Network::new(
        regular::ring(6).unwrap(),
        NetworkConfig::default(),
    ))
}

/// Every verb plus one error from each family: protocol (2, 3, 4),
/// QoS (100), admission (201), network (300, 302). `STATS` is excluded —
/// it is the one intentionally non-deterministic reply.
const GOLDEN_SCRIPT: &[&str] = &[
    "SNAPSHOT",
    "ESTABLISH 0 3 100 500 100",
    "ESTABLISH 1 4 100 500 100",
    "SNAPSHOT",
    "ESTABLISH 2 2 100 500 100",
    "ESTABLISH 0 2 0 500 100",
    "RELEASE 99",
    "FAIL-LINK 0",
    "FAIL-LINK 0",
    "REPAIR-LINK 0",
    "FAIL-NODE 5",
    "SNAPSHOT",
    "RELEASE 1",
    "RELEASE 0",
    "BOGUS",
    "RELEASE",
    "RELEASE x",
    "SNAPSHOT",
    "SHUTDOWN",
];

/// The golden script one line at a time, as `handle_line` serves it.
fn line_transcript(engine: &mut Engine) -> String {
    replay_script("ring6 all verbs", GOLDEN_SCRIPT, |line| {
        engine.handle_line(line).to_string()
    })
}

#[test]
fn protocol_session_matches_blessed_transcript() {
    let transcript = line_transcript(&mut ring_engine());
    if let Err(e) = verify_golden(&golden_dir(), "service_session", &transcript) {
        panic!("{e}");
    }
}

/// Replays `script` as one engine batch — the path that admits
/// consecutive `ESTABLISH` lines as one contention-ordered batch — and
/// renders the same transcript shape as [`replay_script`].
fn batch_transcript(
    name: &str,
    engine: &mut drqos_service::engine::Engine,
    script: &[&str],
) -> String {
    use drqos_service::engine::Handled;
    use std::fmt::Write as _;
    let lines: Vec<String> = script.iter().map(|s| s.to_string()).collect();
    let replies = engine.handle_server_batch(&lines);
    let mut out = format!("# drqos protocol session: {name}\n");
    for (line, handled) in lines.iter().zip(replies) {
        let reply = match handled {
            Handled::Reply(r) => r,
            Handled::ShutdownRequested => engine.finish_shutdown(),
        };
        writeln!(out, "> {line}").expect("writing to String cannot fail");
        writeln!(out, "< {reply}").expect("writing to String cannot fail");
    }
    out
}

/// The full golden script through the engine's batch entry point, in one
/// batch: byte-identical to the blessed line-at-a-time transcript.
#[test]
fn drained_session_matches_the_line_at_a_time_transcript() {
    let transcript = batch_transcript("ring6 all verbs", &mut ring_engine(), GOLDEN_SCRIPT);
    assert_eq!(transcript, line_transcript(&mut ring_engine()));
}

/// The SRLG verbs plus both of their error families: 305 (unknown
/// group) and 306 (state unchanged — firing an already-down group,
/// healing an already-up one), interleaved with live connections so the
/// `FAIL-SRLG` reply carries real activation/drop counts, plus the
/// text-level parse errors for the new verbs.
const SRLG_SCRIPT: &[&str] = &[
    "SNAPSHOT",
    "ESTABLISH 0 3 100 500 100",
    "ESTABLISH 1 4 100 500 100",
    "FAIL-SRLG 0",
    "SNAPSHOT",
    "FAIL-SRLG 0",
    "FAIL-SRLG 99",
    "REPAIR-SRLG 0",
    "REPAIR-SRLG 0",
    "REPAIR-SRLG 99",
    "FAIL-SRLG",
    "REPAIR-SRLG x",
    "SNAPSHOT",
    "RELEASE 1",
    "RELEASE 0",
    "SHUTDOWN",
];

/// A ring engine with two seeded 2-link shared-risk groups — the same
/// derivation `drqosd --seed 2001` performs under `DRQOS_SRLG_COUNT=2`
/// `DRQOS_SRLG_SIZE=2`.
fn srlg_ring_engine() -> Engine {
    let mut net = Network::new(regular::ring(6).unwrap(), NetworkConfig::default());
    let registered = drqos_core::register_seeded_srlgs(&mut net, 2, 2, 2001);
    assert_eq!(registered, 2, "ring of 6 fits two disjoint 2-link groups");
    Engine::new(net)
}

/// Golden transcript for the correlated-failure verbs, pinned through
/// the drained-batch path; it must exercise both SRLG error families
/// before being compared against the blessed trace.
#[test]
fn srlg_session_matches_blessed_transcript() {
    let transcript = batch_transcript("ring6 srlg verbs", &mut srlg_ring_engine(), SRLG_SCRIPT);
    for needle in ["OK links=2", "ERR 305 ", "ERR 306 ", "ERR 3 "] {
        assert!(transcript.contains(needle), "script must exercise {needle}");
    }
    if let Err(e) = verify_golden(&golden_dir(), "service_session_srlg", &transcript) {
        panic!("{e}");
    }
}

/// A serial replay of all four clients' streams, used as the reference
/// for the concurrent run below.
fn serial_snapshot(streams: &[Vec<String>]) -> String {
    let mut engine = ring_engine();
    for stream in streams {
        for line in stream {
            let resp = engine.handle_line(line).to_string();
            assert!(
                resp.starts_with("OK "),
                "serial replay must be clean: {resp}"
            );
        }
    }
    engine.handle_line("SNAPSHOT").to_string()
}

/// Four disjoint-stream clients (distinct endpoints, ample capacity, no
/// cross-client RELEASEs) must leave the network in the same final state
/// regardless of interleaving: the engine lock serializes all writes, and
/// with no contention every connection reaches `bmax` either way.
#[test]
fn concurrent_disjoint_clients_match_serial_replay() {
    // Ring of 6 at 10 Mbps: 4 concurrent 500-Kbps-max connections cannot
    // contend, so admitted bandwidth is interleaving-independent.
    let streams: Vec<Vec<String>> = (0..4)
        .map(|c| {
            vec![
                format!("ESTABLISH {} {} 100 500 100", c, (c + 2) % 6),
                "SNAPSHOT".to_string(),
            ]
        })
        .collect();
    let expected = serial_snapshot(&streams);

    let net = Network::new(regular::ring(6).unwrap(), NetworkConfig::default());
    let server = Server::bind("127.0.0.1:0", net).expect("bind ephemeral");
    let addr = server.local_addr().unwrap();
    let server_handle = thread::spawn(move || server.run());
    thread::scope(|scope| {
        for stream in &streams {
            scope.spawn(move || {
                let tcp = TcpStream::connect(addr).expect("connect");
                tcp.set_nodelay(true).unwrap();
                let mut writer = tcp.try_clone().unwrap();
                let mut reader = BufReader::new(tcp);
                for line in stream {
                    writeln!(writer, "{line}").unwrap();
                    let mut resp = String::new();
                    reader.read_line(&mut resp).unwrap();
                    let resp = resp.trim_end();
                    assert!(
                        resp.starts_with("OK "),
                        "disjoint streams must not fail: {line} -> {resp}"
                    );
                }
            });
        }
    });
    // All clients done; the final state must match the serial reference.
    let tcp = TcpStream::connect(addr).expect("connect");
    let mut writer = tcp.try_clone().unwrap();
    let mut reader = BufReader::new(tcp);
    writeln!(writer, "SNAPSHOT").unwrap();
    let mut snap = String::new();
    reader.read_line(&mut snap).unwrap();
    assert_eq!(
        snap.trim_end(),
        expected,
        "concurrent != serial final state"
    );
    writeln!(writer, "SHUTDOWN").unwrap();
    let mut bye = String::new();
    reader.read_line(&mut bye).unwrap();
    assert_eq!(bye.trim_end(), "OK violations=0");
    let report = server_handle.join().unwrap().unwrap();
    assert_eq!(report.violations, 0);
}

/// The acceptance criterion: a seeded 4-client load-generator run against
/// an in-process server completes with zero protocol errors, reports tail
/// latency, and shuts the server down invariant-clean.
#[test]
fn loadgen_four_clients_zero_protocol_errors() {
    let net = Network::new(regular::torus(6, 6).unwrap(), NetworkConfig::default());
    let server = Server::bind("127.0.0.1:0", net).expect("bind ephemeral");
    let addr = server.local_addr().unwrap();
    let server_handle = thread::spawn(move || server.run());

    let config = LoadgenConfig {
        addr: addr.to_string(),
        clients: 4,
        requests_per_client: 50,
        seed: 2001,
        shutdown: true,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&config).expect("loadgen run completes");
    assert_eq!(report.protocol_errors, 0, "{}", report.summary());
    assert!(
        report.ops >= 4 * 50,
        "every establish counts: {}",
        report.ops
    );
    assert!(
        report.admitted > 0,
        "torus at 10 Mbps admits: {}",
        report.summary()
    );
    assert_eq!(report.clean_shutdown, Some(true));
    // Tail latency is measured (histogram floors at 1 µs once non-empty).
    assert!(report.latency.quantile_us(0.99) >= 1);

    let server_report = server_handle.join().unwrap().unwrap();
    assert_eq!(server_report.violations, 0);
    assert!(server_report.metrics_json.contains("\"op\":\"establish\""));
}

/// A session script with deliberately repeated endpoint pairs, a
/// `RELEASE` that restores an earlier planning state, and a fail/repair
/// cycle.
const REPEAT_SCRIPT: &[&str] = &[
    "SNAPSHOT",
    "ESTABLISH 0 3 100 500 100",
    "ESTABLISH 0 3 100 500 100",
    "RELEASE 1",
    "ESTABLISH 0 3 100 500 100",
    "SNAPSHOT",
    "RELEASE 2",
    "FAIL-LINK 0",
    "ESTABLISH 0 3 100 500 100",
    "SNAPSHOT",
    "REPAIR-LINK 0",
    "ESTABLISH 1 4 100 500 100",
    "SNAPSHOT",
];

/// Replaces the values of `STATS`' wall-clock fields with `_`, keeping
/// every deterministic field (the counters) byte-exact for golden
/// comparison.
fn normalize_stats_line(line: &str) -> String {
    line.split(' ')
        .map(|tok| match tok.split_once('=') {
            Some((k, _)) if matches!(k, "p50_us" | "p95_us" | "p99_us" | "ops_per_sec") => {
                format!("{k}=_")
            }
            _ => tok.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Golden `STATS` transcript: with the wall-clock latency fields masked,
/// the reply is a deterministic function of the session script and stays
/// pinned byte-exact.
#[test]
fn stats_transcript_matches_blessed_transcript() {
    let mut engine = ring_engine();
    let script: Vec<&str> = REPEAT_SCRIPT.iter().copied().chain(["STATS"]).collect();
    let transcript = replay_script("ring6 cache script + stats", &script, |line| {
        normalize_stats_line(&engine.handle_line(line).to_string())
    });
    if let Err(e) = verify_golden(&golden_dir(), "service_session_stats", &transcript) {
        panic!("{e}");
    }
}

/// `STATS` is reachable over TCP and reports integer counters (it is
/// excluded from the golden transcript because latency fields are
/// wall-clock measurements).
#[test]
fn stats_reports_counters_over_tcp() {
    let net = Network::new(regular::ring(6).unwrap(), NetworkConfig::default());
    let server = Server::bind("127.0.0.1:0", net).expect("bind ephemeral");
    let addr = server.local_addr().unwrap();
    let server_handle = thread::spawn(move || server.run());
    let tcp = TcpStream::connect(addr).expect("connect");
    let mut writer = tcp.try_clone().unwrap();
    let mut reader = BufReader::new(tcp);
    let mut roundtrip = |line: &str| -> String {
        writeln!(writer, "{line}").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp.trim_end().to_string()
    };
    roundtrip("ESTABLISH 0 3 100 500 100");
    let stats = roundtrip("STATS");
    let payload = stats
        .strip_prefix("OK ")
        .unwrap_or_else(|| panic!("STATS reply: {stats:?}"))
        .to_string();
    assert_eq!(payload_field(&payload, "admitted"), Some(1));
    assert_eq!(payload_field(&payload, "errors"), Some(0));
    assert_eq!(roundtrip("SHUTDOWN"), "OK violations=0");
    server_handle.join().unwrap().unwrap();
}
