//! Wire-mode tests for `drqos-service`: the text-vs-binary daemon
//! equivalence proof (the two framings must decode to byte-identical
//! transcripts for the same session), a golden transcript of the binary
//! framing itself — every opcode plus each frame-level error family —
//! a socket-level differential of seeded streams against the engine, and
//! a binary-mode load-generator smoke run.
//!
//! Re-bless the binary transcript after an intentional framing change:
//!
//! ```text
//! DRQOS_BLESS=1 cargo test -p drqos-tests --test service_wire
//! ```

use drqos_core::env::WireMode;
use drqos_core::network::{Network, NetworkConfig};
use drqos_core::qos::Bandwidth;
use drqos_service::client::Client;
use drqos_service::engine::Engine;
use drqos_service::frame;
use drqos_service::loadgen::{self, LoadgenConfig};
use drqos_service::protocol::{self, Response};
use drqos_service::server::Server;
use drqos_sim::rng::Rng;
use drqos_testkit::golden::verify_golden;
use drqos_testkit::session::replay_script;
use drqos_topology::regular;
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

/// Every verb plus one error from each *domain* family: QoS (100),
/// admission (201), network (300, 302). Text-level parse errors (codes
/// 1–4) are unreachable through a well-formed binary frame — their
/// binary counterparts (malformed frames) are pinned by the golden
/// transcript below.
const WIRE_SCRIPT: &[&str] = &[
    "SNAPSHOT",
    "ESTABLISH 0 3 100 500 100",
    "ESTABLISH 1 4 100 500 100",
    "ESTABLISH 2 2 100 500 100",
    "ESTABLISH 0 2 0 500 100",
    "RELEASE 99",
    "FAIL-LINK 0",
    "FAIL-LINK 0",
    "REPAIR-LINK 0",
    "FAIL-NODE 5",
    "STATS",
    "SNAPSHOT",
    "RELEASE 1",
    "RELEASE 0",
    "SHUTDOWN",
];

/// Replaces the values of `STATS`' wall-clock fields with `_`, keeping
/// every deterministic field byte-exact for transcript comparison.
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

/// Runs [`WIRE_SCRIPT`] against an in-process daemon speaking `wire` and
/// returns the decoded transcript plus the server's (ops, violations).
fn session_transcript(wire: WireMode) -> (String, u64, usize) {
    let net = Network::new(regular::ring(6).unwrap(), NetworkConfig::default());
    let server = Server::bind("127.0.0.1:0", net)
        .expect("bind ephemeral")
        .with_wire(wire);
    let addr = server.local_addr().unwrap();
    let handle = thread::spawn(move || server.run());

    let mut client = Client::connect(addr, wire).expect("connect");
    let transcript = replay_script("ring6 wire equivalence", WIRE_SCRIPT, |line| {
        normalize_stats_line(&client.roundtrip(line).unwrap())
    });
    let report = handle.join().unwrap().unwrap();
    (transcript, report.ops, report.violations)
}

/// The tentpole equivalence proof: a text daemon and a binary daemon
/// serving the same session must produce byte-identical transcripts once
/// the binary replies are decoded — same payloads, same error codes,
/// same messages — and must count the same ops with a clean shutdown.
#[test]
fn text_and_binary_daemons_decode_to_identical_transcripts() {
    let (text, text_ops, text_violations) = session_transcript(WireMode::Text);
    let (binary, binary_ops, binary_violations) = session_transcript(WireMode::Binary);
    assert_eq!(text, binary, "wire modes must be observationally identical");
    assert_eq!(text_ops, binary_ops, "both daemons served every command");
    assert_eq!((text_violations, binary_violations), (0, 0));
    // Non-vacuity: the shared transcript really exercises each domain
    // error family, not just happy-path replies.
    for needle in ["ERR 100 ", "ERR 201 ", "ERR 300 ", "ERR 302 "] {
        assert!(text.contains(needle), "script must exercise {needle}");
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex"))
        .collect()
}

/// A verb's opcode, looked up in the verb table.
fn opcode(verb: &str) -> u8 {
    drqos_core::wire::verb_named(verb).expect(verb).opcode
}

/// A complete frame (length prefix included) around a hand-built body —
/// used to pin malformed-frame handling in the golden transcript.
fn raw_frame(body: &[u8]) -> Vec<u8> {
    let mut f = (body.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(body);
    f
}

/// Golden transcript of the binary framing: every opcode, each domain
/// error family, and each frame-level error family (empty body → 1,
/// unknown opcode → 2, wrong argument count → 3, torn `u64` block → 4).
/// Each command line is `<label> | <request frame hex>`; each response
/// line is `<response frame hex> | <decoded text>`, so the golden file
/// pins the exact bytes while staying reviewable.
#[test]
fn binary_frames_match_blessed_transcript() {
    let req = |line: &str| frame::encode_request(&protocol::parse(line).expect("script parses"));
    let script: Vec<(&str, Vec<u8>)> = vec![
        ("SNAPSHOT", req("SNAPSHOT")),
        (
            "ESTABLISH 0 3 100 500 100",
            req("ESTABLISH 0 3 100 500 100"),
        ),
        (
            "ESTABLISH 1 4 100 500 100",
            req("ESTABLISH 1 4 100 500 100"),
        ),
        (
            "ESTABLISH 2 2 100 500 100",
            req("ESTABLISH 2 2 100 500 100"),
        ),
        ("ESTABLISH 0 2 0 500 100", req("ESTABLISH 0 2 0 500 100")),
        ("RELEASE 99", req("RELEASE 99")),
        ("FAIL-LINK 0", req("FAIL-LINK 0")),
        ("FAIL-LINK 0", req("FAIL-LINK 0")),
        ("REPAIR-LINK 0", req("REPAIR-LINK 0")),
        ("FAIL-NODE 5", req("FAIL-NODE 5")),
        ("RELEASE 1", req("RELEASE 1")),
        ("RELEASE 0", req("RELEASE 0")),
        ("empty body", raw_frame(&[])),
        ("unknown opcode 99", raw_frame(&[99])),
        (
            "RELEASE missing its argument",
            raw_frame(&[opcode("RELEASE")]),
        ),
        (
            "RELEASE with a torn u64",
            raw_frame(&[opcode("RELEASE"), 1, 2, 3]),
        ),
        ("SHUTDOWN", req("SHUTDOWN")),
    ];
    let commands: Vec<String> = script
        .iter()
        .map(|(label, frame_bytes)| format!("{label} | {}", hex(frame_bytes)))
        .collect();
    let command_refs: Vec<&str> = commands.iter().map(String::as_str).collect();

    let mut engine = ring_engine();
    let transcript = replay_script("ring6 binary frames", &command_refs, |cmd| {
        let frame_hex = cmd.rsplit(" | ").next().expect("label | hex shape");
        let frame_bytes = unhex(frame_hex);
        let (len_bytes, body) = frame_bytes.split_at(4);
        let announced = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
        assert_eq!(announced, body.len(), "length field must match the body");
        // Mirror the daemon's binary reader: decode, re-render to the
        // canonical text line, hand it to the engine; decode errors are
        // answered directly without reaching the engine.
        let resp = match frame::decode_request(body) {
            Ok(req) => engine.handle_line(&req.render()),
            Err(e) => Response::from(e),
        };
        format!("{} | {resp}", hex(&frame::encode_response(&resp)))
    });
    // Non-vacuity before pinning bytes: all four frame-level families
    // and all four domain families appear in the decoded column.
    for needle in [
        "ERR 1 ", "ERR 2 ", "ERR 3 ", "ERR 4 ", "ERR 100 ", "ERR 201 ", "ERR 300 ", "ERR 302 ",
    ] {
        assert!(transcript.contains(needle), "transcript must pin {needle}");
    }
    if let Err(e) = verify_golden(&golden_dir(), "service_wire_binary", &transcript) {
        panic!("{e}");
    }
}

/// Golden transcript of the SRLG opcodes in the binary framing: both
/// happy paths (9 = `FAIL-SRLG`, 10 = `REPAIR-SRLG`), both domain error
/// families (305 unknown group, 306 state unchanged), and the
/// frame-level malformations of the new opcodes (missing argument,
/// torn `u64`). Same `<label> | <hex>` / `<hex> | <decoded>` shape as
/// the main binary golden, so the exact bytes stay pinned.
#[test]
fn binary_srlg_frames_match_blessed_transcript() {
    let req = |line: &str| frame::encode_request(&protocol::parse(line).expect("script parses"));
    let script: Vec<(&str, Vec<u8>)> = vec![
        (
            "ESTABLISH 0 3 100 500 100",
            req("ESTABLISH 0 3 100 500 100"),
        ),
        (
            "ESTABLISH 1 4 100 500 100",
            req("ESTABLISH 1 4 100 500 100"),
        ),
        ("FAIL-SRLG 0", req("FAIL-SRLG 0")),
        ("FAIL-SRLG 0", req("FAIL-SRLG 0")),
        ("FAIL-SRLG 99", req("FAIL-SRLG 99")),
        ("REPAIR-SRLG 0", req("REPAIR-SRLG 0")),
        ("REPAIR-SRLG 0", req("REPAIR-SRLG 0")),
        ("REPAIR-SRLG 99", req("REPAIR-SRLG 99")),
        (
            "FAIL-SRLG missing its argument",
            raw_frame(&[opcode("FAIL-SRLG")]),
        ),
        (
            "REPAIR-SRLG with a torn u64",
            raw_frame(&[opcode("REPAIR-SRLG"), 1, 2, 3]),
        ),
        ("SNAPSHOT", req("SNAPSHOT")),
        ("RELEASE 1", req("RELEASE 1")),
        ("RELEASE 0", req("RELEASE 0")),
        ("SHUTDOWN", req("SHUTDOWN")),
    ];
    let commands: Vec<String> = script
        .iter()
        .map(|(label, frame_bytes)| format!("{label} | {}", hex(frame_bytes)))
        .collect();
    let command_refs: Vec<&str> = commands.iter().map(String::as_str).collect();

    let mut net = Network::new(regular::ring(6).unwrap(), NetworkConfig::default());
    let registered = drqos_core::register_seeded_srlgs(&mut net, 2, 2, 2001);
    assert_eq!(registered, 2, "ring of 6 fits two disjoint 2-link groups");
    let mut engine = Engine::new(net);
    let transcript = replay_script("ring6 binary srlg frames", &command_refs, |cmd| {
        let frame_hex = cmd.rsplit(" | ").next().expect("label | hex shape");
        let frame_bytes = unhex(frame_hex);
        let (len_bytes, body) = frame_bytes.split_at(4);
        let announced = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
        assert_eq!(announced, body.len(), "length field must match the body");
        let resp = match frame::decode_request(body) {
            Ok(req) => engine.handle_line(&req.render()),
            Err(e) => Response::from(e),
        };
        format!("{} | {resp}", hex(&frame::encode_response(&resp)))
    });
    for needle in ["OK links=2", "ERR 305 ", "ERR 306 ", "ERR 3 ", "ERR 4 "] {
        assert!(transcript.contains(needle), "transcript must pin {needle}");
    }
    if let Err(e) = verify_golden(&golden_dir(), "service_wire_srlg", &transcript) {
        panic!("{e}");
    }
}

/// A seeded single-client op stream over a graph of `nodes` nodes and
/// `links` links: every verb but `STATS` (wall-clock), operands drawn
/// without looking at replies, so some land on dead ids, down links or
/// `src == dst`. Ends in `SHUTDOWN`.
fn seeded_stream(seed: u64, nodes: usize, links: usize, len: usize) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut establishes = 0u64;
    let mut lines: Vec<String> = (0..len)
        .map(|_| match rng.range_usize(100) {
            0..=44 => {
                establishes += 1;
                let bmax = [300, 500, 1_000, 2_000][rng.range_usize(4)];
                let bmin = if rng.chance(0.02) { 0 } else { 100 };
                let (src, dst) = (rng.range_usize(nodes), rng.range_usize(nodes));
                format!("ESTABLISH {src} {dst} {bmin} {bmax} 100")
            }
            45..=69 => format!("RELEASE {}", rng.range_u64(establishes + 1)),
            70..=81 => format!("FAIL-LINK {}", rng.range_usize(links)),
            82..=93 => format!("REPAIR-LINK {}", rng.range_usize(links)),
            94..=95 => format!("FAIL-NODE {}", rng.range_usize(nodes)),
            _ => "SNAPSHOT".to_string(),
        })
        .collect();
    lines.push("SHUTDOWN".to_string());
    lines
}

/// The socket-level differential: one client's seeded stream through
/// `drqosd` over TCP, in each framing, must draw `Engine::handle_line`'s
/// transcript byte for byte. The engine is the reference; the server adds
/// sockets, framing and a lock, and none of them may show.
#[test]
fn seeded_streams_over_tcp_match_the_engine_transcript() {
    let topologies = [
        ("ring6", regular::ring(6).unwrap()),
        ("torus6x6", regular::torus(6, 6).unwrap()),
    ];
    let config = NetworkConfig {
        capacity: Bandwidth::kbps(3_000),
        ..NetworkConfig::default()
    };
    for (seed, (name, graph)) in (2_026u64..).zip(topologies) {
        let stream = seeded_stream(seed, graph.node_count(), graph.link_count(), 2_000);
        let script: Vec<&str> = stream.iter().map(String::as_str).collect();
        let mut engine = Engine::new(Network::new(graph.clone(), config.clone()));
        let want = replay_script(name, &script, |line| engine.handle_line(line).to_string());
        for needle in [
            "OK id=",
            "OK freed=",
            "OK activated=",
            "OK regained=",
            "OK links=",
            "ERR 100 ",
            "ERR 201 ",
            "ERR 300 ",
            "ERR 302 ",
        ] {
            assert!(
                want.contains(needle),
                "{name}: stream must exercise {needle}"
            );
        }
        for wire in [WireMode::Text, WireMode::Binary] {
            let server = Server::bind("127.0.0.1:0", Network::new(graph.clone(), config.clone()))
                .expect("bind ephemeral")
                .with_wire(wire);
            let addr = server.local_addr().unwrap();
            let handle = thread::spawn(move || server.run());
            let mut client = Client::connect(addr, wire).expect("connect");
            let got = replay_script(name, &script, |line| client.roundtrip(line).unwrap());
            assert!(
                got == want,
                "{name} {wire:?}: the daemon's transcript drifted"
            );
            let report = handle.join().unwrap().unwrap();
            assert_eq!(report.ops, script.len() as u64, "{name} {wire:?}");
            assert_eq!(report.violations, 0);
        }
    }
}

/// The load generator speaks the binary framing end-to-end: a seeded
/// 4-client run against a binary-wire daemon completes with zero
/// protocol errors and an invariant-clean shutdown.
#[test]
fn loadgen_over_binary_wire_runs_clean() {
    let net = Network::new(regular::torus(6, 6).unwrap(), NetworkConfig::default());
    let server = Server::bind("127.0.0.1:0", net)
        .expect("bind ephemeral")
        .with_wire(WireMode::Binary);
    let addr = server.local_addr().unwrap();
    let server_handle = thread::spawn(move || server.run());

    let config = LoadgenConfig {
        addr: addr.to_string(),
        clients: 4,
        requests_per_client: 25,
        seed: 7,
        shutdown: true,
        wire: WireMode::Binary,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&config).expect("binary loadgen completes");
    assert_eq!(report.protocol_errors, 0, "{}", report.summary());
    assert!(
        report.ops >= 4 * 25,
        "every establish counts: {}",
        report.ops
    );
    assert!(
        report.admitted > 0,
        "torus at 10 Mbps admits: {}",
        report.summary()
    );
    assert_eq!(report.clean_shutdown, Some(true));

    let server_report = server_handle.join().unwrap().unwrap();
    assert_eq!(server_report.violations, 0);
}
