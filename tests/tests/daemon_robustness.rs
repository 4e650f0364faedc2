//! Robustness regression for `drqosd`: a client bursting malformed,
//! overflowing, and truncated input must get error *replies*, never kill
//! a reader thread or poison the engine's lock. This is the dynamic
//! counterpart of the `panic-reachability` lint rule — the lint proves the
//! panic sites are gone from the source, this test proves the daemon
//! survives the inputs those sites used to be reachable from.

use drqos_core::env::WireMode;
use drqos_core::framing::MAX_FRAME_BYTES;
use drqos_core::network::{Network, NetworkConfig};
use drqos_service::client::Client;
use drqos_service::server::{Server, ServiceReport};
use drqos_service::{frame, protocol};
use drqos_topology::regular;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Every line in the burst is designed to hit a failure path that was, or
/// could plausibly become, a panic: parse failures, integer overflow,
/// unknown ids far past any allocated connection, out-of-range links and
/// nodes, binary garbage, and case mismatches.
const MALFORMED_BURST: &[(&str, &str)] = &[
    ("", "ERR 1"),                                   // empty line
    ("   ", "ERR 1"),                                // whitespace only
    ("BOGUS", "ERR 2"),                              // unknown verb
    ("release 1", "ERR 2"),                          // verbs are case-sensitive
    ("ESTABLISH", "ERR 3"),                          // no args
    ("ESTABLISH 0 3 100 500 100 7", "ERR 3"),        // too many args
    ("RELEASE 99999999999999999999999999", "ERR 4"), // u64 overflow
    ("RELEASE -1", "ERR 4"),                         // negative
    ("RELEASE 0x10", "ERR 4"),                       // hex is not an integer
    ("RELEASE 18446744073709551615", "ERR 300"),     // u64::MAX id: unknown
    ("FAIL-LINK 18446744073709551615", "ERR 301"),   // u64::MAX link
    ("REPAIR-LINK 424242", "ERR 301"),               // out-of-range link
    ("FAIL-NODE 424242", "ERR 303"),                 // out-of-range node
    ("ESTABLISH 0 0 100 500 100", "ERR 201"),        // src == dst
    ("ESTABLISH 0 3 0 500 100", "ERR 100"),          // zero minimum
    ("ESTABLISH 0 3 500 100 100", "ERR 101"),        // min > max
    ("ESTABLISH 424242 3 100 500 100", "ERR 200"),   // unknown src node
    ("\u{7f}\u{1}garbage\u{2}", "ERR 2"),            // binary garbage
];

#[test]
fn malformed_burst_cannot_kill_the_daemon() {
    let net = Network::new(regular::ring(6).unwrap(), NetworkConfig::default());
    let server = Server::bind("127.0.0.1:0", net).expect("bind ephemeral");
    let addr = server.local_addr().unwrap();
    let server_handle = thread::spawn(move || server.run());

    let mut hostile = connect(addr, WireMode::Text);
    for &(line, want_prefix) in MALFORMED_BURST {
        let resp = hostile.roundtrip(line).unwrap();
        assert!(
            resp.starts_with("ERR "),
            "{line:?} must be rejected, got {resp:?}"
        );
        if !want_prefix.is_empty() {
            assert!(
                resp.starts_with(want_prefix),
                "{line:?}: expected {want_prefix} ..., got {resp:?}"
            );
        }
    }

    // A partial line followed by an abrupt disconnect must not wedge the
    // reader or the loop.
    let mut tcp = TcpStream::connect(addr).expect("connect");
    tcp.write_all(b"ESTABLISH 0 3 1").unwrap(); // no newline
    drop(tcp);

    // The daemon is still fully functional for a well-behaved client.
    let mut good = connect(addr, WireMode::Text);
    let resp = good.roundtrip("ESTABLISH 0 3 100 500 100").unwrap();
    assert!(resp.starts_with("OK id="), "daemon degraded: {resp:?}");
    let resp = good.roundtrip("SNAPSHOT").unwrap();
    assert!(resp.starts_with("OK conns=1"), "state corrupted: {resp:?}");

    // And it shuts down invariant-clean: nothing in the burst leaked
    // bandwidth or half-registered a connection.
    assert_eq!(good.roundtrip("SHUTDOWN").unwrap(), "OK violations=0");
    let report = server_handle.join().unwrap().unwrap();
    assert_eq!(report.violations, 0);
}

// ---------------------------------------------------------------------
// The connection reader's contract, once per framing: the byte cap, the
// shutdown rule for a half-received request, and reassembly.
// ---------------------------------------------------------------------

const WIRES: [WireMode; 2] = [WireMode::Text, WireMode::Binary];

fn boot(wire: WireMode) -> (SocketAddr, JoinHandle<io::Result<ServiceReport>>) {
    let net = Network::new(regular::ring(6).unwrap(), NetworkConfig::default());
    let server = Server::bind("127.0.0.1:0", net)
        .expect("bind ephemeral")
        .with_wire(wire);
    let addr = server.local_addr().unwrap();
    (addr, thread::spawn(move || server.run()))
}

/// A client whose reads give up after 10 s, so a missing reply fails
/// the test instead of hanging it.
fn connect(addr: SocketAddr, wire: WireMode) -> Client {
    let client = Client::connect(addr, wire).expect("connect");
    let timeout = Some(Duration::from_secs(10));
    client.stream().set_read_timeout(timeout).unwrap();
    client
}

/// Sends raw bytes on `client`'s socket, whole or one byte per write;
/// the replies are read with `recv`.
fn send_raw(client: &Client, bytes: &[u8], drip: bool) {
    let mut raw = client.stream();
    if drip {
        for b in bytes {
            raw.write_all(&[*b]).unwrap();
        }
    } else {
        raw.write_all(bytes).unwrap();
    }
}

/// `MAX_FRAME_BYTES + 1` bytes and no terminator in sight — a line with
/// no newline, a frame announcing a body that long — is answered once
/// (code 4) and closed, not buffered; other clients never notice.
#[test]
fn a_request_over_the_byte_cap_is_answered_and_closed() {
    for wire in WIRES {
        let (addr, server) = boot(wire);
        let mut good = connect(addr, wire);
        let mut ask = |line| good.roundtrip(line).unwrap();
        assert!(ask("ESTABLISH 0 3 100 500 100").starts_with("OK id=0"));

        let mut hostile = connect(addr, wire);
        let flood = match wire {
            WireMode::Text => vec![b'x'; MAX_FRAME_BYTES + 1],
            WireMode::Binary => ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec(),
        };
        send_raw(&hostile, &flood, false);
        let reply = hostile.recv().expect("one error reply before the close");
        assert!(reply.starts_with("ERR 4 "), "{wire:?}: {reply}");
        assert!(reply.contains("exceeds the 65536-byte cap"), "{reply}");
        let hung_up = hostile.recv().map_err(|e| e.kind());
        assert_eq!(hung_up, Err(io::ErrorKind::UnexpectedEof), "{wire:?}");

        // Exactly at the cap is still a request like any other: an
        // unknown verb of 65 536 bytes, a frame body of as many.
        let mut edge = connect(addr, wire);
        let at_cap = match wire {
            WireMode::Text => {
                let mut line = vec![b'x'; MAX_FRAME_BYTES];
                line.push(b'\n');
                line
            }
            WireMode::Binary => {
                let mut frame = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
                frame.resize(4 + MAX_FRAME_BYTES, 99);
                frame
            }
        };
        send_raw(&edge, &at_cap, false);
        let reply = edge.recv().expect("a reply at the cap");
        assert!(reply.starts_with("ERR 2 "), "{wire:?}: {reply}");
        assert!(edge
            .roundtrip("SNAPSHOT")
            .unwrap()
            .starts_with("OK conns=1"));

        assert!(ask("SNAPSHOT").starts_with("OK conns=1"));
        assert_eq!(ask("SHUTDOWN"), "OK violations=0");
        assert_eq!(server.join().unwrap().unwrap().violations, 0);
    }
}

/// A client parked on the first two bytes of a request must not hold the
/// shutdown drain: once the flag is up it is dropped at its next idle
/// poll, in either framing.
#[test]
fn a_half_received_request_does_not_hold_the_shutdown_drain() {
    for wire in WIRES {
        let (addr, server) = boot(wire);
        let mut parked = connect(addr, wire);
        // One whole request first, so the connection has its reader; when
        // the two bytes land relative to the flag then does not matter.
        let snapshot = parked.roundtrip("SNAPSHOT").unwrap();
        assert!(snapshot.starts_with("OK conns=0"));
        let establish = "ESTABLISH 0 3 100 500 100";
        let unit = match wire {
            WireMode::Text => establish.as_bytes().to_vec(),
            WireMode::Binary => frame::encode_request(&protocol::parse(establish).unwrap()),
        };
        send_raw(&parked, &unit[..2], false);

        let mut closer = connect(addr, wire);
        let asked = Instant::now();
        assert_eq!(closer.roundtrip("SHUTDOWN").unwrap(), "OK violations=0");
        let report = server.join().unwrap().unwrap();
        let took = asked.elapsed();
        assert_eq!(report.violations, 0);
        assert_eq!(report.ops, 2, "{wire:?}: the half request never ran");
        assert!(
            took < Duration::from_millis(900),
            "{wire:?}: the drain waited {took:?} on a parked half request"
        );
        let dropped = parked.recv().map_err(|e| e.kind());
        assert_eq!(
            dropped,
            Err(io::ErrorKind::UnexpectedEof),
            "{wire:?}: the parked client is dropped"
        );
    }
}

/// Outside shutdown a request reassembles however it is cut up: the
/// malformed burst delivered one byte per write draws the replies the
/// whole-unit delivery draws. (The binary burst is the parseable lines as
/// frames plus one hand-built frame per frame-level error family.)
#[test]
fn byte_at_a_time_delivery_draws_the_same_replies() {
    for wire in WIRES {
        let (addr, server) = boot(wire);
        let mut client = connect(addr, wire);
        let burst: Vec<Vec<u8>> = match wire {
            WireMode::Text => MALFORMED_BURST
                .iter()
                .map(|(line, _)| format!("{line}\n").into_bytes())
                .collect(),
            WireMode::Binary => {
                let parseable = MALFORMED_BURST
                    .iter()
                    .filter_map(|(line, _)| protocol::parse(line).ok())
                    .map(|req| frame::encode_request(&req));
                let release = frame::encode_request(&protocol::parse("RELEASE 1").unwrap())[4];
                let torn: [&[u8]; 4] = [&[], &[99], &[release], &[release, 1, 2, 3]];
                let raw = torn.iter().map(|body| {
                    let mut f = (body.len() as u32).to_le_bytes().to_vec();
                    f.extend_from_slice(body);
                    f
                });
                parseable.chain(raw).collect()
            }
        };
        assert!(burst.len() >= 12, "{wire:?}: {} units", burst.len());
        let mut replies = [Vec::new(), Vec::new()];
        for (drip, got) in [false, true].into_iter().zip(&mut replies) {
            for unit in &burst {
                send_raw(&client, unit, drip);
                got.push(client.recv().expect("every unit is answered"));
            }
        }
        let [whole, dripped] = replies;
        assert_eq!(whole, dripped, "{wire:?}");
        assert!(whole.iter().all(|r| r.starts_with("ERR ")), "{whole:?}");
        if wire == WireMode::Text {
            for (reply, (line, prefix)) in whole.iter().zip(MALFORMED_BURST) {
                assert!(reply.starts_with(prefix), "{line:?}: {reply}");
            }
        }
        assert_eq!(client.roundtrip("SHUTDOWN").unwrap(), "OK violations=0");
        assert_eq!(server.join().unwrap().unwrap().violations, 0);
    }
}
