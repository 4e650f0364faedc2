//! `drqosd` — the DR-connection daemon.
//!
//! Boots a [`drqos_core::network::Network`] over a regular topology and
//! serves the line protocol on TCP until a `SHUTDOWN` command completes.
//! On exit it dumps the request metrics to
//! `target/experiments/service_runtime.json` and exits 0 only if the
//! shutdown invariant check found nothing.
//!
//! ```text
//! drqosd [--port N] [--topology ring|torus] [--nodes N]
//!        [--rows R] [--cols C] [--capacity KBPS] [--seed N]
//! ```
//!
//! With `DRQOS_SRLG_COUNT` set, the daemon derives that many shared-risk
//! link groups from `--seed` at startup (each `DRQOS_SRLG_SIZE` links,
//! disjoint); `FAIL-SRLG g` / `REPAIR-SRLG g` then fire and heal group
//! `g` atomically.

use drqos_core::network::{Network, NetworkConfig};
use drqos_core::qos::Bandwidth;
use drqos_service::server::Server;
use drqos_topology::regular;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    port: u16,
    topology: String,
    nodes: usize,
    rows: usize,
    cols: usize,
    capacity_kbps: u64,
    seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            port: 7841,
            topology: "torus".to_string(),
            nodes: 12,
            rows: 6,
            cols: 6,
            capacity_kbps: 10_000,
            seed: 1,
        }
    }
}

const USAGE: &str = "usage: drqosd [--port N] [--topology ring|torus] \
                     [--nodes N] [--rows R] [--cols C] [--capacity KBPS] \
                     [--seed N]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--port" => {
                args.port = value(flag)?
                    .parse()
                    .map_err(|_| format!("bad --port\n{USAGE}"))?;
            }
            "--topology" => args.topology = value(flag)?,
            "--nodes" => {
                args.nodes = value(flag)?
                    .parse()
                    .map_err(|_| format!("bad --nodes\n{USAGE}"))?;
            }
            "--rows" => {
                args.rows = value(flag)?
                    .parse()
                    .map_err(|_| format!("bad --rows\n{USAGE}"))?;
            }
            "--cols" => {
                args.cols = value(flag)?
                    .parse()
                    .map_err(|_| format!("bad --cols\n{USAGE}"))?;
            }
            "--capacity" => {
                args.capacity_kbps = value(flag)?
                    .parse()
                    .map_err(|_| format!("bad --capacity\n{USAGE}"))?;
            }
            "--seed" => {
                args.seed = value(flag)?
                    .parse()
                    .map_err(|_| format!("bad --seed\n{USAGE}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn build_network(args: &Args) -> Result<Network, String> {
    let graph = match args.topology.as_str() {
        "ring" => regular::ring(args.nodes).map_err(|e| e.to_string())?,
        "torus" => regular::torus(args.rows, args.cols).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown topology {other} (ring|torus)")),
    };
    let config = NetworkConfig {
        capacity: Bandwidth::kbps(args.capacity_kbps),
        ..NetworkConfig::default()
    };
    let mut net = Network::new(graph, config);
    let srlg_count = drqos_core::env::srlg_count();
    if srlg_count > 0 {
        let registered = drqos_core::register_seeded_srlgs(
            &mut net,
            srlg_count,
            drqos_core::env::srlg_size(),
            args.seed,
        );
        eprintln!(
            "drqosd: registered {registered} shared-risk groups (seed {})",
            args.seed
        );
    }
    Ok(net)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let net = match build_network(&args) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("drqosd: {msg}");
            return ExitCode::from(2);
        }
    };
    let addr = format!("127.0.0.1:{}", args.port);
    let server = match Server::bind(&addr, net) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("drqosd: bind {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "drqosd: serving {} ({}) on {addr}, {} wire",
        args.topology,
        match args.topology.as_str() {
            "ring" => format!("{} nodes", args.nodes),
            _ => format!("{}x{}", args.rows, args.cols),
        },
        match server.wire() {
            drqos_core::env::WireMode::Text => "text",
            drqos_core::env::WireMode::Binary => "binary",
        }
    );
    let report = match server.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("drqosd: serve: {e}");
            return ExitCode::from(1);
        }
    };
    let out = Path::new("target/experiments/service_runtime.json");
    if let Some(parent) = out.parent() {
        let _ = fs::create_dir_all(parent);
    }
    match fs::write(out, format!("{}\n", report.metrics_json)) {
        Ok(()) => eprintln!("drqosd: metrics written to {}", out.display()),
        Err(e) => eprintln!("drqosd: could not write {}: {e}", out.display()),
    }
    eprintln!(
        "drqosd: handled {} ops, shutdown violations: {}",
        report.ops, report.violations
    );
    if report.violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
