//! `drqos-clusterd` — the federation daemons and their control client.
//!
//! One binary, four roles:
//!
//! ```text
//! drqos-clusterd coordinator [--port N] [--members M]
//!                            [--topology ring|torus] [--nodes N]
//!                            [--rows R] [--cols C] [--capacity KBPS]
//! drqos-clusterd member      [--port N] [--coordinator HOST:PORT]
//!                            [--topology ring|torus] [--nodes N]
//!                            [--rows R] [--cols C] [--capacity KBPS]
//! drqos-clusterd status      [--coordinator HOST:PORT]
//! drqos-clusterd stop        [--coordinator HOST:PORT]
//! ```
//!
//! A member and its coordinator MUST be booted with identical topology
//! flags: replicas replay the oplog from the shared genesis network,
//! they never transfer state. Defaults mirror `drqosd` (6x6 torus at
//! 10 Mbps per link); `--port` defaults to 7900 for the coordinator and
//! 7851 for a member, `--coordinator` to `127.0.0.1:7900`, `--members`
//! to 3.
//!
//! Exit codes: 2 bad arguments, 1 runtime failure or shutdown with
//! invariant violations, 0 clean.

use drqos_core::env::RebalancePolicy;
use drqos_core::network::{Network, NetworkConfig};
use drqos_core::qos::Bandwidth;
use drqos_service::clusterd::{fetch_status, request_stop, ClusterCoordinator, ClusterMember};
use drqos_topology::regular;
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    role: String,
    port: Option<u16>,
    coordinator: Option<String>,
    members: usize,
    topology: String,
    nodes: usize,
    rows: usize,
    cols: usize,
    capacity_kbps: u64,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            role: String::new(),
            port: None,
            coordinator: None,
            members: 3,
            topology: "torus".to_string(),
            nodes: 12,
            rows: 6,
            cols: 6,
            capacity_kbps: 10_000,
        }
    }
}

const USAGE: &str = "usage: drqos-clusterd <coordinator|member|status|stop> \
                     [--port N] [--coordinator HOST:PORT] [--members M] \
                     [--topology ring|torus] [--nodes N] [--rows R] [--cols C] \
                     [--capacity KBPS]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    args.role = it
        .next()
        .cloned()
        .ok_or_else(|| format!("missing role\n{USAGE}"))?;
    if !matches!(
        args.role.as_str(),
        "coordinator" | "member" | "status" | "stop"
    ) {
        if matches!(args.role.as_str(), "--help" | "-h") {
            return Err(USAGE.to_string());
        }
        return Err(format!("unknown role {}\n{USAGE}", args.role));
    }
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--port" => {
                args.port = Some(
                    value(flag)?
                        .parse()
                        .map_err(|_| format!("bad --port\n{USAGE}"))?,
                );
            }
            "--coordinator" => args.coordinator = Some(value(flag)?),
            "--members" => {
                args.members = value(flag)?
                    .parse()
                    .map_err(|_| format!("bad --members\n{USAGE}"))?;
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
    Ok(Network::new(graph, config))
}

/// The coordinator's default listen port.
const COORD_PORT: u16 = 7900;

fn coordinator_addr(args: &Args) -> String {
    args.coordinator
        .clone()
        .unwrap_or_else(|| format!("127.0.0.1:{COORD_PORT}"))
}

fn run_coordinator(args: &Args) -> ExitCode {
    let net = match build_network(args) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("drqos-clusterd: {msg}");
            return ExitCode::from(2);
        }
    };
    let addr = format!("127.0.0.1:{}", args.port.unwrap_or(COORD_PORT));
    let coord = match ClusterCoordinator::bind(&addr, net, args.members, 0, RebalancePolicy::Bfs) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("drqos-clusterd: bind {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "drqos-clusterd: coordinating {} members on {addr} ({})",
        args.members, args.topology
    );
    let report = match coord.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("drqos-clusterd: serve: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "drqos-clusterd: committed {} ops ({} stale replans, {} aborted prepares), \
         shutdown violations: {}",
        report.seq, report.stale_replans, report.aborted_prepares, report.violations
    );
    if report.violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_member(args: &Args) -> ExitCode {
    let net = match build_network(args) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("drqos-clusterd: {msg}");
            return ExitCode::from(2);
        }
    };
    let addr = format!("127.0.0.1:{}", args.port.unwrap_or(7851));
    let coordinator = coordinator_addr(args);
    let member = match ClusterMember::bind(&addr, net, &coordinator) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("drqos-clusterd: join via {coordinator}: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "drqos-clusterd: member m{} serving on {addr} (coordinator {coordinator})",
        member.member_id()
    );
    let report = match member.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("drqos-clusterd: serve: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "drqos-clusterd: member m{} handled {} ops, shutdown violations: {}",
        report.member, report.ops, report.violations
    );
    if report.violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
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
    match args.role.as_str() {
        "coordinator" => run_coordinator(&args),
        "member" => run_member(&args),
        "status" => match fetch_status(&coordinator_addr(&args)) {
            Ok(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("drqos-clusterd: status: {e}");
                ExitCode::from(1)
            }
        },
        // parse_args rejected every other role already.
        _ => match request_stop(&coordinator_addr(&args)) {
            Ok(()) => {
                eprintln!("drqos-clusterd: coordinator stopping");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("drqos-clusterd: stop: {e}");
                ExitCode::from(1)
            }
        },
    }
}
