//! `drqos-clusterd` — the federation daemons and their control client.
//!
//! One binary, four roles:
//!
//! ```text
//! drqos-clusterd coordinator [--port N] [--members M]
//!                            [--topology ring|torus] [--nodes N]
//!                            [--rows R] [--cols C] [--capacity KBPS]
//!                            [--seed N]
//! drqos-clusterd member      [--port N] [--coordinator HOST:PORT]
//!                            [--topology ring|torus] [--nodes N]
//!                            [--rows R] [--cols C] [--capacity KBPS]
//!                            [--seed N]
//! drqos-clusterd status      [--coordinator HOST:PORT]
//! drqos-clusterd stop        [--coordinator HOST:PORT]
//! ```
//!
//! A member serves its clients exactly as `drqosd` does — either framing
//! (`DRQOS_WIRE`), `BUSY` past `DRQOS_QUEUE_DEPTH`, the shutdown drain —
//! but commits every operation at its coordinator.
//!
//! A member and its coordinator MUST be booted with identical genesis
//! flags — topology, capacity and `--seed` — and under the same
//! `DRQOS_SRLG_COUNT` / `DRQOS_SRLG_SIZE`: replicas replay the oplog from
//! the shared genesis network ([`drqos_service::genesis`], the one
//! `drqosd` boots too), they never transfer state. Defaults mirror
//! `drqosd` (6x6 torus at 10 Mbps per link, seed 1); `--port` defaults to
//! 7900 for the coordinator and 7851 for a member, `--coordinator` to
//! `127.0.0.1:7900`, `--members` to 3.
//!
//! Exit codes: 2 bad arguments, 1 runtime failure or shutdown with
//! invariant violations, 0 clean.

use drqos_core::env::RebalancePolicy;
use drqos_service::clusterd::{fetch_status, request_stop, ClusterCoordinator, ClusterMember};
use drqos_service::genesis::Genesis;
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    role: String,
    port: Option<u16>,
    coordinator: Option<String>,
    members: usize,
    genesis: Genesis,
}

fn usage() -> String {
    format!(
        "usage: drqos-clusterd <coordinator|member|status|stop> [--port N] \
         [--coordinator HOST:PORT] [--members M] {}",
        Genesis::USAGE
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let role = it.next().cloned().ok_or("missing role")?;
    match role.as_str() {
        "coordinator" | "member" | "status" | "stop" => {}
        "--help" | "-h" => return Err(String::new()),
        other => return Err(format!("unknown role {other}")),
    }
    let mut args = Args {
        role,
        port: None,
        coordinator: None,
        members: 3,
        genesis: Genesis::default(),
    };
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            Ok(v.clone())
        };
        match flag.as_str() {
            "--port" => args.port = Some(value(flag)?.parse().map_err(|_| "bad --port")?),
            "--coordinator" => args.coordinator = Some(value(flag)?),
            "--members" => args.members = value(flag)?.parse().map_err(|_| "bad --members")?,
            "--help" | "-h" => return Err(String::new()),
            other => {
                if !args.genesis.take_flag(other, &mut value)? {
                    return Err(format!("unknown flag {other}"));
                }
            }
        }
    }
    Ok(args)
}

/// The coordinator's default listen port.
const COORD_PORT: u16 = 7900;

fn coordinator_addr(args: &Args) -> String {
    args.coordinator
        .clone()
        .unwrap_or_else(|| format!("127.0.0.1:{COORD_PORT}"))
}

fn run_coordinator(args: &Args) -> ExitCode {
    let net = match args.genesis.build("drqos-clusterd") {
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
        "drqos-clusterd: coordinating {} members on {addr}, {}",
        args.members,
        args.genesis.describe()
    );
    let report = match coord.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("drqos-clusterd: serve: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "drqos-clusterd: committed {} ops ({} syncs), shutdown violations: {}",
        report.seq, report.syncs, report.violations
    );
    if report.violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_member(args: &Args) -> ExitCode {
    let net = match args.genesis.build("drqos-clusterd") {
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
            // `--help` has no complaint to print.
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            eprintln!("{}", usage());
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
