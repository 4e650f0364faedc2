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

use drqos_service::genesis::Genesis;
use drqos_service::server::Server;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    port: u16,
    genesis: Genesis,
}

fn usage() -> String {
    format!("usage: drqosd [--port N] {}", Genesis::USAGE)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        port: 7841,
        genesis: Genesis::default(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            Ok(v.clone())
        };
        match flag.as_str() {
            "--port" => args.port = value(flag)?.parse().map_err(|_| "bad --port")?,
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
    let net = match args.genesis.build("drqosd") {
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
        "drqosd: serving {} on {addr}, {} wire",
        args.genesis.describe(),
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
