//! `drqos-loadgen` — closed-loop load generator for `drqosd`.
//!
//! Spawns N worker connections replaying seeded workload slices, prints
//! ops/sec and tail latency, and records the run as
//! `target/experiments/runtime/loadgen-<clients>c.json`.
//! Exits 0 only if the run saw zero protocol errors (and, with
//! `--shutdown`, the server exited invariant-clean).
//!
//! ```text
//! drqos-loadgen [--addr HOST:PORT] [--endpoints A,B,...] [--clients N]
//!               [--requests N] [--seed S] [--release-prob PCT]
//!               [--min-availability F] [--scenario NAME] [--shutdown]
//! ```
//!
//! With `--endpoints`, workers are spread round-robin across several
//! daemons (a `drqos-clusterd` federation) and the report carries
//! per-endpoint counters plus an availability ratio; `--min-availability`
//! turns that ratio into an exit-code gate for CI churn runs.

use drqos_service::loadgen::{self, LoadgenConfig};
use std::fs;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: drqos-loadgen [--addr HOST:PORT] [--endpoints A,B,...] \
                     [--clients N] [--requests N] [--seed S] [--release-prob PCT] \
                     [--min-availability F] [--scenario NAME] [--shutdown]";

fn parse_args(argv: &[String]) -> Result<(LoadgenConfig, Option<f64>), String> {
    let mut config = LoadgenConfig::default();
    let mut min_availability = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value(flag)?,
            "--endpoints" => {
                config.endpoints = value(flag)?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if config.endpoints.is_empty() {
                    return Err(format!("--endpoints needs at least one address\n{USAGE}"));
                }
            }
            "--min-availability" => {
                let f: f64 = value(flag)?
                    .parse()
                    .map_err(|_| format!("bad --min-availability\n{USAGE}"))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(format!("--min-availability must be 0..=1\n{USAGE}"));
                }
                min_availability = Some(f);
            }
            "--clients" => {
                config.clients = value(flag)?
                    .parse()
                    .map_err(|_| format!("bad --clients\n{USAGE}"))?;
            }
            "--requests" => {
                config.requests_per_client = value(flag)?
                    .parse()
                    .map_err(|_| format!("bad --requests\n{USAGE}"))?;
            }
            "--seed" => {
                config.seed = value(flag)?
                    .parse()
                    .map_err(|_| format!("bad --seed\n{USAGE}"))?;
            }
            "--release-prob" => {
                let pct: u64 = value(flag)?
                    .parse()
                    .map_err(|_| format!("bad --release-prob (whole percent)\n{USAGE}"))?;
                if pct > 100 {
                    return Err(format!("--release-prob must be 0..=100\n{USAGE}"));
                }
                config.release_prob = pct as f64 / 100.0;
            }
            "--scenario" => {
                let name = value(flag)?;
                config.scenario = drqos_core::scenario::ScenarioKind::parse(&name)
                    .ok_or_else(|| format!("unknown --scenario {name}\n{USAGE}"))?;
            }
            "--shutdown" => config.shutdown = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok((config, min_availability))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (config, min_availability) = match parse_args(&argv) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let target = if config.endpoints.is_empty() {
        config.addr.clone()
    } else {
        format!(
            "{} endpoints [{}]",
            config.endpoints.len(),
            config.endpoints.join(", ")
        )
    };
    eprintln!(
        "drqos-loadgen: {} clients x {} requests against {} (seed {})",
        config.clients, config.requests_per_client, target, config.seed
    );
    let report = match loadgen::run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("drqos-loadgen: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", report.summary());
    let dir = Path::new("target/experiments/runtime");
    let out = dir.join(format!("loadgen-{}c.json", config.clients));
    let json = report.to_json(config.clients, config.seed);
    match fs::create_dir_all(dir).and_then(|()| fs::write(&out, format!("{json}\n"))) {
        Ok(()) => eprintln!("drqos-loadgen: recorded to {}", out.display()),
        Err(e) => eprintln!("drqos-loadgen: could not write {}: {e}", out.display()),
    }
    if let Some(clean) = report.clean_shutdown {
        eprintln!(
            "drqos-loadgen: server shutdown {}",
            if clean { "clean" } else { "UNCLEAN" }
        );
        if !clean {
            return ExitCode::from(1);
        }
    }
    if let Some(floor) = min_availability {
        if report.availability < floor {
            eprintln!(
                "drqos-loadgen: availability {:.4} below floor {:.4}",
                report.availability, floor
            );
            return ExitCode::from(1);
        }
    }
    if report.protocol_errors == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("drqos-loadgen: {} protocol errors", report.protocol_errors);
        ExitCode::from(1)
    }
}
