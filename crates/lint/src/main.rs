//! The `drqos-lint` CLI. See `drqos_lint` (lib) for the rules and
//! TESTING.md for the rule table and pragma syntax.
//!
//! ```text
//! drqos-lint [--root PATH] [--json | --fix-allowlist | --call-graph]
//! ```
//!
//! Exits 0 with no findings, 1 with findings, 2 on usage/I-O errors.
//! `--call-graph` dumps the resolved workspace call graph (sorted edges
//! plus function/edge counts) and exits 0 unless the count of edges out
//! of live functions is below the non-vacuity floor.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut fix_allowlist = false;
    let mut call_graph = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--fix-allowlist" => fix_allowlist = true,
            "--call-graph" => call_graph = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: drqos-lint [--root PATH] [--json | --fix-allowlist | --call-graph]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                return ExitCode::from(2);
            }
        }
    }
    // Default root: the workspace directory two levels above this crate's
    // manifest, so `cargo run -p drqos-lint` works from anywhere in the
    // repo.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    if call_graph {
        return match drqos_lint::build_workspace_graph(&root) {
            Ok(g) => {
                print!("{}", g.render_dump());
                if g.live_edges() >= drqos_lint::callgraph::MIN_LIVE_EDGES {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!(
                    "drqos-lint: cannot build call graph for {}: {e}",
                    root.display()
                );
                ExitCode::from(2)
            }
        };
    }

    let findings = match drqos_lint::run_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("drqos-lint: cannot lint {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if fix_allowlist {
        print!("{}", drqos_lint::render_fix_allowlist(&findings));
    } else if json {
        println!("{}", drqos_lint::render_json(&findings));
    } else {
        print!("{}", drqos_lint::render_human(&findings));
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
