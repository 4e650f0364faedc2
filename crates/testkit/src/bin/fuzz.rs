//! CI entry point for the chaos harness.
//!
//! ```text
//! fuzz [--seqs N] [--ops N] [--seed S] [--diff N] [--diff-cluster N]
//!      [--tolerance F]
//! ```
//!
//! Every seeded run goes through one row of the lockstep subject table
//! (`drqos_testkit::lockstep::subjects`), which replays N fuzzed
//! sequences against the row's sequential oracle and fails, with a shrunk
//! copy-pasteable reproducer, on the first divergence in operation
//! results, drop counters, epochs or snapshots of any network view:
//!
//! * `--seqs N` (default 200) runs the `invariants` row: the network
//!   checked after every operation against the reference model and every
//!   invariant oracle;
//! * `--diff-<row> N` runs a differential row at every parameter in its
//!   grid: `cluster` (member daemons' commit authorities on in-process
//!   links to one coordinator, with churn between operations, **member
//!   counts 2 and 3**);
//! * `--diff N` additionally runs N simulation-vs-Markov differential
//!   cases within `--tolerance` (default 0.45 relative).
//!
//! The mutation check over every row's mutants is a test, not a flag: the
//! seams it arms exist only in test builds
//! (`lockstep::tests::every_mutant_of_every_row_is_caught_shrunk_and_replayed`).

use drqos_testkit::diff::check_diff;
use drqos_testkit::lockstep::{self, Config, InvariantSubject, Subject, SubjectRow};
use std::process::ExitCode;

struct Args {
    ops: usize,
    seed: u64,
    diff: usize,
    /// Sequence budget per row of the subject table, in table order.
    sequences: Vec<usize>,
    tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let subjects = lockstep::subjects();
    let mut args = Args {
        ops: 60,
        seed: 2001,
        diff: 0,
        sequences: subjects
            .iter()
            .map(|row| if is_invariants(row) { 200 } else { 0 })
            .collect(),
        tolerance: 0.45,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--ops" => args.ops = parse(&value()?)?,
            "--seed" => args.seed = parse(&value()?)?,
            "--diff" => args.diff = parse(&value()?)?,
            "--tolerance" => args.tolerance = parse(&value()?)?,
            other => {
                let row = subjects
                    .iter()
                    .position(|row| budget_flag(row) == other)
                    .ok_or_else(|| format!("unknown flag {other}"))?;
                args.sequences[row] = parse(&value()?)?;
            }
        }
    }
    Ok(args)
}

fn is_invariants(row: &SubjectRow) -> bool {
    row.name == InvariantSubject::NAME
}

/// The flag that sets a row's sequence budget: `--seqs` for the
/// invariant row, `--diff-<name>` for a differential.
fn budget_flag(row: &SubjectRow) -> String {
    if is_invariants(row) {
        "--seqs".to_string()
    } else {
        format!("--diff-{}", row.name)
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("could not parse argument {s:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    for (row, &sequences) in lockstep::subjects().iter().zip(&args.sequences) {
        if sequences == 0 {
            continue;
        }
        let config = Config {
            sequences,
            ops_per_sequence: args.ops,
            seed: args.seed,
        };
        for &param in row.grid {
            let outcome = row.run(&config, param);
            if let Some(failure) = outcome.failure {
                eprintln!(
                    "FAIL: {} row{} diverged from its sequential oracle after {} clean \
                     sequence(s)\n",
                    row.name,
                    row.at(param),
                    outcome.sequences_run
                );
                eprintln!("{}", failure.reproducer());
                return ExitCode::FAILURE;
            }
            println!(
                "ok: {} {}-row sequence(s) x {} ops (seed {}){} clean throughout",
                sequences,
                row.name,
                args.ops,
                args.seed,
                row.at(param)
            );
        }
    }

    if args.diff > 0 {
        let failures = check_diff(args.seed, args.diff, args.tolerance);
        if !failures.is_empty() {
            eprintln!("FAIL: simulation diverged from the Markov model:");
            for f in &failures {
                eprintln!("  {f}");
            }
            return ExitCode::FAILURE;
        }
        println!(
            "ok: {} differential case(s) within {:.0}% of the Markov prediction",
            args.diff,
            args.tolerance * 100.0
        );
    }

    ExitCode::SUCCESS
}
