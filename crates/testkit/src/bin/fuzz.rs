//! CI entry point for the chaos harness.
//!
//! ```text
//! fuzz [--seqs N] [--ops N] [--seed S] [--diff N] [--diff-cache N]
//!      [--diff-cluster N] [--tolerance F] [--self-test]
//! ```
//!
//! * the main run executes `--seqs` seeded operation sequences and exits
//!   non-zero with a shrunk, copy-pasteable reproducer on any invariant
//!   violation;
//! * `--diff N` additionally runs N simulation-vs-Markov differential
//!   cases within `--tolerance` (default 0.45 relative);
//! * `--diff-<subject> N` replays N fuzzed sequences against one row of
//!   the lockstep subject table (`drqos_testkit::lockstep::subjects`) and
//!   its sequential oracle, at every parameter in the row's grid, and
//!   fails (with a shrunk reproducer) on any divergence in operation
//!   results, drop counters, epochs, or snapshots of any network view:
//!   `cache` (route cache on vs. off) and `cluster` (member daemons'
//!   commit authorities on in-process links to one coordinator, with
//!   churn between operations, **member counts 2 and 3**);
//! * `--self-test` is the mutation check: it injects the `LoseRelease`
//!   and `LoseSrlgRepair` accounting faults into the invariant fuzzer and
//!   every subject's registered mutants (`StarvedCapacity`, `DropRecord`,
//!   `UnguardedSkip`) into the lockstep loop, and *fails* unless the detectors catch every one and
//!   shrink the witness within its bound (≤ 10 ops for each accounting
//!   fault; the table row's `shrink_bound` for each mutant).

use drqos_testkit::diff::check_diff;
use drqos_testkit::fuzz::{run_fuzz, FuzzConfig, InjectedFault};
use drqos_testkit::lockstep::{self, Config};
use std::process::ExitCode;

struct Args {
    seqs: usize,
    ops: usize,
    seed: u64,
    diff: usize,
    /// Sequence budget per lockstep subject, in table order.
    lockstep: Vec<usize>,
    tolerance: f64,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let subjects = lockstep::subjects();
    let mut args = Args {
        seqs: 200,
        ops: 60,
        seed: 2001,
        diff: 0,
        lockstep: vec![0; subjects.len()],
        tolerance: 0.45,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--seqs" => args.seqs = parse(&value()?)?,
            "--ops" => args.ops = parse(&value()?)?,
            "--seed" => args.seed = parse(&value()?)?,
            "--diff" => args.diff = parse(&value()?)?,
            "--tolerance" => args.tolerance = parse(&value()?)?,
            "--self-test" => args.self_test = true,
            other => {
                let row = other
                    .strip_prefix("--diff-")
                    .and_then(|name| subjects.iter().position(|row| row.name == name))
                    .ok_or_else(|| format!("unknown flag {other}"))?;
                args.lockstep[row] = parse(&value()?)?;
            }
        }
    }
    Ok(args)
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

    if args.self_test {
        return mutation_check(args.seed);
    }

    if args.seqs > 0 {
        let outcome = run_fuzz(&FuzzConfig {
            sequences: args.seqs,
            ops_per_sequence: args.ops,
            seed: args.seed,
            fault: InjectedFault::None,
        });
        if let Some(failure) = outcome.failure {
            eprintln!(
                "FAIL: invariant violation after {} clean sequence(s)\n",
                outcome.sequences_run
            );
            eprintln!("{}", failure.reproducer());
            return ExitCode::FAILURE;
        }
        println!(
            "ok: {} sequences x {} ops (seed {}) with zero invariant violations",
            args.seqs, args.ops, args.seed
        );
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

    for (row, &sequences) in lockstep::subjects().iter().zip(&args.lockstep) {
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
                    "FAIL: {} differential{} diverged from its sequential oracle after {} clean \
                     sequence(s)\n",
                    row.name,
                    row.at(param),
                    outcome.sequences_run
                );
                eprintln!("{}", failure.reproducer());
                return ExitCode::FAILURE;
            }
            println!(
                "ok: {} {}-differential sequence(s) x {} ops (seed {}){} byte-identical throughout",
                sequences,
                row.name,
                args.ops,
                args.seed,
                row.at(param)
            );
        }
    }
    ExitCode::SUCCESS
}

/// The mutation check: every injected fault MUST be caught and MUST
/// shrink to a small reproducer, or the detector itself is broken.
fn mutation_check(seed: u64) -> ExitCode {
    let mut clean = true;
    // Invariant-fuzzer faults: (fault, sequences, ops per sequence).
    for (fault, sequences, ops_per_sequence) in [
        (InjectedFault::LoseRelease, 50, 30),
        (InjectedFault::LoseSrlgRepair, 200, 60),
    ] {
        let witness = run_fuzz(&FuzzConfig {
            sequences,
            ops_per_sequence,
            seed,
            fault,
        })
        .failure
        .map(|f| (f.shrunk.len(), f.reproducer()));
        clean &= report(&format!("{fault:?} accounting fault"), 10, witness);
    }
    for row in lockstep::subjects() {
        for &mutant in row.mutants {
            let witness = row
                .mutation_witness(mutant, seed)
                .map(|f| (f.shrunk.len(), f.reproducer()));
            let what = format!("{mutant} fault ({} differential)", row.name);
            clean &= report(&what, row.shrink_bound, witness);
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints one mutation-check verdict; `true` when the fault was caught
/// and its witness (length, reproducer) is within `bound`.
fn report(what: &str, bound: usize, witness: Option<(usize, String)>) -> bool {
    match witness {
        Some((len, reproducer)) if len <= bound => {
            println!("ok: injected {what} caught and shrunk to {len} op(s):\n\n{reproducer}");
            true
        }
        Some((len, _)) => {
            eprintln!(
                "FAIL: {what} caught but reproducer has {len} ops (> {bound}) — shrinker regressed"
            );
            false
        }
        None => {
            eprintln!("FAIL: injected {what} was NOT detected — detector regressed");
            false
        }
    }
}
