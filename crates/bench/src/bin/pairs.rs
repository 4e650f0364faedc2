//! Pairs two `bench --out` directories by seed — side A, then side B —
//! and prints, for every workload and every end-to-end row
//! `BENCHMARK.json` bounds, the paired log-ratio's median and mean, the
//! exact sign-test 95 % interval on its median and the pairs B won
//! (`drqos_bench::pairs`).
//!
//! Run with `cargo run --release -p drqos-bench --bin pairs -- A_DIR B_DIR`.

use drqos_bench::pairs::{bounded_rows, read_dir, reduce};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let dirs: Vec<String> = std::env::args().skip(1).collect();
    let [a, b] = dirs.as_slice() else {
        eprintln!("usage: pairs A_DIR B_DIR");
        return ExitCode::from(2);
    };
    match (read_dir(Path::new(a)), read_dir(Path::new(b))) {
        (Ok(a), Ok(b)) => {
            print!("{}", reduce(&a, &b, &bounded_rows()));
            ExitCode::SUCCESS
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("pairs: {e}");
            ExitCode::from(2)
        }
    }
}
