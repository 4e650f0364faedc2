//! Per-layer metrics from the traced run. See `--help`.

fn main() -> std::process::ExitCode {
    drqos_benchmark::cli::run(true)
}
