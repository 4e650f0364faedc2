//! End-to-end metrics, tracing off. See `--help`.

fn main() -> std::process::ExitCode {
    drqos_benchmark::cli::run(false)
}
