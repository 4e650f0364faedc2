//! The command line shared by the `bench` and `layers` binaries.

use crate::e2e::{self, Options};
use crate::json::Json;
use crate::layers;
use crate::ops::{Spec, NOMINAL_SECONDS, SPECS};
use crate::report::{self, Record};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: bench|layers [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                    [--quick] [--repeat N] [--out DIR]
       bench --compare A_DIR B_DIR

  --workload NAME  run one workload in this process and print its result line
                   last (the form the acceptance driver uses); without it every
                   workload runs, each in a child process of its own
  --seed N         seed of the op streams (default 2001); never of the graph
  --seconds S      window the step counts are sized for (default 6)
  --trace 0|1      0: end-to-end metrics, tracing off (bench's default)
                   1: per-layer metrics from the traced run (layers' default)
  --quick          smoke-sized run; numbers mean nothing
  --repeat N       run the suite N times, run i with seed + i
  --out DIR        where --repeat writes run-NN.json and --trace 1 its spans
  --compare A B    judge run directory B against A with BENCHMARK.json's bounds";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(trace_default: bool) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 2001,
        seconds: NOMINAL_SECONDS,
        trace: trace_default,
        quick: false,
        repeat: 1,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("{flag}: not a number: {s}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, &flag)?),
            "--seed" => a.seed = number(&value(&mut it, &flag)?, &flag)?,
            "--seconds" => a.seconds = number::<u64>(&value(&mut it, &flag)?, &flag)?.max(1),
            "--trace" => a.trace = number::<u8>(&value(&mut it, &flag)?, &flag)? != 0,
            "--quick" => a.quick = true,
            "--repeat" => a.repeat = number::<usize>(&value(&mut it, &flag)?, &flag)?.max(1),
            "--out" => a.out = Some(value(&mut it, &flag)?.into()),
            "--compare" => {
                a.compare = Some((value(&mut it, &flag)?.into(), value(&mut it, &flag)?.into()))
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

impl Args {
    fn options(&self) -> Options {
        Options {
            seed: self.seed,
            seconds: self.seconds,
            quick: self.quick,
            trace: self.trace,
        }
    }

    fn out_dir(&self) -> PathBuf {
        self.out
            .clone()
            .unwrap_or_else(|| package_dir().join("out"))
    }
}

/// Entry point of both binaries; they differ only in `--trace`'s default.
pub fn run(trace_default: bool) -> ExitCode {
    let args = match parse_args(trace_default) {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare(a, b)
    } else if let Err(e) = e2e::refuse_exported_knobs() {
        Err(e)
    } else if let Some(name) = &args.workload {
        one(&args, name)
    } else {
        suite(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = report::read_bounds(&package_dir().join("../BENCHMARK.json"))?;
    let (table, bad) = report::compare(a, b, &bounds)?;
    print!("{table}");
    Ok(!bad)
}

/// Restricts this process to the highest-numbered CPU it may run on
/// (CPU 0 takes the VM's device interrupts) by having `taskset` set the
/// affinity of the main thread, the only thread so far; every thread
/// started later inherits it. Returns the CPU.
///
/// Left to itself the scheduler either keeps a client and the daemon
/// thread that answers it on one CPU or spreads them over two, depending
/// on what ran before, and a hand-off to a thread on another, idle vCPU of
/// this VM costs about 80 µs: the same commit then reads `release_p50_us`
/// 29 µs or 105 µs (README.md, "One CPU"). On one CPU every hand-off is a
/// context switch, always. What
/// that gives up is threads running at the same instant; requests of two
/// clients are still in flight together and still queue at the event
/// loop.
///
/// # Errors
///
/// `taskset` cannot be run or refuses: the run is not made, because its
/// numbers would not compare with pinned ones.
fn pin_to_one_cpu() -> Result<usize, String> {
    let cpu: usize = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
                .trim()
                .rsplit([',', '-'])
                .next()?
                .parse()
                .ok()
        })
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let status = Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| {
            format!("taskset: {e} (the benchmark measures on one CPU; install util-linux)")
        })?;
    if status.success() {
        Ok(cpu)
    } else {
        Err(format!("taskset -cp {cpu}: {status}"))
    }
}

/// Runs one workload in this process, on one CPU. The last line printed
/// is the driver's result object; the line before it is the detailed
/// record.
fn one(args: &Args, name: &str) -> Result<bool, String> {
    let spec = Spec::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let cpu = pin_to_one_cpu()?;
    let opt = args.options();
    let mut record = if args.trace {
        let traced = layers::trace(spec, &opt).map_err(|e| format!("{name}: {e}"))?;
        let path = args.out_dir().join(format!("{name}.trace.json"));
        traced
            .tracer
            .write(&path, name)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        traced.record
    } else {
        let measured = e2e::measure(spec, &opt).map_err(|e| format!("{name}: {e}"))?;
        report::end_to_end(&measured)
    };
    record.detail.push(("cpu".into(), Json::Num(cpu as f64)));
    print!(
        "{}",
        report::table(std::slice::from_ref(&record), args.quick)
    );
    if !record.correct {
        eprintln!("{name}: a correctness check FAILED; see \"checks\" in the detailed record");
    }
    println!("{}", record.to_json());
    println!("{}", record.contract_line());
    Ok(record.correct)
}

/// Runs every workload, each in a child process of its own so that
/// `peak_rss_mb` is a per-workload high-water mark.
fn suite(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for rep in 0..args.repeat {
        // Run `rep` of every directory uses the same seed, so two
        // directories compare like with like while the repeats still
        // cover different op streams.
        let seed = args.seed.wrapping_add(rep as u64);
        let mut records = Vec::new();
        for spec in &SPECS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if args.quick {
                cmd.arg("--quick");
            }
            if let Some(dir) = &args.out {
                cmd.arg("--out").arg(dir);
            }
            let output = cmd.output().map_err(|e| format!("{}: {e}", spec.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let detailed = stdout.lines().rev().nth(1).unwrap_or_default();
            let record = Json::parse(detailed)
                .ok()
                .and_then(|j| Record::from_json(&j).map(|r| (r, j)));
            let Some((record, json)) = record else {
                return Err(format!(
                    "{}: child exited with {} and no result",
                    spec.name, output.status
                ));
            };
            all_correct &= record.correct && output.status.success();
            records.push((record, json));
        }
        let plain: Vec<Record> = records.iter().map(|(r, _)| r.clone()).collect();
        print!("{}", report::table(&plain, args.quick));
        let doc = Json::obj([
            ("benchmark", Json::str("drqos")),
            ("quick", Json::Bool(args.quick)),
            ("trace", Json::Bool(args.trace)),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(args.seconds as f64)),
            ("setups", Json::Num(args.options().setups() as f64)),
            (
                "nproc",
                Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("git", Json::str(git_head())),
            (
                "pinned",
                Json::parse(&e2e::pinned_json()).unwrap_or(Json::Null),
            ),
            (
                "workloads",
                Json::Arr(records.into_iter().map(|(_, j)| j).collect()),
            ),
        ]);
        println!("{doc}");
        if args.repeat > 1 || args.out.is_some() {
            let dir = args.out_dir();
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join(format!("run-{rep:02}.json"));
            std::fs::write(&path, format!("{doc}\n"))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(all_correct)
}

/// `git rev-parse HEAD` of the repository this package sits in, or
/// `unknown` outside a checkout with history. The ceiling keeps git from
/// wandering above the repository root.
fn git_head() -> String {
    let root = package_dir().join("..");
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", root.join(".."))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
