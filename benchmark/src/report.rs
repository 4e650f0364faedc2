//! Metric names, result records, tables, and the repeat-and-compare tool.

use crate::e2e::{Measured, Reduced};
use crate::json::Json;
use crate::ops::Kind;
use crate::stats::{median, quartiles, Latency};
use std::fmt::Write as _;
use std::path::Path;

/// The end-to-end metrics `BENCHMARK.json` bounds, in its order: (name,
/// unit). The `norm.*` ones are the observations of [`OBSERVED`], each
/// divided by the host-speed factor of its slice (see [`crate::slices`]).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("norm.ops_per_s", "1/s"),
    ("norm.establish_p50_us", "us"),
    ("norm.release_p50_us", "us"),
    ("served_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The client's view as the clock read it, under the issue's names:
/// (name, unit). Printed by every run; in `BENCHMARK.json` they are
/// per-layer metrics, because on a shared host they cannot hold a bound.
pub const OBSERVED: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("establish_p50_us", "us"),
    ("establish_p99_us", "us"),
    ("release_p50_us", "us"),
    ("fault_p50_us", "us"),
    ("failed_ratio", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// Extra members of the detailed JSON: sample counts, slice spread.
    pub notes: Vec<(String, Json)>,
}

impl Metric {
    /// A metric without notes.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.into(),
            value,
            unit: unit.into(),
            notes: Vec::new(),
        }
    }
}

/// One workload's result: the end-to-end or per-layer metrics plus the
/// verdict of the correctness checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Every correctness check passed.
    pub correct: bool,
    /// Requests sent in the timed window.
    pub attempted: u64,
    /// Requests that failed in a way no correct daemon allows.
    pub failed: u64,
    /// The metrics of the driver's result line, in table order.
    pub metrics: Vec<Metric>,
    /// [`OBSERVED`], printed beside them by an end-to-end run.
    pub observed: Vec<Metric>,
    /// Everything else worth keeping: checks, counts, digests.
    pub detail: Vec<(String, Json)>,
}

impl Record {
    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric exactly `value` and `unit`.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.clone(), Json::metric(m.value, &m.unit))),
                ),
            ),
        ])
        .to_string()
    }

    /// The detailed object `--out` files and the suite JSON hold.
    pub fn to_json(&self) -> Json {
        let object = |metrics: &[Metric]| {
            Json::obj(metrics.iter().map(|m| {
                let mut members = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::str(m.unit.as_str())),
                ];
                members.extend(m.notes.iter().cloned());
                (m.name.clone(), Json::Obj(members))
            }))
        };
        let mut members = vec![
            ("workload".to_string(), Json::str(self.workload.as_str())),
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
        ];
        members.extend(self.detail.iter().cloned());
        members.push(("metrics".to_string(), object(&self.metrics)));
        if !self.observed.is_empty() {
            members.push(("observed".to_string(), object(&self.observed)));
        }
        Json::Obj(members)
    }

    /// Reads [`Record::to_json`] back.
    pub fn from_json(j: &Json) -> Option<Record> {
        let list = |key: &str| -> Option<Vec<Metric>> {
            Some(
                j.get(key)?
                    .as_obj()?
                    .iter()
                    .filter_map(|(name, m)| {
                        Some(Metric::new(
                            name,
                            m.get("value")?.as_f64()?,
                            m.get("unit")?.as_str()?,
                        ))
                    })
                    .collect(),
            )
        };
        Some(Record {
            workload: j.get("workload")?.as_str()?.to_string(),
            correct: j.get("correct")?.as_bool()?,
            attempted: j.get("attempted")?.as_f64()? as u64,
            failed: j.get("failed")?.as_f64()? as u64,
            metrics: list("metrics")?,
            observed: list("observed").unwrap_or_default(),
            detail: Vec::new(),
        })
    }

    /// The value of metric `name`, bounded or observed.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.observed)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn n(x: u64) -> Json {
    Json::Num(x as f64)
}

fn latency(r: &Reduced, kind: Kind) -> Option<Latency> {
    r.latency.get(kind.index()).copied().flatten()
}

/// [`OBSERVED`] of a measured workload: (name, value), 0 where the
/// workload sends no request of the kind.
pub fn observed(m: &Measured) -> [(&'static str, f64); 6] {
    let of =
        |kind: Kind, pick: fn(&Latency) -> u64| latency(&m.raw, kind).map_or(0.0, |l| us(pick(&l)));
    let values = [
        m.raw.rates.0,
        of(Kind::Establish, |l| l.p50_ns),
        of(Kind::Establish, |l| l.tail_ns),
        of(Kind::Release, |l| l.p50_ns),
        of(Kind::Fail, |l| l.p50_ns),
        m.failed_ratio(),
    ];
    let mut out = [("", 0.0); 6];
    for (slot, (&(name, _), value)) in out.iter_mut().zip(OBSERVED.iter().zip(values)) {
        *slot = (name, value);
    }
    out
}

/// The end-to-end record of a measured workload.
pub fn end_to_end(m: &Measured) -> Record {
    let mut setups = m.setups_s.clone();
    setups.sort_by(f64::total_cmp);
    let samples = |r: &Reduced, kind: Kind| {
        (
            "samples".to_string(),
            n(latency(r, kind).map_or(0, |l| l.samples as u64)),
        )
    };
    let norm_p50 = |kind: Kind| latency(&m.norm, kind).map_or(0.0, |l| us(l.p50_ns));
    let values: [(f64, Vec<(String, Json)>); 6] = [
        (
            median(&setups).unwrap_or(0.0),
            vec![("samples".into(), n(setups.len() as u64))],
        ),
        (
            m.norm.rates.0,
            vec![
                ("slice_min".into(), Json::Num(m.norm.rates.1)),
                ("slice_max".into(), Json::Num(m.norm.rates.2)),
                ("samples".into(), n(m.window.requests)),
            ],
        ),
        (
            norm_p50(Kind::Establish),
            vec![samples(&m.norm, Kind::Establish)],
        ),
        (
            norm_p50(Kind::Release),
            vec![samples(&m.norm, Kind::Release)],
        ),
        (
            1.0 - m.failed_ratio(),
            vec![
                ("refused".into(), n(m.window.refused())),
                ("samples".into(), n(m.window.requests)),
            ],
        ),
        (m.peak_rss_mb, Vec::new()),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, notes))| Metric {
            notes,
            ..Metric::new(name, value, unit)
        })
        .collect();
    let est = latency(&m.raw, Kind::Establish);
    let observed_notes: [Vec<(String, Json)>; 6] = [
        vec![
            ("slice_min".into(), Json::Num(m.raw.rates.1)),
            ("slice_max".into(), Json::Num(m.raw.rates.2)),
            ("samples".into(), n(m.window.requests)),
        ],
        vec![samples(&m.raw, Kind::Establish)],
        vec![
            samples(&m.raw, Kind::Establish),
            // 0.99 whenever ten samples lie beyond it; lower on --quick
            // runs, which say so here.
            (
                "percentile".into(),
                Json::Num(est.map_or(0.0, |l| l.tail_q)),
            ),
        ],
        vec![samples(&m.raw, Kind::Release)],
        vec![samples(&m.raw, Kind::Fail)],
        vec![
            ("refused".into(), n(m.window.refused())),
            ("samples".into(), n(m.window.requests)),
        ],
    ];
    let observed = OBSERVED
        .iter()
        .zip(observed(m))
        .zip(observed_notes)
        .map(|((&(name, unit), (_, value)), notes)| Metric {
            notes,
            ..Metric::new(name, value, unit)
        })
        .collect();
    Record {
        workload: m.spec.name.to_string(),
        correct: m.correct(),
        attempted: m.window.requests,
        failed: m.window.unexpected(),
        metrics,
        observed,
        detail: detail(m),
    }
}

/// Checks, counts and identifiers of a measured workload.
pub fn detail(m: &Measured) -> Vec<(String, Json)> {
    let w = &m.window;
    vec![
        (
            "checks".into(),
            Json::obj(m.checks().iter().map(|&(k, ok)| (k, Json::Bool(ok)))),
        ),
        (
            "counts".into(),
            Json::obj([
                ("requests", n(w.requests)),
                ("admitted", n(w.admitted)),
                ("rejected", n(w.rejected)),
                ("released", n(w.released)),
                ("stale_releases", n(w.stale_releases)),
                ("faults", n(w.faults)),
                ("dropped", n(w.dropped)),
                ("repairs", n(w.repairs)),
                ("busy", n(w.busy)),
                ("unexpected", n(w.unexpected())),
            ]),
        ),
        ("window_s".into(), Json::Num(m.window_s)),
        ("steps".into(), n(m.steps)),
        ("cut_short".into(), Json::Bool(m.cut_short)),
        ("live_connections".into(), n(m.spec.p as u64)),
        ("clients".into(), n(m.spec.clients as u64)),
        ("digest".into(), Json::str(format!("{:016x}", m.digest))),
        ("host_speed_factor".into(), Json::Num(m.host_speed_factor)),
    ]
}

/// One row per workload, one column per metric.
pub fn table(records: &[Record], quick: bool) -> String {
    let mut out = String::new();
    let Some(first) = records.first() else {
        return out;
    };
    if quick {
        out.push_str("QUICK RUN: smoke-sized, numbers mean nothing and are never recorded\n");
    }
    let wide = first.metrics.len() > 12;
    if wide {
        // Per-layer: too many columns; one metric per line instead.
        let _ = write!(out, "{:<42}{:>8}", "metric", "unit");
        for r in records {
            let _ = write!(out, "{:>14}", r.workload);
        }
        out.push('\n');
        for (i, m) in first.metrics.iter().enumerate() {
            let _ = write!(out, "{:<42}{:>8}", m.name, m.unit);
            for r in records {
                let v = r.metrics.get(i).map_or(0.0, |m| m.value);
                let _ = write!(out, "{:>14}", short(v));
            }
            out.push('\n');
        }
    } else {
        // One row per workload: the bounded metrics, then the observed ones.
        let lists: [fn(&Record) -> &[Metric]; 2] = [|r| &r.metrics, |r| &r.observed];
        for list in lists.into_iter().filter(|list| !list(first).is_empty()) {
            let _ = write!(out, "{:<12}", "workload");
            for m in list(first) {
                let _ = write!(out, "{:>27}", format!("{} [{}]", m.name, m.unit));
            }
            let _ = writeln!(out, "{:>10}{:>10}", "samples", "correct");
            for r in records {
                let _ = write!(out, "{:<12}", r.workload);
                for m in list(r) {
                    let _ = write!(out, "{:>27}", short(m.value));
                }
                let _ = writeln!(out, "{:>10}{:>10}", r.attempted, r.correct);
            }
        }
    }
    out
}

fn short(v: f64) -> String {
    match v.abs() {
        0.0 => "0".into(),
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.2}"),
        a if a >= 0.1 => format!("{v:.4}"),
        _ => format!("{v:.6}"),
    }
}

// ---------------------------------------------------------------- compare --

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when higher is better.
    pub higher: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Reads the end-to-end bounds out of `BENCHMARK.json`.
///
/// # Errors
///
/// Unreadable or malformed file.
pub fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".to_string())
}

/// Reads every `run-NN.json` of a `--repeat --out` directory.
///
/// # Errors
///
/// Unreadable directory or malformed file.
pub fn read_runs(dir: &Path) -> Result<Vec<Vec<Record>>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            // `--out` also receives `<workload>.trace.json` span files.
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("run-") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Json::parse(&text)?
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{}: no workloads list", p.display()))?
                .iter()
                .map(|w| Record::from_json(w).ok_or_else(|| format!("{}: bad record", p.display())))
                .collect()
        })
        .collect()
}

/// How side B of a comparison reads against side A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better by more than the spread of A's own runs.
    Better,
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's own runs spread wider than the bound, so nothing can be said.
    Unresolved,
}

/// Judges one metric of one workload. `a` and `b` are the per-run values.
/// Returns ([q1, median, q3] of A, of B, A's spread as a share of its
/// median, verdict); `None` with fewer than two runs on a side.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> Option<([f64; 3], [f64; 3], f64, Verdict)> {
    let (qa, qb) = (quartiles(a)?, quartiles(b)?);
    let spread = if qa[1] == 0.0 {
        0.0
    } else {
        (qa[2] - qa[0]) / qa[1].abs()
    };
    // Signed so that positive means B is worse.
    let worse_by = if qa[1] == 0.0 {
        0.0
    } else if bound.higher {
        (qa[1] - qb[1]) / qa[1].abs()
    } else {
        (qb[1] - qa[1]) / qa[1].abs()
    };
    let all_better = b
        .iter()
        .all(|&y| a.iter().all(|&x| if bound.higher { y > x } else { y < x }));
    let verdict = if spread > bound.bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if -worse_by > spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    Some((qa, qb, spread, verdict))
}

/// The issue's bound on the share of requests refused: absolute.
pub const REFUSED_MORE: f64 = 0.002;

/// Whether side B refuses more than the issue allows. Run i of both sides
/// used the same seed — on the single-client workloads the same op stream
/// bit for bit — so `served_ratio` is compared pair by pair, and the
/// median pair may lose at most [`REFUSED_MORE`] of its requests.
/// (`BENCHMARK.json` cannot say this: its bounds are relative and have to
/// cover the spread across seeds, which is wider.)
pub fn refuses_more(a: &[f64], b: &[f64]) -> bool {
    let mut lost: Vec<f64> = a.iter().zip(b).map(|(a, b)| a - b).collect();
    lost.sort_by(f64::total_cmp);
    median(&lost).is_some_and(|m| m > REFUSED_MORE)
}

/// The issue's ±10 % on the timings as the clock read them. `--compare`
/// prints these rows under the bounded ones. They read *unresolved*
/// whenever the host moved by more than that between the runs, so they
/// never decide the exit status.
fn issue_bounds() -> Vec<Bound> {
    OBSERVED
        .iter()
        .filter(|(_, unit)| *unit != "ratio")
        .map(|&(name, unit)| Bound {
            name: name.into(),
            higher: unit == "1/s",
            bound: 0.10,
        })
        .collect()
}

/// Compares two run directories metric by metric. Returns the printed
/// table and whether any row of a metric `BENCHMARK.json` bounds is worse
/// or unresolved.
///
/// # Errors
///
/// Unreadable inputs.
pub fn compare(a_dir: &Path, b_dir: &Path, bounds: &[Bound]) -> Result<(String, bool), String> {
    let (a, b) = (read_runs(a_dir)?, read_runs(b_dir)?);
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "A = {} ({} runs)   B = {} ({} runs)",
        a_dir.display(),
        a.len(),
        b_dir.display(),
        b.len()
    );
    let _ = writeln!(
        out,
        "{:<12}{:<22}{:>38}{:>38}{:>10}{:>8}  verdict",
        "workload", "metric", "A q1 / median / q3", "B q1 / median / q3", "A spread", "bound"
    );
    let workloads: Vec<String> = a
        .first()
        .map(|run| run.iter().map(|r| r.workload.clone()).collect())
        .unwrap_or_default();
    for w in &workloads {
        let series = |runs: &[Vec<Record>], metric: &str| -> Vec<f64> {
            runs.iter()
                .filter_map(|run| run.iter().find(|r| &r.workload == w)?.value(metric))
                .collect()
        };
        let raw = issue_bounds();
        let rows = bounds
            .iter()
            .map(|b| (b, true))
            .chain(raw.iter().map(|b| (b, false)));
        for (bound, counted) in rows {
            let (va, vb) = (series(&a, &bound.name), series(&b, &bound.name));
            if !counted && va.iter().all(|&v| v == 0.0) {
                continue;
            }
            let Some((qa, qb, spread, verdict)) = judge(&va, &vb, bound) else {
                let _ = writeln!(out, "{w:<12}{:<22}  (fewer than two runs)", bound.name);
                bad = true;
                continue;
            };
            let refuses_more = bound.name == "served_ratio" && refuses_more(&va, &vb);
            let verdict = if refuses_more {
                Verdict::Worse
            } else {
                verdict
            };
            bad |= counted && matches!(verdict, Verdict::Worse | Verdict::Unresolved);
            let q = |q: [f64; 3]| format!("{} / {} / {}", short(q[0]), short(q[1]), short(q[2]));
            let _ = writeln!(
                out,
                "{w:<12}{:<22}{:>38}{:>38}{:>9.2}%{:>7.1}%  {}{}",
                bound.name,
                q(qa),
                q(qb),
                spread * 100.0,
                bound.bound * 100.0,
                match verdict {
                    Verdict::Better => "better",
                    Verdict::WithinBound => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "UNRESOLVED",
                },
                if refuses_more {
                    " (same-seed pairs lose more than 0.002 of their requests)"
                } else if counted {
                    ""
                } else {
                    " (as the clock read it; the issue's bound; not counted)"
                }
            );
        }
    }
    Ok((out, bad))
}
