//! The paired reducer behind the `pairs` binary: two `bench --out`
//! directories, side A (the parent) and side B (the change), paired run
//! by run on the seed each run file records.
//!
//! A same-seed pair runs the same op streams on both sides, so the
//! workload's own seed-to-seed differences cancel in the pair's
//! log-ratio `ln(B / A)`. For every workload and every end-to-end row
//! `BENCHMARK.json` bounds, [`reduce`] reports over the pairs the
//! log-ratio's median and mean, the exact sign-test 95 % interval on its
//! median, and how many pairs side B won.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// The benchmark declaration the rows come from, as built.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// A parsed JSON value: just enough of JSON for the run files.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, its keys in file order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Malformed JSON, or anything but white space after the value.
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.parse_value()?;
        p.space();
        match p.at == p.bytes.len() {
            true => Ok(value),
            false => Err(format!("trailing input at byte {}", p.at)),
        }
    }

    /// The member `key` of an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub(crate) fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.space();
        match self.bytes.get(self.at) {
            Some(&b) if b == byte => {
                self.at += 1;
                Ok(())
            }
            _ => Err(format!("expected '{}' at byte {}", byte as char, self.at)),
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.space();
        let rest = self.bytes.get(self.at..).unwrap_or_default();
        for (word, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(value);
            }
        }
        match rest.first() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                while !self.closes(b']', items.is_empty())? {
                    items.push(self.parse_value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                while !self.closes(b'}', members.is_empty())? {
                    self.space();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.push((key, self.parse_value()?));
                }
                Ok(Json::Obj(members))
            }
            _ => {
                let number = |b: &u8| b.is_ascii_digit() || b"+-.eE".contains(b);
                let len = rest.iter().take_while(|b| number(b)).count();
                let digits = rest.get(..len).unwrap_or_default();
                let text = std::str::from_utf8(digits).unwrap_or_default();
                self.at += len;
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad value at byte {}", self.at - len))
            }
        }
    }

    /// Past the separator before the next element of an array or object
    /// (`first`: none before it), or past its `close`: `true` at the
    /// close.
    fn closes(&mut self, close: u8, first: bool) -> Result<bool, String> {
        self.space();
        match self.bytes.get(self.at) {
            Some(&b) if b == close => {
                self.at += 1;
                Ok(true)
            }
            Some(b',') if !first => {
                self.at += 1;
                Ok(false)
            }
            Some(_) if first => Ok(false),
            _ => Err(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.at
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.at) else {
                return Err("unterminated string".into());
            };
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.at) else {
                        return Err("unterminated escape".into());
                    };
                    self.at += 1;
                    let plain = match esc {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        b'b' => 8,
                        b'f' => 12,
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4).unwrap_or_default();
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let c = code.and_then(char::from_u32).unwrap_or('\u{FFFD}');
                            self.at += 4;
                            out.extend_from_slice(c.to_string().as_bytes());
                            continue;
                        }
                        other => other,
                    };
                    out.push(plain);
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

/// One bounded end-to-end row of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The metric's name in a run record.
    pub name: String,
    /// Whether a higher value is better.
    pub higher: bool,
}

/// The end-to-end rows `BENCHMARK.json` bounds, in its order.
pub fn bounded_rows() -> Vec<Row> {
    let rows = Json::parse(BENCHMARK_JSON).ok();
    let rows = rows.as_ref().and_then(|j| j.get("end_to_end")?.as_arr());
    rows.unwrap_or_default()
        .iter()
        .filter_map(|r| {
            Some(Row {
                name: r.get("name")?.as_str()?.to_string(),
                higher: r.get("better")?.as_str()? == "higher",
            })
        })
        .collect()
}

/// Per workload, the value of each metric of one run.
pub type Workloads = BTreeMap<String, BTreeMap<String, f64>>;

/// One side's runs, by seed.
pub type Runs = BTreeMap<u64, Workloads>;

/// Reads one `run-NN.json`: `{"seed": …, "workloads": [{"workload": …,
/// "metrics": {name: {"value": …}}}]}`.
///
/// # Errors
///
/// Malformed JSON, or no seed or workloads list.
pub(crate) fn parse_run(text: &str) -> Result<(u64, Workloads), String> {
    let doc = Json::parse(text)?;
    let seed = doc.get("seed").and_then(Json::as_f64).ok_or("no seed")? as u64;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no workloads")?;
    let mut by_workload = BTreeMap::new();
    for w in workloads {
        let name = w
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("no workload name")?;
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(members)) = w.get("metrics") {
            for (metric, m) in members {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    metrics.insert(metric.clone(), v);
                }
            }
        }
        by_workload.insert(name.to_string(), metrics);
    }
    Ok((seed, by_workload))
}

/// Every `run-*.json` of `dir`, by seed (a later file of the same seed
/// replaces an earlier one).
///
/// # Errors
///
/// An unreadable directory or file, or a malformed run.
pub fn read_dir(dir: &Path) -> Result<Runs, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            name.starts_with("run-") && name.ends_with(".json")
        })
        .collect();
    paths.sort();
    let mut runs = BTreeMap::new();
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        let (seed, run) = parse_run(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        runs.insert(seed, run);
    }
    Ok(runs)
}

/// What the pairs of one workload and row say.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Paired {
    /// Pairs with a positive value on both sides.
    pub(crate) n: usize,
    /// Median and mean of `ln(B / A)`.
    pub(crate) median: f64,
    /// See `median`.
    pub(crate) mean: f64,
    /// The exact sign-test 95 % interval on the median log-ratio; `None`
    /// with fewer than six pairs, where none exists.
    pub(crate) interval: Option<(f64, f64)>,
    /// Pairs in which B is strictly better.
    pub(crate) won: usize,
}

/// The largest `k` for which `[x(k), x(n + 1 - k)]`, order statistics of
/// `n` pairs counted from 1, covers the median with at least 95 %: the
/// sign test's two tails, `2 P(Bin(n, 1/2) < k)`, stay within 5 %.
pub(crate) fn sign_test_rank(n: usize) -> Option<usize> {
    let (mut tail, mut term, mut k) = (0.0, 0.5f64.powi(n as i32), None);
    for i in 0..n / 2 {
        tail += term;
        if 2.0 * tail > 0.05 {
            break;
        }
        k = Some(i + 1);
        // P(X = i + 1) from P(X = i).
        term *= (n - i) as f64 / (i + 1) as f64;
    }
    k
}

/// Reduces same-seed pairs `(a, b)` of one row.
pub(crate) fn pair_up(pairs: &[(f64, f64)], higher: bool) -> Option<Paired> {
    let mut ratios: Vec<f64> = pairs
        .iter()
        .filter(|&&(a, b)| a > 0.0 && b > 0.0)
        .map(|&(a, b)| (b / a).ln())
        .collect();
    let n = ratios.len();
    if n == 0 {
        return None;
    }
    ratios.sort_by(f64::total_cmp);
    let median = match n % 2 {
        1 => ratios[n / 2],
        _ => (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0,
    };
    let won = ratios
        .iter()
        .filter(|&&r| if higher { r > 0.0 } else { r < 0.0 })
        .count();
    Some(Paired {
        n,
        median,
        mean: ratios.iter().sum::<f64>() / n as f64,
        interval: sign_test_rank(n).map(|k| (ratios[k - 1], ratios[n - k])),
        won,
    })
}

/// The table `pairs A B` prints: one line per workload and bounded row,
/// log-ratios in percent (`100 ln(B / A)`), and whether the interval
/// leaves zero out on B's better or worse side.
pub fn reduce(a: &Runs, b: &Runs, rows: &[Row]) -> String {
    let seeds: Vec<u64> = a.keys().filter(|s| b.contains_key(s)).copied().collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} same-seed pairs; log-ratios are 100 ln(B / A)",
        seeds.len()
    );
    let _ = writeln!(
        out,
        "{:<12}{:<22}{:>4}{:>9}{:>9}{:>20}{:>7}  B",
        "workload", "metric", "n", "median", "mean", "sign-test 95 %", "won"
    );
    let workloads: BTreeSet<&String> = seeds.iter().flat_map(|s| a[s].keys()).collect();
    for w in workloads {
        for row in rows {
            let value = |side: &Runs, s| side.get(s)?.get(w)?.get(&row.name).copied();
            let pairs: Vec<(f64, f64)> = seeds
                .iter()
                .filter_map(|s| Some((value(a, s)?, value(b, s)?)))
                .collect();
            let Some(p) = pair_up(&pairs, row.higher) else {
                continue;
            };
            let pct = |x: f64| format!("{:+.2}", 100.0 * x);
            let (interval, verdict) = match p.interval {
                Some((lo, hi)) => {
                    let better = if row.higher { lo > 0.0 } else { hi < 0.0 };
                    let worse = if row.higher { hi < 0.0 } else { lo > 0.0 };
                    let verdict = match (better, worse) {
                        (true, _) => "better",
                        (_, true) => "worse",
                        _ => "-",
                    };
                    (format!("[{}, {}]", pct(lo), pct(hi)), verdict)
                }
                None => ("(n < 6)".to_string(), "-"),
            };
            let _ = writeln!(
                out,
                "{w:<12}{:<22}{:>4}{:>9}{:>9}{:>20}{:>4}/{:<2} {verdict}",
                row.name,
                p.n,
                pct(p.median),
                pct(p.mean),
                interval,
                p.won,
                p.n
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, values: &[(&str, f64)]) -> String {
        let metrics: Vec<String> = values
            .iter()
            .map(|(m, v)| format!("\"{m}\":{{\"value\":{v},\"unit\":\"us\"}}"))
            .collect();
        format!(
            "{{\"seed\":{seed},\"git\":\"x\\\"y\",\"workloads\":[{{\"workload\":\"w\",\
             \"correct\":true,\"metrics\":{{{}}}}}]}}",
            metrics.join(",")
        )
    }

    #[test]
    fn a_run_file_parses_to_its_seed_and_values() {
        let (seed, by) = parse_run(&run(9, &[("a", 1.5), ("b", -2e-3)])).unwrap();
        assert_eq!(seed, 9);
        assert_eq!(by["w"]["a"], 1.5);
        assert_eq!(by["w"]["b"], -0.002);
        assert!(parse_run("{\"seed\":1}").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert_eq!(Json::parse(" [ ] ").unwrap(), Json::Arr(Vec::new()),);
        assert_eq!(
            Json::parse("\"\\u00e9\\n\"").unwrap(),
            Json::Str("é\n".into())
        );
    }

    #[test]
    fn the_bounded_rows_are_benchmark_json_s() {
        let rows = bounded_rows();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"norm.establish_p50_us") && names.contains(&"served_ratio"));
        let higher = |n: &str| rows.iter().find(|r| r.name == n).unwrap().higher;
        assert!(higher("norm.ops_per_s") && !higher("peak_rss_mb"));
    }

    #[test]
    fn sign_test_ranks_match_the_binomial_tables() {
        // n = 6: 2 / 64 = 3.1 %; n = 10: 2 * 11 / 1024 = 2.1 %, while
        // k = 3 would be 2 * 56 / 1024 = 10.9 %; n = 20: k = 6 at 4.1 %.
        assert_eq!(sign_test_rank(5), None);
        assert_eq!(sign_test_rank(6), Some(1));
        assert_eq!(sign_test_rank(10), Some(2));
        assert_eq!(sign_test_rank(20), Some(6));
        assert_eq!(sign_test_rank(30), Some(10));
    }

    #[test]
    fn ten_pairs_reduce_to_their_median_mean_interval_and_wins() {
        // B at 0.9 A in seven pairs, at 1.1 A in three: lower is better.
        let pairs: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0, if i < 7 { 90.0 } else { 110.0 }))
            .collect();
        let p = pair_up(&pairs, false).unwrap();
        let (down, up) = ((0.9f64).ln(), (1.1f64).ln());
        assert_eq!((p.n, p.won), (10, 7));
        assert_eq!(p.median, down);
        assert!((p.mean - (7.0 * down + 3.0 * up) / 10.0).abs() < 1e-12);
        // Order statistics 2 and 9 of the sorted ratios.
        assert_eq!(p.interval, Some((down, up)));
        // The same pairs of a higher-is-better row: B won three.
        assert_eq!(pair_up(&pairs, true).unwrap().won, 3);
        // A pair with a zero on either side says nothing.
        assert_eq!(pair_up(&[(0.0, 1.0), (1.0, 0.0)], false), None);
    }

    #[test]
    fn runs_pair_by_seed_and_an_unmatched_seed_is_left_out() {
        let side = |seeds: &[(u64, f64)]| {
            seeds
                .iter()
                .map(|&(s, v)| parse_run(&run(s, &[("norm.establish_p50_us", v)])).unwrap())
                .collect::<BTreeMap<_, _>>()
        };
        let a = side(&[
            (7, 10.0),
            (8, 10.0),
            (9, 10.0),
            (10, 10.0),
            (11, 10.0),
            (12, 10.0),
            (99, 1.0),
        ]);
        let b = side(&[
            (7, 9.0),
            (8, 9.0),
            (9, 9.0),
            (10, 9.0),
            (11, 9.0),
            (12, 9.0),
            (100, 1.0),
        ]);
        let rows = [Row {
            name: "norm.establish_p50_us".into(),
            higher: false,
        }];
        let table = reduce(&a, &b, &rows);
        assert!(table.starts_with("6 same-seed pairs"), "{table}");
        let line = table.lines().nth(2).unwrap();
        assert!(
            line.contains("-10.54") && line.contains("6/6") && line.ends_with("better"),
            "{line}"
        );
    }
}
