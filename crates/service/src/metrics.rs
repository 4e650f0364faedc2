//! Request metrics: per-operation latency histograms, admit/reject
//! counters, and throughput. An operation is a row of
//! [`drqos_core::wire::VERBS`]: its slot is the row's index, its report
//! label the row's name in lowercase, and the admit/reject split belongs
//! to the `ESTABLISH` row.
//!
//! The histogram is a fixed array of power-of-two nanosecond buckets, so
//! recording is allocation-free and O(1); percentiles are read as bucket
//! upper bounds, which is exact enough for tail reporting (within 2× of
//! the true value, by construction). Everything is hand-rolled — the
//! offline build has no external crates.

use drqos_core::wire::{Verb, VERBS};
use std::time::{Duration, Instant};

/// Number of power-of-two buckets: covers 1 ns to ~584 years.
const BUCKETS: usize = 64;

/// A started per-operation latency clock.
///
/// All of the daemon's wall-clock access lives in this module (the
/// `raw-clock` lint pins it here): the engine starts an `OpTimer` per
/// command and hands the elapsed `Duration` back to [`Metrics::record`],
/// so command handling itself stays clock-free and deterministic.
#[derive(Debug, Clone, Copy)]
pub struct OpTimer(Instant);

impl OpTimer {
    /// Starts timing now.
    pub fn start() -> Self {
        Self(Instant::now()) // lint:allow(determinism-taint): latency histogram feeds STATS only, masked in goldens
    }

    /// Time elapsed since [`OpTimer::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// A log₂-bucketed latency histogram.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        // Bucket i holds samples in [2^i, 2^(i+1)); 0 ns lands in bucket 0.
        let idx = (63 - (nanos | 1).leading_zeros()) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket upper bound in
    /// nanoseconds, or 0 with no samples.
    pub(crate) fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i covers [2^i, 2^(i+1)); the last bucket's upper
                // bound does not fit in a u64, so it saturates.
                return if i + 1 >= 64 {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                };
            }
        }
        u64::MAX
    }

    /// The `q`-quantile in whole microseconds (minimum 1 µs once any
    /// sample exists, so reports never show a zero tail).
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.quantile_nanos(q) / 1_000).max(1)
        }
    }

    /// Merges another histogram into this one.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }
}

/// The slot of a line that failed to parse: one past the rows of
/// [`VERBS`], which have a slot each.
pub(crate) const INVALID: usize = VERBS.len();

/// Per-operation counters and latency distribution.
#[derive(Debug, Clone, Default)]
struct OpStats {
    /// Requests handled.
    count: u64,
    /// Requests answered with `ERR`.
    errors: u64,
    /// Handling-latency histogram.
    latency: Histogram,
}

/// The daemon's request-metrics layer.
#[derive(Debug, Clone)]
pub struct Metrics {
    started: Instant,
    ops: [OpStats; INVALID + 1],
    /// `ESTABLISH` requests admitted.
    pub admitted: u64,
    /// `ESTABLISH` requests rejected (QoS or admission errors).
    pub rejected: u64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A fresh metrics layer; throughput is measured from this instant.
    pub fn new() -> Self {
        Self {
            started: Instant::now(), // lint:allow(determinism-taint): uptime feeds STATS throughput only, masked in goldens
            ops: std::array::from_fn(|_| OpStats::default()),
            admitted: 0,
            rejected: 0,
        }
    }

    /// Records one handled request in slot `row`: the request's row
    /// index in [`VERBS`], or `INVALID`, one past the last (as is anything
    /// past the end).
    pub fn record(&mut self, row: usize, latency: Duration, errored: bool) {
        let Some(stats) = self.ops.get_mut(row.min(INVALID)) else {
            return;
        };
        stats.count += 1;
        stats.errors += u64::from(errored);
        stats.latency.record(latency);
        if VERBS.get(row).is_some_and(|v| v.name == "ESTABLISH") {
            if errored {
                self.rejected += 1;
            } else {
                self.admitted += 1;
            }
        }
    }

    /// Total requests handled across all operations.
    pub(crate) fn total_ops(&self) -> u64 {
        self.ops.iter().map(|s| s.count).sum()
    }

    /// Total `ERR` responses across all operations.
    pub(crate) fn total_errors(&self) -> u64 {
        self.ops.iter().map(|s| s.errors).sum()
    }

    /// Latency histogram merged over every operation.
    pub(crate) fn merged_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for s in &self.ops {
            h.merge(&s.latency);
        }
        h
    }

    /// Seconds since the metrics layer was created.
    pub(crate) fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Requests handled per wall-clock second since creation.
    pub(crate) fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed_s();
        if secs > 0.0 {
            self.total_ops() as f64 / secs
        } else {
            0.0
        }
    }

    /// Serializes the metrics as a JSON object (hand-rolled, matching the
    /// `runtime.json` convention of `drqos-bench`).
    pub fn to_json(&self, name: &str) -> String {
        let merged = self.merged_latency();
        let mut per_op = Vec::new();
        for (row, s) in self.ops.iter().enumerate() {
            if s.count == 0 {
                continue;
            }
            let label = VERBS.get(row).map_or("invalid".to_string(), Verb::label);
            per_op.push(format!(
                concat!(
                    "{{\"op\":\"{}\",\"count\":{},\"errors\":{},",
                    "\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}"
                ),
                label,
                s.count,
                s.errors,
                s.latency.quantile_us(0.50),
                s.latency.quantile_us(0.95),
                s.latency.quantile_us(0.99),
            ));
        }
        format!(
            concat!(
                "{{\"name\":\"{}\",\"ops\":{},\"errors\":{},",
                "\"admitted\":{},\"rejected\":{},",
                "\"wall_s\":{:.6},\"ops_per_sec\":{:.1},",
                "\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},",
                "\"per_op\":[{}]}}"
            ),
            name.replace(['"', '\\'], "_"),
            self.total_ops(),
            self.total_errors(),
            self.admitted,
            self.rejected,
            self.elapsed_s(),
            self.ops_per_sec(),
            merged.quantile_us(0.50),
            merged.quantile_us(0.95),
            merged.quantile_us(0.99),
            per_op.join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(Duration::from_nanos(100));
        }
        h.record(Duration::from_micros(100));
        assert_eq!(h.count(), 100);
        // p50 sits in the 100 ns bucket [64, 128) → upper bound 128.
        assert_eq!(h.quantile_nanos(0.50), 128);
        // p99 lands on the 99th of 100 samples — still 100 ns.
        assert_eq!(h.quantile_nanos(0.99), 128);
        // p100 reaches the single 100 µs outlier.
        assert!(h.quantile_nanos(1.0) > 100_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile_nanos(0.5), 0);
        assert_eq!(h.quantile_us(0.99), 0);
    }

    #[test]
    fn quantile_us_floors_at_one_microsecond() {
        let mut h = Histogram::new();
        h.record(Duration::from_nanos(10));
        assert_eq!(h.quantile_us(0.5), 1);
    }

    #[test]
    fn bucket_63_saturates_to_u64_max() {
        // 2^63 ns lands in the last bucket [2^63, 2^64); its upper bound
        // does not fit in a u64 and must saturate, not report 2^63 (the
        // *lower* bound) as the quantile.
        let mut h = Histogram::new();
        h.record(Duration::from_nanos(1u64 << 63));
        assert_eq!(h.quantile_nanos(0.5), u64::MAX);
        assert_eq!(h.quantile_nanos(1.0), u64::MAX);
        // A >u64-ns duration clamps on record and stays saturated.
        h.record(Duration::from_secs(u64::MAX));
        assert_eq!(h.quantile_nanos(1.0), u64::MAX);
    }

    #[test]
    fn zero_nanosecond_sample_lands_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        // Bucket 0 is [1, 2) by the (nanos | 1) clamp → upper bound 2.
        assert_eq!(h.quantile_nanos(0.5), 2);
        assert_eq!(h.quantile_us(0.5), 1);
    }

    #[test]
    fn merge_then_quantile_spans_both_sources() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for _ in 0..9 {
            a.record(Duration::from_nanos(100));
        }
        b.record(Duration::from_nanos(1u64 << 63));
        a.merge(&b);
        assert_eq!(a.count(), 10);
        // Median still in the 100 ns bucket; the max reaches the
        // saturated last bucket from the merged-in histogram.
        assert_eq!(a.quantile_nanos(0.5), 128);
        assert_eq!(a.quantile_nanos(1.0), u64::MAX);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Duration::from_nanos(100));
        b.record(Duration::from_nanos(100));
        b.record(Duration::from_micros(10));
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }

    fn row(name: &str) -> usize {
        VERBS.iter().position(|v| v.name == name).unwrap()
    }

    #[test]
    fn metrics_track_admission_split() {
        let mut m = Metrics::new();
        m.record(row("ESTABLISH"), Duration::from_micros(3), false);
        m.record(row("ESTABLISH"), Duration::from_micros(3), true);
        m.record(row("RELEASE"), Duration::from_micros(1), false);
        m.record(INVALID, Duration::from_nanos(200), true);
        m.record(usize::MAX, Duration::from_nanos(200), true);
        assert_eq!(m.admitted, 1);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.total_ops(), 5);
        assert_eq!(m.total_errors(), 3);
        assert_eq!(m.ops[row("ESTABLISH")].count, 2);
        assert_eq!(m.ops[row("RELEASE")].errors, 0);
        assert_eq!(m.ops[INVALID].count, 2, "one past the end is the last slot");
        assert_eq!(m.ops.len(), INVALID + 1);
    }

    /// The dump's labels and their order are the table's: what
    /// `service_runtime.json` printed when the list was an enum.
    #[test]
    fn report_labels_are_the_rows_in_table_order() {
        let mut m = Metrics::new();
        for slot in 0..=INVALID {
            m.record(slot, Duration::from_micros(1), false);
        }
        let json = m.to_json("drqosd");
        let labels: Vec<&str> = json
            .split("{\"op\":\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert_eq!(
            labels,
            [
                "establish",
                "release",
                "fail_link",
                "repair_link",
                "fail_node",
                "fail_srlg",
                "repair_srlg",
                "snapshot",
                "stats",
                "shutdown",
                "invalid"
            ]
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut m = Metrics::new();
        m.record(row("ESTABLISH"), Duration::from_micros(5), false);
        let json = m.to_json("drqosd");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"name\":\"drqosd\""));
        assert!(json.contains("\"admitted\":1"));
        assert!(json.contains("\"op\":\"establish\""));
        // Unused ops are omitted from per_op.
        assert!(!json.contains("\"op\":\"fail_node\""));
    }
}
