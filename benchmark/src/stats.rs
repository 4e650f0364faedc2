//! The benchmark's estimators. Every sample is one real observation:
//! nothing here amortises a batch into per-request figures or repeats a
//! sample to fill a percentile.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The 1-based nearest rank of quantile `q` among `n` samples:
/// `ceil(q·n)`, at least 1. (The epsilon keeps `0.99 · 1000` from
/// rounding up to rank 991.)
pub fn rank_of(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil().max(1.0) as usize).min(n.max(1))
}

/// Nearest-rank quantile of ascending `sorted`: the smallest sample with
/// at least `ceil(q·n)` samples at or below it. Always an observed
/// sample, never an interpolation. `None` when empty.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    sorted
        .get(rank_of(sorted.len(), q).checked_sub(1)?)
        .copied()
}

/// The rank reported as the tail of `n` samples: that of `target`, or
/// the highest rank that still leaves [`TAIL_BEYOND`] samples beyond it
/// (never below the median's: with fewer than 20 samples the rule cannot
/// hold and the median stands in, under its real name).
pub fn tail_rank(n: usize, target: f64) -> usize {
    rank_of(n, target)
        .min(n.saturating_sub(TAIL_BEYOND))
        .max(rank_of(n, 0.5))
}

/// A latency series reduced for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples observed.
    pub samples: usize,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// The quantile actually reported as the tail (0.99 when supported).
    pub tail_q: f64,
    /// Value at `tail_q`, nanoseconds.
    pub tail_ns: u64,
    /// Arithmetic mean, nanoseconds (used only where layers must add up).
    pub mean_ns: f64,
}

impl Latency {
    /// Reduces raw nanosecond samples (sorted in place). `None` when empty.
    pub fn of(samples: &mut [u64]) -> Option<Self> {
        samples.sort_unstable();
        let rank = tail_rank(samples.len(), 0.99);
        Some(Self {
            samples: samples.len(),
            p50_ns: nearest_rank(samples, 0.5)?,
            tail_q: rank as f64 / samples.len() as f64,
            tail_ns: *samples.get(rank.checked_sub(1)?)?,
            mean_ns: samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64,
        })
    }
}

/// Throughput of a window as (median, min, max) of its slices' rates.
/// A slice is (start ns, end ns, factor its span is divided by — 1 for
/// the rate as the clock read it); a completion is (at ns, requests it
/// carried). A slice's rate is its requests per second of its own span, so
/// a stall that hits one slice moves the minimum, not the median. `None`
/// without slices.
pub fn slice_rates(
    slices: &[(u64, u64, f64)],
    completions: &[(u64, u32)],
) -> Option<(f64, f64, f64)> {
    let mut rates: Vec<f64> = slices
        .iter()
        .map(|&(start, end, factor)| {
            let requests: u64 = completions
                .iter()
                .filter(|&&(at, _)| (start..=end).contains(&at))
                .map(|&(_, n)| u64::from(n))
                .sum();
            requests as f64 * 1e9 * factor / end.saturating_sub(start).max(1) as f64
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    Some((median(&rates)?, *rates.first()?, *rates.last()?))
}

/// Median of ascending `sorted` (mean of the middle two when even).
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => sorted.get(n / 2).copied(),
        _ => Some((sorted.get(n / 2 - 1)? + sorted.get(n / 2)?) / 2.0),
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// `--compare` and the acceptance driver agree digit for digit. `None`
/// with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (x.get(j - 1)? * (4.0 - delta) + x.get(j)? * delta) / 4.0;
    }
    Some(out)
}

/// FNV-1a over a reply transcript: cheap enough to run inside the timed
/// window, and a single flipped byte anywhere changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one command and its reply into the digest.
    pub fn push(&mut self, command: &str, reply: &str) {
        for part in [command, "\n", reply, "\n"] {
            for &b in part.as_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}
