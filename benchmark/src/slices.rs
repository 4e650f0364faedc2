//! The timed window cut into equal-op slices, and the host-speed reading
//! taken between them.
//!
//! Every latency and rate under the issue's names is reported as the
//! clock read it. The reading exists because of what the VM this
//! repository is grown on does: the fixed kernel below, timed every
//! quarter second, reads ~0.74 ms for 10–30 s, then ~0.95 ms for 10–30 s,
//! whatever the VM itself is doing. A window of a few seconds falls in one
//! state or the other, so the raw timings of one commit come in two
//! clusters a quarter apart, and no bound the acceptance driver admits (at
//! most 25 %, and ten runs must spread by less) can hold them. The
//! `norm.*` metrics are the same observations, each divided by the reading
//! around its own slice; they are what `BENCHMARK.json` bounds. README.md,
//! "Host speed", has the measurements and what the division assumes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Slices a timed window is cut into.
pub const SLICES: usize = 10;

/// About what [`reference_ns`] reads on the VM this repository is grown
/// on in its fast state. It only fixes the unit of the `norm.*` metrics:
/// on another machine they are scaled by a constant, the same for every
/// commit measured there.
pub const NOMINAL_NS: f64 = 740_000.0;

/// One pass of the kernel: ordered-map churn and a sort — pointer
/// chasing over ~100 KiB, the engine's kind of work. This file's own code
/// over `std` only, so it does not change when the repository's code does.
fn pass(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut keys = Vec::with_capacity(2048);
    for _ in 0..2048 {
        let k = next() % 4096;
        map.insert(k, k ^ seed);
        keys.push(k);
    }
    keys.sort_unstable();
    let mut acc = 0u64;
    for k in keys.iter().step_by(2) {
        acc = acc.wrapping_add(map.remove(k).unwrap_or(0));
    }
    acc.wrapping_add(map.range(1000..3000).map(|(_, v)| *v).sum::<u64>())
}

/// Nanoseconds the reference kernel takes right now: the fastest of five
/// four-pass bursts (about 4 ms in all). It runs on the calling client
/// thread between slices, while no request is in flight and the daemons
/// wait; the fastest burst counts, so a daemon thread that wakes in the
/// middle of one does not read as a slow host.
pub fn reference_ns() -> u64 {
    (0..5u64)
        .map(|i| {
            let t0 = Instant::now();
            for j in 0..4 {
                black_box(pass(black_box(i * 4 + j + 1)));
            }
            nanos(t0.elapsed())
        })
        .min()
        .unwrap_or(0)
}

/// Nanoseconds of `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One slice of a timed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// The slice's steps ran from here…
    pub start_ns: u64,
    /// …to here (ns since the window's origin).
    pub end_ns: u64,
    /// Mean of the kernel readings before and after the slice, over
    /// [`NOMINAL_NS`]: above 1 while the host is slow.
    pub host_speed_factor: f64,
}

/// Runs steps `0..steps` as [`SLICES`] equal slices, the kernel read
/// before, between and after them (outside every slice's span), stopping
/// early once `limit` has passed. `run` gets each slice's step range.
///
/// # Errors
///
/// Whatever `run` returns.
pub fn sliced(
    origin: Instant,
    steps: usize,
    limit: Duration,
    mut run: impl FnMut(Range<usize>) -> io::Result<()>,
) -> io::Result<Vec<Slice>> {
    let mut slices = Vec::with_capacity(SLICES);
    let mut before = reference_ns();
    for i in 0..SLICES {
        let start_ns = nanos(origin.elapsed());
        run(i * steps / SLICES..(i + 1) * steps / SLICES)?;
        let end_ns = nanos(origin.elapsed());
        let after = reference_ns();
        slices.push(Slice {
            start_ns,
            end_ns,
            host_speed_factor: (before + after) as f64 / 2.0 / NOMINAL_NS,
        });
        before = after;
        if origin.elapsed() > limit {
            break;
        }
    }
    Ok(slices)
}
