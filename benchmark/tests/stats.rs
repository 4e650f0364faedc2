//! The estimators, pinned: what a percentile is, when a tail may be
//! reported, how throughput is sliced, and that the quartiles agree with
//! Python's `statistics.quantiles(values, n=4)`.

use drqos_benchmark::report::{judge, refuses_more, Bound, Verdict};
use drqos_benchmark::stats::{
    median, nearest_rank, quartiles, rank_of, slice_rates, tail_rank, Digest, Latency, TAIL_BEYOND,
};

#[test]
fn nearest_rank_is_the_smallest_sample_covering_the_quantile() {
    let s: Vec<u64> = (1..=100).collect();
    assert_eq!(nearest_rank(&s, 0.5), Some(50));
    assert_eq!(nearest_rank(&s, 0.99), Some(99));
    assert_eq!(nearest_rank(&s, 1.0), Some(100));
    assert_eq!(nearest_rank(&s, 0.0), Some(1));
    assert_eq!(nearest_rank(&[7], 0.99), Some(7));
    assert_eq!(nearest_rank(&[], 0.5), None);
    // No interpolation: the answer is always a sample that was observed.
    assert_eq!(nearest_rank(&[10, 20], 0.5), Some(10));
    assert_eq!(nearest_rank(&[10, 20], 0.51), Some(20));
}

#[test]
fn a_tail_is_reported_only_with_ten_samples_beyond_it() {
    // 1000 samples: rank ceil(0.99·1000) = 990 leaves exactly 10 beyond.
    assert_eq!(rank_of(1000, 0.99), 990);
    assert_eq!(tail_rank(1000, 0.99), 990);
    assert_eq!(tail_rank(10_000, 0.99), 9_900);
    // Fewer samples cannot support p99: the highest rank that leaves ten
    // beyond it is reported instead — one rank up would break the rule.
    for n in [20usize, 50, 400, 640, 999] {
        let rank = tail_rank(n, 0.99);
        assert!(rank < rank_of(n, 0.99), "n = {n}");
        assert_eq!(n - rank, TAIL_BEYOND, "n = {n}");
    }
    // Too few samples for any tail: the median stands in.
    assert_eq!(tail_rank(12, 0.99), rank_of(12, 0.5));
}

#[test]
fn latency_reduces_every_sample_once() {
    let mut raw: Vec<u64> = (1..=2000).rev().collect();
    let l = Latency::of(&mut raw).unwrap();
    assert_eq!(l.samples, 2000);
    assert_eq!(l.p50_ns, 1000);
    assert_eq!(l.tail_q, 0.99);
    assert_eq!(l.tail_ns, 1980);
    assert!((l.mean_ns - 1000.5).abs() < 1e-9);
    assert!(Latency::of(&mut []).is_none());
    // A short series reports a lower percentile under its real name.
    let mut few: Vec<u64> = (1..=100).collect();
    let l = Latency::of(&mut few).unwrap();
    assert_eq!(l.tail_q, 0.9);
    assert_eq!(l.tail_ns, 90);
}

#[test]
fn throughput_is_the_median_slice_rate() {
    // Ten 10 µs slices of ten ops each; slice 3 stalls for 90 µs more.
    let mut t = 0u64;
    let mut slices = Vec::new();
    let mut completions = Vec::new();
    for i in 0..10 {
        let start = t;
        for _ in 0..10 {
            t += if i == 3 { 10_000 } else { 1_000 };
            completions.push((t, 1u32));
        }
        slices.push((start, t, 1.0));
        t += 500; // the reference kernel runs between slices, untimed
    }
    let (mid, lo, hi) = slice_rates(&slices, &completions).unwrap();
    assert!(
        (mid - 1e6).abs() < 1.0,
        "the stall must not move the median: {mid}"
    );
    assert!((lo - 1e5).abs() < 1.0, "the stall is the minimum: {lo}");
    assert!((hi - 1e6).abs() < 1.0);
    // The whole-window mean would have been dragged down by the stall.
    assert!(100.0 * 1e9 / (t as f64) < 0.6e6);

    // A host running 1.25× slow stretches every span by 1.25; the factor
    // (used by the `norm.*` metrics only) gives the rate back.
    let slow: Vec<_> = slices
        .iter()
        .map(|&(s, e, _)| (s * 5 / 4, e * 5 / 4, 1.25))
        .collect();
    let late: Vec<_> = completions.iter().map(|&(at, n)| (at * 5 / 4, n)).collect();
    let (mid_slow, ..) = slice_rates(&slow, &late).unwrap();
    assert!((mid_slow - mid).abs() < 1e-3 * mid, "{mid_slow} vs {mid}");

    // A batch is one completion carrying sixteen requests.
    let (batch, ..) = slice_rates(&[(0, 1_000_000, 1.0)], &[(500_000, 16)]).unwrap();
    assert!((batch - 16_000.0).abs() < 1e-6);
    assert!(slice_rates(&[], &completions).is_none());
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(
        quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]),
        Some([1.0, 3.0, 4.5]),
        "input order must not matter"
    );
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&[1.0, 2.0, 4.0]), Some(2.0));
    assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), Some(3.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn the_digest_sees_every_byte_and_the_order() {
    let mut a = Digest::default();
    a.push("RELEASE 1", "OK freed=500");
    a.push("RELEASE 2", "OK freed=100");
    let mut b = Digest::default();
    b.push("RELEASE 2", "OK freed=100");
    b.push("RELEASE 1", "OK freed=500");
    assert_ne!(a, b, "order matters");
    let mut c = Digest::default();
    c.push("RELEASE 1", "OK freed=501");
    c.push("RELEASE 2", "OK freed=100");
    assert_ne!(a, c, "one digit matters");
    let mut d = Digest::default();
    d.push("RELEASE 1", "OK freed=500");
    d.push("RELEASE 2", "OK freed=100");
    assert_eq!(a, d);
}

fn bound(higher: bool, bound: f64) -> Bound {
    Bound {
        name: "m".into(),
        higher,
        bound,
    }
}

#[test]
fn compare_verdicts() {
    let a = [100.0, 101.0, 99.0, 100.5, 99.5];
    let lower = bound(false, 0.10);
    let verdict = |b: &[f64], bd: &Bound| judge(&a, b, bd).unwrap().3;
    assert_eq!(
        verdict(&[101.0, 102.0, 100.0, 101.5, 100.5], &lower),
        Verdict::WithinBound
    );
    assert_eq!(
        verdict(&[115.0, 116.0, 114.0, 115.5, 114.5], &lower),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&[80.0, 81.0, 79.0, 80.5, 79.5], &lower),
        Verdict::Better
    );
    // Higher-is-better flips the sign.
    let higher = bound(true, 0.10);
    assert_eq!(
        verdict(&[80.0, 81.0, 79.0, 80.5, 79.5], &higher),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&[120.0, 121.0, 119.0, 120.5, 119.5], &higher),
        Verdict::Better
    );
    // A's own runs spread wider than the bound: nothing can be said…
    let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
    let j = judge(&noisy, &[100.0, 101.0, 99.0, 100.5, 99.5], &lower).unwrap();
    assert!(j.2 > 0.10);
    assert_eq!(j.3, Verdict::Unresolved);
    // …unless every run of B beats every run of A.
    let j = judge(&noisy, &[60.0, 61.0, 59.0, 60.5, 59.5], &lower).unwrap();
    assert_eq!(j.3, Verdict::Better);
    assert!(judge(&[1.0], &[1.0, 2.0], &lower).is_none());

    // `served_ratio` differs more between seeds than a change may move it,
    // so it is judged on same-seed pairs, absolutely.
    let seeds = [0.999, 0.983, 0.996, 1.0, 0.990];
    let lose = |by: f64| seeds.map(|v| v - by);
    assert!(!refuses_more(&seeds, &seeds));
    assert!(!refuses_more(&seeds, &lose(0.0019)));
    assert!(refuses_more(&seeds, &lose(0.0021)));
    assert!(!refuses_more(&seeds, &lose(-0.01)), "serving more is fine");
}

#[test]
fn a_window_is_cut_into_ten_equal_op_slices() {
    use drqos_benchmark::slices::{sliced, SLICES};
    use std::time::{Duration, Instant};

    let origin = Instant::now();
    let mut ranges = Vec::new();
    let slices = sliced(origin, 25, Duration::MAX, |range| {
        ranges.push(range);
        Ok(())
    })
    .unwrap();
    // Every step lands in exactly one slice, in order.
    assert_eq!((ranges.len(), slices.len()), (SLICES, SLICES));
    assert_eq!(ranges.first().unwrap().start, 0);
    assert_eq!(ranges.last().unwrap().end, 25);
    assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
    // The kernel is read between slices, outside every slice's span.
    assert!(slices.windows(2).all(|w| w[0].end_ns < w[1].start_ns));
    let spans: u64 = slices.iter().map(|s| s.end_ns - s.start_ns).sum();
    assert!(Duration::from_nanos(spans) < origin.elapsed());
    // Whatever the host is doing, the factor stays within sane limits.
    assert!(slices
        .iter()
        .all(|s| s.host_speed_factor > 0.2 && s.host_speed_factor < 20.0));

    // A limit that has already passed stops after the first slice.
    let mut calls = 0;
    let cut = sliced(Instant::now(), 100, Duration::ZERO, |_| {
        calls += 1;
        Ok(())
    })
    .unwrap();
    assert_eq!((calls, cut.len()), (1, 1));
}

#[test]
fn a_sample_is_reduced_raw_and_by_the_factor_of_its_own_slice() {
    use drqos_benchmark::e2e::{reduce, Sample};
    use drqos_benchmark::ops::Kind;
    use drqos_benchmark::slices::Slice;

    // Two slices of 1 ms; the host runs 1.25× slow during the second, so
    // the same request takes 10 µs in the first and 12.5 µs in the second.
    let slices = [
        Slice {
            start_ns: 0,
            end_ns: 1_000_000,
            host_speed_factor: 1.0,
        },
        Slice {
            start_ns: 1_100_000,
            end_ns: 2_100_000,
            host_speed_factor: 1.25,
        },
    ];
    let sample = |at_ns, latency_ns| Sample {
        at_ns,
        latency_ns,
        kind: Kind::Release,
        requests: 1,
    };
    let mut samples: Vec<Sample> = (1..=100).map(|i| sample(i * 10_000, 10_000)).collect();
    samples.extend((1..=80).map(|i| sample(1_100_000 + i * 12_500, 12_500)));

    let raw = reduce(samples.iter(), &slices, |_| 1.0).unwrap();
    let release = raw.latency[Kind::Release.index()].unwrap();
    assert_eq!((release.samples, release.p50_ns), (180, 10_000));
    assert_eq!(release.tail_ns, 12_500, "the clock saw the slow slice");
    assert!(
        (raw.rates.0 - 90_000.0).abs() < 1.0,
        "median of 100k and 80k"
    );
    assert!(raw.latency[Kind::Establish.index()].is_none());

    let norm = reduce(samples.iter(), &slices, |s| s.host_speed_factor).unwrap();
    let release = norm.latency[Kind::Release.index()].unwrap();
    assert_eq!((release.p50_ns, release.tail_ns), (10_000, 10_000));
    assert!((norm.rates.0 - 100_000.0).abs() < 1.0);
    assert!((norm.mean_ns - 10_000.0).abs() < 1e-6);
}
