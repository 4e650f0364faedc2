//! The paper's "ideal average bandwidth" reference line (Section 4):
//!
//! ```text
//!               BW × Edge
//! ideal = ──────────────────────
//!           NChan × avg_hops
//! ```
//!
//! — the bandwidth each channel would get if *all* network resources were
//! utilized and divided equally. Figure 2 plots it (clamped to the elastic
//! range) as the upper dotted line.

use drqos_core::qos::{Bandwidth, ElasticQos};

/// The raw ideal average bandwidth in Kbps (unclamped).
///
/// Returns `f64::INFINITY` when `channels == 0` or `avg_hops == 0` (no
/// load — every channel could have everything).
///
/// # Panics
///
/// Panics if `avg_hops` is negative or not finite.
pub(crate) fn ideal_average_bandwidth(
    link_bandwidth: Bandwidth,
    edges: usize,
    channels: usize,
    avg_hops: f64,
) -> f64 {
    assert!(
        avg_hops.is_finite() && avg_hops >= 0.0,
        "avg_hops must be finite and non-negative"
    );
    let denom = channels as f64 * avg_hops;
    if denom == 0.0 {
        return f64::INFINITY;
    }
    link_bandwidth.as_kbps_f64() * edges as f64 / denom
}

/// The ideal line clamped to the elastic QoS range `[B_min, B_max]`, as
/// plotted in the paper's Figure 2 (a channel can never reserve more than
/// `B_max` nor less than it needs to exist).
pub(crate) fn ideal_clamped(
    link_bandwidth: Bandwidth,
    edges: usize,
    channels: usize,
    avg_hops: f64,
    qos: &ElasticQos,
) -> f64 {
    ideal_average_bandwidth(link_bandwidth, edges, channels, avg_hops)
        .clamp(qos.min().as_kbps_f64(), qos.max().as_kbps_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_formula() {
        // 10 Mbps, 354 edges, 5000 channels, 4 hops → 10000·354/20000 = 177.
        let v = ideal_average_bandwidth(Bandwidth::mbps(10), 354, 5_000, 4.0);
        assert!((v - 177.0).abs() < 1e-9);
    }

    #[test]
    fn no_load_is_infinite() {
        assert!(ideal_average_bandwidth(Bandwidth::mbps(10), 354, 0, 4.0).is_infinite());
        assert!(ideal_average_bandwidth(Bandwidth::mbps(10), 354, 10, 0.0).is_infinite());
    }

    #[test]
    fn clamped_to_qos_range() {
        let qos = ElasticQos::paper_video(50);
        // Light load → clamps at max.
        assert_eq!(
            ideal_clamped(Bandwidth::mbps(10), 354, 10, 4.0, &qos),
            500.0
        );
        // Crushing load → clamps at min.
        assert_eq!(
            ideal_clamped(Bandwidth::mbps(10), 354, 1_000_000, 4.0, &qos),
            100.0
        );
        // In between → the raw value.
        let mid = ideal_clamped(Bandwidth::mbps(10), 354, 5_000, 4.0, &qos);
        assert!((mid - 177.0).abs() < 1e-9);
    }

    #[test]
    fn decreasing_in_load() {
        let qos = ElasticQos::paper_video(50);
        let mut last = f64::INFINITY;
        for n in [100, 500, 1_000, 2_000, 5_000] {
            let v = ideal_clamped(Bandwidth::mbps(10), 354, n, 4.0, &qos);
            assert!(v <= last);
            last = v;
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_hops_panics() {
        ideal_average_bandwidth(Bandwidth::mbps(10), 354, 100, -1.0);
    }
}
