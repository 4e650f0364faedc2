//! Waxman random topology generation (Waxman, JSAC 1988), the "Random"
//! network model of the paper's evaluation (via the GT-ITM package).
//!
//! Nodes are placed uniformly at random in the unit square; a link between
//! `u` and `v` is created with probability
//!
//! ```text
//! P(u, v) = α · exp( −d(u, v) / (β · L) )
//! ```
//!
//! where `d` is Euclidean distance and `L` is the diagonal of the domain
//! (the maximum possible distance).
//!
//! ## Parameter calibration vs. the paper
//!
//! The paper states "Waxman distribution with parameters α = 0.33 and β = 0"
//! and reports the resulting graph as 100 nodes / 354 edges / average degree
//! 3.48. Under the standard formula above, `β = 0` yields *no* edges, so the
//! paper's GT-ITM build evidently used a different parameter convention.
//! Rather than guess the convention, the test-only `calibrate_beta` searches
//! for the `β` that reproduces the paper's *reported graph statistics* (354
//! edges at `α = 0.33`, which lands near `β ≈ 0.24`). [`paper_waxman`] fixes
//! a value calibrated that way so that the substrate matches the paper's
//! actual evaluation network, which is what matters for the results.

use crate::error::TopologyError;
use crate::graph::Graph;
use crate::metrics;
use drqos_sim::rng::Rng;

/// Configuration for the Waxman generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WaxmanConfig {
    /// Number of nodes (≥ 2).
    pub nodes: usize,
    /// Edge-probability scale `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Distance decay `β ∈ (0, 1]`; larger values weaken the distance bias.
    /// The decay length is `β·√2` in *reference* units (the diagonal of a
    /// unit domain) regardless of `domain_side`, so growing the domain at
    /// constant node density keeps the local link structure fixed — this is
    /// what produces the paper's near-linear edge growth in Figure 3.
    pub beta: f64,
    /// Side length of the square placement domain (default 1.0). Set to
    /// `sqrt(nodes / 100)` to grow a 100-node reference network at constant
    /// density (see [`paper_waxman_scaled`]).
    pub domain_side: f64,
    /// If true (default), bridge disconnected components with extra links
    /// between their closest node pairs so the result is connected.
    pub ensure_connected: bool,
}

impl WaxmanConfig {
    /// Creates a config over the unit square with connectivity patching
    /// enabled.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] if `nodes < 2` or either
    /// parameter is outside `(0, 1]`.
    pub fn new(nodes: usize, alpha: f64, beta: f64) -> Result<Self, TopologyError> {
        let cfg = Self {
            nodes,
            alpha,
            beta,
            domain_side: 1.0,
            ensure_connected: true,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), TopologyError> {
        if self.nodes < 2 {
            return Err(TopologyError::InvalidParameter(format!(
                "Waxman graph needs at least 2 nodes, got {}",
                self.nodes
            )));
        }
        for (name, v) in [("alpha", self.alpha), ("beta", self.beta)] {
            if !v.is_finite() || v <= 0.0 || v > 1.0 {
                return Err(TopologyError::InvalidParameter(format!(
                    "Waxman {name} must be in (0, 1], got {v}"
                )));
            }
        }
        if !self.domain_side.is_finite() || self.domain_side <= 0.0 {
            return Err(TopologyError::InvalidParameter(format!(
                "Waxman domain_side must be finite and positive, got {}",
                self.domain_side
            )));
        }
        Ok(())
    }

    /// Generates a graph.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] if the configuration is
    /// invalid (see [`WaxmanConfig::new`]).
    pub fn generate(&self, rng: &mut Rng) -> Result<Graph, TopologyError> {
        self.validate()?;
        let mut g = Graph::new();
        for _ in 0..self.nodes {
            g.add_node_at(
                self.domain_side * rng.next_f64(),
                self.domain_side * rng.next_f64(),
            );
        }
        // Decay length in reference units — see the `beta` field docs.
        let l = 2f64.sqrt();
        for i in 0..self.nodes {
            for j in (i + 1)..self.nodes {
                let a = crate::graph::NodeId(i);
                let b = crate::graph::NodeId(j);
                let d = g.distance(a, b).expect("generator assigns positions");
                let p = self.alpha * (-d / (self.beta * l)).exp();
                if rng.chance(p) {
                    g.add_link(a, b).expect("pairs are visited once");
                }
            }
        }
        if self.ensure_connected {
            bridge_components(&mut g);
        }
        Ok(g)
    }
}

/// Connects a graph by repeatedly adding a link between the geometrically
/// closest pair of nodes in different components.
///
/// A cheap stand-in for GT-ITM's "regenerate until connected" loop that
/// perturbs the degree distribution by at most (#components − 1) links.
pub(crate) fn bridge_components(g: &mut Graph) {
    loop {
        let comps = metrics::components(g);
        if comps.len() <= 1 {
            return;
        }
        // Join the first component to its nearest other component.
        let mut best: Option<(f64, crate::graph::NodeId, crate::graph::NodeId)> = None;
        for &u in &comps[0] {
            for comp in &comps[1..] {
                for &v in comp {
                    let d = g.distance(u, v).unwrap_or(1.0);
                    if best.is_none_or(|(bd, _, _)| d < bd) {
                        best = Some((d, u, v));
                    }
                }
            }
        }
        let (_, u, v) = best.expect("at least two components");
        g.add_link(u, v)
            .expect("cross-component link cannot duplicate");
    }
}

/// Finds a `β` such that Waxman graphs with the given `nodes`/`alpha`
/// produce approximately `target_edges` edges (averaged over `trials`
/// sample graphs per probe).
///
/// Used to match the paper's reported topology statistics (see the module
/// docs): this is where [`paper_waxman`]'s constants came from, kept as
/// the reference its tests re-derive them against. Returns the calibrated β.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidParameter`] for nonsensical inputs
/// (fewer than 2 nodes, zero target, zero trials, or `alpha` out of range).
#[cfg(test)]
fn calibrate_beta(
    nodes: usize,
    alpha: f64,
    target_edges: usize,
    trials: usize,
    rng: &mut Rng,
) -> Result<f64, TopologyError> {
    if nodes < 2 || target_edges == 0 || trials == 0 {
        return Err(TopologyError::InvalidParameter(
            "calibration requires nodes ≥ 2, target_edges ≥ 1, trials ≥ 1".into(),
        ));
    }
    if !alpha.is_finite() || alpha <= 0.0 || alpha > 1.0 {
        return Err(TopologyError::InvalidParameter(format!(
            "alpha must be in (0, 1], got {alpha}"
        )));
    }
    let mean_edges = |beta: f64, rng: &mut Rng| -> f64 {
        let mut cfg = WaxmanConfig::new(nodes, alpha, beta).expect("validated above");
        cfg.ensure_connected = false; // bridging would bias the count
        let total: usize = (0..trials)
            .map(|_| cfg.generate(rng).expect("valid config").link_count())
            .sum();
        total as f64 / trials as f64
    };
    // Edge count is monotonically increasing in β; bisect on (0, 1].
    let (mut lo, mut hi) = (1e-3, 1.0);
    if mean_edges(hi, rng) < target_edges as f64 {
        return Ok(hi); // best achievable at this alpha
    }
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        if mean_edges(mid, rng) < target_edges as f64 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// The Waxman configuration used throughout the paper's evaluation,
/// calibrated against the paper's reported topology statistics for the
/// 100-node network (354 edges / E÷N "degree of connection" ≈ 3.5):
/// `α = 1.0`, `β = 0.0903` (fixed rather than re-calibrated per run so
/// experiments are reproducible). We choose the most-local parameterization
/// that matches the edge count because the paper's diameter of 8 indicates
/// strongly distance-biased links; a unit square caps our diameter near 6,
/// which EXPERIMENTS.md records as a known (minor) deviation.
pub fn paper_waxman(nodes: usize) -> WaxmanConfig {
    WaxmanConfig {
        nodes,
        alpha: 1.0,
        beta: 0.0903,
        domain_side: 1.0,
        ensure_connected: true,
    }
}

/// The paper's Waxman model grown to `nodes` at *constant node density*
/// (domain side `sqrt(nodes / 100)`), matching Figure 3's near-linear edge
/// growth ("the number of edges increases rapidly with the number of nodes
/// when the parameters of the Waxman distribution remain unchanged").
pub fn paper_waxman_scaled(nodes: usize) -> WaxmanConfig {
    WaxmanConfig {
        domain_side: (nodes as f64 / 100.0).sqrt(),
        ..paper_waxman(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(20010425)
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(WaxmanConfig::new(1, 0.5, 0.5).is_err());
        assert!(WaxmanConfig::new(10, 0.0, 0.5).is_err());
        assert!(WaxmanConfig::new(10, 0.5, 0.0).is_err());
        assert!(WaxmanConfig::new(10, 1.5, 0.5).is_err());
        assert!(WaxmanConfig::new(10, 0.5, f64::NAN).is_err());
    }

    #[test]
    fn generates_requested_node_count() {
        let g = WaxmanConfig::new(50, 0.5, 0.5)
            .unwrap()
            .generate(&mut rng())
            .unwrap();
        assert_eq!(g.node_count(), 50);
        assert!(g.nodes().all(|n| g.position(n).is_some()));
    }

    #[test]
    fn connectivity_patch_connects() {
        let cfg = WaxmanConfig::new(60, 0.1, 0.05).unwrap(); // sparse
        let g = cfg.generate(&mut rng()).unwrap();
        assert!(metrics::is_connected(&g));
    }

    #[test]
    fn without_patch_can_be_disconnected() {
        let mut cfg = WaxmanConfig::new(60, 0.05, 0.05).unwrap();
        cfg.ensure_connected = false;
        // With these parameters, essentially certain to be disconnected.
        let g = cfg.generate(&mut rng()).unwrap();
        assert!(!metrics::is_connected(&g));
    }

    #[test]
    fn denser_beta_gives_more_edges() {
        let mut r = rng();
        let sparse = WaxmanConfig {
            ensure_connected: false,
            ..WaxmanConfig::new(80, 0.33, 0.1).unwrap()
        }
        .generate(&mut r)
        .unwrap();
        let dense = WaxmanConfig {
            ensure_connected: false,
            ..WaxmanConfig::new(80, 0.33, 0.9).unwrap()
        }
        .generate(&mut r)
        .unwrap();
        assert!(dense.link_count() > sparse.link_count());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = WaxmanConfig::new(40, 0.3, 0.3).unwrap();
        let g1 = cfg.generate(&mut Rng::seed_from_u64(5)).unwrap();
        let g2 = cfg.generate(&mut Rng::seed_from_u64(5)).unwrap();
        assert_eq!(g1.link_count(), g2.link_count());
        assert_eq!(
            g1.links().map(|l| l.endpoints()).collect::<Vec<_>>(),
            g2.links().map(|l| l.endpoints()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn paper_waxman_matches_reported_statistics() {
        // The paper's graph: 100 nodes, 354 edges, "degree of connection"
        // (E/N) 3.48.
        let mut r = rng();
        let mut edges = 0usize;
        let runs = 8;
        for _ in 0..runs {
            let g = paper_waxman(100).generate(&mut r).unwrap();
            assert!(metrics::is_connected(&g));
            edges += g.link_count();
        }
        let mean = edges as f64 / runs as f64;
        assert!(
            (mean - 354.0).abs() < 45.0,
            "mean edge count {mean} too far from the paper's 354"
        );
    }

    #[test]
    fn scaled_waxman_grows_edges_near_linearly() {
        // Figure 3's dotted line: edges grow roughly linearly with nodes at
        // constant density, not quadratically.
        let mut r = rng();
        let e100 = paper_waxman_scaled(100)
            .generate(&mut r)
            .unwrap()
            .link_count() as f64;
        let e400 = paper_waxman_scaled(400)
            .generate(&mut r)
            .unwrap()
            .link_count() as f64;
        let ratio = e400 / e100;
        assert!(
            (2.5..7.0).contains(&ratio),
            "edge growth ratio {ratio} not near-linear (expected ≈4)"
        );
    }

    #[test]
    fn domain_side_rejected_if_not_positive() {
        let mut cfg = WaxmanConfig::new(10, 0.5, 0.5).unwrap();
        cfg.domain_side = 0.0;
        assert!(cfg.generate(&mut rng()).is_err());
    }

    #[test]
    fn calibrate_beta_hits_target() {
        let mut r = rng();
        let beta = calibrate_beta(100, 0.33, 354, 3, &mut r).unwrap();
        let mut cfg = WaxmanConfig::new(100, 0.33, beta).unwrap();
        cfg.ensure_connected = false;
        let mean: f64 = (0..6)
            .map(|_| cfg.generate(&mut r).unwrap().link_count() as f64)
            .sum::<f64>()
            / 6.0;
        assert!(
            (mean - 354.0).abs() < 40.0,
            "calibrated beta {beta} gives mean edges {mean}"
        );
    }

    #[test]
    fn calibrate_beta_rejects_bad_inputs() {
        let mut r = rng();
        assert!(calibrate_beta(1, 0.3, 10, 1, &mut r).is_err());
        assert!(calibrate_beta(10, 0.3, 0, 1, &mut r).is_err());
        assert!(calibrate_beta(10, 0.3, 10, 0, &mut r).is_err());
        assert!(calibrate_beta(10, 0.0, 10, 1, &mut r).is_err());
    }

    #[test]
    fn calibrate_beta_saturates_at_one() {
        // Target far above what alpha can ever produce → returns 1.0.
        let mut r = rng();
        let beta = calibrate_beta(10, 0.01, 1000, 1, &mut r).unwrap();
        assert_eq!(beta, 1.0);
    }

    #[test]
    fn bridge_components_noop_on_connected() {
        let mut g = crate::regular::ring(5).unwrap();
        let before = g.link_count();
        bridge_components(&mut g);
        assert_eq!(g.link_count(), before);
    }
}
