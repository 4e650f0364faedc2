//! Pluggable invariant oracles.
//!
//! An [`Oracle`] owns a set of [`InvariantCheck`]s and runs all of them
//! against a network state, collecting every [`Violation`] instead of
//! stopping at the first. Checks may keep state across calls (epoch and
//! drop-counter monotonicity need the previous observation), which is why
//! `check` takes `&mut self`.
//!
//! [`Oracle::standard`] bundles the full property set: the core
//! accounting recomputation (`Network::check_invariants`), capacity
//! bounds, `[B_min, B_max]`/Δ-grid membership, committed paths staying on
//! live links, `topology_epoch` monotonicity, and conservation of
//! `dropped_total`.

use drqos_core::network::Network;

/// One violated property, tagged with the check that found it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the check that fired.
    pub check: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.message)
    }
}

/// A checked property over a network state.
pub trait InvariantCheck {
    /// Short identifier for reports.
    fn name(&self) -> &'static str;
    /// Returns one message per violation found in `net` (empty = holds).
    fn check(&mut self, net: &Network) -> Vec<String>;
}

/// A pluggable set of invariant checks.
#[derive(Default)]
pub struct Oracle {
    checks: Vec<Box<dyn InvariantCheck>>,
}

impl Oracle {
    /// An oracle with no checks; add them with [`Oracle::push`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The full standard property set.
    pub(crate) fn standard() -> Self {
        let mut oracle = Self::new();
        oracle.push(Box::new(CoreAccounting));
        oracle.push(Box::new(CapacityBound));
        oracle.push(Box::new(QosGrid));
        oracle.push(Box::new(PathsOnLiveLinks));
        oracle.push(Box::new(EpochMonotonic::default()));
        oracle.push(Box::new(DroppedConservation::default()));
        oracle
    }

    /// Adds a check.
    pub fn push(&mut self, check: Box<dyn InvariantCheck>) {
        self.checks.push(check);
    }

    /// Runs every check, collecting all violations.
    pub fn run(&mut self, net: &Network) -> Vec<Violation> {
        let mut violations = Vec::new();
        for check in &mut self.checks {
            let name = check.name();
            violations.extend(check.check(net).into_iter().map(|message| Violation {
                check: name,
                message,
            }));
        }
        violations
    }
}

/// The core accounting recomputation, via `Network::check_invariants`.
pub struct CoreAccounting;

impl InvariantCheck for CoreAccounting {
    fn name(&self) -> &'static str {
        "core-accounting"
    }

    fn check(&mut self, net: &Network) -> Vec<String> {
        net.check_invariants()
            .into_iter()
            .map(|v| v.to_string())
            .collect()
    }
}

/// Link capacity is never oversubscribed by guaranteed allocations.
pub struct CapacityBound;

impl InvariantCheck for CapacityBound {
    fn name(&self) -> &'static str {
        "capacity-bound"
    }

    fn check(&mut self, net: &Network) -> Vec<String> {
        net.graph()
            .links()
            .filter_map(|l| {
                let u = net.link_usage(l.id());
                let allocated = u.primary_min_sum() + u.extra_sum();
                (allocated > u.capacity()).then(|| {
                    format!(
                        "{}: allocated {} exceeds capacity {}",
                        l.id(),
                        allocated,
                        u.capacity()
                    )
                })
            })
            .collect()
    }
}

/// Every connection's bandwidth sits within `[B_min, B_max]` on the
/// Δ-grid (i.e. maps back to a valid level).
pub struct QosGrid;

impl InvariantCheck for QosGrid {
    fn name(&self) -> &'static str {
        "qos-grid"
    }

    fn check(&mut self, net: &Network) -> Vec<String> {
        net.connections()
            .filter_map(|c| {
                let bw = c.bandwidth();
                if bw < c.qos().min() || bw > c.qos().max() {
                    Some(format!(
                        "{}: bandwidth {bw} outside [{}, {}]",
                        c.id(),
                        c.qos().min(),
                        c.qos().max()
                    ))
                } else if c.qos().level_of(bw).is_none() {
                    Some(format!(
                        "{}: bandwidth {bw} off the Δ-grid (Δ = {})",
                        c.id(),
                        c.qos().increment()
                    ))
                } else {
                    None
                }
            })
            .collect()
    }
}

/// No committed path — primary or backup — crosses a down link. (Failures
/// drop or re-route crossing primaries and unregister crossing backups,
/// so a stale path here means the failure handler missed something.)
pub struct PathsOnLiveLinks;

impl InvariantCheck for PathsOnLiveLinks {
    fn name(&self) -> &'static str {
        "paths-on-live-links"
    }

    fn check(&mut self, net: &Network) -> Vec<String> {
        let mut out = Vec::new();
        for c in net.connections() {
            for &l in c.primary().links() {
                if !net.link_usage(l).is_up() {
                    out.push(format!("{}: primary crosses down link {l}", c.id()));
                }
            }
            for (i, b) in c.backups().iter().enumerate() {
                for &l in b.links() {
                    if !net.link_usage(l).is_up() {
                        out.push(format!("{}: backup #{i} crosses down link {l}", c.id()));
                    }
                }
            }
        }
        out
    }
}

/// `topology_epoch` never moves backwards.
#[derive(Default)]
pub struct EpochMonotonic {
    last: Option<u64>,
}

impl InvariantCheck for EpochMonotonic {
    fn name(&self) -> &'static str {
        "epoch-monotonic"
    }

    fn check(&mut self, net: &Network) -> Vec<String> {
        let now = net.topology_epoch();
        let out = match self.last {
            Some(last) if now < last => {
                vec![format!("topology_epoch went backwards: {last} -> {now}")]
            }
            _ => Vec::new(),
        };
        self.last = Some(now);
        out
    }
}

/// `dropped_total` never decreases, and only grows while connections
/// actually leave the table (conservation: drops + live ≥ previous live).
#[derive(Default)]
pub struct DroppedConservation {
    last: Option<(u64, usize)>,
}

impl InvariantCheck for DroppedConservation {
    fn name(&self) -> &'static str {
        "dropped-conservation"
    }

    fn check(&mut self, net: &Network) -> Vec<String> {
        let now = (net.dropped_total(), net.len());
        let mut out = Vec::new();
        if let Some((dropped, live)) = self.last {
            if now.0 < dropped {
                out.push(format!(
                    "dropped_total went backwards: {dropped} -> {}",
                    now.0
                ));
            }
            // Each new drop must correspond to a connection that left the
            // table: live can shrink by at most (releases + drops), and
            // drops alone can never exceed the connections that existed.
            let new_drops = now.0.saturating_sub(dropped);
            if new_drops > 0 && live.saturating_sub(now.1) < new_drops as usize {
                out.push(format!(
                    "{new_drops} drops recorded but live count only went {live} -> {}",
                    now.1
                ));
            }
        }
        self.last = Some(now);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_core::network::{Network, NetworkConfig};
    use drqos_core::qos::ElasticQos;
    use drqos_topology::{regular, NodeId};

    #[test]
    fn standard_oracle_passes_on_healthy_network() {
        let mut net = Network::new(regular::ring(6).unwrap(), NetworkConfig::default());
        let mut oracle = Oracle::standard();
        assert!(oracle.run(&net).is_empty());
        net.establish(NodeId(0), NodeId(3), ElasticQos::paper_video(100))
            .unwrap();
        assert!(oracle.run(&net).is_empty());
        let link = net.up_links().next().unwrap();
        net.fail_link(link).unwrap();
        assert!(oracle.run(&net).is_empty());
    }

    #[test]
    fn stateful_checks_track_history() {
        let mut net = Network::new(regular::ring(6).unwrap(), NetworkConfig::default());
        let mut epoch = EpochMonotonic::default();
        assert!(epoch.check(&net).is_empty());
        net.fail_link(drqos_topology::LinkId(0)).unwrap();
        assert!(epoch.check(&net).is_empty());
        // A fresh network looks like the epoch rolled back.
        let fresh = Network::new(regular::ring(6).unwrap(), NetworkConfig::default());
        assert_eq!(epoch.check(&fresh).len(), 1);
    }

    #[test]
    fn violations_carry_the_check_name() {
        let mut oracle = Oracle::new();
        struct AlwaysFires;
        impl InvariantCheck for AlwaysFires {
            fn name(&self) -> &'static str {
                "always-fires"
            }
            fn check(&mut self, _net: &Network) -> Vec<String> {
                vec!["boom".into()]
            }
        }
        oracle.push(Box::new(AlwaysFires));
        let net = Network::new(regular::ring(4).unwrap(), NetworkConfig::default());
        let vs = oracle.run(&net);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].check, "always-fires");
        assert!(vs[0].to_string().contains("[always-fires] boom"));
    }
}
