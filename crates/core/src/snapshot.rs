//! Point-in-time views of a network for reporting and export.
//!
//! [`NetworkSnapshot`] freezes the observable state of a [`Network`]
//! (per-link utilization, per-connection QoS levels) into plain rows that
//! benches and examples can tabulate, export as CSV, or aggregate —
//! without holding a borrow on the live network.

use crate::channel::ConnectionId;
use crate::network::Network;
use crate::qos::Bandwidth;
use drqos_topology::LinkId;

/// One link's frozen accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkRow {
    /// The link.
    pub link: LinkId,
    /// Whether it was up.
    pub up: bool,
    /// Capacity.
    pub capacity: Bandwidth,
    /// Sum of primary minima.
    pub primary_min: Bandwidth,
    /// Elastic extras lent out.
    pub extras: Bandwidth,
    /// Multiplexed backup reservation.
    pub backup_reservation: Bandwidth,
    /// Primary channels crossing the link.
    pub primary_count: usize,
}

impl LinkRow {
    /// Fraction of capacity committed (minima + extras + reservation).
    pub(crate) fn utilization(&self) -> f64 {
        let committed = self.primary_min + self.extras + self.backup_reservation;
        committed.as_kbps_f64() / self.capacity.as_kbps_f64().max(1.0)
    }
}

/// One connection's frozen state.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionRow {
    /// The connection.
    pub id: ConnectionId,
    /// Current bandwidth.
    pub bandwidth: Bandwidth,
    /// Current elastic level.
    pub level: usize,
    /// Maximum level of its QoS range.
    pub max_level: usize,
    /// Primary hop count.
    pub primary_hops: usize,
    /// Whether a backup channel exists.
    pub has_backup: bool,
    /// Number of backup channels currently established.
    pub backup_count: usize,
    /// Failovers so far.
    pub failovers: u32,
}

/// A frozen view of the whole network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSnapshot {
    /// Per-link rows, indexed by link id.
    pub links: Vec<LinkRow>,
    /// Per-connection rows, in id order.
    pub connections: Vec<ConnectionRow>,
}

impl NetworkSnapshot {
    /// Captures the current state of `net`.
    pub fn capture(net: &Network) -> Self {
        let links = net
            .graph()
            .links()
            .map(|l| {
                let u = net.link_usage(l.id());
                LinkRow {
                    link: l.id(),
                    up: u.is_up(),
                    capacity: u.capacity(),
                    primary_min: u.primary_min_sum(),
                    extras: u.extra_sum(),
                    backup_reservation: u.backup_reservation(),
                    primary_count: u.primary_count(),
                }
            })
            .collect();
        let connections = net
            .connections()
            .map(|c| ConnectionRow {
                id: c.id(),
                bandwidth: c.bandwidth(),
                level: c.level(),
                max_level: c.qos().max_level(),
                primary_hops: c.primary().hop_count(),
                has_backup: c.has_backup(),
                backup_count: c.backup_count(),
                failovers: c.failovers(),
            })
            .collect();
        Self { links, connections }
    }

    /// Mean committed-capacity fraction over up links (0 with no links).
    pub fn mean_utilization(&self) -> f64 {
        let up: Vec<&LinkRow> = self.links.iter().filter(|l| l.up).collect();
        if up.is_empty() {
            0.0
        } else {
            up.iter().map(|l| l.utilization()).sum::<f64>() / up.len() as f64
        }
    }

    /// Fraction of connections that currently hold a backup channel.
    pub fn backup_coverage(&self) -> f64 {
        if self.connections.is_empty() {
            return 1.0;
        }
        self.connections.iter().filter(|c| c.has_backup).count() as f64
            / self.connections.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use crate::qos::ElasticQos;
    use drqos_topology::{regular, NodeId};

    fn snapshot_of_loaded_ring() -> (NetworkSnapshot, Network) {
        let g = regular::ring(6).unwrap();
        let mut net = Network::new(
            g,
            NetworkConfig {
                capacity: Bandwidth::kbps(1_000),
                ..NetworkConfig::default()
            },
        );
        net.establish(NodeId(0), NodeId(3), ElasticQos::paper_video(100))
            .unwrap();
        net.establish(NodeId(1), NodeId(4), ElasticQos::paper_video(100))
            .unwrap();
        (NetworkSnapshot::capture(&net), net)
    }

    #[test]
    fn capture_matches_live_state() {
        let (snap, net) = snapshot_of_loaded_ring();
        assert_eq!(snap.links.len(), net.graph().link_count());
        assert_eq!(snap.connections.len(), net.len());
        for row in &snap.connections {
            let live = net.connection(row.id).unwrap();
            assert_eq!(row.bandwidth, live.bandwidth());
            assert_eq!(row.level, live.level());
            assert_eq!(row.has_backup, live.has_backup());
        }
        for row in &snap.links {
            let live = net.link_usage(row.link);
            assert_eq!(row.primary_min, live.primary_min_sum());
            assert_eq!(row.extras, live.extra_sum());
            assert_eq!(row.backup_reservation, live.backup_reservation());
        }
    }

    #[test]
    fn utilization_is_a_fraction() {
        let (snap, _) = snapshot_of_loaded_ring();
        for row in &snap.links {
            assert!((0.0..=1.0 + 1e-9).contains(&row.utilization()));
        }
        assert!(snap.mean_utilization() > 0.0);
    }

    #[test]
    fn empty_network_edge_cases() {
        let g = regular::ring(4).unwrap();
        let net = Network::new(g, NetworkConfig::default());
        let snap = NetworkSnapshot::capture(&net);
        assert!(snap.connections.is_empty());
        assert_eq!(snap.backup_coverage(), 1.0);
        assert_eq!(snap.mean_utilization(), 0.0);
    }

    #[test]
    fn backup_coverage_full_on_ring() {
        let (snap, _) = snapshot_of_loaded_ring();
        assert_eq!(snap.backup_coverage(), 1.0);
    }
}
