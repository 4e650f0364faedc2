//! DR-connections and their channels.
//!
//! A *dependable real-time connection* (DR-connection) owns one primary
//! channel carrying traffic and (normally) one link-disjoint backup channel
//! reserved for failure recovery. The primary's reservation is elastic: its
//! current *level* counts increments of extra bandwidth above the minimum.
//! Backups always reserve exactly the minimum — "only minimum required, or
//! less, resources are reserved and remain unchanged for backup channels"
//! (paper, footnote 4).

use crate::qos::{Bandwidth, ElasticQos};
use drqos_topology::Path;
use std::fmt;

/// Identifier of a DR-connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnectionId(pub u64);

impl fmt::Display for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A dependable real-time connection: elastic QoS, a primary path, zero
/// or more backup paths, and the current elastic level.
///
/// The paper's analysis allocates exactly one backup per connection; the
/// scheme it builds on (Han & Shin) supports "one or more", which this
/// type models as an ordered list — the first usable backup is activated
/// on failover.
#[derive(Debug, Clone, PartialEq)]
pub struct DrConnection {
    id: ConnectionId,
    qos: ElasticQos,
    primary: Path,
    backups: Vec<Path>,
    level: usize,
    failovers: u32,
}

impl DrConnection {
    /// Creates a connection at the minimum level.
    ///
    /// # Panics
    ///
    /// Panics if `backup` is present but identical to `primary` (a backup
    /// may share links when only a maximally-disjoint one exists, but an
    /// identical one protects nothing).
    pub(crate) fn new(
        id: ConnectionId,
        qos: ElasticQos,
        primary: Path,
        backups: Vec<Path>,
    ) -> Self {
        for b in &backups {
            assert!(
                b != &primary,
                "backups must differ from the primary channel"
            );
        }
        Self {
            id,
            qos,
            primary,
            backups,
            level: 0,
            failovers: 0,
        }
    }

    /// This connection's identifier.
    pub fn id(&self) -> ConnectionId {
        self.id
    }

    /// The QoS contract.
    pub fn qos(&self) -> &ElasticQos {
        &self.qos
    }

    /// The primary channel's route.
    pub fn primary(&self) -> &Path {
        &self.primary
    }

    /// The first backup channel's route, if any is established (the one a
    /// failover would activate first).
    pub fn backup(&self) -> Option<&Path> {
        self.backups.first()
    }

    /// All backup channels, in activation order.
    pub fn backups(&self) -> &[Path] {
        &self.backups
    }

    /// The current elastic level (increments above the minimum).
    pub fn level(&self) -> usize {
        self.level
    }

    /// The bandwidth currently reserved for the primary channel:
    /// `min + level·Δ`.
    pub fn bandwidth(&self) -> Bandwidth {
        self.qos.level_bandwidth(self.level)
    }

    /// Extra bandwidth above the minimum (`level·Δ`).
    pub(crate) fn extra(&self) -> Bandwidth {
        self.bandwidth() - self.qos.min()
    }

    /// How many times this connection has failed over to a backup.
    pub fn failovers(&self) -> u32 {
        self.failovers
    }

    /// Whether this connection currently has at least one backup channel.
    pub fn has_backup(&self) -> bool {
        !self.backups.is_empty()
    }

    /// Number of backup channels currently established.
    pub fn backup_count(&self) -> usize {
        self.backups.len()
    }

    pub(crate) fn set_level(&mut self, level: usize) {
        assert!(level <= self.qos.max_level(), "level beyond QoS maximum");
        self.level = level;
    }

    pub(crate) fn push_backup(&mut self, backup: Path) {
        assert!(
            backup != self.primary,
            "backup must differ from the primary channel"
        );
        self.backups.push(backup);
    }

    /// Removes the backup at `index`, returning it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn remove_backup(&mut self, index: usize) -> Path {
        self.backups.remove(index)
    }

    pub(crate) fn clear_backups(&mut self) -> Vec<Path> {
        std::mem::take(&mut self.backups)
    }

    /// Whether every backup shares no link with the primary (always true
    /// under [`crate::routing::BackupDisjointness::Strict`], and vacuously
    /// true without backups).
    pub fn backup_fully_disjoint(&self) -> bool {
        self.backups
            .iter()
            .all(|b| self.primary.is_link_disjoint(b))
    }

    /// Promotes the backup at `index` to primary (failover). The
    /// connection drops to the minimum level; the remaining backups are
    /// returned alongside being kept (they now protect the new primary,
    /// whose registration the network re-keys).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the chosen backup equals the
    /// current primary.
    pub(crate) fn activate_backup(&mut self, index: usize) {
        self.primary = self.backups.remove(index);
        // A surviving backup identical to the new primary is useless; drop
        // it (possible only under maximal disjointness).
        let Self {
            primary, backups, ..
        } = self;
        backups.retain(|b| b != primary);
        self.level = 0;
        self.failovers += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_topology::{regular, NodeId};

    fn ring_paths() -> (Path, Path) {
        let g = regular::ring(6).unwrap();
        let p = Path::from_nodes(&g, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]).unwrap();
        let b = Path::from_nodes(&g, vec![NodeId(0), NodeId(5), NodeId(4), NodeId(3)]).unwrap();
        (p, b)
    }

    fn qos() -> ElasticQos {
        ElasticQos::paper_video(50)
    }

    #[test]
    fn new_connection_starts_at_minimum() {
        let (p, b) = ring_paths();
        let c = DrConnection::new(ConnectionId(1), qos(), p, vec![b]);
        assert_eq!(c.level(), 0);
        assert_eq!(c.bandwidth(), Bandwidth::kbps(100));
        assert_eq!(c.extra(), Bandwidth::ZERO);
        assert!(c.has_backup());
        assert_eq!(c.backup_count(), 1);
        assert_eq!(c.failovers(), 0);
        assert_eq!(c.id().to_string(), "c1");
    }

    #[test]
    fn level_changes_bandwidth() {
        let (p, b) = ring_paths();
        let mut c = DrConnection::new(ConnectionId(1), qos(), p, vec![b]);
        c.set_level(4);
        assert_eq!(c.bandwidth(), Bandwidth::kbps(300));
        assert_eq!(c.extra(), Bandwidth::kbps(200));
    }

    #[test]
    #[should_panic(expected = "beyond QoS maximum")]
    fn level_cannot_exceed_max() {
        let (p, b) = ring_paths();
        let mut c = DrConnection::new(ConnectionId(1), qos(), p, vec![b]);
        c.set_level(9);
    }

    #[test]
    #[should_panic(expected = "differ from the primary")]
    fn identical_backup_rejected() {
        let g = regular::ring(6).unwrap();
        let p = Path::from_nodes(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        DrConnection::new(ConnectionId(1), qos(), p.clone(), vec![p]);
    }

    #[test]
    fn partially_overlapping_backup_accepted() {
        // Maximally-disjoint backups may share links with the primary.
        let g = regular::ring(6).unwrap();
        let p = Path::from_nodes(&g, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]).unwrap();
        let b = Path::from_nodes(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let c = DrConnection::new(ConnectionId(1), qos(), b, vec![p]);
        assert!(!c.backup_fully_disjoint());
    }

    #[test]
    fn activate_backup_swaps_routes() {
        let (p, b) = ring_paths();
        let mut c = DrConnection::new(ConnectionId(1), qos(), p, vec![b.clone()]);
        c.set_level(3);
        c.activate_backup(0);
        assert_eq!(c.primary(), &b);
        assert!(!c.has_backup());
        assert_eq!(c.level(), 0);
        assert_eq!(c.failovers(), 1);
    }

    #[test]
    fn activation_keeps_other_backups() {
        let g = regular::complete(4).unwrap();
        let p = Path::from_nodes(&g, vec![NodeId(0), NodeId(1)]).unwrap();
        let b1 = Path::from_nodes(&g, vec![NodeId(0), NodeId(2), NodeId(1)]).unwrap();
        let b2 = Path::from_nodes(&g, vec![NodeId(0), NodeId(3), NodeId(1)]).unwrap();
        let mut c = DrConnection::new(ConnectionId(1), qos(), p, vec![b1.clone(), b2.clone()]);
        assert_eq!(c.backup_count(), 2);
        c.activate_backup(0);
        assert_eq!(c.primary(), &b1);
        assert_eq!(c.backups(), &[b2]);
    }

    #[test]
    #[should_panic]
    fn activate_without_backup_panics() {
        let (p, _) = ring_paths();
        let mut c = DrConnection::new(ConnectionId(1), qos(), p, vec![]);
        c.activate_backup(0);
    }

    #[test]
    fn push_and_remove_backups() {
        let (p, b) = ring_paths();
        let mut c = DrConnection::new(ConnectionId(1), qos(), p, vec![]);
        assert!(!c.has_backup());
        c.push_backup(b.clone());
        assert_eq!(c.backup(), Some(&b));
        let removed = c.remove_backup(0);
        assert_eq!(removed, b);
        assert!(!c.has_backup());
    }

    #[test]
    fn clear_backups_returns_all() {
        let (p, b) = ring_paths();
        let mut c = DrConnection::new(ConnectionId(1), qos(), p, vec![b.clone()]);
        assert_eq!(c.clear_backups(), vec![b]);
        assert!(!c.has_backup());
    }
}
