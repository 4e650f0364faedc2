//! Structured invariant violations for [`crate::network::Network`].
//!
//! [`crate::network::Network::check_invariants`] recomputes all per-link
//! accounting from the connection table and returns every discrepancy as an
//! [`InvariantViolation`] instead of panicking on the first one, so a test
//! harness (in particular the `drqos-testkit` fuzzer) can report the whole
//! set of broken properties for one network state at once. The panicking
//! [`crate::network::Network::validate`] wrapper is kept for tests.

use crate::channel::ConnectionId;
use crate::qos::Bandwidth;
use drqos_topology::LinkId;
use std::fmt;

/// One violated network invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum InvariantViolation {
    /// The cached total primary bandwidth differs from the sum over the
    /// connection table.
    TotalBandwidthMismatch {
        /// The incrementally maintained total.
        cached: Bandwidth,
        /// The total recomputed from the connection table.
        recomputed: Bandwidth,
    },
    /// A connection's elastic level exceeds its QoS maximum.
    LevelAboveMax {
        /// The offending connection.
        conn: ConnectionId,
        /// Its current level.
        level: usize,
        /// The highest level its QoS allows.
        max: usize,
    },
    /// A backup path is identical to the connection's primary.
    BackupEqualsPrimary {
        /// The offending connection.
        conn: ConnectionId,
    },
    /// Under strict disjointness, a backup shares a link with its primary.
    BackupNotDisjoint {
        /// The offending connection.
        conn: ConnectionId,
    },
    /// Two backups of one connection share a link.
    BackupsNotMutuallyDisjoint {
        /// The offending connection.
        conn: ConnectionId,
    },
    /// A link's cached primary-minima sum disagrees with the recomputation.
    MinSumMismatch {
        /// The link.
        link: LinkId,
        /// The incrementally maintained sum.
        cached: Bandwidth,
        /// The sum recomputed from the connection table.
        recomputed: Bandwidth,
    },
    /// A link's cached extras sum disagrees with the recomputation.
    ExtraSumMismatch {
        /// The link.
        link: LinkId,
        /// The incrementally maintained sum.
        cached: Bandwidth,
        /// The sum recomputed from the connection table.
        recomputed: Bandwidth,
    },
    /// The set of primaries registered on a link disagrees with the
    /// connection table.
    PrimarySetMismatch {
        /// The link.
        link: LinkId,
    },
    /// A link's list of growable primaries is not exactly its primaries
    /// below their maximum level — one is missing, extra, listed twice or
    /// listed with the wrong slot — or their demand on it, or a
    /// connection's count in the table, is not their remaining bandwidth.
    GrowableSetMismatch {
        /// The link.
        link: LinkId,
    },
    /// The set of backups registered on a link disagrees with the
    /// connection table.
    BackupSetMismatch {
        /// The link.
        link: LinkId,
    },
    /// Allocated bandwidth (minima + extras) exceeds a link's capacity.
    CapacityExceeded {
        /// The link.
        link: LinkId,
        /// Minima + extras currently allocated.
        allocated: Bandwidth,
        /// The link's capacity.
        capacity: Bandwidth,
    },
    /// A link's cached multiplexed backup reservation disagrees with the
    /// recomputation from its conflict map.
    ReservationOutOfSync {
        /// The link.
        link: LinkId,
        /// The cached reservation.
        cached: Bandwidth,
        /// The reservation recomputed from the conflict map.
        recomputed: Bandwidth,
    },
    /// A link's backup-conflict ledger disagrees with the one recomputed
    /// from the connection table: for every backup on the link and every
    /// *other* link of its primary, that connection's minimum.
    ConflictLedgerMismatch {
        /// The link.
        link: LinkId,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::TotalBandwidthMismatch { cached, recomputed } => {
                write!(
                    f,
                    "total bandwidth out of sync: cached {cached}, recomputed {recomputed}"
                )
            }
            InvariantViolation::LevelAboveMax { conn, level, max } => {
                write!(f, "{conn} at level {level} beyond its QoS maximum {max}")
            }
            InvariantViolation::BackupEqualsPrimary { conn } => {
                write!(f, "{conn} has a backup identical to its primary")
            }
            InvariantViolation::BackupNotDisjoint { conn } => {
                write!(
                    f,
                    "{conn} backup shares a link with its primary under strict disjointness"
                )
            }
            InvariantViolation::BackupsNotMutuallyDisjoint { conn } => {
                write!(f, "{conn} has two backups sharing a link")
            }
            InvariantViolation::MinSumMismatch {
                link,
                cached,
                recomputed,
            } => write!(
                f,
                "min sum on {link} out of sync: cached {cached}, recomputed {recomputed}"
            ),
            InvariantViolation::ExtraSumMismatch {
                link,
                cached,
                recomputed,
            } => write!(
                f,
                "extra sum on {link} out of sync: cached {cached}, recomputed {recomputed}"
            ),
            InvariantViolation::PrimarySetMismatch { link } => {
                write!(f, "primary set on {link} out of sync")
            }
            InvariantViolation::GrowableSetMismatch { link } => {
                write!(f, "growable set on {link} out of sync")
            }
            InvariantViolation::BackupSetMismatch { link } => {
                write!(f, "backup set on {link} out of sync")
            }
            InvariantViolation::CapacityExceeded {
                link,
                allocated,
                capacity,
            } => write!(
                f,
                "allocation exceeds capacity on {link}: {allocated} > {capacity}"
            ),
            InvariantViolation::ReservationOutOfSync {
                link,
                cached,
                recomputed,
            } => write!(
                f,
                "backup reservation on {link} out of sync: cached {cached}, recomputed {recomputed}"
            ),
            InvariantViolation::ConflictLedgerMismatch { link } => {
                write!(f, "backup conflict ledger on {link} out of sync")
            }
        }
    }
}

/// Formats a violation list as a panic/report message, one per line.
pub(crate) fn format_violations(violations: &[InvariantViolation]) -> String {
    violations
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_subject() {
        let v = InvariantViolation::CapacityExceeded {
            link: LinkId(3),
            allocated: Bandwidth::kbps(900),
            capacity: Bandwidth::kbps(800),
        };
        let s = v.to_string();
        assert!(s.contains("l3") && s.contains("900") && s.contains("800"));
        let m = InvariantViolation::LevelAboveMax {
            conn: ConnectionId(7),
            level: 9,
            max: 4,
        };
        assert!(m.to_string().contains("c7"));
    }

    #[test]
    fn format_joins_lines() {
        let vs = vec![
            InvariantViolation::PrimarySetMismatch { link: LinkId(0) },
            InvariantViolation::BackupSetMismatch { link: LinkId(1) },
        ];
        let joined = format_violations(&vs);
        assert_eq!(joined.lines().count(), 2);
        assert!(joined.contains("l0") && joined.contains("l1"));
    }
}
