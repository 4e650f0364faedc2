//! Error types for the DR-connection network manager.

use drqos_topology::{LinkId, NodeId};
use std::fmt;

/// Errors raised when constructing QoS specifications.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QosError {
    /// The minimum bandwidth was zero.
    ZeroMinimum,
    /// `max < min`.
    MaxBelowMin,
    /// The increment was zero while `max > min`.
    ZeroIncrement,
    /// `(max − min)` is not an integral multiple of the increment, which
    /// the paper assumes ("the interval between the minimum and the maximum
    /// resources is an integral multiple of the increment size").
    IncrementDoesNotDivideRange,
    /// The utility/coefficient was not finite and positive.
    InvalidUtility(f64),
}

impl fmt::Display for QosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosError::ZeroMinimum => write!(f, "minimum bandwidth must be positive"),
            QosError::MaxBelowMin => write!(f, "maximum bandwidth is below the minimum"),
            QosError::ZeroIncrement => {
                write!(f, "increment must be positive for an elastic range")
            }
            QosError::IncrementDoesNotDivideRange => {
                write!(
                    f,
                    "bandwidth range is not an integral multiple of the increment"
                )
            }
            QosError::InvalidUtility(u) => {
                write!(f, "utility must be finite and positive, got {u}")
            }
        }
    }
}

impl std::error::Error for QosError {}

/// Why a DR-connection request was rejected.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AdmissionError {
    /// Source or destination is not a node of the network.
    UnknownNode(NodeId),
    /// Source and destination coincide.
    SameEndpoints(NodeId),
    /// No route with enough bandwidth for the minimum QoS exists.
    NoPrimaryRoute,
    /// A primary route exists but no link-disjoint backup with sufficient
    /// (multiplexed) reservation could be found.
    NoBackupRoute,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::UnknownNode(n) => write!(f, "unknown node {n}"),
            AdmissionError::SameEndpoints(n) => {
                write!(f, "source and destination are both {n}")
            }
            AdmissionError::NoPrimaryRoute => {
                write!(f, "no feasible primary route (insufficient bandwidth)")
            }
            AdmissionError::NoBackupRoute => {
                write!(f, "no feasible link-disjoint backup route")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Errors from operations on an existing network.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetworkError {
    /// No connection with this id exists.
    UnknownConnection(u64),
    /// The link id is not part of the network graph.
    UnknownLink(LinkId),
    /// The link is already in the requested up/down state.
    LinkStateUnchanged(LinkId),
    /// The node id is not part of the network graph.
    UnknownNode(NodeId),
    /// Every link adjacent to the node is already down, so failing the
    /// node changes nothing.
    NodeAlreadyDown(NodeId),
    /// No shared-risk link group with this id was registered.
    UnknownSrlg(usize),
    /// Every member link of the group is already in the requested up/down
    /// state, so firing the group event changes nothing.
    SrlgStateUnchanged(usize),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::UnknownConnection(id) => write!(f, "unknown connection c{id}"),
            NetworkError::UnknownLink(l) => write!(f, "unknown link {l}"),
            NetworkError::LinkStateUnchanged(l) => {
                write!(f, "link {l} is already in the requested state")
            }
            NetworkError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetworkError::NodeAlreadyDown(n) => {
                write!(f, "node {n} has no up links left to fail")
            }
            NetworkError::UnknownSrlg(g) => write!(f, "unknown shared-risk group g{g}"),
            NetworkError::SrlgStateUnchanged(g) => {
                write!(
                    f,
                    "shared-risk group g{g} is already in the requested state"
                )
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// Errors from the multi-daemon cluster layer (membership and the
/// two-phase inter-daemon commit protocol). Defined here so the wire
/// code table in [`crate::wire`] covers them exhaustively; the cluster
/// engine itself lives in the `drqos-cluster` crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The member id is not part of the cluster roster.
    UnknownMember(u64),
    /// A `JOIN` named a member id that is already alive.
    DuplicateMember(u64),
    /// A `LEAVE`/`CRASH` would remove the last live member; a cluster
    /// always keeps at least one admission authority.
    LastMember(u64),
    /// A `COMMIT` named a prepare ticket that is not the sender's to
    /// commit: no longer pending (it was aborted, typically because its
    /// member crashed mid-two-phase), or opened by another member.
    StalePrepare(u64),
    /// A coordinator exchange failed or did not finish within the
    /// member's two-second link timeout; the member gives the link up.
    PrepareTimeout(u64),
    /// A replica asked for oplog records past the coordinator's current
    /// sequence number.
    SequenceGap(u64),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownMember(m) => write!(f, "unknown cluster member m{m}"),
            ClusterError::DuplicateMember(m) => {
                write!(f, "cluster member m{m} is already alive")
            }
            ClusterError::LastMember(m) => {
                write!(f, "member m{m} is the last live member and cannot leave")
            }
            ClusterError::StalePrepare(t) => {
                write!(f, "prepare ticket {t} is no longer pending")
            }
            ClusterError::PrepareTimeout(t) => {
                write!(f, "prepare ticket {t} timed out awaiting the coordinator")
            }
            ClusterError::SequenceGap(s) => {
                write!(f, "requested oplog records past sequence {s}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_error_display() {
        assert!(QosError::ZeroMinimum.to_string().contains("positive"));
        assert!(QosError::MaxBelowMin.to_string().contains("below"));
        assert!(QosError::ZeroIncrement.to_string().contains("increment"));
        assert!(QosError::IncrementDoesNotDivideRange
            .to_string()
            .contains("integral multiple"));
        assert!(QosError::InvalidUtility(f64::NAN)
            .to_string()
            .contains("utility"));
    }

    #[test]
    fn admission_error_display() {
        assert!(AdmissionError::UnknownNode(NodeId(3))
            .to_string()
            .contains("n3"));
        assert!(AdmissionError::SameEndpoints(NodeId(1))
            .to_string()
            .contains("n1"));
        assert!(AdmissionError::NoPrimaryRoute
            .to_string()
            .contains("primary"));
        assert!(AdmissionError::NoBackupRoute.to_string().contains("backup"));
    }

    #[test]
    fn network_error_display() {
        assert!(NetworkError::UnknownConnection(7)
            .to_string()
            .contains("c7"));
        assert!(NetworkError::UnknownLink(LinkId(2))
            .to_string()
            .contains("l2"));
        assert!(NetworkError::LinkStateUnchanged(LinkId(2))
            .to_string()
            .contains("already"));
        assert!(NetworkError::UnknownNode(NodeId(4))
            .to_string()
            .contains("n4"));
        assert!(NetworkError::NodeAlreadyDown(NodeId(5))
            .to_string()
            .contains("n5"));
        assert!(NetworkError::UnknownSrlg(3).to_string().contains("g3"));
        assert!(NetworkError::SrlgStateUnchanged(2)
            .to_string()
            .contains("already"));
    }

    #[test]
    fn cluster_error_display() {
        assert!(ClusterError::UnknownMember(3).to_string().contains("m3"));
        assert!(ClusterError::DuplicateMember(1)
            .to_string()
            .contains("already alive"));
        assert!(ClusterError::LastMember(0).to_string().contains("last"));
        assert!(ClusterError::StalePrepare(9)
            .to_string()
            .contains("no longer pending"));
        assert!(ClusterError::PrepareTimeout(4)
            .to_string()
            .contains("timed out"));
        assert!(ClusterError::SequenceGap(7).to_string().contains("oplog"));
    }
}
