//! The wire's two registries: the verb table and the stable error codes.
//!
//! ## Verbs
//!
//! [`VERBS`] is the one list of client verbs. The text grammar, the binary
//! client framing, the inter-daemon `OP` message and oplog records, the
//! metrics labels and both daemons' dispatch are all loops over its rows
//! (`drqos_service::{protocol, frame, metrics, engine, clusterd}`,
//! `drqos_cluster::proto`); SERVICE.md holds the documented copy, and a
//! test below fails when a row has no line there. Every verb that changes
//! state — `ESTABLISH` as much as a failure — is a [`Route::Forward`] row
//! and one `drqos_cluster::MemberOp`; a row differs from another only in
//! its operands and its reply.
//!
//! ## Error codes
//!
//! The `drqos-service` daemon reports failures as `ERR <code> <message>`
//! lines. The codes are assigned *here*, next to the error enums, through
//! exhaustive `match` expressions: adding a new variant to any of these
//! enums without assigning it a code is a compile error, so the wire
//! protocol can never silently ship an unnumbered failure.
//!
//! Code ranges (one block per error family, room to grow in each):
//!
//! | range   | family                                   |
//! |---------|------------------------------------------|
//! | 1–99    | protocol-level (reserved for the service) |
//! | 100–199 | [`QosError`]                             |
//! | 200–299 | [`AdmissionError`]                       |
//! | 300–399 | [`NetworkError`]                         |
//! | 400–499 | [`InvariantViolation`]                   |
//! | 500–599 | [`ClusterError`]                         |
//!
//! Codes are append-only: a published code never changes meaning, and
//! retired variants leave a hole rather than renumbering their successors.

use crate::error::{AdmissionError, ClusterError, NetworkError, QosError};
use crate::invariant::InvariantViolation;

/// One operand of a [`Verb`], by its name in the grammar. Every operand
/// is a non-negative integer: decimal in the text framing, a
/// little-endian `u64` in the binary ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A node, link or group index: must also fit `usize`.
    Index(&'static str),
    /// A plain `u64` (a connection id, a bandwidth in Kbps).
    Int(&'static str),
}

/// Where a member daemon of a federation serves a verb (the monolithic
/// daemon is its own commit authority and serves both kinds itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Forwarded as one `OP` message and committed at the coordinator's
    /// sequential point.
    Forward,
    /// Answered by the daemon that received it; never in the oplog.
    Local,
}

/// One client verb: a row of [`VERBS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verb {
    /// The uppercase verb of the text grammar.
    pub name: &'static str,
    /// The opcode of the binary client framing — and, private to a
    /// federation of one build, the tag of the verb's oplog record and of
    /// its `OP` message (`Forward` rows).
    pub opcode: u8,
    /// The operands, in wire order.
    pub operands: &'static [Operand],
    /// Who serves the verb in a federation.
    pub route: Route,
}

impl Verb {
    const fn row(
        name: &'static str,
        opcode: u8,
        operands: &'static [Operand],
        route: Route,
    ) -> Self {
        Self {
            name,
            opcode,
            operands,
            route,
        }
    }

    /// The verb's label in metrics reports (`FAIL-LINK` → `fail_link`).
    pub fn label(&self) -> String {
        self.name.to_ascii_lowercase().replace('-', "_")
    }
}

/// Most operands any row carries (the size of a decoded operand array).
pub const MAX_OPERANDS: usize = 5;

/// Every client verb, in metrics-report order (which is not opcode order:
/// the shared-risk verbs were numbered after the local ones). Opcodes are
/// append-only, like the error codes below.
pub const VERBS: &[Verb] = {
    use Operand::{Index, Int};
    const ESTABLISH: &[Operand] = &[
        Index("src"),
        Index("dst"),
        Int("bmin"),
        Int("bmax"),
        Int("delta"),
    ];
    &[
        Verb::row("ESTABLISH", 1, ESTABLISH, Route::Forward),
        Verb::row("RELEASE", 2, &[Int("id")], Route::Forward),
        Verb::row("FAIL-LINK", 3, &[Index("link")], Route::Forward),
        Verb::row("REPAIR-LINK", 4, &[Index("link")], Route::Forward),
        Verb::row("FAIL-NODE", 5, &[Index("node")], Route::Forward),
        Verb::row("FAIL-SRLG", 9, &[Index("group")], Route::Forward),
        Verb::row("REPAIR-SRLG", 10, &[Index("group")], Route::Forward),
        Verb::row("SNAPSHOT", 6, &[], Route::Local),
        Verb::row("STATS", 7, &[], Route::Local),
        Verb::row("SHUTDOWN", 8, &[], Route::Local),
    ]
};

/// The row of a verb name, if there is one.
pub fn verb_named(name: &str) -> Option<&'static Verb> {
    VERBS.iter().find(|v| v.name == name)
}

/// The row of an opcode (or record / `OP` tag), if there is one.
pub fn verb_coded(opcode: u8) -> Option<&'static Verb> {
    VERBS.iter().find(|v| v.opcode == opcode)
}

impl QosError {
    /// The stable wire code of this error (100–199).
    pub fn wire_code(&self) -> u16 {
        match self {
            QosError::ZeroMinimum => 100,
            QosError::MaxBelowMin => 101,
            QosError::ZeroIncrement => 102,
            QosError::IncrementDoesNotDivideRange => 103,
            QosError::InvalidUtility(_) => 104,
        }
    }
}

impl AdmissionError {
    /// The stable wire code of this error (200–299).
    pub fn wire_code(&self) -> u16 {
        match self {
            AdmissionError::UnknownNode(_) => 200,
            AdmissionError::SameEndpoints(_) => 201,
            AdmissionError::NoPrimaryRoute => 202,
            AdmissionError::NoBackupRoute => 203,
        }
    }
}

impl NetworkError {
    /// The stable wire code of this error (300–399).
    pub fn wire_code(&self) -> u16 {
        match self {
            NetworkError::UnknownConnection(_) => 300,
            NetworkError::UnknownLink(_) => 301,
            NetworkError::LinkStateUnchanged(_) => 302,
            NetworkError::UnknownNode(_) => 303,
            NetworkError::NodeAlreadyDown(_) => 304,
            NetworkError::UnknownSrlg(_) => 305,
            NetworkError::SrlgStateUnchanged(_) => 306,
        }
    }
}

impl InvariantViolation {
    /// The stable wire code of this violation (400–499).
    pub fn wire_code(&self) -> u16 {
        match self {
            InvariantViolation::TotalBandwidthMismatch { .. } => 400,
            InvariantViolation::LevelAboveMax { .. } => 401,
            InvariantViolation::BackupEqualsPrimary { .. } => 402,
            InvariantViolation::BackupNotDisjoint { .. } => 403,
            InvariantViolation::BackupsNotMutuallyDisjoint { .. } => 404,
            InvariantViolation::MinSumMismatch { .. } => 405,
            InvariantViolation::ExtraSumMismatch { .. } => 406,
            InvariantViolation::PrimarySetMismatch { .. } => 407,
            InvariantViolation::BackupSetMismatch { .. } => 408,
            InvariantViolation::CapacityExceeded { .. } => 409,
            // The ledger and the maximum cached over it are one subject
            // on the wire.
            InvariantViolation::ReservationOutOfSync { .. }
            | InvariantViolation::ConflictLedgerMismatch { .. } => 410,
        }
    }
}

impl ClusterError {
    /// The stable wire code of this error (500–599).
    pub fn wire_code(&self) -> u16 {
        match self {
            ClusterError::UnknownMember(_) => 500,
            ClusterError::DuplicateMember(_) => 501,
            ClusterError::LastMember(_) => 502,
            ClusterError::StalePrepare(_) => 503,
            ClusterError::CoordinatorLinkDown => 504,
            ClusterError::SequenceGap(_) => 505,
        }
    }
}

/// Every assigned wire code with a short stable description, in code
/// order. Protocol-level codes (1–99) belong to the service crate and are
/// not listed here.
pub(crate) const WIRE_CODES: &[(u16, &str)] = &[
    (100, "qos: zero minimum"),
    (101, "qos: maximum below minimum"),
    (102, "qos: zero increment"),
    (103, "qos: increment does not divide range"),
    (104, "qos: invalid utility"),
    (200, "admission: unknown node"),
    (201, "admission: same endpoints"),
    (202, "admission: no primary route"),
    (203, "admission: no backup route"),
    (300, "network: unknown connection"),
    (301, "network: unknown link"),
    (302, "network: link state unchanged"),
    (303, "network: unknown node"),
    (304, "network: node already down"),
    (305, "network: unknown shared-risk group"),
    (306, "network: shared-risk group state unchanged"),
    (400, "invariant: total bandwidth mismatch"),
    (401, "invariant: level above max"),
    (402, "invariant: backup equals primary"),
    (403, "invariant: backup not disjoint"),
    (404, "invariant: backups not mutually disjoint"),
    (405, "invariant: min sum mismatch"),
    (406, "invariant: extra sum mismatch"),
    (407, "invariant: primary set mismatch"),
    (408, "invariant: backup set mismatch"),
    (409, "invariant: capacity exceeded"),
    (410, "invariant: reservation out of sync"),
    (500, "cluster: unknown member"),
    (501, "cluster: duplicate member"),
    (502, "cluster: last member cannot leave"),
    (503, "cluster: stale prepare"),
    (504, "cluster: coordinator link down"),
    (505, "cluster: sequence gap"),
];

/// The stable description of a wire code, or `None` for an unassigned
/// code.
pub fn describe(code: u16) -> Option<&'static str> {
    WIRE_CODES
        .binary_search_by_key(&code, |&(c, _)| c)
        .ok()
        .map(|i| WIRE_CODES[i].1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use samples::*;

    /// Sample instances covering *every* variant of every wired enum. The
    /// `wire_code` matches above are exhaustive (the enums are defined in
    /// this crate, so `#[non_exhaustive]` does not add a wildcard arm):
    /// adding a variant breaks compilation there first, and then fails
    /// this module until the sample list and [`WIRE_CODES`] follow.
    mod samples {
        use crate::channel::ConnectionId;
        use crate::error::{AdmissionError, ClusterError, NetworkError, QosError};
        use crate::invariant::InvariantViolation;
        use crate::qos::Bandwidth;
        use drqos_topology::{LinkId, NodeId};

        pub fn qos_samples() -> Vec<QosError> {
            vec![
                QosError::ZeroMinimum,
                QosError::MaxBelowMin,
                QosError::ZeroIncrement,
                QosError::IncrementDoesNotDivideRange,
                QosError::InvalidUtility(-1.0),
            ]
        }

        pub fn admission_samples() -> Vec<AdmissionError> {
            vec![
                AdmissionError::UnknownNode(NodeId(0)),
                AdmissionError::SameEndpoints(NodeId(0)),
                AdmissionError::NoPrimaryRoute,
                AdmissionError::NoBackupRoute,
            ]
        }

        pub fn network_samples() -> Vec<NetworkError> {
            vec![
                NetworkError::UnknownConnection(0),
                NetworkError::UnknownLink(LinkId(0)),
                NetworkError::LinkStateUnchanged(LinkId(0)),
                NetworkError::UnknownNode(NodeId(0)),
                NetworkError::NodeAlreadyDown(NodeId(0)),
                NetworkError::UnknownSrlg(0),
                NetworkError::SrlgStateUnchanged(0),
            ]
        }

        pub fn invariant_samples() -> Vec<InvariantViolation> {
            let bw = Bandwidth::kbps(1);
            let link = LinkId(0);
            let conn = ConnectionId(0);
            vec![
                InvariantViolation::TotalBandwidthMismatch {
                    cached: bw,
                    recomputed: bw,
                },
                InvariantViolation::LevelAboveMax {
                    conn,
                    level: 1,
                    max: 0,
                },
                InvariantViolation::BackupEqualsPrimary { conn },
                InvariantViolation::BackupNotDisjoint { conn },
                InvariantViolation::BackupsNotMutuallyDisjoint { conn },
                InvariantViolation::MinSumMismatch {
                    link,
                    cached: bw,
                    recomputed: bw,
                },
                InvariantViolation::ExtraSumMismatch {
                    link,
                    cached: bw,
                    recomputed: bw,
                },
                InvariantViolation::PrimarySetMismatch { link },
                InvariantViolation::BackupSetMismatch { link },
                InvariantViolation::CapacityExceeded {
                    link,
                    allocated: bw,
                    capacity: bw,
                },
                InvariantViolation::ReservationOutOfSync {
                    link,
                    cached: bw,
                    recomputed: bw,
                },
            ]
        }

        pub fn cluster_samples() -> Vec<ClusterError> {
            vec![
                ClusterError::UnknownMember(0),
                ClusterError::DuplicateMember(0),
                ClusterError::LastMember(0),
                ClusterError::StalePrepare(0),
                ClusterError::CoordinatorLinkDown,
                ClusterError::SequenceGap(0),
            ]
        }
    }

    fn all_sample_codes() -> Vec<u16> {
        let mut codes: Vec<u16> = Vec::new();
        codes.extend(qos_samples().iter().map(QosError::wire_code));
        codes.extend(admission_samples().iter().map(AdmissionError::wire_code));
        codes.extend(network_samples().iter().map(NetworkError::wire_code));
        codes.extend(
            invariant_samples()
                .iter()
                .map(InvariantViolation::wire_code),
        );
        codes.extend(cluster_samples().iter().map(ClusterError::wire_code));
        codes
    }

    #[test]
    fn every_variant_round_trips_through_the_code_table() {
        let codes = all_sample_codes();
        // Every variant's code resolves to a description...
        for code in &codes {
            assert!(
                describe(*code).is_some(),
                "code {code} missing from WIRE_CODES"
            );
        }
        // ...and every table entry is reachable from some variant, so the
        // table and the enums cannot drift apart in either direction.
        for (code, desc) in WIRE_CODES {
            assert!(
                codes.contains(code),
                "WIRE_CODES entry {code} ({desc}) matches no variant"
            );
        }
        assert_eq!(codes.len(), WIRE_CODES.len());
    }

    #[test]
    fn codes_are_unique_and_in_family_ranges() {
        let codes = all_sample_codes();
        let unique: std::collections::BTreeSet<u16> = codes.iter().copied().collect();
        assert_eq!(unique.len(), codes.len(), "duplicate wire code assigned");
        for q in qos_samples() {
            assert!((100..200).contains(&q.wire_code()));
        }
        for a in admission_samples() {
            assert!((200..300).contains(&a.wire_code()));
        }
        for n in network_samples() {
            assert!((300..400).contains(&n.wire_code()));
        }
        for v in invariant_samples() {
            assert!((400..500).contains(&v.wire_code()));
        }
        for c in cluster_samples() {
            assert!((500..600).contains(&c.wire_code()));
        }
    }

    #[test]
    fn verb_rows_are_unambiguous_and_fill_opcodes_one_to_ten() {
        for v in VERBS {
            assert_eq!(verb_named(v.name), Some(v), "{} is not unique", v.name);
            assert_eq!(verb_coded(v.opcode), Some(v), "opcode of {}", v.name);
            assert!(v.operands.len() <= MAX_OPERANDS, "{}", v.name);
        }
        let mut opcodes: Vec<u8> = VERBS.iter().map(|v| v.opcode).collect();
        opcodes.sort_unstable();
        assert_eq!(opcodes, (1..=10).collect::<Vec<u8>>());
        assert!(VERBS.iter().any(|v| v.operands.len() == MAX_OPERANDS));
        assert_eq!(verb_named("FAIL-LINK").unwrap().label(), "fail_link");
        assert_eq!(verb_named("fail-link"), None, "verbs are case-sensitive");
    }

    /// SERVICE.md's verb table is the one documented copy; every row of
    /// [`VERBS`] must have its line there, cell for cell.
    #[test]
    fn every_verb_row_is_documented_in_service_md() {
        let doc = include_str!("../../../SERVICE.md");
        for v in VERBS {
            let operands: Vec<&str> = v
                .operands
                .iter()
                .map(|&(Operand::Index(name) | Operand::Int(name))| name)
                .collect();
            let dash = || "—".to_string();
            let tag = match v.route {
                Route::Forward => v.opcode.to_string(),
                Route::Local => dash(),
            };
            let line = format!(
                "| `{}` | {} | {} | {} | `{}` | {} | {} |",
                v.name,
                v.opcode,
                if operands.is_empty() {
                    dash()
                } else {
                    operands.join(", ")
                },
                match v.route {
                    Route::Forward => "forwarded",
                    Route::Local => "local",
                },
                v.label(),
                tag,
                tag,
            );
            assert!(doc.contains(&line), "SERVICE.md is missing the row\n{line}");
        }
    }

    #[test]
    fn table_is_sorted_for_binary_search() {
        for w in WIRE_CODES.windows(2) {
            assert!(w[0].0 < w[1].0, "WIRE_CODES out of order at {}", w[1].0);
        }
        assert_eq!(describe(100), Some("qos: zero minimum"));
        assert_eq!(describe(999), None);
    }
}
