//! # drqos-cluster
//!
//! Multi-daemon federation for the dependable real-time communication
//! stack: N `drqosd`-style daemons form one logical network with a
//! single admission authority, a full replica on every member, and
//! daemon-level churn (JOIN / LEAVE / CRASH).
//!
//! The paper's D-connection model assumes one manager admitting every
//! channel, and the federation keeps exactly that: one **coordinator**
//! admits every request at one sequential point
//! ([`MemberOp::apply`], whose admission arm is
//! [`drqos_core::network::Network::admit`]) and appends it to an oplog of
//! [`MemberOp`]s; every **member** replays the log through the same
//! [`MemberOp::apply`] and is byte-identical to the authority at equal
//! sequence numbers. A member forwards its clients' admissions like any
//! other operation, one exchange each, and plans nothing itself.
//! `fuzz --diff-cluster` proves a whole fuzzed cluster run equals the
//! monolithic oracle, and the mutation self-tests prove the harness would
//! catch a lost oplog record.
//!
//! Modules:
//!
//! - [`coordinator`] — the commit authority and the oplog.
//! - [`member`] — a replica: oplog replay.
//! - [`sim`] — the in-process N-member cluster (tests and benches).
//! - [`proto`] — the inter-daemon wire messages (framing shared with
//!   the service's binary mode via [`drqos_core::framing`]).
//!
//! The TCP daemons themselves (`drqos-clusterd`) live in the service
//! crate, which layers sockets, timeouts, and the client protocol on
//! top of these clock-free, deterministic parts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod member;
pub mod proto;
pub mod sim;

pub use coordinator::{ApplyOutcome, Coordinator, MemberOp, Prepared};
pub use member::Member;
pub use proto::{ClusterMsg, CoordMsg, ProtoError, WireRequest};
pub use sim::{ClusterFault, ClusterSim};
