//! # drqos-cluster
//!
//! Multi-daemon federation for the dependable real-time communication
//! stack: N `drqosd`-style daemons form one logical network with a
//! single admission authority, partitioned planning, and daemon-level
//! churn (JOIN / LEAVE / CRASH).
//!
//! The paper's D-connection model assumes one manager admitting every
//! channel. This crate scales that manager out the same way
//! [`drqos_core::shard`] scales it across threads: each **member** owns
//! one partition of the topology ([`rebalance::Assignment`], reusing
//! [`drqos_topology::Partition`]), plans admissions for its own sources
//! locally against a full replica of the network, and commits through
//! the **coordinator**'s two-phase ledger — reserve the footprint,
//! revalidate its digests, commit or replan serially. Every committed
//! operation lands in an oplog that replicas replay
//! ([`coordinator::apply_committed`]), keeping them byte-identical to
//! the authority; `fuzz --diff-cluster` proves a whole fuzzed cluster
//! run equals the monolithic oracle, and the mutation self-tests prove
//! the harness would catch a lost prepare.
//!
//! Modules:
//!
//! - [`rebalance`] — deterministic survivor partitioning after churn.
//! - [`coordinator`] — the commit authority, ledger, and oplog.
//! - [`member`] — a replica: local planning plus oplog replay.
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
pub mod rebalance;
pub mod sim;

pub use coordinator::{ApplyOutcome, CommittedOp, Coordinator, MemberOp, Prepared};
pub use member::Member;
pub use proto::{ClusterMsg, CoordMsg, ProtoError, WireRequest};
pub use rebalance::Assignment;
pub use sim::{ClusterFault, ClusterSim};

/// Default partition seed for cluster assignments (distinct from the
/// sharded engine's [`drqos_core::shard::DEFAULT_PARTITION_SEED`] so the
/// two layers never accidentally share a cut).
pub const DEFAULT_CLUSTER_SEED: u64 = 0x5EED_C105;
