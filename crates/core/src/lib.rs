//! # drqos-core
//!
//! Dependable real-time communication with elastic QoS — a from-scratch
//! implementation of the system analyzed in:
//!
//! > Jong Kim and Kang G. Shin, *Performance Evaluation of Dependable
//! > Real-Time Communication with Elastic QoS*, Proc. IEEE/IFIP DSN 2001.
//!
//! Each **DR-connection** owns a primary channel and a link-disjoint backup
//! channel (the passive backup-channel scheme). Bandwidth reserved for
//! backups — and any other spare capacity — is lent at run time to primary
//! channels whose QoS is **elastic**: a `[B_min, B_max]` range walked in
//! increments of `Δ`. Arrivals, terminations, and failures trigger the
//! retreat/re-distribution dynamics whose steady state the paper models
//! with a Markov chain.
//!
//! ## Module map
//!
//! * [`qos`] — [`qos::Bandwidth`], the elastic range [`qos::ElasticQos`],
//!   and the adaptation policies.
//! * [`channel`] — [`channel::DrConnection`] (primary + backup + level).
//! * [`link_state`] — per-link accounting with multiplexed backup
//!   reservations.
//! * [`routing`] — the bounded-flooding emulation (the one route search)
//!   and its maximally-disjoint backup fallback.
//! * [`route_cache`] — the epoch/digest-validated admission route memo
//!   (toggled by `DRQOS_ROUTE_CACHE`).
//! * [`network`] — [`network::Network`], the manager, one file per stage
//!   of the paper's Section 3.1: `network.rs` (commit, termination,
//!   retreat, invariants) and its private children `network/plan.rs`
//!   (route search and the multiplexing check), `network/fill.rs`
//!   (re-distribution) and `network/fault.rs` (failure and repair).
//! * [`invariant`] — structured violations returned by
//!   [`network::Network::check_invariants`].
//! * [`snapshot`] — frozen per-link/per-connection views for reporting.
//! * [`workload`] — request generation.
//! * [`measure`] — estimation of the Markov-model parameters
//!   (`P_f`, `P_s`, `A`, `B`, `T`).
//! * [`experiment`] — the churn harness reproducing the paper's
//!   "detailed simulations".
//! * [`scenario`] — adversarial workloads (flash crowd, diurnal, Pareto
//!   holding) and correlated shared-risk-group failures.
//! * [`framing`] — length-prefixed binary framing primitives shared by
//!   the service wire mode and the inter-daemon cluster protocol.
//!
//! ## Quickstart
//!
//! ```
//! use drqos_core::network::{Network, NetworkConfig};
//! use drqos_core::qos::ElasticQos;
//! use drqos_topology::{regular, NodeId};
//!
//! let graph = regular::torus(4, 4)?;
//! let mut net = Network::new(graph, NetworkConfig::default());
//! let qos = ElasticQos::paper_video(50); // 100–500 Kbps, Δ = 50
//! let id = net.establish(NodeId(0), NodeId(10), qos)?;
//! let conn = net.connection(id).expect("just established");
//! assert!(conn.has_backup());
//! // Alone in the network, the channel enjoys its maximum QoS.
//! assert_eq!(conn.bandwidth().as_kbps(), 500);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
mod conn_table;
pub mod env;
pub mod error;
pub mod experiment;
pub mod framing;
pub mod invariant;
pub mod link_state;
pub mod measure;
pub mod network;
pub mod qos;
pub mod route_cache;
pub mod routing;
pub mod scenario;
pub mod shard;
pub mod snapshot;
pub mod wire;
pub mod workload;

pub use channel::{ConnectionId, DrConnection};
pub use error::{AdmissionError, ClusterError, NetworkError, QosError};
pub use experiment::{checked_mode, run_churn, ExperimentConfig, ExperimentReport};
pub use invariant::InvariantViolation;
pub use measure::{MeasuredParams, ParameterEstimator, RouteCacheStats};
pub use network::{EstablishPlan, EstablishRequest, FailureReport, Network, NetworkConfig};
pub use qos::{AdaptationPolicy, Bandwidth, ElasticQos};
pub use route_cache::RouteCache;
pub use routing::{BackupDisjointness, RouterKind};
pub use scenario::{register_seeded_srlgs, run_scenario_churn, Scenario, ScenarioKind};
pub use snapshot::NetworkSnapshot;
pub use workload::Workload;
