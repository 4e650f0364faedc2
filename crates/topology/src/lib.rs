//! # drqos-topology
//!
//! Network topologies and graph algorithms for the `drqos` workspace — the
//! in-repo replacement for the GT-ITM internetwork topology package the
//! paper uses to generate its evaluation networks.
//!
//! * [`graph`] — the undirected network [`graph::Graph`] with node
//!   coordinates.
//! * [`waxman`] — Waxman random graphs (the paper's "Random" networks),
//!   including calibration helpers that match the paper's reported
//!   statistics (100 nodes / 354 edges / average degree 3.48).
//! * [`transit_stub`] — hierarchical transit-stub networks (the paper's
//!   "Tier" model).
//! * [`regular`] — rings, grids, tori, complete graphs for tests and
//!   examples.
//! * [`paths`] — validated [`paths::Path`], BFS / Dijkstra searches
//!   with per-link feasibility filters.
//! * [`metrics`] — degree / diameter / average-hop statistics.
//!
//! # Example
//!
//! ```
//! use drqos_sim::rng::Rng;
//! use drqos_topology::{metrics, waxman};
//!
//! let mut rng = Rng::seed_from_u64(1);
//! let graph = waxman::paper_waxman(100).generate(&mut rng)?;
//! let summary = metrics::summarize(&graph);
//! assert_eq!(summary.nodes, 100);
//! assert!(metrics::is_connected(&graph));
//! # Ok::<(), drqos_topology::error::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod graph;
pub mod metrics;
pub mod paths;
pub mod regular;
pub mod transit_stub;
pub mod waxman;

pub use error::TopologyError;
pub use graph::{Graph, Link, LinkId, NodeId};
pub use metrics::TopologySummary;
pub use paths::Path;
pub use transit_stub::{TransitStub, TransitStubConfig};
pub use waxman::WaxmanConfig;
