//! Regular (deterministic) topologies.
//!
//! These are not used by the paper's experiments (which use random Waxman
//! and transit-stub graphs) but are invaluable for unit tests, examples, and
//! the regular-topology case the paper mentions in Section 3.3, where the
//! chaining probabilities "depend solely on the network topology".

use crate::error::TopologyError;
use crate::graph::{Graph, NodeId};

/// A ring of `n ≥ 3` nodes.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidParameter`] if `n < 3`.
pub fn ring(n: usize) -> Result<Graph, TopologyError> {
    if n < 3 {
        return Err(TopologyError::InvalidParameter(format!(
            "ring requires at least 3 nodes, got {n}"
        )));
    }
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        g.add_link(NodeId(i), NodeId((i + 1) % n))?;
    }
    Ok(g)
}

/// An `rows × cols` grid (mesh). Node `(r, c)` has index `r * cols + c`.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidParameter`] if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Result<Graph, TopologyError> {
    if rows == 0 || cols == 0 {
        return Err(TopologyError::InvalidParameter(
            "grid dimensions must be positive".into(),
        ));
    }
    let mut g = Graph::with_nodes(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let id = NodeId(r * cols + c);
            if c + 1 < cols {
                g.add_link(id, NodeId(r * cols + c + 1))?;
            }
            if r + 1 < rows {
                g.add_link(id, NodeId((r + 1) * cols + c))?;
            }
        }
    }
    Ok(g)
}

/// An `rows × cols` torus (grid with wrap-around links).
///
/// # Errors
///
/// Returns [`TopologyError::InvalidParameter`] unless both dimensions are
/// at least 3 (smaller tori would create duplicate links).
pub fn torus(rows: usize, cols: usize) -> Result<Graph, TopologyError> {
    if rows < 3 || cols < 3 {
        return Err(TopologyError::InvalidParameter(
            "torus dimensions must be at least 3".into(),
        ));
    }
    let mut g = Graph::with_nodes(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let id = NodeId(r * cols + c);
            g.add_link(id, NodeId(r * cols + (c + 1) % cols))?;
            g.add_link(id, NodeId(((r + 1) % rows) * cols + c))?;
        }
    }
    Ok(g)
}

/// The complete graph on `n ≥ 2` nodes.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidParameter`] if `n < 2`.
pub fn complete(n: usize) -> Result<Graph, TopologyError> {
    if n < 2 {
        return Err(TopologyError::InvalidParameter(format!(
            "complete graph requires at least 2 nodes, got {n}"
        )));
    }
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        for j in i + 1..n {
            g.add_link(NodeId(i), NodeId(j))?;
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn ring_counts() {
        let g = ring(5).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.link_count(), 5);
        assert!(g.nodes().all(|n| g.degree(n) == 2));
        assert!(metrics::is_connected(&g));
    }

    #[test]
    fn ring_too_small() {
        assert!(ring(2).is_err());
    }

    #[test]
    fn grid_counts() {
        let g = grid(3, 4).unwrap();
        assert_eq!(g.node_count(), 12);
        // Horizontal: 3*3, vertical: 2*4.
        assert_eq!(g.link_count(), 9 + 8);
        assert!(metrics::is_connected(&g));
    }

    #[test]
    fn grid_rejects_zero() {
        assert!(grid(0, 3).is_err());
        assert!(grid(3, 0).is_err());
    }

    #[test]
    fn torus_is_regular_degree_4() {
        let g = torus(3, 4).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.link_count(), 24);
        assert!(g.nodes().all(|n| g.degree(n) == 4));
    }

    #[test]
    fn torus_rejects_small() {
        assert!(torus(2, 3).is_err());
        assert!(torus(3, 2).is_err());
    }

    #[test]
    fn complete_counts() {
        let g = complete(5).unwrap();
        assert_eq!(g.link_count(), 10);
        assert_eq!(metrics::diameter(&g), Some(1));
    }

    #[test]
    fn complete_too_small() {
        assert!(complete(1).is_err());
    }
}
