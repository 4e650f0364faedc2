//! Graph metrics reported by the paper: edge count, average degree,
//! diameter, and average hop count.
//!
//! The paper characterizes its headline topology as "100 nodes, 354 edges,
//! average degree of connection 3.48, average diameter 8"; these functions
//! let the benches verify the calibrated generators reproduce those
//! statistics.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Average node degree, `2·E / N`. Zero for an empty graph.
pub(crate) fn average_degree(graph: &Graph) -> f64 {
    if graph.node_count() == 0 {
        0.0
    } else {
        2.0 * graph.link_count() as f64 / graph.node_count() as f64
    }
}

/// Hop distances from `src` to every node (`None` = unreachable).
pub fn bfs_distances(graph: &Graph, src: NodeId) -> Vec<Option<usize>> {
    let mut dist = vec![None; graph.node_count()];
    let mut queue = VecDeque::new();
    dist[src.0] = Some(0);
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.0].expect("queued nodes have distances");
        for &(v, _) in graph.neighbors(u) {
            if dist[v.0].is_none() {
                dist[v.0] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Whether the graph is connected (vacuously true when empty).
pub fn is_connected(graph: &Graph) -> bool {
    if graph.node_count() == 0 {
        return true;
    }
    bfs_distances(graph, NodeId(0)).iter().all(Option::is_some)
}

/// The connected components, each a sorted list of nodes.
pub(crate) fn components(graph: &Graph) -> Vec<Vec<NodeId>> {
    let mut seen = vec![false; graph.node_count()];
    let mut out = Vec::new();
    for start in graph.nodes() {
        if seen[start.0] {
            continue;
        }
        let mut comp = Vec::new();
        let mut queue = VecDeque::new();
        seen[start.0] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            comp.push(u);
            for &(v, _) in graph.neighbors(u) {
                if !seen[v.0] {
                    seen[v.0] = true;
                    queue.push_back(v);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

/// The diameter (longest shortest path, in hops).
///
/// Returns `None` for an empty or disconnected graph.
pub fn diameter(graph: &Graph) -> Option<usize> {
    if graph.node_count() == 0 {
        return None;
    }
    let mut max = 0;
    for src in graph.nodes() {
        for d in bfs_distances(graph, src) {
            max = max.max(d?);
        }
    }
    Some(max)
}

/// Average shortest-path hop count over all ordered node pairs.
///
/// Returns `None` for a disconnected graph or fewer than two nodes.
pub fn average_hop_count(graph: &Graph) -> Option<f64> {
    let n = graph.node_count();
    if n < 2 {
        return None;
    }
    let mut total = 0usize;
    for src in graph.nodes() {
        for (i, d) in bfs_distances(graph, src).iter().enumerate() {
            if i != src.0 {
                total += (*d)?;
            }
        }
    }
    Some(total as f64 / (n * (n - 1)) as f64)
}

/// A compact statistical summary of a topology, as the paper reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySummary {
    /// Node count.
    pub nodes: usize,
    /// Link (edge) count.
    pub edges: usize,
    /// Average degree `2E/N`.
    pub average_degree: f64,
    /// Diameter in hops (`None` if disconnected).
    pub diameter: Option<usize>,
    /// Mean shortest-path hops (`None` if disconnected).
    pub average_hops: Option<f64>,
}

/// Computes a [`TopologySummary`] (O(N·E); fine for the ≤500-node graphs
/// used in the experiments).
pub fn summarize(graph: &Graph) -> TopologySummary {
    TopologySummary {
        nodes: graph.node_count(),
        edges: graph.link_count(),
        average_degree: average_degree(graph),
        diameter: diameter(graph),
        average_hops: average_hop_count(graph),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regular;

    #[test]
    fn average_degree_ring() {
        let g = regular::ring(10).unwrap();
        assert_eq!(average_degree(&g), 2.0);
    }

    #[test]
    fn average_degree_empty() {
        assert_eq!(average_degree(&Graph::new()), 0.0);
    }

    #[test]
    fn bfs_distances_line() {
        let g = regular::grid(1, 4).unwrap();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn connectivity() {
        let g = regular::ring(4).unwrap();
        assert!(is_connected(&g));
        let mut h = Graph::with_nodes(2);
        assert!(!is_connected(&h));
        h.add_link(NodeId(0), NodeId(1)).unwrap();
        assert!(is_connected(&h));
        assert!(is_connected(&Graph::new()));
    }

    #[test]
    fn components_split() {
        let mut g = Graph::with_nodes(5);
        g.add_link(NodeId(0), NodeId(1)).unwrap();
        g.add_link(NodeId(2), NodeId(3)).unwrap();
        let comps = components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(comps[1], vec![NodeId(2), NodeId(3)]);
        assert_eq!(comps[2], vec![NodeId(4)]);
    }

    #[test]
    fn diameter_ring() {
        let g = regular::ring(8).unwrap();
        assert_eq!(diameter(&g), Some(4));
    }

    #[test]
    fn diameter_disconnected_none() {
        let g = Graph::with_nodes(3);
        assert_eq!(diameter(&g), None);
        assert_eq!(average_hop_count(&g), None);
    }

    #[test]
    fn average_hops_complete() {
        let g = regular::complete(6).unwrap();
        assert_eq!(average_hop_count(&g), Some(1.0));
    }

    #[test]
    fn average_hops_line3() {
        // 0-1-2: distances 1,2,1,1,2,1 → avg 8/6.
        let g = regular::grid(1, 3).unwrap();
        let avg = average_hop_count(&g).unwrap();
        assert!((avg - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn summary_consistency() {
        let g = regular::torus(3, 3).unwrap();
        let s = summarize(&g);
        assert_eq!(s.nodes, 9);
        assert_eq!(s.edges, 18);
        assert_eq!(s.average_degree, 4.0);
        assert_eq!(s.diameter, Some(2));
        assert!(s.average_hops.unwrap() > 1.0);
    }
}
