//! Paths and shortest-path algorithms.
//!
//! Provides the [`Path`] type (a validated walk through the graph) plus
//! breadth-first and Dijkstra searches with per-link feasibility filters —
//! the building blocks of the route-selection schemes in `drqos-core`.

use crate::error::TopologyError;
use crate::graph::{Graph, LinkId, NodeId};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A simple path through a graph: a node sequence plus the links between
/// consecutive nodes.
///
/// Invariants (enforced by [`Path::from_nodes`]):
/// * at least one node;
/// * consecutive nodes are adjacent in the graph;
/// * no repeated nodes (simple path).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
}

impl Path {
    /// Builds a path from a node sequence, validating adjacency against `graph`.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::InvalidParameter`] if the sequence is empty,
    ///   repeats a node, or two consecutive nodes are not adjacent.
    pub fn from_nodes(graph: &Graph, nodes: Vec<NodeId>) -> Result<Self, TopologyError> {
        if nodes.is_empty() {
            return Err(TopologyError::InvalidParameter(
                "path must contain at least one node".into(),
            ));
        }
        if has_repeat(&nodes) {
            return Err(TopologyError::InvalidParameter(
                "path must not repeat nodes".into(),
            ));
        }
        let mut links = Vec::with_capacity(nodes.len().saturating_sub(1));
        for w in nodes.windows(2) {
            let link = graph.link_between(w[0], w[1]).ok_or_else(|| {
                TopologyError::InvalidParameter(format!("{} and {} are not adjacent", w[0], w[1]))
            })?;
            links.push(link);
        }
        Ok(Self { nodes, links })
    }

    /// The node sequence, source first.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The links traversed, in order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The destination node.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("path is non-empty") // lint:allow(panic-reachability): Path construction guarantees a non-empty node list
    }

    /// Number of links (hops).
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Whether this path traverses `link`.
    pub fn crosses(&self, link: LinkId) -> bool {
        self.links.contains(&link)
    }

    /// Whether this path and `other` share at least one link.
    pub(crate) fn shares_link_with(&self, other: &Path) -> bool {
        other.links.iter().any(|&l| self.crosses(l))
    }

    /// Whether this path and `other` have no link in common.
    pub fn is_link_disjoint(&self, other: &Path) -> bool {
        !self.shares_link_with(other)
    }
}

/// Whether `nodes` names a node twice. Routes are at most a diameter plus
/// slack long, where comparing every pair beats hashing; a long sequence
/// is checked on a sorted copy instead.
fn has_repeat(nodes: &[NodeId]) -> bool {
    const SCAN_LIMIT: usize = 32;
    if nodes.len() <= SCAN_LIMIT {
        return (1..nodes.len()).any(|i| nodes[..i].contains(&nodes[i]));
    }
    let mut sorted = nodes.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).any(|w| w[0] == w[1])
}

/// A per-link admission filter used by the searches: return `false` to make
/// a link impassable (down, or without enough spare bandwidth).
pub type LinkFilter<'a> = dyn Fn(LinkId) -> bool + 'a;

/// Breadth-first (fewest-hops) shortest path from `src` to `dst`, traversing
/// only links accepted by `filter`.
///
/// Returns `None` if `dst` is unreachable. With equal hop counts the path
/// found follows adjacency-list order, which is deterministic for a given
/// graph construction order.
///
/// # Panics
///
/// Panics if `src` or `dst` are not nodes of `graph`.
pub fn bfs_path(graph: &Graph, src: NodeId, dst: NodeId, filter: &LinkFilter) -> Option<Path> {
    assert!(graph.contains_node(src) && graph.contains_node(dst));
    if src == dst {
        return Path::from_nodes(graph, vec![src]).ok();
    }
    let mut prev: Vec<Option<NodeId>> = vec![None; graph.node_count()];
    let mut queue = VecDeque::from([src]);
    prev[src.0] = Some(src);
    while let Some(u) = queue.pop_front() {
        for &(v, l) in graph.neighbors(u) {
            if !filter(l) || prev[v.0].is_some() {
                continue;
            }
            prev[v.0] = Some(u);
            if v == dst {
                let mut nodes = vec![dst];
                let mut cur = dst;
                while cur != src {
                    cur = prev[cur.0]?;
                    nodes.push(cur);
                }
                nodes.reverse();
                return Path::from_nodes(graph, nodes).ok();
            }
            queue.push_back(v);
        }
    }
    None
}

#[derive(Debug, PartialEq)]
struct HeapItem {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by cost; tie-break on node id for determinism.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Dijkstra shortest path with a per-link weight function and feasibility
/// filter.
///
/// `weight` must return a non-negative, finite cost for each link; links
/// rejected by `filter` are skipped entirely. Returns `None` if `dst` is
/// unreachable.
///
/// # Panics
///
/// Panics if `src`/`dst` are invalid, or if `weight` returns a negative or
/// non-finite cost (checked per traversed link).
pub fn dijkstra_path(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    weight: &dyn Fn(LinkId) -> f64,
    filter: &LinkFilter,
) -> Option<Path> {
    assert!(graph.contains_node(src) && graph.contains_node(dst));
    if src == dst {
        return Path::from_nodes(graph, vec![src]).ok();
    }
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.0] = 0.0;
    heap.push(HeapItem {
        cost: 0.0,
        node: src,
    });
    while let Some(HeapItem { cost, node: u }) = heap.pop() {
        if cost > dist[u.0] {
            continue;
        }
        if u == dst {
            break;
        }
        for &(v, l) in graph.neighbors(u) {
            if !filter(l) {
                continue;
            }
            let w = weight(l);
            assert!(
                w.is_finite() && w >= 0.0,
                "link weight must be finite and non-negative, got {w} for {l}"
            );
            let next = cost + w;
            if next < dist[v.0] {
                dist[v.0] = next;
                prev[v.0] = Some(u);
                heap.push(HeapItem {
                    cost: next,
                    node: v,
                });
            }
        }
    }
    if dist[dst.0].is_infinite() {
        return None;
    }
    let mut nodes = vec![dst];
    let mut cur = dst;
    while let Some(p) = prev[cur.0] {
        nodes.push(p);
        cur = p;
        if cur == src {
            break;
        }
    }
    nodes.reverse();
    Path::from_nodes(graph, nodes).ok()
}

/// Accept-everything link filter.
pub fn pass_all(_: LinkId) -> bool {
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regular;

    /// 0-1-2-3 line plus a 0-4-3 detour.
    fn diamond() -> Graph {
        let mut g = Graph::with_nodes(5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)] {
            g.add_link(NodeId(a), NodeId(b)).unwrap();
        }
        g
    }

    #[test]
    fn path_from_nodes_validates_adjacency() {
        let g = diamond();
        assert!(Path::from_nodes(&g, vec![NodeId(0), NodeId(2)]).is_err());
        let p = Path::from_nodes(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.destination(), NodeId(2));
    }

    #[test]
    fn path_rejects_empty_and_repeats() {
        let g = diamond();
        assert!(Path::from_nodes(&g, vec![]).is_err());
        assert!(Path::from_nodes(&g, vec![NodeId(0), NodeId(1), NodeId(0)]).is_err());
    }

    #[test]
    fn singleton_path_is_valid() {
        let g = diamond();
        let p = Path::from_nodes(&g, vec![NodeId(2)]).unwrap();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.source(), p.destination());
    }

    #[test]
    fn bfs_finds_fewest_hops() {
        let g = diamond();
        let p = bfs_path(&g, NodeId(0), NodeId(3), &pass_all).unwrap();
        assert_eq!(p.hop_count(), 2); // 0-4-3
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(4), NodeId(3)]);
    }

    #[test]
    fn bfs_respects_filter() {
        let g = diamond();
        let l04 = g.link_between(NodeId(0), NodeId(4)).unwrap();
        let p = bfs_path(&g, NodeId(0), NodeId(3), &|l| l != l04).unwrap();
        assert_eq!(p.hop_count(), 3); // forced onto 0-1-2-3
    }

    #[test]
    fn bfs_unreachable_is_none() {
        let mut g = diamond();
        let iso = g.add_node();
        assert!(bfs_path(&g, NodeId(0), iso, &pass_all).is_none());
    }

    #[test]
    fn bfs_src_equals_dst() {
        let g = diamond();
        let p = bfs_path(&g, NodeId(1), NodeId(1), &pass_all).unwrap();
        assert_eq!(p.hop_count(), 0);
    }

    #[test]
    fn dijkstra_unit_weights_matches_bfs_length() {
        let g = regular::grid(4, 4).unwrap();
        let src = NodeId(0);
        let dst = NodeId(15);
        let b = bfs_path(&g, src, dst, &pass_all).unwrap();
        let d = dijkstra_path(&g, src, dst, &|_| 1.0, &pass_all).unwrap();
        assert_eq!(b.hop_count(), d.hop_count());
    }

    #[test]
    fn dijkstra_prefers_cheap_detour() {
        let g = diamond();
        let l04 = g.link_between(NodeId(0), NodeId(4)).unwrap();
        // Make the 2-hop detour expensive.
        let w = |l: LinkId| if l == l04 { 10.0 } else { 1.0 };
        let p = dijkstra_path(&g, NodeId(0), NodeId(3), &w, &pass_all).unwrap();
        assert_eq!(p.hop_count(), 3);
    }

    #[test]
    fn dijkstra_unreachable_is_none() {
        let mut g = diamond();
        let iso = g.add_node();
        assert!(dijkstra_path(&g, NodeId(0), iso, &|_| 1.0, &pass_all).is_none());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn dijkstra_rejects_negative_weight() {
        let g = diamond();
        dijkstra_path(&g, NodeId(0), NodeId(3), &|_| -1.0, &pass_all);
    }

    #[test]
    fn shares_link_detection() {
        let g = diamond();
        let a = Path::from_nodes(&g, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]).unwrap();
        let b = Path::from_nodes(&g, vec![NodeId(0), NodeId(4), NodeId(3)]).unwrap();
        let c = Path::from_nodes(&g, vec![NodeId(1), NodeId(2)]).unwrap();
        assert!(a.is_link_disjoint(&b));
        assert!(a.shares_link_with(&c));
        assert!(!b.shares_link_with(&c));
    }

    #[test]
    fn crosses_detects_membership() {
        let g = diamond();
        let p = Path::from_nodes(&g, vec![NodeId(0), NodeId(1)]).unwrap();
        let l01 = g.link_between(NodeId(0), NodeId(1)).unwrap();
        let l12 = g.link_between(NodeId(1), NodeId(2)).unwrap();
        assert!(p.crosses(l01));
        assert!(!p.crosses(l12));
    }
}
