//! The undirected network graph at the heart of the workspace.
//!
//! Nodes model routers/switches; links model bidirectional physical links.
//! (Real-time channels are unidirectional virtual circuits, but they reserve
//! bandwidth on the underlying physical links, which the paper treats as a
//! single shared capacity — so an undirected multigraph-free simple graph is
//! the right substrate.)

use crate::error::TopologyError;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a node (index into the graph's node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an undirected link (index into the graph's link table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

impl LinkId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// An undirected link between two distinct nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    id: LinkId,
    a: NodeId,
    b: NodeId,
}

impl Link {
    /// This link's identifier.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// One endpoint (the lower-numbered one).
    pub fn a(&self) -> NodeId {
        self.a
    }

    /// The other endpoint (the higher-numbered one).
    pub fn b(&self) -> NodeId {
        self.b
    }

    /// Both endpoints as a pair.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this link.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("{n} is not an endpoint of {}", self.id)
        }
    }

    /// Whether `n` is one of this link's endpoints.
    pub fn touches(&self, n: NodeId) -> bool {
        n == self.a || n == self.b
    }
}

/// An undirected simple graph with optional 2-D node coordinates.
///
/// Coordinates are set by the random-topology generators (Waxman placement)
/// and used only to compute edge probabilities and for display; all routing
/// is hop- or weight-based.
///
/// # Examples
///
/// ```
/// use drqos_topology::graph::Graph;
///
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let l = g.add_link(a, b)?;
/// assert_eq!(g.link(l).endpoints(), (a, b));
/// assert_eq!(g.degree(a), 1);
/// # Ok::<(), drqos_topology::error::TopologyError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Graph {
    positions: Vec<Option<(f64, f64)>>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    /// Fast lookup of the link between an (ordered) node pair (derived
    /// state; rebuilt on deserialization).
    pair_index: HashMap<(NodeId, NodeId), LinkId>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated, position-less nodes.
    pub fn with_nodes(n: usize) -> Self {
        let mut g = Self::new();
        for _ in 0..n {
            g.add_node();
        }
        g
    }

    /// Adds a node with no position; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.positions.push(None);
        self.adjacency.push(Vec::new());
        NodeId(self.positions.len() - 1)
    }

    /// Adds a node at coordinates `(x, y)`; returns its id.
    pub(crate) fn add_node_at(&mut self, x: f64, y: f64) -> NodeId {
        let id = self.add_node();
        self.positions[id.0] = Some((x, y));
        id
    }

    /// The position of `node`, if one was assigned.
    pub fn position(&self, node: NodeId) -> Option<(f64, f64)> {
        self.positions.get(node.0).copied().flatten()
    }

    /// Euclidean distance between two positioned nodes.
    ///
    /// Returns `None` if either node lacks a position.
    pub(crate) fn distance(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let (ax, ay) = self.position(a)?;
        let (bx, by) = self.position(b)?;
        Some(((ax - bx).powi(2) + (ay - by).powi(2)).sqrt())
    }

    /// Adds an undirected link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::UnknownNode`] if either endpoint is out of range.
    /// * [`TopologyError::SelfLoop`] if `a == b`.
    /// * [`TopologyError::DuplicateLink`] if the link already exists.
    pub fn add_link(&mut self, a: NodeId, b: NodeId) -> Result<LinkId, TopologyError> {
        if a.0 >= self.node_count() {
            return Err(TopologyError::UnknownNode(a.0));
        }
        if b.0 >= self.node_count() {
            return Err(TopologyError::UnknownNode(b.0));
        }
        if a == b {
            return Err(TopologyError::SelfLoop(a.0));
        }
        let (lo, hi) = if a.0 < b.0 { (a, b) } else { (b, a) };
        if self.pair_index.contains_key(&(lo, hi)) {
            return Err(TopologyError::DuplicateLink(lo.0, hi.0));
        }
        let id = LinkId(self.links.len());
        self.links.push(Link { id, a: lo, b: hi });
        self.adjacency[a.0].push((b, id));
        self.adjacency[b.0].push((a, id));
        self.pair_index.insert((lo, hi), id);
        Ok(id)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// The link between `a` and `b`, if it exists.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        let key = if a.0 < b.0 { (a, b) } else { (b, a) };
        self.pair_index.get(&key).copied()
    }

    /// The `(neighbor, link)` pairs adjacent to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[node.0]
    }

    /// The degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.0].len()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// Iterates over all links.
    pub fn links(&self) -> impl Iterator<Item = &Link> + '_ {
        self.links.iter()
    }

    /// Whether `node` is a valid id in this graph.
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.0 < self.node_count()
    }

    /// Whether `link` is a valid id in this graph.
    pub fn contains_link(&self, link: LinkId) -> bool {
        link.0 < self.link_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, [NodeId; 3], [LinkId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let ab = g.add_link(a, b).unwrap();
        let bc = g.add_link(b, c).unwrap();
        let ca = g.add_link(c, a).unwrap();
        (g, [a, b, c], [ab, bc, ca])
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.link_count(), 0);
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.links().count(), 0);
    }

    #[test]
    fn with_nodes_creates_isolated_nodes() {
        let g = Graph::with_nodes(5);
        assert_eq!(g.node_count(), 5);
        assert!(g.nodes().all(|n| g.degree(n) == 0));
    }

    #[test]
    fn add_link_updates_adjacency_both_ways() {
        let (g, [a, b, c], [ab, ..]) = triangle();
        assert!(g.neighbors(a).contains(&(b, ab)));
        assert!(g.neighbors(b).contains(&(a, ab)));
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.degree(c), 2);
    }

    #[test]
    fn link_endpoints_are_normalized() {
        let mut g = Graph::with_nodes(2);
        let l = g.add_link(NodeId(1), NodeId(0)).unwrap();
        let link = g.link(l);
        assert_eq!(link.a(), NodeId(0));
        assert_eq!(link.b(), NodeId(1));
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::with_nodes(1);
        assert_eq!(
            g.add_link(NodeId(0), NodeId(0)),
            Err(TopologyError::SelfLoop(0))
        );
    }

    #[test]
    fn duplicate_link_rejected_in_both_orders() {
        let mut g = Graph::with_nodes(2);
        g.add_link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(
            g.add_link(NodeId(0), NodeId(1)),
            Err(TopologyError::DuplicateLink(0, 1))
        );
        assert_eq!(
            g.add_link(NodeId(1), NodeId(0)),
            Err(TopologyError::DuplicateLink(0, 1))
        );
    }

    #[test]
    fn unknown_node_rejected() {
        let mut g = Graph::with_nodes(1);
        assert_eq!(
            g.add_link(NodeId(0), NodeId(7)),
            Err(TopologyError::UnknownNode(7))
        );
    }

    #[test]
    fn link_between_finds_either_order() {
        let (g, [a, b, _], [ab, ..]) = triangle();
        assert_eq!(g.link_between(a, b), Some(ab));
        assert_eq!(g.link_between(b, a), Some(ab));
    }

    #[test]
    fn link_between_missing_is_none() {
        let g = Graph::with_nodes(3);
        assert_eq!(g.link_between(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn other_endpoint() {
        let (g, [a, b, _], [ab, ..]) = triangle();
        assert_eq!(g.link(ab).other(a), b);
        assert_eq!(g.link(ab).other(b), a);
        assert!(g.link(ab).touches(a));
        assert!(!g.link(ab).touches(NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_panics_for_non_endpoint() {
        let (g, [_, _, c], [ab, ..]) = triangle();
        g.link(ab).other(c);
    }

    #[test]
    fn positions_and_distance() {
        let mut g = Graph::new();
        let a = g.add_node_at(0.0, 0.0);
        let b = g.add_node_at(3.0, 4.0);
        let c = g.add_node();
        assert_eq!(g.distance(a, b), Some(5.0));
        assert_eq!(g.distance(a, c), None);
        assert_eq!(g.position(c), None);
    }

    #[test]
    fn contains_checks() {
        let (g, ..) = triangle();
        assert!(g.contains_node(NodeId(2)));
        assert!(!g.contains_node(NodeId(3)));
        assert!(g.contains_link(LinkId(2)));
        assert!(!g.contains_link(LinkId(3)));
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(LinkId(9).to_string(), "l9");
    }
}
