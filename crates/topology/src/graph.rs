//! The undirected network graph at the heart of the workspace.
//!
//! Nodes model routers/switches; links model bidirectional physical links.
//! (Real-time channels are unidirectional virtual circuits, but they reserve
//! bandwidth on the underlying physical links, which the paper treats as a
//! single shared capacity — so an undirected multigraph-free simple graph is
//! the right substrate.)

use crate::error::TopologyError;
use drqos_sim::seam::{self, Seam};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The entry of a [`Graph::hops_toward`] row for a node that cannot reach
/// the row's destination.
pub const UNREACHABLE: u32 = u32::MAX;

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
#[derive(Clone, Default)]
pub struct Graph {
    positions: Vec<Option<(f64, f64)>>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    /// Fast lookup of the link between an (ordered) node pair (derived
    /// state, kept by `add_link`).
    pair_index: HashMap<(NodeId, NodeId), LinkId>,
    /// Derived state, left out of equality and `Debug`: see
    /// [`Graph::hops_toward`], [`Graph::blocks`] and [`Graph::cut_nodes`].
    hops: HopTable,
}

/// The hop-distance rows of one topology, one per destination, and its
/// block row, each filled on first use. Clones of a graph share it until
/// one of them changes; a change gives the changed graph a fresh, empty
/// table.
#[derive(Clone, Default)]
struct HopTable(Arc<Rows>);

/// What a [`HopTable`] holds.
#[derive(Default)]
struct Rows {
    hops: OnceLock<Box<[HopRow]>>,
    blocks: OnceLock<Blocks>,
}

/// The block row and the cut flags, from one pass.
type Blocks = (Box<[u32]>, Box<[bool]>);

/// One destination's row of a [`HopTable`], empty until first asked for.
type HopRow = OnceLock<Box<[u32]>>;

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.positions == other.positions
            && self.links == other.links
            && self.adjacency == other.adjacency
            && self.pair_index == other.pair_index
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("positions", &self.positions)
            .field("links", &self.links)
            .field("adjacency", &self.adjacency)
            .field("pair_index", &self.pair_index)
            .finish()
    }
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
    ///
    /// # Panics
    ///
    /// Panics if the graph already has `u32::MAX` nodes: a hop distance
    /// must fit the `u32` rows of [`Graph::hops_toward`].
    pub fn add_node(&mut self) -> NodeId {
        assert!(
            self.node_count() < UNREACHABLE as usize,
            "a graph holds fewer than u32::MAX nodes"
        );
        self.hops = HopTable::default();
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
        if seam::armed(Seam::KeepHopsAcrossAddLink) {
            return Ok(id);
        }
        self.hops = HopTable::default();
        Ok(id)
    }

    /// The fewest links between each node and `dst`: `row[v]` is the hop
    /// distance from `v` to `dst` over the adjacency, [`UNREACHABLE`]
    /// when no path joins them.
    ///
    /// The row is one breadth-first pass from `dst`, run the first time
    /// any caller asks for it and kept until `add_node` or `add_link`
    /// changes the graph; clones made before that share it.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a node of this graph.
    pub fn hops_toward(&self, dst: NodeId) -> &[u32] {
        let rows = self
            .hops
            .0
            .hops
            .get_or_init(|| (0..self.node_count()).map(|_| OnceLock::new()).collect());
        rows[dst.0].get_or_init(|| self.breadth_first_from(dst))
    }

    /// Each node's 2-edge-connected block: `row[u] == row[v]` exactly
    /// when `u` and `v` stay connected whatever single link is removed.
    /// So a link is a bridge — its removal disconnects its ends — exactly
    /// when its ends lie in different blocks, and every path between
    /// nodes of different blocks crosses the same bridges, in the same
    /// order. Block ids are dense from 0, in the order the blocks close.
    ///
    /// The row is one Tarjan pass, run the first time any caller asks for
    /// it and kept, beside the hop rows, until `add_node` or `add_link`
    /// changes the graph.
    pub fn blocks(&self) -> &[u32] {
        &self.tarjan().0
    }

    /// Each node's cut flag: whether removing the node, with its links,
    /// disconnects two nodes it leaves (an articulation point). Every path
    /// between the nodes it separates crosses it, so no route that avoids
    /// it joins them. From the same pass as [`Graph::blocks`], and kept
    /// beside it.
    pub fn cut_nodes(&self) -> &[bool] {
        &self.tarjan().1
    }

    fn tarjan(&self) -> &Blocks {
        self.hops.0.blocks.get_or_init(|| self.two_edge_blocks())
    }

    /// The block row and the cut flags by one depth-first pass: a node
    /// whose subtree has no link back above it (`low == disc`) closes its
    /// block, which is what is left of the node stack down to it; a node
    /// with a child whose subtree has no link back above the node
    /// (`low >= disc`) is a cut node — the root when it has two children.
    fn two_edge_blocks(&self) -> Blocks {
        const UNSEEN: u32 = u32::MAX;
        let n = self.node_count();
        let (mut block, mut disc, mut low) = (vec![UNSEEN; n], vec![UNSEEN; n], vec![0; n]);
        let mut cut = vec![false; n];
        let (mut open, mut calls) = (Vec::new(), Vec::new());
        let (mut time, mut closed) = (0, 0);
        for root in self.nodes() {
            if disc[root.0] != UNSEEN {
                continue;
            }
            let mut children = 0;
            // `calls` is the pass's call stack: `(node, the tree link it
            // was entered by, its next adjacency entry)`.
            let mut entering = Some((root, None));
            loop {
                if let Some((v, via)) = entering.take() {
                    (disc[v.0], low[v.0]) = (time, time);
                    time += 1;
                    open.push(v);
                    calls.push((v, via, 0));
                }
                let Some((u, via, next)) = calls.last_mut() else {
                    break;
                };
                let u = *u;
                if let Some(&(v, l)) = self.adjacency[u.0].get(*next) {
                    *next += 1;
                    if Some(l) == *via {
                        continue;
                    }
                    if disc[v.0] == UNSEEN {
                        entering = Some((v, Some(l)));
                    } else {
                        low[u.0] = low[u.0].min(disc[v.0]);
                    }
                    continue;
                }
                calls.pop();
                if let Some(&(parent, _, _)) = calls.last() {
                    low[parent.0] = low[parent.0].min(low[u.0]);
                    if parent == root {
                        children += 1;
                    } else if low[u.0] >= disc[parent.0] {
                        cut[parent.0] = true;
                    }
                }
                if low[u.0] == disc[u.0] {
                    while let Some(w) = open.pop() {
                        block[w.0] = closed;
                        if w == u {
                            break;
                        }
                    }
                    closed += 1;
                }
            }
            cut[root.0] = children > 1;
        }
        (block.into_boxed_slice(), cut.into_boxed_slice())
    }

    /// Hop distances from `dst` to every node, by one breadth-first pass.
    fn breadth_first_from(&self, dst: NodeId) -> Box<[u32]> {
        let mut row = vec![UNREACHABLE; self.node_count()].into_boxed_slice();
        let mut queue = Vec::with_capacity(self.node_count());
        row[dst.0] = 0;
        queue.push(dst);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let beyond = row[u.0] + 1;
            for &(v, _) in self.neighbors(u) {
                if row[v.0] == UNREACHABLE {
                    row[v.0] = beyond;
                    queue.push(v);
                }
            }
        }
        row
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

    // ------------------------- the hop rows vs the per-search BFS they were --

    /// The breadth-first pass every route search ran before the rows moved
    /// onto the graph: hop distances toward `dst`, `reach` hops deep,
    /// `usize::MAX` beyond that or where `dst` cannot be reached. Kept as
    /// the one reference for [`Graph::hops_toward`].
    fn bfs_cut_at(graph: &Graph, dst: NodeId, reach: usize) -> Vec<usize> {
        let mut toward = vec![usize::MAX; graph.node_count()];
        let mut queue = vec![dst];
        toward[dst.0] = 0;
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let beyond = toward[u.0] + 1;
            if beyond > reach {
                break;
            }
            for &(v, _) in graph.neighbors(u) {
                if toward[v.0] == usize::MAX {
                    toward[v.0] = beyond;
                    queue.push(v);
                }
            }
        }
        toward
    }

    /// `row` as the search reads it under a hop bound of `reach`: what lies
    /// further than that is as good as unreachable.
    fn cut(row: &[u32], reach: usize) -> Vec<usize> {
        row.iter()
            .map(|&h| match h as usize {
                h if h <= reach && h != UNREACHABLE as usize => h,
                _ => usize::MAX,
            })
            .collect()
    }

    /// A ring with an island node, a torus, a Waxman graph or a small
    /// transit-stub network, sized by `rng`.
    fn draw_graph(rng: &mut drqos_sim::rng::Rng, kind: usize) -> Graph {
        use crate::{regular, transit_stub::TransitStubConfig, waxman::paper_waxman};
        match kind {
            0 => {
                let mut ring = regular::ring(3 + rng.range_usize(12)).unwrap();
                ring.add_node();
                ring
            }
            1 => regular::torus(3 + rng.range_usize(3), 3 + rng.range_usize(4)).unwrap(),
            2 => paper_waxman(10 + rng.range_usize(40))
                .generate(rng)
                .unwrap(),
            _ => {
                let config = TransitStubConfig {
                    transit_domains: 1 + rng.range_usize(2),
                    transit_nodes_per_domain: 1 + rng.range_usize(3),
                    stubs_per_transit_node: 1 + rng.range_usize(2),
                    stub_nodes_per_domain: 1 + rng.range_usize(4),
                    transit_extra_edge_prob: 0.5,
                    stub_extra_edge_prob: 0.3,
                };
                config.generate(rng).unwrap().graph
            }
        }
    }

    /// Every destination's row against the reference cut at every bound
    /// from 0 to one past the farthest reachable node (beyond which the
    /// cut no longer changes), destinations asked in a random order.
    fn check_rows(rng: &mut drqos_sim::rng::Rng, graph: &Graph) -> Result<(), String> {
        let mut order: Vec<NodeId> = graph.nodes().collect();
        rng.shuffle(&mut order);
        for dst in order {
            let row = graph.hops_toward(dst);
            let full = bfs_cut_at(graph, dst, usize::MAX);
            let far = full.iter().filter(|&&h| h != usize::MAX).max().copied();
            for reach in 0..=far.unwrap_or(0) + 1 {
                if row.len() != graph.node_count()
                    || cut(row, reach) != bfs_cut_at(graph, dst, reach)
                {
                    return Err(format!("row toward {dst} at bound {reach}: {row:?}"));
                }
            }
        }
        Ok(())
    }

    /// What a differential run saw, beyond agreement.
    #[derive(Debug, Default)]
    struct HopCounts {
        /// Rows a growth step changed: a table kept across it would be
        /// wrong there.
        changed_by_growth: usize,
        /// Growth steps taken while a clone still shared the table.
        grown_while_shared: usize,
    }

    /// Runs `cases` seeded graphs: fills every row, grows the graph by a
    /// node and links (some new links joining nodes far apart) while a
    /// clone made before the growth may still share its table, then checks
    /// the grown graph's rows and the clone's against the reference.
    fn hop_row_differential(cases: usize) -> Result<HopCounts, String> {
        let mut rng = drqos_sim::rng::Rng::seed_from_u64(0x40B5_2026);
        let mut counts = HopCounts::default();
        for i in 0..cases {
            let mut graph = draw_graph(&mut rng, i % 4);
            let twin = graph.clone();
            check_rows(&mut rng, &graph).map_err(|e| format!("case {i}: {e}"))?;
            let before: Vec<Vec<u32>> = graph
                .nodes()
                .map(|d| graph.hops_toward(d).to_vec())
                .collect();
            let twin = rng.chance(0.5).then_some(twin);
            if rng.chance(0.3) {
                graph.add_node();
            }
            let n = graph.node_count();
            for _ in 0..1 + rng.range_usize(3) {
                let (a, b) = (NodeId(rng.range_usize(n)), NodeId(rng.range_usize(n)));
                if a != b && graph.link_between(a, b).is_none() {
                    graph.add_link(a, b).unwrap();
                }
            }
            counts.grown_while_shared += usize::from(twin.is_some());
            counts.changed_by_growth += before
                .iter()
                .enumerate()
                .filter(|&(d, row)| graph.hops_toward(NodeId(d))[..row.len()] != row[..])
                .count();
            check_rows(&mut rng, &graph).map_err(|e| format!("case {i}, grown: {e}"))?;
            if let Some(twin) = twin {
                check_rows(&mut rng, &twin).map_err(|e| format!("case {i}, clone: {e}"))?;
            }
        }
        Ok(counts)
    }

    fn assert_hop_coverage(counts: &HopCounts, cases: usize) {
        assert!(counts.changed_by_growth > cases, "{counts:?}");
        assert!(counts.grown_while_shared > cases / 3, "{counts:?}");
    }

    /// Ten times the cases in a release build (CI's run).
    #[test]
    fn hop_rows_match_the_per_search_bfs_on_seeded_cases() {
        let n = if cfg!(debug_assertions) { 400 } else { 4_000 };
        assert_hop_coverage(&hop_row_differential(n).unwrap(), n);
    }

    #[test]
    fn a_hop_table_kept_across_add_link_is_caught() {
        let caught = seam::with(Seam::KeepHopsAcrossAddLink, || hop_row_differential(400));
        assert!(caught.is_err(), "rows of the smaller graph went unnoticed");
    }

    // ------------------------------- the block row vs brute-force bridges --

    /// Whether `a` and `b` are joined over the links `keep` passes.
    fn joined(graph: &Graph, a: NodeId, b: NodeId, keep: &dyn Fn(LinkId) -> bool) -> bool {
        let mut seen = vec![false; graph.node_count()];
        let mut queue = vec![a];
        seen[a.0] = true;
        while let Some(u) = queue.pop() {
            for &(v, l) in graph.neighbors(u) {
                if keep(l) && !seen[v.0] {
                    seen[v.0] = true;
                    queue.push(v);
                }
            }
        }
        seen[b.0]
    }

    /// Two rings joined by a chain of bridges, with leaves hung on them,
    /// or a dumbbell: two complete graphs joined by one path.
    fn draw_bridged(rng: &mut drqos_sim::rng::Rng) -> Graph {
        let mut g = Graph::new();
        let clique = rng.chance(0.3);
        let mut ring_or_clique = |g: &mut Graph| {
            let size = 3 + rng.range_usize(4);
            let nodes: Vec<NodeId> = (0..size).map(|_| g.add_node()).collect();
            for (i, &a) in nodes.iter().enumerate() {
                let ahead: Vec<NodeId> = if clique {
                    nodes[i + 1..].to_vec()
                } else {
                    vec![nodes[(i + 1) % size]]
                };
                for b in ahead {
                    if g.link_between(a, b).is_none() {
                        g.add_link(a, b).unwrap();
                    }
                }
            }
            nodes
        };
        let left = ring_or_clique(&mut g);
        let right = ring_or_clique(&mut g);
        let mut at = left[rng.range_usize(left.len())];
        for _ in 0..rng.range_usize(3) {
            let next = g.add_node();
            g.add_link(at, next).unwrap();
            at = next;
        }
        g.add_link(at, right[rng.range_usize(right.len())]).unwrap();
        for _ in 0..rng.range_usize(4) {
            let (on, leaf) = (NodeId(rng.range_usize(g.node_count())), g.add_node());
            g.add_link(on, leaf).unwrap();
        }
        g
    }

    /// `graph`'s block row against the brute force: a link joins two
    /// blocks exactly when removing it disconnects its ends, two nodes
    /// share a block exactly when the links that do not are enough to join
    /// them, and the ids are dense from 0. Returns how many bridges it saw.
    fn check_blocks(graph: &Graph) -> Result<usize, String> {
        let row = graph.blocks();
        let bridge: Vec<bool> = graph
            .links()
            .map(|link| !joined(graph, link.a(), link.b(), &|l| l != link.id()))
            .collect();
        for link in graph.links() {
            let (a, b) = link.endpoints();
            if (row[a.0] != row[b.0]) != bridge[link.id().0] {
                return Err(format!("{}: blocks {row:?}", link.id()));
            }
        }
        for a in graph.nodes() {
            for b in graph.nodes() {
                let same = joined(graph, a, b, &|l| !bridge[l.0]);
                if (row[a.0] == row[b.0]) != same {
                    return Err(format!("{a} and {b}: blocks {row:?}"));
                }
            }
        }
        let ids = row.iter().max().map_or(0, |&m| m as usize + 1);
        if (0..ids).any(|id| !row.contains(&(id as u32))) {
            return Err(format!("ids not dense: {row:?}"));
        }
        Ok(bridge.iter().filter(|&&b| b).count())
    }

    /// `graph`'s cut flags against the brute force: a node is a cut node
    /// exactly when two of its neighbours are no longer joined once its
    /// links are gone. Returns how many cut nodes it saw.
    fn check_cut_nodes(graph: &Graph) -> Result<usize, String> {
        let flags = graph.cut_nodes();
        for v in graph.nodes() {
            let around: Vec<NodeId> = graph.neighbors(v).iter().map(|&(u, _)| u).collect();
            let avoiding = |l: LinkId| {
                let (a, b) = graph.link(l).endpoints();
                a != v && b != v
            };
            let apart = around
                .iter()
                .any(|&a| !joined(graph, around[0], a, &avoiding));
            if flags[v.0] != apart {
                return Err(format!("{v}: cut flags {flags:?}"));
            }
        }
        Ok(flags.iter().filter(|&&cut| cut).count())
    }

    /// What [`block_differential`] saw, beyond agreement.
    #[derive(Debug, Default)]
    struct BlockCounts {
        bridges: usize,
        cut_nodes: usize,
        /// Graphs with one block and with more than one.
        one_block: usize,
        split: usize,
        /// Growth steps that changed the row.
        changed_by_growth: usize,
    }

    /// Runs `cases` seeded graphs — [`draw_graph`]'s four kinds and the
    /// bridge-rich [`draw_bridged`] — through [`check_blocks`] and
    /// [`check_cut_nodes`], then grows each by a link or two, while a clone
    /// may still share its table, and checks the grown graph and the clone
    /// again.
    fn block_differential(cases: usize) -> Result<BlockCounts, String> {
        let mut rng = drqos_sim::rng::Rng::seed_from_u64(0xB10C_2026);
        let mut counts = BlockCounts::default();
        for i in 0..cases {
            let mut graph = match i % 6 {
                kind @ 0..=3 => draw_graph(&mut rng, kind),
                _ => draw_bridged(&mut rng),
            };
            let twin = graph.clone();
            let bridges = check_blocks(&graph).map_err(|e| format!("case {i}: {e}"))?;
            counts.bridges += bridges;
            counts.cut_nodes += check_cut_nodes(&graph).map_err(|e| format!("case {i}: {e}"))?;
            let first = graph.blocks().first().copied();
            if graph.blocks().iter().all(|&b| Some(b) == first) {
                counts.one_block += 1;
            } else {
                counts.split += 1;
            }
            let before = graph.blocks().to_vec();
            let n = graph.node_count();
            for _ in 0..1 + rng.range_usize(2) {
                let (a, b) = (NodeId(rng.range_usize(n)), NodeId(rng.range_usize(n)));
                if a != b && graph.link_between(a, b).is_none() {
                    graph.add_link(a, b).unwrap();
                }
            }
            counts.changed_by_growth += usize::from(graph.blocks() != &before[..]);
            check_blocks(&graph).map_err(|e| format!("case {i}, grown: {e}"))?;
            check_blocks(&twin).map_err(|e| format!("case {i}, clone: {e}"))?;
            check_cut_nodes(&graph).map_err(|e| format!("case {i}, grown: {e}"))?;
            check_cut_nodes(&twin).map_err(|e| format!("case {i}, clone: {e}"))?;
        }
        Ok(counts)
    }

    fn assert_block_coverage(counts: &BlockCounts, cases: usize) {
        assert!(
            counts.bridges > cases && counts.cut_nodes > cases,
            "{counts:?}"
        );
        assert!(
            counts.one_block > cases / 10 && counts.split > cases / 2,
            "{counts:?}"
        );
        assert!(counts.changed_by_growth > cases / 4, "{counts:?}");
    }

    /// Ten times the cases in a release build (CI's run).
    #[test]
    fn block_rows_match_the_brute_force_bridges_on_seeded_cases() {
        let n = if cfg!(debug_assertions) { 300 } else { 3_000 };
        assert_block_coverage(&block_differential(n).unwrap(), n);
    }

    #[test]
    fn a_block_row_kept_across_add_link_is_caught() {
        let caught = seam::with(Seam::KeepHopsAcrossAddLink, || block_differential(300));
        assert!(
            caught.is_err(),
            "blocks of the smaller graph went unnoticed"
        );
    }

    #[test]
    fn a_searched_graph_equals_an_unsearched_one() {
        let (searched, fresh) = (triangle().0, triangle().0);
        let clone = searched.clone();
        assert_eq!(searched.hops_toward(NodeId(0)), [0, 1, 1]);
        assert_eq!(searched.blocks(), [0, 0, 0]);
        assert_eq!(searched, fresh);
        assert_eq!(clone, fresh);
        // A clone hashes its link index as the original does, so `Debug`
        // can be compared; two graphs built apart cannot.
        assert_eq!(format!("{searched:?}"), format!("{clone:?}"));
        assert!(!format!("{searched:?}").contains("hops"));
    }
}
