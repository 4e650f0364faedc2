//! Route selection for DR-connections.
//!
//! The paper's network floods connection requests within a bounded region;
//! the destination confirms the first-arriving copy (fewest hops, best
//! bandwidth allowance on ties) as the primary route and a later,
//! link-disjoint copy as the backup route (Section 3.1).
//!
//! Simulating per-message flood traffic would add nothing to the paper's
//! evaluation (which measures bandwidth, not signalling), so
//! `flood_path_with` emulates the *outcome* of bounded flooding: a
//! fewest-hops search that maximizes the bottleneck bandwidth allowance
//! among equal-hop routes, truncated at the flooding bound. Like the
//! paper's request copies, the search stays inside a region around the
//! source–destination pair: it enters only nodes from which the
//! destination can still be reached within the hops that are left, by
//! the graph's own hop-distance row toward it
//! ([`Graph::hops_toward`]).

use crate::qos::Bandwidth;
use drqos_sim::seam::{self, Seam};
use drqos_topology::graph::{Graph, LinkId, NodeId, UNREACHABLE};
use drqos_topology::paths::{LinkFilter, Path};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The route-selection strategy of a network: there is one, and this enum
/// is how its one parameter travels through [`crate::network::NetworkConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Emulated bounded flooding (the paper's scheme). `hop_slack` is how
    /// many hops beyond the primary's length the flood region extends; a
    /// backup is only found if a disjoint route exists within
    /// `primary_hops + hop_slack`.
    BoundedFlooding {
        /// Extra hops allowed for the backup beyond the primary's length.
        hop_slack: usize,
    },
}

impl Default for RouterKind {
    fn default() -> Self {
        RouterKind::BoundedFlooding { hop_slack: 2 }
    }
}

/// How strictly a backup must avoid its primary's links.
///
/// The paper's dependability QoS asks for a backup "which may be totally
/// link-disjoint or *maximally* link-disjoint from its corresponding
/// primary channel, if there does not exist any link-disjoint backup path
/// between the source and destination" (footnote 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackupDisjointness {
    /// Reject the connection when no fully link-disjoint backup exists.
    Strict,
    /// Fall back to the feasible backup sharing the fewest links with the
    /// primary (a backup identical to the primary is still rejected — it
    /// would add no dependability at all).
    #[default]
    MaximallyDisjoint,
}

/// Reusable buffers for `flood_path_with` and the maximally-disjoint
/// fallback of [`route_backup_with`].
///
/// A search keeps per-node tables, a per-link probe memo and two frontier
/// vectors; allocating them on every admission attempt dominated the
/// cost of short searches. Everything is generation-stamped, so beginning
/// a search is O(1) and nothing a previous search wrote can be read by
/// the next — a scratch may be kept across any number of searches, over
/// any graphs, with no invalidation. [`FloodScratch::invalidate`] merely
/// releases the buffers' contents. The distance row a search steers by
/// is the graph's ([`Graph::hops_toward`]), computed once per destination
/// and shared by every search toward it.
///
/// Two counters do the stamping. `search` advances once per search and
/// marks the probe memo, which holds for the whole search; `gen` advances
/// once per *round* of it and marks the per-node tables, which every
/// round fills afresh.
#[derive(Debug, Clone, Default)]
pub struct FloodScratch {
    gen: u64,
    stamp: Vec<u64>,
    hops: Vec<usize>,
    bottleneck: Vec<Bandwidth>,
    parent: Vec<NodeId>,
    /// The fallback's count of links shared with the primary, beside
    /// `hops`: together a node's `(shared, hops)` label.
    shared: Vec<usize>,
    search: u64,
    /// Probe memo: `link_stamp[l] == search` marks `link_allowance[l]` as
    /// this search's answer for link `l` — `None` if the filter refused
    /// it, else its allowance. A link is reached from both endpoints (and
    /// again by every same-layer improvement and every round), but asked
    /// about once.
    link_stamp: Vec<u64>,
    link_allowance: Vec<Option<Bandwidth>>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    /// Every node the last round of a fallback segment reached, layer by
    /// layer, each layer in node-id order: the Dijkstra's seeds when the
    /// rounds did not reach the segment's exit.
    reached: Vec<NodeId>,
    /// The fallback's queue, ordered by `(shared, hops, node)`.
    heap: BinaryHeap<Reverse<(usize, usize, NodeId)>>,
    /// What the last search cost, in rounds and in nodes whose adjacency a
    /// round walked: the worst-case guard's count.
    #[cfg(test)]
    tally: (usize, usize),
    /// Fallback segments that fell through to the Dijkstra, over the
    /// scratch's life.
    #[cfg(test)]
    fall_throughs: usize,
}

/// A search's destination and the graph's distance row toward it
/// ([`Graph::hops_toward`]); for a fallback segment, also the block row
/// ([`Graph::blocks`]) and the block the segment lies in.
#[derive(Clone, Copy)]
struct Goal<'g> {
    dst: NodeId,
    row: &'g [u32],
    within: Option<(&'g [u32], u32)>,
}

impl Goal<'_> {
    /// `h(v)`: how many hops `v` is from the destination over the static
    /// adjacency, `usize::MAX` when it cannot reach it at all. Link state
    /// plays no part — failures and refusals only ever remove links — so
    /// `h(v)` is a lower bound on the hops any search still needs from
    /// `v`.
    fn toward(self, v: NodeId) -> usize {
        match self.row[v.0] {
            UNREACHABLE => usize::MAX,
            h => h as usize,
        }
    }

    /// Whether the search may enter `v` at all: outside a segment's
    /// block lies no route to its exit.
    fn admits(self, v: NodeId) -> bool {
        self.within
            .is_none_or(|(blocks, block)| blocks[v.0] == block)
    }
}

/// Advances a generation counter, zeroing `stamps` when it wraps so that
/// an old stamp cannot alias the new generation.
fn advance(counter: &mut u64, stamps: &mut [&mut Vec<u64>]) {
    *counter = counter.wrapping_add(1);
    if *counter == 0 {
        for table in stamps {
            table.iter_mut().for_each(|s| *s = 0);
        }
        *counter = 1;
    }
}

impl FloodScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all cached search state. Never required for correctness (see
    /// the type docs); the buffers re-grow on the next search.
    pub fn invalidate(&mut self) {
        *self = Self::default();
    }

    /// Starts a search over `graph`: sizes the buffers and forgets the
    /// previous search's probe memo.
    fn begin(&mut self, graph: &Graph) {
        let (nodes, links) = (graph.node_count(), graph.link_count());
        if self.stamp.len() < nodes {
            self.stamp.resize(nodes, 0);
            self.hops.resize(nodes, usize::MAX);
            self.bottleneck.resize(nodes, Bandwidth::ZERO);
            self.parent.resize(nodes, NodeId(usize::MAX));
            self.shared.resize(nodes, 0);
        }
        if self.link_stamp.len() < links {
            self.link_stamp.resize(links, 0);
            self.link_allowance.resize(links, None);
        }
        advance(&mut self.search, &mut [&mut self.link_stamp]);
        #[cfg(test)]
        {
            self.tally = (0, 0);
        }
    }

    /// Starts a round: forgets every node the previous one reached.
    fn begin_round(&mut self) {
        advance(&mut self.gen, &mut [&mut self.stamp]);
        #[cfg(test)]
        {
            self.tally.0 += 1;
        }
    }

    fn discovered(&self, v: NodeId) -> bool {
        self.stamp[v.0] == self.gen
    }

    fn discover(&mut self, v: NodeId, level: usize, cand: Bandwidth, from: NodeId) {
        self.stamp[v.0] = self.gen;
        self.hops[v.0] = level;
        self.bottleneck[v.0] = cand;
        self.parent[v.0] = from;
    }

    /// This search's answer for link `l`: `None` if `filter` refuses it,
    /// else its `allowance`. Each closure runs at most once per link per
    /// search, whatever the round; the first time a link is reached
    /// decides.
    fn probe(
        &mut self,
        l: LinkId,
        filter: &LinkFilter,
        allowance: &dyn Fn(LinkId) -> Bandwidth,
    ) -> Option<Bandwidth> {
        let i = l.index();
        if self.link_stamp[i] != self.search {
            self.link_stamp[i] = self.search;
            self.link_allowance[i] = filter(l).then(|| allowance(l));
        }
        self.link_allowance[i]
    }

    /// One round of the flood: level by level from `src`, entering a node
    /// at level `k` only if the destination is still within `target` hops
    /// of the source through it (`k + h(v) ≤ target`). Returns whether
    /// some node was held back by that rule — if none was, a longer
    /// target would reach nothing more.
    ///
    /// A link is left unasked when its answer cannot matter: its far end
    /// is held back, or was reached at an earlier level, or already has a
    /// bottleneck the near end cannot improve on.
    ///
    /// A fallback segment's round (`SEGMENT`) also keeps out of other
    /// blocks than `goal`'s, keeps each node's first parent, scans each
    /// layer in node-id order and lists every node it reaches in
    /// `reached`. The flood's rounds are compiled without any of it.
    fn round<const SEGMENT: bool>(
        &mut self,
        graph: &Graph,
        goal: Goal<'_>,
        src: NodeId,
        target: usize,
        filter: &LinkFilter,
        allowance: &dyn Fn(LinkId) -> Bandwidth,
    ) -> bool {
        self.begin_round();
        self.discover(src, 0, Bandwidth::kbps(u64::MAX), src);
        let mut frontier = std::mem::take(&mut self.frontier);
        let mut next = std::mem::take(&mut self.next);
        frontier.clear();
        frontier.push(src);
        if SEGMENT {
            self.reached.clear();
            self.reached.push(src);
        }
        let mut held_back = false;
        for level in 0..target {
            if frontier.is_empty() {
                break;
            }
            next.clear();
            let left = target - (level + 1);
            for &u in &frontier {
                #[cfg(test)]
                {
                    self.tally.1 += 1;
                }
                for &(v, l) in graph.neighbors(u) {
                    let reached = self.discovered(v);
                    if reached {
                        // A segment keeps the first parent: its labels
                        // know no bottleneck.
                        if self.hops[v.0] != level + 1
                            || SEGMENT
                            || self.bottleneck[u.0] <= self.bottleneck[v.0]
                        {
                            continue;
                        }
                    } else if SEGMENT && !goal.admits(v) {
                        continue;
                    } else if goal.toward(v) > left {
                        held_back = true;
                        continue;
                    }
                    let Some(allowed) = self.probe(l, filter, allowance) else {
                        continue;
                    };
                    let cand = self.bottleneck[u.0].min(allowed);
                    if !reached {
                        self.discover(v, level + 1, cand, u);
                        next.push(v);
                    } else if cand > self.bottleneck[v.0] {
                        // Same-layer improvement: a simultaneous request
                        // copy with a better allowance.
                        self.bottleneck[v.0] = cand;
                        self.parent[v.0] = u;
                    }
                }
            }
            if self.discovered(goal.dst) {
                // The layer is complete (done above): reconstruct.
                break;
            }
            if SEGMENT {
                if !seam::armed(Seam::UnsortedLayer) {
                    next.sort_unstable();
                }
                self.reached.extend_from_slice(&next);
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        // Hand the frontier buffers back for the next round.
        self.frontier = frontier;
        self.next = next;
        held_back
    }

    /// The rounds of one search, steered by `goal`'s distance row.
    ///
    /// The target length deepens from `h(src)`: first the statically
    /// shortest routes, then those one hop longer, then everything the
    /// hop bound allows — at most three rounds, fewer when a round found
    /// the destination or held nothing back. The probe memo lives across
    /// them, so a later round re-walks nodes but asks no link again.
    /// Returns whether the destination was reached; if not, and a round
    /// ran, the last one reached every node it could have, bound aside.
    fn deepen<const SEGMENT: bool>(
        &mut self,
        graph: &Graph,
        goal: Goal<'_>,
        src: NodeId,
        hop_bound: usize,
        filter: &LinkFilter,
        allowance: &dyn Fn(LinkId) -> Bandwidth,
    ) -> bool {
        let nearest = goal.toward(src);
        if nearest > hop_bound {
            return false;
        }
        let mut target = nearest;
        loop {
            let held_back = self.round::<SEGMENT>(graph, goal, src, target, filter, allowance);
            if self.discovered(goal.dst) {
                return true;
            }
            if !held_back || target == hop_bound {
                return false;
            }
            target = if target == nearest {
                nearest + 1
            } else {
                hop_bound
            };
        }
    }

    /// The maximally-disjoint fallback: among the paths between
    /// `primary`'s endpoints over links `filter` passes, one sharing the
    /// fewest links with `primary` and, among those, of the fewest hops —
    /// what Dijkstra on the label `(shared, hops)` returns, ties popped by
    /// node id — settled one segment at a time.
    ///
    /// Every route crosses the bridges the primary crosses, in the same
    /// order ([`Graph::blocks`]), so the route is the primary's bridges
    /// joined by one best route per segment between them: from `src`, or
    /// a bridge's far end, to the next bridge's near end, or `dst`. A
    /// refused bridge refuses the whole route. A segment lies in one
    /// block, and its labels are the whole search's shifted by the
    /// segment's entry label, so the `(label, id)` parent rule picks the
    /// same parents in it (see [`Self::segment`]).
    ///
    /// It continues the search the strict flood began: every link off
    /// the primary that the flood asked about keeps its answer (there the
    /// flood's filter was `filter`), so only the primary's own links and
    /// the links the bounded flood never reached are asked now. Only the
    /// verdict is asked for: no flood reads this search's memo again.
    fn least_shared_path(
        &mut self,
        graph: &Graph,
        primary: &Path,
        filter: &LinkFilter,
    ) -> Option<Path> {
        // The flood refused these for being the primary's, unasked.
        for &l in primary.links() {
            self.link_stamp[l.index()] = 0;
        }
        let blocks = graph.blocks();
        let steps = primary.nodes().windows(2).zip(primary.links());
        let mut route = Vec::with_capacity(primary.nodes().len());
        let mut entry = primary.source();
        for (ends, &l) in steps {
            let (near, far) = (ends[0], ends[1]);
            if blocks[near.0] != blocks[far.0] {
                self.probe(l, filter, &|_| Bandwidth::ZERO)?;
                self.segment(graph, primary, entry, near, filter, &mut route)?;
                entry = far;
            }
        }
        self.segment(
            graph,
            primary,
            entry,
            primary.destination(),
            filter,
            &mut route,
        )?;
        Path::from_nodes(graph, route).ok()
    }

    /// One segment of [`Self::least_shared_path`]: appends to `route` the
    /// best route from `entry` to `exit`, two nodes of one block, or
    /// returns `None` when there is none.
    ///
    /// Its nodes sharing nothing with the primary are labelled `(0, k)`,
    /// `k` their hops over the links off it, and their parent is the
    /// lowest-id neighbour labelled `(0, k - 1)`: a breadth-first pass
    /// whose layers are scanned in node-id order says the same. So the
    /// flood's deepening rounds run first, over the links off the
    /// primary, steered by `hops_toward(exit)`: pruning keeps a round
    /// closed under predecessors, and sorting makes each layer's order the
    /// unpruned layer's. Only when they do not reach `exit` does the
    /// Dijkstra run, seeded with every node the last, unpruned round
    /// reached, in the order it would have popped them.
    fn segment(
        &mut self,
        graph: &Graph,
        primary: &Path,
        entry: NodeId,
        exit: NodeId,
        filter: &LinkFilter,
        route: &mut Vec<NodeId>,
    ) -> Option<()> {
        if entry == exit {
            route.push(entry);
            return Some(());
        }
        let (blocks, block) = (graph.blocks(), graph.blocks()[entry.0]);
        let goal = Goal {
            dst: exit,
            row: graph.hops_toward(exit),
            within: Some((blocks, block)),
        };
        let off_primary = |l: LinkId| !primary.crosses(l) && filter(l);
        let unbounded = usize::MAX;
        let zero = &|_| Bandwidth::ZERO;
        if !self.deepen::<true>(graph, goal, entry, unbounded, &off_primary, zero) {
            #[cfg(test)]
            {
                self.fall_throughs += 1;
            }
            // The rounds refused the primary's links here, unasked.
            let steps = primary.nodes().windows(2).zip(primary.links());
            for (ends, &l) in steps {
                if blocks[ends[0].0] == block && blocks[ends[1].0] == block {
                    self.link_stamp[l.index()] = 0;
                }
            }
            self.heap.clear();
            for &v in &self.reached {
                self.shared[v.0] = 0;
                self.heap.push(Reverse((0, self.hops[v.0], v)));
            }
            if !self.least_shared_within(graph, goal, primary, filter) {
                return None;
            }
        }
        self.trace_into(entry, exit, route);
        Some(())
    }

    /// A node's `(shared, hops)` label in the fallback.
    fn label(&self, v: NodeId) -> (usize, usize) {
        (self.shared[v.0], self.hops[v.0])
    }

    /// The Dijkstra on `(shared, hops)` from the queue as seeded, inside
    /// `goal`'s block, ties popped by node id; returns whether it settled
    /// `goal`'s destination.
    fn least_shared_within(
        &mut self,
        graph: &Graph,
        goal: Goal<'_>,
        primary: &Path,
        filter: &LinkFilter,
    ) -> bool {
        while let Some(Reverse((shared, hops, u))) = self.heap.pop() {
            if (shared, hops) > self.label(u) {
                continue;
            }
            if u == goal.dst {
                return true;
            }
            for &(v, l) in graph.neighbors(u) {
                // A label the link cannot improve on, whatever it answers.
                if !goal.admits(v) || self.discovered(v) && self.label(v) <= (shared, hops + 1) {
                    continue;
                }
                if self.probe(l, filter, &|_| Bandwidth::ZERO).is_none() {
                    continue;
                }
                let via = (shared + usize::from(primary.crosses(l)), hops + 1);
                if !self.discovered(v) || via < self.label(v) {
                    self.discover(v, via.1, Bandwidth::ZERO, u);
                    self.shared[v.0] = via.0;
                    self.heap.push(Reverse((via.0, via.1, v)));
                }
            }
        }
        false
    }

    /// The path the parent table holds from `src` to a discovered `dst`,
    /// its node list sized once from the hops `dst` was found at.
    fn trace(&self, graph: &Graph, src: NodeId, dst: NodeId) -> Option<Path> {
        let mut nodes = Vec::with_capacity(self.hops.get(dst.0).map_or(0, |&h| h + 1));
        self.trace_into(src, dst, &mut nodes);
        Path::from_nodes(graph, nodes).ok()
    }

    /// Appends to `nodes` the parent table's nodes from `src` to a
    /// discovered `dst`.
    fn trace_into(&self, src: NodeId, dst: NodeId, nodes: &mut Vec<NodeId>) {
        let from = nodes.len();
        let mut cur = dst;
        nodes.push(cur);
        while cur != src {
            cur = self.parent[cur.0];
            nodes.push(cur);
        }
        nodes[from..].reverse();
    }
}

/// Fewest-hops path from `src` to `dst` using only links accepted by
/// `filter`, maximizing the minimum `allowance` along the path among
/// equal-hop candidates, and discarding paths longer than `hop_bound`.
/// The search reuses the caller-owned `scratch` buffers, so the hot
/// admission path allocates nothing but the path it returns.
///
/// This reproduces what bounded flooding converges to: the first request
/// copy to arrive took a fewest-hops route, and among simultaneous arrivals
/// the destination keeps the copy with the best bandwidth allowance.
///
/// The flood is goal-directed and exact. A node `v` entered at level `k`
/// can only lie on a route of `k + h(v)` hops or more, so a round with
/// target length `T` leaves out every node with `k + h(v) > T`. The nodes
/// it does enter are closed under predecessors — a neighbour `u` one
/// level before `v` has `h(u) ≤ h(v) + 1` — so each of them sees every
/// parent the unrestricted flood would offer it, in the same order, and
/// ends with the same level, bottleneck and parent; the destination, once
/// the target is long enough, is found at the same level by the same
/// tie-breaks. Only the set of links asked about shrinks.
///
/// Returns `None` if `dst` is unreachable within the bound.
///
/// # Panics
///
/// Panics if `src` or `dst` is not a node of `graph`.
pub(crate) fn flood_path_with(
    scratch: &mut FloodScratch,
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    hop_bound: usize,
    filter: &LinkFilter,
    allowance: &dyn Fn(LinkId) -> Bandwidth,
) -> Option<Path> {
    assert!(graph.contains_node(src) && graph.contains_node(dst));
    scratch.begin(graph);
    if src == dst {
        return Path::from_nodes(graph, vec![src]).ok();
    }
    let goal = Goal {
        dst,
        row: graph.hops_toward(dst),
        within: None,
    };
    let found = scratch.deepen::<false>(graph, goal, src, hop_bound, filter, allowance);
    found.then(|| scratch.trace(graph, src, dst)).flatten()
}

/// The route-search scratch a planner hands to [`route_primary_with`] and
/// [`route_backup_with`].
pub type RouteScratch = FloodScratch;

/// Routes a primary channel according to `kind`, reusing the caller-owned
/// search buffers.
///
/// `filter` encodes per-link admission feasibility and `allowance` the
/// spare bandwidth used for flooding tie-breaks.
pub fn route_primary_with(
    scratch: &mut RouteScratch,
    kind: RouterKind,
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    filter: &LinkFilter,
    allowance: &dyn Fn(LinkId) -> Bandwidth,
) -> Option<Path> {
    // The primary's flood is bounded by the network alone; `hop_slack`
    // bounds only the backup's.
    let RouterKind::BoundedFlooding { .. } = kind;
    let hop_bound = graph.node_count();
    flood_path_with(scratch, graph, src, dst, hop_bound, filter, allowance)
}

/// Routes a backup channel, link-disjoint from `primary`, according to
/// `kind`, reusing the caller-owned search buffers.
///
/// `filter` must already encode backup-specific feasibility (multiplexed
/// reservation headroom); this function additionally excludes the primary's
/// links and enforces the flooding bound.
///
/// When the endpoints lie in different blocks ([`Graph::blocks`]), every
/// route between them crosses the bridges between those blocks, the
/// primary's among them, so the strict flood is not run: the answer is
/// `None`, and the maximally-disjoint fallback starts a fresh probe memo.
/// (An endpoint of one link is one case: that link is a bridge.)
pub fn route_backup_with(
    scratch: &mut RouteScratch,
    kind: RouterKind,
    graph: &Graph,
    primary: &Path,
    disjointness: BackupDisjointness,
    filter: &LinkFilter,
    allowance: &dyn Fn(LinkId) -> Bandwidth,
) -> Option<Path> {
    // A path is at most a diameter plus slack long: `crosses` scans its
    // link slice, which beats hashing it.
    let disjoint_filter = |l: LinkId| !primary.crosses(l) && filter(l);
    let (src, dst) = (primary.source(), primary.destination());
    let RouterKind::BoundedFlooding { hop_slack } = kind;
    let bound = primary.hop_count().saturating_add(hop_slack);
    let blocks = graph.blocks();
    let strict = if blocks[src.0] != blocks[dst.0] {
        scratch.begin(graph);
        None
    } else {
        flood_path_with(scratch, graph, src, dst, bound, &disjoint_filter, allowance)
    };
    if strict.is_some() || disjointness == BackupDisjointness::Strict {
        return strict;
    }
    let candidate = scratch.least_shared_path(graph, primary, filter)?;
    // A backup that *is* the primary protects nothing.
    if candidate.links().iter().all(|&l| primary.crosses(l)) {
        return None;
    }
    Some(candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_sim::rng::Rng;
    use drqos_topology::paths::{dijkstra_path, pass_all};
    use drqos_topology::regular;
    use drqos_topology::waxman::paper_waxman;
    use std::cell::RefCell;

    fn no_allowance_bias(_: LinkId) -> Bandwidth {
        Bandwidth::kbps(1_000)
    }

    /// 0-1-2-3 line plus 0-4-3 detour (2 hops).
    fn diamond() -> Graph {
        let mut g = Graph::with_nodes(5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)] {
            g.add_link(NodeId(a), NodeId(b)).unwrap();
        }
        g
    }

    #[test]
    fn flood_finds_fewest_hops() {
        let g = diamond();
        let p = flood_path_with(
            &mut FloodScratch::new(),
            &g,
            NodeId(0),
            NodeId(3),
            10,
            &pass_all,
            &no_allowance_bias,
        )
        .unwrap();
        assert_eq!(p.hop_count(), 2);
    }

    #[test]
    fn flood_breaks_ties_by_allowance() {
        // Two 2-hop routes 0-1-3 and 0-2-3; make the second fatter.
        let mut g = Graph::with_nodes(4);
        let l01 = g.add_link(NodeId(0), NodeId(1)).unwrap();
        g.add_link(NodeId(1), NodeId(3)).unwrap();
        g.add_link(NodeId(0), NodeId(2)).unwrap();
        g.add_link(NodeId(2), NodeId(3)).unwrap();
        let allowance = |l: LinkId| {
            if l == l01 {
                Bandwidth::kbps(10)
            } else {
                Bandwidth::kbps(100)
            }
        };
        let p = flood_path_with(
            &mut FloodScratch::new(),
            &g,
            NodeId(0),
            NodeId(3),
            10,
            &pass_all,
            &allowance,
        )
        .unwrap();
        assert_eq!(p.nodes()[1], NodeId(2), "should avoid the thin link");
    }

    #[test]
    fn flood_respects_hop_bound() {
        let g = regular::grid(1, 5).unwrap(); // line 0-1-2-3-4
        assert!(flood_path_with(
            &mut FloodScratch::new(),
            &g,
            NodeId(0),
            NodeId(4),
            3,
            &pass_all,
            &no_allowance_bias
        )
        .is_none());
        assert!(flood_path_with(
            &mut FloodScratch::new(),
            &g,
            NodeId(0),
            NodeId(4),
            4,
            &pass_all,
            &no_allowance_bias
        )
        .is_some());
    }

    #[test]
    fn flood_respects_filter() {
        let g = diamond();
        let l04 = g.link_between(NodeId(0), NodeId(4)).unwrap();
        let p = flood_path_with(
            &mut FloodScratch::new(),
            &g,
            NodeId(0),
            NodeId(3),
            10,
            &|l| l != l04,
            &no_allowance_bias,
        )
        .unwrap();
        assert_eq!(p.hop_count(), 3);
    }

    #[test]
    fn flood_src_equals_dst() {
        let g = diamond();
        let p = flood_path_with(
            &mut FloodScratch::new(),
            &g,
            NodeId(1),
            NodeId(1),
            10,
            &pass_all,
            &no_allowance_bias,
        )
        .unwrap();
        assert_eq!(p.hop_count(), 0);
    }

    #[test]
    fn backup_is_disjoint() {
        let g = regular::ring(6).unwrap();
        let kind = RouterKind::default();
        let p = route_primary_with(
            &mut RouteScratch::new(),
            kind,
            &g,
            NodeId(0),
            NodeId(3),
            &pass_all,
            &no_allowance_bias,
        )
        .unwrap();
        let b = route_backup_with(
            &mut RouteScratch::new(),
            kind,
            &g,
            &p,
            BackupDisjointness::Strict,
            &pass_all,
            &no_allowance_bias,
        )
        .unwrap();
        assert!(p.is_link_disjoint(&b));
    }

    #[test]
    fn flooding_hop_slack_limits_backup() {
        // Primary on the diamond is 2 hops; the only disjoint route is 3
        // hops, needing slack ≥ 1.
        let g = diamond();
        let kind0 = RouterKind::BoundedFlooding { hop_slack: 0 };
        let kind1 = RouterKind::BoundedFlooding { hop_slack: 1 };
        let p = route_primary_with(
            &mut RouteScratch::new(),
            kind0,
            &g,
            NodeId(0),
            NodeId(3),
            &pass_all,
            &no_allowance_bias,
        )
        .unwrap();
        assert_eq!(p.hop_count(), 2);
        assert!(route_backup_with(
            &mut RouteScratch::new(),
            kind0,
            &g,
            &p,
            BackupDisjointness::Strict,
            &pass_all,
            &no_allowance_bias
        )
        .is_none());
        assert!(route_backup_with(
            &mut RouteScratch::new(),
            kind1,
            &g,
            &p,
            BackupDisjointness::Strict,
            &pass_all,
            &no_allowance_bias
        )
        .is_some());
    }

    #[test]
    fn maximal_fallback_minimizes_overlap() {
        // A "lollipop": leaf 0 — 1, then a 1-2-3-4-1 cycle. Every path
        // from 0 must use link 0-1, so no strict backup exists for 0→3,
        // but a maximally-disjoint one shares only that first link.
        let mut g = Graph::with_nodes(5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)] {
            g.add_link(NodeId(a), NodeId(b)).unwrap();
        }
        let kind = RouterKind::default();
        let p = route_primary_with(
            &mut RouteScratch::new(),
            kind,
            &g,
            NodeId(0),
            NodeId(3),
            &pass_all,
            &no_allowance_bias,
        )
        .unwrap();
        assert!(route_backup_with(
            &mut RouteScratch::new(),
            kind,
            &g,
            &p,
            BackupDisjointness::Strict,
            &pass_all,
            &no_allowance_bias
        )
        .is_none());
        let b = route_backup_with(
            &mut RouteScratch::new(),
            kind,
            &g,
            &p,
            BackupDisjointness::MaximallyDisjoint,
            &pass_all,
            &no_allowance_bias,
        )
        .unwrap();
        let shared = b.links().iter().filter(|&&l| p.crosses(l)).count();
        assert_eq!(shared, 1, "only the leaf link is shared");
        assert_ne!(p, b);
    }

    #[test]
    fn maximal_fallback_rejects_identical_backup() {
        // On a line the only path is the primary itself.
        let g = regular::grid(1, 3).unwrap();
        let kind = RouterKind::default();
        let p = route_primary_with(
            &mut RouteScratch::new(),
            kind,
            &g,
            NodeId(0),
            NodeId(2),
            &pass_all,
            &no_allowance_bias,
        )
        .unwrap();
        assert!(route_backup_with(
            &mut RouteScratch::new(),
            kind,
            &g,
            &p,
            BackupDisjointness::MaximallyDisjoint,
            &pass_all,
            &no_allowance_bias
        )
        .is_none());
    }

    #[test]
    fn flood_scratch_reuse_matches_fresh_searches() {
        let g = regular::torus(4, 4).unwrap();
        let mut scratch = FloodScratch::new();
        for (s, d, bound) in [
            (0, 15, 16),
            (3, 12, 16),
            (5, 5, 16),
            (0, 10, 2),
            (15, 0, 16),
        ] {
            let reused = flood_path_with(
                &mut scratch,
                &g,
                NodeId(s),
                NodeId(d),
                bound,
                &pass_all,
                &no_allowance_bias,
            );
            let fresh = flood_path_with(
                &mut FloodScratch::new(),
                &g,
                NodeId(s),
                NodeId(d),
                bound,
                &pass_all,
                &no_allowance_bias,
            );
            assert_eq!(reused, fresh, "{s}->{d} bound {bound}");
        }
        // Invalidation keeps the scratch usable.
        scratch.invalidate();
        let p = flood_path_with(
            &mut scratch,
            &g,
            NodeId(0),
            NodeId(15),
            16,
            &pass_all,
            &no_allowance_bias,
        )
        .unwrap();
        assert_eq!(p.hop_count(), 2, "torus corner-to-corner is 2 hops");
    }

    /// Every route `graph` has within `hop_bound` hops, from each node to
    /// each.
    fn all_pairs(scratch: &mut FloodScratch, graph: &Graph, hop_bound: usize) -> Vec<Option<Path>> {
        let pairs = graph
            .nodes()
            .flat_map(|s| graph.nodes().map(move |d| (s, d)));
        pairs
            .map(|(s, d)| {
                flood_path_with(
                    scratch,
                    graph,
                    s,
                    d,
                    hop_bound,
                    &pass_all,
                    &no_allowance_bias,
                )
            })
            .collect()
    }

    #[test]
    fn a_searched_graph_equals_and_answers_like_an_unsearched_one() {
        let draw = || {
            paper_waxman(40)
                .generate(&mut Rng::seed_from_u64(15))
                .unwrap()
        };
        let (searched, fresh) = (draw(), draw());
        let clone = searched.clone();
        let mut scratch = FloodScratch::new();
        let answers = all_pairs(&mut scratch, &searched, 4);
        assert!(answers.iter().any(Option::is_none) && answers.iter().any(Option::is_some));
        // Every row of `searched` is filled now, and shared with `clone`;
        // neither equality nor `Debug` sees them. (Two graphs built apart
        // hash their link index differently, so only a clone's `Debug`
        // can be compared.)
        assert_eq!(searched, fresh);
        assert_eq!(format!("{searched:?}"), format!("{clone:?}"));
        for g in [&fresh, &clone, &searched] {
            assert_eq!(all_pairs(&mut FloodScratch::new(), g, 4), answers);
        }
    }

    /// The flood as it was before it became goal-directed, and before the
    /// probe memo: level by level in every direction, `filter` and
    /// `allowance` run every time a link is reached. Kept as the one
    /// reference; tallies the nodes it expands like the production rounds.
    fn flood_path_reference(
        scratch: &mut FloodScratch,
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        hop_bound: usize,
        filter: &LinkFilter,
        allowance: &dyn Fn(LinkId) -> Bandwidth,
    ) -> Option<Path> {
        assert!(graph.contains_node(src) && graph.contains_node(dst));
        scratch.begin(graph);
        if src == dst {
            return Path::from_nodes(graph, vec![src]).ok();
        }
        scratch.begin_round();
        scratch.discover(src, 0, Bandwidth::kbps(u64::MAX), src);
        let mut frontier = std::mem::take(&mut scratch.frontier);
        let mut next = std::mem::take(&mut scratch.next);
        frontier.clear();
        frontier.push(src);
        for level in 0..hop_bound {
            if frontier.is_empty() {
                break;
            }
            next.clear();
            for &u in &frontier {
                scratch.tally.1 += 1;
                for &(v, l) in graph.neighbors(u) {
                    if !filter(l) {
                        continue;
                    }
                    let cand = scratch.bottleneck[u.0].min(allowance(l));
                    if !scratch.discovered(v) {
                        scratch.discover(v, level + 1, cand, u);
                        next.push(v);
                    } else if scratch.hops[v.0] == level + 1 && cand > scratch.bottleneck[v.0] {
                        scratch.bottleneck[v.0] = cand;
                        scratch.parent[v.0] = u;
                    }
                }
            }
            if scratch.discovered(dst) {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        scratch.frontier = frontier;
        scratch.next = next;
        if scratch.discovered(dst) {
            scratch.trace(graph, src, dst)
        } else {
            None
        }
    }

    type FloodFn<'a> = dyn Fn(
            &mut FloodScratch,
            &Graph,
            NodeId,
            NodeId,
            usize,
            &LinkFilter,
            &dyn Fn(LinkId) -> Bandwidth,
        ) -> Option<Path>
        + 'a;
    type Flood<'a> = &'a FloodFn<'a>;

    /// [`flood_path_with`] steered by the row `row` makes of the graph's
    /// rows in place of [`Graph::hops_toward`]: the seam the row mutants
    /// go in by.
    fn flood_over_row<'a>(row: &'a dyn Fn(&Graph, NodeId) -> Vec<u32>) -> Box<FloodFn<'a>> {
        Box::new(
            move |scratch, graph, src, dst, hop_bound, filter, allowance| {
                scratch.begin(graph);
                if src == dst {
                    return Path::from_nodes(graph, vec![src]).ok();
                }
                let row = row(graph, dst);
                let goal = Goal {
                    dst,
                    row: &row,
                    within: None,
                };
                let found = scratch.deepen::<false>(graph, goal, src, hop_bound, filter, allowance);
                found.then(|| scratch.trace(graph, src, dst)).flatten()
            },
        )
    }

    /// What one search did: its answer and every link it offered to each
    /// closure, in call order.
    struct Searched {
        path: Option<Path>,
        filtered: Vec<LinkId>,
        allowed: Vec<LinkId>,
    }

    impl Searched {
        /// The footprint a recording caller would keep.
        fn probed(&self) -> Vec<LinkId> {
            let mut all: Vec<LinkId> = self.filtered.iter().chain(&self.allowed).copied().collect();
            all.sort_unstable();
            all.dedup();
            all
        }
    }

    /// One seeded search: endpoints, hop bound, and per-link answers.
    struct FloodCase {
        src: NodeId,
        dst: NodeId,
        hop_bound: usize,
        refused: Vec<bool>,
        allowance: Vec<Bandwidth>,
    }

    impl FloodCase {
        fn draw(rng: &mut Rng, graph: &Graph) -> Self {
            let n = graph.node_count();
            let src = NodeId(rng.range_usize(n));
            let dst = if rng.chance(0.05) {
                src
            } else {
                NodeId(rng.range_usize(n))
            };
            let hop_bound = match rng.range_usize(4) {
                0 => n, // unbounded
                1 => 1 + rng.range_usize(2),
                _ => 1 + rng.range_usize(8),
            };
            let refuse = [0.0, 0.1, 0.3, 0.6][rng.range_usize(4)];
            // Three allowance values over dozens of links: ties everywhere.
            Self {
                src,
                dst,
                hop_bound,
                refused: graph.links().map(|_| rng.chance(refuse)).collect(),
                allowance: graph
                    .links()
                    .map(|_| Bandwidth::kbps(100 * (1 + rng.range_u64(3))))
                    .collect(),
            }
        }

        /// A case in which every link passes with the same allowance.
        fn open(graph: &Graph, src: usize, dst: usize, hop_bound: usize) -> Self {
            Self {
                src: NodeId(src),
                dst: NodeId(dst),
                hop_bound,
                refused: vec![false; graph.link_count()],
                allowance: vec![Bandwidth::kbps(100); graph.link_count()],
            }
        }

        fn run(&self, flood: Flood, scratch: &mut FloodScratch, graph: &Graph) -> Searched {
            let filtered = RefCell::new(Vec::new());
            let allowed = RefCell::new(Vec::new());
            let path = flood(
                scratch,
                graph,
                self.src,
                self.dst,
                self.hop_bound,
                &|l| {
                    filtered.borrow_mut().push(l);
                    !self.refused[l.index()]
                },
                &|l| {
                    allowed.borrow_mut().push(l);
                    self.allowance[l.index()]
                },
            );
            Searched {
                path,
                filtered: filtered.into_inner(),
                allowed: allowed.into_inner(),
            }
        }
    }

    /// Ring (with an unreachable extra node), torus and Waxman.
    fn flood_graphs() -> Vec<Graph> {
        let mut ring = regular::ring(12).unwrap();
        ring.add_node();
        let waxman = paper_waxman(40)
            .generate(&mut Rng::seed_from_u64(15))
            .unwrap();
        vec![ring, regular::torus(4, 5).unwrap(), waxman]
    }

    /// A way to break the goal-directed flood that its differential must
    /// notice.
    #[derive(Clone, Copy, PartialEq)]
    enum Sabotage {
        /// Memo entries are carried into the next search instead of being
        /// forgotten.
        StaleMemo,
        /// Every distance but the destination's own reads one hop too
        /// long: the row is no longer a lower bound.
        RowOverEstimates,
        /// The row is the one the previous search's destination left.
        RowLeftOver,
    }

    /// What a differential run saw, beyond agreement.
    #[derive(Debug, Default)]
    struct FloodCounts {
        /// Searches by the number of rounds they took (0: `src == dst`,
        /// or the row already said no).
        by_rounds: [usize; 4],
        unrouted: usize,
        probed: usize,
        reference_probed: usize,
    }

    /// Runs `cases` seeded searches through the goal-directed flood and
    /// the reference, one scratch each for the whole run (across graphs of
    /// different sizes and a wrap of both generation counters, the round
    /// counter once more between two rounds of one search), and reports
    /// the first case that breaks what the flood promises: the reference's
    /// answer; no link asked about that the reference did not ask about;
    /// no link offered to either closure twice, in whatever round; at most
    /// three rounds, none of which expands a node the reference did not.
    fn flood_differential(cases: usize, sabotage: Option<Sabotage>) -> Result<FloodCounts, String> {
        let graphs = flood_graphs();
        let mut rng = Rng::seed_from_u64(0x15_F100D);
        let mut subject_scratch = FloodScratch::new();
        let mut ref_scratch = FloodScratch::new();
        let mut counts = FloodCounts::default();
        let last_dst = std::cell::Cell::new(NodeId(0));
        let over_estimate = |g: &Graph, dst: NodeId| {
            let mut row = g.hops_toward(dst).to_vec();
            for (v, h) in row.iter_mut().enumerate() {
                if v != dst.0 && *h != UNREACHABLE {
                    *h += 1;
                }
            }
            row
        };
        let left_over = |g: &Graph, _: NodeId| {
            g.hops_toward(NodeId(last_dst.get().0 % g.node_count()))
                .to_vec()
        };
        let (over_estimating, left_behind) =
            (flood_over_row(&over_estimate), flood_over_row(&left_over));
        let subject: Flood = match sabotage {
            Some(Sabotage::RowOverEstimates) => &*over_estimating,
            Some(Sabotage::RowLeftOver) => &*left_behind,
            Some(Sabotage::StaleMemo) | None => &flood_path_with,
        };
        for i in 0..cases {
            let graph = &graphs[(i / 4) % graphs.len()];
            let case = FloodCase::draw(&mut rng, graph);
            if sabotage == Some(Sabotage::StaleMemo) {
                let search = subject_scratch.search;
                for stamp in &mut subject_scratch.link_stamp {
                    if *stamp == search {
                        *stamp = search + 1;
                    }
                }
            } else if i == 1 {
                // Case 0 stamped with generation 1 of each counter; this
                // case wraps both back to 1 and must see none of it.
                subject_scratch.search = u64::MAX;
                subject_scratch.gen = u64::MAX;
            } else if i == 9 {
                // The wrap falls after the first round of this search.
                subject_scratch.gen = u64::MAX - 1;
            }
            let got = case.run(subject, &mut subject_scratch, graph);
            let want = case.run(&flood_path_reference, &mut ref_scratch, graph);
            last_dst.set(case.dst);
            if got.path != want.path {
                return Err(format!(
                    "case {i}: path {:?}, reference {:?}",
                    got.path, want.path
                ));
            }
            let (probed, reference_probed) = (got.probed(), want.probed());
            if probed
                .iter()
                .any(|l| reference_probed.binary_search(l).is_err())
            {
                return Err(format!("case {i}: probed a link the reference did not"));
            }
            // One probe per link across all rounds: the call logs are
            // duplicate-free, and only passed links are asked an allowance.
            if got.filtered.len() != probed.len() {
                return Err(format!("case {i}: a link was filtered twice"));
            }
            let passed: Vec<LinkId> = got
                .filtered
                .iter()
                .copied()
                .filter(|l| !case.refused[l.index()])
                .collect();
            if got.allowed != passed {
                return Err(format!("case {i}: allowance calls {:?}", got.allowed));
            }
            let ((rounds, visits), (_, reference_visits)) =
                (subject_scratch.tally, ref_scratch.tally);
            if rounds > 3 || visits > 3 * reference_visits {
                return Err(format!(
                    "case {i}: {rounds} rounds, {visits} node visits to the \
                     reference's {reference_visits}"
                ));
            }
            counts.by_rounds[rounds] += 1;
            counts.unrouted += usize::from(got.path.is_none());
            counts.probed += probed.len();
            counts.reference_probed += reference_probed.len();
        }
        Ok(counts)
    }

    /// Every way a search can end was taken, and the pruning pruned.
    fn assert_flood_coverage(counts: &FloodCounts, cases: usize) {
        let floor = cases / 40;
        assert!(
            counts.by_rounds.iter().all(|&n| n > floor) && counts.unrouted > floor,
            "{counts:?}"
        );
        assert!(counts.probed * 2 < counts.reference_probed, "{counts:?}");
    }

    #[test]
    fn memoized_flood_matches_the_reference_on_seeded_cases() {
        let n = crate::cases::scaled(2400) as usize;
        assert_flood_coverage(&flood_differential(n, None).unwrap(), n);
    }

    #[test]
    fn a_memo_that_outlives_its_search_is_caught() {
        let caught = flood_differential(2400, Some(Sabotage::StaleMemo));
        assert!(caught.is_err(), "stale memo answers went unnoticed");
    }

    #[test]
    fn a_distance_row_that_over_estimates_by_one_hop_is_caught() {
        let caught = flood_differential(2400, Some(Sabotage::RowOverEstimates));
        assert!(caught.is_err(), "an inadmissible bound went unnoticed");
    }

    #[test]
    fn a_distance_row_left_over_from_the_previous_destination_is_caught() {
        let caught = flood_differential(2400, Some(Sabotage::RowLeftOver));
        assert!(caught.is_err(), "a stale distance row went unnoticed");
    }

    #[test]
    fn no_link_is_probed_twice_in_one_search() {
        // Corner to corner on a torus with everything passable: every
        // link is reached from both ends.
        let g = regular::torus(4, 4).unwrap();
        let case = FloodCase::open(&g, 0, 10, 16);
        let count = |calls: &[LinkId], l: LinkId| calls.iter().filter(|&&c| c == l).count();
        let flood = case.run(&flood_path_with, &mut FloodScratch::new(), &g);
        let reference = case.run(&flood_path_reference, &mut FloodScratch::new(), &g);
        assert_eq!(flood.path, reference.path);
        for link in g.links() {
            assert!(count(&flood.filtered, link.id()) <= 1, "{}", link.id());
            assert!(count(&flood.allowed, link.id()) <= 1, "{}", link.id());
        }
        // The reference shows there was something to save.
        assert!(g.links().any(|l| count(&reference.filtered, l.id()) > 1));
        assert!(reference.allowed.len() > flood.allowed.len());
    }

    #[test]
    fn a_bound_shorter_than_the_static_distance_probes_nothing() {
        // 0 and 6 are six hops apart on the ring whatever its links say.
        let g = regular::ring(12).unwrap();
        let mut scratch = FloodScratch::new();
        let short = FloodCase::open(&g, 0, 6, 5).run(&flood_path_with, &mut scratch, &g);
        assert_eq!(short.path, None);
        assert!(short.probed().is_empty());
        assert_eq!(scratch.tally, (0, 0));
        let exact = FloodCase::open(&g, 0, 6, 6).run(&flood_path_with, &mut scratch, &g);
        assert_eq!(exact.path.unwrap().hop_count(), 6);
        assert_eq!(scratch.tally.0, 1, "found among the shortest routes");
    }

    #[test]
    fn a_statically_unreachable_destination_probes_nothing() {
        let mut g = regular::ring(12).unwrap();
        let island = g.add_node();
        let case = FloodCase::open(&g, 0, island.0, g.node_count());
        let mut scratch = FloodScratch::new();
        let searched = case.run(&flood_path_with, &mut scratch, &g);
        assert_eq!(searched.path, None);
        assert!(searched.probed().is_empty());
        assert_eq!(scratch.tally, (0, 0));
    }

    #[test]
    fn a_degree_1_source_skips_the_strict_backup_search() {
        // The lollipop again: the leaf's only link is the primary's, so
        // the strict search could not leave it. It is not run: no round,
        // no node walked, no link asked.
        let mut g = Graph::with_nodes(5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)] {
            g.add_link(NodeId(a), NodeId(b)).unwrap();
        }
        let mut scratch = RouteScratch::new();
        let kind = RouterKind::default();
        let p = route_primary_with(
            &mut scratch,
            kind,
            &g,
            NodeId(0),
            NodeId(3),
            &pass_all,
            &no_allowance_bias,
        )
        .unwrap();
        let asked = RefCell::new(0);
        let counted = |_: LinkId| {
            *asked.borrow_mut() += 1;
            true
        };
        let strict = route_backup_with(
            &mut scratch,
            kind,
            &g,
            &p,
            BackupDisjointness::Strict,
            &counted,
            &no_allowance_bias,
        );
        assert_eq!(strict, None);
        assert_eq!((scratch.tally, asked.into_inner()), ((0, 0), 0));
    }

    #[test]
    fn with_every_link_refusing_the_rounds_stay_within_three_times_the_reference() {
        // The deepening schedule's worst case, by count: nothing is ever
        // found, so every round the schedule allows is run.
        for g in flood_graphs() {
            let n = g.node_count();
            for (src, dst) in [(0, 5), (3, 1), (7, 0)] {
                let mut case = FloodCase::open(&g, src, dst, n);
                case.refused = vec![true; g.link_count()];
                let (mut scratch, mut ref_scratch) = (FloodScratch::new(), FloodScratch::new());
                let flood = case.run(&flood_path_with, &mut scratch, &g);
                let reference = case.run(&flood_path_reference, &mut ref_scratch, &g);
                assert_eq!((&flood.path, &reference.path), (&None, &None));
                let ((rounds, visits), (_, reference_visits)) = (scratch.tally, ref_scratch.tally);
                assert!(rounds <= 3, "{rounds} rounds");
                assert!(
                    visits <= 3 * reference_visits,
                    "{visits} vs {reference_visits}"
                );
                // However many rounds, each link of the source is asked once.
                assert_eq!(flood.filtered.len(), g.degree(NodeId(src)));
                assert!(flood.allowed.is_empty());
            }
        }
    }

    // ------------------------------- the fallback vs the Dijkstra it was --

    type BackupRouter<'a> = &'a dyn Fn(
        &mut RouteScratch,
        RouterKind,
        &Graph,
        &Path,
        &LinkFilter,
        &dyn Fn(LinkId) -> Bandwidth,
    ) -> Option<Path>;

    /// A backup that *is* the primary protects nothing.
    fn unless_identical(candidate: Path, primary: &Path) -> Option<Path> {
        let identical = candidate.links().iter().all(|&l| primary.crosses(l));
        (!identical).then_some(candidate)
    }

    /// Maximally-disjoint [`route_backup_with`] as it was, kept as the
    /// reference: the reference flood for the strict search, then the
    /// topology crate's allocating Dijkstra under a floating-point
    /// weight, `filter` asked afresh from both ends of every link.
    fn route_backup_reference(
        scratch: &mut RouteScratch,
        kind: RouterKind,
        graph: &Graph,
        primary: &Path,
        filter: &LinkFilter,
        allowance: &dyn Fn(LinkId) -> Bandwidth,
    ) -> Option<Path> {
        let disjoint_filter = |l: LinkId| !primary.crosses(l) && filter(l);
        let (src, dst) = (primary.source(), primary.destination());
        let RouterKind::BoundedFlooding { hop_slack } = kind;
        let strict = flood_path_reference(
            scratch,
            graph,
            src,
            dst,
            primary.hop_count() + hop_slack,
            &disjoint_filter,
            allowance,
        );
        if strict.is_some() {
            return strict;
        }
        const SHARE_PENALTY: f64 = 65_536.0; // far above any hop count
        let weight = |l: LinkId| {
            if primary.crosses(l) {
                1.0 + SHARE_PENALTY
            } else {
                1.0
            }
        };
        let candidate = dijkstra_path(graph, src, dst, &weight, filter)?;
        unless_identical(candidate, primary)
    }

    fn route_backup_maximally(
        scratch: &mut RouteScratch,
        kind: RouterKind,
        graph: &Graph,
        primary: &Path,
        filter: &LinkFilter,
        allowance: &dyn Fn(LinkId) -> Bandwidth,
    ) -> Option<Path> {
        let maximally = BackupDisjointness::MaximallyDisjoint;
        route_backup_with(scratch, kind, graph, primary, maximally, filter, allowance)
    }

    /// The mutant: a fallback that continues whatever search the scratch
    /// ran last — here the primary's, which asked another question of the
    /// same links — instead of the strict backup search.
    fn route_backup_unseeded(
        scratch: &mut RouteScratch,
        kind: RouterKind,
        graph: &Graph,
        primary: &Path,
        filter: &LinkFilter,
        allowance: &dyn Fn(LinkId) -> Bandwidth,
    ) -> Option<Path> {
        let (aside, strict) = (&mut RouteScratch::new(), BackupDisjointness::Strict);
        route_backup_with(aside, kind, graph, primary, strict, filter, allowance).or_else(|| {
            let candidate = scratch.least_shared_path(graph, primary, filter)?;
            unless_identical(candidate, primary)
        })
    }

    /// What [`fallback_differential`] counted over its cases.
    #[derive(Debug, Default)]
    struct FallbackCounts {
        /// Backup searches run: the primary was found.
        searched: usize,
        /// Fallbacks that found a backup sharing links with the primary.
        shared: usize,
        /// Searches that found no backup.
        none: usize,
        /// Searches with an endpoint of one link, the primary's: the
        /// strict flood is skipped.
        degree_1: usize,
        /// Searches with an endpoint whose every other link the backup
        /// filter refuses: the strict flood runs and finds nothing.
        cut_off: usize,
        /// Searches whose primary crosses a bridge, and two or more: the
        /// fallback is staged.
        staged: usize,
        multi_bridge: usize,
        /// Fallback segments the rounds did not settle: the Dijkstra ran.
        fall_throughs: usize,
        /// Fallbacks that found a disjoint backup the bound kept from the
        /// strict flood.
        bound_only: usize,
    }

    /// Graphs rich in bridges: two rings joined by a chain of two
    /// bridges, a dumbbell (two complete graphs of four joined by a path
    /// of three links), and three rings in a row, each joined to the next
    /// by one bridge.
    fn bridged_graphs() -> Vec<Graph> {
        let build = |nodes: usize, links: &[(usize, usize)]| {
            let mut g = Graph::with_nodes(nodes);
            for &(a, b) in links {
                g.add_link(NodeId(a), NodeId(b)).unwrap();
            }
            g
        };
        let ring =
            |from: usize, size: usize| (0..size).map(move |i| (from + i, from + (i + 1) % size));
        let clique =
            |from: usize| (0..4).flat_map(move |i| (i + 1..4).map(move |j| (from + i, from + j)));
        let rings: Vec<_> = ring(0, 6)
            .chain(ring(6, 5))
            .chain([(2, 11), (11, 8)])
            .collect();
        let dumbbell: Vec<_> = clique(0)
            .chain(clique(4))
            .chain([(3, 8), (8, 9), (9, 4)])
            .collect();
        let chain: Vec<_> = ring(0, 5)
            .chain(ring(5, 4))
            .chain(ring(9, 6))
            .chain([(2, 5), (7, 9)])
            .collect();
        vec![build(12, &rings), build(10, &dumbbell), build(15, &chain)]
    }

    /// [`flood_graphs`] and [`bridged_graphs`], each with three leaves:
    /// nodes of one link.
    fn fallback_graphs() -> Vec<(Graph, Vec<NodeId>)> {
        let with_leaves = |mut g: Graph| {
            let leaves: Vec<NodeId> = [0, 3, 7]
                .map(|at| {
                    let leaf = g.add_node();
                    g.add_link(NodeId(at), leaf).unwrap();
                    leaf
                })
                .to_vec();
            (g, leaves)
        };
        let graphs = flood_graphs().into_iter().chain(bridged_graphs());
        graphs.map(with_leaves).collect()
    }

    /// Runs `cases` seeded primary-then-backup searches — the backup under
    /// its own refusals, flooding with slack 0–3 — through `subject` and
    /// the reference, one scratch each for the whole run. A quarter of the
    /// cases put an endpoint on a leaf, and an eighth refuse the backup
    /// every link at one endpoint but the primary's.
    /// Both must return the same backup, the subject may offer no link to
    /// `filter` twice across strict search and fallback, and the strict
    /// search alone must return the reference flood's path.
    fn fallback_differential(
        cases: usize,
        subject: BackupRouter,
    ) -> Result<FallbackCounts, String> {
        let graphs = fallback_graphs();
        let mut rng = Rng::seed_from_u64(0x21_FA11);
        let (mut scratch, mut ref_scratch) = (RouteScratch::new(), RouteScratch::new());
        let mut counts = FallbackCounts::default();
        for i in 0..cases {
            let (graph, leaves) = &graphs[(i / 4) % graphs.len()];
            let mut case = FloodCase::draw(&mut rng, graph);
            let (leaf, cut) = match rng.range_usize(8) {
                0 | 1 => (true, false),
                2 => (false, true),
                _ => (false, false),
            };
            if leaf {
                let at = leaves[rng.range_usize(leaves.len())];
                *[&mut case.src, &mut case.dst][rng.range_usize(2)] = at;
            }
            let cut_at = rng.range_usize(2);
            let mut backup_refused: Vec<bool> = {
                let refuse = [0.0, 0.2, 0.5][rng.range_usize(3)];
                graph.links().map(|_| rng.chance(refuse)).collect()
            };
            let kind = RouterKind::BoundedFlooding {
                hop_slack: rng.range_usize(4),
            };
            let allowance = |l: LinkId| case.allowance[l.index()];
            let primary_filter = |l: LinkId| !case.refused[l.index()];
            let found = route_primary_with(
                &mut scratch,
                kind,
                graph,
                case.src,
                case.dst,
                &primary_filter,
                &allowance,
            );
            let Some(primary) = found.filter(|p| p.hop_count() > 0) else {
                continue;
            };
            let ends = [primary.source(), primary.destination()];
            let others = |v: NodeId| {
                let at = graph.neighbors(v).iter().map(|&(_, l)| l);
                at.filter(|&l| !primary.crosses(l)).collect::<Vec<LinkId>>()
            };
            if cut {
                others(ends[cut_at])
                    .into_iter()
                    .for_each(|l| backup_refused[l.index()] = true);
            }
            counts.searched += 1;
            let refused_all = |v: NodeId| {
                let others = others(v);
                !others.is_empty() && others.iter().all(|l| backup_refused[l.index()])
            };
            counts.degree_1 += usize::from(ends.iter().any(|&v| others(v).is_empty()));
            counts.cut_off += usize::from(ends.iter().any(|&v| refused_all(v)));
            let blocks = graph.blocks();
            let steps = primary.nodes().windows(2);
            let bridges = steps.filter(|e| blocks[e[0].0] != blocks[e[1].0]).count();
            counts.staged += usize::from(bridges > 0);
            counts.multi_bridge += usize::from(bridges > 1);
            let fell_before = scratch.fall_throughs;
            let asked = RefCell::new(Vec::new());
            let counted = |l: LinkId| {
                asked.borrow_mut().push(l);
                !backup_refused[l.index()]
            };
            let got = subject(&mut scratch, kind, graph, &primary, &counted, &allowance);
            counts.fall_throughs += scratch.fall_throughs - fell_before;
            let mut asked = asked.into_inner();
            let want = route_backup_reference(
                &mut ref_scratch,
                kind,
                graph,
                &primary,
                &|l| !backup_refused[l.index()],
                &allowance,
            );
            if got != want {
                return Err(format!("case {i}: backup {got:?}, reference {want:?}"));
            }
            let calls = asked.len();
            asked.sort_unstable();
            asked.dedup();
            if asked.len() != calls {
                return Err(format!("case {i}: a link was offered to the filter twice"));
            }
            // The strict search alone, run or skipped, is the reference
            // flood's: the fallback's answer hides most of its choices.
            let passes = |l: LinkId| !backup_refused[l.index()];
            let strict = BackupDisjointness::Strict;
            let got_strict = route_backup_with(
                &mut scratch,
                kind,
                graph,
                &primary,
                strict,
                &passes,
                &allowance,
            );
            let RouterKind::BoundedFlooding { hop_slack } = kind;
            let (src, dst, bound) = (ends[0], ends[1], primary.hop_count() + hop_slack);
            let disjoint = |l: LinkId| !primary.crosses(l) && passes(l);
            let want_strict = flood_path_reference(
                &mut ref_scratch,
                graph,
                src,
                dst,
                bound,
                &disjoint,
                &allowance,
            );
            if got_strict != want_strict {
                return Err(format!(
                    "case {i}: strict {got_strict:?}, reference {want_strict:?}"
                ));
            }
            match got {
                Some(b) if !b.is_link_disjoint(&primary) => counts.shared += 1,
                None => counts.none += 1,
                Some(_) => counts.bound_only += usize::from(got_strict.is_none()),
            }
        }
        Ok(counts)
    }

    /// Every way the fallback can go was taken, many times over: at least
    /// a quarter of the searches skip the strict flood at a degree-1
    /// endpoint, an eighth run it into a cut-off one, and the staged,
    /// multi-bridge, fall-through and bound-only fallbacks all occur.
    fn assert_fallback_coverage(counts: &FallbackCounts, cases: usize) {
        let (searched, floor) = (counts.searched, cases / 24);
        assert!(
            counts.shared > floor
                && counts.none > floor
                && counts.degree_1 * 4 > searched
                && counts.cut_off * 8 > searched,
            "{counts:?}"
        );
        assert!(
            counts.staged > 4 * floor
                && counts.multi_bridge > floor
                && counts.fall_throughs > floor
                && counts.bound_only > floor / 4,
            "{counts:?}"
        );
    }

    #[test]
    fn the_fallback_matches_the_allocating_dijkstra_on_seeded_cases() {
        let n = crate::cases::scaled(2400) as usize;
        let counts = fallback_differential(n, &route_backup_maximally).unwrap();
        assert_fallback_coverage(&counts, n);
    }

    #[test]
    fn a_fallback_layer_left_unsorted_is_caught() {
        let caught = seam::with(Seam::UnsortedLayer, || {
            fallback_differential(2400, &route_backup_maximally)
        });
        assert!(caught.is_err(), "the differential has no teeth: {caught:?}");
    }

    #[test]
    fn a_fallback_seeded_by_another_search_s_memo_is_caught() {
        let caught = fallback_differential(2400, &route_backup_unseeded);
        assert!(caught.is_err(), "the differential has no teeth: {caught:?}");
    }

    #[test]
    fn route_scratch_backup_matches_fresh() {
        let g = regular::ring(6).unwrap();
        let mut scratch = RouteScratch::new();
        let kind = RouterKind::default();
        let p = route_primary_with(
            &mut scratch,
            kind,
            &g,
            NodeId(0),
            NodeId(3),
            &pass_all,
            &no_allowance_bias,
        )
        .unwrap();
        let b_scratch = route_backup_with(
            &mut scratch,
            kind,
            &g,
            &p,
            BackupDisjointness::Strict,
            &pass_all,
            &no_allowance_bias,
        );
        let b_fresh = route_backup_with(
            &mut RouteScratch::new(),
            kind,
            &g,
            &p,
            BackupDisjointness::Strict,
            &pass_all,
            &no_allowance_bias,
        );
        assert_eq!(b_scratch, b_fresh);
    }

    #[test]
    fn default_router_is_flooding_with_slack_2() {
        assert_eq!(
            RouterKind::default(),
            RouterKind::BoundedFlooding { hop_slack: 2 }
        );
    }
}
