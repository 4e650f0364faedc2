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
//! among equal-hop routes, truncated at the flooding bound. Two
//! alternatives are provided for comparison:
//!
//! * [`RouterKind::Shortest`] — plain BFS, no allowance tie-break (a
//!   cheaper, less informed baseline);
//! * [`RouterKind::SuurballePair`] — jointly optimal link-disjoint pair via
//!   Suurballe's algorithm, falling back to two-phase search when the
//!   backup's multiplexed reservation does not fit on the optimal pair.

use crate::qos::Bandwidth;
use drqos_topology::graph::{Graph, LinkId, NodeId};
use drqos_topology::paths::{bfs_path_with, BfsScratch, LinkFilter, Path};

/// The route-selection strategy of a network.
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
    /// Fewest-hops primary, fewest-hops disjoint backup, no bandwidth
    /// tie-break and no flooding bound.
    Shortest,
    /// Minimum-total-hops link-disjoint pair (Suurballe), with two-phase
    /// fallback when backup reservations do not fit on the optimal pair.
    SuurballePair,
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

/// Reusable buffers for [`flood_path_with`].
///
/// A flood search needs four per-node tables, a per-link probe memo and
/// two frontier vectors; allocating them on every admission attempt
/// dominated the cost of short searches. The tables are
/// generation-stamped (`stamp[v] == gen` marks the entry as belonging to
/// the current search), so beginning a search is O(1) and nothing a
/// previous search wrote can be read by the next — a scratch may be kept
/// across any number of searches, over any graphs, with no invalidation.
/// [`FloodScratch::invalidate`] merely releases the buffers' contents.
#[derive(Debug, Clone, Default)]
pub struct FloodScratch {
    gen: u64,
    stamp: Vec<u64>,
    hops: Vec<usize>,
    bottleneck: Vec<Bandwidth>,
    parent: Vec<NodeId>,
    /// Probe memo: `link_stamp[l] == gen` marks `link_allowance[l]` as
    /// this search's answer for link `l` — `None` if the filter refused
    /// it, else its allowance. A link is reached from both endpoints (and
    /// again by every same-layer improvement), but asked about once.
    link_stamp: Vec<u64>,
    link_allowance: Vec<Option<Bandwidth>>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl FloodScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all cached search state. Never required for correctness (see
    /// the type docs); the buffers re-grow on the next search.
    pub fn invalidate(&mut self) {
        self.gen = 0;
        self.stamp.clear();
        self.hops.clear();
        self.bottleneck.clear();
        self.parent.clear();
        self.link_stamp.clear();
        self.link_allowance.clear();
        self.frontier.clear();
        self.next.clear();
    }

    /// Prepares the buffers for a fresh search over `nodes` nodes and
    /// `links` links.
    fn begin(&mut self, nodes: usize, links: usize) {
        if self.stamp.len() < nodes {
            self.stamp.resize(nodes, 0);
            self.hops.resize(nodes, usize::MAX);
            self.bottleneck.resize(nodes, Bandwidth::ZERO);
            self.parent.resize(nodes, NodeId(usize::MAX));
        }
        if self.link_stamp.len() < links {
            self.link_stamp.resize(links, 0);
            self.link_allowance.resize(links, None);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation wrapped: stale stamps could alias. Reset them all.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.link_stamp.iter_mut().for_each(|s| *s = 0);
            self.gen = 1;
        }
        self.frontier.clear();
        self.next.clear();
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
    /// search; the first time a link is reached decides.
    fn probe(
        &mut self,
        l: LinkId,
        filter: &LinkFilter,
        allowance: &dyn Fn(LinkId) -> Bandwidth,
    ) -> Option<Bandwidth> {
        let i = l.index();
        if self.link_stamp[i] != self.gen {
            self.link_stamp[i] = self.gen;
            self.link_allowance[i] = filter(l).then(|| allowance(l));
        }
        self.link_allowance[i]
    }
}

/// Fewest-hops path from `src` to `dst` using only links accepted by
/// `filter`, maximizing the minimum `allowance` along the path among
/// equal-hop candidates, and discarding paths longer than `hop_bound`.
/// The search reuses the caller-owned `scratch` buffers, so the hot
/// admission path allocates nothing.
///
/// This reproduces what bounded flooding converges to: the first request
/// copy to arrive took a fewest-hops route, and among simultaneous arrivals
/// the destination keeps the copy with the best bandwidth allowance.
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
    if src == dst {
        return Path::from_nodes(graph, vec![src]).ok();
    }
    scratch.begin(graph.node_count(), graph.link_count());
    scratch.discover(src, 0, Bandwidth::kbps(u64::MAX), src);
    let mut frontier = std::mem::take(&mut scratch.frontier);
    let mut next = std::mem::take(&mut scratch.next);
    frontier.push(src);
    for level in 0..hop_bound {
        if frontier.is_empty() {
            break;
        }
        next.clear();
        for &u in &frontier {
            for &(v, l) in graph.neighbors(u) {
                let Some(allowed) = scratch.probe(l, filter, allowance) else {
                    continue;
                };
                let cand = scratch.bottleneck[u.0].min(allowed);
                if !scratch.discovered(v) {
                    scratch.discover(v, level + 1, cand, u);
                    next.push(v);
                } else if scratch.hops[v.0] == level + 1 && cand > scratch.bottleneck[v.0] {
                    // Same-layer improvement: a simultaneous request copy
                    // with a better allowance.
                    scratch.bottleneck[v.0] = cand;
                    scratch.parent[v.0] = u;
                }
            }
        }
        if scratch.discovered(dst) {
            // Finish updating this layer (done above), then reconstruct.
            break;
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    let found = scratch.discovered(dst);
    let path = if found {
        let mut nodes = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = scratch.parent[cur.0];
            nodes.push(cur);
        }
        nodes.reverse();
        Path::from_nodes(graph, nodes).ok()
    } else {
        None
    };
    // Hand the frontier buffers back for the next search.
    scratch.frontier = frontier;
    scratch.next = next;
    path
}

/// Reusable route-search state for one network: flood and BFS buffers
/// behind a single handle, so the admission path allocates nothing per
/// attempt. Both are generation-stamped, so the handle outlives link
/// failures and repairs (which only flip liveness the filters read).
#[derive(Debug, Clone, Default)]
pub struct RouteScratch {
    /// Buffers for [`flood_path_with`].
    pub flood: FloodScratch,
    /// Buffers for [`drqos_topology::paths::bfs_path_with`].
    pub bfs: BfsScratch,
}

impl RouteScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all cached search state (never required for correctness).
    pub fn invalidate(&mut self) {
        self.flood.invalidate();
        self.bfs.invalidate();
    }
}

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
    match kind {
        RouterKind::BoundedFlooding { .. } => flood_path_with(
            &mut scratch.flood,
            graph,
            src,
            dst,
            graph.node_count(),
            filter,
            allowance,
        ),
        RouterKind::Shortest | RouterKind::SuurballePair => {
            bfs_path_with(&mut scratch.bfs, graph, src, dst, filter)
        }
    }
}

/// Routes a backup channel, link-disjoint from `primary`, according to
/// `kind`, reusing the caller-owned search buffers.
///
/// `filter` must already encode backup-specific feasibility (multiplexed
/// reservation headroom); this function additionally excludes the primary's
/// links and, for bounded flooding, enforces the flooding bound.
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
    let strict = match kind {
        RouterKind::BoundedFlooding { hop_slack } => {
            let bound = primary.hop_count().saturating_add(hop_slack);
            flood_path_with(
                &mut scratch.flood,
                graph,
                src,
                dst,
                bound,
                &disjoint_filter,
                allowance,
            )
        }
        RouterKind::Shortest | RouterKind::SuurballePair => {
            bfs_path_with(&mut scratch.bfs, graph, src, dst, &disjoint_filter)
        }
    };
    if strict.is_some() || disjointness == BackupDisjointness::Strict {
        return strict;
    }
    // Maximally-disjoint fallback: minimize (shared links, then hops) with
    // a lexicographic weight. Any feasible link may be used.
    const SHARE_PENALTY: f64 = 65_536.0; // far above any hop count
    let weight = |l: LinkId| {
        if primary.crosses(l) {
            1.0 + SHARE_PENALTY
        } else {
            1.0
        }
    };
    let candidate = drqos_topology::paths::dijkstra_path(graph, src, dst, &weight, filter)?;
    // A backup that *is* the primary protects nothing.
    if candidate.links().iter().all(|&l| primary.crosses(l)) {
        return None;
    }
    Some(candidate)
}

/// For [`RouterKind::SuurballePair`]: the jointly optimal link-disjoint
/// pair under the *primary* feasibility filter. The caller must still
/// verify the second path against backup feasibility and fall back to
/// [`route_backup_with`] if it does not fit.
pub(crate) fn route_pair(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    filter: &LinkFilter,
) -> Option<(Path, Path)> {
    drqos_topology::disjoint::suurballe(graph, src, dst, filter)
        .map(|pair| (pair.first, pair.second))
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_sim::rng::Rng;
    use drqos_topology::paths::pass_all;
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
        for kind in [
            RouterKind::default(),
            RouterKind::Shortest,
            RouterKind::SuurballePair,
        ] {
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
            assert!(p.is_link_disjoint(&b), "{kind:?}");
        }
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
    fn route_pair_on_ring() {
        let g = regular::ring(6).unwrap();
        let (a, b) = route_pair(&g, NodeId(0), NodeId(3), &pass_all).unwrap();
        assert!(a.is_link_disjoint(&b));
        assert_eq!(a.hop_count() + b.hop_count(), 6);
    }

    #[test]
    fn route_pair_none_on_line() {
        let g = regular::grid(1, 3).unwrap();
        assert!(route_pair(&g, NodeId(0), NodeId(2), &pass_all).is_none());
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

    /// The flood loop as it was before the probe memo, kept verbatim as
    /// the reference: `filter` and `allowance` run every time a link is
    /// reached.
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
        if src == dst {
            return Path::from_nodes(graph, vec![src]).ok();
        }
        scratch.begin(graph.node_count(), graph.link_count());
        scratch.discover(src, 0, Bandwidth::kbps(u64::MAX), src);
        let mut frontier = std::mem::take(&mut scratch.frontier);
        let mut next = std::mem::take(&mut scratch.next);
        frontier.push(src);
        for level in 0..hop_bound {
            if frontier.is_empty() {
                break;
            }
            next.clear();
            for &u in &frontier {
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
        let found = scratch.discovered(dst);
        let path = if found {
            let mut nodes = vec![dst];
            let mut cur = dst;
            while cur != src {
                cur = scratch.parent[cur.0];
                nodes.push(cur);
            }
            nodes.reverse();
            Path::from_nodes(graph, nodes).ok()
        } else {
            None
        };
        scratch.frontier = frontier;
        scratch.next = next;
        path
    }

    type Flood = fn(
        &mut FloodScratch,
        &Graph,
        NodeId,
        NodeId,
        usize,
        &LinkFilter,
        &dyn Fn(LinkId) -> Bandwidth,
    ) -> Option<Path>;

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

    /// Runs `cases` seeded searches through the memoized flood and the
    /// reference, one scratch each for the whole run (across graphs of
    /// different sizes and a generation wrap), and reports the first case
    /// on which the answers or the probed-link sets differ. With
    /// `stale_memo` the memoized side is sabotaged: its memo entries are
    /// carried into the next search instead of being forgotten.
    fn flood_differential(cases: usize, stale_memo: bool) -> Result<(), String> {
        let graphs = flood_graphs();
        let mut rng = Rng::seed_from_u64(0x15_F100D);
        let mut memo_scratch = FloodScratch::new();
        let mut ref_scratch = FloodScratch::new();
        for i in 0..cases {
            let graph = &graphs[(i / 4) % graphs.len()];
            let case = FloodCase::draw(&mut rng, graph);
            if stale_memo {
                let gen = memo_scratch.gen;
                for stamp in &mut memo_scratch.link_stamp {
                    if *stamp == gen {
                        *stamp = gen + 1;
                    }
                }
            } else if i == 1 {
                // Case 0 stamped its answers with generation 1; this case
                // wraps back to generation 1 and must not see them.
                memo_scratch.gen = u64::MAX;
            }
            let got = case.run(flood_path_with, &mut memo_scratch, graph);
            let want = case.run(flood_path_reference, &mut ref_scratch, graph);
            if got.path != want.path {
                return Err(format!(
                    "case {i}: path {:?}, reference {:?}",
                    got.path, want.path
                ));
            }
            if got.probed() != want.probed() {
                return Err(format!("case {i}: probed-link sets differ"));
            }
            // One probe per link: the memoized side's call logs are
            // duplicate-free, and only passed links are asked an allowance.
            if got.filtered.len() != got.probed().len() {
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
        }
        Ok(())
    }

    #[test]
    fn memoized_flood_matches_the_reference_on_2400_seeded_cases() {
        flood_differential(2400, false).unwrap();
    }

    #[test]
    fn a_memo_that_outlives_its_search_is_caught() {
        let caught = flood_differential(2400, true);
        assert!(caught.is_err(), "stale memo answers went unnoticed");
    }

    #[test]
    fn no_link_is_probed_twice_in_one_search() {
        // Corner to corner on a torus with everything passable: every
        // link is reached from both ends.
        let g = regular::torus(4, 4).unwrap();
        let case = FloodCase {
            src: NodeId(0),
            dst: NodeId(10),
            hop_bound: 16,
            refused: vec![false; g.link_count()],
            allowance: vec![Bandwidth::kbps(100); g.link_count()],
        };
        let count = |calls: &[LinkId], l: LinkId| calls.iter().filter(|&&c| c == l).count();
        let memo = case.run(flood_path_with, &mut FloodScratch::new(), &g);
        let reference = case.run(flood_path_reference, &mut FloodScratch::new(), &g);
        assert_eq!(memo.path, reference.path);
        for link in g.links() {
            assert!(count(&memo.filtered, link.id()) <= 1, "{}", link.id());
            assert!(count(&memo.allowed, link.id()) <= 1, "{}", link.id());
        }
        // The reference shows there was something to save.
        assert!(g.links().any(|l| count(&reference.filtered, l.id()) > 1));
        assert!(reference.allowed.len() > memo.allowed.len());
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
