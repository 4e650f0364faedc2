//! An epoch- and digest-validated memo of admission route searches.
//!
//! Between topology events the graph is immutable ([`crate::network`]
//! tracks this with `topology_epoch`), and between capacity-crossing
//! establishes/releases the per-link *planning* state (liveness, primary
//! minima, backup-conflict map) is immutable too. Route planning is a
//! deterministic function of the graph and of the answers the search
//! receives on the links it probes — so a successful plan can be replayed
//! from a cache as long as every probed link still answers the same way.
//!
//! The cache exploits exactly that:
//!
//! * **Key** — `(src, dst, B_min)`. Planning observes the QoS only
//!   through its minimum, so connections with different elastic ranges
//!   but equal minima share entries.
//! * **Footprint** — while a miss runs the real search, the network
//!   records every link the search probed together with that link's
//!   [`crate::link_state::LinkUsage::plan_digest`]. Links the search
//!   never looked at cannot have influenced it — and it looks at few: only
//!   links between nodes that can still reach the destination within the
//!   hops left by the graph's distance row toward it
//!   ([`drqos_topology::graph::Graph::hops_toward`]), and of those only
//!   the ones whose answer could still matter (see [`crate::routing`]). A
//!   recorder that misses a probed link is therefore no longer masked by
//!   sheer coverage; the network's tests hold the footprint to "perturb
//!   any link outside it and the plan stands".
//! * **Validation** — a lookup replays the footprint digests. All equal ⇒
//!   the search would reproduce the cached primary/backup pair verbatim:
//!   a *hit*. Any mismatch ⇒ the entry is evicted (a *stale eviction*)
//!   and the caller falls back to the real search.
//! * **Eviction by scan** — `fail_link` / `repair_link` (and `fail_node`,
//!   which delegates) eagerly evict only the entries whose footprint
//!   touches the changed link — never a global flush — by scanning the at
//!   most [`MAX_ENTRIES`] entries and binary-searching each sorted
//!   footprint. There is deliberately no link → keys index. A footprint is
//!   small now that the search is goal-directed (≈ 24 of the paper graph's
//!   354 links, where the flood in every direction recorded 243), so an
//!   index would cost ≈ 24 ordered-set operations per memoized plan
//!   rather than hundreds — but that is still about a microsecond on an
//!   *arrival* that plans in ten, the shorter footprints made the scan
//!   cheaper too (five binary-search steps per entry, not eight), and
//!   the paper's regime is arrivals far more frequent than failures
//!   (λ ≫ γ): the scan is paid per *fault*, beside ≈ 0.3 ms of
//!   re-routing. Capacity-crossing establishes/releases are caught
//!   lazily by the digest check.
//! * **Doorkeeper admission** — recording a footprint and hashing it into
//!   an entry is not free, and a workload whose every plan is immediately
//!   committed invalidates each entry before it can ever hit. So a key is
//!   only memoized once [`RouteCache::promote`] has seen it miss twice:
//!   one-shot endpoint pairs pay a single set probe, nothing more, while
//!   genuinely recurring pairs are cached from their second miss on.
//! * **Bounded size** — at most [`MAX_ENTRIES`] keys are retained, in a
//!   FIFO queue that holds each key once, at the position of its first
//!   insertion: an evicted key keeps its (empty) slot until the queue
//!   cycles it out, so a hot key that is evicted and re-memoized forever
//!   neither jumps the queue nor grows it.
//!
//! Correctness does not rest on this module being clever: the testkit's
//! `fuzz --diff-cache` mode replays every fuzzed operation sequence
//! against cache-on and cache-off networks and demands byte-identical
//! snapshots after every operation.

use crate::measure::RouteCacheStats;
use drqos_topology::graph::{LinkId, NodeId};
use drqos_topology::paths::Path;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Cache key: source, destination, and the QoS minimum in Kbps (the only
/// QoS component route planning can observe).
pub type RouteCacheKey = (NodeId, NodeId, u64);

/// Maximum number of retained keys; beyond it the oldest is dropped
/// (approximate FIFO — re-inserted keys keep their original queue position
/// until it cycles out).
pub(crate) const MAX_ENTRIES: usize = 1024;

/// Cap on the doorkeeper's seen-once key set; when full it is simply
/// cleared (keys then need one extra miss to be admitted again).
const CANDIDATE_LIMIT: usize = 8192;

/// One memoized successful plan.
#[derive(Debug, Clone)]
struct Entry {
    primary: Path,
    backups: Vec<Path>,
    /// Every link the planning search probed, with the digest of its
    /// planning-visible state at plan time. Sorted by link.
    footprint: Vec<(LinkId, u64)>,
}

impl Entry {
    fn touches(&self, link: LinkId) -> bool {
        self.footprint
            .binary_search_by_key(&link, |&(l, _)| l)
            .is_ok()
    }
}

/// The per-network route memo. See the module docs for the design.
#[derive(Debug, Clone, Default)]
pub struct RouteCache {
    /// One slot per queued key: `Some` while a plan is memoized, `None`
    /// once it was evicted as stale and until it is re-memoized or the
    /// queue cycles the key out.
    slots: BTreeMap<RouteCacheKey, Option<Entry>>,
    /// Doorkeeper: keys that have missed at least once (see module docs).
    candidates: BTreeSet<RouteCacheKey>,
    /// The keys of `slots`, each once, in order of first insertion.
    order: VecDeque<RouteCacheKey>,
    stats: RouteCacheStats,
}

impl RouteCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.slots.values().flatten().count()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.slots.values().all(Option::is_none)
    }

    /// Hit/miss/stale-eviction counters since creation.
    pub fn stats(&self) -> RouteCacheStats {
        self.stats
    }

    /// Looks up `key`, revalidating the entry's footprint with
    /// `digest_of` (the current per-link plan digest). Returns the cached
    /// primary and backups on a hit; on a stale entry the entry is
    /// evicted and `None` is returned (counted as both a stale eviction
    /// and a miss).
    pub(crate) fn lookup(
        &mut self,
        key: RouteCacheKey,
        digest_of: impl Fn(LinkId) -> u64,
    ) -> Option<(Path, Vec<Path>)> {
        if let Some(slot) = self.slots.get_mut(&key) {
            if let Some(entry) = slot {
                if entry.footprint.iter().all(|&(l, d)| digest_of(l) == d) {
                    self.stats.hits += 1;
                    return Some((entry.primary.clone(), entry.backups.clone()));
                }
                *slot = None;
                self.stats.stale_evictions += 1;
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Records a miss for `key` with the doorkeeper and reports whether
    /// the key has now earned an entry: `false` on the first miss (the
    /// caller should skip footprint recording entirely), `true` from the
    /// second miss on.
    pub(crate) fn promote(&mut self, key: RouteCacheKey) -> bool {
        if self.candidates.len() >= CANDIDATE_LIMIT && !self.candidates.contains(&key) {
            self.candidates.clear();
        }
        !self.candidates.insert(key)
    }

    /// Inserts (or replaces) the plan for `key`, dropping the oldest keys
    /// beyond [`MAX_ENTRIES`]. The footprint may arrive in any order.
    pub fn insert(
        &mut self,
        key: RouteCacheKey,
        primary: Path,
        backups: Vec<Path>,
        mut footprint: Vec<(LinkId, u64)>,
    ) {
        // `evict_link` binary-searches footprints. The network hands them
        // over sorted, which the sort recognizes in one linear pass.
        footprint.sort_unstable_by_key(|&(l, _)| l);
        let entry = Some(Entry {
            primary,
            backups,
            footprint,
        });
        if let Some(slot) = self.slots.get_mut(&key) {
            *slot = entry; // already queued, at its first position
            return;
        }
        while self.order.len() >= MAX_ENTRIES {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.slots.remove(&oldest);
        }
        self.order.push_back(key);
        self.slots.insert(key, entry);
    }

    /// Eagerly evicts every entry whose footprint touches `link` (called
    /// on fail/repair). Returns how many entries were dropped; each
    /// counts as a stale eviction.
    pub(crate) fn evict_link(&mut self, link: LinkId) -> usize {
        let mut evicted = 0;
        for slot in self.slots.values_mut() {
            if slot.as_ref().is_some_and(|e| e.touches(link)) {
                *slot = None;
                evicted += 1;
            }
        }
        self.stats.stale_evictions += evicted as u64;
        evicted
    }

    /// Whether a plan is memoized for `key` (the tests' presence probe).
    #[cfg(test)]
    fn contains(&self, key: RouteCacheKey) -> bool {
        self.slots.get(&key).is_some_and(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_sim::rng::Rng;
    use drqos_topology::graph::Graph;

    fn key(s: usize, d: usize) -> RouteCacheKey {
        (NodeId(s), NodeId(d), 100)
    }

    fn path(g: &Graph, nodes: &[usize]) -> Path {
        Path::from_nodes(g, nodes.iter().map(|&n| NodeId(n)).collect()).unwrap()
    }

    fn line4() -> Graph {
        let mut g = Graph::with_nodes(4);
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            g.add_link(NodeId(a), NodeId(b)).unwrap();
        }
        g
    }

    #[test]
    fn hit_after_insert_with_matching_digests() {
        let g = line4();
        let mut cache = RouteCache::new();
        let p = path(&g, &[0, 1, 2]);
        cache.insert(
            key(0, 2),
            p.clone(),
            vec![],
            vec![(LinkId(0), 7), (LinkId(1), 9)],
        );
        let got = cache.lookup(key(0, 2), |l| if l == LinkId(0) { 7 } else { 9 });
        assert_eq!(got, Some((p, vec![])));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn digest_mismatch_evicts_and_counts_stale() {
        let g = line4();
        let mut cache = RouteCache::new();
        cache.insert(
            key(0, 2),
            path(&g, &[0, 1, 2]),
            vec![],
            vec![(LinkId(0), 7)],
        );
        assert!(cache.lookup(key(0, 2), |_| 8).is_none());
        assert!(cache.is_empty());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.stale_evictions), (0, 1, 1));
        // A later fault on the footprint finds nothing left to evict.
        assert_eq!(cache.evict_link(LinkId(0)), 0);
    }

    #[test]
    fn evict_link_drops_only_touching_entries() {
        let g = line4();
        let mut cache = RouteCache::new();
        cache.insert(
            key(0, 2),
            path(&g, &[0, 1, 2]),
            vec![],
            vec![(LinkId(0), 1), (LinkId(1), 1)],
        );
        cache.insert(key(2, 3), path(&g, &[2, 3]), vec![], vec![(LinkId(2), 1)]);
        assert_eq!(cache.evict_link(LinkId(1)), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(key(2, 3), |_| 1).is_some());
        assert_eq!(cache.stats().stale_evictions, 1);
    }

    #[test]
    fn replacement_cleans_old_reverse_refs() {
        let g = line4();
        let mut cache = RouteCache::new();
        cache.insert(
            key(0, 2),
            path(&g, &[0, 1, 2]),
            vec![],
            vec![(LinkId(0), 1)],
        );
        cache.insert(
            key(0, 2),
            path(&g, &[0, 1, 2]),
            vec![],
            vec![(LinkId(2), 1)],
        );
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(key(0, 2)));
        // The superseded footprint no longer names the key.
        assert_eq!(cache.evict_link(LinkId(0)), 0);
        assert_eq!(cache.evict_link(LinkId(2)), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn promote_admits_on_second_miss() {
        let mut cache = RouteCache::new();
        assert!(!cache.promote(key(0, 1)), "first miss: doorkeeper only");
        assert!(cache.promote(key(0, 1)), "second miss: record this one");
        assert!(cache.promote(key(0, 1)), "stays admitted");
        assert!(!cache.promote(key(2, 3)), "independent per key");
    }

    #[test]
    fn capacity_eviction_drops_oldest_first() {
        let g = line4();
        let p = path(&g, &[0, 1]);
        let mut cache = RouteCache::new();
        for i in 0..=MAX_ENTRIES {
            cache.insert(key(i, i + 1), p.clone(), vec![], vec![(LinkId(0), 1)]);
        }
        assert_eq!(cache.len(), MAX_ENTRIES);
        assert!(!cache.contains(key(0, 1)), "oldest evicted");
        assert!(cache.contains(key(MAX_ENTRIES, MAX_ENTRIES + 1)));
        // Failing the shared link drops exactly the retained entries.
        assert_eq!(cache.evict_link(LinkId(0)), MAX_ENTRIES);
        assert!(cache.is_empty());
    }

    #[test]
    fn evict_link_agrees_with_a_brute_force_footprint_scan() {
        let g = line4();
        let p = path(&g, &[0, 1]);
        let mut rng = Rng::seed_from_u64(0x15_CAC4E);
        let mut cache = RouteCache::new();
        // What the cache should hold: key index → footprint links.
        let mut model: BTreeMap<usize, Vec<LinkId>> = BTreeMap::new();
        for _ in 0..40 {
            for _ in 0..30 {
                let k = rng.range_usize(200);
                let mut links: Vec<LinkId> = (0..24).map(LinkId).collect();
                rng.shuffle(&mut links);
                links.truncate(1 + rng.range_usize(12));
                // Handed over unsorted: eviction must still find them.
                let footprint = links.iter().map(|&l| (l, 1)).collect();
                cache.insert(key(k, k + 1), p.clone(), vec![], footprint);
                model.insert(k, links);
            }
            let failed = LinkId(rng.range_usize(24));
            let before = cache.stats().stale_evictions;
            let named: Vec<usize> = model
                .iter()
                .filter(|(_, links)| links.contains(&failed))
                .map(|(&k, _)| k)
                .collect();
            assert!(!named.is_empty() && named.len() < model.len());
            assert_eq!(cache.evict_link(failed), named.len());
            assert_eq!(cache.stats().stale_evictions - before, named.len() as u64);
            for k in named {
                model.remove(&k);
            }
            assert_eq!(cache.len(), model.len());
            for &k in model.keys() {
                assert!(cache.contains(key(k, k + 1)), "lost {k}");
            }
        }
    }

    #[test]
    fn a_hot_key_set_does_not_grow_the_queue() {
        // Eight keys, each found stale and re-memoized ten thousand times.
        let g = line4();
        let p = path(&g, &[0, 1]);
        let mut cache = RouteCache::new();
        for cycle in 0..10_000 {
            for k in 0..8 {
                if cycle > 0 {
                    assert!(cache.lookup(key(k, k + 1), |_| cycle).is_none());
                }
                let footprint = vec![(LinkId(0), cycle)];
                cache.insert(key(k, k + 1), p.clone(), vec![], footprint);
            }
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.order.len(), 8);
        assert_eq!(cache.stats().stale_evictions, 8 * 9_999);
    }

    #[test]
    fn evicted_keys_count_towards_the_bound_until_cycled_out() {
        // Keys that are memoized once and evicted for good must not pile
        // up in the queue either.
        let g = line4();
        let p = path(&g, &[0, 1]);
        let mut cache = RouteCache::new();
        for k in 0..3 * MAX_ENTRIES {
            cache.insert(key(k, k + 1), p.clone(), vec![], vec![(LinkId(0), 1)]);
            assert!(cache.lookup(key(k, k + 1), |_| 2).is_none());
            assert!(cache.order.len() <= MAX_ENTRIES);
            assert_eq!(cache.order.len(), cache.slots.len());
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn miss_on_absent_key_counts() {
        let mut cache = RouteCache::new();
        assert!(cache.lookup(key(1, 3), |_| 0).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);
    }
}
