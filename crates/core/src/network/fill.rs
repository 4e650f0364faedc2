//! The fill stage: re-distribution of spare bandwidth among the elastic
//! primaries an arrival, a termination or a failure left able to grow
//! (Section 3.1's "retreat and re-distribution", the second half); the
//! test that spares an arrival's retreat a primary the fill would grant
//! straight back; the waitlists — per link, the listed primaries a fill
//! refused there — that let an event offer the fill only what can move;
//! and the one pass after the fill that keeps each link's growable demand
//! ([`LinkUsage::growable_demand`]) exact.

use super::seam::{self, Seam};
use super::Network;
use crate::channel::{ConnectionId, DrConnection};
use crate::conn_table::{Blocked, ChainPair, ConnTable, Slot};
use crate::link_state::LinkUsage;
use crate::qos::{AdaptationPolicy, Bandwidth};
use drqos_topology::graph::LinkId;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::ops::Range;

/// One live fill candidate, read once from the connection table.
#[derive(Debug)]
pub(super) struct FillRow {
    slot: Slot,
    id: ConnectionId,
    /// The level at load time; only rows that moved are written back.
    loaded_level: usize,
    level: usize,
    max_level: usize,
    increment: Bandwidth,
    utility: f64,
    /// This row's primary links, as a range of [`FillScratch::arena`].
    links: Range<usize>,
    /// Every link slack: granted to its maximum in one step, not one
    /// increment a turn.
    pub(super) bulk: bool,
}

impl FillRow {
    /// Reads the connection in `slot` into a row, its links appended to
    /// `arena`.
    fn load(slot: Slot, conn: &DrConnection, arena: &mut Vec<LinkId>) -> Self {
        let start = arena.len();
        arena.extend_from_slice(conn.primary().links());
        Self {
            slot,
            id: conn.id(),
            loaded_level: conn.level(),
            level: conn.level(),
            max_level: conn.qos().max_level(),
            increment: conn.qos().increment(),
            utility: conn.qos().utility(),
            links: start..arena.len(),
            bulk: false,
        }
    }

    /// The rank of this row's next turn, at its level.
    fn rank(&self, policy: AdaptationPolicy) -> u128 {
        rank_of(fill_score(policy, self.level, self.utility), self.id)
    }

    /// The bandwidth this row could still be granted.
    fn remaining(&self) -> Bandwidth {
        self.increment.times((self.max_level - self.level) as u64)
    }

    /// One turn: grants this row an increment across `path`, its primary,
    /// or returns the first link of it that is down or lacks one.
    fn take_turn(&mut self, path: &[LinkId], links: &mut [LinkUsage]) -> Option<LinkId> {
        let short = |l: &&LinkId| lacks(&links[l.index()], self.increment);
        if let Some(&refused) = path.iter().find(short) {
            return Some(refused);
        }
        for l in path {
            links[l.index()].add_extra(self.increment);
        }
        self.level += 1;
        None
    }
}

/// A waitlist bucket an event offered the fill: its link and increment,
/// and how many of its rows, head first, have woken.
#[derive(Debug)]
pub(super) struct Handle {
    pub(super) at: Blocked,
    pub(super) woken: usize,
}

/// Whose turn a [`Scored`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Who {
    /// A loaded row's, by its index.
    Row(usize),
    /// The next waiting row of an offered bucket's, by the handle's index.
    Handle(usize),
}

/// A turn, ordered so that the lowest `(score, id)` is the greatest: the
/// top of a [`BinaryHeap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scored {
    /// `(score, id)` as one integer ([`rank_of`]).
    rank: u128,
    who: Who,
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        other.rank.cmp(&self.rank)
    }
}

/// `(score, id)` as one integer: the score's bits mapped to an unsigned
/// key in [`f64::total_cmp`]'s order, above the id.
fn rank_of(score: f64, id: ConnectionId) -> u128 {
    let bits = score.to_bits();
    let key = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    u128::from(key) << 64 | u128::from(id.0)
}

/// The fill priority of a channel at `level`: lowest score grows first.
fn fill_score(policy: AdaptationPolicy, level: usize, utility: f64) -> f64 {
    match policy {
        // Highest utility first; level is irrelevant (monopolize).
        AdaptationPolicy::MaxUtility => -utility,
        // Progressive filling: lowest weighted level first.
        AdaptationPolicy::Coefficient => (level as f64 + 1.0) / utility,
    }
}

/// The rank `conn`'s next fill turn takes, at its level: where it waits in
/// a bucket.
pub(super) fn rank(policy: AdaptationPolicy, conn: &DrConnection) -> u128 {
    let score = fill_score(policy, conn.level(), conn.qos().utility());
    rank_of(score, conn.id())
}

/// Whether `link` can grant all of `demand` — the increments every
/// candidate of one fill could still ask of it — and so can refuse
/// nobody during that fill.
pub(super) fn is_slack(link: &LinkUsage, demand: Bandwidth) -> bool {
    if seam::armed(Seam::WeakFill) {
        return link.is_up() && link.headroom() + Bandwidth::kbps(50) >= demand;
    }
    link.is_up() && link.headroom() >= demand
}

/// Whether `link` is down or lacks `increment`: a fill can grant nobody an
/// increment of that size across it.
fn lacks(link: &LinkUsage, increment: Bandwidth) -> bool {
    !link.is_up() || link.headroom() < increment
}

/// The bandwidth a fill could still grant `conn`: zero at its maximum.
pub(super) fn remaining(conn: &DrConnection) -> Bandwidth {
    let levels = conn.qos().max_level().saturating_sub(conn.level());
    conn.qos().increment().times(levels as u64)
}

/// Whether an arrival's fill would find `link` slack for a chained primary
/// at its maximum, asked before anyone retreats: everything committed,
/// plus what the listed primaries and `newcomer` could still ask of it,
/// fits. Retreating a primary adds its extra to the link's headroom and
/// to its demand alike, so after the retreat the link has room for all
/// that the fill's candidates could ask of it, the listed rows the gather
/// leaves out included: it refuses nobody, whichever bound the fill's
/// slack test reads.
fn keeps_its_extra(link: &LinkUsage, newcomer: Bandwidth) -> bool {
    let newcomer = if seam::armed(Seam::DropTheNewcomer) {
        Bandwidth::ZERO
    } else {
        newcomer
    };
    link.is_up() && link.committed() + link.growable_demand() + newcomer <= link.capacity()
}

/// Whether the rows waiting at `link` for `increment` still cannot move:
/// the link is down or lacks the increment. Headroom only shrinks during a
/// fill, so a row refused there can be granted nothing by a fill starting
/// now, nor at its turn in a fill under way. `exact` is the seam that also
/// counts exactly the increment's room as lacking.
pub(super) fn still_blocked(link: &LinkUsage, increment: Bandwidth, exact: Seam) -> bool {
    if seam::armed(exact) {
        return !link.is_up() || link.headroom() <= increment;
    }
    lacks(link, increment)
}

/// Reusable work tables of [`Network::redistribute`]: a fill
/// allocates nothing once these have grown to the working-set size. Not
/// part of the network's state: every fill rebuilds them from scratch. The
/// rows are the candidates the fill loaded, those live and below their
/// maximum, up front or woken.
#[derive(Debug, Default)]
pub(super) struct FillScratch {
    pub(super) rows: Vec<FillRow>,
    /// The buckets the last fill was offered.
    pub(super) handles: Vec<Handle>,
    /// The primary links of every loaded row, back to back.
    arena: Vec<LinkId>,
    /// Per link, the bandwidth the rows loaded up front could still ask of
    /// it; all zero between fills, and between the keep rule's uses of it.
    demand: Vec<Bandwidth>,
    /// The heap of turns' backing store between fills (empty, capacity
    /// kept).
    heap: Vec<Scored>,
    /// How many rows left a waitlist by retreat, release and failover,
    /// for the differentials' coverage floors.
    #[cfg(test)]
    pub(super) unwaited: [usize; 3],
}

impl Network {
    /// The keep rule of an arrival whose connection `newcomer` is already
    /// reserved, decided before anyone retreats: moves to the back of
    /// `chained` every primary at its maximum whose links are all ones
    /// [`keeps_its_extra`], and returns how many are left in front to
    /// retreat. The fill would grant a kept primary straight back to where
    /// it is, and classifies every link alike whether it retreated or not
    /// (its extra counts on both sides of the slack test), so it is not
    /// retreated, loaded or granted.
    pub(super) fn keep_at_maximum(
        &mut self,
        chained: &mut [ChainPair],
        newcomer: ChainPair,
    ) -> usize {
        let Self {
            links,
            connections,
            fill,
            ..
        } = self;
        let demand = &mut fill.demand;
        demand.resize(links.len(), Bandwidth::ZERO);
        let Some(arrival) = connections.at(newcomer.0, newcomer.1) else {
            return chained.len();
        };
        let (newcomer_links, newcomer_remaining) = (arrival.primary().links(), remaining(arrival));
        for l in newcomer_links {
            demand[l.index()] += newcomer_remaining;
        }
        let kept = |&(slot, id): &ChainPair| {
            connections.at(slot, id).is_some_and(|conn| {
                conn.level() == conn.qos().max_level()
                    && conn
                        .primary()
                        .links()
                        .iter()
                        .all(|l| keeps_its_extra(&links[l.index()], demand[l.index()]))
            })
        };
        let mut retreating = 0;
        for i in 0..chained.len() {
            if !kept(&chained[i]) {
                chained.swap(retreating, i);
                retreating += 1;
            }
        }
        for l in newcomer_links {
            demand[l.index()] = Bandwidth::ZERO;
        }
        retreating
    }

    /// Takes the live `pair` off the waitlist it waits on, if any, before
    /// its level moves or it leaves.
    pub(super) fn unwait(&mut self, (slot, id): ChainPair) {
        let Some((link, increment)) = self.connections.blocked(slot) else {
            return;
        };
        if let Some(conn) = self.connections.at(slot, id) {
            let at = rank(self.config.policy, conn);
            self.links[link.index()].unwait(increment, at);
        }
        self.connections.set_blocked(slot, None);
    }

    /// Drops from the loose set every row that has left, been granted its
    /// maximum or been refused again — it waits — since it was recorded.
    pub(super) fn prune_loose(&mut self) {
        let table = &self.connections;
        let loose = |slot| table.counted(slot) > Bandwidth::ZERO && table.blocked(slot).is_none();
        self.loose
            .retain(|&(slot, id)| table.at(slot, id).is_some() && loose(slot));
    }

    /// Prunes the loose set, then adds to it every row waiting at a link
    /// with room for its increment, taken off the waitlist: at a fault
    /// step, which frees room where its fill walks nothing, and at a
    /// repair.
    pub(super) fn record_loose(&mut self) {
        self.prune_loose();
        let Self {
            links,
            connections,
            loose,
            ..
        } = self;
        for usage in links.iter_mut() {
            let mut b = 0;
            while let Some(bucket) = usage.buckets().get(b) {
                if still_blocked(usage, bucket.increment, Seam::BlockedAtExactRoom) {
                    b += 1;
                    continue;
                }
                for (rank, slot) in usage.take_bucket(b).rows {
                    connections.set_blocked(slot, None);
                    loose.push((slot, ConnectionId(rank as u64)));
                }
            }
        }
        if seam::armed(Seam::ForgetALooseRow) {
            loose.pop();
        }
    }

    /// The one count edit of an event, after its fill, outside it: each
    /// live pair of `pairs` whose count in the connection table disagrees
    /// with its remaining bandwidth is recounted on every link of its
    /// primary. Retreat leaves the counts alone, and a primary is put on a
    /// link uncounted, so this lists a row that was at its maximum (or new)
    /// and ended below it, unlists a listed row the fill granted up to its
    /// maximum, and recounts a listed row that moved but stayed below it.
    /// The common row — retreated from its maximum and granted straight
    /// back — is none of these: the table's count column tells, and nothing
    /// is edited.
    pub(super) fn reconcile(
        links: &mut [LinkUsage],
        connections: &mut ConnTable,
        pairs: impl IntoIterator<Item = ChainPair>,
    ) {
        for (slot, id) in pairs {
            let Some(conn) = connections.at(slot, id) else {
                continue;
            };
            let (counted, now) = (connections.counted(slot), remaining(conn));
            if counted == now {
                continue;
            }
            if counted == Bandwidth::ZERO && seam::armed(Seam::SkipAListing) {
                continue;
            }
            let listed_both = counted != Bandwidth::ZERO && now != Bandwidth::ZERO;
            if !(listed_both && seam::armed(Seam::ForgetARecount)) {
                for l in conn.primary().links() {
                    links[l.index()].recount(counted, now);
                }
            }
            connections.set_counted(slot, now);
        }
    }

    /// Water-fills extra increments over the set `candidates`, in whatever
    /// order it lists them, and the rows waiting in the buckets `handles`
    /// names, according to the adaptation policy; then puts every row it
    /// left below its maximum on the waitlist of the link that refused it,
    /// and [reconciles](Self::reconcile) the counts over the rows it
    /// loaded. `candidates` must hold every live primary whose level the
    /// event moved and every one it put on a link, none of them waiting;
    /// anyone else it names is ignored when at their maximum or no longer
    /// live.
    ///
    /// Each live candidate that can still grow is read once into a flat
    /// row, with its links. Rows whose links are all slack are granted up
    /// to their maximum in one step. The rest take turns from one min-heap
    /// in `(score, id)` order, one increment a turn. A bucket's head takes
    /// the bucket's first turn in the same heap; it is read, loaded and
    /// granted only if the bucket's link has room for the increment then,
    /// and its waking queues the next row's first turn. Headroom only
    /// shrinks during a fill, so a refused row is dropped for good.
    ///
    /// The shortcut is exact. A slack link has room for everything the
    /// candidates could still ask of it, so it refuses nobody whatever the
    /// grant order: a row on slack links only ends at its maximum. And
    /// such rows touch no tight link, so the turns of the remaining rows
    /// see the tight links exactly as the one-increment-at-a-time fill
    /// over all candidates would, and grant in the same order. While any
    /// bucket is offered, the slack test adds the link's listed demand to
    /// the loaded rows': a bound on what the rows ask, waiting ones
    /// included, under which a link passes only if it is truly slack.
    ///
    /// So are the buckets. A waiting row's level has not moved since it
    /// was refused, so its rank is its next turn's. Its turn would refuse
    /// it where it waits whenever that link is down or lacks its increment
    /// — the full-path test would too — and a refusal changes nothing; so
    /// once a bucket's row is refused there, every row behind it would be
    /// refused at the same link at its turn, headroom having only shrunk,
    /// and they are left where they are. Behind a row that woke, the next
    /// row's first turn enters the heap then, before its place in the
    /// `(score, id)` order comes up: every turn taken meanwhile ranked
    /// below the woken row.
    ///
    /// Nor does the order of `candidates` matter: every row is classified
    /// before any is granted, the demand sums are integer additions, bulk
    /// grants never touch a tight link, and the `(score, id)` order of the
    /// turns is total.
    pub(super) fn redistribute(&mut self, candidates: &[ChainPair], handles: &[Blocked]) {
        #[cfg(test)]
        if seam::armed(Seam::ReferenceCommit) || seam::armed(Seam::ReferenceFill) {
            // The reference gather offers waiting rows as plain candidates.
            candidates.iter().for_each(|&pair| self.unwait(pair));
            if seam::armed(Seam::ReferenceFill) {
                return self.redistribute_reference(candidates);
            }
        }
        let policy = self.config.policy;
        let Self {
            links,
            connections,
            fill,
            ..
        } = self;
        let FillScratch {
            rows,
            handles: offered,
            arena,
            demand,
            heap,
            ..
        } = fill;
        rows.clear();
        arena.clear();
        demand.resize(links.len(), Bandwidth::ZERO);
        offered.clear();
        offered.extend(handles.iter().map(|&at| Handle { at, woken: 0 }));

        // Load the candidates that are still live — a pair whose slot has
        // since been vacated or handed on is not — and below their maximum
        // (the others can never be granted anything), summing per link
        // what they could still ask of it.
        for &(slot, id) in candidates {
            let Some(conn) = connections.at(slot, id) else {
                continue;
            };
            if conn.level() >= conn.qos().max_level() {
                continue;
            }
            let row = FillRow::load(slot, conn, arena);
            for l in &arena[row.links.clone()] {
                demand[l.index()] += row.remaining();
            }
            rows.push(row);
        }

        // Classify every loaded row before granting anything: grants eat
        // the headroom the slack test reads. A bulk row is granted at once;
        // the others, and the offered buckets' heads, queue a first turn.
        let waiting = !offered.is_empty();
        for (i, row) in rows.iter_mut().enumerate() {
            let bound = |l: &LinkId| {
                let usage = &links[l.index()];
                let listed = if waiting {
                    usage.growable_demand()
                } else {
                    Bandwidth::ZERO
                };
                is_slack(usage, demand[l.index()] + listed)
            };
            row.bulk = arena[row.links.clone()].iter().all(bound);
            if !row.bulk {
                heap.push(Scored {
                    rank: row.rank(policy),
                    who: Who::Row(i),
                });
            }
        }
        for row in rows.iter_mut().filter(|r| r.bulk) {
            for l in &arena[row.links.clone()] {
                links[l.index()].add_extra(row.remaining());
            }
            row.level = row.max_level;
        }
        for (h, handle) in offered.iter().enumerate() {
            let (link, increment) = handle.at;
            if let Some((rank, _)) = links[link.index()].waiter(increment, 0) {
                heap.push(Scored {
                    rank,
                    who: Who::Handle(h),
                });
            }
        }
        for l in arena.iter() {
            demand[l.index()] = Bandwidth::ZERO;
        }

        // The turns, one increment each, lowest (score, id) first. A
        // bucket's turn is its next row's first: refused where it waits,
        // the bucket stays as it is; otherwise the row wakes and takes its
        // turn in its place, and the bucket's next row queues.
        let mut turns = BinaryHeap::from(std::mem::take(heap));
        loop {
            let Some(mut top) = turns.peek_mut() else {
                break;
            };
            let i = match top.who {
                Who::Row(i) => i,
                Who::Handle(h) => {
                    let handle = &mut offered[h];
                    let (link, increment) = handle.at;
                    let usage = &links[link.index()];
                    let waker = usage.waiter(increment, handle.woken);
                    let id = ConnectionId(top.rank as u64);
                    let conn = waker.and_then(|(_, slot)| Some((slot, connections.at(slot, id)?)));
                    let refused = still_blocked(usage, increment, Seam::RefusedAtExactRoom);
                    let Some((slot, conn)) = conn.filter(|_| !refused) else {
                        PeekMut::pop(top);
                        continue;
                    };
                    handle.woken += 1;
                    let next = usage.waiter(increment, handle.woken);
                    let tail = usage.waiter(increment, handle.woken + 1).is_none();
                    rows.push(FillRow::load(slot, conn, arena));
                    connections.set_blocked(slot, None);
                    top.who = Who::Row(rows.len() - 1);
                    drop(top);
                    if let Some((rank, _)) = next {
                        if !(tail && seam::armed(Seam::ForgetABucketTail)) {
                            turns.push(Scored {
                                rank,
                                who: Who::Handle(h),
                            });
                        }
                    }
                    continue;
                }
            };
            let row = &mut rows[i];
            if let Some(refused) = row.take_turn(&arena[row.links.clone()], links) {
                connections.set_blocked(row.slot, Some((refused, row.increment)));
                PeekMut::pop(top);
            } else if row.level == row.max_level {
                PeekMut::pop(top);
            } else {
                top.rank = row.rank(policy);
            }
        }
        *heap = turns.into_vec();

        // The woken rows leave their buckets. Write the moved levels back,
        // and the total once; a row left below its maximum was refused, and
        // waits where.
        for handle in offered.iter() {
            links[handle.at.0.index()].wake(handle.at.1, handle.woken);
        }
        for row in rows.iter() {
            if row.level != row.loaded_level {
                self.total_bandwidth += row.increment.times((row.level - row.loaded_level) as u64);
                if let Some(conn) = connections.at_mut(row.slot, row.id) {
                    conn.set_level(row.level);
                }
            }
            if row.level < row.max_level {
                if let Some((link, increment)) = connections.blocked(row.slot) {
                    links[link.index()].wait(increment, row.rank(policy), row.slot);
                }
            }
        }
        Self::reconcile(links, connections, rows.iter().map(|r| (r.slot, r.id)));
    }
}

/// The reference the production fill is held to.
#[cfg(test)]
mod testing {
    use super::*;

    impl Network {
        /// The fill as it was before the flat one, kept verbatim (but for
        /// reading the ids out of the candidate pairs) as the reference
        /// the production fill is compared against: per granted increment
        /// two lookups by id, a link-list clone and a heap push. None of
        /// `candidates` may wait; each row left below its maximum then waits
        /// at the first link of its primary that is down or lacks its
        /// increment.
        pub(in crate::network) fn redistribute_reference(&mut self, candidates: &[ChainPair]) {
            #[derive(PartialEq)]
            struct Scored {
                score: f64,
                id: ConnectionId,
            }
            impl Eq for Scored {}
            impl PartialOrd for Scored {
                fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                    Some(self.cmp(other))
                }
            }
            impl Ord for Scored {
                fn cmp(&self, other: &Self) -> Ordering {
                    // Min-heap on (score, id): BinaryHeap is a max-heap, so flip.
                    other
                        .score
                        .total_cmp(&self.score)
                        .then_with(|| other.id.cmp(&self.id))
                }
            }
            let score = |policy: AdaptationPolicy, conn: &DrConnection| -> f64 {
                match policy {
                    // Highest utility first; level is irrelevant (monopolize).
                    AdaptationPolicy::MaxUtility => -conn.qos().utility(),
                    // Progressive filling: lowest weighted level first.
                    AdaptationPolicy::Coefficient => {
                        (conn.level() as f64 + 1.0) / conn.qos().utility()
                    }
                }
            };
            let policy = self.config.policy;
            let mut heap: BinaryHeap<Scored> = candidates
                .iter()
                .filter_map(|&(_, id)| self.connection(id))
                .map(|conn| Scored {
                    score: score(policy, conn),
                    id: conn.id(),
                })
                .collect();
            while let Some(Scored { id, .. }) = heap.pop() {
                if !self.can_grow(id) {
                    // Headroom never grows during the fill: drop permanently.
                    continue;
                }
                self.grant(id);
                heap.push(Scored {
                    score: score(policy, self.connection(id).unwrap()),
                    id,
                });
            }
            for &(slot, id) in candidates {
                let Some(conn) = self.connections.at(slot, id) else {
                    continue;
                };
                let inc = conn.qos().increment();
                let short = |l: &&LinkId| lacks(&self.links[l.index()], inc);
                let below = conn.level() < conn.qos().max_level();
                if let Some(&link) = conn.primary().links().iter().find(short).filter(|_| below) {
                    let at = rank(policy, conn);
                    self.links[link.index()].wait(inc, at, slot);
                    self.connections.set_blocked(slot, Some((link, inc)));
                }
            }
            let pairs = candidates.iter().copied();
            Self::reconcile(&mut self.links, &mut self.connections, pairs);
        }

        /// Whether `id` can absorb one more increment on every link of its
        /// path.
        fn can_grow(&self, id: ConnectionId) -> bool {
            let conn = self.connection(id).unwrap();
            if conn.level() >= conn.qos().max_level() {
                return false;
            }
            let inc = conn.qos().increment();
            conn.primary()
                .links()
                .iter()
                .all(|&l| self.links[l.index()].is_up() && self.links[l.index()].headroom() >= inc)
        }

        /// Grants one increment to `id`.
        fn grant(&mut self, id: ConnectionId) {
            let conn = self.connections.get_mut(id).expect("grant of unknown id");
            let inc = conn.qos().increment();
            conn.set_level(conn.level() + 1);
            let links = conn.primary().links().to_vec();
            for l in links {
                self.links[l.index()].add_extra(inc);
            }
            self.total_bandwidth += inc;
        }
    }
}
