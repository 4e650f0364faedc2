//! The fill stage: re-distribution of spare bandwidth among the elastic
//! primaries an arrival, a termination or a failure left able to grow
//! (Section 3.1's "retreat and re-distribution", the second half); the
//! test that spares an arrival's retreat a primary the fill would grant
//! straight back; the waitlists — per link, the listed primaries a fill
//! refused there — that let an event offer the fill only what can move;
//! and the one pass after the fill that keeps each link's growable demand
//! ([`LinkUsage::growable_demand`]) exact.

use super::Network;
use crate::channel::{ConnectionId, DrConnection};
use crate::conn_table::{Blocked, ChainPair, ConnTable, Slot, Waiting};
use crate::link_state::LinkUsage;
use crate::qos::{AdaptationPolicy, Bandwidth};
use drqos_sim::seam::{self, Seam};
use drqos_topology::graph::LinkId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;

/// One live fill candidate, read once from the connection table.
#[derive(Debug)]
pub(super) struct FillRow {
    pub(super) slot: Slot,
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
    /// Where it waited when loaded, its place taken out of the table until
    /// the write-back.
    waited: Option<Waiting>,
    /// Where this fill refused it.
    refused: Option<Blocked>,
}

impl FillRow {
    /// Reads the connection in `slot`, which waited at `waited`, into a
    /// row, its links appended to `arena`.
    fn load(
        slot: Slot,
        conn: &DrConnection,
        waited: Option<Waiting>,
        arena: &mut Vec<LinkId>,
    ) -> Self {
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
            waited,
            refused: None,
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
/// how many of its rows have woken, and the place, head first, of the row
/// whose turn it queues next. The bucket is not edited during the fill.
#[derive(Debug)]
pub(super) struct Handle {
    pub(super) at: Blocked,
    pub(super) woken: usize,
    pub(super) next: usize,
}

impl Handle {
    /// The bucket's row at place `next` or behind it that this fill has not
    /// loaded, as `(rank, slot)`, with `next` moved to it. A loaded row's
    /// place was taken out of the table when it was loaded, so its entry —
    /// left in the bucket until the write-back — no longer matches it.
    fn seek(&mut self, usage: &LinkUsage, table: &ConnTable) -> Option<(u128, Slot)> {
        loop {
            let (rank, slot) = usage.waiter(self.at.1, self.next)?;
            if table.waiting(slot) == Some((self.at, rank)) || seam::armed(Seam::WakeALoadedRow) {
                return Some((rank, slot));
            }
            self.next += 1;
        }
    }
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

/// The turns queued in one fill: a min-heap, and a run — a queue whose
/// turns are in `(score, id)` order, lowest first. A turn joins the run
/// unless it ranks below the run's tail, so the lowest turn queued is the
/// lower of the heap's top and the run's head.
struct Turns {
    heap: BinaryHeap<Scored>,
    run: VecDeque<Scored>,
}

impl Turns {
    fn push(&mut self, turn: Scored) {
        if self.run.back().is_none_or(|tail| tail.rank <= turn.rank) {
            self.run.push_back(turn);
        } else {
            self.heap.push(turn);
        }
    }

    /// Whether `turn` ranks below every queued turn.
    fn lowest(&self, turn: &Scored) -> bool {
        let below = |queued: Option<&Scored>| queued.is_none_or(|q| turn.rank < q.rank);
        below(self.heap.peek()) && below(self.run.front())
    }

    /// Takes the lowest queued turn.
    fn pop(&mut self) -> Option<Scored> {
        let from_run = match (self.heap.peek(), self.run.front()) {
            (Some(top), Some(head)) => head.rank < top.rank,
            (top, _) => top.is_none(),
        };
        if from_run {
            self.run.pop_front()
        } else {
            self.heap.pop()
        }
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

/// Whether an arrival's fill would find `link` slack for a chained
/// primary at its maximum, asked before anyone retreats: everything
/// committed, plus what the listed primaries and the `newcomers` could
/// still ask of it, fits. Retreating a primary adds its extra to the
/// link's headroom and to its demand alike, so after the retreat the link
/// has room for all that the fill's candidates could ask of it, the
/// listed rows the gather leaves out included: it refuses nobody,
/// whichever bound the fill's slack test reads.
fn keeps_its_extra(link: &LinkUsage, newcomers: Bandwidth) -> bool {
    let newcomers = if seam::armed(Seam::DropTheNewcomer) {
        Bandwidth::ZERO
    } else {
        newcomers
    };
    link.is_up() && link.committed() + link.growable_demand() + newcomers <= link.capacity()
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
    /// The turns' heap and run, stored between fills (empty, capacity
    /// kept).
    heap: Vec<Scored>,
    run: VecDeque<Scored>,
    /// How many rows left a waitlist by a write-back that moved them, by
    /// release and by failover, and how many a write-back left in place,
    /// for the differentials' coverage floors.
    #[cfg(test)]
    pub(super) unwaited: [usize; 3],
    #[cfg(test)]
    pub(super) left_in_place: usize,
}

impl Network {
    /// The keep rule of an arrival whose `newcomer` (the admitted
    /// connection) is already on its routes, unlisted, decided before
    /// anyone retreats: moves to the back of `chained` every primary at
    /// its maximum whose links are all ones [`keeps_its_extra`], counting
    /// on each what the newcomer could still ask if it crosses it, and
    /// returns how many are left in front to retreat. The fill would grant a kept primary straight back to
    /// where it is, and classifies every link alike whether it retreated
    /// or not (its extra counts on both sides of the slack test), so it is
    /// not retreated, loaded or granted.
    pub(super) fn keep_at_maximum(
        &mut self,
        chained: &mut [ChainPair],
        (slot, id): ChainPair,
    ) -> usize {
        #[cfg(test)]
        if seam::armed(Seam::Reference) {
            return chained.len();
        }
        let Self {
            links,
            connections,
            fill,
            ..
        } = self;
        let demand = &mut fill.demand;
        demand.resize(links.len(), Bandwidth::ZERO);
        let (path, ask) = connections
            .at(slot, id)
            .map_or((&[][..], Bandwidth::ZERO), |c| {
                (c.primary().links(), remaining(c))
            });
        for l in path {
            demand[l.index()] = ask;
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
        for l in path {
            demand[l.index()] = Bandwidth::ZERO;
        }
        retreating
    }

    /// Takes the live `pair` off the waitlist it waits on, if any, by the
    /// rank it holds there.
    pub(super) fn unwait(&mut self, (slot, id): ChainPair) {
        if self.connections.at(slot, id).is_none() {
            return;
        }
        if let Some(((link, increment), rank)) = self.connections.waiting(slot) {
            self.links[link.index()].unwait(increment, rank);
            self.connections.set_waiting(slot, None);
        }
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
                    connections.set_waiting(slot, None);
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
    /// names, according to the adaptation policy; then leaves every row it
    /// left below its maximum on the waitlist of the link that refused it,
    /// and [reconciles](Self::reconcile) the counts over the rows it
    /// loaded. `candidates` must hold every live primary whose level the
    /// event moved and every one it put on a link; a retreated one may
    /// still wait where it waited. Anyone else it names is ignored when at
    /// their maximum or no longer live.
    ///
    /// Each live candidate that can still grow is read once into a flat
    /// row, with its links, and its waitlist place taken out of the table.
    /// Rows whose links are all slack are granted up to their maximum in
    /// one step. The rest take turns in `(score, id)` order, one increment
    /// a turn, from a heap and a run ([`Turns`]). A bucket's head takes
    /// the bucket's first turn among them, skipping the rows this fill
    /// loaded; it is read, loaded and granted only if the bucket's link has
    /// room for the increment then, and its waking queues the next row's
    /// first turn. Headroom only shrinks during a fill, so a refused row is
    /// dropped for good. A waitlist entry is edited only for a row whose
    /// place — link, increment and rank — moved.
    ///
    /// Every shortcut is exact; DESIGN.md §4 ("The fill") has the
    /// arguments. A slack link refuses nobody whatever the grant order,
    /// and rows on slack links only touch no tight link. A waiting row's
    /// rank is its next turn's, and once a bucket's row is refused where it
    /// waits, every row behind it would be. A loaded row left in its
    /// bucket is never woken, so the turns are those of a fill that took
    /// it off first. The run holds its turns in order, so the lower of its
    /// head and the heap's top is the lowest turn queued. And the order of
    /// `candidates` does not matter: every row is classified before any is
    /// granted, and the `(score, id)` order of the turns is total.
    pub(super) fn redistribute(&mut self, candidates: &[ChainPair], handles: &[Blocked]) {
        #[cfg(test)]
        if seam::armed(Seam::Reference) {
            // The reference gather offers waiting rows as plain candidates.
            candidates.iter().for_each(|&pair| self.unwait(pair));
            return self.redistribute_reference(candidates);
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
            run,
            ..
        } = fill;
        rows.clear();
        arena.clear();
        demand.resize(links.len(), Bandwidth::ZERO);
        offered.clear();
        offered.extend(handles.iter().map(|&at| Handle {
            at,
            woken: 0,
            next: 0,
        }));

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
            let row = FillRow::load(slot, conn, connections.waiting(slot), arena);
            connections.set_waiting(slot, None);
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
        for (h, handle) in offered.iter_mut().enumerate() {
            if let Some((rank, _)) = handle.seek(&links[handle.at.0.index()], connections) {
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
        // turn in its place, and the bucket's next row queues. A row still
        // ranking lowest after its turn takes the next one at once.
        let mut turns = Turns {
            heap: BinaryHeap::from(std::mem::take(heap)),
            run: std::mem::take(run),
        };
        let mut next = turns.pop();
        while let Some(turn) = next {
            let i = match turn.who {
                Who::Row(i) => i,
                Who::Handle(h) => {
                    let handle = &mut offered[h];
                    let (link, increment) = handle.at;
                    let usage = &links[link.index()];
                    let waker = usage.waiter(increment, handle.next);
                    let conn = waker.and_then(|(rank, slot)| {
                        Some((slot, connections.at(slot, ConnectionId(rank as u64))?))
                    });
                    let refused = still_blocked(usage, increment, Seam::RefusedAtExactRoom);
                    let Some((slot, conn)) = conn.filter(|_| !refused) else {
                        next = turns.pop();
                        continue;
                    };
                    rows.push(FillRow::load(slot, conn, connections.waiting(slot), arena));
                    connections.set_waiting(slot, None);
                    handle.woken += 1;
                    handle.next += 1;
                    if let Some((rank, _)) = handle.seek(usage, connections) {
                        let tail = usage.waiter(increment, handle.next + 1).is_none();
                        if !(tail && seam::armed(Seam::ForgetABucketTail)) {
                            turns.push(Scored {
                                rank,
                                who: Who::Handle(h),
                            });
                        }
                    }
                    rows.len() - 1
                }
            };
            let row = &mut rows[i];
            next = match row.take_turn(&arena[row.links.clone()], links) {
                Some(refused) => {
                    row.refused = Some((refused, row.increment));
                    turns.pop()
                }
                None if row.level == row.max_level => turns.pop(),
                None => {
                    let again = Scored {
                        rank: row.rank(policy),
                        who: Who::Row(i),
                    };
                    if turns.lowest(&again) {
                        Some(again)
                    } else {
                        turns.push(again);
                        turns.pop()
                    }
                }
            };
        }
        (*heap, *run) = (turns.heap.into_vec(), turns.run);

        // Write the moved levels back, and the total once. A row left below
        // its maximum was refused, and waits where, at its rank now; its
        // waitlist entry moves only if that place is not the one it held.
        for row in rows.iter() {
            if row.level != row.loaded_level {
                self.total_bandwidth += row.increment.times((row.level - row.loaded_level) as u64);
                if let Some(conn) = connections.at_mut(row.slot, row.id) {
                    conn.set_level(row.level);
                }
            }
            let place = row.refused.map(|at| (at, row.rank(policy)));
            if place != row.waited {
                if let Some(((link, increment), rank)) = row.waited {
                    links[link.index()].unwait(increment, rank);
                    #[cfg(test)]
                    {
                        fill.unwaited[0] += 1;
                    }
                }
                if let Some(((link, increment), rank)) = place {
                    links[link.index()].wait(increment, rank, row.slot);
                }
            } else {
                #[cfg(test)]
                {
                    fill.left_in_place += usize::from(place.is_some());
                }
            }
            connections.set_waiting(row.slot, place);
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
                    self.connections.set_waiting(slot, Some(((link, inc), at)));
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
