//! The fill stage: re-distribution of spare bandwidth among the elastic
//! primaries an arrival, a termination or a failure left able to grow
//! (Section 3.1's "retreat and re-distribution", the second half); the
//! test that spares an arrival's retreat a primary the fill would grant
//! straight back; and the one pass after the fill that keeps each link's
//! list of growable primaries ([`LinkUsage::growable`]) and their demand
//! exact, so the next event gathers its candidates from the lists instead
//! of from every primary.

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

/// How the fill takes a [`FillRow`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Load {
    /// Loaded up front, every link slack: granted to its maximum in one
    /// step.
    Bulk,
    /// Loaded up front: granted one increment a turn.
    Turns,
    /// Listed and untouched since its last fill, so not loaded: its first
    /// turn tests only the link that last refused it, recorded here.
    Deferred(Blocked),
    /// Deferred behind a lower `(score, id)` row with the same record, the
    /// head of their group: given a first turn only once the row ahead of
    /// it has woken (see [`Deferrals`]).
    Held(Blocked),
    /// Deferred, then loaded on its first turn, that link having room.
    Woken,
}

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
    /// This row's primary links, as a range of [`FillScratch::arena`];
    /// empty while the row is deferred.
    links: Range<usize>,
    pub(super) load: Load,
}

impl FillRow {
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

/// A row's turn, ordered so that the lowest `(score, id)` is the greatest:
/// the top of a [`BinaryHeap`] and the last of a sorted vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scored {
    /// `(score, id)` as one integer: the score's bits mapped to an unsigned
    /// key in [`f64::total_cmp`]'s order, above the id.
    rank: u128,
    row: usize,
}

impl Scored {
    fn new(score: f64, id: ConnectionId, row: usize) -> Self {
        let bits = score.to_bits();
        let key = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        Self {
            rank: u128::from(key) << 64 | u128::from(id.0),
            row,
        }
    }
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

/// The fill priority of a channel at `level`: lowest score grows first.
fn fill_score(policy: AdaptationPolicy, level: usize, utility: f64) -> f64 {
    match policy {
        // Highest utility first; level is irrelevant (monopolize).
        AdaptationPolicy::MaxUtility => -utility,
        // Progressive filling: lowest weighted level first.
        AdaptationPolicy::Coefficient => (level as f64 + 1.0) / utility,
    }
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

/// Whether the heap's refusal recorded in `at` still holds: its link is
/// down or lacks the increment. Headroom only shrinks during a fill, so a
/// connection refused there can be granted nothing by a fill starting now.
pub(super) fn still_blocked(links: &[LinkUsage], at: Option<Blocked>) -> bool {
    let Some((link, increment)) = at else {
        return false;
    };
    links.get(link.index()).is_some_and(|u| {
        if seam::armed(Seam::BlockedAtExactRoom) {
            return !u.is_up() || u.headroom() <= increment;
        }
        lacks(u, increment)
    })
}

/// Whether a deferred row's first turn refuses it where the fill last
/// refused it, at `at`: that link is down or lacks the increment now.
fn refused_again(links: &[LinkUsage], (link, increment): Blocked) -> bool {
    links.get(link.index()).is_some_and(|u| {
        if seam::armed(Seam::RefusedAtExactRoom) {
            return !u.is_up() || u.headroom() <= increment;
        }
        lacks(u, increment)
    })
}

/// No group: the end of a chain in [`Deferrals::at_link`].
const NO_GROUP: u32 = u32::MAX;

/// The deferred rows of one fill that share one recorded refusal.
#[derive(Debug)]
struct Group {
    at: Blocked,
    /// The next group recorded at the same link, for another increment.
    next: u32,
    /// Its lowest first turn so far: the only one queued while the
    /// classification reads the rows.
    head: Scored,
    /// Once a row of the group has woken: its rows still held, as a range
    /// of [`Deferrals::held`] whose last entry is the next turn.
    waiting: Range<usize>,
}

/// The deferred rows of one fill, grouped by the refusal each one's
/// record names. Headroom only shrinks during a fill, and a refused
/// deferred row changes nothing, so once a group's lowest row is refused
/// at that link, every later one would be too: only the lowest takes a
/// first turn, and the next is queued when it wakes.
#[derive(Debug, Default)]
struct Deferrals {
    groups: Vec<Group>,
    /// Per link, the last group recorded there; [`NO_GROUP`] between fills.
    at_link: Vec<u32>,
    /// The rows held behind their group's head, with the group: sorted by
    /// group, then from the last turn to the first, when a head first
    /// wakes.
    held: Vec<(u32, Scored)>,
    sorted: bool,
}

impl Deferrals {
    /// Starts a fill over `links` links.
    fn begin(&mut self, links: usize) {
        self.groups.clear();
        self.held.clear();
        self.sorted = false;
        self.at_link.resize(links, NO_GROUP);
    }

    /// The group recorded at `at`, if any.
    fn find(&self, (link, increment): Blocked) -> Option<usize> {
        let mut g = *self.at_link.get(link.index())?;
        while let Some(group) = self.groups.get(g as usize) {
            if group.at.1 == increment {
                return Some(g as usize);
            }
            g = group.next;
        }
        None
    }

    /// Files a deferred row's first turn under its record `at`. Returns
    /// the turn that is now held: this one, or the head it displaced.
    fn join(&mut self, at: Blocked, turn: Scored) -> Option<Scored> {
        let Some(g) = self.find(at) else {
            let next = self.at_link[at.0.index()];
            self.at_link[at.0.index()] = self.groups.len() as u32;
            self.groups.push(Group {
                at,
                next,
                head: turn,
                waiting: 0..0,
            });
            return None;
        };
        let head = &mut self.groups[g].head;
        let held = if turn > *head {
            std::mem::replace(head, turn)
        } else {
            turn
        };
        self.held.push((g as u32, held));
        Some(held)
    }

    /// Every group's head.
    fn heads(&self) -> impl Iterator<Item = Scored> + '_ {
        self.groups.iter().map(|g| g.head)
    }

    /// The next turn of the group recorded at `at`, whose latest turn has
    /// just woken.
    fn promote(&mut self, at: Blocked) -> Option<Scored> {
        if seam::armed(Seam::DropTheGroupOnAWake) {
            return None;
        }
        let g = self.find(at)?;
        if !self.sorted {
            self.held.sort_unstable();
            let mut start = 0;
            for run in self.held.chunk_by(|a, b| a.0 == b.0) {
                self.groups[run[0].0 as usize].waiting = start..start + run.len();
                start += run.len();
            }
            self.sorted = true;
        }
        let next = self.groups[g].waiting.next_back()?;
        Some(self.held[next].1)
    }

    /// Ends a fill: clears the per-link index.
    fn finish(&mut self) {
        for group in &self.groups {
            self.at_link[group.at.0.index()] = NO_GROUP;
        }
    }
}

/// Reusable work tables of [`Network::redistribute`]: a fill
/// allocates nothing once these have grown to the working-set size. Not
/// part of the network's state: every fill rebuilds them from scratch. The
/// rows are the candidates the fill read, those live and below their
/// maximum, loaded or deferred.
#[derive(Debug, Default)]
pub(super) struct FillScratch {
    pub(super) rows: Vec<FillRow>,
    /// The primary links of every loaded row, back to back.
    arena: Vec<LinkId>,
    /// Per link, the bandwidth the rows loaded up front could still ask of
    /// it; all zero between fills, and between the keep rule's uses of it.
    demand: Vec<Bandwidth>,
    /// Every row's first turn, sorted (empty between fills, capacity kept).
    firsts: Vec<Scored>,
    /// The heap of later turns' backing store between fills (likewise).
    heap: Vec<Scored>,
    deferrals: Deferrals,
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

    /// Drops from the loose set every row that has left, been granted its
    /// maximum or been refused again since it was recorded.
    pub(super) fn prune_loose(&mut self) {
        let Self {
            links,
            connections,
            loose,
            ..
        } = self;
        loose.retain(|&pair| connections.is_loose(pair, |at| still_blocked(links, at)));
    }

    /// Records the loose set afresh from the connection table's count and
    /// refusal columns: at the end of a fault step, which frees room where
    /// its fill walks nothing, and of a repair.
    pub(super) fn record_loose(&mut self) {
        let Self {
            links,
            connections,
            loose,
            ..
        } = self;
        loose.clear();
        loose.extend(connections.loose(|at| still_blocked(links, at)));
        if seam::armed(Seam::ForgetALooseRow) {
            loose.pop();
        }
    }

    /// The one list edit of an event, after its fill, outside it: each live
    /// pair of `pairs` whose count in the connection table disagrees with
    /// its remaining bandwidth is listed on, taken off, or recounted on
    /// every link of its primary. Retreat leaves the lists alone, and a
    /// primary is put on a link unlisted, so this lists a row that was at
    /// its maximum (or new) and ended below it, unlists a listed row the
    /// fill granted up to its maximum, and recounts a listed row that moved
    /// but stayed below it. The common row — retreated from its maximum and
    /// granted straight back — is none of these: the table's count column
    /// tells, without reading a list, and nothing is edited.
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
            for l in conn.primary().links() {
                let usage = &mut links[l.index()];
                if counted == Bandwidth::ZERO {
                    usage.list((slot, id), now);
                } else if now == Bandwidth::ZERO {
                    usage.unlist(id, counted);
                } else {
                    if seam::armed(Seam::ForgetARecount) {
                        continue;
                    }
                    usage.recount(counted, now);
                }
            }
            connections.set_counted(slot, now);
        }
    }

    /// Water-fills extra increments over the set `candidates`, in whatever
    /// order it lists them, according to the adaptation policy, then
    /// [reconciles](Self::reconcile) the lists over the rows it loaded. The
    /// set must hold every live primary whose level the event moved and
    /// every one it put on a link; anyone else it names is ignored when at
    /// their maximum or no longer live.
    ///
    /// Each live candidate that can still grow is read once into a flat
    /// row. A listed row untouched since its last fill — counted on its
    /// links at its remaining, with the link that last refused it recorded
    /// in the connection table — is deferred; every other row is loaded
    /// with its links. Loaded rows whose links are all slack are granted up
    /// to their maximum in one step. The rest take turns in `(score, id)`
    /// order, one increment a turn: every row's first turn from one sorted
    /// vector, a granted row's later turns from a min-heap, the lower of
    /// the two next. Deferred rows with one recorded refusal form a group,
    /// and only its lowest row's first turn is sorted in; when a row of the
    /// group wakes, the next one's first turn joins the heap. Headroom only
    /// shrinks during a fill, so a refused row is dropped for good, and the
    /// link that refused it is recorded in the connection table for the
    /// next event's gather ([`still_blocked`]) and the next fill's
    /// deferral.
    ///
    /// The shortcut is exact. A slack link has room for everything the
    /// candidates could still ask of it, so it refuses nobody whatever the
    /// grant order: a row on slack links only ends at its maximum. And
    /// such rows touch no tight link, so the turns of the remaining rows
    /// see the tight links exactly as the one-increment-at-a-time fill
    /// over all candidates would, and grant in the same order.
    ///
    /// So is the deferral. A deferred row is listed on each of its links at
    /// its remaining, so while any row is deferred the slack test adds the
    /// link's listed demand to the loaded rows': a bound on what the rows
    /// ask, under which a link passes only if it is truly slack. A truly
    /// slack row that fails the bound takes turns instead, and still ends
    /// at its maximum without touching a tight link. A deferred row's first
    /// turn refuses it when its recorded link, on its primary, is down or
    /// lacks its increment — the full-path test would too — and leaves
    /// the record standing, still true; otherwise the row is loaded then
    /// and takes that turn across its whole primary. A group's rows
    /// behind a refused one would each be refused at the same link at
    /// their turns, headroom having only shrunk, and a refusal changes
    /// nothing, so they are left where they are, their records still
    /// true. Behind a row that woke, the next one's first turn enters the
    /// heap then, before its place in the `(score, id)` order comes up:
    /// every turn taken meanwhile ranked below the woken row.
    ///
    /// Nor does the order of `candidates` matter: every row is classified
    /// before any is granted, the demand sums are integer additions, bulk
    /// grants never touch a tight link, and the `(score, id)` order of the
    /// turns is total. So candidates gathered from the links' lists of
    /// growable primaries take exactly the turns that every primary of
    /// those links would, but for two kinds the fill could grant nothing
    /// anyway: the rows the lists leave out sit at their maximum, and the
    /// listed rows the gather leaves out are still blocked where a fill
    /// last refused them, so the one-increment fill would refuse each on
    /// its first turn.
    pub(super) fn redistribute(&mut self, candidates: &[ChainPair]) {
        #[cfg(test)]
        if seam::armed(Seam::ReferenceFill) {
            self.redistribute_reference(candidates);
            let pairs = candidates.iter().copied();
            return Self::reconcile(&mut self.links, &mut self.connections, pairs);
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
            arena,
            demand,
            firsts,
            heap,
            deferrals,
        } = fill;
        rows.clear();
        arena.clear();
        demand.resize(links.len(), Bandwidth::ZERO);
        deferrals.begin(links.len());

        // Read the candidates that are still live — a pair whose slot has
        // since been vacated or handed on is not — and below their maximum
        // (the others can never be granted anything). Defer the listed
        // ones untouched since their last fill; load the rest, summing per
        // link what they could still ask of it.
        let mut deferring = false;
        for &(slot, id) in candidates {
            let Some(conn) = connections.at(slot, id) else {
                continue;
            };
            let (level, max_level) = (conn.level(), conn.qos().max_level());
            if level >= max_level {
                continue;
            }
            let mut row = FillRow {
                slot,
                id,
                loaded_level: level,
                level,
                max_level,
                increment: conn.qos().increment(),
                utility: conn.qos().utility(),
                links: 0..0,
                load: Load::Turns,
            };
            let untouched = |_: &Blocked| connections.counted(slot) == row.remaining();
            match connections.blocked(slot).filter(untouched) {
                Some(at) => {
                    row.load = Load::Deferred(at);
                    deferring = true;
                }
                None => {
                    let start = arena.len();
                    arena.extend_from_slice(conn.primary().links());
                    row.links = start..arena.len();
                    for l in &arena[start..] {
                        demand[l.index()] += row.remaining();
                    }
                }
            }
            rows.push(row);
        }

        // Classify every loaded row before granting anything: grants eat
        // the headroom the slack test reads.
        for row in rows.iter_mut().filter(|r| r.load == Load::Turns) {
            let bound = |l: &LinkId| {
                let usage = &links[l.index()];
                let listed = if deferring {
                    usage.growable_demand()
                } else {
                    Bandwidth::ZERO
                };
                is_slack(usage, demand[l.index()] + listed)
            };
            if arena[row.links.clone()].iter().all(bound) {
                row.load = Load::Bulk;
            }
        }
        for i in 0..rows.len() {
            let row = &mut rows[i];
            if row.load == Load::Bulk {
                for l in &arena[row.links.clone()] {
                    links[l.index()].add_extra(row.remaining());
                }
                row.level = row.max_level;
                continue;
            }
            let turn = Scored::new(fill_score(policy, row.level, row.utility), row.id, i);
            if let Load::Deferred(at) = row.load {
                if let Some(held) = deferrals.join(at, turn) {
                    rows[held.row].load = Load::Held(at);
                }
            } else {
                firsts.push(turn);
            }
        }
        firsts.extend(deferrals.heads());
        for l in arena.iter() {
            demand[l.index()] = Bandwidth::ZERO;
        }

        // The turns, one increment each: the lowest (score, id) of the
        // first turns left and the later turns queued goes next. A turn
        // queued for a deferred row is its first.
        firsts.sort_unstable();
        let mut later = BinaryHeap::from(std::mem::take(heap));
        loop {
            let first = match (firsts.last(), later.peek()) {
                (Some(first), Some(next)) => first > next,
                (first, _) => first.is_some(),
            };
            let turn = if first {
                firsts.pop()
            } else {
                let Some(mut top) = later.peek_mut() else {
                    break;
                };
                let row = &mut rows[top.row];
                if !matches!(row.load, Load::Deferred(_)) {
                    if let Some(refused) = row.take_turn(&arena[row.links.clone()], links) {
                        connections.set_blocked(row.slot, Some((refused, row.increment)));
                        PeekMut::pop(top);
                    } else if row.level == row.max_level {
                        PeekMut::pop(top);
                    } else {
                        let score = fill_score(policy, row.level, row.utility);
                        *top = Scored::new(score, row.id, top.row);
                    }
                    continue;
                }
                Some(PeekMut::pop(top))
            };
            let Some(turn) = turn else {
                break;
            };
            if let Load::Deferred(at) = rows[turn.row].load {
                // Refused, and so is every row held behind it.
                if refused_again(links, at) {
                    continue;
                }
                let row = &mut rows[turn.row];
                let Some(conn) = connections.at(row.slot, row.id) else {
                    continue;
                };
                let start = arena.len();
                arena.extend_from_slice(conn.primary().links());
                row.links = start..arena.len();
                row.load = Load::Woken;
                if let Some(next) = deferrals.promote(at) {
                    rows[next.row].load = Load::Deferred(at);
                    later.push(next);
                }
            }
            let row = &mut rows[turn.row];
            if let Some(refused) = row.take_turn(&arena[row.links.clone()], links) {
                connections.set_blocked(row.slot, Some((refused, row.increment)));
            } else if row.level < row.max_level {
                let score = fill_score(policy, row.level, row.utility);
                later.push(Scored::new(score, row.id, turn.row));
            }
        }
        *heap = later.into_vec();
        deferrals.finish();

        // Write the moved levels back, and the total once.
        for row in rows.iter().filter(|r| r.level != r.loaded_level) {
            self.total_bandwidth += row.increment.times((row.level - row.loaded_level) as u64);
            if let Some(conn) = connections.at_mut(row.slot, row.id) {
                conn.set_level(row.level);
            }
        }

        // A row the fill never loaded is a candidate skipped (no longer
        // live, or at its maximum and so counted at zero) or a deferred
        // row refused where it last was: its level and count are unchanged.
        let loaded = rows
            .iter()
            .filter(|r| !matches!(r.load, Load::Deferred(_) | Load::Held(_)));
        Self::reconcile(links, connections, loaded.map(|r| (r.slot, r.id)));
    }
}

/// The reference the production fill is held to.
#[cfg(test)]
mod testing {
    use super::*;
    use crate::channel::DrConnection;

    impl FillScratch {
        /// The rows the last fill held behind their group's head, each with
        /// whether a wake ahead of it queued its first turn.
        pub(in crate::network) fn held(&self) -> impl Iterator<Item = bool> + '_ {
            let held = self.deferrals.held.iter();
            held.map(|(_, turn)| !matches!(self.rows[turn.row].load, Load::Held(_)))
        }
    }

    impl Network {
        /// The fill as it was before the flat one, kept verbatim (but for
        /// reading the ids out of the candidate pairs) as the reference
        /// the production fill is compared against: per granted increment
        /// two lookups by id, a link-list clone and a heap push.
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
