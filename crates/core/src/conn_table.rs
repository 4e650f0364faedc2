//! The connection table, and the marks the chain-set gather keeps over it.
//!
//! Connections live in a slab: a vector of slots, vacated slots reused
//! last-freed-first. A connection's slot never changes while it lives, and
//! every link it crosses as a primary carries the slot beside its id (see
//! [`crate::link_state::LinkUsage`]), so commit, retreat, fill and release
//! reach a connection with one vector access and never search for it. An
//! ordered `id → slot` index (`IdIndex`) serves what remains: insert,
//! remove, lookup by id, and iteration in id order.
//!
//! Which slot a connection got depends on the order of earlier releases.
//! That history is not state: a slot is only ever used to reach the
//! connection it was handed out for, so equality compares connections in
//! id order, and a `(slot, id)` pair that outlived its connection resolves
//! to nothing even after the slot was handed to someone else.

use crate::channel::{ConnectionId, DrConnection};
use crate::qos::Bandwidth;
use drqos_sim::seam::{self, Seam};
use drqos_topology::LinkId;

/// The position of a connection in its [`ConnTable`].
pub(crate) type Slot = u32;

/// A chain-set member: the slot to reach it by, and the id that says
/// whether the slot still holds it.
pub(crate) type ChainPair = (Slot, ConnectionId);

/// The live connections (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct ConnTable {
    slots: Vec<Option<DrConnection>>,
    /// Vacant slots; the last one freed is the next one used.
    free: Vec<Slot>,
    index: IdIndex,
    /// Per slot, the amount its connection is counted at in the growable
    /// demand of the links of its primary (see
    /// [`crate::link_state::LinkUsage::growable_demand`]): its remaining
    /// bandwidth when the reconcile pass last saw it, zero when unlisted.
    /// So telling whether a row is listed, or by how much its count moved,
    /// is one read of a dense column, not a search of a list. An index like
    /// the slots themselves, never state.
    counted: Vec<Bandwidth>,
    /// Per slot, where its connection waits: the waitlist — a link of its
    /// primary where a fill refused it, and the increment that link
    /// lacked (see [`crate::link_state::LinkUsage::buckets`]) — and the
    /// rank it holds there. `None` for a connection that waits nowhere.
    /// A retreat moves the level and leaves the place, so the rank is read
    /// here, not from the level. An index, never state.
    waiting: Vec<Option<Waiting>>,
}

/// The `id → slot` index: `(id, slot)` entries in one vector sorted by
/// id, a removed one left behind as a tombstone (`None`) until the
/// tombstones outnumber the live entries and one pass drops them all. So
/// the vector never holds more than twice the live entries, and a
/// compaction's pass is paid for by the removals since the last one.
///
/// The network hands ids out in increasing order, so its inserts are
/// pushes; an id at or below the last entry's, which the table's contract
/// allows, takes the sorted insert, reviving its own tombstone if it left
/// one.
/// Lookup and removal are binary searches. Iteration is in id order.
#[derive(Debug, Clone, Default)]
struct IdIndex {
    entries: Vec<(ConnectionId, Option<Slot>)>,
    live: usize,
}

impl IdIndex {
    fn len(&self) -> usize {
        self.live
    }

    fn find(&self, id: ConnectionId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |&(at, _)| at)
    }

    /// Maps `id` to `slot`; `false`, changing nothing, if `id` is mapped.
    fn insert(&mut self, id: ConnectionId, slot: Slot) -> bool {
        let ascending = self.entries.last().is_none_or(|&(last, _)| last < id);
        if ascending || seam::armed(Seam::PushOutOfOrder) {
            self.entries.push((id, Some(slot)));
        } else {
            match self.find(id) {
                Ok(at) => match self.entries.get_mut(at) {
                    Some((_, held @ None)) => *held = Some(slot),
                    _ => return false,
                },
                Err(at) => self.entries.insert(at, (id, Some(slot))),
            }
        }
        self.live += 1;
        true
    }

    fn get(&self, id: ConnectionId) -> Option<Slot> {
        self.entries.get(self.find(id).ok()?)?.1
    }

    /// Unmaps `id`, returning its slot.
    fn remove(&mut self, id: ConnectionId) -> Option<Slot> {
        let at = self.find(id).ok()?;
        let slot = self.entries.get_mut(at)?.1.take()?;
        self.live -= 1;
        if self.entries.len() - self.live > self.live {
            self.entries.retain(|&(_, held)| held.is_some());
        }
        Some(slot)
    }

    /// The live slots, in id order.
    fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.entries.iter().filter_map(|&(_, held)| held)
    }
}

/// A link of a connection's primary that lacked its increment, and that
/// increment.
pub(crate) type Blocked = (LinkId, Bandwidth);

/// A waitlist place: the waitlist, and the rank held in it.
pub(crate) type Waiting = (Blocked, u128);

/// Equality over the connections, in id order; never over slot history.
impl PartialEq for ConnTable {
    fn eq(&self, other: &Self) -> bool {
        self.iter().map(|(_, c)| c).eq(other.iter().map(|(_, c)| c))
    }
}

impl ConnTable {
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Stores `conn`, whose id must not be in the table, and returns the
    /// slot it keeps for life.
    pub(crate) fn insert(&mut self, conn: DrConnection) -> Slot {
        let slot = self.free.pop().unwrap_or_else(|| {
            let fresh = Slot::try_from(self.slots.len());
            assert!(fresh.is_ok(), "connection table is out of slots");
            self.slots.push(None);
            self.counted.push(Bandwidth::ZERO);
            self.waiting.push(None);
            fresh.unwrap_or(Slot::MAX)
        });
        let fresh = self.index.insert(conn.id(), slot);
        assert!(fresh, "{} is already in the table", conn.id());
        if let Some(place) = self.slots.get_mut(slot as usize) {
            *place = Some(conn);
        }
        self.unlist(slot);
        slot
    }

    /// The amount the connection in `slot` is counted at on its links.
    pub(crate) fn counted(&self, slot: Slot) -> Bandwidth {
        self.counted
            .get(slot as usize)
            .copied()
            .unwrap_or(Bandwidth::ZERO)
    }

    /// Records the amount the connection in `slot` is counted at.
    pub(crate) fn set_counted(&mut self, slot: Slot, amount: Bandwidth) {
        if let Some(mark) = self.counted.get_mut(slot as usize) {
            *mark = amount;
        }
    }

    /// Marks the connection in `slot` unlisted and forgets where it was
    /// refused, for a connection new to its links; returns the amount it
    /// was counted at.
    pub(crate) fn unlist(&mut self, slot: Slot) -> Bandwidth {
        self.set_waiting(slot, None);
        let counted = self.counted(slot);
        self.set_counted(slot, Bandwidth::ZERO);
        counted
    }

    /// The waitlist the connection in `slot` waits on, if any.
    pub(crate) fn blocked(&self, slot: Slot) -> Option<Blocked> {
        self.waiting(slot).map(|(at, _)| at)
    }

    /// Where the connection in `slot` waits, if anywhere.
    pub(crate) fn waiting(&self, slot: Slot) -> Option<Waiting> {
        self.waiting.get(slot as usize).copied().flatten()
    }

    /// Records where the connection in `slot` waits.
    pub(crate) fn set_waiting(&mut self, slot: Slot, place: Option<Waiting>) {
        if let Some(mark) = self.waiting.get_mut(slot as usize) {
            *mark = place;
        }
    }

    /// Takes `id` out of the table, with the amount it was counted at and
    /// where it waited.
    pub(crate) fn remove(
        &mut self,
        id: ConnectionId,
    ) -> Option<(DrConnection, Bandwidth, Option<Waiting>)> {
        let slot = self.index.remove(id)?;
        self.free.push(slot);
        let conn = self.slots.get_mut(slot as usize)?.take()?;
        let waited = self.waiting(slot);
        Some((conn, self.unlist(slot), waited))
    }

    pub(crate) fn get(&self, id: ConnectionId) -> Option<&DrConnection> {
        self.at(self.index.get(id)?, id)
    }

    pub(crate) fn get_mut(&mut self, id: ConnectionId) -> Option<&mut DrConnection> {
        self.at_mut(self.index.get(id)?, id)
    }

    /// The connection `id` if `slot` still holds it: `None` once it has
    /// left, whoever has the slot now.
    pub(crate) fn at(&self, slot: Slot, id: ConnectionId) -> Option<&DrConnection> {
        let held = self.slots.get(slot as usize)?.as_ref();
        held.filter(|c| c.id() == id)
    }

    /// [`Self::at`], mutably.
    pub(crate) fn at_mut(&mut self, slot: Slot, id: ConnectionId) -> Option<&mut DrConnection> {
        let held = self.slots.get_mut(slot as usize)?.as_mut();
        held.filter(|c| c.id() == id)
    }

    /// The primary links of the connections among `pairs` that are still
    /// live, with repeats.
    pub(crate) fn primary_links<'a>(
        &'a self,
        pairs: &'a [ChainPair],
    ) -> impl Iterator<Item = LinkId> + 'a {
        let live = pairs.iter().filter_map(|&(slot, id)| self.at(slot, id));
        live.flat_map(|c| c.primary().links().iter().copied())
    }

    /// Every connection with its slot, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Slot, &DrConnection)> {
        let held = |slot: Slot| Some((slot, self.slots.get(slot as usize)?.as_ref()?));
        self.index.slots().filter_map(held)
    }
}

/// The marks of one chain-set gather: which links it has walked and which
/// `(slot, id)` pairs it holds. Generation-stamped, so starting the next
/// gather forgets them all in O(1). Scratch, never state.
#[derive(Debug, Default)]
pub(crate) struct ChainMarks {
    gen: u64,
    links: Vec<u64>,
    /// `(stamp, id)`: the id tells a set member from a stale pair whose
    /// slot has since been handed to a member.
    slots: Vec<(u64, ConnectionId)>,
}

impl ChainMarks {
    /// Starts an empty set over a network of `links` links.
    pub(crate) fn begin(&mut self, links: usize) {
        if self.links.len() < links {
            self.links.resize(links, 0);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation wrapped: stale stamps could alias. Reset them all.
            self.links.iter_mut().for_each(|s| *s = 0);
            self.slots.iter_mut().for_each(|s| s.0 = 0);
            self.gen = 1;
        }
    }

    /// Marks `link` walked; `true` the first time in this set.
    pub(crate) fn walk(&mut self, link: usize) -> bool {
        match self.links.get_mut(link) {
            Some(stamp) if *stamp != self.gen => {
                *stamp = self.gen;
                true
            }
            _ => false,
        }
    }

    /// Whether `link` has been walked in this set.
    pub(crate) fn walked(&self, link: usize) -> bool {
        self.links.get(link) == Some(&self.gen)
    }

    /// Adds the pair to the set; `true` if its slot was not in it yet.
    pub(crate) fn add(&mut self, (slot, id): ChainPair) -> bool {
        let at = slot as usize;
        if self.slots.len() <= at {
            self.slots.resize(at + 1, (0, id));
        }
        match self.slots.get_mut(at) {
            Some(mark) if mark.0 != self.gen => {
                *mark = (self.gen, id);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::ElasticQos;
    use drqos_sim::rng::Rng;
    use drqos_topology::{regular, NodeId, Path};
    use std::collections::BTreeMap;

    impl ChainMarks {
        /// The generation counter, for tests (here and in `network`) that
        /// place a wrap or replay a generation.
        pub(crate) fn generation_mut(&mut self) -> &mut u64 {
            &mut self.gen
        }

        /// Whether the pair — this id in this slot — is in the set.
        fn contains(&self, (slot, id): ChainPair) -> bool {
            self.slots.get(slot as usize) == Some(&(self.gen, id))
        }
    }

    fn conn(id: u64) -> DrConnection {
        let g = regular::ring(6).unwrap();
        let primary = Path::from_nodes(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        DrConnection::new(
            ConnectionId(id),
            ElasticQos::paper_video(50),
            primary,
            vec![],
        )
    }

    /// The table this one replaces — the ordered map from id to
    /// connection — must be indistinguishable from it through `get`,
    /// `get_mut`, `remove`, `len` and iteration in id order, while slots
    /// are recycled underneath and stale pairs pile up.
    #[test]
    fn the_slab_matches_the_ordered_map_it_replaces_on_seeded_sequences() {
        let mut rng = Rng::seed_from_u64(0x17_51AB);
        let (mut recycled, mut stale_on_a_taken_slot) = (0, 0);
        for _ in 0..100 {
            let mut table = ConnTable::default();
            let mut map: BTreeMap<ConnectionId, DrConnection> = BTreeMap::new();
            let mut departed: Vec<ChainPair> = Vec::new();
            let mut next = 0;
            for _ in 0..150 {
                let some_id = ConnectionId(rng.range_u64(next + 2));
                match rng.range_usize(10) {
                    // Ids arrive ascending, as the network hands them out.
                    0..=3 => {
                        let slots_before = table.slots.len();
                        table.insert(conn(next));
                        assert!(map.insert(ConnectionId(next), conn(next)).is_none());
                        recycled += usize::from(table.slots.len() == slots_before);
                        next += 1;
                    }
                    4..=6 => {
                        let slot = table.index.get(some_id);
                        let removed = table.remove(some_id).map(|(c, ..)| c);
                        assert_eq!(removed, map.remove(&some_id));
                        departed.extend(slot.map(|slot| (slot, some_id)));
                    }
                    7 => {
                        let level = rng.range_usize(9);
                        let (got, want) = (table.get_mut(some_id), map.get_mut(&some_id));
                        assert_eq!(got, want);
                        got.into_iter().chain(want).for_each(|c| c.set_level(level));
                    }
                    _ => assert_eq!(table.get(some_id), map.get(&some_id)),
                }
                assert_eq!((table.len(), table.is_empty()), (map.len(), map.is_empty()));
                assert!(table.iter().map(|(_, c)| c).eq(map.values()));
                // A live pair resolves to its connection; a departed one
                // to nothing, whoever holds its slot now.
                for (slot, c) in table.iter() {
                    assert_eq!(table.at(slot, c.id()), Some(c));
                }
                for &(slot, id) in &departed {
                    assert_eq!(table.at(slot, id), None);
                    assert_eq!(table.at_mut(slot, id), None);
                    stale_on_a_taken_slot += usize::from(table.slots[slot as usize].is_some());
                }
            }
        }
        assert!(recycled > 1_000, "{recycled}");
        assert!(stale_on_a_taken_slot > 10_000, "{stale_on_a_taken_slot}");
    }

    /// What the index differential reached, summed over its cases.
    #[derive(Debug, Default)]
    struct IndexTally {
        pushes: usize,
        sorted_inserts: usize,
        revived: usize,
        refused: usize,
        compactions: usize,
        /// Removals that left exactly as many tombstones as live entries:
        /// one more and the pass would have run.
        at_the_boundary: usize,
    }

    /// One seeded case: an [`IdIndex`] and the ordered map it replaces,
    /// driven through the same inserts (ascending, out of order, again
    /// after a removal, of a live id), removals (of live and absent ids)
    /// and lookups, compared after every step — lookups, length, the
    /// slots in id order — with the entries held to twice the live count.
    fn index_case(seed: u64, tally: &mut IndexTally) -> Result<(), String> {
        let mut rng = Rng::seed_from_u64(seed);
        let (mut index, mut map) = (IdIndex::default(), BTreeMap::new());
        let mut next = 0u64;
        // Phases lean toward inserts or toward removals, so the live count
        // swings and tombstones pile up to the compaction boundary.
        let mut lean = 5;
        for step in 0..400 {
            if step % 50 == 0 {
                lean = 1 + rng.range_usize(9);
            }
            let slot = rng.range_u64(1 << 20) as Slot;
            let some_id = ConnectionId(rng.range_u64(next + 2));
            let live: Vec<ConnectionId> = map.keys().copied().collect();
            match rng.range_usize(12) {
                k if k < lean => {
                    // Ids ascend with gaps, which out-of-order inserts fill.
                    next += 1 + rng.range_u64(3);
                    let id = ConnectionId(next);
                    let before = index.entries.len();
                    let fresh = index.insert(id, slot);
                    tally.pushes += usize::from(index.entries.len() == before + 1);
                    if !fresh || map.insert(id, slot).is_some() {
                        return Err(format!("step {step}: ascending insert of {id}"));
                    }
                }
                10 => {
                    // At or below the last ascending id, so never a fresh one.
                    let some_id = ConnectionId(rng.range_u64(next + 1));
                    let tombstones = index.entries.len() - index.len();
                    let got = index.insert(some_id, slot);
                    let want = !map.contains_key(&some_id);
                    if want {
                        map.insert(some_id, slot);
                        let revived = index.entries.len() - index.len() < tombstones;
                        tally.revived += usize::from(revived);
                        tally.sorted_inserts += usize::from(!revived);
                    } else {
                        tally.refused += 1;
                    }
                    if got != want {
                        return Err(format!("step {step}: insert of {some_id} said {got}"));
                    }
                }
                11 => {
                    let (got, want) = (index.get(some_id), map.get(&some_id).copied());
                    if got != want {
                        return Err(format!(
                            "step {step}: get {some_id}: {got:?}, want {want:?}"
                        ));
                    }
                }
                k => {
                    let id = match rng.choose(&live) {
                        Some(&id) if k % 2 == 0 => id,
                        _ => some_id,
                    };
                    let before = index.entries.len();
                    let (got, want) = (index.remove(id), map.remove(&id));
                    if index.entries.len() < before {
                        tally.compactions += 1;
                    }
                    let tombstones = index.entries.len() - index.len();
                    tally.at_the_boundary +=
                        usize::from(got.is_some() && tombstones == index.len());
                    if got != want {
                        return Err(format!("step {step}: remove {id}: {got:?}, want {want:?}"));
                    }
                }
            }
            if index.len() != map.len() || !index.slots().eq(map.values().copied()) {
                return Err(format!("step {step}: slots out of id order or count"));
            }
            if let Some(&id) = rng.choose(&live) {
                if index.get(id) != map.get(&id).copied() {
                    return Err(format!("step {step}: get {id} after the step"));
                }
            }
            if index.entries.len() > 2 * index.len() {
                let (held, live) = (index.entries.len(), index.len());
                return Err(format!("step {step}: {held} entries for {live} live"));
            }
        }
        Ok(())
    }

    fn index_matches_the_map(cases: u64) {
        let mut tally = IndexTally::default();
        for case in 0..cases {
            if let Err(e) = index_case(0x1D_1DE7 + case, &mut tally) {
                panic!("case {case}: {e}");
            }
        }
        let floor = cases as usize;
        // One run of 200: 33 237 pushes, 4 053 sorted inserts, 707
        // revivals, 1 848 refusals, 1 251 compactions, 1 293 at the boundary.
        assert!(tally.pushes > 100 * floor, "{tally:?}");
        assert!(tally.sorted_inserts > 10 * floor, "{tally:?}");
        assert!(tally.revived > 2 * floor, "{tally:?}");
        assert!(tally.refused > 5 * floor, "{tally:?}");
        assert!(tally.compactions > 4 * floor, "{tally:?}");
        assert!(tally.at_the_boundary > 4 * floor, "{tally:?}");
    }

    /// The id index against the ordered map it replaces (see
    /// [`index_case`]).
    #[test]
    fn the_id_index_matches_the_ordered_map_on_200_seeded_cases() {
        index_matches_the_map(200);
    }

    /// [`the_id_index_matches_the_ordered_map_on_200_seeded_cases`] at ten
    /// times the cases, for CI's release run.
    #[test]
    #[ignore]
    fn the_id_index_matches_the_ordered_map_on_2000_seeded_cases() {
        index_matches_the_map(2_000);
    }

    /// An index that pushes an out-of-order insert at its end, as if every
    /// id were fresh, must fail the differential.
    #[test]
    fn an_id_index_pushing_out_of_order_is_caught() {
        let caught = seam::with(Seam::PushOutOfOrder, || {
            (0..20).find(|&case| index_case(0x1D_1DE7 + case, &mut IndexTally::default()).is_err())
        });
        assert!(caught.is_some());
    }

    #[test]
    fn vacated_slots_are_reused_last_freed_first_and_equality_ignores_them() {
        let filled = || {
            let mut table = ConnTable::default();
            let slots: Vec<Slot> = (0..4).map(|id| table.insert(conn(id))).collect();
            assert_eq!(slots, [0, 1, 2, 3]);
            table
        };
        let (mut a, mut b) = (filled(), filled());
        for (table, order) in [(&mut a, [1, 2]), (&mut b, [2, 1])] {
            for id in order {
                assert_eq!(
                    table.remove(ConnectionId(id)),
                    Some((conn(id), Bandwidth::ZERO, None))
                );
            }
            assert_eq!(table.remove(ConnectionId(9)), None);
        }
        assert_eq!((a.insert(conn(4)), a.insert(conn(5))), (2, 1));
        assert_eq!((b.insert(conn(4)), b.insert(conn(5))), (1, 2));
        assert!(a == b && a.slots.len() == 4);
        assert_eq!(a.insert(conn(6)), 4);
        assert!(a != b);
        b.insert(conn(6));
        b.get_mut(ConnectionId(6)).unwrap().set_level(1);
        assert!(a != b);
    }

    #[test]
    fn marks_hold_pairs_not_slots_and_forget_on_begin() {
        let mut marks = ChainMarks::default();
        let (old, new) = ((3, ConnectionId(1)), (3, ConnectionId(8)));
        marks.begin(2);
        assert!(marks.walk(1) && !marks.walk(1));
        assert!(marks.add(new) && !marks.add(new));
        // The slot is taken, but only by the pair that was added.
        assert!(marks.contains(new) && !marks.contains(old) && !marks.add(old));
        // No link beyond the network is walked; the slot marks grow.
        assert!(!marks.walk(2) && !marks.contains((9, ConnectionId(2))));
        assert!(marks.add((9, ConnectionId(2))) && marks.contains((9, ConnectionId(2))));
        assert!(marks.walked(1) && !marks.walked(0));
        marks.begin(2);
        assert!(!marks.contains(new) && !marks.walked(1) && marks.walk(1) && marks.add(old));
        // A wrap resets every stamp instead of letting generation 1's
        // marks come back to life.
        let mut wrapped = ChainMarks::default();
        wrapped.begin(2);
        assert!(wrapped.walk(0) && wrapped.add(new));
        *wrapped.generation_mut() = u64::MAX;
        wrapped.begin(2);
        assert!(!wrapped.contains(new) && wrapped.walk(0) && wrapped.add(new));
    }
}
