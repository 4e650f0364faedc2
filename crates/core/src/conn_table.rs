//! The connection table, and the marks the chain-set gather keeps over it.
//!
//! Connections live in a slab: a vector of slots, vacated slots reused
//! last-freed-first. A connection's slot never changes while it lives, and
//! every link it crosses as a primary carries the slot beside its id (see
//! [`crate::link_state::LinkUsage`]), so commit, retreat, fill and release
//! reach a connection with one vector access and never search for it. An
//! ordered `id → slot` index serves what remains: insert, remove, lookup by
//! id, and iteration in id order.
//!
//! Which slot a connection got depends on the order of earlier releases.
//! That history is not state: a slot is only ever used to reach the
//! connection it was handed out for, so equality compares connections in
//! id order, and a `(slot, id)` pair that outlived its connection resolves
//! to nothing even after the slot was handed to someone else.

use crate::channel::{ConnectionId, DrConnection};
use crate::qos::Bandwidth;
use drqos_topology::LinkId;
use std::collections::BTreeMap;

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
    index: BTreeMap<ConnectionId, Slot>,
    /// Per slot, the amount its connection is counted at in the growable
    /// demand of the links of its primary (see
    /// [`crate::link_state::LinkUsage::growable`]): its remaining
    /// bandwidth when the reconcile pass last saw it, zero when unlisted.
    /// So telling whether a row is listed, or by how much its count moved,
    /// is one read of a dense column, not a search of a list. An index like
    /// the slots themselves, never state.
    counted: Vec<Bandwidth>,
    /// Per slot, where the fill's heap last refused its connection: a link
    /// of its primary and the increment that link lacked. A hint, never
    /// state: while that link is down or still lacks the increment, no fill
    /// can grant the connection anything.
    blocked: Vec<Option<Blocked>>,
}

/// A link of a connection's primary that lacked its increment, and that
/// increment.
pub(crate) type Blocked = (LinkId, Bandwidth);

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
        self.index.is_empty()
    }

    /// Stores `conn`, whose id must not be in the table, and returns the
    /// slot it keeps for life.
    pub(crate) fn insert(&mut self, conn: DrConnection) -> Slot {
        let slot = self.free.pop().unwrap_or_else(|| {
            let fresh = Slot::try_from(self.slots.len());
            assert!(fresh.is_ok(), "connection table is out of slots");
            self.slots.push(None);
            self.counted.push(Bandwidth::ZERO);
            self.blocked.push(None);
            fresh.unwrap_or(Slot::MAX)
        });
        let before = self.index.insert(conn.id(), slot);
        assert!(before.is_none(), "{} is already in the table", conn.id());
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
        self.set_blocked(slot, None);
        let counted = self.counted(slot);
        self.set_counted(slot, Bandwidth::ZERO);
        counted
    }

    /// Where the fill last refused the connection in `slot`, if anywhere.
    pub(crate) fn blocked(&self, slot: Slot) -> Option<Blocked> {
        self.blocked.get(slot as usize).copied().flatten()
    }

    /// Records where the fill refused the connection in `slot`.
    pub(crate) fn set_blocked(&mut self, slot: Slot, at: Option<Blocked>) {
        if let Some(mark) = self.blocked.get_mut(slot as usize) {
            *mark = at;
        }
    }

    /// Takes `id` out of the table, with the amount it was counted at.
    pub(crate) fn remove(&mut self, id: ConnectionId) -> Option<(DrConnection, Bandwidth)> {
        let slot = self.index.remove(&id)?;
        self.free.push(slot);
        let conn = self.slots.get_mut(slot as usize)?.take()?;
        Some((conn, self.unlist(slot)))
    }

    pub(crate) fn get(&self, id: ConnectionId) -> Option<&DrConnection> {
        self.at(*self.index.get(&id)?, id)
    }

    pub(crate) fn get_mut(&mut self, id: ConnectionId) -> Option<&mut DrConnection> {
        self.at_mut(*self.index.get(&id)?, id)
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
        let held = |&slot: &Slot| Some((slot, self.slots.get(slot as usize)?.as_ref()?));
        self.index.values().filter_map(held)
    }
}

/// The marks of one chain-set gather: which links it has walked and which
/// `(slot, id)` pairs it holds. Generation-stamped, so starting the next
/// gather forgets them all in O(1). Scratch, never state.
#[derive(Debug, Default)]
pub(crate) struct ChainMarks {
    gen: u64,
    links: Vec<u64>,
    /// `(gen, id)`: the id tells a set member from a stale pair whose
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

    /// Adds the pair to the set; `true` if its slot was not in it yet.
    pub(crate) fn add(&mut self, (slot, id): ChainPair) -> bool {
        if self.slots.len() <= slot as usize {
            self.slots.resize(slot as usize + 1, (0, id));
        }
        match self.slots.get_mut(slot as usize) {
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
                        let slot = table.index.get(&some_id).copied();
                        let removed = table.remove(some_id).map(|(c, _)| c);
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
                    Some((conn(id), Bandwidth::ZERO))
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
        marks.begin(2);
        assert!(!marks.contains(new) && marks.walk(1) && marks.add(old));
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
