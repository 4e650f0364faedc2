//! Per-link bandwidth accounting, including multiplexed backup
//! reservations.
//!
//! Every link tracks three kinds of committed bandwidth:
//!
//! 1. **Primary minima** — the guaranteed `B_min` of each primary channel
//!    crossing the link. Inviolable.
//! 2. **Extras** — elastic increments above the minimum currently lent to
//!    primaries. Reclaimable at any time (channels *retreat*).
//! 3. **Backup reservation** — bandwidth set aside for backup channels.
//!    Backups are *multiplexed* (overbooked): two backups share reservation
//!    unless a single link failure could activate both. The reservation on
//!    link `ℓ` is therefore
//!    `max over links f of Σ { B_min(c) : backup(c) ∋ ℓ and primary(c) ∋ f }`
//!    — the worst single-failure activation burst this link must absorb.
//!
//! Invariant maintained by [`crate::network::Network`]:
//! `primary_min_sum + extra_sum ≤ capacity` at all times, and
//! `primary_min_sum + extra_sum + backup_reservation ≤ capacity` in
//! failure-free operation. (After a failover consumes reservation, the
//! reservation for the *remaining* backups may transiently overbook the
//! link until connections re-route — the known soft spot of backup
//! multiplexing.)

use crate::channel::ConnectionId;
use crate::conn_table::Slot;
use crate::qos::Bandwidth;
use drqos_sim::rng::splitmix64;
use drqos_topology::LinkId;

/// Bandwidth bookkeeping for one link.
#[derive(Debug, Clone)]
pub struct LinkUsage {
    capacity: Bandwidth,
    up: bool,
    /// Sorted and duplicate-free (as is `backups`).
    primaries: Vec<ConnectionId>,
    /// The connection-table slot of each entry of `primaries`, in the same
    /// order: the network manager gathers chain sets as `(slot, id)` pairs
    /// from the two columns. An index, not accounting state — equality,
    /// the plan digest and snapshots never see it.
    primary_slots: Vec<Slot>,
    /// What the listed primaries — those below their maximum level —
    /// could still be granted here, each counted at the amount the
    /// connection table holds for it: at rest, the sum of their remaining
    /// bandwidth. An index like `primary_slots`, kept by the network
    /// manager and outside equality, the plan digest and snapshots.
    growable_demand: Bandwidth,
    /// The waitlist: the listed primaries a fill refused here, one
    /// [`Bucket`] per increment they lacked. Part of the same index.
    waiting: Vec<Bucket>,
    primary_min_sum: Bandwidth,
    extra_sum: Bandwidth,
    backups: Vec<ConnectionId>,
    /// For each potential failed link `f`, the total minimum bandwidth of
    /// backups on this link whose primary crosses `f`. Sorted by `f`, one
    /// entry per link, none of them zero: planning binary-searches it once
    /// per primary hop on every link a backup search reaches.
    conflict: Vec<(LinkId, Bandwidth)>,
    reservation: Bandwidth,
}

/// Equality over the *accounting* state only — the slot column, the
/// growable demand and the waitlist are indexes and must never make
/// otherwise-equal links differ.
impl PartialEq for LinkUsage {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.up == other.up
            && self.primaries == other.primaries
            && self.primary_min_sum == other.primary_min_sum
            && self.extra_sum == other.extra_sum
            && self.backups == other.backups
            && self.conflict == other.conflict
            && self.reservation == other.reservation
    }
}

impl LinkUsage {
    /// Creates accounting for a link with the given capacity, initially up
    /// and empty.
    pub fn new(capacity: Bandwidth) -> Self {
        Self {
            capacity,
            up: true,
            primaries: Vec::new(),
            primary_slots: Vec::new(),
            growable_demand: Bandwidth::ZERO,
            waiting: Vec::new(),
            primary_min_sum: Bandwidth::ZERO,
            extra_sum: Bandwidth::ZERO,
            backups: Vec::new(),
            conflict: Vec::new(),
            reservation: Bandwidth::ZERO,
        }
    }

    /// The link's capacity.
    pub fn capacity(&self) -> Bandwidth {
        self.capacity
    }

    /// Whether the link is operational.
    pub fn is_up(&self) -> bool {
        self.up
    }

    pub(crate) fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Primary channels crossing this link, in id order.
    pub(crate) fn primaries(&self) -> &[ConnectionId] {
        &self.primaries
    }

    /// The connection-table slots of [`Self::primaries`], entry for entry.
    pub(crate) fn primary_slots(&self) -> &[Slot] {
        &self.primary_slots
    }

    /// [`Self::primaries`] as `(slot, id)` pairs.
    pub(crate) fn primary_pairs(&self) -> impl Iterator<Item = (Slot, ConnectionId)> + '_ {
        let slots = self.primary_slots.iter().copied();
        slots.zip(self.primaries.iter().copied())
    }

    /// What the listed primaries could still be granted here.
    pub(crate) fn growable_demand(&self) -> Bandwidth {
        self.growable_demand
    }

    /// Moves a primary's count from `from` to `to`: from zero lists it,
    /// to zero takes it off.
    pub(crate) fn recount(&mut self, from: Bandwidth, to: Bandwidth) {
        self.growable_demand = self.growable_demand - from + to;
    }

    /// The waitlist's buckets, in no order.
    pub(crate) fn buckets(&self) -> &[Bucket] {
        &self.waiting
    }

    /// Puts the primary in `slot`, refused here for want of `increment`,
    /// on the waitlist at `rank`.
    pub(crate) fn wait(&mut self, increment: Bandwidth, rank: u128, slot: Slot) {
        let at = self.waiting.iter().position(|b| b.increment == increment);
        let at = at.unwrap_or_else(|| {
            self.waiting.push(Bucket {
                increment,
                rows: Vec::new(),
            });
            self.waiting.len() - 1
        });
        let rows = &mut self.waiting[at].rows;
        rows.insert(rows.partition_point(|&(r, _)| r > rank), (rank, slot));
    }

    /// Takes the primary waiting at `rank` for `increment` off the
    /// waitlist, if it is there.
    pub(crate) fn unwait(&mut self, increment: Bandwidth, rank: u128) {
        self.edit(increment, |rows| {
            if let Ok(i) = rows.binary_search_by(|&(r, _)| rank.cmp(&r)) {
                rows.remove(i);
            }
        });
    }

    /// The `n`th primary of the bucket for `increment`, head first, as
    /// `(rank, slot)`.
    pub(crate) fn waiter(&self, increment: Bandwidth, n: usize) -> Option<(u128, Slot)> {
        let bucket = self.waiting.iter().find(|b| b.increment == increment)?;
        let i = bucket.rows.len().checked_sub(n + 1)?;
        bucket.rows.get(i).copied()
    }

    /// Edits the rows of the bucket for `increment`, if there is one, and
    /// drops the bucket once it is empty.
    fn edit(&mut self, increment: Bandwidth, f: impl FnOnce(&mut Vec<(u128, Slot)>)) {
        if let Some(at) = self.waiting.iter().position(|b| b.increment == increment) {
            f(&mut self.waiting[at].rows);
            if self.waiting[at].rows.is_empty() {
                self.waiting.swap_remove(at);
            }
        }
    }

    /// Takes the whole bucket at `at` of [`Self::buckets`] off the
    /// waitlist.
    pub(crate) fn take_bucket(&mut self, at: usize) -> Bucket {
        self.waiting.swap_remove(at)
    }

    /// Backup channels registered on this link, in id order.
    pub fn backups(&self) -> &[ConnectionId] {
        &self.backups
    }

    /// Number of primary channels on the link.
    pub(crate) fn primary_count(&self) -> usize {
        self.primaries.len()
    }

    /// Sum of the minimum reservations of primaries on the link.
    pub fn primary_min_sum(&self) -> Bandwidth {
        self.primary_min_sum
    }

    /// Sum of elastic extras currently lent to primaries on the link.
    pub fn extra_sum(&self) -> Bandwidth {
        self.extra_sum
    }

    /// The multiplexed backup reservation.
    pub fn backup_reservation(&self) -> Bandwidth {
        self.reservation
    }

    /// Hard commitments: minima + backup reservation (extras excluded, as
    /// they are reclaimable on demand).
    pub fn hard_committed(&self) -> Bandwidth {
        self.primary_min_sum + self.reservation
    }

    /// Everything currently accounted: minima + extras + reservation.
    pub fn committed(&self) -> Bandwidth {
        self.primary_min_sum + self.extra_sum + self.reservation
    }

    /// Bandwidth available for a further elastic increment.
    pub(crate) fn headroom(&self) -> Bandwidth {
        self.capacity.saturating_sub(self.committed())
    }

    /// Whether a new primary needing `min` could be admitted, counting
    /// extras as reclaimable.
    pub fn can_admit_primary(&self, min: Bandwidth) -> bool {
        self.up && self.hard_committed() + min <= self.capacity
    }

    /// The reservation this link would need if a backup with the given
    /// `min` and primary-path links were added.
    pub fn reservation_if_backup_added(
        &self,
        min: Bandwidth,
        primary_links: &[LinkId],
    ) -> Bandwidth {
        primary_links
            .iter()
            .map(|&f| self.conflict_on(f) + min)
            .fold(self.reservation, Bandwidth::max)
    }

    /// The ledger entry for a failure of `f` (zero when absent).
    fn conflict_on(&self, f: LinkId) -> Bandwidth {
        match self.conflict_slot(f) {
            Ok(at) => self.conflict[at].1,
            Err(_) => Bandwidth::ZERO,
        }
    }

    /// Where the ledger holds `f` (`Ok`), or where it would go (`Err`).
    fn conflict_slot(&self, f: LinkId) -> Result<usize, usize> {
        self.conflict.binary_search_by_key(&f, |&(l, _)| l)
    }

    /// Whether a backup with the given `min` and primary links could be
    /// registered without exceeding capacity (extras reclaimable).
    pub fn can_admit_backup(&self, min: Bandwidth, primary_links: &[LinkId]) -> bool {
        self.fits_any_backup(min)
            || self.fits_backup_reservation(self.reservation_if_backup_added(min, primary_links))
    }

    /// Whether a backup of `min` fits whatever its primary's links are.
    /// The reservation is the ledger's maximum, so no backup can raise it
    /// by more than its own `min`: when that worst case fits, the ledger
    /// need not be walked. `false` only says the walk must decide.
    fn fits_any_backup(&self, min: Bandwidth) -> bool {
        self.fits_backup_reservation(self.reservation + min)
    }

    /// Whether the link is up and could hold `reservation` for its backups
    /// beside the primary minima (extras reclaimable).
    fn fits_backup_reservation(&self, reservation: Bandwidth) -> bool {
        self.up && self.primary_min_sum + reservation <= self.capacity
    }

    // ----- mutations (crate-internal; driven by the network manager) -----

    /// Registers a primary, unlisted: the reconcile pass after its
    /// event's fill lists it if it ends below its maximum.
    pub(crate) fn add_primary(&mut self, id: ConnectionId, slot: Slot, min: Bandwidth) {
        let at = position(&self.primaries, id);
        let vacant = self.primaries.get(at) != Some(&id);
        assert!(vacant, "{id} already a primary on this link");
        self.primaries.insert(at, id);
        self.primary_slots.insert(at, slot);
        self.primary_min_sum += min;
    }

    /// Unregisters a primary, and its count: `counted`, zero when it is
    /// not listed.
    pub(crate) fn remove_primary(&mut self, id: ConnectionId, min: Bandwidth, counted: Bandwidth) {
        let at = position(&self.primaries, id);
        let present = self.primaries.get(at) == Some(&id);
        assert!(present, "{id} was not a primary on this link");
        self.primaries.remove(at);
        self.primary_slots.remove(at);
        self.growable_demand -= counted;
        self.primary_min_sum -= min;
    }

    pub(crate) fn add_extra(&mut self, amount: Bandwidth) {
        self.extra_sum += amount;
    }

    pub(crate) fn remove_extra(&mut self, amount: Bandwidth) {
        self.extra_sum -= amount;
    }

    pub(crate) fn add_backup(
        &mut self,
        id: ConnectionId,
        min: Bandwidth,
        primary_links: &[LinkId],
    ) {
        let at = position(&self.backups, id);
        let vacant = self.backups.get(at) != Some(&id);
        assert!(vacant, "{id} already a backup on this link");
        self.backups.insert(at, id);
        for &f in primary_links {
            let at = match self.conflict_slot(f) {
                Ok(at) => at,
                Err(at) => {
                    self.conflict.insert(at, (f, Bandwidth::ZERO));
                    at
                }
            };
            let entry = &mut self.conflict[at].1;
            *entry += min;
            if *entry > self.reservation {
                self.reservation = *entry;
            }
        }
    }

    pub(crate) fn remove_backup(
        &mut self,
        id: ConnectionId,
        min: Bandwidth,
        primary_links: &[LinkId],
    ) {
        let at = position(&self.backups, id);
        let present = self.backups.get(at) == Some(&id);
        assert!(present, "{id} was not a backup on this link");
        self.backups.remove(at);
        // The reservation is the ledger's maximum: it can only have moved
        // if an entry that held the maximum shrank.
        let mut held_max = false;
        for &f in primary_links {
            let at = self
                .conflict_slot(f)
                .expect("conflict entry exists for registered backup");
            let entry = &mut self.conflict[at].1;
            held_max |= *entry == self.reservation;
            *entry -= min;
            if *entry == Bandwidth::ZERO {
                self.conflict.remove(at);
            }
        }
        if held_max {
            self.reservation = self.recomputed_reservation();
        }
    }

    /// A digest of every field of this link that route *planning* can
    /// observe: liveness, the primary-minimum sum, the cached reservation,
    /// and the full backup-conflict ledger. Extras are deliberately excluded —
    /// they are reclaimable and never consulted by `can_admit_primary` /
    /// `can_admit_backup` / the planning allowances.
    ///
    /// Equal digests ⇒ (modulo a 2⁻⁶⁴ collision) identical answers to
    /// every planning query. No admission reads it: only
    /// `Network::plan_establish_traced`'s footprint, kept for `benchmark/`
    /// (ROADMAP 4(c)), computes it, when asked.
    pub(crate) fn plan_digest(&self) -> u64 {
        let mut h: u64 = if self.up { 0x9E37_79B9_7F4A_7C15 } else { 0 };
        h = splitmix64(h ^ self.primary_min_sum.as_kbps());
        h = splitmix64(h ^ self.reservation.as_kbps());
        for &(f, bw) in &self.conflict {
            h = splitmix64(h ^ (f.index() as u64).wrapping_mul(0x0100_0000_01B3) ^ bw.as_kbps());
        }
        h
    }

    /// The conflict ledger: per failed link, in link order, the minima of
    /// the backups on this link which that failure activates.
    pub(crate) fn conflict_ledger(&self) -> &[(LinkId, Bandwidth)] {
        &self.conflict
    }

    /// Recomputes the multiplexed reservation from the conflict ledger,
    /// ignoring the cached value. Equal to [`Self::backup_reservation`]
    /// whenever the incremental bookkeeping is consistent; the invariant
    /// checker compares the two.
    pub(crate) fn recomputed_reservation(&self) -> Bandwidth {
        self.conflict
            .iter()
            .map(|&(_, bw)| bw)
            .max()
            .unwrap_or(Bandwidth::ZERO)
    }

    /// Test helper: recomputes the reservation from the conflict ledger
    /// and asserts the cache is consistent.
    #[cfg(test)]
    fn debug_validate(&self) {
        assert_eq!(
            self.recomputed_reservation(),
            self.reservation,
            "cached backup reservation out of sync"
        );
        assert!(
            self.primary_min_sum + self.extra_sum <= self.capacity,
            "allocated bandwidth exceeds capacity"
        );
    }
}

/// The primaries a fill refused at one link for want of one increment:
/// `(rank, slot)` pairs, the rank being the `(score, id)` of the fill turn
/// each would take next at the level it was refused at, highest first, so
/// that the head — the lowest, next to move — is last. A retreat moves a
/// waiting primary's level but not its entry: the fill that follows loads
/// it, and its write-back moves the entry only if the primary ends
/// refused elsewhere, for another increment or at another rank.
#[derive(Debug, Clone)]
pub(crate) struct Bucket {
    pub(crate) increment: Bandwidth,
    pub(crate) rows: Vec<(u128, Slot)>,
}

/// Where `id` is — or, if absent, belongs — in the sorted, duplicate-free
/// `set`. Connection ids are handed out in increasing order, so a newcomer
/// almost always belongs at the end; only a failover re-keying an old
/// connection onto new links inserts in the middle.
fn position(set: &[ConnectionId], id: ConnectionId) -> usize {
    if set.last().is_none_or(|&last| last < id) {
        return set.len();
    }
    set.partition_point(|&member| member < id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_sim::rng::Rng;
    use std::collections::BTreeMap;

    fn k(v: u64) -> Bandwidth {
        Bandwidth::kbps(v)
    }

    fn cid(v: u64) -> ConnectionId {
        ConnectionId(v)
    }

    fn lid(v: usize) -> LinkId {
        LinkId(v)
    }

    #[test]
    fn fresh_link_is_empty() {
        let l = LinkUsage::new(k(10_000));
        assert!(l.is_up());
        assert_eq!(l.capacity(), k(10_000));
        assert_eq!(l.committed(), Bandwidth::ZERO);
        assert_eq!(l.headroom(), k(10_000));
        assert_eq!(l.primary_count(), 0);
        l.debug_validate();
    }

    #[test]
    fn primary_accounting() {
        let mut l = LinkUsage::new(k(1_000));
        l.add_primary(cid(1), 91, k(100));
        l.add_primary(cid(2), 92, k(100));
        assert_eq!(l.primary_min_sum(), k(200));
        assert_eq!(l.primaries(), [cid(1), cid(2)]);
        l.remove_primary(cid(1), k(100), Bandwidth::ZERO);
        assert_eq!(l.primary_min_sum(), k(100));
        l.debug_validate();
    }

    #[test]
    #[should_panic(expected = "already a primary")]
    fn duplicate_primary_panics() {
        let mut l = LinkUsage::new(k(1_000));
        l.add_primary(cid(1), 91, k(100));
        l.add_primary(cid(1), 91, k(100));
    }

    #[test]
    #[should_panic(expected = "was not a primary")]
    fn removing_absent_primary_panics() {
        let mut l = LinkUsage::new(k(1_000));
        l.remove_primary(cid(1), k(100), Bandwidth::ZERO);
    }

    #[test]
    fn membership_stays_sorted_whatever_the_insert_order() {
        let mut l = LinkUsage::new(k(10_000));
        // Fresh ids arrive ascending: each lands at the end.
        for v in [2, 5, 9] {
            l.add_primary(cid(v), 90 + v as Slot, k(100));
            l.add_backup(cid(v + 100), k(100), &[lid(1)]);
        }
        assert_eq!(l.primaries(), [cid(2), cid(5), cid(9)]);
        // A failover re-keys an *old* connection onto this link: it must
        // be placed in the middle, or at the very front.
        l.add_primary(cid(7), 97, k(100));
        l.add_primary(cid(0), 90, k(100));
        l.add_backup(cid(104), k(100), &[lid(1)]);
        assert_eq!(l.primaries(), [cid(0), cid(2), cid(5), cid(7), cid(9)]);
        // Each slot travels with its id.
        assert_eq!(l.primary_slots(), [90, 92, 95, 97, 99]);
        assert_eq!(l.backups(), [cid(102), cid(104), cid(105), cid(109)]);
        l.remove_primary(cid(5), k(100), Bandwidth::ZERO);
        l.remove_primary(cid(0), k(100), Bandwidth::ZERO);
        l.remove_backup(cid(109), k(100), &[lid(1)]);
        assert_eq!(l.primaries(), [cid(2), cid(7), cid(9)]);
        assert_eq!(l.primary_slots(), [92, 97, 99]);
        assert_eq!(l.backups(), [cid(102), cid(104), cid(105)]);
        assert_eq!(l.primary_count(), 3);
        l.debug_validate();
    }

    #[test]
    fn the_slot_column_is_an_index_not_state() {
        // The same connections reached through different slot histories.
        let (mut a, mut b) = (LinkUsage::new(k(1_000)), LinkUsage::new(k(1_000)));
        for v in [3, 4] {
            a.add_primary(cid(v), v as Slot, k(100));
            b.add_primary(cid(v), 7 - v as Slot, k(100));
        }
        assert_ne!(a.primary_slots(), b.primary_slots());
        assert_eq!(a, b);
        assert_eq!(a.plan_digest(), b.plan_digest());
    }

    #[test]
    #[should_panic(expected = "already a backup")]
    fn duplicate_backup_panics_even_when_not_the_last() {
        let mut l = LinkUsage::new(k(1_000));
        l.add_backup(cid(1), k(100), &[lid(1)]);
        l.add_backup(cid(2), k(100), &[lid(2)]);
        l.add_backup(cid(1), k(100), &[lid(3)]);
    }

    #[test]
    fn backup_removal_recomputes_the_reservation_only_from_the_maximum() {
        let mut l = LinkUsage::new(k(10_000));
        l.add_backup(cid(1), k(300), &[lid(10)]);
        l.add_backup(cid(2), k(100), &[lid(20), lid(21)]);
        l.add_backup(cid(3), k(100), &[lid(20)]);
        assert_eq!(l.backup_reservation(), k(300));
        // Entry 20 (200) is below the maximum: the reservation stands.
        l.remove_backup(cid(3), k(100), &[lid(20)]);
        assert_eq!(l.backup_reservation(), k(300));
        l.debug_validate();
        // Entry 10 held the maximum: the next-largest entry takes over.
        l.remove_backup(cid(1), k(300), &[lid(10)]);
        assert_eq!(l.backup_reservation(), k(100));
        l.debug_validate();
        // Two entries tie for the maximum; shrinking both moves it.
        l.remove_backup(cid(2), k(100), &[lid(20), lid(21)]);
        assert_eq!(l.backup_reservation(), Bandwidth::ZERO);
        l.debug_validate();
    }

    /// The conflict ledger as it was before it became a sorted vector —
    /// an ordered map — with the planning queries and the digest computed
    /// from it exactly as they were.
    struct MapLedger {
        up: bool,
        capacity: Bandwidth,
        primary_min_sum: Bandwidth,
        conflict: BTreeMap<LinkId, Bandwidth>,
        reservation: Bandwidth,
    }

    impl MapLedger {
        fn reservation_if_backup_added(&self, min: Bandwidth, links: &[LinkId]) -> Bandwidth {
            links
                .iter()
                .map(|f| self.conflict.get(f).copied().unwrap_or(Bandwidth::ZERO) + min)
                .chain(std::iter::once(self.reservation))
                .max()
                .unwrap_or(self.reservation)
        }

        fn can_admit_backup(&self, min: Bandwidth, links: &[LinkId]) -> bool {
            self.up
                && self.primary_min_sum + self.reservation_if_backup_added(min, links)
                    <= self.capacity
        }

        fn add_backup(&mut self, min: Bandwidth, links: &[LinkId]) {
            for &f in links {
                let entry = self.conflict.entry(f).or_insert(Bandwidth::ZERO);
                *entry += min;
                if *entry > self.reservation {
                    self.reservation = *entry;
                }
            }
        }

        fn remove_backup(&mut self, min: Bandwidth, links: &[LinkId]) {
            let mut held_max = false;
            for &f in links {
                let entry = self.conflict.get_mut(&f).unwrap();
                held_max |= *entry == self.reservation;
                *entry -= min;
                if *entry == Bandwidth::ZERO {
                    self.conflict.remove(&f);
                }
            }
            if held_max {
                let max = self.conflict.values().copied().max();
                self.reservation = max.unwrap_or(Bandwidth::ZERO);
            }
        }

        fn plan_digest(&self) -> u64 {
            let mut h: u64 = if self.up { 0x9E37_79B9_7F4A_7C15 } else { 0 };
            h = splitmix64(h ^ self.primary_min_sum.as_kbps());
            h = splitmix64(h ^ self.reservation.as_kbps());
            for (&f, &bw) in &self.conflict {
                h = splitmix64(
                    h ^ (f.index() as u64).wrapping_mul(0x0100_0000_01B3) ^ bw.as_kbps(),
                );
            }
            h
        }
    }

    /// The O(1) accept weakened by one `min`: the reservation as it
    /// stands, not as the newcomer could raise it. The mutant the ledger
    /// differential must catch.
    fn weak_accept(link: &LinkUsage, min: Bandwidth, conflicts: &[LinkId]) -> bool {
        link.fits_backup_reservation(link.reservation)
            || link.fits_backup_reservation(link.reservation_if_backup_added(min, conflicts))
    }

    /// Seeded add/remove sequences on one link (l0) and on the map ledger,
    /// every planning query asked of both before every step, `admit`
    /// standing in for [`LinkUsage::can_admit_backup`]. Primaries cross
    /// 2..=5 of sixteen links (l0 among them at times: a
    /// maximally-disjoint backup crossing its own primary, whose conflict
    /// set then skips l0), so ledger entries collide, fall to zero and
    /// hold the maximum by turns; capacities run from starved to roomy, so
    /// a backup is admitted without the walk, admitted by the walk, and
    /// refused. Returns how often each of those happened.
    fn ledger_differential(
        admit: fn(&LinkUsage, Bandwidth, &[LinkId]) -> bool,
    ) -> Result<[usize; 3], String> {
        let on_link = lid(0);
        let mut rng = Rng::seed_from_u64(0x15_1ED6E4);
        let (mut removals_of_the_max, mut entries_dropped, mut skipped_on_link) = (0, 0, 0);
        let mut verdicts = [0; 3];
        for case in 0..200 {
            let capacity = k([500, 800, 2_000][case % 3]);
            let carried = k(50 * rng.range_u64(5));
            let mut link = LinkUsage::new(capacity);
            link.add_primary(cid(u64::MAX), 0, carried);
            let mut map = MapLedger {
                up: true,
                capacity,
                primary_min_sum: carried,
                conflict: BTreeMap::new(),
                reservation: Bandwidth::ZERO,
            };
            let mut live: Vec<(ConnectionId, Bandwidth, Vec<LinkId>)> = Vec::new();
            for step in 0..60u64 {
                let min = k(50 * (1 + rng.range_u64(4)));
                let mut primary: Vec<LinkId> = (0..16).map(lid).collect();
                rng.shuffle(&mut primary);
                primary.truncate(2 + rng.range_usize(4));
                let conflicts: Vec<LinkId> =
                    primary.iter().copied().filter(|&f| f != on_link).collect();
                skipped_on_link += usize::from(conflicts.len() < primary.len());
                // The queries first, against the state both sides share.
                assert_eq!(
                    link.reservation_if_backup_added(min, &conflicts),
                    map.reservation_if_backup_added(min, &conflicts)
                );
                let admitted = map.can_admit_backup(min, &conflicts);
                if admit(&link, min, &conflicts) != admitted {
                    return Err(format!(
                        "case {case} step {step}: the walk says {admitted} for {min} on {link:?}"
                    ));
                }
                verdicts[match (admitted, link.fits_any_backup(min)) {
                    (true, true) => 0,
                    (true, false) => 1,
                    (false, _) => 2,
                }] += 1;
                if live.is_empty() || rng.chance(0.55) {
                    link.add_backup(cid(step), min, &conflicts);
                    map.add_backup(min, &conflicts);
                    live.push((cid(step), min, conflicts));
                } else {
                    let (id, min, conflicts) = live.swap_remove(rng.range_usize(live.len()));
                    let held = conflicts.iter().any(|f| map.conflict[f] == map.reservation);
                    removals_of_the_max += usize::from(held);
                    let before = map.conflict.len();
                    link.remove_backup(id, min, &conflicts);
                    map.remove_backup(min, &conflicts);
                    entries_dropped += before - map.conflict.len();
                }
                assert_eq!(link.backup_reservation(), map.reservation);
                assert_eq!(link.plan_digest(), map.plan_digest());
                assert!(link
                    .conflict
                    .iter()
                    .copied()
                    .eq(map.conflict.iter().map(|(&f, &bw)| (f, bw))));
                link.debug_validate();
            }
        }
        // Each of those branches was taken, many times over.
        assert!(removals_of_the_max > 100, "{removals_of_the_max}");
        assert!(entries_dropped > 100, "{entries_dropped}");
        assert!(skipped_on_link > 100, "{skipped_on_link}");
        Ok(verdicts)
    }

    #[test]
    fn vector_ledger_matches_the_map_ledger_on_seeded_sequences() {
        let verdicts = ledger_differential(LinkUsage::can_admit_backup).unwrap();
        assert!(verdicts.iter().all(|&n| n > 300), "{verdicts:?}");
    }

    #[test]
    fn an_accept_weakened_by_one_min_is_caught() {
        let caught = ledger_differential(weak_accept);
        assert!(caught.is_err(), "the differential has no teeth: {caught:?}");
    }

    #[test]
    fn extras_add_and_remove() {
        let mut l = LinkUsage::new(k(1_000));
        l.add_primary(cid(1), 91, k(100));
        l.add_extra(k(50));
        l.add_extra(k(50));
        assert_eq!(l.extra_sum(), k(100));
        assert_eq!(l.committed(), k(200));
        assert_eq!(l.headroom(), k(800));
        l.remove_extra(k(100));
        assert_eq!(l.extra_sum(), Bandwidth::ZERO);
    }

    #[test]
    fn admission_counts_extras_as_reclaimable() {
        let mut l = LinkUsage::new(k(300));
        l.add_primary(cid(1), 91, k(100));
        l.add_extra(k(200)); // link fully used, but extras can retreat
        assert!(l.can_admit_primary(k(200)));
        assert!(!l.can_admit_primary(k(201)));
    }

    #[test]
    fn backup_multiplexing_shares_reservation() {
        // Two backups whose primaries are link-disjoint share reservation.
        let mut l = LinkUsage::new(k(1_000));
        l.add_backup(cid(1), k(100), &[lid(10), lid(11)]);
        assert_eq!(l.backup_reservation(), k(100));
        l.add_backup(cid(2), k(100), &[lid(20), lid(21)]);
        // Disjoint primaries: still 100, not 200.
        assert_eq!(l.backup_reservation(), k(100));
        l.debug_validate();
    }

    #[test]
    fn backup_conflict_adds_reservation() {
        // Two backups whose primaries share link 10 must both survive a
        // failure of link 10 → reservation is the sum.
        let mut l = LinkUsage::new(k(1_000));
        l.add_backup(cid(1), k(100), &[lid(10), lid(11)]);
        l.add_backup(cid(2), k(150), &[lid(10)]);
        assert_eq!(l.backup_reservation(), k(250));
        l.debug_validate();
    }

    #[test]
    fn backup_removal_restores_reservation() {
        let mut l = LinkUsage::new(k(1_000));
        l.add_backup(cid(1), k(100), &[lid(10)]);
        l.add_backup(cid(2), k(150), &[lid(10)]);
        l.remove_backup(cid(2), k(150), &[lid(10)]);
        assert_eq!(l.backup_reservation(), k(100));
        l.remove_backup(cid(1), k(100), &[lid(10)]);
        assert_eq!(l.backup_reservation(), Bandwidth::ZERO);
        assert!(l.conflict.is_empty());
        l.debug_validate();
    }

    #[test]
    #[should_panic(expected = "was not a backup")]
    fn removing_absent_backup_panics() {
        let mut l = LinkUsage::new(k(1_000));
        l.remove_backup(cid(9), k(100), &[lid(1)]);
    }

    #[test]
    fn prospective_reservation() {
        let mut l = LinkUsage::new(k(1_000));
        l.add_backup(cid(1), k(100), &[lid(10)]);
        // Joining with a conflicting primary raises the worst case.
        assert_eq!(l.reservation_if_backup_added(k(50), &[lid(10)]), k(150));
        // Joining with a disjoint primary leaves the max unchanged.
        assert_eq!(l.reservation_if_backup_added(k(50), &[lid(20)]), k(100));
        // Empty link: reservation equals the newcomer's own share... via max.
        let fresh = LinkUsage::new(k(1_000));
        assert_eq!(fresh.reservation_if_backup_added(k(50), &[lid(3)]), k(50));
    }

    #[test]
    fn can_admit_backup_respects_capacity() {
        let mut l = LinkUsage::new(k(300));
        l.add_primary(cid(1), 91, k(100));
        l.add_backup(cid(2), k(100), &[lid(10)]);
        // A conflicting backup of 100 would need reservation 200 → total 300: fits.
        assert!(l.can_admit_backup(k(100), &[lid(10)]));
        // 150 would need 250 → total 350: rejected.
        assert!(!l.can_admit_backup(k(150), &[lid(10)]));
        // A disjoint backup of 100 shares the existing reservation: fits.
        assert!(l.can_admit_backup(k(100), &[lid(99)]));
    }

    #[test]
    fn down_link_admits_nothing() {
        let mut l = LinkUsage::new(k(1_000));
        l.set_up(false);
        assert!(!l.is_up());
        assert!(!l.can_admit_primary(k(1)));
        assert!(!l.can_admit_backup(k(1), &[lid(0)]));
    }

    #[test]
    fn plan_digest_tracks_planning_state_only() {
        let mut l = LinkUsage::new(k(1_000));
        let fresh = l.plan_digest();
        // Extras are invisible to planning: the digest must not move.
        l.add_extra(k(300));
        assert_eq!(l.plan_digest(), fresh);
        l.remove_extra(k(300));
        // Primaries, backups, and liveness all change it.
        l.add_primary(cid(1), 91, k(100));
        let with_primary = l.plan_digest();
        assert_ne!(with_primary, fresh);
        l.add_backup(cid(2), k(100), &[lid(10)]);
        let with_backup = l.plan_digest();
        assert_ne!(with_backup, with_primary);
        l.set_up(false);
        assert_ne!(l.plan_digest(), with_backup);
        l.set_up(true);
        // Round-trips restore the exact digest (value-based, not
        // generation-based).
        l.remove_backup(cid(2), k(100), &[lid(10)]);
        assert_eq!(l.plan_digest(), with_primary);
        l.remove_primary(cid(1), k(100), Bandwidth::ZERO);
        assert_eq!(l.plan_digest(), fresh);
    }

    #[test]
    fn plan_digest_distinguishes_conflict_layouts() {
        // Same reservation, a different conflict ledger each: planning can tell
        // them apart (reservation_if_backup_added reads per-link entries),
        // so the digest must too.
        let mut a = LinkUsage::new(k(1_000));
        a.add_backup(cid(1), k(100), &[lid(10)]);
        let mut b = LinkUsage::new(k(1_000));
        b.add_backup(cid(1), k(100), &[lid(11)]);
        assert_eq!(a.backup_reservation(), b.backup_reservation());
        assert_ne!(a.plan_digest(), b.plan_digest());
    }

    #[test]
    fn plan_digest_memo_is_invisible() {
        let mut a = LinkUsage::new(k(1_000));
        a.add_primary(cid(1), 91, k(100));
        let b = a.clone();
        // Reading the digest must not make `a` observably different from
        // `b` (snapshot / oracle comparisons rely on accounting-only
        // equality).
        let d1 = a.plan_digest();
        assert_eq!(a, b);
        // Later reads return the same digest until a mutation moves it.
        assert_eq!(a.plan_digest(), d1);
        a.add_backup(cid(2), k(50), &[lid(10)]);
        assert_ne!(a.plan_digest(), d1);
        assert_eq!(b.plan_digest(), d1);
    }
}
