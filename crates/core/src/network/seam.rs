//! The stages' test seams, and the route search's, in one place. A [`Seam`] either breaks one of
//! the paper's mechanisms on purpose — a mutant that a differential or
//! the oracle of [`Network::check_invariants`](super::Network::check_invariants)
//! must catch — or swaps a stage for the reference it is held to:
//! `Seam::Reference` for the admission path's retreat, gather and fill,
//! `Seam::ReferenceNeedy` for a repair's top-ups. At most
//! one seam is armed at a time, per thread, and only in this crate's
//! tests: elsewhere [`armed`] is a `const fn` that returns `false`, so a
//! release build compiles every site away.

/// One way to break or swap a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seam {
    /// `conflict_set` keeps a backup's own link among its activators there.
    KeepTheOwnLink,
    /// A recorded footprint leaves out one of the links the search probed.
    ForgetAProbedLink,
    /// A failover re-keys the surviving backups to the failed primary.
    RekeyToTheOldPrimary,
    /// A failover skips `can_activate`'s room check.
    SkipTheActivationCheck,
    /// The reconcile pass leaves a row that ended below its maximum
    /// unlisted.
    SkipAListing,
    /// The reconcile pass recounts a listed row in the table, not on its
    /// links.
    ForgetARecount,
    /// The keep rule leaves the newcomer's remaining out of its test.
    DropTheNewcomer,
    /// The gather passes over, and the loose set's recording leaves
    /// waiting, a bucket whose link has exactly Δ of room.
    BlockedAtExactRoom,
    /// An offered bucket's turn also refuses at exactly Δ of room.
    RefusedAtExactRoom,
    /// A wake queues no turn for its bucket's last row.
    ForgetABucketTail,
    /// A bucket's turns also wake the rows the fill loaded, which wait
    /// there only until its write-back.
    WakeALoadedRow,
    /// Recording the loose set drops its last row.
    ForgetALooseRow,
    /// The fill's slack test is weakened by one (smallest) increment.
    WeakFill,
    /// A fallback segment's round scans its layers in discovery order,
    /// not node-id order.
    UnsortedLayer,
    /// The connection table's id index pushes every insert at its end,
    /// in order or not.
    PushOutOfOrder,
    /// The whole admission path is the retreat-everything reference: the
    /// keep rule retreats every chained row, every gather offers each
    /// primary of its links as a plain candidate, none through a waitlist,
    /// and every fill is the one-increment reference over them (its sites
    /// call test-only code).
    #[cfg(test)]
    Reference,
    /// A repair tops up whom the scan over every connection finds short
    /// of backups, not the needy set (likewise).
    #[cfg(test)]
    ReferenceNeedy,
}

#[cfg(test)]
thread_local! {
    static ARMED: std::cell::Cell<Option<Seam>> = const { std::cell::Cell::new(None) };
}

/// Whether `seam` is armed on this thread.
#[cfg(test)]
pub(crate) fn armed(seam: Seam) -> bool {
    ARMED.get() == Some(seam)
}

/// Whether `seam` is armed: never, outside this crate's tests.
#[cfg(not(test))]
pub(crate) const fn armed(_: Seam) -> bool {
    false
}

/// Runs `f` with `seam` armed on this thread, then puts back whichever
/// seam was armed before.
#[cfg(test)]
pub(crate) fn with<T>(seam: Seam, f: impl FnOnce() -> T) -> T {
    let before = ARMED.replace(Some(seam));
    let out = f();
    ARMED.set(before);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_inner_seam_gives_the_slot_back_to_the_outer_one() {
        with(Seam::RefusedAtExactRoom, || {
            with(Seam::Reference, || {
                assert!(armed(Seam::Reference) && !armed(Seam::RefusedAtExactRoom));
            });
            assert!(armed(Seam::RefusedAtExactRoom) && !armed(Seam::Reference));
        });
        assert!(!armed(Seam::RefusedAtExactRoom));
    }
}
