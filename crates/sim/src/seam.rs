//! The workspace's test seams, in one place. A [`Seam`] either breaks
//! one of the paper's mechanisms on purpose — a mutant that a
//! differential, an oracle or a lockstep row must catch — or swaps a
//! stage for the reference it is held to.
//!
//! At most one seam is armed at a time, per thread ([`with`]). The slot
//! exists only in this crate's tests and under its `seams` feature, which
//! the crates that arm seams enable from their `[dev-dependencies]` alone:
//! `cargo test` builds it, and no build that ships does. Without it
//! [`armed`] is a `const fn` that returns `false`, so every site compiles
//! away, and a seam has no name in the binary.

/// One way to break or swap a stage. The variants are grouped by the
/// crate whose code reads them.
#[cfg_attr(any(test, feature = "seams"), derive(Debug))]
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Seam {
    // drqos-topology
    /// `add_link` keeps the hop and block rows of the graph it grew.
    KeepHopsAcrossAddLink,

    // drqos-core
    /// `conflict_set` keeps a backup's own link among its activators there.
    KeepTheOwnLink,
    /// A recorded footprint leaves out one of the links the search probed.
    ForgetAProbedLink,
    /// A failover re-keys the surviving backups to the failed primary.
    RekeyToTheOldPrimary,
    /// A failover skips `can_activate`'s room check.
    SkipTheActivationCheck,
    /// A failure step leaves the plan version where it was, so the plan
    /// memo keeps answering with routes planned before the links failed.
    KeepTheMemoAcrossAFault,
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
    /// An arrival's fill is answered in place without asking the
    /// waitlists on the retreated rows' links.
    IgnoreTheWaitlists,
    /// An arrival's fill is answered in place after a take-back without
    /// asking whether each lowered row is refused by lower turns alone.
    SkipTheLoweredRowTest,
    /// A fallback segment's round scans its layers in discovery order,
    /// not node-id order.
    UnsortedLayer,
    /// The connection table's id index pushes every insert at its end,
    /// in order or not.
    PushOutOfOrder,
    /// The whole admission path is the retreat-everything reference: the
    /// keep rule retreats every chained row, every gather offers each
    /// primary of its links as a plain candidate, none through a waitlist,
    /// and every fill is the one-increment reference over them. Its sites
    /// call reference code that only `drqos-core`'s own tests compile.
    Reference,

    // drqos-cluster
    /// The oplog's packing writes only an operand's low 7 bits.
    PackLowSevenBits,
    /// The coordinator admits an establish but appends no oplog record.
    DropRecord,

    // drqos-service
    /// Every commit reply starts one record late with its `seq` one
    /// short, so the members' contiguity guard passes it and they replay
    /// past the gap.
    UnguardedSkip,
    /// `SHUTDOWN`'s drain runs the final check before it waits for the
    /// requests already counted in, stranding one that raced the flag.
    CheckBeforeDrain,

    // drqos-testkit
    /// The `invariants` row's reference model is not told of releases.
    LoseRelease,
    /// The `invariants` row's reference model is not told of group
    /// repairs.
    LoseSrlgRepair,
}

/// A seam prints as its index where it has no name.
#[cfg(not(any(test, feature = "seams")))]
impl std::fmt::Debug for Seam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", *self as u8)
    }
}

#[cfg(any(test, feature = "seams"))]
thread_local! {
    static ARMED: std::cell::Cell<Option<Seam>> = const { std::cell::Cell::new(None) };
}

/// Whether `seam` is armed on this thread.
#[cfg(any(test, feature = "seams"))]
#[inline]
pub fn armed(seam: Seam) -> bool {
    ARMED.get() == Some(seam)
}

/// Whether `seam` is armed: never, without the `seams` feature.
#[cfg(not(any(test, feature = "seams")))]
#[inline]
pub const fn armed(_: Seam) -> bool {
    false
}

/// Runs `f` with `seam` armed on this thread, then puts back whichever
/// seam was armed before.
#[cfg(any(test, feature = "seams"))]
pub fn with<T>(seam: Seam, f: impl FnOnce() -> T) -> T {
    let before = ARMED.replace(Some(seam));
    let out = f();
    ARMED.set(before);
    out
}

/// Runs `f`: without the `seams` feature no seam can be armed.
#[cfg(not(any(test, feature = "seams")))]
pub fn with<T>(_: Seam, f: impl FnOnce() -> T) -> T {
    f()
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
