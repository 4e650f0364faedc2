//! One seeded runner for the network's op-sequence tiers.
//!
//! A case is a state and a list of op seeds. An op resolves its seed
//! against the state it meets, so deleting an op does not shift the ops
//! after it and every subsequence of a case is a case. [`run`] steps
//! every case and hands back its first failure shrunk by
//! [`shrink_by`]; [`replay`] reruns a witness.

use drqos_sim::shrink::shrink_by;

/// A failing case cut down to a 1-minimal op list: replayed on case
/// `case`'s state, `ops` fail at their last op with `error`.
#[derive(Debug)]
pub(crate) struct Witness<E> {
    pub(crate) case: u64,
    pub(crate) ops: Vec<u64>,
    pub(crate) error: E,
}

/// A seeded tier's case count: `n` in a debug build, ten times as many
/// in release (CI's run).
pub(crate) fn scaled(n: u64) -> u64 {
    n * if cfg!(debug_assertions) { 1 } else { 10 }
}

/// Runs cases `0..cases`. `make(case)` returns the case's state and its
/// op seeds, `step` applies one op to the state and checks it, and `end`
/// adds to the tally what the state counted over the whole case. Returns
/// the tally, or the first failure as a [`Witness`]; a shrunk witness that
/// does not replay keeps the error the failure was found with.
pub(crate) fn run<S, T: Default, E>(
    cases: u64,
    make: impl Fn(u64) -> (S, Vec<u64>),
    step: impl Fn(&mut S, u64, &mut T) -> Result<(), E>,
    end: impl Fn(&mut T, &S),
) -> Result<T, Witness<E>> {
    let mut tally = T::default();
    for case in 0..cases {
        let (mut state, ops) = make(case);
        for (at, &op) in ops.iter().enumerate() {
            if let Err(error) = step(&mut state, op, &mut tally) {
                let fails_at = |ops: &[u64]| replay(&make, &step, case, ops).err().map(|e| e.0);
                let ops = shrink_by(&ops[..=at], fails_at);
                let error = replay(&make, &step, case, &ops).map_or_else(|e| e.1, |()| error);
                return Err(Witness { case, ops, error });
            }
        }
        end(&mut tally, &state);
    }
    Ok(tally)
}

/// Replays `ops` on a fresh state of case `case`: the index of the first
/// op that fails, with its error.
pub(crate) fn replay<S, T: Default, E>(
    make: impl Fn(u64) -> (S, Vec<u64>),
    step: impl Fn(&mut S, u64, &mut T) -> Result<(), E>,
    case: u64,
    ops: &[u64],
) -> Result<(), (usize, E)> {
    let (mut state, _) = make(case);
    let mut tally = T::default();
    for (at, &op) in ops.iter().enumerate() {
        step(&mut state, op, &mut tally).map_err(|error| (at, error))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Case `c` runs the ops 1, c, 5, 2, 9, 7, 4 on a flag that records
    /// a 3: it fails at a 7 after a 3, so only case 3 fails.
    fn toy(case: u64) -> (bool, Vec<u64>) {
        (false, vec![1, case, 5, 2, 9, 7, 4])
    }

    /// Counts the op; fails at a 7 once a 3 was seen.
    fn toy_step(three: &mut bool, op: u64, ops: &mut u64) -> Result<(), &'static str> {
        *ops += 1;
        *three |= op == 3;
        if *three && op == 7 {
            return Err("a 7 after a 3");
        }
        Ok(())
    }

    #[test]
    fn a_passing_run_returns_its_tally() {
        let tally = run(3, toy, toy_step, |ops, _| *ops += 100);
        assert_eq!(tally.map_err(|w| w.case), Ok(3 * 7 + 300));
    }

    #[test]
    fn a_failing_run_returns_a_one_minimal_witness_that_replays_at_its_last_op() {
        let witness = run(5, toy, toy_step, |_, _| {}).unwrap_err();
        assert_eq!((witness.case, &witness.ops[..]), (3, &[3, 7][..]));
        let replayed = |ops: &[u64]| replay(toy, toy_step, 3, ops);
        assert_eq!(replayed(&witness.ops), Err((1, witness.error)));
        // Either op alone passes.
        assert_eq!((replayed(&[3]), replayed(&[7])), (Ok(()), Ok(())));
    }
}
