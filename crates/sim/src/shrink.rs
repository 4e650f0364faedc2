//! Delta debugging of failing operation sequences.
//!
//! A seeded run that breaks is only useful once it is small. [`shrink_by`]
//! cuts a failing sequence down to a 1-minimal one: it still fails, and
//! removing any single operation makes it pass. The operations must be
//! encoded so that every subsequence is itself a legal sequence (operands
//! resolved against the state they meet, not fixed targets); the failure
//! predicate is the caller's.

/// Shrinks `ops` while `fails_at` still reports a failure: truncates at
/// the failing step, then removes ever-smaller chunks (halving down to
/// one operation) while the remainder still fails. `fails_at` replays a
/// candidate from scratch and returns its failing step, or `None` when it
/// passes; a passing `ops` is returned as it is.
pub fn shrink_by<T: Clone>(ops: &[T], fails_at: impl Fn(&[T]) -> Option<usize>) -> Vec<T> {
    let Some(step) = fails_at(ops) else {
        return ops.to_vec();
    };
    let mut current: Vec<T> = ops[..=step].to_vec();
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = current.clone();
            candidate.drain(start..end);
            if !candidate.is_empty() && fails_at(&candidate).is_some() {
                current = candidate;
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            return current;
        }
        chunk /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails at the first `7` that comes after a `3`.
    fn seven_after_three(ops: &[u32]) -> Option<usize> {
        let three = ops.iter().position(|&op| op == 3)?;
        ops.iter()
            .skip(three)
            .position(|&op| op == 7)
            .map(|at| three + at)
    }

    #[test]
    fn a_failing_sequence_shrinks_to_the_two_ops_that_fail_it() {
        let ops = [1, 3, 5, 2, 9, 7, 4, 7, 3];
        assert_eq!(shrink_by(&ops, seven_after_three), [3, 7]);
        let passing = [7, 3, 1];
        assert_eq!(shrink_by(&passing, seven_after_three), passing);
    }
}
