//! Error types for Markov-chain construction and solving.

use std::fmt;

/// Errors produced when building or solving Markov chains.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MarkovError {
    /// A rate or probability was negative, NaN, or infinite.
    InvalidRate {
        /// Source state.
        from: usize,
        /// Target state.
        to: usize,
        /// The offending value.
        value: f64,
    },
    /// A state index was out of range.
    InvalidState(usize),
    /// The chain has no states.
    Empty,
    /// The chain is reducible where an irreducible one is required, or has
    /// multiple closed recurrent classes so the stationary distribution is
    /// not unique.
    NotIrreducible,
    /// A linear system was (numerically) singular.
    Singular,
    /// Mismatched dimensions between operands.
    DimensionMismatch {
        /// Expected size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::InvalidRate { from, to, value } => {
                write!(f, "invalid rate {value} on transition {from} -> {to}")
            }
            MarkovError::InvalidState(s) => write!(f, "state index {s} out of range"),
            MarkovError::Empty => write!(f, "chain has no states"),
            MarkovError::NotIrreducible => {
                write!(
                    f,
                    "chain is not irreducible; stationary distribution is not unique"
                )
            }
            MarkovError::Singular => write!(f, "linear system is singular"),
            MarkovError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for MarkovError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MarkovError::InvalidRate {
            from: 0,
            to: 1,
            value: -1.0
        }
        .to_string()
        .contains("0 -> 1"));
        assert!(MarkovError::InvalidState(9).to_string().contains('9'));
        assert_eq!(MarkovError::Empty.to_string(), "chain has no states");
        assert!(MarkovError::NotIrreducible
            .to_string()
            .contains("irreducible"));
        assert!(MarkovError::Singular.to_string().contains("singular"));
        assert!(MarkovError::DimensionMismatch {
            expected: 3,
            actual: 4
        }
        .to_string()
        .contains("expected 3"));
    }
}
