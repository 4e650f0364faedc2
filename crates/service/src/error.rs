//! Protocol-level errors: failures of the *wire format* itself, before a
//! command ever reaches the network.
//!
//! These own the 1–99 code block reserved in `drqos_core::wire`; domain
//! errors (QoS, admission, network, invariants) carry the 100+ codes
//! assigned next to their enums in `drqos-core`.

use std::fmt;

/// Empty command line.
pub(crate) const CODE_EMPTY: u16 = 1;
/// Unrecognized command verb.
pub(crate) const CODE_UNKNOWN_COMMAND: u16 = 2;
/// Wrong number of arguments for the verb.
pub(crate) const CODE_ARG_COUNT: u16 = 3;
/// An argument failed to parse as a non-negative integer.
pub(crate) const CODE_BAD_INT: u16 = 4;
/// The server is shutting down and no longer accepts commands.
pub(crate) const CODE_SHUTTING_DOWN: u16 = 11;
/// An internal engine inconsistency (e.g. a just-established connection
/// that cannot be read back). The daemon reports it instead of panicking
/// so one bad command can never take down other sessions.
pub(crate) const CODE_INTERNAL: u16 = 12;

/// A malformed or unserviceable command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable numeric code (1–99).
    pub code: u16,
    /// Deterministic human-readable message (never contains wall-clock or
    /// host-specific data, so error replies stay golden-traceable).
    pub message: String,
}

impl ProtocolError {
    /// An empty command line.
    pub fn empty() -> Self {
        Self {
            code: CODE_EMPTY,
            message: "empty command".to_string(),
        }
    }

    /// An unknown verb.
    pub(crate) fn unknown_command(verb: &str) -> Self {
        Self {
            code: CODE_UNKNOWN_COMMAND,
            message: format!("unknown command {verb}"),
        }
    }

    /// Wrong argument count for `verb` (wanted `expected`, got `got`).
    pub(crate) fn arg_count(verb: &str, expected: usize, got: usize) -> Self {
        Self {
            code: CODE_ARG_COUNT,
            message: format!("{verb} takes {expected} arg(s), got {got}"),
        }
    }

    /// A non-integer argument.
    pub(crate) fn bad_int(arg: &str) -> Self {
        Self {
            code: CODE_BAD_INT,
            message: format!("not a non-negative integer: {arg}"),
        }
    }

    /// The server is draining for shutdown.
    pub(crate) fn shutting_down() -> Self {
        Self {
            code: CODE_SHUTTING_DOWN,
            message: "server shutting down".to_string(),
        }
    }

    /// An internal engine inconsistency the daemon reports rather than
    /// panics on. `detail` must be deterministic (no wall-clock, no
    /// addresses) so sessions stay golden-traceable even when this fires.
    pub(crate) fn internal(detail: &str) -> Self {
        Self {
            code: CODE_INTERNAL,
            message: format!("internal error: {detail}"),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_stay_in_the_protocol_block() {
        for e in [
            ProtocolError::empty(),
            ProtocolError::unknown_command("FOO"),
            ProtocolError::arg_count("RELEASE", 1, 0),
            ProtocolError::bad_int("x"),
            ProtocolError::shutting_down(),
            ProtocolError::internal("c0 vanished"),
        ] {
            assert!((1..100).contains(&e.code), "code {} outside 1–99", e.code);
            // Domain codes start at 100; no overlap possible.
            assert!(drqos_core::wire::describe(e.code).is_none());
        }
    }

    #[test]
    fn messages_name_the_offender() {
        assert!(ProtocolError::unknown_command("FOO")
            .to_string()
            .contains("FOO"));
        assert!(ProtocolError::bad_int("12x").to_string().contains("12x"));
        assert!(ProtocolError::arg_count("RELEASE", 1, 3)
            .to_string()
            .contains("RELEASE"));
    }
}
