//! The wire protocol: a line-based, integer-only text format.
//!
//! One request per line, one response line per request. Requests are an
//! uppercase verb followed by space-separated non-negative integers;
//! responses are `OK <key>=<value>...`, `ERR <code> <message>`, or the
//! bare backpressure line `BUSY`. Every response except `STATS` is a pure
//! function of the command sequence, so whole sessions can be replayed
//! byte-exact against golden transcripts. The verbs, their operands and
//! their opcodes are the rows of [`drqos_core::wire::VERBS`] (SERVICE.md
//! has the documented table and the full grammar): [`parse`] and
//! [`Request::render`] are loops over a row, and `Request::parts` /
//! `Request::from_parts` are the only code that knows which variant a
//! row builds.

use crate::error::{ProtocolError, CODE_INTERNAL};
use drqos_core::wire::{verb_named, Operand, MAX_OPERANDS, VERBS};
use std::fmt::{self, Write as _};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `ESTABLISH <src> <dst> <bmin> <bmax> <delta>` — admit a
    /// DR-connection with elastic QoS `[bmin, bmax]` in steps of `delta`
    /// (all in Kbps).
    Establish {
        /// Source node index.
        src: usize,
        /// Destination node index.
        dst: usize,
        /// Minimum bandwidth (Kbps).
        bmin: u64,
        /// Maximum bandwidth (Kbps).
        bmax: u64,
        /// Increment size Δ (Kbps).
        delta: u64,
    },
    /// `RELEASE <id>` — terminate a connection.
    Release {
        /// Connection id as returned by `ESTABLISH`.
        id: u64,
    },
    /// `FAIL-LINK <link>` — inject a link failure.
    FailLink {
        /// Link index.
        link: usize,
    },
    /// `REPAIR-LINK <link>` — repair a failed link.
    RepairLink {
        /// Link index.
        link: usize,
    },
    /// `FAIL-NODE <node>` — fail every up link adjacent to a node.
    FailNode {
        /// Node index.
        node: usize,
    },
    /// `FAIL-SRLG <group>` — fail every up link in a shared-risk group.
    FailSrlg {
        /// Shared-risk group index.
        group: usize,
    },
    /// `REPAIR-SRLG <group>` — repair every down link in a shared-risk
    /// group.
    RepairSrlg {
        /// Shared-risk group index.
        group: usize,
    },
    /// `SNAPSHOT` — a one-line deterministic summary of network state.
    Snapshot,
    /// `STATS` — request-metrics counters and latency percentiles.
    Stats,
    /// `SHUTDOWN` — drain in-flight requests, check invariants, exit.
    Shutdown,
}

impl Request {
    /// The request's verb (its row of [`VERBS`], by name) and operands,
    /// as many as the row declares.
    pub(crate) fn parts(&self) -> (&'static str, [u64; MAX_OPERANDS]) {
        match *self {
            Request::Establish {
                src,
                dst,
                bmin,
                bmax,
                delta,
            } => ("ESTABLISH", [src as u64, dst as u64, bmin, bmax, delta]),
            Request::Release { id } => ("RELEASE", [id, 0, 0, 0, 0]),
            Request::FailLink { link } => ("FAIL-LINK", [link as u64, 0, 0, 0, 0]),
            Request::RepairLink { link } => ("REPAIR-LINK", [link as u64, 0, 0, 0, 0]),
            Request::FailNode { node } => ("FAIL-NODE", [node as u64, 0, 0, 0, 0]),
            Request::FailSrlg { group } => ("FAIL-SRLG", [group as u64, 0, 0, 0, 0]),
            Request::RepairSrlg { group } => ("REPAIR-SRLG", [group as u64, 0, 0, 0, 0]),
            Request::Snapshot => ("SNAPSHOT", [0; MAX_OPERANDS]),
            Request::Stats => ("STATS", [0; MAX_OPERANDS]),
            Request::Shutdown => ("SHUTDOWN", [0; MAX_OPERANDS]),
        }
    }

    /// The inverse of [`Request::parts`]: `None` for a name no variant
    /// has, or an index operand that does not fit `usize` (both framings
    /// check the latter against the row first, to name the offender).
    pub(crate) fn from_parts(verb: &str, [a, b, c, d, e]: [u64; MAX_OPERANDS]) -> Option<Self> {
        let index = usize::try_from(a).ok();
        Some(match verb {
            "ESTABLISH" => Request::Establish {
                src: index?,
                dst: usize::try_from(b).ok()?,
                bmin: c,
                bmax: d,
                delta: e,
            },
            "RELEASE" => Request::Release { id: a },
            "FAIL-LINK" => Request::FailLink { link: index? },
            "REPAIR-LINK" => Request::RepairLink { link: index? },
            "FAIL-NODE" => Request::FailNode { node: index? },
            "FAIL-SRLG" => Request::FailSrlg { group: index? },
            "REPAIR-SRLG" => Request::RepairSrlg { group: index? },
            "SNAPSHOT" => Request::Snapshot,
            "STATS" => Request::Stats,
            "SHUTDOWN" => Request::Shutdown,
            _ => return None,
        })
    }

    /// The request's row index in [`VERBS`] — its metrics slot.
    pub(crate) fn row(&self) -> usize {
        let name = self.parts().0;
        VERBS
            .iter()
            .position(|v| v.name == name)
            .unwrap_or(VERBS.len())
    }

    /// Renders the canonical text line for this request (the inverse of
    /// [`parse`]): the binary framing layer decodes frames to `Request`
    /// and re-renders them so both wire modes share one engine path.
    pub fn render(&self) -> String {
        let (name, operands) = self.parts();
        let arity = verb_named(name).map_or(0, |v| v.operands.len());
        let mut line = name.to_string();
        for operand in operands.iter().take(arity) {
            // Writing into a `String` cannot fail.
            let _ = write!(line, " {operand}");
        }
        line
    }
}

/// A response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `OK <payload>` — the request succeeded.
    Ok(String),
    /// `ERR <code> <message>` — the request failed; `code` is stable (see
    /// `drqos_core::wire` and [`crate::error`]).
    Err {
        /// Stable numeric error code.
        code: u16,
        /// Deterministic message.
        message: String,
    },
    /// `BUSY` — the command queue is full; retry later (backpressure, not
    /// an error: the command was never enqueued).
    Busy,
}

impl Response {
    /// Whether this is an `ERR` response.
    pub fn is_err(&self) -> bool {
        matches!(self, Response::Err { .. })
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Ok(payload) => write!(f, "OK {payload}"),
            Response::Err { code, message } => write!(f, "ERR {code} {message}"),
            Response::Busy => write!(f, "BUSY"),
        }
    }
}

impl From<ProtocolError> for Response {
    fn from(e: ProtocolError) -> Self {
        Response::Err {
            code: e.code,
            message: e.message,
        }
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`ProtocolError`] (codes 1–4) for an empty line, unknown
/// verb, wrong argument count, or non-integer argument.
pub fn parse(line: &str) -> Result<Request, ProtocolError> {
    let mut tokens = line.split_ascii_whitespace();
    let Some(name) = tokens.next() else {
        return Err(ProtocolError::empty());
    };
    let Some(verb) = verb_named(name) else {
        return Err(ProtocolError::unknown_command(name));
    };
    let got = tokens.clone().count();
    if got != verb.operands.len() {
        return Err(ProtocolError::arg_count(name, verb.operands.len(), got));
    }
    let mut operands = [0; MAX_OPERANDS];
    for ((slot, kind), arg) in operands.iter_mut().zip(verb.operands).zip(tokens) {
        let parsed = match kind {
            Operand::Index(_) => arg.parse::<usize>().map(|v| v as u64),
            Operand::Int(_) => arg.parse::<u64>(),
        };
        *slot = parsed.map_err(|_| ProtocolError::bad_int(arg))?;
    }
    Request::from_parts(verb.name, operands)
        .ok_or_else(|| ProtocolError::internal("verb row without a request variant"))
}

/// Parses a rendered response line back into a [`Response`] (the inverse
/// of `Response`'s `Display`). Engine-produced lines always parse; an
/// unrecognized shape maps onto the internal-error code rather than
/// panicking, since the binary reply path runs this on the daemon side.
pub fn parse_response(line: &str) -> Response {
    if line == "BUSY" {
        return Response::Busy;
    }
    if line == "OK" {
        return Response::Ok(String::new());
    }
    if let Some(payload) = line.strip_prefix("OK ") {
        return Response::Ok(payload.to_string());
    }
    if let Some(rest) = line.strip_prefix("ERR ") {
        let (code_str, message) = match rest.split_once(' ') {
            Some((c, m)) => (c, m),
            None => (rest, ""),
        };
        if let Ok(code) = code_str.parse::<u16>() {
            return Response::Err {
                code,
                message: message.to_string(),
            };
        }
    }
    Response::Err {
        code: CODE_INTERNAL,
        message: format!("internal error: unrenderable response line {line:?}"),
    }
}

/// Extracts the integer value of `key=<n>` from an `OK` payload (used by
/// the load generator and tests to read structured replies).
pub fn payload_field(payload: &str, key: &str) -> Option<u64> {
    payload.split_ascii_whitespace().find_map(|tok| {
        let (k, v) = tok.split_once('=')?;
        if k == key {
            v.parse().ok()
        } else {
            None
        }
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::error::{CODE_ARG_COUNT, CODE_BAD_INT, CODE_EMPTY, CODE_UNKNOWN_COMMAND};

    /// One request per row of the table, each operand distinct, so a new
    /// row is covered — here and in `frame::tests` — without an edit.
    pub(crate) fn all_requests() -> Vec<Request> {
        VERBS
            .iter()
            .map(|v| Request::from_parts(v.name, [2, 3, 100, 500, 50]).expect(v.name))
            .collect()
    }

    #[test]
    fn every_row_parses_renders_and_names_itself() {
        let requests = all_requests();
        assert_eq!(requests.len(), VERBS.len());
        for ((row, verb), req) in VERBS.iter().enumerate().zip(&requests) {
            assert_eq!(req.row(), row, "{req:?}");
            assert_eq!(req.parts().0, verb.name);
            let line = req.render();
            assert_eq!(line.split(' ').count(), 1 + verb.operands.len(), "{line}");
            assert_eq!(&parse(&line).unwrap(), req, "{line}");
            // One operand too few, one too many: code 3 either way.
            let short = line.rsplit_once(' ').map_or("", |(head, _)| head);
            for bad in [short.to_string(), format!("{line} 1")] {
                if bad.is_empty() {
                    continue;
                }
                assert_eq!(parse(&bad).unwrap_err().code, CODE_ARG_COUNT, "{bad}");
            }
        }
    }

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse("ESTABLISH 0 3 100 500 100").unwrap(),
            Request::Establish {
                src: 0,
                dst: 3,
                bmin: 100,
                bmax: 500,
                delta: 100
            }
        );
        assert_eq!(parse("RELEASE 7").unwrap(), Request::Release { id: 7 });
        assert_eq!(parse("FAIL-LINK 2").unwrap(), Request::FailLink { link: 2 });
        assert_eq!(
            parse("REPAIR-LINK 2").unwrap(),
            Request::RepairLink { link: 2 }
        );
        assert_eq!(parse("FAIL-NODE 4").unwrap(), Request::FailNode { node: 4 });
        assert_eq!(
            parse("FAIL-SRLG 1").unwrap(),
            Request::FailSrlg { group: 1 }
        );
        assert_eq!(
            parse("REPAIR-SRLG 1").unwrap(),
            Request::RepairSrlg { group: 1 }
        );
        assert_eq!(parse("SNAPSHOT").unwrap(), Request::Snapshot);
        assert_eq!(parse("STATS").unwrap(), Request::Stats);
        assert_eq!(parse("SHUTDOWN").unwrap(), Request::Shutdown);
    }

    #[test]
    fn tolerates_extra_whitespace() {
        assert_eq!(
            parse("  RELEASE   9  ").unwrap(),
            Request::Release { id: 9 }
        );
    }

    #[test]
    fn rejects_malformed_lines_with_stable_codes() {
        assert_eq!(parse("").unwrap_err().code, CODE_EMPTY);
        assert_eq!(parse("   ").unwrap_err().code, CODE_EMPTY);
        assert_eq!(
            parse("FROBNICATE 1").unwrap_err().code,
            CODE_UNKNOWN_COMMAND
        );
        assert_eq!(parse("RELEASE").unwrap_err().code, CODE_ARG_COUNT);
        assert_eq!(parse("RELEASE 1 2").unwrap_err().code, CODE_ARG_COUNT);
        assert_eq!(parse("RELEASE x").unwrap_err().code, CODE_BAD_INT);
        assert_eq!(parse("SNAPSHOT now").unwrap_err().code, CODE_ARG_COUNT);
        // Verbs are case-sensitive by design (the grammar is uppercase).
        assert_eq!(parse("release 1").unwrap_err().code, CODE_UNKNOWN_COMMAND);
    }

    #[test]
    fn responses_render_one_line() {
        assert_eq!(
            Response::Ok("id=3 bw=500".into()).to_string(),
            "OK id=3 bw=500"
        );
        assert_eq!(
            Response::Err {
                code: 300,
                message: "unknown connection c9".into()
            }
            .to_string(),
            "ERR 300 unknown connection c9"
        );
        assert_eq!(Response::Busy.to_string(), "BUSY");
    }

    #[test]
    fn payload_fields_are_extractable() {
        let payload = "conns=5 bw=2500 dropped=0";
        assert_eq!(payload_field(payload, "bw"), Some(2500));
        assert_eq!(payload_field(payload, "conns"), Some(5));
        assert_eq!(payload_field(payload, "missing"), None);
    }
}
