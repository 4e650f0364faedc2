//! The inter-daemon cluster protocol: frame bodies exchanged between a
//! member daemon and the coordinator.
//!
//! Transport framing is shared byte-for-byte with the service's binary
//! wire mode ([`drqos_core::framing`]): `[u32 LE len][body]`. The body
//! starts with a one-byte opcode from a family disjoint from the client
//! protocol's (`0x10..` member→coordinator, `0x20..` coordinator→member)
//! so a frame accidentally crossing protocols fails loudly. All integers
//! are little-endian `u64`; QoS travels as raw `(bmin, bmax, delta)`
//! Kbps and is revalidated on decode, exactly like the client protocol.
//!
//! An `OP` message and an oplog record both carry a client verb: one tag
//! byte — the verb's client opcode, looked up in
//! [`drqos_core::wire::VERBS`] — then the row's operands. The tags are
//! private to a federation of one build; SERVICE.md's verb table lists
//! them beside the opcodes.
//!
//! The conversation (documented in SERVICE.md):
//!
//! ```text
//! member                         coordinator
//!   JOIN                      →
//!                             ←  WELCOME {member, seq}
//!   PREPARE {footprint}       →                         (phase 1)
//!                             ←  VERDICT {ticket, fresh}
//!   COMMIT {ticket, request}  →                         (phase 2)
//!                             ←  DONE {op_seq, seq}
//!   SYNC {applied}            →
//!                             ←  RECORDS {seq, records…}
//! ```
//!
//! A member renders its client's response by replaying the record at
//! `op_seq` on its own replica — no result travels on the wire, which is
//! only sound because replay is deterministic (`fuzz --diff-cluster`).
//! Crashes need no message: the coordinator treats a member's EOF as
//! CRASH and aborts its in-flight prepares. Opcode `0x13` is unassigned
//! and refused like any other unknown opcode.

use crate::coordinator::{CommittedOp, MemberOp};
use drqos_core::framing::{get_u64, put_u64};
use drqos_core::network::EstablishRequest;
use drqos_core::qos::{Bandwidth, ElasticQos};
use drqos_core::wire::{verb_coded, verb_named, Operand, Route, Verb, MAX_OPERANDS};
use drqos_topology::NodeId;
use std::fmt;

// Member → coordinator opcodes (the `0x10` family).
const C_JOIN: u8 = 0x10;
const C_PREPARE: u8 = 0x11;
const C_COMMIT: u8 = 0x12;
const C_OP: u8 = 0x14;
const C_SYNC: u8 = 0x15;
const C_LEAVE: u8 = 0x16;
const C_STATUS: u8 = 0x17;
const C_STOP: u8 = 0x18;

// Coordinator → member opcodes (the `0x20` family).
const C_WELCOME: u8 = 0x20;
const C_VERDICT: u8 = 0x21;
const C_DONE: u8 = 0x22;
const C_RECORDS: u8 = 0x23;
const C_STATE: u8 = 0x24;
const C_ERR: u8 = 0x25;
const C_OK: u8 = 0x26;

/// Most records a single `RECORDS` reply carries; a member behind by
/// more keeps `SYNC`ing until `applied == seq`. Keeps every frame well
/// under [`drqos_core::framing::MAX_FRAME_BYTES`].
pub const RECORDS_PER_SYNC: usize = 512;

/// A decode failure. The body is untrusted input; every error closes the
/// offending connection (there is no way to resynchronize mid-protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// The body ended before the message did.
    Truncated,
    /// The leading opcode byte is not in the expected family.
    UnknownOpcode(u8),
    /// A record or operation tag is unknown.
    UnknownTag(u8),
    /// Bytes remained after a complete message.
    Trailing,
    /// A field failed validation (bad QoS, bad UTF-8, bad bool).
    BadPayload,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated cluster frame"),
            ProtoError::UnknownOpcode(op) => write!(f, "unknown cluster opcode 0x{op:02x}"),
            ProtoError::UnknownTag(t) => write!(f, "unknown cluster record tag {t}"),
            ProtoError::Trailing => write!(f, "trailing bytes after cluster frame"),
            ProtoError::BadPayload => write!(f, "malformed cluster frame payload"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// An admission request in wire form: endpoints and raw QoS Kbps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireRequest {
    /// Source node index.
    pub src: u64,
    /// Destination node index.
    pub dst: u64,
    /// Minimum bandwidth (Kbps).
    pub bmin: u64,
    /// Maximum bandwidth (Kbps).
    pub bmax: u64,
    /// Elastic increment (Kbps).
    pub delta: u64,
}

impl WireRequest {
    /// The five integers in wire order — the `ESTABLISH` row's operands.
    fn operands(self) -> [u64; MAX_OPERANDS] {
        [self.src, self.dst, self.bmin, self.bmax, self.delta]
    }

    fn from_operands([src, dst, bmin, bmax, delta]: [u64; MAX_OPERANDS]) -> Self {
        Self {
            src,
            dst,
            bmin,
            bmax,
            delta,
        }
    }

    /// Captures an in-memory request for the wire.
    pub fn from_request(req: &EstablishRequest) -> Self {
        Self {
            src: req.src.index() as u64,
            dst: req.dst.index() as u64,
            bmin: req.qos.min().as_kbps(),
            bmax: req.qos.max().as_kbps(),
            delta: req.qos.increment().as_kbps(),
        }
    }

    /// Revalidates into an in-memory request (unit utility, like the
    /// client protocol).
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadPayload`] when the QoS triple is invalid.
    pub fn to_request(self) -> Result<EstablishRequest, ProtoError> {
        let qos = ElasticQos::new(
            Bandwidth::kbps(self.bmin),
            Bandwidth::kbps(self.bmax),
            Bandwidth::kbps(self.delta),
            1.0,
        )
        .map_err(|_| ProtoError::BadPayload)?;
        let src = usize::try_from(self.src).map_err(|_| ProtoError::BadPayload)?;
        let dst = usize::try_from(self.dst).map_err(|_| ProtoError::BadPayload)?;
        Ok(EstablishRequest {
            src: NodeId(src),
            dst: NodeId(dst),
            qos,
        })
    }
}

/// A member → coordinator message.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterMsg {
    /// Join (or rejoin) the federation; the reply assigns a member id.
    Join,
    /// Phase 1: reserve the footprint `(link, plan digest)` pairs.
    Prepare {
        /// The admission footprint traced by local planning.
        footprint: Vec<(u64, u64)>,
    },
    /// Phase 2: commit a prepared ticket. The request rides along so the
    /// coordinator can replan serially (stale footprint) and append the
    /// oplog record.
    Commit {
        /// The ticket from the verdict.
        ticket: u64,
        /// The admission request.
        req: WireRequest,
    },
    /// Forward a non-establish operation.
    Op {
        /// The operation.
        op: MemberOp,
    },
    /// Pull oplog records past `applied`.
    Sync {
        /// Records already applied by this member.
        applied: u64,
    },
    /// Graceful departure.
    Leave,
    /// Human/CI-readable coordinator status (also served to non-members).
    Status,
    /// Stop the coordinator (invariant-gated shutdown).
    Stop,
}

/// A coordinator → member message.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordMsg {
    /// Reply to [`ClusterMsg::Join`].
    Welcome {
        /// The assigned member id.
        member: u64,
        /// The coordinator's current oplog sequence.
        seq: u64,
    },
    /// Reply to [`ClusterMsg::Prepare`].
    Verdict {
        /// The two-phase ticket.
        ticket: u64,
        /// Whether every footprint digest was still current.
        fresh: bool,
    },
    /// Reply to [`ClusterMsg::Commit`] / [`ClusterMsg::Op`]: the
    /// operation committed at `op_seq`; replay it to learn the outcome.
    Done {
        /// The committed operation's sequence number.
        op_seq: u64,
        /// The coordinator's current oplog sequence.
        seq: u64,
    },
    /// Reply to [`ClusterMsg::Sync`]: at most [`RECORDS_PER_SYNC`]
    /// records starting at the member's `applied`.
    Records {
        /// The coordinator's current oplog sequence.
        seq: u64,
        /// The records to replay, in sequence order.
        records: Vec<CommittedOp>,
    },
    /// Reply to [`ClusterMsg::Status`].
    State {
        /// One status line (stable format, grepped by CI).
        text: String,
    },
    /// A [`drqos_core::error::ClusterError`] wire code (500–599).
    Err {
        /// The wire code.
        code: u16,
    },
    /// Bare acknowledgement (LEAVE, STOP).
    Ok,
}

// ------------------------------------------------------------ encoding --

/// Appends one verb call: the row's tag, then as many of `operands` as the
/// row declares.
fn put_call(body: &mut Vec<u8>, verb: &str, operands: &[u64]) {
    let Some(verb) = verb_named(verb) else {
        // No such row in this build: a tag no row has, which the peer
        // rejects.
        return body.push(u8::MAX);
    };
    body.push(verb.opcode);
    for &v in operands.iter().take(verb.operands.len()) {
        put_u64(body, v);
    }
}

fn put_record(body: &mut Vec<u8>, record: &CommittedOp) {
    match record {
        CommittedOp::Establish(req) => put_call(
            body,
            "ESTABLISH",
            &WireRequest::from_request(req).operands(),
        ),
        CommittedOp::Op(op) => {
            let (verb, operand) = op.parts();
            put_call(body, verb, &[operand]);
        }
    }
}

struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(body: &'a [u8]) -> Self {
        Self { body, at: 0 }
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let v = get_u64(self.body, self.at).ok_or(ProtoError::Truncated)?;
        self.at += 8;
        Ok(v)
    }

    fn byte(&mut self) -> Result<u8, ProtoError> {
        let v = *self.body.get(self.at).ok_or(ProtoError::Truncated)?;
        self.at += 1;
        Ok(v)
    }

    fn len(&mut self) -> Result<usize, ProtoError> {
        usize::try_from(self.u64()?).map_err(|_| ProtoError::BadPayload)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.at.checked_add(n).ok_or(ProtoError::Truncated)?;
        let v = self.body.get(self.at..end).ok_or(ProtoError::Truncated)?;
        self.at = end;
        Ok(v)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.at == self.body.len() {
            Ok(())
        } else {
            Err(ProtoError::Trailing)
        }
    }

    /// Reads the operands of the verb call whose tag was `tag` (the
    /// inverse of [`put_call`]); an index operand must fit `usize`.
    fn call(&mut self, tag: u8) -> Result<(&'static Verb, [u64; MAX_OPERANDS]), ProtoError> {
        let verb = verb_coded(tag).ok_or(ProtoError::UnknownTag(tag))?;
        let mut operands = [0; MAX_OPERANDS];
        for (slot, kind) in operands.iter_mut().zip(verb.operands) {
            *slot = match kind {
                Operand::Index(_) => self.len()? as u64,
                Operand::Int(_) => self.u64()?,
            };
        }
        Ok((verb, operands))
    }

    fn record(&mut self) -> Result<CommittedOp, ProtoError> {
        let tag = self.byte()?;
        let call = self.call(tag)?;
        match call.0.route {
            Route::Admit => {
                let req = WireRequest::from_operands(call.1).to_request()?;
                Ok(CommittedOp::Establish(req))
            }
            _ => forwarded(call).map(CommittedOp::Op),
        }
    }
}

/// The forwarded operation a decoded call stands for; only a
/// [`Route::Forward`] row has one.
fn forwarded((verb, [operand, ..]): (&Verb, [u64; MAX_OPERANDS])) -> Result<MemberOp, ProtoError> {
    MemberOp::from_parts(verb.name, operand).ok_or(ProtoError::UnknownTag(verb.opcode))
}

/// Sanity cap on a `PREPARE` footprint (untrusted length field).
const MAX_FOOTPRINT: usize = 4096;

/// Encodes a member → coordinator message into a frame body.
pub fn encode_cluster_msg(msg: &ClusterMsg) -> Vec<u8> {
    let mut body = Vec::new();
    match msg {
        ClusterMsg::Join => body.push(C_JOIN),
        ClusterMsg::Prepare { footprint } => {
            body.push(C_PREPARE);
            put_u64(&mut body, footprint.len() as u64);
            for &(link, digest) in footprint {
                put_u64(&mut body, link);
                put_u64(&mut body, digest);
            }
        }
        ClusterMsg::Commit { ticket, req } => {
            body.push(C_COMMIT);
            put_u64(&mut body, *ticket);
            for v in req.operands() {
                put_u64(&mut body, v);
            }
        }
        ClusterMsg::Op { op } => {
            body.push(C_OP);
            let (verb, operand) = op.parts();
            put_call(&mut body, verb, &[operand]);
        }
        ClusterMsg::Sync { applied } => {
            body.push(C_SYNC);
            put_u64(&mut body, *applied);
        }
        ClusterMsg::Leave => body.push(C_LEAVE),
        ClusterMsg::Status => body.push(C_STATUS),
        ClusterMsg::Stop => body.push(C_STOP),
    }
    body
}

/// Decodes a member → coordinator frame body.
///
/// # Errors
///
/// Any [`ProtoError`]; the connection should be closed.
pub fn decode_cluster_msg(body: &[u8]) -> Result<ClusterMsg, ProtoError> {
    let mut c = Cursor::new(body);
    let msg = match c.byte()? {
        C_JOIN => ClusterMsg::Join,
        C_PREPARE => {
            let n = c.len()?;
            if n > MAX_FOOTPRINT {
                return Err(ProtoError::BadPayload);
            }
            let mut footprint = Vec::with_capacity(n);
            for _ in 0..n {
                footprint.push((c.u64()?, c.u64()?));
            }
            ClusterMsg::Prepare { footprint }
        }
        C_COMMIT => ClusterMsg::Commit {
            ticket: c.u64()?,
            req: WireRequest::from_operands([c.u64()?, c.u64()?, c.u64()?, c.u64()?, c.u64()?]),
        },
        C_OP => {
            let tag = c.byte()?;
            ClusterMsg::Op {
                op: forwarded(c.call(tag)?)?,
            }
        }
        C_SYNC => ClusterMsg::Sync { applied: c.u64()? },
        C_LEAVE => ClusterMsg::Leave,
        C_STATUS => ClusterMsg::Status,
        C_STOP => ClusterMsg::Stop,
        op => return Err(ProtoError::UnknownOpcode(op)),
    };
    c.finish()?;
    Ok(msg)
}

/// Encodes a coordinator → member message into a frame body.
pub fn encode_coord_msg(msg: &CoordMsg) -> Vec<u8> {
    let mut body = Vec::new();
    match msg {
        CoordMsg::Welcome { member, seq } => {
            body.push(C_WELCOME);
            put_u64(&mut body, *member);
            put_u64(&mut body, *seq);
        }
        CoordMsg::Verdict { ticket, fresh } => {
            body.push(C_VERDICT);
            put_u64(&mut body, *ticket);
            body.push(u8::from(*fresh));
        }
        CoordMsg::Done { op_seq, seq } => {
            body.push(C_DONE);
            put_u64(&mut body, *op_seq);
            put_u64(&mut body, *seq);
        }
        CoordMsg::Records { seq, records } => {
            body.push(C_RECORDS);
            put_u64(&mut body, *seq);
            put_u64(&mut body, records.len() as u64);
            for r in records {
                put_record(&mut body, r);
            }
        }
        CoordMsg::State { text } => {
            body.push(C_STATE);
            put_u64(&mut body, text.len() as u64);
            body.extend_from_slice(text.as_bytes());
        }
        CoordMsg::Err { code } => {
            body.push(C_ERR);
            put_u64(&mut body, u64::from(*code));
        }
        CoordMsg::Ok => body.push(C_OK),
    }
    body
}

/// Decodes a coordinator → member frame body.
///
/// # Errors
///
/// Any [`ProtoError`]; the connection should be closed.
pub fn decode_coord_msg(body: &[u8]) -> Result<CoordMsg, ProtoError> {
    let mut c = Cursor::new(body);
    let msg = match c.byte()? {
        C_WELCOME => CoordMsg::Welcome {
            member: c.u64()?,
            seq: c.u64()?,
        },
        C_VERDICT => CoordMsg::Verdict {
            ticket: c.u64()?,
            fresh: match c.byte()? {
                0 => false,
                1 => true,
                _ => return Err(ProtoError::BadPayload),
            },
        },
        C_DONE => CoordMsg::Done {
            op_seq: c.u64()?,
            seq: c.u64()?,
        },
        C_RECORDS => {
            let seq = c.u64()?;
            let n = c.len()?;
            if n > RECORDS_PER_SYNC {
                return Err(ProtoError::BadPayload);
            }
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(c.record()?);
            }
            CoordMsg::Records { seq, records }
        }
        C_STATE => {
            let n = c.len()?;
            let text =
                String::from_utf8(c.bytes(n)?.to_vec()).map_err(|_| ProtoError::BadPayload)?;
            CoordMsg::State { text }
        }
        C_ERR => {
            let code = u16::try_from(c.u64()?).map_err(|_| ProtoError::BadPayload)?;
            CoordMsg::Err { code }
        }
        C_OK => CoordMsg::Ok,
        op => return Err(ProtoError::UnknownOpcode(op)),
    };
    c.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_core::wire::VERBS;

    /// One operation per [`Route::Forward`] row of the table, so a new row
    /// is covered without editing this module.
    fn forwarded_ops() -> Vec<MemberOp> {
        let rows = VERBS.iter().filter(|v| v.route == Route::Forward);
        rows.zip(3..)
            .map(|(v, operand)| MemberOp::from_parts(v.name, operand).expect(v.name))
            .collect()
    }

    fn sample_records() -> Vec<CommittedOp> {
        let establish = CommittedOp::Establish(EstablishRequest {
            src: NodeId(0),
            dst: NodeId(5),
            qos: ElasticQos::paper_video(100),
        });
        let ops = forwarded_ops().into_iter().map(CommittedOp::Op);
        std::iter::once(establish).chain(ops).collect()
    }

    #[test]
    fn every_member_message_round_trips() {
        let mut msgs = vec![
            ClusterMsg::Join,
            ClusterMsg::Prepare {
                footprint: vec![(0, 42), (9, u64::MAX)],
            },
            ClusterMsg::Commit {
                ticket: 17,
                req: WireRequest {
                    src: 1,
                    dst: 4,
                    bmin: 100,
                    bmax: 500,
                    delta: 100,
                },
            },
            ClusterMsg::Sync { applied: 99 },
            ClusterMsg::Leave,
            ClusterMsg::Status,
            ClusterMsg::Stop,
        ];
        msgs.extend(forwarded_ops().into_iter().map(|op| ClusterMsg::Op { op }));
        for msg in msgs {
            let body = encode_cluster_msg(&msg);
            assert_eq!(decode_cluster_msg(&body), Ok(msg.clone()), "{msg:?}");
        }
    }

    /// Tag ↔ row is a bijection on the rows that have a record: every
    /// forwarded row and the admission row encode under their own client
    /// opcode, distinct operands survive the trip (so no two rows share a
    /// decoder), and every other tag — a local verb's opcode, an unused
    /// number — is refused in both positions.
    #[test]
    fn op_and_record_tags_are_the_client_opcodes() {
        let ops = forwarded_ops();
        assert!(ops.len() >= 6, "one operation per forwarded row");
        for (i, &op) in ops.iter().enumerate() {
            let verb = verb_named(op.parts().0).expect("every operation has a row");
            assert_eq!(verb.route, Route::Forward);
            assert_eq!(MemberOp::from_parts(verb.name, op.parts().1), Some(op));
            assert_eq!(ops.iter().position(|&o| o == op), Some(i), "{op:?}");
            let as_op = encode_cluster_msg(&ClusterMsg::Op { op });
            assert_eq!(as_op.get(..2), Some(&[C_OP, verb.opcode][..]), "{op:?}");
            let mut as_record = Vec::new();
            put_record(&mut as_record, &CommittedOp::Op(op));
            assert_eq!(as_record.first(), Some(&verb.opcode), "{op:?}");
            assert_eq!(as_record.get(1..), as_op.get(2..), "{op:?}");
        }
        let mut record = Vec::new();
        put_record(&mut record, &sample_records()[0]);
        let admit = VERBS.iter().find(|v| v.route == Route::Admit).unwrap();
        assert_eq!((record[0], record.len()), (admit.opcode, 1 + 5 * 8));
        for tag in 0..=u8::MAX {
            let forwarded = verb_coded(tag).is_some_and(|v| v.route == Route::Forward);
            let mut body = vec![C_OP, tag];
            body.extend([0; 5 * 8]);
            let decoded = decode_cluster_msg(body.get(..2 + 8).unwrap());
            assert_eq!(decoded.is_ok(), forwarded, "OP tag {tag}: {decoded:?}");
            if !forwarded {
                let wide = decode_cluster_msg(&body);
                assert!(wide.is_err(), "OP tag {tag} with five operands: {wide:?}");
            }
        }
    }

    #[test]
    fn every_coordinator_message_round_trips() {
        let msgs = vec![
            CoordMsg::Welcome { member: 2, seq: 10 },
            CoordMsg::Verdict {
                ticket: 5,
                fresh: true,
            },
            CoordMsg::Done { op_seq: 7, seq: 9 },
            CoordMsg::Records {
                seq: 6,
                records: sample_records(),
            },
            CoordMsg::State {
                text: "members=3 seq=42".to_string(),
            },
            CoordMsg::Err { code: 503 },
            CoordMsg::Ok,
        ];
        for msg in msgs {
            let body = encode_coord_msg(&msg);
            assert_eq!(decode_coord_msg(&body), Ok(msg.clone()), "{msg:?}");
        }
    }

    #[test]
    fn malformed_bodies_are_rejected_not_panicked() {
        assert_eq!(decode_cluster_msg(&[]), Err(ProtoError::Truncated));
        assert_eq!(
            decode_coord_msg(&[0x42]),
            Err(ProtoError::UnknownOpcode(0x42))
        );
        // Truncated prepare: announces 2 footprint pairs, carries none.
        let mut body = vec![C_PREPARE];
        put_u64(&mut body, 2);
        assert_eq!(decode_cluster_msg(&body), Err(ProtoError::Truncated));
        // Trailing garbage after a complete message.
        let mut body = encode_cluster_msg(&ClusterMsg::Join);
        body.push(0);
        assert_eq!(decode_cluster_msg(&body), Err(ProtoError::Trailing));
        // A bad bool in a verdict.
        let mut body = vec![C_VERDICT];
        put_u64(&mut body, 1);
        body.push(7);
        assert_eq!(decode_coord_msg(&body), Err(ProtoError::BadPayload));
        // A rejected QoS triple (bmin 0) in a commit.
        let commit = ClusterMsg::Commit {
            ticket: 0,
            req: WireRequest {
                src: 0,
                dst: 1,
                bmin: 0,
                bmax: 0,
                delta: 0,
            },
        };
        let body = encode_cluster_msg(&commit);
        match decode_cluster_msg(&body) {
            Ok(ClusterMsg::Commit { req, .. }) => {
                assert_eq!(req.to_request(), Err(ProtoError::BadPayload));
            }
            other => panic!("unexpected decode: {other:?}"),
        }
        // An oversized roster length is rejected before allocation.
        let mut body = vec![C_RECORDS];
        put_u64(&mut body, 0);
        put_u64(&mut body, (RECORDS_PER_SYNC as u64) + 1);
        assert_eq!(decode_coord_msg(&body), Err(ProtoError::BadPayload));
        // The unassigned member opcode, bare or with a ticket-sized operand.
        for body in [&[0x13][..], &[0x13, 17, 0, 0, 0, 0, 0, 0, 0]] {
            assert_eq!(
                decode_cluster_msg(body),
                Err(ProtoError::UnknownOpcode(0x13))
            );
        }
        // A record tagged with a local verb's opcode, or with a number no
        // row has (0 among them, roster bytes behind it or not), is no
        // record.
        assert_eq!(verb_coded(0), None);
        for tag in [verb_named("SNAPSHOT").unwrap().opcode, 200, 0] {
            let mut body = vec![C_RECORDS];
            put_u64(&mut body, 0);
            put_u64(&mut body, 1);
            body.push(tag);
            assert_eq!(decode_coord_msg(&body), Err(ProtoError::UnknownTag(tag)));
            put_u64(&mut body, 3);
            body.extend([1, 0, 1]);
            assert_eq!(decode_coord_msg(&body), Err(ProtoError::UnknownTag(tag)));
        }
    }

    #[test]
    fn wire_requests_rebuild_the_qos() {
        let req = WireRequest {
            src: 2,
            dst: 6,
            bmin: 100,
            bmax: 500,
            delta: 100,
        }
        .to_request()
        .unwrap();
        assert_eq!(req.src, NodeId(2));
        assert_eq!(req.qos.min().as_kbps(), 100);
        assert_eq!(req.qos.max().as_kbps(), 500);
        assert_eq!(req.qos.increment().as_kbps(), 100);
        assert_eq!(WireRequest::from_request(&req).bmin, 100);
    }
}
