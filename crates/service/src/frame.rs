//! Binary wire framing (`DRQOS_WIRE=binary`).
//!
//! A length-prefixed, fixed-layout encoding of the exact same protocol
//! the text mode speaks — same verbs, same error codes, same payloads —
//! so a binary session decodes to a byte-identical transcript of the
//! equivalent text session (CI proves this; see `tests/service_wire.rs`).
//!
//! ## Request frame
//!
//! ```text
//! [u32 LE len] [u8 opcode] [u64 LE arg]*
//! ```
//!
//! `len` counts the bytes after the length field. The opcode and the
//! argument list of each verb are its row of [`drqos_core::wire::VERBS`]
//! (SERVICE.md has the documented table); both codecs below are loops
//! over the row.
//!
//! ## Response frame
//!
//! ```text
//! [u32 LE len] [u8 status] [payload]
//! ```
//!
//! Status 0 = `OK` (payload is the UTF-8 `key=value` text), 1 = `ERR`
//! (payload is `[u16 LE code]` + UTF-8 message), 2 = `BUSY` (empty).
//!
//! Malformed frames map onto the *text* protocol's error codes 1–4
//! ([`crate::error`]): empty body → 1, unknown opcode → 2, wrong
//! argument count → 3, torn argument block → 4. No new code space.
//!
//! The daemon decodes request frames to [`Request`] and re-renders them
//! as canonical text lines, so both wire modes share one engine path;
//! only the framing a connection speaks differs.
//!
//! The transport primitives (length prefix, accumulator, the byte cap)
//! live in [`drqos_core::framing`]; the inter-daemon cluster protocol
//! (`drqos_cluster::proto`) shares them, so both wire formats frame
//! identically. Clients read reply frames with [`read_frame`].

use crate::error::ProtocolError;
use crate::protocol::{Request, Response};
use drqos_core::framing::{finish, get_u64, put_u64};
use drqos_core::wire::{verb_coded, verb_named, Operand, MAX_OPERANDS};
use std::io;

pub use drqos_core::framing::read_frame;

/// `OK` response status byte.
pub(crate) const STATUS_OK: u8 = 0;
/// `ERR` response status byte.
pub(crate) const STATUS_ERR: u8 = 1;
/// `BUSY` response status byte.
pub(crate) const STATUS_BUSY: u8 = 2;

/// Encodes a request as a complete frame (length field included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let (name, operands) = req.parts();
    let mut body = Vec::with_capacity(1 + MAX_OPERANDS * 8);
    if let Some(verb) = verb_named(name) {
        body.push(verb.opcode);
        for &operand in operands.iter().take(verb.operands.len()) {
            put_u64(&mut body, operand);
        }
    }
    finish(body)
}

/// Decodes a request frame body (the bytes after the length field).
///
/// # Errors
///
/// [`ProtocolError`] with the text protocol's codes: 1 for an empty body,
/// 2 for an unknown opcode, 3 for a wrong argument count, 4 for an
/// argument block that is not a whole number of `u64`s or an index that
/// does not fit `usize`.
pub fn decode_request(body: &[u8]) -> Result<Request, ProtocolError> {
    let Some(&op) = body.first() else {
        return Err(ProtocolError::empty());
    };
    let Some(verb) = verb_coded(op) else {
        return Err(ProtocolError::unknown_command(&format!("opcode {op}")));
    };
    let arg_bytes = body.len() - 1;
    if !arg_bytes.is_multiple_of(8) {
        return Err(ProtocolError::bad_int(&format!(
            "{arg_bytes}-byte argument block"
        )));
    }
    if arg_bytes / 8 != verb.operands.len() {
        return Err(ProtocolError::arg_count(
            verb.name,
            verb.operands.len(),
            arg_bytes / 8,
        ));
    }
    let mut operands = [0; MAX_OPERANDS];
    for ((slot, kind), i) in operands.iter_mut().zip(verb.operands).zip(0..) {
        // Length is pre-checked above, so this read cannot fall short; a
        // zero on the impossible branch still decodes without panicking.
        *slot = get_u64(body, 1 + 8 * i).unwrap_or(0);
        if matches!(kind, Operand::Index(_)) && usize::try_from(*slot).is_err() {
            return Err(ProtocolError::bad_int("argument beyond usize"));
        }
    }
    Request::from_parts(verb.name, operands)
        .ok_or_else(|| ProtocolError::internal("verb row without a request variant"))
}

/// Encodes a response as a complete frame (length field included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut body = Vec::new();
    match resp {
        Response::Ok(payload) => {
            body.push(STATUS_OK);
            body.extend_from_slice(payload.as_bytes());
        }
        Response::Err { code, message } => {
            body.push(STATUS_ERR);
            body.extend_from_slice(&code.to_le_bytes());
            body.extend_from_slice(message.as_bytes());
        }
        Response::Busy => body.push(STATUS_BUSY),
    }
    finish(body)
}

/// Decodes a response frame body (client side).
///
/// # Errors
///
/// `InvalidData` for an empty body, unknown status byte, or an `ERR`
/// body too short to carry its code.
pub fn decode_response(body: &[u8]) -> io::Result<Response> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let Some(&status) = body.first() else {
        return Err(bad("empty response frame".to_string()));
    };
    match status {
        STATUS_OK => Ok(Response::Ok(
            String::from_utf8_lossy(body.get(1..).unwrap_or_default()).into_owned(),
        )),
        STATUS_ERR => {
            let code_bytes: [u8; 2] = body
                .get(1..3)
                .and_then(|b| b.try_into().ok())
                .ok_or_else(|| bad("ERR frame too short for its code".to_string()))?;
            Ok(Response::Err {
                code: u16::from_le_bytes(code_bytes),
                message: String::from_utf8_lossy(body.get(3..).unwrap_or_default()).into_owned(),
            })
        }
        STATUS_BUSY => Ok(Response::Busy),
        other => Err(bad(format!("unknown response status {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{CODE_ARG_COUNT, CODE_BAD_INT, CODE_EMPTY, CODE_UNKNOWN_COMMAND};

    use crate::protocol::tests::all_requests;
    use drqos_core::framing::{Fill, FrameReader, MAX_FRAME_BYTES};

    fn opcode(verb: &str) -> u8 {
        verb_named(verb).expect(verb).opcode
    }

    #[test]
    fn every_request_round_trips() {
        for req in all_requests() {
            let frame = encode_request(&req);
            let (len_bytes, body) = frame.split_at(4);
            let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
            assert_eq!(len, body.len(), "{req:?}: length field mismatch");
            assert_eq!(decode_request(body).unwrap(), req);
            // The frame is the row: its opcode, then one `u64` per operand.
            let verb = verb_coded(body[0]).unwrap();
            assert_eq!(verb.name, req.parts().0);
            assert_eq!(body.len(), 1 + 8 * verb.operands.len());
        }
    }

    #[test]
    fn decoded_requests_render_to_parseable_lines() {
        for req in all_requests() {
            let line = req.render();
            assert_eq!(crate::protocol::parse(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn every_response_round_trips() {
        let responses = [
            Response::Ok("id=3 bw=500 hops=2 backups=1".into()),
            Response::Ok(String::new()),
            Response::Err {
                code: 302,
                message: "link l4 is already down".into(),
            },
            Response::Busy,
        ];
        for resp in responses {
            let frame = encode_response(&resp);
            assert_eq!(decode_response(&frame[4..]).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_frames_map_onto_text_protocol_codes() {
        assert_eq!(decode_request(&[]).unwrap_err().code, CODE_EMPTY);
        assert_eq!(
            decode_request(&[99]).unwrap_err().code,
            CODE_UNKNOWN_COMMAND
        );
        // RELEASE with no argument block: wrong arg count.
        assert_eq!(
            decode_request(&[opcode("RELEASE")]).unwrap_err().code,
            CODE_ARG_COUNT
        );
        // SNAPSHOT with a stray argument: wrong arg count.
        let mut body = vec![opcode("SNAPSHOT")];
        body.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(decode_request(&body).unwrap_err().code, CODE_ARG_COUNT);
        // Torn u64: code 4, same family as a non-integer text argument.
        assert_eq!(
            decode_request(&[opcode("RELEASE"), 1, 2, 3])
                .unwrap_err()
                .code,
            CODE_BAD_INT
        );
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let mut bytes = Vec::new();
        for req in all_requests() {
            bytes.extend(encode_request(&req));
        }
        // Deliver one byte at a time: worst-case fragmentation.
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for b in bytes {
            let mut one = &[b][..];
            assert_eq!(reader.fill(&mut one).unwrap(), Fill::Data);
            while let Some(body) = reader.next_frame().unwrap() {
                decoded.push(decode_request(&body).unwrap());
            }
        }
        assert_eq!(decoded, all_requests());
    }

    #[test]
    fn frame_reader_rejects_oversized_announcements() {
        let mut reader = FrameReader::new();
        let mut stream = &((MAX_FRAME_BYTES as u32 + 1).to_le_bytes())[..];
        assert_eq!(reader.fill(&mut stream).unwrap(), Fill::Data);
        assert!(reader.next_frame().is_err());
    }

    #[test]
    fn blocking_read_frame_matches_encoder() {
        let frame = encode_request(&Request::Stats);
        let mut stream = &frame[..];
        let body = read_frame(&mut stream).unwrap();
        assert_eq!(decode_request(&body).unwrap(), Request::Stats);
    }
}
