//! The one client of the request/reply protocol, in either framing.
//!
//! Commands and replies cross this boundary as canonical text lines
//! whatever the wire mode, so a caller — the load generator, or a test
//! driving a daemon — is framing-agnostic. The client only moves
//! requests and replies; retrying `BUSY` and timing the round trip are
//! the caller's (`loadgen` does both).

use crate::{frame, protocol};
use drqos_core::env::WireMode;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A protocol client over one TCP stream, speaking either wire mode.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    wire: WireMode,
}

impl Client {
    /// Connects to `addr` with `TCP_NODELAY` set.
    ///
    /// # Errors
    ///
    /// The connect or a socket option failed.
    pub fn connect(addr: impl ToSocketAddrs, wire: WireMode) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            wire,
        })
    }

    /// The socket itself, for bytes no command line encodes to (a
    /// hostile test's raw writes) and for socket options; its replies
    /// are still read with [`Client::recv`].
    pub fn stream(&self) -> &TcpStream {
        &self.writer
    }

    /// The send half of [`Client::roundtrip`], for a caller that reads
    /// the reply later.
    pub(crate) fn send(&mut self, line: &str) -> io::Result<()> {
        match self.wire {
            WireMode::Text => writeln!(self.writer, "{line}")?,
            WireMode::Binary => {
                let req = protocol::parse(line)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.message))?;
                self.writer.write_all(&frame::encode_request(&req))?;
            }
        }
        self.writer.flush()
    }

    /// Reads one reply, rendered as its canonical text line.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` once the daemon has hung up; a malformed reply
    /// frame, or the read's own error.
    pub fn recv(&mut self) -> io::Result<String> {
        match self.wire {
            WireMode::Text => {
                let mut resp = String::new();
                if self.reader.read_line(&mut resp)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                Ok(resp.trim_end().to_string())
            }
            WireMode::Binary => {
                let body = frame::read_frame(&mut self.reader)?;
                Ok(frame::decode_response(&body)?.to_string())
            }
        }
    }

    /// Sends one command — the line itself in text, the request frame of
    /// [`protocol::parse`]'s request in binary — then reads its reply with
    /// [`Client::recv`].
    ///
    /// # Errors
    ///
    /// `InvalidInput`, with nothing written, for a line that does not
    /// parse in binary; otherwise the write's or [`Client::recv`]'s.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}
