//! One served connection: the polled reader and reply writer behind every
//! socket the daemons accept — clients of `drqosd` or of a member, in
//! either framing, and the coordinator's peer port — and [`accept_until`],
//! the accept loop their listeners share, with [`wake`], which ends it.
//!
//! [`Conn`]'s contract is the same for all of them:
//!
//! * **Socket options.** [`Conn::open`] is the one place a served socket
//!   gets its read timeout ([`POLL_INTERVAL`]) and `nodelay`.
//! * **Reassembly.** Bytes accumulate across short reads and timeouts;
//!   [`Conn::next_unit`] yields one complete request unit at a time — a
//!   line, or a frame body — however many packets it arrived in.
//! * **One byte cap.** A frame announcing more than
//!   [`drqos_core::framing::MAX_FRAME_BYTES`], or a line that long without
//!   its newline, cannot be resynchronized: the connection closes, and a
//!   client is told why first (code 4).
//! * **Shutdown.** The stop flag is read when a poll comes back idle. A
//!   connection idle under a raised flag closes, between requests or
//!   halfway through one — the half is dropped, so a stalled peer costs
//!   the drain one interval. A request that *completes* under a raised
//!   flag is late: a client gets `ERR 11` and is closed, so a chatty one
//!   cannot hold the drain open either.
//! * **EOF** ends the connection like a raised flag does: `Ok(None)`.
//! * **Replies.** A [`Response`] is written the framing's own way — a
//!   line, or a response frame — in one `write`.
//!
//! Every listener serves a request the same way once `Conn` has it: one
//! call on its shared state under [`lock_shrug`], on the connection's own
//! thread. Client requests come out of [`Conn::next_request`], whose one
//! caller is the server's reader loop (`crate::server`).

use crate::error::ProtocolError;
use crate::frame;
use crate::protocol::Response;
use drqos_core::env::WireMode;
use drqos_core::framing::{self, Fill, FrameReader};
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

/// How often an idle served read re-checks its stop flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Poison-shrugging lock: a panicked handler thread must not wedge the
/// daemon, and the guarded state is always left consistent between
/// operations (every mutation happens under one lock acquisition).
pub(crate) fn lock_shrug<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One accepted connection, speaking one framing.
pub(crate) struct Conn {
    stream: TcpStream,
    wire: WireMode,
    inbox: FrameReader,
}

impl Conn {
    /// Takes over an accepted stream.
    pub(crate) fn open(stream: TcpStream, wire: WireMode) -> io::Result<Self> {
        stream.set_read_timeout(Some(POLL_INTERVAL))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            wire,
            inbox: FrameReader::new(),
        })
    }

    /// Waits for the next complete request unit; `None` once the peer has
    /// hung up or `stop` is up at an idle poll.
    ///
    /// # Errors
    ///
    /// Hard I/O errors, and `InvalidData` for a unit over the byte cap.
    pub(crate) fn next_unit(&mut self, stop: &AtomicBool) -> io::Result<Option<Vec<u8>>> {
        loop {
            let unit = match self.wire {
                WireMode::Text => self.inbox.next_line()?,
                WireMode::Binary => self.inbox.next_frame()?,
            };
            if unit.is_some() {
                return Ok(unit);
            }
            match self.inbox.fill(&mut &self.stream)? {
                Fill::Eof => return Ok(None),
                Fill::Idle if stop.load(Ordering::Acquire) => return Ok(None),
                Fill::Data | Fill::Idle => {}
            }
        }
    }

    /// Waits for the next *client* request and hands it over as its
    /// canonical text line, whichever framing it came in. What never
    /// reaches the caller is answered here: a unit over the cap (code 4,
    /// then the error), a late request (`ERR 11`, then `None`), and a
    /// frame that does not decode (codes 1–4; the connection stays).
    ///
    /// # Errors
    ///
    /// As [`Conn::next_unit`], plus a failed write of one of those replies.
    pub(crate) fn next_request(&mut self, shutdown: &AtomicBool) -> io::Result<Option<String>> {
        loop {
            let unit = match self.next_unit(shutdown) {
                Ok(Some(unit)) => unit,
                Ok(None) => return Ok(None),
                Err(e) => {
                    if e.kind() == io::ErrorKind::InvalidData {
                        let _ = self.reply(&ProtocolError::bad_int(&e.to_string()).into());
                    }
                    return Err(e);
                }
            };
            if shutdown.load(Ordering::Acquire) {
                self.reply(&ProtocolError::shutting_down().into())?;
                return Ok(None);
            }
            match self.wire {
                WireMode::Text => {
                    let line = String::from_utf8(unit)
                        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
                    return Ok(Some(line));
                }
                WireMode::Binary => match frame::decode_request(&unit) {
                    Ok(req) => return Ok(Some(req.render())),
                    Err(e) => self.reply(&e.into())?,
                },
            }
        }
    }

    /// Writes one response in the connection's framing.
    pub(crate) fn reply(&mut self, resp: &Response) -> io::Result<()> {
        match self.wire {
            WireMode::Text => self.stream.write_all(format!("{resp}\n").as_bytes()),
            WireMode::Binary => self.stream.write_all(&frame::encode_response(resp)),
        }
    }

    /// Writes one frame around `body` (an inter-daemon reply, which is no
    /// [`Response`]).
    pub(crate) fn send_frame(&mut self, body: Vec<u8>) -> io::Result<()> {
        self.stream.write_all(&framing::finish(body))
    }
}

/// Until `stop` rises, serves every connection `listener` accepts on a
/// detached thread of its own. `server` builds that thread's body on the
/// accept thread, so what it sets up is in place before the next accept;
/// what the body returns is the connection's own business.
///
/// The listener blocks in `accept`, so a connection is served the moment
/// it arrives, and whoever raises `stop` must then [`wake`] it. The first
/// connection, or accept error, that finds the flag raised ends the loop:
/// that connection — the wake, or a client that came too late — is closed
/// unread.
pub(crate) fn accept_until<S>(
    listener: &TcpListener,
    stop: &AtomicBool,
    mut server: impl FnMut() -> S,
) where
    S: FnOnce(TcpStream) -> io::Result<()> + Send + 'static,
{
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let serve = server();
                thread::spawn(move || serve(stream));
            }
            // lint:allow(raw-clock): a failing accept (EMFILE) must back off, not spin
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Wakes a listener blocked in [`accept_until`] once its flag is up: one
/// connect to `addr`, closed at once. A listener bound to the unspecified
/// address is reached through loopback.
///
/// # Errors
///
/// The connect failed; the accept loop then stays blocked.
pub(crate) fn wake(mut addr: SocketAddr) -> io::Result<()> {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect(addr).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Arc};

    /// A blocking accept loop serves a client that arrives while the flag
    /// is down, then, with nobody else connecting, ends at the wake that
    /// follows the flag and serves nothing more. A listener bound to the
    /// unspecified address is woken through loopback.
    #[test]
    fn a_raised_flag_and_one_wake_end_a_blocked_accept() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let listener = TcpListener::bind(bind).unwrap();
            let addr = listener.local_addr().unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let served = Arc::new(AtomicUsize::new(0));
            let (done, ended) = mpsc::channel();
            let (flag, count) = (Arc::clone(&stop), Arc::clone(&served));
            thread::spawn(move || {
                accept_until(&listener, &flag, || {
                    count.fetch_add(1, Ordering::AcqRel);
                    |_stream| Ok(())
                });
                done.send(()).unwrap();
            });
            let client = TcpStream::connect((Ipv4Addr::LOCALHOST, addr.port())).unwrap();
            while served.load(Ordering::Acquire) == 0 {
                thread::yield_now();
            }
            drop(client);
            stop.store(true, Ordering::Release);
            wake(addr).unwrap();
            let waited = ended.recv_timeout(Duration::from_secs(10));
            assert!(waited.is_ok(), "{bind}: the wake did not end the loop");
            assert_eq!(
                served.load(Ordering::Acquire),
                1,
                "{bind}: the wake is unserved"
            );
        }
    }
}
