//! Offline stand-in for the `mio` readiness API.
//!
//! This workspace builds in hermetic environments with no crates.io
//! access, so — like the vendored `threadpool` — it vendors the small
//! event-loop subset the gateway needs instead of depending on the real
//! `mio`: [`Poll`] / [`Events`] / [`Token`] / [`Interest`] / [`Waker`]
//! over [`net::TcpListener`] and [`net::TcpStream`] wrappers around
//! `std::net` sockets in nonblocking mode.
//!
//! # Where readiness comes from
//!
//! From the OS. [`Poll::poll`] builds a `pollfd` array from the
//! registry and **blocks in `poll(2)`** — the one foreign function this
//! crate declares, and its one `unsafe` block — until a registered
//! descriptor is ready, a [`Waker`] fires, or the timeout elapses
//! (`None` blocks for good; `EINTR` is retried). Nothing scans and
//! nothing sleeps: a poller with nothing to report makes no wakeups.
//!
//! * **Readable** is `POLLIN`: buffered payload, a pending accept, or
//!   EOF. It is **level-triggered** — reported by every poll until the
//!   owner has drained the socket — and an EOF stays readable for as
//!   long as `READABLE` interest is registered, so an owner whose
//!   `read` has returned `Ok(0)` must drop that interest (or
//!   deregister) to keep its loop from spinning.
//! * **Writable** is `POLLOUT`, i.e. true: it is *not* reported while
//!   the send buffer is full, and is once the peer drains. Register
//!   `WRITABLE` only while there is something to write.
//! * A failed or hung-up socket (`POLLERR` / `POLLHUP`) is reported in
//!   every direction it is registered for; the owner's next `read` or
//!   `write` returns the error.
//! * A [`Waker`] is a nonblocking `UnixStream` pair whose read end is
//!   registered like any other source: [`Waker::wake`] writes a byte
//!   from any thread, and the poller drains the pair when it reports
//!   the waker's token.
//!
//! `poll(2)` rather than `epoll`: one foreign function instead of four
//! and a packed struct, the same on every unix, level-triggered like
//! this crate's contract, and linear in the registered sources per
//! call — which is what it takes to build the array anyway.
//!
//! The crate is **unix-only**. On another platform depend on the real
//! `mio`, whose API this subset is shaped after.

#[cfg(not(unix))]
compile_error!(
    "the vendored mio stand-in takes readiness from poll(2); on a non-unix platform depend on \
     the real `mio` crate instead (this crate mirrors the subset of its API the gateway uses)"
);

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Caller-chosen identifier attached to a registered source and
/// reported back on its [`Event`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// Readiness interest: readable, writable, or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Interest in read readiness.
    pub const READABLE: Interest = Interest(1);
    /// Interest in write readiness.
    pub const WRITABLE: Interest = Interest(2);

    /// Combines two interests (named for real-mio API compatibility).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Whether read readiness is requested.
    pub fn is_readable(self) -> bool {
        self.0 & 1 != 0
    }

    /// Whether write readiness is requested.
    pub fn is_writable(self) -> bool {
        self.0 & 2 != 0
    }
}

/// One readiness event: which token, and which directions are ready.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
}

impl Event {
    /// The registered token of the ready source.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Read readiness: data buffered, EOF, a pending accept, or a
    /// socket error the owner's `read` will report.
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// Write readiness: the send buffer has room, or the socket has
    /// failed and the owner's `write` will report how.
    pub fn is_writable(&self) -> bool {
        self.writable
    }
}

/// Buffer of events filled by [`Poll::poll`].
#[derive(Debug, Default)]
pub struct Events {
    events: Vec<Event>,
    capacity: usize,
}

impl Events {
    /// Creates a buffer that holds at most `capacity` events per poll.
    pub fn with_capacity(capacity: usize) -> Events {
        Events { events: Vec::with_capacity(capacity), capacity: capacity.max(1) }
    }

    /// Iterates over the events of the last poll.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// Whether the last poll produced no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// `poll(2)`, declared locally: the struct, the five event bits this
/// crate reads (the same values on every unix) and the one foreign
/// function.
mod sys {
    use std::io;
    use std::os::raw::c_int;
    use std::time::{Duration, Instant};

    #[repr(C)]
    pub(crate) struct PollFd {
        pub(crate) fd: c_int,
        pub(crate) events: i16,
        pub(crate) revents: i16,
    }

    pub(crate) const POLLIN: i16 = 0x001;
    pub(crate) const POLLOUT: i16 = 0x004;
    pub(crate) const POLLERR: i16 = 0x008;
    pub(crate) const POLLHUP: i16 = 0x010;
    pub(crate) const POLLNVAL: i16 = 0x020;

    /// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs
    /// and macOS.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NfdsT = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    /// Blocks until a descriptor in `fds` has an event (written to its
    /// `revents`) or `timeout` elapses; `None` blocks for good. A wait
    /// a signal interrupts is resumed for the time that is left.
    pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            // Whole milliseconds, rounded up: never back before the
            // deadline.
            let millis = deadline.map_or(-1, |d| {
                let left = d.saturating_duration_since(Instant::now());
                c_int::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
            });
            // SAFETY: the pointer and the count describe one live,
            // exclusively borrowed slice of `#[repr(C)]` `PollFd`s laid
            // out as `struct pollfd`; the kernel reads `fd` / `events`
            // and writes only `revents`, inside that slice, and keeps
            // no reference to it once the call returns.
            let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, millis) };
            if ready >= 0 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// What the registry keeps per registered source: a handle that keeps
/// the descriptor open for as long as it is registered (a closed and
/// reused fd number must never be polled under the old token), the
/// token, and the interests.
struct Entry {
    source: Arc<dyn Selectable>,
    token: Token,
    interest: Interest,
}

/// What the poller needs from a registered source.
#[doc(hidden)]
pub trait Selectable: Send + Sync {
    fn raw_fd(&self) -> RawFd;

    /// Called when the source is about to be reported readable.
    fn reported_readable(&self) {}
}

/// Registration handle: register/reregister/deregister sources.
pub struct Registry {
    entries: Mutex<HashMap<usize, Entry>>,
}

impl Registry {
    fn insert(
        &self,
        id: usize,
        source: Arc<dyn Selectable>,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        let mut entries = self.entries.lock().expect("registry lock");
        if entries.contains_key(&id) {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "source already registered"));
        }
        entries.insert(id, Entry { source, token, interest });
        Ok(())
    }

    /// Registers `source` under `token` with `interest`.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the source is already registered with this
    /// poll.
    pub fn register(
        &self,
        source: &mut impl Source,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.insert(source.source_id(), source.handle(), token, interest)
    }

    /// Replaces the token/interest of an already registered source.
    ///
    /// # Errors
    ///
    /// `NotFound` if the source was never registered.
    pub fn reregister(
        &self,
        source: &mut impl Source,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        let id = source.source_id();
        let mut entries = self.entries.lock().expect("registry lock");
        match entries.get_mut(&id) {
            Some(entry) => {
                entry.token = token;
                entry.interest = interest;
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "source not registered")),
        }
    }

    /// Removes a source from the poll.
    ///
    /// # Errors
    ///
    /// `NotFound` if the source was never registered.
    pub fn deregister(&self, source: &mut impl Source) -> io::Result<()> {
        let id = source.source_id();
        match self.entries.lock().expect("registry lock").remove(&id) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "source not registered")),
        }
    }
}

/// A source registrable with a [`Poll`] (sealed: the two `net` types).
pub trait Source: sealed::Sealed {
    #[doc(hidden)]
    fn source_id(&self) -> usize;
    #[doc(hidden)]
    fn handle(&self) -> Arc<dyn Selectable>;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::net::TcpListener {}
    impl Sealed for super::net::TcpStream {}
}

/// The poller: asks the OS which registered sources are ready.
pub struct Poll {
    registry: Registry,
    /// The `pollfd` array, kept between calls for its allocation.
    fds: Vec<sys::PollFd>,
}

impl Poll {
    /// Creates a poller.
    ///
    /// # Errors
    ///
    /// Never fails in this stand-in (`io::Result` mirrors mio's API).
    pub fn new() -> io::Result<Poll> {
        Ok(Poll { registry: Registry { entries: Mutex::new(HashMap::new()) }, fds: Vec::new() })
    }

    /// The registration handle.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Fills `events` with ready sources, blocking in `poll(2)` up to
    /// `timeout` (`None` = until something is ready). Events are capped
    /// at the buffer's capacity; remaining readiness is reported by the
    /// next call (level-triggered).
    ///
    /// # Errors
    ///
    /// Whatever `poll(2)` fails with other than `EINTR`, which is
    /// retried. Socket errors are not errors of the poll: they surface
    /// as readiness, so the owner reads / writes / accepts and observes
    /// them there.
    pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.events.clear();
        // Held across the wait: the registry is reachable only through
        // `&self`, so nothing can want it while `&mut self` is out.
        let entries = self.registry.entries.lock().expect("registry lock");
        self.fds.clear();
        self.fds.extend(entries.values().map(|entry| sys::PollFd {
            fd: entry.source.raw_fd(),
            events: if entry.interest.is_readable() { sys::POLLIN } else { 0 }
                | if entry.interest.is_writable() { sys::POLLOUT } else { 0 },
            revents: 0,
        }));
        sys::wait(&mut self.fds, timeout)?;
        for (fd, entry) in self.fds.iter().zip(entries.values()) {
            if fd.revents == 0 {
                continue;
            }
            if events.events.len() >= events.capacity {
                break;
            }
            // Errors and hang-ups arrive whatever was asked for: report
            // them in each registered direction, and the owner's next
            // read or write returns the error.
            let failed = fd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
            let readable =
                entry.interest.is_readable() && (failed || fd.revents & sys::POLLIN != 0);
            let writable =
                entry.interest.is_writable() && (failed || fd.revents & sys::POLLOUT != 0);
            if readable {
                entry.source.reported_readable();
            }
            events.events.push(Event { token: entry.token, readable, writable });
        }
        Ok(())
    }
}

/// Wakes a [`Poll`] blocked in [`Poll::poll`] from any thread: the poll
/// returns with a readable event for the waker's token. Wake-ups
/// coalesce — several calls before the poller looks are one event — and
/// one that lands while the poller is awake is reported by its next
/// poll, so a hand-off published *before* `wake()` is never missed.
pub struct Waker {
    inner: Arc<WakerInner>,
}

/// Both ends of the pair, so the read end outlives the poller's
/// registry entry and `wake` can never see a closed peer.
struct WakerInner {
    reader: UnixStream,
    writer: UnixStream,
}

impl Selectable for WakerInner {
    fn raw_fd(&self) -> RawFd {
        self.reader.as_raw_fd()
    }

    /// Drains the pair: the wake-ups written so far are the event being
    /// reported; one written from here on leaves the pair readable for
    /// the next poll.
    fn reported_readable(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.reader).read(&mut sink), Ok(n) if n == sink.len()) {}
    }
}

impl Waker {
    /// Creates a waker reported under `token` by the poll `registry`
    /// belongs to.
    ///
    /// # Errors
    ///
    /// Propagates the OS error of creating the socket pair.
    pub fn new(registry: &Registry, token: Token) -> io::Result<Waker> {
        let (reader, writer) = UnixStream::pair()?;
        reader.set_nonblocking(true)?;
        writer.set_nonblocking(true)?;
        let inner = Arc::new(WakerInner { reader, writer });
        let source: Arc<dyn Selectable> = Arc::<WakerInner>::clone(&inner);
        registry.insert(next_source_id(), source, token, Interest::READABLE)?;
        Ok(Waker { inner })
    }

    /// Makes the poll return. Never blocks.
    ///
    /// # Errors
    ///
    /// Propagates an OS write error other than a full pair (which means
    /// a wake-up is already pending, i.e. success).
    pub fn wake(&self) -> io::Result<()> {
        loop {
            match (&self.inner.writer).write(&[1]) {
                Ok(_) => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Unique source ids (address-independent, clone-stable).
static NEXT_SOURCE_ID: AtomicUsize = AtomicUsize::new(1);

fn next_source_id() -> usize {
    NEXT_SOURCE_ID.fetch_add(1, Ordering::Relaxed)
}

impl Selectable for std::net::TcpListener {
    fn raw_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

impl Selectable for std::net::TcpStream {
    fn raw_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

/// Nonblocking TCP types shaped like `mio::net`.
pub mod net {
    use super::*;
    use std::net::{Shutdown, SocketAddr, ToSocketAddrs};

    /// A nonblocking TCP listener registrable with [`Poll`](super::Poll).
    pub struct TcpListener {
        id: usize,
        listener: Arc<std::net::TcpListener>,
    }

    impl TcpListener {
        /// Binds a nonblocking listener to `addr`.
        ///
        /// # Errors
        ///
        /// Propagates bind/configuration errors of the OS socket.
        pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<TcpListener> {
            let listener = std::net::TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            Ok(TcpListener { id: next_source_id(), listener: Arc::new(listener) })
        }

        /// Accepts a queued connection (nonblocking; `WouldBlock` when
        /// none is pending).
        ///
        /// # Errors
        ///
        /// `WouldBlock` when no connection is pending; otherwise the OS
        /// accept error.
        pub fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
            let (stream, addr) = self.listener.accept()?;
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true).ok();
            Ok((TcpStream { id: next_source_id(), stream: Arc::new(stream) }, addr))
        }

        /// The bound local address.
        ///
        /// # Errors
        ///
        /// Propagates the OS `getsockname` error.
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            self.listener.local_addr()
        }
    }

    impl super::Source for TcpListener {
        fn source_id(&self) -> usize {
            self.id
        }
        fn handle(&self) -> Arc<dyn Selectable> {
            Arc::<std::net::TcpListener>::clone(&self.listener)
        }
    }

    /// A nonblocking TCP stream registrable with [`Poll`](super::Poll).
    pub struct TcpStream {
        id: usize,
        stream: Arc<std::net::TcpStream>,
    }

    impl TcpStream {
        /// The peer's address.
        ///
        /// # Errors
        ///
        /// Propagates the OS `getpeername` error.
        pub fn peer_addr(&self) -> io::Result<SocketAddr> {
            self.stream.peer_addr()
        }

        /// Shuts down one or both directions.
        ///
        /// # Errors
        ///
        /// Propagates the OS `shutdown` error.
        pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
            self.stream.shutdown(how)
        }
    }

    impl super::Source for TcpStream {
        fn source_id(&self) -> usize {
            self.id
        }
        fn handle(&self) -> Arc<dyn Selectable> {
            Arc::<std::net::TcpStream>::clone(&self.stream)
        }
    }

    impl Read for TcpStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            (&*self.stream).read(buf)
        }
    }

    impl Read for &TcpStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            (&*self.stream).read(buf)
        }
    }

    impl Write for TcpStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            (&*self.stream).write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            (&*self.stream).flush()
        }
    }

    impl Write for &TcpStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            (&*self.stream).write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            (&*self.stream).flush()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    const LISTENER: Token = Token(0);
    const CLIENT: Token = Token(1);
    const WAKER: Token = Token(2);
    /// Long enough for a poll that should report nothing to have
    /// reported something, were it going to.
    const QUIET: Option<Duration> = Some(Duration::from_millis(20));
    const SOON: Option<Duration> = Some(Duration::from_secs(5));

    /// A connected pair: the accepted, registrable server side and the
    /// plain blocking client side.
    fn pair(poll: &mut Poll, events: &mut Events) -> (net::TcpStream, std::net::TcpStream) {
        let mut listener = net::TcpListener::bind("127.0.0.1:0").unwrap();
        poll.registry().register(&mut listener, LISTENER, Interest::READABLE).unwrap();
        let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poll.poll(events, SOON).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        poll.registry().deregister(&mut listener).unwrap();
        (server_side, client)
    }

    fn reported(events: &Events, token: Token) -> Option<Event> {
        events.iter().find(|e| e.token() == token).copied()
    }

    #[test]
    fn listener_reports_pending_accepts_and_hands_them_over() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(8);
        let mut listener = net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        poll.registry().register(&mut listener, LISTENER, Interest::READABLE).unwrap();

        // Nothing connected: a short poll returns no events.
        poll.poll(&mut events, QUIET).unwrap();
        assert!(events.is_empty(), "spurious readiness with no client");

        let client = std::net::TcpStream::connect(addr).unwrap();
        poll.poll(&mut events, SOON).unwrap();
        let event = reported(&events, LISTENER).expect("accept readiness");
        assert!(event.is_readable());
        let (server_side, _) = listener.accept().unwrap();
        // Accepted: the backlog is empty again, and so is the poll.
        poll.poll(&mut events, QUIET).unwrap();
        assert!(events.is_empty(), "an accepted connection must not be reported again");
        assert!(matches!(listener.accept(), Err(e) if e.kind() == io::ErrorKind::WouldBlock));
        drop(client);
        drop(server_side);
    }

    #[test]
    fn stream_readiness_tracks_data_and_eof() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(8);
        let (mut server_side, mut client) = pair(&mut poll, &mut events);
        poll.registry().register(&mut server_side, CLIENT, Interest::READABLE).unwrap();

        poll.poll(&mut events, QUIET).unwrap();
        assert!(events.is_empty(), "readable before any payload");

        client.write_all(b"ping").unwrap();
        // Reported by every poll for as long as the bytes sit there...
        for _ in 0..3 {
            poll.poll(&mut events, SOON).unwrap();
            let event = reported(&events, CLIENT).expect("payload is readable");
            assert!(event.is_readable() && !event.is_writable());
        }
        // ...and no longer once they are read.
        let mut buf = [0u8; 16];
        assert_eq!(server_side.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        assert_eq!(server_side.read(&mut buf).unwrap_err().kind(), io::ErrorKind::WouldBlock);
        poll.poll(&mut events, QUIET).unwrap();
        assert!(events.is_empty(), "a drained stream must not be readable");

        // EOF wakes the consumer (read returns 0) and — this is a real
        // selector — goes on being readable: dropping the interest is
        // the owner's job.
        drop(client);
        for _ in 0..2 {
            poll.poll(&mut events, SOON).unwrap();
            assert!(reported(&events, CLIENT).expect("EOF is readable").is_readable());
            assert_eq!(server_side.read(&mut buf).unwrap(), 0);
        }
        poll.registry().reregister(&mut server_side, CLIENT, Interest::WRITABLE).unwrap();
        poll.poll(&mut events, SOON).unwrap();
        let event = reported(&events, CLIENT).expect("an empty send buffer is writable");
        assert!(event.is_writable() && !event.is_readable(), "READABLE interest was dropped");
    }

    #[test]
    fn writable_is_withheld_while_the_send_buffer_is_full() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(8);
        let (mut server_side, mut client) = pair(&mut poll, &mut events);
        poll.registry().register(&mut server_side, CLIENT, Interest::WRITABLE).unwrap();

        poll.poll(&mut events, SOON).unwrap();
        assert!(reported(&events, CLIENT).expect("fresh stream").is_writable());

        // Fill the send buffer (and the peer's receive buffer behind it).
        let chunk = [7u8; 64 << 10];
        let mut written = 0usize;
        loop {
            match server_side.write(&chunk) {
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("write failed: {e}"),
            }
        }
        poll.poll(&mut events, QUIET).unwrap();
        assert!(events.is_empty(), "a full send buffer must not be reported writable");

        // The peer drains everything: room again.
        let mut sink = vec![0u8; written];
        client.read_exact(&mut sink).unwrap();
        poll.poll(&mut events, SOON).unwrap();
        assert!(reported(&events, CLIENT).expect("drained peer").is_writable());
    }

    #[test]
    fn deregistered_sources_report_nothing() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(8);
        let (mut server_side, mut client) = pair(&mut poll, &mut events);
        poll.registry()
            .register(&mut server_side, CLIENT, Interest::READABLE.add(Interest::WRITABLE))
            .unwrap();
        client.write_all(b"ping").unwrap();
        poll.poll(&mut events, SOON).unwrap();
        assert!(reported(&events, CLIENT).is_some());

        poll.registry().deregister(&mut server_side).unwrap();
        poll.poll(&mut events, QUIET).unwrap();
        assert!(events.is_empty(), "readable and writable, but no longer registered");
    }

    #[test]
    fn poll_without_a_timeout_blocks_until_a_waker_fires_from_another_thread() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(8);
        let waker = Arc::new(Waker::new(poll.registry(), WAKER).unwrap());
        let woken = Arc::new(AtomicBool::new(false));
        let (polling_tx, polling_rx) = std::sync::mpsc::channel();

        let poller = {
            let woken = Arc::clone(&woken);
            std::thread::spawn(move || {
                polling_tx.send(()).unwrap();
                poll.poll(&mut events, None).unwrap();
                // Whenever the poll returned, the wake came first.
                assert!(woken.load(Ordering::SeqCst), "poll(None) returned with nothing to report");
                let event = reported(&events, WAKER).expect("the waker's token");
                assert!(event.is_readable());
                // The wake-up was consumed with the report.
                poll.poll(&mut events, QUIET).unwrap();
                assert!(events.is_empty(), "one wake-up, reported twice");
            })
        };
        polling_rx.recv().unwrap();
        // Let the poller get into the kernel (not needed for the
        // assertions to hold, only for them to mean "blocked").
        std::thread::sleep(Duration::from_millis(50));
        assert!(!poller.is_finished(), "poll(None) returned before any wake-up");
        woken.store(true, Ordering::SeqCst);
        waker.wake().unwrap();
        poller.join().unwrap();
    }

    #[test]
    fn wakeups_coalesce_and_one_sent_before_the_poll_is_not_lost() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(8);
        let waker = Waker::new(poll.registry(), WAKER).unwrap();
        for _ in 0..1000 {
            waker.wake().unwrap();
        }
        poll.poll(&mut events, None).unwrap();
        assert_eq!(events.iter().count(), 1);
        assert!(reported(&events, WAKER).is_some());
        poll.poll(&mut events, QUIET).unwrap();
        assert!(events.is_empty(), "a thousand wake-ups are one event");
    }

    #[test]
    fn registry_rejects_double_register_and_unknown_deregister() {
        let poll = Poll::new().unwrap();
        let mut listener = net::TcpListener::bind("127.0.0.1:0").unwrap();
        poll.registry().register(&mut listener, LISTENER, Interest::READABLE).unwrap();
        let err = poll.registry().register(&mut listener, CLIENT, Interest::READABLE).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        poll.registry().reregister(&mut listener, CLIENT, Interest::READABLE).unwrap();
        poll.registry().deregister(&mut listener).unwrap();
        let err = poll.registry().deregister(&mut listener).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let mut other = net::TcpListener::bind("127.0.0.1:0").unwrap();
        let err = poll.registry().reregister(&mut other, CLIENT, Interest::READABLE).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn poll_timeout_returns_empty_in_time() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(4);
        let start = Instant::now();
        poll.poll(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.is_empty());
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(20), "returned early: {elapsed:?}");
        assert!(elapsed < Duration::from_secs(2), "overslept: {elapsed:?}");
    }
}
