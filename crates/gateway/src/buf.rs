//! The two byte queues between a socket and the codecs: [`RecvBuf`],
//! which both clients and every gateway connection read their socket
//! into, and [`SendBuf`], which a connection's replies are written
//! into and drained from.
//!
//! `read` needs initialised memory to write to, and a `Vec`'s spare
//! capacity is not, so the old loops read into a stack chunk and copied
//! every byte a second time with `extend_from_slice`. [`RecvBuf`] keeps
//! its whole allocation initialised instead (`buf.len()` is the room,
//! `len` the data) and reads straight into the room behind the data.
//! It grows by allocating a *zeroed* vector — which the allocator hands
//! out as untouched zero pages for anything large, so reserving a whole
//! 8 MB request the moment its header is parsed
//! ([`RecvBuf::reserve_total`]) costs no memset and commits no memory
//! until the bytes actually arrive.

use std::io::{self, Read, Write};

/// Smallest growth step, and how far past its budget a gateway
/// connection may read in one go.
pub(crate) const READ_CHUNK: usize = 64 << 10;

/// Bytes received and not yet consumed, at the front of an initialised
/// allocation.
#[derive(Default)]
pub(crate) struct RecvBuf {
    buf: Vec<u8>,
    len: usize,
}

impl RecvBuf {
    /// The received, unconsumed bytes.
    pub(crate) fn data(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Drops the first `n` bytes (one parsed request or reply), moving
    /// whatever follows them to the front.
    pub(crate) fn consume(&mut self, n: usize) {
        self.buf.copy_within(n..self.len, 0);
        self.len -= n;
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    /// Makes room for `total` bytes of data in all, in one allocation —
    /// called once a frame header or `Content-Length` says how long the
    /// message is. The caller bounds `total`.
    pub(crate) fn reserve_total(&mut self, total: usize) {
        if total > self.buf.len() {
            let mut grown = vec![0u8; total];
            grown[..self.len].copy_from_slice(self.data());
            self.buf = grown;
        }
    }

    /// One `read` from `src` into the room behind the data, at most
    /// `limit` bytes; doubles the allocation first if it is full.
    ///
    /// # Errors
    ///
    /// Whatever `src.read` returns (`WouldBlock` included); the buffer
    /// is unchanged then.
    pub(crate) fn read_from(&mut self, mut src: impl Read, limit: usize) -> io::Result<usize> {
        if self.len == self.buf.len() {
            self.reserve_total((self.len * 2).max(READ_CHUNK));
        }
        let end = self.buf.len().min(self.len.saturating_add(limit));
        let n = src.read(&mut self.buf[self.len..end])?;
        self.len += n;
        Ok(n)
    }
}

/// Reply bytes on their way to a socket: appended at the tail, written
/// from a cursor. A partial write only advances the cursor; the queue
/// is emptied once everything is out, and compacted once the written
/// part outweighs the rest — so a large reply to a slow reader is moved
/// at most once, not once per `write` (which is what
/// `Vec::drain(..n)` after every write amounted to), and the
/// allocation never holds more than twice what is pending.
#[derive(Default)]
pub(crate) struct SendBuf {
    buf: Vec<u8>,
    sent: usize,
}

impl SendBuf {
    /// Bytes queued and not yet written.
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.sent
    }

    /// The queue's tail, for encoding a reply in place.
    pub(crate) fn tail(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Queues an already-built reply.
    pub(crate) fn extend_from_slice(&mut self, reply: &[u8]) {
        self.buf.extend_from_slice(reply);
    }

    /// One `write` of the pending bytes to `dst`; returns how many it
    /// took.
    ///
    /// # Errors
    ///
    /// Whatever `dst.write` returns (`WouldBlock` included); nothing is
    /// consumed then.
    pub(crate) fn write_to(&mut self, mut dst: impl Write) -> io::Result<usize> {
        let n = dst.write(&self.buf[self.sent..])?;
        self.sent += n;
        if self.sent >= self.pending() {
            self.buf.drain(..self.sent);
            self.sent = 0;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out its bytes at most `step` at a time, then `WouldBlock`.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, dst: &mut [u8]) -> io::Result<usize> {
            if self.bytes.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = self.step.min(dst.len()).min(self.bytes.len());
            dst[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn reads_accumulate_in_place_and_consume_keeps_the_tail() {
        let message: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let mut src = Trickle { bytes: &message, step: 7_001 };
        let mut buf = RecvBuf::default();
        while buf.read_from(&mut src, usize::MAX).is_ok() {}
        assert_eq!(buf.data(), &message[..], "grown across several doublings, nothing lost");
        buf.consume(150_000);
        assert_eq!(buf.data(), &message[150_000..]);
        // New bytes land behind the kept tail.
        let mut more = Trickle { bytes: b"xyz", step: 3 };
        assert_eq!(buf.read_from(&mut more, usize::MAX).unwrap(), 3);
        assert_eq!(buf.len(), 50_003);
        assert_eq!(&buf.data()[50_000..], b"xyz");
        buf.clear();
        assert!(buf.data().is_empty());
    }

    #[test]
    fn limit_caps_one_read_and_reserve_is_one_allocation() {
        let message = vec![9u8; 10_000];
        let mut src = Trickle { bytes: &message, step: usize::MAX };
        let mut buf = RecvBuf::default();
        buf.reserve_total(1 << 20);
        let room = buf.buf.len();
        assert_eq!(buf.read_from(&mut src, 100).unwrap(), 100, "limit respected");
        assert_eq!(buf.read_from(&mut src, usize::MAX).unwrap(), 9_900);
        assert_eq!(buf.buf.len(), room, "no growth while the reservation holds");
        buf.reserve_total(10); // never shrinks
        assert_eq!(buf.buf.len(), room);
        assert_eq!(buf.data(), &message[..]);
    }

    /// Takes at most `step` bytes per `write`.
    struct Sip {
        taken: Vec<u8>,
        step: usize,
    }

    impl Write for Sip {
        fn write(&mut self, src: &[u8]) -> io::Result<usize> {
            let n = self.step.min(src.len());
            self.taken.extend_from_slice(&src[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_advance_a_cursor_and_compaction_is_amortised() {
        // A 4 MB reply sipped 512 bytes at a time: 8192 writes. Moving
        // the unsent tail after each (the old `drain(..n)`) is 16 GB of
        // memmove; the cursor moves each byte at most once.
        let reply: Vec<u8> = (0..4 << 20).map(|i| (i % 253) as u8).collect();
        let mut out = SendBuf::default();
        out.tail().extend_from_slice(&reply);
        let mut dst = Sip { taken: Vec::new(), step: 512 };
        let mut writes = 0;
        while out.pending() > 0 {
            assert!(out.write_to(&mut dst).unwrap() > 0);
            writes += 1;
            assert!(
                out.buf.len() <= 2 * out.pending(),
                "after {writes} writes the queue holds {} bytes for {} pending",
                out.buf.len(),
                out.pending()
            );
            // A second reply queued mid-flush goes out after the first.
            if writes == 100 {
                out.tail().extend_from_slice(b"second reply");
            }
        }
        assert_eq!(writes, (4 << 20) / 512 + 1);
        assert_eq!(&dst.taken[..reply.len()], &reply[..]);
        assert_eq!(&dst.taken[reply.len()..], b"second reply", "in order, nothing lost");
        assert_eq!(out.buf.len(), 0, "emptied once everything is out");
    }
}
