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
//! out as untouched zero pages for anything large, so making room for
//! the rest of an 8 MB request costs no memset.
//!
//! How far it grows is the peer's to say only in proportion to what the
//! peer has sent: a declared length ([`RecvBuf::declare`] — the frame
//! header, `Content-Length`) is reserved in one allocation once a
//! sixteenth of it has arrived, and the buffer doubles until then. A
//! peer that declares 256 MB in a 24-byte header holds 64 KB for it.

use std::io::{self, Read, Write};

/// Smallest growth step, and how far past its budget a gateway
/// connection may read in one go.
pub(crate) const READ_CHUNK: usize = 64 << 10;

/// The share of a declared length that must have arrived before the
/// whole of it is reserved: 8 MB are believed at 512 KB, at the price
/// of the doubling steps (≤ 1 MB copied in all) up to there.
const DECLARED_TRUST: usize = 16;

/// Bytes received and not yet consumed, at the front of an initialised
/// allocation.
#[derive(Default)]
pub(crate) struct RecvBuf {
    buf: Vec<u8>,
    len: usize,
    /// How long the message at the front says it is in all (0 while it
    /// has not said).
    declared: usize,
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
        self.declared = 0;
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.declared = 0;
    }

    /// Notes that the message at the front declares itself `total`
    /// bytes long in all — its frame header or `Content-Length` is in.
    /// The caller bounds `total`; how soon it is believed is
    /// [`RecvBuf::read_from`]'s business.
    pub(crate) fn declare(&mut self, total: usize) {
        self.declared = total;
    }

    fn grow_to(&mut self, room: usize) {
        let mut grown = vec![0u8; room];
        grown[..self.len].copy_from_slice(self.data());
        self.buf = grown;
    }

    /// One `read` from `src` into the room behind the data, at most
    /// `limit` bytes. A full allocation grows first: to the declared
    /// length at once when 1/[`DECLARED_TRUST`] of it has arrived,
    /// otherwise to twice its size.
    ///
    /// # Errors
    ///
    /// Whatever `src.read` returns (`WouldBlock` included); the buffer
    /// is unchanged then.
    pub(crate) fn read_from(&mut self, mut src: impl Read, limit: usize) -> io::Result<usize> {
        if self.len == self.buf.len() {
            let doubled = (self.len * 2).max(READ_CHUNK);
            let believed = self.len >= self.declared / DECLARED_TRUST;
            self.grow_to(if believed { doubled.max(self.declared) } else { doubled });
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
        let message = vec![9u8; 2 << 20];
        // A header's worth has arrived and it declares 2 MB (and, to
        // make the point, 256 MB): until a sixteenth of *that* is in,
        // room stays what the bytes have earned.
        for declared in [2 << 20, 256 << 20] {
            let mut src = Trickle { bytes: &message, step: usize::MAX };
            let mut buf = RecvBuf::default();
            assert_eq!(buf.read_from(&mut src, 100).unwrap(), 100, "limit respected");
            buf.declare(declared);
            while buf.len() < (2 << 20) / DECLARED_TRUST {
                buf.read_from(&mut src, 30_000).unwrap();
                assert!(
                    buf.buf.len() <= (2 * buf.len()).max(READ_CHUNK),
                    "{} bytes of room for {} received",
                    buf.buf.len(),
                    buf.len()
                );
            }
        }
        let mut src = Trickle { bytes: &message, step: usize::MAX };
        let mut buf = RecvBuf::default();
        // A sixteenth in, the next growth is the last one.
        buf.declare(2 << 20);
        while buf.len() < 2 << 20 {
            buf.read_from(&mut src, 50_000).unwrap();
            if buf.len() > 2 * (2 << 20) / DECLARED_TRUST {
                assert_eq!(buf.buf.len(), 2 << 20, "reserved in one step, never beyond");
            }
        }
        assert_eq!(buf.data(), &message[..]);
        // Consuming the message forgets its declaration.
        buf.consume(2 << 20);
        assert_eq!(buf.declared, 0);
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
