//! A bounded in-process duplex byte transport.
//!
//! [`duplex`] returns two connected stream ends, each implementing
//! blocking [`Read`]/[`Write`] over a pair of capacity-bounded byte
//! pipes. The bound is the backpressure mechanism the daemon's memory
//! contract rests on: a writer facing a full pipe **blocks** (it does
//! not grow a buffer), exactly like a full socket send buffer, so a
//! slow reader throttles its peer instead of ballooning it. Tests
//! observe the bound directly via [`DuplexStream::peer_buffered`].
//!
//! This is the test and bench transport; production connections use
//! Unix sockets, which have the same blocking-write shape.

use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};

/// One direction's shared state: a bounded byte queue plus closed
/// flags for each side.
struct PipeState {
    buf: std::collections::VecDeque<u8>,
    capacity: usize,
    /// The write end dropped: readers drain what is left, then EOF.
    write_closed: bool,
    /// The read end dropped: writers fail with `BrokenPipe`.
    read_closed: bool,
}

struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
    writable: Condvar,
}

impl Pipe {
    fn new(capacity: usize) -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                buf: std::collections::VecDeque::new(),
                capacity: capacity.max(1),
                write_closed: false,
                read_closed: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
        })
    }

    fn write(&self, mut bytes: &[u8]) -> io::Result<usize> {
        let total = bytes.len();
        let mut state = self.state.lock().unwrap();
        while !bytes.is_empty() {
            if state.read_closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "peer closed its read end",
                ));
            }
            let room = state.capacity - state.buf.len();
            if room == 0 {
                state = self.writable.wait(state).unwrap();
                continue;
            }
            let n = room.min(bytes.len());
            state.buf.extend(&bytes[..n]);
            bytes = &bytes[n..];
            self.readable.notify_all();
        }
        Ok(total)
    }

    fn read(&self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut state = self.state.lock().unwrap();
        loop {
            if !state.buf.is_empty() {
                let n = out.len().min(state.buf.len());
                let (front, back) = state.buf.as_slices();
                let split = n.min(front.len());
                out[..split].copy_from_slice(&front[..split]);
                out[split..n].copy_from_slice(&back[..n - split]);
                state.buf.drain(..n);
                self.writable.notify_all();
                return Ok(n);
            }
            if state.write_closed {
                return Ok(0);
            }
            state = self.readable.wait(state).unwrap();
        }
    }

    fn close(&self, write_end: bool) {
        let mut state = self.state.lock().unwrap();
        if write_end {
            state.write_closed = true;
        } else {
            state.read_closed = true;
        }
        self.readable.notify_all();
        self.writable.notify_all();
    }

    fn buffered(&self) -> usize {
        self.state.lock().unwrap().buf.len()
    }
}

/// One end of an in-process duplex connection.
///
/// Dropping the stream closes both directions for this end: the peer's
/// reads see EOF once the buffer drains, and the peer's writes fail
/// with `BrokenPipe`.
pub struct DuplexStream {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

impl std::fmt::Debug for DuplexStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DuplexStream")
            .field("rx_buffered", &self.rx.buffered())
            .field("tx_buffered", &self.tx.buffered())
            .finish()
    }
}

impl DuplexStream {
    /// Bytes this end has written that the peer has not yet read — the
    /// observable send-buffer occupancy the backpressure tests bound.
    pub fn peer_buffered(&self) -> usize {
        self.tx.buffered()
    }

    /// Bytes available to read at this end without blocking.
    pub fn buffered(&self) -> usize {
        self.rx.buffered()
    }
}

impl Read for DuplexStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read(buf)
    }
}

impl Write for DuplexStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for DuplexStream {
    fn drop(&mut self) {
        self.tx.close(true);
        self.rx.close(false);
    }
}

/// A connected pair of duplex stream ends, each direction bounded at
/// `capacity` bytes.
pub fn duplex(capacity: usize) -> (DuplexStream, DuplexStream) {
    let a_to_b = Pipe::new(capacity);
    let b_to_a = Pipe::new(capacity);
    (
        DuplexStream {
            rx: Arc::clone(&b_to_a),
            tx: Arc::clone(&a_to_b),
        },
        DuplexStream {
            rx: a_to_b,
            tx: b_to_a,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn bytes_flow_both_ways() {
        let (mut a, mut b) = duplex(16);
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn writer_blocks_at_capacity_instead_of_growing() {
        let (mut a, mut b) = duplex(8);
        let writer = std::thread::spawn(move || {
            a.write_all(&[7u8; 64]).unwrap();
            a
        });
        // The writer can make progress only as the reader drains; the
        // buffered byte count never exceeds the capacity.
        let mut seen = 0usize;
        let mut buf = [0u8; 8];
        while seen < 64 {
            assert!(b.buffered() <= 8, "pipe grew past its capacity");
            let n = b.read(&mut buf).unwrap();
            assert!(n > 0);
            seen += n;
        }
        writer.join().unwrap();
    }

    #[test]
    fn reads_copy_across_the_ring_wrap_point() {
        let (mut a, mut b) = duplex(8);
        a.write_all(b"abcdef").unwrap();
        let mut four = [0u8; 4];
        b.read_exact(&mut four).unwrap();
        assert_eq!(&four, b"abcd");
        // Six more bytes land behind the two still buffered, so a ring
        // of capacity 8 wraps and the next read spans both halves.
        a.write_all(b"ghijkl").unwrap();
        let wrapped = !b.rx.state.lock().unwrap().buf.as_slices().1.is_empty();
        assert!(wrapped, "the buffered bytes must straddle the wrap point");
        let mut eight = [0u8; 8];
        assert_eq!(b.read(&mut eight).unwrap(), 8);
        assert_eq!(&eight, b"efghijkl");
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn drop_signals_eof_and_broken_pipe() {
        let (mut a, mut b) = duplex(8);
        a.write_all(b"xy").unwrap();
        drop(a);
        let mut buf = Vec::new();
        b.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"xy");
        assert_eq!(
            b.write_all(b"z").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
    }
}
