//! Length-prefixed frame I/O for the verification service.
//!
//! A frame is `len u32 (little-endian) | payload`. The reader enforces
//! two hardening bounds so a hostile or broken peer can never pin a
//! serving thread or size an allocation:
//!
//! * **Frame-size cap.** `len` is checked against a caller-supplied
//!   limit *before* the payload buffer is allocated
//!   ([`read_frame_limited`]); the default cap is
//!   [`DEFAULT_MAX_FRAME_BYTES`].
//! * **Per-frame read deadline.** [`read_frame_deadline`] bounds the
//!   *total* wall time one frame may take to arrive. Combined with a
//!   socket read timeout (which wakes blocked reads), this defeats both
//!   the fully stalled peer and the slow-loris drip that feeds one byte
//!   per timeout window: progress does not reset the frame's clock.
//!
//! Every failure is a structured [`std::io::Error`] whose kind maps
//! onto a stable fault class via [`fault_class`] — the concurrent
//! server uses these classes to answer the peer (best-effort) and to
//! account per-connection faults without ever tearing down unrelated
//! connections.

use std::io::{Error, ErrorKind, Read, Write};
use std::time::{Duration, Instant};

/// Default hard cap on one frame's payload (64 MiB) — the value the
/// serve front-end has used since the E12 artifacts were committed.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 26;

/// Reads one `len u32 | payload` frame under the default frame-size
/// cap; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(input: &mut dyn Read) -> std::io::Result<Option<Vec<u8>>> {
    read_frame_limited(input, DEFAULT_MAX_FRAME_BYTES)
}

/// [`read_frame`] with an explicit frame-size cap: a header declaring
/// more than `max_frame_bytes` is rejected with
/// [`ErrorKind::InvalidData`] before any payload allocation.
pub fn read_frame_limited(
    input: &mut dyn Read,
    max_frame_bytes: usize,
) -> std::io::Result<Option<Vec<u8>>> {
    read_frame_deadline(input, max_frame_bytes, None)
}

/// [`read_frame_limited`] with a per-frame read deadline on the whole
/// frame (header and payload together).
///
/// The deadline needs the underlying transport to wake blocked reads —
/// on a [`std::net::TcpStream`], set a read timeout of (at most) the
/// same duration. Timeouts classify in two ways:
///
/// * [`ErrorKind::WouldBlock`]: the peer sent *nothing* — an idle
///   connection that outlived the deadline (`fault_class`:
///   `idle-timeout`).
/// * [`ErrorKind::TimedOut`]: the peer stalled or dripped bytes
///   *mid-frame* (`fault_class`: `read-stall`).
pub fn read_frame_deadline(
    input: &mut dyn Read,
    max_frame_bytes: usize,
    deadline: Option<Duration>,
) -> std::io::Result<Option<Vec<u8>>> {
    let started = deadline.map(|_| Instant::now());
    let overdue = |started: &Option<Instant>| match (started, deadline) {
        (Some(t0), Some(d)) => t0.elapsed() > d,
        _ => false,
    };
    let stall = || Error::new(ErrorKind::TimedOut, "frame read exceeded the per-frame deadline");

    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match input.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(Error::new(ErrorKind::UnexpectedEof, "truncated frame header")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && filled == 0 => {
                return Err(Error::new(
                    ErrorKind::WouldBlock,
                    "idle connection: no frame within the read deadline",
                ))
            }
            Err(e) if is_timeout(&e) => return Err(stall()),
            Err(e) => return Err(e),
        }
        if overdue(&started) {
            return Err(stall());
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_frame_bytes {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {max_frame_bytes}"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match input.read(&mut payload[filled..]) {
            Ok(0) => return Err(Error::new(ErrorKind::UnexpectedEof, "truncated frame payload")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err(stall()),
            Err(e) => return Err(e),
        }
        if overdue(&started) {
            return Err(stall());
        }
    }
    Ok(Some(payload))
}

/// Writes one `len u32 | payload` frame with a single `write_all`.
///
/// Header and payload go out in one buffer, so a small frame leaves as
/// one TCP segment: a split header write would hold the payload behind
/// Nagle until the peer's delayed ACK (tens of milliseconds per
/// request-response round trip). A payload too long for the `u32`
/// length prefix is [`ErrorKind::InvalidInput`] and writes nothing.
pub fn write_frame(output: &mut dyn Write, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&frame_header(payload.len())?);
    frame.extend_from_slice(payload);
    output.write_all(&frame)
}

/// The little-endian length prefix of a `len`-byte payload.
fn frame_header(len: usize) -> std::io::Result<[u8; 4]> {
    u32::try_from(len).map(u32::to_le_bytes).map_err(|_| {
        Error::new(
            ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds the u32 length prefix"),
        )
    })
}

/// Whether an I/O error is a read-timeout wakeup (platforms disagree on
/// the kind a timed-out socket read reports).
fn is_timeout(e: &Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// The stable per-connection fault classes, spelled exactly once.
///
/// These strings appear in `ConnError` response details, per-connection
/// observability counters, metrics label values, and the E13/E14
/// artifacts — they are part of the serve contract, not free-form
/// messages. Everything that matches on or renders a fault class must
/// name these constants so the spellings cannot drift.
pub mod fault {
    /// Peer closed mid-frame: header or payload cut short.
    pub const TRUNCATED_FRAME: &str = "truncated-frame";
    /// Declared frame length exceeds the configured cap.
    pub const OVERSIZED_FRAME: &str = "oversized-frame";
    /// No frame arrived at all within the read deadline.
    pub const IDLE_TIMEOUT: &str = "idle-timeout";
    /// Bytes stopped (or dripped too slowly) mid-frame.
    pub const READ_STALL: &str = "read-stall";
    /// Connection reset/aborted or pipe broken by the peer.
    pub const PEER_RESET: &str = "peer-reset";
    /// Any other I/O failure.
    pub const IO_ERROR: &str = "io-error";

    /// Every fault class, in the order counters are pre-registered.
    pub const ALL: [&str; 6] =
        [TRUNCATED_FRAME, OVERSIZED_FRAME, IDLE_TIMEOUT, READ_STALL, PEER_RESET, IO_ERROR];
}

/// The stable per-connection fault class of a frame-read error — one
/// of the [`fault`] constants.
pub fn fault_class(kind: ErrorKind) -> &'static str {
    match kind {
        ErrorKind::UnexpectedEof => fault::TRUNCATED_FRAME,
        ErrorKind::InvalidData => fault::OVERSIZED_FRAME,
        ErrorKind::WouldBlock => fault::IDLE_TIMEOUT,
        ErrorKind::TimedOut => fault::READ_STALL,
        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe => {
            fault::PEER_RESET
        }
        _ => fault::IO_ERROR,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_and_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn header_refuses_lengths_past_u32() {
        assert_eq!(frame_header(0x0102_0304).unwrap(), [4, 3, 2, 1]);
        assert_eq!(frame_header(u32::MAX as usize).unwrap(), [0xff; 4]);
        let err = frame_header(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
    }

    /// A writer that records the length of every `write` call.
    #[derive(Default)]
    struct Calls(Vec<usize>);

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_write_call_per_frame() {
        for len in [0, 1, 4096] {
            let mut out = Calls::default();
            write_frame(&mut out, &vec![5u8; len]).unwrap();
            assert_eq!(out.0, [4 + len], "payload of {len} bytes");
        }
    }

    #[test]
    fn oversized_length_is_invalid_data_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame_limited(&mut Cursor::new(buf), 1024).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert_eq!(fault_class(err.kind()), "oversized-frame");
    }

    #[test]
    fn cap_is_exact() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[7u8; 16]).unwrap();
        assert!(read_frame_limited(&mut Cursor::new(buf.clone()), 16).unwrap().is_some());
        assert_eq!(
            read_frame_limited(&mut Cursor::new(buf), 15).unwrap_err().kind(),
            ErrorKind::InvalidData
        );
    }

    #[test]
    fn truncated_header_and_payload_are_unexpected_eof() {
        let mut full = Vec::new();
        write_frame(&mut full, b"abcdef").unwrap();
        for cut in 1..full.len() {
            let err = read_frame(&mut Cursor::new(&full[..cut])).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "cut at {cut}");
            assert_eq!(fault_class(err.kind()), "truncated-frame");
        }
    }

    /// A reader that yields some bytes, then reports a socket-style
    /// timeout on every further read.
    struct StallAfter {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for StallAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos < self.data.len() {
                let n = buf.len().min(self.data.len() - self.pos).min(1);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            } else {
                Err(Error::new(ErrorKind::WouldBlock, "socket read timeout"))
            }
        }
    }

    #[test]
    fn idle_timeout_and_mid_frame_stall_classify_differently() {
        // Nothing sent at all: idle-timeout.
        let mut idle = StallAfter { data: vec![], pos: 0 };
        let err = read_frame_deadline(&mut idle, 1024, Some(Duration::from_secs(1))).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
        assert_eq!(fault_class(err.kind()), "idle-timeout");

        // Half a header then silence: read-stall.
        let mut stall = StallAfter { data: vec![4, 0], pos: 0 };
        let err = read_frame_deadline(&mut stall, 1024, Some(Duration::from_secs(1))).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert_eq!(fault_class(err.kind()), "read-stall");

        // Header delivered, payload stalls: read-stall.
        let mut body = StallAfter { data: vec![4, 0, 0, 0, b'x'], pos: 0 };
        let err = read_frame_deadline(&mut body, 1024, Some(Duration::from_secs(1))).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
    }

    /// A reader that drips one byte per call, never erroring — models a
    /// slow-loris peer against a transport whose per-read timeout never
    /// fires because each read makes progress.
    struct Drip {
        data: Vec<u8>,
        pos: usize,
        delay: Duration,
    }

    impl Read for Drip {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            std::thread::sleep(self.delay);
            if self.pos < self.data.len() && !buf.is_empty() {
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            } else {
                Ok(0)
            }
        }
    }

    #[test]
    fn drip_feeding_cannot_outlive_the_frame_deadline() {
        let mut frame = Vec::new();
        write_frame(&mut frame, &[9u8; 64]).unwrap();
        let mut drip = Drip { data: frame, pos: 0, delay: Duration::from_millis(5) };
        let err =
            read_frame_deadline(&mut drip, 1024, Some(Duration::from_millis(20))).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut, "total-elapsed check must fire mid-frame");
    }

    #[test]
    fn no_deadline_means_no_clock() {
        let mut frame = Vec::new();
        write_frame(&mut frame, &[9u8; 8]).unwrap();
        let mut drip = Drip { data: frame, pos: 0, delay: Duration::from_millis(1) };
        let got = read_frame_deadline(&mut drip, 1024, None).unwrap().unwrap();
        assert_eq!(got, vec![9u8; 8]);
    }
}
