//! Client-side helpers that drive a live server: the one copy shared by
//! the E12 smoke, the E13 chaos audit and the E14 observability audit.
//!
//! It also holds the wire-fault catalogue ([`CATALOGUE`]), the only
//! place connection-level faults are written: one [`WireFault`] per
//! class, each with its server-config tweak, its injection on one
//! connection (driven by a chaos [`Mutator`]), the client-side response
//! it expects, and the server-side effect it must leave (the
//! `pdip_wire::frame::fault::ALL` class it counts as, panics, busy
//! rejections). E13 runs every entry; E14 runs every entry with a
//! server-side effect and derives its expected counters from the table.

use super::{
    decode_response, panic_blob, read_frame, smoke_requests, spawn_server, write_frame, Gate,
    Response, ServeConfig, ServeStats, ServerHandle, Status, REQ_SHUTDOWN, REQ_VERIFY,
};
use crate::chaos::Mutator;
use crate::seed::sub_seed;
use pdip_wire::frame::fault;
use std::io::Write;
use std::iter::repeat_n;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Connects to a local server with `TCP_NODELAY`, and with a read
/// timeout so a wedged server fails the audit instead of hanging it.
pub(crate) fn connect(port: u16) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(("127.0.0.1", port))?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(s)
}

/// The request payload asking the server to verify `blob`.
pub(crate) fn verify_frame(blob: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(1 + blob.len());
    f.push(REQ_VERIFY);
    f.extend_from_slice(blob);
    f
}

/// Writes one verify frame per blob, then flushes.
pub(crate) fn send_verifies<B: AsRef<[u8]>>(
    stream: &mut TcpStream,
    blobs: impl IntoIterator<Item = B>,
) -> Result<(), String> {
    for blob in blobs {
        write_frame(stream, &verify_frame(blob.as_ref())).map_err(|e| format!("send: {e}"))?;
    }
    stream.flush().map_err(|e| format!("flush: {e}"))
}

/// Reads exactly `n` response frames and returns them sorted by seq.
pub(crate) fn read_responses(stream: &mut TcpStream, n: usize) -> Result<Vec<Response>, String> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        match read_frame(stream) {
            Ok(Some(p)) => match decode_response(&p) {
                Some(r) => out.push(r),
                None => return Err(format!("undecodable response frame {i}")),
            },
            Ok(None) => return Err(format!("EOF after {i}/{n} responses")),
            Err(e) => return Err(format!("recv {i}/{n}: {e}")),
        }
    }
    out.sort_by_key(|r| r.seq);
    Ok(out)
}

/// A small honest transcript blob (accepts under replay).
pub(crate) fn honest_blob(seed: u64) -> Vec<u8> {
    use crate::family::{Family, YesInstance};
    use pdip_protocols::{PopParams, Transport};
    use pdip_wire::WireInstance;
    let inst = match YesInstance::generate(Family::PathOuterplanar, 16, seed) {
        YesInstance::Pop(i) => WireInstance::Pop(i),
        _ => unreachable!("PathOuterplanar generates Pop"),
    };
    pdip_wire::Transcript::record(
        inst,
        PopParams::default(),
        Transport::Simulated,
        0,
        seed,
        seed ^ 1,
    )
    .encode()
}

/// Busy storm against a server whose workers are held on `gate`:
/// streams `blobs` over one connection, reads the busy answers for
/// everything past the server's `queue_cap`, then opens the gate and
/// reads the queued verdicts. Returns the busy answers, then the
/// verdicts, each part sorted by seq.
pub(crate) fn held_storm(
    port: u16,
    gate: &Gate,
    queue_cap: usize,
    blobs: &[Vec<u8>],
) -> Result<Vec<Response>, String> {
    let queued = queue_cap.min(blobs.len());
    let mut s = connect(port).map_err(|e| format!("connect: {e}"))?;
    send_verifies(&mut s, blobs)?;
    let mut responses = read_responses(&mut s, blobs.len() - queued)?;
    gate.open();
    responses.extend(read_responses(&mut s, queued)?);
    Ok(responses)
}

/// Runs `n` honest requests on their own connection; returns how many
/// were accepted.
pub(crate) fn honest_roundtrip(port: u16, n: usize, seed: u64) -> Result<u64, String> {
    let blob = honest_blob(seed);
    let mut s = connect(port).map_err(|e| format!("connect: {e}"))?;
    send_verifies(&mut s, repeat_n(&blob, n))?;
    let responses = read_responses(&mut s, n)?;
    Ok(responses.iter().filter(|r| r.status == Status::Accept).count() as u64)
}

/// Sends [`REQ_SHUTDOWN`] and reads the graceful shutdown to EOF. The
/// first frame back must be the shutdown ack; `after_ack` runs once it
/// has arrived (a server with held workers opens its gate there).
/// Returns the verdicts that followed the ack and the detail of the
/// final stats frame (empty if none arrived).
pub(crate) fn shutdown_and_drain(
    stream: &mut TcpStream,
    after_ack: impl FnOnce(),
) -> Result<(Vec<Response>, String), String> {
    write_frame(stream, &[REQ_SHUTDOWN])
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send shutdown: {e}"))?;
    let ack = read_responses(stream, 1)?.remove(0);
    if ack.status != Status::ShutdownAck {
        return Err(format!("expected shutdown-ack first, got {}", ack.status.name()));
    }
    after_ack();
    let mut verdicts = Vec::new();
    let mut stats = String::new();
    loop {
        match read_frame(stream) {
            Ok(Some(p)) => match decode_response(&p) {
                Some(r) if r.status == Status::Stats => stats = r.detail,
                Some(r) => verdicts.push(r),
                None => return Err("undecodable frame during drain".into()),
            },
            Ok(None) => return Ok((verdicts, stats)),
            Err(e) => return Err(format!("recv during drain: {e}")),
        }
    }
}

/// One live server that has answered the whole E12 request mix.
pub(crate) struct MixSession {
    pub(crate) server: ServerHandle,
    /// The connection the mix was streamed over, still open.
    pub(crate) conn: TcpStream,
    /// One response per request, sorted by seq.
    pub(crate) responses: Vec<Response>,
    /// Wall time from the first request sent to the last response read.
    pub(crate) elapsed: Duration,
}

/// Spawns a server on `cfg`, its queue sized to hold the whole E12
/// request mix (so nothing is busy), and streams the mix over one
/// connection.
pub(crate) fn stream_mix(base_seed: u64, cfg: ServeConfig) -> Result<MixSession, String> {
    let requests = smoke_requests(base_seed);
    let cfg = ServeConfig { queue_cap: requests.len().max(1), ..cfg };
    let server = spawn_server(cfg).map_err(|e| format!("spawn: {e}"))?;
    let mut conn = connect(server.port()).map_err(|e| format!("connect: {e}"))?;
    let started = Instant::now();
    send_verifies(&mut conn, requests.iter().map(|(_, blob)| blob))?;
    let responses = read_responses(&mut conn, requests.len())?;
    Ok(MixSession { server, conn, responses, elapsed: started.elapsed() })
}

/// Streams the E12 mix through a fresh server at `threads` workers and
/// returns the timing-free response records (`seq=… status=… detail=…`,
/// seq-sorted) and the server's final stats.
pub(crate) fn mix_records(
    base_seed: u64,
    threads: usize,
) -> Result<(Vec<String>, ServeStats), String> {
    let mix =
        stream_mix(base_seed, ServeConfig { threads, deadline: None, ..ServeConfig::default() })?;
    drop(mix.conn);
    let stats = mix.server.stop().map_err(|e| format!("stop: {e}"))?;
    let lines = mix
        .responses
        .iter()
        .map(|r| {
            let detail = if r.detail.is_empty() { "-" } else { r.detail.as_str() };
            format!("seq={:03} status={} detail={}", r.seq, r.status.name(), detail)
        })
        .collect();
    Ok((lines, stats))
}

/// Busy storm shape: this many verify requests stream into a queue of
/// [`STORM_QUEUE`] slots whose workers are held.
pub(crate) const STORM_REQUESTS: usize = 12;
/// Queue slots of the busy-storm server.
pub(crate) const STORM_QUEUE: usize = 4;
/// Frame cap of the oversized-length class: far above any honest blob
/// in the audits, far below the default, so the attacker's declaration
/// exceeds it and victims' frames don't.
const FAULT_FRAME_CAP: usize = 1 << 20;
/// The panic-injection token of the panic-blob class.
const PANIC_TOKEN: u64 = 0xdead_beef;

/// One connection-level fault class of the [`CATALOGUE`].
pub(crate) struct WireFault {
    /// Stable class name (the E13 row label).
    pub(crate) name: &'static str,
    /// The class's change to the baseline server configuration.
    tweak: fn(&mut ServeConfig, &Gate),
    /// Injects the fault on one connection; returns the responses the
    /// client read back.
    inject: fn(&mut Shot) -> Result<Vec<Response>, String>,
    /// Whether those responses are the expected structured outcome.
    expect: fn(&[Response]) -> bool,
    /// The `fault::ALL` class the server counts one injection as.
    pub(crate) counts_as: Option<&'static str>,
    /// Worker panics one injection causes.
    pub(crate) panics: u64,
    /// Busy rejections one injection causes.
    pub(crate) busy: u64,
}

/// What one injection works with: the server, its hold gate, the trial
/// seed and a [`Mutator`] over it.
struct Shot<'a> {
    port: u16,
    gate: &'a Gate,
    seed: u64,
    m: Mutator,
}

impl Shot<'_> {
    fn connect(&self) -> Result<TcpStream, String> {
        connect(self.port).map_err(|e| format!("connect: {e}"))
    }
}

/// Writes raw bytes (no framing) and flushes.
fn send_raw(s: &mut TcpStream, bytes: &[u8]) -> Result<(), String> {
    s.write_all(bytes).and_then(|()| s.flush()).map_err(|e| format!("send: {e}"))
}

impl WireFault {
    /// The server configuration this class runs against: the audits'
    /// baseline (two workers, a 64-slot queue, no verify deadline, a
    /// 5 s read deadline) plus the class's tweak.
    pub(crate) fn config(&self, gate: &Gate) -> ServeConfig {
        let mut cfg = ServeConfig {
            threads: 2,
            queue_cap: 64,
            deadline: None,
            read_deadline: Some(Duration::from_secs(5)),
            ..ServeConfig::default()
        };
        (self.tweak)(&mut cfg, gate);
        cfg
    }

    /// Whether the class holds the server's workers on its gate. Its
    /// injection opens the gate, so each injection needs a fresh server,
    /// and the server's verdicts are the injection's own.
    pub(crate) fn holds_workers(&self) -> bool {
        self.config(&Gate::closed()).hold.is_some()
    }

    /// Injects one fault on a fresh connection to `port`, drawing its
    /// randomness from `seed`; returns whether the client saw the
    /// expected structured outcome.
    pub(crate) fn inject(&self, port: u16, gate: &Gate, seed: u64) -> Result<bool, String> {
        let mut shot = Shot { port, gate, seed, m: Mutator::new(seed) };
        Ok((self.expect)(&(self.inject)(&mut shot)?))
    }
}

/// The seed of trial `trial` of catalogue entry `class`.
pub(crate) fn trial_seed(base_seed: u64, class: usize, trial: usize) -> u64 {
    sub_seed(base_seed, (class as u64) * 1000 + trial as u64)
}

/// One structured [`Status::ConnError`] frame of fault class `class`.
fn conn_error(r: &[Response], class: &str) -> bool {
    matches!(r, [e] if e.status == Status::ConnError && e.detail.starts_with(class))
}

/// Every connection-level fault class, in E13 row order.
pub(crate) static CATALOGUE: [WireFault; 7] = [
    WireFault {
        name: "mid-frame-disconnect",
        tweak: |_, _| {},
        inject: mid_frame_disconnect,
        // Nobody is left to answer: confirmation is server-side.
        expect: |r| r.is_empty(),
        counts_as: Some(fault::TRUNCATED_FRAME),
        panics: 0,
        busy: 0,
    },
    WireFault {
        name: "truncated-frame",
        tweak: |_, _| {},
        inject: truncated_frame,
        expect: |r| conn_error(r, fault::TRUNCATED_FRAME),
        counts_as: Some(fault::TRUNCATED_FRAME),
        panics: 0,
        busy: 0,
    },
    WireFault {
        name: "garbage-interleaved",
        tweak: |_, _| {},
        inject: garbage_interleaved,
        expect: |r| {
            matches!(r, [a, b, c, d] if a.status == Status::Accept
                && b.status == Status::Malformed
                && b.detail.contains("unknown request tag")
                && c.status == Status::Malformed
                && d.status == Status::Accept)
        },
        counts_as: None,
        panics: 0,
        busy: 0,
    },
    WireFault {
        name: "stalled-writer",
        tweak: |cfg, _| cfg.read_deadline = Some(Duration::from_millis(80)),
        inject: stalled_writer,
        expect: |r| conn_error(r, fault::READ_STALL),
        counts_as: Some(fault::READ_STALL),
        panics: 0,
        busy: 0,
    },
    WireFault {
        name: "oversized-length",
        tweak: |cfg, _| cfg.max_frame_bytes = FAULT_FRAME_CAP,
        inject: oversized_length,
        expect: |r| conn_error(r, fault::OVERSIZED_FRAME),
        counts_as: Some(fault::OVERSIZED_FRAME),
        panics: 0,
        busy: 0,
    },
    WireFault {
        name: "panic-blob",
        tweak: |cfg, _| cfg.panic_token = Some(PANIC_TOKEN),
        inject: panic_then_honest,
        // The panic poisons only its own request.
        expect: |r| {
            matches!(r, [p, h] if p.status == Status::Malformed
                && p.detail.starts_with("panic:")
                && h.status == Status::Accept)
        },
        counts_as: None,
        panics: 1,
        busy: 0,
    },
    WireFault {
        name: "busy-storm",
        tweak: |cfg, gate| {
            cfg.queue_cap = STORM_QUEUE;
            cfg.hold = Some(gate.clone());
        },
        inject: busy_storm,
        // Busy answers at the over-capacity seqs first, then the queued
        // verdicts: every request is answered.
        expect: |r| {
            let (early, late) = r.split_at(r.len().min(STORM_REQUESTS - STORM_QUEUE));
            early.iter().all(|r| r.status == Status::Busy)
                && early.iter().map(|r| r.seq).eq(STORM_QUEUE as u64..STORM_REQUESTS as u64)
                && late.iter().all(|r| r.status == Status::Accept)
                && late.iter().map(|r| r.seq).eq(0..STORM_QUEUE as u64)
        },
        counts_as: None,
        panics: 0,
        busy: (STORM_REQUESTS - STORM_QUEUE) as u64,
    },
];

/// Partial header, then a hard close.
fn mid_frame_disconnect(shot: &mut Shot) -> Result<Vec<Response>, String> {
    let mut s = shot.connect()?;
    let cut = 1 + shot.m.index(3); // 1..=3 of the 4 header bytes
    send_raw(&mut s, &64u32.to_le_bytes()[..cut])?;
    drop(s);
    // Let the reader observe the EOF before anything else happens (a
    // drain would suppress the classification).
    std::thread::sleep(Duration::from_millis(50));
    Ok(Vec::new())
}

/// Declared length exceeds the bytes sent; the half-close keeps the
/// read side open for the structured answer.
fn truncated_frame(shot: &mut Shot) -> Result<Vec<Response>, String> {
    let mut s = shot.connect()?;
    let declared = 64 + shot.m.index(64);
    let sent = shot.m.index(declared);
    send_raw(&mut s, &(declared as u32).to_le_bytes())?;
    send_raw(&mut s, &vec![0xab; sent])?;
    s.shutdown(Shutdown::Write).map_err(|e| format!("half-close: {e}"))?;
    read_responses(&mut s, 1)
}

/// Honest, unknown-tag, corrupted-blob, honest on one connection:
/// per-request verdicts, no connection fault.
fn garbage_interleaved(shot: &mut Shot) -> Result<Vec<Response>, String> {
    let good = honest_blob(shot.seed ^ 0x60);
    let mut junk = good.clone();
    let (i, j) = shot.m.pair(junk.len());
    junk[i] ^= 0x40;
    junk[j] = junk[j].wrapping_add(1 + shot.m.index(255) as u8);
    junk.truncate(junk.len() - 1 - shot.m.index(junk.len() / 2));
    let mut s = shot.connect()?;
    for frame in [verify_frame(&good), b"foo".to_vec(), verify_frame(&junk), verify_frame(&good)] {
        write_frame(&mut s, &frame).map_err(|e| format!("send: {e}"))?;
    }
    s.flush().map_err(|e| format!("flush: {e}"))?;
    read_responses(&mut s, 4)
}

/// Half a header, then silence past the read deadline.
fn stalled_writer(shot: &mut Shot) -> Result<Vec<Response>, String> {
    let mut s = shot.connect()?;
    let cut = 1 + shot.m.index(3);
    send_raw(&mut s, &32u32.to_le_bytes()[..cut])?;
    std::thread::sleep(Duration::from_millis(300));
    read_responses(&mut s, 1)
}

/// A header declaring more than the frame cap: rejected before any
/// allocation.
fn oversized_length(shot: &mut Shot) -> Result<Vec<Response>, String> {
    let mut s = shot.connect()?;
    let declared = FAULT_FRAME_CAP as u32 + 1 + shot.m.index(FAULT_FRAME_CAP) as u32;
    send_raw(&mut s, &declared.to_le_bytes())?;
    read_responses(&mut s, 1)
}

/// The panic-injection blob, then an honest request on the same
/// connection.
fn panic_then_honest(shot: &mut Shot) -> Result<Vec<Response>, String> {
    let mut s = shot.connect()?;
    send_verifies(&mut s, [panic_blob(PANIC_TOKEN), honest_blob(shot.seed ^ 0x9a)])?;
    read_responses(&mut s, 2)
}

/// [`STORM_REQUESTS`] requests into the held queue: reads the busy
/// answers, opens the gate, reads the queued verdicts.
fn busy_storm(shot: &mut Shot) -> Result<Vec<Response>, String> {
    let blobs = vec![honest_blob(shot.seed ^ 0xb5); STORM_REQUESTS];
    held_storm(shot.port, shot.gate, STORM_QUEUE, &blobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Injects `fault` once against a fresh server on `cfg`, then runs
    /// two honest victim requests; returns `(confirmed, victim accepts,
    /// final stats)`.
    fn run_once(fault: &WireFault, cfg: ServeConfig, gate: &Gate) -> (bool, u64, ServeStats) {
        let server = spawn_server(cfg).expect("spawn");
        let confirmed = fault.inject(server.port(), gate, 0x5eed).expect("inject");
        gate.open();
        let victim = honest_roundtrip(server.port(), 2, 0x71c).expect("victim round trip");
        let stats = server.stop().expect("no panic escapes a server thread");
        (confirmed, victim, stats)
    }

    #[test]
    fn every_catalogue_entry_confirms_its_outcome_and_server_side_effect() {
        for fault in &CATALOGUE {
            let name = fault.name;
            if let Some(class) = fault.counts_as {
                assert!(fault::ALL.contains(&class), "{name}: {class} is not in fault::ALL");
            }
            // The client sees the structured outcome: the fault class
            // prefix, exact busy seqs, a panic that poisons only its own
            // request while the follow-up is accepted.
            let gate = Gate::closed();
            let (confirmed, victim, stats) = run_once(fault, fault.config(&gate), &gate);
            assert!(confirmed, "{name}: structured outcome not confirmed");
            assert_eq!(victim, 2, "{name}: the victim after the fault was not accepted");
            assert_eq!(stats.conn_faults, u64::from(fault.counts_as.is_some()), "{name}");
            assert_eq!(stats.panics, fault.panics, "{name}");
            assert_eq!(stats.busy, fault.busy, "{name}");
        }

        // Negative control: without the server's panic token the panic
        // blob is just a malformed transcript, so nothing confirms.
        let fault = CATALOGUE.iter().find(|f| f.panics > 0).expect("a panic entry");
        let gate = Gate::closed();
        let cfg = ServeConfig { panic_token: None, ..fault.config(&gate) };
        let (confirmed, victim, stats) = run_once(fault, cfg, &gate);
        assert!(!confirmed, "panic-blob confirmed against a server without a panic token");
        assert_eq!(stats.panics, 0);
        assert_eq!(victim, 2);
    }
}
