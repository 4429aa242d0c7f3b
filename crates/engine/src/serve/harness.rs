//! Client-side helpers that drive a live server: the one copy shared by
//! the E12 smoke, the E13 chaos audit and the E14 observability audit.

use super::{
    decode_response, read_frame, smoke_requests, spawn_server, write_frame, Gate, Response,
    ServeConfig, ServeStats, ServerHandle, REQ_VERIFY,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Connects to a local server, with a read timeout so a wedged server
/// fails the audit instead of hanging it.
pub(crate) fn connect(port: u16) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(("127.0.0.1", port))?;
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
/// reads the queued verdicts. Returns `(early, late)`, each sorted by
/// seq.
pub(crate) fn held_storm(
    port: u16,
    gate: &Gate,
    queue_cap: usize,
    blobs: &[Vec<u8>],
) -> Result<(Vec<Response>, Vec<Response>), String> {
    let queued = queue_cap.min(blobs.len());
    let mut s = connect(port).map_err(|e| format!("connect: {e}"))?;
    send_verifies(&mut s, blobs)?;
    let early = read_responses(&mut s, blobs.len() - queued)?;
    gate.open();
    let late = read_responses(&mut s, queued)?;
    Ok((early, late))
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
