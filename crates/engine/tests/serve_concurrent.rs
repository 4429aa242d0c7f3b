//! The concurrent serve front-end end-to-end over real localhost
//! sockets: connection isolation, dropped connections, graceful drain,
//! and thread-count-invariant responses. Connection faults (truncated
//! and oversized frames, stalls, panics, busy storms) live in the
//! wire-fault catalogue in `src/serve/harness.rs`, whose unit test
//! injects every class against a live server.

use pdip_engine::chaos::Mutator;
use pdip_engine::{
    decode_response, read_frame, spawn_server, write_frame, Gate, Response, ServeConfig, Status,
    YesInstance,
};
use pdip_engine::{Family, E13_SEED};
use pdip_protocols::{PopParams, Transport};
use pdip_wire::WireInstance;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const REQ_VERIFY: u8 = 0x01;
const REQ_PING: u8 = 0x02;
const REQ_SHUTDOWN: u8 = 0x7f;

fn honest_blob(seed: u64) -> Vec<u8> {
    let inst = match YesInstance::generate(Family::PathOuterplanar, 16, seed) {
        YesInstance::Pop(i) => WireInstance::Pop(i),
        _ => unreachable!(),
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

fn connect(port: u16) -> TcpStream {
    let s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    s
}

fn send_verify(s: &mut TcpStream, blob: &[u8]) {
    let mut f = Vec::with_capacity(1 + blob.len());
    f.push(REQ_VERIFY);
    f.extend_from_slice(blob);
    write_frame(s, &f).expect("send verify");
    s.flush().expect("flush");
}

/// Reads exactly `n` responses, sorted by seq.
fn read_n(s: &mut TcpStream, n: usize) -> Vec<Response> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let p = read_frame(s).expect("recv frame").unwrap_or_else(|| panic!("EOF at response {i}"));
        out.push(decode_response(&p).expect("decodable response"));
    }
    out.sort_by_key(|r| r.seq);
    out
}

/// One ping round trip on `s`: the pong must come back before the
/// next request is sent.
fn ping(s: &mut TcpStream) {
    write_frame(s, &[REQ_PING]).expect("send ping");
    s.flush().expect("flush");
    let p = read_frame(s).expect("recv").expect("pong frame");
    assert_eq!(decode_response(&p).expect("decodes").status, Status::Pong);
}

fn small_cfg() -> ServeConfig {
    ServeConfig { threads: 2, queue_cap: 32, deadline: None, ..ServeConfig::default() }
}

#[test]
fn two_connections_each_get_their_own_answers() {
    let server = spawn_server(small_cfg()).expect("spawn");
    let good = honest_blob(1);
    let mut bad = good.clone();
    bad.truncate(bad.len() / 2);

    let mut a = connect(server.port());
    let mut b = connect(server.port());
    // Interleave submissions across the two connections; each has its
    // own seq space and must get exactly its own verdicts back.
    send_verify(&mut a, &good);
    send_verify(&mut b, &bad);
    send_verify(&mut a, &bad);
    send_verify(&mut b, &good);
    let ra = read_n(&mut a, 2);
    let rb = read_n(&mut b, 2);
    assert_eq!(ra[0].status, Status::Accept);
    assert_eq!(ra[1].status, Status::Malformed);
    assert_eq!(rb[0].status, Status::Malformed);
    assert_eq!(rb[1].status, Status::Accept);
    drop((a, b));
    let stats = server.stop().expect("clean stop");
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.malformed, 2);
    assert_eq!(stats.connections, 2);
    assert_eq!(stats.conn_faults, 0);
}

#[test]
fn connection_drop_mid_response_leaves_others_unharmed() {
    let server = spawn_server(small_cfg()).expect("spawn");
    let good = honest_blob(2);

    // The dropper submits work and vanishes without reading anything.
    let mut dropper = connect(server.port());
    for _ in 0..4 {
        send_verify(&mut dropper, &good);
    }
    drop(dropper);

    // The victim's full round-trip proves the serving threads recycled.
    let mut victim = connect(server.port());
    for _ in 0..3 {
        send_verify(&mut victim, &good);
    }
    let rv = read_n(&mut victim, 3);
    assert!(rv.iter().all(|r| r.status == Status::Accept), "victim must see only accepts");
    drop(victim);

    let stats = server.stop().expect("server must survive a mid-response drop");
    // Every submitted request was verified even though the dropper's
    // responses had nowhere to go.
    assert_eq!(stats.accepted, 7);
}

#[test]
fn graceful_drain_answers_every_accepted_request() {
    let gate = Gate::closed();
    let cfg = ServeConfig {
        threads: 2,
        queue_cap: 16,
        deadline: None,
        drain_deadline: Duration::from_secs(10),
        hold: Some(gate.clone()),
        ..ServeConfig::default()
    };
    let server = spawn_server(cfg).expect("spawn");
    let blob = honest_blob(7);
    let mut s = connect(server.port());
    for _ in 0..4 {
        send_verify(&mut s, &blob);
    }
    write_frame(&mut s, &[REQ_SHUTDOWN]).expect("send shutdown");
    s.flush().expect("flush");
    // Workers are held, so the ack arrives before any verdict.
    let first = read_frame(&mut s).expect("recv").expect("ack frame");
    assert_eq!(decode_response(&first).expect("decodes").status, Status::ShutdownAck);
    gate.open();
    // All four queued verdicts, then the final stats frame.
    let mut accepts = 0;
    let mut stats_frame = None;
    for _ in 0..5 {
        let p = read_frame(&mut s).expect("recv").expect("frame");
        let r = decode_response(&p).expect("decodes");
        match r.status {
            Status::Accept => accepts += 1,
            Status::Stats => stats_frame = Some(r),
            other => panic!("unexpected {} during drain", other.name()),
        }
    }
    assert_eq!(accepts, 4, "drain must answer every accepted request");
    let stats_frame = stats_frame.expect("final stats frame");
    assert_eq!(stats_frame.seq, u64::MAX);
    assert!(stats_frame.detail.contains("drained=ok"), "got {:?}", stats_frame.detail);
    assert!(stats_frame.detail.contains("accept=4"));
    let stats = server.stop().expect("clean stop");
    assert_eq!(stats.accepted, 4);
}

#[test]
fn responses_are_identical_at_one_and_four_workers() {
    // A deterministic mixed batch (honest, corrupted, unknown-tag) per
    // thread count; seq-sorted response records must match exactly.
    let run = |threads: usize| -> Vec<(u64, u8, String)> {
        let cfg = ServeConfig { threads, queue_cap: 64, deadline: None, ..ServeConfig::default() };
        let server = spawn_server(cfg).expect("spawn");
        let mut s = connect(server.port());
        let mut m = Mutator::new(E13_SEED ^ 0x1234);
        for k in 0..12u64 {
            let mut blob = honest_blob(k % 3);
            if k % 4 == 3 {
                let i = m.index(blob.len());
                blob[i] ^= 1 << m.index(8);
            }
            send_verify(&mut s, &blob);
        }
        let out =
            read_n(&mut s, 12).into_iter().map(|r| (r.seq, r.status.code(), r.detail)).collect();
        drop(s);
        server.stop().expect("clean stop");
        out
    };
    assert_eq!(run(1), run(4));
}

// Latency guards. The test client leaves Nagle on, so these time the
// server's own transport: a split header/payload response write stalls
// on the client's delayed ACK (~44 ms per round trip), and a polling
// accept loop delays every new connection's first frame (~5 ms).

#[test]
fn sequential_pings_on_one_connection_do_not_wait_on_acks() {
    let server = spawn_server(small_cfg()).expect("spawn");
    let mut s = connect(server.port());
    let started = Instant::now();
    for _ in 0..40 {
        ping(&mut s);
    }
    let took = started.elapsed();
    drop(s);
    server.stop().expect("clean stop");
    assert!(took < Duration::from_millis(200), "40 sequential pings took {took:?}");
}

#[test]
fn first_frame_on_a_fresh_connection_is_answered_at_once() {
    let server = spawn_server(small_cfg()).expect("spawn");
    let started = Instant::now();
    for _ in 0..40 {
        ping(&mut connect(server.port()));
    }
    let took = started.elapsed();
    let stats = server.stop().expect("clean stop");
    assert_eq!(stats.connections, 40);
    assert!(took < Duration::from_millis(100), "40 fresh-connection pings took {took:?}");
}

#[test]
fn stop_wakes_an_idle_server_that_never_had_a_connection() {
    let server = spawn_server(small_cfg()).expect("spawn");
    let started = Instant::now();
    let stats = server.stop().expect("clean stop");
    let took = started.elapsed();
    assert_eq!(stats.connections, 0, "the wake-up connection is not served");
    assert!(took < Duration::from_secs(1), "stop took {took:?}");
}
