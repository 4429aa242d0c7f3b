//! The live worker pool of `pdip serve` and its two front-ends.
//!
//! # Connection lifecycle
//!
//! ```text
//! accept ──▶ reader thread ──▶ bounded queue ──▶ shared worker pool
//!               │  per-frame read deadline          │  verify deadline
//!               │  (idle-timeout / read-stall)      │  catch_unwind
//!               ▼                                   ▼
//!         ConnError + close              streamed response (per-conn
//!         (that connection only)         writer mutex keeps frames
//!                                        atomic; clients sort by seq)
//! ```
//!
//! Every front-end feeds the same reader loop into a **single shared
//! worker pool** — concurrency is bounded by [`ServeConfig::threads`]
//! workers and [`ServeConfig::queue_cap`] queued requests no matter how
//! many connections are open. Readers submit with `try_send`: a full
//! queue answers [`Status::Busy`] immediately (backpressure, never
//! blocking the stream).
//!
//! * **TCP** ([`serve_concurrent`]): one blocking accept loop, one
//!   reader thread per socket; responses stream back as each request
//!   completes. Every accepted socket sets `TCP_NODELAY` and every
//!   response is one `write_all` ([`write_frame`]), so no response
//!   waits on Nagle or the peer's delayed ACK, and the reader hands the
//!   request frame to the worker without copying it.
//! * **Pipe** ([`serve_pipe`], `pdip serve --stdin`): one in-process
//!   connection read on the calling thread; its responses are collected
//!   and written sorted by seq once the stream ends.
//!
//! # Failure semantics
//!
//! * A **frame-level fault** (truncated frame, oversized length
//!   declaration, idle timeout, mid-frame stall, peer reset) tears down
//!   *only its own connection*: the reader answers a best-effort
//!   [`Status::ConnError`] frame carrying the stable
//!   [`fault_class`] string, counts the fault, and exits. No other
//!   connection observes anything.
//! * A **worker panic** poisons only its request: the worker answers
//!   [`Status::Malformed`] with a `panic:` detail and keeps serving.
//! * A **failed response write** (peer vanished mid-response) marks the
//!   connection dead and is counted in `io_errors`; the verdict of
//!   every other request is unaffected.
//!
//! # Graceful drain
//!
//! A [`REQ_SHUTDOWN`] frame (or [`ShutdownFlag::request`], which the
//! CLI wires to SIGTERM/SIGINT) stops the accept loop (the request
//! wakes the blocked `accept` with one connection to the listener),
//! read-shuts every open socket (unblocking readers without dropping
//! data already queued), waits up to [`ServeConfig::drain_deadline`]
//! for in-flight requests to finish, and sends a final
//! [`Status::Stats`] frame (`seq = u64::MAX`) to the
//! shutdown-requesting connection. Every request accepted into the
//! queue is completed and answered even if the drain deadline expires —
//! the deadline bounds only the wait for the stats frame, which then
//! reports `drained=timeout`. A pipe stops reading at its shutdown
//! frame and answers everything it queued, with no stats frame.

use super::{
    encode_response, fault_class, read_frame_deadline, verify_guarded, write_frame, Response,
    ServeConfig, ServeObs, ServeStats, Status, REQ_PING, REQ_SHUTDOWN, REQ_STATS, REQ_VERIFY,
};
use crate::pool::PanicSilencer;
use crate::report::Reporter;
use pdip_obs::{counter, Recorder, SpanId};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, Weak};
use std::thread;
use std::time::{Duration, Instant};

/// A cloneable shutdown request line: the CLI's signal handler, a
/// [`REQ_SHUTDOWN`] frame, and [`ServerHandle::stop`] all pull the same
/// flag. The accept loop blocks in `accept`, so a request also wakes it
/// with one connection to the listener it registered.
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag(Arc<FlagState>);

#[derive(Debug, Default)]
struct FlagState {
    requested: AtomicBool,
    /// The listener whose blocking accept loop [`ShutdownFlag::request`]
    /// wakes; `None` while no TCP front-end is running.
    wake: Mutex<Option<SocketAddr>>,
}

impl ShutdownFlag {
    /// A fresh, unrequested flag.
    pub fn new() -> ShutdownFlag {
        ShutdownFlag::default()
    }

    /// Requests shutdown (idempotent), then wakes a blocked accept loop
    /// with one best-effort connection to its listener.
    pub fn request(&self) {
        // Set the flag before reading the wake address: a loop that
        // registers after this read sees the flag before it blocks.
        self.0.requested.store(true, Ordering::SeqCst);
        let wake = self.0.wake.lock().map(|g| *g).unwrap_or(None);
        if let Some(addr) = wake {
            // The wake connection carries no bytes: being accepted is
            // the whole signal.
            let _unused = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    /// Whether shutdown has been requested.
    pub fn requested(&self) -> bool {
        self.0.requested.load(Ordering::SeqCst)
    }

    /// Sets (or, with `None`, clears) the listener [`Self::request`]
    /// wakes.
    fn wake_on(&self, addr: Option<SocketAddr>) {
        if let Ok(mut g) = self.0.wake.lock() {
            *g = addr;
        }
    }
}

/// The pool's shared counters (folded into [`ServeStats`] when it
/// stops).
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    malformed: AtomicU64,
    busy: AtomicU64,
    deadline: AtomicU64,
    panics: AtomicU64,
    conn_faults: AtomicU64,
    io_errors: AtomicU64,
    connections: AtomicU64,
    /// Requests accepted into the queue whose response has not been
    /// written yet — the drain loop waits for this to hit zero.
    inflight: AtomicU64,
    /// Current queue occupancy (gauge source, not part of the stats).
    queue_depth: AtomicU64,
}

impl Counters {
    fn bump(&self, status: Status) {
        match status {
            Status::Accept => &self.accepted,
            Status::Reject => &self.rejected,
            Status::Malformed => &self.malformed,
            Status::Busy => &self.busy,
            Status::Deadline => &self.deadline,
            Status::ShutdownAck | Status::Pong | Status::ConnError | Status::Stats => return,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            accepted: self.accepted.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            malformed: self.malformed.load(Ordering::SeqCst),
            busy: self.busy.load(Ordering::SeqCst),
            deadline: self.deadline.load(Ordering::SeqCst),
            panics: self.panics.load(Ordering::SeqCst),
            conn_faults: self.conn_faults.load(Ordering::SeqCst),
            io_errors: self.io_errors.load(Ordering::SeqCst),
            connections: self.connections.load(Ordering::SeqCst),
        }
    }
}

/// Where one connection's responses go.
enum Sink {
    /// A TCP peer: each response is written as soon as it is ready.
    Tcp(TcpStream),
    /// An in-process pipe: responses are collected, then written
    /// seq-sorted once the stream ends (see [`serve_pipe`]).
    Collect(Vec<Response>),
}

/// One open connection: an id for observability and the shared write
/// half. The mutex keeps response frames atomic when a worker and the
/// reader answer the same peer concurrently; `None` marks the
/// connection dead (a failed write never cascades).
struct Conn {
    id: u64,
    sink: Mutex<Option<Sink>>,
}

impl Conn {
    /// Sends one response (best-effort), timing it into the
    /// `serve/write` latency histogram. A failed write marks the
    /// connection dead and counts one `io_error`; it never affects any
    /// other connection or request.
    fn send(&self, r: Response, counters: &Counters, obs: &ServeObs) {
        let Ok(mut guard) = self.sink.lock() else { return };
        let Some(sink) = guard.as_mut() else { return };
        let started = Instant::now();
        let ok = match sink {
            Sink::Tcp(stream) => {
                write_frame(stream, &encode_response(&r)).and_then(|()| stream.flush())
            }
            Sink::Collect(out) => {
                out.push(r);
                Ok(())
            }
        };
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        obs.duration("serve/write", nanos);
        if ok.is_err() {
            counters.io_errors.fetch_add(1, Ordering::Relaxed);
            counter(obs, self.id, SpanId::new("serve/io-error"), "io-error", 1);
            *guard = None;
        }
    }

    /// Shuts down the read half of a TCP socket, waking a blocked reader
    /// thread with a clean EOF. Data already queued is unaffected.
    fn shutdown_read(&self) {
        if let Ok(guard) = self.sink.lock() {
            if let Some(Sink::Tcp(stream)) = guard.as_ref() {
                let _unused = stream.shutdown(Shutdown::Read);
            }
        }
    }

    /// The responses a collecting connection gathered, seq-sorted.
    fn take_collected(&self) -> Vec<Response> {
        let mut out = match self.sink.lock().ok().and_then(|mut g| g.take()) {
            Some(Sink::Collect(out)) => out,
            _ => Vec::new(),
        };
        out.sort_by_key(|r| r.seq);
        out
    }
}

/// One queued verification request, tagged with its connection so the
/// worker can answer it directly. `frame` is the request frame as read
/// (tag byte included); the worker verifies `frame[1..]`.
struct ConnJob {
    conn: Arc<Conn>,
    seq: u64,
    frame: Vec<u8>,
    enqueued: Instant,
}

/// The worker pool and everything its workers and connection readers
/// share.
struct Pool<'a> {
    cfg: &'a ServeConfig,
    /// The live-metrics bridge every instrumentation point records into.
    obs: &'a ServeObs,
    shutdown: &'a ShutdownFlag,
    counters: Counters,
    jobs_rx: Mutex<Receiver<ConnJob>>,
    /// The connection that sent [`REQ_SHUTDOWN`]; a TCP drain sends it
    /// the final stats frame.
    stats_conn: Mutex<Option<Arc<Conn>>>,
}

/// Runs `front` next to `cfg.threads` workers sharing one bounded job
/// queue. `front` gets the pool and the queue's only sender; once it
/// returns (dropping every sender), the workers finish whatever is still
/// queued and are joined. Returns `front`'s result and the aggregate
/// stats.
fn run_pool<T>(
    cfg: &ServeConfig,
    shutdown: &ShutdownFlag,
    front: impl FnOnce(&Pool<'_>, SyncSender<ConnJob>) -> T,
) -> (T, ServeStats) {
    let _silencer = PanicSilencer::engage();
    // Live metrics are always on: use the caller's shared bridge or a
    // private one.
    let obs = cfg.obs.clone().unwrap_or_default();
    let (jobs_tx, jobs_rx) = sync_channel::<ConnJob>(cfg.queue_cap.max(1));
    let pool = Pool {
        cfg,
        obs: &obs,
        shutdown,
        counters: Counters::default(),
        jobs_rx: Mutex::new(jobs_rx),
        stats_conn: Mutex::new(None),
    };
    let out = thread::scope(|s| {
        for _ in 0..cfg.threads.max(1) {
            s.spawn(|| pool.work());
        }
        front(&pool, jobs_tx)
    });
    (out, pool.counters.stats())
}

impl Pool<'_> {
    /// One worker: takes jobs until the queue disconnects.
    fn work(&self) {
        let (cfg, counters, obs) = (self.cfg, &self.counters, self.obs);
        loop {
            if let Some(g) = &cfg.hold {
                g.wait_open();
            }
            let job = match self.jobs_rx.lock() {
                Ok(rx) => rx.recv(),
                Err(_) => break,
            };
            let Ok(job) = job else { break };
            counters.queue_depth.fetch_sub(1, Ordering::SeqCst);
            let waited = job.enqueued.elapsed().as_nanos();
            obs.duration("serve/queue-wait", u64::try_from(waited).unwrap_or(u64::MAX));
            let (status, detail) = verify_guarded(
                &job.frame[1..],
                cfg.panic_token,
                cfg.deadline,
                obs,
                &counters.panics,
            );
            counter(obs, job.seq, SpanId::new("serve/request"), status.name(), 1);
            counters.bump(status);
            if status == Status::Malformed && detail.starts_with("panic: ") {
                obs.note_panic(job.conn.id, job.seq, detail.clone());
            }
            job.conn.send(Response { seq: job.seq, status, detail }, counters, obs);
            let elapsed = u64::try_from(job.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if elapsed > obs.slow_threshold_nanos() {
                obs.note_slow(job.conn.id, job.seq, status.name(), elapsed);
            }
            // Decrement only after the response hit (or provably
            // missed) the socket, so the drain loop never races a
            // half-written response.
            counters.inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Registers a newly opened connection.
    fn open(&self, sink: Sink) -> Arc<Conn> {
        let id = self.counters.connections.fetch_add(1, Ordering::SeqCst);
        self.obs.note_connection(id);
        Arc::new(Conn { id, sink: Mutex::new(Some(sink)) })
    }

    /// Answers one request on `conn` from the reader side.
    fn answer(&self, conn: &Conn, seq: u64, status: Status, detail: String) {
        conn.send(Response { seq, status, detail }, &self.counters, self.obs);
    }

    /// The per-connection reader loop: reads frames until EOF,
    /// [`REQ_SHUTDOWN`], or a frame-level fault, which is answered with a
    /// [`Status::ConnError`] and returned.
    fn read_connection(
        &self,
        input: &mut dyn Read,
        read_deadline: Option<Duration>,
        conn: &Arc<Conn>,
        jobs_tx: SyncSender<ConnJob>,
    ) -> Option<std::io::Error> {
        let (counters, obs) = (&self.counters, self.obs);
        let mut seq = 0u64;
        loop {
            let frame = match read_frame_deadline(input, self.cfg.max_frame_bytes, read_deadline) {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    // Clean EOF (peer closed or drain read-shutdown).
                    obs.flight_event("conn-close", conn.id, seq, "close", String::new());
                    return None;
                }
                Err(e) => {
                    if self.shutdown.requested() {
                        // The drain's read-shutdown can surface as an
                        // error mid-frame; that is not a peer fault.
                        return None;
                    }
                    let class = fault_class(e.kind());
                    counters.conn_faults.fetch_add(1, Ordering::Relaxed);
                    counter(obs, conn.id, SpanId::new("serve/conn"), class, 1);
                    obs.flight_event("conn-fault", conn.id, seq, class, e.to_string());
                    // The fault response carries the seq the faulted
                    // frame would have had.
                    self.answer(conn, seq, Status::ConnError, format!("{class}: {e}"));
                    return Some(e);
                }
            };
            let this_seq = seq;
            seq += 1;
            match frame.first().copied() {
                Some(REQ_VERIFY) => {
                    counters.inflight.fetch_add(1, Ordering::SeqCst);
                    let depth = counters.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
                    obs.gauge("serve/queue-depth", depth);
                    let job = ConnJob {
                        conn: Arc::clone(conn),
                        seq: this_seq,
                        frame,
                        enqueued: Instant::now(),
                    };
                    match jobs_tx.try_send(job) {
                        Ok(()) => {}
                        Err(TrySendError::Full(_)) => {
                            counters.inflight.fetch_sub(1, Ordering::SeqCst);
                            counters.queue_depth.fetch_sub(1, Ordering::SeqCst);
                            counters.busy.fetch_add(1, Ordering::Relaxed);
                            counter(obs, this_seq, SpanId::new("serve/request"), "busy", 1);
                            obs.flight_event(
                                "busy",
                                conn.id,
                                this_seq,
                                "busy",
                                "queue full".into(),
                            );
                            self.answer(conn, this_seq, Status::Busy, "queue full".into());
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            counters.inflight.fetch_sub(1, Ordering::SeqCst);
                            counters.queue_depth.fetch_sub(1, Ordering::SeqCst);
                            return None;
                        }
                    }
                }
                Some(REQ_PING) => self.answer(conn, this_seq, Status::Pong, String::new()),
                Some(REQ_STATS) => {
                    let mode = frame.get(1).copied().unwrap_or(0);
                    self.answer(conn, this_seq, Status::Stats, obs.render(mode));
                }
                Some(REQ_SHUTDOWN) => {
                    self.answer(conn, this_seq, Status::ShutdownAck, String::new());
                    if let Ok(mut slot) = self.stats_conn.lock() {
                        *slot = Some(Arc::clone(conn));
                    }
                    obs.flight_event("shutdown", conn.id, this_seq, "shutdown", String::new());
                    self.shutdown.request();
                    return None;
                }
                tag => {
                    counters.malformed.fetch_add(1, Ordering::Relaxed);
                    counter(obs, this_seq, SpanId::new("serve/request"), "malformed", 1);
                    let detail = format!("unknown request tag {tag:?}");
                    self.answer(conn, this_seq, Status::Malformed, detail);
                }
            }
        }
    }

    /// The TCP front-end: accepts connections (one reader thread each)
    /// until shutdown is requested, then drains.
    fn accept_and_drain(
        &self,
        listener: &TcpListener,
        jobs_tx: SyncSender<ConnJob>,
    ) -> std::io::Result<()> {
        thread::scope(|s| {
            // Blocking accept: the loop sleeps in the kernel until a
            // peer connects or `ShutdownFlag::request` wakes it with a
            // connection of its own, which is dropped unserved once the
            // flag is seen. A fatal accept error falls through to the
            // drain; the queue disconnects only after every reader has
            // exited.
            let mut conns: Vec<Weak<Conn>> = Vec::new();
            let mut accept_err = None;
            while !self.shutdown.requested() {
                match listener.accept() {
                    Ok(_) if self.shutdown.requested() => break,
                    Ok((mut stream, _addr)) => {
                        // Responses are single-write frames: send each
                        // at once rather than behind the peer's ACK.
                        let _unused = stream.set_nodelay(true);
                        let Ok(writer) = stream.try_clone() else {
                            self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                            continue;
                        };
                        let conn = self.open(Sink::Tcp(writer));
                        conns.push(Arc::downgrade(&conn));
                        let jobs_tx = jobs_tx.clone();
                        s.spawn(move || {
                            // The socket timeout wakes blocked reads; the
                            // frame reader's own total-elapsed check turns
                            // slow drips into `read-stall` faults.
                            let deadline = self.cfg.read_deadline;
                            let _unused = stream.set_read_timeout(deadline);
                            self.read_connection(&mut stream, deadline, &conn, jobs_tx);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        accept_err = Some(e);
                        break;
                    }
                }
            }
            self.drain(&conns);
            accept_err.map_or(Ok(()), Err)
        })
    }

    /// Graceful drain: stops reading everywhere (clean EOF for blocked
    /// readers), waits up to the drain deadline for every accepted
    /// request's response, and sends the final stats frame.
    fn drain(&self, conns: &[Weak<Conn>]) {
        let counters = &self.counters;
        for weak in conns {
            if let Some(conn) = weak.upgrade() {
                conn.shutdown_read();
            }
        }
        let drain_started = Instant::now();
        let mut drained_ok = true;
        while counters.inflight.load(Ordering::SeqCst) > 0 {
            if drain_started.elapsed() > self.cfg.drain_deadline {
                drained_ok = false;
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        let snap = counters.stats();
        let detail = format!(
            "accept={} reject={} malformed={} busy={} deadline={} panics={} \
             conn_faults={} connections={} drained={}",
            snap.accepted,
            snap.rejected,
            snap.malformed,
            snap.busy,
            snap.deadline,
            snap.panics,
            snap.conn_faults,
            snap.connections,
            if drained_ok { "ok" } else { "timeout" }
        );
        self.obs.flight_event(
            "drain",
            0,
            0,
            if drained_ok { "ok" } else { "timeout" },
            detail.clone(),
        );
        let receiver = self.stats_conn.lock().ok().and_then(|mut g| g.take());
        if let Some(conn) = receiver {
            self.answer(&conn, u64::MAX, Status::Stats, detail);
        }
        // Post-mortem capture: the drain is the SIGTERM/shutdown path,
        // so dump the flight ring (best-effort, no-op without a path).
        self.obs.dump_flight("drain");
    }
}

/// Runs the TCP front-end on an already-bound listener until `shutdown`
/// is requested (by a [`REQ_SHUTDOWN`] frame, a signal handler, or
/// [`ServerHandle::stop`]), then drains gracefully. Returns the
/// aggregate stats over the server's whole lifetime.
///
/// The listener must be in blocking mode (the default after `bind`):
/// the accept loop blocks, and `shutdown` is registered to wake it.
pub fn serve_concurrent(
    cfg: &ServeConfig,
    listener: TcpListener,
    shutdown: &ShutdownFlag,
) -> std::io::Result<ServeStats> {
    shutdown.wake_on(Some(listener.local_addr()?));
    let (result, stats) =
        run_pool(cfg, shutdown, |pool, jobs_tx| pool.accept_and_drain(&listener, jobs_tx));
    shutdown.wake_on(None);
    result.map(|()| stats)
}

/// Serves one framed request stream as a single in-process connection
/// (`pdip serve --stdin`): reads `input` to EOF or [`REQ_SHUTDOWN`] with
/// no read deadline (a pipe has no hostile peer), then writes every
/// response to `output` sorted by seq, so the output is byte-identical
/// at any worker count. A frame-level fault in the input is returned as
/// an error and nothing is written.
pub fn serve_pipe(
    cfg: &ServeConfig,
    input: &mut dyn Read,
    output: &mut dyn Write,
) -> std::io::Result<ServeStats> {
    let (read, stats) = run_pool(cfg, &ShutdownFlag::new(), |pool, jobs_tx| {
        let conn = pool.open(Sink::Collect(Vec::new()));
        match pool.read_connection(input, None, &conn, jobs_tx) {
            Some(fault) => Err(fault),
            None => Ok(conn),
        }
    });
    // The workers have been joined, so every response is collected.
    for r in read?.take_collected() {
        write_frame(output, &encode_response(&r))?;
    }
    output.flush()?;
    Ok(stats)
}

/// Binds `127.0.0.1:port` (0 picks a free port), prints the bound
/// address through `reporter`, and runs [`serve_concurrent`] until
/// shutdown. This is the `pdip serve --port` entry point.
pub fn serve_tcp(
    cfg: &ServeConfig,
    port: u16,
    shutdown: &ShutdownFlag,
    reporter: &mut Reporter,
) -> std::io::Result<ServeStats> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    reporter.line(&format!("pdip serve: listening on {}", listener.local_addr()?));
    let stats = serve_concurrent(cfg, listener, shutdown)?;
    reporter.line(&format!(
        "pdip serve: drained — accept={} reject={} malformed={} busy={} deadline={} \
         panics={} conn_faults={} io_errors={} connections={}",
        stats.accepted,
        stats.rejected,
        stats.malformed,
        stats.busy,
        stats.deadline,
        stats.panics,
        stats.conn_faults,
        stats.io_errors,
        stats.connections,
    ));
    Ok(stats)
}

/// A server running on its own OS thread, for tests and the chaos
/// harness. Bind is synchronous, so the port is usable immediately.
pub struct ServerHandle {
    port: u16,
    shutdown: ShutdownFlag,
    join: thread::JoinHandle<std::io::Result<ServeStats>>,
}

impl ServerHandle {
    /// The bound localhost port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// A clone of the server's shutdown flag.
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.shutdown.clone()
    }

    /// Requests shutdown and joins the server thread. An `Err` from the
    /// join means a panic escaped the server — the E13 audit treats
    /// that as an immediate failure.
    pub fn stop(self) -> std::io::Result<ServeStats> {
        self.shutdown.request();
        match self.join.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}

/// Spawns [`serve_concurrent`] on `127.0.0.1:0` in a background thread
/// and returns a handle holding the bound port and shutdown flag.
pub fn spawn_server(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let port = listener.local_addr()?.port();
    let shutdown = ShutdownFlag::new();
    let flag = shutdown.clone();
    let join = thread::spawn(move || serve_concurrent(&cfg, listener, &flag));
    Ok(ServerHandle { port, shutdown, join })
}
