//! The nonblocking event-loop serving engine.
//!
//! One **reactor** thread owns every socket — the listener and all
//! connections — registered with a level-triggered [`Poller`]. It does
//! all the I/O: nonblocking accepts, framed reads, framed writes with
//! per-connection write queues. CPU-bound work (translate / synthesize)
//! never runs on the reactor: decoded data-plane requests go through the
//! bounded queue to the worker pool, and finished responses come back
//! over the [`Completions`] queue, which wakes the reactor via a
//! self-pipe.
//!
//! This decouples *open connections* from *threads*: ten thousand idle
//! connections cost ten thousand fds, not ten thousand stacks, and a
//! stalled peer holds only its own write queue, never a thread. There is
//! no per-connection stall or write timeout: a peer that stops mid-frame
//! keeps its fd and partial read buffer until it closes.
//!
//! Flow control, in order of application to an incoming frame:
//!
//! 1. **read pause** — a connection whose write queue exceeds
//!    [`WRITE_HIGH_WATER`] bytes loses read interest until the peer
//!    drains below half of it (slow readers cannot balloon memory);
//! 2. **admission control** — when enabled, the per-peer token bucket
//!    rejects over-budget requests with a structured `Throttled`
//!    carrying retry-after (one greedy client cannot starve the rest);
//! 3. **bounded queue** — `Busy` when the global queue is full.
//!
//! The accept loop backs off on failure (EMFILE/ENFILE and other
//! transient errors): the listener is *deregistered* for an exponentially
//! growing pause instead of hot-spinning on a level-triggered readiness
//! that cannot be serviced, and `serve.accept_errors` counts each one.
//!
//! Shutdown drains: the listener is deregistered, the queue closes (new
//! data-plane requests answer `ShuttingDown`), workers finish what was
//! admitted, the reactor writes every pending response, then exits.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{IpAddr, Ipv4Addr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::admission::Admission;
use crate::poller::{Interest, PollEvent, Poller};
use crate::pool::{Job, Reply};
use crate::protocol::{ErrorCode, ProtocolError, Request, Response, MAX_FRAME};
use crate::queue::PushError;
use crate::server::Shared;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// Pause reads on a connection once this many response bytes are queued.
pub const WRITE_HIGH_WATER: usize = 256 * 1024;
/// Resume reads once the queue drains below this.
const WRITE_LOW_WATER: usize = WRITE_HIGH_WATER / 2;
/// First accept-failure backoff; doubles per consecutive failure.
const ACCEPT_BACKOFF_INITIAL: Duration = Duration::from_millis(10);
/// Accept backoff ceiling.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);
/// How long a draining reactor waits for workers + peers before exiting
/// with responses still unwritten.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// One finished job on its way back from a worker to the reactor.
pub(crate) struct Completion {
    conn: u64,
    pub(crate) id: u64,
    pub(crate) response: Response,
}

/// The worker → reactor return path: a queue of finished responses plus
/// a self-pipe that interrupts the reactor's poll wait.
pub struct Completions {
    queue: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
    in_flight: AtomicU64,
}

impl Completions {
    pub(crate) fn new() -> io::Result<(Arc<Completions>, UnixStream)> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok((
            Arc::new(Completions {
                queue: Mutex::new(Vec::new()),
                wake_tx,
                in_flight: AtomicU64::new(0),
            }),
            wake_rx,
        ))
    }

    pub(crate) fn push(&self, conn: u64, id: u64, response: Response) {
        self.queue
            .lock()
            .expect("completion queue poisoned")
            .push(Completion { conn, id, response });
        self.wake();
    }

    /// Interrupts the reactor's poll wait. A full pipe is fine — a wake
    /// is already pending.
    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    pub(crate) fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"))
    }

    fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }
}

/// Reactor-side counters surfaced on the `STATS` / `METRICS` pages.
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// Event-loop iterations (each poll wait counts once).
    pub loop_iterations: AtomicU64,
    /// Fds currently registered with the poller (gauge).
    pub registered_fds: AtomicU64,
    /// Largest per-connection write-queue depth seen, in bytes.
    pub write_queue_hwm_bytes: AtomicU64,
    /// Currently open connections (gauge).
    pub open_connections: AtomicU64,
}

struct Conn {
    stream: TcpStream,
    peer: IpAddr,
    read_buf: Vec<u8>,
    write_queue: VecDeque<Vec<u8>>,
    write_off: usize,
    queued_bytes: usize,
    in_flight: u64,
    interest: Interest,
    peer_closed: bool,
    kill: bool,
    write_error: bool,
}

impl Conn {
    fn read_paused(&self) -> bool {
        self.queued_bytes >= WRITE_HIGH_WATER
    }
}

pub(crate) struct Reactor {
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    rstats: Arc<ReactorStats>,
    completions: Arc<Completions>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    listener_registered: bool,
    accept_backoff: Duration,
    accept_paused_until: Option<Instant>,
    draining_since: Option<Instant>,
}

impl Reactor {
    pub(crate) fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        completions: Arc<Completions>,
        wake_rx: UnixStream,
    ) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        let rstats = Arc::clone(shared.reactor_stats());
        Ok(Reactor {
            poller,
            listener,
            wake_rx,
            shared,
            rstats,
            completions,
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            listener_registered: true,
            accept_backoff: ACCEPT_BACKOFF_INITIAL,
            accept_paused_until: None,
            draining_since: None,
        })
    }

    fn stats(&self) -> &ReactorStats {
        &self.rstats
    }

    pub(crate) fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            self.stats().loop_iterations.fetch_add(1, Ordering::Relaxed);
            let timeout = self.wait_timeout();
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                // A failing poller is unrecoverable for an event loop;
                // surface it via trace and fall into drain.
                siro_trace::counter("serve.reactor_poll_errors", 1);
                let _ = e;
                self.shared.signal_shutdown();
            }
            let now = Instant::now();
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(now),
                    TOKEN_WAKE => self.drain_wake_pipe(),
                    token => self.conn_ready(token, ev.readable, ev.writable),
                }
            }
            events = batch;
            self.drain_completions();
            self.maybe_resume_accept(now);
            if self.shared.is_shutting_down() {
                if self.draining_since.is_none() {
                    self.start_drain(now);
                }
                if self.drain_complete() || self.drain_expired(now) {
                    break;
                }
            }
            self.stats()
                .registered_fds
                .store(self.poller.registered() as u64, Ordering::Relaxed);
        }
        // Dropping the reactor closes every connection and the listener.
        self.stats().registered_fds.store(0, Ordering::Relaxed);
        self.stats().open_connections.store(0, Ordering::Relaxed);
    }

    fn wait_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut timeout: Option<Duration> = None;
        if let Some(until) = self.accept_paused_until {
            timeout = Some(until.saturating_duration_since(now));
        }
        if let Some(since) = self.draining_since {
            let remaining = (since + DRAIN_GRACE).saturating_duration_since(now);
            // Poll the drain conditions at a modest cadence too: worker
            // completions wake us, but peer-side drains do not.
            let cap = remaining.min(Duration::from_millis(50));
            timeout = Some(timeout.map_or(cap, |t| t.min(cap)));
        }
        timeout.map(|t| t.max(Duration::from_millis(1)))
    }

    // ---- accept path ----------------------------------------------------

    fn accept_ready(&mut self, now: Instant) {
        if !self.listener_registered || self.shared.is_shutting_down() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_INITIAL;
                    if self.install_conn(stream, peer.ip()).is_err() {
                        // Registration failed (fd pressure): treat like an
                        // accept error and back off.
                        self.pause_accept(now);
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_e) => {
                    // EMFILE/ENFILE or another transient accept failure.
                    // Level-triggered readiness would re-report instantly;
                    // deregister the listener for a growing pause instead
                    // of hot-spinning.
                    self.shared.metrics().on_accept_error();
                    self.pause_accept(now);
                    return;
                }
            }
        }
    }

    fn pause_accept(&mut self, now: Instant) {
        if self.listener_registered {
            let _ = self.poller.deregister(self.listener.as_raw_fd());
            self.listener_registered = false;
        }
        self.accept_paused_until = Some(now + self.accept_backoff);
        self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
    }

    fn maybe_resume_accept(&mut self, now: Instant) {
        let Some(until) = self.accept_paused_until else {
            return;
        };
        if now < until || self.shared.is_shutting_down() {
            return;
        }
        self.accept_paused_until = None;
        if self
            .poller
            .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .is_ok()
        {
            self.listener_registered = true;
        } else {
            // Still out of resources; keep backing off.
            self.pause_accept(now);
        }
    }

    fn install_conn(&mut self, stream: TcpStream, peer: IpAddr) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let token = self.next_token;
        self.next_token += 1;
        self.poller
            .register(stream.as_raw_fd(), token, Interest::READ)?;
        self.conns.insert(
            token,
            Conn {
                stream,
                peer,
                read_buf: Vec::new(),
                write_queue: VecDeque::new(),
                write_off: 0,
                queued_bytes: 0,
                in_flight: 0,
                interest: Interest::READ,
                peer_closed: false,
                kill: false,
                write_error: false,
            },
        );
        self.shared
            .metrics()
            .connections
            .fetch_add(1, Ordering::Relaxed);
        self.stats()
            .open_connections
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.stats()
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    // ---- wake + completions ---------------------------------------------

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn drain_completions(&mut self) {
        let finished = self.completions.drain();
        if finished.is_empty() {
            return;
        }
        let mut touched = Vec::with_capacity(finished.len());
        for Completion { conn, id, response } in finished {
            self.completions.in_flight.fetch_sub(1, Ordering::SeqCst);
            if let Some(c) = self.conns.get_mut(&conn) {
                c.in_flight = c.in_flight.saturating_sub(1);
                Self::enqueue_response(&self.rstats, c, id, &response);
                touched.push(conn);
            }
        }
        for token in touched {
            self.flush_conn(token);
            self.finalize_conn(token);
        }
    }

    // ---- per-connection I/O ---------------------------------------------

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool) {
        if writable {
            self.flush_conn(token);
        }
        if readable {
            self.read_conn(token);
        }
        self.finalize_conn(token);
    }

    fn read_conn(&mut self, token: u64) {
        let (payloads, oversized) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.read_paused() || conn.kill {
                return;
            }
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        if n < chunk.len() {
                            break;
                        }
                        // Keep one read burst bounded so a firehose peer
                        // cannot monopolize the loop; level-triggered
                        // readiness re-fires for the rest.
                        if conn.read_buf.len() >= MAX_FRAME {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.kill = true;
                        break;
                    }
                }
            }
            Self::extract_frames(conn)
        };
        for payload in payloads {
            self.handle_payload(token, &payload);
        }
        if let Some(len) = oversized {
            // Tell the peer what went wrong; the connection closes once
            // the answer is written.
            self.respond(
                token,
                0,
                Response::Error {
                    code: ErrorCode::Malformed,
                    message: ProtocolError::FrameTooLarge(len).to_string(),
                },
            );
        }
        self.flush_conn(token);
    }

    /// Splits complete `u32 length + payload` frames off the front of the
    /// connection's read buffer. An oversized length prefix kills the
    /// connection — the stream can no longer be trusted to be in sync —
    /// and is returned so the caller can answer `Malformed` first.
    fn extract_frames(conn: &mut Conn) -> (Vec<Vec<u8>>, Option<usize>) {
        let mut out = Vec::new();
        let mut oversized = None;
        let mut off = 0usize;
        while conn.read_buf.len() - off >= 4 {
            let len = u32::from_be_bytes(
                conn.read_buf[off..off + 4]
                    .try_into()
                    .expect("4-byte slice"),
            ) as usize;
            if len > MAX_FRAME {
                conn.kill = true;
                oversized = Some(len);
                break;
            }
            if conn.read_buf.len() - off - 4 < len {
                break;
            }
            out.push(conn.read_buf[off + 4..off + 4 + len].to_vec());
            off += 4 + len;
        }
        conn.read_buf.drain(..off);
        (out, oversized)
    }

    fn handle_payload(&mut self, token: u64, payload: &[u8]) {
        let metrics = Arc::clone(self.shared.metrics());
        metrics.on_request();
        let (id, request) = match Request::decode(payload) {
            Ok(ok) => ok,
            Err(e) => {
                metrics.on_error();
                // Decoding failed on a complete frame — framing is still
                // intact, so answer and keep the connection.
                self.respond(
                    token,
                    0,
                    Response::Error {
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        match request {
            // Control plane: answered inline from the reactor so it works
            // (and stays fast) even when every worker is busy.
            Request::Stats => {
                metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
                let text = self.shared.stats_page();
                self.respond(token, id, Response::StatsOk { text });
            }
            Request::Metrics => {
                metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
                let text = self.shared.metrics_page();
                self.respond(token, id, Response::MetricsOk { text });
            }
            Request::Shutdown => {
                metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
                self.respond(token, id, Response::ShutdownOk);
                self.shared.signal_shutdown();
            }
            request @ (Request::Translate { .. } | Request::Ping { .. }) => {
                if self.shared.is_shutting_down() {
                    metrics.on_error();
                    self.respond(
                        token,
                        id,
                        Response::Error {
                            code: ErrorCode::ShuttingDown,
                            message: "server is draining".into(),
                        },
                    );
                    return;
                }
                let peer = self
                    .conns
                    .get(&token)
                    .map_or(IpAddr::V4(Ipv4Addr::LOCALHOST), |c| c.peer);
                if let Some(admission) = self.shared.admission() {
                    if let Admission::Throttle { retry_after_ms } =
                        admission.admit(peer, Instant::now())
                    {
                        metrics.on_throttled();
                        self.respond(
                            token,
                            id,
                            Response::Throttled {
                                retry_after_ms,
                                message: format!(
                                    "per-client budget of {} req/s exceeded",
                                    admission.rate_per_sec()
                                ),
                            },
                        );
                        return;
                    }
                }
                self.completions.in_flight.fetch_add(1, Ordering::SeqCst);
                if let Some(c) = self.conns.get_mut(&token) {
                    c.in_flight += 1;
                }
                let job = Job {
                    id,
                    request,
                    reply: Reply::new(Arc::clone(&self.completions), token),
                    enqueued: Instant::now(),
                };
                match self.shared.queue().try_push(job) {
                    Ok(()) => {}
                    Err(PushError::Full(job)) => {
                        self.job_rejected(token);
                        metrics.on_busy();
                        self.respond(
                            token,
                            job.id,
                            Response::Error {
                                code: ErrorCode::Busy,
                                message: format!(
                                    "queue full ({} pending)",
                                    self.shared.queue().capacity()
                                ),
                            },
                        );
                    }
                    Err(PushError::Closed(job)) => {
                        self.job_rejected(token);
                        metrics.on_error();
                        self.respond(
                            token,
                            job.id,
                            Response::Error {
                                code: ErrorCode::ShuttingDown,
                                message: "server is draining".into(),
                            },
                        );
                    }
                }
            }
        }
    }

    /// Rolls back the in-flight accounting for a job the queue refused.
    fn job_rejected(&mut self, token: u64) {
        self.completions.in_flight.fetch_sub(1, Ordering::SeqCst);
        if let Some(c) = self.conns.get_mut(&token) {
            c.in_flight = c.in_flight.saturating_sub(1);
        }
    }

    fn respond(&mut self, token: u64, id: u64, response: Response) {
        if let Some(conn) = self.conns.get_mut(&token) {
            Self::enqueue_response(&self.rstats, conn, id, &response);
        }
    }

    fn enqueue_response(stats: &ReactorStats, conn: &mut Conn, id: u64, response: &Response) {
        let payload = response.encode(id);
        if payload.len() > MAX_FRAME {
            // An unencodable response ends the connection rather than
            // desyncing the stream.
            conn.kill = true;
            return;
        }
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&payload);
        conn.queued_bytes += frame.len();
        conn.write_queue.push_back(frame);
        stats
            .write_queue_hwm_bytes
            .fetch_max(conn.queued_bytes as u64, Ordering::Relaxed);
    }

    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while let Some(front) = conn.write_queue.front() {
            match conn.stream.write(&front[conn.write_off..]) {
                Ok(0) => {
                    conn.write_error = true;
                    return;
                }
                Ok(n) => {
                    conn.write_off += n;
                    conn.queued_bytes -= n;
                    if conn.write_off == front.len() {
                        conn.write_queue.pop_front();
                        conn.write_off = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.write_error = true;
                    return;
                }
            }
        }
    }

    /// Re-derives the connection's poller interest from its state, or
    /// closes it when it has nothing left to do.
    fn finalize_conn(&mut self, token: u64) {
        let (close, want) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let write_pending = !conn.write_queue.is_empty();
            let finished = (conn.peer_closed || conn.kill) && conn.in_flight == 0 && !write_pending;
            if conn.write_error || finished {
                (true, conn.interest)
            } else {
                let resumed = conn.queued_bytes < WRITE_LOW_WATER;
                let paused = conn.queued_bytes >= WRITE_HIGH_WATER;
                // Hysteresis: a paused conn resumes reading only below the
                // low watermark.
                let read_now = !conn.kill
                    && !conn.peer_closed
                    && if conn.interest.readable {
                        !paused
                    } else {
                        resumed
                    };
                (
                    false,
                    Interest {
                        readable: read_now,
                        writable: write_pending,
                    },
                )
            }
        };
        if close {
            self.close_conn(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if want != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_ok()
            {
                conn.interest = want;
            } else {
                conn.write_error = true;
                self.close_conn(token);
            }
        }
    }

    // ---- shutdown -------------------------------------------------------

    fn start_drain(&mut self, now: Instant) {
        if self.listener_registered {
            let _ = self.poller.deregister(self.listener.as_raw_fd());
            self.listener_registered = false;
        }
        self.accept_paused_until = None;
        // Workers drain what was already admitted, then exit.
        self.shared.queue().close();
        self.draining_since = Some(now);
    }

    fn drain_complete(&self) -> bool {
        self.completions.in_flight() == 0 && self.conns.values().all(|c| c.write_queue.is_empty())
    }

    fn drain_expired(&self, now: Instant) -> bool {
        self.draining_since
            .map(|since| now.saturating_duration_since(since) >= DRAIN_GRACE)
            .unwrap_or(false)
    }
}
