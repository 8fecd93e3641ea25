//! The event engine: the thread that reads a request serves it.
//!
//! Every connection is registered, one-shot, in one shared poller set,
//! and the pool's worker threads wait on that set (`crate::pool`). The
//! thread woken for a connection owns it until it re-arms it. It writes
//! what the socket can take, reads and splits the frames, answers the
//! control plane (`STATS`, `METRICS`, `SHUTDOWN`) and every refusal
//! inline, and re-arms the connection. Then it runs the first data-plane
//! request itself and writes the reply under the connection's lock, so
//! that request never crosses threads. Further frames of the same read
//! go to the bounded queue for other workers.
//!
//! The **reactor** thread owns the listener: nonblocking accepts and
//! their backoff, the shutdown drain, and saturation. The shared set is
//! armed in the reactor's own poller only while every worker is
//! executing. The reactor then reads ready connections as a worker does,
//! but queues every data-plane request (`Busy` when the queue is full)
//! and never executes one. So `STATS` answers while every worker is
//! pinned, and the queue holds only requests no thread could run at
//! once.
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
//! 3. **bounded queue** — `Busy` when a request that cannot run at once
//!    finds the global queue full.
//!
//! The accept loop backs off on failure (EMFILE/ENFILE and other
//! transient errors): the listener is *deregistered* for an exponentially
//! growing pause instead of hot-spinning on a level-triggered readiness
//! that cannot be serviced, and `accept_errors` counts each one.
//!
//! Shutdown drains: the listener is deregistered, the queue closes (new
//! data-plane requests answer `ShuttingDown`), workers finish what was
//! admitted and write every reply, and the reactor waits for the last
//! one, then closes every connection and exits.

use std::collections::VecDeque;
use std::io::{self, Read as _, Write as _};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::admission::Admission;
use crate::poller::{Interest, PollEvent, Poller};
use crate::pool::Job;
use crate::protocol::{ErrorCode, ProtocolError, Request, Response, MAX_FRAME};
use crate::queue::PushError;
use crate::server::Shared;
use crate::stats::Metrics;

/// Shared-set token of the queue's waker; connections count up from
/// [`TOKEN_FIRST_CONN`].
pub(crate) const TOKEN_QUEUE: u64 = 0;
const TOKEN_FIRST_CONN: u64 = 1;
/// Reactor-poller tokens: the listener, the shutdown waker, and the
/// nested shared set.
const TOKEN_LISTENER: u64 = 0;
pub(crate) const TOKEN_WAKE: u64 = 1;
pub(crate) const TOKEN_READY: u64 = 2;

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
/// How often a draining reactor re-checks for the last reply: nothing
/// wakes it when a worker writes one.
const DRAIN_POLL: Duration = Duration::from_millis(10);
/// Ready connections the reactor takes per wake while saturated.
const SATURATED_BATCH: usize = 64;

/// One client connection, shared by every thread that serves it.
pub(crate) struct Conn {
    token: u64,
    stream: TcpStream,
    peer: IpAddr,
    /// Bytes read and not yet split into frames. Only the thread that
    /// took the connection's event reads.
    read_buf: Mutex<Vec<u8>>,
    /// The write queue and the registration: the connection's write
    /// lock, taken by every reply.
    state: Mutex<ConnState>,
}

struct ConnState {
    write_queue: VecDeque<Vec<u8>>,
    write_off: usize,
    queued_bytes: usize,
    /// Data-plane requests admitted and not yet answered.
    in_flight: u64,
    /// Read interest, with hysteresis: cleared at the high-water mark,
    /// set again below the low one.
    reading: bool,
    /// The interest the registration was last armed with; `None` once it
    /// was left disarmed.
    armed: Option<Interest>,
    peer_closed: bool,
    kill: bool,
    write_error: bool,
    closed: bool,
}

/// What one read of a connection produced.
#[derive(Default)]
struct ReadOutcome {
    payloads: Vec<Vec<u8>>,
    /// A length prefix over [`MAX_FRAME`]: the stream is out of sync.
    oversized: Option<usize>,
    eof: bool,
    error: bool,
}

impl Conn {
    pub(crate) fn new(token: u64, stream: TcpStream, peer: IpAddr) -> Conn {
        Conn {
            token,
            stream,
            peer,
            read_buf: Mutex::new(Vec::new()),
            state: Mutex::new(ConnState {
                write_queue: VecDeque::new(),
                write_off: 0,
                queued_bytes: 0,
                in_flight: 0,
                reading: true,
                armed: Some(Interest::READ),
                peer_closed: false,
                kill: false,
                write_error: false,
                closed: false,
            }),
        }
    }

    /// The write lock. Every update under it leaves the state valid at
    /// each step, so a panic while it was held does not end the
    /// connection.
    fn lock(&self) -> MutexGuard<'_, ConnState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Reads one burst (until the socket would block, a short read, or
    /// a full frame's worth) and splits off the complete frames.
    fn read_frames(&self) -> ReadOutcome {
        let mut buf = self.read_buf.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = ReadOutcome::default();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => {
                    out.eof = true;
                    break;
                }
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    // Keep one read burst bounded so a firehose peer
                    // cannot monopolize a thread; the re-armed
                    // registration reports the rest.
                    if n < chunk.len() || buf.len() >= MAX_FRAME {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    out.error = true;
                    break;
                }
            }
        }
        // Split complete `u32 length + payload` frames off the front. An
        // oversized length prefix ends the connection: the stream can no
        // longer be trusted to be in sync.
        let mut off = 0usize;
        while let Some((prefix, rest)) = buf[off..].split_first_chunk::<4>() {
            let len = u32::from_be_bytes(*prefix) as usize;
            if len > MAX_FRAME {
                out.oversized = Some(len);
                break;
            }
            let Some(payload) = rest.get(..len) else {
                break;
            };
            out.payloads.push(payload.to_vec());
            off += 4 + len;
        }
        buf.drain(..off);
        out
    }

    /// The one reply writer: encodes `response` as a frame, counts the
    /// request by its answer, and queues the frame (a closed connection
    /// drops it). `received` is when a data-plane request was read, for
    /// the latency histogram; control-plane answers pass `None`. A reply
    /// over [`MAX_FRAME`] is answered `Internal` instead, naming its size
    /// and the cap, and counts as an error; the connection stays.
    pub(crate) fn reply(
        &self,
        metrics: &Metrics,
        id: u64,
        response: &Response,
        received: Option<Instant>,
    ) {
        let (frame, fits) = encode_reply(id, response);
        count_reply(metrics, response, fits, received);
        self.lock().push(metrics, frame);
    }

    /// Writes what the socket takes, then re-derives the registration
    /// (see [`ConnState::settle`]). Returns whether this call closed the
    /// connection; the caller then drops it from the table.
    pub(crate) fn settle(&self, ready: &Poller, owner: bool) -> bool {
        let mut st = self.lock();
        st.flush(&self.stream);
        st.settle(ready, self, owner)
    }

    /// Answers one admitted data-plane request: the reply, then flush and
    /// settle, all under the write lock.
    pub(crate) fn answer(&self, shared: &Shared, id: u64, response: &Response, received: Instant) {
        let (frame, fits) = encode_reply(id, response);
        count_reply(shared.metrics(), response, fits, Some(received));
        let closed = {
            let mut st = self.lock();
            st.in_flight = st.in_flight.saturating_sub(1);
            st.push(shared.metrics(), frame);
            st.flush(&self.stream);
            st.settle(&shared.ready, self, false)
        };
        if closed {
            shared.forget(self.token);
        }
    }
}

impl ConnState {
    fn push(&mut self, metrics: &Metrics, frame: Vec<u8>) {
        if self.closed {
            return;
        }
        self.queued_bytes += frame.len();
        self.write_queue.push_back(frame);
        metrics
            .write_queue_hwm_bytes
            .fetch_max(self.queued_bytes as u64, Ordering::Relaxed);
    }

    fn flush(&mut self, stream: &TcpStream) {
        while let Some(front) = self.write_queue.front() {
            let written = match (&*stream).write(&front[self.write_off..]) {
                Ok(0) => Err(()),
                Ok(n) => Ok(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => Err(()),
            };
            let Ok(n) = written else {
                self.write_error = true;
                return;
            };
            let len = front.len();
            self.write_off += n;
            self.queued_bytes -= n;
            if self.write_off == len {
                self.write_queue.pop_front();
                self.write_off = 0;
            }
        }
    }

    fn idle(&self) -> bool {
        self.in_flight == 0 && self.write_queue.is_empty()
    }

    /// Closes the connection when it has nothing left to do; otherwise
    /// arms its registration for what it needs. The `owner` took the
    /// connection's event, so the registration is disarmed and is
    /// re-armed even when its interest is unchanged; any other thread
    /// re-arms only on a change. A connection that needs nothing (read
    /// paused or closed, nothing to write, requests in flight) is left
    /// disarmed, and the reply that changes that re-arms it. Returns
    /// whether this call closed it.
    fn settle(&mut self, ready: &Poller, conn: &Conn, owner: bool) -> bool {
        if self.closed {
            return false;
        }
        let write_pending = !self.write_queue.is_empty();
        let finished = (self.peer_closed || self.kill) && self.in_flight == 0 && !write_pending;
        if !self.write_error && !finished {
            if self.reading && self.queued_bytes >= WRITE_HIGH_WATER {
                self.reading = false;
            } else if !self.reading && self.queued_bytes < WRITE_LOW_WATER {
                self.reading = true;
            }
            let want = Interest {
                readable: self.reading && !self.peer_closed && !self.kill,
                writable: write_pending,
            };
            if want.is_none() {
                self.armed = None;
                return false;
            }
            if !owner && self.armed == Some(want) {
                return false;
            }
            if ready
                .rearm(conn.stream.as_raw_fd(), conn.token, want)
                .is_ok()
            {
                self.armed = Some(want);
                return false;
            }
            self.write_error = true;
        }
        self.closed = true;
        let _ = ready.deregister(conn.stream.as_raw_fd());
        true
    }
}

/// Encodes `response` as one length-prefixed frame. A reply over
/// [`MAX_FRAME`] cannot be framed: the frame carries an `Internal` error
/// naming the reply's size and the cap instead, which keeps the stream in
/// sync. Returns the frame and whether the reply fit.
fn encode_reply(id: u64, response: &Response) -> (Vec<u8>, bool) {
    let payload = response.encode(id);
    let (payload, fits) = if payload.len() <= MAX_FRAME {
        (payload, true)
    } else {
        let too_big = Response::Error {
            code: ErrorCode::Internal,
            message: format!(
                "reply of {} bytes exceeds the {MAX_FRAME}-byte frame cap",
                payload.len()
            ),
        };
        (too_big.encode(id), false)
    };
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    (frame, fits)
}

/// Counts one answered request by the answer it got.
fn count_reply(metrics: &Metrics, response: &Response, fits: bool, received: Option<Instant>) {
    match response {
        _ if !fits => metrics.on_error(),
        Response::Error {
            code: ErrorCode::Busy,
            ..
        } => metrics.on_busy(),
        Response::Error { .. } => metrics.on_error(),
        Response::Throttled { .. } => metrics.on_throttled(),
        _ => match received {
            Some(t) => metrics.on_ok(t.elapsed()),
            None => {
                metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
            }
        },
    }
}

fn error(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

/// Serves one event of `conn` on the calling thread, which took it from
/// the shared set and so owns the connection until it re-arms it. Writes
/// what is writable, reads and splits what is readable, answers control
/// frames and refusals inline, queues data-plane requests, and re-arms
/// the connection. A worker (`run_first`) gets the first data-plane
/// request of the read back, to run itself; the reactor queues them all.
pub(crate) fn serve(
    shared: &Shared,
    conn: &Arc<Conn>,
    ev: PollEvent,
    run_first: bool,
) -> Option<Job> {
    let may_read = ev.readable && {
        let st = conn.lock();
        st.reading && !st.peer_closed && !st.kill && !st.closed
    };
    let mut jobs = Vec::new();
    if may_read {
        let read = conn.read_frames();
        for payload in &read.payloads {
            admit(shared, conn, payload, &mut jobs);
        }
        let mut st = conn.lock();
        if let Some(len) = read.oversized {
            // Tell the peer what went wrong; the connection closes once
            // the answer is written.
            let malformed = error(
                ErrorCode::Malformed,
                ProtocolError::FrameTooLarge(len).to_string(),
            );
            st.push(shared.metrics(), encode_reply(0, &malformed).0);
        }
        st.peer_closed |= read.eof;
        st.kill |= read.error || read.oversized.is_some();
        st.in_flight += jobs.len() as u64;
    }
    let mut jobs = jobs.into_iter();
    let first = if run_first { jobs.next() } else { None };
    let mut queued = false;
    for job in jobs {
        queued |= enqueue(shared, job);
    }
    if queued {
        shared.jobs_queued();
    }
    if conn.settle(&shared.ready, true) {
        shared.forget(conn.token);
    }
    first
}

/// Decodes one frame: control frames and refusals are answered here,
/// admitted data-plane requests join `jobs`.
fn admit(shared: &Shared, conn: &Arc<Conn>, payload: &[u8], jobs: &mut Vec<Job>) {
    let metrics = shared.metrics();
    metrics.on_request();
    let (id, request) = match Request::decode(payload) {
        Ok(ok) => ok,
        // Decoding failed on a complete frame — framing is still intact,
        // so answer and keep the connection.
        Err(e) => {
            let answer = error(ErrorCode::Malformed, e.to_string());
            return conn.reply(metrics, 0, &answer, None);
        }
    };
    let answer = match request {
        // Control plane: answered by whichever thread reads it, so it
        // works (and stays fast) even when every worker is busy.
        Request::Stats => Response::StatsOk {
            text: shared.stats_page(),
        },
        Request::Metrics => Response::MetricsOk {
            text: shared.metrics_page(),
        },
        Request::Shutdown => {
            conn.reply(metrics, id, &Response::ShutdownOk, None);
            shared.signal_shutdown();
            return;
        }
        request @ (Request::Translate { .. } | Request::Ping { .. }) => {
            if shared.is_shutting_down() {
                error(ErrorCode::ShuttingDown, "server is draining")
            } else {
                match shared
                    .admission()
                    .map(|a| (a.admit(conn.peer, Instant::now()), a.rate_per_sec()))
                {
                    Some((Admission::Throttle { retry_after_ms }, rate)) => Response::Throttled {
                        retry_after_ms,
                        message: format!("per-client budget of {rate} req/s exceeded"),
                    },
                    _ => {
                        jobs.push(Job {
                            id,
                            request,
                            conn: Arc::clone(conn),
                            received: Instant::now(),
                        });
                        return;
                    }
                }
            }
        }
    };
    conn.reply(metrics, id, &answer, None);
}

/// Pushes an admitted request onto the bounded queue, or answers it
/// `Busy` (queue full) or `ShuttingDown` (queue closed). Returns whether
/// it was queued.
fn enqueue(shared: &Shared, job: Job) -> bool {
    let (job, answer) = match shared.queue.try_push(job) {
        Ok(()) => {
            shared
                .metrics()
                .requests_queued
                .fetch_add(1, Ordering::Relaxed);
            return true;
        }
        Err(PushError::Full(job)) => {
            let answer = error(
                ErrorCode::Busy,
                format!("queue full ({} pending)", shared.queue.capacity()),
            );
            (job, answer)
        }
        Err(PushError::Closed(job)) => (job, error(ErrorCode::ShuttingDown, "server is draining")),
    };
    job.conn.reply(shared.metrics(), job.id, &answer, None);
    let mut st = job.conn.lock();
    st.in_flight = st.in_flight.saturating_sub(1);
    false
}

pub(crate) struct Reactor {
    listener: TcpListener,
    shared: Arc<Shared>,
    next_token: u64,
    listener_registered: bool,
    accept_backoff: Duration,
    accept_paused_until: Option<Instant>,
    draining_since: Option<Instant>,
}

impl Reactor {
    pub(crate) fn new(listener: TcpListener, shared: Arc<Shared>) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        shared
            .reactor_poller
            .register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        Ok(Reactor {
            listener,
            shared,
            next_token: TOKEN_FIRST_CONN,
            listener_registered: true,
            accept_backoff: ACCEPT_BACKOFF_INITIAL,
            accept_paused_until: None,
            draining_since: None,
        })
    }

    pub(crate) fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            self.shared
                .metrics()
                .reactor_loops
                .fetch_add(1, Ordering::Relaxed);
            let timeout = self.wait_timeout();
            if self
                .shared
                .reactor_poller
                .wait(&mut events, SATURATED_BATCH, timeout)
                .is_err()
            {
                // A failing poller is unrecoverable for an event loop;
                // surface it via trace and fall into drain.
                siro_trace::counter("serve.reactor_poll_errors", 1);
                self.shared.signal_shutdown();
            }
            let now = Instant::now();
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(now),
                    TOKEN_WAKE => self.shared.reactor_wake.drain(),
                    _ => self.serve_saturated(),
                }
            }
            events = batch;
            self.maybe_resume_accept(now);
            if self.shared.is_shutting_down() {
                if self.draining_since.is_none() {
                    self.start_drain(now);
                }
                if self.drain_complete() || self.drain_expired(now) {
                    break;
                }
            }
        }
        // Closing every connection: workers holding one finish with it,
        // and its fd closes when the last of them lets go.
        let conns = self.shared.take_conns();
        for conn in conns {
            let mut st = conn.lock();
            if !st.closed {
                st.closed = true;
                let _ = self.shared.ready.deregister(conn.stream.as_raw_fd());
            }
        }
        self.shared
            .metrics()
            .open_connections
            .store(0, Ordering::Relaxed);
    }

    fn wait_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut timeout: Option<Duration> = None;
        if let Some(until) = self.accept_paused_until {
            timeout = Some(until.saturating_duration_since(now));
        }
        if let Some(since) = self.draining_since {
            let remaining = (since + DRAIN_GRACE).saturating_duration_since(now);
            let cap = remaining.min(DRAIN_POLL);
            timeout = Some(timeout.map_or(cap, |t| t.min(cap)));
        }
        timeout.map(|t| t.max(Duration::from_millis(1)))
    }

    // ---- saturation -----------------------------------------------------

    /// The shared set fired in the reactor's poller, which it does only
    /// while armed, that is while every worker was executing. If a worker
    /// has gone idle since, it takes the ready connections itself.
    /// Otherwise the reactor reads them and queues their requests, and
    /// re-arms its watch while the saturation lasts.
    fn serve_saturated(&mut self) {
        let shared = &*self.shared;
        if !shared.saturated() {
            return;
        }
        let mut events = Vec::new();
        if shared
            .ready
            .wait(&mut events, SATURATED_BATCH, Some(Duration::ZERO))
            .is_err()
        {
            siro_trace::counter("serve.reactor_poll_errors", 1);
        }
        for ev in events {
            if ev.token == TOKEN_QUEUE {
                // A push's wake, taken before an idle worker could: hand
                // it back so queued jobs cannot strand.
                shared.rearm_queue_wake();
                if !shared.queue.is_empty() {
                    shared.jobs_queued();
                }
                continue;
            }
            if let Some(conn) = shared.conn(ev.token) {
                serve(shared, &conn, ev, false);
            }
        }
        shared.watch_if_saturated();
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
            let _ = self
                .shared
                .reactor_poller
                .deregister(self.listener.as_raw_fd());
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
            .shared
            .reactor_poller
            .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .is_ok()
        {
            self.listener_registered = true;
        } else {
            // Still out of resources; keep backing off.
            self.pause_accept(now);
        }
    }

    /// Counts a connection and adds it to the table, then registers it in
    /// the shared set: a worker woken for its fd must find its entry, and
    /// a `STATS` it answers must count the connection that asked.
    fn install_conn(&mut self, stream: TcpStream, peer: IpAddr) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let token = self.next_token;
        self.next_token += 1;
        let fd = stream.as_raw_fd();
        let connections = &self.shared.metrics().connections;
        connections.fetch_add(1, Ordering::Relaxed);
        self.shared
            .insert_conn(token, Arc::new(Conn::new(token, stream, peer)));
        if let Err(e) = self
            .shared
            .ready
            .register_oneshot(fd, token, Interest::READ)
        {
            // Never served: the row counts accepted connections only.
            connections.fetch_sub(1, Ordering::Relaxed);
            self.shared.forget(token);
            return Err(e);
        }
        Ok(())
    }

    // ---- shutdown -------------------------------------------------------

    fn start_drain(&mut self, now: Instant) {
        if self.listener_registered {
            let _ = self
                .shared
                .reactor_poller
                .deregister(self.listener.as_raw_fd());
            self.listener_registered = false;
        }
        self.accept_paused_until = None;
        // Workers drain what was already admitted; new data-plane
        // requests answer `ShuttingDown`.
        self.shared.queue.close();
        self.draining_since = Some(now);
    }

    fn drain_complete(&self) -> bool {
        self.shared.queue.is_empty() && self.shared.conns_snapshot().iter().all(|c| c.lock().idle())
    }

    fn drain_expired(&self, now: Instant) -> bool {
        self.draining_since
            .map(|since| now.saturating_duration_since(since) >= DRAIN_GRACE)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, FrameRead, StageNanos};
    use std::net::TcpListener;

    /// A served connection's socket and the peer's end of it.
    fn loopback() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        served.set_nonblocking(true).expect("nonblocking");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        (served, client)
    }

    fn next_response(client: &mut TcpStream) -> (u64, Response) {
        loop {
            match read_frame(client).expect("read frame") {
                FrameRead::Payload(p) => return Response::decode(&p).expect("decode"),
                FrameRead::Idle => continue,
                FrameRead::Eof => panic!("connection closed"),
            }
        }
    }

    #[test]
    fn reply_over_the_frame_cap_answers_internal_and_keeps_the_connection() {
        let (served, mut client) = loopback();
        let ready = Poller::new().expect("poller");
        let conn = Conn::new(1, served, IpAddr::from([127, 0, 0, 1]));
        ready
            .register_oneshot(conn.stream.as_raw_fd(), 1, Interest::READ)
            .expect("register");
        let metrics = Metrics::default();

        let huge = Response::TranslateOk {
            cache_hit: true,
            timings: StageNanos::default(),
            text: "x".repeat(MAX_FRAME + 1),
        };
        let reply_len = huge.encode(7).len();
        conn.reply(&metrics, 7, &huge, Some(Instant::now()));
        assert!(!conn.settle(&ready, true), "the connection stays");
        match next_response(&mut client) {
            (
                7,
                Response::Error {
                    code: ErrorCode::Internal,
                    message,
                },
            ) => {
                assert!(message.contains(&reply_len.to_string()), "{message}");
                assert!(message.contains(&MAX_FRAME.to_string()), "{message}");
            }
            other => panic!("expected Internal for id 7, got {other:?}"),
        }
        assert_eq!(metrics.requests_error.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.requests_ok.load(Ordering::Relaxed), 0);

        // The stream is still in sync: the next reply arrives intact.
        conn.reply(&metrics, 8, &Response::Pong, Some(Instant::now()));
        assert!(!conn.settle(&ready, false));
        assert_eq!(next_response(&mut client), (8, Response::Pong));
        assert_eq!(metrics.requests_ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn settle_pauses_reading_at_the_high_water_mark_and_resumes_below_low() {
        let (served, client) = loopback();
        let ready = Poller::new().expect("poller");
        let conn = Conn::new(1, served, IpAddr::from([127, 0, 0, 1]));
        ready
            .register_oneshot(conn.stream.as_raw_fd(), 1, Interest::READ)
            .expect("register");
        let metrics = Metrics::default();
        let mut st = conn.lock();
        st.push(&metrics, vec![0; WRITE_HIGH_WATER]);
        assert!(!st.settle(&ready, &conn, true));
        assert_eq!(st.armed, Some(Interest::WRITE), "paused: write only");
        st.write_queue.clear();
        st.queued_bytes = WRITE_LOW_WATER;
        st.settle(&ready, &conn, false);
        assert_eq!(st.armed, None, "not yet below low water, nothing to write");
        st.queued_bytes = 0;
        st.settle(&ready, &conn, false);
        assert_eq!(st.armed, Some(Interest::READ), "resumed below low water");
        assert_eq!(
            metrics.write_queue_hwm_bytes.load(Ordering::Relaxed),
            WRITE_HIGH_WATER as u64
        );
        drop(client);
    }
}
