//! The TCP server: startup, warm start, graceful shutdown.
//!
//! [`start`] binds the listener and starts the event engine
//! ([`crate::reactor`]): `workers` pool threads wait on one shared
//! one-shot set of every connection, and the thread that reads a request
//! runs it and writes its reply; the reactor thread accepts, reads while
//! every worker is busy, and drains on shutdown. That is `workers + 1`
//! threads, and open connections are decoupled from thread count. The
//! reactor's accept loop *backs off* on failure (EMFILE/ENFILE and other
//! transient errors) instead of hot-spinning, counting each failure in
//! `accept_errors`.
//!
//! Shutdown (via [`ServerHandle::request_shutdown`] or a wire `Shutdown`
//! frame) stops accepting, closes the queue for new work, lets workers
//! finish what was admitted and write every reply, and joins every
//! thread before [`ServerHandle::wait`] returns — in-flight requests are
//! answered, new ones get `ShuttingDown`.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use siro_synth::{set_active_store, StoreConfig, TranslatorCache, TranslatorStore, ValidationMode};

use crate::admission::{AdmissionConfig, AdmissionControl};
use crate::engine::Engine;
use crate::poller::{Interest, Poller, Waker};
use crate::pool::{Job, WorkerPool};
use crate::queue::BoundedQueue;
use crate::reactor::{Conn, Reactor, TOKEN_QUEUE, TOKEN_READY, TOKEN_WAKE};
use crate::stats::{render_metrics, render_stats, rows, Metrics};

/// Server configuration. `Default` is suitable for tests and local use.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:4799`; port `0` picks a free one.
    pub addr: String,
    /// Worker threads; `None` defers to `SIRO_THREADS` /
    /// `available_parallelism` via [`siro_synth::resolve_threads`].
    pub threads: Option<usize>,
    /// Bounded queue capacity; pushes beyond it answer `Busy`.
    pub queue_capacity: usize,
    /// Persistent translator store directory. When set, the store is
    /// attached process-wide, every entry is prefetched into the
    /// [`TranslatorCache`] before the listener accepts traffic
    /// (warm start), and cold syntheses write back.
    pub store_dir: Option<PathBuf>,
    /// Validation applied when loading store entries.
    pub store_validation: ValidationMode,
    /// Size cap for the store; write-backs GC least-recently-used entries
    /// down to it. `None` leaves the store unbounded.
    pub store_max_bytes: Option<u64>,
    /// Per-peer admission control; disabled by default.
    pub admission: AdmissionConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: None,
            queue_capacity: 64,
            store_dir: None,
            store_validation: ValidationMode::default(),
            store_max_bytes: None,
            admission: AdmissionConfig::default(),
        }
    }
}

pub(crate) struct Shared {
    addr: SocketAddr,
    engine: Arc<Engine>,
    metrics: Arc<Metrics>,
    workers: usize,
    admission: Option<AdmissionControl>,
    /// Requests no thread could run at once.
    pub(crate) queue: BoundedQueue<Job>,
    /// Every open connection, by token.
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    /// The shared one-shot set: every connection, and the queue's waker.
    pub(crate) ready: Poller,
    /// The reactor's own poller: the listener, its waker, and `ready`
    /// while every worker is executing.
    pub(crate) reactor_poller: Poller,
    /// Wakes an idle worker for a queued job.
    queue_wake: Waker,
    /// Wakes the reactor on shutdown.
    pub(crate) reactor_wake: Waker,
    /// Workers executing a request right now.
    executing: Mutex<usize>,
    shutting_down: AtomicBool,
    /// Set once the reactor has exited: workers stop.
    stopped: AtomicBool,
    shutdown_cv: (Mutex<bool>, Condvar),
}

impl Shared {
    pub(crate) fn signal_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.reactor_wake.wake();
        let (lock, cv) = &self.shutdown_cv;
        *lock.lock().expect("shutdown cv poisoned") = true;
        cv.notify_all();
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    pub(crate) fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    pub(crate) fn admission(&self) -> Option<&AdmissionControl> {
        self.admission.as_ref()
    }

    fn table(&self) -> MutexGuard<'_, HashMap<u64, Arc<Conn>>> {
        self.conns.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn conn(&self, token: u64) -> Option<Arc<Conn>> {
        self.table().get(&token).cloned()
    }

    pub(crate) fn insert_conn(&self, token: u64, conn: Arc<Conn>) {
        self.table().insert(token, conn);
        self.metrics
            .open_connections
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Drops a closed connection from the table.
    pub(crate) fn forget(&self, token: u64) {
        if self.table().remove(&token).is_some() {
            self.metrics
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn conns_snapshot(&self) -> Vec<Arc<Conn>> {
        self.table().values().cloned().collect()
    }

    pub(crate) fn take_conns(&self) -> Vec<Arc<Conn>> {
        self.table().drain().map(|(_, c)| c).collect()
    }

    fn executing(&self) -> MutexGuard<'_, usize> {
        self.executing.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether every worker is executing a request.
    pub(crate) fn saturated(&self) -> bool {
        *self.executing() == self.workers
    }

    /// A worker starts a request. The last idle one arms the shared set
    /// in the reactor's poller, so what arrives meanwhile is read.
    pub(crate) fn enter_executing(&self) {
        let mut n = self.executing();
        *n += 1;
        if *n == self.workers {
            let _ = self
                .reactor_poller
                .arm_nested(&self.ready, TOKEN_READY, true);
        }
    }

    /// A worker finished a request (before writing its reply, so the
    /// client's next request finds it idle rather than the reactor
    /// armed).
    pub(crate) fn leave_executing(&self) {
        let mut n = self.executing();
        if *n == self.workers {
            let _ = self
                .reactor_poller
                .arm_nested(&self.ready, TOKEN_READY, false);
        }
        *n -= 1;
    }

    /// Re-arms the reactor's one-shot watch of the shared set if every
    /// worker is still executing.
    pub(crate) fn watch_if_saturated(&self) {
        let n = self.executing();
        if *n == self.workers {
            let _ = self
                .reactor_poller
                .arm_nested(&self.ready, TOKEN_READY, true);
        }
    }

    /// Jobs are waiting in the queue: wake an idle worker for them. When
    /// every worker is executing, each pops the queue once it finishes,
    /// so no wake is needed.
    pub(crate) fn jobs_queued(&self) {
        if !self.saturated() {
            self.queue_wake.wake();
        }
    }

    /// Consumes the queue's wake and re-arms it in the shared set.
    pub(crate) fn rearm_queue_wake(&self) {
        self.queue_wake.drain();
        let _ = self
            .ready
            .rearm(self.queue_wake.as_raw_fd(), TOKEN_QUEUE, Interest::READ);
    }

    /// The oldest queued job. If more remain, another idle worker is
    /// woken to help.
    pub(crate) fn pop_job(&self) -> Option<Job> {
        let (job, more) = self.queue.try_pop()?;
        if more {
            self.jobs_queued();
        }
        Some(job)
    }

    /// Stops the workers once the reactor has exited: the stop passes
    /// from worker to worker through the queue's waker.
    fn stop_workers(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.queue.close();
        self.queue_wake.wake();
    }

    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Passes a stop on to the next worker.
    pub(crate) fn pass_stop(&self) {
        self.queue_wake.wake();
    }

    pub(crate) fn stats_page(&self) -> String {
        render_stats(&rows(self))
    }

    pub(crate) fn metrics_page(&self) -> String {
        render_metrics(&rows(self))
    }
}

/// A running server. Dropping the handle does *not* stop it; call
/// [`ServerHandle::shutdown`] (or send a wire `Shutdown` frame and then
/// [`ServerHandle::wait`]).
pub struct ServerHandle {
    shared: Arc<Shared>,
    reactor: JoinHandle<()>,
    pool: WorkerPool,
}

impl ServerHandle {
    /// The actually bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Worker threads serving requests.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Capacity of the bounded request queue.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// The live metrics (shared with the workers).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.shared.metrics
    }

    /// The engine, exposing the per-pair coalescing counters.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// The plaintext stats page, rendered in-process (same code path as
    /// the wire `STATS` endpoint).
    pub fn stats_page(&self) -> String {
        self.shared.stats_page()
    }

    /// The Prometheus-style metrics page, rendered in-process (same code
    /// path as the wire `METRICS` endpoint).
    pub fn metrics_page(&self) -> String {
        self.shared.metrics_page()
    }

    /// Signals shutdown without waiting (idempotent).
    pub fn request_shutdown(&self) {
        self.shared.signal_shutdown();
    }

    /// Blocks until shutdown is signalled — by [`Self::request_shutdown`]
    /// or a wire `Shutdown` frame — then drains in-flight work and joins
    /// every thread.
    pub fn wait(self) {
        {
            let (lock, cv) = &self.shared.shutdown_cv;
            let mut signalled = lock.lock().expect("shutdown cv poisoned");
            while !*signalled {
                signalled = cv.wait(signalled).expect("shutdown cv poisoned");
            }
        }
        // The reactor closes the queue itself, waits until every admitted
        // request is answered and written, then exits.
        let _ = self.reactor.join();
        self.shared.stop_workers();
        self.pool.join();
    }

    /// [`Self::request_shutdown`] + [`Self::wait`].
    pub fn shutdown(self) {
        self.request_shutdown();
        self.wait();
    }
}

/// Binds the listener, spawns the reactor and the worker pool, and
/// returns. When [`ServeConfig::store_dir`] is set, the persistent store
/// is attached and warm-started *before* traffic is accepted, so the
/// first request already finds every stored pair in the cache.
///
/// # Errors
///
/// Propagates binding and store-opening failures.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let workers = config
        .threads
        .filter(|&n| n > 0)
        .unwrap_or_else(siro_synth::resolve_threads);
    let metrics = Arc::new(Metrics::default());
    let engine = Arc::new(Engine::new(Arc::clone(&metrics)));
    if let Some(dir) = &config.store_dir {
        let store = TranslatorStore::open(StoreConfig {
            dir: dir.clone(),
            validation: config.store_validation,
            max_bytes: config.store_max_bytes,
        })?;
        set_active_store(Some(Arc::new(store)));
        warm_start(&engine);
    }
    let ready = Poller::new()?;
    let queue_wake = Waker::new()?;
    ready.register_oneshot(queue_wake.as_raw_fd(), TOKEN_QUEUE, Interest::READ)?;
    let reactor_poller = Poller::new()?;
    let reactor_wake = Waker::new()?;
    reactor_poller.register(reactor_wake.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
    reactor_poller.nest(&ready, TOKEN_READY)?;
    let shared = Arc::new(Shared {
        addr,
        engine,
        metrics,
        workers,
        admission: AdmissionControl::from_config(config.admission),
        queue: BoundedQueue::new(config.queue_capacity),
        conns: Mutex::new(HashMap::new()),
        ready,
        reactor_poller,
        queue_wake,
        reactor_wake,
        executing: Mutex::new(0),
        shutting_down: AtomicBool::new(false),
        stopped: AtomicBool::new(false),
        shutdown_cv: (Mutex::new(false), Condvar::new()),
    });
    let reactor = Reactor::new(listener, Arc::clone(&shared))?;
    let pool = WorkerPool::spawn(&shared);
    let reactor = std::thread::Builder::new()
        .name("siro-serve-reactor".into())
        .spawn(move || reactor.run())
        .expect("spawning reactor thread");
    Ok(ServerHandle {
        shared,
        reactor,
        pool,
    })
}

/// Warm-starts the translator cache from the active persistent store.
///
/// Every readable entry is loaded under the store's validation mode and
/// seeded into the in-process [`TranslatorCache`] via
/// [`TranslatorCache::warm_from_store`], which never synthesizes. The
/// lookup key is the pair's catalog fingerprint, so a boot builds no
/// corpus: only `--store-validation full` builds the pair's corpus, to
/// re-validate the entry, and drops it again. Unreadable or corrupt
/// entries are skipped (counted by the store as corrupt) and the pair
/// falls back to cold synthesis on first request. Last, the router builds
/// the graph of the current route epoch (every edge classified), so the
/// first request plans over a memoized graph instead of paying that
/// build. The store counts each entry seeded (`store_warm_loaded`).
fn warm_start(engine: &Arc<Engine>) {
    let Some(store) = siro_synth::active_store() else {
        return;
    };
    for entry in store.entries().unwrap_or_default() {
        let Some(key) = entry.key else { continue };
        TranslatorCache::warm_from_store(&key.config());
    }
    engine.router().graph();
}
