//! The TCP server: startup, warm start, graceful shutdown.
//!
//! [`start`] binds the listener and runs the nonblocking reactor
//! ([`crate::reactor`]): one thread owns every socket via a
//! level-triggered poller, CPU-bound work runs on the worker pool, and
//! open connections are decoupled from thread count. The reactor's
//! accept loop *backs off* on failure (EMFILE/ENFILE and other transient
//! errors) instead of hot-spinning, counting each failure in
//! `accept_errors` / the `serve.accept_errors` trace counter.
//!
//! Shutdown (via [`ServerHandle::request_shutdown`] or a wire `Shutdown`
//! frame) stops accepting, closes the queue for new work, lets workers
//! drain what is already queued, writes every pending response, and joins
//! every thread before [`ServerHandle::wait`] returns — in-flight
//! requests are answered, new ones get `ShuttingDown`.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use siro_synth::{
    pair_corpus, pair_fingerprint, set_active_store, StoreConfig, TranslatorCache, TranslatorStore,
    ValidationMode,
};

use crate::admission::{AdmissionConfig, AdmissionControl};
use crate::engine::Engine;
use crate::pool::{Job, WorkerPool};
use crate::queue::BoundedQueue;
use crate::reactor::{Completions, Reactor, ReactorStats};
use crate::stats::{render_metrics, render_stats, Metrics, ServeGauges};

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
    queue: Arc<BoundedQueue<Job>>,
    engine: Arc<Engine>,
    metrics: Arc<Metrics>,
    workers: usize,
    admission: Option<AdmissionControl>,
    reactor_stats: Arc<ReactorStats>,
    /// Wakes the reactor on shutdown.
    completions: Arc<Completions>,
    shutting_down: AtomicBool,
    shutdown_cv: (Mutex<bool>, Condvar),
}

impl Shared {
    pub(crate) fn signal_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.completions.wake();
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

    pub(crate) fn queue(&self) -> &Arc<BoundedQueue<Job>> {
        &self.queue
    }

    pub(crate) fn admission(&self) -> Option<&AdmissionControl> {
        self.admission.as_ref()
    }

    pub(crate) fn reactor_stats(&self) -> &Arc<ReactorStats> {
        &self.reactor_stats
    }

    fn gauges(&self) -> ServeGauges {
        let totals = self.engine.coalescer().totals();
        let r = &self.reactor_stats;
        ServeGauges {
            queue_depth: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            workers: self.workers,
            pairs_synthesized: totals.syntheses,
            coalesced_waiters: totals.coalesced,
            reactor_loops: r.loop_iterations.load(Ordering::Relaxed),
            registered_fds: r.registered_fds.load(Ordering::Relaxed),
            write_queue_hwm_bytes: r.write_queue_hwm_bytes.load(Ordering::Relaxed),
            open_connections: r.open_connections.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn stats_page(&self) -> String {
        render_stats(&self.metrics, &self.gauges())
    }

    pub(crate) fn metrics_page(&self) -> String {
        render_metrics(&self.metrics, &self.gauges())
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

    /// Reactor-side counters.
    pub fn reactor_stats(&self) -> &Arc<ReactorStats> {
        &self.shared.reactor_stats
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
        // The reactor closes the queue itself, waits for in-flight work,
        // writes every pending response, then exits.
        let _ = self.reactor.join();
        // Belt and braces: close the queue so workers exit once the
        // backlog is drained (close still drains queued jobs).
        self.shared.queue.close();
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
    let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
    let (completions, wake_rx) = Completions::new()?;
    let shared = Arc::new(Shared {
        addr,
        queue: Arc::clone(&queue),
        engine: Arc::clone(&engine),
        metrics: Arc::clone(&metrics),
        workers,
        admission: AdmissionControl::from_config(config.admission),
        reactor_stats: Arc::new(ReactorStats::default()),
        completions: Arc::clone(&completions),
        shutting_down: AtomicBool::new(false),
        shutdown_cv: (Mutex::new(false), Condvar::new()),
    });
    let reactor = Reactor::new(listener, Arc::clone(&shared), completions, wake_rx)?;
    let pool = WorkerPool::spawn(workers, queue, engine, metrics);
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
/// For every readable entry, the outcome is loaded, validated against the
/// pair's shared corpus ([`pair_corpus`]) and seeded into the in-process
/// [`TranslatorCache`] via [`TranslatorCache::warm_from_store`], which
/// never synthesizes. Unreadable or corrupt entries are skipped (counted
/// by the store as corrupt) and the pair falls back to cold synthesis on
/// first request. Last, the router builds the graph of the current
/// route epoch (every pair's corpus fingerprint, every edge classified),
/// so the first request plans over a memoized graph instead of paying
/// that build.
///
/// Returns the number of entries successfully seeded.
fn warm_start(engine: &Arc<Engine>) -> u64 {
    let Some(store) = siro_synth::active_store() else {
        return 0;
    };
    let mut loaded = 0u64;
    for entry in store.entries().unwrap_or_default() {
        let Some(key) = entry.key else { continue };
        let tests = pair_corpus(key.source, key.target);
        let fingerprint = pair_fingerprint(key.source, key.target);
        if TranslatorCache::warm_from_store(&key.config(), &tests, fingerprint) {
            loaded += 1;
        }
    }
    engine.router().graph();
    siro_trace::counter("serve.warm_loaded", loaded);
    loaded
}
