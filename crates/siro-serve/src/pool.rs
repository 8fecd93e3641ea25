//! The fixed worker pool draining the bounded queue.
//!
//! Sizing: `SIRO_THREADS` (via [`siro_synth::resolve_threads`]) unless the
//! config pins an explicit count — the same knob that sizes synthesis
//! fan-out, so one environment variable governs all CPU-bound
//! parallelism. Workers execute translation jobs through the shared
//! [`Engine`]; a panicking job is caught per-request and answered with an
//! `Internal` error, so one poisoned module cannot take a worker (or the
//! whole pool) down.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::engine::Engine;
use crate::protocol::{ErrorCode, Request, Response};
use crate::queue::BoundedQueue;
use crate::reactor::Completions;
use crate::stats::Metrics;

/// Where a finished job's response goes: the reactor's completion queue,
/// tagged with the owning connection (pushing wakes the reactor so it can
/// write the frame from the event loop).
pub struct Reply {
    completions: Arc<Completions>,
    conn: u64,
}

impl Reply {
    /// A reply routed back to the reactor for connection `conn`.
    pub(crate) fn new(completions: Arc<Completions>, conn: u64) -> Reply {
        Reply { completions, conn }
    }

    /// Delivers the response. The connection may already be gone (client
    /// hung up mid-flight); the reactor drops responses for dead
    /// connections.
    pub fn send(&self, id: u64, response: Response) {
        self.completions.push(self.conn, id, response);
    }
}

/// One unit of queued work: a decoded request plus the route that carries
/// its response back to the owning connection.
pub struct Job {
    /// Echo id from the request frame.
    pub id: u64,
    /// The decoded request.
    pub request: Request,
    /// Where the response goes.
    pub reply: Reply,
    /// When the connection enqueued the job (queue wait + execution are
    /// both part of the served latency).
    pub enqueued: Instant,
}

/// Handles to the running workers.
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads draining `queue` through `engine`.
    pub fn spawn(
        workers: usize,
        queue: Arc<BoundedQueue<Job>>,
        engine: Arc<Engine>,
        metrics: Arc<Metrics>,
    ) -> Self {
        let handles = (0..workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let engine = Arc::clone(&engine);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("siro-serve-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &engine, &metrics))
                    .expect("spawning worker thread")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Waits for every worker to exit (the queue must be closed first).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(queue: &BoundedQueue<Job>, engine: &Engine, metrics: &Metrics) {
    while let Some(job) = queue.pop() {
        let _req = siro_trace::span!("serve.request", "id {}", job.id);
        siro_trace::record_since("serve.queue_wait", job.enqueued, String::new);
        let response =
            match std::panic::catch_unwind(AssertUnwindSafe(|| engine.execute(&job.request))) {
                Ok(r) => r,
                Err(payload) => {
                    let what = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked".into());
                    Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("worker panicked: {what}"),
                    }
                }
            };
        if matches!(&response, Response::Error { .. }) {
            metrics.on_error();
        } else {
            metrics.on_ok(job.enqueued.elapsed());
        }
        job.reply.send(job.id, response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TranslateMode;
    use siro_ir::IrVersion;

    /// Runs `requests` (ids 0, 1, …) through a `workers`-thread pool,
    /// closes the queue, and returns every response in completion order.
    fn run_pool(workers: usize, requests: Vec<Request>) -> Vec<(u64, Response)> {
        let metrics = Arc::new(Metrics::default());
        let engine = Arc::new(Engine::new(Arc::clone(&metrics)));
        let queue = Arc::new(BoundedQueue::new(requests.len()));
        let pool = WorkerPool::spawn(workers, Arc::clone(&queue), engine, metrics);
        let (completions, _wake_rx) = Completions::new().expect("completion queue");
        for (id, request) in (0u64..).zip(requests) {
            let job = Job {
                id,
                request,
                reply: Reply::new(Arc::clone(&completions), 0),
                enqueued: Instant::now(),
            };
            queue.try_push(job).unwrap_or_else(|_| panic!("queue full"));
        }
        queue.close();
        pool.join();
        completions
            .drain()
            .into_iter()
            .map(|c| (c.id, c.response))
            .collect()
    }

    #[test]
    fn pool_executes_jobs_and_drains_on_close() {
        let responses = run_pool(2, vec![Request::Ping { delay_ms: 0 }; 5]);
        let mut ids: Vec<u64> = responses
            .into_iter()
            .map(|(id, r)| {
                assert_eq!(r, Response::Pong);
                id
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bad_module_yields_error_response_and_pool_survives() {
        let bad = Request::Translate {
            source: IrVersion::V13_0.into(),
            target: IrVersion::V3_6.into(),
            mode: TranslateMode::Reference,
            text: "garbage".into(),
        };
        let responses = run_pool(1, vec![bad, Request::Ping { delay_ms: 0 }]);
        assert_eq!(responses.len(), 2);
        assert!(matches!(
            responses[0].1,
            Response::Error {
                code: ErrorCode::Parse,
                ..
            }
        ));
        assert_eq!(responses[1].1, Response::Pong);
    }
}
