//! The worker pool: the threads that serve the connections.
//!
//! Sizing: `SIRO_THREADS` (via [`siro_synth::resolve_threads`]) unless the
//! config pins an explicit count — the same knob that sizes synthesis
//! fan-out, so one environment variable governs all CPU-bound
//! parallelism.
//!
//! Each worker waits on the shared one-shot set of every connection
//! ([`crate::reactor`]) and serves the connection it is woken for: it
//! reads the frames, runs the first data-plane request itself through the
//! shared [`Engine`], and writes the reply, so that request never leaves
//! the thread that read it. Workers also run the queued requests: after
//! every request they run, and when the queue's waker wakes them for a
//! push. Only these threads call [`Engine::execute`]. A panicking request
//! is caught and answered with an `Internal` error, so one poisoned module
//! cannot take a worker (or the whole pool) down.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::Engine;
use crate::protocol::{ErrorCode, Request, Response};
use crate::reactor::{self, Conn, TOKEN_QUEUE};
use crate::server::Shared;

/// One admitted data-plane request and the connection its reply goes to.
pub(crate) struct Job {
    /// Echo id from the request frame.
    pub(crate) id: u64,
    /// The decoded request.
    pub(crate) request: Request,
    /// Where the reply goes.
    pub(crate) conn: Arc<Conn>,
    /// When the request was read: the served latency runs from here to
    /// the reply.
    pub(crate) received: Instant,
}

/// Handles to the running workers.
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns the server's worker threads.
    pub(crate) fn spawn(shared: &Arc<Shared>) -> Self {
        let handles = (0..shared.workers())
            .map(|i| {
                let shared = Arc::clone(shared);
                std::thread::Builder::new()
                    .name(format!("siro-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning worker thread")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Waits for every worker to exit (the server must be stopped first).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut events = Vec::with_capacity(1);
    loop {
        while let Some(job) = shared.pop_job() {
            run(shared, job, true);
        }
        if shared.is_stopped() {
            shared.pass_stop();
            return;
        }
        if shared.ready.wait(&mut events, 1, None).is_err() {
            siro_trace::counter("serve.worker_poll_errors", 1);
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        let Some(&ev) = events.first() else {
            continue;
        };
        if ev.token == TOKEN_QUEUE {
            shared.rearm_queue_wake();
            continue;
        }
        let Some(conn) = shared.conn(ev.token) else {
            continue;
        };
        if let Some(job) = reactor::serve(shared, &conn, ev, true) {
            run(shared, job, false);
        }
    }
}

/// Runs one request on this thread and writes its reply.
fn run(shared: &Shared, job: Job, queued: bool) {
    let _req = siro_trace::span!("serve.request", "id {}", job.id);
    if queued {
        siro_trace::record_since("serve.queue_wait", job.received, String::new);
    }
    shared.enter_executing();
    let response = execute(shared.engine(), &job.request);
    shared.leave_executing();
    job.conn.answer(shared, job.id, &response, job.received);
}

/// Executes one request, answering a panic with `Internal`.
fn execute(engine: &Engine, request: &Request) -> Response {
    match std::panic::catch_unwind(AssertUnwindSafe(|| engine.execute(request))) {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TranslateMode;
    use crate::stats::Metrics;
    use siro_ir::IrVersion;

    #[test]
    fn bad_module_yields_error_response_and_the_engine_still_serves() {
        let engine = Engine::new(Arc::new(Metrics::default()));
        let bad = Request::Translate {
            source: IrVersion::V13_0.into(),
            target: IrVersion::V3_6.into(),
            mode: TranslateMode::Reference,
            text: "garbage".into(),
        };
        assert!(matches!(
            execute(&engine, &bad),
            Response::Error {
                code: ErrorCode::Parse,
                ..
            }
        ));
        assert_eq!(
            execute(&engine, &Request::Ping { delay_ms: 0 }),
            Response::Pong
        );
    }
}
