//! # siro-serve — the concurrent IR-translation service
//!
//! Siro's end product is a fleet of version-to-version translators;
//! this crate serves them over TCP so many clients can share one
//! process-wide [`siro_synth::TranslatorCache`]: translators are
//! synthesized once and amortized across every subsequent request.
//!
//! * [`protocol`] — the length-prefixed binary wire protocol (documented
//!   in `DESIGN.md` § "The siro-serve wire protocol");
//! * [`queue`] — the bounded queue of requests no thread could run at
//!   once, whose `try_push` *rejects* (`Busy`) instead of queuing
//!   unboundedly — backpressure by construction;
//! * [`pool`] — the fixed worker pool, sized by `SIRO_THREADS`: each
//!   worker reads a request, runs it, and writes its reply;
//! * [`engine`] — per-request execution (parse → verify → acquire →
//!   translate → verify → print, one path for both dialects),
//!   panic-isolated per request;
//! * [`coalesce`] — per-version-pair request coalescing: N concurrent
//!   requests for the same cold pair run exactly one synthesis;
//! * [`poller`] — std-only readiness, level-triggered or one-shot, with
//!   one poller nested in another (epoll via an `extern "C"` shim — no
//!   new dependencies; the daemon is Linux-only);
//! * [`reactor`] — the nonblocking event engine: every connection sits
//!   in one shared one-shot set the workers poll, the reactor thread
//!   accepts and reads only while every worker is busy, write queues give
//!   per-connection backpressure (see `docs/SERVING.md`);
//! * [`admission`] — per-peer token-bucket fairness; over-budget
//!   requests get a structured `Throttled` with retry-after;
//! * [`stats`] — lock-free metrics and the one row table that both the
//!   plaintext `STATS` page and the Prometheus-style `METRICS` page
//!   render (see `docs/OBSERVABILITY.md`);
//! * [`server`] — startup, graceful drain-on-shutdown, and warm start
//!   from the persistent translator store (`docs/PERSISTENCE.md`);
//! * [`client`] — a blocking client (used by `siro translate --remote`,
//!   `siro loadgen` and CI);
//! * [`thread_cache`] — the per-thread small-block cache the `siro`
//!   binary installs as its global allocator.
//!
//! ## Example
//!
//! ```no_run
//! use std::time::Duration;
//! use siro_ir::IrVersion;
//! use siro_serve::{Client, ServeConfig, TranslateMode};
//!
//! let handle = siro_serve::start(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).unwrap();
//! let out = client
//!     .translate(
//!         IrVersion::V13_0,
//!         IrVersion::V3_6,
//!         TranslateMode::Synthesized,
//!         "; IR version 13.0\n…",
//!     )
//!     .unwrap();
//! println!("{}", out.text);
//! handle.shutdown();
//! ```

#![deny(missing_docs)]

pub mod admission;
pub mod client;
pub mod coalesce;
pub mod engine;
pub mod poller;
pub mod pool;
pub mod protocol;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod stats;
pub mod thread_cache;

pub use admission::{Admission, AdmissionConfig, AdmissionControl};
pub use client::{Client, ClientError, Translated};
pub use coalesce::{CoalesceTotals, PairCoalescer};
pub use engine::Engine;
pub use protocol::{ErrorCode, Request, Response, StageNanos, TranslateMode};
pub use queue::{BoundedQueue, PushError};
pub use server::{start, ServeConfig, ServerHandle};
pub use siro_synth::ValidationMode;
pub use stats::{metrics_value, stats_value, Metrics};
