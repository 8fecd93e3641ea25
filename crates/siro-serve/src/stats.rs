//! Server metrics and the two pages that show them: the plaintext
//! `STATS` page and the Prometheus-style `METRICS` page.
//!
//! Both pages render one table (`rows`): an ordered list of
//! `(key, kind, value)` rows read from the server's [`Metrics`], its queue
//! and pollers, and the always-on counters of the translator cache, the
//! coalescer, the store, the compiled tier and the router. `STATS` prints
//! `key value`; `METRICS` prints each row under a name derived from its
//! key by one rule (`metric_name`). Each event is counted once, by one
//! of those always-on counters; the `siro-trace` counters, rendered after
//! the table, count only what no row shows.
//!
//! All counters are lock-free atomics so the hot path never contends on
//! the stats. Latency goes into a power-of-two bucketed histogram
//! (microsecond resolution, 40 buckets ≈ 18 minutes of range); p50/p99
//! are read from the bucket boundaries, which is exact enough for a
//! serving dashboard and needs no allocation or sorting.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use siro_synth::TranslatorCache;

use crate::server::Shared;

const BUCKETS: usize = 40;

/// Power-of-two latency histogram over microseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_of(us: u64) -> usize {
        // Bucket i holds [2^i, 2^(i+1)) microseconds; 0 µs lands in bucket 0.
        (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one latency sample.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bucket bound (µs) below which `q` of the samples fall;
    /// `None` before the first sample. `q` is clamped to `0.0..=1.0`.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // The last bucket is open-ended (it absorbs everything at or
                // above 2^(BUCKETS-1) µs), so it has no finite upper bound.
                if i == BUCKETS - 1 {
                    return Some(u64::MAX);
                }
                return Some(1u64 << (i + 1));
            }
        }
        Some(u64::MAX)
    }
}

/// Process-lifetime serving counters. One instance per server, shared by
/// every connection and worker thread.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests read off the wire (any kind, before queueing).
    pub requests_total: AtomicU64,
    /// Requests answered with a success response.
    pub requests_ok: AtomicU64,
    /// Requests rejected with `Busy` by the bounded queue.
    pub requests_busy: AtomicU64,
    /// Requests answered with any other error.
    pub requests_error: AtomicU64,
    /// Requests rejected by per-peer admission control (`Throttled`).
    pub requests_throttled: AtomicU64,
    /// Data-plane requests that went through the bounded queue: read
    /// while every worker was executing, or pipelined behind the first
    /// request of one read. The rest ran on the thread that read them.
    pub requests_queued: AtomicU64,
    /// Translate requests executed by workers.
    pub translations: AtomicU64,
    /// Translate requests with a WIR endpoint (WIR↔WIR or SIRO↔WIR).
    pub cross_dialect: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// `accept(2)` failures (EMFILE/ENFILE and other transient errors);
    /// each one also backs the accept loop off.
    pub accept_errors: AtomicU64,
    /// Reactor loop iterations (each poll wait counts once): accepts,
    /// saturated reads, and the shutdown drain.
    pub reactor_loops: AtomicU64,
    /// Largest per-connection write-queue depth seen, in bytes.
    pub write_queue_hwm_bytes: AtomicU64,
    /// Currently open connections (gauge).
    pub open_connections: AtomicU64,
    /// Worker-side latency of completed requests.
    pub latency: Histogram,
}

impl Metrics {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a request read off the wire.
    pub fn on_request(&self) {
        Self::add(&self.requests_total, 1);
    }

    /// Counts a success and its latency.
    pub fn on_ok(&self, latency: Duration) {
        Self::add(&self.requests_ok, 1);
        self.latency.record(latency);
    }

    /// Counts a backpressure rejection.
    pub fn on_busy(&self) {
        Self::add(&self.requests_busy, 1);
    }

    /// Counts a non-busy error response.
    pub fn on_error(&self) {
        Self::add(&self.requests_error, 1);
    }

    /// Counts an admission-control rejection.
    pub fn on_throttled(&self) {
        Self::add(&self.requests_throttled, 1);
    }

    /// Counts an accept-loop failure.
    pub fn on_accept_error(&self) {
        Self::add(&self.accept_errors, 1);
    }
}

/// How a scraper reads a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Counts events since the process (or the source's last reset)
    /// started.
    Counter,
    /// Reads a current level.
    Gauge,
}

/// One row of both pages: its `STATS` key, its kind and its value.
pub(crate) type Row = (&'static str, Kind, u64);

/// The one table both pages render, in page order.
pub(crate) fn rows(s: &Shared) -> Vec<Row> {
    use Kind::{Counter, Gauge};
    let m = s.metrics();
    let n = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let cache = TranslatorCache::snapshot();
    let coalesce = s.engine().coalescer().totals();
    let store = siro_synth::store_stats();
    let compile = siro_synth::compile_stats();
    let router = siro_synth::router_stats();
    let fds = s.ready.registered() + s.reactor_poller.registered();
    vec![
        ("requests_total", Counter, n(&m.requests_total)),
        ("requests_ok", Counter, n(&m.requests_ok)),
        ("requests_busy", Counter, n(&m.requests_busy)),
        ("requests_error", Counter, n(&m.requests_error)),
        ("requests_throttled", Counter, n(&m.requests_throttled)),
        ("requests_queued", Counter, n(&m.requests_queued)),
        ("translations", Counter, n(&m.translations)),
        ("cross_dialect_translations", Counter, n(&m.cross_dialect)),
        ("connections", Counter, n(&m.connections)),
        ("accept_errors", Counter, n(&m.accept_errors)),
        ("queue_depth", Gauge, s.queue.len() as u64),
        ("queue_capacity", Gauge, s.queue.capacity() as u64),
        ("workers", Gauge, s.workers() as u64),
        ("reactor_loops", Counter, n(&m.reactor_loops)),
        ("reactor_registered_fds", Gauge, fds as u64),
        (
            "reactor_write_queue_hwm_bytes",
            Gauge,
            n(&m.write_queue_hwm_bytes),
        ),
        ("open_connections", Gauge, n(&m.open_connections)),
        (
            "latency_p50_us",
            Gauge,
            m.latency.quantile_us(0.50).unwrap_or(0),
        ),
        (
            "latency_p99_us",
            Gauge,
            m.latency.quantile_us(0.99).unwrap_or(0),
        ),
        ("cache_hits", Counter, cache.hits),
        ("cache_misses", Counter, cache.misses),
        ("cache_entries", Gauge, cache.entries as u64),
        ("cache_failures", Gauge, cache.failures as u64),
        ("corpora_built", Counter, siro_synth::corpora_built()),
        ("pairs_synthesized", Counter, coalesce.syntheses),
        ("coalesced_waiters", Counter, coalesce.coalesced),
        ("store_attached", Gauge, u64::from(store.attached)),
        ("store_warm_loaded", Counter, store.warm_loaded),
        ("store_hits", Counter, store.hits),
        ("store_misses", Counter, store.misses),
        ("store_corrupt", Counter, store.corrupt),
        ("store_writes", Counter, store.writes),
        ("compile_lowered", Counter, compile.lowered),
        ("compile_lower_failures", Counter, compile.lower_failures),
        (
            "compile_translations_compiled",
            Counter,
            compile.translations_compiled,
        ),
        (
            "compile_translations_interpreted",
            Counter,
            compile.translations_interpreted,
        ),
        (
            "compile_runtime_fallbacks",
            Counter,
            compile.runtime_fallbacks,
        ),
        ("router_plans", Counter, router.plans),
        ("router_direct", Counter, router.direct),
        ("router_composed", Counter, router.composed),
        ("router_composed_cached", Counter, router.composed_cached),
        ("router_fallbacks", Counter, router.fallbacks),
        ("router_max_hops", Gauge, router.max_hops),
        ("router_graph_builds", Counter, router.graph_builds),
        ("router_store_probes", Counter, router.store_probes),
    ]
}

/// Renders the plaintext `STATS` page: one `key value` per row, then
/// `trace_enabled`. Stable keys, so it is trivially greppable from CI and
/// shell scripts.
pub(crate) fn render_stats(rows: &[Row]) -> String {
    let mut out = String::with_capacity(1024);
    for (key, _, value) in rows {
        let _ = writeln!(out, "{key} {value}");
    }
    let _ = writeln!(out, "trace_enabled {}", u64::from(siro_trace::enabled()));
    out
}

/// The `METRICS` name of a row: `siro_` + key, a trailing `_us` becomes
/// `_microseconds`, and a counter gains `_total` unless it already ends
/// in it.
fn metric_name(key: &str, kind: Kind) -> String {
    let mut name = match key.strip_suffix("_us") {
        Some(stem) => format!("siro_{stem}_microseconds"),
        None => format!("siro_{key}"),
    };
    if kind == Kind::Counter && !name.ends_with("_total") {
        name.push_str("_total");
    }
    name
}

/// Renders the Prometheus-style plaintext `METRICS` page: each row as a
/// `# TYPE` comment and its sample, then the `siro_trace_enabled` gauge
/// and every `siro-trace` counter (rendered by
/// [`siro_trace::export::render_prometheus_counters`]).
pub(crate) fn render_metrics(rows: &[Row]) -> String {
    let mut out = String::with_capacity(4096);
    for &(key, kind, value) in rows {
        let name = metric_name(key, kind);
        let kind = match kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        };
        let _ = writeln!(out, "# TYPE {name} {kind}\n{name} {value}");
    }
    out.push_str(&siro_trace::export::render_prometheus_counters(
        &siro_trace::snapshot(),
    ));
    out
}

/// Parses one `key value` line back out of a rendered stats page.
pub fn stats_value(page: &str, key: &str) -> Option<u64> {
    page.lines().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == key).then(|| v.trim().parse().ok())?
    })
}

/// Reads one sample back out of a rendered Prometheus-style metrics page
/// (`# TYPE` comments are skipped; the first matching sample wins).
pub fn metrics_value(page: &str, name: &str) -> Option<u64> {
    page.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == name).then(|| v.trim().parse().ok())?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), None);
        for ms in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            h.record(Duration::from_millis(ms));
        }
        let p50 = h.quantile_us(0.50).expect("p50");
        let p99 = h.quantile_us(0.99).expect("p99");
        // 1 ms = 1000 µs lives in [512, 1024); 100 ms in [65536, 131072).
        assert!((1024..=2048).contains(&p50), "p50 = {p50}");
        assert!(p99 >= 131072, "p99 = {p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn histogram_saturated_bucket_reports_open_bound() {
        let h = Histogram::default();
        // 2^(BUCKETS-1) µs is the first value that lands in the saturated
        // last bucket; anything in it must report the open bound, not a
        // fabricated 2^BUCKETS µs ceiling.
        h.record(Duration::from_micros(1u64 << (BUCKETS - 1)));
        assert_eq!(h.quantile_us(0.5), Some(u64::MAX));
        assert_eq!(h.quantile_us(1.0), Some(u64::MAX));
        // One bucket below the boundary still reports its finite bound.
        let h = Histogram::default();
        h.record(Duration::from_micros((1u64 << (BUCKETS - 1)) - 1));
        assert_eq!(h.quantile_us(0.5), Some(1u64 << (BUCKETS - 1)));
    }

    /// A live server: the table reads its queue, pollers and coalescer.
    fn server() -> crate::ServerHandle {
        crate::start(crate::ServeConfig {
            threads: Some(2),
            ..crate::ServeConfig::default()
        })
        .expect("start server")
    }

    /// Every row of the table in page order: its `STATS` key and the
    /// `# TYPE` line `METRICS` gives it.
    const TABLE: [(&str, &str); 45] = [
        ("requests_total", "siro_requests_total counter"),
        ("requests_ok", "siro_requests_ok_total counter"),
        ("requests_busy", "siro_requests_busy_total counter"),
        ("requests_error", "siro_requests_error_total counter"),
        (
            "requests_throttled",
            "siro_requests_throttled_total counter",
        ),
        ("requests_queued", "siro_requests_queued_total counter"),
        ("translations", "siro_translations_total counter"),
        (
            "cross_dialect_translations",
            "siro_cross_dialect_translations_total counter",
        ),
        ("connections", "siro_connections_total counter"),
        ("accept_errors", "siro_accept_errors_total counter"),
        ("queue_depth", "siro_queue_depth gauge"),
        ("queue_capacity", "siro_queue_capacity gauge"),
        ("workers", "siro_workers gauge"),
        ("reactor_loops", "siro_reactor_loops_total counter"),
        (
            "reactor_registered_fds",
            "siro_reactor_registered_fds gauge",
        ),
        (
            "reactor_write_queue_hwm_bytes",
            "siro_reactor_write_queue_hwm_bytes gauge",
        ),
        ("open_connections", "siro_open_connections gauge"),
        ("latency_p50_us", "siro_latency_p50_microseconds gauge"),
        ("latency_p99_us", "siro_latency_p99_microseconds gauge"),
        ("cache_hits", "siro_cache_hits_total counter"),
        ("cache_misses", "siro_cache_misses_total counter"),
        ("cache_entries", "siro_cache_entries gauge"),
        ("cache_failures", "siro_cache_failures gauge"),
        ("corpora_built", "siro_corpora_built_total counter"),
        ("pairs_synthesized", "siro_pairs_synthesized_total counter"),
        ("coalesced_waiters", "siro_coalesced_waiters_total counter"),
        ("store_attached", "siro_store_attached gauge"),
        ("store_warm_loaded", "siro_store_warm_loaded_total counter"),
        ("store_hits", "siro_store_hits_total counter"),
        ("store_misses", "siro_store_misses_total counter"),
        ("store_corrupt", "siro_store_corrupt_total counter"),
        ("store_writes", "siro_store_writes_total counter"),
        ("compile_lowered", "siro_compile_lowered_total counter"),
        (
            "compile_lower_failures",
            "siro_compile_lower_failures_total counter",
        ),
        (
            "compile_translations_compiled",
            "siro_compile_translations_compiled_total counter",
        ),
        (
            "compile_translations_interpreted",
            "siro_compile_translations_interpreted_total counter",
        ),
        (
            "compile_runtime_fallbacks",
            "siro_compile_runtime_fallbacks_total counter",
        ),
        ("router_plans", "siro_router_plans_total counter"),
        ("router_direct", "siro_router_direct_total counter"),
        ("router_composed", "siro_router_composed_total counter"),
        (
            "router_composed_cached",
            "siro_router_composed_cached_total counter",
        ),
        ("router_fallbacks", "siro_router_fallbacks_total counter"),
        ("router_max_hops", "siro_router_max_hops gauge"),
        (
            "router_graph_builds",
            "siro_router_graph_builds_total counter",
        ),
        (
            "router_store_probes",
            "siro_router_store_probes_total counter",
        ),
    ];

    #[test]
    fn both_pages_render_one_table_in_order() {
        let handle = server();
        let stats = handle.stats_page();
        let keys: Vec<&str> = stats
            .lines()
            .map(|l| l.split_once(' ').expect("`key value` line").0)
            .collect();
        let mut expected: Vec<&str> = TABLE.iter().map(|(key, _)| *key).collect();
        expected.push("trace_enabled");
        assert_eq!(keys, expected, "the 45 STATS keys, in order");

        let metrics = handle.metrics_page();
        let lines: Vec<&str> = metrics.lines().collect();
        for (i, (key, typed)) in TABLE.iter().enumerate() {
            assert_eq!(lines[2 * i], format!("# TYPE {typed}"), "row {key}");
            let (name, kind) = typed.split_once(' ').expect("name kind");
            let kind = if kind == "counter" {
                Kind::Counter
            } else {
                Kind::Gauge
            };
            assert_eq!(metric_name(key, kind), name, "the rule names {key}");
            assert!(
                lines[2 * i + 1].starts_with(&format!("{name} ")),
                "sample of {key}: `{}`",
                lines[2 * i + 1]
            );
        }
        // The trace section follows the table, with one trace gauge.
        assert_eq!(lines[2 * TABLE.len()], "# TYPE siro_trace_enabled gauge");
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.starts_with("siro_trace_enabled "))
                .count(),
            1
        );
        handle.shutdown();
    }

    #[test]
    fn stats_page_is_greppable() {
        let handle = server();
        let m = handle.metrics();
        m.on_request();
        m.on_ok(Duration::from_micros(300));
        m.on_throttled();
        m.requests_queued.fetch_add(2, Ordering::Relaxed);
        m.write_queue_hwm_bytes.fetch_max(1024, Ordering::Relaxed);
        let page = handle.stats_page();
        assert_eq!(stats_value(&page, "requests_total"), Some(1));
        assert_eq!(stats_value(&page, "requests_throttled"), Some(1));
        assert_eq!(stats_value(&page, "requests_queued"), Some(2));
        assert_eq!(stats_value(&page, "queue_depth"), Some(0));
        assert_eq!(stats_value(&page, "queue_capacity"), Some(64));
        assert_eq!(stats_value(&page, "workers"), Some(2));
        assert_eq!(stats_value(&page, "pairs_synthesized"), Some(0));
        assert_eq!(stats_value(&page, "coalesced_waiters"), Some(0));
        assert_eq!(stats_value(&page, "no_such_key"), None);
        // The reactor funnel is always present.
        assert!(stats_value(&page, "reactor_loops").is_some());
        assert!(stats_value(&page, "reactor_registered_fds").is_some_and(|n| n > 0));
        assert_eq!(
            stats_value(&page, "reactor_write_queue_hwm_bytes"),
            Some(1024)
        );
        assert_eq!(stats_value(&page, "open_connections"), Some(0));
        assert_eq!(stats_value(&page, "accept_errors"), Some(0));
        // Operators can tell traced runs apart from the page itself.
        assert!(stats_value(&page, "trace_enabled").is_some());
        // The second-dialect funnel is always present.
        assert_eq!(stats_value(&page, "cross_dialect_translations"), Some(0));
        // The persistent-store funnel is always present, attached or not.
        assert!(stats_value(&page, "store_attached").is_some());
        assert!(stats_value(&page, "store_corrupt").is_some());
        // The version-graph router funnel is always present too.
        assert!(stats_value(&page, "router_plans").is_some());
        assert!(stats_value(&page, "router_composed").is_some());
        assert!(stats_value(&page, "router_fallbacks").is_some());
        assert!(stats_value(&page, "router_graph_builds").is_some());
        assert!(stats_value(&page, "router_store_probes").is_some());
        // The compiled-tier funnel: which tier served is always
        // observable.
        assert!(stats_value(&page, "compile_lowered").is_some());
        assert!(stats_value(&page, "compile_translations_compiled").is_some());
        assert!(stats_value(&page, "compile_translations_interpreted").is_some());
        assert!(stats_value(&page, "compile_runtime_fallbacks").is_some());
        handle.shutdown();
    }

    #[test]
    fn metrics_page_is_prometheus_shaped() {
        let handle = server();
        let m = handle.metrics();
        m.on_request();
        m.on_ok(Duration::from_micros(300));
        m.requests_queued.fetch_add(3, Ordering::Relaxed);
        let page = handle.metrics_page();
        assert_eq!(metrics_value(&page, "siro_requests_total"), Some(1));
        assert_eq!(metrics_value(&page, "siro_requests_queued_total"), Some(3));
        assert_eq!(metrics_value(&page, "siro_queue_capacity"), Some(64));
        assert_eq!(
            metrics_value(&page, "siro_latency_p50_microseconds"),
            Some(512)
        );
        assert!(metrics_value(&page, "siro_reactor_loops_total").is_some());
        assert!(metrics_value(&page, "siro_requests_throttled_total").is_some());
        assert!(metrics_value(&page, "siro_accept_errors_total").is_some());
        assert!(metrics_value(&page, "siro_trace_enabled").is_some());
        assert!(metrics_value(&page, "siro_compile_lowered_total").is_some());
        assert!(metrics_value(&page, "siro_compile_translations_compiled_total").is_some());
        // Every sample line is preceded by a `# TYPE` declaration. Parse
        // fallibly so a format tweak names the offending line instead of
        // panicking inside the iterator chain.
        let mut prev = "";
        for line in page.lines() {
            if !line.starts_with('#') {
                let Some((name, value)) = line.split_once(' ') else {
                    panic!("sample line `{line}` is not `name value` shaped");
                };
                assert!(
                    value.trim().parse::<u64>().is_ok(),
                    "sample `{line}` has a non-numeric value"
                );
                assert!(
                    prev.starts_with(&format!("# TYPE {name} ")),
                    "sample `{line}` lacks a TYPE comment (prev: `{prev}`)"
                );
            }
            prev = line;
        }
        handle.shutdown();
    }
}
