//! Server metrics and the plaintext `STATS` page.
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
    /// Translate requests executed by workers.
    pub translations: AtomicU64,
    /// Translate requests with a WIR endpoint (WIR↔WIR or SIRO↔WIR),
    /// served through the dual-catalog router.
    pub cross_dialect: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// `accept(2)` failures (EMFILE/ENFILE and other transient errors);
    /// each one also backs the accept loop off.
    pub accept_errors: AtomicU64,
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

    /// Counts an accept-loop failure (also traced as
    /// `serve.accept_errors`).
    pub fn on_accept_error(&self) {
        Self::add(&self.accept_errors, 1);
        siro_trace::counter("serve.accept_errors", 1);
    }

    /// Immutable copy of the counters, for JSON dumps and assertions.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests_total: self.requests_total.load(Ordering::Relaxed),
            requests_ok: self.requests_ok.load(Ordering::Relaxed),
            requests_busy: self.requests_busy.load(Ordering::Relaxed),
            requests_error: self.requests_error.load(Ordering::Relaxed),
            requests_throttled: self.requests_throttled.load(Ordering::Relaxed),
            translations: self.translations.load(Ordering::Relaxed),
            cross_dialect: self.cross_dialect.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            latency_p50_us: self.latency.quantile_us(0.50),
            latency_p99_us: self.latency.quantile_us(0.99),
        }
    }
}

/// Point-in-time copy of [`Metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`Metrics::requests_total`].
    pub requests_total: u64,
    /// See [`Metrics::requests_ok`].
    pub requests_ok: u64,
    /// See [`Metrics::requests_busy`].
    pub requests_busy: u64,
    /// See [`Metrics::requests_error`].
    pub requests_error: u64,
    /// See [`Metrics::requests_throttled`].
    pub requests_throttled: u64,
    /// See [`Metrics::translations`].
    pub translations: u64,
    /// See [`Metrics::cross_dialect`].
    pub cross_dialect: u64,
    /// See [`Metrics::connections`].
    pub connections: u64,
    /// See [`Metrics::accept_errors`].
    pub accept_errors: u64,
    /// p50 latency in µs (bucket upper bound), if any sample exists.
    pub latency_p50_us: Option<u64>,
    /// p99 latency in µs (bucket upper bound), if any sample exists.
    pub latency_p99_us: Option<u64>,
}

/// Point-in-time server gauges that accompany [`Metrics`] on the stats
/// pages: queue and pool shape, coalescer totals, and the reactor funnel.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeGauges {
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Bounded queue capacity.
    pub queue_capacity: usize,
    /// Worker threads.
    pub workers: usize,
    /// Coalescer: syntheses actually run.
    pub pairs_synthesized: u64,
    /// Coalescer: requests that reused another request's synthesis.
    pub coalesced_waiters: u64,
    /// Event-loop iterations so far.
    pub reactor_loops: u64,
    /// Fds registered with the poller right now.
    pub registered_fds: u64,
    /// Largest per-connection write queue seen, in bytes.
    pub write_queue_hwm_bytes: u64,
    /// Connections currently open.
    pub open_connections: u64,
}

/// Renders the plaintext `STATS` page: one `key value` per line, stable
/// keys, so it is trivially greppable from CI and shell scripts.
pub fn render_stats(metrics: &Metrics, g: &ServeGauges) -> String {
    let m = metrics.snapshot();
    let cache = TranslatorCache::snapshot();
    let mut out = String::with_capacity(1024);
    let mut line = |k: &str, v: u64| {
        let _ = writeln!(out, "{k} {v}");
    };
    line("requests_total", m.requests_total);
    line("requests_ok", m.requests_ok);
    line("requests_busy", m.requests_busy);
    line("requests_error", m.requests_error);
    line("requests_throttled", m.requests_throttled);
    line("translations", m.translations);
    line("cross_dialect_translations", m.cross_dialect);
    line("connections", m.connections);
    line("accept_errors", m.accept_errors);
    line("queue_depth", g.queue_depth as u64);
    line("queue_capacity", g.queue_capacity as u64);
    line("workers", g.workers as u64);
    line("reactor_loops", g.reactor_loops);
    line("reactor_registered_fds", g.registered_fds);
    line("reactor_write_queue_hwm_bytes", g.write_queue_hwm_bytes);
    line("open_connections", g.open_connections);
    line("latency_p50_us", m.latency_p50_us.unwrap_or(0));
    line("latency_p99_us", m.latency_p99_us.unwrap_or(0));
    line("cache_hits", cache.hits);
    line("cache_misses", cache.misses);
    line("cache_entries", cache.entries as u64);
    line("cache_failures", cache.failures as u64);
    for shard in TranslatorCache::shard_snapshots() {
        let _ = writeln!(out, "cache_shard{}_hits {}", shard.index, shard.hits);
        let _ = writeln!(out, "cache_shard{}_misses {}", shard.index, shard.misses);
    }
    let mut line = |k: &str, v: u64| {
        let _ = writeln!(out, "{k} {v}");
    };
    line("pairs_synthesized", g.pairs_synthesized);
    line("coalesced_waiters", g.coalesced_waiters);
    let store = siro_synth::store_stats();
    line("store_attached", u64::from(store.attached));
    line("store_warm_loaded", store.warm_loaded);
    line("store_hits", store.hits);
    line("store_misses", store.misses);
    line("store_corrupt", store.corrupt);
    line("store_writes", store.writes);
    let compile = siro_synth::compile_stats();
    line("compile_enabled", u64::from(siro_synth::compile_enabled()));
    line("compile_lowered", compile.lowered);
    line("compile_lower_failures", compile.lower_failures);
    line(
        "compile_translations_compiled",
        compile.translations_compiled,
    );
    line(
        "compile_translations_interpreted",
        compile.translations_interpreted,
    );
    line("compile_runtime_fallbacks", compile.runtime_fallbacks);
    line("compile_sirx_loaded", compile.sirx_loaded);
    line("compile_sirx_corrupt", compile.sirx_corrupt);
    line("compile_sirx_writes", compile.sirx_writes);
    let router = siro_synth::router_stats();
    line("router_plans", router.plans);
    line("router_direct", router.direct);
    line("router_composed", router.composed);
    line("router_composed_cached", router.composed_cached);
    line("router_fallbacks", router.fallbacks);
    line("router_chains_persisted", router.chains_persisted);
    line("router_max_hops", router.max_hops);
    line("trace_enabled", u64::from(siro_trace::enabled()));
    out
}

/// Renders the Prometheus-style plaintext `METRICS` page: the serving
/// counters, latency quantiles, translator-cache and coalescer totals,
/// plus the `siro_trace_enabled` gauge and every `siro-trace` counter
/// (the trace section is rendered by
/// [`siro_trace::export::render_prometheus_counters`], so the two
/// surfaces can never disagree).
pub fn render_metrics(metrics: &Metrics, g: &ServeGauges) -> String {
    let m = metrics.snapshot();
    let cache = TranslatorCache::snapshot();
    let mut out = String::with_capacity(2048);
    let mut sample = |name: &str, kind: &str, v: u64| {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {v}");
    };
    sample("siro_requests_total", "counter", m.requests_total);
    sample("siro_requests_ok_total", "counter", m.requests_ok);
    sample("siro_requests_busy_total", "counter", m.requests_busy);
    sample("siro_requests_error_total", "counter", m.requests_error);
    sample(
        "siro_requests_throttled_total",
        "counter",
        m.requests_throttled,
    );
    sample("siro_translations_total", "counter", m.translations);
    sample(
        "siro_cross_dialect_translations_total",
        "counter",
        m.cross_dialect,
    );
    sample("siro_connections_total", "counter", m.connections);
    sample("siro_accept_errors_total", "counter", m.accept_errors);
    sample("siro_queue_depth", "gauge", g.queue_depth as u64);
    sample("siro_queue_capacity", "gauge", g.queue_capacity as u64);
    sample("siro_workers", "gauge", g.workers as u64);
    sample("siro_reactor_loops_total", "counter", g.reactor_loops);
    sample("siro_reactor_registered_fds", "gauge", g.registered_fds);
    sample(
        "siro_reactor_write_queue_hwm_bytes",
        "gauge",
        g.write_queue_hwm_bytes,
    );
    sample("siro_open_connections", "gauge", g.open_connections);
    sample(
        "siro_latency_p50_microseconds",
        "gauge",
        m.latency_p50_us.unwrap_or(0),
    );
    sample(
        "siro_latency_p99_microseconds",
        "gauge",
        m.latency_p99_us.unwrap_or(0),
    );
    sample("siro_cache_hits_total", "counter", cache.hits);
    sample("siro_cache_misses_total", "counter", cache.misses);
    sample("siro_cache_entries", "gauge", cache.entries as u64);
    sample("siro_cache_failures", "gauge", cache.failures as u64);
    for shard in TranslatorCache::shard_snapshots() {
        sample(
            &format!("siro_cache_shard{}_hits_total", shard.index),
            "counter",
            shard.hits,
        );
        sample(
            &format!("siro_cache_shard{}_misses_total", shard.index),
            "counter",
            shard.misses,
        );
    }
    sample(
        "siro_pairs_synthesized_total",
        "counter",
        g.pairs_synthesized,
    );
    sample(
        "siro_coalesced_waiters_total",
        "counter",
        g.coalesced_waiters,
    );
    let store = siro_synth::store_stats();
    sample("siro_store_attached", "gauge", u64::from(store.attached));
    sample("siro_store_warm_loaded_total", "counter", store.warm_loaded);
    sample("siro_store_hits_total", "counter", store.hits);
    sample("siro_store_misses_total", "counter", store.misses);
    sample("siro_store_corrupt_total", "counter", store.corrupt);
    sample("siro_store_writes_total", "counter", store.writes);
    let compile = siro_synth::compile_stats();
    sample(
        "siro_compile_enabled",
        "gauge",
        u64::from(siro_synth::compile_enabled()),
    );
    sample("siro_compile_lowered_total", "counter", compile.lowered);
    sample(
        "siro_compile_lower_failures_total",
        "counter",
        compile.lower_failures,
    );
    sample(
        "siro_compile_translations_compiled_total",
        "counter",
        compile.translations_compiled,
    );
    sample(
        "siro_compile_translations_interpreted_total",
        "counter",
        compile.translations_interpreted,
    );
    sample(
        "siro_compile_runtime_fallbacks_total",
        "counter",
        compile.runtime_fallbacks,
    );
    sample(
        "siro_compile_sirx_loaded_total",
        "counter",
        compile.sirx_loaded,
    );
    sample(
        "siro_compile_sirx_corrupt_total",
        "counter",
        compile.sirx_corrupt,
    );
    sample(
        "siro_compile_sirx_writes_total",
        "counter",
        compile.sirx_writes,
    );
    let router = siro_synth::router_stats();
    sample("siro_router_plans_total", "counter", router.plans);
    sample("siro_router_direct_total", "counter", router.direct);
    sample("siro_router_composed_total", "counter", router.composed);
    sample(
        "siro_router_composed_cached_total",
        "counter",
        router.composed_cached,
    );
    sample("siro_router_fallbacks_total", "counter", router.fallbacks);
    sample(
        "siro_router_chains_persisted_total",
        "counter",
        router.chains_persisted,
    );
    sample("siro_router_max_hops", "gauge", router.max_hops);
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

    fn gauges() -> ServeGauges {
        ServeGauges {
            queue_depth: 3,
            queue_capacity: 64,
            workers: 8,
            pairs_synthesized: 2,
            coalesced_waiters: 5,
            reactor_loops: 11,
            registered_fds: 4,
            write_queue_hwm_bytes: 1024,
            open_connections: 2,
        }
    }

    #[test]
    fn stats_page_is_greppable() {
        let m = Metrics::default();
        m.on_request();
        m.on_ok(Duration::from_micros(300));
        m.on_throttled();
        let page = render_stats(&m, &gauges());
        assert_eq!(stats_value(&page, "requests_total"), Some(1));
        assert_eq!(stats_value(&page, "requests_throttled"), Some(1));
        assert_eq!(stats_value(&page, "queue_depth"), Some(3));
        assert_eq!(stats_value(&page, "queue_capacity"), Some(64));
        assert_eq!(stats_value(&page, "workers"), Some(8));
        assert_eq!(stats_value(&page, "pairs_synthesized"), Some(2));
        assert_eq!(stats_value(&page, "coalesced_waiters"), Some(5));
        assert_eq!(stats_value(&page, "no_such_key"), None);
        // The reactor funnel is always present.
        assert_eq!(stats_value(&page, "reactor_loops"), Some(11));
        assert_eq!(stats_value(&page, "reactor_registered_fds"), Some(4));
        assert_eq!(
            stats_value(&page, "reactor_write_queue_hwm_bytes"),
            Some(1024)
        );
        assert_eq!(stats_value(&page, "open_connections"), Some(2));
        assert!(stats_value(&page, "accept_errors").is_some());
        // Every cache shard reports its own hit/miss pair.
        for i in 0..siro_synth::CACHE_SHARDS {
            assert!(
                stats_value(&page, &format!("cache_shard{i}_hits")).is_some(),
                "missing shard {i} hits"
            );
            assert!(
                stats_value(&page, &format!("cache_shard{i}_misses")).is_some(),
                "missing shard {i} misses"
            );
        }
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
        // The compiled-tier funnel: which tier served, and the `.sirx`
        // persistence outcomes, are always observable.
        assert!(stats_value(&page, "compile_enabled").is_some());
        assert!(stats_value(&page, "compile_translations_compiled").is_some());
        assert!(stats_value(&page, "compile_translations_interpreted").is_some());
        assert!(stats_value(&page, "compile_runtime_fallbacks").is_some());
        assert!(stats_value(&page, "compile_sirx_corrupt").is_some());
    }

    #[test]
    fn metrics_page_is_prometheus_shaped() {
        let m = Metrics::default();
        m.on_request();
        m.on_ok(Duration::from_micros(300));
        let page = render_metrics(&m, &gauges());
        assert_eq!(metrics_value(&page, "siro_requests_total"), Some(1));
        assert_eq!(metrics_value(&page, "siro_queue_capacity"), Some(64));
        assert_eq!(metrics_value(&page, "siro_reactor_loops_total"), Some(11));
        assert!(metrics_value(&page, "siro_requests_throttled_total").is_some());
        assert!(metrics_value(&page, "siro_accept_errors_total").is_some());
        assert!(metrics_value(&page, "siro_cache_shard0_hits_total").is_some());
        assert!(metrics_value(&page, "siro_trace_enabled").is_some());
        assert!(metrics_value(&page, "siro_compile_enabled").is_some());
        assert!(metrics_value(&page, "siro_compile_translations_compiled_total").is_some());
        assert!(metrics_value(&page, "siro_compile_sirx_corrupt_total").is_some());
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
    }
}
