//! Exporters: Chrome `trace_event` JSON, the per-span aggregate table, and
//! the Prometheus-style plaintext metrics rendering.
//!
//! The Chrome format is the `{"traceEvents": [...]}` object form with
//! complete (`"ph": "X"`) events — timestamps and durations in
//! microseconds with nanosecond decimals — which both `chrome://tracing`
//! and Perfetto load directly. Span ids and parent links ride along in
//! `args` so [`parse_chrome_trace`] (and tests) can rebuild the exact span
//! tree; counter totals are stored in a `siroCounters` top-level member,
//! which trace viewers ignore.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::{SpanRecord, TraceSnapshot};

fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders a snapshot as Chrome `trace_event` JSON. Events are sorted by
/// `(tid, start, id)` so the output is deterministic for a given snapshot.
pub fn chrome_trace_json(snapshot: &TraceSnapshot) -> String {
    let mut spans: Vec<&SpanRecord> = snapshot.spans.iter().collect();
    spans.sort_by_key(|s| (s.tid, s.start_ns, s.id));
    let mut out = String::with_capacity(snapshot.spans.len() * 160 + 256);
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "    {{\"name\": {}, \"cat\": \"siro\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"span_id\": {}, \
             \"parent\": {}, \"detail\": {}}}}}",
            json::quote(&s.name),
            s.tid,
            us(s.start_ns),
            us(s.dur_ns),
            s.id,
            parent,
            json::quote(&s.detail),
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n  \"siroCounters\": {\n");
    for (i, (k, v)) in snapshot.counters.iter().enumerate() {
        let _ = write!(out, "    {}: {}", json::quote(k), v);
        out.push_str(if i + 1 == snapshot.counters.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  }\n}\n");
    out
}

/// Takes a [`crate::snapshot`] and writes it to `path` as Chrome trace
/// JSON, returning the path.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> std::io::Result<PathBuf> {
    let path = path.as_ref().to_path_buf();
    std::fs::write(&path, chrome_trace_json(&crate::snapshot()))?;
    Ok(path)
}

/// Where a CLI run drops its trace: `SIRO_TRACE_FILE` if set, else
/// `siro_trace.json` in the current directory.
pub fn default_trace_path() -> PathBuf {
    std::env::var_os("SIRO_TRACE_FILE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("siro_trace.json"))
}

/// Parses a Chrome trace JSON document produced by [`chrome_trace_json`]
/// back into a snapshot (used by `siro trace-report` and the golden test).
///
/// # Errors
///
/// A description of the first structural problem encountered.
pub fn parse_chrome_trace(text: &str) -> Result<TraceSnapshot, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut spans = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let field = |k: &str| ev.get(k).ok_or_else(|| format!("event {i}: missing `{k}`"));
        let ph = field("ph")?.as_str().unwrap_or_default();
        if ph != "X" {
            continue; // tolerate foreign events (metadata, counters)
        }
        let to_ns = |v: &Value, k: &str| -> Result<u64, String> {
            v.as_f64()
                .map(|us| (us * 1_000.0).round() as u64)
                .ok_or_else(|| format!("event {i}: `{k}` is not a number"))
        };
        let args = field("args")?;
        spans.push(SpanRecord {
            name: field("name")?
                .as_str()
                .ok_or_else(|| format!("event {i}: `name` is not a string"))?
                .to_string(),
            detail: args
                .get("detail")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            tid: field("tid")?
                .as_u64()
                .ok_or_else(|| format!("event {i}: bad `tid`"))?,
            id: args
                .get("span_id")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("event {i}: bad `args.span_id`"))?,
            parent: args.get("parent").and_then(Value::as_u64),
            start_ns: to_ns(field("ts")?, "ts")?,
            dur_ns: to_ns(field("dur")?, "dur")?,
        });
    }
    let counters = doc
        .get("siroCounters")
        .and_then(Value::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                .collect()
        })
        .unwrap_or_default();
    Ok(TraceSnapshot { spans, counters })
}

/// One row of the aggregate table: all spans sharing a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateRow {
    /// Span name.
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Mean duration, nanoseconds.
    pub mean_ns: u64,
    /// Largest single duration, nanoseconds.
    pub max_ns: u64,
}

/// Collapses a snapshot into per-name rows, widest total first.
pub fn aggregate(snapshot: &TraceSnapshot) -> Vec<AggregateRow> {
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in &snapshot.spans {
        let e = by_name.entry(&s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.dur_ns;
        e.2 = e.2.max(s.dur_ns);
    }
    let mut rows: Vec<AggregateRow> = by_name
        .into_iter()
        .map(|(name, (count, total_ns, max_ns))| AggregateRow {
            name: name.to_string(),
            count,
            total_ns,
            mean_ns: total_ns / count.max(1),
            max_ns,
        })
        .collect();
    rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    rows
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Renders the aggregate rows (and counters) as the fixed-width table
/// `siro trace-report` prints.
///
/// ```
/// let snap = siro_trace::TraceSnapshot {
///     spans: vec![siro_trace::SpanRecord {
///         name: "demo.phase".into(),
///         detail: String::new(),
///         tid: 1,
///         id: 1,
///         parent: None,
///         start_ns: 0,
///         dur_ns: 2_000_000,
///     }],
///     counters: [("demo.count".to_string(), 4u64)].into_iter().collect(),
/// };
/// let table = siro_trace::export::render_aggregate(&snap);
/// assert!(table.contains("demo.phase"));
/// assert!(table.contains("demo.count"));
/// ```
pub fn render_aggregate(snapshot: &TraceSnapshot) -> String {
    let rows = aggregate(snapshot);
    let name_w = rows
        .iter()
        .map(|r| r.name.len())
        .chain(std::iter::once("span".len()))
        .max()
        .unwrap_or(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>8}  {:>12}  {:>12}  {:>12}",
        "span", "count", "total ms", "mean ms", "max ms"
    );
    let _ = writeln!(out, "{}", "-".repeat(name_w + 52));
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>8}  {:>12}  {:>12}  {:>12}",
            r.name,
            r.count,
            ms(r.total_ns),
            ms(r.mean_ns),
            ms(r.max_ns)
        );
    }
    if !snapshot.counters.is_empty() {
        let _ = writeln!(out, "\ncounters:");
        for (k, v) in &snapshot.counters {
            let _ = writeln!(out, "  {k} {v}");
        }
    }
    out
}

fn sanitize_metric(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders the trace counters (plus the enabled gauge) in Prometheus
/// exposition format. `siro-serve` appends this to its own serving metrics
/// to form the `METRICS` page body.
pub fn render_prometheus_counters(snapshot: &TraceSnapshot) -> String {
    let mut out = String::new();
    out.push_str("# TYPE siro_trace_enabled gauge\n");
    let _ = writeln!(out, "siro_trace_enabled {}", u64::from(crate::enabled()));
    for (k, v) in &snapshot.counters {
        let metric = format!("siro_trace_{}", sanitize_metric(k));
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceSnapshot {
        TraceSnapshot {
            spans: vec![
                SpanRecord {
                    name: "root".into(),
                    detail: "pair 13.0->3.6".into(),
                    tid: 1,
                    id: 1,
                    parent: None,
                    start_ns: 1_500,
                    dur_ns: 10_000_000,
                },
                SpanRecord {
                    name: "child".into(),
                    detail: String::new(),
                    tid: 1,
                    id: 2,
                    parent: Some(1),
                    start_ns: 2_500,
                    dur_ns: 4_000_123,
                },
            ],
            counters: [("k.a".to_string(), 7u64)].into_iter().collect(),
        }
    }

    #[test]
    fn chrome_json_round_trips_exactly() {
        let snap = sample();
        let text = chrome_trace_json(&snap);
        let back = parse_chrome_trace(&text).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn aggregate_sums_and_sorts() {
        let rows = aggregate(&sample());
        assert_eq!(rows[0].name, "root");
        assert_eq!(rows[0].count, 1);
        assert_eq!(rows[1].name, "child");
        assert_eq!(rows[1].total_ns, 4_000_123);
        let table = render_aggregate(&sample());
        assert!(table.contains("root"), "{table}");
        assert!(table.contains("k.a 7"), "{table}");
    }

    #[test]
    fn prometheus_rendering_sanitizes_names() {
        let text = render_prometheus_counters(&sample());
        assert!(text.contains("siro_trace_enabled"), "{text}");
        assert!(text.contains("siro_trace_k_a 7"), "{text}");
    }
}
