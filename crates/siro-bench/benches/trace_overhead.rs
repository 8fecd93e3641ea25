//! Measures what the `siro-trace` instrumentation costs — and enforces
//! that the *disabled* cost stays negligible.
//!
//! Three configurations run the same ~1 µs workload:
//!
//! 1. **baseline** — no tracing calls in the loop at all;
//! 2. **disabled** — every op wrapped in a `span!` and a `counter`, with
//!    tracing off (the production default: each call is one relaxed
//!    atomic load);
//! 3. **enabled** — the same instrumentation with tracing on, spans
//!    recorded and flushed (the price an operator pays for a trace).
//!
//! The bench fails (exit 1) if the disabled overhead exceeds
//! `SIRO_TRACE_OVERHEAD_MAX_PCT` percent (default 2.0) of baseline —
//! unless the absolute delta is under a few ns/op, which is below what
//! this harness can resolve from noise. Results go to
//! `BENCH_trace_overhead.json` (`siro-bench/trace-v1`).

use std::hint::black_box;
use std::time::Instant;

use siro_bench::{env_f64, median};
use siro_trace::json::obj;

const ITERS: u64 = 20_000;
const REPS: usize = 7;

/// Differences smaller than this are measurement noise on a ~1 µs op, not
/// signal; the percentage gate only applies above it.
const NOISE_FLOOR_NS: f64 = 5.0;

/// ~1 µs of deterministic register work (an LCG scramble), opaque to the
/// optimizer via `black_box` so the three loops compile identically.
fn workload(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..400 {
        x = black_box(
            x.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407),
        );
        x ^= x >> 29;
    }
    x
}

fn ns_per_op(total_ns: u128) -> f64 {
    total_ns as f64 / ITERS as f64
}

fn run_baseline() -> f64 {
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..ITERS {
        acc ^= workload(i);
    }
    black_box(acc);
    ns_per_op(t0.elapsed().as_nanos())
}

fn run_instrumented() -> f64 {
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..ITERS {
        let _s = siro_trace::span!("bench.op", "iteration {}", i);
        acc ^= workload(i);
        siro_trace::counter("bench.ops", 1);
    }
    black_box(acc);
    ns_per_op(t0.elapsed().as_nanos())
}

fn main() {
    let threshold_pct = env_f64("SIRO_TRACE_OVERHEAD_MAX_PCT", 2.0);

    siro_bench::banner(&format!(
        "trace_overhead: {ITERS} ops x {REPS} reps, gate {threshold_pct}% on the disabled path"
    ));

    // Interleave the configurations so clock drift and thermal effects
    // hit all three equally; keep the median per configuration.
    let (mut base, mut off, mut on) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        siro_trace::set_enabled(false);
        base.push(run_baseline());
        off.push(run_instrumented());
        siro_trace::set_enabled(true);
        siro_trace::reset(); // bound memory: drop the previous rep's spans
        on.push(run_instrumented());
    }
    siro_trace::set_enabled(false);
    siro_trace::reset();

    let baseline = median(base);
    let disabled = median(off);
    let enabled = median(on);
    let pct = |x: f64| (x - baseline) / baseline * 100.0;
    let disabled_pct = pct(disabled);
    let enabled_pct = pct(enabled);
    let within_noise = (disabled - baseline).abs() < NOISE_FLOOR_NS;
    let pass = within_noise || disabled_pct <= threshold_pct;

    println!("baseline  {baseline:>9.1} ns/op");
    println!("disabled  {disabled:>9.1} ns/op  ({disabled_pct:+.2}%)");
    println!("enabled   {enabled:>9.1} ns/op  ({enabled_pct:+.2}%)");

    let doc = obj([
        ("schema", "siro-bench/trace-v1".into()),
        ("iters", ITERS.into()),
        ("reps", REPS.into()),
        (
            "ns_per_op",
            obj([
                ("baseline", baseline.into()),
                ("disabled", disabled.into()),
                ("enabled", enabled.into()),
            ]),
        ),
        (
            "overhead_pct",
            obj([
                ("disabled", disabled_pct.into()),
                ("enabled", enabled_pct.into()),
            ]),
        ),
        ("threshold_pct", threshold_pct.into()),
        ("pass", pass.into()),
    ]);
    let path = siro_bench::write("trace_overhead", &doc).expect("writing the bench record");
    println!("wrote {}", path.display());

    if !pass {
        eprintln!(
            "FAIL: disabled-path overhead {disabled_pct:.2}% exceeds the {threshold_pct}% gate"
        );
        std::process::exit(1);
    }
    println!("PASS: disabled-path overhead within the {threshold_pct}% gate");
}
