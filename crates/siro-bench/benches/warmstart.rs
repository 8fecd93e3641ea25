//! Warm-start benchmark: proves that a `siro-serve` boot from a populated
//! translator store answers its *first* request at cache-hit speed — no
//! synthesis, no `synth.*` spans — and quantifies the win over cold boot.
//!
//! Three phases on one loopback server pair:
//!
//! 1. **cold** — store attached but empty; the first TRANSLATE pays full
//!    synthesis (and writes the entry back), then ~`REPS` hits give the
//!    steady-state baseline;
//! 2. **warm boot** — process caches wiped, server rebooted with
//!    `store_dir` set; boot wall clock includes the warm start;
//! 3. **warm** — the first TRANSLATE must be a cache hit within
//!    `SIRO_WARMSTART_MAX_RATIO` (default 2.0) of the warm hit median
//!    (floored at 500 µs against scheduler noise), with zero `synth.*`
//!    spans recorded.
//!
//! Dumps `BENCH_warmstart.json` (`siro-bench/warmstart-v1`) and exits
//! non-zero when the gate fails.

use std::sync::Arc;
use std::time::{Duration, Instant};

use siro_bench::{env_f64, median, micros, version_pair};
use siro_ir::{write, IrVersion};
use siro_serve::{Client, ServeConfig, TranslateMode};
use siro_synth::{
    reset_store_stats, set_active_store, store_stats, StoreConfig, TranslatorCache, TranslatorStore,
};
use siro_trace::json::obj;

const PAIR: (IrVersion, IrVersion) = (IrVersion::V13_0, IrVersion::V3_6);
const REPS: usize = 30;
/// Sub-millisecond loopback requests are dominated by scheduler noise and
/// first-touch (icache/allocator) warm-up, so the gate compares the warm
/// first request against at least this much. The separation being gated is
/// cache-hit-class (hundreds of µs) vs synthesis-class (tens of ms), so a
/// 500 µs floor keeps >20x of margin against a real warm-start regression.
const NOISE_FLOOR_US: u64 = 500;

/// One timed TRANSLATE over an existing connection, client-side wall.
fn timed_translate(client: &mut Client, text: &str) -> (u64, bool, String) {
    let started = Instant::now();
    let out = client
        .translate(PAIR.0, PAIR.1, TranslateMode::Synthesized, text.to_string())
        .expect("benchmark translation");
    (micros(started.elapsed()), out.cache_hit, out.text)
}

fn main() {
    let max_ratio = env_f64("SIRO_WARMSTART_MAX_RATIO", 2.0);
    let dir = std::env::temp_dir().join(format!("siro-bench-warmstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (src, tgt) = PAIR;
    let case = siro_testcases::corpus_for_pair(src, tgt)
        .into_iter()
        .next()
        .expect("corpus case for the pair");
    let text = write::write_module(&case.build(src));

    // ---- Phase 1: cold serve, store attached (populates the entry). ----
    let store = Arc::new(TranslatorStore::open(StoreConfig::at(&dir)).expect("open store"));
    set_active_store(Some(store));
    reset_store_stats();
    TranslatorCache::reset();
    let handle = siro_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: Some(2),
        ..ServeConfig::default()
    })
    .expect("cold server binds");
    siro_bench::banner(&format!(
        "warmstart: pair {src}->{tgt} on {}, {REPS} reps, gate {max_ratio}x",
        handle.addr()
    ));
    let mut client = Client::connect(handle.addr(), Duration::from_secs(60)).expect("connect");
    let (cold_first_us, cold_hit, _) = timed_translate(&mut client, &text);
    assert!(!cold_hit, "the first cold request must synthesize");
    let cold_hits: Vec<u64> = (0..REPS)
        .map(|_| {
            let (us, hit, _) = timed_translate(&mut client, &text);
            assert!(hit, "post-synthesis requests must hit the cache");
            us
        })
        .collect();
    let cold_hit_p50_us = median(cold_hits);
    drop(client);
    handle.shutdown();
    assert_eq!(store_stats().writes, 1, "cold synthesis must persist");
    set_active_store(None);
    let store_bytes: u64 = std::fs::read_dir(&dir)
        .expect("store dir")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();

    // ---- Phase 2 + 3: wipe process state, boot warm, measure. ----------
    TranslatorCache::reset();
    reset_store_stats();
    siro_trace::set_enabled(true);
    siro_trace::reset();
    let boot_started = Instant::now();
    let handle = siro_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: Some(2),
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("warm server binds");
    let warm_boot_us = micros(boot_started.elapsed());
    let warm_loaded = store_stats().warm_loaded;
    assert!(warm_loaded >= 1, "warm boot loaded nothing from the store");

    let mut client = Client::connect(handle.addr(), Duration::from_secs(60)).expect("connect");
    let (warm_first_us, warm_first_hit, warm_text) = timed_translate(&mut client, &text);
    assert!(warm_first_hit, "the first warm request must be a cache hit");
    let warm_hits: Vec<u64> = (0..REPS)
        .map(|_| timed_translate(&mut client, &text).0)
        .collect();
    let warm_hit_p50_us = median(warm_hits);
    drop(client);
    handle.shutdown();

    let snapshot = siro_trace::snapshot();
    let synth_spans = snapshot
        .spans
        .iter()
        .filter(|s| s.name.starts_with("synth."))
        .count();
    siro_trace::set_enabled(false);
    set_active_store(None);

    // Cold output vs warm output equality is covered by the e2e test;
    // here we still sanity-check the warm answer is non-empty.
    assert!(!warm_text.is_empty());

    let ratio = warm_first_us as f64 / warm_hit_p50_us.max(NOISE_FLOOR_US) as f64;
    let pass = ratio <= max_ratio && synth_spans == 0;
    println!(
        "cold: first request {cold_first_us} us (full synthesis), hit p50 {cold_hit_p50_us} us"
    );
    println!(
        "warm: boot {warm_boot_us} us ({warm_loaded} entr{} loaded, {store_bytes} store bytes), \
         first request {warm_first_us} us, hit p50 {warm_hit_p50_us} us",
        if warm_loaded == 1 { "y" } else { "ies" },
    );
    println!(
        "gate: warm first / hit p50 = {ratio:.3} (max {max_ratio:.1}), synth spans {synth_spans}  \
         ->  {}",
        if pass { "pass" } else { "FAIL" }
    );

    let doc = obj([
        ("schema", "siro-bench/warmstart-v1".into()),
        ("pair", version_pair((src, tgt))),
        (
            "cold_us",
            obj([
                ("first_request", cold_first_us.into()),
                ("hit_p50", cold_hit_p50_us.into()),
            ]),
        ),
        (
            "warm_us",
            obj([
                ("boot", warm_boot_us.into()),
                ("first_request", warm_first_us.into()),
                ("hit_p50", warm_hit_p50_us.into()),
            ]),
        ),
        ("warm_loaded", warm_loaded.into()),
        ("store_bytes", store_bytes.into()),
        ("synth_spans", synth_spans.into()),
        ("max_ratio", max_ratio.into()),
        ("ratio", ratio.into()),
        ("pass", pass.into()),
    ]);
    let path = siro_bench::write("warmstart", &doc).expect("writing the bench record");
    println!("wrote {}", path.display());
    let _ = std::fs::remove_dir_all(&dir);
    if !pass {
        eprintln!(
            "warm-start gate failed: the first warm request is not cache-hit-class \
             (or warm boot synthesized)"
        );
        std::process::exit(1);
    }
}
