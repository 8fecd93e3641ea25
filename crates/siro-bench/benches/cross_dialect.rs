//! Cross-dialect gate: every in-catalog WIR pair and every SIRO↔WIR
//! bridge anchor must synthesize and round-trip byte-identically warm.
//!
//! Two phases:
//!
//! 1. **WIR matrix** — for each of the `N·(N-1)` ordered WIR pairs,
//!    synthesize the translator through the production memoized path
//!    (cold timing), push a universal-subset corpus through the
//!    `from → to → from` round trip (gate: byte-identical to the source
//!    on every module), then re-translate warm (gate: warm bytes equal
//!    cold bytes; the pair must be Hot in the process cache).
//! 2. **bridge anchors** — for each `BRIDGE_ANCHORS` entry, validate the
//!    bridge certificate cold, push a raisable corpus through
//!    raise → lower (gate: the `XBehaviour` bucket survives both legs on
//!    every module), then repeat one full round trip warm (gate: bytes
//!    identical to the cold pass; the certificate must be hot).
//!
//! Dumps `BENCH_cross_dialect.json` (`siro-bench/cross-dialect-v1`) and
//! exits non-zero when a gate fails.

use std::time::Instant;

use siro_bench::micros;
use siro_synth::{
    bridge_cached, bridge_is_hot, lower_module, raise_module, reset_bridge_cache, reset_wir_cache,
    siro_behaviour, wir_behaviour, wir_pair_is_hot, wir_translator_cached, BRIDGE_ANCHORS,
};
use siro_trace::json::{obj, Value};
use siro_wir::{generate_straightline, write_module, WirVersion};

const CORPUS: u64 = 24;

/// Universal-subset corpus: straight-line modules generated at the base
/// version (no `select`/`local.tee`/`br_table`), re-stamped to `v` — the
/// subset every WIR version can express, so round trips must be exact.
fn universal_corpus(v: WirVersion) -> Vec<siro_wir::WirModule> {
    (0..CORPUS)
        .map(|seed| {
            let mut m = generate_straightline(seed, WirVersion::W1_0);
            m.version = v;
            m
        })
        .collect()
}

fn main() {
    reset_wir_cache();
    reset_bridge_cache();
    let catalog = WirVersion::CATALOG;
    siro_bench::banner(&format!(
        "cross_dialect: {} WIR pairs, {} bridge anchors",
        catalog.len() * (catalog.len() - 1),
        BRIDGE_ANCHORS.len()
    ));

    // First-synthesis latency per ordered pair: each pair's forward
    // translator also serves as a later pair's return leg, so cold times
    // are captured once here no matter which pair first triggers them.
    let mut cold_times: std::collections::HashMap<(WirVersion, WirVersion), u64> =
        std::collections::HashMap::new();
    fn acquire(
        cold_times: &mut std::collections::HashMap<(WirVersion, WirVersion), u64>,
        a: WirVersion,
        b: WirVersion,
    ) -> std::sync::Arc<siro_synth::WirOutcome> {
        let t = Instant::now();
        let (outcome, synthesized) =
            wir_translator_cached(a, b).unwrap_or_else(|e| panic!("synthesize {a}->{b}: {e}"));
        if synthesized {
            cold_times.insert((a, b), micros(t.elapsed()));
        }
        outcome
    }

    let mut pass = true;
    let mut wir_pairs = Vec::new();
    for &a in &catalog {
        for &b in &catalog {
            if a == b {
                continue;
            }
            let was_hot = wir_pair_is_hot(a, b);
            let fwd = acquire(&mut cold_times, a, b);
            let back = acquire(&mut cold_times, b, a);
            let synth_cold_us = cold_times.get(&(a, b)).copied().unwrap_or(0);

            let corpus = universal_corpus(a);
            let mut roundtrip_identical = 0usize;
            let mut cold_bytes = Vec::new();
            for m in &corpus {
                let t = fwd
                    .translator
                    .translate_module(m)
                    .unwrap_or_else(|e| panic!("{a}->{b}: {e}"));
                let rt = back
                    .translator
                    .translate_module(&t)
                    .unwrap_or_else(|e| panic!("{b}->{a}: {e}"));
                if write_module(&rt) == write_module(m) {
                    roundtrip_identical += 1;
                }
                cold_bytes.push(write_module(&t));
            }

            // Warm pass: memoized acquisition + re-translate, byte-compared
            // against the cold outputs.
            let t_warm = Instant::now();
            let (fwd2, resynth) = wir_translator_cached(a, b).expect("warm acquire");
            let warm_identical = !resynth
                && corpus.iter().zip(&cold_bytes).all(|(m, cold)| {
                    fwd2.translator
                        .translate_module(m)
                        .is_ok_and(|t| write_module(&t) == *cold)
                });
            let warm_us = micros(t_warm.elapsed()) / CORPUS.max(1);

            let ok = roundtrip_identical == corpus.len() && warm_identical && wir_pair_is_hot(a, b);
            pass &= ok;
            println!(
                "wir {a} -> {b}: cold {}us{}, warm {}us/module, {}/{} round trips exact{}",
                synth_cold_us,
                if was_hot { " (pre-hot)" } else { "" },
                warm_us,
                roundtrip_identical,
                corpus.len(),
                if ok { "" } else { "  GATE FAILED" }
            );
            wir_pairs.push(obj([
                ("from", a.to_string().into()),
                ("to", b.to_string().into()),
                ("synth_cold_us", synth_cold_us.into()),
                ("warm_us", warm_us.into()),
                ("corpus", corpus.len().into()),
                ("roundtrip_identical", roundtrip_identical.into()),
                ("warm_identical", warm_identical.into()),
            ]));
        }
    }

    let mut cross_pairs = Vec::new();
    for (siro, wir) in BRIDGE_ANCHORS {
        let t_cold = Instant::now();
        bridge_cached(siro, wir).unwrap_or_else(|e| panic!("bridge {siro}<->wir{wir}: {e}"));
        let bridge_cold_us = micros(t_cold.elapsed());

        let mut buckets_preserved = 0usize;
        let mut corpus_used = 0usize;
        let mut cold_rt: Option<(siro_wir::WirModule, String)> = None;
        for seed in 0..CORPUS {
            let w = generate_straightline(seed, wir);
            let want = wir_behaviour(&w);
            let Ok(s) = raise_module(&w, siro) else {
                continue; // outside the raisable subset: not corpus
            };
            corpus_used += 1;
            let lowered = lower_module(&s, wir)
                .unwrap_or_else(|e| panic!("lower {siro}->wir{wir} seed {seed}: {e}"));
            if siro_behaviour(&s) == want && wir_behaviour(&lowered) == want {
                buckets_preserved += 1;
            }
            if cold_rt.is_none() {
                cold_rt = Some((w, write_module(&lowered)));
            }
        }

        // Warm pass over one representative module: the certificate is hot
        // and the round trip reproduces the cold bytes exactly.
        let (w, cold_bytes) = cold_rt.expect("raisable corpus is non-empty");
        let t_warm = Instant::now();
        let (_, revalidated) = bridge_cached(siro, wir).expect("warm certificate");
        let warm_bytes = write_module(
            &lower_module(&raise_module(&w, siro).expect("warm raise"), wir).expect("warm lower"),
        );
        let warm_us = micros(t_warm.elapsed());
        let warm_identical = !revalidated && warm_bytes == cold_bytes && bridge_is_hot(siro, wir);

        let ok = buckets_preserved == corpus_used && corpus_used > 0 && warm_identical;
        pass &= ok;
        println!(
            "bridge {siro} <-> wir{wir}: cold {}us, warm {}us, {}/{} buckets preserved{}",
            bridge_cold_us,
            warm_us,
            buckets_preserved,
            corpus_used,
            if ok { "" } else { "  GATE FAILED" }
        );
        cross_pairs.push(obj([
            ("siro", siro.to_string().into()),
            ("wir", wir.to_string().into()),
            ("bridge_cold_us", bridge_cold_us.into()),
            ("warm_us", warm_us.into()),
            ("corpus", corpus_used.into()),
            ("buckets_preserved", buckets_preserved.into()),
            ("warm_identical", warm_identical.into()),
        ]));
    }

    let doc = obj([
        ("schema", "siro-bench/cross-dialect-v1".into()),
        ("wir_pairs", Value::Arr(wir_pairs)),
        ("cross_pairs", Value::Arr(cross_pairs)),
        ("pass", pass.into()),
    ]);
    let path = siro_bench::write("cross_dialect", &doc).expect("writing the bench record");
    println!("wrote {}", path.display());
    if !pass {
        eprintln!("cross_dialect gate FAILED");
        std::process::exit(1);
    }
    println!(
        "cross_dialect gate passed: {} WIR pairs + {} anchors, all warm round trips byte-identical",
        catalog.len() * (catalog.len() - 1),
        BRIDGE_ANCHORS.len()
    );
}
