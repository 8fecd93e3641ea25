//! The full evaluation pipeline in one process, sharing one translator
//! cache — the "synthesis performance" experiment of EXPERIMENTS.md.
//!
//! Phases:
//!
//! 1. **cold sequential** — synthesize the Tab. 3 pairs one after another
//!    (cache cleared first) and time the loop;
//! 2. **cold fan-out** — clear the cache again and synthesize the same
//!    pairs through the multi-pair fan-out, for the parallel speedup;
//! 3. **warm evaluation** — run Tab. 4, Tab. 5, and the kernel campaign;
//!    every translator they need is already cached, so the phase performs
//!    **zero re-synthesis**, which the cache miss counter proves.
//!
//! Per-pair stage timings and the final hit/miss counters land in
//! `BENCH_full_eval.json` (`siro-bench/synthesis-v2`).

use std::time::Instant;

use siro_bench::{banner, synthesis_doc, synthesis_pair, synthesize_pairs};
use siro_ir::IrVersion;
use siro_synth::{SynthesisConfig, Synthesizer, TranslatorCache};

const PAIRS: [(IrVersion, IrVersion); 10] = [
    (IrVersion::V12_0, IrVersion::V3_6),
    (IrVersion::V13_0, IrVersion::V3_6),
    (IrVersion::V14_0, IrVersion::V3_6),
    (IrVersion::V15_0, IrVersion::V3_6),
    (IrVersion::V17_0, IrVersion::V3_6),
    (IrVersion::V17_0, IrVersion::V3_0),
    (IrVersion::V3_6, IrVersion::V3_0),
    (IrVersion::V5_0, IrVersion::V4_0),
    (IrVersion::V17_0, IrVersion::V12_0),
    (IrVersion::V3_6, IrVersion::V12_0),
];

fn main() {
    banner("Full evaluation - shared translator cache + parallel fan-out");
    let threads = siro_synth::resolve_threads();
    println!("worker threads per pair: {threads} (SIRO_THREADS to override)");

    // Phase 1: cold sequential baseline.
    TranslatorCache::reset();
    let t0 = Instant::now();
    for &(src, tgt) in &PAIRS {
        let tests = siro_synth::oracle_corpus(src, tgt);
        Synthesizer::new(SynthesisConfig::new(src, tgt))
            .synthesize(&tests)
            .unwrap_or_else(|e| panic!("sequential {src} -> {tgt}: {e}"));
    }
    let sequential = t0.elapsed();
    println!(
        "\nphase 1  cold sequential loop : {:>8.2}s for {} pairs",
        sequential.as_secs_f64(),
        PAIRS.len()
    );

    // Phase 2: cold fan-out over the same pairs.
    TranslatorCache::reset();
    let t0 = Instant::now();
    let results = synthesize_pairs(&PAIRS).unwrap_or_else(|e| panic!("{e}"));
    let fanout = t0.elapsed();
    println!(
        "phase 2  cold parallel fan-out: {:>8.2}s  (speedup {:.2}x)",
        fanout.as_secs_f64(),
        sequential.as_secs_f64() / fanout.as_secs_f64().max(1e-9),
    );
    let after_cold = TranslatorCache::snapshot();
    assert_eq!(
        after_cold.misses,
        PAIRS.len() as u64,
        "cold fan-out must synthesize every pair exactly once"
    );

    // Phase 3: the warm evaluation pipeline — Tab. 4, Tab. 5, kernel.
    let t0 = Instant::now();
    let tab4 = siro_bench::synthesize_pair(IrVersion::V12_0, IrVersion::V3_6)
        .unwrap_or_else(|e| panic!("{e}"));
    let results4 = siro_workloads::run_table4(&tab4.translator, IrVersion::V12_0, IrVersion::V3_6)
        .unwrap_or_else(|e| panic!("{e}"));
    let rows5 = siro_fuzz::run_table5(
        &tab4.translator,
        IrVersion::V12_0,
        IrVersion::V3_6,
        siro_fuzz::Scale::from_env(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
    let t14 = siro_bench::synthesize_pair(IrVersion::V14_0, IrVersion::V3_6)
        .unwrap_or_else(|e| panic!("{e}"));
    let t15 = siro_bench::synthesize_pair(IrVersion::V15_0, IrVersion::V3_6)
        .unwrap_or_else(|e| panic!("{e}"));
    let campaign = siro_kernel::run_campaign(
        &|v| -> Box<dyn siro_core::InstTranslator> {
            if v == IrVersion::V14_0 {
                Box::new(t14.translator.clone())
            } else {
                Box::new(t15.translator.clone())
            }
        },
        IrVersion::V3_6,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    let warm = t0.elapsed();

    let stats = TranslatorCache::snapshot();
    let warm_misses = stats.misses - after_cold.misses;
    println!(
        "phase 3  warm Tab.4+Tab.5+kernel: {:>6.2}s, re-synthesis: {warm_misses} \
         (cache: {} hits / {} misses)",
        warm.as_secs_f64(),
        stats.hits,
        stats.misses
    );
    assert_eq!(warm_misses, 0, "warm evaluation must never re-synthesize");

    // Sanity: the warm pipeline still reproduces the paper's numbers.
    let shared: usize = results4.iter().map(|r| r.diff.shared.len()).sum();
    let cves: usize = rows5.iter().map(|r| r.cves).sum();
    assert_eq!(shared, 253);
    assert_eq!(cves, 111);
    assert_eq!(campaign.total_bugs(), 80);

    let entries = PAIRS
        .iter()
        .zip(&results)
        .map(|(&pair, (lookup, wall))| synthesis_pair(pair, &lookup.outcome, *wall, !lookup.fresh))
        .collect();
    let path =
        siro_bench::write("full_eval", &synthesis_doc(entries)).expect("writing the bench record");
    println!("\nwrote {}", path.display());
    println!(
        "\nsummary: sequential {:.2}s -> fan-out {:.2}s on {threads} threads; warm",
        sequential.as_secs_f64(),
        fanout.as_secs_f64()
    );
    println!("evaluation re-synthesized nothing (Tab.4 + Tab.5 + kernel all cache hits).");
}
