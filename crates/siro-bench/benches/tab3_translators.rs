//! Regenerates Tab. 3: synthesizing IR translators for ten version pairs.
//!
//! The ten pairs are synthesized concurrently through the process-wide
//! translator cache (`synthesize_pairs` fans one worker out per pair;
//! each worker parallelizes internally). For every pair the harness
//! reports the common/new instruction counts (exact reproduction) and the
//! candidate / final translator sizes (our substrate's scale; the paper's
//! numbers are C++ LOC over real LLVM), then dumps per-pair stage timings
//! and cache counters to `BENCH_tab3_translators.json`
//! (`siro-bench/synthesis-v2`).

use std::time::Instant;

use siro_bench::{banner, synthesis_doc, synthesis_pair, synthesize_pairs};
use siro_ir::IrVersion;
use siro_synth::TranslatorCache;

fn main() {
    banner("Table 3 - Pairs of IR translator versions achieved by Siro");
    let pairs = [
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
    println!(
        "synthesizing {} pairs concurrently ({} worker threads per pair) ...",
        pairs.len(),
        siro_synth::resolve_threads()
    );
    let t0 = Instant::now();
    let results = synthesize_pairs(&pairs).unwrap_or_else(|e| panic!("{e}"));
    let fanout_wall = t0.elapsed();

    println!(
        "\n{:>3} | {:>7} | {:>7} | {:>12} | {:>9} | {:>6} | {:>17} | {:>15} | {:>8}",
        "No.",
        "Source",
        "Target",
        "#Common Inst",
        "#New Inst",
        "#Tests",
        "#Atomic Trans(LOC)",
        "#Inst Trans(LOC)",
        "Time"
    );
    println!("{}", "-".repeat(110));
    for (i, ((src, tgt), (lookup, wall))) in pairs.iter().zip(&results).enumerate() {
        let outcome = &lookup.outcome;
        let common = src.common_instructions(*tgt).len();
        let new = src.new_instructions_vs(*tgt).len();
        println!(
            "{:>3} | {:>7} | {:>7} | {:>12} | {:>9} | {:>6} | {:>17} | {:>15} | {:>7.2}s",
            i + 1,
            src.to_string(),
            tgt.to_string(),
            common,
            new,
            outcome.report.tests_used,
            outcome.report.candidate_loc,
            outcome.report.translator_loc,
            wall.as_secs_f64(),
        );
    }
    let stats = TranslatorCache::snapshot();
    println!(
        "\nfan-out wall clock: {:.2}s for {} pairs (sum of per-pair walls: {:.2}s); \
         cache: {} hits / {} misses",
        fanout_wall.as_secs_f64(),
        pairs.len(),
        results.iter().map(|(_, w)| w.as_secs_f64()).sum::<f64>(),
        stats.hits,
        stats.misses,
    );
    let entries = pairs
        .iter()
        .zip(&results)
        .map(|(&pair, (lookup, wall))| synthesis_pair(pair, &lookup.outcome, *wall, !lookup.fresh))
        .collect();
    let path = siro_bench::write("tab3_translators", &synthesis_doc(entries))
        .expect("writing the bench record");
    println!("wrote {}", path.display());
    println!("\npaper columns reproduced exactly: #Common Inst, #New Inst (all ten rows).");
    println!("LOC columns measure this substrate's rendered translators; the paper's are C++.");
    println!("paper wall-clock: < 3 h per pair on real LLVM; here the substrate is in-process.");
}
