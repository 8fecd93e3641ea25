//! Regenerates the RQ3 time breakdown: synthesis of the 13.0 -> 3.6 pair
//! over the 60 base test cases, with per-stage wall-clock shares.
//!
//! Paper reference: 2.91 h total; 90.7% validation; 0.12 h enumeration;
//! 0.15 h refinement + completion; only 0.19 h of validation was spent
//! executing test cases (translation/compilation rejects most wrong
//! translators early).
//!
//! The run lands in `BENCH_rq3_breakdown.json` (`siro-bench/synthesis-v2`).

use std::time::Instant;

use siro_bench::{banner, synthesis_doc, synthesis_pair, synthesize_pair};
use siro_ir::IrVersion;

fn main() {
    banner("RQ3 - synthesis time breakdown (13.0 -> 3.6, base corpus)");
    let tests: Vec<_> = siro_synth::oracle_corpus(IrVersion::V13_0, IrVersion::V3_6);
    println!("test cases: {}", tests.len());
    let t0 = Instant::now();
    let outcome =
        synthesize_pair(IrVersion::V13_0, IrVersion::V3_6).unwrap_or_else(|e| panic!("{e}"));
    let wall = t0.elapsed();
    let t = outcome.report.timings;
    let total = t.total().as_secs_f64();
    let row = |name: &str, d: std::time::Duration| {
        println!(
            "{:>28}: {:>9.3}s ({:>5.1}%)",
            name,
            d.as_secs_f64(),
            d.as_secs_f64() / total * 100.0
        );
    };
    println!("\nwall-clock per stage:");
    row("type-guided generation", t.generation);
    row("profiling", t.profiling);
    row("enumeration (incl. probes)", t.enumeration);
    row("validation", t.validation);
    row("refinement", t.refinement);
    row("skeleton completion", t.completion);
    println!("{:>28}: {:>9.3}s", "total", total);
    println!("\nwithin validation (CPU time across workers):");
    println!(
        "{:>28}: {:>9.3}s",
        "translate + compile",
        t.validation_translate_cpu.as_secs_f64()
    );
    println!(
        "{:>28}: {:>9.3}s",
        "execute test cases",
        t.validation_execute_cpu.as_secs_f64()
    );
    println!(
        "\nper-test translators validated: {}",
        outcome.report.assignments_validated
    );
    let redundant = outcome.report.redundant_tests();
    println!(
        "test cases that pruned nothing (duplicate-candidates feedback): {}",
        if redundant.is_empty() {
            "none".to_string()
        } else {
            redundant.join(", ")
        }
    );
    let entry = synthesis_pair((IrVersion::V13_0, IrVersion::V3_6), &outcome, wall, false);
    let path = siro_bench::write("rq3_breakdown", &synthesis_doc(vec![entry]))
        .expect("writing the bench record");
    println!("\nwrote {}", path.display());
    println!("\npaper shape: validation dominates; execution is a small fraction of it");
    println!("because translation/compilation failures reject most candidates early.");
}
