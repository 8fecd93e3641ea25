//! Time-boxed smoke run of the coverage-guided differential fuzzer, in
//! two configurations per pair:
//!
//! 1. **clean** — the production synthesis pipeline; any oracle failure
//!    is a real translator bug and fails the bench (exit 1);
//! 2. **seeded fault** — a deliberately broken refinement
//!    (`swap-operands:sub`) injected into every translator leg; the bench
//!    fails unless the fuzzer both *catches* the fault and *shrinks* a
//!    reproduction to ≤ 10 placed instructions.
//!
//! It also enforces the validation-depth claim measured in
//! `EXPERIMENTS.md`: coverage-guided mutation must reach at least 10
//! opcode kinds the generated seed corpus alone never produces. Results
//! go to `BENCH_difftest_smoke.json` (schema `siro-bench/difftest-v1`).
//!
//! `SIRO_DIFFTEST_BUDGET_SECS` overrides the per-run budget (default 5).

use std::time::Duration;

use siro_difftest::{difftest_json, run, DifftestConfig, SHRINK_TARGET};
use siro_ir::{IrVersion, Opcode};
use siro_synth::SynthFault;

/// New-kind floor the guided mutation must demonstrate.
const NEW_KIND_FLOOR: usize = 10;

fn main() {
    let budget = siro_bench::env_f64("SIRO_DIFFTEST_BUDGET_SECS", 5.0);
    siro_bench::banner(&format!(
        "difftest_smoke: clean + seeded-fault runs, {budget}s budget each"
    ));

    let triple = (IrVersion::V13_0, IrVersion::V12_0, IrVersion::V3_6);
    let mut pass = true;
    let mut reports = Vec::new();

    // Clean configuration: production translators must survive fuzzing.
    let mut cfg = DifftestConfig::new(triple.0, triple.1, triple.2);
    cfg.budget = Duration::from_secs_f64(budget);
    let clean = run(&cfg).expect("clean synthesis failed");
    println!(
        "clean   {} -> {}: {} execs ({:.0}/s), corpus {}, {} new kinds, {} failures",
        clean.src,
        clean.tgt,
        clean.execs,
        clean.execs_per_sec(),
        clean.corpus_size,
        clean.new_kinds().len(),
        clean.failures.len()
    );
    if !clean.failures.is_empty() {
        eprintln!("FAIL: clean run found translator bugs:");
        for f in &clean.failures {
            eprintln!("  [{}/{}] {}", f.oracle, f.family.name(), f.detail);
        }
        pass = false;
    }
    if clean.new_kinds().len() < NEW_KIND_FLOOR {
        eprintln!(
            "FAIL: guided mutation reached only {} kinds beyond generation (floor {})",
            clean.new_kinds().len(),
            NEW_KIND_FLOOR
        );
        pass = false;
    }

    // Seeded-fault configuration: the pipeline must catch and shrink it.
    let mut cfg = DifftestConfig::new(triple.0, triple.1, triple.2);
    cfg.budget = Duration::from_secs_f64(budget);
    cfg.fault = Some(SynthFault::SwapOperands(Opcode::Sub));
    let faulted = run(&cfg).expect("faulted synthesis failed");
    let best_shrink = faulted.failures.iter().map(|f| f.reduced_insts).min();
    println!(
        "faulted {} -> {}: {} execs ({:.0}/s), {} failures ({} distinct), best shrink {:?}",
        faulted.src,
        faulted.tgt,
        faulted.execs,
        faulted.execs_per_sec(),
        faulted.failures.len(),
        faulted.distinct_failures(),
        best_shrink
    );
    match best_shrink {
        None => {
            eprintln!("FAIL: the seeded swap-operands:sub fault was not caught");
            pass = false;
        }
        Some(n) if n > SHRINK_TARGET => {
            eprintln!("FAIL: best reduction is {n} placed instructions (target {SHRINK_TARGET})");
            pass = false;
        }
        Some(_) => {}
    }

    reports.push(clean);
    reports.push(faulted);
    let path = siro_bench::write("difftest_smoke", &difftest_json(&reports))
        .expect("writing the bench record");
    println!("wrote {}", path.display());

    if !pass {
        std::process::exit(1);
    }
    println!("PASS: clean run quiet, seeded fault caught and shrunk, {NEW_KIND_FLOOR}+ new kinds");
}
