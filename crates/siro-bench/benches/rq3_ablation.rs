//! Regenerates the RQ3 ablation study:
//!
//! 1. no per-test translators: enumerate all instruction translators of the
//!    test suite together -> astronomically many combinations (paper: 1e40);
//! 2. optimizations I+II disabled -> enumeration blow-up, the analogue of
//!    the paper's 24 h timeout with 13,000,000 translators pending;
//! 3. optimization III versus five random test orders.

use siro_bench::banner;
use siro_ir::IrVersion;
use siro_rng::seq::SliceRandom;
use siro_rng::SeedableRng;
use siro_synth::{GenLimits, SynthesisConfig, Synthesizer, TypeGraph};

fn main() {
    banner("RQ3 - ablation study (13.0 -> 3.6)");
    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    let tests = siro_synth::oracle_corpus(src, tgt);

    // -- 1. Without per-test translators -------------------------------
    let registry = siro_api::ApiRegistry::for_pair(src, tgt);
    let graph = TypeGraph::new(&registry);
    let per_kind: std::collections::HashMap<_, _> =
        siro_synth::generate_all(&graph, GenLimits::default())
            .into_iter()
            .collect();
    let mut log10_combos = 0.0f64;
    let mut insts = 0usize;
    for t in &tests {
        for f in &t.module.funcs {
            for i in &f.insts {
                if let Some(c) = per_kind.get(&i.opcode) {
                    log10_combos += (c.len().max(1) as f64).log10();
                    insts += 1;
                }
            }
        }
    }
    println!("\n1. no per-test translators (validate the whole suite at once):");
    println!(
        "   {insts} instructions across {} tests -> ~1e{:.0} combined translators",
        tests.len(),
        log10_combos
    );
    println!("   (paper: 1e40 even ignoring predicates -> no chance for synthesis)");

    // -- 2. Optimizations I + II disabled --------------------------------
    let mut cfg = SynthesisConfig::new(src, tgt);
    cfg.opt_equivalence = false;
    cfg.opt_memoization = false;
    cfg.max_assignments_per_test = 200_000;
    println!("\n2. optimizations I (equivalence) and II (memoization) disabled:");
    match Synthesizer::new(cfg).synthesize(&tests) {
        Err(siro_synth::SynthError::Blowup { test, assignments }) => {
            println!("   aborted: test `{test}` left {assignments} per-test translators pending");
            println!("   (paper: timeout after 24 h, stuck at 13,000,000 pending translators)");
        }
        Err(e) => println!("   aborted: {e}"),
        Ok(o) => println!(
            "   completed anyway with {} validations (corpus too small to time out)",
            o.report.assignments_validated
        ),
    }

    // -- 3. Test ordering ----------------------------------------------------
    println!("\n3. optimization III (simple-tests-first) vs five random orders:");
    let mut cfg = SynthesisConfig::new(src, tgt);
    cfg.max_assignments_per_test = 2_000_000;
    let baseline = Synthesizer::new(cfg.clone())
        .synthesize(&tests)
        .expect("baseline");
    println!(
        "   ordered   : {:>9} validations, {:>7.2}s",
        baseline.report.assignments_validated,
        baseline.report.timings.total().as_secs_f64()
    );
    let mut rng = siro_rng::StdRng::seed_from_u64(0x5EED);
    for run in 0..5 {
        let mut shuffled = tests.clone();
        shuffled.shuffle(&mut rng);
        let mut c = cfg.clone();
        c.opt_ordering = false;
        match Synthesizer::new(c).synthesize(&shuffled) {
            Ok(o) => println!(
                "   random #{run} : {:>9} validations, {:>7.2}s",
                o.report.assignments_validated,
                o.report.timings.total().as_secs_f64()
            ),
            Err(e) => println!("   random #{run} : aborted ({e})"),
        }
    }
    println!("\npaper shape: random orders validate (much) more, three of five timed out;");
    println!("ordered runs let memoization prune later, larger tests.");
}
