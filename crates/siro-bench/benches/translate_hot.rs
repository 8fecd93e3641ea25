//! `translate_hot`: the steady-state translate span, compiled tier versus
//! interpreter — the gate behind ROADMAP item 3 and PR 8's tentpole.
//!
//! One pair (13.0 -> 3.6, the paper's flagship), one synthesized
//! translator, identical workload modules through both tiers:
//!
//! 1. every Tab. 4 project module is translated through the interpreter
//!    and both compiled drivers, and the outputs are compared
//!    **byte-for-byte** (a fast wrong translator is worthless);
//! 2. the largest module is then timed — median of `REPS` timed calls per
//!    driver after warmup. The interpreted tier runs the skeleton driver;
//!    the compiled tier runs its serving entry point,
//!    `translate_module_owned` (the mirror driver; serving parses each
//!    request into a module it owns — the per-rep clone stands in for
//!    that parse and happens *outside* the timed span), and its push
//!    driver, `translate_module` (the skeleton's walk with the compiled
//!    translator plugged in, which the mirror falls back to), is timed
//!    alongside and reported as `translate_p50_us.push`;
//! 3. the gate requires `interpreted_p50 / compiled_p50 >=`
//!    `SIRO_TRANSLATE_HOT_MIN_SPEEDUP` (default 5.0) *and* byte identity
//!    of both compiled drivers.
//!
//! Dumps `BENCH_translate_hot.json` (`siro-bench/translate-hot-v1`);
//! exits non-zero when the gate fails, so CI can run it directly.

use std::time::Instant;

use siro_bench::{env_f64, median, version_pair};
use siro_core::Skeleton;
use siro_ir::{IrVersion, Module};
use siro_synth::{
    oracle_corpus, StreamBackend, SynthesisConfig, TranslatorBackend, TranslatorCache,
};
use siro_trace::json::obj;

const REPS: usize = 30;

fn time_translations(
    skeleton: &Skeleton,
    module: &Module,
    translator: &dyn siro_core::InstTranslator,
) -> Vec<u64> {
    // Warmup: allocator, icache, thread-local scratch.
    for _ in 0..3 {
        std::hint::black_box(skeleton.translate_module(module, translator).unwrap());
    }
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(skeleton.translate_module(module, translator).unwrap());
            t.elapsed().as_micros() as u64
        })
        .collect()
}

fn time_owned(compiled: &siro_synth::CompiledTranslator, module: &Module) -> Vec<u64> {
    for _ in 0..3 {
        std::hint::black_box(compiled.translate_module_owned(module.clone()).unwrap());
    }
    (0..REPS)
        .map(|_| {
            // The clone models the per-request parse and is not part of
            // the translate span.
            let m = module.clone();
            let t = Instant::now();
            std::hint::black_box(compiled.translate_module_owned(m).unwrap());
            t.elapsed().as_micros() as u64
        })
        .collect()
}

fn time_push(compiled: &siro_synth::CompiledTranslator, module: &Module) -> Vec<u64> {
    for _ in 0..3 {
        std::hint::black_box(compiled.translate_module(module).unwrap());
    }
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(compiled.translate_module(module).unwrap());
            t.elapsed().as_micros() as u64
        })
        .collect()
}

fn main() {
    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    let min_speedup = env_f64("SIRO_TRANSLATE_HOT_MIN_SPEEDUP", 5.0);
    println!("translate_hot: pair {src}->{tgt}, {REPS} reps, gate {min_speedup}x + byte identity");

    let tests = oracle_corpus(src, tgt);
    let outcome = TranslatorCache::get_or_synthesize(SynthesisConfig::new(src, tgt), &tests)
        .expect("synthesis must succeed for the flagship pair");

    // One-time lowering cost, measured explicitly (the serving path pays
    // it once per process per pair, under the `compile.lower` span).
    let t = Instant::now();
    let compiled = StreamBackend
        .lower(&outcome.translator)
        .expect("flagship translator must lower");
    let lower_us = t.elapsed().as_micros() as u64;

    let skeleton = Skeleton::new(tgt);

    // ---- Byte identity over every workload module. ----------------------
    let mut byte_identical = true;
    let mut largest: Option<(String, Module)> = None;
    for spec in siro_workloads::table4_projects() {
        let module = siro_workloads::compile_project(&spec, siro_workloads::Frontend::High, src);
        let interp = skeleton
            .translate_module(&module, &outcome.translator)
            .expect("interpreted translate");
        let fast = compiled
            .translate_module_owned(module.clone())
            .expect("compiled translate");
        let push = compiled
            .translate_module(&module)
            .expect("compiled push translate");
        let want = siro_ir::write::write_module(&interp);
        let same = want == siro_ir::write::write_module(&fast)
            && want == siro_ir::write::write_module(&push);
        println!(
            "  {:<16} {:>6} insts  byte-identical: {}",
            spec.name,
            module.inst_count(),
            same
        );
        byte_identical &= same;
        if largest
            .as_ref()
            .map(|(_, m)| module.inst_count() > m.inst_count())
            .unwrap_or(true)
        {
            largest = Some((spec.name.to_string(), module));
        }
    }
    let (mod_name, module) = largest.expect("at least one workload project");
    let insts = module.inst_count();

    // ---- Steady-state timing on the largest module. ----------------------
    let interpreted = time_translations(&skeleton, &module, &outcome.translator);
    let fast = time_owned(&compiled, &module);
    let push = time_push(&compiled, &module);
    let interpreted_p50_us = median(interpreted);
    let compiled_p50_us = median(fast).max(1);
    let push_p50_us = median(push);
    let speedup = interpreted_p50_us as f64 / compiled_p50_us as f64;

    let interpreted_ns_per_inst = interpreted_p50_us as f64 * 1e3 / insts as f64;
    let compiled_ns_per_inst = compiled_p50_us as f64 * 1e3 / insts as f64;
    let pass = byte_identical && speedup >= min_speedup;
    println!(
        "\n  {insts} insts: interpreted p50 {interpreted_p50_us} us \
         ({interpreted_ns_per_inst:.1} ns/inst), compiled p50 {compiled_p50_us} us \
         ({compiled_ns_per_inst:.1} ns/inst), push p50 {push_p50_us} us"
    );
    println!(
        "  lowering {} us (one-time), speedup {:.2}x (gate {:.1}x), byte-identical {}",
        lower_us, speedup, min_speedup, byte_identical
    );

    let doc = obj([
        ("schema", "siro-bench/translate-hot-v1".into()),
        ("pair", version_pair((src, tgt))),
        (
            "module",
            obj([("name", mod_name.into()), ("insts", insts.into())]),
        ),
        ("iters", REPS.into()),
        (
            "translate_p50_us",
            obj([
                ("interpreted", interpreted_p50_us.into()),
                ("compiled", compiled_p50_us.into()),
                ("push", push_p50_us.into()),
            ]),
        ),
        (
            "dispatch_ns_per_inst",
            obj([
                ("interpreted", interpreted_ns_per_inst.into()),
                ("compiled", compiled_ns_per_inst.into()),
            ]),
        ),
        ("lower_us", lower_us.into()),
        ("speedup", speedup.into()),
        ("min_speedup", min_speedup.into()),
        ("byte_identical", byte_identical.into()),
        ("pass", pass.into()),
    ]);
    let path = siro_bench::write("translate_hot", &doc).expect("writing the bench record");
    println!("  wrote {}", path.display());
    if !pass {
        eprintln!(
            "translate_hot: FAIL (speedup {:.2}x < {:.1}x or tier divergence)",
            speedup, min_speedup
        );
        std::process::exit(1);
    }
    println!("translate_hot: PASS");
}
