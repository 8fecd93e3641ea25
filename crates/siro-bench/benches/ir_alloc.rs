//! `ir_alloc`: allocator traffic on the serving request path — the gate
//! behind ROADMAP item 4 and the arena IR core.
//!
//! Every served request runs parse → translate (compiled tier) →
//! serialize. Before the arena core, that composition churned one heap
//! allocation per operand list, per block list, per name, per function
//! body; the arena refactor is required to cut allocator calls at least
//! in half on this exact path.
//!
//! Measurement: a counting `#[global_allocator]` (allocations +
//! reallocations, same-thread) around each leg of the composition on the
//! largest Tab. 4 workload module for the flagship pair 13.0 → 3.6.
//! Counts are exact and deterministic per rep; the minimum over reps is
//! reported so warm-up noise (thread-local slab priming, hashmap growth)
//! is excluded — steady state is what serving cares about.
//!
//! Gate: `baseline_allocs / total_allocs >= 2.0` (`MIN_RATIO`), on every
//! host. The baseline (`PRE_ARENA_BASELINE`) is the pre-arena count
//! measured on this exact workload at the commit that introduced the
//! bench.
//!
//! Dumps `BENCH_ir_alloc.json` (`siro-bench/ir-alloc-v1`); exits non-zero
//! when the gate fails, so CI can run it directly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use siro_bench::{median, version_pair};
use siro_ir::{parse, write, IrVersion};
use siro_synth::{
    oracle_corpus, StreamBackend, SynthesisConfig, TranslatorBackend, TranslatorCache,
};
use siro_trace::json::obj;

/// Pre-arena allocator calls per request on this workload (tmux, 971
/// insts, 13.0 → 3.6), measured at the commit that added this bench.
/// Measured: parse 12,258 + translate 3 + serialize 7,770 = 20,031.
const PRE_ARENA_BASELINE: u64 = 20_031;

/// The gate: the arena core must cut allocator calls per request at
/// least this much below [`PRE_ARENA_BASELINE`] (measured 6.9×).
const MIN_RATIO: f64 = 2.0;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on and returns (result, allocs).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let after = ALLOCS.load(Ordering::Relaxed);
    (out, after - before)
}

const REPS: usize = 20;

fn main() {
    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    println!(
        "ir_alloc: pair {src}->{tgt}, {REPS} reps, gate >= {MIN_RATIO:.1}x fewer allocator calls"
    );

    let tests = oracle_corpus(src, tgt);
    let outcome = TranslatorCache::get_or_synthesize(SynthesisConfig::new(src, tgt), &tests)
        .expect("synthesis must succeed for the flagship pair");
    let compiled = StreamBackend
        .lower(&outcome.translator)
        .expect("flagship translator must lower");
    // Largest Tab. 4 workload module, serialized once: the request text.
    let mut largest = None;
    for spec in siro_workloads::table4_projects() {
        let module = siro_workloads::compile_project(&spec, siro_workloads::Frontend::High, src);
        if largest
            .as_ref()
            .map(|(_, m): &(String, siro_ir::Module)| module.inst_count() > m.inst_count())
            .unwrap_or(true)
        {
            largest = Some((spec.name.to_string(), module));
        }
    }
    let (mod_name, module) = largest.expect("at least one workload project");
    let insts = module.inst_count();
    let request_text = write::write_module(&module);

    // Warmup: allocator state, synthesis caches, thread-local slabs.
    for _ in 0..3 {
        let m = parse::parse_module(&request_text).expect("workload parses");
        let t = compiled.translate_module_owned(m).expect("translates");
        std::hint::black_box(write::write_module(&t));
    }

    let mut parse_counts = Vec::with_capacity(REPS);
    let mut translate_counts = Vec::with_capacity(REPS);
    let mut serialize_counts = Vec::with_capacity(REPS);
    let mut request_times = Vec::with_capacity(REPS);
    let mut translate_times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t_req = Instant::now();
        let (parsed, parse_allocs) = counted(|| parse::parse_module(&request_text));
        let parsed = parsed.expect("workload parses");
        let t_tr = Instant::now();
        let (translated, translate_allocs) =
            counted(|| compiled.translate_module_owned(parsed).expect("translates"));
        translate_times.push(t_tr.elapsed().as_micros() as u64);
        let (text, serialize_allocs) = counted(|| write::write_module(&translated));
        request_times.push(t_req.elapsed().as_micros() as u64);
        std::hint::black_box(text);
        drop(translated);
        parse_counts.push(parse_allocs);
        translate_counts.push(translate_allocs);
        serialize_counts.push(serialize_allocs);
    }

    // Steady state: the minimum rep (first reps may still grow caches).
    let parse_allocs = *parse_counts.iter().min().unwrap();
    let translate_allocs = *translate_counts.iter().min().unwrap();
    let serialize_allocs = *serialize_counts.iter().min().unwrap();
    let total = parse_allocs + translate_allocs + serialize_allocs;
    let reduction = PRE_ARENA_BASELINE as f64 / total.max(1) as f64;
    let pass = reduction >= MIN_RATIO;

    println!(
        "  {mod_name} ({insts} insts): parse {parse_allocs} + translate {translate_allocs} + serialize {serialize_allocs} = {total} allocs/request"
    );
    println!(
        "  baseline (pre-arena) {PRE_ARENA_BASELINE} allocs/request -> reduction {reduction:.2}x \
         (gate {MIN_RATIO:.1}x)"
    );

    let doc = obj([
        ("schema", "siro-bench/ir-alloc-v1".into()),
        ("pair", version_pair((src, tgt))),
        (
            "module",
            obj([("name", mod_name.into()), ("insts", insts.into())]),
        ),
        ("iters", REPS.into()),
        (
            "allocs_per_request",
            obj([
                ("parse", parse_allocs.into()),
                ("translate", translate_allocs.into()),
                ("serialize", serialize_allocs.into()),
                ("total", total.into()),
            ]),
        ),
        ("baseline_allocs", PRE_ARENA_BASELINE.into()),
        ("reduction", reduction.into()),
        ("min_reduction", MIN_RATIO.into()),
        ("request_p50_us", median(request_times).into()),
        ("translate_p50_us", median(translate_times).into()),
        ("pass", pass.into()),
    ]);
    let path = siro_bench::write("ir_alloc", &doc).expect("writing the bench record");
    println!("  wrote {}", path.display());
    if !pass {
        eprintln!("ir_alloc: FAIL (reduction {reduction:.2}x < {MIN_RATIO:.1}x)");
        std::process::exit(1);
    }
    println!("ir_alloc: PASS");
}
