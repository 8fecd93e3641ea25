//! Any-to-any matrix benchmark: the version-graph router must serve
//! every ordered pair of the full 13-version catalog, and composed
//! routes must be byte-identical to direct synthesis.
//!
//! Three phases over one process:
//!
//! 1. **warm the spine** — synthesize (and persist to a scratch store)
//!    the adjacent-version edges in both directions, so the cost
//!    landscape has a hot low-cost chain running the length of the
//!    catalog and distant pairs genuinely *compose* instead of planning
//!    direct;
//! 2. **plan + serve the matrix** — plan all `N·(N-1)` ordered pairs in
//!    one snapshot (gate: zero unreachable), then acquire and run each
//!    pair's translator on a corpus module, timing per-pair serve
//!    latency bucketed by hop count;
//! 3. **byte identity** — for every pair, translate the pair's full
//!    oracle corpus through the served route (composed chain or direct)
//!    and through a direct synthesis. When every version on the route
//!    supports every opcode the module places, the rendered outputs must
//!    be byte-identical; when an intermediate must lower a feature it
//!    cannot represent (e.g. `callbr` routed through 3.0), bytes
//!    legitimately differ and the interpreter verdicts must agree
//!    instead (gate: zero mismatches of either kind).
//!
//! Dumps `BENCH_router_matrix.json` (`siro-bench/router-v1`) and exits
//! non-zero when a gate fails.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use siro_bench::{micros, percentile};
use siro_core::Skeleton;
use siro_ir::{write, IrVersion};
use siro_synth::{
    set_active_store, RouteOutcome, Router, StoreConfig, SynthesisConfig, TranslatorCache,
    TranslatorStore,
};
use siro_trace::json::{obj, Value};

fn main() {
    let catalog = IrVersion::CATALOG;
    let dir = std::env::temp_dir().join(format!("siro-bench-router-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(TranslatorStore::open(StoreConfig::at(&dir)).expect("open scratch store"));
    set_active_store(Some(store));
    TranslatorCache::reset();
    siro_synth::reset_router_stats();

    siro_bench::banner(&format!(
        "router_matrix: {} versions, {} ordered pairs",
        catalog.len(),
        catalog.len() * (catalog.len() - 1)
    ));

    // ---- Phase 1: warm the adjacent-version spine, both directions. ----
    let t_warm = Instant::now();
    let mut spine = 0usize;
    for w in catalog.windows(2) {
        for (a, b) in [(w[0], w[1]), (w[1], w[0])] {
            let corpus = siro_synth::oracle_corpus(a, b);
            TranslatorCache::get_or_synthesize(SynthesisConfig::new(a, b), &corpus)
                .unwrap_or_else(|e| panic!("spine synthesis {a} -> {b}: {e}"));
            spine += 1;
        }
    }
    println!(
        "spine: {spine} adjacent edges hot in {:?}",
        t_warm.elapsed()
    );

    // ---- Phase 2: plan the whole matrix in one snapshot, then serve. ----
    // The Siro catalog alone: its plans equal those of `Router::new()`,
    // which holds the WIR catalog too (crates/siro-synth/tests/one_router.rs).
    let router = Router::over(catalog.to_vec());
    let matrix = router.matrix();
    let mut unreachable = 0usize;
    let mut direct = 0usize;
    let mut composed = 0usize;
    let mut max_hops = 0usize;
    let mut planned: Vec<(IrVersion, IrVersion, usize)> = Vec::new();
    for ((a, b), plan) in &matrix {
        if a == b {
            continue;
        }
        match plan {
            None => {
                println!("UNREACHABLE: {a} -> {b}");
                unreachable += 1;
            }
            Some(p) => {
                if p.is_direct() {
                    direct += 1;
                } else {
                    composed += 1;
                }
                max_hops = max_hops.max(p.hop_count());
                let (sa, sb) = (
                    a.as_siro().expect("siro-only router"),
                    b.as_siro().expect("siro-only router"),
                );
                planned.push((sa, sb, p.hop_count()));
            }
        }
    }
    println!(
        "matrix: {} pairs, {direct} direct, {composed} composed, \
         {unreachable} unreachable, max {max_hops} hops",
        planned.len() + unreachable
    );

    let mut by_hops: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for &(a, b, hops) in &planned {
        let case = &siro_testcases::corpus_for_pair(a, b)[0];
        let module = case.build(a);
        let started = Instant::now();
        let acquired = router
            .acquire(a, b)
            .unwrap_or_else(|e| panic!("acquire {a} -> {b}: {e}"));
        let out = match &acquired.outcome {
            RouteOutcome::Direct(outcome) => {
                Skeleton::new(b).translate_module(&module, &outcome.translator)
            }
            RouteOutcome::Composed(chain) => chain.translate_module(&module),
        }
        .unwrap_or_else(|e| panic!("serve {a} -> {b}: {e}"));
        by_hops
            .entry(hops)
            .or_default()
            .push(micros(started.elapsed()));
        drop(out);
    }

    // ---- Phase 3: composed output must be byte-identical to direct. ----
    let t_bytes = Instant::now();
    let mut byte_checked = 0usize;
    let mut byte_mismatches = 0usize;
    let mut byte_cases = 0usize;
    let mut behavioral_cases = 0usize;
    for &(a, b, _) in &planned {
        // The route the matrix served: re-acquire (memoized) so composed
        // pairs compare their real chain; direct pairs compare a
        // router-ranked two-hop alternate instead, so every pair gets a
        // composed-vs-direct check.
        let acquired = router.acquire(a, b).expect("re-acquire");
        let chain = match &acquired.outcome {
            RouteOutcome::Composed(chain) => Arc::clone(chain),
            RouteOutcome::Direct(_) => {
                let mid = *siro_difftest::routed_mids(a, b)
                    .first()
                    .expect("catalog has an intermediate");
                Arc::new(
                    router
                        .compose_path(&[a, mid, b])
                        .unwrap_or_else(|e| panic!("compose {a} -> {mid} -> {b}: {e}")),
                )
            }
        };
        let corpus = siro_synth::oracle_corpus(a, b);
        let direct_outcome =
            TranslatorCache::get_or_synthesize(SynthesisConfig::new(a, b), &corpus)
                .unwrap_or_else(|e| panic!("direct synthesis {a} -> {b}: {e}"));
        let skeleton = Skeleton::new(b);
        for test in corpus.iter() {
            let via_chain = chain.translate_module(&test.module);
            let via_direct = skeleton.translate_module(&test.module, &direct_outcome.translator);
            let (c, d) = match (via_chain, via_direct) {
                (Ok(c), Ok(d)) => (c, d),
                // Documented translator partiality may differ per path;
                // only successful translations on both routes compare.
                _ => continue,
            };
            let placed: Vec<_> = siro_difftest::fuzz::placed_kinds(&test.module)
                .into_iter()
                .collect();
            let faithful = chain.plan.hops.iter().all(|hop| {
                hop.to
                    .as_siro()
                    .is_some_and(|v| placed.iter().all(|&k| v.supports(k)))
            });
            if faithful {
                byte_cases += 1;
                if write::write_module(&c) != write::write_module(&d) {
                    println!("BYTE MISMATCH: {a} -> {b} on `{}`", test.name);
                    byte_mismatches += 1;
                }
            } else {
                // An intermediate lowered a feature it cannot represent:
                // bytes legitimately differ, behaviour must not.
                behavioral_cases += 1;
                let bc = siro_difftest::behaviour(&c, siro_difftest::ORACLE_FUEL);
                let bd = siro_difftest::behaviour(&d, siro_difftest::ORACLE_FUEL);
                if let (Some(bc), Some(bd)) = (bc, bd) {
                    if bc != bd {
                        println!(
                            "BEHAVIOUR MISMATCH: {a} -> {b} on `{}`: chain {bc}, direct {bd}",
                            test.name
                        );
                        byte_mismatches += 1;
                    }
                }
            }
        }
        byte_checked += 1;
    }
    println!(
        "route identity: {byte_checked} pairs in {:?} ({byte_cases} byte-compared, \
         {behavioral_cases} behaviour-compared), {byte_mismatches} mismatches",
        t_bytes.elapsed()
    );

    let mut hop_latency = Vec::new();
    for (hops, mut lat) in by_hops {
        lat.sort_unstable();
        let (p50, p99) = (percentile(&lat, 50), percentile(&lat, 99));
        println!(
            "  {hops} hop(s): {} pairs, p50 {p50}us, p99 {p99}us",
            lat.len()
        );
        hop_latency.push(obj([
            ("hops", hops.into()),
            ("count", lat.len().into()),
            ("p50", p50.into()),
            ("p99", p99.into()),
        ]));
    }

    let stats = siro_synth::router_stats();
    println!(
        "router counters: {} plans, {} direct, {} composed ({} cached), {} fallbacks",
        stats.plans, stats.direct, stats.composed, stats.composed_cached, stats.fallbacks
    );

    let pass = unreachable == 0 && byte_mismatches == 0;
    let doc = obj([
        ("schema", "siro-bench/router-v1".into()),
        ("nodes", catalog.len().into()),
        ("pairs", (planned.len() + unreachable).into()),
        ("direct", direct.into()),
        ("composed", composed.into()),
        ("unreachable", unreachable.into()),
        ("max_hops", max_hops.into()),
        (
            "byte_identity",
            obj([
                ("pairs_checked", byte_checked.into()),
                ("byte_cases", byte_cases.into()),
                ("behavioral_cases", behavioral_cases.into()),
                ("mismatches", byte_mismatches.into()),
            ]),
        ),
        ("hop_latency_us", Value::Arr(hop_latency)),
        ("pass", pass.into()),
    ]);
    let path = siro_bench::write("router_matrix", &doc).expect("writing the bench record");
    println!("wrote {}", path.display());

    set_active_store(None);
    let _ = std::fs::remove_dir_all(&dir);
    if !pass {
        eprintln!(
            "router_matrix gate FAILED: {unreachable} unreachable pairs, \
             {byte_mismatches} byte mismatches"
        );
        std::process::exit(1);
    }
    println!("router_matrix gate passed: full matrix served, composed == direct");
}
