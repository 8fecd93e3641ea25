//! The route memo, with a store attached: once warm, repeat requests over
//! direct, composed, WIR and cross-dialect pairs neither build a version
//! graph nor probe the store (`router_graph_builds` and
//! `router_store_probes` stay put on STATS and METRICS); one graph per
//! route epoch serves Siro and WIR requests alike; and every event that
//! can change an edge's class makes the next plan rebuild the graph,
//! once. A failed synthesis is not such an event.
//!
//! Its own integration-test binary with one test: the caches, the active
//! store and the router counters are process-global.

use std::time::Duration;

use siro_ir::{DialectVersion, IrVersion};
use siro_serve::{metrics_value, stats_value, Client, ServeConfig, TranslateMode};
use siro_synth::{
    active_store, bridge_cached, bump_route_epoch, oracle_corpus, reset_bridge_cache,
    reset_wir_cache, router_stats, set_active_store, wir_translator_cached, OracleTest, Router,
    StoreConfig, StoreKey, SynthesisConfig, TranslatorCache, TranslatorStore,
};
use siro_wir::WirVersion;

const TIMEOUT: Duration = Duration::from_secs(60);

fn siro_text(from: IrVersion, to: IrVersion) -> String {
    let case = siro_testcases::full_corpus()
        .into_iter()
        .find(|c| c.usable_for_pair(from, to))
        .expect("a usable corpus case");
    siro_ir::write::write_module(&case.build(from))
}

/// `(graph_builds, store_probes)` as the daemon's STATS and METRICS pages
/// report them; the two pages must agree.
fn page_counters(client: &mut Client) -> (u64, u64) {
    let stats = client.stats().expect("STATS");
    let metrics = client.metrics().expect("METRICS");
    let read = |name: &str, metric: &str| {
        let v = stats_value(&stats, name).unwrap_or_else(|| panic!("STATS lacks {name}"));
        let m = metrics_value(&metrics, metric).unwrap_or_else(|| panic!("METRICS lacks {metric}"));
        assert_eq!(v, m, "{name} disagrees with {metric}");
        v
    };
    (
        read("router_graph_builds", "siro_router_graph_builds_total"),
        read("router_store_probes", "siro_router_store_probes_total"),
    )
}

#[test]
fn hot_requests_reuse_the_graph_and_each_bump_site_rebuilds_it() {
    let dir = std::env::temp_dir().join(format!("siro-route-memo-{}", std::process::id()));
    let scratch_dir = dir.with_extension("scratch");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch_dir);
    let handle = siro_serve::start(ServeConfig {
        threads: Some(1),
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("server binds");
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");

    // ---- Hot requests: no graph build, no store probe. -----------------
    let (v13, v12, v11) = (IrVersion::V13_0, IrVersion::V12_0, IrVersion::V11_0);
    let (w1, w2) = (WirVersion::W1_0, WirVersion::W2_0);
    let cross_text = {
        let wir = siro_wir::generate_straightline(23, w2);
        let module = siro_synth::raise_module(&wir, v13).expect("raise");
        siro_ir::write::write_module(&module)
    };
    let requests: Vec<(DialectVersion, DialectVersion, String)> = vec![
        (v13.into(), v12.into(), siro_text(v13, v12)),
        (v12.into(), v11.into(), siro_text(v12, v11)),
        // Composed once both hops above are hot.
        (v13.into(), v11.into(), siro_text(v13, v11)),
        (
            w1.into(),
            w2.into(),
            siro_wir::write::write_module(&siro_wir::generate_straightline(7, w1)),
        ),
        (v13.into(), w2.into(), cross_text),
    ];
    let send_all = |client: &mut Client| {
        for (from, to, text) in &requests {
            client
                .translate(*from, *to, TranslateMode::Synthesized, text.clone())
                .unwrap_or_else(|e| panic!("{from} -> {to}: {e}"));
        }
    };
    send_all(&mut client);
    send_all(&mut client);
    let plans = router_stats().plans;
    let warm = page_counters(&mut client);
    for _ in 0..3 {
        send_all(&mut client);
    }
    assert_eq!(
        page_counters(&mut client),
        warm,
        "hot requests must not rebuild a graph or probe the store"
    );
    assert!(
        router_stats().plans >= plans + 15,
        "every request still plans"
    );
    let plan = handle
        .engine()
        .router()
        .plan(v13, v11)
        .expect("13.0 -> 11.0 plans");
    assert_eq!(plan.hop_count(), 2, "{}", plan.describe());

    // ---- One graph per route epoch, for both dialects. -----------------
    bump_route_epoch();
    let builds = router_stats().graph_builds;
    for (from, to, text) in [&requests[0], &requests[3]] {
        client
            .translate(*from, *to, TranslateMode::Synthesized, text.clone())
            .unwrap_or_else(|e| panic!("{from} -> {to}: {e}"));
    }
    assert_eq!(
        router_stats().graph_builds - builds,
        1,
        "a Siro and a WIR request in one epoch must share one graph"
    );
    drop(client);

    // ---- Every bump site makes the next plan rebuild, once. ------------
    let router = Router::over(vec![v13, v12, v11]);
    let rebuilds = |what: &str, event: &mut dyn FnMut()| {
        router.plan(v13, v11);
        let builds = router_stats().graph_builds;
        event();
        router.plan(v13, v11);
        router.plan(v13, v11);
        assert_eq!(
            router_stats().graph_builds - builds,
            1,
            "{what} must make the next plan rebuild the graph once"
        );
    };
    let corpus = oracle_corpus(v13, v12);
    let config = SynthesisConfig::new(v13, v12);

    rebuilds("TranslatorCache::reset", &mut || TranslatorCache::reset());
    rebuilds("store adoption", &mut || {
        let lookup = TranslatorCache::lookup_or_synthesize(config.clone(), &corpus).unwrap();
        assert!(lookup.from_store, "the entry must come from the store");
    });
    TranslatorCache::reset();
    rebuilds("warm_from_store", &mut || {
        assert!(TranslatorCache::warm_from_store(&config));
    });
    rebuilds("a fresh synthesis", &mut || {
        let lookup = TranslatorCache::lookup_or_synthesize(
            SynthesisConfig::new(v11, IrVersion::V10_0),
            &oracle_corpus(v11, IrVersion::V10_0),
        )
        .unwrap();
        assert!(lookup.fresh);
    });
    rebuilds("reset_wir_cache", &mut || reset_wir_cache());
    rebuilds("a WIR cache insert", &mut || {
        wir_translator_cached(w1, w2).expect("wir translator");
    });
    rebuilds("reset_bridge_cache", &mut || reset_bridge_cache());
    rebuilds("a bridge cache insert", &mut || {
        bridge_cached(v13, w2).expect("bridge");
    });
    rebuilds("set_active_store", &mut || {
        set_active_store(active_store());
    });

    let scratch = TranslatorStore::open(StoreConfig::at(&scratch_dir)).expect("scratch store");
    let outcome = TranslatorCache::get_or_synthesize(config.clone(), &corpus).unwrap();
    let key = StoreKey::new(&config, siro_synth::corpus_fingerprint(&corpus));
    rebuilds("TranslatorStore::save", &mut || {
        scratch.save(&key, &outcome).expect("save");
    });
    rebuilds("TranslatorStore::save_named", &mut || {
        scratch
            .save_named("w1.0-t2.0.sirw", "text\n")
            .expect("save_named");
    });
    rebuilds("TranslatorStore::save_chain", &mut || {
        scratch
            .save_chain("c13.0-t11.0-0", "SIRC 1\n")
            .expect("save_chain");
    });
    rebuilds("a GC removal", &mut || {
        assert_eq!(scratch.gc(0).expect("gc").removed, 1);
    });

    // Neither a GC that removes nothing nor a failed synthesis changes
    // an edge's class.
    router.plan(v13, v11);
    let builds = router_stats().graph_builds;
    assert_eq!(scratch.gc(0).expect("gc").removed, 0);
    let mut failing = SynthesisConfig::new(v13, IrVersion::V3_6);
    failing.opt_equivalence = false;
    failing.opt_memoization = false;
    failing.max_assignments_per_test = 10_000;
    let tests: Vec<OracleTest> = oracle_corpus(v13, IrVersion::V3_6)
        .into_iter()
        .filter(|t| t.name == "switch_both" || t.name == "gep_struct")
        .collect();
    assert!(TranslatorCache::lookup_or_synthesize(failing, &tests).is_err());
    router.plan(v13, v11);
    assert_eq!(
        router_stats().graph_builds,
        builds,
        "a failed synthesis must leave the graph memoized"
    );

    handle.shutdown();
    set_active_store(None);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch_dir);
}
