//! A warm daemon builds no oracle corpus. A store keyed the way earlier
//! releases keyed it (`lookup_or_synthesize` over the full corpus, so the
//! key holds `corpus_fingerprint(&oracle_corpus(a, b))`) boots warm. Every
//! adjacent catalog pair and a composed route then serve with no synthesis
//! and no corpus built, and a cold pair synthesizes and builds exactly one
//! corpus.
//!
//! In a binary of its own: the corpus count, the translator cache and the
//! active store are process-wide.

use std::sync::Arc;
use std::time::Duration;

use siro_ir::IrVersion;
use siro_serve::{stats_value, Client, ServeConfig, TranslateMode};
use siro_synth::{
    corpora_built, oracle_corpus, reset_store_stats, set_active_store, StoreConfig,
    SynthesisConfig, TranslatorCache, TranslatorStore,
};

const TIMEOUT: Duration = Duration::from_secs(30);

fn module_text(src: IrVersion, tgt: IrVersion) -> String {
    let case = siro_testcases::corpus_for_pair(src, tgt)
        .into_iter()
        .next()
        .expect("a usable corpus case");
    siro_ir::write::write_module(&case.build(src))
}

#[test]
fn a_warm_daemon_builds_no_corpus_and_a_cold_pair_builds_one() {
    let dir = std::env::temp_dir().join(format!("siro-warm-corpora-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The 24 adjacent pairs, keyed by the full corpus's fingerprint.
    let adjacent: Vec<(IrVersion, IrVersion)> = IrVersion::CATALOG
        .windows(2)
        .flat_map(|w| [(w[0], w[1]), (w[1], w[0])])
        .collect();
    assert_eq!(adjacent.len(), 24);
    let store = TranslatorStore::open(StoreConfig::at(&dir)).expect("open store");
    set_active_store(Some(Arc::new(store)));
    for &(a, b) in &adjacent {
        TranslatorCache::lookup_or_synthesize(SynthesisConfig::new(a, b), &oracle_corpus(a, b))
            .unwrap_or_else(|e| panic!("synthesizing {a}->{b}: {e}"));
    }
    set_active_store(None);
    TranslatorCache::reset();
    reset_store_stats();
    let prepared = corpora_built();

    let handle = siro_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: Some(2),
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("warm server binds");
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let boot = client.stats().expect("stats page");
    assert_eq!(stats_value(&boot, "store_warm_loaded"), Some(24));
    assert_eq!(
        stats_value(&boot, "corpora_built"),
        Some(prepared),
        "the warm boot built a corpus"
    );

    // Every adjacent pair, then 13.0 -> 11.0 over the hot hops through 12.0.
    let composed = (IrVersion::V13_0, IrVersion::V11_0);
    for &(a, b) in adjacent.iter().chain([&composed]) {
        client
            .translate(a, b, TranslateMode::Synthesized, module_text(a, b))
            .unwrap_or_else(|e| panic!("serving {a}->{b}: {e}"));
    }
    let hot = client.stats().expect("stats page");
    assert_eq!(stats_value(&hot, "pairs_synthesized"), Some(0));
    assert_eq!(
        stats_value(&hot, "corpora_built"),
        Some(prepared),
        "hot traffic built a corpus"
    );
    assert!(
        stats_value(&hot, "router_composed").unwrap_or(0) >= 1,
        "13.0 -> 11.0 must compose"
    );

    // An identity pair is cold: no stored entry, and a zero-hop plan.
    let cold = IrVersion::V13_0;
    client
        .translate(
            cold,
            cold,
            TranslateMode::Synthesized,
            module_text(cold, cold),
        )
        .expect("a cold pair synthesizes");
    let after = client.stats().expect("stats page");
    assert_eq!(stats_value(&after, "pairs_synthesized"), Some(1));
    assert_eq!(
        stats_value(&after, "corpora_built"),
        Some(prepared + 1),
        "one synthesis, one corpus"
    );

    drop(client);
    handle.shutdown();
    set_active_store(None);
    TranslatorCache::reset();
    let _ = std::fs::remove_dir_all(&dir);
}
