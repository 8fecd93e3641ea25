//! End-to-end warm start: a server booted with `--store` on a populated
//! directory must answer its first TRANSLATE byte-identically to the cold
//! run, with the synthesis funnel untouched — zero coalescer syntheses
//! and zero `synth.*` spans — and must write nothing to the store.
//!
//! The translator cache, the active store, and the trace collector are
//! process-global, so each test runs its phases inside one `#[test]` and
//! the tests take [`SERIAL`] to run one at a time.

use std::collections::BTreeSet;
use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use siro_ir::IrVersion;
use siro_serve::{stats_value, Client, ServeConfig, TranslateMode};
use siro_synth::{
    reset_router_stats, reset_store_stats, set_active_store, store_stats, StoreConfig,
    TranslatorCache, TranslatorStore,
};

const TIMEOUT: Duration = Duration::from_secs(30);

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn corpus_module_text(src: IrVersion, tgt: IrVersion) -> String {
    let case = siro_testcases::full_corpus()
        .into_iter()
        .find(|c| c.usable_for_pair(src, tgt))
        .expect("a usable corpus case");
    siro_ir::write::write_module(&case.build(src))
}

#[test]
fn warm_started_server_serves_identically_without_synthesizing() {
    let _serial = serial();
    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    let dir = std::env::temp_dir().join(format!("siro-warmstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let text = corpus_module_text(src, tgt);

    // ---- Phase 1: cold server with the store attached; the first
    // translate cold-synthesizes and writes the entry back. -------------
    let store = Arc::new(TranslatorStore::open(StoreConfig::at(&dir)).expect("open store"));
    set_active_store(Some(store));
    reset_store_stats();
    TranslatorCache::reset();
    let handle = siro_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: Some(2),
        ..ServeConfig::default()
    })
    .expect("cold server binds");
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect cold");
    let cold = client
        .translate(src, tgt, TranslateMode::Synthesized, text.clone())
        .expect("cold translation");
    assert!(!cold.cache_hit, "phase 1 must be the cold synthesis");
    drop(client);
    handle.shutdown();
    assert_eq!(store_stats().writes, 1, "cold synthesis must persist");
    set_active_store(None);

    // ---- Phase 2: fresh process state, boot from the store. ------------
    TranslatorCache::reset();
    reset_store_stats();
    siro_trace::set_enabled(true);
    siro_trace::reset();
    let handle = siro_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: Some(2),
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("warm server binds");
    assert!(
        store_stats().warm_loaded >= 1,
        "boot must pre-load the stored translator"
    );

    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect warm");
    let warm = client
        .translate(src, tgt, TranslateMode::Synthesized, text)
        .expect("warm translation");
    assert!(warm.cache_hit, "the first warm request must be a cache hit");
    assert_eq!(
        warm.text, cold.text,
        "warm-start output differs from the cold output"
    );

    // The synthesis funnel never moved: no coalescer synthesis, no
    // synthesis spans — the store answered everything.
    let stats = client.stats().expect("stats page");
    assert_eq!(stats_value(&stats, "pairs_synthesized"), Some(0));
    assert_eq!(stats_value(&stats, "store_attached"), Some(1));
    assert!(stats_value(&stats, "store_warm_loaded").unwrap_or(0) >= 1);
    let spans = siro_trace::snapshot();
    let synth_spans: Vec<_> = spans
        .spans
        .iter()
        .filter(|s| s.name.starts_with("synth."))
        .collect();
    assert!(
        synth_spans.is_empty(),
        "warm start ran synthesis stages: {:?}",
        synth_spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );

    drop(client);
    handle.shutdown();
    siro_trace::set_enabled(false);
    set_active_store(None);
    TranslatorCache::reset();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file in the store directory as (name, size, inode). A file
/// rewritten by temp file + rename gets a new inode, so a rewrite shows
/// even when its bytes are the same; mtimes would not do, since loads
/// touch them for LRU.
fn store_files(dir: &Path) -> BTreeSet<(String, u64, u64)> {
    std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| {
            let e = e.expect("dirent");
            let meta = e.metadata().expect("metadata");
            (
                e.file_name().to_string_lossy().into_owned(),
                meta.len(),
                meta.ino(),
            )
        })
        .collect()
}

/// One daemon lifetime on `dir`: boot (warm-starting from whatever the
/// store holds), translate each request, and return the served texts and
/// the lifetime's composed-route count.
fn serve_lifetime(dir: &Path, requests: &[(IrVersion, IrVersion, String)]) -> (Vec<String>, u64) {
    TranslatorCache::reset();
    reset_router_stats();
    let handle = siro_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: Some(2),
        store_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("server binds");
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let texts = requests
        .iter()
        .map(|(src, tgt, text)| {
            client
                .translate(*src, *tgt, TranslateMode::Synthesized, text.clone())
                .unwrap_or_else(|e| panic!("{src}->{tgt}: {e}"))
                .text
        })
        .collect();
    let stats = client.stats().expect("stats page");
    drop(client);
    handle.shutdown();
    set_active_store(None);
    (
        texts,
        stats_value(&stats, "router_composed").expect("router_composed"),
    )
}

#[test]
fn warm_boot_writes_nothing_to_the_store() {
    let _serial = serial();
    let (a, m, b) = (IrVersion::V13_0, IrVersion::V12_0, IrVersion::V3_6);
    let dir = std::env::temp_dir().join(format!("siro-warm-nowrite-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Two direct pairs, then the pair they bridge: with both hops hot and
    // the direct a->b edge cold, the router composes a->m->b.
    let requests = [
        (a, m, corpus_module_text(a, m)),
        (m, b, corpus_module_text(m, b)),
        (a, b, corpus_module_text(a, b)),
    ];

    // Lifetime 1, on an empty store: synthesizes the two hops.
    let (cold, composed) = serve_lifetime(&dir, &requests);
    assert_eq!(composed, 1, "lifetime 1 must serve a->b composed");
    let before = store_files(&dir);

    // Lifetime 2, warm-booted on the same directory: same answers, same
    // files — not one created, removed or replaced.
    let (warm, composed) = serve_lifetime(&dir, &requests);
    assert_eq!(composed, 1, "lifetime 2 must serve a->b composed");
    assert_eq!(warm, cold, "warm lifetime served different bytes");
    assert_eq!(store_files(&dir), before, "a warm lifetime wrote the store");

    // What the store holds is one `.sirt` entry per synthesized hop: no
    // compiled sibling, no chain manifest.
    let names: Vec<&str> = before.iter().map(|(n, _, _)| n.as_str()).collect();
    assert_eq!(names.len(), 2, "one entry per synthesized hop: {names:?}");
    assert!(
        names.iter().all(|n| n.ends_with(".sirt")),
        "the store must hold only .sirt entries: {names:?}"
    );

    TranslatorCache::reset();
    let _ = std::fs::remove_dir_all(&dir);
}
