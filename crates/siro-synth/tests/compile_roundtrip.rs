//! The compiled tier's adoption and equivalence contract:
//!
//! * a store-attached cold synthesis persists the `.sirt` entry and
//!   nothing else — the compiled tier is never written to disk;
//! * adopting that entry in a fresh process lowers the translator exactly
//!   once, during the lookup (and during a warm-boot pre-load), never on
//!   the first translate;
//! * the adopted translator's compiled tier — push driver and tiered
//!   owned path — is byte-identical to the interpreter across the whole
//!   oracle corpus, and the tiered path never falls back.
//!
//! Damaged `.sirt` entries are covered by `store_corruption.rs`. Compile
//! counters and the store attachment are process-global, so every phase
//! runs inside ONE `#[test]`.

use std::path::PathBuf;
use std::sync::Arc;

use siro_core::Skeleton;
use siro_ir::{write, IrVersion};
use siro_synth::{
    compile_stats, corpus_fingerprint, oracle_corpus, reset_compile_stats, set_active_store,
    translate_module_owned_tiered, OracleTest, StoreConfig, StoreKey, SynthesisConfig,
    SynthesisOutcome, TranslatorCache, TranslatorStore,
};

/// Asserts the compiled tier (push driver and the in-place tiered path)
/// serves every corpus module byte-identically to the interpreter.
fn assert_tiers_agree(outcome: &SynthesisOutcome, tgt: IrVersion, tests: &[OracleTest]) {
    let compiled = outcome.compiled().expect("translator must lower");
    let skeleton = Skeleton::new(tgt);
    for test in tests {
        let name = &test.name;
        let slow = skeleton
            .translate_module(&test.module, &outcome.translator)
            .unwrap_or_else(|e| panic!("{name}: interpreter: {e}"));
        let slow = write::write_module(&slow);
        let fast = compiled
            .translate_module(&test.module)
            .unwrap_or_else(|e| panic!("{name}: compiled: {e}"));
        assert_eq!(
            write::write_module(&fast),
            slow,
            "{name}: compiled output differs from the interpreter"
        );
        let tiered = translate_module_owned_tiered(outcome, tgt, test.module.clone())
            .unwrap_or_else(|e| panic!("{name}: tiered: {e}"));
        assert_eq!(
            write::write_module(&tiered),
            slow,
            "{name}: tiered owned path differs from the interpreter"
        );
    }
}

fn file_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| {
            e.expect("dirent")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn store_adoption_lowers_once_and_tiers_agree_over_the_corpus() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("siro-compile-adopt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(TranslatorStore::open(StoreConfig::at(&dir)).expect("open store"));
    set_active_store(Some(Arc::clone(&store)));

    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    let tests = oracle_corpus(src, tgt);
    let config = SynthesisConfig::new(src, tgt);
    let key = StoreKey::new(&config, corpus_fingerprint(&tests));

    // Populate: a store-attached cold synthesis writes the `.sirt` entry
    // and no other file.
    TranslatorCache::reset();
    let first = TranslatorCache::lookup_or_synthesize(config.clone(), &tests).expect("synthesis");
    assert!(first.fresh && !first.from_store);
    assert_eq!(file_names(&dir), vec![key.file_name()]);
    drop(first);

    // Adopt in a fresh process state: the lookup lowers, once.
    TranslatorCache::reset();
    reset_compile_stats();
    let warm = TranslatorCache::lookup_or_synthesize(config.clone(), &tests).expect("reload");
    assert!(warm.from_store, "the entry must warm from the store");
    assert_eq!(
        compile_stats().lowered,
        1,
        "adoption must lower the translator"
    );

    // Translating the whole corpus lowers nothing more, and the tiered
    // path serves every module from the compiled tier.
    assert_tiers_agree(&warm.outcome, tgt, &tests);
    let stats = compile_stats();
    assert_eq!(stats.lowered, 1, "translating must not lower again");
    assert_eq!(stats.lower_failures, 0);
    assert_eq!(stats.translations_compiled, tests.len() as u64);
    assert_eq!(stats.translations_interpreted, 0);
    assert_eq!(stats.runtime_fallbacks, 0);
    drop(warm);

    // A warm-boot pre-load lowers at adoption too.
    TranslatorCache::reset();
    reset_compile_stats();
    assert!(TranslatorCache::warm_from_store(&config));
    assert_eq!(compile_stats().lowered, 1, "warm-boot pre-load must lower");
    assert_eq!(
        file_names(&dir),
        vec![key.file_name()],
        "adoption wrote a file"
    );

    set_active_store(None);
    TranslatorCache::reset();
    let _ = std::fs::remove_dir_all(&dir);
}
