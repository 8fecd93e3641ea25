//! Process-wide memoization of synthesis outcomes.
//!
//! Synthesizing a translator for a version pair is by far the most
//! expensive operation in the evaluation pipeline, and the benchmarks
//! (Tab. 3/4/5, the kernel campaign, the fuzzing campaign) all need the
//! same handful of pairs. [`TranslatorCache`] keys a finished
//! [`SynthesisOutcome`] by the version pair, a fingerprint of the oracle
//! corpus, and every config knob that can change the outcome — so each
//! pair is synthesized exactly once per process and every later consumer
//! gets the shared [`Arc`] back.
//!
//! The storage is one map under one lock, held only to find or insert a
//! key's slot: the synthesis itself runs in the slot's `OnceLock` after
//! the lock is dropped, so a cold pair never blocks lookups of other
//! pairs. [`TranslatorCache::snapshot`] and [`TranslatorCache::reset`]
//! take that one lock.
//!
//! The `threads` knob is deliberately **excluded** from the key:
//! refinement takes set unions over the passing assignments and both the
//! probe and validation fan-outs preserve sequential order, so the
//! synthesized translator is independent of the worker count.
//!
//! Failures are cached too: the same key means the same inputs, which
//! deterministically reproduce the same [`SynthError`], so retrying a
//! failed pair would only burn the same CPU again.
//!
//! When a persistent [`crate::store::TranslatorStore`] is attached (via
//! [`crate::store::set_active_store`]), a miss first consults the store —
//! a validated entry is adopted without synthesizing — and a cold
//! synthesis writes its outcome back, so the *next* process starts warm.
//! Failures and fault-injected configs never touch the store.
//!
//! A slot filled with a translator (synthesized, adopted from the store,
//! or warm-loaded) and a [`TranslatorCache::reset`] each start a new route
//! epoch ([`crate::router::bump_route_epoch`]): the edge turned hot (or every
//! edge turned cold), so routers rebuild their graphs. A failed synthesis
//! leaves its edge cold and starts none.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use siro_ir::IrVersion;

use crate::candgen::GenLimits;
use crate::corpus::Corpus;
use crate::driver::{SynthError, SynthesisConfig, SynthesisOutcome, Synthesizer};
use crate::pertest::OracleTest;
use crate::refine::SynthFault;

/// Everything that can change what `Synthesizer::synthesize` produces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    source: IrVersion,
    target: IrVersion,
    corpus_fingerprint: u64,
    opt_equivalence: bool,
    opt_memoization: bool,
    opt_ordering: bool,
    limits: GenLimits,
    max_assignments_per_test: u128,
    fault: Option<SynthFault>,
}

impl CacheKey {
    fn with_fingerprint(config: &SynthesisConfig, corpus_fingerprint: u64) -> Self {
        CacheKey {
            source: config.source,
            target: config.target,
            corpus_fingerprint,
            opt_equivalence: config.opt_equivalence,
            opt_memoization: config.opt_memoization,
            opt_ordering: config.opt_ordering,
            limits: config.limits,
            max_assignments_per_test: config.max_assignments_per_test,
            fault: config.fault,
        }
    }
}

/// One slot per key; the per-key `OnceLock` means two distinct pairs can
/// synthesize concurrently while two racers on the *same* pair serialize,
/// with the loser reusing the winner's result.
type Slot = Arc<OnceLock<Result<Arc<SynthesisOutcome>, SynthError>>>;

static CACHE: OnceLock<Mutex<HashMap<CacheKey, Slot>>> = OnceLock::new();
/// Lookups answered from the cache, store adoptions included.
static HITS: AtomicU64 = AtomicU64::new(0);
/// Lookups that ran a synthesis.
static MISSES: AtomicU64 = AtomicU64::new(0);

/// The map, recovered if a thread panicked while holding it: every
/// critical section finds, inserts, counts or clears whole slots, so the
/// map stays consistent, and a synthesis runs outside the lock.
fn lock() -> MutexGuard<'static, HashMap<CacheKey, Slot>> {
    CACHE
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Point-in-time view of the whole cache: the hit/miss counters plus the
/// shape of the stored map. This is the one source of truth that both the
/// benchmark JSON dumps and `siro-serve`'s `STATS` endpoint read, so the
/// two can never disagree about what the cache did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran a synthesis.
    pub misses: u64,
    /// Distinct keys currently stored (successes, failures, and slots
    /// whose first synthesis is still in flight).
    pub entries: usize,
    /// Stored keys whose memoized outcome is a [`SynthError`].
    pub failures: usize,
}

/// Result of a cache lookup: the shared outcome plus whether this call is
/// the one that actually synthesized it.
#[derive(Debug, Clone)]
pub struct CacheLookup {
    /// The memoized outcome.
    pub outcome: Arc<SynthesisOutcome>,
    /// `true` when this call performed the synthesis (a miss), `false`
    /// when the outcome was already cached (in memory or in the
    /// persistent store).
    pub fresh: bool,
    /// `true` when this call populated the in-memory slot from the
    /// persistent store instead of synthesizing.
    pub from_store: bool,
}

/// The process-wide translator cache. All methods are associated
/// functions on a unit struct; the storage lives in statics.
#[derive(Debug)]
pub struct TranslatorCache;

impl TranslatorCache {
    /// Returns the memoized outcome for `(config, tests)`, synthesizing it
    /// first if this key has never been seen.
    ///
    /// # Errors
    ///
    /// Propagates the (equally memoized) [`SynthError`] of the underlying
    /// synthesis.
    pub fn get_or_synthesize(
        config: SynthesisConfig,
        tests: &[OracleTest],
    ) -> Result<Arc<SynthesisOutcome>, SynthError> {
        Self::lookup_or_synthesize(config, tests).map(|l| l.outcome)
    }

    /// Like [`TranslatorCache::get_or_synthesize`] but also reports
    /// whether the call hit or missed, for per-pair bench records.
    ///
    /// # Errors
    ///
    /// Propagates the memoized [`SynthError`] of the underlying synthesis.
    pub fn lookup_or_synthesize(
        config: SynthesisConfig,
        tests: &[OracleTest],
    ) -> Result<CacheLookup, SynthError> {
        Self::lookup(config, Corpus::Built(tests))
    }

    /// Like [`TranslatorCache::lookup_or_synthesize`] over the pair's
    /// [`crate::oracle_corpus`], keyed by its
    /// [`crate::corpus::pair_fingerprint`]. The corpus is built only if
    /// the slot's initialisation reads it: when the store has no valid
    /// entry and synthesis runs, or for a [`crate::ValidationMode::Full`]
    /// load. A hit builds nothing. The router's default resolver and the
    /// serving coalescer look pairs up here.
    ///
    /// # Errors
    ///
    /// Propagates the memoized [`SynthError`] of the underlying synthesis.
    pub fn lookup_pair(config: SynthesisConfig) -> Result<CacheLookup, SynthError> {
        let corpus = Corpus::Pair(config.source, config.target);
        Self::lookup(config, corpus)
    }

    fn lookup(config: SynthesisConfig, corpus: Corpus<'_>) -> Result<CacheLookup, SynthError> {
        let fingerprint = corpus.fingerprint();
        let key = CacheKey::with_fingerprint(&config, fingerprint);
        let slot = Arc::clone(lock().entry(key).or_default());
        // Fault-injected configs never touch the persistent store: a
        // deliberately broken translator must not outlive this process.
        let store = if config.fault.is_none() {
            crate::store::active_store()
        } else {
            None
        };
        let ran = std::cell::Cell::new(false);
        let loaded = std::cell::Cell::new(false);
        let result = slot.get_or_init(|| {
            if let Some(store) = &store {
                let skey = crate::store::StoreKey::new(&config, fingerprint);
                let sp = siro_trace::span!("store.load", "{}->{}", config.source, config.target);
                let hit = store.load(&skey, corpus);
                drop(sp);
                if let Some(outcome) = hit {
                    loaded.set(true);
                    return Ok(outcome);
                }
            }
            ran.set(true);
            let tests = corpus.tests();
            let result = Synthesizer::new(config.clone())
                .synthesize(&tests)
                .map(Arc::new);
            drop(tests);
            if let (Some(store), Ok(outcome)) = (&store, &result) {
                let skey = crate::store::StoreKey::new(&config, fingerprint);
                let sp = siro_trace::span!("store.save", "{}->{}", config.source, config.target);
                if store.save(&skey, outcome).is_err() {
                    siro_trace::counter("store.save_errors", 1);
                }
                drop(sp);
            }
            result
        });
        let fresh = ran.get();
        let from_store = loaded.get();
        if (fresh || from_store) && result.is_ok() {
            crate::router::bump_route_epoch();
        }
        // With a store attached, a translator entering the cache (cold
        // synthesis or store adoption) is lowered now, so the first request
        // it answers already runs on the compiled tier. Memory hits skip
        // this; their outcome already carries its compiled slot.
        if store.is_some() && (fresh || from_store) {
            if let Ok(outcome) = result {
                outcome.compiled();
            }
        }
        // Store loads count as hits: the lookup was answered by a
        // previous synthesis, just one from another process.
        if fresh { &MISSES } else { &HITS }.fetch_add(1, Ordering::Relaxed);
        result.clone().map(|outcome| CacheLookup {
            outcome,
            fresh,
            from_store,
        })
    }

    /// Pre-populates the in-memory slot that [`TranslatorCache::lookup_pair`]
    /// reads for `config` from the attached persistent store *without ever
    /// synthesizing*: no entry (or a corrupt one) just returns `false`.
    /// Returns `true` when the slot is populated — whether by this call or
    /// already beforehand — so callers know a subsequent lookup will hit.
    /// Only a [`crate::ValidationMode::Full`] load builds the pair's corpus,
    /// so a checksum-validated warm start builds none.
    pub fn warm_from_store(config: &SynthesisConfig) -> bool {
        if config.fault.is_some() {
            return false;
        }
        let Some(store) = crate::store::active_store() else {
            return false;
        };
        let corpus = Corpus::Pair(config.source, config.target);
        let key = CacheKey::with_fingerprint(config, corpus.fingerprint());
        if lock().get(&key).is_some_and(|slot| slot.get().is_some()) {
            return true;
        }
        let skey = crate::store::StoreKey::new(config, key.corpus_fingerprint);
        let sp = siro_trace::span!("store.load", "{}->{} (warm)", config.source, config.target);
        let outcome = store.load(&skey, corpus);
        drop(sp);
        let Some(outcome) = outcome else {
            return false;
        };
        outcome.compiled();
        let slot = Arc::clone(lock().entry(key).or_default());
        // A concurrent lookup may have raced us into the slot; either way
        // the slot is populated now.
        if slot.set(Ok(outcome)).is_ok() {
            crate::store::note_warm_loaded();
            crate::router::bump_route_epoch();
        }
        true
    }

    /// Whether the in-memory slot for `config` and a corpus with this
    /// [`crate::corpus_fingerprint`] already holds a *successful* outcome — no
    /// store probe, no synthesis, no counter bump. The version-graph
    /// router uses this to classify an edge as hot (answerable at memory
    /// speed) without perturbing the edge.
    pub fn is_warm_fingerprint(config: &SynthesisConfig, corpus_fingerprint: u64) -> bool {
        let key = CacheKey::with_fingerprint(config, corpus_fingerprint);
        lock()
            .get(&key)
            .is_some_and(|slot| matches!(slot.get(), Some(Ok(_))))
    }

    /// Counters plus stored-entry shape, read under the map lock, so a
    /// snapshot racing a [`TranslatorCache::reset`] sees either the whole
    /// pre-reset state or the whole post-reset state, never non-zero
    /// counters over an empty map. (Reading the counters before taking the
    /// lock was a real bug: a reader could observe `hits + misses > 0`
    /// with `entries == 0`.)
    ///
    /// ```
    /// use siro_synth::{SynthesisConfig, TranslatorCache};
    /// use siro_ir::IrVersion;
    /// let config = SynthesisConfig::new(IrVersion::V13_0, IrVersion::V3_6);
    /// TranslatorCache::get_or_synthesize(config.clone(), &[]).unwrap();
    /// TranslatorCache::get_or_synthesize(config, &[]).unwrap();
    /// let snap = TranslatorCache::snapshot();
    /// // One key: missed once, then hit once.
    /// assert_eq!((snap.entries, snap.misses, snap.hits), (1, 1, 1));
    /// assert_eq!(snap.failures, 0);
    /// ```
    pub fn snapshot() -> CacheSnapshot {
        let map = lock();
        CacheSnapshot {
            hits: HITS.load(Ordering::Relaxed),
            misses: MISSES.load(Ordering::Relaxed),
            entries: map.len(),
            failures: map
                .values()
                .filter(|slot| matches!(slot.get(), Some(Err(_))))
                .count(),
        }
    }

    /// Drops every cached outcome and zeroes the counters under the map
    /// lock, so concurrent [`TranslatorCache::snapshot`]s never observe
    /// cleared entries with stale counters. Meant for benchmarks that
    /// measure cold runs; in-flight lookups keep their `Arc`s alive, so
    /// this is always safe.
    pub fn reset() {
        let mut map = lock();
        map.clear();
        HITS.store(0, Ordering::Relaxed);
        MISSES.store(0, Ordering::Relaxed);
        crate::router::bump_route_epoch();
    }
}

/// Fans a batch of synthesis jobs out over scoped worker threads, one per
/// job (the per-job internals parallelize further on their own
/// `config.threads`). Results come back in job order. Each job goes
/// through [`TranslatorCache`], so duplicate pairs in one batch are
/// synthesized once.
pub fn synthesize_all(
    jobs: &[(SynthesisConfig, Vec<OracleTest>)],
) -> Vec<Result<Arc<SynthesisOutcome>, SynthError>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(config, tests)| {
                scope.spawn(move || TranslatorCache::get_or_synthesize(config.clone(), tests))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("synthesis worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::corpus_fingerprint;
    use crate::driver::Synthesizer;
    use siro_ir::IrVersion;

    fn tests_subset(src: IrVersion, tgt: IrVersion, names: &[&str]) -> Vec<OracleTest> {
        siro_testcases::corpus_for_pair(src, tgt)
            .into_iter()
            .filter(|c| names.contains(&c.name))
            .map(|c| OracleTest {
                name: c.name.to_string(),
                module: c.build(src),
                oracle: c.oracle,
            })
            .collect()
    }

    const NAMES: &[&str] = &["ret_const", "add_asym", "sub_asym"];

    // NOTE: the cache and its counters are process-global and the test
    // harness runs tests concurrently, so every test below uses its own
    // distinct key (different config knobs or corpus) and asserts via the
    // per-call `fresh` flag / pointer identity, never via exact global
    // counter values.

    #[test]
    fn synthesis_is_deterministic_across_runs_and_thread_counts() {
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
        let tests = tests_subset(src, tgt, NAMES);
        let mut one = SynthesisConfig::new(src, tgt);
        one.threads = 1;
        let mut many = SynthesisConfig::new(src, tgt);
        many.threads = 8;
        let a = Synthesizer::new(one.clone()).synthesize(&tests).unwrap();
        let b = Synthesizer::new(one).synthesize(&tests).unwrap();
        let c = Synthesizer::new(many).synthesize(&tests).unwrap();
        // Same pair twice: byte-identical rendered translators; and the
        // outcome is independent of the worker count, which is why
        // `threads` is not part of the cache key.
        assert_eq!(a.rendered, b.rendered);
        assert_eq!(a.rendered, c.rendered);
    }

    #[test]
    fn cache_hit_returns_the_cold_outcome() {
        let (src, tgt) = (IrVersion::V12_0, IrVersion::V3_6);
        let tests = tests_subset(src, tgt, NAMES);
        let config = SynthesisConfig::new(src, tgt);
        let cold = TranslatorCache::lookup_or_synthesize(config.clone(), &tests).unwrap();
        let warm = TranslatorCache::lookup_or_synthesize(config, &tests).unwrap();
        assert!(!warm.fresh, "second lookup must hit");
        assert!(
            Arc::ptr_eq(&cold.outcome, &warm.outcome),
            "hit must return the very same outcome"
        );
        // And the memoized outcome equals a from-scratch synthesis.
        let scratch = Synthesizer::for_pair(src, tgt).synthesize(&tests).unwrap();
        assert_eq!(cold.outcome.rendered, scratch.rendered);
        let snap = TranslatorCache::snapshot();
        assert!(snap.hits >= 1 && snap.misses >= 1);
    }

    #[test]
    fn corpus_fingerprint_separates_different_corpora() {
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
        let a = tests_subset(src, tgt, NAMES);
        let b = tests_subset(src, tgt, &["ret_const", "add_asym"]);
        assert_ne!(corpus_fingerprint(&a), corpus_fingerprint(&b));
        assert_eq!(corpus_fingerprint(&a), corpus_fingerprint(&a.clone()));
    }

    #[test]
    fn fan_out_shares_duplicate_pairs() {
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_0);
        let tests = tests_subset(src, tgt, NAMES);
        let jobs: Vec<_> = (0..3)
            .map(|_| (SynthesisConfig::new(src, tgt), tests.clone()))
            .collect();
        let results = synthesize_all(&jobs);
        let first = results[0].as_ref().unwrap();
        for r in &results[1..] {
            assert!(Arc::ptr_eq(first, r.as_ref().unwrap()));
        }
    }

    #[test]
    fn snapshot_tracks_entries_and_failures() {
        // Unique key for this test: a corpus subset no other test uses.
        let (src, tgt) = (IrVersion::V14_0, IrVersion::V3_0);
        let tests = tests_subset(src, tgt, &["ret_const", "add_asym"]);
        let config = SynthesisConfig::new(src, tgt);
        let before = TranslatorCache::snapshot();
        TranslatorCache::get_or_synthesize(config.clone(), &tests).unwrap();
        let after = TranslatorCache::snapshot();
        assert!(after.entries > before.entries, "new key must be stored");
        assert!(after.misses > before.misses, "cold lookup is a miss");
        TranslatorCache::get_or_synthesize(config, &tests).unwrap();
        let warm = TranslatorCache::snapshot();
        assert_eq!(warm.entries, after.entries, "hit stores nothing new");
        assert!(warm.hits > after.hits);

        // A failing synthesis is stored and counted as a failure entry
        // (same blow-up recipe as `failures_are_memoized_too`, distinct
        // pair so the two tests never share a key).
        let mut bad = SynthesisConfig::new(src, tgt);
        bad.opt_equivalence = false;
        bad.opt_memoization = false;
        bad.max_assignments_per_test = 10_000;
        let fail_tests = tests_subset(src, tgt, &["switch_both", "gep_struct"]);
        let outcome = TranslatorCache::lookup_or_synthesize(bad, &fail_tests);
        assert!(outcome.is_err(), "blow-up recipe must fail");
        let failed = TranslatorCache::snapshot();
        assert!(failed.failures > after.failures, "failure must be stored");
    }

    #[test]
    fn a_poisoned_map_still_plans_and_acquires_a_clean_pair() {
        let poisoner = std::thread::spawn(|| {
            let _map = lock();
            panic!("poisoning the translator cache map");
        });
        assert!(poisoner.join().is_err());
        assert!(CACHE.get().expect("the map exists").is_poisoned());
        // A pair no other test in this binary looks up.
        let (a, b) = (IrVersion::V5_0, IrVersion::V3_7);
        let router = crate::Router::over(vec![a, b]);
        assert!(router.plan(a, b).is_some_and(|p| p.is_direct()));
        let acquired = router.acquire(a, b).expect("a clean pair acquires");
        assert!(acquired.fresh);
        assert!(TranslatorCache::is_warm_fingerprint(
            &SynthesisConfig::new(a, b),
            crate::pair_fingerprint(a, b)
        ));
    }

    #[test]
    fn failures_are_memoized_too() {
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
        let tests = tests_subset(src, tgt, &["switch_both", "gep_struct"]);
        let mut config = SynthesisConfig::new(src, tgt);
        config.opt_equivalence = false;
        config.opt_memoization = false;
        config.max_assignments_per_test = 10_000;
        let cold = TranslatorCache::lookup_or_synthesize(config.clone(), &tests).unwrap_err();
        assert!(matches!(cold, SynthError::Blowup { .. }));
        let warm = TranslatorCache::lookup_or_synthesize(config, &tests).unwrap_err();
        assert_eq!(cold, warm);
    }
}
