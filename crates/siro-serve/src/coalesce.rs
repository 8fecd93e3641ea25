//! Per-version-pair request coalescing.
//!
//! A burst of N concurrent requests for the same *cold* version pair must
//! trigger exactly one synthesis. The heavy lifting is done by
//! [`TranslatorCache`]'s per-key `OnceLock` — concurrent racers on one
//! key serialize and the losers adopt the winner's outcome. This module
//! adds the serving-side bookkeeping on top:
//!
//! * the oracle corpus for a pair is built and fingerprinted once and
//!   reused (building or fingerprinting it per request would re-render
//!   every corpus module per call);
//! * per-pair counters (`syntheses`, `coalesced`) make the coalescing
//!   observable — the e2e test asserts `syntheses == 1` after a stampede,
//!   and `STATS` exposes the totals.
//!
//! The pair map is **sharded** [`COALESCE_SHARDS`] ways by pair hash,
//! mirroring the sharded `TranslatorCache`: concurrent requests for
//! different pairs never contend on one lock, and [`PairCoalescer::totals`]
//! takes every shard lock at once so its cross-shard view is from a single
//! epoch.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use siro_ir::IrVersion;
use siro_synth::{
    corpus_fingerprint, oracle_corpus, OracleTest, SynthError, SynthesisConfig, SynthesisOutcome,
    TranslatorCache,
};

/// Observable per-pair counters.
#[derive(Debug, Default)]
struct PairCounters {
    /// Requests for this pair that actually ran a synthesis.
    syntheses: AtomicU64,
    /// Requests for this pair answered by someone else's synthesis (a
    /// cache hit, including waiting out an in-flight one).
    coalesced: AtomicU64,
}

struct PairState {
    /// The pair's oracle corpus and its [`corpus_fingerprint`].
    corpus: OnceLock<(Vec<OracleTest>, u64)>,
    counters: PairCounters,
}

/// Number of independent pair-map shards (power of two).
pub const COALESCE_SHARDS: usize = 8;

type PairMap = HashMap<(IrVersion, IrVersion), Arc<PairState>>;

/// Coalesces translator acquisition per `(source, target)` pair.
pub struct PairCoalescer {
    shards: [Mutex<PairMap>; COALESCE_SHARDS],
}

impl Default for PairCoalescer {
    fn default() -> Self {
        PairCoalescer {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }
}

/// What [`PairCoalescer::translator_for`] reports alongside the outcome.
#[derive(Debug, Clone)]
pub struct CoalescedLookup {
    /// The shared synthesis outcome.
    pub outcome: Arc<SynthesisOutcome>,
    /// `true` when this request ran the synthesis itself.
    pub fresh: bool,
}

/// Totals across all pairs, for `STATS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceTotals {
    /// Distinct pairs requested so far.
    pub pairs: u64,
    /// Syntheses actually run.
    pub syntheses: u64,
    /// Requests that reused another request's synthesis.
    pub coalesced: u64,
}

impl PairCoalescer {
    /// Creates an empty coalescer.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, pair: (IrVersion, IrVersion)) -> &Mutex<PairMap> {
        let mut h = DefaultHasher::new();
        pair.hash(&mut h);
        &self.shards[(h.finish() as usize) & (COALESCE_SHARDS - 1)]
    }

    /// Locks every shard in index order; holding all guards makes the
    /// cross-shard reads in [`PairCoalescer::totals`] atomic.
    fn lock_all(&self) -> Vec<MutexGuard<'_, PairMap>> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("coalescer poisoned"))
            .collect()
    }

    fn state(&self, pair: (IrVersion, IrVersion)) -> Arc<PairState> {
        let mut map = self.shard(pair).lock().expect("coalescer poisoned");
        Arc::clone(map.entry(pair).or_insert_with(|| {
            Arc::new(PairState {
                corpus: OnceLock::new(),
                counters: PairCounters::default(),
            })
        }))
    }

    /// Returns the (memoized) synthesized translator for `source -> target`,
    /// running at most one synthesis per pair regardless of concurrency.
    ///
    /// # Errors
    ///
    /// Propagates the memoized [`SynthError`] when the pair cannot be
    /// synthesized from the corpus.
    pub fn translator_for(
        &self,
        source: IrVersion,
        target: IrVersion,
    ) -> Result<CoalescedLookup, SynthError> {
        let state = self.state((source, target));
        let (corpus, fingerprint) = state.corpus.get_or_init(|| {
            let corpus = oracle_corpus(source, target);
            let fingerprint = corpus_fingerprint(&corpus);
            (corpus, fingerprint)
        });
        let lookup = TranslatorCache::lookup_or_synthesize_fingerprint(
            SynthesisConfig::new(source, target),
            corpus,
            *fingerprint,
        )?;
        if lookup.fresh {
            state.counters.syntheses.fetch_add(1, Ordering::Relaxed);
            siro_trace::counter("serve.coalesce_fresh", 1);
        } else {
            state.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            siro_trace::counter("serve.coalesce_joined", 1);
        }
        Ok(CoalescedLookup {
            outcome: lookup.outcome,
            fresh: lookup.fresh,
        })
    }

    /// Gives the pair its serving corpus (`oracle_corpus(source, target)`)
    /// and that corpus's fingerprint, built by the caller (warm start), so
    /// that [`PairCoalescer::translator_for`] need not build them again. A
    /// pair that already holds its corpus keeps it.
    pub(crate) fn set_corpus(
        &self,
        source: IrVersion,
        target: IrVersion,
        corpus: Vec<OracleTest>,
        fingerprint: u64,
    ) {
        let _ = self
            .state((source, target))
            .corpus
            .set((corpus, fingerprint));
    }

    /// Counters for one pair: `(syntheses, coalesced)`.
    pub fn pair_counters(&self, source: IrVersion, target: IrVersion) -> (u64, u64) {
        let pair = (source, target);
        let map = self.shard(pair).lock().expect("coalescer poisoned");
        map.get(&pair)
            .map(|s| {
                (
                    s.counters.syntheses.load(Ordering::Relaxed),
                    s.counters.coalesced.load(Ordering::Relaxed),
                )
            })
            .unwrap_or((0, 0))
    }

    /// Totals across every pair seen so far, read with all shard locks
    /// held so the view is from one epoch.
    pub fn totals(&self) -> CoalesceTotals {
        let guards = self.lock_all();
        let mut t = CoalesceTotals::default();
        for map in &guards {
            t.pairs += map.len() as u64;
            for s in map.values() {
                t.syntheses += s.counters.syntheses.load(Ordering::Relaxed);
                t.coalesced += s.counters.coalesced.load(Ordering::Relaxed);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stampede_on_a_cold_pair_synthesizes_once() {
        // A pair no other test in this binary touches, so the process-wide
        // TranslatorCache is genuinely cold for it.
        let (src, tgt) = (IrVersion::V15_0, IrVersion::V3_6);
        let coalescer = Arc::new(PairCoalescer::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&coalescer);
            handles.push(std::thread::spawn(move || {
                c.translator_for(src, tgt).expect("synthesis")
            }));
        }
        let lookups: Vec<CoalescedLookup> = handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect();
        let fresh = lookups.iter().filter(|l| l.fresh).count();
        assert_eq!(fresh, 1, "exactly one request may synthesize");
        let first = &lookups[0].outcome;
        for l in &lookups[1..] {
            assert!(Arc::ptr_eq(first, &l.outcome), "all share one outcome");
        }
        let (syntheses, coalesced) = coalescer.pair_counters(src, tgt);
        assert_eq!(syntheses, 1);
        assert_eq!(coalesced, 7);
        let totals = coalescer.totals();
        assert!(totals.pairs >= 1 && totals.syntheses >= 1);
    }

    #[test]
    fn unknown_pair_reports_zero_counters() {
        let c = PairCoalescer::new();
        assert_eq!(c.pair_counters(IrVersion::V3_0, IrVersion::V3_6), (0, 0));
        assert_eq!(c.totals(), CoalesceTotals::default());
    }

    /// A stampede that spans *multiple shards at once* (several distinct
    /// cold pairs, racers on each) must still synthesize exactly once per
    /// pair, and the cross-shard totals must account for every request.
    #[test]
    fn cross_shard_stampede_synthesizes_once_per_pair() {
        // Pairs reserved for this test (no other test in this binary
        // synthesizes them), chosen to land in different shards with high
        // probability; correctness does not depend on the spread.
        let pairs = [
            (IrVersion::V17_0, IrVersion::V3_6),
            (IrVersion::V17_0, IrVersion::V3_0),
            (IrVersion::V10_0, IrVersion::V3_0),
        ];
        const RACERS: usize = 4;
        let coalescer = Arc::new(PairCoalescer::new());
        let mut handles = Vec::new();
        for &(src, tgt) in &pairs {
            for _ in 0..RACERS {
                let c = Arc::clone(&coalescer);
                handles.push(std::thread::spawn(move || {
                    c.translator_for(src, tgt).expect("synthesis")
                }));
            }
        }
        for h in handles {
            h.join().expect("join");
        }
        for &(src, tgt) in &pairs {
            let (syntheses, coalesced) = coalescer.pair_counters(src, tgt);
            assert_eq!(syntheses, 1, "{src}->{tgt} must synthesize exactly once");
            assert_eq!(coalesced, (RACERS - 1) as u64, "{src}->{tgt}");
        }
        let totals = coalescer.totals();
        assert_eq!(totals.pairs, pairs.len() as u64);
        assert_eq!(totals.syntheses, pairs.len() as u64);
        assert_eq!(totals.coalesced, (pairs.len() * (RACERS - 1)) as u64);
    }
}
