//! Oracle corpora and their fingerprints.
//!
//! Synthesis validates a translator against its pair's oracle corpus
//! (§4.3, Fig. 6), and the corpus's [`corpus_fingerprint`] is part of the
//! translator's identity: in the [`crate::TranslatorCache`] and in the
//! store ([`crate::StoreKey`]). This module builds corpora and
//! fingerprints them, and keeps no corpus.
//!
//! * [`pair_fingerprint`] reads one table holding the fingerprint of every
//!   ordered pair of [`IrVersion::CATALOG`] versions, the 13 identity pairs
//!   included (a `13.0 -> 13.0` request is served by a synthesized
//!   translator too). The first call fills the table in one sweep: each
//!   corpus case is built once per catalog version, the built module's
//!   opcode set decides which pairs use the case
//!   ([`siro_testcases::usable_with_kinds`]), and its written text enters
//!   the fingerprint of each pair it serves from that version. The sweep
//!   feeds the byte stream [`corpus_fingerprint`] hashes through the same
//!   hasher, so every table entry equals
//!   `corpus_fingerprint(&oracle_corpus(a, b))` and no store key moves. A
//!   pair with a version outside the catalog is fingerprinted from a corpus
//!   built for that call.
//! * [`oracle_corpus`] builds a pair's tests. Only synthesis and full
//!   validation read tests, so only they build a corpus: the cache inside
//!   a slot's initialisation when the store has no entry, a
//!   [`crate::ValidationMode::Full`] load, and
//!   [`crate::TranslatorStore::verify`]. Each drops its corpus when done.
//!   [`corpora_built`] counts the builds; a warm daemon serving hot
//!   traffic builds none.
//! * [`Corpus`] names the tests of one lookup without building them.

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use siro_ir::IrVersion;

use crate::pertest::OracleTest;

/// Corpora built by [`oracle_corpus`] in this process.
static CORPORA_BUILT: AtomicU64 = AtomicU64::new(0);

/// Builds the full oracle corpus for a pair, in the shape synthesis (and
/// hence store keys) consume. The daemon, `siro store`, the benches and
/// difftest all build their corpora here, so everyone fingerprints the
/// same corpus.
pub fn oracle_corpus(source: IrVersion, target: IrVersion) -> Vec<OracleTest> {
    CORPORA_BUILT.fetch_add(1, Ordering::Relaxed);
    siro_testcases::corpus_for_pair(source, target)
        .into_iter()
        .map(|c| OracleTest {
            name: c.name.to_string(),
            module: c.build(source),
            oracle: c.oracle,
        })
        .collect()
}

/// How many corpora [`oracle_corpus`] has built in this process.
pub fn corpora_built() -> u64 {
    CORPORA_BUILT.load(Ordering::Relaxed)
}

/// The byte stream behind every corpus fingerprint: the test count, then
/// each test's name, oracle and written module text. [`corpus_fingerprint`]
/// and the catalog sweep both hash through it, so they cannot drift apart.
struct FingerprintHasher(DefaultHasher);

impl FingerprintHasher {
    fn new(tests: usize) -> Self {
        let mut h = DefaultHasher::new();
        tests.hash(&mut h);
        FingerprintHasher(h)
    }

    fn test(&mut self, name: &str, oracle: i64, text: &str) {
        name.hash(&mut self.0);
        oracle.hash(&mut self.0);
        text.hash(&mut self.0);
    }

    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Fingerprints an oracle corpus: test names, oracle values, and the full
/// rendered text of every test module. Any edit to any test — renaming,
/// changing an oracle, touching the module body — changes the fingerprint
/// and therefore misses the cache.
pub fn corpus_fingerprint(tests: &[OracleTest]) -> u64 {
    let mut h = FingerprintHasher::new(tests.len());
    for t in tests {
        h.test(&t.name, t.oracle, &siro_ir::write::write_module(&t.module));
    }
    h.finish()
}

const VERSIONS: usize = IrVersion::CATALOG.len();
const SLOTS: usize = VERSIONS * VERSIONS;

/// Every catalog pair's fingerprint, row-major in catalog order.
static FINGERPRINTS: OnceLock<[u64; SLOTS]> = OnceLock::new();

/// Fingerprints every catalog pair, building each case once per version.
/// Versions are visited in catalog order, which ascends, so the opcode
/// sets a row reads (those of `source.min(target)`) are already known.
fn catalog_fingerprints() -> [u64; SLOTS] {
    let cases = siro_testcases::full_corpus();
    let mut kinds = Vec::with_capacity(VERSIONS);
    let mut table = [0; SLOTS];
    for (i, &source) in IrVersion::CATALOG.iter().enumerate() {
        let (row_kinds, texts): (Vec<_>, Vec<_>) = cases
            .iter()
            .map(|c| {
                let module = c.build(source);
                (
                    siro_testcases::opcodes(&module),
                    siro_ir::write::write_module(&module),
                )
            })
            .unzip();
        kinds.push(row_kinds);
        for (j, &target) in IrVersion::CATALOG.iter().enumerate() {
            let low: &[_] = &kinds[i.min(j)];
            let usable: Vec<usize> = (0..cases.len())
                .filter(|&c| siro_testcases::usable_with_kinds(&low[c], source, target))
                .collect();
            let mut h = FingerprintHasher::new(usable.len());
            for c in usable {
                h.test(cases[c].name, cases[c].oracle, &texts[c]);
            }
            table[i * VERSIONS + j] = h.finish();
        }
    }
    table
}

/// `corpus_fingerprint(&oracle_corpus(source, target))`. Catalog pairs
/// read the table the first call fills; other pairs build and hash their
/// corpus.
pub fn pair_fingerprint(source: IrVersion, target: IrVersion) -> u64 {
    let index = |v| IrVersion::CATALOG.iter().position(|&c| c == v);
    match (index(source), index(target)) {
        (Some(i), Some(j)) => FINGERPRINTS.get_or_init(catalog_fingerprints)[i * VERSIONS + j],
        _ => corpus_fingerprint(&oracle_corpus(source, target)),
    }
}

/// The tests of one cache or store lookup, named without being built.
#[derive(Debug, Clone, Copy)]
pub enum Corpus<'a> {
    /// Tests the caller already holds.
    Built(&'a [OracleTest]),
    /// A pair's [`oracle_corpus`], built only if a synthesis or a full
    /// validation reads it.
    Pair(IrVersion, IrVersion),
}

impl Corpus<'_> {
    /// The corpus's [`corpus_fingerprint`]; a pair's comes from
    /// [`pair_fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        match *self {
            Corpus::Built(tests) => corpus_fingerprint(tests),
            Corpus::Pair(source, target) => pair_fingerprint(source, target),
        }
    }

    /// The tests, building a pair's corpus for this caller alone.
    pub fn tests(&self) -> Cow<'_, [OracleTest]> {
        match *self {
            Corpus::Built(tests) => Cow::Borrowed(tests),
            Corpus::Pair(source, target) => Cow::Owned(oracle_corpus(source, target)),
        }
    }
}
