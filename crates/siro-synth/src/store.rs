//! The persistent on-disk translator store.
//!
//! Synthesized translators are pure data — per-kind arms of
//! predicate-guarded [`ApiProgram`]s — so a finished
//! [`SynthesisOutcome`] can outlive the process that synthesized it. This
//! module serializes outcomes into a versioned, checksummed binary format
//! (one file per cache key) so a `siro-serve` restart can warm-start
//! instead of paying full cold synthesis for every version pair.
//!
//! A store directory holds one binary format and two named text kinds:
//!
//! * `*.sirt` — one entry per Siro translator (format below);
//! * `*.sirw` / `*.sirb` — WIR translators and bridge certificates, as
//!   checksummed plaintext ([`TranslatorStore::save_named`]).
//!
//! The compiled tier is never persisted: adopting a `.sirt` entry lowers
//! it in memory ([`SynthesisOutcome::compiled`]). Any other file in the
//! directory is ignored.
//!
//! # Entry format (`*.sirt`, format 1)
//!
//! ```text
//! magic            b"SIST"
//! format           u16 (currently 1)
//! key              versions, corpus fingerprint, opt flags, limits, budget
//! registry fp      u64   FNV over the pair's ApiRegistry signature
//! translator       kinds -> arms -> covers -> programs (APIs by name+ordinal)
//! rendered         the translator's rendered source
//! report           the full SynthesisReport (timings as nanoseconds)
//! checksum         u64   FNV-1a over every preceding byte
//! ```
//!
//! Everything a program references is stored *symbolically* (opcode names,
//! API component names plus an ordinal among same-named components) and
//! resolved against a freshly built [`ApiRegistry`] at load time, so an
//! entry can never smuggle in stale component indices: if the registry
//! drifted, the registry fingerprint — and failing that, per-program
//! well-typedness — rejects the entry.
//!
//! # Trust model
//!
//! Entries are never blindly trusted. Structural decoding is fully checked
//! (length-validated reads, opcode/API lookups, well-typedness); on top of
//! that [`ValidationMode`] selects how much re-verification a load pays:
//! checksum only (the default), full oracle re-validation, or neither.
//! Any failure — truncation, bit flips, format or fingerprint skew — makes
//! the load report a *corrupt* entry and the caller falls back to cold
//! synthesis; a wrong translation is never served from a damaged file.
//!
//! Entries for fault-injected configs ([`SynthesisConfig::fault`]) are
//! deliberately neither saved nor loaded: deliberately broken translators
//! must stay confined to the process that asked for them.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, SystemTime};

use siro_api::{ApiCall, ApiProgram, ApiRegistry, PredConj, PredValue, Reg};
use siro_core::{KindTranslator, Skeleton, SynthesizedTranslator, TranslatorArm};
use siro_ir::interp::Machine;
use siro_ir::{IrVersion, Opcode};

use crate::candgen::GenLimits;
use crate::corpus::Corpus;
use crate::driver::{StageTimings, SynthesisConfig, SynthesisOutcome, SynthesisReport, TestStats};
use crate::persist::{fnv1a64, ByteReader, ByteWriter, DecodeError};

/// Magic bytes opening every store entry.
pub const STORE_MAGIC: [u8; 4] = *b"SIST";
/// Current entry format version.
pub const STORE_FORMAT: u16 = 1;
/// File extension of store entries.
pub const ENTRY_EXT: &str = "sirt";

/// Orphaned temp files older than this are swept by [`TranslatorStore::gc`]
/// (a crashed writer leaves them behind; a live writer renames within
/// milliseconds).
const STALE_TMP_AGE: Duration = Duration::from_secs(600);

/// How much re-verification a load pays before an entry is trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationMode {
    /// Structural decoding only (still fully checked: lengths, opcode/API
    /// resolution, well-typedness) — skips the checksum.
    Off,
    /// Structural decoding plus the entry checksum (the default).
    #[default]
    Checksum,
    /// Checksum plus oracle re-validation: the decoded translator must
    /// translate every oracle test and reproduce its expected result.
    Full,
}

impl FromStr for ValidationMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(ValidationMode::Off),
            "checksum" => Ok(ValidationMode::Checksum),
            "full" => Ok(ValidationMode::Full),
            other => Err(format!(
                "unknown validation mode `{other}` (expected off|checksum|full)"
            )),
        }
    }
}

impl std::fmt::Display for ValidationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ValidationMode::Off => "off",
            ValidationMode::Checksum => "checksum",
            ValidationMode::Full => "full",
        })
    }
}

/// The persistent identity of a cached synthesis: the
/// [`crate::cache::TranslatorCache`] key minus the two knobs that must not
/// be persisted — `threads` (which cannot change the outcome) and `fault`
/// (fault-injected translators are never stored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreKey {
    /// Source IR version.
    pub source: IrVersion,
    /// Target IR version.
    pub target: IrVersion,
    /// Fingerprint of the oracle corpus the translator was synthesized
    /// from (see [`crate::corpus::corpus_fingerprint`]).
    pub corpus_fingerprint: u64,
    /// Optimization I (equivalence merging).
    pub opt_equivalence: bool,
    /// Optimization II (memoization through `M*`).
    pub opt_memoization: bool,
    /// Optimization III (test ordering).
    pub opt_ordering: bool,
    /// Candidate-generation limits.
    pub limits: GenLimits,
    /// Per-test translator budget.
    pub max_assignments_per_test: u128,
}

impl StoreKey {
    /// The store key of a synthesis config over a corpus with the given
    /// fingerprint. The config's `threads` and `fault` are intentionally
    /// dropped (see the type-level docs).
    pub fn new(config: &SynthesisConfig, corpus_fingerprint: u64) -> Self {
        StoreKey {
            source: config.source,
            target: config.target,
            corpus_fingerprint,
            opt_equivalence: config.opt_equivalence,
            opt_memoization: config.opt_memoization,
            opt_ordering: config.opt_ordering,
            limits: config.limits,
            max_assignments_per_test: config.max_assignments_per_test,
        }
    }

    /// Reconstructs a synthesis config equivalent to the one that produced
    /// this key (`threads` re-resolved for this process, no fault).
    pub fn config(&self) -> SynthesisConfig {
        let mut config = SynthesisConfig::new(self.source, self.target);
        config.opt_equivalence = self.opt_equivalence;
        config.opt_memoization = self.opt_memoization;
        config.opt_ordering = self.opt_ordering;
        config.limits = self.limits;
        config.max_assignments_per_test = self.max_assignments_per_test;
        config
    }

    /// Encodes the config knobs (everything except pair + fingerprint).
    fn encode_knobs(&self, w: &mut ByteWriter) {
        w.put_bool(self.opt_equivalence);
        w.put_bool(self.opt_memoization);
        w.put_bool(self.opt_ordering);
        w.put_u64(self.limits.max_exprs_per_type as u64);
        w.put_u64(self.limits.max_candidates_per_kind as u64);
        w.put_u32(self.limits.max_depth);
        w.put_u128(self.max_assignments_per_test);
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.put_u16(self.source.major());
        w.put_u16(self.source.minor());
        w.put_u16(self.target.major());
        w.put_u16(self.target.minor());
        w.put_u64(self.corpus_fingerprint);
        self.encode_knobs(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let source = IrVersion::new(r.u16()?, r.u16()?);
        let target = IrVersion::new(r.u16()?, r.u16()?);
        let corpus_fingerprint = r.u64()?;
        let opt_equivalence = r.bool()?;
        let opt_memoization = r.bool()?;
        let opt_ordering = r.bool()?;
        let limits = GenLimits {
            max_exprs_per_type: r.u64()? as usize,
            max_candidates_per_kind: r.u64()? as usize,
            max_depth: r.u32()?,
        };
        let max_assignments_per_test = r.u128()?;
        Ok(StoreKey {
            source,
            target,
            corpus_fingerprint,
            opt_equivalence,
            opt_memoization,
            opt_ordering,
            limits,
            max_assignments_per_test,
        })
    }

    /// Stable hash of the config knobs, used in the entry file name. The
    /// corpus fingerprint is deliberately *excluded*: a corpus change must
    /// land on the *same* file so the stale entry is detected (and counted
    /// as corrupt) rather than silently shadowed, and the post-synthesis
    /// write-back then repairs it in place.
    fn knob_hash(&self) -> u64 {
        let mut w = ByteWriter::new();
        self.encode_knobs(&mut w);
        fnv1a64(w.bytes())
    }

    /// The entry file name for this key, e.g. `s13.0-t3.6-9e3779b97f4a7c15.sirt`.
    pub fn file_name(&self) -> String {
        format!(
            "s{}.{}-t{}.{}-{:016x}.{ENTRY_EXT}",
            self.source.major(),
            self.source.minor(),
            self.target.major(),
            self.target.minor(),
            self.knob_hash(),
        )
    }
}

/// Stable fingerprint of an [`ApiRegistry`]'s signature: component order,
/// names, arities, and predicate flags. Programs are persisted relative to
/// this shape; a mismatch means the registry drifted since the entry was
/// written and component references can no longer be trusted.
fn registry_fingerprint(reg: &ApiRegistry) -> u64 {
    let mut w = ByteWriter::new();
    w.put_u32(reg.len() as u32);
    for (_, f) in reg.iter() {
        w.put_str(&f.name);
        w.put_u32(f.params.len() as u32);
        w.put_bool(f.is_predicate);
    }
    fnv1a64(w.bytes())
}

/// Resolves an API id into `(name, ordinal among same-named components)`.
/// Names alone are not unique (indexed getters repeat per kind), but
/// `(name, ordinal)` is — and unlike the raw index it survives unrelated
/// registry growth as long as the fingerprint still matches.
fn api_ref(reg: &ApiRegistry, id: siro_api::ApiId) -> (String, u32) {
    let name = reg.get(id).name.clone();
    let ordinal = reg
        .iter()
        .take_while(|(other, _)| *other != id)
        .filter(|(_, f)| f.name == name)
        .count() as u32;
    (name, ordinal)
}

/// Inverse of [`api_ref`].
fn api_lookup(reg: &ApiRegistry, name: &str, ordinal: u32) -> Result<siro_api::ApiId, DecodeError> {
    reg.iter()
        .filter(|(_, f)| f.name == name)
        .nth(ordinal as usize)
        .map(|(id, _)| id)
        .ok_or_else(|| DecodeError(format!("unknown API component `{name}`#{ordinal}")))
}

fn encode_program(w: &mut ByteWriter, reg: &ApiRegistry, program: &ApiProgram) {
    w.put_str(program.kind.name());
    w.put_u32(program.steps.len() as u32);
    for step in &program.steps {
        let (name, ordinal) = api_ref(reg, step.api);
        w.put_str(&name);
        w.put_u32(ordinal);
        w.put_u32(step.args.len() as u32);
        for arg in &step.args {
            match arg {
                Reg::Input => w.put_u8(0),
                Reg::Step(i) => {
                    w.put_u8(1);
                    w.put_u32(*i as u32);
                }
            }
        }
    }
}

fn decode_opcode(r: &mut ByteReader<'_>) -> Result<Opcode, DecodeError> {
    let name = r.string()?;
    Opcode::from_str(&name).map_err(|_| DecodeError(format!("unknown opcode `{name}`")))
}

fn decode_program(r: &mut ByteReader<'_>, reg: &ApiRegistry) -> Result<ApiProgram, DecodeError> {
    let kind = decode_opcode(r)?;
    let steps = r.u32()? as usize;
    let mut program = ApiProgram {
        kind,
        steps: Vec::with_capacity(steps.min(1024)),
    };
    for _ in 0..steps {
        let name = r.string()?;
        let ordinal = r.u32()?;
        let api = api_lookup(reg, &name, ordinal)?;
        let nargs = r.u32()? as usize;
        let mut args = Vec::with_capacity(nargs.min(1024));
        for _ in 0..nargs {
            args.push(match r.u8()? {
                0 => Reg::Input,
                1 => Reg::Step(r.u32()? as usize),
                other => return Err(DecodeError(format!("invalid register tag {other}"))),
            });
        }
        program.steps.push(ApiCall { api, args });
    }
    if !program.well_typed(reg) {
        return Err(DecodeError(format!(
            "program for `{}` is not well-typed against the registry",
            program.kind.name()
        )));
    }
    Ok(program)
}

fn encode_conj(w: &mut ByteWriter, conj: &PredConj) {
    w.put_u32(conj.len() as u32);
    for (name, value) in conj {
        w.put_str(name);
        match value {
            PredValue::Bool(false) => w.put_u8(0),
            PredValue::Bool(true) => w.put_u8(1),
            PredValue::Enum(v) => {
                w.put_u8(2);
                w.put_u8(*v);
            }
        }
    }
}

fn decode_conj(r: &mut ByteReader<'_>) -> Result<PredConj, DecodeError> {
    let len = r.u32()? as usize;
    let mut conj = PredConj::new();
    for _ in 0..len {
        let name = r.string()?;
        let value = match r.u8()? {
            0 => PredValue::Bool(false),
            1 => PredValue::Bool(true),
            2 => PredValue::Enum(r.u8()?),
            other => return Err(DecodeError(format!("invalid predicate tag {other}"))),
        };
        conj.insert(name, value);
    }
    Ok(conj)
}

fn encode_report(w: &mut ByteWriter, report: &SynthesisReport) {
    w.put_u64(report.tests_used as u64);
    for counts in [&report.candidate_counts, &report.refined_counts] {
        w.put_u32(counts.len() as u32);
        for (kind, n) in counts {
            w.put_str(kind.name());
            w.put_u64(*n as u64);
        }
    }
    w.put_u64(report.assignments_validated);
    let t = &report.timings;
    for d in [
        t.generation,
        t.profiling,
        t.enumeration,
        t.validation,
        t.validation_execute_cpu,
        t.validation_translate_cpu,
        t.refinement,
        t.completion,
    ] {
        w.put_u64(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }
    w.put_u64(report.candidate_loc as u64);
    w.put_u64(report.translator_loc as u64);
    w.put_u32(report.per_test.len() as u32);
    for test in &report.per_test {
        w.put_str(&test.name);
        w.put_u64(test.assignments);
        w.put_u64(test.passed);
        w.put_u64(test.pruned);
    }
}

fn decode_report(
    r: &mut ByteReader<'_>,
    pair: (IrVersion, IrVersion),
) -> Result<SynthesisReport, DecodeError> {
    let tests_used = r.u64()? as usize;
    let mut count_maps = Vec::with_capacity(2);
    for _ in 0..2 {
        let len = r.u32()? as usize;
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..len {
            let kind = decode_opcode(r)?;
            counts.insert(kind, r.u64()? as usize);
        }
        count_maps.push(counts);
    }
    let refined_counts = count_maps.pop().expect("two count maps");
    let candidate_counts = count_maps.pop().expect("two count maps");
    let assignments_validated = r.u64()?;
    let mut nanos = [0u64; 8];
    for n in &mut nanos {
        *n = r.u64()?;
    }
    let timings = StageTimings {
        generation: Duration::from_nanos(nanos[0]),
        profiling: Duration::from_nanos(nanos[1]),
        enumeration: Duration::from_nanos(nanos[2]),
        validation: Duration::from_nanos(nanos[3]),
        validation_execute_cpu: Duration::from_nanos(nanos[4]),
        validation_translate_cpu: Duration::from_nanos(nanos[5]),
        refinement: Duration::from_nanos(nanos[6]),
        completion: Duration::from_nanos(nanos[7]),
    };
    let candidate_loc = r.u64()? as usize;
    let translator_loc = r.u64()? as usize;
    let per_test_len = r.u32()? as usize;
    let mut per_test = Vec::with_capacity(per_test_len.min(4096));
    for _ in 0..per_test_len {
        per_test.push(TestStats {
            name: r.string()?,
            assignments: r.u64()?,
            passed: r.u64()?,
            pruned: r.u64()?,
        });
    }
    Ok(SynthesisReport {
        pair,
        tests_used,
        candidate_counts,
        refined_counts,
        assignments_validated,
        timings,
        candidate_loc,
        translator_loc,
        per_test,
    })
}

/// Serializes one outcome into entry bytes (including the trailing
/// checksum).
pub fn encode_entry(key: &StoreKey, outcome: &SynthesisOutcome) -> Vec<u8> {
    let reg = &outcome.translator.registry;
    let mut w = ByteWriter::new();
    w.put_bytes(&STORE_MAGIC);
    w.put_u16(STORE_FORMAT);
    key.encode(&mut w);
    w.put_u64(registry_fingerprint(reg));
    let mut kinds: Vec<(&Opcode, &KindTranslator)> = outcome.translator.kinds.iter().collect();
    kinds.sort_by_key(|(k, _)| **k);
    w.put_u32(kinds.len() as u32);
    for (kind, kt) in kinds {
        w.put_str(kind.name());
        w.put_u32(kt.arms.len() as u32);
        for arm in &kt.arms {
            w.put_u32(arm.covers.len() as u32);
            for conj in &arm.covers {
                encode_conj(&mut w, conj);
            }
            encode_program(&mut w, reg, &arm.program);
        }
    }
    w.put_str(&outcome.rendered);
    encode_report(&mut w, &outcome.report);
    let checksum = fnv1a64(w.bytes());
    w.put_u64(checksum);
    w.into_bytes()
}

/// Why a load rejected an entry (all roads lead to cold synthesis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryError {
    /// Entry bytes are damaged, truncated, of a different format version,
    /// mismatched against the expected key/corpus, or oracle-invalid.
    Corrupt(String),
}

impl std::fmt::Display for EntryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntryError::Corrupt(why) => write!(f, "corrupt entry: {why}"),
        }
    }
}

impl std::error::Error for EntryError {}

fn corrupt(why: impl Into<String>) -> EntryError {
    EntryError::Corrupt(why.into())
}

/// Decodes and validates one entry against the expected key and (for
/// [`ValidationMode::Full`]) the oracle corpus. Only a full validation
/// reads the corpus's tests, so only it builds a [`Corpus::Pair`].
///
/// # Errors
///
/// [`EntryError::Corrupt`] describing the first validation failure.
pub fn decode_entry(
    bytes: &[u8],
    expected: &StoreKey,
    mode: ValidationMode,
    corpus: Corpus<'_>,
) -> Result<SynthesisOutcome, EntryError> {
    if bytes.len() < 8 {
        return Err(corrupt(format!("only {} bytes", bytes.len())));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    if mode != ValidationMode::Off {
        let stored = u64::from_be_bytes(tail.try_into().expect("8-byte tail"));
        let actual = fnv1a64(body);
        if stored != actual {
            return Err(corrupt(format!(
                "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
            )));
        }
    }
    let mut r = ByteReader::new(body);
    let map_decode = |e: DecodeError| corrupt(e.0);
    let magic = r.take(4).map_err(map_decode)?;
    if magic != STORE_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let format = r.u16().map_err(map_decode)?;
    if format != STORE_FORMAT {
        return Err(corrupt(format!(
            "format version {format} (this build reads {STORE_FORMAT})"
        )));
    }
    let key = StoreKey::decode(&mut r).map_err(map_decode)?;
    if key != *expected {
        let same_but_corpus = StoreKey {
            corpus_fingerprint: expected.corpus_fingerprint,
            ..key
        } == *expected;
        return Err(if same_but_corpus {
            corrupt(format!(
                "corpus fingerprint mismatch (stored {:#018x}, expected {:#018x})",
                key.corpus_fingerprint, expected.corpus_fingerprint
            ))
        } else {
            corrupt("entry key does not match the requested key".to_string())
        });
    }
    let registry = Arc::new(ApiRegistry::for_pair(key.source, key.target));
    let stored_reg_fp = r.u64().map_err(map_decode)?;
    let actual_reg_fp = registry_fingerprint(&registry);
    if stored_reg_fp != actual_reg_fp {
        return Err(corrupt(format!(
            "API registry drifted since the entry was written \
             (stored {stored_reg_fp:#018x}, current {actual_reg_fp:#018x})"
        )));
    }
    let mut translator = SynthesizedTranslator::new(Arc::clone(&registry));
    let kind_count = r.u32().map_err(map_decode)? as usize;
    for _ in 0..kind_count {
        let kind = decode_opcode(&mut r).map_err(map_decode)?;
        let arm_count = r.u32().map_err(map_decode)? as usize;
        let mut arms = Vec::with_capacity(arm_count.min(1024));
        for _ in 0..arm_count {
            let cover_count = r.u32().map_err(map_decode)? as usize;
            let mut covers = Vec::with_capacity(cover_count.min(1024));
            for _ in 0..cover_count {
                covers.push(decode_conj(&mut r).map_err(map_decode)?);
            }
            let program = decode_program(&mut r, &registry).map_err(map_decode)?;
            arms.push(TranslatorArm { covers, program });
        }
        translator.insert(kind, KindTranslator { arms });
    }
    let rendered = r.string().map_err(map_decode)?;
    let report = decode_report(&mut r, (key.source, key.target)).map_err(map_decode)?;
    r.finish().map_err(map_decode)?;

    if mode == ValidationMode::Full {
        let skeleton = Skeleton::new(key.target);
        for test in corpus.tests().iter() {
            let translated = skeleton
                .translate_module(&test.module, &translator)
                .map_err(|e| corrupt(format!("oracle re-validation `{}`: {e}", test.name)))?;
            let got = Machine::new(&translated)
                .run_main()
                .map_err(|e| corrupt(format!("oracle re-validation `{}`: {e}", test.name)))?
                .return_int();
            if got != Some(test.oracle) {
                return Err(corrupt(format!(
                    "oracle re-validation `{}`: expected {}, got {got:?}",
                    test.name, test.oracle
                )));
            }
        }
    }
    Ok(SynthesisOutcome {
        translator,
        report,
        rendered,
        compiled_slot: std::sync::OnceLock::new(),
    })
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the entries (created on open).
    pub dir: PathBuf,
    /// Validation applied by [`TranslatorStore::load`].
    pub validation: ValidationMode,
    /// When set, [`TranslatorStore::save`] garbage-collects
    /// least-recently-used entries down to this many bytes.
    pub max_bytes: Option<u64>,
}

impl StoreConfig {
    /// Checksum-validated, uncapped store at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            validation: ValidationMode::default(),
            max_bytes: None,
        }
    }
}

/// One entry as listed by [`TranslatorStore::entries`].
#[derive(Debug, Clone)]
pub struct StoreEntry {
    /// Entry file path.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Last-used time (loads touch it, making GC LRU-ish).
    pub modified: SystemTime,
    /// The entry's key, when the header is readable; `None` marks an
    /// unreadable (corrupt-header) entry.
    pub key: Option<StoreKey>,
}

/// Result of [`TranslatorStore::gc`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries examined.
    pub scanned: usize,
    /// Entries deleted (oldest first).
    pub removed: usize,
    /// Orphaned temp files swept.
    pub stale_tmp_removed: usize,
    /// Total entry bytes before collection.
    pub bytes_before: u64,
    /// Total entry bytes after collection.
    pub bytes_after: u64,
}

/// Result of verifying one entry ([`TranslatorStore::verify`]).
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// Entry file path.
    pub path: PathBuf,
    /// The version pair, when the header was readable.
    pub pair: Option<(IrVersion, IrVersion)>,
    /// `Ok` when the entry fully re-validated against the current oracle
    /// corpus; otherwise the corruption reason.
    pub result: Result<(), String>,
}

/// A directory of persisted synthesis outcomes.
///
/// Writes are atomic (unique temp file + `rename` in the same directory),
/// so a concurrent reader — or a reader after a crash — sees either the
/// old entry or the new one, never a torn hybrid.
#[derive(Debug)]
pub struct TranslatorStore {
    config: StoreConfig,
    tmp_seq: AtomicU64,
}

impl TranslatorStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(config: StoreConfig) -> io::Result<Self> {
        fs::create_dir_all(&config.dir)?;
        Ok(TranslatorStore {
            config,
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// The configured validation mode.
    pub fn validation(&self) -> ValidationMode {
        self.config.validation
    }

    /// The on-disk path an entry for `key` lives at.
    pub fn entry_path(&self, key: &StoreKey) -> PathBuf {
        self.config.dir.join(key.file_name())
    }

    /// Loads and validates the entry for `key`, counting a hit, a miss
    /// (no entry), or a corrupt entry. Corrupt entries are left in place:
    /// the caller falls back to cold synthesis, whose write-back repairs
    /// the file. The corpus is read only under [`ValidationMode::Full`].
    pub fn load(&self, key: &StoreKey, corpus: Corpus<'_>) -> Option<Arc<SynthesisOutcome>> {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                MISSES.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_entry(&bytes, key, self.config.validation, corpus) {
            Ok(outcome) => {
                // LRU touch; best-effort (a read-only store still serves).
                if let Ok(f) = fs::File::options().write(true).open(&path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                HITS.fetch_add(1, Ordering::Relaxed);
                Some(Arc::new(outcome))
            }
            Err(EntryError::Corrupt(_)) => {
                CORRUPT.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Atomically persists the entry for `key`: encode, write to a unique
    /// temp file, fsync, rename over the final name. Runs the size-cap GC
    /// afterwards when one is configured.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (the temp file is cleaned up).
    pub fn save(&self, key: &StoreKey, outcome: &SynthesisOutcome) -> io::Result<()> {
        self.write_atomic(&key.file_name(), &encode_entry(key, outcome))?;
        WRITES.fetch_add(1, Ordering::Relaxed);
        if let Some(cap) = self.config.max_bytes {
            let _ = self.gc(cap);
        }
        Ok(())
    }

    /// Lists every `*.sirt` entry (unreadable headers included, with
    /// `key: None`).
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn entries(&self) -> io::Result<Vec<StoreEntry>> {
        let mut out = Vec::new();
        for dirent in fs::read_dir(&self.config.dir)? {
            let dirent = dirent?;
            let path = dirent.path();
            if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXT) {
                continue;
            }
            let meta = match dirent.metadata() {
                Ok(m) if m.is_file() => m,
                _ => continue,
            };
            let key = fs::read(&path).ok().and_then(|bytes| peek_key(&bytes));
            out.push(StoreEntry {
                path,
                bytes: meta.len(),
                modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                key,
            });
        }
        out.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(out)
    }

    /// Least-recently-used collection: sweeps stale temp files, then
    /// deletes the oldest entries until the directory holds at most
    /// `max_bytes` of entries.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures (individual deletions are
    /// best-effort).
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        let now = SystemTime::now();
        for dirent in fs::read_dir(&self.config.dir)? {
            let Ok(dirent) = dirent else { continue };
            let path = dirent.path();
            if path.extension().and_then(|e| e.to_str()) != Some("tmp") {
                continue;
            }
            let stale = dirent
                .metadata()
                .and_then(|m| m.modified())
                .map(|t| now.duration_since(t).unwrap_or_default() >= STALE_TMP_AGE)
                .unwrap_or(false);
            if stale && fs::remove_file(&path).is_ok() {
                report.stale_tmp_removed += 1;
            }
        }
        let mut entries = self.entries()?;
        entries.sort_by_key(|e| e.modified);
        report.scanned = entries.len();
        report.bytes_before = entries.iter().map(|e| e.bytes).sum();
        report.bytes_after = report.bytes_before;
        for entry in &entries {
            if report.bytes_after <= max_bytes {
                break;
            }
            if fs::remove_file(&entry.path).is_ok() {
                crate::router::bump_route_epoch();
                report.removed += 1;
                report.bytes_after -= entry.bytes;
                siro_trace::counter("store.gc_removed", 1);
            }
        }
        Ok(report)
    }

    /// Persists a composed-chain manifest as the named entry
    /// `<persist_key>.sirc`. Nothing reads these back and the router
    /// memoizes chains in memory only; `perfbench` times this write as a
    /// `store.save_us` sample.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (the temp file is cleaned up).
    pub fn save_chain(&self, persist_key: &str, manifest: &str) -> io::Result<()> {
        self.save_named(&format!("{persist_key}.sirc"), manifest)
    }

    /// The path of a named plaintext entry (`name` carries its own
    /// extension, e.g. `w1.0-t3.0.sirw`).
    pub fn named_path(&self, name: &str) -> PathBuf {
        self.config.dir.join(name)
    }

    /// Atomically persists a named plaintext entry with a trailing FNV-1a
    /// checksum line — the persistence channel for non-Siro translator
    /// payloads (`.sirw` WIR translators, `.sirb` bridge certificates)
    /// that share the store directory with the `.sirt` entries.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (the temp file is cleaned up).
    pub fn save_named(&self, name: &str, text: &str) -> io::Result<()> {
        let mut bytes = text.as_bytes().to_vec();
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(format!("checksum {checksum:016x}\n").as_bytes());
        self.write_atomic(name, &bytes)?;
        siro_trace::counter("store.named_writes", 1);
        Ok(())
    }

    /// Loads a named plaintext entry and validates its checksum line.
    /// Returns the body (checksum line stripped); a missing file or a
    /// checksum mismatch returns `None` — the caller re-synthesizes.
    pub fn load_named(&self, name: &str) -> Option<String> {
        let text = fs::read_to_string(self.named_path(name)).ok()?;
        let body = text.strip_suffix('\n').unwrap_or(&text);
        let (body, checksum_line) = body.rsplit_once('\n')?;
        let body = format!("{body}\n");
        let expected = checksum_line.strip_prefix("checksum ")?;
        let expected = u64::from_str_radix(expected.trim(), 16).ok()?;
        (fnv1a64(body.as_bytes()) == expected).then_some(body)
    }

    /// The one writer behind every store file: write `bytes` to a unique
    /// temp file in the store directory, fsync it, and rename it over
    /// `name`, so a reader sees the old file or the new one, never a torn
    /// hybrid. A written file can turn an edge warm, so it starts a new
    /// route epoch.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp_path = self.config.dir.join(format!(
            ".{name}.{}.{}.tmp",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        let write = (|| -> io::Result<()> {
            let mut f = fs::File::create(&tmp_path)?;
            io::Write::write_all(&mut f, bytes)?;
            f.sync_all()?;
            fs::rename(&tmp_path, self.config.dir.join(name))
        })();
        match write {
            Ok(()) => crate::router::bump_route_epoch(),
            Err(_) => {
                let _ = fs::remove_file(&tmp_path);
            }
        }
        write
    }

    /// Fully re-validates every entry against the *current* oracle corpus
    /// of its pair (format, checksum, key, registry, well-typedness, and
    /// oracle behaviour), regardless of the configured load mode. Each
    /// entry's corpus is built for its validation and dropped after it.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures; per-entry problems land in the
    /// returned outcomes.
    pub fn verify(&self) -> io::Result<Vec<VerifyOutcome>> {
        let mut out = Vec::new();
        for entry in self.entries()? {
            let Some(key) = entry.key else {
                out.push(VerifyOutcome {
                    path: entry.path,
                    pair: None,
                    result: Err("unreadable entry header".into()),
                });
                continue;
            };
            let corpus = Corpus::Pair(key.source, key.target);
            let expected = StoreKey {
                corpus_fingerprint: corpus.fingerprint(),
                ..key
            };
            let result = fs::read(&entry.path)
                .map_err(|e| format!("read: {e}"))
                .and_then(|bytes| {
                    decode_entry(&bytes, &expected, ValidationMode::Full, corpus)
                        .map(|_| ())
                        .map_err(|EntryError::Corrupt(why)| why)
                });
            out.push(VerifyOutcome {
                path: entry.path,
                pair: Some((key.source, key.target)),
                result,
            });
        }
        Ok(out)
    }
}

/// Reads just the header (magic, format, key) of entry bytes, without
/// validating the body. Used by listings and warm-start to discover which
/// pair/config an entry belongs to.
pub fn peek_key(bytes: &[u8]) -> Option<StoreKey> {
    let mut r = ByteReader::new(bytes);
    if r.take(4).ok()? != STORE_MAGIC || r.u16().ok()? != STORE_FORMAT {
        return None;
    }
    StoreKey::decode(&mut r).ok()
}

// ---- Process-global attachment + counters ---------------------------------

static ACTIVE: OnceLock<Mutex<Option<Arc<TranslatorStore>>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static CORRUPT: AtomicU64 = AtomicU64::new(0);
static WRITES: AtomicU64 = AtomicU64::new(0);
static WARM_LOADED: AtomicU64 = AtomicU64::new(0);

fn active_cell() -> &'static Mutex<Option<Arc<TranslatorStore>>> {
    ACTIVE.get_or_init(|| Mutex::new(None))
}

/// Attaches (or, with `None`, detaches) the process-wide store consulted
/// by [`crate::cache::TranslatorCache::lookup_or_synthesize`]. Returns the
/// previously attached store. Starts a new route epoch: which edges are
/// warm depends on the store.
pub fn set_active_store(store: Option<Arc<TranslatorStore>>) -> Option<Arc<TranslatorStore>> {
    let previous = std::mem::replace(
        &mut *active_cell().lock().expect("active store poisoned"),
        store,
    );
    crate::router::bump_route_epoch();
    previous
}

/// The currently attached store, if any.
pub fn active_store() -> Option<Arc<TranslatorStore>> {
    active_cell().lock().expect("active store poisoned").clone()
}

/// Counts one warm-start load (called by
/// [`crate::cache::TranslatorCache::warm_from_store`]).
pub(crate) fn note_warm_loaded() {
    WARM_LOADED.fetch_add(1, Ordering::Relaxed);
}

/// Point-in-time store counters (process-global, across every store this
/// process attached).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Whether a store is currently attached.
    pub attached: bool,
    /// Loads that returned a validated entry.
    pub hits: u64,
    /// Loads that found no entry.
    pub misses: u64,
    /// Loads that rejected a damaged/mismatched entry.
    pub corrupt: u64,
    /// Entries written back.
    pub writes: u64,
    /// Entries pre-loaded into the in-memory cache at warm start.
    pub warm_loaded: u64,
}

/// Current store counters.
pub fn store_stats() -> StoreStats {
    StoreStats {
        attached: active_store().is_some(),
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        corrupt: CORRUPT.load(Ordering::Relaxed),
        writes: WRITES.load(Ordering::Relaxed),
        warm_loaded: WARM_LOADED.load(Ordering::Relaxed),
    }
}

/// Zeroes the store counters (benchmarks measuring cold/warm phases).
pub fn reset_store_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    CORRUPT.store(0, Ordering::Relaxed);
    WRITES.store(0, Ordering::Relaxed);
    WARM_LOADED.store(0, Ordering::Relaxed);
}
