//! WIR→WIR translator synthesis.
//!
//! The pipeline is the Siro one re-aimed at the second dialect: for every
//! instruction kind the source version can express, *search* the target
//! version's [`WirRegistry`] for a builder that reproduces the kind's
//! behaviour, validating candidates differentially against the WIR
//! interpreter. Nothing here knows the catalog's quirks by name — renamed
//! builders are found because search enumerates by signature rather than
//! by name, reordered parameters are absorbed by type-driven argument
//! assignment ([`WirRegistry::args_for`]), and representation migrations
//! (missing `select`/`local.tee`/`br_table`) resolve to the registry's
//! composite builders because those are the only candidates that survive
//! the differential probes.
//!
//! Probes are small single-purpose modules (the oracle tests of this
//! dialect): each exercises one kind with operand values chosen to
//! discriminate type-correct-but-wrong candidates — `drop` vs `nop` differ
//! on the value left behind, `local.set` vs `local.tee` differ on stack
//! effect, `br` vs `br_if` differ on the not-taken path, signed division
//! probes pin the trap semantics.
//!
//! Successful syntheses are memoized process-wide (the WIR analogue of
//! [`crate::cache::TranslatorCache`]) and persisted to the active
//! translator store ([`crate::store`]) as `.sirw` entries that are
//! re-validated against the full probe suite on load.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use siro_wir::{
    verify_module, WBin, WCmp, WKind, WTy, WirApiImpl, WirEmit, WirFunc, WirInst, WirMachine,
    WirModule, WirRegistry, WirVersion,
};

use crate::store::active_store;

/// A synthesized WIR→WIR translator: one target-registry builder per
/// source instruction kind.
#[derive(Debug, Clone)]
pub struct WirTranslator {
    /// Source version.
    pub from: WirVersion,
    /// Target version.
    pub to: WirVersion,
    /// Chosen builder name per source kind.
    pub arms: BTreeMap<WKind, String>,
}

/// Search statistics for one synthesis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WirSynthStats {
    /// Instruction kinds resolved.
    pub kinds: usize,
    /// Builder candidates considered across all kinds.
    pub candidates: usize,
    /// Candidates rejected by the differential probes (verification or
    /// behaviour mismatch).
    pub rejected: usize,
    /// Probe translations executed.
    pub probes_run: usize,
}

/// A completed WIR synthesis.
#[derive(Debug, Clone)]
pub struct WirOutcome {
    /// The synthesized translator.
    pub translator: WirTranslator,
    /// Search statistics.
    pub stats: WirSynthStats,
}

/// Errors from WIR synthesis or translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirSynthError(pub String);

impl std::fmt::Display for WirSynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wir synthesis: {}", self.0)
    }
}

impl std::error::Error for WirSynthError {}

fn err(msg: impl Into<String>) -> WirSynthError {
    WirSynthError(msg.into())
}

/// A representative instruction per kind, used to decide builder
/// *applicability* (can every parameter be sourced from this kind?).
fn representative(kind: WKind) -> WirInst {
    match kind {
        WKind::Const => WirInst::Const(WTy::I32, 0),
        WKind::Binop => WirInst::Binop(WTy::I32, WBin::Add),
        WKind::Cmp => WirInst::Cmp(WTy::I32, WCmp::Eq),
        WKind::Eqz => WirInst::Eqz(WTy::I32),
        WKind::LocalGet => WirInst::LocalGet(0),
        WKind::LocalSet => WirInst::LocalSet(0),
        WKind::LocalTee => WirInst::LocalTee(0),
        WKind::Select => WirInst::Select,
        WKind::Drop => WirInst::Drop,
        WKind::Nop => WirInst::Nop,
        WKind::Block => WirInst::Block,
        WKind::Loop => WirInst::Loop,
        WKind::End => WirInst::End,
        WKind::Br => WirInst::Br(0),
        WKind::BrIf => WirInst::BrIf(0),
        WKind::BrTable => WirInst::BrTable(vec![0, 0]),
        WKind::Return => WirInst::Return,
        WKind::Call => WirInst::Call(0),
    }
}

/// Builds a one-function probe module at `version`.
fn probe(version: WirVersion, locals: usize, insts: &[WirInst]) -> WirModule {
    let mut m = WirModule::new("probe", version);
    let mut f = WirFunc::new("main", vec![], Some(WTy::I32));
    for _ in 0..locals {
        f.alloc_local(WTy::I32);
    }
    for i in insts {
        f.body.alloc(i.clone());
    }
    m.funcs.push(f);
    m
}

/// The discriminating probe set for one kind, at the source version.
/// Every probe uses only `kind` plus version-universal helper kinds, so
/// per-kind search can translate the helpers by identity.
fn probes_for(kind: WKind, v: WirVersion) -> Vec<WirModule> {
    use WirInst as I;
    let i = |k: i64| I::Const(WTy::I32, k);
    match kind {
        WKind::Const => vec![
            probe(v, 0, &[i(42), I::Return]),
            probe(v, 0, &[i(-7), I::Return]),
            probe(
                v,
                0,
                &[
                    I::Const(WTy::I64, 1),
                    I::Const(WTy::I64, 40),
                    I::Binop(WTy::I64, WBin::Shl),
                    I::Const(WTy::I64, 0),
                    I::Cmp(WTy::I64, WCmp::GtS),
                    I::Return,
                ],
            ),
        ],
        WKind::Binop => vec![
            probe(
                v,
                0,
                &[i(7), i(3), I::Binop(WTy::I32, WBin::Sub), I::Return],
            ),
            probe(
                v,
                0,
                &[i(6), i(7), I::Binop(WTy::I32, WBin::Mul), I::Return],
            ),
            // Trap semantics must carry over exactly.
            probe(
                v,
                0,
                &[
                    i(i32::MIN as i64),
                    i(-1),
                    I::Binop(WTy::I32, WBin::DivS),
                    I::Return,
                ],
            ),
            probe(
                v,
                0,
                &[i(5), i(0), I::Binop(WTy::I32, WBin::RemS), I::Return],
            ),
            probe(
                v,
                0,
                &[i(1), i(35), I::Binop(WTy::I32, WBin::Shl), I::Return],
            ),
        ],
        WKind::Cmp => vec![
            probe(v, 0, &[i(3), i(5), I::Cmp(WTy::I32, WCmp::LtS), I::Return]),
            probe(v, 0, &[i(5), i(5), I::Cmp(WTy::I32, WCmp::Ne), I::Return]),
        ],
        WKind::Eqz => vec![
            probe(v, 0, &[i(0), I::Eqz(WTy::I32), I::Return]),
            probe(v, 0, &[i(5), I::Eqz(WTy::I32), I::Return]),
        ],
        WKind::LocalGet => vec![probe(
            v,
            1,
            &[i(5), I::LocalSet(0), I::LocalGet(0), I::Return],
        )],
        WKind::LocalSet => vec![
            probe(v, 1, &[i(5), I::LocalSet(0), I::LocalGet(0), I::Return]),
            // Distinguishes set (pops) from tee (leaves the value).
            probe(
                v,
                1,
                &[
                    i(1),
                    i(2),
                    I::LocalSet(0),
                    I::LocalGet(0),
                    I::Binop(WTy::I32, WBin::Add),
                    I::Return,
                ],
            ),
        ],
        WKind::LocalTee => vec![probe(
            v,
            1,
            &[
                i(7),
                I::LocalTee(0),
                I::LocalGet(0),
                I::Binop(WTy::I32, WBin::Add),
                I::Return,
            ],
        )],
        WKind::Select => vec![
            probe(v, 0, &[i(30), i(40), i(1), I::Select, I::Return]),
            probe(v, 0, &[i(30), i(40), i(0), I::Select, I::Return]),
        ],
        WKind::Drop => vec![probe(v, 0, &[i(1), i(2), I::Drop, I::Return])],
        WKind::Nop => vec![probe(v, 0, &[I::Nop, i(7), I::Return])],
        // Block / BrIf / End probes exercise both branch polarities; all
        // three kinds share the same pair of shapes.
        WKind::Block | WKind::BrIf | WKind::End => vec![
            probe(
                v,
                1,
                &[
                    i(5),
                    I::LocalSet(0),
                    I::Block,
                    i(1),
                    I::BrIf(0),
                    i(9),
                    I::LocalSet(0),
                    I::End,
                    I::LocalGet(0),
                    I::Return,
                ],
            ),
            probe(
                v,
                1,
                &[
                    i(5),
                    I::LocalSet(0),
                    I::Block,
                    i(0),
                    I::BrIf(0),
                    i(9),
                    I::LocalSet(0),
                    I::End,
                    I::LocalGet(0),
                    I::Return,
                ],
            ),
        ],
        WKind::Loop => vec![probe(
            v,
            2,
            &[
                I::Loop,
                I::LocalGet(1),
                I::LocalGet(0),
                I::Binop(WTy::I32, WBin::Add),
                I::LocalSet(1),
                I::LocalGet(0),
                i(1),
                I::Binop(WTy::I32, WBin::Add),
                I::LocalSet(0),
                I::LocalGet(0),
                i(10),
                I::Cmp(WTy::I32, WCmp::LtS),
                I::BrIf(0),
                I::End,
                I::LocalGet(1),
                I::Return,
            ],
        )],
        // Two probes: the block form pins forward-exit semantics, the loop
        // form discriminates `br` from `nop` — a branch to the end of an
        // empty block IS a no-op, but a back-branch in a loop spins to
        // fuel exhaustion where a no-op falls through.
        WKind::Br => vec![
            probe(v, 0, &[I::Block, I::Br(0), I::End, i(7), I::Return]),
            probe(v, 0, &[I::Loop, I::Br(0), I::End, i(7), I::Return]),
        ],
        WKind::BrTable => [0i64, 1, 5]
            .iter()
            .map(|&sel| {
                probe(
                    v,
                    1,
                    &[
                        I::Block,
                        I::Block,
                        I::Block,
                        i(sel),
                        I::BrTable(vec![0, 1, 2]),
                        I::End,
                        i(100),
                        I::LocalSet(0),
                        I::Br(1),
                        I::End,
                        i(200),
                        I::LocalSet(0),
                        I::Br(0),
                        I::End,
                        I::LocalGet(0),
                        I::Return,
                    ],
                )
            })
            .collect(),
        // The mid-block form discriminates `return` from `nop`: at body
        // end a leftover value falls off as the return value anyway, but
        // inside a block only a real return produces 3 instead of 7.
        WKind::Return => vec![
            probe(v, 0, &[i(3), I::Return]),
            probe(v, 0, &[I::Block, i(3), I::Return, I::End, i(7), I::Return]),
        ],
        WKind::Call => vec![{
            let mut m = WirModule::new("probe", v);
            let mut sq = WirFunc::new("sq", vec![WTy::I32], Some(WTy::I32));
            sq.body.alloc(I::LocalGet(0));
            sq.body.alloc(I::LocalGet(0));
            sq.body.alloc(I::Binop(WTy::I32, WBin::Mul));
            sq.body.alloc(I::Return);
            m.funcs.push(sq);
            let mut f = WirFunc::new("main", vec![], Some(WTy::I32));
            f.body.alloc(i(6));
            f.body.alloc(I::Call(0));
            f.body.alloc(I::Return);
            m.funcs.push(f);
            m
        }],
    }
}

/// Translates `module` into `to`, choosing each instruction's expansion
/// through `arm`: `Some(builder_name)` runs that target builder with
/// arguments assembled by type from the source instruction; `None` copies
/// the instruction verbatim (per-kind search uses this for the
/// not-under-test kinds).
fn translate_with(
    module: &WirModule,
    to: WirVersion,
    reg: &WirRegistry,
    arm: &dyn Fn(WKind) -> Option<String>,
) -> Result<WirModule, WirSynthError> {
    let mut out = WirModule::new(module.name.clone(), to);
    for func in &module.funcs {
        let mut nf = WirFunc::new(func.name.clone(), func.params.clone(), func.result);
        for ty in &func.locals {
            nf.alloc_local(*ty);
        }
        for inst in func.body.iter() {
            match arm(inst.kind()) {
                Some(name) => {
                    let b = reg
                        .find(&name)
                        .ok_or_else(|| err(format!("unknown builder {name} at {to}")))?;
                    let args = reg.args_for(b, inst).ok_or_else(|| {
                        err(format!("{name} not applicable to {:?}", inst.kind()))
                    })?;
                    let WirApiImpl::Build(run) = &b.imp else {
                        return Err(err(format!("{name} is not a builder")));
                    };
                    run(
                        &mut WirEmit {
                            version: to,
                            func: &mut nf,
                        },
                        &args,
                    )
                    .map_err(|e| err(format!("{name}: {e}")))?;
                }
                None => {
                    nf.body.alloc(inst.clone());
                }
            }
        }
        out.funcs.push(nf);
    }
    Ok(out)
}

/// Runs one differential probe: the translated module must verify at the
/// target version and reproduce the source interpretation exactly
/// (result value or identical trap kind).
fn probe_passes(source: &WirModule, translated: &WirModule) -> bool {
    if verify_module(translated).is_err() {
        return false;
    }
    // 50k fuel keeps the intentionally-divergent loop probes fast while
    // leaving every terminating probe orders of magnitude of headroom.
    let want = WirMachine::new(source).with_fuel(50_000).run_main().result;
    let got = WirMachine::new(translated)
        .with_fuel(50_000)
        .run_main()
        .result;
    want == got
}

impl WirTranslator {
    /// Translates a whole module with the synthesized arms.
    ///
    /// # Errors
    ///
    /// [`WirSynthError`] when the module contains a kind this translator
    /// has no arm for (it was synthesized from a smaller source version).
    pub fn translate_module(&self, module: &WirModule) -> Result<WirModule, WirSynthError> {
        let reg = WirRegistry::for_version(self.to);
        let missing = std::cell::Cell::new(None);
        let out = translate_with(module, self.to, &reg, &|k| {
            let arm = self.arms.get(&k).cloned();
            if arm.is_none() {
                missing.set(Some(k));
            }
            arm
        })?;
        if let Some(k) = missing.get() {
            return Err(err(format!(
                "no arm for {:?} in {}->{}",
                k, self.from, self.to
            )));
        }
        Ok(out)
    }

    /// Renders the translator as persistable text (the `.sirw` payload).
    pub fn render(&self) -> String {
        let mut out = format!("SIRW 1\nfrom {}\nto {}\n", self.from, self.to);
        for (kind, builder) in &self.arms {
            out.push_str(&format!("arm {} {}\n", kind.name(), builder));
        }
        out
    }

    /// Parses a rendered translator.
    ///
    /// # Errors
    ///
    /// [`WirSynthError`] on a malformed payload or unknown kind/version.
    pub fn parse(text: &str) -> Result<WirTranslator, WirSynthError> {
        let mut lines = text.lines();
        if lines.next() != Some("SIRW 1") {
            return Err(err("missing SIRW 1 header"));
        }
        let ver = |line: Option<&str>, tag: &str| -> Result<WirVersion, WirSynthError> {
            let l = line.ok_or_else(|| err(format!("missing {tag} line")))?;
            let v = l
                .strip_prefix(tag)
                .and_then(|s| s.strip_prefix(' '))
                .ok_or_else(|| err(format!("bad {tag} line {l:?}")))?;
            let (maj, min) = v
                .split_once('.')
                .ok_or_else(|| err(format!("bad version {v}")))?;
            Ok(WirVersion::new(
                maj.parse().map_err(|_| err(format!("bad version {v}")))?,
                min.parse().map_err(|_| err(format!("bad version {v}")))?,
            ))
        };
        let from = ver(lines.next(), "from")?;
        let to = ver(lines.next(), "to")?;
        let mut arms = BTreeMap::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("arm ")
                .ok_or_else(|| err(format!("bad line {line:?}")))?;
            let (kind, builder) = rest
                .split_once(' ')
                .ok_or_else(|| err(format!("bad arm {rest:?}")))?;
            let kind = WKind::parse(kind).ok_or_else(|| err(format!("unknown kind {kind}")))?;
            arms.insert(kind, builder.to_string());
        }
        Ok(WirTranslator { from, to, arms })
    }
}

/// Synthesizes the `(from, to)` WIR translator by per-kind candidate
/// search with differential validation.
///
/// # Errors
///
/// [`WirSynthError`] when some kind has no surviving candidate.
pub fn synthesize_wir(from: WirVersion, to: WirVersion) -> Result<WirOutcome, WirSynthError> {
    let sp = siro_trace::span!("wir.synthesize", "wir{from}->wir{to}");
    let src_reg = WirRegistry::for_version(from);
    let tgt_reg = WirRegistry::for_version(to);
    let mut arms = BTreeMap::new();
    let mut stats = WirSynthStats::default();
    for kind in from.instruction_set() {
        let rep = representative(kind);
        let probes = probes_for(kind, from);
        let mut chosen = None;
        for cand in tgt_reg.builders() {
            if src_reg.args_for(cand, &rep).is_none() {
                continue;
            }
            stats.candidates += 1;
            let name = cand.name.clone();
            let ok = probes.iter().all(|p| {
                stats.probes_run += 1;
                translate_with(p, to, &tgt_reg, &|k| (k == kind).then(|| name.clone()))
                    .is_ok_and(|t| probe_passes(p, &t))
            });
            if ok {
                chosen = Some(name);
                break;
            }
            stats.rejected += 1;
        }
        let name = chosen.ok_or_else(|| {
            err(format!(
                "no surviving candidate for {kind:?} in wir{from}->wir{to}"
            ))
        })?;
        arms.insert(kind, name);
        stats.kinds += 1;
    }
    drop(sp);
    siro_trace::counter("wir.synthesized", 1);
    Ok(WirOutcome {
        translator: WirTranslator { from, to, arms },
        stats,
    })
}

/// Validates a (loaded) translator against the full probe suite — the
/// `.sirw` analogue of the store's validate-on-load for `.sirt` entries.
pub fn validate_wir_translator(t: &WirTranslator) -> Result<(), WirSynthError> {
    for kind in t.from.instruction_set() {
        if !t.arms.contains_key(&kind) {
            return Err(err(format!("missing arm for {kind:?}")));
        }
        for p in probes_for(kind, t.from) {
            let translated = t.translate_module(&p)?;
            if !probe_passes(&p, &translated) {
                return Err(err(format!("probe regression for {kind:?}")));
            }
        }
    }
    Ok(())
}

/// The store entry name for a WIR pair, e.g. `w1.0-t3.0.sirw`.
pub fn wir_store_name(from: WirVersion, to: WirVersion) -> String {
    format!("w{from}-t{to}.sirw")
}

type WirCacheMap = HashMap<(WirVersion, WirVersion), Arc<WirOutcome>>;

fn wir_cache() -> &'static Mutex<WirCacheMap> {
    static CACHE: OnceLock<Mutex<WirCacheMap>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Whether the `(from, to)` WIR translator is in the process cache
/// (the router's Hot classification for WIR edges).
pub fn wir_pair_is_hot(from: WirVersion, to: WirVersion) -> bool {
    wir_cache()
        .lock()
        .expect("wir cache poisoned")
        .contains_key(&(from, to))
}

/// Drops every memoized WIR translator (tests).
pub fn reset_wir_cache() {
    wir_cache().lock().expect("wir cache poisoned").clear();
    crate::router::bump_route_epoch();
}

/// Memoizes a WIR translator; its edge turns hot, so routes replan.
fn insert_wir(from: WirVersion, to: WirVersion, outcome: &Arc<WirOutcome>) {
    wir_cache()
        .lock()
        .expect("wir cache poisoned")
        .insert((from, to), Arc::clone(outcome));
    crate::router::bump_route_epoch();
}

/// Memoized acquisition: process cache, then the active store's `.sirw`
/// entry (re-validated on load), then fresh synthesis (persisted on
/// success). The `bool` is `true` when this call synthesized.
///
/// # Errors
///
/// Propagates [`synthesize_wir`] failures.
pub fn wir_translator_cached(
    from: WirVersion,
    to: WirVersion,
) -> Result<(Arc<WirOutcome>, bool), WirSynthError> {
    if let Some(hit) = wir_cache()
        .lock()
        .expect("wir cache poisoned")
        .get(&(from, to))
    {
        return Ok((Arc::clone(hit), false));
    }
    if let Some(store) = active_store() {
        if let Some(text) = store.load_named(&wir_store_name(from, to)) {
            if let Ok(t) = WirTranslator::parse(&text) {
                if t.from == from && t.to == to && validate_wir_translator(&t).is_ok() {
                    let outcome = Arc::new(WirOutcome {
                        translator: t,
                        stats: WirSynthStats::default(),
                    });
                    insert_wir(from, to, &outcome);
                    siro_trace::counter("wir.store_hits", 1);
                    return Ok((outcome, false));
                }
            }
        }
    }
    let outcome = Arc::new(synthesize_wir(from, to)?);
    if let Some(store) = active_store() {
        let _ = store.save_named(&wir_store_name(from, to), &outcome.translator.render());
    }
    insert_wir(from, to, &outcome);
    Ok((outcome, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_pair_synthesizes() {
        for from in WirVersion::CATALOG {
            for to in WirVersion::CATALOG {
                if from == to {
                    continue;
                }
                let out =
                    synthesize_wir(from, to).unwrap_or_else(|e| panic!("wir{from}->wir{to}: {e}"));
                assert_eq!(out.stats.kinds, from.instruction_set().len());
                assert!(
                    out.stats.rejected > 0,
                    "search should have rejected type-correct-but-wrong candidates"
                );
            }
        }
    }

    #[test]
    fn search_resolves_the_three_quirk_families() {
        // Rename: 1.0 -> 2.0 picks build_* names.
        let up = synthesize_wir(WirVersion::W1_0, WirVersion::W2_0).unwrap();
        assert_eq!(up.translator.arms[&WKind::Const], "build_const");
        // Reorder: arguments still assemble (validated by probes) at 3.0.
        let re = synthesize_wir(WirVersion::W2_0, WirVersion::W3_0).unwrap();
        assert_eq!(re.translator.arms[&WKind::Binop], "build_binop");
        assert_eq!(re.translator.arms[&WKind::Call], "build_call_ref");
        // Migration: select at a 1.0 target resolves to the composite.
        let down = synthesize_wir(WirVersion::W2_0, WirVersion::W1_0).unwrap();
        assert_eq!(
            down.translator.arms[&WKind::Select],
            "emit_select_via_branch"
        );
        assert_eq!(
            down.translator.arms[&WKind::LocalTee],
            "emit_tee_via_set_get"
        );
        let down3 = synthesize_wir(WirVersion::W3_0, WirVersion::W1_0).unwrap();
        assert_eq!(
            down3.translator.arms[&WKind::BrTable],
            "emit_br_table_via_chain"
        );
    }

    #[test]
    fn translated_generated_modules_preserve_behaviour() {
        for (from, to) in [
            (WirVersion::W1_0, WirVersion::W3_0),
            (WirVersion::W3_0, WirVersion::W1_0),
            (WirVersion::W2_0, WirVersion::W1_0),
        ] {
            let t = synthesize_wir(from, to).unwrap().translator;
            for seed in 0..40 {
                let m = siro_wir::generate_module(seed, from);
                let out = t
                    .translate_module(&m)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                verify_module(&out).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                let want = WirMachine::new(&m).run_main().result;
                let got = WirMachine::new(&out).run_main().result;
                assert_eq!(want, got, "seed {seed} wir{from}->wir{to}");
            }
        }
    }

    #[test]
    fn corpus_cases_translate_across_every_pair() {
        for from in WirVersion::CATALOG {
            for to in WirVersion::CATALOG {
                if from == to {
                    continue;
                }
                let t = synthesize_wir(from, to).unwrap().translator;
                for m in siro_wir::corpus::cases_at(from) {
                    let out = t
                        .translate_module(&m)
                        .unwrap_or_else(|e| panic!("{} wir{from}->wir{to}: {e}", m.name));
                    verify_module(&out).unwrap();
                    assert_eq!(
                        WirMachine::new(&m).run_main().result,
                        WirMachine::new(&out).run_main().result,
                        "{} wir{from}->wir{to}",
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn render_parse_round_trips_and_revalidates() {
        let out = synthesize_wir(WirVersion::W3_0, WirVersion::W1_0).unwrap();
        let text = out.translator.render();
        assert!(text.starts_with("SIRW 1\nfrom 3.0\nto 1.0\n"));
        let back = WirTranslator::parse(&text).unwrap();
        assert_eq!(back.arms, out.translator.arms);
        validate_wir_translator(&back).unwrap();
    }
}
