//! The differential and chain-metamorphic oracles.
//!
//! Three behaviour-preservation properties are checked for a source module
//! `P` at version `A` with intermediate `B` and target `C`:
//!
//! * **differential** — `beh(P) = beh(T_{A→C}(P))`;
//! * **chain** — `beh(T_{A→C}(P)) = beh(T_{B→C}(T_{A→B}(P)))`, the
//!   metamorphic relation A→B→C ≡ A→C;
//! * **roundtrip** — `beh(P) = beh(T_{B→A}(T_{A→B}(P)))`, the A→B→A
//!   identity.
//!
//! "Behaviour" is the interpreter verdict: the returned integer or the
//! trap kind. Fuel exhaustion on either side skips the comparison
//! (translation changes instruction counts, so a fuel limit is not a
//! semantic property); so do the synthesized translator's *documented*
//! partiality errors (`UnseenPredicate`, `MissingTranslator`,
//! `UnsupportedInstruction`) — those ask for more test cases, they are not
//! translator bugs. Everything else is a failure, classified by family.

use std::sync::Arc;

use siro_core::{Skeleton, TranslateError};
use siro_ir::{
    interp::{ExecResult, Machine, TrapKind},
    verify, write, IrVersion, Module,
};
use siro_synth::{
    oracle_corpus, Router, SynthError, SynthFault, SynthesisConfig, SynthesisOutcome,
    TranslatorCache,
};

/// Default interpreter fuel for oracle runs.
pub const ORACLE_FUEL: u64 = 200_000;

/// An observable program behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Behaviour {
    /// `main` returned this integer.
    Returns(i64),
    /// Execution trapped with this kind (rendered).
    Traps(String),
    /// `main` returned, but not an integer (kept comparable).
    NonInt,
}

impl std::fmt::Display for Behaviour {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Behaviour::Returns(v) => write!(f, "returns {v}"),
            Behaviour::Traps(k) => write!(f, "traps {k}"),
            Behaviour::NonInt => f.write_str("returns non-int"),
        }
    }
}

/// Runs a module and reduces the outcome to a comparable behaviour.
/// `None` means fuel exhaustion or a harness error — skip, not a bug.
pub fn behaviour(m: &Module, fuel: u64) -> Option<Behaviour> {
    let o = Machine::new(m).with_fuel(fuel).run_main().ok()?;
    match &o.result {
        ExecResult::Returned(_) => Some(
            o.return_int()
                .map(Behaviour::Returns)
                .unwrap_or(Behaviour::NonInt),
        ),
        ExecResult::Trapped(t) if t.kind == TrapKind::FuelExhausted => None,
        ExecResult::Trapped(t) => Some(Behaviour::Traps(format!("{:?}", t.kind))),
    }
}

/// How a confirmed oracle violation manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureFamily {
    /// Translated module runs but behaves differently.
    Miscompile,
    /// Translation failed with a non-partiality error.
    TranslateCrash,
    /// Translated module fails verification.
    InvalidOutput,
    /// The compiled and interpreted execution tiers of the *same*
    /// translator disagreed (different verdict, or different bytes on
    /// success). This is never a synthesis bug — it is a bug in the
    /// compile backend or its fallback contract (`docs/COMPILED.md`).
    TierDivergence,
    /// Mutating an `arena_clone` of the input changed the original's
    /// serialized bytes. This is never a synthesis bug — it means the
    /// IR core's clone shared storage with its source
    /// (`docs/IR_CORE.md`).
    CloneAliasing,
    /// A module and its image across a SIRO↔WIR bridge landed in
    /// different behaviour buckets ([`siro_synth::XBehaviour`]): the
    /// bridge failed to normalize a semantic divergence between the two
    /// dialects (see [`crate::cross`] and `docs/DIALECTS.md`).
    CrossDialect,
}

impl FailureFamily {
    /// Stable name for reports and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            FailureFamily::Miscompile => "miscompile",
            FailureFamily::TranslateCrash => "translate-crash",
            FailureFamily::InvalidOutput => "invalid-output",
            FailureFamily::TierDivergence => "tier-divergence",
            FailureFamily::CloneAliasing => "clone-aliasing",
            FailureFamily::CrossDialect => "cross-dialect",
        }
    }

    /// Parses a [`FailureFamily::name`] back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "miscompile" => Some(FailureFamily::Miscompile),
            "translate-crash" => Some(FailureFamily::TranslateCrash),
            "invalid-output" => Some(FailureFamily::InvalidOutput),
            "tier-divergence" => Some(FailureFamily::TierDivergence),
            "clone-aliasing" => Some(FailureFamily::CloneAliasing),
            "cross-dialect" => Some(FailureFamily::CrossDialect),
            _ => None,
        }
    }
}

/// A confirmed oracle violation on one input.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which oracle tripped: `differential`, `chain`, or `roundtrip`.
    pub oracle: &'static str,
    /// The failure family.
    pub family: FailureFamily,
    /// Human-readable evidence (behaviours or error text).
    pub detail: String,
}

/// The verdict for one fuzzing input.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Every applicable oracle agreed.
    Agree,
    /// Nothing could be compared (fuel, translator partiality).
    Skip(String),
    /// An oracle tripped.
    Fail(Failure),
}

/// The four synthesized translator legs the oracles need for a
/// `(src, mid, tgt)` triple: direct `src→tgt`, the chain decomposition
/// `src→mid` / `mid→tgt`, and the return leg `mid→src`.
#[derive(Debug, Clone)]
pub struct ChainSet {
    /// Source version `A`.
    pub src: IrVersion,
    /// Intermediate version `B`.
    pub mid: IrVersion,
    /// Target version `C`.
    pub tgt: IrVersion,
    /// `A→C`.
    pub direct: Arc<SynthesisOutcome>,
    /// `A→B`.
    pub first: Arc<SynthesisOutcome>,
    /// `B→C`.
    pub second: Arc<SynthesisOutcome>,
    /// `B→A`.
    pub back: Arc<SynthesisOutcome>,
    /// The fault injected into every leg (`None` in production).
    pub fault: Option<SynthFault>,
}

/// Catalog intermediates for `(src, tgt)` ranked the way the router
/// ranks them: by the summed edge cost of the two-hop decomposition
/// `src → mid → tgt` under the router's *current* cost landscape (cache
/// warmth, store entries), cheapest first with ties
/// broken toward the lower version. The head of this list is the
/// intermediate a composed route would take; the tail is the alternate
/// paths that path-selection fuzzing rotates through.
pub fn routed_mids(src: IrVersion, tgt: IrVersion) -> Vec<IrVersion> {
    let graph = Router::new().graph();
    let mut mids: Vec<(u64, IrVersion)> = graph
        .nodes()
        .iter()
        .filter_map(|n| n.as_siro())
        .filter(|&m| m != src && m != tgt)
        .map(|m| {
            // A missing edge (off-catalog hop) prices as unreachable but
            // still finite, so the sort stays total.
            let leg = |a, b| graph.edge(a, b).map_or(u64::MAX / 4, |e| e.cost_us);
            (leg(src, m).saturating_add(leg(m, tgt)), m)
        })
        .collect();
    mids.sort();
    mids.into_iter().map(|(_, m)| m).collect()
}

impl ChainSet {
    /// [`ChainSet::synthesize`] with the intermediate chosen by the
    /// router instead of the test author: the cheapest two-hop
    /// decomposition of `(src, tgt)` under the current edge costs (see
    /// [`routed_mids`]).
    ///
    /// # Errors
    ///
    /// Propagates the first leg's [`SynthError`].
    ///
    /// # Panics
    ///
    /// When the catalog has no intermediate between `src` and `tgt`
    /// (impossible for the 13-version catalog).
    pub fn routed(
        src: IrVersion,
        tgt: IrVersion,
        fault: Option<SynthFault>,
    ) -> Result<Self, SynthError> {
        let mid = *routed_mids(src, tgt)
            .first()
            .expect("catalog has at least three versions");
        Self::synthesize(src, mid, tgt, fault)
    }

    /// Synthesizes (or fetches from the process-wide [`TranslatorCache`])
    /// all four legs. `fault` is threaded into every leg's config, so a
    /// faulted set never collides with a clean one in the cache.
    ///
    /// # Errors
    ///
    /// Propagates the first leg's [`SynthError`].
    pub fn synthesize(
        src: IrVersion,
        mid: IrVersion,
        tgt: IrVersion,
        fault: Option<SynthFault>,
    ) -> Result<Self, SynthError> {
        let leg = |a: IrVersion, b: IrVersion| {
            let mut cfg = SynthesisConfig::new(a, b);
            cfg.fault = fault;
            TranslatorCache::get_or_synthesize(cfg, &oracle_corpus(a, b))
        };
        Ok(ChainSet {
            src,
            mid,
            tgt,
            direct: leg(src, tgt)?,
            first: leg(src, mid)?,
            second: leg(mid, tgt)?,
            back: leg(mid, src)?,
            fault,
        })
    }

    /// Checks every applicable oracle on one source-version input.
    ///
    /// The behavioural oracles never see `m` itself: every leg runs on
    /// an [`Module::arena_clone`], which is then deliberately scrambled.
    /// If the original's serialized bytes change, the *arena-clone
    /// oracle* trips ([`FailureFamily::CloneAliasing`]) — each fuzzed
    /// input doubles as a storage-disjointness test for the IR core.
    pub fn check(&self, m: &Module, fuel: u64) -> Verdict {
        let before = write::write_module(m);
        let mut probe = m.arena_clone();
        let verdict = self.check_behaviour(&probe, fuel);
        scramble(&mut probe);
        if write::write_module(m) != before {
            return Verdict::Fail(Failure {
                oracle: "arena-clone",
                family: FailureFamily::CloneAliasing,
                detail: format!(
                    "mutating a clone changed the original {} module's serialized bytes",
                    m.version
                ),
            });
        }
        verdict
    }

    /// The behavioural oracles proper (differential, chain, roundtrip,
    /// tier equivalence), on a module [`ChainSet::check`] may freely
    /// alias.
    fn check_behaviour(&self, m: &Module, fuel: u64) -> Verdict {
        let Some(b_src) = behaviour(m, fuel) else {
            return Verdict::Skip("source ran out of fuel".into());
        };

        let direct = translate_leg(m, self.tgt, &self.direct, "differential");
        let step1 = translate_leg(m, self.mid, &self.first, "roundtrip");
        let mut compared = false;

        // Differential: source vs direct target.
        let direct_out = match direct {
            Leg::Ok(out) => {
                if let Some(b_tgt) = behaviour(&out, fuel) {
                    compared = true;
                    if b_tgt != b_src {
                        return Verdict::Fail(Failure {
                            oracle: "differential",
                            family: FailureFamily::Miscompile,
                            detail: format!("source {b_src}, {}→{} {b_tgt}", self.src, self.tgt),
                        });
                    }
                }
                Some(out)
            }
            Leg::Skip => None,
            Leg::Fail(f) => return Verdict::Fail(f),
        };

        // Chain + roundtrip both ride on the A→B leg.
        let step1_out = match step1 {
            Leg::Ok(out) => Some(out),
            Leg::Skip => None,
            Leg::Fail(f) => return Verdict::Fail(f),
        };
        if let Some(mid_m) = &step1_out {
            // Chain: A→B→C vs A→C.
            if let Some(direct_m) = &direct_out {
                match translate_leg(mid_m, self.tgt, &self.second, "chain") {
                    Leg::Ok(two_step) => {
                        if let (Some(a), Some(b)) =
                            (behaviour(direct_m, fuel), behaviour(&two_step, fuel))
                        {
                            compared = true;
                            if a != b {
                                return Verdict::Fail(Failure {
                                    oracle: "chain",
                                    family: FailureFamily::Miscompile,
                                    detail: format!(
                                        "{}→{} {a}, {}→{}→{} {b}",
                                        self.src, self.tgt, self.src, self.mid, self.tgt
                                    ),
                                });
                            }
                        }
                    }
                    Leg::Skip => {}
                    Leg::Fail(f) => return Verdict::Fail(f),
                }
            }
            // Roundtrip: A→B→A vs A.
            match translate_leg(mid_m, self.src, &self.back, "roundtrip") {
                Leg::Ok(home) => {
                    if let Some(b_home) = behaviour(&home, fuel) {
                        compared = true;
                        if b_home != b_src {
                            return Verdict::Fail(Failure {
                                oracle: "roundtrip",
                                family: FailureFamily::Miscompile,
                                detail: format!(
                                    "source {b_src}, {}→{}→{} {b_home}",
                                    self.src, self.mid, self.src
                                ),
                            });
                        }
                    }
                }
                Leg::Skip => {}
                Leg::Fail(f) => return Verdict::Fail(f),
            }
        }

        if compared {
            Verdict::Agree
        } else {
            Verdict::Skip("every leg was skipped (translator partiality)".into())
        }
    }
}

enum Leg {
    Ok(Box<Module>),
    Skip,
    Fail(Failure),
}

/// Trashes every arena of `m` in place: renames entities, empties
/// operand lists and block bodies, and rewrites remaining storage. If
/// any buffer were shared with the module `m` was cloned from, the
/// damage would show up in the original's serialized bytes.
fn scramble(m: &mut Module) {
    m.name.push_str("!scrambled");
    for f in &mut m.funcs {
        f.name.push_str("!scrambled");
        for inst in &mut f.insts {
            inst.operands.clear();
            inst.name = Some("scrambled".to_string());
        }
        for b in &mut f.blocks {
            b.name.push_str("!scrambled");
            b.insts.clear();
        }
    }
    for g in &mut m.globals {
        g.name.push_str("!scrambled");
    }
}

/// Translator partiality the synthesized-translator contract documents:
/// asks the user for more test cases rather than flagging a bug.
fn skippable(e: &TranslateError) -> bool {
    matches!(
        e,
        TranslateError::UnseenPredicate { .. }
            | TranslateError::MissingTranslator(_)
            | TranslateError::UnsupportedInstruction { .. }
    )
}

fn translate_leg(
    m: &Module,
    tgt: IrVersion,
    outcome: &SynthesisOutcome,
    oracle: &'static str,
) -> Leg {
    let interpreted = Skeleton::new(tgt).translate_module(m, &outcome.translator);
    if let Some(f) = check_tiers(m, tgt, outcome, oracle, &interpreted) {
        return Leg::Fail(f);
    }
    match interpreted {
        Ok(out) => match verify::verify_module(&out) {
            Ok(()) => Leg::Ok(Box::new(out)),
            Err(e) => Leg::Fail(Failure {
                oracle,
                family: FailureFamily::InvalidOutput,
                detail: format!("{}→{} output does not verify: {e}", m.version, tgt),
            }),
        },
        Err(e) if skippable(&e) => Leg::Skip,
        Err(e) => Leg::Fail(Failure {
            oracle,
            family: FailureFamily::TranslateCrash,
            detail: format!("{}→{}: {e}", m.version, tgt),
        }),
    }
}

/// Runs the same leg through the compiled tier (when the translator
/// lowers) and demands it agrees with the interpreter: the
/// same ok/skip/fail verdict, and byte-identical output text on success.
/// The compiled leg runs the drivers in the order serving does: the
/// in-place mirror driver, then the push driver when the mirror bails.
/// Every fuzzed mutant therefore exercises *both* execution tiers — the
/// difftest doubles as the compile backend's equivalence oracle.
fn check_tiers(
    m: &Module,
    tgt: IrVersion,
    outcome: &SynthesisOutcome,
    oracle: &'static str,
    interpreted: &Result<Module, TranslateError>,
) -> Option<Failure> {
    let compiled = outcome.compiled()?;
    let divergence = |detail: String| {
        Some(Failure {
            oracle,
            family: FailureFamily::TierDivergence,
            detail,
        })
    };
    match (compiled.translate_module_owned(m.clone()), interpreted) {
        (Ok(fast), Ok(slow)) => {
            let (fast, slow) = (write::write_module(&fast), write::write_module(slow));
            if fast == slow {
                None
            } else {
                divergence(format!(
                    "{}→{}: compiled and interpreted outputs differ ({} vs {} bytes)",
                    m.version,
                    tgt,
                    fast.len(),
                    slow.len()
                ))
            }
        }
        (Err(ce), Err(ie)) if skippable(&ce) == skippable(ie) => None,
        (Ok(_), Err(e)) => divergence(format!(
            "{}→{}: compiled tier succeeded where the interpreter failed ({e})",
            m.version, tgt
        )),
        (Err(e), Ok(_)) => divergence(format!(
            "{}→{}: compiled tier failed ({e}) where the interpreter succeeded",
            m.version, tgt
        )),
        (Err(ce), Err(ie)) => divergence(format!(
            "{}→{}: compiled tier error class differs: compiled `{ce}`, interpreted `{ie}`",
            m.version, tgt
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siro_ir::{FuncBuilder, ValueRef};

    fn tiny(version: IrVersion) -> Module {
        let mut m = Module::new("tiny", version);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let v = b.sub(ValueRef::const_int(i32t, 50), ValueRef::const_int(i32t, 8));
        b.ret(Some(v));
        m
    }

    #[test]
    fn behaviour_reduces_returns_and_traps() {
        let m = tiny(IrVersion::V13_0);
        assert_eq!(behaviour(&m, ORACLE_FUEL), Some(Behaviour::Returns(42)));
        assert_eq!(behaviour(&m, 1), None, "fuel exhaustion must skip");
    }

    #[test]
    fn clean_chain_set_agrees_on_a_simple_program() {
        let chain = ChainSet::synthesize(IrVersion::V13_0, IrVersion::V12_0, IrVersion::V3_6, None)
            .unwrap();
        match chain.check(&tiny(IrVersion::V13_0), ORACLE_FUEL) {
            Verdict::Agree => {}
            other => panic!("expected agreement, got {other:?}"),
        }
    }

    #[test]
    fn scramble_is_destructive_but_clone_shields_the_original() {
        // Sensitivity: scrambling really changes a module's bytes, so a
        // shared buffer could not hide from the arena-clone oracle.
        let m = tiny(IrVersion::V13_0);
        let before = write::write_module(&m);
        let mut probe = m.arena_clone();
        scramble(&mut probe);
        assert_ne!(
            write::write_module(&probe),
            before,
            "scramble left the clone byte-identical; the oracle is blind"
        );
        // Disjointness: the original is untouched.
        assert_eq!(write::write_module(&m), before);
    }

    #[test]
    fn family_names_round_trip() {
        for f in [
            FailureFamily::Miscompile,
            FailureFamily::TranslateCrash,
            FailureFamily::InvalidOutput,
            FailureFamily::TierDivergence,
            FailureFamily::CloneAliasing,
            FailureFamily::CrossDialect,
        ] {
            assert_eq!(FailureFamily::parse(f.name()), Some(f));
        }
    }

    #[test]
    fn faulted_chain_set_fails_on_an_asymmetric_sub() {
        let fault = Some(SynthFault::SwapOperands(siro_ir::Opcode::Sub));
        let chain =
            ChainSet::synthesize(IrVersion::V13_0, IrVersion::V12_0, IrVersion::V3_6, fault)
                .unwrap();
        match chain.check(&tiny(IrVersion::V13_0), ORACLE_FUEL) {
            Verdict::Fail(f) => {
                assert_eq!(f.family, FailureFamily::Miscompile);
            }
            other => panic!("expected a miscompile, got {other:?}"),
        }
    }
}
