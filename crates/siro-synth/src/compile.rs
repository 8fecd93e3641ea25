//! The AOT compilation tier: synthesized translators lowered to a flat,
//! pre-resolved instruction stream.
//!
//! A [`crate::SynthesisOutcome`] carries its translator as *data*: per-kind
//! arms of predicate-guarded [`siro_api::ApiProgram`]s, interpreted by
//! re-resolving everything on every instruction — a full registry scan to
//! enumerate the kind's predicate getters, per-predicate `String` keys into
//! a fresh `BTreeMap` conjunction, arm selection by map equality, and a
//! fresh argument `Vec` per program step. That is the right shape for
//! synthesis (the searcher needs programs it can enumerate, merge, and
//! render) but pure overhead once a translator is validated and served on
//! the hot path.
//!
//! This module lowers a validated [`SynthesizedTranslator`] once, ahead of
//! time, into a [`CompiledTranslator`]:
//!
//! * a **dense dispatch table** indexed by `opcode as usize` — no hash-map
//!   probing; kinds the target version lacks dispatch straight to the
//!   new-instruction lowerings, absent kinds straight to the error path;
//! * **micro-ops bound by descriptor** — every program step and predicate
//!   getter whose registry entry carries a [`siro_api::Component`] becomes
//!   a micro-op that calls that component's one body in `siro_api` (the
//!   body the interpreter runs) on the borrowed source instruction, with
//!   its immediates fixed at compile time; a component without one keeps
//!   its pre-resolved [`ApiFn`];
//! * **pre-bound operand slots** — each step's argument registers live in a
//!   flat slice, executed against thread-local scratch buffers instead of
//!   per-step allocations;
//! * **pre-flattened guards** — each arm's covering conjunctions become
//!   rows of bare [`PredValue`]s aligned with the kind's predicate order,
//!   so arm selection is a slice comparison, not a `BTreeMap` walk. A kind
//!   whose first arm carries the `true` guard skips predicate evaluation
//!   entirely (the interpreter computes the conjunction and then ignores
//!   it; predicate getters are pure source-side reads, so eliding them
//!   cannot change the translated module).
//!
//! The split between [`TranslatorBackend::lower`] (whole translator → table)
//! and [`TranslatorBackend::lower_kind`] (one kind → stream) mirrors
//! wasmer's `ModuleCodeGenerator` / `FunctionCodeGenerator` pair: the
//! module-level walk is generic, the per-unit codegen is the part a backend
//! may specialize.
//!
//! **Fallback contract:** compilation is an optimization, never a
//! requirement. Any lowering failure ([`CompileError`]) and any runtime
//! error of the compiled tier fall back to the interpreter — observable
//! through [`compile_stats`] (the `compile_*` rows of `STATS` and
//! `METRICS`), never through a changed result. See `docs/COMPILED.md`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use siro_api::{
    ApiCall, ApiError, ApiFn, ApiRegistry, ApiResult, ApiValue, Args, Builder, Component, ExecEnv,
    Getter, PredConj, PredValue, Reg, TranslationCtx, Translator,
};
use siro_core::{newinst, InstTranslator, Skeleton, SynthesizedTranslator, TranslateResult};
use siro_core::{KindTranslator, TranslateError};
use siro_ir::infer::{self, Scope};
use siro_ir::{
    AsmId, BlockId, FuncId, Function, Global, InlineAsm, InstAttrs, InstId, Instruction, Module,
    Opcode, TypeId, TypeTable, ValueRef,
};

use crate::driver::SynthesisOutcome;

// ---- Process-wide counters -------------------------------------------------

static LOWERED: AtomicU64 = AtomicU64::new(0);
static LOWER_FAILURES: AtomicU64 = AtomicU64::new(0);
static TRANSLATE_COMPILED: AtomicU64 = AtomicU64::new(0);
static TRANSLATE_INTERPRETED: AtomicU64 = AtomicU64::new(0);
static RUNTIME_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Point-in-time compiled-tier counters, exported on the serve daemon's
/// `STATS`/`METRICS` pages next to the cache and store funnels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Translators lowered to the compiled form in this process.
    pub lowered: u64,
    /// Lowerings that failed (the outcome serves interpreted instead).
    pub lower_failures: u64,
    /// Module translations served by the compiled tier.
    pub translations_compiled: u64,
    /// Module translations served by the interpreter.
    pub translations_interpreted: u64,
    /// Compiled-tier runtime errors that re-ran on the interpreter.
    pub runtime_fallbacks: u64,
}

/// Current compiled-tier counters.
pub fn compile_stats() -> CompileStats {
    CompileStats {
        lowered: LOWERED.load(Ordering::Relaxed),
        lower_failures: LOWER_FAILURES.load(Ordering::Relaxed),
        translations_compiled: TRANSLATE_COMPILED.load(Ordering::Relaxed),
        translations_interpreted: TRANSLATE_INTERPRETED.load(Ordering::Relaxed),
        runtime_fallbacks: RUNTIME_FALLBACKS.load(Ordering::Relaxed),
    }
}

/// Zeroes the compiled-tier counters (benchmarks and tests).
pub fn reset_compile_stats() {
    for c in [
        &LOWERED,
        &LOWER_FAILURES,
        &TRANSLATE_COMPILED,
        &TRANSLATE_INTERPRETED,
        &RUNTIME_FALLBACKS,
    ] {
        c.store(0, Ordering::Relaxed);
    }
}

// ---- Compile errors --------------------------------------------------------

/// Why a translator could not be lowered. Every variant degrades the
/// outcome to the interpreted tier; none is ever fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// An arm's covering conjunction names a predicate set different from
    /// the kind's predicate getters — the flat guard rows cannot be
    /// aligned. (Synthesis never produces this; a hand-built or damaged
    /// translator can.)
    CoverMismatch {
        /// The instruction kind.
        kind: Opcode,
        /// The predicate name that failed to align (or a summary).
        detail: String,
    },
    /// A program is not well-typed against the registry, so its pre-bound
    /// operand slots would be meaningless, or a predicate of the kind is
    /// not a getter.
    IllTyped {
        /// The instruction kind.
        kind: Opcode,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::CoverMismatch { kind, detail } => {
                write!(f, "cannot align guards for `{kind}`: {detail}")
            }
            CompileError::IllTyped { kind } => {
                write!(f, "program for `{kind}` is not well-typed")
            }
        }
    }
}

impl std::error::Error for CompileError {}

// ---- Compiled form ---------------------------------------------------------

/// A pre-resolved predicate getter: interned name (error paths and
/// guard-row alignment) and the getter it runs.
#[derive(Debug, Clone)]
pub(crate) struct CompiledPred {
    name: Arc<str>,
    getter: Getter,
}

impl CompiledPred {
    fn eval(&self, inst: &Instruction) -> TranslateResult<PredValue> {
        let b = self.getter.flag(inst).ok_or_else(|| {
            TranslateError::Api(ApiError::Type(format!("{} is not a predicate", self.name)))
        })?;
        Ok(PredValue::Bool(b))
    }
}

/// One pre-bound program step: a micro-op that calls the body of the
/// registry component it was bound from ([`siro_api::Component`]) with
/// its immediates and argument registers fixed at lower time, or a
/// pre-resolved [`ApiFn`] call for a component without a body to bind.
/// Micro-ops read the borrowed source instruction and the step results
/// in place: no instruction clone, no argument vector, no dynamic
/// dispatch.
#[derive(Debug, Clone)]
pub(crate) enum StepOp {
    /// A constant provider's literal, or an inert step left by list fusion.
    Lit(ApiValue),
    /// An operand translator on one register.
    Translate(Translator, Reg),
    /// A getter on the input instruction, with its operand or successor
    /// index (0 for a getter without one).
    Getter(Getter, u32),
    /// A builder on its argument registers. `fused` is set by list fusion
    /// ([`fuse_lists`]): the list-valued getter whose source operands the
    /// builder translates straight into its operand vector, in place of
    /// the list register.
    Build {
        b: Builder,
        args: Box<[Reg]>,
        fused: Option<Getter>,
    },
    Call {
        f: ApiFn,
        args: Box<[Reg]>,
    },
}

/// One lowered arm: flattened guard rows plus the pre-bound program.
#[derive(Debug, Clone)]
pub(crate) struct CompiledArm {
    /// Guard rows, one [`PredValue`] per predicate in the kind's predicate
    /// order. Empty = the `true` guard (always matches).
    pub(crate) covers: Box<[Box<[PredValue]>]>,
    pub(crate) steps: Box<[StepOp]>,
    /// The arm's mirror-mode rewrite template, when the bound steps fall
    /// inside the derivable fragment (see [`derive_tmpl`]); arms without
    /// one run the step stream through [`MirrorEnv`] instead.
    pub(crate) tmpl: Option<MirrorTmpl>,
}

impl CompiledArm {
    fn matches(&self, evaluated: &[PredValue]) -> bool {
        self.covers.is_empty() || self.covers.iter().any(|row| **row == *evaluated)
    }
}

/// The compiled stream for one instruction kind.
#[derive(Debug, Clone)]
pub struct CompiledKind {
    /// The kind's predicate getters, pre-resolved, in registry order (the
    /// same order the interpreter evaluates them in).
    preds: Box<[CompiledPred]>,
    arms: Box<[CompiledArm]>,
    /// When the first arm carries the `true` guard it wins regardless of
    /// the conjunction, so predicate evaluation is elided entirely
    /// (predicate getters are pure source-side reads — skipping them
    /// cannot change results or errors).
    pub(crate) skip_preds: bool,
    /// Whether the in-place mirror driver may run this kind: every
    /// reachable arm emits exactly one instruction as its final step, and
    /// no reachable step needs a live registry call. Computed
    /// at lower time; a `false` here makes [`CompiledTranslator::
    /// translate_module_owned`] fall back to the push driver for the whole
    /// module.
    pub(crate) mirror_ok: bool,
}

/// Per-thread execution scratch: reused across instructions so the steady
/// state allocates nothing per instruction.
#[derive(Default)]
struct Scratch {
    evaluated: Vec<PredValue>,
    results: Vec<ApiValue>,
    args: Vec<ApiValue>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Binds one program step to its micro-op by the component's descriptor.
/// Only applied to programs that already passed `well_typed`, which
/// guarantees the invariants the micro-ops rely on: a getter's instruction
/// argument is always `Reg::Input` (no component returns a source
/// instruction), and a `u32` argument always comes from a constant
/// provider (nothing else returns `u32`). A component without a
/// descriptor, or a getter whose index is not a lowered literal, stays a
/// pre-resolved [`ApiFn`] call — identical to the interpreter, minus the
/// registry lookup.
fn bind_step(reg: &ApiRegistry, call: &ApiCall, lowered: &[StepOp]) -> StepOp {
    let f = reg.get(call.api);
    let generic = || StepOp::Call {
        f: f.clone(),
        args: call.args.clone().into_boxed_slice(),
    };
    match (f.component(), call.args.as_slice()) {
        (Some(Component::Const(v)), []) => StepOp::Lit(ApiValue::U32(v)),
        (Some(Component::Translate(t)), &[r]) => StepOp::Translate(t, r),
        (Some(Component::Get(g)), [Reg::Input, rest @ ..]) => {
            let index = match rest {
                [] if !g.indexed() => Some(0),
                [Reg::Step(j)] if g.indexed() => match lowered.get(*j) {
                    Some(StepOp::Lit(ApiValue::U32(k))) => Some(*k),
                    _ => None,
                },
                _ => None,
            };
            index.map_or_else(generic, |i| StepOp::Getter(g, i))
        }
        (Some(Component::Build(b)), args) => StepOp::Build {
            b,
            args: args.into(),
            fused: None,
        },
        _ => generic(),
    }
}

/// Appends the step's register references (if any) to `out`.
fn step_regs(step: &StepOp, out: &mut Vec<Reg>) {
    match step {
        StepOp::Lit(_) | StepOp::Getter(..) => {}
        StepOp::Translate(_, r) => out.push(*r),
        StepOp::Build { args, .. } | StepOp::Call { args, .. } => out.extend(args.iter().copied()),
    }
}

/// The list-fusion peephole. When the arm ends in a call or GEP builder
/// whose list argument is produced by a `get_arguments`/`get_indices` +
/// `translate_values` pair used nowhere else, the pair is collapsed into
/// the builder (`StepOp::Build::fused`) and its steps become inert
/// literals (registers keep their indices).
///
/// Soundness: the getter is a pure, infallible source read, so executing it
/// at build time is unobservable. Moving the `translate_values` later is
/// safe only if no step between it and the builder translates or interns —
/// `translate_value` creates target globals/types on demand, so reordering
/// across another translating step could renumber them. The peephole
/// therefore requires every intervening step to be a literal or a
/// non-interning getter. Within the builder, fused translation runs
/// *before* result-type inference (`infer::callee_ret` / `infer::gep_result`),
/// preserving both error precedence and target-table interning order.
fn fuse_lists(steps: &mut [StepOp]) {
    let Some(bi) = steps.len().checked_sub(1) else {
        return;
    };
    let StepOp::Build {
        b,
        args,
        fused: None,
    } = &steps[bi]
    else {
        return;
    };
    let (at, getter) = match b {
        Builder::CallImplicit => (1, Getter::Arguments),
        Builder::CallExplicit => (2, Getter::Arguments),
        Builder::GepImplicit => (1, Getter::GepIndices),
        Builder::GepExplicit => (2, Getter::GepIndices),
        _ => return,
    };
    let Some(&Reg::Step(j)) = args.get(at) else {
        return;
    };
    let i = match steps.get(j) {
        Some(StepOp::Translate(Translator::Values, Reg::Step(i))) => *i,
        _ => return,
    };
    if !matches!(steps.get(i), Some(StepOp::Getter(g, _)) if *g == getter) {
        return;
    }
    // Both intermediate registers must be consumed exactly once (by the
    // chain itself).
    let mut refs = Vec::new();
    for s in steps.iter() {
        step_regs(s, &mut refs);
    }
    let uses = |k: usize| {
        refs.iter()
            .filter(|r| matches!(r, Reg::Step(s) if *s == k))
            .count()
    };
    if uses(i) != 1 || uses(j) != 1 {
        return;
    }
    // No translating/interning step may sit between the translate and the
    // builder.
    let pure = steps[j + 1..bi].iter().all(|s| {
        matches!(s, StepOp::Lit(_)) || matches!(s, StepOp::Getter(g, _) if *g != Getter::CalleeType)
    });
    if !pure {
        return;
    }
    steps[i] = StepOp::Lit(ApiValue::Bool(false));
    steps[j] = StepOp::Lit(ApiValue::Bool(false));
    if let StepOp::Build { fused, .. } = &mut steps[bi] {
        *fused = Some(getter);
    }
}

// ---- Mirror rewrite templates ----------------------------------------------
//
// The mirror driver's fast form. In mirror mode every value, block, and
// type translation is identity, which collapses most compiled arms into a
// direct "rewrite the instruction" recipe: fetch these operands, run these
// checks, emit this instruction shape. The recipe — a [`MirrorTmpl`] — is
// derived once at lower time by symbolically executing the arm's bound
// steps under the mirror-mode semantics, so executing it skips the step
// machine (no `ApiValue` traffic, no scratch registers) entirely.
//
// Soundness splits into two one-sided obligations:
//
// * **Success path**: a template only exists when the symbolic walk proved
//   every register feeding the final builder, and its runtime performs
//   the builder's exact result construction through the same
//   `siro_ir::infer` rules — so when all checks pass, the emitted
//   instruction is byte-identical to the stream's by construction.
// * **Failure path**: the template never produces an error of its own; any
//   failed check returns `None`, the mirror pass aborts with the module
//   pristine, and the push driver re-runs from scratch — reproducing the
//   stream tier's exact error (or result). Bailing is therefore always
//   sound, merely slow; the derivation only has to be *conservative*,
//   never complete.
//
// The one derivation invariant beyond register matching: every fallible
// step (getters, translates) must feed the final builder. A checked-but-
// unused step could fail in the stream where the template — which only
// runs checks for the values it uses — would succeed; such arms keep the
// stream path.

/// How a template fetches one already-translated (identity) value off the
/// source instruction, with the same checks its getter + `translate_value`
/// chain performs. Any failure is a bail, not an error.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TmplVal {
    /// `Getter(Operand, i)`: bounds-checked, rejects block labels.
    Operand(u32),
    /// `Getter(PointerOperand(i), _)`: bounds-checked only.
    PointerOperand(u32),
    /// Fixed-index getters (`Lhs`, `Rhs`, `ValueOperand`) that index
    /// unchecked in the stream (a miss panics there); the template bails
    /// instead and lets the push-driver fallback reproduce the panic.
    OperandUnchecked(u32),
    /// `Getter(ReturnValue, _)`: first operand, required.
    ReturnValue,
    /// `Getter(Callee, _)`: the call's callee, required.
    Callee,
    /// `Getter(Condition, _)`: first operand, rejected on unconditional
    /// branches.
    Condition,
}

/// How a template fetches a block reference (identity-translated).
#[derive(Debug, Clone, Copy)]
pub(crate) enum TmplBlock {
    /// `Getter(Successor, i)`: bounds-checked successor.
    Successor(u32),
}

/// A derived rewrite recipe for one arm under mirror-mode semantics: which
/// operands to fetch and which instruction shape to emit. Mirrors the
/// corresponding [`Builder`] body exactly on success; bails to the
/// whole-module fallback on any failed check.
#[derive(Debug, Clone)]
pub(crate) enum MirrorTmpl {
    Ret(TmplVal),
    RetVoid,
    Br(TmplBlock),
    CondBr(TmplVal, TmplBlock, TmplBlock),
    Unreachable,
    Bin {
        op: Opcode,
        a: TmplVal,
        b: TmplVal,
    },
    /// Cast whose target type register carried `translate_type(result
    /// type)` — identity in mirror mode, so the new type *is* `inst.ty`.
    Cast {
        op: Opcode,
        v: TmplVal,
    },
    LoadImplicit {
        ptr: TmplVal,
    },
    /// Explicit load whose type register carried the (identity-translated)
    /// result type.
    LoadExplicit {
        ptr: TmplVal,
    },
    Store {
        v: TmplVal,
        p: TmplVal,
    },
    /// Implicit call with the fused argument list (arguments translate —
    /// identity — straight into the operand vector).
    CallImplicit {
        callee: TmplVal,
    },
    /// Implicit GEP with the fused index list.
    GepImplicit {
        base: TmplVal,
    },
    ICmp {
        a: TmplVal,
        b: TmplVal,
    },
    FCmp {
        a: TmplVal,
        b: TmplVal,
    },
    Select {
        c: TmplVal,
        t: TmplVal,
        f: TmplVal,
    },
    FNeg(TmplVal),
    Freeze(TmplVal),
}

/// The symbolic value of one step register under mirror-mode execution.
#[derive(Debug, Clone, Copy)]
enum Sym {
    /// A literal (constant provider or fusion placeholder): inert, cannot
    /// fail, allowed to go unused.
    Lit,
    /// `SrcValue` fetched per the recipe.
    SrcVal(TmplVal),
    /// The above after identity `translate_value`.
    TgtVal(TmplVal),
    /// `SrcType(inst.ty)` from `Getter(ResultType)`.
    SrcResultTy,
    /// The above after identity `translate_type`.
    TgtResultTy,
    /// `SrcBlock` fetched per the recipe.
    SrcBlock(TmplBlock),
    /// The above after identity `translate_block`.
    TgtBlock(TmplBlock),
    /// `Getter(IntPredicateOf)` / `Getter(FloatPredicateOf)`.
    IntPred,
    FloatPred,
}

/// Symbolically executes one bound arm under mirror-mode semantics and
/// derives its rewrite template, or `None` when any step or builder
/// argument falls outside the modeled fragment (the arm then keeps the
/// stream path, which handles everything).
fn derive_tmpl(steps: &[StepOp]) -> Option<MirrorTmpl> {
    let n = steps.len();
    let Some(StepOp::Build {
        b: build,
        args,
        fused,
    }) = steps.last()
    else {
        return None;
    };
    // Symbolic pass over everything but the final builder.
    let mut syms: Vec<Sym> = Vec::with_capacity(n - 1);
    for step in &steps[..n - 1] {
        let resolve = |r: &Reg| match r {
            Reg::Step(j) => syms.get(*j).copied(),
            Reg::Input => None,
        };
        let sym = match step {
            StepOp::Lit(_) => Sym::Lit,
            StepOp::Getter(g, i) => match g {
                Getter::Operand => Sym::SrcVal(TmplVal::Operand(*i)),
                Getter::PointerOperand(p) => Sym::SrcVal(TmplVal::PointerOperand(u32::from(*p))),
                Getter::ValueOperand => Sym::SrcVal(TmplVal::OperandUnchecked(0)),
                Getter::Lhs => Sym::SrcVal(TmplVal::OperandUnchecked(0)),
                Getter::Rhs => Sym::SrcVal(TmplVal::OperandUnchecked(1)),
                Getter::ReturnValue => Sym::SrcVal(TmplVal::ReturnValue),
                Getter::Callee => Sym::SrcVal(TmplVal::Callee),
                Getter::Condition => Sym::SrcVal(TmplVal::Condition),
                Getter::ResultType => Sym::SrcResultTy,
                Getter::Successor => Sym::SrcBlock(TmplBlock::Successor(*i)),
                Getter::IntPredicateOf => Sym::IntPred,
                Getter::FloatPredicateOf => Sym::FloatPred,
                _ => return None,
            },
            StepOp::Translate(t, r) => match (t, resolve(r)?) {
                (Translator::Value, Sym::SrcVal(v)) => Sym::TgtVal(v),
                (Translator::Block, Sym::SrcBlock(b)) => Sym::TgtBlock(b),
                (Translator::Type, Sym::SrcResultTy) => Sym::TgtResultTy,
                _ => return None,
            },
            _ => return None,
        };
        syms.push(sym);
    }
    // Fallible-step consumption: every non-literal step must (transitively)
    // feed the builder, or its runtime checks would be skipped.
    let mut used = vec![false; n - 1];
    let mut regs = Vec::new();
    step_regs(&steps[n - 1], &mut regs);
    for r in &regs {
        if let Reg::Step(j) = r {
            used[*j] = true;
        }
    }
    for i in (0..n - 1).rev() {
        if !used[i] {
            continue;
        }
        regs.clear();
        step_regs(&steps[i], &mut regs);
        for r in &regs {
            if let Reg::Step(j) = r {
                used[*j] = true;
            }
        }
    }
    if used
        .iter()
        .zip(&syms)
        .any(|(&u, s)| !u && !matches!(s, Sym::Lit))
    {
        return None;
    }

    // Match the builder's argument registers, by position, against the
    // symbolic state.
    let sym = |k: usize| match args.get(k)? {
        Reg::Step(j) => syms.get(*j).copied(),
        Reg::Input => None,
    };
    let val = |k: usize| match sym(k)? {
        Sym::TgtVal(v) => Some(v),
        _ => None,
    };
    let blk = |k: usize| match sym(k)? {
        Sym::TgtBlock(b) => Some(b),
        _ => None,
    };
    let result_ty = |k: usize| matches!(sym(k), Some(Sym::TgtResultTy));
    use Builder as B;
    use MirrorTmpl as T;
    Some(match (build, fused) {
        (B::Ret, _) => T::Ret(val(0)?),
        (B::RetVoid, _) => T::RetVoid,
        (B::Br, _) => T::Br(blk(0)?),
        (B::CondBr, _) => T::CondBr(val(0)?, blk(1)?, blk(2)?),
        (B::Unreachable, _) => T::Unreachable,
        (B::Bin(op), _) => T::Bin {
            op: *op,
            a: val(0)?,
            b: val(1)?,
        },
        (B::Cast(op), _) if result_ty(1) => T::Cast {
            op: *op,
            v: val(0)?,
        },
        (B::LoadImplicit, _) => T::LoadImplicit { ptr: val(0)? },
        (B::LoadExplicit, _) if result_ty(0) => T::LoadExplicit { ptr: val(1)? },
        (B::Store, _) => T::Store {
            v: val(0)?,
            p: val(1)?,
        },
        (B::CallImplicit, Some(Getter::Arguments)) => T::CallImplicit { callee: val(0)? },
        (B::GepImplicit, Some(Getter::GepIndices)) => T::GepImplicit { base: val(0)? },
        (B::ICmp, _) if matches!(sym(0), Some(Sym::IntPred)) => T::ICmp {
            a: val(1)?,
            b: val(2)?,
        },
        (B::FCmp, _) if matches!(sym(0), Some(Sym::FloatPred)) => T::FCmp {
            a: val(1)?,
            b: val(2)?,
        },
        (B::Select, _) => T::Select {
            c: val(0)?,
            t: val(1)?,
            f: val(2)?,
        },
        (B::FNeg, _) => T::FNeg(val(0)?),
        (B::Freeze, _) => T::Freeze(val(0)?),
        _ => return None,
    })
}

// ---- Execution environments ------------------------------------------------

// The micro-ops run the registry components' bodies, which are generic
// over `siro_api::ExecEnv`. Two monomorphized environments run them:
// [`TranslationCtx`] (the push mode: translate into a fresh target module)
// and [`MirrorEnv`] (the in-place mode: the source module *is* the target
// module, translation is identity, and the single built instruction is
// captured for a buffered overwrite). One body per component is what
// makes the two modes, and the interpreter, byte-identical by
// construction.

/// The in-place execution environment: the owned request module plays both
/// sides. Value, block, and type translation are identity (ids are
/// preserved because nothing is re-created), side-table queries read the
/// module itself, and [`ExecEnv::build`] captures the one rewritten
/// instruction instead of appending — the mirror driver overwrites the
/// source slot with it after the whole module has translated cleanly.
///
/// Type interning (`get_callee_type`, GEP/cmp result types) appends to the
/// module's own table; that is invisible in written output because the
/// writer prints types structurally and never numbers them, and harmless on
/// abort because unreferenced table entries never print.
struct MirrorEnv<'m> {
    /// Function arena, read-only during the mirror pass (rewrites are
    /// buffered) — which is what lets the current instruction stay
    /// *borrowed* while this env holds the type table mutably: disjoint
    /// fields of the same destructured module, no per-instruction clone.
    funcs: &'m [Function],
    globals: &'m [Global],
    asms: &'m [InlineAsm],
    /// The one mutable piece: shared source/target table, interned into by
    /// `get_callee_type` and result-type inference.
    types: &'m mut TypeTable,
    /// The function being mirrored (element of `funcs`).
    func: &'m Function,
    cur: InstId,
    out: Option<Instruction>,
}

impl ExecEnv for MirrorEnv<'_> {
    fn translate_value(&mut self, v: ValueRef) -> ApiResult<ValueRef> {
        match v {
            ValueRef::Placeholder(_) => {
                Err(ApiError::Type("cannot translate a placeholder".into()))
            }
            v => Ok(v),
        }
    }
    fn translate_block(&mut self, b: BlockId) -> ApiResult<BlockId> {
        Ok(b)
    }
    fn translate_type(&mut self, t: TypeId) -> TypeId {
        t
    }
    // Source and target are the same module; instructions not yet
    // rewritten still carry the right type (result types are semantic,
    // version differences live in operands/attrs).
    fn src(&mut self) -> impl Scope + '_ {
        self
    }
    fn tgt(&mut self) -> impl Scope + '_ {
        self
    }
    fn build(&mut self, inst: Instruction) -> ApiResult<ValueRef> {
        debug_assert!(self.out.is_none(), "mirror arm built twice");
        self.out = Some(inst);
        Ok(ValueRef::Inst(self.cur))
    }
    fn api_call(&mut self, _f: &ApiFn, _args: &[ApiValue]) -> ApiResult<ApiValue> {
        Err(ApiError::Missing(
            "mirror driver cannot call registry functions".into(),
        ))
    }
}

/// The same-module lookup: `Module::value_type` plus the global case,
/// against the function being mirrored.
impl Scope for MirrorEnv<'_> {
    #[inline]
    fn value_type(&self, v: ValueRef) -> Option<TypeId> {
        match v {
            ValueRef::Global(g) => Some(self.globals[g.index()].ty),
            ValueRef::Inst(i) => Some(self.func.inst(i).ty),
            ValueRef::Arg(a) => self.func.params.get(a as usize).map(|p| p.ty),
            ValueRef::ConstInt { ty, .. }
            | ValueRef::ConstFloat { ty, .. }
            | ValueRef::Null(ty)
            | ValueRef::Undef(ty)
            | ValueRef::ZeroInit(ty) => Some(ty),
            _ => None,
        }
    }
    #[inline]
    fn func(&self, f: FuncId) -> &Function {
        &self.funcs[f.index()]
    }
    #[inline]
    fn asm_ty(&self, a: AsmId) -> TypeId {
        self.asms[a.index()].ty
    }
    #[inline]
    fn types(&self) -> &TypeTable {
        self.types
    }
    #[inline]
    fn types_mut(&mut self) -> &mut TypeTable {
        self.types
    }
}

// ---- Mirror template runtime ----------------------------------------------
//
// Executes a derived [`MirrorTmpl`] against the borrowed instruction: the
// same checks and the same result-type rules (`siro_ir::infer`, errors
// mapped with `.ok()`) as the arm's stream form under mirror semantics,
// minus the step machine. `None` anywhere means "bail": the mirror pass
// aborts and the push driver reproduces the exact stream-tier outcome on
// the pristine module.
//
// The commit pass, which holds the function arena mutably between
// instructions, builds a [`MirrorEnv`] per instruction to call it.

/// Fetches one recipe value with its chain's checks (bounds, block
/// rejection, placeholder rejection).
#[inline]
fn tmpl_val(inst: &Instruction, v: TmplVal) -> Option<ValueRef> {
    let r = match v {
        TmplVal::Operand(i) => {
            let v = *inst.operands.get(i as usize)?;
            if v.is_block() {
                return None;
            }
            v
        }
        TmplVal::PointerOperand(i) | TmplVal::OperandUnchecked(i) => {
            *inst.operands.get(i as usize)?
        }
        TmplVal::ReturnValue => *inst.operands.first()?,
        TmplVal::Callee => inst.callee()?,
        TmplVal::Condition => {
            if inst.is_unconditional_branch() {
                return None;
            }
            *inst.operands.first()?
        }
    };
    match r {
        ValueRef::Placeholder(_) => None,
        r => Some(r),
    }
}

/// Runs one rewrite template, producing the replacement instruction's
/// parts: opcode, result type, attributes, and the operand vector (written
/// into the reusable `ops` buffer). `None` anywhere bails the mirror pass:
/// the shared rules' errors map to `None`.
fn tmpl_parts(
    t: &MirrorTmpl,
    inst: &Instruction,
    env: &mut MirrorEnv<'_>,
    ops: &mut Vec<ValueRef>,
) -> Option<(Opcode, TypeId, InstAttrs)> {
    use MirrorTmpl as T;
    ops.clear();
    let mut attrs = InstAttrs::default();
    let (op, ty) = match t {
        T::Ret(r) => {
            ops.push(tmpl_val(inst, *r)?);
            (Opcode::Ret, env.types.void())
        }
        T::RetVoid => (Opcode::Ret, env.types.void()),
        T::Br(TmplBlock::Successor(i)) => {
            let bl = *inst.successors().get(*i as usize)?;
            ops.push(ValueRef::Block(bl));
            (Opcode::Br, env.types.void())
        }
        T::CondBr(c, TmplBlock::Successor(ti), TmplBlock::Successor(fi)) => {
            let c = tmpl_val(inst, *c)?;
            let succs = inst.successors();
            let tb = *succs.get(*ti as usize)?;
            let fb = *succs.get(*fi as usize)?;
            ops.extend([c, ValueRef::Block(tb), ValueRef::Block(fb)]);
            (Opcode::Br, env.types.void())
        }
        T::Unreachable => (Opcode::Unreachable, env.types.void()),
        T::Bin { op, a, b } => {
            let av = tmpl_val(inst, *a)?;
            let bv = tmpl_val(inst, *b)?;
            let ty = infer::shared_operand_type(env, av, bv).ok()?;
            ops.extend([av, bv]);
            (*op, ty)
        }
        T::Cast { op, v } => {
            ops.push(tmpl_val(inst, *v)?);
            (*op, inst.ty)
        }
        T::LoadImplicit { ptr } => {
            let p = tmpl_val(inst, *ptr)?;
            let ty = infer::load_type(env, p).ok()?;
            attrs.gep_source_ty = Some(ty);
            ops.push(p);
            (Opcode::Load, ty)
        }
        T::LoadExplicit { ptr } => {
            ops.push(tmpl_val(inst, *ptr)?);
            attrs.gep_source_ty = Some(inst.ty);
            (Opcode::Load, inst.ty)
        }
        T::Store { v, p } => {
            let v = tmpl_val(inst, *v)?;
            let p = tmpl_val(inst, *p)?;
            ops.extend([v, p]);
            (Opcode::Store, env.types.void())
        }
        T::CallImplicit { callee } => {
            let c = tmpl_val(inst, *callee)?;
            ops.push(c);
            for &a in inst.call_args() {
                if matches!(a, ValueRef::Placeholder(_)) {
                    return None;
                }
                ops.push(a);
            }
            let ret = infer::callee_ret(env, c).ok()?;
            attrs.num_args = (ops.len() - 1) as u32;
            attrs.callee_ty = None;
            (Opcode::Call, ret)
        }
        T::GepImplicit { base } => {
            let b = tmpl_val(inst, *base)?;
            ops.push(b);
            for &a in inst.operands.get(1..)? {
                if matches!(a, ValueRef::Placeholder(_)) {
                    return None;
                }
                ops.push(a);
            }
            let src_ty = infer::gep_source_type(env, b).ok()?;
            let rty = infer::gep_result(env.types, src_ty, &ops[1..]).ok()?;
            attrs.gep_source_ty = Some(src_ty);
            (Opcode::GetElementPtr, rty)
        }
        T::ICmp { a, b } => {
            let pred = inst.attrs.int_pred?;
            let av = tmpl_val(inst, *a)?;
            let bv = tmpl_val(inst, *b)?;
            let rty = infer::cmp_type(env, av, bv).ok()?;
            attrs.int_pred = Some(pred);
            ops.extend([av, bv]);
            (Opcode::ICmp, rty)
        }
        T::FCmp { a, b } => {
            let pred = inst.attrs.float_pred?;
            let av = tmpl_val(inst, *a)?;
            let bv = tmpl_val(inst, *b)?;
            let rty = infer::cmp_type(env, av, bv).ok()?;
            attrs.float_pred = Some(pred);
            ops.extend([av, bv]);
            (Opcode::FCmp, rty)
        }
        T::Select { c, t, f } => {
            let c = tmpl_val(inst, *c)?;
            let t = tmpl_val(inst, *t)?;
            let f = tmpl_val(inst, *f)?;
            let ty = infer::shared_operand_type(env, t, f).ok()?;
            ops.extend([c, t, f]);
            (Opcode::Select, ty)
        }
        T::FNeg(r) => {
            let v = tmpl_val(inst, *r)?;
            let ty = infer::operand_type(env, v).ok()?;
            ops.push(v);
            (Opcode::FNeg, ty)
        }
        T::Freeze(r) => {
            let v = tmpl_val(inst, *r)?;
            let ty = infer::operand_type(env, v).ok()?;
            ops.push(v);
            (Opcode::Freeze, ty)
        }
    };
    Some((op, ty, attrs))
}

impl MirrorEnv<'_> {
    /// Runs one rewrite template through [`tmpl_parts`], assembling the
    /// replacement instruction (the buffered driver's form).
    fn exec_tmpl(&mut self, t: &MirrorTmpl, inst: &Instruction) -> Option<Instruction> {
        let mut ops = Vec::new();
        let (op, ty, attrs) = tmpl_parts(t, inst, self, &mut ops)?;
        let mut out = Instruction::new(op, ty, ops);
        out.attrs = attrs;
        Some(out)
    }
}

/// Resolves a register to the value it names.
#[inline]
fn reg_ref<'a>(r: Reg, results: &'a [ApiValue], input: &'a ApiValue) -> &'a ApiValue {
    match r {
        Reg::Input => input,
        Reg::Step(i) => &results[i],
    }
}

/// A builder micro-op's arguments: its pre-bound registers read in place
/// from the step results, and the fused list's source operands.
struct RegArgs<'a> {
    regs: &'a [Reg],
    results: &'a [ApiValue],
    input: &'a ApiValue,
    inst: &'a Instruction,
    fused: Option<Getter>,
}

impl Args for RegArgs<'_> {
    fn arg(&self, i: usize) -> Option<&ApiValue> {
        let r = *self.regs.get(i)?;
        Some(reg_ref(r, self.results, self.input))
    }

    fn fused_list(&self) -> Option<&[ValueRef]> {
        self.fused?.operand_list(self.inst)
    }
}

/// Runs one arm's step stream. Steady state: no allocation, no hashing, no
/// instruction clones — the scratch vectors are reused across instructions.
fn exec_steps<E: ExecEnv>(
    arm: &CompiledArm,
    ctx: &mut E,
    inst_id: InstId,
    inst: &Instruction,
    s: &mut Scratch,
) -> TranslateResult<ValueRef> {
    let input = ApiValue::SrcInst(inst_id);
    s.results.clear();
    for step in arm.steps.iter() {
        let out = match step {
            StepOp::Lit(v) => v.clone(),
            StepOp::Getter(g, i) => g.get(inst, *i, &mut ctx.src())?,
            StepOp::Translate(t, r) => t.translate(ctx, Some(reg_ref(*r, &s.results, &input)))?,
            StepOp::Build { b, args, fused } => {
                let args = RegArgs {
                    regs: args,
                    results: &s.results,
                    input: &input,
                    inst,
                    fused: *fused,
                };
                ApiValue::TgtValue(b.build(ctx, &args)?)
            }
            StepOp::Call { f, args } => {
                s.args.clear();
                for r in args.iter() {
                    s.args.push(reg_ref(*r, &s.results, &input).clone());
                }
                ctx.api_call(f, &s.args)?
            }
        };
        s.results.push(out);
    }
    match s.results.last() {
        Some(ApiValue::TgtValue(v)) => Ok(*v),
        other => Err(TranslateError::Api(ApiError::Type(format!(
            "program did not end in a target instruction: {other:?}"
        )))),
    }
}

impl CompiledKind {
    /// Lowers one kind's translator. This is the canonical kind-level
    /// codegen that [`TranslatorBackend::lower_kind`] delegates to.
    ///
    /// # Errors
    ///
    /// [`CompileError`] when guards cannot be aligned or a program is not
    /// well-typed.
    pub fn lower(
        reg: &ApiRegistry,
        kind: Opcode,
        kt: &KindTranslator,
    ) -> Result<CompiledKind, CompileError> {
        // Every registry predicate is a `bool` getter; anything else
        // cannot be bound.
        let preds: Box<[CompiledPred]> = reg
            .predicates_for(kind)
            .into_iter()
            .map(|id| {
                let f = reg.get(id);
                match f.component() {
                    Some(Component::Get(getter)) => Ok(CompiledPred {
                        name: Arc::from(f.name.as_str()),
                        getter,
                    }),
                    _ => Err(CompileError::IllTyped { kind }),
                }
            })
            .collect::<Result<_, _>>()?;
        let mut arms = Vec::with_capacity(kt.arms.len());
        for arm in &kt.arms {
            if !arm.program.well_typed(reg) {
                return Err(CompileError::IllTyped { kind });
            }
            let mut covers = Vec::with_capacity(arm.covers.len());
            for conj in &arm.covers {
                if conj.len() != preds.len() {
                    return Err(CompileError::CoverMismatch {
                        kind,
                        detail: format!(
                            "guard names {} predicates, the kind has {}",
                            conj.len(),
                            preds.len()
                        ),
                    });
                }
                let row: Box<[PredValue]> = preds
                    .iter()
                    .map(|p| {
                        conj.get(p.name.as_ref()).copied().ok_or_else(|| {
                            CompileError::CoverMismatch {
                                kind,
                                detail: format!("guard lacks predicate `{}`", p.name),
                            }
                        })
                    })
                    .collect::<Result<_, _>>()?;
                covers.push(row);
            }
            let mut steps = Vec::with_capacity(arm.program.steps.len());
            for call in &arm.program.steps {
                let bound = bind_step(reg, call, &steps);
                steps.push(bound);
            }
            fuse_lists(&mut steps);
            let tmpl = derive_tmpl(&steps);
            arms.push(CompiledArm {
                covers: covers.into_boxed_slice(),
                steps: steps.into_boxed_slice(),
                tmpl,
            });
        }
        let skip_preds = kt.arms.first().is_some_and(|a| a.covers.is_empty());
        // Mirror capability: the in-place driver rewrites the source slot
        // with the arm's single built instruction, so every arm that can
        // run must (a) build exactly once, as its final step (the arm's
        // result *is* the rewritten slot), and (b) never call back into
        // the registry (`StepOp::Call` — those closures expect a real
        // push-mode context).
        let arm_mirrorable = |a: &CompiledArm| {
            let n = a.steps.len();
            n > 0
                && a.steps.iter().enumerate().all(|(i, s)| match s {
                    StepOp::Build { .. } => i + 1 == n,
                    StepOp::Call { .. } => false,
                    _ => true,
                })
                && matches!(a.steps.last(), Some(StepOp::Build { .. }))
        };
        let mirror_ok = if skip_preds {
            arms.first().is_some_and(arm_mirrorable)
        } else {
            !arms.is_empty() && arms.iter().all(arm_mirrorable)
        };
        Ok(CompiledKind {
            preds,
            arms: arms.into_boxed_slice(),
            skip_preds,
            mirror_ok,
        })
    }

    /// Reconstructs the interpreter-shaped conjunction for the unseen-
    /// predicate error path (cold; names only live for this).
    fn rebuild_conj(&self, evaluated: &[PredValue]) -> PredConj {
        self.preds
            .iter()
            .zip(evaluated)
            .map(|(p, v)| (p.name.to_string(), *v))
            .collect()
    }

    /// Evaluates the kind's guards and picks the arm that covers them —
    /// the dispatch half of [`CompiledKind::translate`], shared with the
    /// mirror driver (which then runs the arm's template or stream).
    fn select_arm(
        &self,
        kind: Opcode,
        inst: &Instruction,
        s: &mut Scratch,
    ) -> TranslateResult<&CompiledArm> {
        if self.skip_preds {
            return Ok(&self.arms[0]);
        }
        s.evaluated.clear();
        for p in self.preds.iter() {
            let pv = p.eval(inst)?;
            s.evaluated.push(pv);
        }
        self.arms
            .iter()
            .find(|a| a.matches(&s.evaluated))
            .ok_or_else(|| TranslateError::UnseenPredicate {
                kind,
                conj: self.rebuild_conj(&s.evaluated),
            })
    }

    fn translate<E: ExecEnv>(
        &self,
        ctx: &mut E,
        kind: Opcode,
        inst_id: InstId,
        inst: &Instruction,
        s: &mut Scratch,
    ) -> TranslateResult<ValueRef> {
        let arm = self.select_arm(kind, inst, s)?;
        exec_steps(arm, ctx, inst_id, inst, s)
    }
}

/// A dispatch-table slot: what `opcode as usize` resolves to.
#[derive(Debug, Clone)]
pub(crate) enum SlotAction {
    /// The target version lacks this kind — dispatch to the
    /// new-instruction lowerings (`siro_core::newinst`).
    NewInst,
    /// The target supports the kind but the translator has no entry.
    Missing,
    /// Run the compiled stream.
    Kind(CompiledKind),
}

/// A synthesized translator lowered to its compiled execution form.
///
/// Plugs into the skeleton exactly like the interpreted translator (it
/// implements [`InstTranslator`]) and produces byte-identical modules; see
/// the module docs for what was pre-resolved.
///
/// # Examples
///
/// ```
/// use siro_ir::IrVersion;
/// use siro_synth::{oracle_corpus, StreamBackend, TranslatorBackend, TranslatorCache};
/// use siro_synth::SynthesisConfig;
/// use siro_core::Skeleton;
///
/// let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
/// let tests = oracle_corpus(src, tgt);
/// let outcome =
///     TranslatorCache::get_or_synthesize(SynthesisConfig::new(src, tgt), &tests).unwrap();
/// let compiled = StreamBackend.lower(&outcome.translator).unwrap();
///
/// // The compiled tier is a drop-in InstTranslator: identical output.
/// let skeleton = Skeleton::new(tgt);
/// let interpreted = skeleton.translate_module(&tests[0].module, &outcome.translator).unwrap();
/// let fast = skeleton.translate_module(&tests[0].module, &compiled).unwrap();
/// assert_eq!(
///     siro_ir::write::write_module(&interpreted),
///     siro_ir::write::write_module(&fast),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct CompiledTranslator {
    registry: Arc<ApiRegistry>,
    table: Box<[SlotAction]>,
}

impl CompiledTranslator {
    /// The registry the compiled streams index into.
    pub fn registry(&self) -> &Arc<ApiRegistry> {
        &self.registry
    }

    /// Kinds with a compiled stream, ascending.
    pub fn compiled_kinds(&self) -> Vec<Opcode> {
        Opcode::ALL
            .iter()
            .copied()
            .filter(|op| matches!(self.table[*op as usize], SlotAction::Kind(_)))
            .collect()
    }

    fn from_parts(
        registry: Arc<ApiRegistry>,
        kinds: impl IntoIterator<Item = (Opcode, CompiledKind)>,
    ) -> Self {
        let mut table: Vec<SlotAction> = Opcode::ALL
            .iter()
            .map(|&op| {
                if registry.tgt_version.supports(op) {
                    SlotAction::Missing
                } else {
                    SlotAction::NewInst
                }
            })
            .collect();
        for (kind, compiled) in kinds {
            if registry.tgt_version.supports(kind) {
                table[kind as usize] = SlotAction::Kind(compiled);
            }
        }
        CompiledTranslator {
            registry,
            table: table.into_boxed_slice(),
        }
    }

    /// Translates a whole module through the push driver: the
    /// [`Skeleton`]'s walk with this translator plugged in as its
    /// [`InstTranslator`] — the same order, counters and errors as every
    /// other tier, one compiled arm per instruction. The tiered
    /// translation path ([`translate_module_owned_tiered`]) falls back to
    /// it when the mirror driver bails.
    ///
    /// # Errors
    ///
    /// The same [`TranslateError`]s the interpreted tier produces on the
    /// same input.
    ///
    /// # Examples
    ///
    /// ```
    /// use siro_core::Skeleton;
    /// use siro_ir::IrVersion;
    /// use siro_synth::{oracle_corpus, StreamBackend, SynthesisConfig, TranslatorBackend,
    ///                  TranslatorCache};
    ///
    /// let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    /// let tests = oracle_corpus(src, tgt);
    /// let outcome =
    ///     TranslatorCache::get_or_synthesize(SynthesisConfig::new(src, tgt), &tests).unwrap();
    /// let compiled = StreamBackend.lower(&outcome.translator).unwrap();
    ///
    /// let driven = compiled.translate_module(&tests[0].module).unwrap();
    /// let interpreted = Skeleton::new(tgt)
    ///     .translate_module(&tests[0].module, &outcome.translator)
    ///     .unwrap();
    /// assert_eq!(
    ///     siro_ir::write::write_module(&driven),
    ///     siro_ir::write::write_module(&interpreted),
    /// );
    /// ```
    pub fn translate_module(&self, src: &Module) -> TranslateResult<Module> {
        Skeleton::new(self.registry.tgt_version).translate_module(src, self)
    }

    /// Translates an *owned* module in place — the serving-shaped fast
    /// path. Serving parses every request into a fresh module it owns;
    /// handing that module to the translator by value lets the mirror
    /// driver skip everything the by-reference drivers rebuild per call
    /// (target module, globals, signatures, blocks, value maps): function,
    /// block, instruction, and type identities are simply *kept*, and each
    /// instruction's slot is overwritten with the instruction its compiled
    /// arm builds.
    ///
    /// Output is byte-identical to the other tiers because the mirror mode
    /// runs the *same* compiled arms through the same executor
    /// (`ExecEnv`) — only value/type translation (identity here) and
    /// emission (slot overwrite instead of append) differ, and the writer
    /// numbers values by block order and prints types structurally, so
    /// preserved internal ids are invisible.
    ///
    /// Rewrites are buffered and applied only after every instruction in
    /// the module has translated cleanly, so on any error — or when a kind
    /// is not mirror-capable (`CompiledKind::mirror_ok`) — the module is
    /// still pristine and the push driver re-runs from scratch, producing
    /// the exact push-tier result or error (counted as
    /// `translate.mirror_fallback`).
    ///
    /// # Errors
    ///
    /// The same [`TranslateError`]s the other tiers produce on the same
    /// input.
    ///
    /// # Examples
    ///
    /// ```
    /// use siro_core::Skeleton;
    /// use siro_ir::IrVersion;
    /// use siro_synth::{oracle_corpus, StreamBackend, SynthesisConfig, TranslatorBackend,
    ///                  TranslatorCache};
    ///
    /// let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    /// let tests = oracle_corpus(src, tgt);
    /// let outcome =
    ///     TranslatorCache::get_or_synthesize(SynthesisConfig::new(src, tgt), &tests).unwrap();
    /// let compiled = StreamBackend.lower(&outcome.translator).unwrap();
    ///
    /// let owned = compiled.translate_module_owned(tests[0].module.clone()).unwrap();
    /// let interpreted = Skeleton::new(tgt)
    ///     .translate_module(&tests[0].module, &outcome.translator)
    ///     .unwrap();
    /// assert_eq!(
    ///     siro_ir::write::write_module(&owned),
    ///     siro_ir::write::write_module(&interpreted),
    /// );
    /// ```
    pub fn translate_module_owned(&self, mut m: Module) -> TranslateResult<Module> {
        if self.mirror_in_place(&mut m) {
            siro_trace::counter("core.modules_translated", 1);
            return Ok(m);
        }
        // The rewrite buffer was never applied, so `m` is still the parsed
        // request (module-level metadata untouched; type-table appends are
        // invisible): the push driver reproduces the exact push-tier
        // result or error.
        siro_trace::counter("translate.mirror_fallback", 1);
        self.translate_module(&m)
    }

    /// The mirror pass. Two shapes, chosen by a read-only validation
    /// sweep ([`CompiledTranslator::mirror_validate`]):
    ///
    /// * **commit** — every instruction selects a templated arm whose
    ///   checks pass and whose computed result type equals the slot's
    ///   existing type. The commit sweep then rewrites each slot in place
    ///   with no buffering and no per-instruction allocation; it cannot
    ///   fail, because it re-reads exactly the state validation read
    ///   (templates read only *result types* of other instructions — never
    ///   their operands, attributes, or opcodes — and signatures, globals,
    ///   and blocks are never rewritten, so the proved type-invariance
    ///   makes both sweeps see identical inputs).
    /// * **buffered** — some arm is outside the template fragment (or
    ///   changes a result type): fall back to evaluating arms in mirror
    ///   mode, buffering `(function, slot, instruction)` rewrites, and
    ///   applying them only if the whole module translates.
    ///
    /// Returns `false` — with the module unmodified — when any kind is not
    /// mirror-capable or any arm errors; the caller re-runs the push
    /// driver on the pristine module.
    fn mirror_in_place(&self, m: &mut Module) -> bool {
        let mut arms: Vec<&CompiledArm> = Vec::with_capacity(m.inst_count());
        let ok = match self.mirror_validate(m, &mut arms) {
            MirrorPlan::Bail => return false,
            MirrorPlan::Commit => {
                Self::mirror_commit(m, &arms);
                true
            }
            MirrorPlan::Buffered => self.mirror_buffered(m),
        };
        if !ok {
            return false;
        }
        m.version = self.registry.tgt_version;
        if siro_trace::enabled() {
            // Counter totals, replicated from the skeleton so difftest
            // deltas cannot tell the drivers apart (emitted only on
            // success; the fallback path emits its own). `Phi` rewrites to
            // `Phi`, so post-rewrite opcodes still count source phis.
            let (mut n_funcs, mut n_blocks, mut n_insts, mut n_phis) = (0u64, 0u64, 0u64, 0u64);
            for func in m.funcs.iter().filter(|f| !f.is_external) {
                n_funcs += 1;
                n_blocks += func.blocks.len() as u64;
                for block in &func.blocks {
                    n_insts += block.insts.len() as u64;
                    for &iid in &block.insts {
                        n_phis += u64::from(func.inst(iid).opcode == Opcode::Phi);
                    }
                }
            }
            siro_trace::counter("core.funcs_translated", n_funcs);
            siro_trace::counter("core.blocks_translated", n_blocks);
            siro_trace::counter("core.insts_translated", n_insts);
            siro_trace::counter("core.phis_translated", n_phis);
        }
        true
    }

    /// Read-only sweep deciding how the mirror pass may run, filling
    /// `arms` with the selected arm per instruction (module order) for the
    /// commit sweep to reuse.
    fn mirror_validate<'t>(
        &'t self,
        m: &mut Module,
        arms: &mut Vec<&'t CompiledArm>,
    ) -> MirrorPlan {
        let mut plan = MirrorPlan::Commit;
        // Disjoint field borrows: the function arena stays read-only, only
        // the type table is mutable (template result-type computation may
        // intern; interning is append-only and idempotent, and the writer
        // prints types structurally, so validation-order appends are
        // invisible in the output bytes).
        let siro_ir::Ctx {
            ref funcs,
            ref globals,
            ref asms,
            ref mut types,
        } = m.ctx;
        SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            let mut ops: Vec<ValueRef> = Vec::new();
            for func in funcs.iter() {
                if func.is_external {
                    continue;
                }
                let mut env = MirrorEnv {
                    funcs,
                    globals,
                    asms,
                    types: &mut *types,
                    func,
                    cur: InstId::new(0),
                    out: None,
                };
                for block in &func.blocks {
                    for &iid in &block.insts {
                        let inst = func.inst(iid);
                        let kind = match &self.table[inst.opcode as usize] {
                            SlotAction::Kind(kind) if kind.mirror_ok => kind,
                            _ => return MirrorPlan::Bail,
                        };
                        let arm = match kind.select_arm(inst.opcode, inst, s) {
                            Ok(arm) => arm,
                            Err(_) => return MirrorPlan::Bail,
                        };
                        arms.push(arm);
                        let Some(t) = &arm.tmpl else {
                            // Outside the template fragment: the buffered
                            // sweep handles the whole module (it re-runs
                            // the checks itself).
                            plan = MirrorPlan::Buffered;
                            continue;
                        };
                        match tmpl_parts(t, inst, &mut env, &mut ops) {
                            // A failed check means the stream form errors
                            // (or panics) on this instruction: only the
                            // pristine-module fallback reproduces that.
                            None => return MirrorPlan::Bail,
                            // Type changed: in-place reads after partial
                            // rewriting would diverge; buffer instead.
                            Some((_, ty, _)) if ty != inst.ty => plan = MirrorPlan::Buffered,
                            Some(_) => {}
                        }
                    }
                }
            }
            plan
        })
    }

    /// The in-place commit sweep: rewrites every instruction slot through
    /// its validated template — no rewrite buffer, no per-instruction
    /// allocation (one reused operand scratch), `name` left in place.
    ///
    /// Only called after [`CompiledTranslator::mirror_validate`] returned
    /// [`MirrorPlan::Commit`]; both sweeps are deterministic over
    /// identical inputs (see [`CompiledTranslator::mirror_in_place`]), so
    /// a template failing here is a driver bug, not an input condition —
    /// it panics rather than half-rewriting the module.
    fn mirror_commit(m: &mut Module, arms: &[&CompiledArm]) {
        let siro_ir::Ctx {
            ref mut funcs,
            ref globals,
            ref asms,
            ref mut types,
        } = m.ctx;
        let mut ops: Vec<ValueRef> = Vec::new();
        let mut next = 0usize;
        for fi in 0..funcs.len() {
            if funcs[fi].is_external {
                continue;
            }
            for bi in 0..funcs[fi].blocks.len() {
                for ii in 0..funcs[fi].blocks[bi].insts.len() {
                    let iid = funcs[fi].blocks[bi].insts[ii];
                    let t = arms[next].tmpl.as_ref().expect("validated template");
                    next += 1;
                    let (op, ty, attrs) = {
                        let func = &funcs[fi];
                        let mut env = MirrorEnv {
                            funcs,
                            globals,
                            asms,
                            types: &mut *types,
                            func,
                            cur: iid,
                            out: None,
                        };
                        match tmpl_parts(t, func.inst(iid), &mut env, &mut ops) {
                            Some(parts) => parts,
                            None => unreachable!("validated mirror template failed on commit"),
                        }
                    };
                    let slot = funcs[fi].inst_mut(iid);
                    slot.opcode = op;
                    slot.ty = ty;
                    slot.operands.clear();
                    slot.operands.extend_from_slice(&ops);
                    slot.attrs = attrs;
                }
            }
        }
    }

    /// The buffered mirror sweep: evaluates every instruction's arm in
    /// mirror mode (template where derivable, stream execution otherwise),
    /// buffering `(function, slot, instruction)` rewrites and applying
    /// them only if the whole module translates. Returns `false` — with
    /// the module unmodified — when any arm errors.
    fn mirror_buffered(&self, m: &mut Module) -> bool {
        let mut rewrites: Vec<(u32, InstId, Instruction)> = Vec::with_capacity(m.inst_count());
        let siro_ir::Ctx {
            ref funcs,
            ref globals,
            ref asms,
            ref mut types,
        } = m.ctx;
        let ok = SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            for (fi, func) in funcs.iter().enumerate() {
                if func.is_external {
                    continue;
                }
                let mut env = MirrorEnv {
                    funcs,
                    globals,
                    asms,
                    types: &mut *types,
                    func,
                    cur: InstId::new(0),
                    out: None,
                };
                for block in &func.blocks {
                    for &iid in &block.insts {
                        let inst = func.inst(iid);
                        let kind = match &self.table[inst.opcode as usize] {
                            SlotAction::Kind(kind) if kind.mirror_ok => kind,
                            _ => return false,
                        };
                        let arm = match kind.select_arm(inst.opcode, inst, s) {
                            Ok(arm) => arm,
                            Err(_) => return false,
                        };
                        // Template first (the common case: no step machine
                        // at all); arms outside the derivable fragment run
                        // their stream through the mirror env.
                        let mut new = if let Some(t) = &arm.tmpl {
                            match env.exec_tmpl(t, inst) {
                                Some(new) => new,
                                None => return false,
                            }
                        } else {
                            env.cur = iid;
                            env.out = None;
                            let v = exec_steps(arm, &mut env, iid, inst, s);
                            match (v, env.out.take()) {
                                (Ok(v), Some(new)) => {
                                    debug_assert_eq!(v, ValueRef::Inst(iid));
                                    new
                                }
                                _ => return false,
                            }
                        };
                        // Name carry, as in the skeleton: the built
                        // instruction never has a name, the source one
                        // keeps its own.
                        if new.name.is_none() {
                            new.name = inst.name.clone();
                        }
                        rewrites.push((fi as u32, iid, new));
                    }
                }
            }
            true
        });
        if !ok {
            return false;
        }
        for (fi, iid, inst) in rewrites {
            *m.funcs[fi as usize].inst_mut(iid) = inst;
        }
        true
    }
}

/// How [`CompiledTranslator::mirror_in_place`] may run, decided by the
/// read-only validation sweep.
enum MirrorPlan {
    /// Every instruction has a validated template with an unchanged result
    /// type: rewrite slots in place, no buffering.
    Commit,
    /// Some arm needs stream execution (or changes a result type): run the
    /// buffered sweep.
    Buffered,
    /// A check failed or a kind is not mirror-capable: leave the module
    /// pristine and fall back to the push driver.
    Bail,
}

impl InstTranslator for CompiledTranslator {
    fn translate_inst(
        &self,
        ctx: &mut TranslationCtx<'_>,
        inst: InstId,
    ) -> TranslateResult<ValueRef> {
        let fid = ctx
            .src_func_id()
            .ok_or_else(|| ApiError::Missing("no current source function".into()))?;
        // `ctx.src` is a Copy field: reading it yields a borrow of the
        // source module whose lifetime is independent of `ctx`, so the
        // instruction can stay borrowed across the `&mut ctx` call below.
        let src = ctx.src;
        let inst_ref = src.func(fid).inst(inst);
        match &self.table[inst_ref.opcode as usize] {
            SlotAction::NewInst => newinst::lower_new_instruction(ctx, inst),
            SlotAction::Missing => Err(TranslateError::MissingTranslator(inst_ref.opcode)),
            SlotAction::Kind(k) => SCRATCH.with(|scratch| {
                k.translate(
                    ctx,
                    inst_ref.opcode,
                    inst,
                    inst_ref,
                    &mut scratch.borrow_mut(),
                )
            }),
        }
    }
}

// ---- The backend trait -----------------------------------------------------

/// A code generator turning validated translators into their execution
/// form — the module-level / kind-level split of wasmer's
/// `ModuleCodeGenerator` / `FunctionCodeGenerator` pair. The provided
/// methods implement the canonical stream lowering; a backend overrides
/// [`TranslatorBackend::lower_kind`] to specialize per-kind codegen while
/// inheriting the table walk, or [`TranslatorBackend::lower`] to replace
/// the walk itself.
pub trait TranslatorBackend {
    /// A short identifier for traces and stats pages.
    fn name(&self) -> &'static str;

    /// Lowers one kind's translator into its compiled stream.
    ///
    /// # Errors
    ///
    /// [`CompileError`]; the whole lowering aborts and the outcome stays
    /// on the interpreted tier.
    fn lower_kind(
        &self,
        reg: &ApiRegistry,
        kind: Opcode,
        kt: &KindTranslator,
    ) -> Result<CompiledKind, CompileError> {
        CompiledKind::lower(reg, kind, kt)
    }

    /// Lowers a whole translator: every kind through
    /// [`TranslatorBackend::lower_kind`], assembled into the dense
    /// dispatch table.
    ///
    /// # Errors
    ///
    /// The first per-kind [`CompileError`].
    ///
    /// # Examples
    ///
    /// ```
    /// use siro_api::ApiRegistry;
    /// use siro_core::SynthesizedTranslator;
    /// use siro_ir::IrVersion;
    /// use siro_synth::{StreamBackend, TranslatorBackend};
    /// use std::sync::Arc;
    ///
    /// // An empty translator lowers to a table of pure dispatch decisions:
    /// // unsupported kinds go to the new-instruction lowerings, everything
    /// // else to the missing-translator error — no compiled streams yet.
    /// let reg = Arc::new(ApiRegistry::for_pair(IrVersion::V13_0, IrVersion::V3_6));
    /// let empty = SynthesizedTranslator::new(Arc::clone(&reg));
    /// let compiled = StreamBackend.lower(&empty).unwrap();
    /// assert!(compiled.compiled_kinds().is_empty());
    /// assert_eq!(StreamBackend.name(), "stream");
    /// ```
    fn lower(
        &self,
        translator: &SynthesizedTranslator,
    ) -> Result<CompiledTranslator, CompileError> {
        let reg = &translator.registry;
        let mut kinds = Vec::with_capacity(translator.kinds.len());
        for (&kind, kt) in &translator.kinds {
            kinds.push((kind, self.lower_kind(reg, kind, kt)?));
        }
        Ok(CompiledTranslator::from_parts(Arc::clone(reg), kinds))
    }
}

/// The default backend: the flat instruction-stream lowering implemented
/// by [`CompiledKind::lower`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamBackend;

impl TranslatorBackend for StreamBackend {
    fn name(&self) -> &'static str {
        "stream"
    }
}

// ---- Outcome attachment ----------------------------------------------------

impl SynthesisOutcome {
    /// The compiled tier of this outcome, lowering it on first use (under
    /// a `compile.lower` span) and memoizing the result — including a
    /// failed lowering, so a broken translator does not re-attempt per
    /// request. Returns `None` when the lowering failed: callers fall back
    /// to the interpreted translator.
    pub fn compiled(&self) -> Option<Arc<CompiledTranslator>> {
        self.compiled_slot
            .get_or_init(|| {
                let reg = &self.translator.registry;
                let sp =
                    siro_trace::span!("compile.lower", "{}->{}", reg.src_version, reg.tgt_version);
                let lowered = StreamBackend.lower(&self.translator);
                drop(sp);
                match lowered {
                    Ok(c) => {
                        LOWERED.fetch_add(1, Ordering::Relaxed);
                        Some(Arc::new(c))
                    }
                    Err(_) => {
                        LOWER_FAILURES.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                }
            })
            .clone()
    }
}

// ---- Tiered module translation ---------------------------------------------

/// Translates an *owned* module through the outcome's best tier — the
/// one tiered entry point (serving parses every request into a module it
/// owns, and composed chains own each intermediate hop result). Runs the
/// compiled tier's in-place mirror driver directly on the owned module,
/// falling back — still with zero clones, because the mirror driver
/// mutates only on success — first to the compiled push driver and then
/// to the interpreter on the pristine input (a runtime fallback counted
/// in [`CompileStats::runtime_fallbacks`]; both tiers implement identical
/// semantics, so the interpreter reproduces the same result or error).
///
/// # Errors
///
/// The interpreted tier's [`TranslateError`].
pub fn translate_module_owned_tiered(
    outcome: &SynthesisOutcome,
    target: siro_ir::IrVersion,
    module: Module,
) -> TranslateResult<Module> {
    if let Some(compiled) = outcome.compiled() {
        let mut m = module;
        if compiled.mirror_in_place(&mut m) {
            siro_trace::counter("core.modules_translated", 1);
            TRANSLATE_COMPILED.fetch_add(1, Ordering::Relaxed);
            return Ok(m);
        }
        // The mirror pass left `m` pristine (see
        // [`CompiledTranslator::translate_module_owned`]).
        siro_trace::counter("translate.mirror_fallback", 1);
        match compiled.translate_module(&m) {
            Ok(out) => {
                TRANSLATE_COMPILED.fetch_add(1, Ordering::Relaxed);
                return Ok(out);
            }
            Err(_) => {
                RUNTIME_FALLBACKS.fetch_add(1, Ordering::Relaxed);
            }
        }
        TRANSLATE_INTERPRETED.fetch_add(1, Ordering::Relaxed);
        return Skeleton::new(target).translate_module(&m, &outcome.translator);
    }
    TRANSLATE_INTERPRETED.fetch_add(1, Ordering::Relaxed);
    Skeleton::new(target).translate_module(&module, &outcome.translator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::oracle_corpus;
    use crate::driver::SynthesisConfig;
    use crate::TranslatorCache;
    use siro_api::{ApiId, ApiProgram};
    use siro_core::TranslatorArm;
    use siro_ir::IrVersion;

    fn outcome_for(src: IrVersion, tgt: IrVersion) -> Arc<SynthesisOutcome> {
        let tests = oracle_corpus(src, tgt);
        TranslatorCache::get_or_synthesize(SynthesisConfig::new(src, tgt), &tests)
            .expect("synthesis")
    }

    #[test]
    fn compiled_output_is_byte_identical_over_the_full_corpus() {
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
        let outcome = outcome_for(src, tgt);
        let compiled = StreamBackend.lower(&outcome.translator).expect("lower");
        let skeleton = Skeleton::new(tgt);
        for test in oracle_corpus(src, tgt) {
            let interp = skeleton
                .translate_module(&test.module, &outcome.translator)
                .expect("interpreted");
            let fast = skeleton
                .translate_module(&test.module, &compiled)
                .expect("compiled");
            assert_eq!(
                siro_ir::write::write_module(&interp),
                siro_ir::write::write_module(&fast),
                "tier divergence on `{}`",
                test.name
            );
        }
    }

    #[test]
    fn errors_are_identical_across_tiers() {
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
        let outcome = outcome_for(src, tgt);
        let compiled = StreamBackend.lower(&outcome.translator).expect("lower");
        // A kind the translator has never seen: strip one kind out and
        // translate a module using it.
        let mut stripped = outcome.translator.clone();
        stripped.kinds.remove(&Opcode::Ret);
        let recompiled = StreamBackend.lower(&stripped).expect("lower");
        let mut m = Module::new("m", src);
        let i32t = m.types.i32();
        let f = siro_ir::FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = siro_ir::FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        b.ret(Some(ValueRef::const_int(i32t, 7)));
        let skeleton = Skeleton::new(tgt);
        let interp_err = skeleton.translate_module(&m, &stripped).unwrap_err();
        let fast_err = skeleton.translate_module(&m, &recompiled).unwrap_err();
        assert_eq!(interp_err, fast_err);
        // And with the full translator both succeed identically.
        let a = skeleton.translate_module(&m, &outcome.translator).unwrap();
        let b2 = skeleton.translate_module(&m, &compiled).unwrap();
        assert_eq!(
            siro_ir::write::write_module(&a),
            siro_ir::write::write_module(&b2)
        );
    }

    #[test]
    fn cover_mismatch_degrades_not_panics() {
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
        let outcome = outcome_for(src, tgt);
        let mut broken = outcome.translator.clone();
        // Fabricate an arm whose guard names a predicate that does not
        // exist for the kind.
        let mut conj = PredConj::new();
        conj.insert("no_such_predicate".into(), PredValue::Bool(true));
        let program = broken
            .kinds
            .values()
            .flat_map(|kt| kt.arms.first())
            .map(|a| a.program.clone())
            .next()
            .expect("some program");
        broken.kinds.insert(
            program.kind,
            KindTranslator {
                arms: vec![TranslatorArm {
                    covers: vec![conj],
                    program,
                }],
            },
        );
        let err = StreamBackend.lower(&broken).unwrap_err();
        assert!(matches!(err, CompileError::CoverMismatch { .. }), "{err}");
    }

    #[test]
    fn ill_typed_program_fails_to_lower() {
        let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
        let outcome = outcome_for(src, tgt);
        let mut broken = outcome.translator.clone();
        let kind = *broken.kinds.keys().next().expect("kinds");
        broken.kinds.insert(
            kind,
            KindTranslator::single(ApiProgram {
                kind,
                steps: vec![ApiCall {
                    api: ApiId(0),
                    args: vec![Reg::Step(5)],
                }],
            }),
        );
        let err = StreamBackend.lower(&broken).unwrap_err();
        assert!(matches!(err, CompileError::IllTyped { .. }), "{err}");
    }

    #[test]
    fn tiered_translate_serves_the_interpreters_bytes_from_the_compiled_tier() {
        let (src, tgt) = (IrVersion::V12_0, IrVersion::V3_6);
        let outcome = outcome_for(src, tgt);
        let tests = oracle_corpus(src, tgt);
        let before = compile_stats();
        let tiered = translate_module_owned_tiered(&outcome, tgt, tests[0].module.clone()).unwrap();
        assert!(
            compile_stats().translations_compiled > before.translations_compiled,
            "the compiled tier must serve a translator that lowers"
        );
        let interpreted = Skeleton::new(tgt)
            .translate_module(&tests[0].module, &outcome.translator)
            .unwrap();
        assert_eq!(
            siro_ir::write::write_module(&tiered),
            siro_ir::write::write_module(&interpreted)
        );
    }

    /// What lowering bound for one compiled kind.
    struct Census {
        arms: usize,
        /// Steps bound to a micro-op (literals, operand translators,
        /// getters, builders).
        micro: usize,
        /// Steps left as pre-resolved `ApiFn` calls.
        calls: usize,
        fused: usize,
        templates: usize,
        /// `get:<getter>` for every getter bound as a step or a predicate,
        /// `build:<builder>` for every builder micro-op.
        labels: Vec<String>,
    }

    fn variant(d: &dyn std::fmt::Debug) -> String {
        let s = format!("{d:?}");
        s.split(['(', ' ']).next().unwrap_or_default().to_string()
    }

    fn census(k: &CompiledKind) -> Census {
        let mut c = Census {
            arms: k.arms.len(),
            micro: 0,
            calls: 0,
            fused: 0,
            templates: 0,
            labels: Vec::new(),
        };
        for p in k.preds.iter() {
            c.labels.push(format!("get:{}", variant(&p.getter)));
        }
        for arm in k.arms.iter() {
            c.templates += usize::from(arm.tmpl.is_some());
            for step in arm.steps.iter() {
                match step {
                    StepOp::Call { .. } => {
                        c.calls += 1;
                        continue;
                    }
                    StepOp::Getter(g, _) => c.labels.push(format!("get:{}", variant(g))),
                    StepOp::Build { b, fused, .. } => {
                        c.labels.push(format!("build:{}", variant(b)));
                        c.fused += usize::from(fused.is_some());
                    }
                    _ => {}
                }
                c.micro += 1;
            }
        }
        c
    }

    /// Programs over the 13.0 -> 12.0 registry that use the specific
    /// getters synthesis never picks (it prefers `get_operand` and
    /// `get_block_operand`), one `true`-guarded arm per entry. Each step
    /// names a component and its argument registers.
    fn hand_written(reg: &Arc<ApiRegistry>) -> SynthesizedTranslator {
        use Opcode::*;
        type Steps = &'static [(&'static str, &'static [Reg])];
        const I: Reg = Reg::Input;
        const fn s(i: usize) -> Reg {
            Reg::Step(i)
        }
        const PROGRAMS: [(Opcode, Steps); 13] = [
            (
                Ret,
                &[
                    ("get_return_value", &[I]),
                    ("translate_value", &[s(0)]),
                    ("create_ret", &[s(1)]),
                ],
            ),
            (
                Br,
                &[
                    ("get_condition", &[I]),
                    ("translate_value", &[s(0)]),
                    ("const_0", &[]),
                    ("get_successor", &[I, s(2)]),
                    ("translate_block", &[s(3)]),
                    ("const_1", &[]),
                    ("get_successor", &[I, s(5)]),
                    ("translate_block", &[s(6)]),
                    ("create_cond_br", &[s(1), s(4), s(7)]),
                ],
            ),
            (
                Switch,
                &[
                    ("const_0", &[]),
                    ("get_operand", &[I, s(0)]),
                    ("translate_value", &[s(1)]),
                    ("get_default_dest", &[I]),
                    ("translate_block", &[s(3)]),
                    ("get_cases", &[I]),
                    ("translate_cases", &[s(5)]),
                    ("create_switch", &[s(2), s(4), s(6)]),
                ],
            ),
            (
                IndirectBr,
                &[
                    ("get_address", &[I]),
                    ("translate_value", &[s(0)]),
                    ("get_destinations", &[I]),
                    ("translate_blocks", &[s(2)]),
                    ("create_indirect_br", &[s(1), s(3)]),
                ],
            ),
            (
                Call,
                &[
                    ("get_callee_type", &[I]),
                    ("translate_type", &[s(0)]),
                    ("get_called_operand", &[I]),
                    ("translate_value", &[s(2)]),
                    ("get_arguments", &[I]),
                    ("translate_values", &[s(4)]),
                    ("create_call", &[s(1), s(3), s(5)]),
                ],
            ),
            (
                Invoke,
                &[
                    ("get_callee_type", &[I]),
                    ("translate_type", &[s(0)]),
                    ("get_called_function", &[I]),
                    ("translate_value", &[s(2)]),
                    ("get_arguments", &[I]),
                    ("translate_values", &[s(4)]),
                    ("get_normal_dest", &[I]),
                    ("translate_block", &[s(6)]),
                    ("get_unwind_dest", &[I]),
                    ("translate_block", &[s(8)]),
                    ("create_invoke", &[s(1), s(3), s(5), s(7), s(9)]),
                ],
            ),
            (
                CallBr,
                &[
                    ("get_callee_type", &[I]),
                    ("translate_type", &[s(0)]),
                    ("get_called_operand", &[I]),
                    ("translate_value", &[s(2)]),
                    ("get_arguments", &[I]),
                    ("translate_values", &[s(4)]),
                    ("get_fallthrough_dest", &[I]),
                    ("translate_block", &[s(6)]),
                    ("get_indirect_dests", &[I]),
                    ("translate_blocks", &[s(8)]),
                    ("create_callbr", &[s(1), s(3), s(5), s(7), s(9)]),
                ],
            ),
            (
                ICmp,
                &[
                    ("get_predicate", &[I]),
                    ("get_lhs", &[I]),
                    ("translate_value", &[s(1)]),
                    ("get_rhs", &[I]),
                    ("translate_value", &[s(3)]),
                    ("create_icmp", &[s(0), s(2), s(4)]),
                ],
            ),
            (
                Store,
                &[
                    ("get_value_operand", &[I]),
                    ("translate_value", &[s(0)]),
                    ("get_pointer_operand", &[I]),
                    ("translate_value", &[s(2)]),
                    ("create_store", &[s(1), s(3)]),
                ],
            ),
            (
                Load,
                &[
                    ("get_result_type", &[I]),
                    ("translate_type", &[s(0)]),
                    ("get_pointer_operand", &[I]),
                    ("translate_value", &[s(2)]),
                    ("create_load", &[s(1), s(3)]),
                ],
            ),
            (
                GetElementPtr,
                &[
                    ("get_source_element_type", &[I]),
                    ("translate_type", &[s(0)]),
                    ("get_pointer_operand", &[I]),
                    ("translate_value", &[s(2)]),
                    ("get_indices", &[I]),
                    ("translate_values", &[s(4)]),
                    ("create_gep", &[s(1), s(3), s(5)]),
                ],
            ),
            // The same builder with a translating step between the index
            // list and the builder, which list fusion must leave alone.
            (
                GetElementPtr,
                &[
                    ("get_source_element_type", &[I]),
                    ("translate_type", &[s(0)]),
                    ("get_indices", &[I]),
                    ("translate_values", &[s(2)]),
                    ("get_pointer_operand", &[I]),
                    ("translate_value", &[s(4)]),
                    ("create_gep", &[s(1), s(5), s(3)]),
                ],
            ),
            (
                CatchRet,
                &[
                    ("get_dest", &[I]),
                    ("translate_block", &[s(0)]),
                    ("create_catchret", &[s(1)]),
                ],
            ),
        ];
        let mut t = SynthesizedTranslator::new(Arc::clone(reg));
        for (kind, steps) in PROGRAMS {
            let steps = steps
                .iter()
                .map(|&(name, args)| ApiCall {
                    api: reg
                        .find_for_kind(name, kind)
                        .or_else(|| reg.find(name))
                        .unwrap_or_else(|| panic!("no component `{name}`")),
                    args: args.to_vec(),
                })
                .collect();
            let arms = &mut t
                .kinds
                .entry(kind)
                .or_insert(KindTranslator { arms: Vec::new() })
                .arms;
            arms.push(TranslatorArm {
                covers: Vec::new(),
                program: ApiProgram { kind, steps },
            });
        }
        t
    }

    /// Pins what lowering binds, one line per compiled kind: arms, steps
    /// bound to a micro-op and steps left as `ApiFn` calls, fused lists,
    /// arms with a mirror template, `skip_preds` and `mirror_ok`. The
    /// byte-identity tests cannot see a component that silently falls back
    /// to a generic call; this golden can. Covers tab4_large's three
    /// translators, the adjacent 17.0 -> 15.0 (explicit-type builders,
    /// `freeze`, `callbr`, `catchswitch`), and hand-written 13.0 -> 12.0
    /// programs for the getters synthesis never picks; together they bind
    /// every getter and builder micro-op at least once.
    ///
    /// Regenerate with `SIRO_REGEN_GOLDEN=1 cargo test -p siro-synth --lib
    /// lowering_binds`.
    #[test]
    fn lowering_binds_what_the_golden_pins() {
        use std::fmt::Write as _;
        let mut rendered = String::new();
        let mut bound = std::collections::BTreeSet::new();
        let mut render = |label: &str, compiled: &CompiledTranslator| {
            for kind in compiled.compiled_kinds() {
                let SlotAction::Kind(k) = &compiled.table[kind as usize] else {
                    unreachable!("compiled_kinds lists compiled slots");
                };
                let c = census(k);
                writeln!(
                    rendered,
                    "{label} {kind}: arms {}, steps {} bound + {} calls, fused {}, \
                     templates {}, skip_preds {}, mirror_ok {}",
                    c.arms, c.micro, c.calls, c.fused, c.templates, k.skip_preds, k.mirror_ok
                )
                .unwrap();
                bound.extend(c.labels);
            }
        };
        for (src, tgt) in [
            (IrVersion::V12_0, IrVersion::V3_6),
            (IrVersion::V13_0, IrVersion::V3_6),
            (IrVersion::V17_0, IrVersion::V3_6),
            (IrVersion::V17_0, IrVersion::V15_0),
        ] {
            let outcome = outcome_for(src, tgt);
            let compiled = StreamBackend.lower(&outcome.translator).expect("lower");
            render(&format!("{src}->{tgt}"), &compiled);
        }
        let reg = Arc::new(ApiRegistry::for_pair(IrVersion::V13_0, IrVersion::V12_0));
        let hand = StreamBackend.lower(&hand_written(&reg)).expect("lower");
        render("hand 13.0->12.0", &hand);

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lowering.txt");
        if std::env::var_os("SIRO_REGEN_GOLDEN").is_some() {
            std::fs::write(path, &rendered).expect("write golden");
        }
        let golden = std::fs::read_to_string(path).expect("read golden");
        for (n, (got, want)) in (1usize..).zip(rendered.lines().zip(golden.lines())) {
            assert_eq!(got, want, "lowering golden drifted at line {n}");
        }
        assert_eq!(rendered.len(), golden.len(), "lowering golden length");

        let getters = [
            "Operand",
            "OperandType",
            "ResultType",
            "BlockOperand",
            "Successor",
            "IsUnconditional",
            "Condition",
            "IsVoidReturn",
            "ReturnValue",
            "DefaultDest",
            "Cases",
            "Address",
            "Destinations",
            "Callee",
            "CalledFunction",
            "Arguments",
            "CalleeType",
            "NormalDest",
            "UnwindDest",
            "FallthroughDest",
            "IndirectDests",
            "IsTailCall",
            "IsIndirectCall",
            "IntPredicateOf",
            "FloatPredicateOf",
            "Lhs",
            "Rhs",
            "AllocatedType",
            "PointerOperand",
            "IsVolatile",
            "ValueOperand",
            "SourceElementType",
            "GepIndices",
            "IsInbounds",
            "OrderingOf",
            "RmwOperation",
            "IndexPath",
            "ShuffleMask",
            "Incoming",
            "IsCleanup",
            "Handlers",
            "Dest",
        ];
        let builders = [
            "Ret",
            "RetVoid",
            "Br",
            "CondBr",
            "Switch",
            "CallImplicit",
            "CallExplicit",
            "Unreachable",
            "Bin",
            "FNeg",
            "Alloca",
            "LoadExplicit",
            "LoadImplicit",
            "Store",
            "GepExplicit",
            "GepImplicit",
            "Cast",
            "ICmp",
            "FCmp",
            "Phi",
            "Select",
            "Freeze",
        ];
        assert_eq!((getters.len(), builders.len()), (42, 22));
        let want: std::collections::BTreeSet<String> = getters
            .iter()
            .map(|g| format!("get:{g}"))
            .chain(builders.iter().map(|b| format!("build:{b}")))
            .collect();
        let missing: Vec<_> = want.difference(&bound).collect();
        assert!(missing.is_empty(), "never bound to a micro-op: {missing:?}");
        let unknown: Vec<_> = bound.difference(&want).collect();
        assert!(unknown.is_empty(), "unlisted micro-ops: {unknown:?}");
    }
}
