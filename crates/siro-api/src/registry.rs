//! The versioned API registry: every IR-library function the synthesizer may
//! compose, with its typed signature.
//!
//! [`ApiRegistry::for_pair`] assembles, for one `(source, target)` version
//! pair, the three component families of §3.3.1: source-side **IR getters**,
//! target-side **IR builders**, and the skeleton's **operand translators**
//! (`translate_value` / `translate_block` / `translate_type` / ...), plus the
//! constant providers needed for indexed getters. Component names and
//! signatures are *version-dependent* — the API incompatibility the paper's
//! synthesis overcomes (e.g. `create_invoke` requires an explicit function
//! type from 9.0 on, and the call-target getter renames at 11.0).

use std::fmt;
use std::sync::Arc;

use siro_ir::{BlockId, Instruction, IrVersion, Opcode, TypeId, ValueRef};

use crate::builders::Builder;
use crate::ctx::{ExecEnv, TranslationCtx};
use crate::error::{ApiError, ApiResult};
use crate::getters::Getter;
use crate::value::{ApiType, ApiValue, PredValue, Side};

/// The conjunction of all sub-kind predicate values of one instruction
/// (the σ& of Def. 4.3), keyed by predicate-getter name.
pub type PredConj = std::collections::BTreeMap<String, PredValue>;

/// Handle to a component inside an [`ApiRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ApiId(pub u32);

/// Which family a component belongs to (Tab. 2 / Def. 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApiKind {
    /// Source-version IR getter.
    Getter,
    /// Target-version IR builder.
    Builder,
    /// Operand-translator interface exposed by the skeleton.
    OperandTranslator,
    /// A constant provider (small integer literals for indexed getters).
    Const,
}

/// Which component a registry entry is. Each descriptor names one body
/// in this crate, which [`ApiFn::call`] runs for the interpreter and
/// synthesis and which the compiled tier calls directly from the micro-op
/// it binds by this descriptor. Entries without one (the invoke, atomic,
/// vector, aggregate and exception-handling builders) are reached through
/// [`ApiFn::call`] only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// A constant provider returning this literal.
    Const(u32),
    /// An operand translator.
    Translate(Translator),
    /// A source getter.
    Get(Getter),
    /// A target builder.
    Build(Builder),
}

impl Component {
    fn kind(self) -> ApiKind {
        match self {
            Component::Const(_) => ApiKind::Const,
            Component::Translate(_) => ApiKind::OperandTranslator,
            Component::Get(_) => ApiKind::Getter,
            Component::Build(_) => ApiKind::Builder,
        }
    }

    /// Runs the body on the interpreter's arguments.
    fn call(self, ctx: &mut TranslationCtx<'_>, args: &[ApiValue]) -> ApiResult<ApiValue> {
        match self {
            Component::Const(v) => Ok(ApiValue::U32(v)),
            Component::Translate(t) => t.translate(ctx, args.first()),
            Component::Get(g) => {
                let inst = inst_arg(ctx, args, 0)?;
                let index = if g.indexed() { u32_arg(args, 1)? } else { 0 };
                g.get(inst, index, &mut ctx.src_scope())
            }
            Component::Build(b) => b.build(ctx, args).map(ApiValue::TgtValue),
        }
    }
}

type ApiImpl =
    Arc<dyn Fn(&mut TranslationCtx<'_>, &[ApiValue]) -> ApiResult<ApiValue> + Send + Sync>;

#[derive(Clone)]
enum Body {
    Component(Component),
    Closure(ApiImpl),
}

/// One typed API component.
#[derive(Clone)]
pub struct ApiFn {
    /// Version-dependent component name, e.g. `get_called_operand`.
    pub name: String,
    /// Component family.
    pub kind: ApiKind,
    /// Parameter types.
    pub params: Vec<ApiType>,
    /// Return type.
    pub ret: ApiType,
    /// Whether this getter is a sub-kind predicate source (bool/enum getter
    /// in the sense of Def. 3.1).
    pub is_predicate: bool,
    body: Body,
}

impl fmt::Debug for ApiFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ") -> {}", self.ret)
    }
}

impl ApiFn {
    /// Executes the component.
    ///
    /// # Errors
    ///
    /// Propagates the component's [`ApiError`].
    pub fn call(&self, ctx: &mut TranslationCtx<'_>, args: &[ApiValue]) -> ApiResult<ApiValue> {
        match &self.body {
            Body::Component(c) => c.call(ctx, args),
            Body::Closure(run) => run(ctx, args),
        }
    }

    /// Which component this is, when its body can be called directly.
    pub fn component(&self) -> Option<Component> {
        match self.body {
            Body::Component(c) => Some(c),
            Body::Closure(_) => None,
        }
    }
}

/// All components available for one `(source, target)` version pair.
#[derive(Debug, Clone)]
pub struct ApiRegistry {
    /// Source version (getter side).
    pub src_version: IrVersion,
    /// Target version (builder side).
    pub tgt_version: IrVersion,
    fns: Vec<ApiFn>,
}

impl ApiRegistry {
    /// Builds the registry for a version pair.
    pub fn for_pair(src_version: IrVersion, tgt_version: IrVersion) -> Self {
        let mut reg = ApiRegistry {
            src_version,
            tgt_version,
            fns: Vec::new(),
        };
        for i in 0..3u32 {
            reg.add(
                format!("const_{i}"),
                vec![],
                ApiType::U32,
                Component::Const(i),
            );
        }
        reg.register_operand_translators();
        crate::getters::register(&mut reg);
        crate::builders::register(&mut reg);
        reg
    }

    /// Registers a component with a body in this crate. The sub-kind
    /// predicates are exactly the getters that return `bool`.
    pub(crate) fn add(
        &mut self,
        name: impl Into<String>,
        params: Vec<ApiType>,
        ret: ApiType,
        c: Component,
    ) {
        let is_predicate = matches!(c, Component::Get(_)) && ret == ApiType::Bool;
        self.push(
            name,
            c.kind(),
            params,
            ret,
            is_predicate,
            Body::Component(c),
        );
    }

    /// Registers a builder whose body is `run` alone.
    pub(crate) fn add_builder_fn(
        &mut self,
        name: impl Into<String>,
        params: Vec<ApiType>,
        ret: ApiType,
        run: impl Fn(&mut TranslationCtx<'_>, &[ApiValue]) -> ApiResult<ApiValue>
            + Send
            + Sync
            + 'static,
    ) {
        let body = Body::Closure(Arc::new(run));
        self.push(name, ApiKind::Builder, params, ret, false, body);
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        kind: ApiKind,
        params: Vec<ApiType>,
        ret: ApiType,
        is_predicate: bool,
        body: Body,
    ) {
        self.fns.push(ApiFn {
            name: name.into(),
            kind,
            params,
            ret,
            is_predicate,
            body,
        });
    }

    /// The component behind `id`.
    pub fn get(&self, id: ApiId) -> &ApiFn {
        &self.fns[id.0 as usize]
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// Iterates over `(id, component)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ApiId, &ApiFn)> {
        self.fns
            .iter()
            .enumerate()
            .map(|(i, f)| (ApiId(i as u32), f))
    }

    /// All predicate getters applicable to instructions of `kind` (the Σ
    /// alphabet of Def. 3.1 for that kind).
    pub fn predicates_for(&self, kind: Opcode) -> Vec<ApiId> {
        self.iter()
            .filter(|(_, f)| {
                f.is_predicate
                    && f.params.len() == 1
                    && f.params[0] == ApiType::Inst(kind, Side::Source)
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// All builders producing instructions of `kind`.
    pub fn builders_for(&self, kind: Opcode) -> Vec<ApiId> {
        self.iter()
            .filter(|(_, f)| {
                f.kind == ApiKind::Builder && f.ret == ApiType::Inst(kind, Side::Target)
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Finds a component by exact name (first match).
    pub fn find(&self, name: &str) -> Option<ApiId> {
        self.iter().find(|(_, f)| f.name == name).map(|(id, _)| id)
    }

    /// Finds a component by name whose first parameter accepts source
    /// instructions of `kind`.
    pub fn find_for_kind(&self, name: &str, kind: Opcode) -> Option<ApiId> {
        self.iter()
            .find(|(_, f)| {
                f.name == name
                    && f.params
                        .first()
                        .is_some_and(|p| p.accepts(ApiType::Inst(kind, Side::Source)))
            })
            .map(|(id, _)| id)
    }

    /// Evaluates every predicate getter of `kind` on one instruction — the
    /// conjunction σ& recorded by the sub-kind profiler (Def. 4.3).
    ///
    /// Keys are getter names so that conjunctions compare stably across
    /// registries of different version pairs.
    ///
    /// # Errors
    ///
    /// Propagates getter failures (which cannot normally happen for
    /// predicate getters).
    pub fn subkind_profile(
        &self,
        ctx: &mut TranslationCtx<'_>,
        kind: Opcode,
        inst: siro_ir::InstId,
    ) -> ApiResult<PredConj> {
        let mut conj = PredConj::new();
        for id in self.predicates_for(kind) {
            let f = self.get(id);
            let out = f.call(ctx, &[ApiValue::SrcInst(inst)])?;
            let pv = out
                .as_pred()
                .ok_or_else(|| ApiError::Type(format!("{} is not a predicate", f.name)))?;
            conj.insert(f.name.clone(), pv);
        }
        Ok(conj)
    }

    fn register_operand_translators(&mut self) {
        use ApiType as A;
        use Translator as X;
        let (s, t) = (Side::Source, Side::Target);
        for (name, param, ret, x) in [
            ("translate_value", A::Value(s), A::Value(t), X::Value),
            ("translate_block", A::Block(s), A::Block(t), X::Block),
            ("translate_type", A::TypeRef(s), A::TypeRef(t), X::Type),
            (
                "translate_values",
                A::ValueList(s),
                A::ValueList(t),
                X::Values,
            ),
            (
                "translate_blocks",
                A::BlockList(s),
                A::BlockList(t),
                X::Blocks,
            ),
            ("translate_cases", A::CaseList(s), A::CaseList(t), X::Cases),
            (
                "translate_incoming",
                A::PhiList(s),
                A::PhiList(t),
                X::Incoming,
            ),
        ] {
            self.add(name, vec![param], ret, Component::Translate(x));
        }
    }
}

/// The skeleton's operand translators (Tab. 2): the environment's value,
/// block and type translation, lifted over lists, switch cases and phi
/// incomings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translator {
    /// `translate_value`.
    Value,
    /// `translate_block`.
    Block,
    /// `translate_type`.
    Type,
    /// `translate_values`.
    Values,
    /// `translate_blocks`.
    Blocks,
    /// `translate_cases`.
    Cases,
    /// `translate_incoming`.
    Incoming,
}

impl Translator {
    /// Translates the source operand `arg` (the component's only argument)
    /// through `env`.
    ///
    /// # Errors
    ///
    /// A type error when `arg` is not the source operand this translator
    /// takes, else the first failed translation.
    #[inline]
    pub fn translate<E: ExecEnv>(self, env: &mut E, arg: Option<&ApiValue>) -> ApiResult<ApiValue> {
        use Translator as X;
        const S: Side = Side::Source;
        const T: Side = Side::Target;
        Ok(match (self, arg) {
            (X::Value, Some(ApiValue::SrcValue(v))) => ApiValue::TgtValue(env.translate_value(*v)?),
            (X::Value, other) => {
                return Err(ApiError::Type(format!(
                    "arg 0: expected source value, got {other:?}"
                )))
            }
            (X::Block, Some(ApiValue::SrcBlock(b))) => ApiValue::TgtBlock(env.translate_block(*b)?),
            (X::Type, Some(ApiValue::SrcType(t))) => ApiValue::TgtType(env.translate_type(*t)),
            (X::Values, Some(ApiValue::Values(S, vs))) => {
                let mut out = Vec::with_capacity(vs.len());
                translate_values_into(env, vs, &mut out)?;
                ApiValue::Values(T, out)
            }
            (X::Blocks, Some(ApiValue::Blocks(S, bs))) => {
                let mut out = Vec::with_capacity(bs.len());
                for &b in bs {
                    out.push(env.translate_block(b)?);
                }
                ApiValue::Blocks(T, out)
            }
            (X::Cases, Some(ApiValue::Cases(S, cs))) => {
                ApiValue::Cases(T, translate_pairs(env, cs)?)
            }
            (X::Incoming, Some(ApiValue::Phis(S, ps))) => {
                ApiValue::Phis(T, translate_pairs(env, ps)?)
            }
            (x, _) => {
                let expected = match x {
                    X::Block => "expected source block",
                    X::Type => "expected source type",
                    X::Values => "expected source value list",
                    X::Blocks => "expected source block list",
                    X::Cases => "expected source case list",
                    _ => "expected source phi list",
                };
                return Err(ApiError::Type(expected.into()));
            }
        })
    }
}

/// Translates `(value, block)` pairs: switch cases and phi incomings.
fn translate_pairs<E: ExecEnv>(
    env: &mut E,
    pairs: &[(ValueRef, BlockId)],
) -> ApiResult<Vec<(ValueRef, BlockId)>> {
    let mut out = Vec::with_capacity(pairs.len());
    for &(v, b) in pairs {
        out.push((env.translate_value(v)?, env.translate_block(b)?));
    }
    Ok(out)
}

/// `translate_values`'s loop, appending to `out`: a fused list runs it
/// straight into a builder's operand vector.
pub(crate) fn translate_values_into<E: ExecEnv>(
    env: &mut E,
    src: &[ValueRef],
    out: &mut Vec<ValueRef>,
) -> ApiResult<()> {
    for &v in src {
        out.push(env.translate_value(v)?);
    }
    Ok(())
}

// ---- Positional arguments ------------------------------------------------

/// A component's positional arguments, wherever they live: the
/// interpreter passes a slice of values, the compiled tier a view of its
/// pre-bound step registers. The extractors below read either, so both
/// produce the same `arg {i}: expected …` errors.
pub trait Args {
    /// The argument at position `i`.
    fn arg(&self, i: usize) -> Option<&ApiValue>;

    /// The source operands a builder's value-list argument was fused from,
    /// if any: the builder then translates them straight into its operand
    /// vector instead of reading a translated list (the compiled tier's
    /// list fusion).
    fn fused_list(&self) -> Option<&[ValueRef]> {
        None
    }
}

impl Args for [ApiValue] {
    fn arg(&self, i: usize) -> Option<&ApiValue> {
        self.get(i)
    }
}

/// Extracts the source instruction handle at position `i`.
pub(crate) fn inst_id_arg(args: &[ApiValue], i: usize) -> ApiResult<siro_ir::InstId> {
    match args.get(i) {
        Some(ApiValue::SrcInst(id)) => Ok(*id),
        other => Err(ApiError::Type(format!(
            "arg {i}: expected source instruction, got {other:?}"
        ))),
    }
}

/// Borrows the source instruction at position `i` from the current source
/// function. The borrow is of the source module, not of `ctx`.
pub(crate) fn inst_arg<'s>(
    ctx: &TranslationCtx<'s>,
    args: &[ApiValue],
    i: usize,
) -> ApiResult<&'s Instruction> {
    let id = inst_id_arg(args, i)?;
    let src: &'s siro_ir::Module = ctx.src;
    let f = ctx
        .src_func_id()
        .ok_or_else(|| ApiError::Missing("no current source function".into()))?;
    Ok(src.func(f).inst(id))
}

/// Extracts a `u32` literal at position `i`.
pub(crate) fn u32_arg(args: &[ApiValue], i: usize) -> ApiResult<u32> {
    match args.get(i) {
        Some(ApiValue::U32(v)) => Ok(*v),
        other => Err(ApiError::Type(format!(
            "arg {i}: expected u32, got {other:?}"
        ))),
    }
}

/// Extracts a target value at position `i`.
pub(crate) fn tgt_value_arg<A: Args + ?Sized>(args: &A, i: usize) -> ApiResult<ValueRef> {
    match args.arg(i) {
        Some(ApiValue::TgtValue(v)) => Ok(*v),
        other => Err(ApiError::Type(format!(
            "arg {i}: expected target value, got {other:?}"
        ))),
    }
}

/// Extracts a target block at position `i`.
pub(crate) fn tgt_block_arg<A: Args + ?Sized>(args: &A, i: usize) -> ApiResult<BlockId> {
    match args.arg(i) {
        Some(ApiValue::TgtBlock(b)) => Ok(*b),
        other => Err(ApiError::Type(format!(
            "arg {i}: expected target block, got {other:?}"
        ))),
    }
}

/// Extracts a target type at position `i`.
pub(crate) fn tgt_type_arg<A: Args + ?Sized>(args: &A, i: usize) -> ApiResult<TypeId> {
    match args.arg(i) {
        Some(ApiValue::TgtType(t)) => Ok(*t),
        other => Err(ApiError::Type(format!(
            "arg {i}: expected target type, got {other:?}"
        ))),
    }
}

/// Borrows a target value list at position `i`.
pub(crate) fn tgt_values_arg<A: Args + ?Sized>(args: &A, i: usize) -> ApiResult<&[ValueRef]> {
    match args.arg(i) {
        Some(ApiValue::Values(Side::Target, vs)) => Ok(vs),
        other => Err(ApiError::Type(format!(
            "arg {i}: expected target value list, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_for_every_catalog_pair() {
        for &s in &IrVersion::CATALOG {
            for &t in &IrVersion::CATALOG {
                let r = ApiRegistry::for_pair(s, t);
                assert!(
                    r.len() > 100,
                    "registry for {s}->{t} too small: {}",
                    r.len()
                );
            }
        }
    }

    #[test]
    fn operand_translators_present() {
        let r = ApiRegistry::for_pair(IrVersion::V13_0, IrVersion::V3_6);
        for n in [
            "translate_value",
            "translate_block",
            "translate_type",
            "translate_values",
            "translate_cases",
            "translate_incoming",
        ] {
            assert!(r.find(n).is_some(), "missing {n}");
        }
    }

    #[test]
    fn call_target_getter_renamed_at_11() {
        for (src, old) in [
            (IrVersion::V5_0, true),
            (IrVersion::V10_0, true),
            (IrVersion::V11_0, false),
            (IrVersion::V13_0, false),
        ] {
            let r = ApiRegistry::for_pair(src, IrVersion::V3_6);
            assert_eq!(r.find("get_called_value").is_some(), old, "{src}");
            assert_eq!(r.find("get_called_operand").is_some(), !old, "{src}");
        }
    }

    #[test]
    fn builders_gated_by_target_version() {
        let down = ApiRegistry::for_pair(IrVersion::V13_0, IrVersion::V3_6);
        assert!(down.builders_for(Opcode::Freeze).is_empty());
        let up = ApiRegistry::for_pair(IrVersion::V3_6, IrVersion::V13_0);
        assert!(!up.builders_for(Opcode::Freeze).is_empty());
    }

    #[test]
    fn branch_predicates_found() {
        let r = ApiRegistry::for_pair(IrVersion::V13_0, IrVersion::V3_6);
        let preds = r.predicates_for(Opcode::Br);
        assert!(!preds.is_empty());
        assert!(preds.iter().any(|&p| r.get(p).name == "is_unconditional"));
    }
}
