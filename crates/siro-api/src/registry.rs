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

use siro_ir::{Instruction, IrVersion, Opcode, ValueRef};

use crate::ctx::TranslationCtx;
use crate::error::{ApiError, ApiResult};
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

type ApiImpl =
    Arc<dyn Fn(&mut TranslationCtx<'_>, &[ApiValue]) -> ApiResult<ApiValue> + Send + Sync>;

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
    run: ApiImpl,
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
        (self.run)(ctx, args)
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
        reg.register_consts();
        reg.register_operand_translators();
        crate::getters::register(&mut reg);
        crate::builders::register(&mut reg);
        reg
    }

    /// Registers one component; used by the getter/builder modules.
    pub(crate) fn add(
        &mut self,
        name: impl Into<String>,
        kind: ApiKind,
        params: Vec<ApiType>,
        ret: ApiType,
        is_predicate: bool,
        run: impl Fn(&mut TranslationCtx<'_>, &[ApiValue]) -> ApiResult<ApiValue>
            + Send
            + Sync
            + 'static,
    ) -> ApiId {
        let id = ApiId(self.fns.len() as u32);
        self.fns.push(ApiFn {
            name: name.into(),
            kind,
            params,
            ret,
            is_predicate,
            run: Arc::new(run),
        });
        id
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

    // ---- Built-in component groups ----------------------------------------

    fn register_consts(&mut self) {
        for i in 0..3u32 {
            self.add(
                format!("const_{i}"),
                ApiKind::Const,
                vec![],
                ApiType::U32,
                false,
                move |_, _| Ok(ApiValue::U32(i)),
            );
        }
    }

    fn register_operand_translators(&mut self) {
        self.add(
            "translate_value",
            ApiKind::OperandTranslator,
            vec![ApiType::Value(Side::Source)],
            ApiType::Value(Side::Target),
            false,
            |ctx, args| {
                let v = src_value_arg(args, 0)?;
                Ok(ApiValue::TgtValue(ctx.translate_value(v)?))
            },
        );
        self.add(
            "translate_block",
            ApiKind::OperandTranslator,
            vec![ApiType::Block(Side::Source)],
            ApiType::Block(Side::Target),
            false,
            |ctx, args| match args.first() {
                Some(ApiValue::SrcBlock(b)) => Ok(ApiValue::TgtBlock(ctx.translate_block(*b)?)),
                _ => Err(ApiError::Type("expected source block".into())),
            },
        );
        self.add(
            "translate_type",
            ApiKind::OperandTranslator,
            vec![ApiType::TypeRef(Side::Source)],
            ApiType::TypeRef(Side::Target),
            false,
            |ctx, args| match args.first() {
                Some(ApiValue::SrcType(t)) => Ok(ApiValue::TgtType(ctx.translate_type(*t))),
                _ => Err(ApiError::Type("expected source type".into())),
            },
        );
        self.add(
            "translate_values",
            ApiKind::OperandTranslator,
            vec![ApiType::ValueList(Side::Source)],
            ApiType::ValueList(Side::Target),
            false,
            |ctx, args| match args.first() {
                Some(ApiValue::Values(Side::Source, vs)) => {
                    let out: ApiResult<Vec<ValueRef>> =
                        vs.iter().map(|&v| ctx.translate_value(v)).collect();
                    Ok(ApiValue::Values(Side::Target, out?))
                }
                _ => Err(ApiError::Type("expected source value list".into())),
            },
        );
        self.add(
            "translate_blocks",
            ApiKind::OperandTranslator,
            vec![ApiType::BlockList(Side::Source)],
            ApiType::BlockList(Side::Target),
            false,
            |ctx, args| match args.first() {
                Some(ApiValue::Blocks(Side::Source, bs)) => {
                    let out: ApiResult<Vec<siro_ir::BlockId>> =
                        bs.iter().map(|&b| ctx.translate_block(b)).collect();
                    Ok(ApiValue::Blocks(Side::Target, out?))
                }
                _ => Err(ApiError::Type("expected source block list".into())),
            },
        );
        self.add(
            "translate_cases",
            ApiKind::OperandTranslator,
            vec![ApiType::CaseList(Side::Source)],
            ApiType::CaseList(Side::Target),
            false,
            |ctx, args| match args.first() {
                Some(ApiValue::Cases(Side::Source, cs)) => {
                    let out: ApiResult<Vec<(ValueRef, siro_ir::BlockId)>> = cs
                        .iter()
                        .map(|&(v, b)| Ok((ctx.translate_value(v)?, ctx.translate_block(b)?)))
                        .collect();
                    Ok(ApiValue::Cases(Side::Target, out?))
                }
                _ => Err(ApiError::Type("expected source case list".into())),
            },
        );
        self.add(
            "translate_incoming",
            ApiKind::OperandTranslator,
            vec![ApiType::PhiList(Side::Source)],
            ApiType::PhiList(Side::Target),
            false,
            |ctx, args| match args.first() {
                Some(ApiValue::Phis(Side::Source, ps)) => {
                    let out: ApiResult<Vec<(ValueRef, siro_ir::BlockId)>> = ps
                        .iter()
                        .map(|&(v, b)| Ok((ctx.translate_value(v)?, ctx.translate_block(b)?)))
                        .collect();
                    Ok(ApiValue::Phis(Side::Target, out?))
                }
                _ => Err(ApiError::Type("expected source phi list".into())),
            },
        );
    }
}

// ---- Shared argument-extraction helpers (used by getters/builders too) ----

/// Extracts the source instruction handle at position `i`.
pub(crate) fn inst_id_arg(args: &[ApiValue], i: usize) -> ApiResult<siro_ir::InstId> {
    match args.get(i) {
        Some(ApiValue::SrcInst(id)) => Ok(*id),
        other => Err(ApiError::Type(format!(
            "arg {i}: expected source instruction, got {other:?}"
        ))),
    }
}

/// Clones the source instruction at position `i` out of the current source
/// function.
pub(crate) fn inst_arg(
    ctx: &TranslationCtx<'_>,
    args: &[ApiValue],
    i: usize,
) -> ApiResult<Instruction> {
    let id = inst_id_arg(args, i)?;
    Ok(ctx.src_func()?.inst(id).clone())
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

/// Extracts a source value at position `i`.
pub(crate) fn src_value_arg(args: &[ApiValue], i: usize) -> ApiResult<ValueRef> {
    match args.get(i) {
        Some(ApiValue::SrcValue(v)) => Ok(*v),
        other => Err(ApiError::Type(format!(
            "arg {i}: expected source value, got {other:?}"
        ))),
    }
}

/// Extracts a target value at position `i`.
pub(crate) fn tgt_value_arg(args: &[ApiValue], i: usize) -> ApiResult<ValueRef> {
    match args.get(i) {
        Some(ApiValue::TgtValue(v)) => Ok(*v),
        other => Err(ApiError::Type(format!(
            "arg {i}: expected target value, got {other:?}"
        ))),
    }
}

/// Extracts a target block at position `i`.
pub(crate) fn tgt_block_arg(args: &[ApiValue], i: usize) -> ApiResult<siro_ir::BlockId> {
    match args.get(i) {
        Some(ApiValue::TgtBlock(b)) => Ok(*b),
        other => Err(ApiError::Type(format!(
            "arg {i}: expected target block, got {other:?}"
        ))),
    }
}

/// Extracts a target type at position `i`.
pub(crate) fn tgt_type_arg(args: &[ApiValue], i: usize) -> ApiResult<siro_ir::TypeId> {
    match args.get(i) {
        Some(ApiValue::TgtType(t)) => Ok(*t),
        other => Err(ApiError::Type(format!(
            "arg {i}: expected target type, got {other:?}"
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
