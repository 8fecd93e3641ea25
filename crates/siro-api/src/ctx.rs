//! The translation context: the state shared between the translation
//! skeleton and the API components while one module is being translated.
//!
//! It owns the target module under construction and the correspondence maps
//! between source and target IR entities. Functions, globals, types,
//! blocks and instruction results are dense arena indices, so each of
//! their maps is a flat vector; the instruction-result map is the one
//! [`TranslationCtx::begin_function`] sizes to the source function. The
//! skeleton, whatever instruction translator it runs, and synthesis's
//! candidate probes and profiling all read that one map. Forward
//! references are handled with placeholder values exactly as §5
//! ("Handling IR Value Dependence") describes: an untranslated operand
//! yields a [`ValueRef::Placeholder`], and once the operand is translated
//! every use is patched.

use std::collections::HashMap;

use siro_ir::infer::Scope;
use siro_ir::{
    AsmId, BlockId, FuncId, Function, Global, GlobalId, InlineAsm, InstId, Instruction, IrVersion,
    Module, Param, Type, TypeId, TypeTable, ValueRef,
};

use crate::error::{ApiError, ApiResult};
use crate::registry::ApiFn;
use crate::value::ApiValue;

/// Mutable translation state threaded through every API component.
#[derive(Debug)]
pub struct TranslationCtx<'s> {
    /// The source module (read-only).
    pub src: &'s Module,
    /// A mutable scratch copy of the source type table. It starts as an
    /// exact clone (so every source [`TypeId`] stays valid) and lets getters
    /// intern *new* source-side types (e.g. the callee function type
    /// required by post-9.0 builders, Fig. 13).
    pub src_types: TypeTable,
    /// The target module being built.
    pub tgt: Module,
    src_func: Option<FuncId>,
    tgt_func: Option<FuncId>,
    cur_block: Option<BlockId>,
    // Module-level maps.
    // Source func/global ids are dense arena indices, so these maps are
    // direct-indexed: `translate_value` hits `func_map` on every call
    // operand and a hash probe there is measurable on the translate span.
    func_map: Vec<Option<FuncId>>,
    global_map: Vec<Option<GlobalId>>,
    asm_map: HashMap<siro_ir::AsmId, siro_ir::AsmId>,
    // Source `TypeId`s are dense table indices, so the type-translation
    // cache is a flat vector probe instead of a hash map. Sized to the
    // source table up front; getters may intern new source types later, so
    // inserts still resize on demand.
    type_cache: Vec<Option<TypeId>>,
    // Per-function maps (reset by `begin_function`). Source instruction
    // ids are dense per-function indices, so the instruction-result map is
    // a flat vector probe like the module-level maps: `translate_value`
    // reads it for every instruction operand.
    value_map: Vec<Option<ValueRef>>,
    // Blocks are dense per-function indices too: same flat-probe scheme.
    block_map: Vec<Option<BlockId>>,
    pending: HashMap<InstId, u32>,
    placeholder_types: HashMap<u32, TypeId>,
    next_placeholder: u32,
    warnings: Vec<String>,
}

impl<'s> TranslationCtx<'s> {
    /// Starts a translation of `src` into a fresh module of
    /// `target_version`.
    pub fn new(src: &'s Module, target_version: IrVersion) -> Self {
        let mut tgt = Module::new(src.name.clone(), target_version);
        // The target ends up with one function/global per source entry;
        // pre-sizing avoids re-moving the arenas as signatures are cloned.
        tgt.funcs.reserve(src.funcs.len());
        tgt.globals.reserve(src.globals.len());
        TranslationCtx {
            src,
            src_types: src.types.clone(),
            tgt,
            src_func: None,
            tgt_func: None,
            cur_block: None,
            func_map: vec![None; src.func_ids().count()],
            global_map: vec![None; src.global_ids().count()],
            asm_map: HashMap::new(),
            type_cache: vec![None; src.types.len()],
            value_map: Vec::new(),
            block_map: Vec::new(),
            pending: HashMap::new(),
            placeholder_types: HashMap::new(),
            next_placeholder: 0,
            warnings: Vec::new(),
        }
    }

    /// The source function currently being translated.
    ///
    /// # Errors
    ///
    /// [`ApiError::Missing`] outside of a function translation.
    pub fn src_func(&self) -> ApiResult<&Function> {
        self.src_func
            .map(|f| self.src.func(f))
            .ok_or_else(|| ApiError::Missing("no current source function".into()))
    }

    /// Id of the current source function.
    pub fn src_func_id(&self) -> Option<FuncId> {
        self.src_func
    }

    /// Id of the current target function.
    pub fn tgt_func_id(&self) -> Option<FuncId> {
        self.tgt_func
    }

    /// Warnings accumulated so far (e.g. unseen predicates).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Records a warning.
    pub fn warn(&mut self, msg: impl Into<String>) {
        self.warnings.push(msg.into());
    }

    /// Consumes the context and yields the built target module.
    pub fn finish(self) -> Module {
        self.tgt
    }

    // ---- Module-level registration (used by the skeleton) ----------------

    /// Registers the target counterpart of a source function.
    pub fn map_func(&mut self, src: FuncId, tgt: FuncId) {
        let idx = src.index();
        if idx >= self.func_map.len() {
            self.func_map.resize(idx + 1, None);
        }
        self.func_map[idx] = Some(tgt);
    }

    /// Registers the target counterpart of a source global.
    pub fn map_global(&mut self, src: GlobalId, tgt: GlobalId) {
        let idx = src.index();
        if idx >= self.global_map.len() {
            self.global_map.resize(idx + 1, None);
        }
        self.global_map[idx] = Some(tgt);
    }

    /// Enters a new function: resets the per-function maps, sizes the
    /// instruction-result map to the source function's instruction count,
    /// and sets the current source/target pair.
    pub fn begin_function(&mut self, src: FuncId, tgt: FuncId) {
        // Reuse the previous function's buffer: modules average a handful
        // of instructions per function, so a fresh alloc per function is
        // measurable on the translate span.
        self.value_map.clear();
        self.value_map.resize(self.src.func(src).inst_count(), None);
        self.src_func = Some(src);
        self.tgt_func = Some(tgt);
        self.cur_block = None;
        self.block_map.clear();
        self.pending.clear();
        self.placeholder_types.clear();
    }

    /// Registers the target counterpart of a source block in the current
    /// function.
    pub fn map_block(&mut self, src: BlockId, tgt: BlockId) {
        let idx = src.index();
        if idx >= self.block_map.len() {
            self.block_map.resize(idx + 1, None);
        }
        self.block_map[idx] = Some(tgt);
    }

    /// Sets the builder insertion point in the target function.
    pub fn set_insertion(&mut self, block: BlockId) {
        self.cur_block = Some(block);
    }

    /// Records that source instruction `src` translated to target value
    /// `tgt`, patching any placeholders created by earlier forward
    /// references.
    pub fn note_translated(&mut self, src: InstId, tgt: ValueRef) -> ApiResult<()> {
        let idx = src.index();
        if idx >= self.value_map.len() {
            self.value_map.resize(idx + 1, None);
        }
        self.value_map[idx] = Some(tgt);
        // Forward references are rare; skip the per-instruction hash when
        // none are outstanding.
        if self.pending.is_empty() {
            return Ok(());
        }
        if let Some(key) = self.pending.remove(&src) {
            let f = self
                .tgt_func
                .ok_or_else(|| ApiError::Missing("no target function".into()))?;
            self.tgt.func_mut(f).replace_placeholder(key, tgt);
        }
        Ok(())
    }

    /// Whether forward references remain unresolved (must be empty at the
    /// end of a function).
    pub fn unresolved_placeholders(&self) -> usize {
        self.pending.len()
    }

    /// Appends `inst` at the insertion point, returning its value.
    ///
    /// # Errors
    ///
    /// [`ApiError::Missing`] without a target function or insertion point.
    pub fn build(&mut self, inst: Instruction) -> ApiResult<ValueRef> {
        let f = self
            .tgt_func
            .ok_or_else(|| ApiError::Missing("no target function".into()))?;
        let b = self
            .cur_block
            .ok_or_else(|| ApiError::Missing("no insertion point".into()))?;
        Ok(ValueRef::Inst(self.tgt.func_mut(f).push_inst(b, inst)))
    }

    // ---- Operand translators (Tab. 2's skeleton interfaces) ---------------

    /// Translates a source type to the target table, structurally.
    pub fn translate_type(&mut self, src_ty: TypeId) -> TypeId {
        if let Some(Some(t)) = self.type_cache.get(src_ty.index()) {
            return *t;
        }
        let ty = self.src_types.get(src_ty).clone();
        let mapped = match ty {
            Type::Void => self.tgt.types.void(),
            Type::Int(b) => self.tgt.types.int(b),
            Type::F32 => self.tgt.types.f32(),
            Type::F64 => self.tgt.types.f64(),
            Type::Label => self.tgt.types.label(),
            Type::Token => self.tgt.types.token(),
            Type::Ptr {
                pointee,
                addr_space,
            } => {
                let p = self.translate_type(pointee);
                self.tgt.types.ptr_in(p, addr_space)
            }
            Type::Array { elem, len } => {
                let e = self.translate_type(elem);
                self.tgt.types.array(e, len)
            }
            Type::Vector { elem, len } => {
                let e = self.translate_type(elem);
                self.tgt.types.vector(e, len)
            }
            Type::Struct { fields } => {
                let fs: Vec<TypeId> = fields.iter().map(|&f| self.translate_type(f)).collect();
                self.tgt.types.struct_(fs)
            }
            Type::Func {
                ret,
                params,
                varargs,
            } => {
                let r = self.translate_type(ret);
                let ps: Vec<TypeId> = params.iter().map(|&p| self.translate_type(p)).collect();
                if varargs {
                    self.tgt.types.func_varargs(r, ps)
                } else {
                    self.tgt.types.func(r, ps)
                }
            }
        };
        let idx = src_ty.index();
        if idx >= self.type_cache.len() {
            self.type_cache.resize(idx + 1, None);
        }
        self.type_cache[idx] = Some(mapped);
        mapped
    }

    /// Translates a source block reference (current function).
    ///
    /// # Errors
    ///
    /// [`ApiError::Missing`] if the skeleton has not pre-created the block.
    pub fn translate_block(&mut self, src: BlockId) -> ApiResult<BlockId> {
        self.block_map
            .get(src.index())
            .copied()
            .flatten()
            .ok_or_else(|| ApiError::Missing(format!("block {} not mapped", src.raw())))
    }

    /// Translates a source function reference.
    ///
    /// # Errors
    ///
    /// [`ApiError::Missing`] if the skeleton has not pre-registered it.
    pub fn translate_func(&mut self, src: FuncId) -> ApiResult<FuncId> {
        self.func_map
            .get(src.index())
            .copied()
            .flatten()
            .ok_or_else(|| ApiError::Missing(format!("function {} not mapped", src.raw())))
    }

    /// Translates a source global, creating the target global on demand.
    pub fn translate_global(&mut self, src: GlobalId) -> GlobalId {
        if let Some(Some(g)) = self.global_map.get(src.index()) {
            return *g;
        }
        let g = self.src.global(src).clone();
        let ty = self.translate_type(g.ty);
        let id = self.tgt.add_global(Global { ty, ..g });
        self.map_global(src, id);
        id
    }

    /// Translates an inline-assembly snippet, creating it on demand.
    pub fn translate_asm(&mut self, src: siro_ir::AsmId) -> siro_ir::AsmId {
        if let Some(&a) = self.asm_map.get(&src) {
            return a;
        }
        let a = self.src.asm(src).clone();
        let ty = self.translate_type(a.ty);
        let id = self.tgt.add_asm(InlineAsm { ty, ..a });
        self.asm_map.insert(src, id);
        id
    }

    /// Translates any source value to the target version — the
    /// `TranslateValue` operand-translator interface of Fig. 4.
    ///
    /// Untranslated instruction operands produce placeholders that
    /// [`TranslationCtx::note_translated`] later patches.
    ///
    /// # Errors
    ///
    /// Propagates [`ApiError::Missing`] for unmapped blocks/functions.
    pub fn translate_value(&mut self, v: ValueRef) -> ApiResult<ValueRef> {
        Ok(match v {
            ValueRef::Inst(i) => {
                if let Some(Some(t)) = self.value_map.get(i.index()) {
                    *t
                } else {
                    let key = match self.pending.get(&i) {
                        Some(&k) => k,
                        None => {
                            let k = self.next_placeholder;
                            self.next_placeholder += 1;
                            self.pending.insert(i, k);
                            // Record the placeholder's eventual type so that
                            // builders can infer result types through
                            // forward references.
                            let src_ty = self.src_func()?.inst(i).ty;
                            let tgt_ty = self.translate_type(src_ty);
                            self.placeholder_types.insert(k, tgt_ty);
                            k
                        }
                    };
                    ValueRef::Placeholder(key)
                }
            }
            ValueRef::Arg(a) => ValueRef::Arg(a),
            ValueRef::Global(g) => ValueRef::Global(self.translate_global(g)),
            ValueRef::Func(f) => ValueRef::Func(self.translate_func(f)?),
            ValueRef::Block(b) => ValueRef::Block(self.translate_block(b)?),
            ValueRef::ConstInt { ty, value } => ValueRef::ConstInt {
                ty: self.translate_type(ty),
                value,
            },
            ValueRef::ConstFloat { ty, bits } => ValueRef::ConstFloat {
                ty: self.translate_type(ty),
                bits,
            },
            ValueRef::Null(t) => ValueRef::Null(self.translate_type(t)),
            ValueRef::Undef(t) => ValueRef::Undef(self.translate_type(t)),
            ValueRef::ZeroInit(t) => ValueRef::ZeroInit(self.translate_type(t)),
            ValueRef::InlineAsm(a) => ValueRef::InlineAsm(self.translate_asm(a)),
            ValueRef::Placeholder(_) => {
                return Err(ApiError::Type("cannot translate a placeholder".into()))
            }
        })
    }

    /// The static type of a *target* value (used by builders that must
    /// compute result types).
    pub fn tgt_value_type(&self, v: ValueRef) -> Option<TypeId> {
        let f = self.tgt.func(self.tgt_func?);
        match v {
            ValueRef::Global(g) => Some(self.tgt.global(g).ty),
            ValueRef::Placeholder(k) => self.placeholder_types.get(&k).copied(),
            _ => self.tgt.value_type(f, v),
        }
    }

    /// The static type of a *source* value.
    pub fn src_value_type(&self, v: ValueRef) -> Option<TypeId> {
        let f = self.src.func(self.src_func?);
        match v {
            ValueRef::Global(g) => Some(self.src.global(g).ty),
            _ => self.src.value_type(f, v),
        }
    }

    /// The target side as the result-type rules ([`siro_ir::infer`]) read
    /// it: [`TranslationCtx::tgt_value_type`] over the target module.
    #[inline]
    pub fn tgt_scope(&mut self) -> TgtScope<'_, 's> {
        TgtScope(self)
    }

    /// The source side as the result-type rules read it:
    /// [`TranslationCtx::src_value_type`], interning into
    /// [`TranslationCtx::src_types`].
    #[inline]
    pub fn src_scope(&mut self) -> SrcScope<'_, 's> {
        SrcScope(self)
    }

    /// Convenience: create a skeleton-compatible target function shell for a
    /// source function (same name/signature, translated types).
    pub fn clone_signature(&mut self, src_fid: FuncId) -> FuncId {
        let f = self.src.func(src_fid);
        let name = f.name.clone();
        let is_external = f.is_external;
        let varargs = f.varargs;
        let ret = self.translate_type(f.ret_ty);
        let params: Vec<Param> = f
            .params
            .iter()
            .map(|p| Param {
                ty: self.translate_type(p.ty),
                name: p.name.clone(),
            })
            .collect();
        let mut nf = if is_external {
            Function::external(name, ret, params)
        } else {
            Function::new(name, ret, params)
        };
        nf.varargs = varargs;
        let id = self.tgt.add_func(nf);
        self.map_func(src_fid, id);
        id
    }
}

/// What a component body needs from its surroundings: value, block and
/// type translation, both sides as the result-type rules read them, and
/// instruction emission. The getter, operand-translator and builder bodies
/// are generic over it, so every caller runs the same code:
/// [`TranslationCtx`] is the push form, which translates into a fresh
/// target module, and the compiled tier's mirror driver supplies an
/// in-place form, where the source module is the target, translation is
/// identity and the one built instruction is captured for a buffered
/// overwrite.
pub trait ExecEnv {
    /// Translates a source value ([`TranslationCtx::translate_value`]).
    ///
    /// # Errors
    ///
    /// An unmapped block or function, or a placeholder.
    fn translate_value(&mut self, v: ValueRef) -> ApiResult<ValueRef>;
    /// Translates a source block ([`TranslationCtx::translate_block`]).
    ///
    /// # Errors
    ///
    /// An unmapped block.
    fn translate_block(&mut self, b: BlockId) -> ApiResult<BlockId>;
    /// Translates a source type ([`TranslationCtx::translate_type`]).
    fn translate_type(&mut self, t: TypeId) -> TypeId;
    /// The source side, as the result-type rules read it.
    fn src(&mut self) -> impl Scope + '_;
    /// The target side, as the result-type rules read it.
    fn tgt(&mut self) -> impl Scope + '_;
    /// Emits one built instruction, returning its value.
    ///
    /// # Errors
    ///
    /// No function or insertion point to emit into.
    fn build(&mut self, inst: Instruction) -> ApiResult<ValueRef>;
    /// Calls a registry component that has no directly callable body
    /// ([`ApiFn::component`] is `None`).
    ///
    /// # Errors
    ///
    /// The component's error, or the environment's refusal to call
    /// through the registry.
    fn api_call(&mut self, f: &ApiFn, args: &[ApiValue]) -> ApiResult<ApiValue>;
}

impl ExecEnv for TranslationCtx<'_> {
    fn translate_value(&mut self, v: ValueRef) -> ApiResult<ValueRef> {
        TranslationCtx::translate_value(self, v)
    }
    fn translate_block(&mut self, b: BlockId) -> ApiResult<BlockId> {
        TranslationCtx::translate_block(self, b)
    }
    fn translate_type(&mut self, t: TypeId) -> TypeId {
        TranslationCtx::translate_type(self, t)
    }
    fn src(&mut self) -> impl Scope + '_ {
        self.src_scope()
    }
    fn tgt(&mut self) -> impl Scope + '_ {
        self.tgt_scope()
    }
    fn build(&mut self, inst: Instruction) -> ApiResult<ValueRef> {
        TranslationCtx::build(self, inst)
    }
    fn api_call(&mut self, f: &ApiFn, args: &[ApiValue]) -> ApiResult<ApiValue> {
        f.call(self, args)
    }
}

/// The target side of a [`TranslationCtx`] (see
/// [`TranslationCtx::tgt_scope`]).
#[derive(Debug)]
pub struct TgtScope<'a, 's>(&'a mut TranslationCtx<'s>);

impl Scope for TgtScope<'_, '_> {
    #[inline]
    fn value_type(&self, v: ValueRef) -> Option<TypeId> {
        self.0.tgt_value_type(v)
    }
    #[inline]
    fn func(&self, f: FuncId) -> &Function {
        self.0.tgt.func(f)
    }
    #[inline]
    fn asm_ty(&self, a: AsmId) -> TypeId {
        self.0.tgt.asm(a).ty
    }
    #[inline]
    fn types(&self) -> &TypeTable {
        &self.0.tgt.types
    }
    #[inline]
    fn types_mut(&mut self) -> &mut TypeTable {
        &mut self.0.tgt.types
    }
}

/// The source side of a [`TranslationCtx`] (see
/// [`TranslationCtx::src_scope`]).
#[derive(Debug)]
pub struct SrcScope<'a, 's>(&'a mut TranslationCtx<'s>);

impl Scope for SrcScope<'_, '_> {
    #[inline]
    fn value_type(&self, v: ValueRef) -> Option<TypeId> {
        self.0.src_value_type(v)
    }
    #[inline]
    fn func(&self, f: FuncId) -> &Function {
        self.0.src.func(f)
    }
    #[inline]
    fn asm_ty(&self, a: AsmId) -> TypeId {
        self.0.src.asm(a).ty
    }
    #[inline]
    fn types(&self) -> &TypeTable {
        &self.0.src_types
    }
    #[inline]
    fn types_mut(&mut self) -> &mut TypeTable {
        &mut self.0.src_types
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siro_ir::{FuncBuilder, Opcode};

    fn src_module() -> Module {
        let mut m = Module::new("src", IrVersion::V13_0);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let v = b.add(ValueRef::const_int(i32t, 1), ValueRef::const_int(i32t, 2));
        b.ret(Some(v));
        m
    }

    #[test]
    fn type_translation_is_structural_and_cached() {
        let src = src_module();
        let mut ctx = TranslationCtx::new(&src, IrVersion::V3_6);
        let src_i32 = {
            let mut t = src.types.clone();
            t.i32()
        };
        let a = ctx.translate_type(src_i32);
        let b = ctx.translate_type(src_i32);
        assert_eq!(a, b);
        assert!(ctx.tgt.types.is_int(a));
    }

    #[test]
    fn placeholder_roundtrip() {
        let src = src_module();
        let mut ctx = TranslationCtx::new(&src, IrVersion::V3_6);
        let sfid = src.func_by_name("main").unwrap();
        let tfid = ctx.clone_signature(sfid);
        ctx.begin_function(sfid, tfid);
        let tb = ctx.tgt.func_mut(tfid).add_block("entry");
        ctx.map_block(BlockId::new(0), tb);
        ctx.set_insertion(tb);
        // Forward-reference instruction 0 before translating it.
        let ph = ctx.translate_value(ValueRef::Inst(InstId::new(0))).unwrap();
        assert!(matches!(ph, ValueRef::Placeholder(_)));
        assert_eq!(ctx.unresolved_placeholders(), 1);
        // Build an instruction using the placeholder.
        let i32t = ctx.tgt.types.i32();
        let built = ctx
            .build(Instruction::new(Opcode::Add, i32t, vec![ph, ph]))
            .unwrap();
        // Now "translate" instruction 0 and observe the patch.
        ctx.note_translated(InstId::new(0), ValueRef::const_int(i32t, 5))
            .unwrap();
        assert_eq!(ctx.unresolved_placeholders(), 0);
        let f = ctx.tgt.func(tfid);
        let built_inst = f.inst(built.as_inst().unwrap());
        assert_eq!(built_inst.operands[0], ValueRef::const_int(i32t, 5));
        assert_eq!(built_inst.operands[1], ValueRef::const_int(i32t, 5));
    }

    #[test]
    fn unmapped_block_is_an_error() {
        let src = src_module();
        let mut ctx = TranslationCtx::new(&src, IrVersion::V3_6);
        let e = ctx.translate_block(BlockId::new(7)).unwrap_err();
        assert!(matches!(e, ApiError::Missing(_)));
    }

    #[test]
    fn globals_created_on_demand() {
        let mut m = src_module();
        let i32t = m.types.i32();
        m.add_global(Global {
            name: "g".into(),
            ty: i32t,
            init: siro_ir::GlobalInit::Int(3),
            is_const: false,
        });
        let mut ctx = TranslationCtx::new(&m, IrVersion::V3_6);
        let v = ctx
            .translate_value(ValueRef::Global(GlobalId::new(0)))
            .unwrap();
        assert!(matches!(v, ValueRef::Global(_)));
        assert_eq!(ctx.tgt.globals.len(), 1);
        // Second translation reuses the mapping.
        let _ = ctx
            .translate_value(ValueRef::Global(GlobalId::new(0)))
            .unwrap();
        assert_eq!(ctx.tgt.globals.len(), 1);
    }

    #[test]
    fn clone_signature_translates_params() {
        let mut m = Module::new("src", IrVersion::V13_0);
        let i64t = m.types.i64();
        let p = m.types.ptr(i64t);
        let f = m.add_func(Function::new(
            "f",
            i64t,
            vec![Param {
                name: "x".into(),
                ty: p,
            }],
        ));
        let mut ctx = TranslationCtx::new(&m, IrVersion::V3_0);
        let t = ctx.clone_signature(f);
        let tf = ctx.tgt.func(t);
        assert_eq!(tf.name, "f");
        assert!(ctx.tgt.types.is_ptr(tf.params[0].ty));
    }
}
