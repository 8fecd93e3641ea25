//! The version-agnostic translation skeleton of Alg. 1.
//!
//! The skeleton divides and conquers the IR hierarchy top-down: globals,
//! then functions (arguments, then blocks, then instructions), delegating
//! every instruction to a pluggable [`InstTranslator`] — the interface the
//! synthesized instruction translators are later filled into. The skeleton
//! itself is written once and reused for every version pair, and it is the
//! one by-reference module walk: the interpreted synthesized translators,
//! the hand-written reference translator, synthesis's per-test translators
//! and the compiled tier's push driver all plug into it. Only the compiled
//! tier's in-place mirror driver, which rewrites an owned module instead of
//! building a new one, walks modules on its own.

use siro_api::TranslationCtx;
use siro_ir::{FuncId, IrVersion, Module, Opcode};

use crate::error::{TranslateError, TranslateResult};
use crate::translator::InstTranslator;

/// The reusable translation skeleton for one target version.
///
/// # Examples
///
/// ```
/// use siro_core::{ReferenceTranslator, Skeleton};
/// use siro_ir::{FuncBuilder, IrVersion, Module, ValueRef};
///
/// let mut m = Module::new("demo", IrVersion::V13_0);
/// let i32t = m.types.i32();
/// let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
/// let mut b = FuncBuilder::new(&mut m, f);
/// let e = b.add_block("entry");
/// b.position_at_end(e);
/// b.ret(Some(ValueRef::const_int(i32t, 3)));
///
/// let out = Skeleton::new(IrVersion::V3_6)
///     .translate_module(&m, &ReferenceTranslator)
///     .unwrap();
/// assert_eq!(out.version, IrVersion::V3_6);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Skeleton {
    target: IrVersion,
}

impl Skeleton {
    /// Creates a skeleton targeting `target`.
    pub fn new(target: IrVersion) -> Self {
        Skeleton { target }
    }

    /// The target version.
    pub fn target_version(&self) -> IrVersion {
        self.target
    }

    /// Translates a whole module (Alg. 1's top level).
    ///
    /// # Errors
    ///
    /// Propagates instruction-translator failures and reports unresolved
    /// forward references.
    pub fn translate_module<T: InstTranslator + ?Sized>(
        &self,
        src: &Module,
        inst_translator: &T,
    ) -> TranslateResult<Module> {
        let mut ctx = TranslationCtx::new(src, self.target);
        // TranslateGlobal for every g in G.
        for g in src.global_ids() {
            ctx.translate_global(g);
        }
        // Pre-register every function signature so call operands resolve
        // regardless of translation order.
        for f in src.func_ids() {
            ctx.clone_signature(f);
        }
        // TranslateFunc for every f in F.
        for f in src.func_ids() {
            if !src.func(f).is_external {
                translate_function(&mut ctx, src, f, inst_translator)?;
            }
        }
        siro_trace::counter("core.modules_translated", 1);
        Ok(ctx.finish())
    }
}

fn translate_function<T: InstTranslator + ?Sized>(
    ctx: &mut TranslationCtx<'_>,
    src: &Module,
    src_fid: FuncId,
    inst_translator: &T,
) -> TranslateResult<()> {
    let tgt_fid = ctx.translate_func(src_fid)?;
    ctx.begin_function(src_fid, tgt_fid);
    let func = src.func(src_fid);
    // The target function ends up with about one instruction per source
    // instruction; reserving up front keeps the build loop from
    // reallocating the arena.
    ctx.tgt.func_mut(tgt_fid).insts.reserve(func.inst_count());
    // Translator-phase funnel counters: coarse per-phase totals the
    // difftest fuzzer deltas around a translation to derive feedback (an
    // input that pushes more blocks/phis/insts through the funnel is
    // structurally novel even when block coverage is unchanged). The phi
    // scan runs only when tracing is on.
    if siro_trace::enabled() {
        siro_trace::counter("core.funcs_translated", 1);
        siro_trace::counter("core.blocks_translated", func.blocks.len() as u64);
        siro_trace::counter(
            "core.phis_translated",
            func.blocks
                .iter()
                .flat_map(|b| &b.insts)
                .filter(|&&i| func.inst(i).opcode == Opcode::Phi)
                .count() as u64,
        );
    }
    // TranslateArg: arguments were carried over by clone_signature;
    // TranslateBlock: pre-create each block so block operands and forward
    // branches resolve.
    for b in func.block_ids() {
        let name = func.block(b).name.clone();
        let tb = ctx.tgt.func_mut(tgt_fid).add_block(name);
        ctx.map_block(b, tb);
    }
    // TranslateInst for each instruction, in block layout order.
    for b in func.block_ids() {
        let tb = ctx.translate_block(b)?;
        ctx.set_insertion(tb);
        let insts = &func.block(b).insts;
        siro_trace::counter("core.insts_translated", insts.len() as u64);
        for &i in insts {
            let v = inst_translator.translate_inst(ctx, i)?;
            // Carry the source instruction's name (our stand-in for `!dbg`
            // source locations) onto the translated result — a skeleton
            // responsibility, independent of how the instruction
            // translator was obtained.
            if let (Some(name), Some(tid)) = (func.inst(i).name.as_ref(), v.as_inst()) {
                let tf = ctx.tgt.func_mut(tgt_fid);
                if tf.inst(tid).name.is_none() {
                    tf.inst_mut(tid).name = Some(name.clone());
                }
            }
            ctx.note_translated(i, v)?;
        }
    }
    let unresolved = ctx.unresolved_placeholders();
    if unresolved > 0 {
        return Err(TranslateError::UnresolvedPlaceholders {
            func: func.name.clone(),
            count: unresolved,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceTranslator;
    use siro_ir::{
        interp::Machine, verify::verify_module, FuncBuilder, Function, GlobalInit, IrVersion,
        Param, ValueRef,
    };

    #[test]
    fn translates_globals_functions_and_calls() {
        let mut m = Module::new("m", IrVersion::V13_0);
        let i32t = m.types.i32();
        m.add_global(siro_ir::Global {
            name: "g".into(),
            ty: i32t,
            init: GlobalInit::Int(30),
            is_const: false,
        });
        let helper = FuncBuilder::define(
            &mut m,
            "helper",
            i32t,
            vec![Param {
                name: "x".into(),
                ty: i32t,
            }],
        );
        let mut b = FuncBuilder::new(&mut m, helper);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let v = b.add(ValueRef::Arg(0), ValueRef::const_int(i32t, 12));
        b.ret(Some(v));
        let mainf = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, mainf);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let g = b.load(i32t, ValueRef::Global(siro_ir::GlobalId::new(0)));
        let r = b.call(i32t, ValueRef::Func(helper), vec![g]);
        b.ret(Some(r));
        let before = Machine::new(&m).run_main().unwrap().return_int();
        assert_eq!(before, Some(42));

        let out = Skeleton::new(IrVersion::V3_0)
            .translate_module(&m, &ReferenceTranslator)
            .unwrap();
        verify_module(&out).unwrap();
        assert_eq!(out.globals.len(), 1);
        assert_eq!(out.funcs.len(), 2);
        let after = Machine::new(&out).run_main().unwrap().return_int();
        assert_eq!(after, Some(42));
    }

    #[test]
    fn forward_references_resolve_via_placeholders() {
        // A phi that references an instruction defined *later* in layout
        // order exercises the placeholder machinery.
        let mut m = Module::new("m", IrVersion::V13_0);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.add_block("entry");
        let loopb = b.add_block("loop");
        let exit = b.add_block("exit");
        b.position_at_end(entry);
        b.br(loopb);
        b.position_at_end(loopb);
        let phi = b.phi(i32t, vec![(ValueRef::const_int(i32t, 0), entry)]);
        let next = b.add(phi, ValueRef::const_int(i32t, 3));
        let cond = b.icmp(
            siro_ir::IntPredicate::Sge,
            next,
            ValueRef::const_int(i32t, 9),
        );
        b.cond_br(cond, exit, loopb);
        b.position_at_end(exit);
        b.ret(Some(next));
        if let ValueRef::Inst(pid) = phi {
            let fm = m.func_mut(f);
            fm.inst_mut(pid)
                .operands
                .extend([next, ValueRef::Block(loopb)]);
        }
        let before = Machine::new(&m).run_main().unwrap().return_int();
        let out = Skeleton::new(IrVersion::V3_6)
            .translate_module(&m, &ReferenceTranslator)
            .unwrap();
        verify_module(&out).unwrap();
        let after = Machine::new(&out).run_main().unwrap().return_int();
        assert_eq!(before, after);
    }

    #[test]
    fn external_declarations_carry_over() {
        let mut m = Module::new("m", IrVersion::V13_0);
        let i32t = m.types.i32();
        let malloc = m.add_func(Function::external(
            "malloc",
            i32t,
            vec![Param {
                name: "n".into(),
                ty: i32t,
            }],
        ));
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let r = b.call(
            i32t,
            ValueRef::Func(malloc),
            vec![ValueRef::const_int(i32t, 4)],
        );
        let _ = r;
        b.ret(Some(ValueRef::const_int(i32t, 0)));
        let out = Skeleton::new(IrVersion::V3_6)
            .translate_module(&m, &ReferenceTranslator)
            .unwrap();
        assert!(out.func_by_name("malloc").is_some());
        assert!(out.func(out.func_by_name("malloc").unwrap()).is_external);
    }

    #[test]
    fn upgrade_direction_works_too() {
        // Pair 10 of Tab. 3: 3.6 -> 12.0.
        let mut m = Module::new("m", IrVersion::V3_6);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let v = b.mul(ValueRef::const_int(i32t, 6), ValueRef::const_int(i32t, 9));
        b.ret(Some(v));
        let out = Skeleton::new(IrVersion::V12_0)
            .translate_module(&m, &ReferenceTranslator)
            .unwrap();
        verify_module(&out).unwrap();
        assert_eq!(
            Machine::new(&out).run_main().unwrap().return_int(),
            Some(54)
        );
    }
}
