//! Source-side IR getters ("access information from an IR memory object",
//! Tab. 2).
//!
//! Getter availability and names follow the registry's *source* version:
//! only opcodes in the source instruction set get getters, and the call
//! target getter is `get_called_value` before 11.0 and `get_called_operand`
//! from 11.0 on.
//!
//! Alias getters are deliberate: `get_operand`/`get_block_operand` overlap
//! with the specific getters (`get_successor`, `get_lhs`, ...) exactly as
//! LLVM's `getOperand` overlaps `getSuccessor` — this is what produces the
//! equivalent-implementation candidates of Fig. 11 and the wrong-but-well-
//! typed candidates of Fig. 9 that refinement must prune.

use siro_ir::{infer, Opcode, ValueRef};

use crate::registry::{inst_arg, u32_arg, ApiKind, ApiRegistry};
use crate::value::{ApiType, ApiValue, Side};
use crate::ApiError;

const S: Side = Side::Source;

/// Registers all getters for the registry's source version.
pub(crate) fn register(reg: &mut ApiRegistry) {
    let version = reg.src_version;
    for op in Opcode::ALL {
        if !version.supports(op) {
            continue;
        }
        register_generic(reg, op);
        register_specific(reg, op);
    }
}

fn inst_ty(op: Opcode) -> ApiType {
    ApiType::Inst(op, S)
}

/// Static upper bound on the operand count of `op`, used to prune indexed
/// getters in the type graph (part of type-guided generation).
pub(crate) fn max_operand_index(op: Opcode) -> u32 {
    use Opcode::*;
    match op {
        Ret | FNeg | Load | Resume | VAArg | Freeze | ExtractValue | Trunc | ZExt | SExt
        | FPTrunc | FPExt | FPToUI | FPToSI | UIToFP | SIToFP | PtrToInt | IntToPtr | BitCast
        | AddrSpaceCast | CatchRet | CleanupRet => 1,
        Unreachable | Fence | LandingPad | CatchPad | CleanupPad | Alloca => 0,
        Select | CmpXchg | InsertElement | Br => 3,
        Switch | IndirectBr | Invoke | CallBr | Call | Phi | GetElementPtr | CatchSwitch => 3,
        _ => 2,
    }
}

fn register_generic(reg: &mut ApiRegistry, op: Opcode) {
    let n = max_operand_index(op);
    if n > 0 {
        reg.add(
            "get_operand",
            ApiKind::Getter,
            vec![inst_ty(op), ApiType::U32],
            ApiType::Value(S),
            false,
            move |ctx, args| {
                let inst = inst_arg(ctx, args, 0)?;
                let i = u32_arg(args, 1)? as usize;
                let v = *inst
                    .operands
                    .get(i)
                    .ok_or_else(|| ApiError::OutOfRange(format!("operand {i}")))?;
                if v.is_block() {
                    return Err(ApiError::Type("operand is a block label".into()));
                }
                Ok(ApiValue::SrcValue(v))
            },
        );
        reg.add(
            "get_operand_type",
            ApiKind::Getter,
            vec![inst_ty(op), ApiType::U32],
            ApiType::TypeRef(S),
            false,
            move |ctx, args| {
                let inst = inst_arg(ctx, args, 0)?;
                let i = u32_arg(args, 1)? as usize;
                let v = *inst
                    .operands
                    .get(i)
                    .ok_or_else(|| ApiError::OutOfRange(format!("operand {i}")))?;
                ctx.src_value_type(v)
                    .map(ApiValue::SrcType)
                    .ok_or_else(|| ApiError::Type("operand has no table type".into()))
            },
        );
    }
    reg.add(
        "get_result_type",
        ApiKind::Getter,
        vec![inst_ty(op)],
        ApiType::TypeRef(S),
        false,
        move |ctx, args| Ok(ApiValue::SrcType(inst_arg(ctx, args, 0)?.ty)),
    );
    // Block-operand alias getter for opcodes that have block operands.
    let has_blocks = matches!(
        op,
        Opcode::Br
            | Opcode::Switch
            | Opcode::IndirectBr
            | Opcode::Invoke
            | Opcode::CallBr
            | Opcode::CatchSwitch
            | Opcode::CatchRet
            | Opcode::CleanupRet
    );
    if has_blocks {
        reg.add(
            "get_block_operand",
            ApiKind::Getter,
            vec![inst_ty(op), ApiType::U32],
            ApiType::Block(S),
            false,
            move |ctx, args| {
                let inst = inst_arg(ctx, args, 0)?;
                let i = u32_arg(args, 1)? as usize;
                let v = *inst
                    .operands
                    .get(i)
                    .ok_or_else(|| ApiError::OutOfRange(format!("operand {i}")))?;
                v.as_block()
                    .map(ApiValue::SrcBlock)
                    .ok_or_else(|| ApiError::Type("operand is not a block".into()))
            },
        );
        reg.add(
            "get_successor",
            ApiKind::Getter,
            vec![inst_ty(op), ApiType::U32],
            ApiType::Block(S),
            false,
            move |ctx, args| {
                let inst = inst_arg(ctx, args, 0)?;
                let i = u32_arg(args, 1)? as usize;
                inst.successors()
                    .get(i)
                    .copied()
                    .map(ApiValue::SrcBlock)
                    .ok_or_else(|| ApiError::OutOfRange(format!("successor {i}")))
            },
        );
    }
}

#[allow(clippy::too_many_lines)]
fn register_specific(reg: &mut ApiRegistry, op: Opcode) {
    use Opcode::*;
    match op {
        Br => {
            reg.add(
                "is_unconditional",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::Bool,
                true,
                |ctx, args| {
                    Ok(ApiValue::Bool(
                        inst_arg(ctx, args, 0)?.is_unconditional_branch(),
                    ))
                },
            );
            reg.add(
                "get_condition",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::Value(S),
                false,
                |ctx, args| {
                    let inst = inst_arg(ctx, args, 0)?;
                    if inst.is_unconditional_branch() {
                        return Err(ApiError::WrongSubKind(
                            "unconditional branch has no condition".into(),
                        ));
                    }
                    Ok(ApiValue::SrcValue(inst.operands[0]))
                },
            );
        }
        Ret => {
            reg.add(
                "is_void_return",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::Bool,
                true,
                |ctx, args| Ok(ApiValue::Bool(inst_arg(ctx, args, 0)?.is_void_return())),
            );
            reg.add(
                "get_return_value",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::Value(S),
                false,
                |ctx, args| {
                    let inst = inst_arg(ctx, args, 0)?;
                    inst.operands
                        .first()
                        .copied()
                        .map(ApiValue::SrcValue)
                        .ok_or_else(|| ApiError::WrongSubKind("void return has no value".into()))
                },
            );
        }
        Switch => {
            reg.add(
                "get_default_dest",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::Block(S),
                false,
                |ctx, args| {
                    let inst = inst_arg(ctx, args, 0)?;
                    inst.operands
                        .get(1)
                        .and_then(|v| v.as_block())
                        .map(ApiValue::SrcBlock)
                        .ok_or_else(|| ApiError::Type("switch default missing".into()))
                },
            );
            reg.add(
                "get_cases",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::CaseList(S),
                false,
                |ctx, args| {
                    let inst = inst_arg(ctx, args, 0)?;
                    Ok(ApiValue::Cases(S, inst.switch_cases()))
                },
            );
        }
        IndirectBr => {
            reg.add(
                "get_address",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::Value(S),
                false,
                |ctx, args| Ok(ApiValue::SrcValue(inst_arg(ctx, args, 0)?.operands[0])),
            );
            reg.add(
                "get_destinations",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::BlockList(S),
                false,
                |ctx, args| Ok(ApiValue::Blocks(S, inst_arg(ctx, args, 0)?.successors())),
            );
        }
        Call | Invoke | CallBr => {
            register_call_family(reg, op);
            match op {
                Invoke => {
                    reg.add(
                        "get_normal_dest",
                        ApiKind::Getter,
                        vec![inst_ty(op)],
                        ApiType::Block(S),
                        false,
                        |ctx, args| {
                            let s = inst_arg(ctx, args, 0)?.successors();
                            s.first()
                                .copied()
                                .map(ApiValue::SrcBlock)
                                .ok_or_else(|| ApiError::Type("invoke without dests".into()))
                        },
                    );
                    reg.add(
                        "get_unwind_dest",
                        ApiKind::Getter,
                        vec![inst_ty(op)],
                        ApiType::Block(S),
                        false,
                        |ctx, args| {
                            let s = inst_arg(ctx, args, 0)?.successors();
                            s.get(1)
                                .copied()
                                .map(ApiValue::SrcBlock)
                                .ok_or_else(|| ApiError::Type("invoke without dests".into()))
                        },
                    );
                }
                CallBr => {
                    reg.add(
                        "get_fallthrough_dest",
                        ApiKind::Getter,
                        vec![inst_ty(op)],
                        ApiType::Block(S),
                        false,
                        |ctx, args| {
                            let s = inst_arg(ctx, args, 0)?.successors();
                            s.first()
                                .copied()
                                .map(ApiValue::SrcBlock)
                                .ok_or_else(|| ApiError::Type("callbr without dests".into()))
                        },
                    );
                    reg.add(
                        "get_indirect_dests",
                        ApiKind::Getter,
                        vec![inst_ty(op)],
                        ApiType::BlockList(S),
                        false,
                        |ctx, args| {
                            let s = inst_arg(ctx, args, 0)?.successors();
                            Ok(ApiValue::Blocks(S, s[1..].to_vec()))
                        },
                    );
                }
                _ => {
                    reg.add(
                        "is_tail_call",
                        ApiKind::Getter,
                        vec![inst_ty(op)],
                        ApiType::Bool,
                        true,
                        |ctx, args| Ok(ApiValue::Bool(inst_arg(ctx, args, 0)?.attrs.tail_call)),
                    );
                    reg.add(
                        "is_indirect_call",
                        ApiKind::Getter,
                        vec![inst_ty(op)],
                        ApiType::Bool,
                        true,
                        |ctx, args| {
                            let inst = inst_arg(ctx, args, 0)?;
                            Ok(ApiValue::Bool(!matches!(
                                inst.callee(),
                                Some(ValueRef::Func(_) | ValueRef::InlineAsm(_))
                            )))
                        },
                    );
                }
            }
        }
        ICmp => {
            reg.add(
                "get_predicate",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::IntPred,
                false,
                |ctx, args| {
                    inst_arg(ctx, args, 0)?
                        .attrs
                        .int_pred
                        .map(ApiValue::IntPred)
                        .ok_or_else(|| ApiError::Type("icmp without predicate".into()))
                },
            );
            register_lhs_rhs(reg, op);
        }
        FCmp => {
            reg.add(
                "get_float_predicate",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::FloatPred,
                false,
                |ctx, args| {
                    inst_arg(ctx, args, 0)?
                        .attrs
                        .float_pred
                        .map(ApiValue::FloatPred)
                        .ok_or_else(|| ApiError::Type("fcmp without predicate".into()))
                },
            );
            register_lhs_rhs(reg, op);
        }
        Alloca => {
            reg.add(
                "get_allocated_type",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::TypeRef(S),
                false,
                |ctx, args| {
                    inst_arg(ctx, args, 0)?
                        .attrs
                        .alloc_ty
                        .map(ApiValue::SrcType)
                        .ok_or_else(|| ApiError::Type("alloca without type".into()))
                },
            );
        }
        Load => {
            register_pointer_operand(reg, op, 0);
            register_volatile(reg, op);
        }
        Store => {
            reg.add(
                "get_value_operand",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::Value(S),
                false,
                |ctx, args| Ok(ApiValue::SrcValue(inst_arg(ctx, args, 0)?.operands[0])),
            );
            register_pointer_operand(reg, op, 1);
            register_volatile(reg, op);
        }
        GetElementPtr => {
            register_pointer_operand(reg, op, 0);
            reg.add(
                "get_source_element_type",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::TypeRef(S),
                false,
                |ctx, args| {
                    inst_arg(ctx, args, 0)?
                        .attrs
                        .gep_source_ty
                        .map(ApiValue::SrcType)
                        .ok_or_else(|| ApiError::Type("gep without source type".into()))
                },
            );
            reg.add(
                "get_indices",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::ValueList(S),
                false,
                |ctx, args| {
                    let inst = inst_arg(ctx, args, 0)?;
                    Ok(ApiValue::Values(S, inst.operands[1..].to_vec()))
                },
            );
            reg.add(
                "is_inbounds",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::Bool,
                true,
                |ctx, args| Ok(ApiValue::Bool(inst_arg(ctx, args, 0)?.attrs.inbounds)),
            );
        }
        Fence | CmpXchg | AtomicRmw => {
            reg.add(
                "get_ordering",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::Ordering,
                false,
                |ctx, args| {
                    Ok(ApiValue::Ordering(
                        inst_arg(ctx, args, 0)?
                            .attrs
                            .ordering
                            .unwrap_or(siro_ir::AtomicOrdering::SeqCst),
                    ))
                },
            );
            if op == CmpXchg || op == AtomicRmw {
                register_pointer_operand(reg, op, 0);
            }
            if op == AtomicRmw {
                reg.add(
                    "get_rmw_operation",
                    ApiKind::Getter,
                    vec![inst_ty(op)],
                    ApiType::RmwOp,
                    false,
                    |ctx, args| {
                        inst_arg(ctx, args, 0)?
                            .attrs
                            .rmw_op
                            .map(ApiValue::RmwOp)
                            .ok_or_else(|| ApiError::Type("atomicrmw without op".into()))
                    },
                );
            }
        }
        ExtractValue | InsertValue => {
            reg.add(
                "get_index_path",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::Indices,
                false,
                |ctx, args| Ok(ApiValue::Indices(inst_arg(ctx, args, 0)?.attrs.indices)),
            );
        }
        ShuffleVector => {
            reg.add(
                "get_shuffle_mask",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::Indices,
                false,
                |ctx, args| Ok(ApiValue::Indices(inst_arg(ctx, args, 0)?.attrs.indices)),
            );
        }
        Phi => {
            reg.add(
                "get_incoming",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::PhiList(S),
                false,
                |ctx, args| Ok(ApiValue::Phis(S, inst_arg(ctx, args, 0)?.phi_incoming())),
            );
        }
        LandingPad => {
            reg.add(
                "is_cleanup",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::Bool,
                true,
                |ctx, args| Ok(ApiValue::Bool(inst_arg(ctx, args, 0)?.attrs.is_cleanup)),
            );
        }
        CatchSwitch => {
            reg.add(
                "get_handlers",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::BlockList(S),
                false,
                |ctx, args| Ok(ApiValue::Blocks(S, inst_arg(ctx, args, 0)?.successors())),
            );
        }
        CatchRet | CleanupRet => {
            reg.add(
                "get_dest",
                ApiKind::Getter,
                vec![inst_ty(op)],
                ApiType::Block(S),
                false,
                |ctx, args| {
                    inst_arg(ctx, args, 0)?
                        .operands
                        .first()
                        .and_then(|v| v.as_block())
                        .map(ApiValue::SrcBlock)
                        .ok_or_else(|| ApiError::Type("missing destination".into()))
                },
            );
        }
        _ => {}
    }
}

fn register_lhs_rhs(reg: &mut ApiRegistry, op: Opcode) {
    reg.add(
        "get_lhs",
        ApiKind::Getter,
        vec![inst_ty(op)],
        ApiType::Value(S),
        false,
        |ctx, args| Ok(ApiValue::SrcValue(inst_arg(ctx, args, 0)?.operands[0])),
    );
    reg.add(
        "get_rhs",
        ApiKind::Getter,
        vec![inst_ty(op)],
        ApiType::Value(S),
        false,
        |ctx, args| Ok(ApiValue::SrcValue(inst_arg(ctx, args, 0)?.operands[1])),
    );
}

fn register_volatile(reg: &mut ApiRegistry, op: Opcode) {
    reg.add(
        "is_volatile",
        ApiKind::Getter,
        vec![inst_ty(op)],
        ApiType::Bool,
        true,
        |ctx, args| Ok(ApiValue::Bool(inst_arg(ctx, args, 0)?.attrs.volatile)),
    );
}

fn register_pointer_operand(reg: &mut ApiRegistry, op: Opcode, idx: usize) {
    reg.add(
        "get_pointer_operand",
        ApiKind::Getter,
        vec![inst_ty(op)],
        ApiType::Value(S),
        false,
        move |ctx, args| {
            let inst = inst_arg(ctx, args, 0)?;
            inst.operands
                .get(idx)
                .copied()
                .map(ApiValue::SrcValue)
                .ok_or_else(|| ApiError::OutOfRange("pointer operand".into()))
        },
    );
}

fn register_call_family(reg: &mut ApiRegistry, op: Opcode) {
    let target_getter_name = if reg.src_version.renamed_called_operand_getter() {
        "get_called_operand"
    } else {
        "get_called_value"
    };
    reg.add(
        target_getter_name,
        ApiKind::Getter,
        vec![inst_ty(op)],
        ApiType::Value(S),
        false,
        |ctx, args| {
            inst_arg(ctx, args, 0)?
                .callee()
                .map(ApiValue::SrcValue)
                .ok_or_else(|| ApiError::Type("no callee".into()))
        },
    );
    reg.add(
        "get_called_function",
        ApiKind::Getter,
        vec![inst_ty(op)],
        ApiType::Value(S),
        false,
        |ctx, args| match inst_arg(ctx, args, 0)?.callee() {
            Some(v @ ValueRef::Func(_)) => Ok(ApiValue::SrcValue(v)),
            _ => Err(ApiError::WrongSubKind("indirect call".into())),
        },
    );
    reg.add(
        "get_arguments",
        ApiKind::Getter,
        vec![inst_ty(op)],
        ApiType::ValueList(S),
        false,
        |ctx, args| {
            let inst = inst_arg(ctx, args, 0)?;
            Ok(ApiValue::Values(S, inst.call_args().to_vec()))
        },
    );
    reg.add(
        "get_callee_type",
        ApiKind::Getter,
        vec![inst_ty(op)],
        ApiType::TypeRef(S),
        false,
        |ctx, args| {
            let inst = inst_arg(ctx, args, 0)?;
            let callee = inst
                .callee()
                .ok_or_else(|| ApiError::Type("no callee".into()))?;
            let ty = infer::callee_type(&mut ctx.src_scope(), callee, inst.ty, inst.call_args())?;
            Ok(ApiValue::SrcType(ty))
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::TranslationCtx;
    use siro_ir::{FuncBuilder, IntPredicate, IrVersion, Module, Type};

    fn branchy_module() -> Module {
        let mut m = Module::new("m", IrVersion::V13_0);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        let t = b.add_block("then");
        let el = b.add_block("else");
        b.position_at_end(e);
        let c = b.icmp(
            IntPredicate::Slt,
            ValueRef::const_int(i32t, 1),
            ValueRef::const_int(i32t, 2),
        );
        b.cond_br(c, t, el);
        b.position_at_end(t);
        b.ret(Some(ValueRef::const_int(i32t, 1)));
        b.position_at_end(el);
        b.br(t);
        m
    }

    fn ctx_and_setup(m: &Module) -> TranslationCtx<'_> {
        let mut ctx = TranslationCtx::new(m, IrVersion::V3_6);
        let sfid = m.func_by_name("main").unwrap();
        let tfid = ctx.clone_signature(sfid);
        ctx.begin_function(sfid, tfid);
        ctx
    }

    #[test]
    fn condition_getter_respects_sub_kinds() {
        let m = branchy_module();
        let mut ctx = ctx_and_setup(&m);
        let reg = ApiRegistry::for_pair(IrVersion::V13_0, IrVersion::V3_6);
        let get_cond = reg.find_for_kind("get_condition", Opcode::Br).unwrap();
        // Instruction 1 is the conditional branch.
        let ok = reg
            .get(get_cond)
            .call(&mut ctx, &[ApiValue::SrcInst(siro_ir::InstId::new(1))]);
        assert!(matches!(ok, Ok(ApiValue::SrcValue(_))));
        // Instruction 3 is the unconditional branch in `else`.
        let err = reg
            .get(get_cond)
            .call(&mut ctx, &[ApiValue::SrcInst(siro_ir::InstId::new(3))]);
        assert!(matches!(err, Err(ApiError::WrongSubKind(_))));
    }

    #[test]
    fn successor_and_block_operand_are_offset_aliases() {
        let m = branchy_module();
        let mut ctx = ctx_and_setup(&m);
        let reg = ApiRegistry::for_pair(IrVersion::V13_0, IrVersion::V3_6);
        let succ = reg.find_for_kind("get_successor", Opcode::Br).unwrap();
        let bop = reg.find_for_kind("get_block_operand", Opcode::Br).unwrap();
        let inst = ApiValue::SrcInst(siro_ir::InstId::new(1));
        // successor(0) == block_operand(1) for a conditional branch.
        let a = reg
            .get(succ)
            .call(&mut ctx, &[inst.clone(), ApiValue::U32(0)])
            .unwrap();
        let b = reg
            .get(bop)
            .call(&mut ctx, &[inst.clone(), ApiValue::U32(1)])
            .unwrap();
        assert_eq!(a, b);
        // block_operand(0) is the condition, not a block.
        let e = reg.get(bop).call(&mut ctx, &[inst, ApiValue::U32(0)]);
        assert!(e.is_err());
    }

    #[test]
    fn predicate_getter_reads_icmp() {
        let m = branchy_module();
        let mut ctx = ctx_and_setup(&m);
        let reg = ApiRegistry::for_pair(IrVersion::V13_0, IrVersion::V3_6);
        let p = reg.find_for_kind("get_predicate", Opcode::ICmp).unwrap();
        let v = reg
            .get(p)
            .call(&mut ctx, &[ApiValue::SrcInst(siro_ir::InstId::new(0))])
            .unwrap();
        assert_eq!(v, ApiValue::IntPred(IntPredicate::Slt));
    }

    #[test]
    fn callee_type_getter_synthesizes_function_type() {
        let mut m = Module::new("m", IrVersion::V13_0);
        let i32t = m.types.i32();
        let callee = m.add_func(siro_ir::Function::external("ext", i32t, vec![]));
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let r = b.call(i32t, ValueRef::Func(callee), vec![]);
        b.ret(Some(r));
        let mut ctx = TranslationCtx::new(&m, IrVersion::V3_6);
        let sfid = m.func_by_name("main").unwrap();
        let tfid = ctx.clone_signature(sfid);
        ctx.begin_function(sfid, tfid);
        let reg = ApiRegistry::for_pair(IrVersion::V13_0, IrVersion::V3_6);
        let g = reg.find_for_kind("get_callee_type", Opcode::Call).unwrap();
        let v = reg
            .get(g)
            .call(&mut ctx, &[ApiValue::SrcInst(siro_ir::InstId::new(0))])
            .unwrap();
        match v {
            ApiValue::SrcType(t) => {
                assert!(matches!(ctx.src_types.get(t), Type::Func { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// An indirect call whose callee is a bare opaque `ptr` (the shape a
    /// module parsed from a 15.0+ dialect has — the function pointee is
    /// erased to the nominal `i8`) must still yield a function type,
    /// rebuilt from the call site.
    #[test]
    fn callee_type_getter_rebuilds_through_opaque_pointers() {
        let mut m = Module::new("m", IrVersion::V15_0);
        let i32t = m.types.i32();
        let i8t = m.types.i8();
        let opaque = m.types.ptr(i8t);
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let slot = b.alloca(opaque);
        let fp = b.load(opaque, slot);
        let arg = ValueRef::const_int(i32t, 7);
        let call_id = {
            let r = b.call(i32t, fp, vec![arg]);
            match r {
                ValueRef::Inst(id) => id,
                other => panic!("unexpected {other:?}"),
            }
        };
        b.ret(Some(ValueRef::const_int(i32t, 0)));
        let mut ctx = TranslationCtx::new(&m, IrVersion::V13_0);
        let sfid = m.func_by_name("main").unwrap();
        let tfid = ctx.clone_signature(sfid);
        ctx.begin_function(sfid, tfid);
        let reg = ApiRegistry::for_pair(IrVersion::V15_0, IrVersion::V13_0);
        let g = reg.find_for_kind("get_callee_type", Opcode::Call).unwrap();
        let v = reg
            .get(g)
            .call(&mut ctx, &[ApiValue::SrcInst(call_id)])
            .unwrap();
        match v {
            ApiValue::SrcType(t) => match ctx.src_types.get(t).clone() {
                Type::Func { ret, params, .. } => {
                    assert_eq!(ret, i32t, "return type comes from the call site");
                    assert_eq!(params, vec![i32t], "params come from the arguments");
                }
                other => panic!("expected a function type, got {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
