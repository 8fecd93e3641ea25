//! Target-side IR builders ("construct in-memory IR programs and IR
//! elements", Tab. 2).
//!
//! Builder availability follows the registry's *target* version (no
//! `create_freeze` when targeting 3.6), and builder signatures change at 9.0:
//! `create_call`/`create_invoke`/`create_load`/`create_gep` require an
//! explicit type argument from 9.0 on — the exact API change Fig. 13 of the
//! paper shows for `CreateInvoke`.

use siro_ir::{infer, Instruction, Opcode, Type, TypeId, ValueRef};

use crate::ctx::TranslationCtx;
use crate::error::{ApiError, ApiResult};
use crate::registry::{tgt_block_arg, tgt_type_arg, tgt_value_arg, ApiKind, ApiRegistry};
use crate::value::{ApiType, ApiValue, Side};

const T: Side = Side::Target;

/// Registers all builders for the registry's target version.
pub(crate) fn register(reg: &mut ApiRegistry) {
    let v = reg.tgt_version;
    let explicit = v.builders_require_explicit_type();
    for op in Opcode::ALL {
        if !v.supports(op) {
            continue;
        }
        register_one(reg, op, explicit);
    }
}

fn ret_ty(op: Opcode) -> ApiType {
    ApiType::Inst(op, T)
}

fn value() -> ApiType {
    ApiType::Value(T)
}

fn block() -> ApiType {
    ApiType::Block(T)
}

fn tyref() -> ApiType {
    ApiType::TypeRef(T)
}

fn values_arg(args: &[ApiValue], i: usize) -> ApiResult<Vec<ValueRef>> {
    match args.get(i) {
        Some(ApiValue::Values(Side::Target, vs)) => Ok(vs.clone()),
        other => Err(ApiError::Type(format!(
            "arg {i}: expected target value list, got {other:?}"
        ))),
    }
}

fn blocks_arg(args: &[ApiValue], i: usize) -> ApiResult<Vec<siro_ir::BlockId>> {
    match args.get(i) {
        Some(ApiValue::Blocks(Side::Target, bs)) => Ok(bs.clone()),
        other => Err(ApiError::Type(format!(
            "arg {i}: expected target block list, got {other:?}"
        ))),
    }
}

fn indices_arg(args: &[ApiValue], i: usize) -> ApiResult<Vec<u64>> {
    match args.get(i) {
        Some(ApiValue::Indices(v)) => Ok(v.clone()),
        other => Err(ApiError::Type(format!(
            "arg {i}: expected indices, got {other:?}"
        ))),
    }
}

fn walk_agg_path(ctx: &TranslationCtx<'_>, mut ty: TypeId, path: &[u64]) -> ApiResult<TypeId> {
    for &i in path {
        ty = match ctx.tgt.types.get(ty) {
            Type::Struct { fields } => *fields
                .get(i as usize)
                .ok_or_else(|| ApiError::OutOfRange("aggregate index".into()))?,
            Type::Array { elem, .. } => *elem,
            _ => return Err(ApiError::Type("not an aggregate".into())),
        };
    }
    Ok(ty)
}

#[allow(clippy::too_many_lines)]
fn register_one(reg: &mut ApiRegistry, op: Opcode, explicit: bool) {
    use Opcode::*;
    match op {
        Ret => {
            reg.add(
                "create_ret",
                ApiKind::Builder,
                vec![value()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let v = tgt_value_arg(args, 0)?;
                    let void = ctx.tgt.types.void();
                    ctx.build(Instruction::new(Ret, void, vec![v])).map(as_inst)
                },
            );
            reg.add(
                "create_ret_void",
                ApiKind::Builder,
                vec![],
                ret_ty(op),
                false,
                |ctx, _| {
                    let void = ctx.tgt.types.void();
                    ctx.build(Instruction::new(Ret, void, vec![])).map(as_inst)
                },
            );
        }
        Br => {
            reg.add(
                "create_br",
                ApiKind::Builder,
                vec![block()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let b = tgt_block_arg(args, 0)?;
                    let void = ctx.tgt.types.void();
                    ctx.build(Instruction::new(Br, void, vec![ValueRef::Block(b)]))
                        .map(as_inst)
                },
            );
            reg.add(
                "create_cond_br",
                ApiKind::Builder,
                vec![value(), block(), block()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let c = tgt_value_arg(args, 0)?;
                    let t = tgt_block_arg(args, 1)?;
                    let f = tgt_block_arg(args, 2)?;
                    let void = ctx.tgt.types.void();
                    ctx.build(Instruction::new(
                        Br,
                        void,
                        vec![c, ValueRef::Block(t), ValueRef::Block(f)],
                    ))
                    .map(as_inst)
                },
            );
        }
        Switch => {
            reg.add(
                "create_switch",
                ApiKind::Builder,
                vec![value(), block(), ApiType::CaseList(T)],
                ret_ty(op),
                false,
                |ctx, args| {
                    let v = tgt_value_arg(args, 0)?;
                    let def = tgt_block_arg(args, 1)?;
                    let cases = match args.get(2) {
                        Some(ApiValue::Cases(Side::Target, cs)) => cs.clone(),
                        _ => return Err(ApiError::Type("expected target cases".into())),
                    };
                    let void = ctx.tgt.types.void();
                    let mut ops = vec![v, ValueRef::Block(def)];
                    for (c, b) in cases {
                        ops.push(c);
                        ops.push(ValueRef::Block(b));
                    }
                    ctx.build(Instruction::new(Switch, void, ops)).map(as_inst)
                },
            );
        }
        IndirectBr => {
            reg.add(
                "create_indirect_br",
                ApiKind::Builder,
                vec![value(), ApiType::BlockList(T)],
                ret_ty(op),
                false,
                |ctx, args| {
                    let v = tgt_value_arg(args, 0)?;
                    let bs = blocks_arg(args, 1)?;
                    let void = ctx.tgt.types.void();
                    let mut ops = vec![v];
                    ops.extend(bs.into_iter().map(ValueRef::Block));
                    ctx.build(Instruction::new(IndirectBr, void, ops))
                        .map(as_inst)
                },
            );
        }
        Call => {
            if explicit {
                reg.add(
                    "create_call",
                    ApiKind::Builder,
                    vec![tyref(), value(), ApiType::ValueList(T)],
                    ret_ty(op),
                    false,
                    |ctx, args| {
                        let fnty = tgt_type_arg(args, 0)?;
                        let callee = tgt_value_arg(args, 1)?;
                        let call_args = values_arg(args, 2)?;
                        let ret = infer::fn_ret(&ctx.tgt.types, fnty)?;
                        build_call(ctx, Call, ret, callee, call_args, Some(fnty))
                    },
                );
            } else {
                reg.add(
                    "create_call",
                    ApiKind::Builder,
                    vec![value(), ApiType::ValueList(T)],
                    ret_ty(op),
                    false,
                    |ctx, args| {
                        let callee = tgt_value_arg(args, 0)?;
                        let call_args = values_arg(args, 1)?;
                        let ret = infer::callee_ret(&ctx.tgt_scope(), callee)?;
                        build_call(ctx, Call, ret, callee, call_args, None)
                    },
                );
            }
        }
        Invoke => {
            if explicit {
                reg.add(
                    "create_invoke",
                    ApiKind::Builder,
                    vec![tyref(), value(), ApiType::ValueList(T), block(), block()],
                    ret_ty(op),
                    false,
                    |ctx, args| {
                        let fnty = tgt_type_arg(args, 0)?;
                        let callee = tgt_value_arg(args, 1)?;
                        let call_args = values_arg(args, 2)?;
                        let n = tgt_block_arg(args, 3)?;
                        let u = tgt_block_arg(args, 4)?;
                        let ret = infer::fn_ret(&ctx.tgt.types, fnty)?;
                        build_invoke(ctx, ret, callee, call_args, n, u, Some(fnty))
                    },
                );
            } else {
                reg.add(
                    "create_invoke",
                    ApiKind::Builder,
                    vec![value(), ApiType::ValueList(T), block(), block()],
                    ret_ty(op),
                    false,
                    |ctx, args| {
                        let callee = tgt_value_arg(args, 0)?;
                        let call_args = values_arg(args, 1)?;
                        let n = tgt_block_arg(args, 2)?;
                        let u = tgt_block_arg(args, 3)?;
                        let ret = infer::callee_ret(&ctx.tgt_scope(), callee)?;
                        build_invoke(ctx, ret, callee, call_args, n, u, None)
                    },
                );
            }
        }
        CallBr => {
            reg.add(
                "create_callbr",
                ApiKind::Builder,
                vec![
                    tyref(),
                    value(),
                    ApiType::ValueList(T),
                    block(),
                    ApiType::BlockList(T),
                ],
                ret_ty(op),
                false,
                |ctx, args| {
                    let fnty = tgt_type_arg(args, 0)?;
                    let callee = tgt_value_arg(args, 1)?;
                    let call_args = values_arg(args, 2)?;
                    let ft = tgt_block_arg(args, 3)?;
                    let ind = blocks_arg(args, 4)?;
                    let ret = infer::fn_ret(&ctx.tgt.types, fnty)?;
                    let mut ops = vec![callee];
                    let n = call_args.len() as u32;
                    ops.extend(call_args);
                    ops.push(ValueRef::Block(ft));
                    ops.extend(ind.into_iter().map(ValueRef::Block));
                    let mut inst = Instruction::new(CallBr, ret, ops);
                    inst.attrs.num_args = n;
                    inst.attrs.callee_ty = Some(fnty);
                    ctx.build(inst).map(as_inst)
                },
            );
        }
        Resume => {
            reg.add(
                "create_resume",
                ApiKind::Builder,
                vec![value()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let v = tgt_value_arg(args, 0)?;
                    let void = ctx.tgt.types.void();
                    ctx.build(Instruction::new(Resume, void, vec![v]))
                        .map(as_inst)
                },
            );
        }
        Unreachable => {
            reg.add(
                "create_unreachable",
                ApiKind::Builder,
                vec![],
                ret_ty(op),
                false,
                |ctx, _| {
                    let void = ctx.tgt.types.void();
                    ctx.build(Instruction::new(Unreachable, void, vec![]))
                        .map(as_inst)
                },
            );
        }
        Add | FAdd | Sub | FSub | Mul | FMul | UDiv | SDiv | FDiv | URem | SRem | FRem | Shl
        | LShr | AShr | And | Or | Xor => {
            reg.add(
                format!("create_{}", op.name()),
                ApiKind::Builder,
                vec![value(), value()],
                ret_ty(op),
                false,
                move |ctx, args| {
                    let a = tgt_value_arg(args, 0)?;
                    let b = tgt_value_arg(args, 1)?;
                    let ty = infer::shared_operand_type(&ctx.tgt_scope(), a, b)?;
                    ctx.build(Instruction::new(op, ty, vec![a, b])).map(as_inst)
                },
            );
        }
        FNeg => {
            reg.add(
                "create_fneg",
                ApiKind::Builder,
                vec![value()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let a = tgt_value_arg(args, 0)?;
                    let ty = infer::operand_type(&ctx.tgt_scope(), a)?;
                    ctx.build(Instruction::new(FNeg, ty, vec![a])).map(as_inst)
                },
            );
        }
        Alloca => {
            reg.add(
                "create_alloca",
                ApiKind::Builder,
                vec![tyref()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let ty = tgt_type_arg(args, 0)?;
                    let ptr = ctx.tgt.types.ptr(ty);
                    let mut inst = Instruction::new(Alloca, ptr, vec![]);
                    inst.attrs.alloc_ty = Some(ty);
                    ctx.build(inst).map(as_inst)
                },
            );
        }
        Load => {
            if explicit {
                reg.add(
                    "create_load",
                    ApiKind::Builder,
                    vec![tyref(), value()],
                    ret_ty(op),
                    false,
                    |ctx, args| {
                        let ty = tgt_type_arg(args, 0)?;
                        let p = tgt_value_arg(args, 1)?;
                        let mut inst = Instruction::new(Load, ty, vec![p]);
                        inst.attrs.gep_source_ty = Some(ty);
                        ctx.build(inst).map(as_inst)
                    },
                );
            } else {
                reg.add(
                    "create_load",
                    ApiKind::Builder,
                    vec![value()],
                    ret_ty(op),
                    false,
                    |ctx, args| {
                        let p = tgt_value_arg(args, 0)?;
                        let ty = infer::load_type(&mut ctx.tgt_scope(), p)?;
                        let mut inst = Instruction::new(Load, ty, vec![p]);
                        inst.attrs.gep_source_ty = Some(ty);
                        ctx.build(inst).map(as_inst)
                    },
                );
            }
        }
        Store => {
            reg.add(
                "create_store",
                ApiKind::Builder,
                vec![value(), value()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let v = tgt_value_arg(args, 0)?;
                    let p = tgt_value_arg(args, 1)?;
                    let void = ctx.tgt.types.void();
                    ctx.build(Instruction::new(Store, void, vec![v, p]))
                        .map(as_inst)
                },
            );
        }
        GetElementPtr => {
            if explicit {
                reg.add(
                    "create_gep",
                    ApiKind::Builder,
                    vec![tyref(), value(), ApiType::ValueList(T)],
                    ret_ty(op),
                    false,
                    |ctx, args| {
                        let src_ty = tgt_type_arg(args, 0)?;
                        let base = tgt_value_arg(args, 1)?;
                        let idx = values_arg(args, 2)?;
                        let rty = infer::gep_result(&mut ctx.tgt.types, src_ty, &idx)?;
                        let mut ops = vec![base];
                        ops.extend(idx);
                        let mut inst = Instruction::new(GetElementPtr, rty, ops);
                        inst.attrs.gep_source_ty = Some(src_ty);
                        ctx.build(inst).map(as_inst)
                    },
                );
            } else {
                reg.add(
                    "create_gep",
                    ApiKind::Builder,
                    vec![value(), ApiType::ValueList(T)],
                    ret_ty(op),
                    false,
                    |ctx, args| {
                        let base = tgt_value_arg(args, 0)?;
                        let idx = values_arg(args, 1)?;
                        let src_ty = infer::gep_source_type(&mut ctx.tgt_scope(), base)?;
                        let rty = infer::gep_result(&mut ctx.tgt.types, src_ty, &idx)?;
                        let mut ops = vec![base];
                        ops.extend(idx);
                        let mut inst = Instruction::new(GetElementPtr, rty, ops);
                        inst.attrs.gep_source_ty = Some(src_ty);
                        ctx.build(inst).map(as_inst)
                    },
                );
            }
        }
        Fence => {
            reg.add(
                "create_fence",
                ApiKind::Builder,
                vec![ApiType::Ordering],
                ret_ty(op),
                false,
                |ctx, args| {
                    let ord = match args.first() {
                        Some(ApiValue::Ordering(o)) => *o,
                        _ => return Err(ApiError::Type("expected ordering".into())),
                    };
                    let void = ctx.tgt.types.void();
                    let mut inst = Instruction::new(Fence, void, vec![]);
                    inst.attrs.ordering = Some(ord);
                    ctx.build(inst).map(as_inst)
                },
            );
        }
        CmpXchg => {
            reg.add(
                "create_cmpxchg",
                ApiKind::Builder,
                vec![value(), value(), value()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let p = tgt_value_arg(args, 0)?;
                    let e = tgt_value_arg(args, 1)?;
                    let n = tgt_value_arg(args, 2)?;
                    let vty = infer::operand_type(&ctx.tgt_scope(), e)?;
                    let i1 = ctx.tgt.types.i1();
                    let rty = ctx.tgt.types.struct_(vec![vty, i1]);
                    let mut inst = Instruction::new(CmpXchg, rty, vec![p, e, n]);
                    inst.attrs.ordering = Some(siro_ir::AtomicOrdering::SeqCst);
                    ctx.build(inst).map(as_inst)
                },
            );
        }
        AtomicRmw => {
            reg.add(
                "create_atomicrmw",
                ApiKind::Builder,
                vec![ApiType::RmwOp, value(), value()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let rmw = match args.first() {
                        Some(ApiValue::RmwOp(o)) => *o,
                        _ => return Err(ApiError::Type("expected rmw op".into())),
                    };
                    let p = tgt_value_arg(args, 1)?;
                    let v = tgt_value_arg(args, 2)?;
                    let vty = infer::operand_type(&ctx.tgt_scope(), v)?;
                    let mut inst = Instruction::new(AtomicRmw, vty, vec![p, v]);
                    inst.attrs.rmw_op = Some(rmw);
                    inst.attrs.ordering = Some(siro_ir::AtomicOrdering::SeqCst);
                    ctx.build(inst).map(as_inst)
                },
            );
        }
        Trunc | ZExt | SExt | FPTrunc | FPExt | FPToUI | FPToSI | UIToFP | SIToFP | PtrToInt
        | IntToPtr | BitCast | AddrSpaceCast => {
            reg.add(
                format!("create_{}", op.name()),
                ApiKind::Builder,
                vec![value(), tyref()],
                ret_ty(op),
                false,
                move |ctx, args| {
                    let v = tgt_value_arg(args, 0)?;
                    let to = tgt_type_arg(args, 1)?;
                    ctx.build(Instruction::new(op, to, vec![v])).map(as_inst)
                },
            );
        }
        ICmp => {
            reg.add(
                "create_icmp",
                ApiKind::Builder,
                vec![ApiType::IntPred, value(), value()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let pred = match args.first() {
                        Some(ApiValue::IntPred(p)) => *p,
                        _ => return Err(ApiError::Type("expected predicate".into())),
                    };
                    let a = tgt_value_arg(args, 1)?;
                    let b = tgt_value_arg(args, 2)?;
                    let rty = infer::cmp_type(&mut ctx.tgt_scope(), a, b)?;
                    let mut inst = Instruction::new(ICmp, rty, vec![a, b]);
                    inst.attrs.int_pred = Some(pred);
                    ctx.build(inst).map(as_inst)
                },
            );
        }
        FCmp => {
            reg.add(
                "create_fcmp",
                ApiKind::Builder,
                vec![ApiType::FloatPred, value(), value()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let pred = match args.first() {
                        Some(ApiValue::FloatPred(p)) => *p,
                        _ => return Err(ApiError::Type("expected predicate".into())),
                    };
                    let a = tgt_value_arg(args, 1)?;
                    let b = tgt_value_arg(args, 2)?;
                    let rty = infer::cmp_type(&mut ctx.tgt_scope(), a, b)?;
                    let mut inst = Instruction::new(FCmp, rty, vec![a, b]);
                    inst.attrs.float_pred = Some(pred);
                    ctx.build(inst).map(as_inst)
                },
            );
        }
        Phi => {
            reg.add(
                "create_phi",
                ApiKind::Builder,
                vec![tyref(), ApiType::PhiList(T)],
                ret_ty(op),
                false,
                |ctx, args| {
                    let ty = tgt_type_arg(args, 0)?;
                    let pairs = match args.get(1) {
                        Some(ApiValue::Phis(Side::Target, ps)) => ps.clone(),
                        _ => return Err(ApiError::Type("expected target phi list".into())),
                    };
                    let mut ops = Vec::with_capacity(pairs.len() * 2);
                    for (v, b) in pairs {
                        ops.push(v);
                        ops.push(ValueRef::Block(b));
                    }
                    ctx.build(Instruction::new(Phi, ty, ops)).map(as_inst)
                },
            );
        }
        Select => {
            reg.add(
                "create_select",
                ApiKind::Builder,
                vec![value(), value(), value()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let c = tgt_value_arg(args, 0)?;
                    let t = tgt_value_arg(args, 1)?;
                    let f = tgt_value_arg(args, 2)?;
                    let ty = infer::shared_operand_type(&ctx.tgt_scope(), t, f)?;
                    ctx.build(Instruction::new(Select, ty, vec![c, t, f]))
                        .map(as_inst)
                },
            );
        }
        VAArg => {
            reg.add(
                "create_va_arg",
                ApiKind::Builder,
                vec![value(), tyref()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let v = tgt_value_arg(args, 0)?;
                    let ty = tgt_type_arg(args, 1)?;
                    ctx.build(Instruction::new(VAArg, ty, vec![v])).map(as_inst)
                },
            );
        }
        ExtractElement => {
            reg.add(
                "create_extractelement",
                ApiKind::Builder,
                vec![value(), value()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let v = tgt_value_arg(args, 0)?;
                    let i = tgt_value_arg(args, 1)?;
                    let vty = infer::operand_type(&ctx.tgt_scope(), v)?;
                    let ety = match ctx.tgt.types.get(vty) {
                        Type::Vector { elem, .. } => *elem,
                        _ => return Err(ApiError::Type("not a vector".into())),
                    };
                    ctx.build(Instruction::new(ExtractElement, ety, vec![v, i]))
                        .map(as_inst)
                },
            );
        }
        InsertElement => {
            reg.add(
                "create_insertelement",
                ApiKind::Builder,
                vec![value(), value(), value()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let v = tgt_value_arg(args, 0)?;
                    let e = tgt_value_arg(args, 1)?;
                    let i = tgt_value_arg(args, 2)?;
                    let vty = infer::operand_type(&ctx.tgt_scope(), v)?;
                    ctx.build(Instruction::new(InsertElement, vty, vec![v, e, i]))
                        .map(as_inst)
                },
            );
        }
        ShuffleVector => {
            reg.add(
                "create_shufflevector",
                ApiKind::Builder,
                vec![value(), value(), ApiType::Indices],
                ret_ty(op),
                false,
                |ctx, args| {
                    let a = tgt_value_arg(args, 0)?;
                    let b = tgt_value_arg(args, 1)?;
                    let mask = indices_arg(args, 2)?;
                    let aty = infer::operand_type(&ctx.tgt_scope(), a)?;
                    let ety = match ctx.tgt.types.get(aty) {
                        Type::Vector { elem, .. } => *elem,
                        _ => return Err(ApiError::Type("not a vector".into())),
                    };
                    let rty = ctx.tgt.types.vector(ety, mask.len() as u32);
                    let mut inst = Instruction::new(ShuffleVector, rty, vec![a, b]);
                    inst.attrs.indices = mask;
                    ctx.build(inst).map(as_inst)
                },
            );
        }
        ExtractValue => {
            reg.add(
                "create_extractvalue",
                ApiKind::Builder,
                vec![value(), ApiType::Indices],
                ret_ty(op),
                false,
                |ctx, args| {
                    let agg = tgt_value_arg(args, 0)?;
                    let path = indices_arg(args, 1)?;
                    let aty = infer::operand_type(&ctx.tgt_scope(), agg)?;
                    let rty = walk_agg_path(ctx, aty, &path)?;
                    let mut inst = Instruction::new(ExtractValue, rty, vec![agg]);
                    inst.attrs.indices = path;
                    ctx.build(inst).map(as_inst)
                },
            );
        }
        InsertValue => {
            reg.add(
                "create_insertvalue",
                ApiKind::Builder,
                vec![value(), value(), ApiType::Indices],
                ret_ty(op),
                false,
                |ctx, args| {
                    let agg = tgt_value_arg(args, 0)?;
                    let v = tgt_value_arg(args, 1)?;
                    let path = indices_arg(args, 2)?;
                    let aty = infer::operand_type(&ctx.tgt_scope(), agg)?;
                    let mut inst = Instruction::new(InsertValue, aty, vec![agg, v]);
                    inst.attrs.indices = path;
                    ctx.build(inst).map(as_inst)
                },
            );
        }
        LandingPad => {
            reg.add(
                "create_landingpad",
                ApiKind::Builder,
                vec![tyref(), ApiType::Bool],
                ret_ty(op),
                false,
                |ctx, args| {
                    let ty = tgt_type_arg(args, 0)?;
                    let cleanup = matches!(args.get(1), Some(ApiValue::Bool(true)));
                    let mut inst = Instruction::new(LandingPad, ty, vec![]);
                    inst.attrs.is_cleanup = cleanup;
                    ctx.build(inst).map(as_inst)
                },
            );
        }
        Freeze => {
            reg.add(
                "create_freeze",
                ApiKind::Builder,
                vec![value()],
                ret_ty(op),
                false,
                |ctx, args| {
                    let v = tgt_value_arg(args, 0)?;
                    let ty = infer::operand_type(&ctx.tgt_scope(), v)?;
                    ctx.build(Instruction::new(Freeze, ty, vec![v]))
                        .map(as_inst)
                },
            );
        }
        CatchSwitch => {
            reg.add(
                "create_catchswitch",
                ApiKind::Builder,
                vec![ApiType::BlockList(T)],
                ret_ty(op),
                false,
                |ctx, args| {
                    let bs = blocks_arg(args, 0)?;
                    let void = ctx.tgt.types.void();
                    let ops: siro_ir::OpVec = bs.into_iter().map(ValueRef::Block).collect();
                    ctx.build(Instruction::new(CatchSwitch, void, ops))
                        .map(as_inst)
                },
            );
        }
        CatchPad | CleanupPad => {
            reg.add(
                format!("create_{}", op.name()),
                ApiKind::Builder,
                vec![],
                ret_ty(op),
                false,
                move |ctx, _| {
                    let tok = ctx.tgt.types.token();
                    ctx.build(Instruction::new(op, tok, vec![])).map(as_inst)
                },
            );
        }
        CatchRet | CleanupRet => {
            reg.add(
                format!("create_{}", op.name()),
                ApiKind::Builder,
                vec![block()],
                ret_ty(op),
                false,
                move |ctx, args| {
                    let b = tgt_block_arg(args, 0)?;
                    let void = ctx.tgt.types.void();
                    ctx.build(Instruction::new(op, void, vec![ValueRef::Block(b)]))
                        .map(as_inst)
                },
            );
        }
    }
}

fn build_call(
    ctx: &mut TranslationCtx<'_>,
    op: Opcode,
    ret: TypeId,
    callee: ValueRef,
    call_args: Vec<ValueRef>,
    fnty: Option<TypeId>,
) -> ApiResult<ApiValue> {
    let mut ops = vec![callee];
    let n = call_args.len() as u32;
    ops.extend(call_args);
    let mut inst = Instruction::new(op, ret, ops);
    inst.attrs.num_args = n;
    inst.attrs.callee_ty = fnty;
    ctx.build(inst).map(as_inst)
}

fn build_invoke(
    ctx: &mut TranslationCtx<'_>,
    ret: TypeId,
    callee: ValueRef,
    call_args: Vec<ValueRef>,
    normal: siro_ir::BlockId,
    unwind: siro_ir::BlockId,
    fnty: Option<TypeId>,
) -> ApiResult<ApiValue> {
    let mut ops = vec![callee];
    let n = call_args.len() as u32;
    ops.extend(call_args);
    ops.push(ValueRef::Block(normal));
    ops.push(ValueRef::Block(unwind));
    let mut inst = Instruction::new(Opcode::Invoke, ret, ops);
    inst.attrs.num_args = n;
    inst.attrs.callee_ty = fnty;
    ctx.build(inst).map(as_inst)
}

fn as_inst(v: ValueRef) -> ApiValue {
    ApiValue::TgtValue(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::TranslationCtx;
    use siro_ir::{FuncBuilder, IrVersion, Module};

    fn setup(tgt: IrVersion) -> (Module, ApiRegistry) {
        let mut m = Module::new("m", IrVersion::V13_0);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        b.ret(Some(ValueRef::const_int(i32t, 0)));
        let reg = ApiRegistry::for_pair(IrVersion::V13_0, tgt);
        (m, reg)
    }

    fn fresh_ctx(m: &Module, tgt: IrVersion) -> TranslationCtx<'_> {
        let mut ctx = TranslationCtx::new(m, tgt);
        let sfid = m.func_by_name("main").unwrap();
        let tfid = ctx.clone_signature(sfid);
        ctx.begin_function(sfid, tfid);
        let b = ctx.tgt.func_mut(tfid).add_block("entry");
        ctx.map_block(siro_ir::BlockId::new(0), b);
        ctx.set_insertion(b);
        ctx
    }

    #[test]
    fn create_add_infers_type() {
        let (m, reg) = setup(IrVersion::V3_6);
        let mut ctx = fresh_ctx(&m, IrVersion::V3_6);
        let i32t = ctx.tgt.types.i32();
        let id = reg.find("create_add").unwrap();
        let out = reg
            .get(id)
            .call(
                &mut ctx,
                &[
                    ApiValue::TgtValue(ValueRef::const_int(i32t, 1)),
                    ApiValue::TgtValue(ValueRef::const_int(i32t, 2)),
                ],
            )
            .unwrap();
        match out {
            ApiValue::TgtValue(ValueRef::Inst(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
        let tf = ctx.tgt.func(ctx.tgt_func_id().unwrap());
        assert_eq!(tf.inst_count(), 1);
        assert_eq!(tf.inst(siro_ir::InstId::new(0)).opcode, Opcode::Add);
    }

    #[test]
    fn load_builder_signature_depends_on_version() {
        let (_m, old) = setup(IrVersion::V3_6);
        let id = old.find("create_load").unwrap();
        assert_eq!(old.get(id).params.len(), 1);
        let (_m, new) = setup(IrVersion::V13_0);
        let id = new.find("create_load").unwrap();
        assert_eq!(new.get(id).params.len(), 2);
    }

    #[test]
    fn invoke_builder_signature_matches_fig13() {
        let (_m, old) = setup(IrVersion::V5_0);
        assert_eq!(old.get(old.find("create_invoke").unwrap()).params.len(), 4);
        let (_m, new) = setup(IrVersion::V12_0);
        assert_eq!(new.get(new.find("create_invoke").unwrap()).params.len(), 5);
    }

    #[test]
    fn cond_br_builds_three_operand_branch() {
        let (m, reg) = setup(IrVersion::V3_6);
        let mut ctx = fresh_ctx(&m, IrVersion::V3_6);
        let i1 = ctx.tgt.types.i1();
        let tfid = ctx.tgt_func_id().unwrap();
        let extra = ctx.tgt.func_mut(tfid).add_block("other");
        let id = reg.find("create_cond_br").unwrap();
        reg.get(id)
            .call(
                &mut ctx,
                &[
                    ApiValue::TgtValue(ValueRef::const_int(i1, 1)),
                    ApiValue::TgtBlock(extra),
                    ApiValue::TgtBlock(extra),
                ],
            )
            .unwrap();
        let tf = ctx.tgt.func(tfid);
        let inst = tf.inst(siro_ir::InstId::new(0));
        assert_eq!(inst.opcode, Opcode::Br);
        assert_eq!(inst.operands.len(), 3);
    }

    #[test]
    fn gep_builder_computes_result_type() {
        let (m, reg) = setup(IrVersion::V13_0);
        let mut ctx = fresh_ctx(&m, IrVersion::V13_0);
        let i32t = ctx.tgt.types.i32();
        let i64t = ctx.tgt.types.i64();
        let arr = ctx.tgt.types.array(i32t, 4);
        let parr = ctx.tgt.types.ptr(arr);
        let id = reg.find("create_gep").unwrap();
        let out = reg
            .get(id)
            .call(
                &mut ctx,
                &[
                    ApiValue::TgtType(arr),
                    ApiValue::TgtValue(ValueRef::Null(parr)),
                    ApiValue::Values(
                        Side::Target,
                        vec![ValueRef::const_int(i64t, 0), ValueRef::const_int(i64t, 2)],
                    ),
                ],
            )
            .unwrap();
        let v = match out {
            ApiValue::TgtValue(v) => v,
            other => panic!("unexpected {other:?}"),
        };
        let rty = ctx.tgt_value_type(v).unwrap();
        assert_eq!(ctx.tgt.types.pointee(rty), Some(i32t));
    }
}
