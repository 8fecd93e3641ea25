//! Target-side IR builders ("construct in-memory IR programs and IR
//! elements", Tab. 2).
//!
//! Builder availability follows the registry's *target* version (no
//! `create_freeze` when targeting 3.6), and builder signatures change at 9.0:
//! `create_call`/`create_invoke`/`create_load`/`create_gep` require an
//! explicit type argument from 9.0 on — the exact API change Fig. 13 of the
//! paper shows for `CreateInvoke`.

use siro_ir::infer::{self, Scope};
use siro_ir::{Instruction, Opcode, Type, TypeId, ValueRef};

use crate::ctx::{ExecEnv, TranslationCtx};
use crate::error::{ApiError, ApiResult};
use crate::registry::{
    tgt_block_arg, tgt_type_arg, tgt_value_arg, tgt_values_arg, translate_values_into, ApiRegistry,
    Args, Component,
};
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

fn blocks_arg(args: &[ApiValue], i: usize) -> ApiResult<&[siro_ir::BlockId]> {
    match args.get(i) {
        Some(ApiValue::Blocks(Side::Target, bs)) => Ok(bs),
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

/// Registers the builders of `op`. The shapes the compiled tier runs as
/// micro-ops are [`Builder`] components; the invoke, atomic, vector,
/// aggregate and exception-handling builders are closures.
#[allow(clippy::too_many_lines)]
fn register_one(reg: &mut ApiRegistry, op: Opcode, explicit: bool) {
    use Builder as B;
    use Opcode::*;
    let add = |reg: &mut ApiRegistry, name: &str, params: Vec<ApiType>, b: Builder| {
        reg.add(name, params, ret_ty(op), Component::Build(b));
    };
    match op {
        Ret => {
            add(reg, "create_ret", vec![value()], B::Ret);
            add(reg, "create_ret_void", vec![], B::RetVoid);
        }
        Br => {
            add(reg, "create_br", vec![block()], B::Br);
            add(
                reg,
                "create_cond_br",
                vec![value(), block(), block()],
                B::CondBr,
            );
        }
        Switch => add(
            reg,
            "create_switch",
            vec![value(), block(), ApiType::CaseList(T)],
            B::Switch,
        ),
        Call if explicit => add(
            reg,
            "create_call",
            vec![tyref(), value(), ApiType::ValueList(T)],
            B::CallExplicit,
        ),
        Call => add(
            reg,
            "create_call",
            vec![value(), ApiType::ValueList(T)],
            B::CallImplicit,
        ),
        Unreachable => add(reg, "create_unreachable", vec![], B::Unreachable),
        Add | FAdd | Sub | FSub | Mul | FMul | UDiv | SDiv | FDiv | URem | SRem | FRem | Shl
        | LShr | AShr | And | Or | Xor => add(
            reg,
            &format!("create_{}", op.name()),
            vec![value(), value()],
            B::Bin(op),
        ),
        FNeg => add(reg, "create_fneg", vec![value()], B::FNeg),
        Alloca => add(reg, "create_alloca", vec![tyref()], B::Alloca),
        Load if explicit => add(reg, "create_load", vec![tyref(), value()], B::LoadExplicit),
        Load => add(reg, "create_load", vec![value()], B::LoadImplicit),
        Store => add(reg, "create_store", vec![value(), value()], B::Store),
        GetElementPtr if explicit => add(
            reg,
            "create_gep",
            vec![tyref(), value(), ApiType::ValueList(T)],
            B::GepExplicit,
        ),
        GetElementPtr => add(
            reg,
            "create_gep",
            vec![value(), ApiType::ValueList(T)],
            B::GepImplicit,
        ),
        Trunc | ZExt | SExt | FPTrunc | FPExt | FPToUI | FPToSI | UIToFP | SIToFP | PtrToInt
        | IntToPtr | BitCast | AddrSpaceCast => add(
            reg,
            &format!("create_{}", op.name()),
            vec![value(), tyref()],
            B::Cast(op),
        ),
        ICmp => add(
            reg,
            "create_icmp",
            vec![ApiType::IntPred, value(), value()],
            B::ICmp,
        ),
        FCmp => add(
            reg,
            "create_fcmp",
            vec![ApiType::FloatPred, value(), value()],
            B::FCmp,
        ),
        Phi => add(
            reg,
            "create_phi",
            vec![tyref(), ApiType::PhiList(T)],
            B::Phi,
        ),
        Select => add(
            reg,
            "create_select",
            vec![value(), value(), value()],
            B::Select,
        ),
        Freeze => add(reg, "create_freeze", vec![value()], B::Freeze),
        IndirectBr => {
            reg.add_builder_fn(
                "create_indirect_br",
                vec![value(), ApiType::BlockList(T)],
                ret_ty(op),
                |ctx, args| {
                    let v = tgt_value_arg(args, 0)?;
                    let bs = blocks_arg(args, 1)?;
                    let void = ctx.tgt.types.void();
                    let mut ops = vec![v];
                    ops.extend(bs.iter().copied().map(ValueRef::Block));
                    ctx.build(Instruction::new(IndirectBr, void, ops))
                        .map(as_inst)
                },
            );
        }
        Invoke => {
            if explicit {
                reg.add_builder_fn(
                    "create_invoke",
                    vec![tyref(), value(), ApiType::ValueList(T), block(), block()],
                    ret_ty(op),
                    |ctx, args| {
                        let fnty = tgt_type_arg(args, 0)?;
                        let callee = tgt_value_arg(args, 1)?;
                        let call_args = tgt_values_arg(args, 2)?;
                        let n = tgt_block_arg(args, 3)?;
                        let u = tgt_block_arg(args, 4)?;
                        let ret = infer::fn_ret(&ctx.tgt.types, fnty)?;
                        build_invoke(ctx, ret, callee, call_args, n, u, Some(fnty))
                    },
                );
            } else {
                reg.add_builder_fn(
                    "create_invoke",
                    vec![value(), ApiType::ValueList(T), block(), block()],
                    ret_ty(op),
                    |ctx, args| {
                        let callee = tgt_value_arg(args, 0)?;
                        let call_args = tgt_values_arg(args, 1)?;
                        let n = tgt_block_arg(args, 2)?;
                        let u = tgt_block_arg(args, 3)?;
                        let ret = infer::callee_ret(&ctx.tgt_scope(), callee)?;
                        build_invoke(ctx, ret, callee, call_args, n, u, None)
                    },
                );
            }
        }
        CallBr => {
            reg.add_builder_fn(
                "create_callbr",
                vec![
                    tyref(),
                    value(),
                    ApiType::ValueList(T),
                    block(),
                    ApiType::BlockList(T),
                ],
                ret_ty(op),
                |ctx, args| {
                    let fnty = tgt_type_arg(args, 0)?;
                    let callee = tgt_value_arg(args, 1)?;
                    let call_args = tgt_values_arg(args, 2)?;
                    let ft = tgt_block_arg(args, 3)?;
                    let ind = blocks_arg(args, 4)?;
                    let ret = infer::fn_ret(&ctx.tgt.types, fnty)?;
                    let mut ops = vec![callee];
                    let n = call_args.len() as u32;
                    ops.extend_from_slice(call_args);
                    ops.push(ValueRef::Block(ft));
                    ops.extend(ind.iter().copied().map(ValueRef::Block));
                    let mut inst = Instruction::new(CallBr, ret, ops);
                    inst.attrs.num_args = n;
                    inst.attrs.callee_ty = Some(fnty);
                    ctx.build(inst).map(as_inst)
                },
            );
        }
        Resume => {
            reg.add_builder_fn("create_resume", vec![value()], ret_ty(op), |ctx, args| {
                let v = tgt_value_arg(args, 0)?;
                let void = ctx.tgt.types.void();
                ctx.build(Instruction::new(Resume, void, vec![v]))
                    .map(as_inst)
            });
        }
        Fence => {
            reg.add_builder_fn(
                "create_fence",
                vec![ApiType::Ordering],
                ret_ty(op),
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
            reg.add_builder_fn(
                "create_cmpxchg",
                vec![value(), value(), value()],
                ret_ty(op),
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
            reg.add_builder_fn(
                "create_atomicrmw",
                vec![ApiType::RmwOp, value(), value()],
                ret_ty(op),
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
        VAArg => {
            reg.add_builder_fn(
                "create_va_arg",
                vec![value(), tyref()],
                ret_ty(op),
                |ctx, args| {
                    let v = tgt_value_arg(args, 0)?;
                    let ty = tgt_type_arg(args, 1)?;
                    ctx.build(Instruction::new(VAArg, ty, vec![v])).map(as_inst)
                },
            );
        }
        ExtractElement => {
            reg.add_builder_fn(
                "create_extractelement",
                vec![value(), value()],
                ret_ty(op),
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
            reg.add_builder_fn(
                "create_insertelement",
                vec![value(), value(), value()],
                ret_ty(op),
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
            reg.add_builder_fn(
                "create_shufflevector",
                vec![value(), value(), ApiType::Indices],
                ret_ty(op),
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
            reg.add_builder_fn(
                "create_extractvalue",
                vec![value(), ApiType::Indices],
                ret_ty(op),
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
            reg.add_builder_fn(
                "create_insertvalue",
                vec![value(), value(), ApiType::Indices],
                ret_ty(op),
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
            reg.add_builder_fn(
                "create_landingpad",
                vec![tyref(), ApiType::Bool],
                ret_ty(op),
                |ctx, args| {
                    let ty = tgt_type_arg(args, 0)?;
                    let cleanup = matches!(args.get(1), Some(ApiValue::Bool(true)));
                    let mut inst = Instruction::new(LandingPad, ty, vec![]);
                    inst.attrs.is_cleanup = cleanup;
                    ctx.build(inst).map(as_inst)
                },
            );
        }
        CatchSwitch => {
            reg.add_builder_fn(
                "create_catchswitch",
                vec![ApiType::BlockList(T)],
                ret_ty(op),
                |ctx, args| {
                    let bs = blocks_arg(args, 0)?;
                    let void = ctx.tgt.types.void();
                    let ops: siro_ir::OpVec = bs.iter().copied().map(ValueRef::Block).collect();
                    ctx.build(Instruction::new(CatchSwitch, void, ops))
                        .map(as_inst)
                },
            );
        }
        CatchPad | CleanupPad => {
            reg.add_builder_fn(
                format!("create_{}", op.name()),
                vec![],
                ret_ty(op),
                move |ctx, _| {
                    let tok = ctx.tgt.types.token();
                    ctx.build(Instruction::new(op, tok, vec![])).map(as_inst)
                },
            );
        }
        CatchRet | CleanupRet => {
            reg.add_builder_fn(
                format!("create_{}", op.name()),
                vec![block()],
                ret_ty(op),
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

fn build_invoke(
    ctx: &mut TranslationCtx<'_>,
    ret: TypeId,
    callee: ValueRef,
    call_args: &[ValueRef],
    normal: siro_ir::BlockId,
    unwind: siro_ir::BlockId,
    fnty: Option<TypeId>,
) -> ApiResult<ApiValue> {
    let mut ops = vec![callee];
    let n = call_args.len() as u32;
    ops.extend_from_slice(call_args);
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

/// The target builders the compiled tier runs as micro-ops ("construct
/// in-memory IR programs and IR elements", Tab. 2). Each variant is one
/// body, [`Builder::build`], generic over the environment it builds into
/// and over where its positional arguments live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builder {
    /// `create_ret(v)`.
    Ret,
    /// `create_ret_void()`.
    RetVoid,
    /// `create_br(b)`.
    Br,
    /// `create_cond_br(c, t, f)`.
    CondBr,
    /// `create_switch(v, default, cases)`.
    Switch,
    /// Pre-9.0 `create_call(callee, args)`: the return type is read off
    /// the callee.
    CallImplicit,
    /// 9.0+ `create_call(fnty, callee, args)`.
    CallExplicit,
    /// `create_unreachable()`.
    Unreachable,
    /// The 18 two-operand arithmetic and bitwise builders, `create_add`
    /// to `create_xor`.
    Bin(Opcode),
    /// `create_fneg(v)`.
    FNeg,
    /// `create_alloca(ty)`.
    Alloca,
    /// 9.0+ `create_load(ty, ptr)`.
    LoadExplicit,
    /// Pre-9.0 `create_load(ptr)`: the type is the pointer's pointee.
    LoadImplicit,
    /// `create_store(v, ptr)`.
    Store,
    /// 9.0+ `create_gep(src_ty, base, indices)`.
    GepExplicit,
    /// Pre-9.0 `create_gep(base, indices)`.
    GepImplicit,
    /// The 13 single-value casts, `create_trunc` to
    /// `create_addrspacecast`.
    Cast(Opcode),
    /// `create_icmp(pred, a, b)`.
    ICmp,
    /// `create_fcmp(pred, a, b)`.
    FCmp,
    /// `create_phi(ty, incoming)`.
    Phi,
    /// `create_select(c, t, f)`.
    Select,
    /// `create_freeze(v)`.
    Freeze,
}

impl Builder {
    /// Builds the instruction from `args`, the builder's positional
    /// arguments, at `env`'s insertion point. Result types come from the
    /// rules in [`siro_ir::infer`].
    ///
    /// # Errors
    ///
    /// An argument of the wrong type (`arg {i}: expected …`), a failed
    /// result-type rule, a failed translation of a fused list, or no
    /// insertion point.
    #[allow(clippy::too_many_lines)]
    pub fn build<E: ExecEnv, A: Args + ?Sized>(self, env: &mut E, args: &A) -> ApiResult<ValueRef> {
        use Builder as B;
        let void = |env: &mut E| env.tgt().types_mut().void();
        match self {
            B::Ret => {
                let v = tgt_value_arg(args, 0)?;
                let void = void(env);
                env.build(Instruction::new(Opcode::Ret, void, vec![v]))
            }
            B::RetVoid => {
                let void = void(env);
                env.build(Instruction::new(Opcode::Ret, void, vec![]))
            }
            B::Br => {
                let b = tgt_block_arg(args, 0)?;
                let void = void(env);
                env.build(Instruction::new(Opcode::Br, void, vec![ValueRef::Block(b)]))
            }
            B::CondBr => {
                let c = tgt_value_arg(args, 0)?;
                let t = tgt_block_arg(args, 1)?;
                let f = tgt_block_arg(args, 2)?;
                let void = void(env);
                let ops = vec![c, ValueRef::Block(t), ValueRef::Block(f)];
                env.build(Instruction::new(Opcode::Br, void, ops))
            }
            B::Switch => {
                let v = tgt_value_arg(args, 0)?;
                let def = tgt_block_arg(args, 1)?;
                let Some(ApiValue::Cases(Side::Target, cases)) = args.arg(2) else {
                    return Err(ApiError::Type("expected target cases".into()));
                };
                let void = void(env);
                let mut ops = Vec::with_capacity(2 + cases.len() * 2);
                ops.extend([v, ValueRef::Block(def)]);
                for &(c, b) in cases {
                    ops.extend([c, ValueRef::Block(b)]);
                }
                env.build(Instruction::new(Opcode::Switch, void, ops))
            }
            B::CallImplicit | B::CallExplicit => {
                let explicit = self == B::CallExplicit;
                let fnty = if explicit {
                    Some(tgt_type_arg(args, 0)?)
                } else {
                    None
                };
                let at = usize::from(explicit);
                let callee = tgt_value_arg(args, at)?;
                let ops = list_operands(env, args, callee, at + 1)?;
                let ret = match fnty {
                    Some(fnty) => infer::fn_ret(env.tgt().types(), fnty)?,
                    None => infer::callee_ret(&env.tgt(), callee)?,
                };
                let n = (ops.len() - 1) as u32;
                let mut inst = Instruction::new(Opcode::Call, ret, ops);
                inst.attrs.num_args = n;
                inst.attrs.callee_ty = fnty;
                env.build(inst)
            }
            B::Unreachable => {
                let void = void(env);
                env.build(Instruction::new(Opcode::Unreachable, void, vec![]))
            }
            B::Bin(op) => {
                let a = tgt_value_arg(args, 0)?;
                let b = tgt_value_arg(args, 1)?;
                let ty = infer::shared_operand_type(&env.tgt(), a, b)?;
                env.build(Instruction::new(op, ty, vec![a, b]))
            }
            B::FNeg | B::Freeze => {
                let op = if self == B::FNeg {
                    Opcode::FNeg
                } else {
                    Opcode::Freeze
                };
                let v = tgt_value_arg(args, 0)?;
                let ty = infer::operand_type(&env.tgt(), v)?;
                env.build(Instruction::new(op, ty, vec![v]))
            }
            B::Alloca => {
                let ty = tgt_type_arg(args, 0)?;
                let ptr = env.tgt().types_mut().ptr(ty);
                let mut inst = Instruction::new(Opcode::Alloca, ptr, vec![]);
                inst.attrs.alloc_ty = Some(ty);
                env.build(inst)
            }
            B::LoadExplicit | B::LoadImplicit => {
                let (ty, p) = if self == B::LoadExplicit {
                    (tgt_type_arg(args, 0)?, tgt_value_arg(args, 1)?)
                } else {
                    let p = tgt_value_arg(args, 0)?;
                    (infer::load_type(&mut env.tgt(), p)?, p)
                };
                let mut inst = Instruction::new(Opcode::Load, ty, vec![p]);
                inst.attrs.gep_source_ty = Some(ty);
                env.build(inst)
            }
            B::Store => {
                let v = tgt_value_arg(args, 0)?;
                let p = tgt_value_arg(args, 1)?;
                let void = void(env);
                env.build(Instruction::new(Opcode::Store, void, vec![v, p]))
            }
            B::GepExplicit | B::GepImplicit => {
                let explicit = self == B::GepExplicit;
                let src_ty = if explicit {
                    Some(tgt_type_arg(args, 0)?)
                } else {
                    None
                };
                let at = usize::from(explicit);
                let base = tgt_value_arg(args, at)?;
                let ops = list_operands(env, args, base, at + 1)?;
                let src_ty = match src_ty {
                    Some(ty) => ty,
                    None => infer::gep_source_type(&mut env.tgt(), base)?,
                };
                let rty = infer::gep_result(env.tgt().types_mut(), src_ty, &ops[1..])?;
                let mut inst = Instruction::new(Opcode::GetElementPtr, rty, ops);
                inst.attrs.gep_source_ty = Some(src_ty);
                env.build(inst)
            }
            B::Cast(op) => {
                let v = tgt_value_arg(args, 0)?;
                let to = tgt_type_arg(args, 1)?;
                env.build(Instruction::new(op, to, vec![v]))
            }
            B::ICmp | B::FCmp => {
                let mut attrs = siro_ir::InstAttrs::default();
                let op = match args.arg(0) {
                    Some(ApiValue::IntPred(p)) if self == B::ICmp => {
                        attrs.int_pred = Some(*p);
                        Opcode::ICmp
                    }
                    Some(ApiValue::FloatPred(p)) if self == B::FCmp => {
                        attrs.float_pred = Some(*p);
                        Opcode::FCmp
                    }
                    _ => return Err(ApiError::Type("expected predicate".into())),
                };
                let a = tgt_value_arg(args, 1)?;
                let b = tgt_value_arg(args, 2)?;
                let rty = infer::cmp_type(&mut env.tgt(), a, b)?;
                let mut inst = Instruction::new(op, rty, vec![a, b]);
                inst.attrs = attrs;
                env.build(inst)
            }
            B::Phi => {
                let ty = tgt_type_arg(args, 0)?;
                let Some(ApiValue::Phis(Side::Target, pairs)) = args.arg(1) else {
                    return Err(ApiError::Type("expected target phi list".into()));
                };
                let mut ops = Vec::with_capacity(pairs.len() * 2);
                for &(v, b) in pairs {
                    ops.extend([v, ValueRef::Block(b)]);
                }
                env.build(Instruction::new(Opcode::Phi, ty, ops))
            }
            B::Select => {
                let c = tgt_value_arg(args, 0)?;
                let t = tgt_value_arg(args, 1)?;
                let f = tgt_value_arg(args, 2)?;
                let ty = infer::shared_operand_type(&env.tgt(), t, f)?;
                env.build(Instruction::new(Opcode::Select, ty, vec![c, t, f]))
            }
        }
    }
}

/// A call's or GEP's operand vector, `[head, list...]`, where `list` is
/// the target value list at position `i`, or the source operands it was
/// fused from, translated straight into the vector.
fn list_operands<E: ExecEnv, A: Args + ?Sized>(
    env: &mut E,
    args: &A,
    head: ValueRef,
    i: usize,
) -> ApiResult<Vec<ValueRef>> {
    let mut ops;
    if let Some(src) = args.fused_list() {
        ops = Vec::with_capacity(1 + src.len());
        ops.push(head);
        translate_values_into(env, src, &mut ops)?;
    } else {
        let list = tgt_values_arg(args, i)?;
        ops = Vec::with_capacity(1 + list.len());
        ops.push(head);
        ops.extend_from_slice(list);
    }
    Ok(ops)
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
