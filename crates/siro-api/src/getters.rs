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

use siro_ir::infer::{self, Scope};
use siro_ir::{Instruction, Opcode, ValueRef};

use crate::registry::{ApiRegistry, Component};
use crate::value::{ApiType, ApiValue, Side};
use crate::{ApiError, ApiResult};

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

/// Registers getter `g` under `name` for instructions of `op`.
fn add(reg: &mut ApiRegistry, name: &str, op: Opcode, ret: ApiType, g: Getter) {
    let params = if g.indexed() {
        vec![ApiType::Inst(op, S), ApiType::U32]
    } else {
        vec![ApiType::Inst(op, S)]
    };
    reg.add(name, params, ret, Component::Get(g));
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
    use Getter as G;
    if max_operand_index(op) > 0 {
        add(reg, "get_operand", op, ApiType::Value(S), G::Operand);
        add(
            reg,
            "get_operand_type",
            op,
            ApiType::TypeRef(S),
            G::OperandType,
        );
    }
    add(
        reg,
        "get_result_type",
        op,
        ApiType::TypeRef(S),
        G::ResultType,
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
        add(
            reg,
            "get_block_operand",
            op,
            ApiType::Block(S),
            G::BlockOperand,
        );
        add(reg, "get_successor", op, ApiType::Block(S), G::Successor);
    }
}

fn register_specific(reg: &mut ApiRegistry, op: Opcode) {
    use ApiType::{Bool, Indices};
    use Getter as G;
    use Opcode::*;
    let (value, block, ty) = (ApiType::Value(S), ApiType::Block(S), ApiType::TypeRef(S));
    let (values, blocks) = (ApiType::ValueList(S), ApiType::BlockList(S));
    let callee = if reg.src_version.renamed_called_operand_getter() {
        "get_called_operand"
    } else {
        "get_called_value"
    };
    let call_family = [
        (callee, value, G::Callee),
        ("get_called_function", value, G::CalledFunction),
        ("get_arguments", values, G::Arguments),
        ("get_callee_type", ty, G::CalleeType),
    ];
    let pointer = |i| ("get_pointer_operand", value, G::PointerOperand(i));
    let volatile = ("is_volatile", Bool, G::IsVolatile);
    let (lhs, rhs) = (("get_lhs", value, G::Lhs), ("get_rhs", value, G::Rhs));
    let ordering = ("get_ordering", ApiType::Ordering, G::OrderingOf);
    let getters: Vec<(&str, ApiType, Getter)> = match op {
        Br => vec![
            ("is_unconditional", Bool, G::IsUnconditional),
            ("get_condition", value, G::Condition),
        ],
        Ret => vec![
            ("is_void_return", Bool, G::IsVoidReturn),
            ("get_return_value", value, G::ReturnValue),
        ],
        Switch => vec![
            ("get_default_dest", block, G::DefaultDest),
            ("get_cases", ApiType::CaseList(S), G::Cases),
        ],
        IndirectBr => vec![
            ("get_address", value, G::Address),
            ("get_destinations", blocks, G::Destinations),
        ],
        Invoke => call_family
            .into_iter()
            .chain([
                ("get_normal_dest", block, G::NormalDest),
                ("get_unwind_dest", block, G::UnwindDest),
            ])
            .collect(),
        CallBr => call_family
            .into_iter()
            .chain([
                ("get_fallthrough_dest", block, G::FallthroughDest),
                ("get_indirect_dests", blocks, G::IndirectDests),
            ])
            .collect(),
        Call => call_family
            .into_iter()
            .chain([
                ("is_tail_call", Bool, G::IsTailCall),
                ("is_indirect_call", Bool, G::IsIndirectCall),
            ])
            .collect(),
        ICmp => vec![
            ("get_predicate", ApiType::IntPred, G::IntPredicateOf),
            lhs,
            rhs,
        ],
        FCmp => vec![
            (
                "get_float_predicate",
                ApiType::FloatPred,
                G::FloatPredicateOf,
            ),
            lhs,
            rhs,
        ],
        Alloca => vec![("get_allocated_type", ty, G::AllocatedType)],
        Load => vec![pointer(0), volatile],
        Store => vec![
            ("get_value_operand", value, G::ValueOperand),
            pointer(1),
            volatile,
        ],
        GetElementPtr => vec![
            pointer(0),
            ("get_source_element_type", ty, G::SourceElementType),
            ("get_indices", values, G::GepIndices),
            ("is_inbounds", Bool, G::IsInbounds),
        ],
        Fence => vec![ordering],
        CmpXchg => vec![ordering, pointer(0)],
        AtomicRmw => vec![
            ordering,
            pointer(0),
            ("get_rmw_operation", ApiType::RmwOp, G::RmwOperation),
        ],
        ExtractValue | InsertValue => vec![("get_index_path", Indices, G::IndexPath)],
        ShuffleVector => vec![("get_shuffle_mask", Indices, G::ShuffleMask)],
        Phi => vec![("get_incoming", ApiType::PhiList(S), G::Incoming)],
        LandingPad => vec![("is_cleanup", Bool, G::IsCleanup)],
        CatchSwitch => vec![("get_handlers", blocks, G::Handlers)],
        CatchRet | CleanupRet => vec![("get_dest", block, G::Dest)],
        _ => Vec::new(),
    };
    for (name, ret, g) in getters {
        add(reg, name, op, ret, g);
    }
}
/// The source getters ("access information from an IR memory object",
/// Tab. 2). Each variant is one body, [`Getter::get`], that the
/// interpreter, synthesis and the compiled tier all run; the registry
/// names a variant differently per kind and version (`get_called_value`
/// before 11.0, `get_called_operand` from 11.0 on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Getter {
    /// `get_operand(i)`: a non-label operand.
    Operand,
    /// `get_operand_type(i)`: the table type of an operand.
    OperandType,
    /// `get_result_type`.
    ResultType,
    /// `get_block_operand(i)`: a label operand.
    BlockOperand,
    /// `get_successor(i)`.
    Successor,
    /// `is_unconditional` (predicate).
    IsUnconditional,
    /// `get_condition`: a conditional branch's condition.
    Condition,
    /// `is_void_return` (predicate).
    IsVoidReturn,
    /// `get_return_value`.
    ReturnValue,
    /// `get_default_dest`: a switch's default.
    DefaultDest,
    /// `get_cases`: a switch's cases.
    Cases,
    /// `get_address`: an `indirectbr`'s address.
    Address,
    /// `get_destinations`: an `indirectbr`'s destinations.
    Destinations,
    /// `get_called_value` / `get_called_operand`: the callee.
    Callee,
    /// `get_called_function`: a direct call's function.
    CalledFunction,
    /// `get_arguments`: a call's arguments.
    Arguments,
    /// `get_callee_type`: the callee's function type, rebuilt from the
    /// call site when the callee is an opaque pointer.
    CalleeType,
    /// `get_normal_dest`.
    NormalDest,
    /// `get_unwind_dest`.
    UnwindDest,
    /// `get_fallthrough_dest`.
    FallthroughDest,
    /// `get_indirect_dests`.
    IndirectDests,
    /// `is_tail_call` (predicate).
    IsTailCall,
    /// `is_indirect_call` (predicate).
    IsIndirectCall,
    /// `get_predicate`: an `icmp`'s predicate.
    IntPredicateOf,
    /// `get_float_predicate`: an `fcmp`'s predicate.
    FloatPredicateOf,
    /// `get_lhs`.
    Lhs,
    /// `get_rhs`.
    Rhs,
    /// `get_allocated_type`.
    AllocatedType,
    /// `get_pointer_operand`, at this operand index (1 for stores, 0
    /// otherwise).
    PointerOperand(u8),
    /// `is_volatile` (predicate).
    IsVolatile,
    /// `get_value_operand`: a store's value.
    ValueOperand,
    /// `get_source_element_type`.
    SourceElementType,
    /// `get_indices`: a GEP's indices.
    GepIndices,
    /// `is_inbounds` (predicate).
    IsInbounds,
    /// `get_ordering`.
    OrderingOf,
    /// `get_rmw_operation`.
    RmwOperation,
    /// `get_index_path`.
    IndexPath,
    /// `get_shuffle_mask`.
    ShuffleMask,
    /// `get_incoming`: a phi's incoming pairs.
    Incoming,
    /// `is_cleanup` (predicate).
    IsCleanup,
    /// `get_handlers`: a `catchswitch`'s handlers.
    Handlers,
    /// `get_dest`: a `catchret`'s or `cleanupret`'s destination.
    Dest,
}

impl Getter {
    /// Whether the getter takes an operand or successor index (`u32`)
    /// after the instruction.
    pub fn indexed(self) -> bool {
        use Getter::*;
        matches!(self, Operand | OperandType | BlockOperand | Successor)
    }

    /// A predicate getter's flag on `inst` (the sub-kind predicates of
    /// Def. 3.1 are exactly the `bool` getters); `None` for every other
    /// getter.
    #[inline]
    pub fn flag(self, inst: &Instruction) -> Option<bool> {
        use Getter::*;
        Some(match self {
            IsUnconditional => inst.is_unconditional_branch(),
            IsVoidReturn => inst.is_void_return(),
            IsTailCall => inst.attrs.tail_call,
            IsIndirectCall => !matches!(
                inst.callee(),
                Some(ValueRef::Func(_) | ValueRef::InlineAsm(_))
            ),
            IsVolatile => inst.attrs.volatile,
            IsInbounds => inst.attrs.inbounds,
            IsCleanup => inst.attrs.is_cleanup,
            _ => return None,
        })
    }

    /// The operands a value-list getter returns, borrowed: the call
    /// arguments of `get_arguments` and the GEP indices of `get_indices`.
    /// `None` for every other getter.
    pub fn operand_list(self, inst: &Instruction) -> Option<&[ValueRef]> {
        match self {
            Getter::Arguments => Some(inst.call_args()),
            Getter::GepIndices => Some(&inst.operands[1..]),
            _ => None,
        }
    }

    /// Reads the getter's value off `inst`. `index` is an
    /// [indexed](Getter::indexed) getter's operand or successor index and
    /// is ignored otherwise; `src` is the source side, which only
    /// `get_operand_type` and `get_callee_type` read.
    ///
    /// # Errors
    ///
    /// An index out of range, an instruction of the wrong sub-kind (a
    /// condition of an unconditional branch, say) or a missing attribute.
    #[allow(clippy::too_many_lines)]
    pub fn get<Src: Scope>(
        self,
        inst: &Instruction,
        index: u32,
        src: &mut Src,
    ) -> ApiResult<ApiValue> {
        use ApiValue::{Blocks, Bool, SrcBlock, SrcType, SrcValue};
        use Getter::*;
        let i = index as usize;
        let operand = || {
            inst.operands
                .get(i)
                .copied()
                .ok_or_else(|| ApiError::OutOfRange(format!("operand {i}")))
        };
        let type_err = |msg: &str| ApiError::Type(msg.into());
        Ok(match self {
            IsUnconditional | IsVoidReturn | IsTailCall | IsIndirectCall | IsVolatile
            | IsInbounds | IsCleanup => Bool(self.flag(inst) == Some(true)),
            Operand => {
                let v = operand()?;
                if v.is_block() {
                    return Err(type_err("operand is a block label"));
                }
                SrcValue(v)
            }
            OperandType => src
                .value_type(operand()?)
                .map(SrcType)
                .ok_or_else(|| type_err("operand has no table type"))?,
            ResultType => SrcType(inst.ty),
            BlockOperand => operand()?
                .as_block()
                .map(SrcBlock)
                .ok_or_else(|| type_err("operand is not a block"))?,
            Successor => inst
                .successors()
                .get(i)
                .copied()
                .map(SrcBlock)
                .ok_or_else(|| ApiError::OutOfRange(format!("successor {i}")))?,
            Condition => {
                if inst.is_unconditional_branch() {
                    return Err(ApiError::WrongSubKind(
                        "unconditional branch has no condition".into(),
                    ));
                }
                SrcValue(inst.operands[0])
            }
            ReturnValue => inst
                .operands
                .first()
                .copied()
                .map(SrcValue)
                .ok_or_else(|| ApiError::WrongSubKind("void return has no value".into()))?,
            DefaultDest => inst
                .operands
                .get(1)
                .and_then(|v| v.as_block())
                .map(SrcBlock)
                .ok_or_else(|| type_err("switch default missing"))?,
            Cases => ApiValue::Cases(S, inst.switch_cases()),
            Address | Lhs | ValueOperand => SrcValue(inst.operands[0]),
            Rhs => SrcValue(inst.operands[1]),
            Destinations | Handlers => Blocks(S, inst.successors()),
            Callee => inst
                .callee()
                .map(SrcValue)
                .ok_or_else(|| type_err("no callee"))?,
            CalledFunction => match inst.callee() {
                Some(v @ ValueRef::Func(_)) => SrcValue(v),
                _ => return Err(ApiError::WrongSubKind("indirect call".into())),
            },
            Arguments | GepIndices => {
                ApiValue::Values(S, self.operand_list(inst).unwrap_or_default().to_vec())
            }
            CalleeType => {
                let callee = inst.callee().ok_or_else(|| type_err("no callee"))?;
                SrcType(infer::callee_type(src, callee, inst.ty, inst.call_args())?)
            }
            NormalDest | UnwindDest | FallthroughDest => {
                let n = usize::from(self == UnwindDest);
                let what = if self == FallthroughDest {
                    "callbr without dests"
                } else {
                    "invoke without dests"
                };
                inst.successors()
                    .get(n)
                    .copied()
                    .map(SrcBlock)
                    .ok_or_else(|| type_err(what))?
            }
            IndirectDests => Blocks(S, inst.successors()[1..].to_vec()),
            IntPredicateOf => inst
                .attrs
                .int_pred
                .map(ApiValue::IntPred)
                .ok_or_else(|| type_err("icmp without predicate"))?,
            FloatPredicateOf => inst
                .attrs
                .float_pred
                .map(ApiValue::FloatPred)
                .ok_or_else(|| type_err("fcmp without predicate"))?,
            AllocatedType => inst
                .attrs
                .alloc_ty
                .map(SrcType)
                .ok_or_else(|| type_err("alloca without type"))?,
            PointerOperand(p) => inst
                .operands
                .get(usize::from(p))
                .copied()
                .map(SrcValue)
                .ok_or_else(|| ApiError::OutOfRange("pointer operand".into()))?,
            SourceElementType => inst
                .attrs
                .gep_source_ty
                .map(SrcType)
                .ok_or_else(|| type_err("gep without source type"))?,
            OrderingOf => ApiValue::Ordering(
                inst.attrs
                    .ordering
                    .unwrap_or(siro_ir::AtomicOrdering::SeqCst),
            ),
            RmwOperation => inst
                .attrs
                .rmw_op
                .map(ApiValue::RmwOp)
                .ok_or_else(|| type_err("atomicrmw without op"))?,
            IndexPath | ShuffleMask => ApiValue::Indices(inst.attrs.indices.clone()),
            Incoming => ApiValue::Phis(S, inst.phi_incoming()),
            Dest => inst
                .operands
                .first()
                .and_then(|v| v.as_block())
                .map(SrcBlock)
                .ok_or_else(|| type_err("missing destination"))?,
        })
    }
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
