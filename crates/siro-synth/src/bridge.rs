//! Cross-dialect bridge anchors: lowering Siro straight-line functions to
//! WIR and raising WIR straight-line bodies back into Siro SSA.
//!
//! The version-graph router composes translators *within* a dialect freely,
//! but crossing between the Siro register IR and the WIR stack machine needs
//! a semantic map, not a synthesized API rewrite: the two dialects disagree
//! on observable behaviour in exactly two places,
//!
//! 1. **`sdiv MIN / -1`** — Siro wraps (`wrapping_div`, the result is `MIN`)
//!    while WIR traps with `integer-overflow` like wasm;
//! 2. **`select` condition truthiness** — Siro keys on the *low bit* of the
//!    condition while WIR keys on *non-zero*.
//!
//! Both directions of the bridge normalize these divergences so that a
//! module and its image land in the same behaviour bucket
//! ([`XBehaviour`]): lowering guards `sdiv` with a select-composite that
//! preserves the wrap, and masks select conditions with `& 1`; raising
//! guards `div_s` so the overflow case degrades to a division by zero —
//! still an arithmetic trap, i.e. the same bucket WIR's `integer-overflow`
//! occupies.
//!
//! Bridges exist only at **anchor pairs** ([`BRIDGE_ANCHORS`]): a bridge is
//! validated once per pair over a corpus of generated straight-line modules
//! (raise, round-trip lower, plus hand-written divergence cases) and the
//! resulting certificate is persisted as a `.sirb` named store entry. The
//! router treats a validated anchor as a warm edge; everything else
//! cross-dialect is unreachable rather than silently mis-translated.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use siro_ir::interp::{Machine, TrapKind};
use siro_ir::{FuncBuilder, InstId, IntPredicate, IrVersion, Module, Opcode, Type, ValueRef};
use siro_wir::{
    generate_straightline, WBin, WCmp, WTy, WirExec, WirFunc, WirInst, WirMachine, WirModule,
    WirTrap, WirVersion,
};

use crate::store::active_store;

/// Fuel budget used when bucketing behaviour on either side of the bridge.
pub const BRIDGE_FUEL: u64 = 200_000;

/// Number of generated straight-line seeds a bridge is validated over.
pub const BRIDGE_SEEDS: u64 = 48;

/// The anchor pairs at which SIRO↔WIR bridges are defined. Each entry is a
/// `(siro, wir)` version pair; the bridge is bidirectional.
pub const BRIDGE_ANCHORS: [(IrVersion, WirVersion); 2] = [
    (IrVersion::V13_0, WirVersion::W2_0),
    (IrVersion::V15_0, WirVersion::W3_0),
];

/// Whether `(siro, wir)` is one of the [`BRIDGE_ANCHORS`].
pub fn is_anchor_pair(siro: IrVersion, wir: WirVersion) -> bool {
    BRIDGE_ANCHORS.iter().any(|&(s, w)| s == siro && w == wir)
}

/// A bridge failure: an out-of-scope construct, a malformed input, or a
/// validation divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeError {
    /// The input uses a construct outside the bridged subset.
    Unsupported(String),
    /// The input is structurally broken (should not happen on verified
    /// modules).
    Malformed(String),
    /// The requested pair is not a bridge anchor.
    NotAnAnchor(IrVersion, WirVersion),
    /// Validation found a behaviour divergence between a module and its
    /// image.
    Divergence(String),
}

impl fmt::Display for BridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BridgeError::Unsupported(what) => write!(f, "bridge: unsupported {what}"),
            BridgeError::Malformed(what) => write!(f, "bridge: malformed input: {what}"),
            BridgeError::NotAnAnchor(s, w) => {
                write!(f, "bridge: {s}<->wir{w} is not an anchor pair")
            }
            BridgeError::Divergence(what) => write!(f, "bridge: divergence: {what}"),
        }
    }
}

impl std::error::Error for BridgeError {}

// ---------------------------------------------------------------------------
// Behaviour bucketing
// ---------------------------------------------------------------------------

/// A dialect-neutral behaviour bucket. Exact values must match across the
/// bridge; arithmetic traps are compared as a class because the two
/// dialects name the `MIN / -1` case differently (Siro wraps so the guard
/// forces a division by zero; WIR traps `integer-overflow` natively).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XBehaviour {
    /// Returned this integer (i32 results sign-extended).
    Value(i64),
    /// An arithmetic trap: division by zero or integer overflow.
    Arith,
    /// Ran out of fuel.
    Fuel,
    /// Anything else (other traps, missing result, interpreter error).
    Other,
}

impl fmt::Display for XBehaviour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XBehaviour::Value(v) => write!(f, "value {v}"),
            XBehaviour::Arith => f.write_str("arith-trap"),
            XBehaviour::Fuel => f.write_str("fuel"),
            XBehaviour::Other => f.write_str("other"),
        }
    }
}

/// Runs a WIR module and buckets the outcome.
pub fn wir_behaviour(m: &WirModule) -> XBehaviour {
    match WirMachine::new(m).with_fuel(BRIDGE_FUEL).run_main().result {
        WirExec::Value(v) => XBehaviour::Value(v),
        WirExec::Trap(WirTrap::DivByZero) | WirExec::Trap(WirTrap::IntegerOverflow) => {
            XBehaviour::Arith
        }
        WirExec::Trap(WirTrap::FuelExhausted) => XBehaviour::Fuel,
        _ => XBehaviour::Other,
    }
}

/// Runs a Siro module's `main` and buckets the outcome.
pub fn siro_behaviour(m: &Module) -> XBehaviour {
    let Ok(o) = Machine::new(m).with_fuel(BRIDGE_FUEL).run_main() else {
        return XBehaviour::Other;
    };
    if let Some(v) = o.return_int() {
        return XBehaviour::Value(v);
    }
    match o.trap().map(|t| t.kind.clone()) {
        Some(TrapKind::DivByZero) => XBehaviour::Arith,
        Some(TrapKind::FuelExhausted) => XBehaviour::Fuel,
        _ => XBehaviour::Other,
    }
}

// ---------------------------------------------------------------------------
// Lowering: Siro -> WIR
// ---------------------------------------------------------------------------

/// Lowers a straight-line Siro `main` (single entry block, `i32` return,
/// no params) into a WIR module of the given version.
///
/// Every SSA result is spilled into a fresh WIR local; `sdiv` lowers to a
/// select-guarded composite that preserves Siro's wrapping `MIN / -1`, and
/// `select` conditions are masked with `& 1` to preserve Siro's low-bit
/// truthiness.
///
/// # Errors
///
/// [`BridgeError::Unsupported`] on multi-block functions, non-`i32` shapes,
/// or opcodes outside the bridged subset.
pub fn lower_module(m: &Module, to: WirVersion) -> Result<WirModule, BridgeError> {
    if to < WirVersion::W2_0 {
        return Err(BridgeError::Unsupported(format!(
            "lowering targets need select (wir2.0+), got wir{to}"
        )));
    }
    let fid = m
        .func_by_name("main")
        .ok_or_else(|| BridgeError::Malformed("no main function".into()))?;
    let func = m.func(fid);
    if func.is_external || func.varargs || !func.params.is_empty() {
        return Err(BridgeError::Unsupported(
            "main must be a nullary definition".into(),
        ));
    }
    if !matches!(m.types.get(func.ret_ty), Type::Int(32)) {
        return Err(BridgeError::Unsupported("main must return i32".into()));
    }
    if func.blocks.len() != 1 {
        return Err(BridgeError::Unsupported(format!(
            "control flow ({} blocks); the bridge is straight-line only",
            func.blocks.len()
        )));
    }
    let entry = func
        .entry()
        .ok_or_else(|| BridgeError::Malformed("main has no entry block".into()))?;

    let mut out = WirModule::new(format!("{}_lowered", m.name), to);
    let mut wf = WirFunc::new("main", vec![], Some(WTy::I32));
    // SSA result -> WIR local.
    let mut slot: HashMap<InstId, u32> = HashMap::new();

    // Pushes one Siro operand onto the WIR stack.
    let push_operand =
        |wf: &mut WirFunc, slot: &HashMap<InstId, u32>, v: &ValueRef| -> Result<(), BridgeError> {
            match v {
                ValueRef::Inst(id) => {
                    let l = slot.get(id).ok_or_else(|| {
                        BridgeError::Malformed("operand before definition".into())
                    })?;
                    wf.body.alloc(WirInst::LocalGet(*l));
                    Ok(())
                }
                ValueRef::ConstInt { value, .. } => {
                    wf.body
                        .alloc(WirInst::Const(WTy::I32, *value as i32 as i64));
                    Ok(())
                }
                other => Err(BridgeError::Unsupported(format!("operand {other:?}"))),
            }
        };

    let mut returned = false;
    for &iid in &func.block(entry).insts {
        let inst = func.inst(iid);
        if returned {
            return Err(BridgeError::Malformed("instruction after ret".into()));
        }
        match inst.opcode {
            Opcode::Add
            | Opcode::Sub
            | Opcode::Mul
            | Opcode::SRem
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Shl
            | Opcode::AShr => {
                let op = match inst.opcode {
                    Opcode::Add => WBin::Add,
                    Opcode::Sub => WBin::Sub,
                    Opcode::Mul => WBin::Mul,
                    Opcode::SRem => WBin::RemS,
                    Opcode::And => WBin::And,
                    Opcode::Or => WBin::Or,
                    Opcode::Xor => WBin::Xor,
                    Opcode::Shl => WBin::Shl,
                    Opcode::AShr => WBin::ShrS,
                    _ => unreachable!(),
                };
                push_operand(&mut wf, &slot, &inst.operands[0])?;
                push_operand(&mut wf, &slot, &inst.operands[1])?;
                wf.body.alloc(WirInst::Binop(WTy::I32, op));
                let l = wf.alloc_local(WTy::I32);
                wf.body.alloc(WirInst::LocalSet(l));
                slot.insert(iid, l);
            }
            Opcode::SDiv => {
                // Guarded lowering preserving Siro's wrap: WIR `div_s`
                // traps on MIN / -1, so divide by a safe divisor when the
                // overflow predicate holds and select the wrapped result
                // (which is just `a`, i.e. MIN) afterwards.
                let la = wf.alloc_local(WTy::I32);
                let lb = wf.alloc_local(WTy::I32);
                let lovf = wf.alloc_local(WTy::I32);
                let lq = wf.alloc_local(WTy::I32);
                push_operand(&mut wf, &slot, &inst.operands[0])?;
                wf.body.alloc(WirInst::LocalSet(la));
                push_operand(&mut wf, &slot, &inst.operands[1])?;
                wf.body.alloc(WirInst::LocalSet(lb));
                // ovf = (a == MIN) & (b == -1)
                wf.body.alloc(WirInst::LocalGet(la));
                wf.body.alloc(WirInst::Const(WTy::I32, i32::MIN as i64));
                wf.body.alloc(WirInst::Cmp(WTy::I32, WCmp::Eq));
                wf.body.alloc(WirInst::LocalGet(lb));
                wf.body.alloc(WirInst::Const(WTy::I32, -1));
                wf.body.alloc(WirInst::Cmp(WTy::I32, WCmp::Eq));
                wf.body.alloc(WirInst::Binop(WTy::I32, WBin::And));
                wf.body.alloc(WirInst::LocalSet(lovf));
                // q = a / (ovf ? 1 : b)  — never traps on overflow, still
                // traps DivByZero exactly when b == 0.
                wf.body.alloc(WirInst::LocalGet(la));
                wf.body.alloc(WirInst::Const(WTy::I32, 1));
                wf.body.alloc(WirInst::LocalGet(lb));
                wf.body.alloc(WirInst::LocalGet(lovf));
                wf.body.alloc(WirInst::Select);
                wf.body.alloc(WirInst::Binop(WTy::I32, WBin::DivS));
                wf.body.alloc(WirInst::LocalSet(lq));
                // result = ovf ? a : q   (wrapping MIN / -1 == MIN == a)
                wf.body.alloc(WirInst::LocalGet(la));
                wf.body.alloc(WirInst::LocalGet(lq));
                wf.body.alloc(WirInst::LocalGet(lovf));
                wf.body.alloc(WirInst::Select);
                let l = wf.alloc_local(WTy::I32);
                wf.body.alloc(WirInst::LocalSet(l));
                slot.insert(iid, l);
            }
            Opcode::ICmp => {
                let pred = inst
                    .attrs
                    .int_pred
                    .ok_or_else(|| BridgeError::Malformed("icmp without predicate".into()))?;
                let c = match pred {
                    IntPredicate::Eq => WCmp::Eq,
                    IntPredicate::Ne => WCmp::Ne,
                    IntPredicate::Slt => WCmp::LtS,
                    IntPredicate::Sgt => WCmp::GtS,
                    IntPredicate::Sle => WCmp::LeS,
                    IntPredicate::Sge => WCmp::GeS,
                    other => {
                        return Err(BridgeError::Unsupported(format!(
                            "unsigned icmp predicate {other:?}"
                        )))
                    }
                };
                push_operand(&mut wf, &slot, &inst.operands[0])?;
                push_operand(&mut wf, &slot, &inst.operands[1])?;
                wf.body.alloc(WirInst::Cmp(WTy::I32, c));
                let l = wf.alloc_local(WTy::I32);
                wf.body.alloc(WirInst::LocalSet(l));
                slot.insert(iid, l);
            }
            Opcode::Select => {
                // Siro keys on the condition's low bit; WIR keys on
                // non-zero. Mask with `& 1` before selecting.
                push_operand(&mut wf, &slot, &inst.operands[1])?; // true value
                push_operand(&mut wf, &slot, &inst.operands[2])?; // false value
                push_operand(&mut wf, &slot, &inst.operands[0])?; // condition
                wf.body.alloc(WirInst::Const(WTy::I32, 1));
                wf.body.alloc(WirInst::Binop(WTy::I32, WBin::And));
                wf.body.alloc(WirInst::Select);
                let l = wf.alloc_local(WTy::I32);
                wf.body.alloc(WirInst::LocalSet(l));
                slot.insert(iid, l);
            }
            Opcode::ZExt => {
                // Only `zext i1 -> i32` of a compare result appears in the
                // bridged subset; the WIR value is already an i32 0/1, so
                // this is a move.
                let src = match inst.operands[0] {
                    ValueRef::Inst(id) if func.inst(id).opcode == Opcode::ICmp => id,
                    _ => {
                        return Err(BridgeError::Unsupported(
                            "zext of a non-compare value".into(),
                        ))
                    }
                };
                let from = *slot
                    .get(&src)
                    .ok_or_else(|| BridgeError::Malformed("zext before definition".into()))?;
                wf.body.alloc(WirInst::LocalGet(from));
                let l = wf.alloc_local(WTy::I32);
                wf.body.alloc(WirInst::LocalSet(l));
                slot.insert(iid, l);
            }
            Opcode::Ret => {
                let v = inst
                    .operands
                    .first()
                    .ok_or_else(|| BridgeError::Unsupported("ret void".into()))?;
                push_operand(&mut wf, &slot, v)?;
                wf.body.alloc(WirInst::Return);
                returned = true;
            }
            other => {
                return Err(BridgeError::Unsupported(format!("opcode {}", other.name())));
            }
        }
    }
    if !returned {
        return Err(BridgeError::Malformed("main does not return".into()));
    }
    out.funcs.push(wf);
    siro_wir::verify_module(&out)
        .map_err(|e| BridgeError::Malformed(format!("lowered module fails validation: {e}")))?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Raising: WIR -> Siro
// ---------------------------------------------------------------------------

/// Raises a straight-line WIR `main` (no control flow, no calls, `i32`
/// result) into a Siro module of the given version via symbolic stack
/// evaluation.
///
/// `div_s` raises to a guarded `sdiv` whose divisor is forced to zero on
/// the `MIN / -1` case, so WIR's `integer-overflow` trap degrades to
/// Siro's division-by-zero — the same [`XBehaviour::Arith`] bucket.
/// `select` conditions are re-boolean-ized with `icmp ne 0` to preserve
/// WIR's non-zero truthiness under Siro's low-bit rule.
///
/// # Errors
///
/// [`BridgeError::Unsupported`] on control flow, calls, or `i64` operands.
pub fn raise_module(w: &WirModule, to: IrVersion) -> Result<Module, BridgeError> {
    let wf = w
        .main()
        .ok_or_else(|| BridgeError::Malformed("no main function".into()))?;
    if w.funcs.len() != 1 {
        return Err(BridgeError::Unsupported("multi-function modules".into()));
    }
    if !wf.params.is_empty() || wf.result != Some(WTy::I32) {
        return Err(BridgeError::Unsupported("main must be () -> i32".into()));
    }
    if wf.locals.iter().any(|&t| t != WTy::I32) {
        return Err(BridgeError::Unsupported("i64 locals".into()));
    }

    let mut m = Module::new(format!("{}_raised", w.name), to);
    let i32t = m.types.i32();
    let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
    let mut b = FuncBuilder::new(&mut m, f);
    let entry = b.add_block("entry");
    b.position_at_end(entry);

    let zero = ValueRef::const_int(i32t, 0);
    let mut locals: Vec<ValueRef> = vec![zero; wf.locals.len()];
    let mut stack: Vec<ValueRef> = Vec::new();
    let pop = |stack: &mut Vec<ValueRef>| -> Result<ValueRef, BridgeError> {
        stack
            .pop()
            .ok_or_else(|| BridgeError::Malformed("stack underflow".into()))
    };

    let mut returned = false;
    for inst in wf.body.iter() {
        if returned {
            return Err(BridgeError::Malformed("instruction after return".into()));
        }
        match inst {
            WirInst::Const(WTy::I32, v) => stack.push(ValueRef::const_int(i32t, *v)),
            WirInst::Const(WTy::I64, _) => {
                return Err(BridgeError::Unsupported("i64 constants".into()))
            }
            WirInst::Binop(WTy::I32, op) => {
                let rhs = pop(&mut stack)?;
                let lhs = pop(&mut stack)?;
                let v = match op {
                    WBin::Add => b.add(lhs, rhs),
                    WBin::Sub => b.sub(lhs, rhs),
                    WBin::Mul => b.mul(lhs, rhs),
                    WBin::RemS => b.srem(lhs, rhs),
                    WBin::And => b.and(lhs, rhs),
                    WBin::Or => b.or(lhs, rhs),
                    WBin::Xor => b.xor(lhs, rhs),
                    WBin::Shl => b.shl(lhs, rhs),
                    WBin::ShrS => b.ashr(lhs, rhs),
                    WBin::DivS => {
                        // WIR traps MIN / -1; Siro would wrap. Force the
                        // divisor to zero on that case so it stays an
                        // arithmetic trap (DivByZero) on the Siro side.
                        let ea = b.icmp(
                            IntPredicate::Eq,
                            lhs,
                            ValueRef::const_int(i32t, i32::MIN as i64),
                        );
                        let eb = b.icmp(IntPredicate::Eq, rhs, ValueRef::const_int(i32t, -1));
                        let ovf = b.and(ea, eb);
                        let safe = b.select(ovf, zero, rhs);
                        b.sdiv(lhs, safe)
                    }
                };
                stack.push(v);
            }
            WirInst::Cmp(WTy::I32, c) => {
                let rhs = pop(&mut stack)?;
                let lhs = pop(&mut stack)?;
                let pred = match c {
                    WCmp::Eq => IntPredicate::Eq,
                    WCmp::Ne => IntPredicate::Ne,
                    WCmp::LtS => IntPredicate::Slt,
                    WCmp::GtS => IntPredicate::Sgt,
                    WCmp::LeS => IntPredicate::Sle,
                    WCmp::GeS => IntPredicate::Sge,
                };
                let v = b.icmp(pred, lhs, rhs);
                stack.push(b.zext(v, i32t));
            }
            WirInst::Eqz(WTy::I32) => {
                let a = pop(&mut stack)?;
                let v = b.icmp(IntPredicate::Eq, a, zero);
                stack.push(b.zext(v, i32t));
            }
            WirInst::Select => {
                // WIR: non-zero condition picks the first pushed value.
                // Siro keys on the low bit, so re-boolean-ize first.
                let cond = pop(&mut stack)?;
                let on_false = pop(&mut stack)?;
                let on_true = pop(&mut stack)?;
                let nz = b.icmp(IntPredicate::Ne, cond, zero);
                stack.push(b.select(nz, on_true, on_false));
            }
            WirInst::LocalGet(i) => {
                let v = *locals
                    .get(*i as usize)
                    .ok_or_else(|| BridgeError::Malformed("local out of range".into()))?;
                stack.push(v);
            }
            WirInst::LocalSet(i) => {
                let v = pop(&mut stack)?;
                *locals
                    .get_mut(*i as usize)
                    .ok_or_else(|| BridgeError::Malformed("local out of range".into()))? = v;
            }
            WirInst::LocalTee(i) => {
                let v = *stack
                    .last()
                    .ok_or_else(|| BridgeError::Malformed("stack underflow".into()))?;
                *locals
                    .get_mut(*i as usize)
                    .ok_or_else(|| BridgeError::Malformed("local out of range".into()))? = v;
            }
            WirInst::Drop => {
                pop(&mut stack)?;
            }
            WirInst::Nop => {}
            WirInst::Return => {
                let v = pop(&mut stack)?;
                b.ret(Some(v));
                returned = true;
            }
            WirInst::Binop(WTy::I64, _) | WirInst::Cmp(WTy::I64, _) | WirInst::Eqz(WTy::I64) => {
                return Err(BridgeError::Unsupported("i64 operations".into()))
            }
            other => {
                return Err(BridgeError::Unsupported(format!(
                    "control flow / calls ({other:?})"
                )))
            }
        }
    }
    if !returned {
        // Fall-off return: the remaining stack must be exactly the result.
        if stack.len() != 1 {
            return Err(BridgeError::Malformed(format!(
                "fall-off with stack depth {}",
                stack.len()
            )));
        }
        let v = stack.pop().expect("checked non-empty");
        b.ret(Some(v));
    }
    siro_ir::verify::verify_module(&m)
        .map_err(|e| BridgeError::Malformed(format!("raised module fails verification: {e}")))?;
    Ok(m)
}

// ---------------------------------------------------------------------------
// Validation + certificates
// ---------------------------------------------------------------------------

/// Statistics from validating one bridge anchor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BridgeStats {
    /// Total modules whose behaviour was compared across the bridge.
    pub modules_checked: usize,
    /// How many of those ended in the arithmetic-trap bucket (the
    /// normalized divergence class).
    pub arith_cases: usize,
}

/// A validated bridge anchor.
#[derive(Debug, Clone)]
pub struct BridgeOutcome {
    /// The Siro side of the anchor.
    pub siro: IrVersion,
    /// The WIR side of the anchor.
    pub wir: WirVersion,
    /// Validation statistics.
    pub stats: BridgeStats,
}

fn check(
    label: &str,
    got: XBehaviour,
    want: XBehaviour,
    stats: &mut BridgeStats,
) -> Result<(), BridgeError> {
    stats.modules_checked += 1;
    if want == XBehaviour::Arith {
        stats.arith_cases += 1;
    }
    if got != want {
        return Err(BridgeError::Divergence(format!(
            "{label}: got {got}, want {want}"
        )));
    }
    Ok(())
}

/// Builds the WIR side of the hand-written divergence cases.
fn hand_wir_cases(wir: WirVersion) -> Vec<(&'static str, WirModule, XBehaviour)> {
    let mk = |name: &str, body: &[WirInst]| {
        let mut m = WirModule::new(name, wir);
        let mut f = WirFunc::new("main", vec![], Some(WTy::I32));
        for i in body {
            f.body.alloc(i.clone());
        }
        m.funcs.push(f);
        m
    };
    vec![
        (
            "div-overflow",
            mk(
                "div_overflow",
                &[
                    WirInst::Const(WTy::I32, i32::MIN as i64),
                    WirInst::Const(WTy::I32, -1),
                    WirInst::Binop(WTy::I32, WBin::DivS),
                    WirInst::Return,
                ],
            ),
            XBehaviour::Arith,
        ),
        (
            "div-zero",
            mk(
                "div_zero",
                &[
                    WirInst::Const(WTy::I32, 7),
                    WirInst::Const(WTy::I32, 0),
                    WirInst::Binop(WTy::I32, WBin::DivS),
                    WirInst::Return,
                ],
            ),
            XBehaviour::Arith,
        ),
        (
            "rem-edge",
            mk(
                "rem_edge",
                &[
                    WirInst::Const(WTy::I32, i32::MIN as i64),
                    WirInst::Const(WTy::I32, -1),
                    WirInst::Binop(WTy::I32, WBin::RemS),
                    WirInst::Return,
                ],
            ),
            XBehaviour::Value(0),
        ),
        (
            "select-nonbool-cond",
            mk(
                "select_nonbool",
                &[
                    WirInst::Const(WTy::I32, 10),
                    WirInst::Const(WTy::I32, 20),
                    WirInst::Const(WTy::I32, 2), // non-zero but low bit clear
                    WirInst::Select,
                    WirInst::Return,
                ],
            ),
            XBehaviour::Value(10),
        ),
    ]
}

/// Builds the Siro side of the hand-written divergence cases.
fn hand_siro_cases(siro: IrVersion) -> Vec<(&'static str, Module, XBehaviour)> {
    let mut cases = Vec::new();

    // Siro wraps MIN / -1 — the lowered image must preserve the wrap.
    let mut m = Module::new("sdiv_wrap", siro);
    let i32t = m.types.i32();
    let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
    let mut b = FuncBuilder::new(&mut m, f);
    let entry = b.add_block("entry");
    b.position_at_end(entry);
    let q = b.sdiv(
        ValueRef::const_int(i32t, i32::MIN as i64),
        ValueRef::const_int(i32t, -1),
    );
    b.ret(Some(q));
    cases.push(("sdiv-wrap", m, XBehaviour::Value(i32::MIN as i64)));

    // A plain guarded-path division still traps on zero.
    let mut m = Module::new("sdiv_zero", siro);
    let i32t = m.types.i32();
    let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
    let mut b = FuncBuilder::new(&mut m, f);
    let entry = b.add_block("entry");
    b.position_at_end(entry);
    let q = b.sdiv(ValueRef::const_int(i32t, 41), ValueRef::const_int(i32t, 0));
    b.ret(Some(q));
    cases.push(("sdiv-zero", m, XBehaviour::Arith));

    // Select through a compare (the only boolean source in the subset).
    let mut m = Module::new("select_cmp", siro);
    let i32t = m.types.i32();
    let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
    let mut b = FuncBuilder::new(&mut m, f);
    let entry = b.add_block("entry");
    b.position_at_end(entry);
    let c = b.icmp(
        IntPredicate::Slt,
        ValueRef::const_int(i32t, 3),
        ValueRef::const_int(i32t, 5),
    );
    let v = b.select(
        c,
        ValueRef::const_int(i32t, 7),
        ValueRef::const_int(i32t, 9),
    );
    b.ret(Some(v));
    cases.push(("select-cmp", m, XBehaviour::Value(7)));

    cases
}

/// Validates the `(siro, wir)` bridge over generated straight-line modules
/// (raise + round-trip lower) and the hand-written divergence cases in both
/// directions.
///
/// # Errors
///
/// [`BridgeError::Divergence`] naming the first mismatching module, or any
/// raise/lower failure on a corpus module.
pub fn validate_bridge(siro: IrVersion, wir: WirVersion) -> Result<BridgeStats, BridgeError> {
    let sp = siro_trace::span!("bridge.validate", "{siro}<->wir{wir}");
    let mut stats = BridgeStats::default();

    for seed in 0..BRIDGE_SEEDS {
        let w = generate_straightline(seed, wir);
        let want = wir_behaviour(&w);
        let s = raise_module(&w, siro)
            .map_err(|e| BridgeError::Divergence(format!("raise seed {seed}: {e}")))?;
        check(
            &format!("raise seed {seed}"),
            siro_behaviour(&s),
            want,
            &mut stats,
        )?;
        let w2 = lower_module(&s, wir)
            .map_err(|e| BridgeError::Divergence(format!("round-trip seed {seed}: {e}")))?;
        check(
            &format!("round-trip seed {seed}"),
            wir_behaviour(&w2),
            want,
            &mut stats,
        )?;
    }

    for (name, w, want) in hand_wir_cases(wir) {
        check(
            &format!("wir case {name} (native)"),
            wir_behaviour(&w),
            want,
            &mut stats,
        )?;
        let s = raise_module(&w, siro)
            .map_err(|e| BridgeError::Divergence(format!("raise case {name}: {e}")))?;
        check(
            &format!("wir case {name} (raised)"),
            siro_behaviour(&s),
            want,
            &mut stats,
        )?;
    }

    for (name, s, want) in hand_siro_cases(siro) {
        check(
            &format!("siro case {name} (native)"),
            siro_behaviour(&s),
            want,
            &mut stats,
        )?;
        let w = lower_module(&s, wir)
            .map_err(|e| BridgeError::Divergence(format!("lower case {name}: {e}")))?;
        check(
            &format!("siro case {name} (lowered)"),
            wir_behaviour(&w),
            want,
            &mut stats,
        )?;
    }

    drop(sp);
    siro_trace::counter("bridge.validated", 1);
    Ok(stats)
}

/// Store entry name for a bridge certificate, e.g. `b13.0-w2.0.sirb`.
pub fn bridge_store_name(siro: IrVersion, wir: WirVersion) -> String {
    format!("b{siro}-w{wir}.sirb")
}

fn render_certificate(o: &BridgeOutcome) -> String {
    format!(
        "SIRB 1\nsiro {}\nwir {}\nmodules {}\narith {}\n",
        o.siro, o.wir, o.stats.modules_checked, o.stats.arith_cases
    )
}

fn parse_version_pair(s: &str) -> Option<(u16, u16)> {
    let (major, minor) = s.split_once('.')?;
    Some((major.parse().ok()?, minor.parse().ok()?))
}

fn parse_certificate(text: &str) -> Option<(IrVersion, WirVersion)> {
    let mut lines = text.lines();
    if lines.next()? != "SIRB 1" {
        return None;
    }
    let (smaj, smin) = parse_version_pair(lines.next()?.strip_prefix("siro ")?)?;
    let (wmaj, wmin) = parse_version_pair(lines.next()?.strip_prefix("wir ")?)?;
    Some((IrVersion::new(smaj, smin), WirVersion::new(wmaj, wmin)))
}

type BridgeCacheMap = HashMap<(IrVersion, WirVersion), Arc<BridgeOutcome>>;

fn bridge_cache() -> &'static Mutex<BridgeCacheMap> {
    static CACHE: OnceLock<Mutex<BridgeCacheMap>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Whether the `(siro, wir)` bridge is already validated in this process.
pub fn bridge_is_hot(siro: IrVersion, wir: WirVersion) -> bool {
    bridge_cache()
        .lock()
        .expect("bridge cache poisoned")
        .contains_key(&(siro, wir))
}

/// Drops every memoized bridge certificate (tests).
pub fn reset_bridge_cache() {
    bridge_cache()
        .lock()
        .expect("bridge cache poisoned")
        .clear();
    crate::router::bump_route_epoch();
}

/// Memoizes a validated bridge; its edges turn hot, so routes replan.
fn insert_bridge(outcome: &Arc<BridgeOutcome>) {
    bridge_cache()
        .lock()
        .expect("bridge cache poisoned")
        .insert((outcome.siro, outcome.wir), Arc::clone(outcome));
    crate::router::bump_route_epoch();
}

/// Memoized bridge acquisition: process cache, then the active store's
/// `.sirb` certificate (re-validated on load), then fresh validation
/// (persisted on success). The `bool` is `true` when this call validated
/// from scratch.
///
/// # Errors
///
/// [`BridgeError::NotAnAnchor`] off the anchor list; otherwise propagates
/// [`validate_bridge`] failures.
pub fn bridge_cached(
    siro: IrVersion,
    wir: WirVersion,
) -> Result<(Arc<BridgeOutcome>, bool), BridgeError> {
    if !is_anchor_pair(siro, wir) {
        return Err(BridgeError::NotAnAnchor(siro, wir));
    }
    if let Some(hit) = bridge_cache()
        .lock()
        .expect("bridge cache poisoned")
        .get(&(siro, wir))
    {
        return Ok((Arc::clone(hit), false));
    }
    if let Some(store) = active_store() {
        if let Some(text) = store.load_named(&bridge_store_name(siro, wir)) {
            if parse_certificate(&text) == Some((siro, wir)) {
                if let Ok(stats) = validate_bridge(siro, wir) {
                    let outcome = Arc::new(BridgeOutcome { siro, wir, stats });
                    insert_bridge(&outcome);
                    siro_trace::counter("bridge.store_hits", 1);
                    return Ok((outcome, false));
                }
            }
        }
    }
    let stats = validate_bridge(siro, wir)?;
    let outcome = Arc::new(BridgeOutcome { siro, wir, stats });
    if let Some(store) = active_store() {
        let _ = store.save_named(&bridge_store_name(siro, wir), &render_certificate(&outcome));
    }
    insert_bridge(&outcome);
    Ok((outcome, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_anchor_validates() {
        for (siro, wir) in BRIDGE_ANCHORS {
            let stats = validate_bridge(siro, wir)
                .unwrap_or_else(|e| panic!("anchor {siro}<->wir{wir}: {e}"));
            assert!(stats.modules_checked > 2 * BRIDGE_SEEDS as usize);
            assert!(
                stats.arith_cases > 0,
                "corpus must exercise the trap bucket"
            );
        }
    }

    #[test]
    fn sdiv_wrap_survives_lowering() {
        // The genuine divergence: Siro wraps MIN / -1, WIR traps. The
        // guarded lowering must preserve the wrap...
        let (_, m, _) = hand_siro_cases(IrVersion::V13_0)
            .into_iter()
            .find(|(n, _, _)| *n == "sdiv-wrap")
            .expect("case exists");
        assert_eq!(siro_behaviour(&m), XBehaviour::Value(i32::MIN as i64));
        let w = lower_module(&m, WirVersion::W2_0).expect("lowers");
        assert_eq!(wir_behaviour(&w), XBehaviour::Value(i32::MIN as i64));

        // ...while a naive unguarded lowering demonstrably diverges.
        let mut naive = WirModule::new("naive", WirVersion::W2_0);
        let mut f = WirFunc::new("main", vec![], Some(WTy::I32));
        f.body.alloc(WirInst::Const(WTy::I32, i32::MIN as i64));
        f.body.alloc(WirInst::Const(WTy::I32, -1));
        f.body.alloc(WirInst::Binop(WTy::I32, WBin::DivS));
        f.body.alloc(WirInst::Return);
        naive.funcs.push(f);
        assert_eq!(wir_behaviour(&naive), XBehaviour::Arith);
    }

    #[test]
    fn select_truthiness_normalizes_both_ways() {
        // WIR: cond 2 is truthy. Raised to Siro (low-bit rule, 2 would be
        // falsy) the bridge must still pick the first value.
        let (_, w, want) = hand_wir_cases(WirVersion::W2_0)
            .into_iter()
            .find(|(n, _, _)| *n == "select-nonbool-cond")
            .expect("case exists");
        assert_eq!(wir_behaviour(&w), want);
        let s = raise_module(&w, IrVersion::V13_0).expect("raises");
        assert_eq!(siro_behaviour(&s), want);
    }

    #[test]
    fn overflow_trap_raises_into_the_arith_bucket() {
        let (_, w, _) = hand_wir_cases(WirVersion::W2_0)
            .into_iter()
            .find(|(n, _, _)| *n == "div-overflow")
            .expect("case exists");
        assert_eq!(wir_behaviour(&w), XBehaviour::Arith);
        let s = raise_module(&w, IrVersion::V13_0).expect("raises");
        // WIR integer-overflow degrades to Siro div-by-zero: same bucket.
        assert_eq!(siro_behaviour(&s), XBehaviour::Arith);
    }

    #[test]
    fn non_anchor_pairs_are_refused() {
        assert!(!is_anchor_pair(IrVersion::V3_6, WirVersion::W1_0));
        assert!(matches!(
            bridge_cached(IrVersion::V3_6, WirVersion::W1_0),
            Err(BridgeError::NotAnAnchor(_, _))
        ));
    }

    #[test]
    fn control_flow_is_out_of_scope() {
        let mut w = WirModule::new("cf", WirVersion::W2_0);
        let mut f = WirFunc::new("main", vec![], Some(WTy::I32));
        f.body.alloc(WirInst::Block);
        f.body.alloc(WirInst::End);
        f.body.alloc(WirInst::Const(WTy::I32, 1));
        f.body.alloc(WirInst::Return);
        w.funcs.push(f);
        assert!(matches!(
            raise_module(&w, IrVersion::V13_0),
            Err(BridgeError::Unsupported(_))
        ));
    }

    #[test]
    fn certificate_round_trips() {
        let o = BridgeOutcome {
            siro: IrVersion::V13_0,
            wir: WirVersion::W2_0,
            stats: BridgeStats {
                modules_checked: 103,
                arith_cases: 9,
            },
        };
        let text = render_certificate(&o);
        assert_eq!(
            parse_certificate(&text),
            Some((IrVersion::V13_0, WirVersion::W2_0))
        );
        assert_eq!(bridge_store_name(o.siro, o.wir), "b13.0-w2.0.sirb");
    }
}
