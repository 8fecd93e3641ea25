//! The IR interpreter — the execution half of the paper's differential
//! testing oracle (Fig. 6).
//!
//! A test case is an IR program whose `main` returns a constant; validation
//! interprets the translated program and compares the returned value against
//! the oracle. The interpreter also powers the fuzzing client: it models a
//! tiny libc (`malloc`/`free`/`open`/`close`), a PoC input stream
//! (`input(i)` reads byte `i`), and a `magma_bug(id)` crash sink that records
//! CVE triggers.
//!
//! # Simulated semantics
//!
//! Two deliberate simplifications, applied uniformly to *all* versions so
//! differential comparisons remain meaningful:
//!
//! * `indirectbr` treats its address operand as an index into its
//!   destination list;
//! * inline assembly has interpretable micro-semantics (`ret N`, `add`,
//!   `nop`) plus a hardware level that must be supported by the executing
//!   version's backend (see [`IrVersion::max_asm_hw_level`]).
//!
//! [`IrVersion::max_asm_hw_level`]: crate::IrVersion::max_asm_hw_level

pub mod memory;

use std::collections::HashMap;
use std::fmt;

use crate::error::{IrError, IrResult};
use crate::inst::{FloatPredicate, Instruction, IntPredicate, RmwOp};
use crate::module::{Function, GlobalInit, Module};
use crate::opcode::Opcode;
use crate::types::{Type, TypeId};
use crate::value::{BlockId, FuncId, InstId, ValueRef};

pub use memory::{AllocKind, Memory};

/// Why execution stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrapKind {
    /// Load/store through a null pointer.
    NullDeref,
    /// Access to freed memory.
    UseAfterFree,
    /// Second `free` of the same allocation.
    DoubleFree,
    /// `free` of a non-heap pointer.
    InvalidFree,
    /// Access outside any allocation.
    OutOfBounds,
    /// Integer division or remainder by zero.
    DivByZero,
    /// Executed `unreachable`.
    Unreachable,
    /// `abort()` was called.
    Abort,
    /// A planted crash site fired (fuzzing client); payload is the CVE id.
    Crash(u32),
    /// Inline assembly requires a newer backend than the module version has.
    UnsupportedAsm,
    /// Executed `resume` outside an unwind context.
    Resume,
    /// Ran out of interpretation fuel.
    FuelExhausted,
    /// Call stack too deep.
    DepthExceeded,
    /// `indirectbr` index out of range.
    BadIndirect,
    /// Anything else.
    Unsupported,
}

/// An abnormal termination with a human-readable detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trap {
    /// The category.
    pub kind: TrapKind,
    /// Details for diagnostics.
    pub detail: String,
}

impl Trap {
    /// Creates a trap.
    pub fn new(kind: TrapKind, detail: String) -> Self {
        Trap { kind, detail }
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.detail)
    }
}

/// A side effect observed during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// `magma_bug(id)` fired.
    CveTriggered(u32),
    /// A file descriptor was opened.
    FdOpened(i64),
    /// A file descriptor was closed.
    FdClosed(i64),
    /// An unmodeled external function was called.
    ExternalCall(String),
    /// `sink(v)` observed a value.
    Sink(i64),
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum RtVal {
    /// An integer of the given bit width; stored masked to the width.
    Int {
        /// Bit width.
        bits: u32,
        /// Value, kept in the low `bits` bits (unsigned canonical form).
        val: u128,
    },
    /// A 32-bit float.
    F32(f32),
    /// A 64-bit float.
    F64(f64),
    /// A pointer (0 = null).
    Ptr(u64),
    /// A SIMD vector.
    Vector(Vec<RtVal>),
    /// A struct or array aggregate.
    Agg(Vec<RtVal>),
    /// An undefined value.
    Undef,
}

impl RtVal {
    /// Creates a masked integer.
    pub fn int(bits: u32, val: i128) -> Self {
        RtVal::Int {
            bits,
            val: mask(bits, val as u128),
        }
    }

    /// The value as a sign-extended i128, if it is an integer.
    pub fn as_sint(&self) -> Option<i128> {
        match *self {
            RtVal::Int { bits, val } => Some(sext(bits, val)),
            _ => None,
        }
    }

    /// The value as an unsigned u128, if it is an integer.
    pub fn as_uint(&self) -> Option<u128> {
        match *self {
            RtVal::Int { val, .. } => Some(val),
            _ => None,
        }
    }

    /// The value as a pointer address, if it is one.
    pub fn as_ptr(&self) -> Option<u64> {
        match *self {
            RtVal::Ptr(p) => Some(p),
            _ => None,
        }
    }

    /// The value as an f64 (widening f32), if floating.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            RtVal::F32(v) => Some(f64::from(v)),
            RtVal::F64(v) => Some(v),
            _ => None,
        }
    }
}

fn mask(bits: u32, v: u128) -> u128 {
    if bits >= 128 {
        v
    } else {
        v & ((1u128 << bits) - 1)
    }
}

fn sext(bits: u32, v: u128) -> i128 {
    if bits == 0 || bits >= 128 {
        return v as i128;
    }
    let shift = 128 - bits;
    ((v << shift) as i128) >> shift
}

/// How execution ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// `main` returned normally.
    Returned(RtVal),
    /// Execution trapped.
    Trapped(Trap),
}

/// The full result of an interpretation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Normal return or trap.
    pub result: ExecResult,
    /// Instructions executed.
    pub steps: u64,
    /// Observed side effects, in order.
    pub events: Vec<Event>,
    /// Heap allocations never freed (memory-leak accounting).
    pub leaked_heap: usize,
}

impl Outcome {
    /// The returned integer, if `main` returned an integer normally.
    pub fn return_int(&self) -> Option<i64> {
        match &self.result {
            ExecResult::Returned(v) => v.as_sint().map(|v| v as i64),
            ExecResult::Trapped(_) => None,
        }
    }

    /// The trap, if execution crashed.
    pub fn trap(&self) -> Option<&Trap> {
        match &self.result {
            ExecResult::Trapped(t) => Some(t),
            ExecResult::Returned(_) => None,
        }
    }

    /// Whether execution ended in any trap.
    pub fn crashed(&self) -> bool {
        self.trap().is_some()
    }

    /// CVE ids triggered during the run.
    pub fn triggered_cves(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .events
            .iter()
            .filter_map(|e| match e {
                Event::CveTriggered(id) => Some(*id),
                _ => None,
            })
            .collect();
        if let Some(Trap {
            kind: TrapKind::Crash(id),
            ..
        }) = self.trap()
        {
            if !ids.contains(id) {
                ids.push(*id);
            }
        }
        ids
    }
}

enum Flow {
    Next,
    Jump(BlockId),
    Return(RtVal),
}

/// Interprets one [`Module`].
///
/// # Examples
///
/// ```
/// use siro_ir::{FuncBuilder, IrVersion, Module, ValueRef, interp::Machine};
///
/// let mut m = Module::new("m", IrVersion::V3_6);
/// let i32t = m.types.i32();
/// let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
/// let mut b = FuncBuilder::new(&mut m, f);
/// let e = b.add_block("entry");
/// b.position_at_end(e);
/// b.ret(Some(ValueRef::const_int(i32t, 7)));
/// assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(7));
/// ```
pub struct Machine<'m> {
    module: &'m Module,
    mem: Memory,
    global_addrs: Vec<u64>,
    func_addr_to_id: HashMap<u64, FuncId>,
    func_addrs: Vec<u64>,
    input: Vec<u8>,
    fuel: u64,
    depth: u32,
    events: Vec<Event>,
    steps: u64,
    fd_next: i64,
    open_fds: Vec<i64>,
}

impl fmt::Debug for Machine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("module", &self.module.name)
            .field("steps", &self.steps)
            .field("fuel", &self.fuel)
            .finish_non_exhaustive()
    }
}

/// The block a branch operand names. An unverified module may name
/// something else, which traps rather than panics.
fn label(v: ValueRef, branch: &str) -> Result<BlockId, Trap> {
    v.as_block().ok_or_else(|| {
        Trap::new(
            TrapKind::Unsupported,
            format!("{branch} target not a label"),
        )
    })
}

/// The first `N` bytes of a read, as a fixed-size array.
fn fixed<const N: usize>(bytes: &[u8]) -> Result<&[u8; N], Trap> {
    bytes
        .first_chunk()
        .ok_or_else(|| Trap::new(TrapKind::OutOfBounds, format!("short read of {N} bytes")))
}

const DEFAULT_FUEL: u64 = 4_000_000;
// The interpreter recurses natively per IR call frame; keep the limit
// well inside a default 2 MiB test-thread stack even for debug builds.
const MAX_DEPTH: u32 = 48;

impl<'m> Machine<'m> {
    /// Creates a machine over `module` with default fuel and empty input.
    pub fn new(module: &'m Module) -> Self {
        let mut mem = Memory::new();
        // Globals.
        let mut global_addrs = Vec::with_capacity(module.globals.len());
        for g in &module.globals {
            let size = module.types.size_of(g.ty).max(1);
            let bytes = match &g.init {
                GlobalInit::External | GlobalInit::Zero => vec![0u8; size as usize],
                GlobalInit::Int(v) => {
                    let mut b = v.to_le_bytes().to_vec();
                    b.resize(size as usize, 0);
                    b.truncate(size as usize);
                    b
                }
                GlobalInit::Float(v) => {
                    let mut b = v.to_le_bytes().to_vec();
                    b.resize(size as usize, 0);
                    b.truncate(size as usize);
                    b
                }
                GlobalInit::Bytes(bs) => {
                    let mut b = bs.clone();
                    b.resize(size as usize, 0);
                    b
                }
            };
            global_addrs.push(mem.alloc_init(bytes, AllocKind::Global));
        }
        // Function address cells for indirect calls.
        let mut func_addr_to_id = HashMap::new();
        let mut func_addrs = Vec::with_capacity(module.funcs.len());
        for (i, _) in module.funcs.iter().enumerate() {
            let addr = mem.alloc(8, AllocKind::Code);
            func_addr_to_id.insert(addr, FuncId::new(i as u32));
            func_addrs.push(addr);
        }
        Machine {
            module,
            mem,
            global_addrs,
            func_addr_to_id,
            func_addrs,
            input: Vec::new(),
            fuel: DEFAULT_FUEL,
            depth: 0,
            events: Vec::new(),
            steps: 0,
            fd_next: 3,
            open_fds: Vec::new(),
        }
    }

    /// Sets the PoC input stream read by the `input(i)` external.
    pub fn with_input(mut self, input: impl Into<Vec<u8>>) -> Self {
        self.input = input.into();
        self
    }

    /// Overrides the instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Runs `main()` to completion.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::NotFound`] if the module has no `main` function.
    /// Traps are reported inside the [`Outcome`], not as errors.
    pub fn run_main(mut self) -> IrResult<Outcome> {
        let fid = self
            .module
            .func_by_name("main")
            .ok_or_else(|| IrError::NotFound("main".into()))?;
        let res = self.call_function(fid, Vec::new());
        Ok(self.finish(res))
    }

    /// Runs an arbitrary function with the given arguments.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::NotFound`] if no function has that name.
    pub fn run_func(mut self, name: &str, args: Vec<RtVal>) -> IrResult<Outcome> {
        let fid = self
            .module
            .func_by_name(name)
            .ok_or_else(|| IrError::NotFound(name.into()))?;
        let res = self.call_function(fid, args);
        Ok(self.finish(res))
    }

    fn finish(self, res: Result<RtVal, Trap>) -> Outcome {
        Outcome {
            result: match res {
                Ok(v) => ExecResult::Returned(v),
                Err(t) => ExecResult::Trapped(t),
            },
            steps: self.steps,
            events: self.events,
            leaked_heap: self.mem.live_heap_count(),
        }
    }

    fn call_function(&mut self, fid: FuncId, args: Vec<RtVal>) -> Result<RtVal, Trap> {
        let func = self.module.func(fid);
        if func.is_external {
            return self.call_external(func, args);
        }
        if self.depth >= MAX_DEPTH {
            return Err(Trap::new(TrapKind::DepthExceeded, func.name.clone()));
        }
        self.depth += 1;
        let result = self.exec_body(func, args);
        self.depth -= 1;
        result
    }

    fn exec_body(&mut self, func: &Function, args: Vec<RtVal>) -> Result<RtVal, Trap> {
        let mut env: Vec<Option<RtVal>> = vec![None; func.insts.len()];
        let mut frame_allocs: Vec<u64> = Vec::new();
        let mut cur = func.entry().ok_or_else(|| {
            Trap::new(
                TrapKind::Unsupported,
                format!("`{}` has no body", func.name),
            )
        })?;
        let mut prev: Option<BlockId> = None;
        let ret = 'outer: loop {
            let block = func.block(cur);
            // Parallel phi evaluation.
            let mut phi_updates = Vec::new();
            let mut body_start = 0;
            for (i, &iid) in block.insts.iter().enumerate() {
                let inst = func.inst(iid);
                if inst.opcode != Opcode::Phi {
                    body_start = i;
                    break;
                }
                body_start = i + 1;
                let pb = prev
                    .ok_or_else(|| Trap::new(TrapKind::Unsupported, "phi in entry block".into()))?;
                let incoming = inst.phi_incoming();
                let (v, _) = incoming
                    .into_iter()
                    .find(|(_, b)| *b == pb)
                    .ok_or_else(|| {
                        Trap::new(
                            TrapKind::Unsupported,
                            format!("phi lacks incoming edge from block {}", pb.raw()),
                        )
                    })?;
                phi_updates.push((iid, self.eval(func, &env, args.as_slice(), v)?));
            }
            for (iid, v) in phi_updates {
                env[iid.index()] = Some(v);
            }
            for &iid in &block.insts[body_start..] {
                if self.steps >= self.fuel {
                    break 'outer Err(Trap::new(TrapKind::FuelExhausted, String::new()));
                }
                self.steps += 1;
                let inst = func.inst(iid);
                match self.exec_inst(
                    func,
                    &mut env,
                    args.as_slice(),
                    &mut frame_allocs,
                    iid,
                    inst,
                ) {
                    Ok(Flow::Next) => {}
                    Ok(Flow::Jump(b)) => {
                        prev = Some(cur);
                        cur = b;
                        continue 'outer;
                    }
                    Ok(Flow::Return(v)) => break 'outer Ok(v),
                    Err(t) => break 'outer Err(t),
                }
            }
            break Err(Trap::new(
                TrapKind::Unsupported,
                format!("block `{}` fell through without terminator", block.name),
            ));
        };
        for a in frame_allocs {
            self.mem.kill_stack(a);
        }
        ret
    }

    fn eval(
        &mut self,
        func: &Function,
        env: &[Option<RtVal>],
        args: &[RtVal],
        v: ValueRef,
    ) -> Result<RtVal, Trap> {
        Ok(match v {
            ValueRef::Inst(i) => env
                .get(i.index())
                .and_then(|o| o.clone())
                .unwrap_or(RtVal::Undef),
            ValueRef::Arg(a) => args.get(a as usize).cloned().unwrap_or(RtVal::Undef),
            ValueRef::Global(g) => RtVal::Ptr(self.global_addrs[g.index()]),
            ValueRef::Func(f) => RtVal::Ptr(self.func_addrs[f.index()]),
            ValueRef::Block(_) | ValueRef::InlineAsm(_) => {
                return Err(Trap::new(
                    TrapKind::Unsupported,
                    "label/asm evaluated as data".into(),
                ))
            }
            ValueRef::ConstInt { ty, value } => {
                let bits = self.module.types.int_bits(ty).unwrap_or(64);
                RtVal::int(bits, value as i128)
            }
            ValueRef::ConstFloat { ty, bits } => {
                let f = f64::from_bits(bits);
                if matches!(self.module.types.get(ty), Type::F32) {
                    RtVal::F32(f as f32)
                } else {
                    RtVal::F64(f)
                }
            }
            ValueRef::Null(_) => RtVal::Ptr(0),
            ValueRef::Undef(_) => RtVal::Undef,
            ValueRef::ZeroInit(ty) => self.zero_value(ty),
            ValueRef::Placeholder(k) => {
                return Err(Trap::new(
                    TrapKind::Unsupported,
                    format!("unresolved placeholder #{k}"),
                ))
            }
        })
        .inspect(|_v| {
            let _ = func;
        })
    }

    fn zero_value(&self, ty: TypeId) -> RtVal {
        match self.module.types.get(ty) {
            Type::Void | Type::Label | Type::Token => RtVal::Undef,
            Type::Int(b) => RtVal::int(*b, 0),
            Type::F32 => RtVal::F32(0.0),
            Type::F64 => RtVal::F64(0.0),
            Type::Ptr { .. } | Type::Func { .. } => RtVal::Ptr(0),
            Type::Array { elem, len } => RtVal::Agg(vec![self.zero_value(*elem); *len as usize]),
            Type::Vector { elem, len } => {
                RtVal::Vector(vec![self.zero_value(*elem); *len as usize])
            }
            Type::Struct { fields } => {
                RtVal::Agg(fields.iter().map(|&f| self.zero_value(f)).collect())
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_inst(
        &mut self,
        func: &Function,
        env: &mut [Option<RtVal>],
        args: &[RtVal],
        frame_allocs: &mut Vec<u64>,
        iid: InstId,
        inst: &Instruction,
    ) -> Result<Flow, Trap> {
        use Opcode::*;
        macro_rules! ev {
            ($v:expr) => {
                self.eval(func, env, args, $v)?
            };
        }
        macro_rules! set {
            ($v:expr) => {{
                env[iid.index()] = Some($v);
                Ok(Flow::Next)
            }};
        }
        match inst.opcode {
            Ret => {
                let v = if inst.operands.is_empty() {
                    RtVal::Undef
                } else {
                    ev!(inst.operands[0])
                };
                Ok(Flow::Return(v))
            }
            Br => {
                if inst.operands.len() == 1 {
                    Ok(Flow::Jump(label(inst.operands[0], "br")?))
                } else {
                    let c = ev!(inst.operands[0]);
                    let taken = c.as_uint().unwrap_or(0) & 1 == 1;
                    let b = if taken {
                        inst.operands[1]
                    } else {
                        inst.operands[2]
                    };
                    Ok(Flow::Jump(label(b, "br")?))
                }
            }
            Switch => {
                let v = ev!(inst.operands[0]).as_uint().unwrap_or(0);
                for (c, dest) in inst.switch_cases() {
                    let cv = match c {
                        ValueRef::ConstInt { ty, value } => {
                            let bits = self.module.types.int_bits(ty).unwrap_or(64);
                            mask(bits, value as u128)
                        }
                        _ => continue,
                    };
                    if cv == v {
                        return Ok(Flow::Jump(dest));
                    }
                }
                Ok(Flow::Jump(label(inst.operands[1], "switch")?))
            }
            IndirectBr => {
                // Simulated semantics: address is an index into the list.
                let idx = ev!(inst.operands[0]).as_uint().unwrap_or(0) as usize;
                let dests: Vec<BlockId> = inst.operands[1..]
                    .iter()
                    .filter_map(|v| v.as_block())
                    .collect();
                dests.get(idx).copied().map(Flow::Jump).ok_or_else(|| {
                    Trap::new(
                        TrapKind::BadIndirect,
                        format!("index {idx} of {}", dests.len()),
                    )
                })
            }
            Unreachable => Err(Trap::new(TrapKind::Unreachable, String::new())),
            Resume => Err(Trap::new(TrapKind::Resume, String::new())),
            // Arithmetic -----------------------------------------------------
            Add | Sub | Mul | UDiv | SDiv | URem | SRem | Shl | LShr | AShr | And | Or | Xor => {
                let a = ev!(inst.operands[0]);
                let b = ev!(inst.operands[1]);
                set!(self.int_binary(inst.opcode, a, b)?)
            }
            FAdd | FSub | FMul | FDiv | FRem => {
                let a = ev!(inst.operands[0]);
                let b = ev!(inst.operands[1]);
                set!(self.float_binary(inst.opcode, a, b)?)
            }
            FNeg => {
                let a = ev!(inst.operands[0]);
                let r = match a {
                    RtVal::F32(v) => RtVal::F32(-v),
                    RtVal::F64(v) => RtVal::F64(-v),
                    RtVal::Vector(vs) => RtVal::Vector(
                        vs.into_iter()
                            .map(|v| match v {
                                RtVal::F32(v) => RtVal::F32(-v),
                                RtVal::F64(v) => RtVal::F64(-v),
                                other => other,
                            })
                            .collect(),
                    ),
                    RtVal::Undef => RtVal::Undef,
                    _ => return Err(type_trap("fneg")),
                };
                set!(r)
            }
            // Memory --------------------------------------------------------
            Alloca => {
                let ty = inst.attrs.alloc_ty.ok_or_else(|| type_trap("alloca"))?;
                let count = if let Some(&c) = inst.operands.first() {
                    ev!(c).as_uint().unwrap_or(1) as u64
                } else {
                    1
                };
                let size = self.module.types.size_of(ty).max(1) * count.max(1);
                let addr = self.mem.alloc(size, AllocKind::Stack);
                frame_allocs.push(addr);
                set!(RtVal::Ptr(addr))
            }
            Load => {
                let p = ev!(inst.operands[0]);
                let addr = p.as_ptr().ok_or_else(|| type_trap("load"))?;
                let v = self.load_typed(inst.ty, addr)?;
                set!(v)
            }
            Store => {
                let v = ev!(inst.operands[0]);
                let p = ev!(inst.operands[1]);
                let addr = p.as_ptr().ok_or_else(|| type_trap("store"))?;
                match self.module.value_type(func, inst.operands[0]) {
                    Some(vty) => self.store_typed(vty, addr, &v)?,
                    None => {
                        // Function/global addresses have no table type; store
                        // them as raw 8-byte pointers.
                        let p = v.as_ptr().unwrap_or(0);
                        self.mem.write(addr, &p.to_le_bytes())?;
                    }
                }
                set!(RtVal::Undef)
            }
            GetElementPtr => {
                let base = ev!(inst.operands[0]);
                let addr = base.as_ptr().ok_or_else(|| type_trap("gep"))?;
                let src = inst
                    .attrs
                    .gep_source_ty
                    .ok_or_else(|| type_trap("gep source type"))?;
                let mut offset: i128 = 0;
                let mut cur_ty = src;
                for (i, &idx_op) in inst.operands[1..].iter().enumerate() {
                    let idx = ev!(idx_op).as_sint().unwrap_or(0);
                    if i == 0 {
                        offset += idx * self.module.types.size_of(src) as i128;
                    } else {
                        match self.module.types.get(cur_ty).clone() {
                            Type::Array { elem, .. } => {
                                offset += idx * self.module.types.size_of(elem) as i128;
                                cur_ty = elem;
                            }
                            Type::Vector { elem, .. } => {
                                offset += idx * self.module.types.size_of(elem) as i128;
                                cur_ty = elem;
                            }
                            Type::Struct { fields } => {
                                let fi = idx as u32;
                                let off = self
                                    .module
                                    .types
                                    .struct_field_offset(cur_ty, fi)
                                    .ok_or_else(|| type_trap("gep struct index"))?;
                                offset += off as i128;
                                cur_ty = fields[fi as usize];
                            }
                            _ => return Err(type_trap("gep through scalar")),
                        }
                    }
                }
                set!(RtVal::Ptr((addr as i128 + offset) as u64))
            }
            Fence => set!(RtVal::Undef),
            CmpXchg => {
                let addr = ev!(inst.operands[0])
                    .as_ptr()
                    .ok_or_else(|| type_trap("cmpxchg"))?;
                let expected = ev!(inst.operands[1]);
                let new = ev!(inst.operands[2]);
                let vty = self
                    .module
                    .value_type(func, inst.operands[1])
                    .ok_or_else(|| type_trap("cmpxchg value type"))?;
                let old = self.load_typed(vty, addr)?;
                let equal = old == expected;
                if equal {
                    self.store_typed(vty, addr, &new)?;
                }
                set!(RtVal::Agg(vec![old, RtVal::int(1, i128::from(equal))]))
            }
            AtomicRmw => {
                let addr = ev!(inst.operands[0])
                    .as_ptr()
                    .ok_or_else(|| type_trap("atomicrmw"))?;
                let v = ev!(inst.operands[1]);
                let vty = self
                    .module
                    .value_type(func, inst.operands[1])
                    .ok_or_else(|| type_trap("atomicrmw value type"))?;
                let old = self.load_typed(vty, addr)?;
                let op = inst.attrs.rmw_op.ok_or_else(|| type_trap("rmw op"))?;
                let bits = match old {
                    RtVal::Int { bits, .. } => bits,
                    _ => return Err(type_trap("atomicrmw on non-integer")),
                };
                let a = old.as_sint().unwrap_or(0);
                let au = old.as_uint().unwrap_or(0);
                let b = v.as_sint().unwrap_or(0);
                let bu = v.as_uint().unwrap_or(0);
                let newv = match op {
                    RmwOp::Xchg => b,
                    RmwOp::Add => a.wrapping_add(b),
                    RmwOp::Sub => a.wrapping_sub(b),
                    RmwOp::And => a & b,
                    RmwOp::Or => a | b,
                    RmwOp::Xor => a ^ b,
                    RmwOp::Max => a.max(b),
                    RmwOp::Min => a.min(b),
                    RmwOp::UMax => au.max(bu) as i128,
                    RmwOp::UMin => au.min(bu) as i128,
                };
                self.store_typed(vty, addr, &RtVal::int(bits, newv))?;
                set!(old)
            }
            // Casts -----------------------------------------------------------
            Trunc | ZExt | SExt | FPTrunc | FPExt | FPToUI | FPToSI | UIToFP | SIToFP
            | PtrToInt | IntToPtr | BitCast | AddrSpaceCast => {
                let v = ev!(inst.operands[0]);
                set!(self.cast(inst.opcode, v, inst.ty)?)
            }
            // Comparison / select ----------------------------------------------
            ICmp => {
                let a = ev!(inst.operands[0]);
                let b = ev!(inst.operands[1]);
                let p = inst.attrs.int_pred.ok_or_else(|| type_trap("icmp"))?;
                set!(icmp_val(p, &a, &b)?)
            }
            FCmp => {
                let a = ev!(inst.operands[0]);
                let b = ev!(inst.operands[1]);
                let p = inst.attrs.float_pred.ok_or_else(|| type_trap("fcmp"))?;
                set!(fcmp_val(p, &a, &b)?)
            }
            Select => {
                let c = ev!(inst.operands[0]).as_uint().unwrap_or(0) & 1 == 1;
                let v = if c {
                    ev!(inst.operands[1])
                } else {
                    ev!(inst.operands[2])
                };
                set!(v)
            }
            Phi => {
                // Handled in the block-transfer loop; reaching here means a
                // phi after non-phi instructions, tolerated as identity.
                Ok(Flow::Next)
            }
            // Calls ------------------------------------------------------------
            Call => {
                let r = self.do_call(func, env, args, inst)?;
                set!(r)
            }
            Invoke => {
                let r = self.do_call(func, env, args, inst)?;
                env[iid.index()] = Some(r);
                // Never unwinds in this model: always the normal destination.
                let blocks: Vec<BlockId> =
                    inst.operands.iter().filter_map(|v| v.as_block()).collect();
                Ok(Flow::Jump(blocks[0]))
            }
            CallBr => {
                let r = self.do_call(func, env, args, inst)?;
                env[iid.index()] = Some(r);
                // Fallthrough destination (asm-goto side targets never taken).
                let blocks: Vec<BlockId> =
                    inst.operands.iter().filter_map(|v| v.as_block()).collect();
                Ok(Flow::Jump(blocks[0]))
            }
            VAArg => set!(self.zero_value(inst.ty)),
            LandingPad => set!(self.zero_value(inst.ty)),
            // Vector / aggregate -------------------------------------------------
            ExtractElement => {
                let v = ev!(inst.operands[0]);
                let idx = ev!(inst.operands[1]).as_uint().unwrap_or(0) as usize;
                match v {
                    RtVal::Vector(vs) => {
                        set!(vs.get(idx).cloned().unwrap_or(RtVal::Undef))
                    }
                    RtVal::Undef => set!(RtVal::Undef),
                    _ => Err(type_trap("extractelement")),
                }
            }
            InsertElement => {
                let v = ev!(inst.operands[0]);
                let e = ev!(inst.operands[1]);
                let idx = ev!(inst.operands[2]).as_uint().unwrap_or(0) as usize;
                match v {
                    RtVal::Vector(mut vs) => {
                        if idx < vs.len() {
                            vs[idx] = e;
                        }
                        set!(RtVal::Vector(vs))
                    }
                    RtVal::Undef => {
                        // Materialize a zero vector of the result type.
                        let mut z = match self.zero_value(inst.ty) {
                            RtVal::Vector(vs) => vs,
                            _ => return Err(type_trap("insertelement")),
                        };
                        if idx < z.len() {
                            z[idx] = e;
                        }
                        set!(RtVal::Vector(z))
                    }
                    _ => Err(type_trap("insertelement")),
                }
            }
            ShuffleVector => {
                let a = ev!(inst.operands[0]);
                let b = ev!(inst.operands[1]);
                let (av, bv) = match (a, b) {
                    (RtVal::Vector(a), RtVal::Vector(b)) => (a, b),
                    _ => return Err(type_trap("shufflevector")),
                };
                let n = av.len();
                let out: Vec<RtVal> = inst
                    .attrs
                    .indices
                    .iter()
                    .map(|&i| {
                        let i = i as usize;
                        if i < n {
                            av[i].clone()
                        } else {
                            bv.get(i - n).cloned().unwrap_or(RtVal::Undef)
                        }
                    })
                    .collect();
                set!(RtVal::Vector(out))
            }
            ExtractValue => {
                let mut v = ev!(inst.operands[0]);
                for &i in &inst.attrs.indices {
                    v = match v {
                        RtVal::Agg(mut vs) => {
                            if (i as usize) < vs.len() {
                                vs.swap_remove(i as usize)
                            } else {
                                RtVal::Undef
                            }
                        }
                        RtVal::Undef => RtVal::Undef,
                        _ => return Err(type_trap("extractvalue")),
                    };
                }
                set!(v)
            }
            InsertValue => {
                let agg = ev!(inst.operands[0]);
                let val = ev!(inst.operands[1]);
                let agg = match agg {
                    RtVal::Agg(vs) => RtVal::Agg(vs),
                    RtVal::Undef => self.zero_value(inst.ty),
                    other => other,
                };
                fn ins(v: RtVal, path: &[u64], val: RtVal) -> RtVal {
                    match (v, path) {
                        (v, []) => {
                            let _ = v;
                            val
                        }
                        (RtVal::Agg(mut vs), [h, rest @ ..]) => {
                            let h = *h as usize;
                            if h < vs.len() {
                                let old = std::mem::replace(&mut vs[h], RtVal::Undef);
                                vs[h] = ins(old, rest, val);
                            }
                            RtVal::Agg(vs)
                        }
                        (other, _) => other,
                    }
                }
                set!(ins(agg, &inst.attrs.indices, val))
            }
            Freeze => {
                let v = ev!(inst.operands[0]);
                let r = if v == RtVal::Undef {
                    self.zero_value(inst.ty)
                } else {
                    v
                };
                set!(r)
            }
            // The Windows EH family gets trivial simulated semantics (no
            // unwinding ever happens in this model): pads produce a token,
            // switch/ret transfer to their first destination.
            CatchPad | CleanupPad => set!(RtVal::Undef),
            CatchSwitch | CatchRet | CleanupRet => {
                let dest = inst
                    .operands
                    .iter()
                    .find_map(|v| v.as_block())
                    .ok_or_else(|| {
                        Trap::new(TrapKind::Unsupported, "EH transfer without dest".into())
                    })?;
                Ok(Flow::Jump(dest))
            }
        }
    }

    fn do_call(
        &mut self,
        func: &Function,
        env: &[Option<RtVal>],
        args: &[RtVal],
        inst: &Instruction,
    ) -> Result<RtVal, Trap> {
        let callee = inst.callee().ok_or_else(|| type_trap("call callee"))?;
        let mut call_args = Vec::new();
        for &a in inst.call_args() {
            call_args.push(self.eval(func, env, args, a)?);
        }
        match callee {
            ValueRef::Func(fid) => self.call_function(fid, call_args),
            ValueRef::InlineAsm(aid) => self.call_asm(aid, &call_args, inst.ty),
            other => {
                let v = self.eval(func, env, args, other)?;
                let addr = v.as_ptr().ok_or_else(|| type_trap("indirect callee"))?;
                let fid = *self.func_addr_to_id.get(&addr).ok_or_else(|| {
                    Trap::new(
                        TrapKind::Unsupported,
                        format!("indirect call to non-function address {addr:#x}"),
                    )
                })?;
                self.call_function(fid, call_args)
            }
        }
    }

    fn call_asm(
        &mut self,
        aid: crate::value::AsmId,
        args: &[RtVal],
        ret_ty: TypeId,
    ) -> Result<RtVal, Trap> {
        let asm = self.module.asm(aid);
        if asm.hw_level > self.module.version.max_asm_hw_level() {
            return Err(Trap::new(
                TrapKind::UnsupportedAsm,
                format!(
                    "asm requires hw level {} but backend {} supports {}",
                    asm.hw_level,
                    self.module.version,
                    self.module.version.max_asm_hw_level()
                ),
            ));
        }
        let text = asm.text.trim();
        if let Some(rest) = text.strip_prefix("ret ") {
            let n: i128 = rest.trim().parse().unwrap_or(0);
            return Ok(RtVal::int(
                self.module.types.int_bits(ret_ty).unwrap_or(32),
                n,
            ));
        }
        if text.starts_with("add") {
            let sum: i128 = args.iter().filter_map(RtVal::as_sint).sum();
            return Ok(RtVal::int(
                self.module.types.int_bits(ret_ty).unwrap_or(32),
                sum,
            ));
        }
        // nop / unknown: first argument or zero.
        Ok(args.first().cloned().unwrap_or(RtVal::Undef))
    }

    #[allow(clippy::too_many_lines)]
    fn call_external(&mut self, func: &Function, args: Vec<RtVal>) -> Result<RtVal, Trap> {
        let arg_int = |i: usize| -> i128 {
            args.get(i)
                .and_then(RtVal::as_sint)
                .or_else(|| args.get(i).and_then(|v| v.as_ptr()).map(i128::from))
                .unwrap_or(0)
        };
        match func.name.as_str() {
            "malloc" => {
                let n = arg_int(0).max(0) as u64;
                Ok(RtVal::Ptr(self.mem.alloc(n, AllocKind::Heap)))
            }
            "calloc" => {
                let n = (arg_int(0).max(0) * arg_int(1).max(0)) as u64;
                Ok(RtVal::Ptr(self.mem.alloc(n, AllocKind::Heap)))
            }
            "free" => {
                let p = args.first().and_then(RtVal::as_ptr).unwrap_or(0);
                self.mem.free(p)?;
                Ok(RtVal::Undef)
            }
            "open" => {
                let fd = self.fd_next;
                self.fd_next += 1;
                self.open_fds.push(fd);
                self.events.push(Event::FdOpened(fd));
                Ok(RtVal::int(32, i128::from(fd)))
            }
            "close" => {
                let fd = arg_int(0) as i64;
                self.open_fds.retain(|&f| f != fd);
                self.events.push(Event::FdClosed(fd));
                Ok(RtVal::int(32, 0))
            }
            "input" => {
                let i = arg_int(0).max(0) as usize;
                let b = self.input.get(i).copied().unwrap_or(0);
                Ok(RtVal::int(32, i128::from(b)))
            }
            "input_len" => Ok(RtVal::int(32, self.input.len() as i128)),
            "magma_bug" => {
                let id = arg_int(0) as u32;
                self.events.push(Event::CveTriggered(id));
                Err(Trap::new(TrapKind::Crash(id), format!("CVE site {id}")))
            }
            "abort" => Err(Trap::new(TrapKind::Abort, String::new())),
            "sink" => {
                self.events.push(Event::Sink(arg_int(0) as i64));
                Ok(RtVal::Undef)
            }
            "printf" | "puts" | "putchar" => Ok(RtVal::int(32, 0)),
            "memset" => {
                let p = args.first().and_then(RtVal::as_ptr).unwrap_or(0);
                let v = arg_int(1) as u8;
                let n = arg_int(2).max(0) as usize;
                self.mem.write(p, &vec![v; n])?;
                Ok(RtVal::Ptr(p))
            }
            "memcpy" => {
                let d = args.first().and_then(RtVal::as_ptr).unwrap_or(0);
                let s = args.get(1).and_then(RtVal::as_ptr).unwrap_or(0);
                let n = arg_int(2).max(0) as u64;
                let bytes = self.mem.read(s, n)?;
                self.mem.write(d, &bytes)?;
                Ok(RtVal::Ptr(d))
            }
            other => {
                self.events.push(Event::ExternalCall(other.to_string()));
                Ok(self.zero_value(func.ret_ty))
            }
        }
    }

    fn int_binary(&self, op: Opcode, a: RtVal, b: RtVal) -> Result<RtVal, Trap> {
        if let (RtVal::Vector(av), RtVal::Vector(bv)) = (&a, &b) {
            let out: Result<Vec<RtVal>, Trap> = av
                .iter()
                .zip(bv)
                .map(|(x, y)| self.int_binary(op, x.clone(), y.clone()))
                .collect();
            return Ok(RtVal::Vector(out?));
        }
        if a == RtVal::Undef || b == RtVal::Undef {
            return Ok(RtVal::Undef);
        }
        // Pointers participate in integer arithmetic via their address.
        let bits = match (&a, &b) {
            (RtVal::Int { bits, .. }, _) | (_, RtVal::Int { bits, .. }) => *bits,
            _ => 64,
        };
        let to_pair = |v: &RtVal| -> Option<(i128, u128)> {
            match *v {
                RtVal::Int { bits, val } => Some((sext(bits, val), val)),
                RtVal::Ptr(p) => Some((i128::from(p), u128::from(p))),
                _ => None,
            }
        };
        let (sa, ua) = to_pair(&a).ok_or_else(|| type_trap("int op"))?;
        let (sb, ub) = to_pair(&b).ok_or_else(|| type_trap("int op"))?;
        let div0 = || Trap::new(TrapKind::DivByZero, String::new());
        let r: i128 = match op {
            Opcode::Add => sa.wrapping_add(sb),
            Opcode::Sub => sa.wrapping_sub(sb),
            Opcode::Mul => sa.wrapping_mul(sb),
            Opcode::UDiv => {
                if ub == 0 {
                    return Err(div0());
                }
                (ua / ub) as i128
            }
            Opcode::SDiv => {
                if sb == 0 {
                    return Err(div0());
                }
                sa.wrapping_div(sb)
            }
            Opcode::URem => {
                if ub == 0 {
                    return Err(div0());
                }
                (ua % ub) as i128
            }
            Opcode::SRem => {
                if sb == 0 {
                    return Err(div0());
                }
                sa.wrapping_rem(sb)
            }
            Opcode::Shl => sa.wrapping_shl((ub % u128::from(bits.max(1))) as u32),
            Opcode::LShr => (ua >> (ub % u128::from(bits.max(1)))) as i128,
            Opcode::AShr => sext(bits, mask(bits, ua)) >> (ub % u128::from(bits.max(1))),
            Opcode::And => sa & sb,
            Opcode::Or => sa | sb,
            Opcode::Xor => sa ^ sb,
            _ => unreachable!(),
        };
        Ok(RtVal::int(bits, r))
    }

    fn float_binary(&self, op: Opcode, a: RtVal, b: RtVal) -> Result<RtVal, Trap> {
        if let (RtVal::Vector(av), RtVal::Vector(bv)) = (&a, &b) {
            let out: Result<Vec<RtVal>, Trap> = av
                .iter()
                .zip(bv)
                .map(|(x, y)| self.float_binary(op, x.clone(), y.clone()))
                .collect();
            return Ok(RtVal::Vector(out?));
        }
        if a == RtVal::Undef || b == RtVal::Undef {
            return Ok(RtVal::Undef);
        }
        let is_f32 = matches!(a, RtVal::F32(_));
        let x = a.as_f64().ok_or_else(|| type_trap("float op"))?;
        let y = b.as_f64().ok_or_else(|| type_trap("float op"))?;
        let r = match op {
            Opcode::FAdd => x + y,
            Opcode::FSub => x - y,
            Opcode::FMul => x * y,
            Opcode::FDiv => x / y,
            Opcode::FRem => x % y,
            _ => unreachable!(),
        };
        Ok(if is_f32 {
            RtVal::F32(r as f32)
        } else {
            RtVal::F64(r)
        })
    }

    fn cast(&self, op: Opcode, v: RtVal, to: TypeId) -> Result<RtVal, Trap> {
        if v == RtVal::Undef {
            return Ok(RtVal::Undef);
        }
        let to_bits = self.module.types.int_bits(to);
        Ok(match op {
            Opcode::Trunc | Opcode::ZExt => {
                let u = v.as_uint().ok_or_else(|| type_trap("int cast"))?;
                RtVal::int(to_bits.unwrap_or(64), u as i128)
            }
            Opcode::SExt => {
                let s = v.as_sint().ok_or_else(|| type_trap("sext"))?;
                RtVal::int(to_bits.unwrap_or(64), s)
            }
            Opcode::FPTrunc => RtVal::F32(v.as_f64().ok_or_else(|| type_trap("fptrunc"))? as f32),
            Opcode::FPExt => RtVal::F64(v.as_f64().ok_or_else(|| type_trap("fpext"))?),
            Opcode::FPToUI => {
                let f = v.as_f64().ok_or_else(|| type_trap("fptoui"))?;
                RtVal::int(to_bits.unwrap_or(64), f.max(0.0) as i128)
            }
            Opcode::FPToSI => {
                let f = v.as_f64().ok_or_else(|| type_trap("fptosi"))?;
                RtVal::int(to_bits.unwrap_or(64), f as i128)
            }
            Opcode::UIToFP => {
                let u = v.as_uint().ok_or_else(|| type_trap("uitofp"))?;
                self.float_of(to, u as f64)
            }
            Opcode::SIToFP => {
                let s = v.as_sint().ok_or_else(|| type_trap("sitofp"))?;
                self.float_of(to, s as f64)
            }
            Opcode::PtrToInt => {
                let p = v.as_ptr().ok_or_else(|| type_trap("ptrtoint"))?;
                RtVal::int(to_bits.unwrap_or(64), i128::from(p))
            }
            Opcode::IntToPtr => {
                let u = v.as_uint().ok_or_else(|| type_trap("inttoptr"))?;
                RtVal::Ptr(u as u64)
            }
            Opcode::BitCast | Opcode::AddrSpaceCast => match (&v, self.module.types.get(to)) {
                (RtVal::Ptr(_), Type::Ptr { .. }) => v,
                (RtVal::Int { val, .. }, Type::F32) => RtVal::F32(f32::from_bits(*val as u32)),
                (RtVal::Int { val, .. }, Type::F64) => RtVal::F64(f64::from_bits(*val as u64)),
                (RtVal::F32(f), Type::Int(b)) => RtVal::int(*b, i128::from(f.to_bits())),
                (RtVal::F64(f), Type::Int(b)) => RtVal::int(*b, i128::from(f.to_bits())),
                _ => v,
            },
            _ => unreachable!(),
        })
    }

    fn float_of(&self, ty: TypeId, v: f64) -> RtVal {
        if matches!(self.module.types.get(ty), Type::F32) {
            RtVal::F32(v as f32)
        } else {
            RtVal::F64(v)
        }
    }

    fn load_typed(&mut self, ty: TypeId, addr: u64) -> Result<RtVal, Trap> {
        match self.module.types.get(ty).clone() {
            Type::Int(b) => {
                let n = u64::from(b.div_ceil(8));
                let bytes = self.mem.read(addr, n)?;
                let mut buf = [0u8; 16];
                buf[..bytes.len()].copy_from_slice(&bytes);
                Ok(RtVal::int(b, u128::from_le_bytes(buf) as i128))
            }
            Type::F32 => {
                let bytes = self.mem.read(addr, 4)?;
                Ok(RtVal::F32(f32::from_le_bytes(*fixed(&bytes)?)))
            }
            Type::F64 => {
                let bytes = self.mem.read(addr, 8)?;
                Ok(RtVal::F64(f64::from_le_bytes(*fixed(&bytes)?)))
            }
            Type::Ptr { .. } | Type::Func { .. } => {
                let bytes = self.mem.read(addr, 8)?;
                Ok(RtVal::Ptr(u64::from_le_bytes(*fixed(&bytes)?)))
            }
            Type::Array { elem, len } => {
                let es = self.module.types.size_of(elem);
                let mut vs = Vec::with_capacity(len as usize);
                for i in 0..len {
                    vs.push(self.load_typed(elem, addr + i * es)?);
                }
                Ok(RtVal::Agg(vs))
            }
            Type::Vector { elem, len } => {
                let es = self.module.types.size_of(elem);
                let mut vs = Vec::with_capacity(len as usize);
                for i in 0..u64::from(len) {
                    vs.push(self.load_typed(elem, addr + i * es)?);
                }
                Ok(RtVal::Vector(vs))
            }
            Type::Struct { fields } => {
                let mut vs = Vec::with_capacity(fields.len());
                for (i, &f) in fields.iter().enumerate() {
                    let off = self
                        .module
                        .types
                        .struct_field_offset(ty, i as u32)
                        .unwrap_or(0);
                    vs.push(self.load_typed(f, addr + off)?);
                }
                Ok(RtVal::Agg(vs))
            }
            Type::Void | Type::Label | Type::Token => Ok(RtVal::Undef),
        }
    }

    fn store_typed(&mut self, ty: TypeId, addr: u64, v: &RtVal) -> Result<(), Trap> {
        let v = if *v == RtVal::Undef {
            self.zero_value(ty)
        } else {
            v.clone()
        };
        match (self.module.types.get(ty).clone(), v) {
            (Type::Int(b), RtVal::Int { val, .. }) => {
                let n = b.div_ceil(8) as usize;
                self.mem.write(addr, &val.to_le_bytes()[..n])
            }
            (Type::Int(b), RtVal::Ptr(p)) => {
                let n = b.div_ceil(8) as usize;
                self.mem.write(addr, &u128::from(p).to_le_bytes()[..n])
            }
            (Type::F32, val) => {
                let f = val.as_f64().unwrap_or(0.0) as f32;
                self.mem.write(addr, &f.to_le_bytes())
            }
            (Type::F64, val) => {
                let f = val.as_f64().unwrap_or(0.0);
                self.mem.write(addr, &f.to_le_bytes())
            }
            (Type::Ptr { .. } | Type::Func { .. }, val) => {
                let p = val.as_ptr().unwrap_or(val.as_uint().unwrap_or(0) as u64);
                self.mem.write(addr, &p.to_le_bytes())
            }
            (Type::Array { elem, .. }, RtVal::Agg(vs)) => {
                let es = self.module.types.size_of(elem);
                for (i, v) in vs.iter().enumerate() {
                    self.store_typed(elem, addr + i as u64 * es, v)?;
                }
                Ok(())
            }
            (Type::Vector { elem, .. }, RtVal::Vector(vs)) => {
                let es = self.module.types.size_of(elem);
                for (i, v) in vs.iter().enumerate() {
                    self.store_typed(elem, addr + i as u64 * es, v)?;
                }
                Ok(())
            }
            (Type::Struct { fields }, RtVal::Agg(vs)) => {
                for (i, (f, v)) in fields.iter().zip(&vs).enumerate() {
                    let off = self
                        .module
                        .types
                        .struct_field_offset(ty, i as u32)
                        .unwrap_or(0);
                    self.store_typed(*f, addr + off, v)?;
                }
                Ok(())
            }
            _ => Err(type_trap("store type/value mismatch")),
        }
    }
}

fn type_trap(what: &str) -> Trap {
    Trap::new(TrapKind::Unsupported, format!("type error in {what}"))
}

fn icmp_val(p: IntPredicate, a: &RtVal, b: &RtVal) -> Result<RtVal, Trap> {
    if let (RtVal::Vector(av), RtVal::Vector(bv)) = (a, b) {
        let out: Result<Vec<RtVal>, Trap> =
            av.iter().zip(bv).map(|(x, y)| icmp_val(p, x, y)).collect();
        return Ok(RtVal::Vector(out?));
    }
    if *a == RtVal::Undef || *b == RtVal::Undef {
        return Ok(RtVal::int(1, 0));
    }
    let (sa, ua) = int_or_ptr(a).ok_or_else(|| type_trap("icmp"))?;
    let (sb, ub) = int_or_ptr(b).ok_or_else(|| type_trap("icmp"))?;
    let r = match p {
        IntPredicate::Eq => ua == ub,
        IntPredicate::Ne => ua != ub,
        IntPredicate::Ugt => ua > ub,
        IntPredicate::Uge => ua >= ub,
        IntPredicate::Ult => ua < ub,
        IntPredicate::Ule => ua <= ub,
        IntPredicate::Sgt => sa > sb,
        IntPredicate::Sge => sa >= sb,
        IntPredicate::Slt => sa < sb,
        IntPredicate::Sle => sa <= sb,
    };
    Ok(RtVal::int(1, i128::from(r)))
}

fn int_or_ptr(v: &RtVal) -> Option<(i128, u128)> {
    match *v {
        RtVal::Int { bits, val } => Some((sext(bits, val), val)),
        RtVal::Ptr(p) => Some((i128::from(p), u128::from(p))),
        _ => None,
    }
}

fn fcmp_val(p: FloatPredicate, a: &RtVal, b: &RtVal) -> Result<RtVal, Trap> {
    if *a == RtVal::Undef || *b == RtVal::Undef {
        return Ok(RtVal::int(1, 0));
    }
    let x = a.as_f64().ok_or_else(|| type_trap("fcmp"))?;
    let y = b.as_f64().ok_or_else(|| type_trap("fcmp"))?;
    let ord = !x.is_nan() && !y.is_nan();
    let r = match p {
        FloatPredicate::Oeq => ord && x == y,
        FloatPredicate::Ogt => ord && x > y,
        FloatPredicate::Oge => ord && x >= y,
        FloatPredicate::Olt => ord && x < y,
        FloatPredicate::Ole => ord && x <= y,
        FloatPredicate::One => ord && x != y,
        FloatPredicate::Ord => ord,
        FloatPredicate::Ueq => !ord || x == y,
        FloatPredicate::Une => !ord || x != y,
        FloatPredicate::Uno => !ord,
        FloatPredicate::AlwaysFalse => false,
        FloatPredicate::AlwaysTrue => true,
    };
    Ok(RtVal::int(1, i128::from(r)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::module::{Function, Module, Param};
    use crate::version::IrVersion;

    fn module() -> Module {
        Module::new("t", IrVersion::V13_0)
    }

    #[test]
    fn arithmetic_and_return() {
        let mut m = module();
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let x = b.mul(ValueRef::const_int(i32t, 6), ValueRef::const_int(i32t, 7));
        let y = b.sub(x, ValueRef::const_int(i32t, 2));
        b.ret(Some(y));
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(40));
    }

    #[test]
    fn signed_wrapping_semantics() {
        let mut m = module();
        let i8t = m.types.i8();
        let f = FuncBuilder::define(&mut m, "main", i8t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let x = b.add(ValueRef::const_int(i8t, 127), ValueRef::const_int(i8t, 1));
        b.ret(Some(x));
        assert_eq!(
            Machine::new(&m).run_main().unwrap().return_int(),
            Some(-128)
        );
    }

    #[test]
    fn division_by_zero_traps() {
        let mut m = module();
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let x = b.sdiv(ValueRef::const_int(i32t, 1), ValueRef::const_int(i32t, 0));
        b.ret(Some(x));
        let o = Machine::new(&m).run_main().unwrap();
        assert_eq!(o.trap().unwrap().kind, TrapKind::DivByZero);
    }

    #[test]
    fn control_flow_loop_sums() {
        // sum 0..10 via phi loop == 45
        let mut m = module();
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.add_block("entry");
        let header = b.add_block("header");
        let body = b.add_block("body");
        let exit = b.add_block("exit");
        b.position_at_end(entry);
        b.br(header);
        b.position_at_end(header);
        let i = b.phi(i32t, vec![(ValueRef::const_int(i32t, 0), entry)]);
        let s = b.phi(i32t, vec![(ValueRef::const_int(i32t, 0), entry)]);
        let c = b.icmp(IntPredicate::Slt, i, ValueRef::const_int(i32t, 10));
        b.cond_br(c, body, exit);
        b.position_at_end(body);
        let s2 = b.add(s, i);
        let i2 = b.add(i, ValueRef::const_int(i32t, 1));
        b.br(header);
        b.position_at_end(exit);
        b.ret(Some(s));
        // Patch back edges.
        let (ip, sp) = (i.as_inst().unwrap(), s.as_inst().unwrap());
        let fm = m.func_mut(f);
        fm.inst_mut(ip).operands.extend([i2, ValueRef::Block(body)]);
        fm.inst_mut(sp).operands.extend([s2, ValueRef::Block(body)]);
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(45));
    }

    #[test]
    fn memory_roundtrip_and_gep() {
        let mut m = module();
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let arr_ty = b.module().types.array(i32t, 4);
        let slot = b.alloca(arr_ty);
        let i64t = b.module().types.i64();
        let p_i32 = b.module().types.ptr(i32t);
        let p2 = b.gep(
            arr_ty,
            slot,
            vec![ValueRef::const_int(i64t, 0), ValueRef::const_int(i64t, 2)],
            p_i32,
        );
        b.store(ValueRef::const_int(i32t, 99), p2);
        let v = b.load(i32t, p2);
        b.ret(Some(v));
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(99));
    }

    #[test]
    fn calls_and_recursion() {
        // fib(10) = 55 via naive recursion.
        let mut m = module();
        let i32t = m.types.i32();
        let fib = FuncBuilder::define(
            &mut m,
            "fib",
            i32t,
            vec![Param {
                name: "n".into(),
                ty: i32t,
            }],
        );
        let mut b = FuncBuilder::new(&mut m, fib);
        let entry = b.add_block("entry");
        let base = b.add_block("base");
        let rec = b.add_block("rec");
        b.position_at_end(entry);
        let n = ValueRef::Arg(0);
        let c = b.icmp(IntPredicate::Slt, n, ValueRef::const_int(i32t, 2));
        b.cond_br(c, base, rec);
        b.position_at_end(base);
        b.ret(Some(n));
        b.position_at_end(rec);
        let n1 = b.sub(n, ValueRef::const_int(i32t, 1));
        let n2 = b.sub(n, ValueRef::const_int(i32t, 2));
        let f1 = b.call(i32t, ValueRef::Func(fib), vec![n1]);
        let f2 = b.call(i32t, ValueRef::Func(fib), vec![n2]);
        let s = b.add(f1, f2);
        b.ret(Some(s));
        let mainf = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, mainf);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let r = b.call(
            i32t,
            ValueRef::Func(fib),
            vec![ValueRef::const_int(i32t, 10)],
        );
        b.ret(Some(r));
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(55));
    }

    /// The verifier rejects a `br` to a non-label, but the interpreter
    /// also runs unverified modules (fuzzing, reduction): it traps.
    #[test]
    fn unconditional_branch_to_a_non_label_traps() {
        let mut m = module();
        let i32t = m.types.i32();
        let void = m.types.void();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        b.push(Instruction::new(
            Opcode::Br,
            void,
            [ValueRef::const_int(i32t, 0)],
        ));
        let o = Machine::new(&m).run_main().unwrap();
        let trap = o.trap().unwrap();
        assert_eq!(trap.kind, TrapKind::Unsupported);
        assert_eq!(trap.detail, "br target not a label");
    }

    #[test]
    fn null_deref_and_uaf_trap() {
        let mut m = module();
        let i32t = m.types.i32();
        let p_i32 = m.types.ptr(i32t);
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let v = b.load(i32t, ValueRef::Null(p_i32));
        b.ret(Some(v));
        let o = Machine::new(&m).run_main().unwrap();
        assert_eq!(o.trap().unwrap().kind, TrapKind::NullDeref);
    }

    #[test]
    fn malloc_free_and_leak_accounting() {
        let mut m = module();
        let i32t = m.types.i32();
        let i64t = m.types.i64();
        let i8t = m.types.i8();
        let p8 = m.types.ptr(i8t);
        let malloc = m.add_func(Function::external(
            "malloc",
            p8,
            vec![Param {
                name: "n".into(),
                ty: i64t,
            }],
        ));
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        b.call(
            p8,
            ValueRef::Func(malloc),
            vec![ValueRef::const_int(i64t, 16)],
        );
        b.ret(Some(ValueRef::const_int(i32t, 0)));
        let o = Machine::new(&m).run_main().unwrap();
        assert_eq!(o.leaked_heap, 1);
    }

    #[test]
    fn input_stream_reads_poc_bytes() {
        let mut m = module();
        let i32t = m.types.i32();
        let input = m.add_func(Function::external(
            "input",
            i32t,
            vec![Param {
                name: "i".into(),
                ty: i32t,
            }],
        ));
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let v = b.call(
            i32t,
            ValueRef::Func(input),
            vec![ValueRef::const_int(i32t, 1)],
        );
        b.ret(Some(v));
        let o = Machine::new(&m)
            .with_input(vec![10, 20, 30])
            .run_main()
            .unwrap();
        assert_eq!(o.return_int(), Some(20));
    }

    #[test]
    fn magma_bug_records_cve() {
        let mut m = module();
        let i32t = m.types.i32();
        let void = m.types.void();
        let bug = m.add_func(Function::external(
            "magma_bug",
            void,
            vec![Param {
                name: "id".into(),
                ty: i32t,
            }],
        ));
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        b.call(
            void,
            ValueRef::Func(bug),
            vec![ValueRef::const_int(i32t, 77)],
        );
        b.ret(Some(ValueRef::const_int(i32t, 0)));
        let o = Machine::new(&m).run_main().unwrap();
        assert!(o.crashed());
        assert_eq!(o.triggered_cves(), vec![77]);
    }

    #[test]
    fn fuel_exhaustion_traps() {
        let mut m = module();
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("spin");
        b.position_at_end(e);
        b.br(e);
        let o = Machine::new(&m).with_fuel(1000).run_main().unwrap();
        assert_eq!(o.trap().unwrap().kind, TrapKind::FuelExhausted);
    }

    #[test]
    fn select_and_icmp() {
        let mut m = module();
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let c = b.icmp(
            IntPredicate::Sgt,
            ValueRef::const_int(i32t, 5),
            ValueRef::const_int(i32t, 3),
        );
        let v = b.select(
            c,
            ValueRef::const_int(i32t, 1),
            ValueRef::const_int(i32t, 2),
        );
        b.ret(Some(v));
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(1));
    }

    #[test]
    fn vector_ops() {
        let mut m = module();
        let i32t = m.types.i32();
        let v4 = m.types.vector(i32t, 4);
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let z = ValueRef::ZeroInit(v4);
        let v1 = b.insertelement(
            z,
            ValueRef::const_int(i32t, 11),
            ValueRef::const_int(i32t, 2),
        );
        let x = b.extractelement(v1, ValueRef::const_int(i32t, 2), i32t);
        b.ret(Some(x));
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(11));
    }

    #[test]
    fn aggregate_ops() {
        let mut m = module();
        let i32t = m.types.i32();
        let i64t = m.types.i64();
        let st = m.types.struct_(vec![i32t, i64t]);
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let z = ValueRef::ZeroInit(st);
        let a1 = b.insertvalue(z, ValueRef::const_int(i32t, 42), vec![0]);
        let x = b.extractvalue(a1, vec![0], i32t);
        b.ret(Some(x));
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(42));
    }

    #[test]
    fn freeze_turns_undef_into_zero() {
        let mut m = module();
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let v = b.freeze(ValueRef::Undef(i32t));
        b.ret(Some(v));
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(0));
    }

    #[test]
    fn asm_hw_level_gates_execution() {
        use crate::module::InlineAsm;
        let mut m = Module::new("t", IrVersion::V3_6); // backend level 1
        let i32t = m.types.i32();
        let fnty = m.types.func(i32t, vec![]);
        let asm = m.add_asm(InlineAsm {
            text: "ret 5".into(),
            constraints: String::new(),
            ty: fnty,
            hw_level: 3,
        });
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let v = b.call(i32t, ValueRef::InlineAsm(asm), vec![]);
        b.ret(Some(v));
        let o = Machine::new(&m).run_main().unwrap();
        assert_eq!(o.trap().unwrap().kind, TrapKind::UnsupportedAsm);
    }

    #[test]
    fn asm_ret_semantics() {
        use crate::module::InlineAsm;
        let mut m = Module::new("t", IrVersion::V13_0);
        let i32t = m.types.i32();
        let fnty = m.types.func(i32t, vec![]);
        let asm = m.add_asm(InlineAsm {
            text: "ret 5".into(),
            constraints: String::new(),
            ty: fnty,
            hw_level: 1,
        });
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let v = b.call(i32t, ValueRef::InlineAsm(asm), vec![]);
        b.ret(Some(v));
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(5));
    }

    #[test]
    fn switch_dispatch() {
        let mut m = module();
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.add_block("entry");
        let c1 = b.add_block("c1");
        let c2 = b.add_block("c2");
        let d = b.add_block("d");
        b.position_at_end(entry);
        b.switch(ValueRef::const_int(i32t, 2), d, vec![(1, c1), (2, c2)]);
        b.position_at_end(c1);
        b.ret(Some(ValueRef::const_int(i32t, 10)));
        b.position_at_end(c2);
        b.ret(Some(ValueRef::const_int(i32t, 20)));
        b.position_at_end(d);
        b.ret(Some(ValueRef::const_int(i32t, 30)));
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(20));
    }

    #[test]
    fn float_pipeline() {
        let mut m = module();
        let i32t = m.types.i32();
        let f64t = m.types.f64();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let x = b.fmul(
            ValueRef::const_float(f64t, 2.5),
            ValueRef::const_float(f64t, 4.0),
        );
        let n = b.cast(Opcode::FPToSI, x, i32t);
        b.ret(Some(n));
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(10));
    }

    #[test]
    fn invoke_follows_normal_edge() {
        let mut m = module();
        let i32t = m.types.i32();
        let callee = FuncBuilder::define(&mut m, "f", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, callee);
        let e = b.add_block("entry");
        b.position_at_end(e);
        b.ret(Some(ValueRef::const_int(i32t, 9)));
        let mainf = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, mainf);
        let entry = b.add_block("entry");
        let normal = b.add_block("normal");
        let unwind = b.add_block("unwind");
        b.position_at_end(entry);
        let r = b.invoke(i32t, ValueRef::Func(callee), vec![], normal, unwind);
        b.position_at_end(normal);
        b.ret(Some(r));
        b.position_at_end(unwind);
        b.ret(Some(ValueRef::const_int(i32t, -1)));
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(9));
    }

    #[test]
    fn indirect_call_through_function_pointer() {
        let mut m = module();
        let i32t = m.types.i32();
        let callee = FuncBuilder::define(&mut m, "target", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, callee);
        let e = b.add_block("entry");
        b.position_at_end(e);
        b.ret(Some(ValueRef::const_int(i32t, 33)));
        let mainf = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, mainf);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let fnty = b.module().types.func(i32t, vec![]);
        let pfn = b.module().types.ptr(fnty);
        let slot = b.alloca(pfn);
        b.store(ValueRef::Func(callee), slot);
        let fp = b.load(pfn, slot);
        let r = b.call(i32t, fp, vec![]);
        b.ret(Some(r));
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(33));
    }
}
