//! The IR Writer ("write an in-memory IR program into a persisted one",
//! Tab. 2).
//!
//! The textual format is a faithful subset of LLVM assembly and — crucially
//! for the paper's *text incompatibility* (§3.1) — changes with the module's
//! [`IrVersion`]:
//!
//! * `< 3.7`: `load i32* %p` / `getelementptr i32* %p, ...` (no explicit
//!   result/source element type);
//! * `>= 3.7`: `load i32, i32* %p` / `getelementptr i32, i32* %p, ...`;
//! * `>= 15.0`: pointers print as opaque `ptr`.
//!
//! The writer streams every fragment straight into one pre-sized output
//! buffer: no per-instruction `format!` temporaries, no `Vec<String>` joins.
//! Per-line fragments go in with `push_str`, not `core::fmt`: each type's
//! text is rendered once per module and form (opaque or typed) into a side
//! buffer and copied from there, and numbers are written by `push_u64`.
//! `write!` stays on cold lines only: the module header, `c"…"` bytes,
//! inline asm and float hex. A whole-module serialization performs O(1)
//! allocator calls (the buffer and the dense value-numbering scratch
//! vector), which matters because serialization sits on the per-request
//! hot path of the serving tier. The type texts and their index are kept
//! per thread between writes, as the arena slab keeps arena buffers.

use std::cell::RefCell;
use std::fmt::Write as _;

use crate::inst::{AtomicOrdering, FloatPredicate, Instruction, IntPredicate, RmwOp};
use crate::module::{Function, GlobalInit, Module};
use crate::opcode::Opcode;
use crate::types::{TypeId, TypeTable};
use crate::value::{BlockId, InstId, ValueRef};
use crate::version::IrVersion;

/// Serializes `module` into its version's textual format.
pub fn write_module(module: &Module) -> String {
    // Pre-size the buffer from the instruction count so the common case is a
    // single allocation (plus the numbering scratch vector).
    let mut est = 256 + module.globals.len() * 48;
    for f in &module.funcs {
        est += 96 + f.insts.len() * 48;
    }
    let [typed, opaque] = TYPE_TEXTS.with(|t| std::mem::take(&mut *t.borrow_mut()));
    let mut w = Writer {
        m: module,
        v: module.version,
        out: String::with_capacity(est),
        value_numbers: Vec::new(),
        typed,
        opaque,
    };
    w.module();
    let Writer {
        out,
        mut typed,
        mut opaque,
        ..
    } = w;
    typed.clear();
    opaque.clear();
    TYPE_TEXTS.with(|t| *t.borrow_mut() = [typed, opaque]);
    out
}

thread_local! {
    /// This thread's type texts (typed, then opaque), empty between
    /// writes. A write takes them out, so a nested write starts from fresh
    /// buffers instead of sharing these.
    static TYPE_TEXTS: RefCell<[TypeTexts; 2]> = RefCell::default();
}

/// Bytes of type text a thread keeps between writes; a module with more
/// type text grows the buffer for its own write only.
const KEEP_TEXT: usize = 64 * 1024;
/// Types a thread keeps index room for between writes.
const KEEP_TYPES: usize = 4 * 1024;

/// Appends `v` in decimal, without `core::fmt`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[i..].iter().map(|&d| char::from(d)));
}

/// Appends `v` in decimal, without `core::fmt`.
fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// The text of each type in one form, rendered on the type's first use in
/// the module and copied from here afterwards.
#[derive(Default)]
struct TypeTexts {
    text: String,
    /// `text[start..end]` for each [`TypeId`]; `end == 0` until rendered
    /// (no type's text is empty).
    spans: Vec<(usize, usize)>,
}

impl TypeTexts {
    /// Empties both buffers for the next module, shrinking them back to
    /// the kept bound.
    fn clear(&mut self) {
        self.text.clear();
        self.text.shrink_to(KEEP_TEXT);
        self.spans.clear();
        self.spans.shrink_to(KEEP_TYPES);
    }

    fn get(&mut self, types: &TypeTable, t: TypeId, opaque: bool) -> &str {
        if self.spans.is_empty() {
            self.spans.resize(types.len(), (0, 0));
            self.text.reserve(16 * types.len());
        }
        let (mut start, mut end) = self.spans[t.index()];
        if end == 0 {
            start = self.text.len();
            if opaque {
                let _ = write!(self.text, "{}", types.display_opaque(t));
            } else {
                let _ = write!(self.text, "{}", types.display(t));
            }
            end = self.text.len();
            self.spans[t.index()] = (start, end);
        }
        &self.text[start..end]
    }
}

struct Writer<'a> {
    m: &'a Module,
    v: IrVersion,
    out: String,
    /// Dense result numbering of the current function, indexed by arena
    /// slot (arena ids can have gaps after transformations; the textual
    /// form always numbers densely). `u32::MAX` marks "no number".
    value_numbers: Vec<u32>,
    /// Type texts with pointers transparent.
    typed: TypeTexts,
    /// Type texts with pointers printed as opaque `ptr`.
    opaque: TypeTexts,
}

const UNNUMBERED: u32 = u32::MAX;

impl Writer<'_> {
    fn module(&mut self) {
        let _ = writeln!(self.out, "; ModuleID = '{}'", self.m.name);
        let _ = writeln!(self.out, "; IR version {}", self.v);
        if !self.m.globals.is_empty() {
            self.out.push('\n');
        }
        for g in &self.m.globals {
            self.symbol(&g.name);
            self.out.push_str(" = ");
            if matches!(g.init, GlobalInit::External) {
                self.out.push_str("external ");
            }
            self.out
                .push_str(if g.is_const { "constant " } else { "global " });
            self.ty(g.ty);
            match &g.init {
                GlobalInit::External => {}
                GlobalInit::Zero => self.out.push_str(" zeroinitializer"),
                GlobalInit::Int(v) => {
                    self.out.push(' ');
                    push_i64(&mut self.out, *v);
                }
                GlobalInit::Float(v) => {
                    let _ = write!(self.out, " 0x{:016x}", v.to_bits());
                }
                GlobalInit::Bytes(bs) => {
                    self.out.push_str(" c\"");
                    for b in bs {
                        let _ = write!(self.out, "\\{b:02x}");
                    }
                    self.out.push('"');
                }
            }
            self.out.push('\n');
        }
        for f in &self.m.funcs {
            self.out.push('\n');
            if f.is_external {
                self.declare(f);
            } else {
                self.define(f);
            }
        }
    }

    fn ty(&mut self, t: TypeId) {
        self.push_type(t, self.v.opaque_pointers_in_text());
    }

    /// A type that must stay transparent even under opaque pointers (the
    /// pointer operand of pre-3.7 `load`/`gep`, which carries the element
    /// type).
    fn ty_typed(&mut self, t: TypeId) {
        self.push_type(t, false);
    }

    fn push_type(&mut self, t: TypeId, opaque: bool) {
        let texts = if opaque {
            &mut self.opaque
        } else {
            &mut self.typed
        };
        self.out.push_str(texts.get(&self.m.types, t, opaque));
    }

    /// `%name` of a parameter, `%argN` for an unnamed one.
    fn param(&mut self, f: &Function, i: usize) {
        let name = &f.params[i].name;
        if name.is_empty() {
            self.out.push_str("%arg");
            push_u64(&mut self.out, i as u64);
        } else {
            self.out.push('%');
            self.out.push_str(name);
        }
    }

    /// `%tN`: the dense number of `i`, else its arena index.
    fn inst_ref(&mut self, i: InstId) {
        let num = match self.value_numbers.get(i.index()) {
            Some(&n) if n != UNNUMBERED => u64::from(n),
            _ => i.index() as u64,
        };
        self.out.push_str("%t");
        push_u64(&mut self.out, num);
    }

    /// `@name` of a function or global.
    fn symbol(&mut self, name: &str) {
        self.out.push('@');
        self.out.push_str(name);
    }

    fn params(&mut self, f: &Function) {
        for (i, p) in f.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.ty(p.ty);
            self.out.push(' ');
            self.param(f, i);
        }
        if f.varargs {
            if !f.params.is_empty() {
                self.out.push_str(", ");
            }
            self.out.push_str("...");
        }
    }

    fn declare(&mut self, f: &Function) {
        self.out.push_str("declare ");
        self.ty(f.ret_ty);
        self.out.push(' ');
        self.symbol(&f.name);
        self.out.push('(');
        self.params(f);
        self.out.push_str(")\n");
    }

    fn define(&mut self, f: &Function) {
        // Assign dense value numbers in layout order.
        self.value_numbers.clear();
        self.value_numbers.resize(f.insts.len(), UNNUMBERED);
        let mut n = 0u32;
        for block in &f.blocks {
            for &iid in &block.insts {
                let inst = f.inst(iid);
                if !matches!(self.m.types.get(inst.ty), crate::types::Type::Void) {
                    self.value_numbers[iid.index()] = n;
                    n += 1;
                }
            }
        }
        self.out.push_str("define ");
        self.ty(f.ret_ty);
        self.out.push(' ');
        self.symbol(&f.name);
        self.out.push('(');
        self.params(f);
        self.out.push_str(") {\n");
        for (bi, block) in f.blocks.iter().enumerate() {
            if bi > 0 {
                self.out.push('\n');
            }
            self.label(f, BlockId::new(bi as u32));
            self.out.push_str(":\n");
            for &iid in &block.insts {
                let inst = f.inst(iid);
                // Anything with a non-void type carries a result — including
                // the result-producing terminators `invoke` and `callbr`.
                let has_result = !matches!(self.m.types.get(inst.ty), crate::types::Type::Void);
                if has_result {
                    self.out.push_str("  ");
                    self.inst_ref(iid);
                    self.out.push_str(" = ");
                } else {
                    self.out.push_str("  ");
                }
                self.inst(f, inst);
                self.out.push('\n');
            }
        }
        self.out.push_str("}\n");
    }

    fn val(&mut self, f: &Function, v: ValueRef) {
        match v {
            ValueRef::Inst(i) => self.inst_ref(i),
            ValueRef::Arg(a) => self.param(f, a as usize),
            ValueRef::Global(g) => self.symbol(&self.m.global(g).name),
            ValueRef::Func(fid) => self.symbol(&self.m.func(fid).name),
            ValueRef::Block(b) => {
                self.out.push('%');
                self.label(f, b);
            }
            ValueRef::ConstInt { value, .. } => push_i64(&mut self.out, value),
            ValueRef::ConstFloat { bits, .. } => {
                let _ = write!(self.out, "0x{bits:016x}");
            }
            ValueRef::Null(_) => self.out.push_str("null"),
            ValueRef::Undef(_) => self.out.push_str("undef"),
            ValueRef::ZeroInit(_) => self.out.push_str("zeroinitializer"),
            ValueRef::InlineAsm(_) => self.out.push_str("<asm>"),
            ValueRef::Placeholder(k) => {
                let _ = write!(self.out, "<placeholder:{k}>");
            }
        }
    }

    /// Renders the operand's static type (the type half of [`Self::tval`]).
    fn val_ty(&mut self, f: &Function, v: ValueRef) {
        match self.m.value_type(f, v) {
            Some(t) => self.ty(t),
            None => self.pointer_ish_type(v),
        }
    }

    /// Like [`Self::val_ty`] but keeps pointers transparent (pre-3.7 forms).
    fn val_ty_typed(&mut self, f: &Function, v: ValueRef) {
        match self.m.value_type(f, v) {
            Some(t) => self.ty_typed(t),
            None => self.pointer_ish_type(v),
        }
    }

    /// Renders `ty value` with the operand's static type.
    fn tval(&mut self, f: &Function, v: ValueRef) {
        self.val_ty(f, v);
        self.out.push(' ');
        self.val(f, v);
    }

    fn pointer_ish_type(&mut self, v: ValueRef) {
        match v {
            ValueRef::Global(g) => {
                if self.v.opaque_pointers_in_text() {
                    self.out.push_str("ptr");
                } else {
                    self.push_type(self.m.global(g).ty, false);
                    self.out.push('*');
                }
            }
            ValueRef::Func(_) => {
                if self.v.opaque_pointers_in_text() {
                    self.out.push_str("ptr");
                } else {
                    self.out.push_str("void ()*");
                }
            }
            _ => self.out.push_str("i64"),
        }
    }

    /// Renders `label %dest` for each of `dests`, comma-separated.
    fn labels(&mut self, f: &Function, dests: &[ValueRef]) {
        for (i, v) in dests.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.out.push_str("label ");
            self.val(f, *v);
        }
    }

    /// Renders each of `args` as `ty value`, comma-separated.
    fn tvals(&mut self, f: &Function, args: &[ValueRef]) {
        for (i, v) in args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.tval(f, *v);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn inst(&mut self, f: &Function, inst: &Instruction) {
        use Opcode::*;
        let ops = &inst.operands;
        match inst.opcode {
            Ret => {
                if ops.is_empty() {
                    self.out.push_str("ret void");
                } else {
                    self.out.push_str("ret ");
                    self.tval(f, ops[0]);
                }
            }
            Br => {
                if ops.len() == 1 {
                    self.out.push_str("br label ");
                    self.val(f, ops[0]);
                } else {
                    self.out.push_str("br i1 ");
                    self.val(f, ops[0]);
                    self.out.push_str(", label ");
                    self.val(f, ops[1]);
                    self.out.push_str(", label ");
                    self.val(f, ops[2]);
                }
            }
            Switch => {
                self.out.push_str("switch ");
                self.tval(f, ops[0]);
                self.out.push_str(", label ");
                self.val(f, ops[1]);
                self.out.push_str(" [");
                for pair in ops[2..].chunks(2) {
                    self.out.push(' ');
                    self.tval(f, pair[0]);
                    self.out.push_str(", label ");
                    self.val(f, pair[1]);
                }
                self.out.push_str(" ]");
            }
            IndirectBr => {
                self.out.push_str("indirectbr ");
                self.tval(f, ops[0]);
                self.out.push_str(", [");
                self.labels(f, &ops[1..]);
                self.out.push(']');
            }
            Invoke => {
                let n = inst.attrs.num_args as usize;
                self.out.push_str("invoke ");
                self.ty(inst.ty);
                self.out.push(' ');
                self.val(f, ops[0]);
                self.out.push('(');
                self.tvals(f, &ops[1..1 + n]);
                self.out.push_str(") to label ");
                self.val(f, ops[1 + n]);
                self.out.push_str(" unwind label ");
                self.val(f, ops[2 + n]);
            }
            CallBr => {
                let n = inst.attrs.num_args as usize;
                self.out.push_str("callbr ");
                self.ty(inst.ty);
                self.out.push(' ');
                self.callee_text(f, ops[0]);
                self.out.push('(');
                self.tvals(f, &ops[1..1 + n]);
                self.out.push_str(") to label ");
                self.val(f, ops[1 + n]);
                self.out.push_str(" [");
                self.labels(f, &ops[2 + n..]);
                self.out.push(']');
            }
            Call => {
                if inst.attrs.tail_call {
                    self.out.push_str("tail ");
                }
                self.out.push_str("call ");
                self.ty(inst.ty);
                self.out.push(' ');
                self.callee_text(f, ops[0]);
                self.out.push('(');
                self.tvals(f, &ops[1..]);
                self.out.push(')');
            }
            Resume => {
                self.out.push_str("resume ");
                self.tval(f, ops[0]);
            }
            Unreachable => self.out.push_str("unreachable"),
            Add | Sub | Mul | UDiv | SDiv | URem | SRem | Shl | LShr | AShr | And | Or | Xor
            | FAdd | FSub | FMul | FDiv | FRem => {
                self.out.push_str(inst.opcode.name());
                self.out.push(' ');
                if inst.attrs.nuw {
                    self.out.push_str("nuw ");
                }
                if inst.attrs.nsw {
                    self.out.push_str("nsw ");
                }
                if inst.attrs.exact {
                    self.out.push_str("exact ");
                }
                self.tval(f, ops[0]);
                self.out.push_str(", ");
                self.val(f, ops[1]);
            }
            FNeg => {
                self.out.push_str("fneg ");
                self.tval(f, ops[0]);
            }
            Alloca => {
                self.out.push_str("alloca ");
                self.ty(inst.attrs.alloc_ty.unwrap_or(inst.ty));
                if let Some(&c) = ops.first() {
                    self.out.push_str(", ");
                    self.tval(f, c);
                }
            }
            Load => {
                self.out.push_str("load ");
                if inst.attrs.volatile {
                    self.out.push_str("volatile ");
                }
                if self.v.explicit_load_type_in_text() {
                    self.ty(inst.ty);
                    self.out.push_str(", ");
                    self.val_ty(f, ops[0]);
                    self.out.push(' ');
                    self.val(f, ops[0]);
                } else {
                    // Old style: the element type rides on the pointer type,
                    // which therefore must stay transparent.
                    self.val_ty_typed(f, ops[0]);
                    self.out.push(' ');
                    self.val(f, ops[0]);
                }
            }
            Store => {
                self.out.push_str("store ");
                if inst.attrs.volatile {
                    self.out.push_str("volatile ");
                }
                self.tval(f, ops[0]);
                self.out.push_str(", ");
                self.tval(f, ops[1]);
            }
            GetElementPtr => {
                self.out.push_str("getelementptr ");
                if inst.attrs.inbounds {
                    self.out.push_str("inbounds ");
                }
                if self.v.explicit_load_type_in_text() {
                    self.ty(inst.attrs.gep_source_ty.unwrap_or(inst.ty));
                    self.out.push_str(", ");
                    self.tval(f, ops[0]);
                    self.out.push_str(", ");
                    self.tvals(f, &ops[1..]);
                } else {
                    self.val_ty_typed(f, ops[0]);
                    self.out.push(' ');
                    self.val(f, ops[0]);
                    self.out.push_str(", ");
                    self.tvals(f, &ops[1..]);
                }
            }
            Fence => {
                self.out.push_str("fence ");
                let ordering = inst.attrs.ordering.map_or("seq_cst", AtomicOrdering::name);
                self.out.push_str(ordering);
            }
            CmpXchg => {
                self.out.push_str("cmpxchg ");
                self.tval(f, ops[0]);
                self.out.push_str(", ");
                self.tval(f, ops[1]);
                self.out.push_str(", ");
                self.tval(f, ops[2]);
                self.out.push_str(" seq_cst seq_cst");
            }
            AtomicRmw => {
                self.out.push_str("atomicrmw ");
                self.out
                    .push_str(inst.attrs.rmw_op.map_or("xchg", RmwOp::name));
                self.out.push(' ');
                self.tval(f, ops[0]);
                self.out.push_str(", ");
                self.tval(f, ops[1]);
                self.out.push_str(" seq_cst");
            }
            Trunc | ZExt | SExt | FPTrunc | FPExt | FPToUI | FPToSI | UIToFP | SIToFP
            | PtrToInt | IntToPtr | BitCast | AddrSpaceCast => {
                self.out.push_str(inst.opcode.name());
                self.out.push(' ');
                self.tval(f, ops[0]);
                self.out.push_str(" to ");
                self.ty(inst.ty);
            }
            ICmp => {
                self.out.push_str("icmp ");
                self.out
                    .push_str(inst.attrs.int_pred.map_or("eq", IntPredicate::name));
                self.out.push(' ');
                self.tval(f, ops[0]);
                self.out.push_str(", ");
                self.val(f, ops[1]);
            }
            FCmp => {
                self.out.push_str("fcmp ");
                self.out
                    .push_str(inst.attrs.float_pred.map_or("oeq", FloatPredicate::name));
                self.out.push(' ');
                self.tval(f, ops[0]);
                self.out.push_str(", ");
                self.val(f, ops[1]);
            }
            Phi => {
                self.out.push_str("phi ");
                self.ty(inst.ty);
                self.out.push(' ');
                for (i, c) in ops.chunks(2).enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.out.push_str("[ ");
                    self.val(f, c[0]);
                    self.out.push_str(", ");
                    self.val(f, c[1]);
                    self.out.push_str(" ]");
                }
            }
            Select => {
                self.out.push_str("select ");
                self.tval(f, ops[0]);
                self.out.push_str(", ");
                self.tval(f, ops[1]);
                self.out.push_str(", ");
                self.tval(f, ops[2]);
            }
            VAArg => {
                self.out.push_str("va_arg ");
                self.tval(f, ops[0]);
                self.out.push_str(", ");
                self.ty(inst.ty);
            }
            ExtractElement => {
                self.out.push_str("extractelement ");
                self.tval(f, ops[0]);
                self.out.push_str(", ");
                self.tval(f, ops[1]);
            }
            InsertElement => {
                self.out.push_str("insertelement ");
                self.tval(f, ops[0]);
                self.out.push_str(", ");
                self.tval(f, ops[1]);
                self.out.push_str(", ");
                self.tval(f, ops[2]);
            }
            ShuffleVector => {
                self.out.push_str("shufflevector ");
                self.tval(f, ops[0]);
                self.out.push_str(", ");
                self.tval(f, ops[1]);
                self.out.push_str(", mask <");
                self.indices(inst);
                self.out.push('>');
            }
            ExtractValue => {
                self.out.push_str("extractvalue ");
                self.tval(f, ops[0]);
                self.out.push_str(", ");
                self.indices(inst);
                self.out.push_str(" : ");
                self.ty(inst.ty);
            }
            InsertValue => {
                self.out.push_str("insertvalue ");
                self.tval(f, ops[0]);
                self.out.push_str(", ");
                self.tval(f, ops[1]);
                self.out.push_str(", ");
                self.indices(inst);
            }
            LandingPad => {
                self.out.push_str("landingpad ");
                self.ty(inst.ty);
                if inst.attrs.is_cleanup {
                    self.out.push_str(" cleanup");
                }
            }
            Freeze => {
                self.out.push_str("freeze ");
                self.tval(f, ops[0]);
            }
            CatchSwitch => {
                self.out.push_str("catchswitch [");
                let mut first = true;
                for v in ops.iter().filter(|v| v.is_block()) {
                    if !first {
                        self.out.push_str(", ");
                    }
                    first = false;
                    self.out.push_str("label ");
                    self.val(f, *v);
                }
                self.out.push(']');
            }
            CatchPad => self.out.push_str("catchpad"),
            CatchRet => {
                self.out.push_str("catchret label ");
                self.val(f, ops[0]);
            }
            CleanupPad => self.out.push_str("cleanuppad"),
            CleanupRet => {
                self.out.push_str("cleanupret label ");
                self.val(f, ops[0]);
            }
        }
    }

    /// Renders `inst.attrs.indices` comma-separated.
    fn indices(&mut self, inst: &Instruction) {
        for (i, ix) in inst.attrs.indices.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            push_u64(&mut self.out, *ix);
        }
    }

    fn callee_text(&mut self, f: &Function, callee: ValueRef) {
        match callee {
            ValueRef::InlineAsm(a) => {
                let asm = self.m.asm(a);
                let _ = write!(
                    self.out,
                    "asm \"{}\", \"{}\" hwlevel {}",
                    asm.text, asm.constraints, asm.hw_level
                );
            }
            other => self.val(f, other),
        }
    }

    /// Streams the label of `block` (same text as [`block_label`]).
    fn label(&mut self, f: &Function, block: BlockId) {
        let b = f.block(block);
        if b.name.is_empty() {
            self.out.push_str("bb");
        } else {
            self.out.push_str(&b.name);
            self.out.push('.');
        }
        push_u64(&mut self.out, u64::from(block.raw()));
    }
}

/// The textual label used for `block` inside `f`.
pub fn block_label(f: &Function, block: BlockId) -> String {
    let b = f.block(block);
    if b.name.is_empty() {
        format!("bb{}", block.raw())
    } else {
        format!("{}.{}", b.name, block.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::module::{Global, Module};
    use crate::version::IrVersion;

    fn sample(version: IrVersion) -> Module {
        let mut m = Module::new("sample", version);
        let i32t = m.types.i32();
        m.add_global(Global {
            name: "g".into(),
            ty: i32t,
            init: GlobalInit::Int(5),
            is_const: false,
        });
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let p = b.alloca(i32t);
        b.store(ValueRef::const_int(i32t, 7), p);
        let v = b.load(i32t, p);
        b.ret(Some(v));
        m
    }

    #[test]
    fn decimals_match_core_fmt() {
        for v in [0, 1, 9, 10, 99, 100, 4_294_967_295, u64::MAX] {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
        for v in [0, -1, 7, -10, i64::MAX, i64::MIN] {
            let mut out = String::from("x");
            push_i64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn old_load_syntax_before_3_7() {
        let text = write_module(&sample(IrVersion::V3_6));
        assert!(text.contains("load i32* %t0"), "{text}");
        assert!(!text.contains("load i32, "));
    }

    #[test]
    fn new_load_syntax_since_3_7() {
        let text = write_module(&sample(IrVersion::V13_0));
        assert!(text.contains("load i32, i32* %t0"), "{text}");
    }

    #[test]
    fn opaque_pointers_since_15() {
        let text = write_module(&sample(IrVersion::V15_0));
        assert!(text.contains("load i32, ptr %t0"), "{text}");
        assert!(!text.contains("i32*"), "{text}");
    }

    #[test]
    fn globals_and_header_present() {
        let text = write_module(&sample(IrVersion::V13_0));
        assert!(text.contains("; IR version 13.0"));
        assert!(text.contains("@g = global i32 5"));
        assert!(text.contains("define i32 @main()"));
    }

    #[test]
    fn branch_and_phi_render() {
        let mut m = Module::new("m", IrVersion::V13_0);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        let t = b.add_block("then");
        b.position_at_end(e);
        let c = b.icmp(
            crate::inst::IntPredicate::Eq,
            ValueRef::const_int(i32t, 1),
            ValueRef::const_int(i32t, 1),
        );
        b.cond_br(c, t, t);
        b.position_at_end(t);
        let p = b.phi(i32t, vec![(ValueRef::const_int(i32t, 3), e)]);
        b.ret(Some(p));
        let text = write_module(&m);
        assert!(
            text.contains("br i1 %t0, label %then.1, label %then.1"),
            "{text}"
        );
        assert!(text.contains("phi i32 [ 3, %entry.0 ]"), "{text}");
    }
}
