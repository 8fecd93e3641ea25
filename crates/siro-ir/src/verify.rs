//! The IR Verifier ("verify the integrity and legality of an IR program",
//! Tab. 2 of the paper).
//!
//! Verification is the first half of the "compilation" signal used by the
//! differential-testing validation loop (Fig. 6): a per-test translator whose
//! output fails verification is rejected without ever being executed.

use crate::error::{IrError, IrResult};
use crate::hash::HashSet;
use crate::inst::Instruction;
use crate::module::{Function, Module};
use crate::opcode::Opcode;
use crate::types::Type;
use crate::value::{BlockId, ValueRef};

/// The backend-feasibility half of "compilation": checks that every
/// inline-assembly snippet can be lowered by this version's backend.
///
/// Models the paper's php failure mode (Tab. 5): source code hard-coding
/// newer hardware instructions translates fine but fails backend code
/// generation on old versions.
///
/// # Errors
///
/// Returns [`IrError::Verification`] naming each unloadable snippet.
pub fn codegen_check(module: &Module) -> IrResult<()> {
    let max = module.version.max_asm_hw_level();
    let findings: Vec<String> = module
        .asms
        .iter()
        .enumerate()
        .filter(|(_, a)| a.hw_level > max)
        .map(|(i, a)| {
            format!(
                "asm #{i} requires hw level {} but backend {} supports only {max}",
                a.hw_level, module.version
            )
        })
        .collect();
    if findings.is_empty() {
        Ok(())
    } else {
        Err(IrError::Verification(findings))
    }
}

/// Verifies the whole module; returns all findings on failure.
///
/// # Errors
///
/// Returns [`IrError::Verification`] listing every finding.
pub fn verify_module(module: &Module) -> IrResult<()> {
    let findings = collect_findings(module);
    if findings.is_empty() {
        Ok(())
    } else {
        Err(IrError::Verification(findings))
    }
}

/// Runs all checks and returns human-readable findings (empty = valid).
pub fn collect_findings(module: &Module) -> Vec<String> {
    let largest = module.funcs.iter().map(|f| f.insts.len()).max();
    let mut v = Verifier {
        module,
        findings: Vec::new(),
        seen_inst: Vec::with_capacity(largest.unwrap_or(0)),
    };
    v.run();
    v.findings
}

struct Verifier<'a> {
    module: &'a Module,
    findings: Vec<String>,
    /// Whether each instruction of the function being checked sits in a
    /// block, indexed by instruction id; one buffer serves every function.
    seen_inst: Vec<bool>,
}

impl Verifier<'_> {
    fn report(&mut self, msg: String) {
        self.findings.push(msg);
    }

    fn run(&mut self) {
        let module = self.module;
        let mut names: HashSet<&str> = HashSet::with_capacity_and_hasher(
            module.funcs.len() + module.globals.len(),
            Default::default(),
        );
        for f in &module.funcs {
            if !names.insert(&f.name) {
                self.report(format!("duplicate function name `{}`", f.name));
            }
        }
        for g in &module.globals {
            if !names.insert(&g.name) {
                self.report(format!("duplicate symbol name `{}`", g.name));
            }
        }
        for (idx, f) in self.module.funcs.iter().enumerate() {
            self.check_function(idx, f);
        }
    }

    fn check_function(&mut self, idx: usize, f: &Function) {
        if f.is_external {
            if !f.blocks.is_empty() {
                self.report(format!("external function `{}` has a body", f.name));
            }
            return;
        }
        if f.blocks.is_empty() {
            self.report(format!("function `{}` (#{idx}) has no blocks", f.name));
            return;
        }
        // Dangling ids are reported (and skipped) before this is read.
        self.seen_inst.clear();
        self.seen_inst.resize(f.insts.len(), false);
        for (bi, block) in f.blocks.iter().enumerate() {
            let bid = BlockId::new(bi as u32);
            if block.insts.is_empty() {
                self.report(format!("{}: block `{}` is empty", f.name, block.name));
                continue;
            }
            for (pos, &iid) in block.insts.iter().enumerate() {
                if iid.index() >= f.insts.len() {
                    self.report(format!("{}: dangling instruction id {:?}", f.name, iid));
                    continue;
                }
                if std::mem::replace(&mut self.seen_inst[iid.index()], true) {
                    self.report(format!(
                        "{}: instruction {:?} appears in more than one block",
                        f.name, iid
                    ));
                }
                let inst = f.inst(iid);
                let is_last = pos + 1 == block.insts.len();
                if inst.opcode.is_terminator() && !is_last {
                    self.report(format!(
                        "{}/{}: terminator `{}` is not the last instruction",
                        f.name, block.name, inst.opcode
                    ));
                }
                if is_last && !inst.opcode.is_terminator() {
                    self.report(format!(
                        "{}/{}: block does not end with a terminator (ends with `{}`)",
                        f.name, block.name, inst.opcode
                    ));
                }
                if inst.opcode == Opcode::Phi && pos != 0 {
                    // LLVM allows a phi *group* at the head; approximate by
                    // requiring every earlier instruction to be a phi too.
                    let prev = f.inst(block.insts[pos - 1]);
                    if prev.opcode != Opcode::Phi {
                        self.report(format!(
                            "{}/{}: phi not at the start of the block",
                            f.name, block.name
                        ));
                    }
                }
                self.check_inst(f, bid, inst);
            }
        }
    }

    fn check_inst(&mut self, f: &Function, _b: BlockId, inst: &Instruction) {
        let m = self.module;
        if !m.version.supports(inst.opcode) {
            self.report(format!(
                "{}: opcode `{}` requires IR version {} but module is {}",
                f.name,
                inst.opcode,
                inst.opcode.introduced_in(),
                m.version
            ));
        }
        for op in &inst.operands {
            match *op {
                ValueRef::Inst(i) if i.index() >= f.insts.len() => {
                    self.report(format!("{}: operand references dangling {:?}", f.name, i));
                }
                ValueRef::Arg(a) if a as usize >= f.params.len() => {
                    self.report(format!("{}: argument index {a} out of range", f.name));
                }
                ValueRef::Block(b) if b.index() >= f.blocks.len() => {
                    self.report(format!("{}: block operand {:?} out of range", f.name, b));
                }
                ValueRef::Global(g) if g.index() >= m.globals.len() => {
                    self.report(format!("{}: global operand {:?} out of range", f.name, g));
                }
                ValueRef::Func(fid) if fid.index() >= m.funcs.len() => {
                    self.report(format!(
                        "{}: function operand {:?} out of range",
                        f.name, fid
                    ));
                }
                ValueRef::InlineAsm(a) if a.index() >= m.asms.len() => {
                    self.report(format!("{}: asm operand {:?} out of range", f.name, a));
                }
                ValueRef::Placeholder(k) => {
                    self.report(format!(
                        "{}: unresolved translation placeholder #{k} in `{}`",
                        f.name, inst.opcode
                    ));
                }
                _ => {}
            }
        }
        self.check_shape(f, inst);
    }

    /// Per-opcode operand-count / operand-type checks (the interesting subset
    /// relevant for rejecting ill-formed translator output).
    fn check_shape(&mut self, f: &Function, inst: &Instruction) {
        use Opcode::*;
        let m = self.module;
        let n = inst.operands.len();
        let bad = |this: &mut Self, msg: &str| {
            this.report(format!("{}: `{}` {}", f.name, inst.opcode, msg));
        };
        match inst.opcode {
            Ret => {
                if n > 1 {
                    bad(self, "takes at most one operand");
                } else if n == 1 {
                    if let Some(ty) = m.value_type(f, inst.operands[0]) {
                        if ty != f.ret_ty {
                            bad(
                                self,
                                "returned value type differs from function return type",
                            );
                        }
                    }
                } else if m.types.get(f.ret_ty) != &Type::Void {
                    bad(self, "void return in a non-void function");
                }
            }
            Br => {
                let ok = (n == 1 && inst.operands[0].is_block())
                    || (n == 3
                        && !inst.operands[0].is_block()
                        && inst.operands[1].is_block()
                        && inst.operands[2].is_block());
                if !ok {
                    bad(self, "must be `br label` or `br i1, label, label`");
                } else if n == 3 {
                    if let Some(ty) = m.value_type(f, inst.operands[0]) {
                        if m.types.int_bits(ty) != Some(1) {
                            bad(self, "condition must be i1");
                        }
                    }
                }
            }
            Switch => {
                if n < 2 || !n.is_multiple_of(2) {
                    bad(self, "needs value, default, and (const, label) pairs");
                } else if !inst.operands[1].is_block() {
                    bad(self, "second operand must be the default label");
                }
            }
            IndirectBr => {
                if n < 2 {
                    bad(self, "needs an address and at least one destination");
                }
            }
            Add | Sub | Mul | UDiv | SDiv | URem | SRem | Shl | LShr | AShr | And | Or | Xor => {
                if n != 2 {
                    bad(self, "takes exactly two operands");
                } else {
                    let ta = m.value_type(f, inst.operands[0]);
                    let tb = m.value_type(f, inst.operands[1]);
                    if let (Some(a), Some(b)) = (ta, tb) {
                        if a != b {
                            bad(self, "operand types differ");
                        }
                        if !m.types.is_int(a) && !matches!(m.types.get(a), Type::Vector { .. }) {
                            bad(self, "operands must be integers");
                        }
                    }
                }
            }
            FAdd | FSub | FMul | FDiv | FRem => {
                if n != 2 {
                    bad(self, "takes exactly two operands");
                } else if let Some(a) = m.value_type(f, inst.operands[0]) {
                    if !m.types.is_float(a) && !matches!(m.types.get(a), Type::Vector { .. }) {
                        bad(self, "operands must be floating point");
                    }
                }
            }
            FNeg => {
                if n != 1 {
                    bad(self, "takes exactly one operand");
                }
            }
            Alloca => {
                if inst.attrs.alloc_ty.is_none() {
                    bad(self, "missing allocated type");
                }
                if !m.types.is_ptr(inst.ty) {
                    bad(self, "result must be a pointer");
                }
            }
            Load => {
                if n != 1 {
                    bad(self, "takes exactly one operand");
                } else if let Some(t) = m.value_type(f, inst.operands[0]) {
                    if !m.types.is_ptr(t) {
                        bad(self, "operand must be a pointer");
                    }
                }
            }
            Store => {
                if n != 2 {
                    bad(self, "takes exactly two operands");
                }
            }
            GetElementPtr => {
                if n < 2 {
                    bad(self, "needs a base pointer and at least one index");
                }
                if inst.attrs.gep_source_ty.is_none() {
                    bad(self, "missing source element type");
                }
            }
            ICmp => {
                if inst.attrs.int_pred.is_none() {
                    bad(self, "missing predicate");
                }
                if n != 2 {
                    bad(self, "takes exactly two operands");
                }
            }
            FCmp => {
                if inst.attrs.float_pred.is_none() {
                    bad(self, "missing predicate");
                }
                if n != 2 {
                    bad(self, "takes exactly two operands");
                }
            }
            Phi => {
                if n == 0 || !n.is_multiple_of(2) {
                    bad(self, "needs (value, block) pairs");
                } else {
                    for pair in inst.operands.chunks(2) {
                        if !pair[1].is_block() {
                            bad(self, "odd positions must be incoming blocks");
                            break;
                        }
                    }
                }
            }
            Select => {
                if n != 3 {
                    bad(self, "takes cond, true, false");
                }
            }
            Call => {
                if n < 1 {
                    bad(self, "needs a callee");
                } else if let ValueRef::Func(fid) = inst.operands[0] {
                    if fid.index() < m.funcs.len() {
                        let callee = m.func(fid);
                        let argc = n - 1;
                        if !callee.varargs && argc != callee.params.len() {
                            bad(self, "argument count mismatch");
                        }
                        if callee.ret_ty != inst.ty {
                            bad(self, "return type mismatch");
                        }
                    }
                }
            }
            Invoke => {
                if n < 3 {
                    bad(self, "needs callee, normal and unwind destinations");
                } else {
                    let blocks = inst
                        .operands
                        .iter()
                        .rev()
                        .take(2)
                        .filter(|v| v.is_block())
                        .count();
                    if blocks != 2 {
                        bad(self, "last two operands must be destination labels");
                    }
                }
            }
            CallBr => {
                if n < 2 {
                    bad(self, "needs callee and a fallthrough destination");
                }
            }
            Trunc | ZExt | SExt | FPTrunc | FPExt | FPToUI | FPToSI | UIToFP | SIToFP
            | PtrToInt | IntToPtr | BitCast | AddrSpaceCast => {
                if n != 1 {
                    bad(self, "takes exactly one operand");
                } else {
                    self.check_cast(f, inst);
                }
            }
            ExtractValue => {
                if n != 1 || inst.attrs.indices.is_empty() {
                    bad(self, "takes one aggregate and a non-empty index path");
                }
            }
            InsertValue => {
                if n != 2 || inst.attrs.indices.is_empty() {
                    bad(self, "takes aggregate, value, and a non-empty index path");
                }
            }
            ExtractElement => {
                if n != 2 {
                    bad(self, "takes vector and index");
                }
            }
            InsertElement => {
                if n != 3 {
                    bad(self, "takes vector, element, index");
                }
            }
            ShuffleVector => {
                if n != 2 {
                    bad(self, "takes two vectors (mask in attributes)");
                }
            }
            Freeze => {
                if n != 1 {
                    bad(self, "takes exactly one operand");
                }
            }
            Resume | VAArg => {
                if n != 1 {
                    bad(self, "takes exactly one operand");
                }
            }
            Unreachable | Fence | LandingPad => {}
            CmpXchg => {
                if n != 3 {
                    bad(self, "takes pointer, expected, replacement");
                }
            }
            AtomicRmw => {
                if n != 2 || inst.attrs.rmw_op.is_none() {
                    bad(self, "takes pointer and value, with an rmw operation");
                }
            }
            CatchSwitch | CatchPad | CatchRet | CleanupPad | CleanupRet => {}
        }
    }

    /// LLVM-faithful cast legality: each cast opcode constrains its source
    /// and destination types (and widths). These rules are load-bearing for
    /// synthesis: they are what rejects well-typed-but-wrong candidates
    /// like `uitofp ... to i32` at "compilation" time.
    fn check_cast(&mut self, f: &Function, inst: &Instruction) {
        use Opcode::*;
        let m = self.module;
        let Some(src) = m.value_type(f, inst.operands[0]) else {
            return;
        };
        let dst = inst.ty;
        // See through vectors: a cast of a vector casts element-wise.
        let elem = |ty: crate::types::TypeId| match m.types.get(ty) {
            Type::Vector { elem, .. } => *elem,
            _ => ty,
        };
        let (s, d) = (elem(src), elem(dst));
        let int_bits = |t| self.module.types.int_bits(t);
        let is_float = |t| self.module.types.is_float(t);
        let is_ptr = |t| self.module.types.is_ptr(t);
        let float_bits = |t| match self.module.types.get(t) {
            Type::F32 => Some(32u32),
            Type::F64 => Some(64),
            _ => None,
        };
        let mut bad = |msg: &str| {
            self.findings
                .push(format!("{}: `{}` {}", f.name, inst.opcode, msg));
        };
        match inst.opcode {
            Trunc => match (int_bits(s), int_bits(d)) {
                (Some(a), Some(b)) if a > b => {}
                _ => bad("requires integer source wider than its integer destination"),
            },
            ZExt | SExt => match (int_bits(s), int_bits(d)) {
                (Some(a), Some(b)) if a < b => {}
                _ => bad("requires integer source narrower than its integer destination"),
            },
            FPTrunc => match (float_bits(s), float_bits(d)) {
                (Some(a), Some(b)) if a > b => {}
                _ => bad("requires a wider float source than destination"),
            },
            FPExt => match (float_bits(s), float_bits(d)) {
                (Some(a), Some(b)) if a < b => {}
                _ => bad("requires a narrower float source than destination"),
            },
            FPToUI | FPToSI if (!is_float(s) || int_bits(d).is_none()) => {
                bad("requires a float source and an integer destination");
            }
            UIToFP | SIToFP if (int_bits(s).is_none() || !is_float(d)) => {
                bad("requires an integer source and a float destination");
            }
            PtrToInt if (!is_ptr(s) || int_bits(d).is_none()) => {
                bad("requires a pointer source and an integer destination");
            }
            IntToPtr if (int_bits(s).is_none() || !is_ptr(d)) => {
                bad("requires an integer source and a pointer destination");
            }
            BitCast => {
                let ok = (is_ptr(s) && is_ptr(d))
                    || (!is_ptr(s)
                        && !is_ptr(d)
                        && m.types.size_of(src) == m.types.size_of(dst)
                        && m.types.size_of(src) > 0);
                if !ok {
                    bad("requires pointer-to-pointer or same-sized non-aggregate types");
                }
            }
            AddrSpaceCast if (!is_ptr(s) || !is_ptr(d)) => {
                bad("requires pointer types");
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::Instruction;
    use crate::module::Module;
    use crate::value::ValueRef;
    use crate::version::IrVersion;

    fn valid_module() -> Module {
        let mut m = Module::new("ok", IrVersion::V13_0);
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
    fn valid_module_verifies() {
        assert!(verify_module(&valid_module()).is_ok());
    }

    #[test]
    fn version_gating_rejects_new_opcodes() {
        let mut m = Module::new("bad", IrVersion::V3_6);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let v = b.freeze(ValueRef::const_int(i32t, 1));
        b.ret(Some(v));
        let findings = collect_findings(&m);
        assert!(
            findings.iter().any(|s| s.contains("freeze")),
            "{findings:?}"
        );
    }

    #[test]
    fn missing_terminator_detected() {
        let mut m = Module::new("bad", IrVersion::V13_0);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        b.add(ValueRef::const_int(i32t, 1), ValueRef::const_int(i32t, 2));
        let findings = collect_findings(&m);
        assert!(findings.iter().any(|s| s.contains("terminator")));
    }

    #[test]
    fn placeholder_rejected() {
        let mut m = valid_module();
        let f = m.func_mut(crate::value::FuncId::new(0));
        f.inst_mut(crate::value::InstId::new(0)).operands[0] = ValueRef::Placeholder(9);
        let findings = collect_findings(&m);
        assert!(findings.iter().any(|s| s.contains("placeholder")));
    }

    #[test]
    fn duplicate_names_are_reported() {
        let mut m = valid_module();
        let i32t = m.types.i32();
        FuncBuilder::define(&mut m, "main", i32t, vec![]);
        m.add_global(crate::module::Global {
            name: "main".into(),
            ty: i32t,
            init: crate::module::GlobalInit::Zero,
            is_const: false,
        });
        let findings = collect_findings(&m);
        for expected in [
            "duplicate function name `main`",
            "duplicate symbol name `main`",
        ] {
            assert!(findings.iter().any(|s| s == expected), "{findings:?}");
        }
    }

    /// One buffer of instruction marks serves every function: a function's
    /// marks never count against the next one, and an instruction placed
    /// in two blocks of one function is still caught.
    #[test]
    fn instruction_marks_start_clear_in_each_function() {
        let mut m = valid_module();
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "other", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.add_block("entry");
        let next = b.add_block("next");
        b.position_at_end(entry);
        let v = b.add(ValueRef::const_int(i32t, 3), ValueRef::const_int(i32t, 4));
        b.br(next);
        b.position_at_end(next);
        b.ret(Some(v));
        assert_eq!(collect_findings(&m), Vec::<String>::new());

        let add = crate::value::InstId::new(0);
        m.func_mut(f).blocks[next].insts.insert(0, add);
        let findings = collect_findings(&m);
        assert_eq!(
            findings,
            ["other: instruction InstId(0) appears in more than one block"]
        );
    }

    #[test]
    fn mismatched_binary_operands_detected() {
        let mut m = Module::new("bad", IrVersion::V13_0);
        let i32t = m.types.i32();
        let i64t = m.types.i64();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        b.push(Instruction::new(
            Opcode::Add,
            i32t,
            vec![ValueRef::const_int(i32t, 1), ValueRef::const_int(i64t, 2)],
        ));
        b.ret(Some(ValueRef::const_int(i32t, 0)));
        let findings = collect_findings(&m);
        assert!(findings.iter().any(|s| s.contains("operand types differ")));
    }

    #[test]
    fn bad_branch_shape_detected() {
        let mut m = Module::new("bad", IrVersion::V13_0);
        let void = m.types.void();
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        // A two-operand br is neither conditional nor unconditional.
        b.push(Instruction::new(
            Opcode::Br,
            void,
            vec![
                ValueRef::Block(crate::value::BlockId::new(0)),
                ValueRef::Block(crate::value::BlockId::new(0)),
            ],
        ));
        let findings = collect_findings(&m);
        assert!(findings.iter().any(|s| s.contains("br")));
    }

    #[test]
    fn call_arity_checked() {
        let mut m = Module::new("bad", IrVersion::V13_0);
        let i32t = m.types.i32();
        let callee = m.add_func(crate::module::Function::external(
            "one_arg",
            i32t,
            vec![crate::module::Param {
                name: "x".into(),
                ty: i32t,
            }],
        ));
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        let r = b.call(i32t, ValueRef::Func(callee), vec![]);
        b.ret(Some(r));
        let findings = collect_findings(&m);
        assert!(findings.iter().any(|s| s.contains("argument count")));
    }

    #[test]
    fn ret_type_mismatch_detected() {
        let mut m = Module::new("bad", IrVersion::V13_0);
        let i32t = m.types.i32();
        let i64t = m.types.i64();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.add_block("entry");
        b.position_at_end(e);
        b.ret(Some(ValueRef::const_int(i64t, 0)));
        let findings = collect_findings(&m);
        assert!(findings
            .iter()
            .any(|s| s.contains("differs from function return type")));
    }
}
