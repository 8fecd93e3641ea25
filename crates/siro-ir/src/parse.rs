//! The IR Reader ("load a persisted IR program into the memory", Tab. 2).
//!
//! Parses the version-flavoured textual format produced by
//! [`write::write_module`](crate::write::write_module). The accepted syntax
//! follows the module's declared version: pre-3.7 `load i32* %p`, post-3.7
//! `load i32, i32* %p`, and opaque `ptr` types from 15.0 on.
//!
//! The reader makes one scan over the text. Each line is read once, and
//! what it declares goes straight into the module's arenas: signatures and
//! globals as they appear, instructions into their block. A name used
//! before its definition (a call to a later function, a branch to a later
//! label, a `phi` operand from a later instruction) is parked as a fix-up
//! and patched when its function, or for `@` symbols the module, ends.
//! Names resolve as in a reader that first collects every name and then
//! parses:
//!
//! * `@name` is the first function of that name, else the first global;
//! * `%name` is the last instruction defining it in the function, else the
//!   last parameter of that name;
//! * a label names the last block carrying it, which also collects the
//!   instructions written under every earlier copy of the label.
//!
//! A use read before a later definition took its name over (a `%name`
//! defined again, a label repeated, a global a later function shadows) is
//! moved to the last definition by one pass over the function's operands
//! when its body ends, or over the module's when the module ends.
//!
//! Errors cite the line such a reader reports: the first bad signature or
//! global anywhere in the text, else the first bad body line, where a name
//! that never resolves counts at the line that uses it. `docs/IR_CORE.md`
//! § "Reader" describes the contract and the golden that pins it.

use std::borrow::Cow;

use crate::ctx::{OpVec, Ptr};
use crate::error::{IrError, IrResult};
use crate::hash::HashMap;
use crate::infer;
use crate::inst::{AtomicOrdering, FloatPredicate, InstAttrs, Instruction, IntPredicate, RmwOp};
use crate::module::{Function, Global, GlobalInit, InlineAsm, Module, Param};
use crate::opcode::Opcode;
use crate::types::{Type, TypeId, TypeTable};
use crate::value::{BlockId, FuncId, GlobalId, InstId, ValueRef};
use crate::version::IrVersion;

/// Parses a textual IR module.
///
/// The text must carry the writer's `; IR version X.Y` header, which selects
/// the accepted syntax.
///
/// # Errors
///
/// Returns [`IrError::Parse`] with a line number on malformed input.
pub fn parse_module(text: &str) -> IrResult<Module> {
    let version = text
        .lines()
        .take(8)
        .find_map(|l| l.trim().strip_prefix("; IR version "))
        .and_then(|v| {
            let (maj, min) = v.trim().split_once('.')?;
            Some(IrVersion::new(maj.parse().ok()?, min.parse().ok()?))
        })
        .ok_or_else(|| IrError::Parse {
            line: 1,
            message: "missing `; IR version X.Y` header".into(),
        })?;
    parse_module_as(text, version)
}

/// Parses a textual IR module, forcing the given version's syntax.
///
/// # Errors
///
/// Returns [`IrError::Parse`] with a line number on malformed input.
pub fn parse_module_as(text: &str, version: IrVersion) -> IrResult<Module> {
    let name = text
        .lines()
        .take(4)
        .find_map(|l| l.trim().strip_prefix("; ModuleID = '"))
        .and_then(|r| r.strip_suffix('\''))
        .unwrap_or("parsed");
    Reader::new(text, Module::new(name, version)).read()
}

/// A keyword byte: `[a-zA-Z0-9_]`.
fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// A `%`/`@` name byte: `[-a-zA-Z$._0-9]`, the characters LLVM prints
/// without quotes.
fn is_name_byte(b: u8) -> bool {
    is_word_byte(b) || matches!(b, b'-' | b'$' | b'.')
}

/// What a module-level `@name` denotes; a function shadows a global.
#[derive(Debug, Clone, Copy, Default)]
struct Symbol {
    func: Option<FuncId>,
    global: Option<GlobalId>,
}

impl Symbol {
    fn value(self) -> Option<ValueRef> {
        self.func
            .map(ValueRef::Func)
            .or(self.global.map(ValueRef::Global))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefKind {
    /// `%name` as a value.
    Local,
    /// `%name` as a label.
    Block,
    /// `@name`.
    Symbol,
}

/// A name used before its definition; the operand it fills holds a
/// placeholder until the name is known.
#[derive(Debug)]
struct Fixup<'t> {
    kind: RefKind,
    name: &'t str,
    /// Parse-order stamp: of all errors, the lowest stamp is reported.
    seq: u32,
    line: usize,
    func: FuncId,
    inst: InstId,
    op: u32,
}

impl Fixup<'_> {
    fn error(&self) -> IrError {
        let message = match self.kind {
            RefKind::Local => format!("unknown local `%{}`", self.name),
            RefKind::Block => format!("unknown block `%{}`", self.name),
            RefKind::Symbol => format!("unknown symbol `@{}`", self.name),
        };
        IrError::Parse {
            line: self.line,
            message,
        }
    }
}

/// The placeholder operand of fix-up `index`; the low bit tells the
/// module's list from the function's.
fn fixup_code(index: usize, module_level: bool) -> u32 {
    ((index as u32) << 1) | u32::from(module_level)
}

/// Stands in for a name seen only after a body error: it exists, and its
/// value no longer matters.
const SEEN: ValueRef = ValueRef::Placeholder(u32::MAX);

/// The definitions of one function that a later one took the name of,
/// each mapped by id to that later definition: an instruction or parameter
/// whose `%name` was defined again, a block whose label was repeated.
#[derive(Debug, Default)]
struct Moves {
    insts: Vec<Option<InstId>>,
    args: Vec<Option<InstId>>,
    blocks: Vec<Option<BlockId>>,
}

impl Moves {
    fn clear(&mut self) {
        self.insts.clear();
        self.args.clear();
        self.blocks.clear();
    }

    fn is_empty(&self) -> bool {
        self.insts.is_empty() && self.args.is_empty() && self.blocks.is_empty()
    }

    /// Maps each superseded id to the last definition of its name.
    fn close(&mut self) {
        close_chains(&mut self.insts);
        close_chains(&mut self.blocks);
        for a in self.args.iter_mut().flatten() {
            if let Some(&Some(last)) = self.insts.get(a.index()) {
                *a = last;
            }
        }
    }

    /// Where a use of `v` moves to, if a later definition took its name.
    fn target(&self, v: ValueRef) -> Option<ValueRef> {
        match v {
            ValueRef::Inst(i) => Some(ValueRef::Inst((*self.insts.get(i.index())?)?)),
            ValueRef::Arg(a) => Some(ValueRef::Inst((*self.args.get(a as usize)?)?)),
            ValueRef::Block(b) => Some(ValueRef::Block((*self.blocks.get(b.index())?)?)),
            _ => None,
        }
    }
}

/// Sets `v[i]`, growing `v` as needed.
fn set_at<T>(v: &mut Vec<Option<T>>, i: usize, x: T) {
    if v.len() <= i {
        v.resize_with(i + 1, || None);
    }
    v[i] = Some(x);
}

/// Maps each id to the end of its chain of successors. A successor has a
/// higher id than the definition it supersedes, so sweeping down from the
/// top finds every successor's own entry already at the end of its chain.
fn close_chains<T>(next: &mut [Option<Ptr<T>>]) {
    for i in (0..next.len()).rev() {
        if let Some(n) = next[i] {
            if let Some(&Some(last)) = next.get(n.index()) {
                next[i] = Some(last);
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Operands visited by [`move_operands`] on this thread.
    static MOVE_VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Replaces each operand of `f` that `to` maps, in one pass.
fn move_operands(f: &mut Function, to: impl Fn(ValueRef) -> Option<ValueRef>) {
    for inst in &mut f.insts {
        #[cfg(test)]
        MOVE_VISITS.with(|n| n.set(n.get() + inst.operands.len()));
        for op in &mut inst.operands {
            if let Some(v) = to(*op) {
                *op = v;
            }
        }
    }
}

/// Empties a per-function name table for the next function. Clearing
/// takes time in proportion to the capacity, so a table one large function
/// grew is shrunk back, or every later function would pay for it.
fn reset<K: Eq + std::hash::Hash, V>(table: &mut HashMap<K, V>) {
    table.clear();
    table.shrink_to(RESET_CAPACITY);
}

/// Entries a per-function name table keeps room for between functions.
const RESET_CAPACITY: usize = 1024;

/// The one-pass reader's state. Name tables borrow their keys from the
/// text; the per-function ones are emptied, not reallocated.
struct Reader<'t> {
    text: &'t str,
    /// Byte offset of the next unread line.
    pos: usize,
    /// Number of the line read last (1-based).
    line: usize,
    m: Module,
    symbols: HashMap<&'t str, Symbol>,
    /// A function took the name of a global that may already be in use.
    shadowed_globals: bool,
    module_fixups: Vec<Fixup<'t>>,
    /// The first body error in parse order, with its stamp. Once one is
    /// found, later bodies are skipped: only signatures and globals are
    /// still read, because their errors are reported first.
    body_err: Option<(u32, IrError)>,
    seq: u32,
    /// Parameter names of the last signature read, in order.
    params: Vec<Cow<'t, str>>,
    /// Pointer types by pointee index.
    ptrs: Vec<Option<TypeId>>,
    // Per function.
    /// `%name`s; keys borrow from the text, except the `argN` names of
    /// unnamed parameters.
    locals: HashMap<Cow<'t, str>, ValueRef>,
    labels: HashMap<&'t str, BlockId>,
    local_fixups: Vec<Fixup<'t>>,
    moves: Moves,
    /// Whether the current line parked a fix-up.
    parked: bool,
}

impl<'t> Reader<'t> {
    fn new(text: &'t str, m: Module) -> Self {
        Reader {
            text,
            pos: 0,
            line: 0,
            m,
            symbols: HashMap::default(),
            shadowed_globals: false,
            module_fixups: Vec::new(),
            body_err: None,
            seq: 0,
            params: Vec::new(),
            ptrs: Vec::new(),
            locals: HashMap::default(),
            labels: HashMap::default(),
            local_fixups: Vec::new(),
            moves: Moves::default(),
            parked: false,
        }
    }

    /// Reads the next line as `str::lines` splits it. Returns it whole and
    /// without its comment (a `;` starts one unless the line holds a `"`).
    /// One pass over the bytes finds the line end, the first `;` and any
    /// `"`.
    fn next_line(&mut self) -> Option<(&'t str, &'t str)> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if start == bytes.len() {
            return None;
        }
        let mut semi = None;
        let mut quote = false;
        let mut end = start;
        while let Some(&b) = bytes.get(end) {
            match b {
                b'\n' => break,
                b';' if semi.is_none() => semi = Some(end),
                b'"' => quote = true,
                _ => {}
            }
            end += 1;
        }
        self.pos = (end + 1).min(bytes.len());
        if end < bytes.len() && end > start && bytes[end - 1] == b'\r' {
            end -= 1;
        }
        self.line += 1;
        let raw = &self.text[start..end];
        let code = match semi {
            Some(p) if !quote => &self.text[start..p],
            _ => raw,
        };
        Some((raw, code))
    }

    fn stamp(&mut self) -> u32 {
        self.seq += 1;
        self.seq
    }

    fn read(mut self) -> IrResult<Module> {
        while let Some((raw, _)) = self.next_line() {
            let line = raw.trim();
            if let Some(rest) = line.strip_prefix("define ") {
                let fid = self.signature(rest, false)?;
                if self.body_err.is_none() {
                    self.body(fid);
                } else {
                    self.skip_body();
                }
            } else if let Some(rest) = line.strip_prefix("declare ") {
                self.signature(rest, true)?;
            } else if line.starts_with('@') {
                self.global(line)?;
            }
        }
        self.finish()
    }

    /// Resolves the `@` fix-ups and reports the first error in parse order.
    fn finish(mut self) -> IrResult<Module> {
        let limit = self.body_err.as_ref().map_or(u32::MAX, |(s, _)| *s);
        for f in self.module_fixups.iter().take_while(|f| f.seq < limit) {
            let Some(v) = self.symbols.get(f.name).and_then(|s| s.value()) else {
                return Err(f.error());
            };
            self.m.funcs[f.func].insts[f.inst].operands[f.op as usize] = v;
        }
        if let Some((_, e)) = self.body_err {
            return Err(e);
        }
        if self.shadowed_globals {
            let mut shadow = vec![None; self.m.globals.len()];
            for s in self.symbols.values() {
                if let (Some(f), Some(g)) = (s.func, s.global) {
                    shadow[g.index()] = Some(f);
                }
            }
            for f in &mut self.m.funcs {
                move_operands(f, |v| match v {
                    ValueRef::Global(g) => shadow[g.index()].map(ValueRef::Func),
                    _ => None,
                });
            }
        }
        Ok(self.m)
    }

    /// Parses a signature (the text after `define`/`declare`) and adds the
    /// function.
    fn signature(&mut self, rest: &'t str, external: bool) -> IrResult<FuncId> {
        let mut c = Cur::new(rest.trim_end_matches('{').trim(), self.line);
        let ret_ty = self.ty(&mut c)?;
        let name = c.parse_name(b'@')?;
        c.expect(b'(')?;
        let mut params = Vec::new();
        self.params.clear();
        let mut varargs = false;
        if !c.eat(b')') {
            loop {
                if c.eat_word("...") {
                    varargs = true;
                    c.expect(b')')?;
                    break;
                }
                let ty = self.ty(&mut c)?;
                let pname = if c.peek() == Some(b'%') {
                    Cow::Borrowed(c.parse_name(b'%')?)
                } else {
                    Cow::Owned(format!("arg{}", params.len()))
                };
                params.push(Param {
                    name: pname.to_string(),
                    ty,
                });
                self.params.push(pname);
                if c.eat(b')') {
                    break;
                }
                c.expect(b',')?;
            }
        }
        let mut f = if external {
            Function::external(name, ret_ty, params)
        } else {
            Function::new(name, ret_ty, params)
        };
        f.varargs = varargs;
        let fid = self.m.add_func(f);
        let sym = self.symbols.entry(name).or_default();
        if sym.func.is_none() {
            sym.func = Some(fid);
            self.shadowed_globals |= sym.global.is_some();
        }
        Ok(fid)
    }

    fn global(&mut self, line: &'t str) -> IrResult<()> {
        let lineno = self.line;
        let err = |m: &str| IrError::Parse {
            line: lineno,
            message: m.into(),
        };
        let (name, rest) = line[1..]
            .split_once('=')
            .ok_or_else(|| err("expected `=`"))?;
        let name = name.trim();
        let mut c = Cur::new(rest.trim(), lineno);
        let external = c.eat_word("external");
        let is_const = if c.eat_word("constant") {
            true
        } else if c.eat_word("global") {
            false
        } else {
            return Err(err("expected `global` or `constant`"));
        };
        let ty = self.ty(&mut c)?;
        let init = if external {
            GlobalInit::External
        } else if c.eat_word("zeroinitializer") {
            GlobalInit::Zero
        } else if c.peek() == Some(b'c') {
            c.pos += 1;
            GlobalInit::Bytes(unescape(c.parse_string()?))
        } else if c.rest().starts_with("0x") {
            GlobalInit::Float(f64::from_bits(c.parse_hex()?))
        } else {
            GlobalInit::Int(c.parse_int()?)
        };
        let gid = self.m.add_global(Global {
            name: name.to_string(),
            ty,
            init,
            is_const,
        });
        self.symbols
            .entry(name)
            .or_default()
            .global
            .get_or_insert(gid);
        Ok(())
    }

    /// Skips to the end of a body: the first line that trims to `}`.
    fn skip_body(&mut self) {
        while let Some((raw, _)) = self.next_line() {
            if raw.trim() == "}" {
                break;
            }
        }
    }

    /// Reads one function body straight into the function's arenas.
    fn body(&mut self, fid: FuncId) {
        reset(&mut self.locals);
        reset(&mut self.labels);
        self.local_fixups.clear();
        self.moves.clear();
        for (i, name) in self.params.drain(..).enumerate() {
            self.locals.insert(name, ValueRef::Arg(i as u32));
        }
        let mut block = None;
        let mut failed = false;
        while let Some((raw, code)) = self.next_line() {
            let line = code.trim();
            // The body ends at the first line that is `}` before comments
            // are cut (a line with a comment cut off is never `}`).
            if line == "}" && code.len() == raw.len() {
                break;
            }
            if line.is_empty() {
                continue;
            }
            if failed {
                self.collect_name(line);
                continue;
            }
            if let Some(label) = line.strip_suffix(':') {
                block = Some(self.label(fid, label));
                continue;
            }
            let Some(b) = block else {
                self.fail(IrError::Parse {
                    line: self.line,
                    message: "instruction before any block label".into(),
                });
                failed = true;
                self.collect_name(line);
                continue;
            };
            let mut c = Cur::new(line, self.line);
            self.parked = false;
            match self.inst(fid, b, &mut c) {
                Ok(id) => {
                    if self.parked {
                        self.place_fixups(fid, id);
                    }
                }
                Err(e) => {
                    self.fail(e);
                    failed = true;
                    self.collect_name(line);
                }
            }
        }
        self.end_body(fid);
    }

    /// Records a body error at the current point of the parse.
    fn fail(&mut self, e: IrError) {
        let s = self.stamp();
        if self.body_err.is_none() {
            self.body_err = Some((s, e));
        }
    }

    /// After a body error, notes what a line defines by the rule of a
    /// collect-then-parse reader (its pre-pass reads any `%name =` shape,
    /// even on a line that then fails), so that uses before the error
    /// resolve as they would have there.
    fn collect_name(&mut self, line: &'t str) {
        if let Some(label) = line.strip_suffix(':') {
            self.labels.entry(label).or_insert(BlockId::new(u32::MAX));
        } else if let Some((lhs, _)) = line.split_once('=') {
            let lhs = lhs.trim();
            if let Some(n) = lhs.strip_prefix('%') {
                if !line.starts_with("br ") && lhs.split_whitespace().count() == 1 {
                    self.locals.insert(Cow::Borrowed(n), SEEN);
                }
            }
        }
    }

    /// Patches the function's forward references, or records the first one
    /// that never resolves as the body error; then moves the uses of
    /// superseded definitions to the last ones.
    fn end_body(&mut self, fid: FuncId) {
        let limit = self.body_err.as_ref().map_or(u32::MAX, |(s, _)| *s);
        for f in self.local_fixups.iter().take_while(|f| f.seq < limit) {
            let v = match f.kind {
                RefKind::Local => self.locals.get(f.name).copied(),
                _ => self.labels.get(f.name).copied().map(ValueRef::Block),
            };
            match v {
                None => {
                    self.body_err = Some((f.seq, f.error()));
                    return;
                }
                Some(v) if limit == u32::MAX => {
                    self.m.funcs[fid].insts[f.inst].operands[f.op as usize] = v;
                }
                Some(_) => {}
            }
        }
        if limit == u32::MAX && !self.moves.is_empty() {
            self.moves.close();
            let moves = &self.moves;
            move_operands(&mut self.m.funcs[fid], |v| moves.target(v));
        }
    }

    /// Opens a block for `label`. A repeated label moves the earlier
    /// block's instructions, and at the end of the body its uses, to the
    /// new one: the last copy wins.
    fn label(&mut self, fid: FuncId, label: &'t str) -> BlockId {
        let f = &mut self.m.funcs[fid];
        let bid = f.add_block(label_to_name(label));
        if let Some(old) = self.labels.insert(label, bid) {
            f.blocks[bid].insts = std::mem::take(&mut f.blocks[old].insts);
            set_at(&mut self.moves.blocks, old.index(), bid);
        }
        bid
    }

    /// Binds `%name` to the instruction the current line will push.
    fn define_local(&mut self, fid: FuncId, name: &'t str) {
        let id = InstId::from_usize(self.m.funcs[fid].insts.len());
        match self.locals.insert(Cow::Borrowed(name), ValueRef::Inst(id)) {
            Some(ValueRef::Inst(old)) => set_at(&mut self.moves.insts, old.index(), id),
            Some(ValueRef::Arg(a)) => set_at(&mut self.moves.args, a as usize, id),
            _ => {}
        }
    }

    /// Parks a forward reference; the returned placeholder fills its
    /// operand until the name is known.
    fn park(&mut self, kind: RefKind, name: &'t str, line: usize) -> ValueRef {
        let fixup = Fixup {
            kind,
            name,
            seq: self.stamp(),
            line,
            func: FuncId::new(0),
            inst: InstId::new(0),
            op: 0,
        };
        self.parked = true;
        let code = if kind == RefKind::Symbol {
            self.module_fixups.push(fixup);
            fixup_code(self.module_fixups.len() - 1, true)
        } else {
            self.local_fixups.push(fixup);
            fixup_code(self.local_fixups.len() - 1, false)
        };
        ValueRef::Placeholder(code)
    }

    /// Records which operands of the pushed instruction `id` are parked.
    fn place_fixups(&mut self, fid: FuncId, id: InstId) {
        let inst = &self.m.funcs[fid].insts[id];
        for (op, v) in inst.operands.iter().enumerate() {
            if let ValueRef::Placeholder(code) = *v {
                let index = (code >> 1) as usize;
                let f = if code & 1 == 1 {
                    &mut self.module_fixups[index]
                } else {
                    &mut self.local_fixups[index]
                };
                f.func = fid;
                f.inst = id;
                f.op = op as u32;
            }
        }
    }

    fn local(&mut self, name: &'t str, line: usize) -> ValueRef {
        match self.locals.get(name) {
            Some(&v) => v,
            None => self.park(RefKind::Local, name, line),
        }
    }

    fn symbol(&mut self, name: &'t str, line: usize) -> ValueRef {
        match self.symbols.get(name).and_then(|s| s.value()) {
            Some(v) => v,
            None => self.park(RefKind::Symbol, name, line),
        }
    }

    fn block_named(&mut self, name: &'t str, line: usize) -> ValueRef {
        match self.labels.get(name) {
            Some(&b) => ValueRef::Block(b),
            None => self.park(RefKind::Block, name, line),
        }
    }

    /// Parses `label %name`.
    fn block(&mut self, c: &mut Cur<'t>) -> IrResult<ValueRef> {
        c.skip_ws();
        if !c.eat_word("label") {
            return Err(c.err("expected `label`"));
        }
        let name = c.parse_name(b'%')?;
        Ok(self.block_named(name, c.line))
    }

    /// Parses a value whose type is already known.
    fn value(&mut self, c: &mut Cur<'t>, ty: TypeId) -> IrResult<ValueRef> {
        match c.peek() {
            Some(b'%') => {
                let n = c.parse_name(b'%')?;
                Ok(self.local(n, c.line))
            }
            Some(b'@') => {
                let n = c.parse_name(b'@')?;
                Ok(self.symbol(n, c.line))
            }
            Some(ch) if ch.is_ascii_digit() || ch == b'-' => {
                let float = self.m.types.is_float(ty);
                if c.rest().starts_with("0x") {
                    let bits = c.parse_hex()?;
                    Ok(if float {
                        ValueRef::ConstFloat { ty, bits }
                    } else {
                        ValueRef::ConstInt {
                            ty,
                            value: bits as i64,
                        }
                    })
                } else {
                    let v = c.parse_int()?;
                    Ok(if float {
                        ValueRef::const_float(ty, v as f64)
                    } else {
                        ValueRef::ConstInt { ty, value: v }
                    })
                }
            }
            _ => {
                if c.eat_word("null") {
                    Ok(ValueRef::Null(ty))
                } else if c.eat_word("undef") {
                    Ok(ValueRef::Undef(ty))
                } else if c.eat_word("zeroinitializer") {
                    Ok(ValueRef::ZeroInit(ty))
                } else {
                    Err(c.err(format!("cannot parse value near `{}`", c.rest_short())))
                }
            }
        }
    }

    /// Parses `ty value`.
    fn tval(&mut self, c: &mut Cur<'t>) -> IrResult<(TypeId, ValueRef)> {
        let ty = self.ty(c)?;
        let v = self.value(c, ty)?;
        Ok((ty, v))
    }

    fn ty(&mut self, c: &mut Cur<'t>) -> IrResult<TypeId> {
        c.parse_type(&mut self.types())
    }

    fn types(&mut self) -> Types<'_> {
        Types {
            table: &mut self.m.types,
            ptrs: &mut self.ptrs,
        }
    }

    /// Parses one instruction line (`%name =` prefix included) and appends
    /// the instruction to `block`.
    #[allow(clippy::too_many_lines)]
    fn inst(&mut self, fid: FuncId, block: BlockId, c: &mut Cur<'t>) -> IrResult<InstId> {
        if c.byte() == Some(b'%') {
            let name = c.parse_name(b'%')?;
            c.expect(b'=')?;
            self.define_local(fid, name);
        }
        c.skip_ws();
        let tail = c.eat_word("tail");
        let word = c.parse_word()?;
        let Ok(op) = word.parse::<Opcode>() else {
            return Err(c.err(format!("unknown instruction `{word}`")));
        };
        let void = self.m.types.void();
        let mut inst = match op {
            Opcode::Ret => {
                if c.eat_word("void") {
                    Instruction::new(Opcode::Ret, void, OpVec::new())
                } else {
                    let (_, v) = self.tval(c)?;
                    Instruction::new(Opcode::Ret, void, [v])
                }
            }
            Opcode::Br => {
                c.skip_ws();
                if c.rest().starts_with("label") {
                    let b = self.block(c)?;
                    Instruction::new(Opcode::Br, void, [b])
                } else {
                    let (_, cond) = self.tval(c)?;
                    c.expect(b',')?;
                    let t = self.block(c)?;
                    c.expect(b',')?;
                    let f = self.block(c)?;
                    Instruction::new(Opcode::Br, void, [cond, t, f])
                }
            }
            Opcode::Switch => {
                let (_, v) = self.tval(c)?;
                c.expect(b',')?;
                let def = self.block(c)?;
                c.expect(b'[')?;
                let mut ops = OpVec::from([v, def]);
                loop {
                    c.skip_ws();
                    if c.eat(b']') {
                        break;
                    }
                    let (_, cv) = self.tval(c)?;
                    c.expect(b',')?;
                    let dest = self.block(c)?;
                    ops.push(cv);
                    ops.push(dest);
                }
                Instruction::new(Opcode::Switch, void, ops)
            }
            Opcode::IndirectBr => {
                let (_, v) = self.tval(c)?;
                c.expect(b',')?;
                c.expect(b'[')?;
                let mut ops = OpVec::from([v]);
                loop {
                    c.skip_ws();
                    if c.eat(b']') {
                        break;
                    }
                    ops.push(self.block(c)?);
                    c.eat(b',');
                }
                Instruction::new(Opcode::IndirectBr, void, ops)
            }
            Opcode::Unreachable => Instruction::new(Opcode::Unreachable, void, OpVec::new()),
            Opcode::Resume => {
                let (_, v) = self.tval(c)?;
                Instruction::new(Opcode::Resume, void, [v])
            }
            Opcode::Invoke | Opcode::CallBr | Opcode::Call => {
                let ret_ty = self.ty(c)?;
                c.skip_ws();
                let callee = if c.rest().starts_with("asm") {
                    c.eat_word("asm");
                    c.skip_ws();
                    c.expect(b'"')?;
                    let text = c.take_until(b'"')?;
                    c.expect(b',')?;
                    c.skip_ws();
                    c.expect(b'"')?;
                    let constraints = c.take_until(b'"')?;
                    if !c.eat_word("hwlevel") {
                        return Err(c.err("expected `hwlevel`"));
                    }
                    let hw_level = c.parse_int()? as u8;
                    let ty = self.m.types.func(ret_ty, vec![]);
                    ValueRef::InlineAsm(self.m.add_asm(InlineAsm {
                        text: text.to_string(),
                        constraints: constraints.to_string(),
                        ty,
                        hw_level,
                    }))
                } else if c.peek() == Some(b'@') {
                    let n = c.parse_name(b'@')?;
                    self.symbol(n, c.line)
                } else {
                    let n = c.parse_name(b'%')?;
                    self.local(n, c.line)
                };
                c.expect(b'(')?;
                let mut ops = OpVec::from([callee]);
                if !c.eat(b')') {
                    loop {
                        let (_, v) = self.tval(c)?;
                        ops.push(v);
                        if c.eat(b')') {
                            break;
                        }
                        c.expect(b',')?;
                    }
                }
                let attrs = InstAttrs {
                    num_args: ops.len() as u32 - 1,
                    tail_call: tail,
                    ..InstAttrs::default()
                };
                match op {
                    Opcode::Invoke => {
                        if !c.eat_word("to") {
                            return Err(c.err("expected `to`"));
                        }
                        let normal = self.block(c)?;
                        if !c.eat_word("unwind") {
                            return Err(c.err("expected `unwind`"));
                        }
                        let unwind = self.block(c)?;
                        ops.push(normal);
                        ops.push(unwind);
                    }
                    Opcode::CallBr => {
                        if !c.eat_word("to") {
                            return Err(c.err("expected `to`"));
                        }
                        let ft = self.block(c)?;
                        ops.push(ft);
                        c.expect(b'[')?;
                        loop {
                            c.skip_ws();
                            if c.eat(b']') {
                                break;
                            }
                            ops.push(self.block(c)?);
                            c.eat(b',');
                        }
                    }
                    _ => {}
                }
                let mut i = Instruction::new(op, ret_ty, ops);
                i.attrs = attrs;
                i
            }
            Opcode::FNeg => {
                let (ty, v) = self.tval(c)?;
                Instruction::new(Opcode::FNeg, ty, [v])
            }
            Opcode::Add
            | Opcode::Sub
            | Opcode::Mul
            | Opcode::UDiv
            | Opcode::SDiv
            | Opcode::URem
            | Opcode::SRem
            | Opcode::Shl
            | Opcode::LShr
            | Opcode::AShr
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::FAdd
            | Opcode::FSub
            | Opcode::FMul
            | Opcode::FDiv
            | Opcode::FRem => {
                let mut attrs = InstAttrs::default();
                loop {
                    if c.eat_word("nuw") {
                        attrs.nuw = true;
                    } else if c.eat_word("nsw") {
                        attrs.nsw = true;
                    } else if c.eat_word("exact") {
                        attrs.exact = true;
                    } else {
                        break;
                    }
                }
                let (ty, a) = self.tval(c)?;
                c.expect(b',')?;
                let b = self.value(c, ty)?;
                let mut i = Instruction::new(op, ty, [a, b]);
                i.attrs = attrs;
                i
            }
            Opcode::Alloca => {
                let ty = self.ty(c)?;
                let ptr = self.types().ptr(ty);
                let mut ops = OpVec::new();
                if c.eat(b',') {
                    let (_, n) = self.tval(c)?;
                    ops.push(n);
                }
                let mut i = Instruction::new(Opcode::Alloca, ptr, ops);
                i.attrs.alloc_ty = Some(ty);
                i
            }
            Opcode::Load => {
                let volatile = c.eat_word("volatile");
                let first = self.ty(c)?;
                let (result_ty, ptr) = if self.m.version.explicit_load_type_in_text() {
                    c.expect(b',')?;
                    let pty = self.ty(c)?;
                    (first, self.value(c, pty)?)
                } else {
                    // Old style: `first` is the pointer type.
                    let p = self.value(c, first)?;
                    let pointee = self
                        .m
                        .types
                        .pointee(first)
                        .ok_or_else(|| c.err("old-style load needs a pointer type"))?;
                    (pointee, p)
                };
                let mut i = Instruction::new(Opcode::Load, result_ty, [ptr]);
                i.attrs.volatile = volatile;
                i.attrs.gep_source_ty = Some(result_ty);
                i
            }
            Opcode::Store => {
                let volatile = c.eat_word("volatile");
                let (_, v) = self.tval(c)?;
                c.expect(b',')?;
                let (_, p) = self.tval(c)?;
                let mut i = Instruction::new(Opcode::Store, void, [v, p]);
                i.attrs.volatile = volatile;
                i
            }
            Opcode::GetElementPtr => {
                let inbounds = c.eat_word("inbounds");
                let (src_ty, base) = if self.m.version.explicit_load_type_in_text() {
                    let src = self.ty(c)?;
                    c.expect(b',')?;
                    let pty = self.ty(c)?;
                    (src, self.value(c, pty)?)
                } else {
                    let pty = self.ty(c)?;
                    let b = self.value(c, pty)?;
                    let src = self
                        .m
                        .types
                        .pointee(pty)
                        .ok_or_else(|| c.err("old-style gep needs a pointer type"))?;
                    (src, b)
                };
                let mut ops = OpVec::from([base]);
                while c.eat(b',') {
                    let (_, v) = self.tval(c)?;
                    ops.push(v);
                }
                let elem = infer::gep_elem(&self.m.types, src_ty, &ops[1..])
                    .map_err(|_| c.err("cannot compute gep result type"))?;
                let result = self.types().ptr(elem);
                let mut i = Instruction::new(Opcode::GetElementPtr, result, ops);
                i.attrs.gep_source_ty = Some(src_ty);
                i.attrs.inbounds = inbounds;
                i
            }
            Opcode::Fence => {
                let _ = c.parse_word();
                let mut i = Instruction::new(Opcode::Fence, void, OpVec::new());
                i.attrs.ordering = Some(AtomicOrdering::SeqCst);
                i
            }
            Opcode::CmpXchg => {
                let (_, p) = self.tval(c)?;
                c.expect(b',')?;
                let (vty, e) = self.tval(c)?;
                c.expect(b',')?;
                let (_, n) = self.tval(c)?;
                let i1 = self.m.types.i1();
                let rty = self.m.types.struct_(vec![vty, i1]);
                let mut i = Instruction::new(Opcode::CmpXchg, rty, [p, e, n]);
                i.attrs.ordering = Some(AtomicOrdering::SeqCst);
                i
            }
            Opcode::AtomicRmw => {
                let opw = c.parse_word()?;
                let rmw: RmwOp = opw
                    .parse()
                    .map_err(|()| c.err(format!("unknown rmw op `{opw}`")))?;
                let (_, p) = self.tval(c)?;
                c.expect(b',')?;
                let (vty, v) = self.tval(c)?;
                let mut i = Instruction::new(Opcode::AtomicRmw, vty, [p, v]);
                i.attrs.rmw_op = Some(rmw);
                i.attrs.ordering = Some(AtomicOrdering::SeqCst);
                i
            }
            Opcode::Trunc
            | Opcode::ZExt
            | Opcode::SExt
            | Opcode::FPTrunc
            | Opcode::FPExt
            | Opcode::FPToUI
            | Opcode::FPToSI
            | Opcode::UIToFP
            | Opcode::SIToFP
            | Opcode::PtrToInt
            | Opcode::IntToPtr
            | Opcode::BitCast
            | Opcode::AddrSpaceCast => {
                let (_, v) = self.tval(c)?;
                if !c.eat_word("to") {
                    return Err(c.err("expected `to`"));
                }
                let to = self.ty(c)?;
                Instruction::new(op, to, [v])
            }
            Opcode::ICmp => {
                let pw = c.parse_word()?;
                let pred: IntPredicate = pw
                    .parse()
                    .map_err(|()| c.err(format!("unknown predicate `{pw}`")))?;
                let (ty, a) = self.tval(c)?;
                c.expect(b',')?;
                let b = self.value(c, ty)?;
                let rty = infer::cmp_result(&mut self.m.types, ty);
                let mut i = Instruction::new(Opcode::ICmp, rty, [a, b]);
                i.attrs.int_pred = Some(pred);
                i
            }
            Opcode::FCmp => {
                let pw = c.parse_word()?;
                let pred: FloatPredicate = pw
                    .parse()
                    .map_err(|()| c.err(format!("unknown predicate `{pw}`")))?;
                let (ty, a) = self.tval(c)?;
                c.expect(b',')?;
                let b = self.value(c, ty)?;
                let rty = infer::cmp_result(&mut self.m.types, ty);
                let mut i = Instruction::new(Opcode::FCmp, rty, [a, b]);
                i.attrs.float_pred = Some(pred);
                i
            }
            Opcode::Phi => {
                let ty = self.ty(c)?;
                let mut ops = OpVec::new();
                loop {
                    c.skip_ws();
                    if !c.eat(b'[') {
                        break;
                    }
                    let v = self.value(c, ty)?;
                    c.expect(b',')?;
                    c.skip_ws();
                    let bl = c.parse_name(b'%')?;
                    let b = self.block_named(bl, c.line);
                    c.expect(b']')?;
                    ops.push(v);
                    ops.push(b);
                    if !c.eat(b',') {
                        break;
                    }
                }
                Instruction::new(Opcode::Phi, ty, ops)
            }
            Opcode::Select => {
                let (_, cond) = self.tval(c)?;
                c.expect(b',')?;
                let (ty, t) = self.tval(c)?;
                c.expect(b',')?;
                let (_, f) = self.tval(c)?;
                Instruction::new(Opcode::Select, ty, [cond, t, f])
            }
            Opcode::VAArg => {
                let (_, v) = self.tval(c)?;
                c.expect(b',')?;
                let ty = self.ty(c)?;
                Instruction::new(Opcode::VAArg, ty, [v])
            }
            Opcode::ExtractElement => {
                let (vty, v) = self.tval(c)?;
                c.expect(b',')?;
                let (_, i) = self.tval(c)?;
                let ety = match self.m.types.get(vty) {
                    Type::Vector { elem, .. } => *elem,
                    _ => vty,
                };
                Instruction::new(Opcode::ExtractElement, ety, [v, i])
            }
            Opcode::InsertElement => {
                let (vty, v) = self.tval(c)?;
                c.expect(b',')?;
                let (_, e) = self.tval(c)?;
                c.expect(b',')?;
                let (_, i) = self.tval(c)?;
                Instruction::new(Opcode::InsertElement, vty, [v, e, i])
            }
            Opcode::ShuffleVector => {
                let (vty, a) = self.tval(c)?;
                c.expect(b',')?;
                let (_, b) = self.tval(c)?;
                c.expect(b',')?;
                if !c.eat_word("mask") {
                    return Err(c.err("expected `mask`"));
                }
                c.expect(b'<')?;
                let mut mask = Vec::new();
                loop {
                    c.skip_ws();
                    if c.eat(b'>') {
                        break;
                    }
                    mask.push(c.parse_int()? as u64);
                    c.eat(b',');
                }
                let ety = match self.m.types.get(vty) {
                    Type::Vector { elem, .. } => *elem,
                    _ => vty,
                };
                let rty = self.m.types.vector(ety, mask.len() as u32);
                let mut i = Instruction::new(Opcode::ShuffleVector, rty, [a, b]);
                i.attrs.indices = mask;
                i
            }
            Opcode::ExtractValue => {
                let (_, agg) = self.tval(c)?;
                c.expect(b',')?;
                let idx = c.parse_index_list()?;
                c.expect(b':')?;
                let rty = self.ty(c)?;
                let mut i = Instruction::new(Opcode::ExtractValue, rty, [agg]);
                i.attrs.indices = idx;
                i
            }
            Opcode::InsertValue => {
                let (aty, agg) = self.tval(c)?;
                c.expect(b',')?;
                let (_, v) = self.tval(c)?;
                c.expect(b',')?;
                let idx = c.parse_index_list()?;
                let mut i = Instruction::new(Opcode::InsertValue, aty, [agg, v]);
                i.attrs.indices = idx;
                i
            }
            Opcode::LandingPad => {
                let ty = self.ty(c)?;
                let cleanup = c.eat_word("cleanup");
                let mut i = Instruction::new(Opcode::LandingPad, ty, OpVec::new());
                i.attrs.is_cleanup = cleanup;
                i
            }
            Opcode::Freeze => {
                let (ty, v) = self.tval(c)?;
                Instruction::new(Opcode::Freeze, ty, [v])
            }
            Opcode::CatchSwitch => {
                c.expect(b'[')?;
                let mut ops = OpVec::new();
                loop {
                    c.skip_ws();
                    if c.eat(b']') {
                        break;
                    }
                    ops.push(self.block(c)?);
                    c.eat(b',');
                }
                Instruction::new(Opcode::CatchSwitch, void, ops)
            }
            Opcode::CatchPad => {
                let tok = self.m.types.token();
                Instruction::new(Opcode::CatchPad, tok, OpVec::new())
            }
            Opcode::CatchRet => {
                let b = self.block(c)?;
                Instruction::new(Opcode::CatchRet, void, [b])
            }
            Opcode::CleanupPad => {
                let tok = self.m.types.token();
                Instruction::new(Opcode::CleanupPad, tok, OpVec::new())
            }
            Opcode::CleanupRet => {
                let b = self.block(c)?;
                Instruction::new(Opcode::CleanupRet, void, [b])
            }
        };
        inst.attrs.tail_call |= tail;
        Ok(self.m.funcs[fid].push_inst(block, inst))
    }
}

fn label_to_name(label: &str) -> String {
    // Writer emits `name.N`; recover the name part for cosmetics.
    match label.rsplit_once('.') {
        Some((name, idx)) if idx.bytes().all(|c| c.is_ascii_digit()) => name.to_string(),
        _ => label.to_string(),
    }
}

/// Decodes a `c"…"` initializer: `\XX` is a hex escape, any other
/// character stands for its low byte.
fn unescape(s: &str) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(s.len() / 3);
    let mut it = s.chars();
    while let Some(ch) = it.next() {
        if ch == '\\' {
            let h1 = it.next().unwrap_or('0');
            let h2 = it.next().unwrap_or('0');
            let b = u8::from_str_radix(&format!("{h1}{h2}"), 16).unwrap_or(0);
            bytes.push(b);
        } else {
            bytes.push(ch as u8);
        }
    }
    bytes
}

/// The module's type table plus the reader's memo of pointer types by
/// pointee, which skips the table's hash probe for the pointers every
/// typed-pointer line repeats.
struct Types<'a> {
    table: &'a mut TypeTable,
    ptrs: &'a mut Vec<Option<TypeId>>,
}

impl Types<'_> {
    fn ptr(&mut self, pointee: TypeId) -> TypeId {
        if let Some(Some(p)) = self.ptrs.get(pointee.index()) {
            return *p;
        }
        let p = self.table.ptr(pointee);
        if self.ptrs.len() <= pointee.index() {
            self.ptrs.resize(pointee.index() + 1, None);
        }
        self.ptrs[pointee.index()] = Some(p);
        p
    }
}

/// A byte cursor over one line. Every token boundary it tests is an ASCII
/// byte, so positions always fall on character boundaries.
struct Cur<'t> {
    s: &'t str,
    pos: usize,
    line: usize,
    /// Types being parsed at the current position: the innermost one and
    /// those around it.
    depth: u32,
}

/// Deepest type the reader accepts, in levels: `i32` has one, `i32*` and
/// `[2 x i32]` two, and each type around another adds one. The type
/// parser recurses once per bracketed level and the writer's type printer
/// once per level of any kind, so an unbounded request line
/// (`[1 x [1 x …` or `i32***…` some 20,000 levels deep) would overflow a
/// 2 MiB worker stack and abort the daemon.
const MAX_TYPE_DEPTH: u32 = 64;

impl<'t> Cur<'t> {
    fn new(s: &'t str, line: usize) -> Self {
        Cur {
            s,
            pos: 0,
            line,
            depth: 0,
        }
    }

    fn err(&self, m: impl Into<String>) -> IrError {
        IrError::Parse {
            line: self.line,
            message: m.into(),
        }
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn rest(&self) -> &'t str {
        &self.s[self.pos..]
    }

    fn rest_short(&self) -> String {
        self.rest().chars().take(24).collect()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    #[inline]
    fn eat(&mut self, ch: u8) -> bool {
        if self.peek() == Some(ch) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, ch: u8) -> IrResult<()> {
        if self.eat(ch) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}` near `{}`",
                char::from(ch),
                self.rest_short()
            )))
        }
    }

    /// Eats `word` if it is followed by a byte that cannot continue a
    /// keyword (`...` always matches).
    fn eat_word(&mut self, word: &str) -> bool {
        self.skip_ws();
        if !self.rest().starts_with(word) {
            return false;
        }
        let after = self.s.as_bytes().get(self.pos + word.len());
        let boundary = after.is_none_or(|&c| !is_word_byte(c) && c != b'.');
        if boundary || word == "..." {
            self.pos += word.len();
            return true;
        }
        false
    }

    /// Reads a keyword: `[a-zA-Z0-9_]+`.
    fn parse_word(&mut self) -> IrResult<&'t str> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.byte(), Some(c) if is_word_byte(c)) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.err(format!("expected word near `{}`", self.rest_short())))
        } else {
            Ok(&self.s[start..self.pos])
        }
    }

    /// Reads a `%`/`@` name (`sigil` selects which) and returns it without
    /// the sigil.
    fn parse_name(&mut self, sigil: u8) -> IrResult<&'t str> {
        self.skip_ws();
        if self.byte() != Some(sigil) {
            return Err(self.err(format!(
                "expected `{}` near `{}`",
                char::from(sigil),
                self.rest_short()
            )));
        }
        self.pos += 1;
        let start = self.pos;
        while matches!(self.byte(), Some(c) if is_name_byte(c)) {
            self.pos += 1;
        }
        Ok(&self.s[start..self.pos])
    }

    /// Reads a decimal `i64`, with an optional leading `-`.
    fn parse_int(&mut self) -> IrResult<i64> {
        self.skip_ws();
        let neg = self.byte() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        let start = self.pos;
        let mut v: Option<i64> = Some(0);
        while let Some(c @ b'0'..=b'9') = self.byte() {
            let d = i64::from(c - b'0');
            v = v.and_then(|v| v.checked_mul(10)).and_then(|v| {
                if neg {
                    v.checked_sub(d)
                } else {
                    v.checked_add(d)
                }
            });
            self.pos += 1;
        }
        match v {
            Some(v) if self.pos > start => Ok(v),
            _ => Err(self.err(format!("expected integer near `{}`", self.rest_short()))),
        }
    }

    /// Reads `0x` and a `u64` in hex.
    fn parse_hex(&mut self) -> IrResult<u64> {
        self.skip_ws();
        if !self.rest().starts_with("0x") {
            return Err(self.err("expected hex literal"));
        }
        self.pos += 2;
        let start = self.pos;
        let mut v: Option<u64> = Some(0);
        while let Some(d) = self.byte().and_then(|c| char::from(c).to_digit(16)) {
            v = v
                .and_then(|v| v.checked_mul(16))
                .and_then(|v| v.checked_add(u64::from(d)));
            self.pos += 1;
        }
        match v {
            Some(v) if self.pos > start => Ok(v),
            _ => Err(self.err("bad hex literal")),
        }
    }

    /// Reads `n, n, ...` constant indices (`extractvalue`/`insertvalue`).
    fn parse_index_list(&mut self) -> IrResult<Vec<u64>> {
        let mut idx = Vec::new();
        loop {
            idx.push(self.parse_int()? as u64);
            if !self.eat(b',') {
                return Ok(idx);
            }
        }
    }

    fn parse_string(&mut self) -> IrResult<&'t str> {
        self.expect(b'"')?;
        self.take_until(b'"')
    }

    fn take_until(&mut self, end: u8) -> IrResult<&'t str> {
        let start = self.pos;
        match self.s.as_bytes()[start..].iter().position(|&c| c == end) {
            Some(n) => {
                self.pos = start + n + 1;
                Ok(&self.s[start..start + n])
            }
            None => {
                self.pos = self.s.len();
                Err(self.err(format!("unterminated `{}`", char::from(end))))
            }
        }
    }

    /// Reads `iN` when it stands alone as a word (the common case).
    #[inline]
    fn int_type(&mut self) -> Option<u32> {
        let b = self.s.as_bytes();
        if b.get(self.pos) != Some(&b'i') {
            return None;
        }
        let mut i = self.pos + 1;
        let mut bits: u32 = 0;
        while let Some(&c @ b'0'..=b'9') = b.get(i) {
            bits = bits.checked_mul(10)?.checked_add(u32::from(c - b'0'))?;
            i += 1;
        }
        if i == self.pos + 1 || b.get(i).is_some_and(|&c| is_word_byte(c)) {
            return None;
        }
        self.pos = i;
        Some(bits)
    }

    fn parse_type(&mut self, t: &mut Types<'_>) -> IrResult<TypeId> {
        Ok(self.leveled_type(t)?.0)
    }

    /// Parses a type and returns it with its levels.
    fn leveled_type(&mut self, t: &mut Types<'_>) -> IrResult<(TypeId, u32)> {
        self.depth += 1;
        let ty = self.checked_levels(1).and_then(|_| self.nested_type(t));
        self.depth -= 1;
        ty
    }

    /// Fails if a type of `levels` at the current position would make the
    /// whole type deeper than [`MAX_TYPE_DEPTH`]: each type around it adds
    /// at least a level.
    fn checked_levels(&self, levels: u32) -> IrResult<u32> {
        if self.depth - 1 + levels > MAX_TYPE_DEPTH {
            return Err(self.err(format!("type nested deeper than {MAX_TYPE_DEPTH} levels")));
        }
        Ok(levels)
    }

    fn nested_type(&mut self, t: &mut Types<'_>) -> IrResult<(TypeId, u32)> {
        self.skip_ws();
        let (mut base, mut levels) = if let Some(bits) = self.int_type() {
            (t.table.int(bits), 1)
        } else if self.eat(b'[') {
            let n = self.parse_int()? as u64;
            if !self.eat_word("x") {
                return Err(self.err("expected `x` in array type"));
            }
            let (elem, levels) = self.leveled_type(t)?;
            self.expect(b']')?;
            (t.table.array(elem, n), levels + 1)
        } else if self.eat(b'<') {
            let n = self.parse_int()? as u32;
            if !self.eat_word("x") {
                return Err(self.err("expected `x` in vector type"));
            }
            let (elem, levels) = self.leveled_type(t)?;
            self.expect(b'>')?;
            (t.table.vector(elem, n), levels + 1)
        } else if self.eat(b'{') {
            let mut fields = Vec::new();
            let mut levels = 0;
            if !self.eat(b'}') {
                loop {
                    let (field, l) = self.leveled_type(t)?;
                    fields.push(field);
                    levels = levels.max(l);
                    if self.eat(b'}') {
                        break;
                    }
                    self.expect(b',')?;
                }
            }
            (t.table.struct_(fields), levels + 1)
        } else {
            match self.parse_word()? {
                "void" => (t.table.void(), 1),
                "float" => (t.table.f32(), 1),
                "double" => (t.table.f64(), 1),
                "label" => (t.table.label(), 1),
                "token" => (t.table.token(), 1),
                "ptr" => {
                    // Opaque pointer: nominal i8 pointee.
                    let i8t = t.table.i8();
                    if self.eat_word("addrspace") {
                        self.expect(b'(')?;
                        let sp = self.parse_int()? as u32;
                        self.expect(b')')?;
                        return Ok((t.table.ptr_in(i8t, sp), self.checked_levels(2)?));
                    }
                    (t.ptr(i8t), 2)
                }
                other => match int_width(other) {
                    Some(bits) => (t.table.int(bits), 1),
                    None => return Err(self.err(format!("unknown type `{other}`"))),
                },
            }
        };
        // Postfix function types and pointers (typed syntax): `i32 (i32)*`,
        // `i32*`, `i32 addrspace(3)*`. Each adds a level.
        loop {
            levels = self.checked_levels(levels)?;
            self.skip_ws();
            match self.byte() {
                Some(b'(') => {
                    self.pos += 1;
                    let mut params = Vec::new();
                    let mut varargs = false;
                    if !self.eat(b')') {
                        loop {
                            if self.eat_word("...") {
                                varargs = true;
                                self.expect(b')')?;
                                break;
                            }
                            let (param, l) = self.leveled_type(t)?;
                            params.push(param);
                            levels = levels.max(l);
                            if self.eat(b')') {
                                break;
                            }
                            self.expect(b',')?;
                        }
                    }
                    base = if varargs {
                        t.table.func_varargs(base, params)
                    } else {
                        t.table.func(base, params)
                    };
                }
                Some(b'*') => {
                    self.pos += 1;
                    base = t.ptr(base);
                }
                Some(b'a') if self.rest().starts_with("addrspace") => {
                    self.eat_word("addrspace");
                    self.expect(b'(')?;
                    let sp = self.parse_int()? as u32;
                    self.expect(b')')?;
                    self.expect(b'*')?;
                    base = t.table.ptr_in(base, sp);
                }
                _ => return Ok((base, levels)),
            }
            levels += 1;
        }
    }
}

/// The width of an `iN` type word (`N` a `u32` in decimal).
fn int_width(word: &str) -> Option<u32> {
    word.strip_prefix('i')?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::interp::Machine;
    use crate::verify::verify_module;
    use crate::write::write_module;

    fn roundtrip(m: &Module) -> Module {
        let text = write_module(m);
        parse_module(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"))
    }

    #[test]
    fn parses_simple_program() {
        let text = "\
; ModuleID = 'hello'
; IR version 13.0

define i32 @main() {
entry:
  %x = add i32 40, 2
  ret i32 %x
}
";
        let m = parse_module(text).unwrap();
        assert_eq!(m.version, IrVersion::V13_0);
        verify_module(&m).unwrap();
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(42));
    }

    #[test]
    fn parses_old_style_load() {
        let text = "\
; IR version 3.6

define i32 @main() {
entry:
  %p = alloca i32
  store i32 9, i32* %p
  %v = load i32* %p
  ret i32 %v
}
";
        let m = parse_module(text).unwrap();
        verify_module(&m).unwrap();
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(9));
    }

    #[test]
    fn roundtrip_preserves_execution() {
        let mut m = Module::new("rt", IrVersion::V13_0);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.add_block("entry");
        let t = b.add_block("then");
        let e2 = b.add_block("else");
        b.position_at_end(entry);
        let c = b.icmp(
            IntPredicate::Slt,
            ValueRef::const_int(i32t, 3),
            ValueRef::const_int(i32t, 5),
        );
        b.cond_br(c, t, e2);
        b.position_at_end(t);
        b.ret(Some(ValueRef::const_int(i32t, 1)));
        b.position_at_end(e2);
        b.ret(Some(ValueRef::const_int(i32t, 2)));
        let before = Machine::new(&m).run_main().unwrap().return_int();
        let m2 = roundtrip(&m);
        verify_module(&m2).unwrap();
        let after = Machine::new(&m2).run_main().unwrap().return_int();
        assert_eq!(before, after);
    }

    #[test]
    fn roundtrip_is_textually_idempotent() {
        let mut m = Module::new("idem", IrVersion::V3_6);
        let i32t = m.types.i32();
        let f = FuncBuilder::define(&mut m, "main", i32t, vec![]);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.add_block("entry");
        b.position_at_end(entry);
        let p = b.alloca(i32t);
        b.store(ValueRef::const_int(i32t, 1), p);
        let v = b.load(i32t, p);
        b.ret(Some(v));
        let t1 = write_module(&m);
        let m2 = parse_module(&t1).unwrap();
        let t2 = write_module(&m2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn parses_globals_and_calls() {
        let text = "\
; IR version 13.0

@counter = global i32 7

declare i8* @malloc(i64 %n)

define i32 @main() {
entry:
  %v = load i32, i32* @counter
  ret i32 %v
}
";
        let m = parse_module(text).unwrap();
        assert_eq!(m.globals.len(), 1);
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(7));
    }

    #[test]
    fn parses_phi_and_branches() {
        let text = "\
; IR version 13.0

define i32 @main() {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %n, %loop ]
  %n = add i32 %i, 1
  %c = icmp slt i32 %n, 5
  br i1 %c, label %loop, label %done
done:
  ret i32 %n
}
";
        let m = parse_module(text).unwrap();
        verify_module(&m).unwrap();
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(5));
    }

    #[test]
    fn missing_version_header_is_an_error() {
        let e = parse_module("define i32 @main() {\n}\n").unwrap_err();
        assert!(e.to_string().contains("IR version"));
    }

    #[test]
    fn unknown_instruction_reports_line() {
        let text = "; IR version 13.0\n\ndefine i32 @main() {\nentry:\n  frobnicate i32 1\n}\n";
        let e = parse_module(text).unwrap_err();
        match e {
            IrError::Parse { line, .. } => assert_eq!(line, 5),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn parses_switch() {
        let text = "\
; IR version 13.0

define i32 @main() {
entry:
  switch i32 2, label %d [ i32 1, label %a  i32 2, label %b ]
a:
  ret i32 10
b:
  ret i32 20
d:
  ret i32 30
}
";
        let m = parse_module(text).unwrap();
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(20));
    }

    #[test]
    fn parses_gep_with_struct() {
        let text = "\
; IR version 13.0

define i32 @main() {
entry:
  %s = alloca { i32, i64 }
  %p = getelementptr { i32, i64 }, { i32, i64 }* %s, i64 0, i32 0
  store i32 77, i32* %p
  %v = load i32, i32* %p
  ret i32 %v
}
";
        let m = parse_module(text).unwrap();
        verify_module(&m).unwrap();
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(77));
    }

    #[test]
    fn names_take_llvms_bare_characters() {
        let text = "\
; IR version 13.0
@pkg-config_g = global i32 4
define i32 @pkg-config_helper(i32 %a-b) {
entry:
  %x$1 = add i32 %a-b, 1
  ret i32 %x$1
}
define i32 @main() {
entry:
  %v = load i32, i32* @pkg-config_g
  %r = call i32 @pkg-config_helper(i32 %v)
  ret i32 %r
}
";
        let m = parse_module(text).unwrap();
        verify_module(&m).unwrap();
        assert_eq!(Machine::new(&m).run_main().unwrap().return_int(), Some(5));
        assert_eq!(write_module(&roundtrip(&m)), write_module(&m));
    }

    #[test]
    fn deep_type_nesting_is_an_error_not_a_stack_overflow() {
        let arrays = |n: usize| {
            format!(
                "; IR version 13.0\ndeclare void @f({}i32{} %a)\n",
                "[1 x ".repeat(n),
                "]".repeat(n)
            )
        };
        let pointers = |n: usize| {
            format!(
                "; IR version 13.0\ndefine void @main() {{\nentry:\n  %p = alloca i32{}\n  ret void\n}}\n",
                "*".repeat(n)
            )
        };
        let fn_types = |n: usize| {
            format!(
                "; IR version 13.0\ndeclare void @f(i32{} %a)\n",
                "()".repeat(n)
            )
        };
        let deep = vec![
            (arrays(100_000), 2),
            (pointers(100_000), 4),
            (fn_types(100_000), 2),
            (arrays(64), 2),
            (pointers(64), 4),
            (fn_types(64), 2),
        ];
        let at_cap = vec![arrays(63), pointers(63), fn_types(63)];
        // Run on a small stack, as a worker thread would be.
        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || {
                for (text, want_line) in &deep {
                    match parse_module(text) {
                        Err(IrError::Parse { line, message }) if line == *want_line => {
                            assert!(message.contains("nested"), "{message}");
                        }
                        other => panic!("unexpected verdict {:?}", other.map(|_| ())),
                    }
                }
                // A type at the cap also prints at a typed-pointer version,
                // where the printer recurses once per level.
                for text in &at_cap {
                    let mut m = parse_module(text).unwrap();
                    m.version = IrVersion::V3_6;
                    assert!(write_module(&m).contains("; IR version 3.6"));
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn lines_split_as_str_lines_does() {
        for text in [
            "a\r\nb\r",
            "a\n\nb\n",
            "\r\n",
            "x;y\"z\n;w",
            "a\rb",
            "a;b;c\nd",
        ] {
            let mut r = Reader::new(text, Module::new("m", IrVersion::V13_0));
            let mut got = Vec::new();
            while let Some((raw, code)) = r.next_line() {
                let want = match raw.find(';') {
                    Some(p) if !raw.contains('"') => &raw[..p],
                    _ => raw,
                };
                assert_eq!(code, want, "{text:?}");
                got.push(raw);
            }
            assert_eq!(got, text.lines().collect::<Vec<_>>(), "{text:?}");
        }
    }

    /// Uses read before a later definition took their name over move to it
    /// in one pass per function (and one per module for shadowed globals),
    /// however often a name is taken over.
    #[test]
    fn superseded_definitions_move_their_uses_in_one_pass() {
        const N: usize = 100_000;
        let mut labels = String::from("; IR version 13.0\ndefine void @main() {\n");
        for _ in 0..N {
            labels.push_str("l:\n  br label %l\n");
        }
        labels.push_str("}\n");
        let mut locals = String::from("; IR version 13.0\ndefine i32 @main(i32 %x) {\nentry:\n");
        for _ in 0..N {
            locals.push_str("  %x = add i32 %x, 1\n");
        }
        locals.push_str("  ret i32 %x\n}\n");
        let mut globals = String::from("; IR version 13.0\n");
        for i in 0..N {
            globals.push_str(&format!("@g{i} = global i32 0\n"));
        }
        globals.push_str("define void @main() {\nentry:\n");
        for i in 0..N {
            globals.push_str(&format!("  store i32 1, i32* @g{i}\n"));
        }
        globals.push_str("  ret void\n}\n");
        for i in 0..N {
            globals.push_str(&format!("declare void @g{i}()\n"));
        }
        for text in [labels, locals, globals] {
            MOVE_VISITS.with(|n| n.set(0));
            let m = parse_module(&text).unwrap();
            let visits = MOVE_VISITS.with(std::cell::Cell::get);
            let main = m.funcs.iter().find(|f| f.name == "main").unwrap();
            let operands: usize = main.insts.iter().map(|i| i.operands.len()).sum();
            assert!(operands >= N, "{operands}");
            assert!(
                visits <= 2 * operands,
                "{visits} visits for {operands} operands"
            );
            // Every use names the last definition.
            let last_block = ValueRef::Block(BlockId::from_usize(main.blocks.len() - 1));
            let last_inst = ValueRef::Inst(InstId::from_usize(main.insts.len() - 2));
            for inst in &main.insts {
                for op in &inst.operands {
                    match op {
                        ValueRef::Block(_) => assert_eq!(*op, last_block),
                        ValueRef::Inst(_) => assert_eq!(*op, last_inst),
                        ValueRef::Arg(_) | ValueRef::Global(_) => panic!("stale use {op:?}"),
                        _ => {}
                    }
                }
            }
        }
    }
}
