//! The WIR reader.
//!
//! Parses the canonical text form produced by [`crate::write`]. Indentation
//! is not significant (every line is trimmed), so hand-written modules
//! parse too; the writer then canonicalizes them. Symbolic call targets
//! (`call $name`, pre-3.0) may reference functions declared later in the
//! module, so call resolution is a second pass.
//!
//! After the `;; wir <version>` header, any line starting with `;;` is a
//! comment and is skipped wherever it appears. Regression artifacts rely on
//! this: their `;; difftest-*:` metadata rides inside a file
//! [`parse_module`] accepts unchanged (the same contract the Siro dialect's
//! `; difftest-*:` artifact comments have).

use crate::inst::{WBin, WCmp, WTy, WirInst};
use crate::module::{WirFunc, WirModule};
use crate::version::WirVersion;

/// A parse failure, with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirParseError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for WirParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for WirParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, WirParseError> {
    Err(WirParseError {
        line,
        message: message.into(),
    })
}

/// Whether `text` looks like WIR (starts with the `;; wir` header).
///
/// Used by dialect sniffing: Siro modules start with `; IR version`.
pub fn looks_like_wir(text: &str) -> bool {
    text.trim_start().starts_with(";; wir ")
}

/// Parses the canonical text form back into a [`WirModule`].
pub fn parse_module(text: &str) -> Result<WirModule, WirParseError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));

    // Header: `;; wir X.Y`.
    let (ln, header) = lines
        .by_ref()
        .find(|(_, l)| !l.is_empty())
        .ok_or(WirParseError {
            line: 1,
            message: "empty input".into(),
        })?;
    let Some(version) = header.strip_prefix(";; wir ") else {
        return err(
            ln,
            format!("expected `;; wir <version>` header, got `{header}`"),
        );
    };
    let version = match version.split_once('.') {
        Some((maj, min)) => match (maj.parse::<u16>(), min.parse::<u16>()) {
            (Ok(maj), Ok(min)) => WirVersion::new(maj, min),
            _ => return err(ln, format!("bad version number `{version}`")),
        },
        None => return err(ln, format!("bad version `{version}`")),
    };
    if !WirVersion::CATALOG.contains(&version) {
        return err(ln, format!("unknown WIR version {version}"));
    }

    // Module line: `(module $name)`.
    let (ln, module_line) = lines
        .by_ref()
        .find(|(_, l)| !l.is_empty() && !l.starts_with(";;"))
        .ok_or(WirParseError {
            line: ln,
            message: "missing `(module ...)` line".into(),
        })?;
    let name = module_line
        .strip_prefix("(module $")
        .and_then(|r| r.strip_suffix(')'))
        .ok_or(WirParseError {
            line: ln,
            message: format!("expected `(module $name)`, got `{module_line}`"),
        })?;
    let mut m = WirModule::new(name, version);

    // Functions. Symbolic calls are recorded as (func_idx, inst_ptr, name)
    // fixups and resolved after all functions are known.
    let mut fixups: Vec<(usize, usize, String, usize)> = Vec::new();
    let mut cur: Option<WirFunc> = None;
    for (ln, line) in lines {
        if line.is_empty() || line.starts_with(";;") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("(func $") {
            if cur.is_some() {
                return err(ln, "nested `(func` — missing closing `)`?");
            }
            cur = Some(parse_func_header(ln, rest)?);
            continue;
        }
        if line == ")" {
            let Some(f) = cur.take() else {
                return err(ln, format!("instruction outside a function: `{line}`"));
            };
            m.funcs.push(f);
            continue;
        }
        let Some(f) = cur.as_mut() else {
            return err(ln, format!("instruction outside a function: `{line}`"));
        };
        if let Some(rest) = line.strip_prefix("(local") {
            let rest = rest.strip_suffix(')').ok_or(WirParseError {
                line: ln,
                message: "unterminated `(local ...`".into(),
            })?;
            if !f.body.is_empty() || !f.locals.is_empty() {
                return err(ln, "`(local ...)` must precede the body");
            }
            for tok in rest.split_whitespace() {
                let ty = WTy::parse(tok).ok_or_else(|| WirParseError {
                    line: ln,
                    message: format!("bad local type `{tok}`"),
                })?;
                f.locals.push(ty);
            }
            continue;
        }
        let inst = parse_inst(ln, line, version, &mut |name| {
            // Symbolic call: remember the site for the resolution pass.
            fixups.push((m.funcs.len(), 0, name.to_string(), ln));
        })?;
        let p = f.body.alloc(inst);
        if let Some(last) = fixups.last_mut() {
            if last.0 == m.funcs.len() && last.1 == 0 && last.3 == ln {
                last.1 = p.index();
            }
        }
    }
    if cur.is_some() {
        return err(usize::MAX, "unterminated function — missing `)`");
    }

    for (func_idx, inst_idx, name, ln) in fixups {
        let target = m.func_index(&name).ok_or(WirParseError {
            line: ln,
            message: format!("call to unknown function `${name}`"),
        })?;
        m.funcs[func_idx].body[inst_idx] = WirInst::Call(target);
    }
    Ok(m)
}

fn parse_func_header(ln: usize, rest: &str) -> Result<WirFunc, WirParseError> {
    // `name (param i32 i64) (result i32)` — groups are optional.
    let name_end = rest.find([' ', ')']).unwrap_or(rest.len());
    let name = &rest[..name_end];
    if name.is_empty() {
        return err(ln, "function name missing after `$`");
    }
    let mut f = WirFunc::new(name, Vec::new(), None);
    let mut tail = rest[name_end..].trim();
    while !tail.is_empty() {
        if let Some(group) = tail.strip_prefix("(param") {
            let end = group.find(')').ok_or(WirParseError {
                line: ln,
                message: "unterminated `(param`".into(),
            })?;
            for tok in group[..end].split_whitespace() {
                f.params.push(WTy::parse(tok).ok_or_else(|| WirParseError {
                    line: ln,
                    message: format!("bad param type `{tok}`"),
                })?);
            }
            tail = group[end + 1..].trim();
        } else if let Some(group) = tail.strip_prefix("(result") {
            let end = group.find(')').ok_or(WirParseError {
                line: ln,
                message: "unterminated `(result`".into(),
            })?;
            let toks: Vec<&str> = group[..end].split_whitespace().collect();
            if toks.len() != 1 {
                return err(ln, "exactly one result type expected");
            }
            f.result = Some(WTy::parse(toks[0]).ok_or_else(|| WirParseError {
                line: ln,
                message: format!("bad result type `{}`", toks[0]),
            })?);
            tail = group[end + 1..].trim();
        } else {
            return err(ln, format!("unexpected in function header: `{tail}`"));
        }
    }
    Ok(f)
}

fn parse_inst(
    ln: usize,
    line: &str,
    version: WirVersion,
    symbolic_call: &mut dyn FnMut(&str),
) -> Result<WirInst, WirParseError> {
    let mut toks = line.split_whitespace();
    let Some(head) = toks.next() else {
        return err(ln, "empty instruction");
    };
    let int_arg = |toks: &mut dyn Iterator<Item = &str>| -> Result<i64, WirParseError> {
        let tok = toks.next().ok_or(WirParseError {
            line: ln,
            message: format!("`{head}` needs an argument"),
        })?;
        tok.parse().map_err(|_| WirParseError {
            line: ln,
            message: format!("bad integer `{tok}`"),
        })
    };
    let inst = match head {
        "select" => {
            require(ln, version, crate::inst::WKind::Select)?;
            WirInst::Select
        }
        "drop" => WirInst::Drop,
        "nop" => WirInst::Nop,
        "block" => WirInst::Block,
        "loop" => WirInst::Loop,
        "end" => WirInst::End,
        "return" => WirInst::Return,
        "br" => WirInst::Br(int_arg(&mut toks)? as u32),
        "br_if" => WirInst::BrIf(int_arg(&mut toks)? as u32),
        "br_table" => {
            require(ln, version, crate::inst::WKind::BrTable)?;
            let targets: Result<Vec<u32>, _> = line
                .split_whitespace()
                .skip(1)
                .map(|t| {
                    t.parse::<u32>().map_err(|_| WirParseError {
                        line: ln,
                        message: format!("bad br_table target `{t}`"),
                    })
                })
                .collect();
            let targets = targets?;
            if targets.is_empty() {
                return err(ln, "br_table needs at least a default target");
            }
            return Ok(WirInst::BrTable(targets));
        }
        "call" => {
            let tok = toks.next().ok_or(WirParseError {
                line: ln,
                message: "`call` needs a target".into(),
            })?;
            if let Some(idx) = tok.strip_prefix("@f") {
                if !version.opaque_func_refs_in_text() {
                    return err(ln, format!("opaque `call {tok}` requires wir 3.0+"));
                }
                WirInst::Call(idx.parse().map_err(|_| WirParseError {
                    line: ln,
                    message: format!("bad function reference `{tok}`"),
                })?)
            } else if let Some(name) = tok.strip_prefix('$') {
                if version.opaque_func_refs_in_text() {
                    return err(ln, format!("symbolic `call {tok}` removed in wir 3.0"));
                }
                symbolic_call(name);
                WirInst::Call(u32::MAX) // patched by the resolution pass
            } else {
                return err(ln, format!("bad call target `{tok}`"));
            }
        }
        "local.get" => WirInst::LocalGet(int_arg(&mut toks)? as u32),
        "local.set" => WirInst::LocalSet(int_arg(&mut toks)? as u32),
        "local.tee" => {
            require(ln, version, crate::inst::WKind::LocalTee)?;
            WirInst::LocalTee(int_arg(&mut toks)? as u32)
        }
        _ => {
            // Typed forms: `i32.const 5`, `i64.add`, `i32.lt_s`, `i32.eqz`.
            let Some((ty, op)) = head.split_once('.') else {
                return err(ln, format!("unknown instruction `{head}`"));
            };
            let ty = WTy::parse(ty).ok_or_else(|| WirParseError {
                line: ln,
                message: format!("unknown type prefix in `{head}`"),
            })?;
            match op {
                "const" => WirInst::Const(ty, int_arg(&mut toks)?),
                "eqz" => WirInst::Eqz(ty),
                _ => {
                    if let Some(b) = WBin::parse(op) {
                        WirInst::Binop(ty, b)
                    } else if let Some(c) = WCmp::parse(op) {
                        WirInst::Cmp(ty, c)
                    } else {
                        return err(ln, format!("unknown instruction `{head}`"));
                    }
                }
            }
        }
    };
    if toks.next().is_some() {
        return err(ln, format!("trailing tokens after `{head}`"));
    }
    Ok(inst)
}

fn require(ln: usize, version: WirVersion, kind: crate::inst::WKind) -> Result<(), WirParseError> {
    if version.supports(kind) {
        Ok(())
    } else {
        err(ln, format!("`{kind}` is not available in wir {version}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::write_module;

    #[test]
    fn minimal_module_round_trips() {
        let text =
            ";; wir 1.0\n(module $demo)\n(func $main (result i32)\n  i32.const 42\n  return\n)\n";
        let m = parse_module(text).expect("parse");
        assert_eq!(m.version, WirVersion::W1_0);
        assert_eq!(m.funcs.len(), 1);
        assert_eq!(write_module(&m), text);
    }

    #[test]
    fn symbolic_forward_calls_resolve() {
        let text = ";; wir 1.0\n(module $m)\n(func $main (result i32)\n  call $late\n  return\n)\n(func $late (result i32)\n  i32.const 7\n  return\n)\n";
        let m = parse_module(text).expect("parse");
        assert_eq!(m.funcs[0].body[0], WirInst::Call(1));
        assert_eq!(write_module(&m), text);
    }

    #[test]
    fn version_gates_are_enforced_at_parse() {
        let select_v1 = ";; wir 1.0\n(module $m)\n(func $main\n  select\n)\n";
        assert!(parse_module(select_v1).is_err());
        let opaque_v1 = ";; wir 1.0\n(module $m)\n(func $main\n  call @f0\n)\n";
        assert!(parse_module(opaque_v1).is_err());
        let symbolic_v3 = ";; wir 3.0\n(module $m)\n(func $main\n  call $main\n)\n";
        assert!(parse_module(symbolic_v3).is_err());
    }

    #[test]
    fn comment_lines_after_the_header_are_skipped() {
        let text = ";; wir 1.0\n;; leading note\n(module $m)\n(func $main (result i32)\n  ;; inside a body\n  i32.const 3\n  return\n)\n;; difftest-detail: trailing metadata\n";
        let m = parse_module(text).expect("comments must not break parsing");
        assert_eq!(m.funcs[0].body.len(), 2);
        // The writer canonicalizes the comments away.
        assert!(!write_module(&m).contains("note"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = ";; wir 1.0\n(module $m)\n(func $main\n  bogus.op\n)\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("bogus.op"), "{e}");
    }
}
