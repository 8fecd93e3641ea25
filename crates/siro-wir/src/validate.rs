//! The WIR validator: typed stack discipline and structured control flow.
//!
//! Validation walks each body once with a typed operand stack and a
//! control-frame stack, wasm-style but simplified: blocks and loops carry
//! no parameters or results (they are height-neutral), and dead code is
//! outlawed instead of specially typed — an unconditional terminator
//! (`br`, `br_table`, `return`) must be the last instruction of its
//! enclosing region. The difftest mutators and the generator respect that
//! rule by construction, which keeps the checker a simple linear pass.

use crate::inst::{WKind, WTy, WirInst};
use crate::module::{WirFunc, WirModule};

/// A validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirVerifyError {
    /// Function the error is in.
    pub func: String,
    /// Body index of the offending instruction (or `body.len()` for
    /// end-of-body errors).
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for WirVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "func ${}, inst {}: {}", self.func, self.at, self.message)
    }
}

impl std::error::Error for WirVerifyError {}

struct Frame {
    entry_height: usize,
}

/// Pops one value, enforcing the optional expected type and the innermost
/// frame's entry height as a floor (wasm's "a block cannot consume values
/// it did not push" rule).
fn pop(stack: &mut Vec<WTy>, want: Option<WTy>, floor: usize, kind: WKind) -> Result<WTy, String> {
    if stack.len() <= floor {
        return Err(format!("stack underflow at `{kind}`"));
    }
    let got = stack.pop().expect("len checked");
    if let Some(want) = want {
        if got != want {
            return Err(format!("type mismatch at `{kind}`: want {want}, got {got}"));
        }
    }
    Ok(got)
}

/// Validates a whole module: per-function stack discipline plus module
/// invariants (version gating, unique names, resolvable calls).
pub fn verify_module(m: &WirModule) -> Result<(), WirVerifyError> {
    for (i, f) in m.funcs.iter().enumerate() {
        if m.funcs[..i].iter().any(|g| g.name == f.name) {
            return Err(WirVerifyError {
                func: f.name.clone(),
                at: 0,
                message: "duplicate function name".into(),
            });
        }
        verify_func(m, f)?;
    }
    Ok(())
}

fn verify_func(m: &WirModule, f: &WirFunc) -> Result<(), WirVerifyError> {
    let fail = |at: usize, message: String| WirVerifyError {
        func: f.name.clone(),
        at,
        message,
    };
    let mut stack: Vec<WTy> = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    // Set after an unconditional terminator; only `end` (or end-of-body)
    // may follow, and it resets the stack to the frame's entry height.
    let mut terminated = false;

    for (at, inst) in f.body.iter().enumerate() {
        if !m.version.supports(inst.kind()) {
            return Err(fail(
                at,
                format!("`{}` is not available in wir {}", inst.kind(), m.version),
            ));
        }
        if terminated && !matches!(inst, WirInst::End) {
            return Err(fail(
                at,
                format!("unreachable `{}` after a terminator", inst.kind()),
            ));
        }
        let kind = inst.kind();
        let floor = frames.last().map_or(0, |fr| fr.entry_height);
        macro_rules! pop {
            ($want:expr) => {
                pop(&mut stack, $want, floor, kind).map_err(|m| fail(at, m))?
            };
        }
        match inst {
            WirInst::Const(ty, _) => stack.push(*ty),
            WirInst::Binop(ty, _) => {
                pop!(Some(*ty));
                pop!(Some(*ty));
                stack.push(*ty);
            }
            WirInst::Cmp(ty, _) => {
                pop!(Some(*ty));
                pop!(Some(*ty));
                stack.push(WTy::I32);
            }
            WirInst::Eqz(ty) => {
                pop!(Some(*ty));
                stack.push(WTy::I32);
            }
            WirInst::LocalGet(i) => {
                let ty = f
                    .local_ty(*i)
                    .ok_or_else(|| fail(at, format!("no local {i}")))?;
                stack.push(ty);
            }
            WirInst::LocalSet(i) => {
                let ty = f
                    .local_ty(*i)
                    .ok_or_else(|| fail(at, format!("no local {i}")))?;
                pop!(Some(ty));
            }
            WirInst::LocalTee(i) => {
                let ty = f
                    .local_ty(*i)
                    .ok_or_else(|| fail(at, format!("no local {i}")))?;
                pop!(Some(ty));
                stack.push(ty);
            }
            WirInst::Select => {
                pop!(Some(WTy::I32));
                let b = pop!(None);
                pop!(Some(b));
                stack.push(b);
            }
            WirInst::Drop => {
                pop!(None);
            }
            WirInst::Nop => {}
            WirInst::Block | WirInst::Loop => frames.push(Frame {
                entry_height: stack.len(),
            }),
            WirInst::End => {
                let frame = frames
                    .pop()
                    .ok_or_else(|| fail(at, "`end` without an open block".into()))?;
                if terminated {
                    stack.truncate(frame.entry_height);
                    terminated = false;
                } else if stack.len() != frame.entry_height {
                    return Err(fail(
                        at,
                        format!(
                            "block is not height-neutral: entered at {}, ends at {}",
                            frame.entry_height,
                            stack.len()
                        ),
                    ));
                }
            }
            WirInst::Br(d) | WirInst::BrIf(d) => {
                if matches!(inst, WirInst::BrIf(_)) {
                    pop!(Some(WTy::I32));
                }
                let d = *d as usize;
                if d >= frames.len() {
                    return Err(fail(at, format!("branch depth {d} exceeds nesting")));
                }
                let target = &frames[frames.len() - 1 - d];
                if stack.len() < target.entry_height {
                    return Err(fail(at, "branch below target frame height".into()));
                }
                if matches!(inst, WirInst::Br(_)) {
                    terminated = true;
                }
            }
            WirInst::BrTable(targets) => {
                pop!(Some(WTy::I32));
                for &d in targets {
                    let d = d as usize;
                    if d >= frames.len() {
                        return Err(fail(at, format!("br_table depth {d} exceeds nesting")));
                    }
                    if stack.len() < frames[frames.len() - 1 - d].entry_height {
                        return Err(fail(at, "br_table below target frame height".into()));
                    }
                }
                terminated = true;
            }
            WirInst::Return => {
                if let Some(r) = f.result {
                    pop!(Some(r));
                }
                terminated = true;
            }
            WirInst::Call(idx) => {
                let callee = m
                    .funcs
                    .get(*idx as usize)
                    .ok_or_else(|| fail(at, format!("call to unknown function {idx}")))?;
                for p in callee.params.iter().rev() {
                    pop!(Some(*p));
                }
                if let Some(r) = callee.result {
                    stack.push(r);
                }
            }
        }
    }
    let at = f.body.len();
    if !frames.is_empty() {
        return Err(fail(at, format!("{} unclosed block(s)", frames.len())));
    }
    if !terminated {
        // Falling off the end implicitly returns; the stack must hold
        // exactly the declared result.
        match f.result {
            Some(r) if stack.as_slice() == [r] => {}
            Some(r) => {
                return Err(fail(
                    at,
                    format!("body must end with exactly one {r} on the stack, has {stack:?}"),
                ))
            }
            None if stack.is_empty() => {}
            None => return Err(fail(at, format!("values left on the stack: {stack:?}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{WBin, WCmp};
    use crate::version::WirVersion;

    fn module_with(body: Vec<WirInst>, result: Option<WTy>) -> WirModule {
        let mut m = WirModule::new("t", WirVersion::W3_0);
        let mut f = WirFunc::new("main", vec![], result);
        f.body.extend(body);
        m.funcs.push(f);
        m
    }

    #[test]
    fn well_typed_straightline_passes() {
        let m = module_with(
            vec![
                WirInst::Const(WTy::I32, 2),
                WirInst::Const(WTy::I32, 3),
                WirInst::Binop(WTy::I32, WBin::Mul),
                WirInst::Return,
            ],
            Some(WTy::I32),
        );
        verify_module(&m).expect("valid");
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let m = module_with(
            vec![
                WirInst::Const(WTy::I32, 2),
                WirInst::Const(WTy::I64, 3),
                WirInst::Binop(WTy::I32, WBin::Add),
                WirInst::Return,
            ],
            Some(WTy::I32),
        );
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("type mismatch"), "{e}");
    }

    #[test]
    fn blocks_must_be_height_neutral() {
        let m = module_with(
            vec![
                WirInst::Block,
                WirInst::Const(WTy::I32, 1),
                WirInst::End,
                WirInst::Const(WTy::I32, 1),
                WirInst::Return,
            ],
            Some(WTy::I32),
        );
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("height-neutral"), "{e}");
    }

    #[test]
    fn dead_code_after_terminator_is_rejected() {
        let m = module_with(
            vec![WirInst::Const(WTy::I32, 1), WirInst::Return, WirInst::Nop],
            Some(WTy::I32),
        );
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("unreachable"), "{e}");
    }

    #[test]
    fn branch_depth_and_version_gates() {
        let m = module_with(vec![WirInst::Br(0)], None);
        assert!(verify_module(&m).is_err(), "branch without a block");
        let mut m = module_with(
            vec![
                WirInst::Const(WTy::I32, 1),
                WirInst::Const(WTy::I32, 2),
                WirInst::Const(WTy::I32, 1),
                WirInst::Select,
                WirInst::Drop,
            ],
            None,
        );
        m.version = WirVersion::W1_0;
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("not available"), "{e}");
    }

    #[test]
    fn cmp_pushes_i32_even_for_i64_operands() {
        let m = module_with(
            vec![
                WirInst::Const(WTy::I64, 2),
                WirInst::Const(WTy::I64, 3),
                WirInst::Cmp(WTy::I64, WCmp::LtS),
                WirInst::Return,
            ],
            Some(WTy::I32),
        );
        verify_module(&m).expect("valid");
    }

    #[test]
    fn fall_off_requires_exact_result_stack() {
        let m = module_with(vec![WirInst::Const(WTy::I32, 1)], Some(WTy::I32));
        verify_module(&m).expect("implicit return");
        let m = module_with(
            vec![WirInst::Const(WTy::I32, 1), WirInst::Const(WTy::I32, 2)],
            Some(WTy::I32),
        );
        assert!(verify_module(&m).is_err());
    }
}
