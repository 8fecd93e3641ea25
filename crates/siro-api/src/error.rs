//! Errors raised while executing API components.

use std::fmt;

use siro_ir::infer::RuleError;

/// Failure during execution of an API component or translator program.
///
/// A failing component aborts the enclosing candidate translator for the
/// current instruction — the "translation failure" early-rejection signal of
/// the paper's validation pipeline (§6.4 notes most wrong per-test
/// translators die before execution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// A getter was applied to the wrong sub-kind (e.g. `get_condition` on
    /// an unconditional branch).
    WrongSubKind(String),
    /// A dynamic type mismatch (component fed the wrong value shape).
    Type(String),
    /// An index was out of range.
    OutOfRange(String),
    /// Something required by the component is missing from the translation
    /// context (e.g. an unmapped function).
    Missing(String),
    /// The component is not available in this version.
    Unsupported(String),
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::WrongSubKind(m) => write!(f, "wrong sub-kind: {m}"),
            ApiError::Type(m) => write!(f, "type mismatch: {m}"),
            ApiError::OutOfRange(m) => write!(f, "index out of range: {m}"),
            ApiError::Missing(m) => write!(f, "missing from context: {m}"),
            ApiError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for ApiError {}

/// A result-type rule that does not apply is a type mismatch, except a
/// struct index past the last field, which is out of range.
impl From<RuleError> for ApiError {
    fn from(e: RuleError) -> Self {
        let msg = e.message().to_owned();
        match e {
            RuleError::StructFieldOutOfRange => ApiError::OutOfRange(msg),
            _ => ApiError::Type(msg),
        }
    }
}

/// Result alias for API component execution.
pub type ApiResult<T> = Result<T, ApiError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ApiError::WrongSubKind("x".into())
            .to_string()
            .contains("sub-kind"));
        assert!(ApiError::Missing("f".into())
            .to_string()
            .contains("missing"));
    }

    /// Every rule error keeps the kind and text the builders and getters
    /// reported before the rules moved into `siro_ir::infer`.
    #[test]
    fn rule_errors_keep_their_kind_and_text() {
        use RuleError::*;
        let ty = |m: &str| ApiError::Type(m.into());
        let table = [
            (
                AddressNeedsExplicitType,
                ty("address value needs explicit type"),
            ),
            (OperandTypeUnknown, ty("operand type unknown")),
            (ExpectedFunctionType, ty("expected function type")),
            (UntypedCallee, ty("untyped callee")),
            (CalleeNotCallable, ty("callee is not callable")),
            (
                CalleeNotFunctionPointer,
                ty("callee is not a function pointer"),
            ),
            (UntypedCallArgument, ty("untyped call argument")),
            (
                StructGepIndexNotConstant,
                ty("struct gep index must be constant"),
            ),
            (
                StructFieldOutOfRange,
                ApiError::OutOfRange("struct field".into()),
            ),
            (GepThroughScalar, ty("gep through scalar")),
            (LoadFromNonPointer, ty("load from non-pointer")),
            (GepOnNonPointer, ty("gep on non-pointer")),
        ];
        for (rule, want) in table {
            assert_eq!(ApiError::from(rule), want, "{rule:?}");
        }
    }
}
