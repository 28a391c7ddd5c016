//! Evaluation errors.

use std::fmt;

use sepra_storage::value::ValueError;

use crate::budget::BudgetResource;

/// Errors raised while planning or running an evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A body could not be compiled into an executable plan.
    Planning(String),
    /// A constant could not be represented as a runtime value.
    Value(ValueError),
    /// A fixpoint failed to terminate within a configured bound
    /// (only possible when deduplication is disabled, or for the Counting
    /// method on cyclic data).
    Diverged {
        /// Which loop diverged.
        what: String,
        /// The iteration bound that was exceeded.
        bound: usize,
    },
    /// A [`Budget`](crate::budget::Budget) limit was hit: the evaluation was
    /// cut off by a deadline, a tuple/iteration cap, or cancellation —
    /// distinct from [`EvalError::Diverged`], which reports an engine-level
    /// safety bound rather than a caller-imposed resource limit.
    BudgetExceeded {
        /// Which loop was cut off.
        what: String,
        /// Which limit was hit.
        resource: BudgetResource,
    },
    /// The program shape is outside what this algorithm supports.
    Unsupported(String),
    /// Negation or aggregation in recursion with no stratified model, as
    /// [`sepra_ast::analysis::StratError::describe`] words it; no engine
    /// may evaluate such a program.
    Unstratifiable(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Planning(msg) => write!(f, "planning error: {msg}"),
            EvalError::Value(e) => write!(f, "value error: {e}"),
            EvalError::Diverged { what, bound } => {
                write!(f, "{what} exceeded {bound} iterations without converging")
            }
            EvalError::BudgetExceeded { what, resource } => {
                let why = match resource {
                    BudgetResource::Deadline => "the deadline passed",
                    BudgetResource::Tuples => "the tuple limit was reached",
                    BudgetResource::Iterations => "the iteration limit was reached",
                    BudgetResource::Cancelled => "the evaluation was cancelled",
                };
                write!(f, "budget exceeded in {what}: {why}")
            }
            EvalError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            EvalError::Unstratifiable(msg) => write!(f, "unstratifiable program: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ValueError> for EvalError {
    fn from(e: ValueError) -> Self {
        EvalError::Value(e)
    }
}
