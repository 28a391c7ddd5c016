//! Resource budgets for fixpoint loops: deadlines, tuple/iteration caps,
//! and cooperative cancellation.
//!
//! Every fixpoint loop in the workspace — naive, semi-naive, the Figure 2
//! carry/seen closures, and the Counting / Henschen–Naqvi descents — calls
//! [`Budget::check`] once per iteration. When a limit is hit the loop
//! returns a structured [`EvalError::BudgetExceeded`] instead of running
//! unboundedly, which is what lets a resident server (`sepra serve`) impose
//! per-request deadlines and cancel in-flight queries on shutdown.
//!
//! Checks happen at iteration *barriers*, so a budget bounds how many
//! iterations run, not the wall-clock cost of a single iteration. Inside
//! an iteration, [`crate::round::delta_round`] additionally probes
//! [`Budget::interrupted`] between plans so a cancelled or overdue round
//! stops expanding early — and reports that as an error itself, since a
//! truncated round would otherwise look like convergence.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::EvalError;

/// Which budget limit was exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetResource {
    /// The wall-clock deadline passed.
    Deadline,
    /// More tuples were inserted than allowed.
    Tuples,
    /// More fixpoint iterations ran than allowed.
    Iterations,
    /// The cancellation flag was raised.
    Cancelled,
}

impl BudgetResource {
    /// A stable machine-readable name (used in the serve protocol).
    pub fn name(self) -> &'static str {
        match self {
            BudgetResource::Deadline => "deadline",
            BudgetResource::Tuples => "tuples",
            BudgetResource::Iterations => "iterations",
            BudgetResource::Cancelled => "cancelled",
        }
    }
}

/// A resource budget for one evaluation. The default is unlimited, so
/// existing callers pay only a few `Option::is_some` tests per iteration.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Maximum tuples inserted (attempted insertions count toward the
    /// engines' `tuples_inserted` statistic, which is what is compared).
    pub max_tuples: Option<usize>,
    /// Maximum fixpoint iterations, across all loops of the evaluation.
    pub max_iterations: Option<usize>,
    /// Cooperative cancellation: when the flag goes true the evaluation
    /// stops at the next check. Shared (`Arc`) so a server can flip one
    /// flag for every in-flight query at shutdown.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Budget { deadline: Some(Instant::now() + timeout), ..Budget::default() }
    }

    /// Sets the deadline to `timeout` from now.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Caps inserted tuples.
    pub fn tuples(mut self, max: usize) -> Self {
        self.max_tuples = Some(max);
        self
    }

    /// Caps fixpoint iterations.
    pub fn iterations(mut self, max: usize) -> Self {
        self.max_iterations = Some(max);
        self
    }

    /// Attaches a cancellation flag.
    pub fn cancellable(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Whether every limit is absent (the common fast path).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_tuples.is_none()
            && self.max_iterations.is_none()
            && self.cancel.is_none()
    }

    /// The interrupt that has fired, if any: cancellation or the deadline.
    /// Cheap enough to probe between the plans of one round, from any
    /// thread. (Tuple/iteration counts live with the fixpoint loop, which
    /// checks those at its barrier through [`Budget::check`].)
    pub fn interrupted(&self) -> Option<BudgetResource> {
        if self.cancel.as_ref().is_some_and(|cancel| cancel.load(Ordering::Relaxed)) {
            return Some(BudgetResource::Cancelled);
        }
        if self.deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            return Some(BudgetResource::Deadline);
        }
        None
    }

    /// Checks every limit against the evaluation's running totals.
    /// `what` names the loop for the error message (e.g. `"semi-naive
    /// fixpoint"`); `iterations` and `tuples` are cumulative counts, most
    /// naturally the `EvalStats` fields.
    pub fn check(&self, what: &str, iterations: usize, tuples: usize) -> Result<(), EvalError> {
        let resource = if let Some(interrupt) = self.interrupted() {
            interrupt
        } else if self.max_tuples.is_some_and(|max| tuples > max) {
            BudgetResource::Tuples
        } else if self.max_iterations.is_some_and(|max| iterations > max) {
            BudgetResource::Iterations
        } else {
            return Ok(());
        };
        Err(EvalError::BudgetExceeded { what: what.to_string(), resource })
    }
}

impl PartialEq for Budget {
    fn eq(&self, other: &Self) -> bool {
        let flags_eq = match (&self.cancel, &other.cancel) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        flags_eq
            && self.deadline == other.deadline
            && self.max_tuples == other.max_tuples
            && self.max_iterations == other.max_iterations
    }
}

impl Eq for Budget {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.interrupted(), None);
        b.check("loop", usize::MAX, usize::MAX).unwrap();
    }

    #[test]
    fn expired_deadline_fails_with_resource() {
        let b = Budget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Budget::default()
        };
        assert_eq!(b.interrupted(), Some(BudgetResource::Deadline));
        let err = b.check("test loop", 0, 0).unwrap_err();
        match err {
            EvalError::BudgetExceeded { what, resource } => {
                assert_eq!(what, "test loop");
                assert_eq!(resource, BudgetResource::Deadline);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn tuple_and_iteration_caps() {
        let b = Budget::unlimited().tuples(10).iterations(5);
        b.check("l", 5, 10).unwrap();
        assert!(matches!(
            b.check("l", 5, 11),
            Err(EvalError::BudgetExceeded { resource: BudgetResource::Tuples, .. })
        ));
        assert!(matches!(
            b.check("l", 6, 10),
            Err(EvalError::BudgetExceeded { resource: BudgetResource::Iterations, .. })
        ));
    }

    #[test]
    fn cancellation_flag_is_shared() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = Budget::unlimited().cancellable(flag.clone());
        b.check("l", 0, 0).unwrap();
        assert_eq!(b.interrupted(), None);
        flag.store(true, Ordering::Relaxed);
        assert_eq!(b.interrupted(), Some(BudgetResource::Cancelled));
        assert!(matches!(
            b.check("l", 0, 0),
            Err(EvalError::BudgetExceeded { resource: BudgetResource::Cancelled, .. })
        ));
    }

    #[test]
    fn equality_compares_flag_identity() {
        let flag = Arc::new(AtomicBool::new(false));
        let a = Budget::unlimited().cancellable(flag.clone());
        let b = Budget::unlimited().cancellable(flag);
        let c = Budget::unlimited().cancellable(Arc::new(AtomicBool::new(false)));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(Budget::unlimited(), Budget::unlimited());
    }
}
