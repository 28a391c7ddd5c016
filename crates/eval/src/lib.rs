//! Bottom-up Datalog evaluation.
//!
//! This crate is the generic evaluation substrate shared by every algorithm
//! in the workspace (semi-naive, Magic Sets, Counting, and the paper's
//! Separable algorithm):
//!
//! * [`plan`] — compilation of rule bodies (conjunctions of atoms and
//!   equality literals) into executable left-to-right index-nested-loop
//!   join plans over abstract relation keys;
//! * [`planner`] — statistics-driven greedy subgoal ordering applied before
//!   compilation (cost-based by default, with a static bound-first
//!   fallback);
//! * [`store`] — the [`RelStore`] name→relation binding used during one
//!   execution round, and the [`IndexCache`] of lazily built, incrementally
//!   extended hash indexes;
//! * [`mod budget`](mod@crate::budget) — resource budgets (deadlines, tuple/iteration caps,
//!   cancellation) checked by every fixpoint loop in the workspace;
//! * [`round`] — **the one delta round**, [`delta_round`]: fire compiled
//!   plans over a frontier (a semi-naive delta, a Figure 2 `carry`, a DRed
//!   deletion delta) and hand the rows to the caller's sink. The round owns
//!   index preparation, budget probes between plans, `rows_scanned`
//!   accounting and the emission order; callers own only the merge. Every
//!   engine below except the oracle, and the Separable closures in
//!   `sepra-core`, advance by calling it;
//! * [`mod seminaive`](mod@crate::seminaive) — stratified semi-naive evaluation with delta rules:
//!   rounds merged by set insert, or by an aggregate fold for `min`/`max`/
//!   `count`/`sum` heads;
//! * [`incremental`] — incremental maintenance of a semi-naive
//!   materialization under EDB mutation: the same rounds, merged by set
//!   insert (insertions, put-backs), by marking (DRed over-deletion) or by
//!   keeping marked tuples (rederivation);
//! * [`mod naive`](mod@crate::naive) — naive fixpoint iteration, deliberately *not* built on
//!   the round: it is the oracle the parity suites and the benchmark compare
//!   every other engine against, so it shares no round logic with them;
//! * [`answers`] — extraction of query answers from an evaluated database.

pub mod answers;
pub mod budget;
pub mod error;
pub mod incremental;
pub mod naive;
pub mod plan;
pub mod planner;
pub mod round;
pub mod seminaive;
pub mod store;

pub use answers::{filter_by_query, query_answers};
pub use budget::{Budget, BudgetResource};
pub use error::EvalError;
pub use incremental::maintain;
pub use naive::{naive, naive_with_options};
pub use plan::{ConjPlan, PlanAtom, PlanLiteral, RelKey, Step, TermSpec};
pub use planner::{Blocked, PlanMode, Planner, PlannerStats, ScanEstimate};
pub use round::{delta_round, RoundPlan, RowBuf};
pub use seminaive::{seminaive, seminaive_with_options, Derived, EvalOptions};
pub use store::{IndexCache, RelStore};
