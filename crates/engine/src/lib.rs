//! The recursive query processor.
//!
//! The paper closes by noting that, because separable recursions are cheap
//! to detect and much cheaper to evaluate, the specialized algorithm should
//! *supplement* general algorithms inside a query processor rather than
//! replace them. This crate is that processor: it holds a program and a
//! database, and routes each query — one decision, owned by `route.rs`:
//!
//! 1. a program with negation or aggregates runs on stratified semi-naive,
//!    the only engine (besides naive) that evaluates them;
//! 2. a provably bounded recursion is replaced by its nonrecursive
//!    unfolding and evaluated with no fixpoint at all;
//! 3. a separable recursion with a usable selection runs the compiled
//!    Separable algorithm over the lower strata it reads, materialized
//!    once for every separable predicate;
//! 4. anything else falls back to Generalized Magic Sets (for selections)
//!    or plain semi-naive evaluation.
//!
//! Every result carries the strategy used, the answer relation, wall-clock
//! time, and the paper's relation-size statistics; [`QueryProcessor::explain`]
//! renders the decision (including the instantiated Figure 2 schema, as in
//! the paper's Figures 3 and 4) without running the query.

mod explain;
pub mod gate;
mod mutate;
pub mod processor;
pub mod report;
mod route;

pub use gate::GenerationGate;
pub use processor::{
    MutationOutcome, PlanConj, PlanReport, PlanScan, ProcessorError, QueryProcessor, QueryResult,
    Strategy, StrategyChoice,
};
pub use report::{render_answers, render_answers_csv, render_answers_json};
