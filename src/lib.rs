//! # separable — compiling separable recursions
//!
//! A from-scratch deductive database engine reproducing **Jeffrey F.
//! Naughton, "Compiling Separable Recursions"** (Princeton CS-TR-140-88 /
//! SIGMOD 1988): a specialized evaluation algorithm for selections on
//! *separable recursions* that materializes `O(n)`-size relations on
//! queries where Generalized Magic Sets is `Ω(n²)` and the Generalized
//! Counting Method is `Ω(2ⁿ)`.
//!
//! ## Quick start
//!
//! ```
//! use separable::QueryProcessor;
//!
//! let mut qp = QueryProcessor::new();
//! qp.load(
//!     "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
//!      buys(X, Y) :- idol(X, W), buys(W, Y).\n\
//!      buys(X, Y) :- perfectFor(X, Y).\n\
//!      friend(tom, sue). idol(sue, joe). perfectFor(joe, widget).",
//! )
//! .unwrap();
//! let result = qp.query("buys(tom, Y)?").unwrap();
//! assert_eq!(result.answers.len(), 1); // buys(tom, widget)
//! assert_eq!(result.strategy.to_string(), "separable");
//! ```
//!
//! ## Crate map
//!
//! | Layer | Crate | Re-exported as |
//! |---|---|---|
//! | Datalog frontend | `sepra-ast` | [`ast`] |
//! | Storage engine | `sepra-storage` | [`storage`] |
//! | Bottom-up evaluation | `sepra-eval` | [`eval`] |
//! | Magic Sets / Counting baselines | `sepra-rewrite` | [`rewrite`] |
//! | **The paper's contribution** | `sepra-core` | [`core`] |
//! | Query processor | `sepra-engine` | [`engine`] |
//! | CLI + TCP query service | `sepra-server` | [`server`] |
//! | Workload generators | `sepra-gen` | [`gen`] |
//!
//! The most useful entry points are re-exported at the top level:
//! [`QueryProcessor`] for end-to-end use, and the triple
//! [`detect`](core::detect::detect()) / [`build_plan`](core::plan::build_plan) /
//! [`SeparableEvaluator`] for working
//! with the algorithm directly.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every Section 4 comparison.

pub use sepra_ast as ast;
pub use sepra_ast::analysis as strata;
pub use sepra_core as core;
pub use sepra_engine as engine;
pub use sepra_eval as eval;
pub use sepra_gen as gen;
pub use sepra_rewrite as rewrite;
pub use sepra_server as server;
pub use sepra_storage as storage;

pub use sepra_ast::{Interner, Program, Query};
pub use sepra_core::{detect::SeparableRecursion, evaluate::SeparableEvaluator, ExecOptions};
pub use sepra_engine::{QueryProcessor, QueryResult, Strategy, StrategyChoice};
pub use sepra_eval::Budget;
pub use sepra_storage::{Database, EvalStats, Relation};
