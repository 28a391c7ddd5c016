//! Storage engine for the separable-recursion engine.
//!
//! This crate is the in-memory relational substrate on which every
//! evaluation algorithm in the workspace runs:
//!
//! * [`value`] — the compact [`Value`] word (interned symbol or 63-bit
//!   integer);
//! * [`mod tuple`](mod@crate::tuple) — fixed-arity tuples of values;
//! * [`hasher`] — a fast Fx-style hasher for integer-heavy keys;
//! * [`relation`] — [`Relation`], an insertion-ordered deduplicating tuple
//!   set with columnar (struct-of-arrays) dense storage behind an
//!   open-addressing probe table, read through borrowed [`Row`] views,
//!   with the delta slices needed by semi-naive evaluation;
//! * [`index`] — hash indexes on column subsets, built and extended lazily,
//!   and kept by the stored relations they index;
//! * [`database`] — the extensional database: named relations plus the
//!   shared symbol interner;
//! * [`relstats`] — per-relation cardinality and distinct-count statistics,
//!   maintained incrementally on the mutation paths, consumed by the
//!   cost-based join planner in `sepra-eval`;
//! * [`stats`] — the cost metric the paper uses to compare algorithms
//!   (sizes of the relations each algorithm constructs).

pub mod database;
pub mod hasher;
pub mod index;
pub mod relation;
pub mod relstats;
pub mod stats;
pub mod tuple;
pub mod value;

pub use database::{Database, DeltaRun, EdbDelta};
pub use hasher::{FxBuildHasher, FxHashMap, FxHashSet};
pub use index::Index;
pub use relation::{row_hash, Relation, Row, RowValues, Rows};
pub use relstats::{ColStats, RelStats};
pub use stats::EvalStats;
pub use tuple::Tuple;
pub use value::Value;
