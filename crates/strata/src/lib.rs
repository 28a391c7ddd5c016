//! Stratification now lives in [`sepra_ast::analysis`]: the dependency
//! graph labels every edge with its [`Polarity`], and
//! [`DependencyGraph::stratify`](sepra_ast::DependencyGraph::stratify) is a
//! pass over the graph's components.
//!
//! This crate stays only because the end-to-end benchmark (`benchmark/`)
//! calls its [`stratify`]; no crate of the workspace depends on it. The
//! next change to the benchmark points it at [`sepra_ast::analysis`] and
//! deletes this crate.

pub use sepra_ast::analysis::{stratify, Polarity, StratError, Stratification};
