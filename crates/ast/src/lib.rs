//! Datalog frontend for the separable-recursion engine.
//!
//! This crate provides everything needed to get from Datalog source text to
//! an analyzed, rectified program ready for compilation:
//!
//! * [`symbol`] — string interning ([`Sym`], [`Interner`]);
//! * [`term`] / [`atom`] / [`rule`] / [`program`] — the abstract syntax tree;
//! * [`parse`] — a hand-written recursive-descent parser for Prolog-style
//!   syntax (`buys(X, Y) :- friend(X, W), buys(W, Y).`);
//! * [`pretty`] — display adapters that render AST nodes back to source text;
//! * [`analysis`] — the predicate dependency graph: IDB/EDB
//!   classification, strongly connected components, stratification for
//!   negation and aggregates, and extraction of linear recursive
//!   definitions in the shape the paper assumes (Section 2);
//! * [`rectify`] — rule rectification (distinct head variables, no head
//!   constants), as required by the paper's Section 3.3;
//! * [`expand`] — Procedure `Expand` from Figure 1 of the paper, which
//!   enumerates the conjunctive-query expansion of a recursion, together
//!   with containment-mapping machinery used to validate Theorem 2.1.
//!
//! The paper reproduced here is Jeffrey F. Naughton, *Compiling Separable
//! Recursions* (Princeton CS-TR-140-88 / SIGMOD 1988).

pub mod analysis;
pub mod atom;
pub mod error;
pub mod expand;
pub mod parse;
pub mod pretty;
pub mod program;
pub mod rectify;
pub mod rule;
pub mod span;
pub mod symbol;
pub mod term;

pub use analysis::{DependencyGraph, PredicateInfo, RecursiveDef, Scope};
pub use atom::Atom;
pub use error::AstError;
pub use parse::{parse_program, parse_program_raw, parse_query, Parser};
pub use program::{Program, Query};
pub use rule::{AggFunc, AggSpec, Literal, Rule};
pub use span::{LineCol, Span};
pub use symbol::{Interner, Sym};
pub use term::{Const, Term};
