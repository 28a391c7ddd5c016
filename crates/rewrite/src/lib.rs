//! The strategies the paper (Section 4) compares its Separable algorithm
//! against, and the program rewrites the engine evaluates semi-naively:
//!
//! * [`magic`] — the one **demand rewrite**: adorn the program from the
//!   query's binding pattern, guard every rule with a `magic` predicate,
//!   and evaluate semi-naively. Its configurations ([`Magic`]) are basic
//!   Generalized Magic Sets \[BMSU86, BR87\], supplementary magic (each body
//!   prefix materialized once) and subsumptive magic (Alviano et al.). On
//!   the Lemma 4.2 family it materializes `Ω(n^k)` tuples where Separable
//!   stays at `O(n^{max(w, k-w)})`.
//! * [`bounded`] — **bounded elimination**: a recursion
//!   [`sepra_core::bounded`] proves bounded becomes its nonrecursive
//!   unfolding, evaluated with zero fixpoint iterations through the demand
//!   rewrite's working fork and evaluation tail.
//! * [`counting`] — the **Generalized Counting Method** \[BMSU86, SZ86\]:
//!   descend from the selection constants recording `(level, path-code)`
//!   indexes exactly as the paper's `count` rules do, reaching `Ω(p^n)`
//!   tuples on the Lemma 4.3 family (`Ω(2^n)` on Example 1.1). Cyclic data
//!   makes it diverge, which is detected and reported.
//! * [`hn`] — the **Henschen–Naqvi** iterative algorithm \[HN84\]: one
//!   relational expression per expansion string, so `Ω(2^n)` work on
//!   Example 1.1 and no termination on cyclic data.

mod adorn;
pub mod bounded;
pub mod counting;
pub mod hn;
pub mod magic;

pub use bounded::{bounded_evaluate, bounded_evaluate_with_options};
pub use counting::{counting_evaluate, CountingOptions, CountingOutcome};
pub use hn::{hn_evaluate, HnOptions, HnOutcome};
pub use magic::{
    magic_evaluate, magic_evaluate_as, magic_evaluate_supplementary,
    magic_evaluate_supplementary_with_options, magic_evaluate_with_options, Magic, MagicOutcome,
};
