//! Evaluation of detected-bounded recursions without a fixpoint.
//!
//! [`sepra_core::bounded`] proves a recursion equivalent to the
//! nonrecursive rule set `U_0 ∪ ... ∪ U_k`; this module realizes that
//! proof: the recursive predicate's rules are replaced by the kept chain,
//! and the synthetic `t@edb` predicate — which the analysis used to stand
//! for `t`'s directly asserted facts — is bound to `t`'s EDB relation by
//! handle, rows unshared and uncopied. The rewritten program is nonrecursive in `t`, so the
//! semi-naive engine evaluates its stratum in a single pass with **zero**
//! fixpoint iterations; answers are identical to evaluating the original
//! recursion to fixpoint. Every other rule of the given program is
//! evaluated alongside, so a caller hands over only what `t` reads (the
//! query processor passes the rules of `t`'s cone). The working database
//! is the demand rewrite's: a [`Database::fork`] of the caller's, which
//! shares its relations and symbol table and takes the program's facts.
//! The evaluation tail is the demand rewrite's too.

use sepra_ast::{Program, Query, Rule};
use sepra_core::bounded::BoundedRecursion;
use sepra_eval::{EvalError, EvalOptions};
use sepra_storage::Database;

use crate::magic::{evaluate, fork_with_facts, MagicOutcome};

/// Evaluates `query` by the nonrecursive rewrite with default options.
pub fn bounded_evaluate(
    program: &Program,
    query: &Query,
    db: &Database,
    bounded: &BoundedRecursion,
) -> Result<MagicOutcome, EvalError> {
    bounded_evaluate_with_options(program, query, db, bounded, &EvalOptions::default())
}

/// [`bounded_evaluate`] with explicit [`EvalOptions`] for the semi-naive
/// engine evaluating the rewritten program. The outcome's `stats` keep
/// `iterations` at zero for the bounded predicate's stratum.
pub fn bounded_evaluate_with_options(
    program: &Program,
    query: &Query,
    db: &Database,
    bounded: &BoundedRecursion,
    eval: &EvalOptions,
) -> Result<MagicOutcome, EvalError> {
    let mut db = fork_with_facts(program, db)?;
    // Bind the analysis's opaque `t@edb` predicate to the facts directly
    // asserted for `t`, sharing `t`'s relation (always materialized,
    // possibly empty, so the plans referencing it find a relation).
    if let Some(facts) = db.shared_relation(bounded.pred).cloned() {
        db.bind_relation(bounded.edb_pred, facts);
    } else {
        db.relation_mut(bounded.edb_pred, bounded.arity);
    }
    // The bounded predicate's rules give way to the nonrecursive chain;
    // facts and the rules of the predicates it reads are evaluated as given.
    let kept = program.rules.iter().filter(|r| r.is_fact() || r.head.pred != bounded.pred);
    let mut rules: Vec<Rule> = kept.cloned().collect();
    rules.extend(bounded.rules.iter().cloned());
    evaluate(Program::new(rules), query, db, eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_ast::{parse_program, parse_query, RecursiveDef};
    use sepra_core::bounded::analyze;
    use sepra_eval::{query_answers, seminaive_with_options};
    use sepra_storage::Relation;

    fn eval_both(program_src: &str, facts: &str, query_src: &str) -> (MagicOutcome, Relation) {
        let mut db = Database::new();
        db.load_fact_text(facts).unwrap();
        let program = parse_program(program_src, db.interner_mut()).unwrap();
        let query = parse_query(query_src, db.interner_mut()).unwrap();
        let pred = query.atom.pred;
        let bounded = {
            let def = RecursiveDef::extract(&program, pred, db.interner()).unwrap();
            analyze(&def, db.interner_mut()).expect("program is bounded")
        };
        let out = bounded_evaluate(&program, &query, &db, &bounded).unwrap();
        let derived = seminaive_with_options(&program, &db, &EvalOptions::default()).unwrap();
        let expected = query_answers(&query, &db, Some(&derived)).unwrap();
        (out, expected)
    }

    fn assert_same_tuples(a: &Relation, b: &Relation) {
        assert_eq!(a.len(), b.len());
        for t in a.iter() {
            assert!(b.contains_row(t), "tuple sets differ");
        }
    }

    #[test]
    fn vacuous_rule_matches_fixpoint() {
        let (out, expected) = eval_both(
            "t(X, Y) :- e(X, Y), t(X, Y).\nt(X, Y) :- t0(X, Y).\n",
            "e(a, b). e(b, c). t0(a, b). t0(c, d).",
            "t(X, Y)?",
        );
        assert_same_tuples(&out.answers, &expected);
        assert_eq!(out.stats.iterations, 0, "bounded evaluation must skip the fixpoint");
    }

    #[test]
    fn swap_recursion_matches_fixpoint() {
        let (out, expected) = eval_both(
            "t(X, Y) :- sym(X, Y), t(Y, X).\nt(X, Y) :- base(X, Y).\n",
            "sym(a, b). sym(b, a). sym(c, d). base(b, a). base(c, d). base(e, f).",
            "t(X, Y)?",
        );
        assert_same_tuples(&out.answers, &expected);
        assert_eq!(out.stats.iterations, 0);
        // base(b,a) flips through sym into t(a,b); sym(c,d) has no
        // reversed base fact, so nothing new from c/d.
        assert_eq!(out.answers.len(), 4);
    }

    #[test]
    fn directly_asserted_facts_feed_the_rewrite() {
        // t(d, c) is an EDB fact of the recursive predicate itself: the
        // recursion flips it through sym(c, d) into t(c, d). The rewrite
        // must see it via the t@edb snapshot.
        let (out, expected) = eval_both(
            "t(X, Y) :- sym(X, Y), t(Y, X).\nt(X, Y) :- base(X, Y).\n",
            "sym(a, b). sym(c, d). base(b, a). t(d, c).",
            "t(X, Y)?",
        );
        assert_same_tuples(&out.answers, &expected);
        let mut found = false;
        for t in out.answers.iter() {
            let rendered = t.display(out.db.interner()).to_string();
            if rendered.contains("c") && rendered.contains("d") {
                found = true;
            }
        }
        assert!(found, "flipped EDB fact must be derived");
    }

    #[test]
    fn program_facts_are_hoisted() {
        let (out, expected) = eval_both(
            "t(X, Y) :- sym(X, Y), t(Y, X).\nt(X, Y) :- base(X, Y).\nt(p, q).\nsym(q, p).\n",
            "base(x, y).",
            "t(X, Y)?",
        );
        assert_same_tuples(&out.answers, &expected);
        // t(p,q) direct, t(q,p) flipped, base(x,y).
        assert_eq!(out.answers.len(), 3);
    }

    #[test]
    fn bound_queries_filter_answers() {
        let (out, expected) = eval_both(
            "t(X, Y) :- sym(X, Y), t(Y, X).\nt(X, Y) :- base(X, Y).\n",
            "sym(a, b). sym(b, a). base(b, a). base(a, c). base(z, w).",
            "t(a, Y)?",
        );
        assert_same_tuples(&out.answers, &expected);
    }
}
