//! Magic Sets with supplementary predicates \[BR87\].
//!
//! The basic magic rewrite re-evaluates each rule-body *prefix* twice: once
//! inside the magic rule for an IDB occurrence and once inside the guarded
//! rule itself. The supplementary variant materializes each prefix exactly
//! once:
//!
//! ```text
//! sup_{r,0}(v̄_0)  :- magic@p@α(t̄|bound).
//! sup_{r,i}(v̄_i)  :- sup_{r,i-1}(v̄_{i-1}), L_i.          (1 ≤ i < m)
//! p@α(t̄)          :- sup_{r,m-1}(v̄_{m-1}), L_m.
//! magic@q@β(ā)    :- sup_{r,i-1}(v̄_{i-1}).                (L_i an IDB atom)
//! ```
//!
//! where `v̄_i` keeps exactly the variables bound after `L_i` that are still
//! needed by later literals or the head. Answers are identical to the basic
//! rewrite; the ablation (E10) measures the work saved.

use std::collections::BTreeSet;

use sepra_ast::{Atom, Interner, Literal, Program, Query, Rule, Sym, Term};
use sepra_eval::{EvalError, EvalOptions};
use sepra_storage::Database;

use crate::adorn::{adorn_program, adorn_program_subsumptive};
use crate::magic::{evaluate_rewritten, magic_atom, parse_adorned, split_facts, MagicOutcome};

/// Rewrites and evaluates `query` with supplementary magic sets.
///
/// Returns the same outcome type as [`crate::magic::magic_evaluate`]; the
/// `rewritten` program contains the `sup@...` predicates.
pub fn magic_evaluate_supplementary(
    program: &Program,
    query: &Query,
    db: &Database,
) -> Result<MagicOutcome, EvalError> {
    magic_evaluate_supplementary_with_options(program, query, db, &EvalOptions::default())
}

/// [`magic_evaluate_supplementary`] with explicit [`EvalOptions`] for the
/// semi-naive engine evaluating the rewritten program.
pub fn magic_evaluate_supplementary_with_options(
    program: &Program,
    query: &Query,
    db: &Database,
    eval: &EvalOptions,
) -> Result<MagicOutcome, EvalError> {
    supplementary_impl(program, query, db, eval, false)
}

/// Subsumptive magic sets (Alviano et al.): the supplementary rewrite over
/// [`adorn_program_subsumptive`], so a demand whose bound positions
/// include those of an already-generated adornment reuses that more
/// general adorned copy instead of spawning its own. Subsumed magic atoms
/// are pruned — they are never generated — and each predicate is adorned
/// strictly on demand.
pub fn magic_evaluate_subsumptive(
    program: &Program,
    query: &Query,
    db: &Database,
) -> Result<MagicOutcome, EvalError> {
    magic_evaluate_subsumptive_with_options(program, query, db, &EvalOptions::default())
}

/// [`magic_evaluate_subsumptive`] with explicit [`EvalOptions`].
pub fn magic_evaluate_subsumptive_with_options(
    program: &Program,
    query: &Query,
    db: &Database,
    eval: &EvalOptions,
) -> Result<MagicOutcome, EvalError> {
    supplementary_impl(program, query, db, eval, true)
}

fn supplementary_impl(
    program: &Program,
    query: &Query,
    db: &Database,
    eval: &EvalOptions,
    subsumptive: bool,
) -> Result<MagicOutcome, EvalError> {
    if !query.has_selection() {
        return Err(EvalError::Unsupported("magic sets needs at least one bound argument".into()));
    }
    let (mut db, program, idb) = split_facts(program, db)?;
    let adorn = if subsumptive { adorn_program_subsumptive } else { adorn_program };
    let adorned = adorn(&program, query, db.interner_mut(), &|p| idb.contains(&p));

    let mut out_rules: Vec<Rule> = Vec::new();
    for (ri, rule) in adorned.program.rules.iter().enumerate() {
        let (head_orig, head_ad) = parse_adorned(&rule.head, db.interner())
            .ok_or_else(|| EvalError::Planning("unmappable adorned head".into()))?;
        let magic_head = magic_atom(&rule.head, head_orig, &head_ad, db.interner_mut());
        let head_vars: BTreeSet<Sym> = rule.head.vars().into_iter().collect();

        // needed_after[i]: variables used by literals i.. or the head.
        let m = rule.body.len();
        let mut needed_after: Vec<BTreeSet<Sym>> = vec![head_vars.clone(); m + 1];
        for i in (0..m).rev() {
            let mut set = needed_after[i + 1].clone();
            set.extend(rule.body[i].vars());
            needed_after[i] = set;
        }

        // available[i]: variables bound after evaluating literals < i.
        let mut available: BTreeSet<Sym> = magic_head.vars().into_iter().collect();

        // sup_{r,0}.
        let sup_name =
            |interner: &mut Interner, idx: usize| interner.intern(&format!("sup@{ri}@{idx}"));
        let sup_args = |available: &BTreeSet<Sym>, needed: &BTreeSet<Sym>| -> Vec<Term> {
            available.intersection(needed).map(|&v| Term::Var(v)).collect()
        };
        let mut prev_sup =
            Atom::new(sup_name(db.interner_mut(), 0), sup_args(&available, &needed_after[0]));
        out_rules.push(Rule::new(prev_sup.clone(), vec![Literal::Atom(magic_head.clone())]));

        for (i, lit) in rule.body.iter().enumerate() {
            // Magic rule for IDB occurrences, from the previous supplementary.
            if let Literal::Atom(atom) = lit {
                if let Some((orig, ad)) = parse_adorned(atom, db.interner()) {
                    if idb.contains(&orig) {
                        let m_atom = magic_atom(atom, orig, &ad, db.interner_mut());
                        out_rules.push(Rule::new(m_atom, vec![Literal::Atom(prev_sup.clone())]));
                    }
                }
            }
            available.extend(lit.vars());
            if i + 1 == m {
                // Final rule produces the head directly.
                out_rules.push(Rule::new(
                    rule.head.clone(),
                    vec![Literal::Atom(prev_sup.clone()), lit.clone()],
                ));
            } else {
                let next_sup = Atom::new(
                    sup_name(db.interner_mut(), i + 1),
                    sup_args(&available, &needed_after[i + 1]),
                );
                out_rules.push(Rule::new(
                    next_sup.clone(),
                    vec![Literal::Atom(prev_sup.clone()), lit.clone()],
                ));
                prev_sup = next_sup;
            }
        }
        if m == 0 {
            // Body-less adorned rule (cannot happen: facts are hoisted).
            out_rules.push(Rule::new(rule.head.clone(), vec![Literal::Atom(prev_sup)]));
        }
    }
    evaluate_rewritten(out_rules, query, &adorned, db, eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::magic::{magic_evaluate, magic_evaluate_with_options};
    use sepra_ast::{parse_program, parse_query};
    use sepra_storage::Relation;

    fn both(program_src: &str, facts: &str, query_src: &str) -> (MagicOutcome, MagicOutcome) {
        let mut db = Database::new();
        db.load_fact_text(facts).unwrap();
        let program = parse_program(program_src, db.interner_mut()).unwrap();
        let query = parse_query(query_src, db.interner_mut()).unwrap();
        let basic = magic_evaluate(&program, &query, &db).unwrap();
        let sup = magic_evaluate_supplementary(&program, &query, &db).unwrap();
        (basic, sup)
    }

    fn assert_same_tuples(a: &Relation, b: &Relation) {
        assert_eq!(a.len(), b.len());
        for t in a.iter() {
            assert!(b.contains_row(t));
        }
    }

    #[test]
    fn matches_basic_on_transitive_closure() {
        let (basic, sup) = both(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n",
            "e(a, b). e(b, c). e(c, d). e(d, b).",
            "t(a, Y)?",
        );
        assert_same_tuples(&basic.answers, &sup.answers);
        assert_eq!(basic.answers.len(), 3);
    }

    #[test]
    fn matches_basic_on_two_class_buys() {
        let (basic, sup) = both(
            "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
             buys(X, Y) :- buys(X, W), cheaper(Y, W).\n\
             buys(X, Y) :- perfectFor(X, Y).\n",
            "friend(tom, sue). friend(sue, joe). perfectFor(joe, w).\n\
             cheaper(b, w). cheaper(s, b).",
            "buys(tom, Y)?",
        );
        assert_same_tuples(&basic.answers, &sup.answers);
        assert_eq!(basic.answers.len(), 3);
    }

    #[test]
    fn matches_basic_on_long_bodies() {
        let (basic, sup) = both(
            "reach(X, Y) :- hop(X, A), hop(A, B), hop(B, W), reach(W, Y).\n\
             reach(X, Y) :- goal(X, Y).\n",
            "hop(n0, n1). hop(n1, n2). hop(n2, n3). hop(n3, n4). hop(n4, n5).\n\
             hop(n5, n6). goal(n3, g1). goal(n6, g2). goal(n0, g0).",
            "reach(n0, Y)?",
        );
        assert_same_tuples(&basic.answers, &sup.answers);
    }

    #[test]
    fn supplementary_saves_prefix_work_on_long_bodies() {
        // With a 3-atom prefix before the recursive call, basic magic
        // evaluates the prefix in both the magic rule and the guarded
        // rule; supplementary shares it. Both sides run with source-order
        // plans: the measured object is the rewrite, and cost-based
        // reordering narrows the gap enough to drown the comparison in
        // per-rule overhead.
        let mut facts = String::new();
        for i in 0..120 {
            facts.push_str(&format!("hop(n{i}, n{}). ", i + 1));
        }
        facts.push_str("goal(n120, finish). goal(n60, half).");
        let mut db = Database::new();
        db.load_fact_text(&facts).unwrap();
        let program = parse_program(
            "reach(X, Y) :- hop(X, A), hop(A, B), hop(B, W), reach(W, Y).\n\
             reach(X, Y) :- goal(X, Y).\n",
            db.interner_mut(),
        )
        .unwrap();
        let query = parse_query("reach(n0, Y)?", db.interner_mut()).unwrap();
        let eval =
            EvalOptions { plan_mode: sepra_eval::PlanMode::SourceOrder, ..EvalOptions::default() };
        let basic = magic_evaluate_with_options(&program, &query, &db, &eval).unwrap();
        let sup = magic_evaluate_supplementary_with_options(&program, &query, &db, &eval).unwrap();
        assert_same_tuples(&basic.answers, &sup.answers);
        assert!(
            sup.stats.rows_scanned < basic.stats.rows_scanned,
            "supplementary should scan fewer rows: {} vs {}",
            sup.stats.rows_scanned,
            basic.stats.rows_scanned
        );
    }

    /// Two demand sites on the same `S_1^2` recursion at different
    /// binding strength: `t@bf` from the query path, `t@bb` from the
    /// pinned path. Subsumptive magic answers the `bb` demand from the
    /// `bf` copy.
    const TWO_DEMAND: &str = "q(X, Y) :- t(X, Y).\n\
         q(X, Y) :- pin(X, Z, Y), t(Z, Y).\n\
         t(X, Y) :- a1(X, W), t(W, Y).\n\
         t(X, Y) :- t0(X, Y).\n";

    fn two_demand_db() -> Database {
        let mut db = Database::new();
        let mut facts = String::new();
        for i in 0..40 {
            facts.push_str(&format!("a1(n{i}, n{}). ", i + 1));
        }
        facts.push_str("t0(n40, fin). t0(n20, mid). pin(n0, n5, fin). pin(n0, n9, mid).");
        db.load_fact_text(&facts).unwrap();
        db
    }

    #[test]
    fn subsumptive_matches_basic_and_supplementary() {
        let db = two_demand_db();
        let mut db2 = db.clone();
        let program = parse_program(TWO_DEMAND, db2.interner_mut()).unwrap();
        let query = parse_query("q(n0, Y)?", db2.interner_mut()).unwrap();
        let basic = magic_evaluate(&program, &query, &db2).unwrap();
        let sup = magic_evaluate_supplementary(&program, &query, &db2).unwrap();
        let subsumptive = magic_evaluate_subsumptive(&program, &query, &db2).unwrap();
        assert_same_tuples(&basic.answers, &sup.answers);
        assert_same_tuples(&basic.answers, &subsumptive.answers);
        assert!(!subsumptive.answers.is_empty());
    }

    #[test]
    fn subsumptive_prunes_the_subsumed_adorned_copy() {
        let mut db = two_demand_db();
        let program = parse_program(TWO_DEMAND, db.interner_mut()).unwrap();
        let query = parse_query("q(n0, Y)?", db.interner_mut()).unwrap();
        let sup = magic_evaluate_supplementary(&program, &query, &db).unwrap();
        let subsumptive = magic_evaluate_subsumptive(&program, &query, &db).unwrap();
        let has_bb = |out: &MagicOutcome| {
            out.rewritten.predicates().iter().any(|&p| out.db.interner().resolve(p) == "t@bb")
        };
        assert!(has_bb(&sup), "plain supplementary keeps the specific copy");
        assert!(!has_bb(&subsumptive), "subsumptive collapses it");
        assert!(subsumptive.rewritten.rules.len() < sup.rewritten.rules.len());
        assert!(
            subsumptive.stats.rows_scanned < sup.stats.rows_scanned,
            "one adorned fixpoint instead of two should scan fewer rows: {} vs {}",
            subsumptive.stats.rows_scanned,
            sup.stats.rows_scanned
        );
    }

    #[test]
    fn matches_basic_on_same_generation() {
        let (basic, sup) = both(
            "sg(X, Y) :- flat(X, Y).\n\
             sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n",
            "up(a, p). up(b, q). flat(p, q). down(q, b2). down(p, a2). up(a2, p).",
            "sg(a, Y)?",
        );
        assert_same_tuples(&basic.answers, &sup.answers);
    }
}
