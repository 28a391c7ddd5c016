//! Naive fixpoint evaluation.
//!
//! Re-derives every rule against the full relations each iteration until no
//! new tuple appears. Quadratically slower than [`seminaive`](crate::seminaive::seminaive) on
//! deep recursions; kept as the simplest possible ground truth for
//! cross-validation and as the baseline in the iteration-strategy ablation.

use std::sync::Arc;

use sepra_ast::{Literal, Program, Sym};
use sepra_storage::{Database, EvalStats, FxHashMap, Relation, Tuple};

use crate::error::EvalError;
use crate::plan::{PlanLiteral, RelKey};
use crate::planner::{Planner, PlannerStats};
use crate::seminaive::{
    agg_specs, rule_strata, seed_from_edb, stratified_graph, AggState, Derived, EvalOptions,
    VALUE_ITERATION_CAP,
};
use crate::store::{IndexCache, RelStore};

/// Evaluates `program` over `db` naively.
pub fn naive(program: &Program, db: &Database) -> Result<Derived, EvalError> {
    naive_with_options(program, db, &EvalOptions::default())
}

/// [`naive`] with explicit [`EvalOptions`]. The budget is honoured: the
/// re-derivation loop checks it once per iteration.
pub fn naive_with_options(
    program: &Program,
    db: &Database,
    options: &EvalOptions,
) -> Result<Derived, EvalError> {
    let mut stats = EvalStats::new();
    // Same up-front guard as the semi-naive engine: no fixpoint runs on a
    // program without a stratified model.
    let graph = stratified_graph(program, db.interner())?;
    // As in the semi-naive engine, statistics grow with completed strata so
    // derived predicates inform later strata's join orders.
    let mut planner_stats = PlannerStats::from_database(db);

    let aggs = agg_specs(program);
    // Aggregate heads start empty: naive evaluation recomputes them from
    // every contribution (EDB facts included) each iteration.
    let mut derived = seed_from_edb(program, db, &aggs);

    for (stratum_idb, rules) in rule_strata(&graph, program) {
        let mut plans = Vec::new();
        {
            let planner = Planner::new(options.plan_mode, Some(&planner_stats));
            for rule in &rules {
                let body: Vec<PlanLiteral> =
                    rule.body.iter().map(|l| PlanLiteral::from_literal(l, &RelKey::Pred)).collect();
                plans.push((rule.head.pred, planner.plan(&body, 0, &rule.head.terms)?));
            }
            planner.record_into(&mut stats);
        }
        // Sums and aggregates can mint fresh values; cap those fixpoints
        // (mirrors the semi-naive engine's guard).
        let capped = stratum_idb.iter().any(|p| aggs.contains_key(p))
            || rules.iter().any(|r| r.body.iter().any(|l| matches!(l, Literal::Sum(..))));
        let mut indexes = IndexCache::new();
        let mut rounds = 0usize;
        loop {
            stats.record_iteration();
            rounds += 1;
            if capped && rounds > VALUE_ITERATION_CAP {
                return Err(EvalError::Diverged {
                    what: "fixpoint over sums/aggregates".into(),
                    bound: VALUE_ITERATION_CAP,
                });
            }
            options.budget.check("naive fixpoint", stats.iterations, stats.tuples_inserted)?;
            let mut buffers: FxHashMap<Sym, Vec<Tuple>> = FxHashMap::default();
            {
                let mut store = RelStore::new();
                for (p, r) in db.relations() {
                    store.bind(RelKey::Pred(p), r);
                }
                for (&p, r) in &derived {
                    store.bind(RelKey::Pred(p), r);
                }
                for (head, plan) in &plans {
                    indexes.prepare(plan, &store);
                    let buf = buffers.entry(*head).or_default();
                    plan.execute(&store, &indexes, &[], &mut |row| {
                        buf.push(Tuple::new(row.to_vec()));
                    });
                }
            }
            let mut any_new = false;
            for (pred, tuples) in buffers {
                if let Some(spec) = aggs.get(&pred) {
                    // Naive evaluation of an aggregate head recomputes the
                    // whole relation from this iteration's contributions
                    // (EDB facts plus every rule output) — the simplest
                    // possible reading, kept as ground truth.
                    let mut fresh = Relation::new(derived[&pred].arity());
                    let mut state = AggState::new(spec, fresh.arity());
                    let edb = db.relation(pred).into_iter().flatten().map(|row| row.to_vec());
                    state.merge(edb, &mut fresh, &mut stats, None);
                    state.merge(tuples.iter().map(Tuple::values), &mut fresh, &mut stats, None);
                    let rel = derived.get_mut(&pred).expect("derived exists");
                    if fresh != **rel {
                        any_new = true;
                        *rel = Arc::new(fresh);
                    }
                } else {
                    let rel = Arc::make_mut(derived.get_mut(&pred).expect("derived exists"));
                    for t in tuples {
                        let was_new = rel.insert(t);
                        stats.record_insert(was_new);
                        any_new |= was_new;
                    }
                }
            }
            if !any_new {
                break;
            }
        }
        for &p in &stratum_idb {
            planner_stats.add_relation(p, &derived[&p]);
        }
    }
    for (&pred, rel) in &derived {
        stats.record_size(db.interner().resolve(pred), rel.len());
    }
    Ok(Derived { relations: derived, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seminaive::seminaive;
    use sepra_ast::parse_program;

    fn both(program_src: &str, facts: &str) -> (Derived, Derived, Database) {
        let mut db = Database::new();
        db.load_fact_text(facts).unwrap();
        let program = parse_program(program_src, db.interner_mut()).unwrap();
        let n = naive(&program, &db).unwrap();
        let s = seminaive(&program, &db).unwrap();
        (n, s, db)
    }

    #[test]
    fn naive_matches_seminaive_on_closure() {
        let (n, s, mut db) = both(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n",
            "e(a, b). e(b, c). e(c, a). e(c, d).",
        );
        let t = db.intern("t");
        assert_eq!(n.relation(t).unwrap(), s.relation(t).unwrap());
    }

    #[test]
    fn naive_matches_seminaive_on_same_generation() {
        let (n, s, mut db) = both(
            "sg(X, Y) :- flat(X, Y).\n\
             sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n",
            "up(a, p). up(b, p). up(c, q). flat(p, q). down(p, d). down(q, e).",
        );
        let sg = db.intern("sg");
        assert_eq!(n.relation(sg).unwrap(), s.relation(sg).unwrap());
    }

    #[test]
    fn naive_matches_seminaive_on_stratified_constructs() {
        let (n, s, mut db) = both(
            "t(X, Y) :- e(X, Y).\n\
             t(X, Y) :- e(X, W), t(W, Y).\n\
             unreach(X, Y) :- node(X), node(Y), !t(X, Y).\n\
             reach(X, count<Y>) :- t(X, Y).\n\
             shortest(Y, min<C>) :- source(X), w(X, Y, C).\n\
             shortest(Y, min<C>) :- shortest(X, D), w(X, Y, W2), C = D + W2.\n",
            "e(a, b). e(b, c). node(a). node(b). node(c). source(a). \
             w(a, b, 1). w(b, c, 1). w(a, c, 5).",
        );
        for name in ["unreach", "reach", "shortest"] {
            let p = db.intern(name);
            assert_eq!(n.relation(p).unwrap(), s.relation(p).unwrap(), "{name} diverged");
        }
    }

    #[test]
    fn naive_refuses_unstratifiable_programs() {
        let mut db = Database::new();
        db.load_fact_text("a(x).").unwrap();
        let program =
            parse_program("p(X) :- a(X), !q(X).\nq(X) :- p(X).\n", db.interner_mut()).unwrap();
        assert!(matches!(naive(&program, &db), Err(EvalError::Unstratifiable(_))));
    }

    #[test]
    fn naive_does_more_redundant_work() {
        let chain: String = (0..30).map(|i| format!("e(n{}, n{}). ", i, i + 1)).collect();
        let (n, s, _) = both("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n", &chain);
        assert!(
            n.stats.insert_attempts > s.stats.insert_attempts,
            "naive {} vs semi-naive {}",
            n.stats.insert_attempts,
            s.stats.insert_attempts
        );
    }
}
