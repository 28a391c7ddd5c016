//! The Generalized Counting Method \[BMSU86, BR87, SZ86\].
//!
//! For a selection that binds one equivalence class of a linear recursion,
//! Counting descends from the selection constants exactly as the paper's
//! rewritten rules do (Section 4):
//!
//! ```text
//! count(0, 0, x0).
//! count(I+1, (p+1)*K + 1, W) :- count(I, K, X) & a_1(X, W).
//! count(I+1, (p+1)*K + 2, W) :- count(I, K, X) & a_2(X, W).
//! ...
//! ```
//!
//! The second index is the *path code*: a base-`p+1` encoding of the exact
//! sequence of rule applications. Because tuples with different codes are
//! distinct, the `count` relation holds one tuple per derivation path — the
//! source of the `Ω(p^n)` lower bound of Lemma 4.3 (and the `Ω(2^n)` blowup
//! on Example 1.1). With a single recursive rule the code stays `0…0` and
//! Counting behaves well, which is why it was competitive on chain rules.
//!
//! Two failure modes are detected rather than looped on:
//! * **cyclic data** — the descent's level would exceed the number of
//!   distinct constants, so some value repeats on a path and the true
//!   count relation is infinite; reported as [`EvalError::Diverged`]
//!   (Henschen–Naqvi-style methods share this restriction, as the paper
//!   notes in Section 1);
//! * **code overflow** — the path code leaves the 62-bit integer space;
//!   reported as a value error (the relation being materialized is
//!   exponential either way — benchmarks cap the depth).
//!
//! The answer phase (join with the exit relation, then the upward closure
//! through the remaining classes) reuses the shared plan machinery; the
//! measured object is the descent's `count` relation.

use sepra_ast::Query;
use sepra_core::detect::SeparableRecursion;
use sepra_core::evaluate::{assemble, planner_stats, query_value_at};
use sepra_core::exec::{base_store, run_seed_and_phase2, ExecOptions, ExtraRelations};
use sepra_core::plan::{build_plan_with, classify_selection, PlanSelection, SelectionKind};
use sepra_eval::{filter_by_query, EvalError, IndexCache, Planner, RelKey};
use sepra_storage::{Database, EvalStats, Relation, Tuple, Value};

/// Options for the Counting evaluation.
#[derive(Debug, Clone, Default)]
pub struct CountingOptions {
    /// Maximum descent depth. Defaults to the number of distinct constants
    /// in the database and the materialized support together (any deeper
    /// level must repeat a value on some path, i.e. the data is cyclic and
    /// Counting does not terminate).
    pub max_depth: Option<usize>,
    /// Execution options for the answer phase.
    pub exec: ExecOptions,
}

/// The result of a Counting evaluation.
#[derive(Debug)]
pub struct CountingOutcome {
    /// Answers as full tuples of the query predicate.
    pub answers: Relation,
    /// Statistics; the headline entry is `count`, the size of the count
    /// relation (level, path code, class values).
    pub stats: EvalStats,
    /// The materialized count relation: `(level, code, v_1, ..., v_w)`.
    pub count: Relation,
}

/// Evaluates `query` with the Generalized Counting Method, reading the
/// nonrecursive subgoals from `extra` where materialized there and from
/// `db` otherwise (as [`sepra_core::evaluate::SeparableEvaluator::evaluate`]
/// does).
///
/// The recursion must be separable-shaped (the paper benchmarks Counting on
/// exactly such programs) and the query must fully bind one class.
pub fn counting_evaluate(
    sep: &SeparableRecursion,
    query: &Query,
    db: &Database,
    extra: &ExtraRelations,
    opts: &CountingOptions,
) -> Result<CountingOutcome, EvalError> {
    let SelectionKind::FullClass { class } = classify_selection(sep, query) else {
        return Err(EvalError::Unsupported(
            "counting baseline supports selections that fully bind one equivalence class".into(),
        ));
    };
    let pstats = planner_stats(sep, db, extra);
    let planner = Planner::new(opts.exec.plan_mode, Some(&pstats));
    let plan = build_plan_with(sep, &PlanSelection::Class(class), &planner)?;
    let phase1 = plan.phase1.as_ref().expect("class plan has phase 1");
    let width = phase1.columns.len();
    let n_rules = phase1.steps.len();
    let base = (n_rules as i64) + 1;

    let support = extra.values().map(|r| &**r);
    let max_depth = opts.max_depth.unwrap_or_else(|| db.distinct_constant_count(support).max(1));

    let mut stats = EvalStats::new();
    planner.record_into(&mut stats);

    // count(0, 0, x0): seed from the query constants.
    let fixed: Vec<(usize, Value)> = phase1
        .columns
        .iter()
        .map(|&c| Ok((c, query_value_at(query, c)?)))
        .collect::<Result<_, EvalError>>()?;
    let seed_vals: Vec<Value> = fixed.iter().map(|&(_, v)| v).collect();

    let mut count = Relation::new(2 + width);
    let mut frontier = Relation::new(1 + width); // (code, class values)
    {
        let mut first = vec![Value::int(0)?];
        first.extend(seed_vals.iter().copied());
        frontier.insert(Tuple::new(first));
        let mut row = vec![Value::int(0)?, Value::int(0)?];
        row.extend(seed_vals.iter().copied());
        count.insert(Tuple::new(row));
    }
    stats.record_size("count", count.len());

    let mut indexes = IndexCache::new();
    let mut level: i64 = 0;
    while !frontier.is_empty() {
        stats.record_iteration();
        level += 1;
        if level as usize > max_depth {
            return Err(EvalError::Diverged {
                what: "counting descent (cyclic data or depth bound exceeded)".into(),
                bound: max_depth,
            });
        }
        opts.exec.budget.check("counting descent", stats.iterations, stats.tuples_inserted)?;
        let mut next = Relation::new(1 + width);
        {
            // Project the frontier's class values for the join; remember
            // which codes carried each value vector.
            let mut carry = Relation::new(width);
            let mut codes_of: sepra_storage::FxHashMap<Tuple, Vec<i64>> =
                sepra_storage::FxHashMap::default();
            for t in frontier.iter() {
                let code = t[0].as_int().expect("code column is an int");
                let vals = Tuple::new(t.values().skip(1).collect::<Vec<_>>());
                carry.insert(vals.clone());
                codes_of.entry(vals).or_default().push(code);
            }
            let mut store = base_store(db, extra, phase1.steps.iter().map(|(_, step)| step));
            store.bind(RelKey::Aux(sepra_core::plan::AUX_CARRY1), &carry);
            for (j, (_, step)) in phase1.steps.iter().enumerate() {
                indexes.prepare(step, &store);
                // The step plan's first atom scans the carry; to recover
                // which carry tuple produced each output we re-run per carry
                // tuple. Carry tuples are few compared to the path codes
                // that multiply below.
                for (vals, codes) in &codes_of {
                    let mut single = Relation::new(width);
                    single.insert(vals.clone());
                    let mut sub_store = base_store(db, extra, [step]);
                    sub_store.bind(RelKey::Aux(sepra_core::plan::AUX_CARRY1), &single);
                    let mut emitted: Vec<Tuple> = Vec::new();
                    step.execute(&sub_store, &indexes, &[], &mut |row| {
                        emitted.push(Tuple::new(row.to_vec()));
                    });
                    for out_vals in emitted {
                        for &code in codes {
                            let new_code = code
                                .checked_mul(base)
                                .and_then(|c| c.checked_add(j as i64 + 1))
                                .ok_or(EvalError::Value(
                                    sepra_storage::value::ValueError::IntOutOfRange(i64::MAX),
                                ))?;
                            let mut row = vec![Value::int(new_code)?];
                            row.extend(out_vals.values().iter().copied());
                            let t = Tuple::new(row);
                            let was_new = next.insert(t.clone());
                            stats.record_insert(was_new);
                            if was_new {
                                let mut crow = vec![Value::int(level)?, t[0]];
                                crow.extend(t.values()[1..].iter().copied());
                                count.insert(Tuple::new(crow));
                            }
                        }
                    }
                }
            }
        }
        indexes.invalidate(RelKey::Aux(sepra_core::plan::AUX_CARRY1));
        stats.record_size("count", count.len());
        frontier = next;
    }

    // Answer phase: seen_1 = the distinct class values reached at any
    // level; then the shared exit join + upward closure.
    let mut seen1 = Relation::new(width);
    for t in count.iter() {
        seen1.insert(Tuple::new(t.values().skip(2).collect::<Vec<_>>()));
    }
    stats.record_size("seen_1", seen1.len());
    let seen2 =
        run_seed_and_phase2(&plan, db, extra, Some(&seen1), &mut indexes, &opts.exec, &mut stats)?;

    let mut full = Relation::new(sep.arity);
    for row in seen2.iter() {
        full.insert(assemble(sep.arity, &fixed, &plan.phase2.columns, row));
    }
    let answers = filter_by_query(query, &full)?;
    stats.record_size("ans", answers.len());
    Ok(CountingOutcome { answers, stats, count })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_ast::{parse_program, parse_query};
    use sepra_core::detect::detect_in_program;
    use sepra_eval::{query_answers, seminaive};

    fn setup(
        program_src: &str,
        facts: &str,
        pred: &str,
        query_src: &str,
    ) -> (SeparableRecursion, Query, Database, sepra_ast::Program) {
        let mut db = Database::new();
        db.load_fact_text(facts).unwrap();
        let program = parse_program(program_src, db.interner_mut()).unwrap();
        let p = db.intern(pred);
        let sep = detect_in_program(&program, p, db.interner_mut()).unwrap();
        let query = parse_query(query_src, db.interner_mut()).unwrap();
        (sep, query, db, program)
    }

    const EX_1_1: &str = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
                          buys(X, Y) :- idol(X, W), buys(W, Y).\n\
                          buys(X, Y) :- perfectFor(X, Y).\n";

    #[test]
    fn counting_matches_seminaive_on_acyclic_data() {
        let facts = "friend(a, b). friend(b, c). idol(a, c). idol(c, d).\n\
                     perfectFor(d, widget). perfectFor(c, gadget).";
        let (sep, query, db, program) = setup(EX_1_1, facts, "buys", "buys(a, Y)?");
        let out =
            counting_evaluate(&sep, &query, &db, &Default::default(), &CountingOptions::default())
                .unwrap();
        let derived = seminaive(&program, &db).unwrap();
        let expected = query_answers(&query, &db, Some(&derived)).unwrap();
        assert_eq!(out.answers, expected);
    }

    #[test]
    fn count_relation_blows_up_exponentially() {
        // friend = idol = a chain of length n: every one of the 2^i rule
        // sequences of length i reaches node i, so count has ~2^(n+1) rows
        // (the Section 4 example).
        let n = 10;
        let mut facts = String::new();
        for i in 0..n {
            facts.push_str(&format!("friend(v{i}, v{}). idol(v{i}, v{}). ", i + 1, i + 1));
        }
        facts.push_str(&format!("perfectFor(v{n}, widget)."));
        let (sep, query, db, _) = setup(EX_1_1, &facts, "buys", "buys(v0, Y)?");
        let out =
            counting_evaluate(&sep, &query, &db, &Default::default(), &CountingOptions::default())
                .unwrap();
        // Sum over i of 2^i = 2^(n+1) - 1 count tuples.
        assert_eq!(out.count.len(), (1 << (n + 1)) - 1);
        assert_eq!(out.answers.len(), 1);
    }

    #[test]
    fn single_rule_counting_stays_linear() {
        let tc = "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n";
        let mut facts = String::new();
        for i in 0..20 {
            facts.push_str(&format!("e(v{i}, v{}). ", i + 1));
        }
        let (sep, query, db, program) = setup(tc, &facts, "t", "t(v0, Y)?");
        let out =
            counting_evaluate(&sep, &query, &db, &Default::default(), &CountingOptions::default())
                .unwrap();
        assert_eq!(out.count.len(), 21); // one tuple per level
        let derived = seminaive(&program, &db).unwrap();
        let expected = query_answers(&query, &db, Some(&derived)).unwrap();
        assert_eq!(out.answers, expected);
    }

    #[test]
    fn cyclic_data_is_detected() {
        let tc = "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n";
        let facts = "e(a, b). e(b, a).";
        let (sep, query, db, _) = setup(tc, facts, "t", "t(a, Y)?");
        let err =
            counting_evaluate(&sep, &query, &db, &Default::default(), &CountingOptions::default())
                .unwrap_err();
        assert!(matches!(err, EvalError::Diverged { .. }), "{err}");
    }

    #[test]
    fn two_class_recursion_answer_phase() {
        let p = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
                 buys(X, Y) :- buys(X, W), cheaper(Y, W).\n\
                 buys(X, Y) :- perfectFor(X, Y).\n";
        let facts = "friend(tom, sue). friend(sue, joe).\n\
                     perfectFor(joe, widget). cheaper(bargain, widget). cheaper(steal, bargain).";
        let (sep, query, db, program) = setup(p, facts, "buys", "buys(tom, Y)?");
        let out =
            counting_evaluate(&sep, &query, &db, &Default::default(), &CountingOptions::default())
                .unwrap();
        let derived = seminaive(&program, &db).unwrap();
        let expected = query_answers(&query, &db, Some(&derived)).unwrap();
        assert_eq!(out.answers, expected);
        assert_eq!(out.answers.len(), 3);
    }

    #[test]
    fn path_code_overflow_is_reported() {
        // A single-rule descent on a 2-cycle keeps exactly one frontier
        // tuple per level while its path code doubles each step; overriding
        // the cyclic-data depth bound forces the code past 2^62, which must
        // surface as a value error rather than wrap.
        let tc = "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n";
        let facts = "e(a, b). e(b, a).";
        let (sep, query, db, _) = setup(tc, facts, "t", "t(a, Y)?");
        let opts = CountingOptions { max_depth: Some(200), ..Default::default() };
        let err = counting_evaluate(&sep, &query, &db, &Default::default(), &opts).unwrap_err();
        assert!(matches!(err, EvalError::Value(_)), "expected overflow, got {err}");
    }

    #[test]
    fn persistent_selection_is_unsupported() {
        let facts = "friend(a, b). perfectFor(b, w).";
        let (sep, query, db, _) = setup(EX_1_1, facts, "buys", "buys(X, w)?");
        let err =
            counting_evaluate(&sep, &query, &db, &Default::default(), &CountingOptions::default())
                .unwrap_err();
        assert!(matches!(err, EvalError::Unsupported(_)));
    }
}
