//! The Henschen–Naqvi iterative algorithm \[HN84\].
//!
//! Henschen and Naqvi compile a recursive query into an iterative program
//! that enumerates the *expansion strings* of the recursion one at a time:
//! each sequence of recursive-rule applications is evaluated as its own
//! relational expression, with no memoization across strings. The paper's
//! Section 1 makes two observations about it, both reproduced here:
//!
//! * with several recursive rules in a class, the number of strings of
//!   length `i` is `pⁱ`, so the total work is `Ω(2ⁿ)` on Example 1.1 —
//!   even though most strings reach exactly the same values (which the
//!   Separable algorithm's shared `seen_1` exploits);
//! * there is no `seen` set at all, so **cyclic data never converges**;
//!   the implementation bounds the descent depth and reports divergence.
//!
//! The exit join and the upward closure through the remaining equivalence
//! classes reuse the shared plan machinery, exactly as the Counting
//! baseline does — the measured object is the per-string descent.

use sepra_ast::Query;
use sepra_core::detect::SeparableRecursion;
use sepra_core::evaluate::{assemble, planner_stats, query_value_at};
use sepra_core::exec::{base_store, run_seed_and_phase2, ExecOptions, ExtraRelations};
use sepra_core::plan::{
    build_plan_with, classify_selection, PlanSelection, SelectionKind, AUX_CARRY1,
};
use sepra_eval::{filter_by_query, EvalError, IndexCache, Planner, RelKey};
use sepra_storage::{Database, EvalStats, Relation, Tuple, Value};

/// Options for the Henschen–Naqvi evaluation.
#[derive(Debug, Clone, Default)]
pub struct HnOptions {
    /// Maximum string length. Defaults to the number of distinct constants
    /// in the database and the materialized support together (longer
    /// strings must repeat a value, i.e. the data is cyclic and the
    /// enumeration does not terminate).
    pub max_depth: Option<usize>,
    /// Execution options for the answer phase.
    pub exec: ExecOptions,
}

/// The result of a Henschen–Naqvi evaluation.
#[derive(Debug)]
pub struct HnOutcome {
    /// Answers as full tuples of the query predicate.
    pub answers: Relation,
    /// Statistics; headline entries are `hn_work` (total frontier tuples
    /// across all strings and levels) and `hn_strings` (peak live strings).
    pub stats: EvalStats,
}

/// Evaluates `query` with the Henschen–Naqvi string-at-a-time strategy,
/// reading the nonrecursive subgoals from `extra` where materialized there
/// and from `db` otherwise.
///
/// Requires a full selection on one equivalence class, like the Counting
/// baseline.
pub fn hn_evaluate(
    sep: &SeparableRecursion,
    query: &Query,
    db: &Database,
    extra: &ExtraRelations,
    opts: &HnOptions,
) -> Result<HnOutcome, EvalError> {
    let SelectionKind::FullClass { class } = classify_selection(sep, query) else {
        return Err(EvalError::Unsupported(
            "the Henschen-Naqvi baseline supports selections that fully bind one class".into(),
        ));
    };
    let pstats = planner_stats(sep, db, extra);
    let planner = Planner::new(opts.exec.plan_mode, Some(&pstats));
    let plan = build_plan_with(sep, &PlanSelection::Class(class), &planner)?;
    let phase1 = plan.phase1.as_ref().expect("class plan has phase 1");
    let width = phase1.columns.len();
    let support = extra.values().map(|r| &**r);
    let max_depth = opts.max_depth.unwrap_or_else(|| db.distinct_constant_count(support).max(1));

    let mut stats = EvalStats::new();
    planner.record_into(&mut stats);

    // The seed string: the selection constants.
    let fixed: Vec<(usize, Value)> = phase1
        .columns
        .iter()
        .map(|&c| Ok((c, query_value_at(query, c)?)))
        .collect::<Result<_, EvalError>>()?;
    let mut seed = Relation::new(width);
    seed.insert(Tuple::from(fixed.iter().map(|&(_, v)| v).collect::<Vec<_>>()));

    // Every value vector reached by any string (fed to the answer phase).
    let mut reached = seed.clone();
    // Active strings: each is just its current frontier relation.
    let mut active: Vec<Relation> = vec![seed];
    let mut work: usize = 1;
    let mut peak_strings = 1usize;
    stats.record_size("hn_work", work);
    stats.record_size("hn_strings", peak_strings);

    let mut indexes = IndexCache::new();
    let mut level = 0usize;
    while !active.is_empty() {
        stats.record_iteration();
        level += 1;
        if level > max_depth {
            return Err(EvalError::Diverged {
                what: "Henschen-Naqvi string enumeration (cyclic data or depth bound exceeded)"
                    .into(),
                bound: max_depth,
            });
        }
        opts.exec.budget.check(
            "Henschen-Naqvi string enumeration",
            stats.iterations,
            stats.tuples_inserted,
        )?;
        let mut next: Vec<Relation> = Vec::with_capacity(active.len() * phase1.steps.len());
        for frontier in &active {
            for (_, step) in &phase1.steps {
                let mut store = base_store(db, extra, [step]);
                store.bind(RelKey::Aux(AUX_CARRY1), frontier);
                if opts.exec.use_indexes {
                    indexes.prepare(step, &store);
                }
                let mut out = Relation::new(width);
                step.execute(&store, &indexes, &[], &mut |row| {
                    let was_new = out.insert(Tuple::new(row.to_vec()));
                    stats.record_insert(was_new);
                });
                if !out.is_empty() {
                    work += out.len();
                    reached.union_in_place(&out);
                    next.push(out);
                }
            }
        }
        indexes.invalidate(RelKey::Aux(AUX_CARRY1));
        peak_strings = peak_strings.max(next.len());
        stats.record_size("hn_work", work);
        stats.record_size("hn_strings", peak_strings);
        active = next;
    }

    // Answer phase: shared exit join + upward closure over `reached`.
    stats.record_size("seen_1", reached.len());
    let seen2 = run_seed_and_phase2(
        &plan,
        db,
        extra,
        Some(&reached),
        &mut indexes,
        &opts.exec,
        &mut stats,
    )?;

    let mut full = Relation::new(sep.arity);
    for row in seen2.iter() {
        full.insert(assemble(sep.arity, &fixed, &plan.phase2.columns, row));
    }
    let answers = filter_by_query(query, &full)?;
    stats.record_size("ans", answers.len());
    Ok(HnOutcome { answers, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_ast::{parse_program, parse_query};
    use sepra_core::detect::detect_in_program;
    use sepra_eval::{query_answers, seminaive};

    const EX_1_1: &str = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
                          buys(X, Y) :- idol(X, W), buys(W, Y).\n\
                          buys(X, Y) :- perfectFor(X, Y).\n";

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

    #[test]
    fn hn_matches_seminaive_on_acyclic_data() {
        let facts = "friend(a, b). friend(b, c). idol(a, c). idol(c, d).\n\
                     perfectFor(d, widget). perfectFor(b, gadget).";
        let (sep, query, db, program) = setup(EX_1_1, facts, "buys", "buys(a, Y)?");
        let out =
            hn_evaluate(&sep, &query, &db, &Default::default(), &HnOptions::default()).unwrap();
        let derived = seminaive(&program, &db).unwrap();
        let expected = query_answers(&query, &db, Some(&derived)).unwrap();
        assert_eq!(out.answers, expected);
    }

    #[test]
    fn hn_work_is_exponential_on_example_1_1() {
        // friend = idol = chain: 2^i strings alive at level i, so total
        // work is 2^(n+1) - 1 frontier tuples.
        let n = 10;
        let mut facts = String::new();
        for i in 0..n {
            facts.push_str(&format!("friend(v{i}, v{}). idol(v{i}, v{}). ", i + 1, i + 1));
        }
        facts.push_str(&format!("perfectFor(v{n}, widget)."));
        let (sep, query, db, _) = setup(EX_1_1, &facts, "buys", "buys(v0, Y)?");
        let out =
            hn_evaluate(&sep, &query, &db, &Default::default(), &HnOptions::default()).unwrap();
        assert_eq!(out.stats.relation_sizes["hn_work"], (1 << (n + 1)) - 1);
        assert_eq!(out.stats.relation_sizes["hn_strings"], 1 << n);
        assert_eq!(out.answers.len(), 1);
    }

    #[test]
    fn hn_diverges_on_cyclic_data() {
        let facts = "friend(a, b). friend(b, a). perfectFor(a, w).";
        let (sep, query, db, _) = setup(EX_1_1, facts, "buys", "buys(a, Y)?");
        let err =
            hn_evaluate(&sep, &query, &db, &Default::default(), &HnOptions::default()).unwrap_err();
        assert!(matches!(err, EvalError::Diverged { .. }), "{err}");
    }

    #[test]
    fn hn_single_rule_is_linear() {
        let tc = "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n";
        let mut facts = String::new();
        for i in 0..30 {
            facts.push_str(&format!("e(v{i}, v{}). ", i + 1));
        }
        let (sep, query, db, program) = setup(tc, &facts, "t", "t(v0, Y)?");
        let out =
            hn_evaluate(&sep, &query, &db, &Default::default(), &HnOptions::default()).unwrap();
        assert_eq!(out.stats.relation_sizes["hn_work"], 31);
        assert_eq!(out.stats.relation_sizes["hn_strings"], 1);
        let derived = seminaive(&program, &db).unwrap();
        let expected = query_answers(&query, &db, Some(&derived)).unwrap();
        assert_eq!(out.answers, expected);
    }

    #[test]
    fn hn_rejects_persistent_selection() {
        let facts = "friend(a, b). perfectFor(b, w).";
        let (sep, query, db, _) = setup(EX_1_1, facts, "buys", "buys(X, w)?");
        assert!(matches!(
            hn_evaluate(&sep, &query, &db, &Default::default(), &HnOptions::default()),
            Err(EvalError::Unsupported(_))
        ));
    }
}
