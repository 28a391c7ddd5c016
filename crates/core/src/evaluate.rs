//! End-to-end evaluation of selections on separable recursions, including
//! the Lemma 2.1 decomposition of partial selections.
//!
//! * **Full selections** (Definition 2.7) run the compiled Figure 2 schema
//!   directly: selection constants seed `carry_1` (class selections) or are
//!   baked into the seed plans (persistent selections).
//! * **Partial selections** are decomposed per Lemma 2.1: the recursion is
//!   split into `t_part` (the recursion without the partially bound class
//!   `e_1`, whose columns thereby become persistent) and `t_full` (the whole
//!   recursion, reached through one up-front application of an `e_1` rule
//!   that binds all of `t|e_1` by sideways information passing). The
//!   answers are the union of the two branches — each of which is a *full*
//!   selection, evaluated with the specialized algorithm.

use std::collections::BTreeSet;
use std::sync::Arc;

use sepra_ast::{Query, Sym, Term};
use sepra_eval::{
    filter_by_query, ConjPlan, EvalError, IndexCache, PlanLiteral, Planner, PlannerStats, RelKey,
};
use sepra_storage::{Database, EvalStats, FxHashMap, Relation, Tuple, Value};

use crate::cache::PlanCache;
use crate::detect::{EquivClass, SeparableRecursion};
use crate::exec::{base_store, execute_plan, ExecOptions, ExtraRelations};
use crate::justify::{Justification, JustificationTracker};
use crate::plan::{
    build_plan, build_plan_with, classify_selection, PlanSelection, SelectionKind, SeparablePlan,
};

/// How a query was evaluated (for `EXPLAIN`-style reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyNote {
    /// A single full-selection run on the given class.
    FullClass {
        /// The selected class.
        class: usize,
    },
    /// A single persistent-selection run.
    Persistent {
        /// The bound persistent columns.
        bound: Vec<usize>,
    },
    /// The Lemma 2.1 decomposition.
    Decomposed {
        /// The partially bound class that was split out.
        class: usize,
        /// Number of distinct `carry_1` seed vectors evaluated in the
        /// `t_full` branch.
        distinct_seeds: usize,
    },
}

/// The result of evaluating a selection with the Separable algorithm.
#[derive(Debug)]
pub struct SeparableOutcome {
    /// Answers as full tuples of the query predicate.
    pub answers: Relation,
    /// The paper's cost metric: peak sizes of every constructed relation.
    pub stats: EvalStats,
    /// How the query was evaluated.
    pub strategy: StrategyNote,
}

/// The statistics an evaluation of `sep` plans by: the EDB's, and those of
/// the `extra` relations its rules read other than its own. An `extra`
/// relation keeps none, so each is counted by a scan: once, and only these.
pub fn planner_stats(
    sep: &SeparableRecursion,
    db: &Database,
    extra: &ExtraRelations,
) -> PlannerStats {
    let mut pstats = PlannerStats::from_database(db);
    let rules = sep.recursive_rules.iter().chain(&sep.exit_rules);
    let read: BTreeSet<Sym> = rules.flat_map(|r| r.body_atoms()).map(|a| a.pred).collect();
    for p in read.into_iter().filter(|&p| p != sep.pred) {
        if let Some(r) = extra.get(&p) {
            pstats.add_relation(p, r);
        }
    }
    pstats
}

/// Evaluates selections on one detected separable recursion.
///
/// ```
/// use sepra_core::detect::detect_in_program;
/// use sepra_core::evaluate::SeparableEvaluator;
/// use sepra_storage::Database;
///
/// let mut db = Database::new();
/// db.load_fact_text("friend(tom, sue). perfectFor(sue, widget).").unwrap();
/// let program = sepra_ast::parse_program(
///     "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
///      buys(X, Y) :- perfectFor(X, Y).\n",
///     db.interner_mut(),
/// )
/// .unwrap();
/// let buys = db.intern("buys");
/// let sep = detect_in_program(&program, buys, db.interner_mut()).unwrap();
/// let query = sepra_ast::parse_query("buys(tom, Y)?", db.interner_mut()).unwrap();
/// let outcome = SeparableEvaluator::new(sep)
///     .evaluate(&query, &db, &Default::default())
///     .unwrap();
/// assert_eq!(outcome.answers.len(), 1); // buys(tom, widget)
/// ```
#[derive(Debug, Clone)]
pub struct SeparableEvaluator {
    /// Shared, not owned: a query server builds one evaluator per query
    /// from the recursion it detected once.
    sep: Arc<SeparableRecursion>,
    opts: ExecOptions,
    plan_cache: Option<Arc<PlanCache>>,
}

impl SeparableEvaluator {
    /// Creates an evaluator with default options.
    pub fn new(sep: impl Into<Arc<SeparableRecursion>>) -> Self {
        Self::with_options(sep, ExecOptions::default())
    }

    /// Creates an evaluator with explicit options.
    pub fn with_options(sep: impl Into<Arc<SeparableRecursion>>, opts: ExecOptions) -> Self {
        SeparableEvaluator { sep: sep.into(), opts, plan_cache: None }
    }

    /// Attaches a shared [`PlanCache`], so repeated class selections reuse
    /// their compiled Figure 2 plans instead of rebuilding them.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Evaluates `query` against `db` (plus any pre-materialized `extra`
    /// relations for non-recursive IDB base predicates).
    pub fn evaluate(
        &self,
        query: &Query,
        db: &Database,
        extra: &ExtraRelations,
    ) -> Result<SeparableOutcome, EvalError> {
        if query.atom.pred != self.sep.pred {
            return Err(EvalError::Planning("query predicate does not match recursion".into()));
        }
        if query.atom.arity() != self.sep.arity {
            return Err(EvalError::Planning("query arity does not match recursion".into()));
        }
        let pstats = planner_stats(&self.sep, db, extra);
        let planner = Planner::new(self.opts.plan_mode, Some(&pstats));
        let mut outcome = evaluate_inner(
            &self.sep,
            query,
            db,
            extra,
            &self.opts,
            self.plan_cache.as_deref(),
            &planner,
            0,
        )?;
        planner.record_into(&mut outcome.stats);
        Ok(outcome)
    }

    /// Evaluates a *full* selection and additionally returns, for every
    /// answer, one justification — the derivation `J(a)` from the proof of
    /// Lemma 3.1 (why-provenance). Partial selections are not supported
    /// (their answers mix derivations from the two Lemma 2.1 branches).
    pub fn evaluate_with_justifications(
        &self,
        query: &Query,
        db: &Database,
        extra: &ExtraRelations,
    ) -> Result<(SeparableOutcome, FxHashMap<Tuple, Justification>), EvalError> {
        if query.atom.pred != self.sep.pred || query.atom.arity() != self.sep.arity {
            return Err(EvalError::Planning("query does not match recursion".into()));
        }
        let sep = &self.sep;
        let (plan, fixed, strategy) = match classify_selection(sep, query) {
            SelectionKind::FullClass { class } => {
                let plan = build_plan(sep, &PlanSelection::Class(class))?;
                let fixed: Vec<(usize, Value)> = sep.classes[class]
                    .columns
                    .iter()
                    .map(|&c| Ok((c, query_value_at(query, c)?)))
                    .collect::<Result<_, EvalError>>()?;
                (plan, fixed, StrategyNote::FullClass { class })
            }
            SelectionKind::Persistent { bound } => {
                let fixed: Vec<(usize, Value)> = bound
                    .iter()
                    .map(|&c| Ok((c, query_value_at(query, c)?)))
                    .collect::<Result<_, EvalError>>()?;
                let plan = build_plan(sep, &PlanSelection::Persistent(fixed.clone()))?;
                (plan, fixed, StrategyNote::Persistent { bound })
            }
            SelectionKind::Partial { .. } => {
                return Err(EvalError::Unsupported(
                    "justifications are only tracked for full selections".into(),
                ))
            }
            SelectionKind::NoSelection => {
                return Err(EvalError::Unsupported(
                    "the Separable algorithm requires a selection".into(),
                ))
            }
        };
        let init1 = plan.phase1.as_ref().map(|_| {
            let mut init = Relation::new(fixed.len());
            init.insert(Tuple::from(fixed.iter().map(|&(_, v)| v).collect::<Vec<_>>()));
            init
        });
        let mut stats = EvalStats::new();
        let mut tracker = JustificationTracker::new();
        let raw =
            execute_plan(&plan, db, extra, init1, &self.opts, &mut stats, Some(&mut tracker))?;
        let mut full = Relation::new(sep.arity);
        let mut justifications: FxHashMap<Tuple, Justification> = FxHashMap::default();
        for row in raw.seen2.iter() {
            let tuple = assemble(sep.arity, &fixed, &plan.phase2.columns, row);
            if let Some(j) = tracker.justify(&row.to_tuple()) {
                justifications.entry(tuple.clone()).or_insert(j);
            }
            full.insert(tuple);
        }
        let answers = filter_by_query(query, &full)?;
        justifications.retain(|t, _| answers.contains(t));
        stats.record_size("ans", answers.len());
        Ok((SeparableOutcome { answers, stats, strategy }, justifications))
    }
}

const MAX_DECOMPOSITION_DEPTH: usize = 8;

#[allow(clippy::too_many_arguments)]
fn evaluate_inner(
    sep: &SeparableRecursion,
    query: &Query,
    db: &Database,
    extra: &ExtraRelations,
    opts: &ExecOptions,
    cache: Option<&PlanCache>,
    planner: &Planner<'_>,
    depth: usize,
) -> Result<SeparableOutcome, EvalError> {
    if depth > MAX_DECOMPOSITION_DEPTH {
        return Err(EvalError::Unsupported(
            "selection decomposition exceeded the maximum depth".into(),
        ));
    }
    match classify_selection(sep, query) {
        SelectionKind::NoSelection => Err(EvalError::Unsupported(
            "the Separable algorithm requires at least one selection constant".into(),
        )),
        SelectionKind::FullClass { class } => {
            evaluate_full_class(sep, query, class, db, extra, opts, cache, planner)
        }
        SelectionKind::Persistent { bound } => {
            evaluate_persistent(sep, query, &bound, db, extra, opts, planner)
        }
        SelectionKind::Partial { class } => {
            evaluate_partial(sep, query, class, db, extra, opts, cache, planner, depth)
        }
    }
}

/// Builds (or fetches) the class-selection plan, consulting `cache` when
/// one is attached.
fn class_plan(
    sep: &SeparableRecursion,
    class: usize,
    cache: Option<&PlanCache>,
    planner: &Planner<'_>,
    db: &Database,
) -> Result<Arc<SeparablePlan>, EvalError> {
    match cache {
        Some(cache) => cache.class_plan(sep, class, planner, db),
        None => Ok(Arc::new(build_plan_with(sep, &PlanSelection::Class(class), planner)?)),
    }
}

/// The query constant at position `pos`.
pub fn query_value_at(query: &Query, pos: usize) -> Result<Value, EvalError> {
    match &query.atom.terms[pos] {
        Term::Const(c) => Ok(Value::from_const(*c)?),
        Term::Var(_) => {
            Err(EvalError::Planning(format!("query position {pos} expected to be a constant")))
        }
    }
}

/// Builds a full tuple from fixed `(position, value)` pairs plus the
/// phase-2 row at `rest_cols`.
pub fn assemble(
    arity: usize,
    fixed: &[(usize, Value)],
    rest_cols: &[usize],
    row: sepra_storage::Row<'_>,
) -> Tuple {
    debug_assert_eq!(fixed.len() + rest_cols.len(), arity);
    let placeholder = fixed
        .first()
        .map(|&(_, v)| v)
        .or_else(|| row.values().next())
        .unwrap_or_else(|| Value::sym(sepra_ast::Sym(0)));
    let mut values = vec![placeholder; arity];
    for &(pos, v) in fixed {
        values[pos] = v;
    }
    for (i, &pos) in rest_cols.iter().enumerate() {
        values[pos] = row[i];
    }
    Tuple::from(values)
}

#[allow(clippy::too_many_arguments)]
fn evaluate_full_class(
    sep: &SeparableRecursion,
    query: &Query,
    class: usize,
    db: &Database,
    extra: &ExtraRelations,
    opts: &ExecOptions,
    cache: Option<&PlanCache>,
    planner: &Planner<'_>,
) -> Result<SeparableOutcome, EvalError> {
    let plan = class_plan(sep, class, cache, planner, db)?;
    let cols = &sep.classes[class].columns;
    let fixed: Vec<(usize, Value)> = cols
        .iter()
        .map(|&c| Ok((c, query_value_at(query, c)?)))
        .collect::<Result<_, EvalError>>()?;
    let mut init = Relation::new(cols.len());
    init.insert(Tuple::from(fixed.iter().map(|&(_, v)| v).collect::<Vec<_>>()));
    let mut stats = EvalStats::new();
    let raw = execute_plan(&plan, db, extra, Some(init), opts, &mut stats, None)?;
    let mut full = Relation::new(sep.arity);
    for row in raw.seen2.iter() {
        full.insert(assemble(sep.arity, &fixed, &plan.phase2.columns, row));
    }
    let answers = filter_by_query(query, &full)?;
    stats.record_size("ans", answers.len());
    Ok(SeparableOutcome { answers, stats, strategy: StrategyNote::FullClass { class } })
}

fn evaluate_persistent(
    sep: &SeparableRecursion,
    query: &Query,
    bound: &[usize],
    db: &Database,
    extra: &ExtraRelations,
    opts: &ExecOptions,
    planner: &Planner<'_>,
) -> Result<SeparableOutcome, EvalError> {
    let fixed: Vec<(usize, Value)> = bound
        .iter()
        .map(|&c| Ok((c, query_value_at(query, c)?)))
        .collect::<Result<_, EvalError>>()?;
    let plan = build_plan_with(sep, &PlanSelection::Persistent(fixed.clone()), planner)?;
    let mut stats = EvalStats::new();
    stats.record_size("seen_1", 1); // the paper's `seen_1(x0)` fact
    let raw = execute_plan(&plan, db, extra, None, opts, &mut stats, None)?;
    let mut full = Relation::new(sep.arity);
    for row in raw.seen2.iter() {
        full.insert(assemble(sep.arity, &fixed, &plan.phase2.columns, row));
    }
    let answers = filter_by_query(query, &full)?;
    stats.record_size("ans", answers.len());
    Ok(SeparableOutcome {
        answers,
        stats,
        strategy: StrategyNote::Persistent { bound: bound.to_vec() },
    })
}

/// Removes class `class` from the recursion: its rules disappear and its
/// columns become persistent — the Lemma 2.1 `t_part` recursion.
fn remove_class(sep: &SeparableRecursion, class: usize) -> SeparableRecursion {
    let removed_rules: &[usize] = &sep.classes[class].rules;
    // Map old rule indices to new ones.
    let mut keep: Vec<usize> = Vec::new();
    for ri in 0..sep.recursive_rules.len() {
        if !removed_rules.contains(&ri) {
            keep.push(ri);
        }
    }
    let new_index = |old: usize| keep.iter().position(|&k| k == old).expect("kept rule");
    let recursive_rules: Vec<_> = keep.iter().map(|&ri| sep.recursive_rules[ri].clone()).collect();
    let classes: Vec<EquivClass> = sep
        .classes
        .iter()
        .enumerate()
        .filter(|&(ci, _)| ci != class)
        .map(|(_, c)| EquivClass {
            columns: c.columns.clone(),
            rules: c.rules.iter().map(|&ri| new_index(ri)).collect(),
        })
        .collect();
    let mut persistent = sep.persistent.clone();
    persistent.extend(sep.classes[class].columns.iter().copied());
    persistent.sort_unstable();
    SeparableRecursion {
        pred: sep.pred,
        arity: sep.arity,
        canon_vars: sep.canon_vars.clone(),
        recursive_rules,
        exit_rules: sep.exit_rules.clone(),
        classes,
        persistent,
    }
}

#[allow(clippy::too_many_arguments)]
fn evaluate_partial(
    sep: &SeparableRecursion,
    query: &Query,
    class: usize,
    db: &Database,
    extra: &ExtraRelations,
    opts: &ExecOptions,
    cache: Option<&PlanCache>,
    planner: &Planner<'_>,
    depth: usize,
) -> Result<SeparableOutcome, EvalError> {
    let mut stats = EvalStats::new();
    let mut answers = Relation::new(sep.arity);

    // Branch (a): t_part — the recursion without e_1; the partially bound
    // columns are persistent there, so the same query is a full selection.
    // The sub-recursion reuses the predicate symbol with a different class
    // structure, so it must not share the plan cache.
    let part = remove_class(sep, class);
    let part_outcome = evaluate_inner(&part, query, db, extra, opts, None, planner, depth + 1)?;
    stats.merge(&part_outcome.stats);
    answers.union_in_place(&part_outcome.answers);

    // Branch (b): one up-front application of each e_1 rule binds all of
    // t|e_1 by sideways information passing; each distinct binding vector is
    // a full selection on t_full (the original recursion).
    let cols = sep.classes[class].columns.clone();
    let bound_cols: Vec<usize> =
        cols.iter().copied().filter(|c| query.atom.terms[*c].is_const()).collect();
    let full_plan = class_plan(sep, class, cache, planner, db)?;
    let mut seed_cache: FxHashMap<Tuple, Relation> = FxHashMap::default();
    let mut distinct_seeds = 0usize;

    for &ri in &sep.classes[class].rules {
        let binding_plan = binding_plan(sep, ri, &cols, &bound_cols, query, planner)?;
        // Evaluate the binding plan once over the database.
        let mut pairs: Vec<(Tuple, Tuple)> = Vec::new();
        {
            let store = base_store(db, extra, [&binding_plan]);
            let mut indexes = IndexCache::new();
            indexes.prepare(&binding_plan, &store);
            binding_plan.execute(&store, &indexes, &[], &mut |row| {
                let head = Tuple::new(row[..cols.len()].to_vec());
                let body = Tuple::new(row[cols.len()..].to_vec());
                pairs.push((head, body));
            });
        }
        for (head_vals, body_vals) in pairs {
            if !seed_cache.contains_key(&body_vals) {
                distinct_seeds += 1;
                let mut init = Relation::new(cols.len());
                init.insert(body_vals.clone());
                let raw = execute_plan(&full_plan, db, extra, Some(init), opts, &mut stats, None)?;
                seed_cache.insert(body_vals.clone(), raw.seen2);
            }
            let seen2 = &seed_cache[&body_vals];
            let fixed: Vec<(usize, Value)> =
                cols.iter().zip(head_vals.values()).map(|(&c, &v)| (c, v)).collect();
            for row in seen2.iter() {
                answers.insert(assemble(sep.arity, &fixed, &full_plan.phase2.columns, row));
            }
        }
    }
    let answers = filter_by_query(query, &answers)?;
    stats.record_size("ans", answers.len());
    Ok(SeparableOutcome {
        answers,
        stats,
        strategy: StrategyNote::Decomposed { class, distinct_seeds },
    })
}

/// Compiles the sideways-information-passing plan for one `e_1` rule in the
/// Lemma 2.1 `t_full` branch: bind the query's constants on the head side,
/// evaluate the rule's nonrecursive conjunction, and emit
/// `(head class values, body class values)`.
fn binding_plan(
    sep: &SeparableRecursion,
    rule_idx: usize,
    cols: &[usize],
    bound_cols: &[usize],
    query: &Query,
    planner: &Planner<'_>,
) -> Result<ConjPlan, EvalError> {
    let rule = &sep.recursive_rules[rule_idx];
    let rec = crate::detect::recursive_atom(rule, sep.pred);
    let mut body: Vec<PlanLiteral> = Vec::new();
    for &c in bound_cols {
        let Term::Const(konst) = query.atom.terms[c] else {
            return Err(EvalError::Planning("bound column is not a constant".into()));
        };
        body.push(PlanLiteral::Eq(rule.head.terms[c], Term::Const(konst)));
    }
    body.extend(
        rule.body
            .iter()
            .filter(|lit| !matches!(lit, sepra_ast::Literal::Atom(a) if a.pred == sep.pred))
            .map(|lit| PlanLiteral::from_literal(lit, &RelKey::Pred)),
    );
    let mut output: Vec<Term> = cols.iter().map(|&c| rule.head.terms[c]).collect();
    output.extend(cols.iter().map(|&c| rec.terms[c]));
    planner.plan(&body, 0, &output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_in_program;
    use sepra_ast::{parse_program, parse_query};
    use sepra_eval::{query_answers, seminaive};

    fn check_against_seminaive(program_src: &str, facts: &str, pred: &str, query_src: &str) {
        let mut db = Database::new();
        db.load_fact_text(facts).unwrap();
        let program = parse_program(program_src, db.interner_mut()).unwrap();
        let p = db.intern(pred);
        let sep = detect_in_program(&program, p, db.interner_mut()).unwrap();
        let query = parse_query(query_src, db.interner_mut()).unwrap();

        let evaluator = SeparableEvaluator::new(sep);
        let outcome = evaluator.evaluate(&query, &db, &ExtraRelations::default()).unwrap();

        let derived = seminaive(&program, &db).unwrap();
        let expected = query_answers(&query, &db, Some(&derived)).unwrap();
        assert_eq!(
            outcome.answers,
            expected,
            "separable {} vs semi-naive {} for {query_src}",
            outcome.answers.len(),
            expected.len()
        );
    }

    const EX_1_1: &str = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
                          buys(X, Y) :- idol(X, W), buys(W, Y).\n\
                          buys(X, Y) :- perfectFor(X, Y).\n";

    const EX_1_2: &str = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
                          buys(X, Y) :- buys(X, W), cheaper(Y, W).\n\
                          buys(X, Y) :- perfectFor(X, Y).\n";

    const SOCIAL: &str = "friend(tom, sue). friend(sue, joe). friend(joe, ann).\n\
                          idol(tom, liz). idol(liz, joe).\n\
                          perfectFor(ann, widget). perfectFor(joe, gadget). perfectFor(liz, tonic).\n\
                          cheaper(bargain, widget). cheaper(steal, bargain).\n";

    #[test]
    fn example_1_1_bound_first_column() {
        check_against_seminaive(EX_1_1, SOCIAL, "buys", "buys(tom, Y)?");
    }

    #[test]
    fn example_1_1_bound_second_column_persistent() {
        check_against_seminaive(EX_1_1, SOCIAL, "buys", "buys(X, gadget)?");
    }

    #[test]
    fn example_1_2_bound_first_column() {
        check_against_seminaive(EX_1_2, SOCIAL, "buys", "buys(tom, Y)?");
    }

    #[test]
    fn example_1_2_bound_second_column() {
        check_against_seminaive(EX_1_2, SOCIAL, "buys", "buys(X, steal)?");
    }

    #[test]
    fn fully_bound_query() {
        check_against_seminaive(EX_1_2, SOCIAL, "buys", "buys(tom, bargain)?");
        check_against_seminaive(EX_1_1, SOCIAL, "buys", "buys(tom, nothing)?");
    }

    #[test]
    fn cyclic_data_terminates() {
        let cyclic = "friend(a, b). friend(b, c). friend(c, a).\n\
                      idol(b, a).\n\
                      perfectFor(c, thing). cheaper(cheapthing, thing).\n";
        check_against_seminaive(EX_1_1, cyclic, "buys", "buys(a, Y)?");
        check_against_seminaive(EX_1_2, cyclic, "buys", "buys(a, Y)?");
    }

    #[test]
    fn example_2_4_partial_selection_decomposes() {
        let program = "t(X, Y, Z) :- a(X, Y, U, V), t(U, V, Z).\n\
                       t(X, Y, Z) :- t(X, Y, W), b(W, Z).\n\
                       t(X, Y, Z) :- t0(X, Y, Z).\n";
        let facts = "a(c, d, e, f). a(e, f, g, h). a(q, r, e, f).\n\
                     t0(g, h, w1). t0(e, f, w0). t0(c, d, w3).\n\
                     b(w1, w2). b(w2, w4). b(w3, w5).\n";
        // Partial: binds only column 0 of class {0, 1}.
        let mut db = Database::new();
        db.load_fact_text(facts).unwrap();
        let prog = parse_program(program, db.interner_mut()).unwrap();
        let t = db.intern("t");
        let sep = detect_in_program(&prog, t, db.interner_mut()).unwrap();
        let query = parse_query("t(c, Y, Z)?", db.interner_mut()).unwrap();
        let evaluator = SeparableEvaluator::new(sep);
        let outcome = evaluator.evaluate(&query, &db, &ExtraRelations::default()).unwrap();
        assert!(matches!(outcome.strategy, StrategyNote::Decomposed { .. }));

        let derived = seminaive(&prog, &db).unwrap();
        let expected = query_answers(&query, &db, Some(&derived)).unwrap();
        assert_eq!(outcome.answers, expected);
        assert!(!outcome.answers.is_empty());
    }

    #[test]
    fn transitive_closure_selection() {
        check_against_seminaive(
            "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n",
            "e(a, b). e(b, c). e(c, d). e(b, e). e(z, a).",
            "t",
            "t(a, Y)?",
        );
    }

    #[test]
    fn reverse_selection_on_transitive_closure_is_persistent() {
        check_against_seminaive(
            "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n",
            "e(a, b). e(b, c). e(c, d). e(b, e). e(z, a).",
            "t",
            "t(X, d)?",
        );
    }

    #[test]
    fn empty_database_gives_empty_answers() {
        let mut db = Database::new();
        db.load_fact_text("unrelated(a).").unwrap();
        let program = parse_program(EX_1_1, db.interner_mut()).unwrap();
        let buys = db.intern("buys");
        let sep = detect_in_program(&program, buys, db.interner_mut()).unwrap();
        let query = parse_query("buys(tom, Y)?", db.interner_mut()).unwrap();
        let outcome =
            SeparableEvaluator::new(sep).evaluate(&query, &db, &ExtraRelations::default()).unwrap();
        assert!(outcome.answers.is_empty());
    }

    #[test]
    fn no_selection_is_rejected() {
        let mut db = Database::new();
        db.load_fact_text(SOCIAL).unwrap();
        let program = parse_program(EX_1_1, db.interner_mut()).unwrap();
        let buys = db.intern("buys");
        let sep = detect_in_program(&program, buys, db.interner_mut()).unwrap();
        let query = parse_query("buys(X, Y)?", db.interner_mut()).unwrap();
        let err = SeparableEvaluator::new(sep)
            .evaluate(&query, &db, &ExtraRelations::default())
            .unwrap_err();
        assert!(matches!(err, EvalError::Unsupported(_)));
    }

    #[test]
    fn monadic_relations_stay_linear_on_chains() {
        // The headline O(n) claim: on Example 1.1 over a chain, every
        // relation the algorithm builds is monadic and at most n+1 tuples.
        let n = 50;
        let mut facts = String::new();
        for i in 0..n {
            facts.push_str(&format!("friend(p{i}, p{}). idol(p{i}, p{}). ", i + 1, i + 1));
        }
        facts.push_str(&format!("perfectFor(p{n}, widget)."));
        let mut db = Database::new();
        db.load_fact_text(&facts).unwrap();
        let program = parse_program(EX_1_1, db.interner_mut()).unwrap();
        let buys = db.intern("buys");
        let sep = detect_in_program(&program, buys, db.interner_mut()).unwrap();
        let query = parse_query("buys(p0, Y)?", db.interner_mut()).unwrap();
        let outcome =
            SeparableEvaluator::new(sep).evaluate(&query, &db, &ExtraRelations::default()).unwrap();
        assert_eq!(outcome.answers.len(), 1);
        assert!(
            outcome.stats.max_relation_size() <= n + 1,
            "expected O(n) relations, got {}",
            outcome.stats.max_relation_size()
        );
    }
}
