//! `sepra-eval`: the bottom-up fixpoints and answer extraction.

use sepra_ast::{Interner, Program, Query};
use sepra_eval::naive::naive_with_options;
use sepra_eval::{query_answers, seminaive_with_options, Derived, EvalOptions};
use sepra_storage::{Database, Relation};

use super::{engine, Fixtures, Probe};

/// Stratified semi-naive evaluation of the whole program.
pub fn fixpoint(program: &Program, db: &Database, threads: usize) -> Result<Derived, String> {
    seminaive_with_options(program, db, &EvalOptions { threads, ..EvalOptions::default() })
        .map_err(|e| format!("semi-naive: {e}"))
}

/// Naive evaluation of the whole program: the oracle's fixpoint.
pub fn naive(program: &Program, db: &Database) -> Result<Derived, String> {
    naive_with_options(program, db, &EvalOptions::default()).map_err(|e| format!("naive: {e}"))
}

/// The sorted answers to `query` over an evaluated program.
pub fn answers(query: &Query, db: &Database, derived: &Derived) -> Result<Relation, String> {
    query_answers(query, db, Some(derived)).map_err(|e| format!("answers: {e}"))
}

/// Pinned to the closure digraph, the batch fixpoint ROADMAP item 2
/// rewrites: `eval.fixpoint_us`, `eval.answers_us`, the counters of one
/// fixpoint (`eval.iterations`, `eval.tuples_inserted`,
/// `eval.insert_attempts`, `eval.rows_scanned`, `eval.plans_costed`,
/// `eval.plan_fallbacks`), `eval.dedup_useful_ratio` (inserted ÷ attempts)
/// and `eval.threads2_ratio` (fixpoint time at two threads ÷ one; read it
/// beside `available_parallelism`). Pinned to the stratified DAG:
/// `eval.stratified_fixpoint_us`.
pub fn probe(fx: &Fixtures, p: &mut Probe) -> Result<(), String> {
    let qp = engine::load(&fx.closure.source())?;
    let (program, db) = (qp.program().clone(), qp.db().clone());
    let mut interner: Interner = db.interner().clone();
    let query = sepra_ast::parse_query(&fx.closure.queries[0], &mut interner)
        .map_err(|e| format!("parse query: {e}"))?;
    let (fixpoint_us, derived) = p.time("eval", "fixpoint", 9, || fixpoint(&program, &db, 1));
    let derived = derived?;
    p.put("eval.fixpoint_us", fixpoint_us, "us");
    let (answers_us, rows) = p.time("eval", "answers", 9, || answers(&query, &db, &derived));
    rows?;
    p.put("eval.answers_us", answers_us, "us");
    let s = &derived.stats;
    p.put("eval.iterations", s.iterations as f64, "count");
    p.put("eval.tuples_inserted", s.tuples_inserted as f64, "tuples");
    p.put("eval.insert_attempts", s.insert_attempts as f64, "tuples");
    p.put("eval.rows_scanned", s.rows_scanned as f64, "rows");
    p.put("eval.plans_costed", s.plans_costed as f64, "count");
    p.put("eval.plan_fallbacks", s.plan_fallbacks as f64, "count");
    p.put(
        "eval.dedup_useful_ratio",
        s.tuples_inserted as f64 / s.insert_attempts.max(1) as f64,
        "ratio",
    );
    let (threads2_us, two) = p.time("eval", "fixpoint_threads2", 5, || fixpoint(&program, &db, 2));
    two?;
    p.put("eval.threads2_ratio", threads2_us / fixpoint_us, "ratio");

    let qp = engine::load(&fx.stratified.source())?;
    let (stratified_us, derived) =
        p.time("eval", "stratified_fixpoint", 9, || fixpoint(qp.program(), qp.db(), 1));
    derived?;
    p.put("eval.stratified_fixpoint_us", stratified_us, "us");
    Ok(())
}
