//! Budget enforcement across every fixpoint engine: an exhausted
//! [`Budget`] must surface as a structured `EvalError::BudgetExceeded`
//! naming the limit that was hit — never a panic, a wrong answer, or a
//! poisoned evaluator. These are the guarantees `sepra serve` relies on
//! for per-request deadlines and shutdown cancellation.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use separable::ast::{parse_program, parse_query, Program, Query};
use separable::core::detect::detect_in_program;
use separable::core::evaluate::SeparableEvaluator;
use separable::core::exec::ExtraRelations;
use separable::eval::{
    naive_with_options, seminaive_with_options, Budget, BudgetResource, EvalError, EvalOptions,
};
use separable::rewrite::{
    counting_evaluate, hn_evaluate, magic_evaluate_supplementary_with_options,
    magic_evaluate_with_options, CountingOptions, HnOptions,
};
use separable::{Database, ExecOptions};

const TC: &str = "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n";

/// A transitive-closure scenario over a 30-edge chain (acyclic, so the
/// Counting and Henschen-Naqvi descents apply too).
fn scenario() -> (Database, Program, Query) {
    let mut db = Database::new();
    for i in 0..30 {
        db.insert_named("e", &[&format!("n{i}"), &format!("n{}", i + 1)]).unwrap();
    }
    let program = parse_program(TC, db.interner_mut()).unwrap();
    let query = parse_query("t(n0, Y)?", db.interner_mut()).unwrap();
    (db, program, query)
}

fn expired_deadline() -> Budget {
    Budget { deadline: Some(Instant::now() - Duration::from_millis(1)), ..Budget::default() }
}

fn assert_exceeded<T: std::fmt::Debug>(
    result: Result<T, EvalError>,
    expect: BudgetResource,
    engine: &str,
) {
    match result {
        Err(EvalError::BudgetExceeded { resource, .. }) => {
            assert_eq!(resource, expect, "{engine}: wrong resource");
        }
        other => panic!("{engine}: expected BudgetExceeded({expect:?}), got {other:?}"),
    }
}

#[test]
fn seminaive_honours_deadline_tuples_and_iterations() {
    let (db, program, _) = scenario();
    let opts = |budget: Budget| EvalOptions { budget, ..EvalOptions::default() };
    assert_exceeded(
        seminaive_with_options(&program, &db, &opts(expired_deadline())),
        BudgetResource::Deadline,
        "semi-naive",
    );
    assert_exceeded(
        seminaive_with_options(&program, &db, &opts(Budget::unlimited().tuples(1))),
        BudgetResource::Tuples,
        "semi-naive",
    );
    assert_exceeded(
        seminaive_with_options(&program, &db, &opts(Budget::unlimited().iterations(1))),
        BudgetResource::Iterations,
        "semi-naive",
    );
}

#[test]
fn parallel_seminaive_honours_cancellation() {
    let (db, program, _) = scenario();
    let flag = Arc::new(AtomicBool::new(true)); // cancelled before it starts
    let options =
        EvalOptions { budget: Budget::unlimited().cancellable(flag), ..EvalOptions::default() };
    assert_exceeded(
        seminaive_with_options(&program, &db, &options),
        BudgetResource::Cancelled,
        "parallel semi-naive",
    );
}

#[test]
fn naive_honours_the_budget() {
    let (db, program, _) = scenario();
    let options =
        EvalOptions { budget: Budget::unlimited().iterations(1), ..EvalOptions::default() };
    assert_exceeded(
        naive_with_options(&program, &db, &options),
        BudgetResource::Iterations,
        "naive",
    );
}

#[test]
fn separable_closures_honour_the_budget() {
    let (mut db, program, query) = scenario();
    let sep = detect_in_program(&program, query.atom.pred, db.interner_mut()).unwrap();
    for (budget, expect) in [
        (expired_deadline(), BudgetResource::Deadline),
        (Budget::unlimited().tuples(1), BudgetResource::Tuples),
        (Budget::unlimited().iterations(1), BudgetResource::Iterations),
    ] {
        let opts = ExecOptions { budget, ..ExecOptions::default() };
        let evaluator = SeparableEvaluator::with_options(sep.clone(), opts);
        assert_exceeded(
            evaluator.evaluate(&query, &db, &ExtraRelations::default()),
            expect,
            "separable",
        );
    }
    // Closures must honour cancellation raised mid-flight too; a
    // pre-raised flag exercises the round's probe and the barrier re-check.
    let flag = Arc::new(AtomicBool::new(true));
    let opts =
        ExecOptions { budget: Budget::unlimited().cancellable(flag), ..ExecOptions::default() };
    let evaluator = SeparableEvaluator::with_options(sep, opts);
    assert_exceeded(
        evaluator.evaluate(&query, &db, &ExtraRelations::default()),
        BudgetResource::Cancelled,
        "parallel separable",
    );
}

#[test]
fn magic_rewrites_honour_the_budget() {
    let (db, program, query) = scenario();
    let options =
        EvalOptions { budget: Budget::unlimited().iterations(1), ..EvalOptions::default() };
    assert_exceeded(
        magic_evaluate_with_options(&program, &query, &db, &options),
        BudgetResource::Iterations,
        "magic sets",
    );
    assert_exceeded(
        magic_evaluate_supplementary_with_options(&program, &query, &db, &options),
        BudgetResource::Iterations,
        "magic supplementary",
    );
}

#[test]
fn counting_and_hn_descents_honour_the_budget() {
    let (mut db, program, query) = scenario();
    let sep = detect_in_program(&program, query.atom.pred, db.interner_mut()).unwrap();
    let exec = ExecOptions { budget: Budget::unlimited().iterations(1), ..ExecOptions::default() };
    let counting = CountingOptions { exec: exec.clone(), ..CountingOptions::default() };
    assert_exceeded(
        counting_evaluate(&sep, &query, &db, &Default::default(), &counting),
        BudgetResource::Iterations,
        "counting",
    );
    let hn = HnOptions { exec, ..HnOptions::default() };
    assert_exceeded(
        hn_evaluate(&sep, &query, &db, &Default::default(), &hn),
        BudgetResource::Iterations,
        "hn",
    );
}

/// A budget error must not poison anything: re-running the identical
/// evaluation with an unlimited budget yields the full answer set.
#[test]
fn budget_errors_do_not_poison_later_runs() {
    let (mut db, program, query) = scenario();
    let sep = detect_in_program(&program, query.atom.pred, db.interner_mut()).unwrap();

    let strict = ExecOptions { budget: Budget::unlimited().tuples(1), ..ExecOptions::default() };
    let evaluator = SeparableEvaluator::with_options(sep.clone(), strict);
    assert!(evaluator.evaluate(&query, &db, &ExtraRelations::default()).is_err());

    let evaluator = SeparableEvaluator::with_options(sep, ExecOptions::default());
    let outcome = evaluator.evaluate(&query, &db, &ExtraRelations::default()).unwrap();
    assert_eq!(outcome.answers.len(), 30); // n1..n30

    let strict =
        EvalOptions { budget: Budget::unlimited().iterations(1), ..EvalOptions::default() };
    assert!(seminaive_with_options(&program, &db, &strict).is_err());
    let derived = seminaive_with_options(&program, &db, &EvalOptions::default()).unwrap();
    let t = db.intern("t");
    assert_eq!(derived.relation(t).unwrap().len(), 30 * 31 / 2);
}
