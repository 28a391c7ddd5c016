//! Cross-validation of the Counting and Henschen–Naqvi baselines against
//! semi-naive ground truth on random *acyclic* scenarios (their
//! applicability domain), plus divergence checks on cyclic data.

use proptest::prelude::*;

use separable::ast::{parse_program, parse_query};
use separable::core::detect::detect_in_program;
use separable::eval::{query_answers, seminaive, EvalError};
use separable::gen::random::random_acyclic_full_selection_scenario;
use separable::rewrite::{counting_evaluate, hn_evaluate, CountingOptions, HnOptions};

fn check_baselines(seed: u64) -> Result<(), TestCaseError> {
    let mut scenario = random_acyclic_full_selection_scenario(seed);
    let program = parse_program(&scenario.program, scenario.db.interner_mut())
        .expect("generated program parses");
    let query =
        parse_query(&scenario.query, scenario.db.interner_mut()).expect("generated query parses");
    let db = scenario.db;

    let derived = seminaive(&program, &db).expect("semi-naive evaluates");
    let expected = query_answers(&query, &db, Some(&derived)).expect("answers extract");

    let mut db2 = db.clone();
    let sep = detect_in_program(&program, query.atom.pred, db2.interner_mut())
        .unwrap_or_else(|e| panic!("seed {seed}: not separable: {e}"));

    match counting_evaluate(&sep, &query, &db2, &Default::default(), &CountingOptions::default()) {
        Ok(out) => prop_assert_eq!(
            &out.answers,
            &expected,
            "seed {}: counting disagrees\n{}\n{}",
            seed,
            scenario.program,
            scenario.query
        ),
        // The query may not fully bind one class after detection reorders
        // classes; that is a legitimate Unsupported, not a failure.
        Err(EvalError::Unsupported(_)) => {}
        Err(e) => panic!("seed {seed}: counting failed: {e}\n{}", scenario.program),
    }
    match hn_evaluate(&sep, &query, &db2, &Default::default(), &HnOptions::default()) {
        Ok(out) => prop_assert_eq!(
            &out.answers,
            &expected,
            "seed {}: hn disagrees\n{}\n{}",
            seed,
            scenario.program,
            scenario.query
        ),
        Err(EvalError::Unsupported(_)) => {}
        Err(e) => panic!("seed {seed}: hn failed: {e}\n{}", scenario.program),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn baselines_agree_on_random_acyclic_scenarios(seed in 0u64..10_000) {
        check_baselines(seed)?;
    }
}

#[test]
fn first_hundred_acyclic_seeds_agree() {
    for seed in 0..100 {
        check_baselines(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Both baselines refuse cyclic data rather than looping (the paper notes
/// Henschen–Naqvi "fails for cyclic data"; Counting shares the
/// restriction).
#[test]
fn baselines_report_divergence_on_cycles() {
    let mut db = separable::storage::Database::new();
    separable::gen::graphs::add_cycle(&mut db, "e", "v", 4);
    let program =
        parse_program("t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n", db.interner_mut())
            .unwrap();
    let query = parse_query("t(v0, Y)?", db.interner_mut()).unwrap();
    let sep = detect_in_program(&program, query.atom.pred, db.interner_mut()).unwrap();
    assert!(matches!(
        counting_evaluate(&sep, &query, &db, &Default::default(), &CountingOptions::default()),
        Err(EvalError::Diverged { .. })
    ));
    assert!(matches!(
        hn_evaluate(&sep, &query, &db, &Default::default(), &HnOptions::default()),
        Err(EvalError::Diverged { .. })
    ));
    // The Separable algorithm handles the same query fine.
    let evaluator = separable::core::evaluate::SeparableEvaluator::new(sep);
    let out = evaluator
        .evaluate(&query, &db, &Default::default())
        .expect("separable terminates on cycles");
    assert_eq!(out.answers.len(), 4);
}
