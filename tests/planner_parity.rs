//! Planner parity: cost-based subgoal ordering is a pure optimization, so
//! for any program, database, strategy, and thread count, evaluation under
//! `PlanMode::CostBased` must produce exactly the answer *set* of
//! `PlanMode::SourceOrder` (insertion order may differ — the join order
//! is precisely what changed). Covered three ways: randomly generated
//! scenarios at the eval layer, all seven forced strategies through the
//! query processor, and interleaved mutation scripts where the maintained
//! statistics (and therefore the chosen orders) drift as the EDB changes.

use std::collections::BTreeSet;

use proptest::prelude::*;

use separable::ast::{parse_program, parse_query};
use separable::engine::{QueryProcessor, Strategy, StrategyChoice};
use separable::eval::{query_answers, seminaive_with_options, EvalOptions, PlanMode};
use separable::gen::random::{random_linear_scenario, random_separable_scenario, RandomScenario};
use separable::rewrite::magic_evaluate_with_options;
use separable::storage::Tuple;
use separable::ExecOptions;

const STRATEGIES: [Strategy; 7] = [
    Strategy::Separable,
    Strategy::MagicSets,
    Strategy::MagicSupplementary,
    Strategy::Counting,
    Strategy::HenschenNaqvi,
    Strategy::SemiNaive,
    Strategy::Naive,
];

fn exec_opts(mode: PlanMode) -> ExecOptions {
    ExecOptions { plan_mode: mode, ..ExecOptions::default() }
}

fn eval_opts(mode: PlanMode) -> EvalOptions {
    EvalOptions { plan_mode: mode, ..EvalOptions::default() }
}

/// Answer tuples as a set: plan modes agree on *what* is derived, not on
/// the order derivation happened to visit it.
fn tuple_set(rel: &separable::storage::Relation) -> BTreeSet<Tuple> {
    rel.iter().map(|row| row.to_tuple()).collect()
}

/// Semi-naive and Magic Sets on a generated scenario: cost-based and
/// source-order must derive identical answer sets.
fn check_eval_layer(seed: u64, mut scenario: RandomScenario) -> Result<(), TestCaseError> {
    let program = parse_program(&scenario.program, scenario.db.interner_mut())
        .expect("generated program parses");
    let query =
        parse_query(&scenario.query, scenario.db.interner_mut()).expect("generated query parses");
    let db = scenario.db;

    let source = seminaive_with_options(&program, &db, &eval_opts(PlanMode::SourceOrder))
        .expect("source-order semi-naive evaluates");
    let cost = seminaive_with_options(&program, &db, &eval_opts(PlanMode::CostBased))
        .expect("cost-based semi-naive evaluates");
    let source_answers = query_answers(&query, &db, Some(&source)).expect("answers extract");
    let cost_answers = query_answers(&query, &db, Some(&cost)).expect("answers extract");
    prop_assert_eq!(
        tuple_set(&source_answers),
        tuple_set(&cost_answers),
        "seed {}: semi-naive answers diverge between plan modes\nprogram:\n{}",
        seed,
        scenario.program
    );

    let source_magic =
        magic_evaluate_with_options(&program, &query, &db, &eval_opts(PlanMode::SourceOrder))
            .expect("source-order magic evaluates");
    let cost_magic =
        magic_evaluate_with_options(&program, &query, &db, &eval_opts(PlanMode::CostBased))
            .expect("cost-based magic evaluates");
    prop_assert_eq!(
        tuple_set(&source_magic.answers),
        tuple_set(&cost_magic.answers),
        "seed {}: magic answers diverge between plan modes\nprogram:\n{}",
        seed,
        scenario.program
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn plan_modes_agree_on_separable_scenarios(seed in 0u64..10_000) {
        check_eval_layer(seed, random_separable_scenario(seed))?;
    }

    #[test]
    fn plan_modes_agree_on_linear_scenarios(seed in 0u64..10_000) {
        check_eval_layer(seed, random_linear_scenario(seed))?;
    }
}

/// Sorted display-rendered answers (the two processors intern symbols
/// independently, so raw `Sym` tuples are not comparable across them).
fn rendered(qp: &QueryProcessor, result: &separable::QueryResult) -> Vec<String> {
    let mut rows: Vec<String> =
        result.answers.iter().map(|t| t.display(qp.db().interner()).to_string()).collect();
    rows.sort();
    rows
}

/// Runs `query` under every strategy on two processors
/// holding the same program and EDB — one planning cost-based, one
/// compiling bodies as written — and asserts equal answers, or the same
/// strategy refusal.
fn assert_mode_parity(
    cost: &mut QueryProcessor,
    source: &mut QueryProcessor,
    query: &str,
    context: &str,
) {
    for strategy in STRATEGIES {
        cost.set_exec_options(exec_opts(PlanMode::CostBased));
        source.set_exec_options(exec_opts(PlanMode::SourceOrder));
        let a = cost.query_with(query, StrategyChoice::Force(strategy));
        let b = source.query_with(query, StrategyChoice::Force(strategy));
        match (a, b) {
            (Ok(a), Ok(b)) => assert_eq!(
                rendered(cost, &a),
                rendered(source, &b),
                "{context}: {strategy} diverged between plan modes"
            ),
            // A refusal or divergence is fine as long as both modes
            // fail the same way (counting/HN reject cyclic data here);
            // same program, same EDB — the messages must match too.
            (Err(a), Err(b)) => assert_eq!(
                a.to_string(),
                b.to_string(),
                "{context}: {strategy} failed differently between plan modes"
            ),
            (a, b) => panic!(
                "{context}: {strategy}: cost-based {:?} vs \
                 source-order {:?}",
                a.map(|r| r.answers.len()),
                b.map(|r| r.answers.len()),
            ),
        }
    }
}

/// A three-literal recursive body over a skewed EDB, so the planner has
/// something real to reorder: `e` fans out while `f` is sparse, and
/// source order scans them in the worse sequence.
fn skewed_program() -> String {
    let mut text = String::from("t(X, Y) :- e(X, A), f(A, W), t(W, Y).\nt(X, Y) :- f(X, Y).\n");
    for i in 0..10 {
        for j in 0..4 {
            text.push_str(&format!("e(n{i}, h{j}).\n"));
        }
    }
    for j in 0..4 {
        text.push_str(&format!("f(h{j}, n{}).\n", j + 1));
    }
    text
}

#[test]
fn all_strategies_agree_between_plan_modes_on_skewed_program() {
    let text = skewed_program();
    let mut cost = QueryProcessor::new();
    cost.load(&text).unwrap();
    cost.prepare().unwrap();
    let mut source = QueryProcessor::new();
    source.load(&text).unwrap();
    source.prepare().unwrap();

    assert_mode_parity(&mut cost, &mut source, "t(n0, Y)?", "skewed fixture, bound");
    assert_mode_parity(&mut cost, &mut source, "t(X, Y)?", "skewed fixture, unbound");
}

/// The same twin processors driven through an identical mutation script:
/// each commit shifts the relation statistics (and with them the chosen
/// join orders, via drift revalidation), and after every step both modes
/// must still agree under every strategy.
#[test]
fn plan_modes_agree_through_mutation_scripts() {
    let text = skewed_program();
    let mut cost = QueryProcessor::new();
    cost.load(&text).unwrap();
    cost.prepare().unwrap();
    let mut source = QueryProcessor::new();
    source.load(&text).unwrap();
    source.prepare().unwrap();

    type Script<'a> = (&'a str, Vec<&'a str>, Vec<&'a str>);
    let steps: [Script; 4] = [
        // Invert the skew: f grows past e, flipping the cheaper-first order.
        (
            "grow f past e",
            vec![
                "f(h0, n7).",
                "f(h1, n8).",
                "f(h2, n9).",
                "f(h3, n0).",
                "f(h0, n2).",
                "f(h1, n3).",
                "f(h2, n4).",
                "f(h3, n5).",
            ],
            vec![],
        ),
        // Retract hub fan-out so e's distinct counts shrink.
        ("shrink e", vec![], vec!["e(n0, h1).", "e(n0, h2).", "e(n1, h0)."]),
        // Mixed step: rederivation pressure on both predicates at once.
        ("mixed", vec!["e(n0, h1).", "f(h9, n1)."], vec!["f(h0, n1).", "e(n2, h3)."]),
        // Retract an exit edge: derived answers must shrink identically.
        ("cut exit", vec![], vec!["f(h1, n2)."]),
    ];

    for (context, inserts, retracts) in steps {
        let a = cost.apply_mutation(&inserts, &retracts).unwrap();
        let b = source.apply_mutation(&inserts, &retracts).unwrap();
        assert_eq!(a.inserted, b.inserted, "{context}: insert counts");
        assert_eq!(a.retracted, b.retracted, "{context}: retract counts");
        assert_mode_parity(&mut cost, &mut source, "t(n0, Y)?", context);
        assert_mode_parity(&mut cost, &mut source, "t(X, Y)?", context);
    }
}
