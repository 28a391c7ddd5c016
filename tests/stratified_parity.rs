//! Stratified-evaluation parity: negation and aggregates must mean the
//! same thing everywhere they are accepted, and be *refused* everywhere
//! else. Covered four ways: fixture programs (one per construct family)
//! where semi-naive and naive must agree under both plan modes while every specialized strategy refuses; a mutation script
//! where an incrementally maintained processor must track a from-scratch
//! twin step for step; generated stratified programs (negation, `count`,
//! `min` self-recursion, stacked negation, in random combination) with
//! generated 4-step mutation scripts; and unstratifiable programs, which
//! every path must reject up front.

use proptest::prelude::*;

use separable::engine::{ProcessorError, QueryProcessor, Strategy, StrategyChoice};
use separable::eval::PlanMode;
use separable::gen::random::random_stratified_scenario;
use separable::ExecOptions;

/// Every strategy that must refuse a program using `!`/aggregates.
const SPECIALIZED: [Strategy; 7] = [
    Strategy::Bounded,
    Strategy::Separable,
    Strategy::MagicSets,
    Strategy::MagicSupplementary,
    Strategy::MagicSubsumptive,
    Strategy::Counting,
    Strategy::HenschenNaqvi,
];

/// One fixture per construct family.
const SET_DIFFERENCE: &str = "t(X, Y) :- e(X, Y).\n\
                              t(X, Y) :- e(X, Z), t(Z, Y).\n\
                              unreach(X, Y) :- node(X), node(Y), !t(X, Y).\n\
                              node(a). node(b). node(c). node(d).\n\
                              e(a, b). e(b, c). e(c, a).\n";
const REACH_COUNT: &str = "t(X, Y) :- e(X, Y).\n\
                           t(X, Y) :- e(X, Z), t(Z, Y).\n\
                           reach(X, count<Y>) :- t(X, Y).\n\
                           e(a, b). e(b, c). e(c, a). e(d, a).\n";
const SHORTEST: &str = "short(Y, min<C>) :- src(X), w(X, Y, C).\n\
                        short(Y, min<C>) :- short(X, D), w(X, Y, W), C = D + W.\n\
                        src(a).\n\
                        w(a, b, 1). w(b, c, 1). w(a, c, 5). w(c, a, 1).\n";

const FIXTURES: [(&str, &str, &str); 3] = [
    ("set-difference", SET_DIFFERENCE, "unreach(X, Y)?"),
    ("reach-count", REACH_COUNT, "reach(X, C)?"),
    ("shortest-path", SHORTEST, "short(Y, C)?"),
];

fn exec_opts(plan_mode: PlanMode) -> ExecOptions {
    ExecOptions { plan_mode, ..ExecOptions::default() }
}

/// Renders answers against the processor's own interner: two processors
/// never share symbol ids, so parity compares strings, not tuples.
fn rendered(qp: &QueryProcessor, result: &separable::QueryResult) -> Vec<String> {
    let mut rows: Vec<String> =
        result.answers.iter().map(|t| t.display(qp.db().interner()).to_string()).collect();
    rows.sort();
    rows
}

fn query_rendered(qp: &mut QueryProcessor, query: &str, strategy: Strategy) -> Vec<String> {
    let r = qp
        .query_with(query, StrategyChoice::Force(strategy))
        .unwrap_or_else(|e| panic!("{strategy} refused `{query}`: {e}"));
    rendered(qp, &r)
}

#[test]
fn fixtures_agree_across_supported_strategies_threads_and_plan_modes() {
    for (context, text, query) in FIXTURES {
        let mut reference: Option<Vec<String>> = None;
        for plan_mode in [PlanMode::CostBased, PlanMode::SourceOrder] {
            for strategy in [Strategy::SemiNaive, Strategy::Naive] {
                let mut qp = QueryProcessor::new();
                qp.load(text).unwrap();
                qp.set_exec_options(exec_opts(plan_mode));
                let rows = query_rendered(&mut qp, query, strategy);
                assert!(!rows.is_empty(), "{context}: empty answers");
                match &reference {
                    None => reference = Some(rows),
                    Some(want) => {
                        assert_eq!(want, &rows, "{context}: {strategy} diverged, {plan_mode:?}")
                    }
                }
            }
        }
    }
}

#[test]
fn specialized_strategies_refuse_every_fixture() {
    for (context, text, query) in FIXTURES {
        for strategy in SPECIALIZED {
            let mut qp = QueryProcessor::new();
            qp.load(text).unwrap();
            let err = qp.query_with(query, StrategyChoice::Force(strategy)).unwrap_err();
            let ProcessorError::StrategyUnavailable(msg) = err else {
                panic!("{context}: {strategy} should refuse, got {err}");
            };
            assert!(msg.contains("negation or aggregates"), "{context}: {strategy}: {msg}");
        }
        // Auto selection lands on stratified semi-naive.
        let mut qp = QueryProcessor::new();
        qp.load(text).unwrap();
        let r = qp.query(query).unwrap();
        assert_eq!(r.strategy, Strategy::SemiNaive, "{context}");
    }
}

#[test]
fn unstratifiable_programs_are_rejected_by_every_path() {
    let win = "p(X) :- q(X), !p(X).\nq(a).\n";
    for strategy in [Strategy::SemiNaive, Strategy::Naive] {
        let mut qp = QueryProcessor::new();
        qp.load(win).unwrap();
        let err = qp.query_with("p(X)?", StrategyChoice::Force(strategy)).unwrap_err();
        assert!(err.to_string().contains("unstratifiable"), "{strategy}: {err}");
    }
    let mut qp = QueryProcessor::new();
    qp.load(win).unwrap();
    let err = qp.query("p(X)?").unwrap_err();
    assert!(err.to_string().contains("unstratifiable"), "auto: {err}");
}

/// A hand-written mutation script over the negation + count + min skeleton:
/// the prepared processor maintains incrementally, the twin is rebuilt from
/// scratch after every step, and they must agree on every query — including
/// steps that only *shrink* the EDB, where stale negative conclusions or
/// stale aggregate groups would survive a naive delta treatment.
#[test]
fn fixture_mutation_script_maintains_incrementally() {
    let program = "t(X, Y) :- e(X, Y).\n\
                   t(X, Y) :- e(X, Z), t(Z, Y).\n\
                   unreach(X, Y) :- node(X), node(Y), !t(X, Y).\n\
                   reach(X, count<Y>) :- t(X, Y).\n\
                   short(Y, min<C>) :- src(X), w(X, Y, C).\n\
                   short(Y, min<C>) :- short(X, D), w(X, Y, W), C = D + W.\n\
                   node(a). node(b). node(c). node(d). src(a).\n\
                   e(a, b). e(b, c).\n\
                   w(a, b, 1). w(b, c, 1). w(a, c, 5).\n";
    let queries = ["unreach(X, Y)?", "reach(X, C)?", "short(Y, C)?", "t(X, Y)?"];
    type Step<'a> = (&'a str, Vec<&'a str>, Vec<&'a str>);
    let steps: [Step; 5] = [
        // Reaching d flips unreach rows off and bumps counts.
        ("connect d", vec!["e(c, d)."], vec![]),
        // A cheaper path must *lower* short(c): min groups must improve.
        ("cheaper path", vec!["w(b, c, 1).", "w(a, b, 3)."], vec![]),
        // Pure retraction: t shrinks, unreach must grow back, counts drop.
        ("cut the chain", vec![], vec!["e(b, c)."]),
        // Retract the cheap edge: short(c) must climb back to the 5-route.
        ("lose the cheap edge", vec![], vec!["w(b, c, 1)."]),
        ("mixed churn", vec!["e(d, a).", "w(c, d, 2)."], vec!["e(c, d)."]),
    ];

    let mut incremental = QueryProcessor::new();
    incremental.load(program).unwrap();
    incremental.prepare().unwrap();

    let mut applied: Vec<(Vec<&str>, Vec<&str>)> = Vec::new();
    for (context, inserts, retracts) in steps {
        incremental.apply_mutation(&inserts, &retracts).unwrap();
        applied.push((inserts, retracts));
        let mut scratch = QueryProcessor::new();
        scratch.load(program).unwrap();
        for (ins, rets) in &applied {
            scratch.apply_mutation(ins, rets).unwrap();
        }
        for query in queries {
            assert_eq!(
                query_rendered(&mut incremental, query, Strategy::SemiNaive),
                query_rendered(&mut scratch, query, Strategy::SemiNaive),
                "{context}: incremental diverged from from-scratch on `{query}`"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Generated stratified programs: semi-naive and naive agree on every
    /// query, and every specialized strategy refuses.
    #[test]
    fn generated_programs_agree_across_strategies(seed in 0u64..10_000) {
        let scenario = random_stratified_scenario(seed);
        for query in &scenario.queries {
            let mut reference: Option<Vec<String>> = None;
            for strategy in [Strategy::SemiNaive, Strategy::Naive] {
                let mut qp = QueryProcessor::new();
                qp.load(&scenario.program).unwrap();
                qp.set_exec_options(exec_opts(PlanMode::CostBased));
                let rows = query_rendered(&mut qp, query, strategy);
                match &reference {
                    None => reference = Some(rows),
                    Some(want) => prop_assert_eq!(
                        want, &rows,
                        "seed {}: {} diverged on `{}`\n{}",
                        seed, strategy, query, scenario.program
                    ),
                }
            }
        }
        let mut qp = QueryProcessor::new();
        qp.load(&scenario.program).unwrap();
        for strategy in SPECIALIZED {
            let err = qp
                .query_with(&scenario.queries[0], StrategyChoice::Force(strategy))
                .unwrap_err();
            prop_assert!(
                matches!(err, ProcessorError::StrategyUnavailable(_)),
                "seed {}: {} accepted a stratified program: {}", seed, strategy, err
            );
        }
    }

    /// Generated mutation scripts: a prepared processor maintained through
    /// the scenario's 4 steps equals a from-scratch twin after every step.
    #[test]
    fn generated_mutation_scripts_maintain_incrementally(seed in 0u64..10_000) {
        let scenario = random_stratified_scenario(seed);
        let mut incremental = QueryProcessor::new();
        incremental.load(&scenario.program).unwrap();
        incremental.set_exec_options(exec_opts(PlanMode::CostBased));
        incremental.prepare().unwrap();

        let mut applied: Vec<(Vec<&str>, Vec<&str>)> = Vec::new();
        for (step, (inserts, retracts)) in scenario.steps.iter().enumerate() {
            let ins: Vec<&str> = inserts.iter().map(String::as_str).collect();
            let rets: Vec<&str> = retracts.iter().map(String::as_str).collect();
            incremental.apply_mutation(&ins, &rets).unwrap();
            applied.push((ins, rets));

            let mut scratch = QueryProcessor::new();
            scratch.load(&scenario.program).unwrap();
            scratch.set_exec_options(exec_opts(PlanMode::CostBased));
            for (i, r) in &applied {
                scratch.apply_mutation(i, r).unwrap();
            }
            for query in &scenario.queries {
                prop_assert_eq!(
                    query_rendered(&mut incremental, query, Strategy::SemiNaive),
                    query_rendered(&mut scratch, query, Strategy::SemiNaive),
                    "seed {}, step {}: incremental diverged on `{}`\n{}",
                    seed, step, query, scenario.program
                );
            }
        }
    }
}
