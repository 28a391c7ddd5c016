//! Boundedness parity and soundness: a detected-bounded recursion is a
//! *claim* that the k-unfolded nonrecursive rewrite derives exactly the
//! fixpoint. Covered three ways: fixture programs (one per sufficient
//! condition) where forced `bounded` must match every fixpoint strategy
//! that accepts the query; mutation scripts where the
//! EDB drifts — including facts of the bounded predicate itself — and the
//! program-level verdict must not move; and generated programs, where
//! known-unbounded families must never be claimed bounded and any claimed
//! verdict on a random linear program must be semantically correct.

use std::collections::BTreeSet;

use proptest::prelude::*;

use separable::ast::{parse_program, parse_query, RecursiveDef};
use separable::core::bounded::analyze;
use separable::engine::{ProcessorError, QueryProcessor, Strategy, StrategyChoice};
use separable::eval::{query_answers, seminaive_with_options, EvalOptions, PlanMode};
use separable::gen::random::random_linear_scenario;
use separable::rewrite::bounded_evaluate;
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

/// One fixture per sufficient condition of the analysis.
const VACUOUS: &str = "t(X, Y) :- e(X, Y), t(X, Y).\n\
                       t(X, Y) :- t0(X, Y).\n\
                       e(a, b). e(b, c). t0(a, b). t0(c, d).\n";
const EXIT_SUBSUMED: &str = "t(X, Y) :- e(X, Y), t(Y, X).\n\
                             t(X, Y) :- e(X, Y).\n\
                             e(a, b). e(b, a). e(c, d).\n";
const SWAP: &str = "t(X, Y) :- sym(X, Y), t(Y, X).\n\
                    t(X, Y) :- base(X, Y).\n\
                    sym(a, b). sym(b, a). sym(c, d).\n\
                    base(b, a). base(c, d). base(e, f).\n";

fn rendered(qp: &QueryProcessor, result: &separable::QueryResult) -> Vec<String> {
    let mut rows: Vec<String> =
        result.answers.iter().map(|t| t.display(qp.db().interner()).to_string()).collect();
    rows.sort();
    rows
}

/// Forced `bounded` against every fixpoint strategy:
/// equal answer sets whenever the strategy accepts the query, and zero
/// fixpoint iterations on the bounded side. Strategy refusals (counting
/// and HN want a full separable selection, separable wants a selection)
/// are fine — boundedness must not change *which* strategies apply.
fn assert_bounded_parity(text: &str, query: &str, prepare: bool, context: &str) {
    let mut bounded = QueryProcessor::new();
    bounded.load(text).unwrap();
    bounded.set_exec_options(ExecOptions::default());
    if prepare {
        bounded.prepare().unwrap();
    }
    let b = bounded
        .query_with(query, StrategyChoice::Force(Strategy::Bounded))
        .unwrap_or_else(|e| panic!("{context}: bounded refused `{query}`: {e}"));
    assert_eq!(b.stats.iterations, 0, "{context}: bounded run iterated");
    let b_rows = rendered(&bounded, &b);

    for strategy in STRATEGIES {
        let mut qp = QueryProcessor::new();
        qp.load(text).unwrap();
        qp.set_exec_options(ExecOptions::default());
        if prepare {
            qp.prepare().unwrap();
        }
        match qp.query_with(query, StrategyChoice::Force(strategy)) {
            Ok(r) => assert_eq!(
                b_rows,
                rendered(&qp, &r),
                "{context}: bounded vs {strategy} diverged on `{query}`"
            ),
            // A forced strategy may refuse the query shape (magic
            // wants a bound argument, counting/HN reject cyclic data
            // and partial selections) — refusals are fine; only an
            // accepted-but-different answer set is a parity failure.
            Err(ProcessorError::StrategyUnavailable(_)) | Err(ProcessorError::Eval(_)) => {}
            Err(e) => panic!("{context}: {strategy} failed on `{query}`: {e}"),
        }
    }
}

#[test]
fn vacuous_fixture_matches_all_strategies() {
    for prepare in [false, true] {
        assert_bounded_parity(VACUOUS, "t(X, Y)?", prepare, "vacuous, unbound");
        assert_bounded_parity(VACUOUS, "t(a, Y)?", prepare, "vacuous, bound");
    }
}

#[test]
fn exit_subsumed_fixture_matches_all_strategies() {
    for prepare in [false, true] {
        assert_bounded_parity(EXIT_SUBSUMED, "t(X, Y)?", prepare, "exit-subsumed, unbound");
        assert_bounded_parity(EXIT_SUBSUMED, "t(a, Y)?", prepare, "exit-subsumed, bound");
    }
}

#[test]
fn swap_fixture_matches_all_strategies() {
    for prepare in [false, true] {
        assert_bounded_parity(SWAP, "t(X, Y)?", prepare, "swap, unbound");
        assert_bounded_parity(SWAP, "t(b, Y)?", prepare, "swap, bound");
    }
}

/// The verdict is program-only: a mutation script that grows and shrinks
/// the EDB — including facts of the bounded predicate itself — must never
/// flip the strategy away from `bounded`, and after every commit the
/// bounded answers must still equal a from-scratch semi-naive run on an
/// identically mutated twin.
#[test]
fn mutations_never_change_the_verdict() {
    let mut bounded = QueryProcessor::new();
    bounded.load(SWAP).unwrap();
    bounded.prepare().unwrap();
    let mut baseline = QueryProcessor::new();
    baseline.load(SWAP).unwrap();

    type Script<'a> = (&'a str, Vec<&'a str>, Vec<&'a str>);
    let steps: [Script; 4] = [
        // Facts of the recursive predicate itself: the analysis accounted
        // for them with the synthetic `t@edb` exit rule, so the verdict
        // holds and the new tuple must flow into the answers.
        ("insert t facts", vec!["t(d, c).", "t(g, h)."], vec![]),
        ("grow the cycle", vec!["sym(e, f).", "sym(f, e).", "base(f, e)."], vec![]),
        ("retract an exit edge", vec![], vec!["base(c, d)."]),
        ("mixed churn", vec!["base(a, c).", "sym(h, g)."], vec!["t(g, h).", "sym(c, d)."]),
    ];

    for (context, inserts, retracts) in steps {
        bounded.apply_mutation(&inserts, &retracts).unwrap();
        baseline.apply_mutation(&inserts, &retracts).unwrap();
        for query in ["t(X, Y)?", "t(a, Y)?"] {
            let b = bounded.query(query).unwrap();
            assert_eq!(
                b.strategy,
                Strategy::Bounded,
                "{context}: EDB mutation changed the program-level verdict"
            );
            assert_eq!(b.stats.iterations, 0, "{context}: bounded run iterated");
            let s = baseline.query_with(query, StrategyChoice::Force(Strategy::SemiNaive)).unwrap();
            assert_eq!(
                rendered(&bounded, &b),
                rendered(&baseline, &s),
                "{context}: bounded diverged from semi-naive on `{query}`"
            );
        }
    }
}

/// Mutating the EDB of an *unbounded* program must not conjure a bounded
/// verdict either: auto selection keeps picking a fixpoint strategy.
#[test]
fn mutations_never_invent_a_verdict() {
    let tc = "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\ne(a, b). e(b, c).\n";
    let mut qp = QueryProcessor::new();
    qp.load(tc).unwrap();
    qp.prepare().unwrap();
    qp.apply_mutation(&["t(z, z).", "e(c, d)."], &["e(a, b)."]).unwrap();
    let r = qp.query("t(X, Y)?").unwrap();
    assert_ne!(r.strategy, Strategy::Bounded, "transitive closure claimed bounded");
    let err = qp.query_with("t(X, Y)?", StrategyChoice::Force(Strategy::Bounded)).unwrap_err();
    assert!(matches!(err, ProcessorError::StrategyUnavailable(_)), "{err}");
}

/// Known-unbounded families, over a range of shapes: transitive closure
/// with an n-hop body, and same-generation. The analysis must return
/// `None` for every one of them.
#[test]
fn unbounded_families_are_never_claimed_bounded() {
    let mut sources = vec![(
        "sg(X, Y)?",
        "sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n\
         flat(m, n). up(m, n). down(n, m).\n"
            .to_string(),
    )];
    for hops in 1..=3 {
        let mut src = String::from("t(X, Y) :- ");
        let mut from = "X".to_string();
        for h in 0..hops {
            src.push_str(&format!("e({from}, B{h}), "));
            from = format!("B{h}");
        }
        src.push_str(&format!("t({from}, Y).\nt(X, Y) :- e(X, Y).\ne(m, n). e(n, o).\n"));
        sources.push(("t(X, Y)?", src));
    }
    for (query, src) in sources {
        let mut qp = QueryProcessor::new();
        qp.load(&src).unwrap();
        let pred = qp.parse_query(query).unwrap().atom.pred;
        let program = qp.program().clone();
        let Ok(def) = RecursiveDef::extract(&program, pred, qp.db().interner()) else {
            panic!("family should be extractable:\n{src}");
        };
        let verdict = analyze(&def, qp.db_mut().interner_mut());
        assert!(verdict.is_none(), "unbounded family claimed bounded:\n{src}");
    }
}

fn tuple_set(rel: &separable::storage::Relation) -> BTreeSet<Tuple> {
    rel.iter().map(|t| t.to_tuple()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Soundness over generated linear programs: whenever the analysis
    /// claims a verdict, the rewrite's answers equal the fixpoint's. (Some
    /// generated programs are genuinely bounded — the property is that a
    /// claim is *correct*, not that claims never happen.)
    #[test]
    fn claimed_verdicts_are_semantically_correct(seed in 0u64..10_000) {
        let mut scenario = random_linear_scenario(seed);
        let program = parse_program(&scenario.program, scenario.db.interner_mut())
            .expect("generated program parses");
        let query = parse_query(&scenario.query, scenario.db.interner_mut())
            .expect("generated query parses");
        let mut db = scenario.db;
        let pred = query.atom.pred;
        if let Ok(def) = RecursiveDef::extract(&program, pred, db.interner()) {
            if let Some(bounded) = analyze(&def, db.interner_mut()) {
                let out = bounded_evaluate(&program, &query, &db, &bounded)
                    .expect("bounded rewrite evaluates");
                let derived =
                    seminaive_with_options(&program, &db, &EvalOptions::default())
                        .expect("semi-naive evaluates");
                let expected =
                    query_answers(&query, &db, Some(&derived)).expect("answers extract");
                prop_assert_eq!(
                    tuple_set(&out.answers),
                    tuple_set(&expected),
                    "seed {}: bounded rewrite diverges from fixpoint\nprogram:\n{}",
                    seed,
                    scenario.program
                );
            }
        }
    }
}

/// Plan modes do not affect bounded evaluation: the rewrite runs on the
/// same semi-naive engine, so cost-based and source-order planning must
/// agree on bounded fixtures too.
#[test]
fn bounded_answers_are_plan_mode_invariant() {
    for text in [VACUOUS, EXIT_SUBSUMED, SWAP] {
        let mut rows = Vec::new();
        for mode in [PlanMode::SourceOrder, PlanMode::CostBased] {
            let mut qp = QueryProcessor::new();
            qp.load(text).unwrap();
            qp.set_exec_options(ExecOptions { plan_mode: mode, ..ExecOptions::default() });
            let r = qp.query_with("t(X, Y)?", StrategyChoice::Force(Strategy::Bounded)).unwrap();
            rows.push(rendered(&qp, &r));
        }
        assert_eq!(&rows[0], &rows[1], "plan modes diverged");
    }
}
