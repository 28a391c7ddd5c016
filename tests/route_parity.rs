//! One routing decision, seen from outside: for every example fixture and
//! a spread of generated programs, what `plan_report` says would run is
//! what `query` runs, a prepared processor and an unprepared one agree on
//! answers, strategy and `why` text, and no specialized strategy can be
//! forced onto a stratified component.

use std::fmt::Write as _;

use separable::ast::{DependencyGraph, Scope};
use separable::engine::ProcessorError;
use separable::eval::EvalError;
use separable::gen::random::{
    random_linear_scenario, random_separable_scenario, random_stratified_scenario,
};
use separable::storage::Database;
use separable::{QueryProcessor, Strategy, StrategyChoice};

const SPECIALIZED: [Strategy; 7] = [
    Strategy::Bounded,
    Strategy::Separable,
    Strategy::MagicSets,
    Strategy::MagicSupplementary,
    Strategy::MagicSubsumptive,
    Strategy::Counting,
    Strategy::HenschenNaqvi,
];

/// The facts of `db` as loadable text.
fn facts_text(db: &Database) -> String {
    let mut out = String::new();
    for (pred, rel) in db.relations() {
        let name = db.interner().resolve(pred);
        for row in rel.iter() {
            let _ = writeln!(out, "{name}{}.", row.to_tuple().display(db.interner()));
        }
    }
    out
}

/// `(name, program text, queries)`: every example fixture that loads, and
/// eight seeds each of the separable, general-linear and stratified
/// generators. Queries come in bound/unbound pairs.
fn programs() -> Vec<(String, String, Vec<String>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/datalog");
    let mut files: Vec<_> =
        std::fs::read_dir(&dir).expect("examples exist").map(|e| e.unwrap().path()).collect();
    files.sort();
    let mut out = Vec::new();
    for file in files.iter().filter(|f| f.extension().is_some_and(|e| e == "dl")) {
        let text = std::fs::read_to_string(file).unwrap();
        let mut qp = QueryProcessor::new();
        if qp.load(&text).is_err() {
            continue; // `lints.dl` is deliberately broken
        }
        out.push((file.file_name().unwrap().to_string_lossy().into_owned(), text, Vec::new()));
    }
    assert!(out.len() >= 12, "only {} fixtures loaded", out.len());
    for seed in 0..8u64 {
        for (family, scenario) in [
            ("separable", random_separable_scenario(seed)),
            ("linear", random_linear_scenario(seed)),
        ] {
            let text = format!("{}\n{}", scenario.program, facts_text(&scenario.db));
            out.push((format!("{family} seed {seed}"), text, vec![scenario.query]));
        }
        let scenario = random_stratified_scenario(seed);
        out.push((format!("stratified seed {seed}"), scenario.program, scenario.queries));
    }
    out
}

/// The generator's queries plus, for every rule-defined predicate, one
/// unbound query and one binding its first argument to a constant of the
/// database; and one query on an EDB predicate.
fn queries_for(qp: &QueryProcessor, given: &[String]) -> Vec<String> {
    let interner = qp.db().interner();
    let (edb, some_row) = qp
        .db()
        .relations()
        .find_map(|(p, r)| r.iter().next().map(|row| (p, row.to_tuple())))
        .expect("every program has a fact");
    let constant = some_row.values()[0].display(interner).to_string();
    let atom = |pred, args: &[String]| format!("{}({})?", interner.resolve(pred), args.join(", "));
    let vars = |n: usize| (0..n).map(|i| format!("V{i}")).collect::<Vec<_>>();
    let mut out = given.to_vec();
    let mut seen = Vec::new();
    for rule in &qp.program().rules {
        if seen.contains(&rule.head.pred) {
            continue;
        }
        seen.push(rule.head.pred);
        let mut args = vars(rule.head.terms.len());
        out.push(atom(rule.head.pred, &args));
        args[0] = constant.clone();
        out.push(atom(rule.head.pred, &args));
    }
    out.push(atom(edb, &vars(some_row.values().len())));
    out
}

fn processor(text: &str, prepared: bool) -> QueryProcessor {
    let mut qp = QueryProcessor::new();
    qp.load(text).expect("program loads");
    if prepared {
        qp.prepare().expect("program prepares");
    }
    qp
}

/// What one processor shows for one query: the planned strategy, the run
/// strategy with its rendered answers (or the error), and the `why` text.
fn observe(
    qp: &mut QueryProcessor,
    query: &str,
) -> (String, Result<(String, String), String>, String) {
    let planned = qp.plan_report(query).expect("plan_report never evaluates").strategy;
    let ran = qp.query(query).map_err(|e| e.to_string()).map(|r| {
        let rows: Vec<String> = r
            .answers
            .iter()
            .map(|t| t.to_tuple().display(qp.db().interner()).to_string())
            .collect();
        (r.strategy.to_string(), rows.join("\n"))
    });
    let why = qp.why(query).unwrap_or_else(|e| format!("error: {e}"));
    (planned, ran, why)
}

#[test]
fn the_plan_names_what_runs_prepared_or_not() {
    for (name, text, given) in programs() {
        let mut plain = processor(&text, false);
        let mut prepared = processor(&text, true);
        let graph = DependencyGraph::build(plain.program());
        let stratified = plain
            .program()
            .rules
            .iter()
            .any(|r| graph.scope(r.head.pred) == Scope::StratifiedComponent);
        for query in queries_for(&plain, &given) {
            let context = format!("{name}: {query}");
            let (planned, ran, why) = observe(&mut plain, &query);
            match &ran {
                Ok((strategy, _)) if planned == "edb-scan" => {
                    assert_eq!(strategy, "seminaive", "{context}")
                }
                Ok((strategy, _)) => assert_eq!(strategy, &planned, "{context}"),
                Err(e) => assert_eq!(planned, "unstratifiable", "{context}: {e}"),
            }
            let again = observe(&mut prepared, &query);
            assert_eq!((planned, ran, why), again, "{context}: prepared vs unprepared");
            if stratified {
                // A component that negates or aggregates itself (or any,
                // when the program does not stratify) refuses every
                // specialized strategy. Above it, a strategy either refuses
                // the query (`StrategyUnavailable`, or a baseline's own
                // `Unsupported` selection or `Diverged` cyclic data) or
                // answers what semi-naive answers.
                let pred = plain.parse_query(&query).unwrap().atom.pred;
                let graph = DependencyGraph::build(plain.program());
                let own =
                    graph.scope(pred) == Scope::StratifiedComponent || graph.stratify().is_err();
                for strategy in SPECIALIZED {
                    for qp in [&mut plain, &mut prepared] {
                        let forced = qp.query_with(&query, StrategyChoice::Force(strategy));
                        let answers = match forced {
                            Err(ProcessorError::StrategyUnavailable(_)) => continue,
                            _ if own => {
                                panic!("{context}: forced {strategy} on a stratified component")
                            }
                            Err(ProcessorError::Eval(
                                EvalError::Unsupported(_) | EvalError::Diverged { .. },
                            )) => continue,
                            Err(e) => panic!("{context}: forced {strategy}: {e}"),
                            Ok(r) => r.answers,
                        };
                        let seminaive =
                            qp.query_with(&query, StrategyChoice::Force(Strategy::SemiNaive));
                        let expected = seminaive.expect("semi-naive answers").answers;
                        assert_eq!(answers, expected, "{context}: forced {strategy}");
                    }
                }
            }
        }
    }
}

#[test]
fn an_unstratifiable_program_is_refused_by_the_plan_and_by_the_run() {
    for prepared in [false, true] {
        let mut qp = processor("p(X) :- a(X), !q(X).\nq(X) :- p(X).\na(m).\n", prepared);
        let (planned, ran, _) = observe(&mut qp, "p(X)?");
        assert_eq!(planned, "unstratifiable");
        assert!(ran.is_err(), "{ran:?}");
    }
}
