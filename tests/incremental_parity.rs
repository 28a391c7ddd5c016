//! Live-mutation parity: a processor maintained incrementally through an
//! interleaving of inserts and retracts must answer every query exactly
//! like a processor built from scratch on the final fact set — for every
//! strategy, serial and parallel — and every post-mutation query must run
//! against a cached plan revalidated for statistics drift: retained while
//! the cardinalities that justified it still hold, recompiled once they
//! moved past the drift threshold.

use std::collections::BTreeSet;

use separable::engine::{ProcessorError, QueryProcessor, Strategy, StrategyChoice};
use separable::ExecOptions;

const RULES: &str = "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n";

const STRATEGIES: [Strategy; 7] = [
    Strategy::Separable,
    Strategy::MagicSets,
    Strategy::MagicSupplementary,
    Strategy::Counting,
    Strategy::HenschenNaqvi,
    Strategy::SemiNaive,
    Strategy::Naive,
];

/// Tracks the ground truth alongside the incrementally maintained
/// processor: a mirror of the EDB from which fresh processors are built.
struct Mirror {
    edges: BTreeSet<(String, String)>,
}

impl Mirror {
    fn fact_text(&self) -> String {
        let mut text = String::from(RULES);
        for (a, b) in &self.edges {
            text.push_str(&format!("e({a}, {b}).\n"));
        }
        text
    }

    fn apply(&mut self, inserts: &[(&str, &str)], retracts: &[(&str, &str)]) {
        for &(a, b) in retracts {
            self.edges.remove(&(a.to_string(), b.to_string()));
        }
        for &(a, b) in inserts {
            self.edges.insert((a.to_string(), b.to_string()));
        }
    }
}

fn edge_fact(a: &str, b: &str) -> String {
    format!("e({a}, {b}).")
}

/// Sorted display-rendered answers (the two processors intern symbols in
/// different orders, so raw `Sym` tuples are not comparable).
fn rendered(qp: &QueryProcessor, result: &separable::QueryResult) -> Vec<String> {
    let mut rows: Vec<String> =
        result.answers.iter().map(|t| t.display(qp.db().interner()).to_string()).collect();
    rows.sort();
    rows
}

/// Asserts the maintained processor and a from-scratch processor agree on
/// `query` under every strategy and thread count — equal answers, or the
/// same kind of strategy refusal.
fn assert_parity(qp: &mut QueryProcessor, mirror: &Mirror, query: &str, context: &str) {
    let mut fresh = QueryProcessor::new();
    fresh.load(&mirror.fact_text()).unwrap();
    for strategy in STRATEGIES {
        qp.set_exec_options(ExecOptions::default());
        fresh.set_exec_options(ExecOptions::default());
        let a = qp.query_with(query, StrategyChoice::Force(strategy));
        let b = fresh.query_with(query, StrategyChoice::Force(strategy));
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    rendered(qp, &a),
                    rendered(&fresh, &b),
                    "{context}: {strategy} diverged"
                );
            }
            (Err(ProcessorError::StrategyUnavailable(_)), Err(_)) => {}
            (a, b) => panic!(
                "{context}: {strategy}: maintained {:?} vs fresh {:?}",
                a.map(|r| r.answers.len()),
                b.map(|r| r.answers.len()),
            ),
        }
    }
}

#[test]
fn interleaved_mutations_match_from_scratch_for_every_strategy() {
    let chain = 12usize;
    let mut mirror = Mirror { edges: BTreeSet::new() };
    for i in 0..chain {
        mirror.apply(&[(&format!("n{i}"), &format!("n{}", i + 1))], &[]);
    }
    let mut qp = QueryProcessor::new();
    qp.load(&mirror.fact_text()).unwrap();
    qp.prepare().unwrap();

    // Each step is one all-or-none mutation mixing retracts (applied
    // first) and inserts; the mirror tracks the expected final EDB.
    type Edges<'a> = Vec<(&'a str, &'a str)>;
    let steps: [(&str, Edges, Edges); 5] = [
        // Grow the chain and add a diamond detour around n5 -> n6.
        ("grow + detour", vec![("n12", "n13"), ("n5", "m0"), ("m0", "n6")], vec![]),
        // Drop the direct edge: n6 now reachable only through the detour,
        // so every t(_, n6..) answer must be rederived, not deleted.
        ("force rederivation", vec![("n13", "n14")], vec![("n5", "n6")]),
        // Undo the detour and restore the direct edge in one mutation.
        ("restore", vec![("n5", "n6")], vec![("n5", "m0"), ("m0", "n6")]),
        // Cut the chain at its head: the selected closure empties.
        ("cut head", vec![], vec![("n0", "n1")]),
        // Splice the head back.
        ("splice head", vec![("n0", "n1")], vec![]),
    ];

    assert_parity(&mut qp, &mirror, "t(n0, Y)?", "before any mutation");
    for (context, inserts, retracts) in steps {
        let insert_facts: Vec<String> = inserts.iter().map(|(a, b)| edge_fact(a, b)).collect();
        let retract_facts: Vec<String> = retracts.iter().map(|(a, b)| edge_fact(a, b)).collect();
        let insert_refs: Vec<&str> = insert_facts.iter().map(String::as_str).collect();
        let retract_refs: Vec<&str> = retract_facts.iter().map(String::as_str).collect();
        let out = qp.apply_mutation(&insert_refs, &retract_refs).unwrap();
        assert_eq!(out.inserted, inserts.len(), "{context}: insert count");
        assert_eq!(out.retracted, retracts.len(), "{context}: retract count");
        mirror.apply(&inserts, &retracts);
        assert_parity(&mut qp, &mirror, "t(n0, Y)?", context);
        assert_parity(&mut qp, &mirror, "t(n3, Y)?", context);
    }
}

#[test]
fn post_mutation_queries_revalidate_cached_plans_against_drift() {
    let mut mirror = Mirror { edges: BTreeSet::new() };
    for i in 0..6 {
        mirror.apply(&[(&format!("n{i}"), &format!("n{}", i + 1))], &[]);
    }
    let mut qp = QueryProcessor::new();
    qp.load(&mirror.fact_text()).unwrap();
    qp.prepare().unwrap();

    let first = qp.query_with("t(n0, Y)?", StrategyChoice::Force(Strategy::Separable)).unwrap();
    assert_eq!(first.answers.len(), 6);
    let gen_before = qp.generation();
    assert_eq!(qp.plan_cache().generation(), gen_before);
    assert_eq!(qp.plan_cache().entries(), 1);
    let misses_before = qp.plan_cache().misses();

    let out = qp.apply_mutation(&["e(n6, n7)."], &[]).unwrap();
    assert_eq!(out.generation, gen_before + 1);
    assert_eq!(qp.generation(), gen_before + 1);
    // A mutation re-stamps the cache before any query runs, but a small
    // EDB change is within drift tolerance: the plan's statistics
    // snapshot is still representative, so the entry survives.
    assert_eq!(qp.plan_cache().entries(), 1);
    assert_eq!(qp.plan_cache().generation(), gen_before + 1);
    assert_eq!(qp.plan_cache().drift_invalidations(), 0);

    // The retained plan is served (a hit, not a recompile) and executes
    // against the mutated database — plans hold join orders, not data.
    let second = qp.query_with("t(n0, Y)?", StrategyChoice::Force(Strategy::Separable)).unwrap();
    assert_eq!(second.answers.len(), 7);
    assert_eq!(qp.plan_cache().misses(), misses_before);

    // Bulk growth pushes the cardinalities past the drift threshold: the
    // revalidation drops the stale plan and the next query recompiles.
    let bulk: Vec<String> = (0..40).map(|i| format!("e(x{i}, n0).")).collect();
    let bulk_refs: Vec<&str> = bulk.iter().map(String::as_str).collect();
    qp.apply_mutation(&bulk_refs, &[]).unwrap();
    for (a, b) in bulk.iter().map(|f| f.trim_end_matches('.')).map(|f| {
        let inner = f.strip_prefix("e(").unwrap().strip_suffix(')').unwrap();
        let (a, b) = inner.split_once(", ").unwrap();
        (a.to_string(), b.to_string())
    }) {
        mirror.apply(&[(&a, &b)], &[]);
    }
    assert_eq!(qp.plan_cache().entries(), 0);
    assert_eq!(qp.plan_cache().drift_invalidations(), 1);
    let third = qp.query_with("t(n0, Y)?", StrategyChoice::Force(Strategy::Separable)).unwrap();
    assert_eq!(third.answers.len(), 7);
    assert_eq!(qp.plan_cache().misses(), misses_before + 1);

    // The replanned processor still matches a from-scratch build.
    mirror.apply(&[("n6", "n7")], &[]);
    assert_parity(&mut qp, &mirror, "t(n0, Y)?", "after drift replan");

    // An ineffective mutation keeps both the generation and the cache.
    let generation = qp.generation();
    let entries = qp.plan_cache().entries();
    let out = qp.apply_mutation(&[], &["e(n90, n91)."]).unwrap();
    assert_eq!(out.retracted, 0);
    assert_eq!(qp.generation(), generation);
    assert_eq!(qp.plan_cache().entries(), entries);
}
