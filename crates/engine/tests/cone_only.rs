//! A query evaluates only the rules its predicate reads: the rules of
//! `DependencyGraph::cone([pred])`, on every route.
//!
//! The program holds a 2-rule recursion `r` over a 4-edge path, a
//! negation `u(X) :- g(X, Y), !f(X, Y).` over two `f` facts, and an
//! unrelated closure `big` over a 200-edge path: 20 100 tuples, far above
//! the 500-tuple budget every query here runs under. `r(X, Y)?`, `u(X)?`
//! and the fact-only `f(X, Y)?` read nothing of `big`, so each answers
//! within the budget and derives at most `r`'s 10 tuples.

use std::fmt::Write as _;

use sepra_core::exec::ExecOptions;
use sepra_engine::{QueryProcessor, Strategy, StrategyChoice};
use sepra_eval::Budget;

const R: &str = "r(X, Y) :- e(X, Y).\n\
                 r(X, Y) :- e(X, W), r(W, Y).\n\
                 e(p, q). e(q, s). e(s, v). e(v, w).\n";

const U: &str = "u(X) :- g(X, Y), !f(X, Y).\n\
                 g(a, b). g(c, d). f(a, b). f(c, e).\n";

/// Bounded: `t` is provably equivalent to one unfolding.
const SWAP: &str = "t(X, Y) :- sym(X, Y), t(Y, X).\n\
                    t(X, Y) :- base(X, Y).\n\
                    sym(a, b). sym(b, a). base(b, a). base(c, d).\n";

/// `programs` beside the closure `big` over a 200-edge path, loaded under
/// a 500-tuple budget, prepared or not.
fn processor(programs: &[&str], prepare: bool) -> QueryProcessor {
    let mut src = String::from(
        "big(X, Y) :- link(X, Y).\n\
         big(X, Y) :- link(X, W), big(W, Y).\n",
    );
    for i in 0..200 {
        let _ = writeln!(src, "link(l{i}, l{}).", i + 1);
    }
    programs.iter().for_each(|p| src.push_str(p));
    let mut qp = QueryProcessor::new();
    qp.load(&src).unwrap();
    qp.set_exec_options(ExecOptions {
        budget: Budget::default().tuples(500),
        ..ExecOptions::default()
    });
    if prepare {
        qp.prepare().unwrap();
    }
    qp
}

#[test]
fn a_bottom_up_query_derives_only_its_cone() {
    for prepare in [false, true] {
        let mut qp = processor(&[R, U], prepare);
        for choice in [StrategyChoice::Auto, StrategyChoice::Force(Strategy::Naive)] {
            for (query, rows) in [("r(X, Y)?", 10), ("u(X)?", 1), ("f(X, Y)?", 2)] {
                let at = format!("{query} by {choice:?}, prepare={prepare}");
                let r = qp.query_with(query, choice).unwrap_or_else(|e| panic!("{at}: {e}"));
                let bottom_up = [Strategy::SemiNaive, Strategy::Naive];
                assert!(bottom_up.contains(&r.strategy), "{at}: ran {}", r.strategy);
                assert_eq!(r.answers.len(), rows, "{at}");
                let inserted = r.stats.tuples_inserted;
                assert!(inserted <= 10, "{at}: derived {inserted} tuples");
                assert!(!r.stats.relation_sizes.contains_key("big"), "{at}: {:?}", r.stats);
            }
        }
    }
}

#[test]
fn bounded_elimination_derives_only_its_cone() {
    for prepare in [false, true] {
        let mut qp = processor(&[SWAP], prepare);
        let r = qp.query("t(a, Y)?").unwrap_or_else(|e| panic!("prepare={prepare}: {e}"));
        assert_eq!((r.strategy, r.answers.len()), (Strategy::Bounded, 1), "prepare={prepare}");
        assert!(!r.stats.relation_sizes.contains_key("big"), "prepare={prepare}: {:?}", r.stats);
        assert!(r.stats.tuples_inserted <= 10, "prepare={prepare}: {:?}", r.stats);
    }
}
