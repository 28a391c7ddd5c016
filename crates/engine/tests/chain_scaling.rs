//! `prepare`, a write and a Separable query stay linear — the query flat —
//! in the number of separable predicates.
//!
//! The program is a chain of `n` separable recursions, each reading the
//! previous one: `p0(X, Y) :- e(X, Y).` and, for every `i`,
//! `pi(X, Y) :- e(X, W), pi(W, Y).` and `pi(X, Y) :- p{i-1}(X, Y).`, over a
//! 30-edge path `n0 → … → n30`. The lower strata every link reads are
//! materialized once and maintained once per write, so a one-fact insert
//! derives each `p_i` tuple once, and a query reads only the relations its
//! own rules name.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sepra_engine::{QueryProcessor, Strategy, StrategyChoice};

fn chain(n: usize) -> QueryProcessor {
    let mut src = String::from("p0(X, Y) :- e(X, Y).\n");
    for i in 1..=n {
        let _ =
            writeln!(src, "p{i}(X, Y) :- e(X, W), p{i}(W, Y).\np{i}(X, Y) :- p{}(X, Y).", i - 1);
    }
    for i in 0..30 {
        let _ = writeln!(src, "e(n{i}, n{}).", i + 1);
    }
    let mut qp = QueryProcessor::new();
    qp.load(&src).unwrap();
    qp
}

/// Every `p_i(n0, Y)?` rendered, under `choice`.
fn answers(qp: &mut QueryProcessor, n: usize, choice: StrategyChoice) -> Vec<Vec<String>> {
    (1..=n)
        .map(|i| {
            let r = qp.query_with(&format!("p{i}(n0, Y)?"), choice).unwrap();
            let interner = qp.db().interner();
            r.answers.iter().map(|t| t.display(interner).to_string()).collect()
        })
        .collect()
}

#[test]
fn a_disconnected_insert_derives_each_link_once() {
    for n in [50, 200] {
        let mut qp = chain(n);
        qp.prepare().unwrap();
        let out = qp.apply_mutation(&["e(n50, n51)."], &[]).unwrap();
        assert_eq!(out.inserted, 1);
        // p0 … p{n-1} each gain (n50, n51); p_n is never materialized.
        let inserted = out.stats.tuples_inserted;
        assert!(inserted <= n + 1, "n = {n}: the insert derived {inserted} tuples");
    }
}

#[test]
fn every_link_agrees_prepared_unprepared_and_bottom_up() {
    let n = 6;
    let mut prepared = chain(n);
    prepared.prepare().unwrap();
    let mut plain = chain(n);
    // Nothing, a back edge that closes the path into a cycle, and a cut.
    let writes: [(&[&str], &[&str], usize); 3] =
        [(&[], &[], 30), (&["e(n30, n0)."], &[], 31), (&[], &["e(n12, n13)."], 12)];
    for (inserts, retracts, reached) in writes {
        for qp in [&mut prepared, &mut plain] {
            qp.apply_mutation(inserts, retracts).unwrap();
        }
        let want = answers(&mut plain, n, StrategyChoice::Force(Strategy::SemiNaive));
        assert!(want.iter().all(|rows| rows.len() == reached), "{want:?}");
        for qp in [&mut prepared, &mut plain] {
            assert_eq!(answers(qp, n, StrategyChoice::Auto), want, "{inserts:?} {retracts:?}");
            let forced = StrategyChoice::Force(Strategy::Separable);
            assert_eq!(answers(qp, n, forced), want, "{inserts:?} {retracts:?}");
        }
    }
}

/// The median of three timings of `run` on a fresh chain of `n` links.
fn median(n: usize, mut run: impl FnMut(&mut QueryProcessor) -> Duration) -> Duration {
    let mut times: Vec<Duration> = (0..3).map(|_| run(&mut chain(n))).collect();
    times.sort();
    times[1]
}

#[test]
fn prepare_writes_and_queries_scale_with_the_chain() {
    let timed = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed()
    };
    let prepare = |qp: &mut QueryProcessor| timed(&mut || qp.prepare().unwrap());
    let insert = |qp: &mut QueryProcessor| {
        qp.prepare().unwrap();
        timed(&mut || drop(qp.apply_mutation(&["e(n40, n41)."], &[]).unwrap()))
    };
    // Ten queries after a first one that fills the plan cache.
    let query = |n: usize| {
        move |qp: &mut QueryProcessor| {
            let query = format!("p{n}(n0, Y)?");
            qp.prepare().unwrap();
            qp.query(&query).unwrap();
            timed(&mut || {
                (0..10).for_each(|_| assert_eq!(qp.query(&query).unwrap().answers.len(), 30))
            })
        }
    };
    let ratio = |small: Duration, large: Duration| large.as_secs_f64() / small.as_secs_f64();
    let prepared = ratio(median(50, prepare), median(200, prepare));
    assert!(prepared <= 8.0, "prepare: n = 200 took {prepared:.1}× n = 50");
    let inserted = ratio(median(50, insert), median(200, insert));
    assert!(inserted <= 8.0, "insert: n = 200 took {inserted:.1}× n = 50");
    let queried = ratio(median(50, query(50)), median(200, query(200)));
    assert!(queried <= 2.0, "query: n = 200 took {queried:.1}× n = 50");
}
