//! A write costs its delta: maintaining the prepared support touches only
//! the components a write reaches, and a positive component keeps its
//! tuple-granular phases beside one that negates.
//!
//! The support is a closure `big` over an `n`-edge path `n0 → … → n{n}`,
//! read by a separable `top` that also reads `f`. The second variant adds
//! an unrelated `safe(X, Y) :- g(X, Y), !bad(Y).`, read by a separable
//! `top2`. The support never reads `f`; with the negation, `g` reaches only
//! `safe`, whose component is recomputed, and an `e` edge off the path
//! reaches only `big`, whose component keeps delete-and-rederive.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sepra_engine::QueryProcessor;

const NEGATION: &str = "safe(X, Y) :- g(X, Y), !bad(Y).\n\
                        top2(X, Y) :- f(X, W), top2(W, Y).\n\
                        top2(X, Y) :- safe(X, Y).\n\
                        g(a, b). g(a, c). bad(c).\n";

/// The prepared program over an `n`-edge path, with or without the negation.
fn support(n: usize, negation: bool) -> QueryProcessor {
    let mut src = String::from(
        "big(X, Y) :- e(X, Y).\n\
         big(X, Y) :- e(X, W), big(W, Y).\n\
         top(X, Y) :- f(X, W), top(W, Y).\n\
         top(X, Y) :- big(X, Y).\n\
         f(m, n0).\n",
    );
    if negation {
        src.push_str(NEGATION);
    }
    for i in 0..n {
        let _ = writeln!(src, "e(n{i}, n{}).", i + 1);
    }
    let mut qp = QueryProcessor::new();
    qp.load(&src).unwrap();
    qp.prepare().unwrap();
    qp
}

/// The tuples the write `fact` derives, and how long it takes.
fn write(qp: &mut QueryProcessor, fact: &str) -> (usize, Duration) {
    let start = Instant::now();
    let out = qp.apply_mutation(&[fact], &[]).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(out.inserted, 1, "{fact}");
    (out.stats.tuples_inserted, elapsed)
}

/// How much longer the one-fact writes `fact(k)` take at n = 400 than at
/// n = 100, by the median of nine each. The two sizes take turns, so a
/// busy host slows both alike.
fn ratio(fact: &dyn Fn(usize) -> String, negation: bool) -> f64 {
    let (mut small, mut large) = (support(100, negation), support(400, negation));
    let mut times: [Vec<Duration>; 2] = Default::default();
    for k in 0..9 {
        times[0].push(write(&mut small, &fact(k)).1);
        times[1].push(write(&mut large, &fact(k)).1);
    }
    let [small, large] = times.map(|mut t| {
        t.sort();
        t[4].as_secs_f64()
    });
    large / small
}

#[test]
fn a_disconnected_edge_derives_its_own_closure_only() {
    for n in [100, 400] {
        for negation in [false, true] {
            let mut qp = support(n, negation);
            let (derived, _) = write(&mut qp, "e(x0, x1).");
            assert!(derived <= 5, "n = {n}, negation = {negation}: derived {derived} tuples");
            let r = qp.query("top(m, Y)?").unwrap();
            assert_eq!(r.answers.len(), n, "n = {n}, negation = {negation}");
        }
    }
}

#[test]
fn a_write_that_derives_little_costs_the_same_at_every_size() {
    let f = |k: usize| format!("f(w{k}, n0).");
    let g = |k: usize| format!("g(w{k}, v{k}).");
    let e = |k: usize| format!("e(x{k}, y{k}).");
    for negation in [false, true] {
        let of_f = ratio(&f, negation);
        assert!(of_f <= 2.0, "negation = {negation}: an f insert at n = 400 took {of_f:.1}×");
    }
    let of_g = ratio(&g, true);
    assert!(of_g <= 2.0, "a g insert at n = 400 took {of_g:.1}× n = 100");
    // Still copies and re-indexes the changed `big`: reported, not gated.
    println!("a positive e insert at n = 400 took {:.1}× n = 100", ratio(&e, false));
}
