//! `check_source` stays polynomial in the number of recursive predicates.
//!
//! The program is a chain of 1 000 separable recursions, each reading the
//! previous one: `p0(X, Y) :- e(X, Y).` and, for every `i`,
//! `pi(X, Y) :- e(X, W), pi(W, Y).` and `pi(X, Y) :- p{i-1}(X, Y).` Every
//! pass reads the one dependency graph `check_program` builds, and fresh
//! variable names resume where their base left off, so the check finishes
//! in well under the bound even in the unoptimized test profile.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sepra_lint::check_source;

#[test]
fn a_thousand_chained_recursions_check_in_bounded_time() {
    let n = 1000;
    let mut src = String::from("p0(X, Y) :- e(X, Y).\n");
    for i in 1..=n {
        let _ =
            writeln!(src, "p{i}(X, Y) :- e(X, W), p{i}(W, Y).\np{i}(X, Y) :- p{}(X, Y).", i - 1);
    }
    src.push_str("e(a, b).\n");
    let start = Instant::now();
    let result = check_source("chain.dl", &src, None);
    let elapsed = start.elapsed();
    let separable = result.diagnostics.iter().filter(|d| d.code == "SEP100").count();
    assert_eq!(separable, n, "every link is a separable recursion");
    assert_eq!(result.diagnostics.len(), n, "{:?}", &result.diagnostics[..3]);
    assert!(elapsed < Duration::from_secs(30), "check took {elapsed:?}");
}
