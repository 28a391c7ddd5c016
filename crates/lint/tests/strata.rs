//! The strata corpus: what the dependency graph and stratification say
//! about a program, and how `sepra check` reports it.
//!
//! For every program below a transcript records the components in
//! evaluation (`strata()`) order, the `classify` rows, the stratification
//! levels — or the `StratError`'s `Debug` (spans included) and its
//! `describe` line — and the `STR` diagnostics `check_source` renders. The
//! programs:
//!
//! - every `examples/datalog/*.dl`;
//! - the programs of the stratification and `STR` unit tests;
//! - error programs: negation cycles (two rules, three rules, self),
//!   `count`/`sum` in recursion, `min` through mutual recursion, mixed
//!   aggregate annotations, negation cycles with two shortest witnesses
//!   (which pin the cycle search's tie) and bodies that list predicates
//!   against their first-occurrence order (which pin the component order);
//! - `sepra_gen::random_stratified_scenario(0..60)` and
//!   `sepra_gen::random_linear_scenario(0..60)`.
//!
//! The goldens live at `tests/golden/strata/` in the repository root;
//! after an intentional change, bless new output with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sepra-lint --test strata
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use sepra_ast::analysis::{StratError, Stratification};
use sepra_ast::{parse_program_raw, DependencyGraph, Interner, Program, Sym};
use sepra_gen::random::{random_linear_scenario, random_stratified_scenario};
use sepra_lint::{check_source, render_report_text};

/// The stratification and `STR` unit tests' programs.
const UNIT: &[(&str, &str)] = &[
    ("pure_positive", "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n"),
    (
        "negation_bumps_a_stratum",
        "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n\
         unreach(X, Y) :- node(X), node(Y), !t(X, Y).\n",
    ),
    ("negation_in_cycle", "p(X) :- a(X), !q(X).\nq(X) :- b(X), p(X).\n"),
    ("self_negation", "p(X) :- a(X), !p(X).\n"),
    (
        "min_self_recursion",
        "shortest(Y, min<C>) :- source(X), edge(X, Y, C).\n\
         shortest(Y, min<C>) :- shortest(X, D), edge(X, Y, W), C = D + W.\n",
    ),
    ("count_in_recursion", "reach(X, count<C>) :- reach(Y, C), e(Y, X).\n"),
    ("min_through_mutual_recursion", "p(X, min<C>) :- q(X, C).\nq(X, C) :- p(X, C), e(X).\n"),
    ("levels_chain", "a(X) :- e(X).\nb(X) :- a(X), !f(X).\nc(X) :- a(X), !b(X).\nd(X) :- c(X).\n"),
    (
        "count_outside_recursion",
        "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\nreach(X, count<Y>) :- t(X, Y).\n",
    ),
    ("mixed_functions", "best(X, min<C>) :- w(X, C).\nbest(X, max<C>) :- v(X, C).\n"),
    ("mixed_plain", "best(X, min<C>) :- w(X, C).\nbest(X, C) :- v(X, C).\n"),
    ("facts_for_aggregate_heads", "best(a, 3).\nbest(X, min<C>) :- w(X, C).\n"),
    ("empty", ""),
    ("lint_pure_positive", "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\ne(m, n).\n"),
    (
        "lint_stratified_negation",
        "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n\
         unreach(X, Y) :- node(X), node(Y), !t(X, Y).\ne(m, n).\nnode(m).\nnode(n).\n",
    ),
    (
        "lint_min_self_recursion",
        "shortest(Y, min<C>) :- source(X), w(X, Y, C).\n\
         shortest(Y, min<C>) :- shortest(X, D), w(X, Y, W2), C = D + W2.\n\
         source(a).\nw(a, b, 1).\n",
    ),
    ("lint_negation_in_cycle", "p(X) :- a(X), !q(X).\nq(X) :- b(X), p(X).\na(m).\nb(m).\n"),
    ("lint_count_in_recursion", "reach(X, count<C>) :- reach(Y, C), e(Y, X).\ne(m, n).\n"),
    (
        "lint_mixed_annotations",
        "best(X, min<C>) :- w(X, C).\nbest(X, max<C>) :- v(X, C).\nw(a, 1).\nv(a, 2).\n",
    ),
    ("graph_simple_recursion", "t(X, Y) :- a(X, W), t(W, Y).\nt(X, Y) :- t0(X, Y).\n"),
    (
        "graph_mutual_recursion",
        "p(X) :- e(X, Y), q(Y).\nq(X) :- f(X, Y), p(Y).\np(X) :- b(X).\nq(X) :- c(X).\n",
    ),
    (
        "graph_strata_respect_dependencies",
        "t(X, Y) :- a(X, W), t(W, Y).\nt(X, Y) :- base(X, Y).\ntop(X) :- t(X, X).\n",
    ),
];

/// Programs that do not stratify, and orders that pin the tie-breaks.
const ERRORS: &[(&str, &str)] = &[
    ("negation_two_rules", "p(X) :- a(X), !q(X).\nq(X) :- b(X), p(X).\na(m).\nb(m).\n"),
    (
        "negation_three_rules",
        "p(X) :- a(X), !q(X).\nq(X) :- r(X).\nr(X) :- b(X), p(X).\na(m).\nb(m).\n",
    ),
    ("self_negation", "p(X) :- a(X), !p(X).\na(m).\n"),
    (
        "negation_beside_a_stratified_one",
        "t(X) :- e(X).\nu(X) :- n(X), !t(X).\np(X) :- u(X), !q(X).\nq(X) :- p(X).\n\
         e(m).\nn(m).\n",
    ),
    ("count_in_self_recursion", "reach(X, count<C>) :- reach(Y, C), e(Y, X).\ne(m, n).\n"),
    (
        "count_through_mutual_recursion",
        "total(X, count<Y>) :- link(X, Y).\nlink(X, Y) :- total(X, Y), e(X, Y).\n\
         link(X, Y) :- e(X, Y).\ne(1, 2).\n",
    ),
    ("sum_in_self_recursion", "acc(X, sum<C>) :- acc(X, C), w(X).\nacc(X, C) :- s(X, C).\n"),
    (
        "min_through_mutual_recursion",
        "p(X, min<C>) :- q(X, C).\nq(X, C) :- p(X, C), e(X).\nq(X, C) :- s(X, C).\n\
         e(1).\ns(1, 2).\n",
    ),
    (
        "max_through_three_predicates",
        "hi(X, max<C>) :- mid(X, C).\nmid(X, C) :- lo(X, C).\nlo(X, C) :- hi(X, C), e(X).\n\
         lo(X, C) :- s(X, C).\n",
    ),
    (
        "mixed_different_functions",
        "best(X, min<C>) :- w(X, C).\nbest(X, max<C>) :- v(X, C).\nw(a, 1).\nv(a, 2).\n",
    ),
    (
        "mixed_annotated_then_plain",
        "best(X, min<C>) :- w(X, C).\nbest(X, C) :- v(X, C).\nw(a, 1).\nv(a, 2).\n",
    ),
    (
        "mixed_plain_then_annotated",
        "best(X, C) :- v(X, C).\nbest(X, min<C>) :- w(X, C).\nw(a, 1).\nv(a, 2).\n",
    ),
    (
        "mixed_positions",
        "best(min<C>, X) :- w(X, C).\nbest(X, min<C>) :- v(X, C).\nw(a, 1).\nv(a, 2).\n",
    ),
    (
        "mixed_before_a_negation_cycle",
        "p(X) :- a(X), !q(X).\nq(X) :- p(X).\nbest(X, min<C>) :- w(X, C).\n\
         best(X, max<C>) :- v(X, C).\n",
    ),
    (
        "negation_tie_across_rules",
        "p(X) :- a(X), !q(X).\nq(X) :- r(X).\nq(X) :- s(X).\nr(X) :- p(X).\ns(X) :- p(X).\n\
         a(m).\n",
    ),
    (
        "negation_tie_across_rules_swapped",
        "p(X) :- a(X), !q(X).\nq(X) :- s(X).\nq(X) :- r(X).\nr(X) :- p(X).\ns(X) :- p(X).\n\
         a(m).\n",
    ),
    (
        "negation_tie_within_a_body",
        "p(X) :- a(X), !q(X).\nq(X) :- s(X), r(X).\nr(X) :- p(X).\ns(X) :- p(X).\na(m).\n",
    ),
    ("two_negations_in_one_cycle", "p(X) :- a(X), !q(X).\nq(X) :- b(X), !p(X).\na(m).\nb(m).\n"),
    (
        "body_against_first_occurrence",
        "z(X) :- p(X).\nw(X) :- r(X).\np(X) :- q(X), r(X).\nq(X) :- a(X).\nr(X) :- b(X).\n",
    ),
    (
        "body_against_first_occurrence_negated",
        "z(X) :- p(X).\nw(X) :- r(X).\np(X) :- q(X), !r(X).\nq(X) :- a(X).\nr(X) :- b(X).\n\
         a(m).\nb(m).\n",
    ),
    (
        "levels_through_aggregate_and_negation",
        "d(X, count<Y>) :- e(X, Y).\nc(X) :- n(X), !d(X, 1).\nb(X, min<C>) :- c(X), w(X, C).\n\
         a(X) :- b(X, C), !c(X).\n",
    ),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the repo root")
        .to_path_buf()
}

/// The corpus's one call into stratification.
fn stratify(program: &Program) -> Result<Stratification, StratError> {
    sepra_ast::analysis::stratify(program)
}

/// The transcript of one program.
fn transcript(name: &str, src: &str, out: &mut String) {
    let _ = writeln!(out, "== {name}");
    let mut interner = Interner::new();
    let program = match parse_program_raw(src, &mut interner) {
        Ok(program) => program,
        Err(e) => {
            let _ = writeln!(out, "parse error: {e}\n");
            return;
        }
    };
    let names = |preds: &[Sym]| -> String {
        preds.iter().map(|&p| interner.resolve(p)).collect::<Vec<_>>().join(", ")
    };
    let graph = DependencyGraph::build(&program);
    let components: Vec<String> =
        graph.strata().iter().map(|c| format!("[{}]", names(c))).collect();
    let _ = writeln!(out, "components: {}", components.join(" "));
    for info in graph.classify(&program) {
        let _ = writeln!(
            out,
            "  {}/{}{}{}",
            interner.resolve(info.pred),
            info.arity,
            if info.is_idb { " idb" } else { "" },
            if info.is_recursive { " recursive" } else { "" },
        );
    }
    match stratify(&program) {
        Ok(strat) => {
            for (level, preds) in strat.strata.iter().enumerate() {
                let _ = writeln!(out, "level {level}: {}", names(preds));
            }
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e:?}");
            let _ = writeln!(out, "describe: {}", e.describe(&interner));
        }
    }
    let mut check = check_source(&format!("{name}.dl"), src, None);
    check.diagnostics.retain(|d| d.code.starts_with("STR"));
    out.push_str(&render_report_text(&check.diagnostics, &check.file));
    out.push('\n');
}

/// Every corpus file: `(golden name, transcript)`.
fn transcripts() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let dir = repo_root().join("examples/datalog");
    let mut examples: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/datalog exists")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dl"))
        .collect();
    examples.sort();
    for path in examples {
        let name = path.file_stem().expect("file name").to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("example reads");
        let mut text = String::new();
        transcript(&name, &src, &mut text);
        out.push((format!("example_{name}"), text));
    }
    for (file, programs) in [("unit", UNIT), ("errors", ERRORS)] {
        let mut text = String::new();
        for (name, src) in programs {
            transcript(name, src, &mut text);
        }
        out.push((file.to_string(), text));
    }
    let mut text = String::new();
    for seed in 0..60 {
        transcript(&format!("seed {seed}"), &random_stratified_scenario(seed).program, &mut text);
    }
    out.push(("random_stratified".into(), text));
    let mut text = String::new();
    for seed in 0..60 {
        transcript(&format!("seed {seed}"), &random_linear_scenario(seed).program, &mut text);
    }
    out.push(("random_linear".into(), text));
    out
}

#[test]
fn strata_match_the_corpus() {
    let mut failures: Vec<String> = Vec::new();
    for (name, text) in transcripts() {
        let golden = repo_root().join("tests/golden/strata").join(format!("{name}.txt"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(golden.parent().expect("golden has a parent")).unwrap();
            std::fs::write(&golden, &text).unwrap();
            continue;
        }
        match std::fs::read_to_string(&golden) {
            Ok(expected) if expected == text => {}
            Ok(expected) => {
                let line = expected.lines().zip(text.lines()).position(|(a, b)| a != b);
                let line =
                    line.unwrap_or_else(|| expected.lines().count().min(text.lines().count()));
                failures.push(format!(
                    "{} is stale at line {} (bless with UPDATE_GOLDEN=1)\n--- expected\n{}\n--- actual\n{}",
                    golden.display(),
                    line + 1,
                    expected.lines().nth(line).unwrap_or("<end>"),
                    text.lines().nth(line).unwrap_or("<end>"),
                ));
            }
            Err(e) => failures.push(format!("cannot read {}: {e}", golden.display())),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
