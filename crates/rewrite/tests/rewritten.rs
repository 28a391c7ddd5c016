//! The golden corpus of demand rewrites, and a seeded sweep against
//! semi-naive evaluation.
//!
//! The corpus runs every positive example program under
//! `examples/datalog/`, plus three unit-test programs (two demands on one
//! recursion, long rule bodies, same generation). It asks each IDB
//! predicate with its first and with its last argument bound, under basic,
//! supplementary and subsumptive magic sets, and writes down the
//! pretty-printed rewritten program, the peak size of every relation it
//! materialised, and the evaluation counters. The goldens live at
//! `tests/golden/rewrite/` in the repository root; after an intentional
//! change, bless new output with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sepra-rewrite --test rewritten
//! ```

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use sepra_ast::{
    parse_program, parse_query, pretty, DependencyGraph, Program, Query, RecursiveDef, Scope, Sym,
};
use sepra_core::bounded::analyze;
use sepra_eval::{query_answers, seminaive, EvalError, EvalOptions};
use sepra_gen::graphs::add_random_digraph;
use sepra_gen::random::random_linear_scenario;
use sepra_rewrite::{
    bounded_evaluate, magic_evaluate, magic_evaluate_as, magic_evaluate_supplementary, Magic,
    MagicOutcome,
};
use sepra_storage::{Database, Relation, Tuple};

/// The three demand configurations, as the corpus names them.
const CONFIGS: [&str; 3] = ["basic", "supplementary", "subsumptive"];

fn rewrite(
    config: &str,
    program: &Program,
    query: &Query,
    db: &Database,
) -> Result<MagicOutcome, EvalError> {
    match config {
        "basic" => magic_evaluate(program, query, db),
        "supplementary" => magic_evaluate_supplementary(program, query, db),
        _ => magic_evaluate_as(program, query, db, Magic::Subsumptive, &EvalOptions::default()),
    }
}

/// Two demands on one recursion: `t@bf` from the query path, `t@bb` from
/// the pinned path, which subsumptive adornment collapses onto `t@bf`.
const TWO_DEMAND: &str = "q(X, Y) :- t(X, Y).\n\
     q(X, Y) :- pin(X, Z, Y), t(Z, Y).\n\
     t(X, Y) :- a1(X, W), t(W, Y).\n\
     t(X, Y) :- t0(X, Y).\n\
     a1(n0, n1). a1(n1, n2). a1(n2, n3). a1(n3, n4). a1(n4, n5).\n\
     t0(n5, fin). t0(n2, mid). pin(n0, n1, fin). pin(n0, n3, mid).\n";

/// A three-atom prefix before the recursive call, which supplementary magic
/// materialises once instead of twice.
const LONG_BODY: &str = "reach(X, Y) :- hop(X, A), hop(A, B), hop(B, W), reach(W, Y).\n\
     reach(X, Y) :- goal(X, Y).\n\
     hop(n0, n1). hop(n1, n2). hop(n2, n3). hop(n3, n4). hop(n4, n5).\n\
     hop(n5, n6). goal(n3, g1). goal(n6, g2). goal(n0, g0).\n";

/// Same generation: the recursive call sits between two EDB atoms.
const SAME_GENERATION: &str = "sg(X, Y) :- flat(X, Y).\n\
     sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n\
     up(a, p). up(b, q). flat(p, q). down(q, b2). down(p, a2). up(a2, p).\n";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/rewrite sits two levels below the repo root")
        .to_path_buf()
}

/// Every corpus input: `(golden name, program text)`.
fn inputs() -> Vec<(String, String)> {
    let dir = repo_root().join("examples/datalog");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/datalog lists")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "dl"))
        .collect();
    files.sort();
    let mut out: Vec<(String, String)> = Vec::new();
    for path in files {
        // `lints.dl` is a fixture for the linter's arity error, not a
        // program; the `str_*` programs use negation or aggregates.
        let text = std::fs::read_to_string(&path).expect("example reads");
        let program = parse_program(&text, &mut sepra_ast::Interner::new());
        let positive = |p: &Program| {
            let graph = DependencyGraph::build(p);
            p.rules.iter().all(|r| graph.scope(r.head.pred) != Scope::StratifiedComponent)
        };
        if program.is_ok_and(|p| positive(&p)) {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            out.push((name, text));
        }
    }
    for (name, text) in
        [("two_demand", TWO_DEMAND), ("long_body", LONG_BODY), ("same_generation", SAME_GENERATION)]
    {
        out.push((name.to_string(), text.to_string()));
    }
    out
}

/// The IDB predicates of `program` with their arities, in first-rule order.
fn idb_predicates(program: &Program) -> Vec<(Sym, usize)> {
    let mut out: Vec<(Sym, usize)> = Vec::new();
    for rule in program.rules.iter().filter(|r| !r.is_fact()) {
        if !out.iter().any(|&(p, _)| p == rule.head.pred) {
            out.push((rule.head.pred, rule.head.arity()));
        }
    }
    out
}

/// The queries the corpus asks of `pred`: its first argument bound, then
/// its last. The constant is the smallest value semi-naive derives in that
/// column (so most queries have answers), or `nothing` when it derives
/// none.
fn queries(pred: Sym, arity: usize, program: &Program, db: &mut Database) -> Vec<String> {
    let derived = seminaive(program, db).ok();
    let mut positions = vec![0, arity - 1];
    positions.dedup();
    positions
        .into_iter()
        .map(|pos| {
            let column: BTreeSet<String> = derived
                .as_ref()
                .and_then(|d| d.relation(pred))
                .map(|rel| {
                    rel.iter()
                        .map(|t| {
                            let rendered = t.display(db.interner()).to_string();
                            rendered.trim_matches(['(', ')']).split(", ").nth(pos).unwrap().into()
                        })
                        .collect()
                })
                .unwrap_or_default();
            let constant = column.into_iter().next().unwrap_or_else(|| "nothing".into());
            let terms: Vec<String> = (0..arity)
                .map(|i| if i == pos { constant.clone() } else { format!("Q{i}") })
                .collect();
            format!("{}({})?", db.interner().resolve(pred), terms.join(", "))
        })
        .collect()
}

/// One configuration's rewrite of one query, written down.
fn transcript(config: &str, program: &Program, query: &Query, db: &Database, text: &mut String) {
    let _ = writeln!(text, "== {} · {config}", pretty::query_to_string(query, db.interner()));
    match rewrite(config, program, query, db) {
        Ok(out) => {
            text.push_str(&pretty::program_to_string(&out.rewritten, out.db.interner()));
            let s = &out.stats;
            let _ = writeln!(
                text,
                "-- iterations {} | inserted {} / attempts {} | scanned {}",
                s.iterations, s.tuples_inserted, s.insert_attempts, s.rows_scanned
            );
            for (name, size) in &s.relation_sizes {
                let _ = writeln!(text, "  {name}: {size}");
            }
        }
        Err(e) => {
            let _ = writeln!(text, "-- error: {e}");
        }
    }
    text.push('\n');
}

#[test]
fn rewritten_programs_match_the_corpus() {
    let mut failures: Vec<String> = Vec::new();
    for (name, source) in inputs() {
        let mut db = Database::new();
        let program = parse_program(&source, db.interner_mut()).expect("corpus input parses");
        let mut text = String::new();
        for (pred, arity) in idb_predicates(&program) {
            for query_src in queries(pred, arity, &program, &mut db) {
                let query = parse_query(&query_src, db.interner_mut()).expect("query parses");
                for config in CONFIGS {
                    transcript(config, &program, &query, &db, &mut text);
                }
            }
        }
        let golden = repo_root().join("tests/golden/rewrite").join(format!("{name}.txt"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
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

// ---------------------------------------------------------------------
// The seeded sweep.

fn tuple_set(rel: &Relation) -> BTreeSet<Tuple> {
    rel.iter().map(|t| t.to_tuple()).collect()
}

/// Checks every configuration against semi-naive on one scenario.
fn agree(label: &str, program: &Program, query: &Query, db: &Database) {
    let derived = seminaive(program, db).unwrap_or_else(|e| panic!("{label}: semi-naive: {e}"));
    let expected = tuple_set(&query_answers(query, db, Some(&derived)).expect("answers"));
    let base_len = db.interner().len();
    for config in CONFIGS {
        let out = rewrite(config, program, query, db)
            .unwrap_or_else(|e| panic!("{label}: {config} failed: {e}"));
        assert_eq!(tuple_set(&out.answers), expected, "{label}: {config} disagrees");
        answers_within(&format!("{label}: {config}"), &out, base_len);
    }
    assert_eq!(db.interner().len(), base_len, "{label}: the caller's interner grew");
}

/// Parses `program` and `query` into `db` and checks them.
fn agree_on(label: &str, program: &str, query: &str, mut db: Database) {
    let program = parse_program(program, db.interner_mut()).expect("program parses");
    let query = parse_query(query, db.interner_mut()).expect("query parses");
    agree(label, &program, &query, &db);
}

#[test]
fn every_configuration_answers_what_seminaive_answers() {
    // General linear recursions, shifting variables included.
    for seed in 0..100 {
        let scenario = random_linear_scenario(seed);
        let label = format!("linear seed {seed}\n{}", scenario.program);
        agree_on(&label, &scenario.program, &scenario.query, scenario.db);
    }
    // Two demands of different strength on one recursion, over a random
    // digraph, from both ends.
    let rules: String = TWO_DEMAND.lines().take(4).collect::<Vec<_>>().join("\n");
    for seed in 0..40 {
        let mut db = Database::new();
        add_random_digraph(&mut db, "a1", "n", 8, 12, seed);
        add_random_digraph(&mut db, "t0", "n", 8, 4, seed + 1000);
        for i in 0..3u64 {
            let names = [
                format!("n{i}"),
                format!("n{}", (i * seed + 1) % 8),
                format!("n{}", (i + seed) % 8),
            ];
            db.insert_named("pin", &[&names[0], &names[1], &names[2]]).unwrap();
        }
        for query in ["q(n0, Y)?", "q(X, n3)?", "t(n1, Y)?"] {
            agree_on(&format!("two-demand seed {seed}: {query}"), &rules, query, db.clone());
        }
    }
    // Same generation over random up/down/flat relations.
    let sg: String = SAME_GENERATION.lines().take(2).collect::<Vec<_>>().join("\n");
    for seed in 0..20 {
        let mut db = Database::new();
        add_random_digraph(&mut db, "up", "n", 6, 8, seed);
        add_random_digraph(&mut db, "down", "n", 6, 8, seed + 1000);
        add_random_digraph(&mut db, "flat", "n", 6, 3, seed + 2000);
        for query in ["sg(n0, Y)?", "sg(X, n2)?"] {
            agree_on(&format!("same-generation seed {seed}: {query}"), &sg, query, db.clone());
        }
    }
}

/// A fact of an IDB predicate in the program text moves to `pred@base`
/// behind an exit rule, whatever the configuration.
#[test]
fn idb_facts_move_behind_an_exit_rule() {
    let mut db = Database::new();
    db.load_fact_text("e(a, b). e(b, c).").unwrap();
    let program =
        parse_program("t(X, Y) :- e(X, W), t(W, Y).\nt(c, goal).\n", db.interner_mut()).unwrap();
    let query = parse_query("t(a, Y)?", db.interner_mut()).unwrap();
    agree("idb facts", &program, &query, &db);
    for config in CONFIGS {
        let out = rewrite(config, &program, &query, &db).unwrap();
        let base = out.db.interner().get("t@base").expect("t@base is interned");
        let reads_base =
            out.rewritten.rules.iter().flat_map(|r| r.body_atoms()).any(|a| a.pred == base);
        assert!(reads_base, "{config}: no rule reads t@base");
    }
}

/// Asserts that every symbol in `out`'s answers is below `base_len`.
fn answers_within(label: &str, out: &MagicOutcome, base_len: usize) {
    for row in out.answers.iter() {
        let row = row.to_tuple();
        for sym in row.values().iter().filter_map(|v| v.as_sym()) {
            assert!(sym.index() < base_len, "{label}: answered the fork's {sym}");
        }
    }
}

/// Bounded elimination interns its generated names into a fork of the
/// caller's database, and none of them reaches an answer (`agree` checks
/// the same of Magic in every configuration). No generated linear
/// scenario is proved bounded, so this runs the swap recursion over
/// random digraphs, with facts of the bounded predicate itself, and must
/// answer what semi-naive answers.
#[test]
fn answers_hold_only_the_callers_symbols() {
    let swap = "t(X, Y) :- sym(X, Y), t(Y, X).\nt(X, Y) :- base(X, Y).\n";
    for seed in 0..40 {
        let mut db = Database::new();
        add_random_digraph(&mut db, "sym", "n", 8, 12, seed);
        add_random_digraph(&mut db, "base", "n", 8, 4, seed + 1000);
        add_random_digraph(&mut db, "t", "n", 8, 2, seed + 2000);
        let program = parse_program(swap, db.interner_mut()).unwrap();
        for query in ["t(X, Y)?", "t(n1, Y)?"] {
            let query = parse_query(query, db.interner_mut()).unwrap();
            let def = RecursiveDef::extract(&program, query.atom.pred, db.interner()).unwrap();
            let bounded = analyze(&def, db.interner_mut()).expect("the swap recursion is bounded");
            let base_len = db.interner().len();
            let out = bounded_evaluate(&program, &query, &db, &bounded).unwrap();
            let label = format!("swap seed {seed}: bounded");
            assert!(query.has_selection() || !out.answers.is_empty(), "{label}: no answers");
            answers_within(&label, &out, base_len);
            assert_eq!(db.interner().len(), base_len, "{label}");
            let derived = seminaive(&program, &db).unwrap();
            let expected = query_answers(&query, &db, Some(&derived)).unwrap();
            assert_eq!(tuple_set(&out.answers), tuple_set(&expected), "{label}");
        }
    }
}
