//! The plan corpus: every compiled join plan, step by step, with its
//! estimates.
//!
//! Each body below is planned under cost-based planning over the fixture's
//! statistics, cost-based planning with no statistics (blind), and source
//! order, each with a pinned prefix of 0 and of 1 literal. A run writes
//! down the `Debug` of every `Step`, each scan's `(rows, estimate, keyed
//! columns)`, and the planner's `(plans costed, fallbacks)` counters — or
//! the planning error. The bodies:
//!
//! - every rule of `examples/datalog/*.dl`;
//! - every rule of the programs the rewrite corpus (`tests/golden/rewrite/`)
//!   rewrites, and every rewritten rule it records, as written (`@` in a
//!   generated name reads as `_`);
//! - per positive atom, that atom as a semi-naive delta rotated to the
//!   front and pinned there;
//! - hand-written bodies where an equality, a sum and a negation become
//!   ready at the same step, in every source order; a cascade where an
//!   equality binds a sum operand and the sum binds a negation's variable;
//!   and bodies no order can plan;
//! - E13's `tri_filter` and `delta_guard` twins at smoke size;
//! - a seeded sweep of `sepra_gen::random_stratified_scenario`.
//!
//! The goldens live at `tests/golden/plan_steps/` in the repository root;
//! after an intentional change, bless new output with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sepra-eval --test plans
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use sepra_ast::{parse_program_raw, pretty, Literal, Program, Rule, Term};
use sepra_eval::{PlanLiteral, PlanMode, Planner, PlannerStats, RelKey, Step};
use sepra_gen::graphs::add_random_digraph;
use sepra_gen::random::random_stratified_scenario;
use sepra_storage::Database;

/// The rewrite corpus's own inputs besides `examples/datalog/`.
const REWRITE_INPUTS: [(&str, &str); 3] = [
    (
        "two_demand",
        "q(X, Y) :- t(X, Y).\n\
         q(X, Y) :- pin(X, Z, Y), t(Z, Y).\n\
         t(X, Y) :- a1(X, W), t(W, Y).\n\
         t(X, Y) :- t0(X, Y).\n\
         a1(n0, n1). a1(n1, n2). a1(n2, n3). a1(n3, n4). a1(n4, n5).\n\
         t0(n5, fin). t0(n2, mid). pin(n0, n1, fin). pin(n0, n3, mid).\n",
    ),
    (
        "long_body",
        "reach(X, Y) :- hop(X, A), hop(A, B), hop(B, W), reach(W, Y).\n\
         reach(X, Y) :- goal(X, Y).\n\
         hop(n0, n1). hop(n1, n2). hop(n2, n3). hop(n3, n4). hop(n4, n5).\n\
         hop(n5, n6). goal(n3, g1). goal(n6, g2). goal(n0, g0).\n",
    ),
    (
        "same_generation",
        "sg(X, Y) :- flat(X, Y).\n\
         sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n\
         up(a, p). up(b, q). flat(p, q). down(q, b2). down(p, a2). up(a2, p).\n",
    ),
];

/// Hand-written bodies over `a/2` (facts below) and `b/2`, `c/1`:
/// simultaneous readiness in every source order, a cascade, and bodies no
/// order can plan.
const TIES: &str = "\
    r(X, Y, Z, S) :- Z = X, S = X + Y, !b(X, Y), a(X, Y).\n\
    r(X, Y, Z, S) :- Z = X, !b(X, Y), S = X + Y, a(X, Y).\n\
    r(X, Y, Z, S) :- S = X + Y, Z = X, !b(X, Y), a(X, Y).\n\
    r(X, Y, Z, S) :- S = X + Y, !b(X, Y), Z = X, a(X, Y).\n\
    r(X, Y, Z, S) :- !b(X, Y), Z = X, S = X + Y, a(X, Y).\n\
    r(X, Y, Z, S) :- !b(X, Y), S = X + Y, Z = X, a(X, Y).\n\
    r(X, Y, Z, S) :- a(X, Y), Z = X, S = X + Y, !b(X, Y).\n\
    r(X, Y, Z, S) :- a(X, Y), !b(X, Y), S = X + Y, Z = X.\n\
    r(X, S) :- a(X, Y), !c(S), S = W + 1, W = X.\n\
    r(X, S) :- !c(S), S = W + 1, W = X, a(X, Y).\n\
    r(X, S) :- W = X, S = W + 1, !c(S), a(X, Y).\n\
    r(X, Y) :- a(X, Z), Y = W.\n\
    r(X, S) :- a(X, Z), S = Z + Q.\n\
    r(X) :- a(X, Z), !b(X, Q).\n\
    r(X, Q) :- a(X, Z).\n\
    r(X) :- a(X, Z), Z = 3, X = 1.\n\
    a(1, 2). a(1, 3). a(2, 3). a(3, 4). b(1, 3). c(4).\n";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/eval sits two levels below the repo root")
        .to_path_buf()
}

/// Plans `body` once: the plan written down, and the planner's counters.
/// This is the corpus's one call into the planner.
fn run(
    mode: PlanMode,
    stats: Option<&PlannerStats>,
    body: &[PlanLiteral],
    pinned: usize,
    output: &[Term],
) -> (String, (usize, usize)) {
    let planner = Planner::new(mode, stats);
    let planned = planner.plan(body, pinned, output).map(|plan| {
        let scans = plan.scans;
        (plan.steps, scans.into_iter().map(|s| (s.rows, s.estimate, s.keyed_cols)).collect())
    });
    (transcript(planned), planner.counters())
}

type Scans = Vec<(f64, f64, usize)>;

fn transcript(planned: Result<(Vec<Step>, Scans), sepra_eval::EvalError>) -> String {
    let mut out = String::new();
    match planned {
        Ok((steps, scans)) => {
            for step in &steps {
                let _ = writeln!(out, "  {step:?}");
            }
            let _ = writeln!(out, "  scans {scans:?}");
        }
        Err(e) => {
            let _ = writeln!(out, "  error: {e}");
        }
    }
    out
}

/// The bodies one rule contributes: as written, then per positive atom
/// that atom reading the delta, rotated to the front.
fn variants(rule: &Rule) -> Vec<(String, Vec<PlanLiteral>)> {
    let lift = |delta: Option<usize>| -> Vec<PlanLiteral> {
        let lits = rule.body.iter().enumerate();
        lits.map(|(i, lit)| {
            let key = |p| if Some(i) == delta { RelKey::Delta(p) } else { RelKey::Pred(p) };
            PlanLiteral::from_literal(lit, &key)
        })
        .collect()
    };
    let mut out = vec![("as written".to_string(), lift(None))];
    for (i, lit) in rule.body.iter().enumerate() {
        if let Literal::Atom(_) = lit {
            let body = lift(Some(i));
            let mut rotated = vec![body[i].clone()];
            rotated
                .extend(body.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, l)| l.clone()));
            out.push((format!("delta {i} first"), rotated));
        }
    }
    out
}

/// Writes down every rule of `program` (facts skipped) under every mode
/// and pinned prefix, with statistics from `db` — with its delta variants
/// when `deltas` is set.
fn corpus(program: &Program, db: &Database, deltas: bool, text: &mut String) {
    let stats = PlannerStats::from_database(db);
    let modes = [
        ("cost-based", PlanMode::CostBased, Some(&stats)),
        ("blind", PlanMode::CostBased, None),
        ("source-order", PlanMode::SourceOrder, Some(&stats)),
    ];
    for rule in program.rules.iter().filter(|r| !r.is_fact()) {
        let mut bodies = variants(rule);
        bodies.truncate(if deltas { bodies.len() } else { 1 });
        for (label, body) in bodies {
            let _ = writeln!(text, "== {} · {label}", pretty::rule_to_string(rule, db.interner()));
            // A plan an earlier run of this body already wrote down is
            // named, not repeated.
            let mut seen: Vec<(String, String)> = Vec::new();
            for (mode_name, mode, stats) in modes {
                for pinned in [0, 1] {
                    let (plan, counters) = run(mode, stats, &body, pinned, &rule.head.terms);
                    let label = format!("{mode_name} · pinned {pinned}");
                    let _ = write!(text, "-- {label} · counters {counters:?}");
                    match seen.iter().find(|(_, p)| *p == plan) {
                        Some((earlier, _)) => {
                            let _ = writeln!(text, " · as {earlier}");
                        }
                        None => {
                            let _ = writeln!(text);
                            text.push_str(&plan);
                            seen.push((label, plan));
                        }
                    }
                }
            }
        }
    }
}

/// Parses `src` (rules and facts) into a fresh database.
fn load(src: &str) -> (Program, Database) {
    let mut db = Database::new();
    let program = parse_program_raw(src, db.interner_mut()).expect("corpus program parses");
    // A fixture with inconsistent arities keeps the facts that load.
    let _ = db.load_facts(&program);
    (program, db)
}

/// The rewritten rules a rewrite golden records, deduplicated, as one
/// program (generated `@` names read as `_`).
fn rewritten_rules(name: &str) -> String {
    let path = repo_root().join("tests/golden/rewrite").join(format!("{name}.txt"));
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    let mut rules: Vec<String> = Vec::new();
    for line in golden.lines().filter(|l| l.contains(":-")) {
        let line = line.replace('@', "_");
        if !rules.contains(&line) {
            rules.push(line);
        }
    }
    rules.join("\n")
}

/// Every corpus file: `(golden name, transcript)`.
fn transcripts() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let dir = repo_root().join("examples/datalog");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/datalog lists")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "dl"))
        .collect();
    files.sort();
    let mut inputs: Vec<(String, String)> = Vec::new();
    for path in files {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        inputs.push((name, std::fs::read_to_string(&path).expect("example reads")));
    }
    let examples = inputs.len();
    inputs.extend(REWRITE_INPUTS.iter().map(|(n, s)| (n.to_string(), s.to_string())));
    for (k, (name, src)) in inputs.iter().enumerate() {
        let (program, db) = load(src);
        let mut text = String::new();
        corpus(&program, &db, true, &mut text);
        // The rewritten rules plan over the input's facts.
        let mut rewritten_db = db.clone();
        let rewritten = rewritten_rules(name);
        if !rewritten.is_empty() {
            let rules = parse_program_raw(&rewritten, rewritten_db.interner_mut())
                .expect("rewritten rules parse");
            let _ = writeln!(text, "#### rewritten");
            corpus(&rules, &rewritten_db, false, &mut text);
        }
        let file = if k < examples { name.clone() } else { format!("rewrite_{name}") };
        out.push((file, text));
    }

    let (program, db) = load(TIES);
    let mut text = String::new();
    corpus(&program, &db, true, &mut text);
    out.push(("ties".into(), text));

    // E13's twins over their own databases, at smoke size.
    let mut text = String::new();
    let mut tri = Database::new();
    add_random_digraph(&mut tri, "big", "v", 80, 80 * 15, 11);
    add_random_digraph(&mut tri, "mid", "v", 80, 80 * 5, 12);
    for i in 0..5 {
        tri.insert_named("tiny", &[&format!("v{i}"), &format!("out{i}")]).expect("fact");
    }
    let mut guard = Database::new();
    add_random_digraph(&mut guard, "hop", "v", 40, 40 * 3, 21);
    add_random_digraph(&mut guard, "wide", "v", 40, 40 * 15, 22);
    for i in 0..3 {
        guard.insert_named("seed", &[&format!("s{i}"), &format!("v{i}")]).expect("fact");
    }
    let twins = [
        ("tri_filter adversarial", "q(X, W) :- big(X, Y), mid(Y, Z), tiny(Z, W).\n", &tri),
        ("tri_filter well-ordered", "q(X, W) :- tiny(Z, W), mid(Y, Z), big(X, Y).\n", &tri),
        (
            "delta_guard adversarial",
            "t(X, Y) :- t(X, Z), wide(W, Y), hop(Z, W).\nt(X, Y) :- seed(X, Y).\n",
            &guard,
        ),
        (
            "delta_guard well-ordered",
            "t(X, Y) :- t(X, Z), hop(Z, W), wide(W, Y).\nt(X, Y) :- seed(X, Y).\n",
            &guard,
        ),
    ];
    for (label, src, db) in twins {
        let mut db = db.clone();
        let program = parse_program_raw(src, db.interner_mut()).expect("twin parses");
        let _ = writeln!(text, "#### {label}");
        corpus(&program, &db, true, &mut text);
    }
    out.push(("e13".into(), text));

    let mut text = String::new();
    for seed in 0..6 {
        let scenario = random_stratified_scenario(seed);
        let (program, db) = load(&scenario.program);
        let _ = writeln!(text, "#### seed {seed}");
        corpus(&program, &db, true, &mut text);
    }
    out.push(("stratified_sweep".into(), text));
    out
}

#[test]
fn plans_match_the_corpus() {
    let mut failures: Vec<String> = Vec::new();
    for (name, text) in transcripts() {
        let golden = repo_root().join("tests/golden/plan_steps").join(format!("{name}.txt"));
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
