//! E14 — boundedness elimination and subsumptive magic sets.
//!
//! Two families of pairs, each timing the same query on the same database
//! under a baseline and an optimized evaluation:
//!
//! * `vacuous_guard` and `swap_chain` — programs the boundedness analysis
//!   proves bounded. The baseline runs the recursion to fixpoint
//!   (semi-naive); the optimized side runs the analysis *and* the
//!   nonrecursive rewrite (`bounded_evaluate`), so the measured win is net
//!   of the detection cost it claims to amortize.
//! * `two_demand` — a linear recursion demanded under two comparable
//!   binding patterns (`t^bf` and `t^bb`). The baseline is the PR-6-era
//!   supplementary magic rewrite, which evaluates both adorned copies; the
//!   optimized side is the subsumptive rewrite, which collapses the
//!   stronger demand onto `t^bf` and runs a single adorned fixpoint.
//!
//! Like E12/E13 the measurement loop is hand-rolled: `--bench` prints
//! medians and writes `BENCH_boundedness.json` at the repository root;
//! `--smoke` runs a reduced matrix and exits non-zero if an optimized
//! side exceeds [`SMOKE_TOLERANCE`] times its baseline anywhere; with no
//! flag each pair runs once as a silent smoke test.

use std::hint::black_box;
use std::time::Instant;

use sepra_ast::{parse_program, parse_query, RecursiveDef};
use sepra_core::bounded::analyze;
use sepra_eval::{query_answers, seminaive_with_options, EvalOptions};
use sepra_gen::graphs::add_random_digraph;
use sepra_rewrite::{bounded_evaluate_with_options, magic_evaluate_as, Magic};
use sepra_storage::Database;

const SAMPLES: usize = 7;
const SMOKE_SAMPLES: usize = 3;

/// Smoke-mode gate: the optimized side may be at most this factor slower
/// than its baseline on any pair. Generous because smoke sizes are small
/// enough for the analysis/rewrite overhead to be visible.
const SMOKE_TOLERANCE: f64 = 1.5;

/// Which evaluation each side of a pair runs.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    /// Semi-naive fixpoint on the original program.
    Fixpoint,
    /// Boundedness analysis + nonrecursive rewrite (zero iterations).
    Bounded,
    /// Supplementary magic sets (the pre-subsumption baseline).
    MagicSup,
    /// Subsumptive magic sets (demand collapse in the adornment).
    MagicSubsumptive,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Fixpoint => "fixpoint",
            Variant::Bounded => "bounded",
            Variant::MagicSup => "magic_sup",
            Variant::MagicSubsumptive => "magic_subsumptive",
        }
    }
}

struct Pair {
    name: &'static str,
    program: String,
    query: &'static str,
    baseline: Variant,
    optimized: Variant,
    db: Database,
}

/// A vacuous recursive rule whose body drags an expensive two-hop join
/// over `big` through every fixpoint round. The analysis proves the rule
/// derives nothing (the recursive subgoal is the head itself) and drops
/// it; the fixpoint pays the join per iteration for zero new tuples.
fn vacuous_guard(scale: usize) -> Pair {
    let mut db = Database::new();
    add_random_digraph(&mut db, "big", "v", scale, scale * 8, 31);
    for i in 0..scale {
        db.insert_named("t0", &[&format!("v{i}"), &format!("w{i}")]).expect("fact");
    }
    Pair {
        name: "vacuous_guard",
        program: "t(X, Y) :- big(X, Z), big(Z, W), t(X, Y).\nt(X, Y) :- t0(X, Y).\n".to_string(),
        query: "t(X, Y)?",
        baseline: Variant::Fixpoint,
        optimized: Variant::Bounded,
        db,
    }
}

/// The depth-1 swap recursion at scale: semi-naive needs the full delta
/// machinery and an extra empty round to notice the fixpoint; the bounded
/// rewrite evaluates four nonrecursive rules in a single pass.
fn swap_chain(scale: usize) -> Pair {
    let mut db = Database::new();
    for i in 0..scale {
        let (a, b) = (format!("a{i}"), format!("b{i}"));
        db.insert_named("sym", &[&a, &b]).expect("fact");
        db.insert_named("sym", &[&b, &a]).expect("fact");
        db.insert_named("base", &[&b, &a]).expect("fact");
    }
    Pair {
        name: "swap_chain",
        program: "t(X, Y) :- sym(X, Y), t(Y, X).\nt(X, Y) :- base(X, Y).\n".to_string(),
        query: "t(X, Y)?",
        baseline: Variant::Fixpoint,
        optimized: Variant::Bounded,
        db,
    }
}

/// Two demands on one recursion, one subsuming the other: `q`'s first
/// rule asks for `t^bf`, its second binds both arguments of `t` through
/// `pin` (`t^bb`). Supplementary magic evaluates two adorned copies of
/// the `a1` chain; the subsumptive rewrite serves the `bb` demand from
/// the `bf` copy.
fn two_demand(scale: usize) -> Pair {
    let mut db = Database::new();
    for i in 0..scale {
        db.insert_named("a1", &[&format!("n{i}"), &format!("n{}", i + 1)]).expect("fact");
    }
    db.insert_named("t0", &[&format!("n{scale}"), "fin"]).expect("fact");
    db.insert_named("t0", &[&format!("n{}", scale / 2), "mid"]).expect("fact");
    db.insert_named("pin", &["n0", "n5", "fin"]).expect("fact");
    db.insert_named("pin", &["n0", "n9", "mid"]).expect("fact");
    Pair {
        name: "two_demand",
        program: "q(X, Y) :- t(X, Y).\n\
                  q(X, Y) :- pin(X, Z, Y), t(Z, Y).\n\
                  t(X, Y) :- a1(X, W), t(W, Y).\n\
                  t(X, Y) :- t0(X, Y).\n"
            .to_string(),
        query: "q(n0, Y)?",
        baseline: Variant::MagicSup,
        optimized: Variant::MagicSubsumptive,
        db,
    }
}

/// One full evaluation of a pair under `variant`; returns the answer
/// count so the optimizer cannot discard the run and pairs can be
/// cross-checked.
fn run_once(pair: &Pair, variant: Variant) -> usize {
    let mut db = pair.db.clone();
    let program = parse_program(&pair.program, db.interner_mut()).expect("program parses");
    let query = parse_query(pair.query, db.interner_mut()).expect("query parses");
    let eval = EvalOptions::default();
    match variant {
        Variant::Fixpoint => {
            let derived = seminaive_with_options(&program, &db, &eval).expect("evaluates");
            query_answers(&query, &db, Some(&derived)).expect("answers").len()
        }
        Variant::Bounded => {
            // Detection is part of the timed work: the claimed win must
            // survive paying for the analysis it depends on.
            let def = RecursiveDef::extract(&program, query.atom.pred, db.interner())
                .expect("definition extracts");
            let bounded = analyze(&def, db.interner_mut()).expect("program is bounded");
            bounded_evaluate_with_options(&program, &query, &db, &bounded, &eval)
                .expect("evaluates")
                .answers
                .len()
        }
        Variant::MagicSup | Variant::MagicSubsumptive => {
            let magic = if variant == Variant::MagicSup {
                Magic::Supplementary
            } else {
                Magic::Subsumptive
            };
            magic_evaluate_as(&program, &query, &db, magic, &eval).expect("evaluates").answers.len()
        }
    }
}

fn median_ns(pair: &Pair, variant: Variant, samples: usize) -> u64 {
    black_box(run_once(pair, variant));
    let mut timed: Vec<u64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(run_once(pair, variant));
            start.elapsed().as_nanos() as u64
        })
        .collect();
    timed.sort_unstable();
    timed[timed.len() / 2]
}

struct Cell {
    workload: &'static str,
    variant: &'static str,
    median_ns: u64,
}

/// Times both sides of one pair, after asserting they agree on the
/// answer count — an optimization that changes answers would make the
/// timings meaningless.
fn measure_pair(pair: &Pair, samples: usize) -> Vec<Cell> {
    let expect = run_once(pair, pair.baseline);
    let got = run_once(pair, pair.optimized);
    assert_eq!(got, expect, "{}: optimized variant changed the answers", pair.name);
    [pair.baseline, pair.optimized]
        .into_iter()
        .map(|v| Cell {
            workload: pair.name,
            variant: v.name(),
            median_ns: median_ns(pair, v, samples),
        })
        .collect()
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let measure = args.iter().any(|a| a == "--bench");
    let smoke = args.iter().any(|a| a == "--smoke");

    if !measure && !smoke {
        // Silent smoke for `cargo test`: one tiny run per pair and side.
        for pair in [vacuous_guard(20), swap_chain(20), two_demand(12)] {
            for variant in [pair.baseline, pair.optimized] {
                black_box(run_once(&pair, variant));
            }
        }
        return std::process::ExitCode::SUCCESS;
    }

    let (pairs, samples) = if smoke {
        (vec![vacuous_guard(60), swap_chain(120), two_demand(30)], SMOKE_SAMPLES)
    } else {
        (vec![vacuous_guard(200), swap_chain(900), two_demand(60)], SAMPLES)
    };

    let mut cells = Vec::new();
    for pair in &pairs {
        cells.extend(measure_pair(pair, samples));
    }
    for c in &cells {
        println!(
            "e14_boundedness/{:<16} {:<18} median {:>12} ns",
            c.workload, c.variant, c.median_ns
        );
    }

    let mut failures = Vec::new();
    println!();
    for pair in &pairs {
        let base = cells
            .iter()
            .find(|c| c.workload == pair.name && c.variant == pair.baseline.name())
            .expect("baseline cell")
            .median_ns;
        let opt = cells
            .iter()
            .find(|c| c.workload == pair.name && c.variant == pair.optimized.name())
            .expect("optimized cell")
            .median_ns;
        let speedup = base as f64 / opt as f64;
        println!(
            "{:<18} {} speedup over {}: {speedup:>5.2}x",
            pair.name,
            pair.optimized.name(),
            pair.baseline.name()
        );
        if smoke && (opt as f64) > base as f64 * SMOKE_TOLERANCE {
            failures.push(format!(
                "{}: {} {opt} ns vs {} {base} ns exceeds tolerance {SMOKE_TOLERANCE}x",
                pair.name,
                pair.optimized.name(),
                pair.baseline.name()
            ));
        }
    }

    if smoke {
        if failures.is_empty() {
            println!("\nsmoke ok: every optimized side within {SMOKE_TOLERANCE}x of its baseline");
            return std::process::ExitCode::SUCCESS;
        }
        for f in &failures {
            eprintln!("smoke FAIL: {f}");
        }
        return std::process::ExitCode::FAILURE;
    }

    // Machine-readable artifact at the repository root; single-threaded
    // runs, so the medians compare rewrites, not parallelism.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut json = String::from("{\n  \"experiment\": \"e14_boundedness\",\n");
    json.push_str(&format!(
        "  \"samples\": {samples},\n  \"available_parallelism\": {cores},\n  \"results\": [\n"
    ));
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"workload\": \"{}\", \"variant\": \"{}\", \"median_ns\": {} }}{comma}\n",
            c.workload, c.variant, c.median_ns
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_boundedness.json");
    std::fs::write(path, &json).expect("write BENCH_boundedness.json");
    println!("\nwrote {path}");
    std::process::ExitCode::SUCCESS
}
