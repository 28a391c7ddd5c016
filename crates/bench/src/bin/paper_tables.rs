//! `paper-tables` — regenerates every comparison in Section 4 of
//! "Compiling Separable Recursions" and prints the rows recorded in
//! EXPERIMENTS.md.
//!
//! Usage: `cargo run -p sepra-bench --bin paper-tables --release [--quick]`

use std::time::Instant;

use sepra_ast::{parse_program, Interner};
use sepra_bench::{
    print_table, run_counting, run_hn, run_magic, run_seminaive, run_separable, Measurement,
};
use sepra_core::detect::detect_in_program;
use sepra_gen::paper::{
    counting_worst_buys, magic_worst_buys, spk_counting_witness, spk_magic_witness, Instance,
};
use sepra_gen::programs::wide_program;

fn fmt_measurement(m: &Measurement) -> Vec<String> {
    vec![
        m.algo.to_string(),
        m.max_relation.to_string(),
        m.total_relation.to_string(),
        m.answers.to_string(),
        format!("{:.3?}", m.elapsed),
    ]
}

fn header() -> Vec<&'static str> {
    vec!["n (params)", "algorithm", "max relation", "total relations", "answers", "time"]
}

fn push_rows(rows: &mut Vec<Vec<String>>, label: &str, ms: &[Measurement]) {
    for m in ms {
        let mut row = vec![label.to_string()];
        row.extend(fmt_measurement(m));
        rows.push(row);
    }
}

fn e1(quick: bool) {
    let ns: &[usize] = if quick { &[25, 50] } else { &[25, 50, 100, 200, 400] };
    let mut rows = Vec::new();
    for &n in ns {
        let inst = magic_worst_buys(n);
        let sep = run_separable(&inst).expect("separable");
        let magic = run_magic(&inst).expect("magic");
        assert_eq!(sep.answers, magic.answers, "E1 n={n}: answer mismatch");
        push_rows(&mut rows, &n.to_string(), &[sep, magic]);
    }
    print_table("E1 — Example 1.2, buys(tom, Y)?: Magic Ω(n²) vs Separable O(n)", &header(), &rows);
}

fn e2(quick: bool) {
    let ns: &[usize] = if quick { &[8, 12] } else { &[8, 12, 16, 20] };
    let mut rows = Vec::new();
    for &n in ns {
        let inst = counting_worst_buys(n);
        let sep = run_separable(&inst).expect("separable");
        let counting = run_counting(&inst).expect("counting");
        let hn = run_hn(&inst).expect("hn");
        assert_eq!(sep.answers, counting.answers, "E2 n={n}: answer mismatch");
        assert_eq!(sep.answers, hn.answers, "E2 n={n}: hn answer mismatch");
        push_rows(&mut rows, &n.to_string(), &[sep, counting, hn]);
    }
    print_table(
        "E2 — Example 1.1, buys(tom, Y)?: Counting and Henschen-Naqvi Ω(2ⁿ) vs Separable O(n)",
        &header(),
        &rows,
    );
}

fn e3(quick: bool) {
    let shapes: &[(usize, usize, usize)] = if quick {
        &[(1, 2, 100), (2, 2, 30)]
    } else {
        &[(1, 2, 200), (2, 2, 30), (2, 2, 60), (2, 2, 120), (3, 2, 16), (2, 4, 60)]
    };
    let mut rows = Vec::new();
    for &(k, p, n) in shapes {
        let inst = spk_magic_witness(k, p, n);
        let sep = run_separable(&inst).expect("separable");
        let magic = run_magic(&inst).expect("magic");
        assert_eq!(sep.answers, magic.answers, "E3 k={k} p={p} n={n}: answer mismatch");
        push_rows(&mut rows, &format!("k={k} p={p} n={n}"), &[sep, magic]);
    }
    print_table(
        "E3 — Lemma 4.2 witness in S_p^k: Magic Ω(nᵏ) vs Separable O(n^max(w,k-w))",
        &header(),
        &rows,
    );
}

fn e4(quick: bool) {
    let shapes: &[(usize, usize)] =
        if quick { &[(1, 12), (2, 12)] } else { &[(1, 14), (2, 14), (3, 10), (4, 8)] };
    let mut rows = Vec::new();
    for &(p, n) in shapes {
        let inst = spk_counting_witness(2, p, n);
        let sep = run_separable(&inst).expect("separable");
        let counting = run_counting(&inst).expect("counting");
        assert_eq!(sep.answers, counting.answers, "E4 p={p} n={n}: answer mismatch");
        push_rows(&mut rows, &format!("p={p} n={n}"), &[sep, counting]);
    }
    print_table(
        "E4 — Lemma 4.3 witness in S_p^k: Counting Ω(pⁿ) vs Separable O(n)",
        &header(),
        &rows,
    );
}

fn e5(quick: bool) {
    // Validate Lemma 4.1's bound: max relation <= n^max(w, k-w) (+ slack
    // for the seed constants).
    let shapes: &[(usize, usize)] =
        if quick { &[(1, 100), (2, 30)] } else { &[(1, 400), (2, 60), (3, 16)] };
    let mut rows = Vec::new();
    for &(k, n) in shapes {
        let inst = spk_magic_witness(k, 2, n);
        let sep = run_separable(&inst).expect("separable");
        let w = 1usize;
        let bound = (n as u128).pow(w.max(k - w) as u32);
        let ok = (sep.max_relation as u128) <= bound + 1;
        rows.push(vec![
            format!("k={k} n={n}"),
            sep.max_relation.to_string(),
            format!("n^max(w,k-w) = {bound}"),
            if ok { "within bound".into() } else { "VIOLATED".into() },
            format!("{:.3?}", sep.elapsed),
        ]);
        assert!(ok, "Lemma 4.1 bound violated for k={k} n={n}");
    }
    print_table(
        "E5 — Lemma 4.1: Separable's largest constructed relation vs the bound",
        &["shape", "max relation", "bound", "verdict", "time"],
        &rows,
    );
}

fn e6(quick: bool) {
    use sepra_gen::graphs::{add_layered_dag, add_random_digraph};
    use sepra_gen::programs::{buys_one_class, buys_two_class, transitive_closure};
    use sepra_storage::Database;

    let mut workloads: Vec<(String, Instance)> = Vec::new();
    let sizes: &[usize] = if quick { &[100] } else { &[100, 400, 800] };
    for &n in sizes {
        let mut db = Database::new();
        add_random_digraph(&mut db, "e", "v", n, n * 3, 1);
        workloads.push((
            format!("tc_random_{n}"),
            Instance { program: transitive_closure().into(), query: "t(v0, Y)?".into(), db },
        ));
        let mut db = Database::new();
        add_random_digraph(&mut db, "friend", "p", n, n * 2, 2);
        add_random_digraph(&mut db, "idol", "p", n, n, 3);
        for i in 0..(n / 4).max(1) {
            db.insert_named("perfectFor", &[&format!("p{i}"), &format!("prod{i}")]).expect("fact");
        }
        workloads.push((
            format!("buys_social_{n}"),
            Instance { program: buys_one_class().into(), query: "buys(p0, Y)?".into(), db },
        ));
        let mut db = Database::new();
        add_layered_dag(&mut db, "friend", "s", 4, n / 4, 2, 4);
        for i in 0..(n / 4).max(1) {
            db.insert_named("perfectFor", &[&format!("sl3n{i}"), &format!("prod{i}")])
                .expect("fact");
            db.insert_named("cheaper", &[&format!("prod{}", i + 1), &format!("prod{i}")])
                .expect("fact");
        }
        workloads.push((
            format!("buys_catalog_{n}"),
            Instance { program: buys_two_class().into(), query: "buys(sl0n0, Y)?".into(), db },
        ));
    }
    let mut rows = Vec::new();
    for (name, inst) in &workloads {
        let sep = run_separable(inst).expect("separable");
        let magic = run_magic(inst).expect("magic");
        let semi = run_seminaive(inst).expect("seminaive");
        assert_eq!(sep.answers, magic.answers, "E6 {name}: separable vs magic");
        assert_eq!(sep.answers, semi.answers, "E6 {name}: separable vs seminaive");
        push_rows(&mut rows, name, &[sep, magic, semi]);
    }
    print_table(
        "E6 — average case on representative recursions (random digraphs / layered DAGs)",
        &header(),
        &rows,
    );
}

fn e7() {
    let mut rows = Vec::new();
    for (r, k, l) in [(2usize, 2usize, 1usize), (8, 2, 2), (8, 8, 4), (32, 4, 4), (32, 8, 8)] {
        let src = wide_program(r, k, l);
        let mut interner = Interner::new();
        let program = parse_program(&src, &mut interner).expect("parses");
        let t = interner.intern("t");
        // Warm up + measure the median of several runs.
        let runs = 50;
        let mut times = Vec::with_capacity(runs);
        for _ in 0..runs {
            let mut i = interner.clone();
            let start = Instant::now();
            let sep = detect_in_program(&program, t, &mut i).expect("separable");
            times.push(start.elapsed());
            assert_eq!(sep.recursive_rules.len(), r);
        }
        times.sort();
        rows.push(vec![
            format!("r={r} k={k} l={l}"),
            format!("{:.3?}", times[runs / 2]),
            format!("{} rule atoms total", r * (l + 1)),
        ]);
    }
    print_table(
        "E7 — Section 3.1: detection cost (median of 50 runs; database-independent)",
        &["program shape", "detect time", "size"],
        &rows,
    );
}

fn e8(quick: bool) {
    use sepra_ast::parse_query;
    use sepra_core::evaluate::SeparableEvaluator;
    use sepra_core::exec::{ExecOptions, ExtraRelations};

    // (a) Partial selection via Lemma 2.1 vs Magic.
    let mut rows = Vec::new();
    let ns: &[usize] = if quick { &[20] } else { &[20, 60, 120] };
    for &n in ns {
        let inst = e8_instance(n);
        let sep = run_separable(&inst).expect("separable");
        let magic = run_magic(&inst).expect("magic");
        assert_eq!(sep.answers, magic.answers, "E8a n={n}");
        push_rows(&mut rows, &format!("ex2.4 n={n}"), &[sep, magic]);
    }
    print_table(
        "E8a — partial selection t(c, Y, Z)? on Example 2.4: Lemma 2.1 decomposition vs Magic",
        &header(),
        &rows,
    );

    // (b) Dedup ablation: acyclic timing + cyclic divergence.
    let mut rows = Vec::new();
    let inst = magic_worst_buys(if quick { 50 } else { 200 });
    for (label, dedup) in [("dedup on", true), ("dedup off", false)] {
        let mut db = inst.db.clone();
        let program = parse_program(&inst.program, db.interner_mut()).expect("parses");
        let query = parse_query(&inst.query, db.interner_mut()).expect("parses");
        let sep =
            detect_in_program(&program, query.atom.pred, db.interner_mut()).expect("separable");
        let evaluator = SeparableEvaluator::with_options(
            sep,
            ExecOptions { dedup, max_iterations: 100_000, ..ExecOptions::default() },
        );
        let start = Instant::now();
        let out = evaluator.evaluate(&query, &db, &ExtraRelations::default()).expect("acyclic");
        rows.push(vec![
            label.to_string(),
            out.stats.max_relation_size().to_string(),
            out.answers.len().to_string(),
            format!("{:.3?}", start.elapsed()),
        ]);
    }
    // Cyclic divergence demonstration.
    {
        let mut db = sepra_storage::Database::new();
        sepra_gen::graphs::add_cycle(&mut db, "friend", "p", 5);
        db.insert_named("perfectFor", &["p0", "w"]).expect("fact");
        let program =
            parse_program(sepra_gen::programs::buys_one_class(), db.interner_mut()).expect("p");
        let query = parse_query("buys(p0, Y)?", db.interner_mut()).expect("q");
        let sep =
            detect_in_program(&program, query.atom.pred, db.interner_mut()).expect("separable");
        let evaluator = SeparableEvaluator::with_options(
            sep,
            ExecOptions { dedup: false, max_iterations: 1000, ..ExecOptions::default() },
        );
        let verdict = match evaluator.evaluate(&query, &db, &ExtraRelations::default()) {
            Err(e) => format!("diverges as predicted ({e})"),
            Ok(_) => "UNEXPECTEDLY TERMINATED".to_string(),
        };
        rows.push(vec!["dedup off, cyclic data".into(), "-".into(), "-".into(), verdict]);
    }
    print_table(
        "E8b — the `carry - seen` difference (Lemma 3.4's termination argument)",
        &["variant", "max relation", "answers", "time / verdict"],
        &rows,
    );

    // (c) Index ablation.
    let mut rows = Vec::new();
    let inst = magic_worst_buys(if quick { 100 } else { 400 });
    for (label, use_indexes) in [("indexes on", true), ("indexes off", false)] {
        let mut db = inst.db.clone();
        let program = parse_program(&inst.program, db.interner_mut()).expect("parses");
        let query = parse_query(&inst.query, db.interner_mut()).expect("parses");
        let sep =
            detect_in_program(&program, query.atom.pred, db.interner_mut()).expect("separable");
        let evaluator = SeparableEvaluator::with_options(
            sep,
            ExecOptions { use_indexes, ..ExecOptions::default() },
        );
        let start = Instant::now();
        let out = evaluator.evaluate(&query, &db, &ExtraRelations::default()).expect("runs");
        rows.push(vec![
            label.to_string(),
            out.answers.len().to_string(),
            format!("{:.3?}", start.elapsed()),
        ]);
    }
    print_table(
        "E8c — hash indexes vs filtered full scans",
        &["variant", "answers", "time"],
        &rows,
    );
}

fn e8_instance(n: usize) -> Instance {
    use sepra_gen::graphs::add_chain;
    use sepra_storage::Database;
    let mut db = Database::new();
    for i in 0..n {
        db.insert_named(
            "a",
            &[&format!("c{i}"), &format!("d{i}"), &format!("c{}", i + 1), &format!("d{}", i + 1)],
        )
        .expect("fact");
    }
    for i in 0..=n {
        db.insert_named("t0", &[&format!("c{i}"), &format!("d{i}"), "w0"]).expect("fact");
    }
    add_chain(&mut db, "b", "w", n);
    Instance {
        program: "t(X, Y, Z) :- a(X, Y, U, V), t(U, V, Z).\n\
                  t(X, Y, Z) :- t(X, Y, W), b(W, Z).\n\
                  t(X, Y, Z) :- t0(X, Y, Z).\n"
            .to_string(),
        query: "t(c0, Y, Z)?".to_string(),
        db,
    }
}

/// E9 — Section 5: relaxing Condition 4 keeps the algorithm correct but
/// loses the focusing effect of the selection constant (the disconnected
/// `b` subgoal is scanned in full).
fn e9(quick: bool) {
    use sepra_ast::parse_query;
    use sepra_core::detect::{detect_with_options, DetectOptions};
    use sepra_core::evaluate::SeparableEvaluator;
    use sepra_core::exec::ExtraRelations;
    use sepra_gen::graphs::add_chain;
    use sepra_storage::Database;

    let mut rows = Vec::new();
    let ns: &[usize] = if quick { &[50] } else { &[50, 200, 800] };
    for &n in ns {
        // t(X, Y) :- a(X, W), t(W, Z), b(Z, Y): removing t disconnects a
        // from b (the paper's Section 5 example). Only a short prefix of
        // `a` is reachable from the query constant, but all of `b` is
        // examined.
        let mut db = Database::new();
        add_chain(&mut db, "a", "x", 4);
        add_chain(&mut db, "b", "y", n);
        db.insert_named("t0", &["x1", "y1"]).expect("fact");
        let program_src = "t(X, Y) :- a(X, W), t(W, Z), b(Z, Y).\n\
                           t(X, Y) :- t0(X, Y).\n";
        let program = parse_program(program_src, db.interner_mut()).expect("parses");
        let query = parse_query("t(x0, Y)?", db.interner_mut()).expect("parses");
        let def = sepra_ast::RecursiveDef::extract(&program, query.atom.pred, db.interner())
            .expect("shape ok");
        let sep = detect_with_options(
            &def,
            db.interner_mut(),
            DetectOptions { allow_disconnected_bodies: true },
        )
        .expect("accepted with relaxation");
        let evaluator = SeparableEvaluator::new(sep);
        let start = Instant::now();
        let out =
            evaluator.evaluate(&query, &db, &ExtraRelations::default()).expect("still correct");
        // Cross-check against semi-naive.
        let derived = sepra_eval::seminaive(&program, &db).expect("seminaive");
        let expected = sepra_eval::query_answers(&query, &db, Some(&derived)).expect("answers");
        assert_eq!(out.answers, expected, "E9 n={n}");
        let seeds = match out.strategy {
            sepra_core::evaluate::StrategyNote::Decomposed { distinct_seeds, .. } => distinct_seeds,
            _ => 0,
        };
        rows.push(vec![
            format!("|b| = {n}"),
            seeds.to_string(),
            out.stats.insert_attempts.to_string(),
            out.answers.len().to_string(),
            format!("{:.3?}", start.elapsed()),
        ]);
    }
    print_table(
        "E9 — Section 5: Condition 4 relaxed — correct but unfocused \
         (the whole of b is enumerated as carry_1 seeds, tracking |b| \
         rather than the reachable fraction)",
        &["database", "carry_1 seeds", "insert attempts", "answers", "time"],
        &rows,
    );
}

/// E10 — basic vs supplementary Magic Sets on multi-atom rule bodies:
/// the supplementary rewrite scans fewer rows by materializing shared
/// prefixes as `sup` relations.
fn e10(quick: bool) {
    use sepra_ast::parse_query;
    use sepra_gen::graphs::add_chain;
    use sepra_rewrite::{magic_evaluate, magic_evaluate_supplementary};
    use sepra_storage::Database;

    let mut rows = Vec::new();
    let ns: &[usize] = if quick { &[120] } else { &[120, 480, 960] };
    for &n in ns {
        let mut db = Database::new();
        add_chain(&mut db, "hop", "n", n);
        db.insert_named("goal", &[&format!("n{n}"), "finish"]).expect("fact");
        db.insert_named("goal", &[&format!("n{}", n / 2), "half"]).expect("fact");
        let program = parse_program(
            "reach(X, Y) :- hop(X, A), hop(A, B), hop(B, W), reach(W, Y).\n\
             reach(X, Y) :- goal(X, Y).\n",
            db.interner_mut(),
        )
        .expect("parses");
        let query = parse_query("reach(n0, Y)?", db.interner_mut()).expect("parses");
        let start = Instant::now();
        let basic = magic_evaluate(&program, &query, &db).expect("basic");
        let basic_time = start.elapsed();
        let start = Instant::now();
        let sup = magic_evaluate_supplementary(&program, &query, &db).expect("sup");
        let sup_time = start.elapsed();
        assert_eq!(basic.answers.len(), sup.answers.len(), "E10 n={n}");
        rows.push(vec![
            format!("n={n}"),
            "basic".into(),
            basic.stats.rows_scanned.to_string(),
            basic.stats.max_relation_size().to_string(),
            format!("{basic_time:.3?}"),
        ]);
        rows.push(vec![
            format!("n={n}"),
            "supplementary".into(),
            sup.stats.rows_scanned.to_string(),
            sup.stats.max_relation_size().to_string(),
            format!("{sup_time:.3?}"),
        ]);
    }
    print_table(
        "E10 — basic vs supplementary Magic Sets (3-atom rule prefixes)",
        &["n", "variant", "rows scanned", "max relation", "time"],
        &rows,
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("# Section 4 reproduction — Compiling Separable Recursions (Naughton, 1988)");
    println!(
        "\nCost metric: the size of the relations each algorithm constructs \
         (Definition 4.2). Shapes to check: who wins, by what growth rate, \
         not absolute times."
    );
    e1(quick);
    e2(quick);
    e3(quick);
    e4(quick);
    e5(quick);
    e6(quick);
    e7();
    e8(quick);
    e9(quick);
    e10(quick);
    println!("\nAll cross-algorithm answer checks passed.");
}
