//! Shared measurement harness for the Section 4 reproduction.
//!
//! Every experiment runs one or more algorithms on a generated
//! [`Instance`] and records the paper's cost
//! metric — the peak size of every relation the algorithm constructs
//! (Definition 4.2) — next to wall-clock time and the answer count. The
//! Criterion benches in `benches/` time the same runs; the `paper-tables`
//! binary prints the tables recorded in `EXPERIMENTS.md`.

use std::time::{Duration, Instant};

use sepra_ast::{parse_program, parse_query};
use sepra_core::detect::{detect_in_program, SeparableRecursion};
use sepra_core::evaluate::SeparableEvaluator;
use sepra_core::exec::{ExecOptions, ExtraRelations};
use sepra_eval::{query_answers, seminaive, EvalError};
use sepra_gen::paper::Instance;
use sepra_rewrite::{counting_evaluate, hn_evaluate, magic_evaluate, CountingOptions, HnOptions};
use sepra_storage::{Database, EvalStats};

/// One algorithm's measurements on one instance.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm label.
    pub algo: &'static str,
    /// Peak size of the largest relation constructed (the paper's
    /// headline number).
    pub max_relation: usize,
    /// Sum of the peak sizes of all constructed relations.
    pub total_relation: usize,
    /// Number of answers.
    pub answers: usize,
    /// Wall-clock evaluation time.
    pub elapsed: Duration,
    /// Full statistics, for detailed tables.
    pub stats: EvalStats,
}

fn measurement(
    algo: &'static str,
    stats: EvalStats,
    answers: usize,
    elapsed: Duration,
) -> Measurement {
    Measurement {
        algo,
        max_relation: stats.max_relation_size(),
        total_relation: stats.total_relation_size(),
        answers,
        elapsed,
        stats,
    }
}

fn prepared(inst: &Instance) -> (Database, sepra_ast::Program, sepra_ast::Query) {
    let mut db = inst.db.clone();
    let program = parse_program(&inst.program, db.interner_mut()).expect("instance program parses");
    let query = parse_query(&inst.query, db.interner_mut()).expect("instance query parses");
    (db, program, query)
}

/// Detects the instance's recursion (panics if not separable — instances
/// are separable by construction).
pub fn detect_instance(
    inst: &Instance,
) -> (Database, sepra_ast::Program, sepra_ast::Query, SeparableRecursion) {
    let (mut db, program, query) = prepared(inst);
    let sep = detect_in_program(&program, query.atom.pred, db.interner_mut())
        .expect("instance recursion is separable");
    (db, program, query, sep)
}

/// Runs the paper's Separable algorithm.
pub fn run_separable(inst: &Instance) -> Result<Measurement, EvalError> {
    let (db, _program, query, sep) = detect_instance(inst);
    let evaluator = SeparableEvaluator::with_options(sep, ExecOptions::default());
    let start = Instant::now();
    let out = evaluator.evaluate(&query, &db, &ExtraRelations::default())?;
    let elapsed = start.elapsed();
    Ok(measurement("separable", out.stats, out.answers.len(), elapsed))
}

/// Runs Generalized Magic Sets.
pub fn run_magic(inst: &Instance) -> Result<Measurement, EvalError> {
    let (db, program, query) = prepared(inst);
    let start = Instant::now();
    let out = magic_evaluate(&program, &query, &db)?;
    let elapsed = start.elapsed();
    Ok(measurement("magic", out.stats, out.answers.len(), elapsed))
}

/// Runs the Generalized Counting Method.
pub fn run_counting(inst: &Instance) -> Result<Measurement, EvalError> {
    let (db, _program, query, sep) = detect_instance(inst);
    let start = Instant::now();
    let out =
        counting_evaluate(&sep, &query, &db, &Default::default(), &CountingOptions::default())?;
    let elapsed = start.elapsed();
    Ok(measurement("counting", out.stats, out.answers.len(), elapsed))
}

/// Runs the Henschen-Naqvi iterative algorithm.
pub fn run_hn(inst: &Instance) -> Result<Measurement, EvalError> {
    let (db, _program, query, sep) = detect_instance(inst);
    let start = Instant::now();
    let out = hn_evaluate(&sep, &query, &db, &Default::default(), &HnOptions::default())?;
    let elapsed = start.elapsed();
    Ok(measurement("hn", out.stats, out.answers.len(), elapsed))
}

/// Runs plain stratified semi-naive evaluation (no selection pushing).
pub fn run_seminaive(inst: &Instance) -> Result<Measurement, EvalError> {
    let (db, program, query) = prepared(inst);
    let start = Instant::now();
    let derived = seminaive(&program, &db)?;
    let answers = query_answers(&query, &db, Some(&derived))?;
    let elapsed = start.elapsed();
    Ok(measurement("seminaive", derived.stats, answers.len(), elapsed))
}

/// Formats a markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Prints a table with a header, separator, and rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("{}", row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    println!("{}", row(&header.iter().map(|_| "---".to_string()).collect::<Vec<_>>()));
    for r in rows {
        println!("{}", row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_gen::paper::{counting_worst_buys, magic_worst_buys, spk_magic_witness};

    #[test]
    fn e1_shape_holds_at_small_n() {
        // Magic Ω(n²) vs Separable O(n) on the Example 1.2 witness.
        let inst = magic_worst_buys(20);
        let sep = run_separable(&inst).unwrap();
        let magic = run_magic(&inst).unwrap();
        assert_eq!(sep.answers, magic.answers, "answer sets must agree in size");
        assert!(sep.max_relation <= 21, "separable stays O(n): {}", sep.max_relation);
        assert!(magic.max_relation >= 20 * 20, "magic is Ω(n²): {}", magic.max_relation);
    }

    #[test]
    fn e2_shape_holds_at_small_n() {
        // Counting Ω(2^n) vs Separable O(n) on the Example 1.1 witness.
        let inst = counting_worst_buys(8);
        let sep = run_separable(&inst).unwrap();
        let counting = run_counting(&inst).unwrap();
        assert_eq!(sep.answers, counting.answers);
        assert!(sep.max_relation <= 9);
        assert!(
            counting.stats.relation_sizes["count"] >= (1 << 9) - 1,
            "count relation is Ω(2^n): {}",
            counting.stats.relation_sizes["count"]
        );
    }

    #[test]
    fn e3_shape_holds_at_small_n() {
        // Magic Ω(n^k) vs Separable O(n^{k-1}) on the Lemma 4.2 witness.
        let inst = spk_magic_witness(2, 2, 10);
        let sep = run_separable(&inst).unwrap();
        let magic = run_magic(&inst).unwrap();
        assert_eq!(sep.answers, magic.answers);
        assert!(magic.max_relation >= 100, "magic Ω(n^2): {}", magic.max_relation);
        assert!(sep.max_relation <= 20, "separable O(n): {}", sep.max_relation);
    }
}
