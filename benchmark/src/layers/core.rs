//! `sepra-core`: separability detection, the compiled Separable
//! evaluator, and its plan cache.

use std::sync::Arc;

use sepra_ast::{Interner, Program, Query, Sym};
use sepra_core::cache::PlanCache;
use sepra_core::detect::{detect_in_program, SeparableRecursion};
use sepra_core::evaluate::{SeparableEvaluator, SeparableOutcome};
use sepra_core::exec::{ExecOptions, ExtraRelations};
use sepra_storage::Database;

use super::{ast, engine, eval, Fixtures, Probe};
use crate::stats;

pub fn detect(
    program: &Program,
    pred: Sym,
    interner: &mut Interner,
) -> Result<SeparableRecursion, String> {
    detect_in_program(program, pred, interner).map_err(|e| format!("not separable: {e:?}"))
}

/// The Separable evaluator set up the way the processor sets it up: the
/// detected recursion, the supporting strata materialized as extra base
/// relations, and a plan cache.
pub struct Separable {
    evaluator: SeparableEvaluator,
    extra: ExtraRelations,
    pub cache: Arc<PlanCache>,
}

impl Separable {
    pub fn new(
        program: &Program,
        db: &mut Database,
        query: &Query,
        cache: Arc<PlanCache>,
    ) -> Result<Separable, String> {
        let pred = query.atom.pred;
        let sep = detect(program, pred, db.interner_mut())?;
        let support: Vec<_> =
            program.rules.iter().filter(|r| r.head.pred != pred).cloned().collect();
        let extra = if support.is_empty() {
            ExtraRelations::default()
        } else {
            eval::fixpoint(&Program::new(support), db, 1)?.relations
        };
        let evaluator = SeparableEvaluator::with_options(sep, ExecOptions::default())
            .with_plan_cache(Arc::clone(&cache));
        Ok(Separable { evaluator, extra, cache })
    }

    pub fn evaluate(&self, query: &Query, db: &Database) -> Result<SeparableOutcome, String> {
        self.evaluator.evaluate(query, db, &self.extra).map_err(|e| format!("separable: {e}"))
    }
}

/// `core.detect_us` on the workload's own program (a refusal is timed
/// like a detection: the processor pays for both in `prepare`). Pinned to
/// the social graph, where the paper's algorithm runs:
/// `core.separable_eval_us`, `core.iterations`,
/// `core.peak_relation_tuples` (Definition 4.2: the largest relation the
/// algorithm constructs) and `core.plan_cache_hit_ratio`.
pub fn probe(fx: &Fixtures, p: &mut Probe) -> Result<(), String> {
    let mut interner = Interner::new();
    let program = ast::parse_program(&fx.own.rules, &mut interner)?;
    let query = sepra_ast::parse_query(&fx.own.queries[0], &mut interner)
        .map_err(|e| format!("parse query: {e}"))?;
    let (detect_us, _) = p.time("core", "detect", 50, || {
        detect_in_program(&program, query.atom.pred, &mut interner).is_ok()
    });
    p.put("core.detect_us", detect_us, "us");

    let qp = engine::ready(&fx.social.source())?;
    let program = qp.program().clone();
    let mut db = qp.db().clone();
    let parse = |db: &mut Database, i: usize| {
        sepra_ast::parse_query(&fx.social.queries[fx.social.op(i)], db.interner_mut())
            .map_err(|e| format!("parse query: {e}"))
    };
    let first = parse(&mut db, 0)?;
    let sep = Separable::new(&program, &mut db, &first, Arc::new(PlanCache::new()))?;
    let (mut ns, mut iterations, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..SEPARABLE_QUERIES {
        let query = parse(&mut db, i)?;
        p.tracer.next_op();
        let (span_ns, out) =
            p.tracer.span_ns("core", "separable_eval", || sep.evaluate(&query, &db));
        let out = out?;
        ns.push(span_ns);
        iterations.push(out.stats.iterations as u64);
        peaks.push(out.stats.max_relation_size() as u64);
    }
    p.put("core.separable_eval_us", stats::us(stats::median(&mut ns)), "us");
    p.put("core.iterations", stats::median(&mut iterations) as f64, "count");
    p.put("core.peak_relation_tuples", peaks.iter().max().copied().unwrap_or(0) as f64, "tuples");
    let (hits, misses) = (sep.cache.hits(), sep.cache.misses());
    p.put("core.plan_cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    Ok(())
}

/// How many of the social graph's queries the pinned probes run.
pub const SEPARABLE_QUERIES: usize = 100;
