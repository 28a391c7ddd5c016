//! `sepra-engine`: the query processor — load, prepare, route, clone,
//! mutate.

use std::sync::Arc;

use sepra_ast::{Program, Query};
use sepra_core::cache::PlanCache;
use sepra_engine::{MutationOutcome, QueryProcessor, QueryResult, Strategy, StrategyChoice};

use super::client::Replay;
use super::{core, eval, rewrite, Fixtures, Probe};
use crate::gen::{self, Fixture, Mutation};
use crate::stats;
use crate::trace::Tracer;

pub fn load(source: &str) -> Result<QueryProcessor, String> {
    let mut qp = QueryProcessor::new();
    qp.load(source).map_err(|e| format!("load: {e}"))?;
    Ok(qp)
}

pub fn prepare(qp: &mut QueryProcessor) -> Result<(), String> {
    qp.prepare().map_err(|e| format!("prepare: {e}"))
}

/// Load and prepare: a processor ready for queries.
pub fn ready(source: &str) -> Result<QueryProcessor, String> {
    let mut qp = load(source)?;
    prepare(&mut qp)?;
    Ok(qp)
}

pub fn parse_query(qp: &mut QueryProcessor, text: &str) -> Result<Query, String> {
    qp.parse_query(text).map_err(|e| format!("parse `{text}`: {e}"))
}

/// `QueryProcessor::query`: parse and run with automatic routing — the
/// batch workloads' op.
pub fn query(qp: &mut QueryProcessor, text: &str) -> Result<QueryResult, String> {
    qp.query(text).map_err(|e| format!("query `{text}`: {e}"))
}

pub fn run_query(qp: &mut QueryProcessor, query: &Query) -> Result<QueryResult, String> {
    qp.run_query(query, StrategyChoice::Auto).map_err(|e| format!("run query: {e}"))
}

pub fn query_forced(
    qp: &mut QueryProcessor,
    text: &str,
    strategy: Strategy,
) -> Result<QueryResult, String> {
    qp.query_with(text, StrategyChoice::Force(strategy))
        .map_err(|e| format!("query `{text}` by {strategy}: {e}"))
}

/// `QueryProcessor::clone`: what a server worker does to refresh its
/// snapshot after every committed mutation.
pub fn snapshot(qp: &QueryProcessor) -> QueryProcessor {
    qp.clone()
}

pub fn apply_mutation(qp: &mut QueryProcessor, m: &Mutation) -> Result<MutationOutcome, String> {
    let fact = m.fact();
    let out =
        if m.insert { qp.apply_mutation(&[&fact], &[]) } else { qp.apply_mutation(&[], &[&fact]) };
    let out = out.map_err(|e| format!("mutation `{fact}`: {e}"))?;
    if out.inserted + out.retracted != 1 {
        return Err(format!("mutation `{fact}` changed {} rows", out.inserted + out.retracted));
    }
    Ok(out)
}

pub fn apply_delta_mutation(
    qp: &mut QueryProcessor,
    delta: sepra_storage::EdbDelta,
) -> Result<MutationOutcome, String> {
    qp.apply_delta_mutation(delta).map_err(|e| format!("apply delta: {e}"))
}

/// The call `run_query` routes a workload's queries to, made directly.
enum Route {
    SemiNaive,
    Separable(Box<core::Separable>),
    Magic,
}

/// A workload's request pipeline taken apart into public calls: parse,
/// `run_query`, and — beside it — the strategy call `run_query` routes to,
/// on the same program and facts, so that the difference is the router's
/// own time.
pub struct Pipeline {
    pub qp: QueryProcessor,
    program: Program,
    /// A second copy of the facts for the direct calls, with its own
    /// symbol table (detection interns into it).
    db: sepra_storage::Database,
    route: Route,
}

impl Pipeline {
    pub fn new(fixture: &Fixture) -> Result<Pipeline, String> {
        let mut qp = ready(&fixture.source())?;
        let first = &fixture.queries[fixture.op(0)];
        let strategy = query(&mut qp, first)?.strategy;
        let program = qp.program().clone();
        let mut db = qp.db().clone();
        let route = match strategy {
            Strategy::SemiNaive => Route::SemiNaive,
            Strategy::MagicSets => Route::Magic,
            Strategy::Separable => {
                let parsed = sepra_ast::parse_query(first, db.interner_mut())
                    .map_err(|e| format!("parse `{first}`: {e}"))?;
                let cache = Arc::new(PlanCache::new());
                Route::Separable(Box::new(core::Separable::new(&program, &mut db, &parsed, cache)?))
            }
            other => return Err(format!("no direct call for strategy {other}")),
        };
        Ok(Pipeline { qp, program, db, route })
    }

    /// The routed call for `text`, as spans of the layer that does the
    /// work. Returns the number of answers and the spans' total length.
    pub fn routed(&mut self, tracer: &mut Tracer, text: &str) -> Result<(usize, u64), String> {
        let query = sepra_ast::parse_query(text, self.db.interner_mut())
            .map_err(|e| format!("parse `{text}`: {e}"))?;
        match &self.route {
            Route::SemiNaive => {
                let (fixpoint_ns, derived) = tracer.span_ns("eval", "routed_fixpoint", || {
                    eval::fixpoint(&self.program, &self.db, 1)
                });
                let derived = derived?;
                let (answers_ns, answers) = tracer.span_ns("eval", "routed_answers", || {
                    eval::answers(&query, &self.db, &derived)
                });
                Ok((answers?.len(), fixpoint_ns + answers_ns))
            }
            Route::Separable(sep) => {
                let (ns, out) =
                    tracer.span_ns("core", "routed_separable", || sep.evaluate(&query, &self.db));
                Ok((out?.answers.len(), ns))
            }
            Route::Magic => {
                let (ns, out) = tracer.span_ns("rewrite", "routed_magic", || {
                    rewrite::magic(&self.program, &query, &self.db)
                });
                Ok((out?.answers.len(), ns))
            }
        }
    }
}

/// The engine's metrics. On the workload's own inputs: `engine.load_us`,
/// `engine.prepare_us`, `engine.snapshot_clone_us`, and from the replay
/// `engine.run_query_us`, `engine.route_self_us`,
/// `engine.peak_relation_tuples`. Pinned: `engine.apply_mutation_insert_us`
/// and `_retract_us` on the served tree, `engine.apply_mutation_stratified_us`
/// on the stratified program (the same calls, through the stratum-wise
/// maintenance).
pub fn probe(fx: &Fixtures, p: &mut Probe, replay: &Replay) -> Result<(), String> {
    let source = fx.own.source();
    let (load_us, loaded) = p.time("engine", "load", 3, || load(&source));
    let mut qp = loaded?;
    p.put("engine.load_us", load_us, "us");
    // `prepare` recomputes detection and the supporting strata every call.
    let (prepare_us, prepared) = p.time("engine", "prepare", 3, || prepare(&mut qp));
    prepared?;
    p.put("engine.prepare_us", prepare_us, "us");
    let (clone_us, _) = p.time("engine", "snapshot_clone", 200, || snapshot(&qp));
    p.put("engine.snapshot_clone_us", clone_us, "us");

    let mut run_query = p.tracer.durations("engine", "run_query");
    p.put("engine.run_query_us", stats::us(stats::median(&mut run_query)), "us");
    p.put("engine.route_self_us", replay.route_self_us, "us");
    p.put("engine.peak_relation_tuples", replay.peak_relation_tuples as f64, "tuples");

    // Insert and retract through the maintained `e` stratum of the tree.
    let mut tree = ready(&fx.tree.source())?;
    let nodes = gen::tree_nodes(gen::TREE_ARITY, gen::TREE_DEPTH);
    let (mut inserts, mut retracts) = (Vec::new(), Vec::new());
    for k in 0..gen::MUTATION_WINDOW + 400 {
        let m = gen::mutation(fx.seed, nodes, k);
        p.tracer.next_op();
        let name = if m.insert { "apply_mutation_insert" } else { "apply_mutation_retract" };
        let (ns, out) = p.tracer.span_ns("engine", name, || apply_mutation(&mut tree, &m));
        out?;
        if k >= gen::MUTATION_WINDOW {
            if m.insert { &mut inserts } else { &mut retracts }.push(ns);
        }
    }
    p.put("engine.apply_mutation_insert_us", stats::us(stats::median(&mut inserts)), "us");
    p.put("engine.apply_mutation_retract_us", stats::us(stats::median(&mut retracts)), "us");

    // Take one edge of the stratified DAG out and put it back, repeatedly.
    let mut strat = ready(&fx.stratified.source())?;
    let edge = fx
        .stratified
        .facts
        .lines()
        .find(|l| l.starts_with("w("))
        .ok_or("stratified fixture has no edge")?;
    let mut out_of_db = false;
    let (strat_us, applied) = p.time("engine", "apply_mutation_stratified", 12, || {
        out_of_db = !out_of_db;
        let (ins, ret): (&[&str], &[&str]) =
            if out_of_db { (&[], &[edge]) } else { (&[edge], &[]) };
        strat.apply_mutation(ins, ret).map(|o| o.inserted + o.retracted)
    });
    if applied.map_err(|e| format!("stratified mutation: {e}"))? != 1 {
        return Err("stratified mutation was not effective".into());
    }
    p.put("engine.apply_mutation_stratified_us", strat_us, "us");
    Ok(())
}
