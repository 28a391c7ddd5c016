//! Every JSON line a session's reply is rendered as: what the server
//! writes, and the plan `:plan` prints. Refusals go through the
//! protocol's one error envelope ([`render_error`]); nothing here decides
//! anything.

use std::sync::atomic::Ordering;

use sepra_engine::{MutationOutcome, PlanReport, ProcessorError, QueryProcessor, QueryResult};
use sepra_eval::EvalError;
use sepra_repl::protocol::{render_error, render_error_with};
use sepra_storage::EvalStats;

use crate::json::{self, ObjWriter};
use crate::server::SharedState;

/// The `"stats"` member of an answer or a mutation ack.
fn work(stats: &EvalStats) -> String {
    let mut out = ObjWriter::new();
    out.num("iterations", stats.iterations as u64)
        .num("tuples_inserted", stats.tuples_inserted as u64)
        .num("rows_scanned", stats.rows_scanned as u64);
    out.finish()
}

fn micros(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

/// A query's answer, from the snapshot `qp` that produced it.
pub(crate) fn answer(result: &QueryResult, qp: &QueryProcessor) -> String {
    let interner = qp.db().interner();
    let mut rows = String::from("[");
    for (i, tuple) in result.answers.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push('[');
        for (j, value) in tuple.values().enumerate() {
            if j > 0 {
                rows.push(',');
            }
            rows.push('"');
            rows.push_str(&json::escape(&value.display(interner).to_string()));
            rows.push('"');
        }
        rows.push(']');
    }
    rows.push(']');
    // Every answer is stamped with the db generation of the snapshot
    // that produced it, so clients can compare reads across replicas
    // (and against mutation acks).
    let mut out = ObjWriter::new();
    out.raw("answers", &rows)
        .num("count", result.answers.len() as u64)
        .str("strategy", &result.strategy.to_string())
        .num("generation", qp.db().generation())
        .num("elapsed_us", micros(result.elapsed))
        .raw("stats", &work(&result.stats));
    out.finish()
}

/// A committed mutation's acknowledgement. The stamped generation is the
/// *database* generation — the durable lineage WAL records carry and
/// replicas report — so a client can hand it straight to a replica as
/// `min_generation` for read-your-writes.
pub(crate) fn mutation_ack(out: &MutationOutcome, generation: u64) -> String {
    let mut response = ObjWriter::new();
    response
        .num("inserted", out.inserted as u64)
        .num("retracted", out.retracted as u64)
        .num("generation", generation)
        .num("elapsed_us", micros(out.elapsed))
        .raw("stats", &work(&out.stats));
    response.finish()
}

/// A query's evaluation plan — what `:plan` and `--explain -f json`
/// print. Estimates are fixed-point decimals, so the line is stable for
/// golden tests.
pub(crate) fn plan(report: &PlanReport) -> String {
    let array = |items: Vec<String>| format!("[{}]", items.join(","));
    let conjunctions = report.conjunctions.iter().map(|conj| {
        let scans = conj.scans.iter().map(|s| {
            let mut scan = ObjWriter::new();
            scan.str("rel", &s.rel)
                .raw("rows", &format!("{:.0}", s.rows))
                .num("keyed_cols", s.keyed_cols as u64)
                .raw("estimate", &format!("{:.4}", s.estimate));
            scan.finish()
        });
        let mut out = ObjWriter::new();
        out.str("label", &conj.label).raw("scans", &array(scans.collect()));
        out.finish()
    });
    let mut out = ObjWriter::new();
    out.str("query", &report.query)
        .str("strategy", &report.strategy)
        .str("plan_mode", report.plan_mode)
        .raw("conjunctions", &array(conjunctions.collect()))
        .str("text", &report.text);
    out.finish()
}

/// A failed query or mutation: the error's kind and message, and for an
/// exhausted budget the structured `what` / `resource` detail.
pub(crate) fn processor_error(e: ProcessorError) -> String {
    match e {
        ProcessorError::Eval(EvalError::BudgetExceeded { what, resource }) => render_error_with(
            "budget_exceeded",
            &format!("budget exceeded in {what}: {}", resource.name()),
            |detail| {
                detail.str("what", &what).str("resource", resource.name());
            },
        ),
        ProcessorError::Ast(e) => render_error("parse", &e.to_string()),
        ProcessorError::Eval(e) => render_error("eval", &e.to_string()),
        ProcessorError::Facts(e) => render_error("facts", &e),
        ProcessorError::StrategyUnavailable(e) => render_error("strategy_unavailable", &e),
    }
}

/// A `min_generation` read whose deadline passed at generation `reached`.
pub(crate) fn generation_timeout(target: u64, reached: u64) -> String {
    let message = format!(
        "generation {target} not reached within the deadline (applied generation is {reached})"
    );
    render_error_with("timeout", &message, |detail| {
        detail.num("generation", reached);
    })
}

/// The structured redirect a replica answers a mutation with: clients
/// (and the router) read `error.primary` to re-aim it.
pub(crate) fn read_only_replica(primary: &str) -> String {
    let message = format!("this server is a read-only replica; send mutations to {primary}");
    render_error_with("read_only_replica", &message, |detail| {
        detail.str("primary", primary);
    })
}

/// The `{"stats": true}` response from the live counters.
pub(crate) fn stats(qp: &QueryProcessor, shared: &SharedState) -> String {
    let s = shared.metrics.snapshot();
    let mut by_strategy = ObjWriter::new();
    for (strategy, count) in &s.by_strategy {
        by_strategy.num(strategy, *count);
    }
    let mut queries = ObjWriter::new();
    queries
        .num("total", s.total())
        .num("ok", s.ok)
        .num("errors", s.errors)
        .num("budget_exceeded", s.budget_exceeded)
        .num("bounded_eliminations", s.bounded_eliminations)
        .raw("by_strategy", &by_strategy.finish());
    let mut mutations = ObjWriter::new();
    mutations
        .num("total", s.mutations + s.mutation_failures)
        .num("ok", s.mutations)
        .num("errors", s.mutation_failures)
        .num("tuples_inserted", s.mutation_inserted)
        .num("tuples_retracted", s.mutation_retracted);
    let mut latency = ObjWriter::new();
    latency
        .num("min", s.latency_min_us)
        .num("median", s.latency_median_us)
        .num("max", s.latency_max_us);
    let cache = qp.plan_cache();
    let mut plan_cache = ObjWriter::new();
    plan_cache
        .num("entries", cache.entries() as u64)
        .num("hits", cache.hits())
        .num("misses", cache.misses());
    // Planner counters: conjunctions cost-ordered, stats-less fallbacks,
    // cache entries dropped for statistics drift, and replans (a replan is
    // a compile the cache could not serve, i.e. a miss).
    let mut planner = ObjWriter::new();
    planner
        .num("plans_costed", s.plans_costed)
        .num("fallbacks", s.plan_fallbacks)
        .num("drift_invalidations", cache.drift_invalidations())
        .num("replans", cache.misses());
    // The client-visible generation is the committed *database*
    // generation (the WAL/checkpoint lineage) — comparable across the
    // primary, its replicas, and mutation acks.
    let applied = shared.gate.current();
    let mut out = ObjWriter::new();
    out.num("uptime_ms", u64::try_from(s.uptime.as_millis()).unwrap_or(u64::MAX))
        .num("threads", shared.opts.threads.max(1) as u64)
        .num("generation", applied)
        .raw("queries", &queries.finish())
        .raw("mutations", &mutations.finish())
        .num("tuples_inserted", s.tuples_inserted)
        .num("iterations", s.iterations)
        .raw("latency_us", &latency.finish())
        .raw("plan_cache", &plan_cache.finish())
        .raw("planner", &planner.finish());
    if let Some(primary) = &shared.opts.replica_of {
        let primary_generation = shared.primary_generation.load(Ordering::SeqCst);
        let mut replication = ObjWriter::new();
        replication
            .str("role", "replica")
            .str("primary", primary)
            .num("generation", applied)
            .num("primary_generation", primary_generation)
            .num("lag", primary_generation.saturating_sub(applied))
            .num("applied_records", shared.applied_records.load(Ordering::SeqCst));
        out.raw("replication", &replication.finish());
    } else if shared.durability.is_some() {
        let mut replication = ObjWriter::new();
        replication.str("role", "primary").num("generation", applied);
        out.raw("replication", &replication.finish());
    }
    if let Some(durability) = shared.lock_durability() {
        out.raw("durability", &durability.stats_json(qp.db().generation()));
    }
    out.finish()
}
