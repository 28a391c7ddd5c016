//! `sepra-rewrite`: Generalized Magic Sets.

use sepra_ast::{Program, Query};
use sepra_engine::Strategy;
use sepra_eval::EvalOptions;
use sepra_rewrite::{magic_evaluate_with_options, MagicOutcome};
use sepra_storage::Database;

use super::core::SEPARABLE_QUERIES;
use super::{engine, eval, Fixtures, Probe};
use crate::stats;

/// Rewrite, copy the database, evaluate the rewritten program, filter.
pub fn magic(program: &Program, query: &Query, db: &Database) -> Result<MagicOutcome, String> {
    magic_evaluate_with_options(program, query, db, &EvalOptions::default())
        .map_err(|e| format!("magic sets: {e}"))
}

/// How many same-generation queries the magic probe runs.
const MAGIC_QUERIES: usize = 200;
/// How many of the social graph's queries are also forced through Magic
/// Sets. Each constructs people × products tuples (a million here, and
/// over a second): that is the paper's point, and why there are so few.
const MAGIC_ON_SOCIAL_QUERIES: usize = 2;

/// Pinned to the same-generation tree: `rewrite.magic_total_us`,
/// `rewrite.magic_self_us` (total minus re-running the fixpoint on the
/// rewritten program and database the call hands back: what the rewrite
/// and the database copy cost) and `rewrite.magic_peak_relation_tuples`.
/// Pinned to the social graph, the paper's §4 comparison as live numbers:
/// the separable queries forced through Magic Sets,
/// `rewrite.magic_over_separable_time_ratio` and
/// `rewrite.magic_over_separable_peak_ratio`.
pub fn probe(fx: &Fixtures, p: &mut Probe) -> Result<(), String> {
    let sg = &fx.same_generation;
    let mut qp = engine::ready(&sg.source())?;
    let program = qp.program().clone();
    let (mut total, mut own, mut peak) = (Vec::new(), Vec::new(), 0);
    for i in 0..MAGIC_QUERIES {
        let query = engine::parse_query(&mut qp, &sg.queries[sg.op(i)])?;
        p.tracer.next_op();
        let (total_ns, out) =
            p.tracer.span_ns("rewrite", "magic", || magic(&program, &query, qp.db()));
        let out = out?;
        let (fixpoint_ns, rerun) = p
            .tracer
            .span_ns("eval", "magic_fixpoint", || eval::fixpoint(&out.rewritten, &out.db, 1));
        rerun?;
        total.push(total_ns);
        own.push(total_ns.saturating_sub(fixpoint_ns));
        peak = peak.max(out.stats.max_relation_size());
    }
    p.put("rewrite.magic_total_us", stats::us(stats::median(&mut total)), "us");
    p.put("rewrite.magic_self_us", stats::us(stats::median(&mut own)), "us");
    p.put("rewrite.magic_peak_relation_tuples", peak as f64, "tuples");

    let social = &fx.social;
    let mut qp = engine::ready(&social.source())?;
    let (mut sep_ns, mut magic_ns, mut sep_peak, mut magic_peak) = (Vec::new(), Vec::new(), 0, 0);
    for i in 0..SEPARABLE_QUERIES {
        let text = &social.queries[social.op(i)];
        p.tracer.next_op();
        let (ns, out) = p.tracer.span_ns("core", "social_separable", || {
            engine::query_forced(&mut qp, text, Strategy::Separable)
        });
        sep_ns.push(ns);
        sep_peak = sep_peak.max(out?.stats.max_relation_size());
        if i < MAGIC_ON_SOCIAL_QUERIES {
            let (ns, out) = p.tracer.span_ns("rewrite", "social_magic", || {
                engine::query_forced(&mut qp, text, Strategy::MagicSets)
            });
            magic_ns.push(ns);
            magic_peak = magic_peak.max(out?.stats.max_relation_size());
        }
    }
    let ratio = stats::median(&mut magic_ns) as f64 / stats::median(&mut sep_ns).max(1) as f64;
    p.put("rewrite.magic_over_separable_time_ratio", ratio, "ratio");
    p.put(
        "rewrite.magic_over_separable_peak_ratio",
        magic_peak as f64 / sep_peak.max(1) as f64,
        "ratio",
    );
    Ok(())
}
