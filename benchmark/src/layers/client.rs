//! The `client` layer is the harness itself: the generator, the closed
//! loop, and the tracer. Its metrics say how much of a measurement is the
//! benchmark's own doing.

use std::time::Instant;

use super::{engine, server, Fixtures, Probe};
use crate::gen;
use crate::stats;

/// What the replay hands to the engine's probe.
pub struct Replay {
    /// Per-op median of `run_query` minus the strategy call it routes to.
    pub route_self_us: f64,
    /// The largest relation any replayed query constructed.
    pub peak_relation_tuples: usize,
}

/// Replays the workload's own op list in process with the request
/// pipeline taken apart: `server/json_parse`, `ast/parse_query`,
/// `engine/run_query` under one `client/op` span, and beside it the
/// strategy call `run_query` routes to (`client/routed` over `eval`,
/// `core` or `rewrite` spans). For the first third of the time the same
/// three calls run without spans; the ratio of the two medians is
/// `client.trace_overhead_ratio`. Also `client.samples`,
/// `client.op_self_us` (the `client/op` span's self time: what is left of
/// a traced op once its three calls are taken out, the tracer's own cost),
/// `client.op_max_us` (the ungated tail) and
/// `client.generator_us_per_op`: if that nears `op_p50_us`, a run
/// measures the generator.
pub fn probe(fx: &Fixtures, p: &mut Probe, seconds: f64) -> Result<Replay, String> {
    let own = &fx.own;
    let (requests_us, requests) = p.time("client", "generate_requests", 3, || {
        own.ops.iter().map(|&q| gen::query_request(&own.queries[q as usize])).collect::<Vec<_>>()
    });
    p.put("client.generator_us_per_op", requests_us / own.ops.len() as f64, "us");

    let mut pipeline = engine::Pipeline::new(own)?;
    let mut untraced = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds / 3.0 || untraced.len() < 5 {
        let text = &own.queries[own.op(i)];
        let start = Instant::now();
        server::parse_json(requests[i % requests.len()].trim_end())?;
        let query = engine::parse_query(&mut pipeline.qp, text)?;
        std::hint::black_box(engine::run_query(&mut pipeline.qp, &query)?);
        untraced.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        i += 1;
    }

    let (mut traced, mut route_self) = (Vec::new(), Vec::new());
    let mut peak = 0;
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds * 2.0 / 3.0 || traced.len() < 5 {
        let text = &own.queries[own.op(i)];
        let request = requests[i % requests.len()].trim_end();
        p.tracer.next_op();
        let op = p.tracer.enter("client", "op");
        p.tracer.span("server", "json_parse", || server::parse_json(request))?;
        let query =
            p.tracer.span("ast", "parse_query", || engine::parse_query(&mut pipeline.qp, text))?;
        let (run_ns, result) =
            p.tracer.span_ns("engine", "run_query", || engine::run_query(&mut pipeline.qp, &query));
        p.tracer.exit(op);
        let result = result?;
        traced.push(p.tracer.length_ns(op));
        peak = peak.max(result.stats.max_relation_size());

        let routed = p.tracer.enter("client", "routed");
        let direct = pipeline.routed(p.tracer, text);
        p.tracer.exit(routed);
        let (answers, routed_ns) = direct?;
        if answers != result.answers.len() {
            return Err(format!(
                "`{text}`: run_query gave {} answers, the routed call {answers}",
                result.answers.len()
            ));
        }
        route_self.push(run_ns as f64 - routed_ns as f64);
        i += 1;
    }
    p.put("client.samples", traced.len() as f64, "count");
    let mut own_time = p.tracer.self_times("client", "op");
    p.put("client.op_self_us", stats::us(stats::median(&mut own_time)), "us");
    p.put("client.op_max_us", stats::us(traced.iter().max().copied().unwrap_or(0)), "us");
    p.put(
        "client.trace_overhead_ratio",
        stats::median(&mut traced) as f64 / stats::median(&mut untraced).max(1) as f64,
        "ratio",
    );
    Ok(Replay {
        route_self_us: stats::median_f64(&mut route_self) / 1e3,
        peak_relation_tuples: peak,
    })
}
