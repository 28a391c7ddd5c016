//! `sepra-server`: the lint gate, recovery, and the serve loop; plus the
//! wire's JSON layer it re-exports.

use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use sepra_engine::QueryProcessor;
use sepra_server::json::{self, Json};
use sepra_server::{Durability, DurabilityOptions, ServeOptions};
use sepra_wal::FsyncPolicy;

use super::{engine, Fixtures, Probe};
use crate::gen::{self, Fixture};
use crate::net::{self, Conn, Node, Role, SERVER_THREADS};
use crate::stats;

pub fn lint_gate(qp: &QueryProcessor) -> Result<(), String> {
    sepra_server::lint_gate(qp, false).map_err(|e| e.to_string())
}

pub fn options(role: &Role) -> ServeOptions {
    ServeOptions {
        threads: SERVER_THREADS,
        durability: role.durability(),
        replica_of: match role {
            Role::Replica { primary } => Some(primary.clone()),
            Role::Ephemeral | Role::Durable { .. } => None,
        },
        ..ServeOptions::default()
    }
}

/// Opens the data directory and brings `qp` to its newest durable state.
pub fn recover(qp: &mut QueryProcessor, opts: &DurabilityOptions) -> Result<Durability, String> {
    Durability::recover(qp, opts).map_err(|e| format!("recover {}: {e}", opts.data_dir.display()))
}

/// The accept loop and worker pool; returns once `shutdown` is raised and
/// every worker has drained.
pub fn run(
    listener: TcpListener,
    qp: QueryProcessor,
    opts: &ServeOptions,
    shutdown: Arc<AtomicBool>,
    durability: Option<Durability>,
) -> Result<(), String> {
    sepra_server::server::run(listener, qp, opts, shutdown, durability).map_err(|e| e.to_string())
}

pub fn parse_json(line: &str) -> Result<Json, String> {
    json::parse(line)
}

/// The rows of a query reply as sorted string tuples, or the error a
/// reply carries.
pub fn reply_rows(line: &str) -> Result<Vec<Vec<String>>, String> {
    let reply = parse_json(line.trim_end())?;
    if let Some(error) = reply.get("error") {
        return Err(format!("error reply: {}", json::render(error)));
    }
    let Some(Json::Arr(rows)) = reply.get("answers") else {
        return Err("reply has no answers".into());
    };
    let mut out: Vec<Vec<String>> = rows
        .iter()
        .map(|row| match row {
            Json::Arr(values) => {
                values.iter().map(|v| v.as_str().unwrap_or_default().to_string()).collect()
            }
            _ => Vec::new(),
        })
        .collect();
    out.sort_unstable();
    Ok(out)
}

/// Commits mutations `from..to` of the write script the way the server's
/// mutation handler does — apply, then log — against a processor and its
/// durability pipeline that are not serving. This is how the benchmark
/// lays down the data directories that the recovery set-up and the
/// replication backlog start from.
pub fn commit_script(
    qp: &mut QueryProcessor,
    durability: &mut Durability,
    seed: u64,
    nodes: usize,
    steps: std::ops::Range<usize>,
) -> Result<(), String> {
    for k in steps {
        let out = engine::apply_mutation(qp, &gen::mutation(seed, nodes, k))?;
        durability
            .record_commit(qp.db(), &out.delta)
            .map_err(|e| format!("log commit {k}: {e}"))?;
    }
    Ok(())
}

/// Lays down a data directory holding `steps` committed script mutations
/// on top of `fixture`, and returns the database generation it ends at.
pub fn lay_down(
    fixture: &Fixture,
    dir: &Path,
    checkpoint_every: u64,
    seed: u64,
    nodes: usize,
    steps: usize,
) -> Result<u64, String> {
    let mut qp = engine::load(&fixture.source())?;
    // What reaches the directory is the same under every fsync policy;
    // `never` lays it down fastest, and one sync at the end makes it so.
    let role =
        Role::Durable { dir: dir.to_path_buf(), fsync: FsyncPolicy::Never, checkpoint_every };
    let mut durability = recover(&mut qp, &role.durability().expect("durable role"))?;
    engine::prepare(&mut qp)?;
    commit_script(&mut qp, &mut durability, seed, nodes, 0..steps)?;
    durability.sync().map_err(|e| format!("sync: {e}"))?;
    Ok(qp.db().generation())
}

/// How many requests each wire probe sends.
const WIRE_OPS: usize = 2000;
const ROW_SLOPE_OPS: usize = 100;
const MUTATION_OPS: usize = 300;

/// `server.json_parse_us` on the workload's own request lines (from the
/// replay). Pinned to the served tree, over real loopback TCP against an
/// in-process server: `server.residual_us` (wire p50 minus the same
/// requests' json parse + query parse + `run_query` replayed in process:
/// render, socket, queueing, metrics), `server.residual_ns_per_row` (the
/// slope of that residual between the 4-row and the 1364-row query),
/// `server.response_bytes_per_op`, `server.connect_first_reply_us`,
/// `server.stats_request_us`, and on a durable primary (fsync `always`)
/// `server.mutation_residual_us` (ack p50 minus apply + log replayed in
/// process) with `client.mutation_max_us`, the worst ack, which a
/// checkpoint stall sets.
pub fn probe(fx: &Fixtures, p: &mut Probe) -> Result<(), String> {
    let mut json_parse = p.tracer.durations("server", "json_parse");
    p.put("server.json_parse_us", stats::us(stats::median(&mut json_parse)), "us");

    let tree = &fx.tree;
    let source = tree.source();
    let requests: Vec<String> = tree.queries.iter().map(|q| gen::query_request(q)).collect();
    let node = Node::start(&source, &Role::Ephemeral)?;
    let mut local = engine::ready(&source)?;
    let mut reply = String::new();

    // One in-process replay of a request: what the server's worker does
    // between reading the line and rendering the reply.
    let mut in_process = |p: &mut Probe, q: usize| -> Result<u64, String> {
        let (ns, out) = p.tracer.span_ns("server", "in_process_op", || {
            parse_json(requests[q].trim_end())?;
            let query = engine::parse_query(&mut local, &tree.queries[q])?;
            engine::run_query(&mut local, &query).map(|r| r.answers.len())
        });
        out.map(|_| ns)
    };

    let mut first_reply = Vec::new();
    for _ in 0..20 {
        p.tracer.next_op();
        let (ns, out) = p.tracer.span_ns("server", "connect_first_reply", || {
            Conn::open(&node.addr)?.request(&requests[0], &mut reply)
        });
        out?;
        first_reply.push(ns);
    }
    p.put("server.connect_first_reply_us", stats::us(stats::median(&mut first_reply)), "us");

    let mut conn = Conn::open(&node.addr)?;
    let (mut wire, mut inproc, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for i in 0..WIRE_OPS {
        let q = tree.op(i);
        p.tracer.next_op();
        let (ns, out) =
            p.tracer.span_ns("server", "wire_op", || conn.request(&requests[q], &mut reply));
        out?;
        wire.push(ns);
        bytes += reply.len();
        inproc.push(in_process(p, q)?);
    }
    let residual = stats::median(&mut wire).saturating_sub(stats::median(&mut inproc));
    p.put("server.residual_us", stats::us(residual), "us");
    p.put("server.response_bytes_per_op", bytes as f64 / WIRE_OPS as f64, "bytes");

    // The root has every other node below it; the last internal node has
    // its four leaves.
    let small = tree.queries.len() - 1;
    let mut residual_at = |p: &mut Probe, q: usize| -> Result<(f64, u64), String> {
        let (mut wire, mut inproc) = (Vec::new(), Vec::new());
        for _ in 0..ROW_SLOPE_OPS {
            p.tracer.next_op();
            let (ns, out) = p
                .tracer
                .span_ns("server", "wire_op_rows", || conn.request(&requests[q], &mut reply));
            out?;
            wire.push(ns);
            inproc.push(in_process(p, q)?);
        }
        let rows = net::field_u64(&reply, "count").ok_or("reply has no count")?;
        Ok((stats::median(&mut wire) as f64 - stats::median(&mut inproc) as f64, rows))
    };
    let (big_ns, big_rows) = residual_at(p, 0)?;
    let (small_ns, small_rows) = residual_at(p, small)?;
    p.put(
        "server.residual_ns_per_row",
        (big_ns - small_ns) / (big_rows - small_rows).max(1) as f64,
        "ns",
    );

    let (stats_us, out) =
        p.time("server", "stats_request", 50, || conn.request("{\"stats\": true}\n", &mut reply));
    out?;
    p.put("server.stats_request_us", stats_us, "us");
    drop(conn);
    node.stop()?;

    // Mutations: over the wire against a durable primary, then the same
    // script applied and logged in process under the same policy.
    let nodes = gen::tree_nodes(gen::TREE_ARITY, gen::TREE_DEPTH);
    let durable = |name: &str| -> Result<Role, String> {
        Ok(Role::Durable {
            dir: net::fresh_dir(&fx.run_dir, name)?,
            fsync: FsyncPolicy::Always,
            checkpoint_every: 128,
        })
    };
    let node = Node::start(&source, &durable("probe-mutations-wire")?)?;
    let mut conn = Conn::open(&node.addr)?;
    let mut acks = Vec::new();
    for k in 0..MUTATION_OPS {
        let request = gen::mutation(fx.seed, nodes, k).request();
        p.tracer.next_op();
        let (ns, out) =
            p.tracer.span_ns("server", "wire_mutation", || conn.request(&request, &mut reply));
        out?;
        if reply.contains("\"error\"") {
            return Err(format!("mutation {k} refused: {}", reply.trim_end()));
        }
        acks.push(ns);
    }
    drop(conn);
    node.stop()?;
    p.put("client.mutation_max_us", stats::us(acks.iter().max().copied().unwrap_or(0)), "us");

    let role = durable("probe-mutations-local")?;
    let mut qp = engine::load(&source)?;
    let mut durability = recover(&mut qp, &role.durability().expect("durable role"))?;
    engine::prepare(&mut qp)?;
    let mut commits = Vec::new();
    for k in 0..MUTATION_OPS {
        p.tracer.next_op();
        let (ns, out) = p.tracer.span_ns("server", "in_process_commit", || {
            commit_script(&mut qp, &mut durability, fx.seed, nodes, k..k + 1)
        });
        out?;
        commits.push(ns);
    }
    let residual = stats::median(&mut acks).saturating_sub(stats::median(&mut commits));
    p.put("server.mutation_residual_us", stats::us(residual), "us");
    Ok(())
}
