//! `sepra-repl`: the sync feeder and client, seen through a replica
//! catching up; and the replica's apply step on its own.

use std::path::{Path, PathBuf};
use std::time::Instant;

use super::{engine, server, wal, Fixtures, Probe};
use crate::gen::{self, Fixture};
use crate::net::{self, Conn, Node, Role};
use crate::stats;
use sepra_wal::FsyncPolicy;

/// A data directory whose log holds a backlog no replica has read yet,
/// and what it takes to serve and follow it.
pub struct Backlog {
    dir: PathBuf,
    /// The generation a caught-up replica must reach.
    pub generation: u64,
    source: String,
    /// The root query at the backlog's generation.
    request: String,
}

impl Backlog {
    /// Lays down `records` script commits over `fixture` with checkpoints
    /// off, so that the log alone carries them (as in E15).
    pub fn lay_down(
        fixture: &Fixture,
        run_dir: &Path,
        name: &str,
        seed: u64,
        nodes: usize,
        records: usize,
    ) -> Result<Backlog, String> {
        let dir = net::fresh_dir(run_dir, name)?;
        let generation = server::lay_down(fixture, &dir, 0, seed, nodes, records)?;
        let request = format!(
            "{{\"query\": \"{}\", \"min_generation\": {generation}, \"timeout_ms\": 60000}}\n",
            fixture.queries[0]
        );
        Ok(Backlog { dir, generation, source: fixture.source(), request })
    }

    /// Starts the primary from the directory: recovery replays the log.
    pub fn start_primary(&self) -> Result<Node, String> {
        let role =
            Role::Durable { dir: self.dir.clone(), fsync: FsyncPolicy::Never, checkpoint_every: 0 };
        Node::start(&self.source, &role)
    }

    /// One catch-up: start a fresh replica of `primary`, ask it the root
    /// query at the backlog's generation, and time until the reply. The
    /// replica is handed back still running; the caller stops it.
    pub fn catch_up(&self, primary: &Node, reply: &mut String) -> Result<(u64, Node), String> {
        let start = Instant::now();
        let replica = Node::start(&self.source, &Role::Replica { primary: primary.addr.clone() })?;
        let asked =
            Conn::open(&replica.addr).and_then(|mut conn| conn.request(&self.request, reply));
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match asked {
            Ok(_) => Ok((ns, replica)),
            Err(e) => {
                replica.signal_stop();
                Err(e)
            }
        }
    }
}

const APPLY_RECORDS: usize = 256;
const CATCHUP_REPS: usize = 3;

/// Pinned to the small tree. `repl.apply_us_per_record`: the backlog's
/// deltas through `apply_delta_mutation` in process, no network.
/// `repl.catchup_256_ms`, `repl.catchup_1024_ms`: a fresh replica against
/// a backlog of that many records, median of three.
/// `repl.catchup_scaling_exponent`: log₂ of their ratio ÷ 2 (1.0 is
/// linear; read it beside `available_parallelism`).
/// `repl.stream_residual_ms`: the 1024 catch-up minus 1024 × apply — what
/// streaming, framing, start-up and the primary's 25 ms accept poll add.
pub fn probe(fx: &Fixtures, p: &mut Probe) -> Result<(), String> {
    let fixture = &fx.small_tree;
    let nodes = gen::tree_nodes(gen::TREE_ARITY, gen::SMALL_TREE_DEPTH);
    let payloads = wal::script_payloads(&fixture.source(), fx.seed, nodes, APPLY_RECORDS)?;
    let mut follower = engine::ready(&fixture.source())?;
    let mut apply = Vec::new();
    for (generation, payload) in &payloads {
        let delta = wal::decode_delta(payload, follower.interner_mut())?;
        p.tracer.next_op();
        let (ns, out) = p
            .tracer
            .span_ns("repl", "apply_record", || engine::apply_delta_mutation(&mut follower, delta));
        out?;
        follower.adopt_db_generation(*generation);
        apply.push(ns);
    }
    let apply_us = stats::us(stats::median(&mut apply));
    p.put("repl.apply_us_per_record", apply_us, "us");

    let mut reply = String::new();
    let mut lingering = Vec::new();
    let mut catch_up_ms = |p: &mut Probe,
                           name: &'static str,
                           records: usize|
     -> Result<f64, String> {
        let backlog = Backlog::lay_down(fixture, &fx.run_dir, name, fx.seed, nodes, records)?;
        let primary = backlog.start_primary()?;
        let mut ns = Vec::new();
        for _ in 0..CATCHUP_REPS {
            p.tracer.next_op();
            let id = p.tracer.enter("repl", name);
            let caught = backlog.catch_up(&primary, &mut reply);
            p.tracer.exit(id);
            let (elapsed, replica) = caught?;
            replica.signal_stop();
            lingering.push(replica);
            if net::field_u64(&reply, "generation") < Some(backlog.generation) {
                return Err(format!("replica answered below generation {}", backlog.generation));
            }
            ns.push(elapsed);
        }
        lingering.push(primary);
        Ok(stats::median(&mut ns) as f64 / 1e6)
    };
    let small = catch_up_ms(p, "catchup_256", 256)?;
    let large = catch_up_ms(p, "catchup_1024", 1024)?;
    for node in lingering {
        node.stop()?;
    }
    p.put("repl.catchup_256_ms", small, "ms");
    p.put("repl.catchup_1024_ms", large, "ms");
    p.put("repl.catchup_scaling_exponent", (large / small).log2() / 2.0, "ratio");
    p.put("repl.stream_residual_ms", large - 1024.0 * apply_us / 1e3, "ms");
    Ok(())
}
