//! The three workloads against one in-process server over loopback TCP:
//! reads alone, reads beside writes on a durable primary, and writes
//! alone on a primary that first recovers its data directory.

use std::path::{Path, PathBuf};

use sepra_wal::FsyncPolicy;

use super::batch::FULL_CHECK_EVERY;
use super::System;
use crate::gen::{self, Fixture};
use crate::harness::{closed_loop, nanos, Measured, RunResult};
use crate::layers::server;
use crate::net::{self, field_u64, Conn, Node, Role};
use crate::oracle::{self, TreeOracle};

/// The durable workloads checkpoint at the server's default cadence.
const CHECKPOINT_EVERY: u64 = 1024;

/// The durable workloads append every commit to the log and never wait
/// for the disk. Under `Always` a quarter to a half of an ack is the
/// flush, and this box's disk is a shared virtual one whose flush time
/// drifts between 250 and 900 µs over minutes: ten runs of the same commit
/// then disagree by more than any bound allows (`op_p95_us` of
/// `serve_writes` spread by 26 %), and no statistic inside a run can take
/// a drift between runs out. The flush is still measured, on its own, as
/// `wal.fsync_us`.
const FSYNC: FsyncPolicy = FsyncPolicy::Never;

/// Records the recovery set-up replays on top of its checkpoint.
const RECOVERY_TAIL: usize = 416;

fn tree_size() -> usize {
    gen::tree_nodes(gen::TREE_ARITY, gen::TREE_DEPTH)
}

/// One reading connection.
struct Reader {
    conn: Conn,
    /// The next entry of the fixture's op list.
    cursor: usize,
    sent: u64,
    reply: String,
    /// Every `FULL_CHECK_EVERY`-th reply, kept whole for the oracle:
    /// (query, reply line).
    kept: Vec<(usize, String)>,
}

impl Reader {
    /// Asks query `q`. `Some((latency, tuples))` when the reply is an
    /// answer (an error reply opens with `{"error"`).
    fn ask(
        &mut self,
        q: usize,
        requests: &[String],
        out: &mut RunResult,
    ) -> Result<Option<(u64, u64)>, String> {
        out.attempted += 1;
        let elapsed = self.conn.request(&requests[q], &mut self.reply)?;
        if !self.reply.starts_with("{\"answers\"") {
            out.fail(format!("{}: {}", requests[q].trim_end(), self.reply.trim_end()));
            return Ok(None);
        }
        if self.sent.is_multiple_of(FULL_CHECK_EVERY as u64) {
            self.kept.push((q, self.reply.clone()));
        }
        self.sent += 1;
        Ok(Some((nanos(elapsed), field_u64(&self.reply, "tuples_inserted").unwrap_or(0))))
    }

    /// The next read of the op list.
    fn op(
        &mut self,
        fixture: &Fixture,
        requests: &[String],
        out: &mut RunResult,
    ) -> Result<Option<(u64, u64)>, String> {
        let q = fixture.op(self.cursor);
        self.cursor += 1;
        self.ask(q, requests, out)
    }
}

/// One writing connection replaying the mutation script.
struct Writer {
    conn: Conn,
    seed: u64,
    /// The next script step.
    step: usize,
    sent: u64,
    /// The generation the last ack carried.
    generation: u64,
    reply: String,
}

impl Writer {
    /// One mutation. `Some((latency, tuples))` when it was acknowledged
    /// as one effective change at the next generation (an error reply
    /// reports no change at all).
    fn op(&mut self, out: &mut RunResult) -> Result<Option<(u64, u64)>, String> {
        let m = gen::mutation(self.seed, tree_size(), self.step);
        self.step += 1;
        self.sent += 1;
        out.attempted += 1;
        let elapsed = self.conn.request(&m.request(), &mut self.reply)?;
        let changed = field_u64(&self.reply, "inserted").unwrap_or(0)
            + field_u64(&self.reply, "retracted").unwrap_or(0);
        let generation = field_u64(&self.reply, "generation").unwrap_or(0);
        if changed != 1 || generation != self.generation + 1 {
            out.fail(format!("mutation `{}`: {}", m.fact(), self.reply.trim_end()));
            return Ok(None);
        }
        self.generation = generation;
        Ok(Some((nanos(elapsed), field_u64(&self.reply, "tuples_inserted").unwrap_or(0))))
    }
}

/// A running server and its clients.
struct Live {
    node: Node,
    reader: Reader,
    /// Absent on `serve_reads`.
    writer: Option<Writer>,
    /// The stamp a reply over no script mutation at all carries.
    first_generation: u64,
}

/// Which of the three workloads a [`Served`] is.
enum Kind {
    Reads,
    /// Set-up is a durable primary's first boot, on a fresh directory
    /// under `run_dir` each time.
    Mixed {
        run_dir: PathBuf,
        setups: usize,
    },
    /// Set-up is a restart on `dir`, which already holds `laid_down`
    /// script steps: one checkpoint and a log tail.
    Writes {
        dir: PathBuf,
        laid_down: usize,
    },
}

pub struct Served {
    seed: u64,
    fixture: Fixture,
    requests: Vec<String>,
    kind: Kind,
    live: Option<Live>,
}

impl Served {
    fn new(seed: u64, fixture: Fixture, kind: Kind) -> Served {
        let requests = fixture.queries.iter().map(|q| gen::query_request(q)).collect();
        Served { seed, fixture, requests, kind, live: None }
    }

    pub fn reads(seed: u64, fixture: Fixture) -> Served {
        Served::new(seed, fixture, Kind::Reads)
    }

    pub fn mixed(seed: u64, fixture: Fixture, run_dir: &Path) -> Served {
        Served::new(seed, fixture, Kind::Mixed { run_dir: run_dir.to_path_buf(), setups: 0 })
    }

    /// Lays down the directory the server recovers: one checkpoint
    /// (written when the log reached the cadence) and `RECOVERY_TAIL`
    /// records after it.
    pub fn writes(seed: u64, fixture: Fixture, run_dir: &Path) -> Result<Served, String> {
        let dir = net::fresh_dir(run_dir, "writes")?;
        let laid_down = CHECKPOINT_EVERY as usize + RECOVERY_TAIL;
        server::lay_down(&fixture, &dir, CHECKPOINT_EVERY, seed, tree_size(), laid_down)?;
        Ok(Served::new(seed, fixture, Kind::Writes { dir, laid_down }))
    }
}

impl System for Served {
    /// Starts the server — on no directory, on an empty one, or on one to
    /// recover — and asks it the root query, whose answer shows every
    /// leaf a recovered log put there. `serve_mixed` also sends its first
    /// write.
    fn setup(&mut self, out: &mut RunResult) -> Result<(), String> {
        let durable =
            |dir: PathBuf| Role::Durable { dir, fsync: FSYNC, checkpoint_every: CHECKPOINT_EVERY };
        let (role, laid_down) = match &mut self.kind {
            Kind::Reads => (Role::Ephemeral, 0),
            Kind::Mixed { run_dir, setups } => {
                *setups += 1;
                (durable(net::fresh_dir(run_dir, &format!("mixed-{setups}"))?), 0)
            }
            Kind::Writes { dir, laid_down } => (durable(dir.clone()), *laid_down),
        };
        let node = Node::start(&self.fixture.source(), &role)?;
        let mut reader = Reader {
            conn: Conn::open(&node.addr)?,
            cursor: 0,
            sent: 0,
            reply: String::new(),
            kept: Vec::new(),
        };
        reader.ask(0, &self.requests, out)?;
        let generation = field_u64(&reader.reply, "generation").unwrap_or(0);
        let mut writer = match self.kind {
            Kind::Reads => None,
            Kind::Mixed { .. } | Kind::Writes { .. } => Some(Writer {
                conn: Conn::open(&node.addr)?,
                seed: self.seed,
                step: laid_down,
                sent: 0,
                generation,
                reply: String::new(),
            }),
        };
        if let (Kind::Mixed { .. }, Some(writer)) = (&self.kind, &mut writer) {
            writer.op(out)?;
        }
        // Every script step moves the generation by one.
        let first_generation = generation.saturating_sub(laid_down as u64);
        self.live = Some(Live { node, reader, writer, first_generation });
        Ok(())
    }

    /// Closes the connections first: a worker parked on an open one only
    /// looks at the shutdown flag between read polls.
    fn teardown(&mut self) -> Result<(), String> {
        match self.live.take() {
            Some(Live { node, reader, writer, .. }) => {
                drop((reader, writer));
                node.stop()
            }
            None => Ok(()),
        }
    }

    /// `serve_reads` times the reader, `serve_writes` the writer. On
    /// `serve_mixed` connection A writes and connection B reads, each in
    /// its own closed loop, for the same window; the op is B's read, and
    /// A's acknowledged writes count into `ops_per_s`.
    fn measure(&mut self, seconds: f64, out: &mut RunResult) -> Result<Measured, String> {
        let Live { reader, writer, .. } = self.live.as_mut().ok_or("measure before set-up")?;
        let (fixture, requests) = (&self.fixture, &self.requests);
        let cycle = fixture.ops.len();
        match (&self.kind, writer) {
            (Kind::Writes { .. }, Some(writer)) => {
                Ok(Measured::single(closed_loop(seconds, 1, || writer.op(out))?, seconds))
            }
            (Kind::Mixed { .. }, Some(writer)) => {
                let (reads, writes) = std::thread::scope(|scope| {
                    let writing = scope.spawn(move || {
                        let mut side = RunResult::default();
                        let written = closed_loop(seconds, 1, || writer.op(&mut side));
                        (written, side)
                    });
                    let reads = closed_loop(seconds, cycle, || reader.op(fixture, requests, out));
                    (reads, writing.join())
                });
                let (written, side) = writes.map_err(|_| "writer thread panicked".to_string())?;
                out.absorb(side);
                Ok(Measured { timed: vec![reads?], beside: vec![written?], seconds })
            }
            _ => {
                let lane = closed_loop(seconds, cycle, || reader.op(fixture, requests, out))?;
                Ok(Measured::single(lane, seconds))
            }
        }
    }

    /// Every kept reply against the oracle at the generation the reply is
    /// stamped with; the server's own counters against the client's; and
    /// the whole `t` relation against a from-scratch evaluation of the
    /// base facts plus the leaves present after the last write.
    fn verify(&mut self, out: &mut RunResult) -> Result<(), String> {
        let Live { reader, writer, first_generation, .. } =
            self.live.as_mut().ok_or("verify before set-up")?;
        let mut oracle = TreeOracle::new(self.seed, gen::TREE_ARITY, gen::TREE_DEPTH);
        for (q, line) in reader.kept.drain(..) {
            let generation = field_u64(&line, "generation").ok_or("reply without generation")?;
            let step =
                generation.checked_sub(*first_generation).ok_or("generation went backwards")?;
            oracle.advance_to(step as usize)?;
            match server::reply_rows(&line) {
                Ok(rows) if rows == oracle.rows(q) => {}
                Ok(rows) => out.fail(format!(
                    "t(n{q}, Y)? at generation {generation}: {} rows, oracle has {}",
                    rows.len(),
                    oracle.rows(q).len()
                )),
                Err(e) => out.fail(e),
            }
        }

        let (steps, writes) = writer.as_ref().map_or((0, 0), |w| (w.step, w.sent));
        reader.conn.request("{\"stats\": true}\n", &mut reader.reply)?;
        let stats = server::parse_json(reader.reply.trim_end())?;
        let counter = |group: &str, key: &str| {
            stats.get(group).and_then(|g| g.get(key)).and_then(|v| v.as_u64())
        };
        for (group, expected) in [("queries", reader.sent), ("mutations", writes)] {
            if counter(group, "ok") != Some(expected) || counter(group, "errors") != Some(0) {
                out.fail(format!(
                    "server counted {:?} ok / {:?} failed {group}, client sent {expected}",
                    counter(group, "ok"),
                    counter(group, "errors")
                ));
            }
        }

        oracle.advance_to(steps)?;
        out.attempted += 1;
        reader.conn.request(&gen::query_request("t(X, Y)?"), &mut reader.reply)?;
        if server::reply_rows(&reader.reply)?
            != oracle::from_scratch(&self.fixture, &oracle.leaf_facts(), "t(X, Y)?")?
        {
            out.fail(format!("the served t relation after {steps} mutations differs from scratch"));
        }
        Ok(())
    }
}
