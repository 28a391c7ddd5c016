//! Replica catch-up: the op is a fresh replica reading a primary's whole
//! log backlog and then answering one query at the primary's generation.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use super::System;
use crate::gen::{self, Fixture};
use crate::harness::{closed_loop, Lane, Measured, RunResult};
use crate::layers::repl::Backlog;
use crate::layers::server;
use crate::net::{field_u64, Conn, Node};
use crate::oracle::{self, TreeOracle};

/// Log records a replica has to read and apply per op. A catch-up waits
/// for two 25 ms accept polls (the primary's for the replica, the
/// replica's for the client); up to about 300 records the op takes
/// exactly those 50 ms whatever the work under them, and at 320 to 352
/// its median flips between 50 and 75 ms from run to run. At 384
/// streaming and applying are a third of the op (about 73 ms), so the op
/// moves with what this workload gates, and a run still times some 270.
pub const BACKLOG_RECORDS: usize = 384;

/// Two clients catch replicas up side by side, each in its own closed
/// loop: one alone would not complete the 200 ops a 95th percentile
/// needs within a run.
const CLIENTS: usize = 2;

/// A replica's applier only sees the shutdown flag at its next stream
/// frame, and the primary pings once a second: a signalled replica is
/// gone within this long, and joining it earlier would stall the loop.
const REPLICA_LINGER: Duration = Duration::from_millis(1200);

/// What the root query must return once the backlog is applied.
struct Expected {
    generation: u64,
    rows: Vec<Vec<String>>,
}

impl Expected {
    /// Whether `reply` is the root query's answer at or past the
    /// backlog's generation.
    fn check(&self, reply: &str, out: &mut RunResult) -> bool {
        let generation = field_u64(reply, "generation");
        match server::reply_rows(reply) {
            Ok(rows) if generation >= Some(self.generation) && rows == self.rows => true,
            Ok(rows) => {
                out.fail(format!(
                    "root query: {} rows at generation {generation:?}, expected {} at {}",
                    rows.len(),
                    self.rows.len(),
                    self.generation
                ));
                false
            }
            Err(e) => {
                out.fail(e);
                false
            }
        }
    }
}

/// One client: its reply buffer and the replicas it has told to stop,
/// oldest first, with when it told them.
#[derive(Default)]
struct Client {
    reply: String,
    stopping: VecDeque<(Instant, Node)>,
}

impl Client {
    /// One catch-up, checked. The replica it started is told to stop and
    /// joined later.
    fn op(
        &mut self,
        backlog: &Backlog,
        primary: &Node,
        expected: &Expected,
        out: &mut RunResult,
    ) -> Result<Option<(u64, u64)>, String> {
        out.attempted += 1;
        let (ns, replica) = backlog.catch_up(primary, &mut self.reply)?;
        replica.signal_stop();
        self.stopping.push_back((Instant::now(), replica));
        let right = expected.check(&self.reply, out);
        self.reap(false)?;
        Ok(right.then(|| (ns, field_u64(&self.reply, "tuples_inserted").unwrap_or(0))))
    }

    fn reap(&mut self, all: bool) -> Result<(), String> {
        while self.stopping.front().is_some_and(|(told, _)| all || told.elapsed() >= REPLICA_LINGER)
        {
            let (_, node) = self.stopping.pop_front().expect("front exists");
            node.stop()?;
        }
        Ok(())
    }
}

pub struct ReplicaCatchup {
    fixture: Fixture,
    backlog: Backlog,
    expected: Expected,
    leaf_facts: String,
    primary: Option<Node>,
    clients: [Client; CLIENTS],
}

impl ReplicaCatchup {
    pub fn new(seed: u64, fixture: Fixture, run_dir: &Path) -> Result<ReplicaCatchup, String> {
        let nodes = gen::tree_nodes(gen::TREE_ARITY, gen::SMALL_TREE_DEPTH);
        let backlog =
            Backlog::lay_down(&fixture, run_dir, "backlog", seed, nodes, BACKLOG_RECORDS)?;
        let mut oracle = TreeOracle::new(seed, gen::TREE_ARITY, gen::SMALL_TREE_DEPTH);
        oracle.advance_to(BACKLOG_RECORDS)?;
        Ok(ReplicaCatchup {
            fixture,
            expected: Expected { generation: backlog.generation, rows: oracle.rows(0) },
            backlog,
            leaf_facts: oracle.leaf_facts(),
            primary: None,
            clients: Default::default(),
        })
    }
}

impl System for ReplicaCatchup {
    /// The primary restarts on the backlog's directory (recovery replays
    /// the whole log, there being no checkpoint past generation zero) and
    /// answers the root query itself.
    fn setup(&mut self, out: &mut RunResult) -> Result<(), String> {
        let primary = self.backlog.start_primary()?;
        out.attempted += 1;
        let reply = &mut self.clients[0].reply;
        Conn::open(&primary.addr)?.request(&gen::query_request(&self.fixture.queries[0]), reply)?;
        self.expected.check(reply, out);
        self.primary = Some(primary);
        Ok(())
    }

    fn teardown(&mut self) -> Result<(), String> {
        for client in &mut self.clients {
            client.reap(true)?;
        }
        self.primary.take().map_or(Ok(()), Node::stop)
    }

    fn measure(&mut self, seconds: f64, out: &mut RunResult) -> Result<Measured, String> {
        let primary = self.primary.as_ref().ok_or("measure before set-up")?;
        let (backlog, expected) = (&self.backlog, &self.expected);
        let sides: Vec<(Result<Lane, String>, RunResult)> = std::thread::scope(|scope| {
            let loops: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    scope.spawn(move || {
                        let mut side = RunResult::default();
                        let m = closed_loop(seconds, 1, || {
                            client.op(backlog, primary, expected, &mut side)
                        });
                        (m, side)
                    })
                })
                .collect();
            loops.into_iter().map(|l| l.join().expect("client thread panicked")).collect()
        });
        let mut all = Measured { seconds, ..Measured::default() };
        for (lane, side) in sides {
            all.timed.push(lane?);
            out.absorb(side);
        }
        Ok(all)
    }

    /// One more catch-up, asked for the whole `t` relation, against a
    /// from-scratch evaluation.
    fn verify(&mut self, out: &mut RunResult) -> Result<(), String> {
        let primary = self.primary.as_ref().ok_or("verify before set-up")?;
        let client = &mut self.clients[0];
        let (_, replica) = self.backlog.catch_up(primary, &mut client.reply)?;
        out.attempted += 1;
        let asked = Conn::open(&replica.addr)
            .and_then(|mut conn| conn.request(&gen::query_request("t(X, Y)?"), &mut client.reply));
        replica.signal_stop();
        client.stopping.push_back((Instant::now(), replica));
        asked?;
        if server::reply_rows(&client.reply)?
            != oracle::from_scratch(&self.fixture, &self.leaf_facts, "t(X, Y)?")?
        {
            out.fail("a caught-up replica's t relation differs from scratch");
        }
        Ok(())
    }
}
