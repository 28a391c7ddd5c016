//! The four in-process workloads: one processor, one thread, one query
//! at a time through `QueryProcessor::query`.

use std::time::Instant;

use sepra_engine::{QueryProcessor, Strategy};
use sepra_storage::Relation;

use super::System;
use crate::gen::Fixture;
use crate::harness::{self, Measured, RunResult};
use crate::layers::{engine, eval};

/// How often an op's whole answer set, not only its size, is compared
/// with the first answer the same query gave.
pub const FULL_CHECK_EVERY: usize = 64;

/// Which whole-program evaluation a workload's answers are held against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Naive evaluation: shares no round logic with semi-naive.
    Naive,
    /// Semi-naive evaluation, for the one workload where the naive
    /// fixpoint (a million tuples, re-derived every round) takes longer
    /// than the run; the workload itself runs the Separable algorithm, so
    /// the reference is still a different evaluator.
    SemiNaive,
}

pub struct Batch {
    fixture: Fixture,
    oracle: Oracle,
    /// The strategy the processor must route this workload's queries to:
    /// a workload that silently ran on another engine measures nothing
    /// its name promises.
    route: Strategy,
    qp: Option<QueryProcessor>,
    /// The first answer each distinct query gave; every later answer is
    /// held against it, and it against the oracle once the run is over.
    first: Vec<Option<Relation>>,
    cursor: usize,
}

impl Batch {
    pub fn new(fixture: Fixture, route: Strategy, oracle: Oracle) -> Batch {
        let first = vec![None; fixture.queries.len()];
        Batch { fixture, oracle, route, qp: None, first, cursor: 0 }
    }

    /// One op: ask, time, check. Returns the latency and the tuples
    /// derived if the answer is right.
    fn op(&mut self, out: &mut RunResult) -> Result<Option<(u64, u64)>, String> {
        let qp = self.qp.as_mut().ok_or("batch op before set-up")?;
        let q = self.fixture.op(self.cursor);
        let text = &self.fixture.queries[q];
        let start = Instant::now();
        let result = engine::query(qp, text);
        let ns = harness::nanos(start.elapsed());
        out.attempted += 1;
        self.cursor += 1;
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                out.fail(e);
                return Ok(None);
            }
        };
        if result.strategy != self.route {
            out.fail(format!("`{text}` ran on {}, not {}", result.strategy, self.route));
            return Ok(None);
        }
        match &self.first[q] {
            None => self.first[q] = Some(result.answers),
            Some(first) => {
                let same = first.len() == result.answers.len()
                    && (!self.cursor.is_multiple_of(FULL_CHECK_EVERY) || *first == result.answers);
                if !same {
                    out.fail(format!("`{text}` answered differently from its first answer"));
                    return Ok(None);
                }
            }
        }
        Ok(Some((ns, result.stats.tuples_inserted as u64)))
    }
}

impl System for Batch {
    fn setup(&mut self, out: &mut RunResult) -> Result<(), String> {
        self.qp = Some(engine::ready(&self.fixture.source())?);
        self.first.iter_mut().for_each(|f| *f = None);
        self.cursor = 0;
        self.op(out).map(|_| ())
    }

    fn teardown(&mut self) -> Result<(), String> {
        self.qp = None;
        Ok(())
    }

    fn measure(&mut self, seconds: f64, out: &mut RunResult) -> Result<Measured, String> {
        let cycle = self.fixture.ops.len();
        Ok(Measured::single(harness::closed_loop(seconds, cycle, || self.op(out))?, seconds))
    }

    /// Every distinct query's first answer against the oracle's
    /// evaluation of the whole program on the same processor: one
    /// fixpoint, then one filter per query.
    fn verify(&mut self, out: &mut RunResult) -> Result<(), String> {
        let qp = self.qp.as_mut().ok_or("verify before set-up")?;
        let derived = match self.oracle {
            Oracle::Naive => eval::naive(qp.program(), qp.db())?,
            Oracle::SemiNaive => eval::fixpoint(qp.program(), qp.db(), 1)?,
        };
        for (text, first) in self.fixture.queries.iter().zip(&self.first) {
            let Some(first) = first else { continue };
            let query = engine::parse_query(qp, text)?;
            if eval::answers(&query, qp.db(), &derived)? != *first {
                out.fail(format!("`{text}` differs from the oracle"));
            }
        }
        Ok(())
    }
}
