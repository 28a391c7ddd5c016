//! The one front door: what every front end does with a request.
//!
//! A [`Session`] is a [`QueryProcessor`] plus the [`Limits`] its requests
//! run under. Each request gets a fresh [`Budget`] from those limits and
//! its own overrides, armed on the processor just before it evaluates, so
//! a deadline is per request, never per session. A server worker's
//! snapshot is a session (and the master one, which `commit` drives); the
//! REPL and the one-shot CLI hold one in process. Explain, plan, why,
//! lint, the program listing, save and load are local-only: methods here,
//! not protocol requests, because the wire refuses them.

use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use sepra_core::exec::ExecOptions;
use sepra_engine::{MutationOutcome, ProcessorError, QueryProcessor, QueryResult, StrategyChoice};
use sepra_eval::Budget;
use sepra_wal::WalError;

use crate::durability::{as_inserts, read_snapshot, write_snapshot};
use crate::respond;

/// What a session's requests run under unless they say otherwise.
#[derive(Debug, Clone)]
pub struct Limits {
    /// The deadline of a request that names none.
    pub timeout: Option<Duration>,
    /// The derived-tuple cap of a request that names none.
    pub max_tuples: Option<usize>,
    /// Raised to cancel every request in flight (a server's shutdown).
    pub cancel: Option<Arc<AtomicBool>>,
}

/// A processor and the limits its requests run under.
#[derive(Debug, Clone)]
pub struct Session {
    qp: QueryProcessor,
    limits: Limits,
}

impl Session {
    /// A session over `qp`.
    pub fn new(qp: QueryProcessor, limits: Limits) -> Session {
        Session { qp, limits }
    }

    /// The processor, for what reads its state.
    pub fn processor(&self) -> &QueryProcessor {
        &self.qp
    }

    /// The processor, for what changes it outside a request: loading
    /// clauses, recovery and replication.
    pub fn processor_mut(&mut self) -> &mut QueryProcessor {
        &mut self.qp
    }

    /// Turns a strategy name into a choice; no name is automatic selection.
    pub fn choice(name: Option<&str>) -> Result<StrategyChoice, String> {
        name.map_or(Ok(StrategyChoice::Auto), |name| name.parse().map(StrategyChoice::Force))
    }

    /// A request's budget: its overrides over the session's limits, and
    /// the cancellation flag. The deadline starts now, so build it when the
    /// request arrives: whatever the request then waits for counts too.
    pub fn budget(&self, timeout_ms: Option<u64>, max_tuples: Option<u64>) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(cancel) = &self.limits.cancel {
            budget = budget.cancellable(Arc::clone(cancel));
        }
        if let Some(timeout) = timeout_ms.map(Duration::from_millis).or(self.limits.timeout) {
            budget = budget.timeout(timeout);
        }
        if let Some(n) = max_tuples.map(|n| n as usize).or(self.limits.max_tuples) {
            budget = budget.tuples(n);
        }
        budget
    }

    /// The processor, armed with `budget` for the evaluation that follows.
    fn arm(&mut self, budget: Budget) -> &mut QueryProcessor {
        self.qp.set_exec_options(ExecOptions { budget, ..ExecOptions::default() });
        &mut self.qp
    }

    /// Answers the query `src` under `budget`.
    pub fn query(
        &mut self,
        src: &str,
        choice: StrategyChoice,
        budget: Budget,
    ) -> Result<QueryResult, ProcessorError> {
        self.arm(budget).query_with(src, choice)
    }

    /// Applies a mutation (see [`QueryProcessor::apply_mutation`]) under `budget`.
    pub fn mutate(
        &mut self,
        inserts: &[&str],
        retracts: &[&str],
        budget: Budget,
    ) -> Result<MutationOutcome, ProcessorError> {
        self.arm(budget).apply_mutation(inserts, retracts)
    }

    /// Answers `src` with one derivation per answer.
    pub fn why(&mut self, src: &str) -> Result<String, ProcessorError> {
        let budget = self.budget(None, None);
        self.arm(budget).why(src)
    }

    /// The evaluation plan of `src` as text, without running it.
    pub fn explain(&mut self, src: &str) -> Result<String, ProcessorError> {
        self.qp.explain(src)
    }

    /// The evaluation plan of `src` as one line of JSON.
    pub fn plan(&mut self, src: &str) -> Result<String, ProcessorError> {
        Ok(respond::plan(&self.qp.plan_report(src)?))
    }

    /// The diagnostic report, optionally relative to a query.
    pub fn lint(&self, query: Option<&str>) -> String {
        if self.qp.source().trim().is_empty() {
            return "no rules loaded\n".to_string();
        }
        self.qp.lint("<repl>", query).render_text()
    }

    /// The diagnostic report over the loaded program.
    pub fn check(&self) -> String {
        self.qp.check_report()
    }

    /// The loaded rules, one per line.
    pub fn program(&self) -> String {
        sepra_ast::pretty::program_to_string(self.qp.program(), self.qp.db().interner())
    }

    /// Writes the fact database to a snapshot file.
    pub fn save(&self, path: &Path) -> Result<(), WalError> {
        write_snapshot(self.qp.db(), path)
    }

    /// Merges a snapshot file's facts into the session as one insert-only
    /// mutation, through incremental maintenance.
    pub fn load(&mut self, path: &Path) -> Result<MutationOutcome, String> {
        let snapshot = read_snapshot(path).map_err(|e| e.to_string())?;
        let delta = as_inserts(&snapshot, self.qp.interner_mut());
        let budget = self.budget(None, None);
        self.arm(budget).apply_delta_mutation(delta).map_err(|e| e.to_string())
    }
}
