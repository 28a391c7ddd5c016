//! Processor state: loading, preparation, accessors and the query entry
//! points. Routing and execution live in `route.rs`, plan rendering in
//! `explain.rs`, live mutations in `mutate.rs`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use sepra_ast::{parse_program, parse_query, AstError, DependencyGraph, Program, Query, Sym};
use sepra_core::cache::PlanCache;
use sepra_core::exec::{ExecOptions, ExtraRelations};
use sepra_eval::{seminaive_with_options, EvalError, EvalOptions};
use sepra_storage::{Database, EvalStats, FxHashMap, Relation};

pub use crate::explain::{PlanConj, PlanReport, PlanScan};
pub use crate::mutate::MutationOutcome;
use crate::route::Recursion;
pub use crate::route::{Strategy, StrategyChoice};

/// The result of running one query.
#[derive(Debug)]
pub struct QueryResult {
    /// Answers as full tuples of the query predicate, in sorted tuple
    /// order — deterministic across strategies and thread counts.
    pub answers: Relation,
    /// Which strategy actually ran.
    pub strategy: Strategy,
    /// The paper's relation-size statistics for the run.
    pub stats: EvalStats,
    /// Wall-clock evaluation time (excludes parsing).
    pub elapsed: Duration,
}

/// Errors from the processor.
#[derive(Debug)]
pub enum ProcessorError {
    /// Program or query text failed to parse/validate.
    Ast(AstError),
    /// Evaluation failed.
    Eval(EvalError),
    /// Facts failed to load.
    Facts(String),
    /// A forced strategy does not apply to this query.
    StrategyUnavailable(String),
}

impl std::fmt::Display for ProcessorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessorError::Ast(e) => write!(f, "{e}"),
            ProcessorError::Eval(e) => write!(f, "{e}"),
            ProcessorError::Facts(e) => write!(f, "{e}"),
            ProcessorError::StrategyUnavailable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ProcessorError {}

impl From<AstError> for ProcessorError {
    fn from(e: AstError) -> Self {
        ProcessorError::Ast(e)
    }
}

impl From<EvalError> for ProcessorError {
    fn from(e: EvalError) -> Self {
        ProcessorError::Eval(e)
    }
}

/// Everything [`QueryProcessor::prepare`] computes up front: per recursive
/// predicate its detection outcome, and one support for all the separable
/// ones (the lower strata they read). Shared read-only across processor
/// clones, so a query server pays for detection and support evaluation
/// once, not per worker.
#[derive(Debug, Clone)]
pub(crate) struct Prepared {
    pub(crate) recursions: FxHashMap<Sym, Recursion>,
    /// The rules of every predicate in the cone below the separable
    /// predicates' rule bodies; live mutations maintain `support` by them.
    pub(crate) support_rules: Arc<Program>,
    /// Their fixpoint over the current EDB. Built without statistics, it
    /// keeps no indexes between queries: that is parked until the benchmark
    /// harness stops charging its own per-op samples to `peak_rss_mb`.
    pub(crate) support: Arc<ExtraRelations>,
}

/// A program + database pair that answers queries.
///
/// Cloning a processor is cheap: the database clone is a copy-on-write
/// snapshot (see [`Database`]), and the prepared-state and plan caches are
/// shared through [`Arc`] — this is how a query server hands each worker
/// thread its own processor.
#[derive(Debug, Default, Clone)]
pub struct QueryProcessor {
    pub(crate) db: Database,
    pub(crate) program: Program,
    /// Whether `program` uses negation or aggregates, which only the
    /// stratum-aware engines (semi-naive, naive) evaluate. Kept by
    /// [`QueryProcessor::load`], the one place the program grows.
    pub(crate) stratified: bool,
    pub(crate) exec_options: ExecOptions,
    /// Everything loaded through [`QueryProcessor::load`], concatenated.
    /// The lint driver re-parses this text so its diagnostics carry spans
    /// into what the user actually wrote (facts inserted programmatically
    /// through [`QueryProcessor::db_mut`] are invisible to it).
    source: String,
    /// Set by [`QueryProcessor::prepare`]; invalidated whenever the
    /// program or database changes.
    pub(crate) prepared: Option<Arc<Prepared>>,
    /// Compiled Figure 2 plans, shared across clones. Only consulted once
    /// the processor is prepared: preparation interns every symbol a
    /// cached plan can mention *before* the processor is cloned, so shared
    /// plans stay meaningful in every clone's symbol space.
    pub(crate) plan_cache: Arc<PlanCache>,
    /// Bumped whenever the program or the EDB changes ([`QueryProcessor::load`],
    /// [`QueryProcessor::db_mut`], effective [`QueryProcessor::apply_mutation`]).
    /// [`QueryProcessor::prepare`] and `apply_mutation` revalidate the shared
    /// plan cache against it, so a post-mutation query can never be served
    /// by a pre-mutation compiled plan.
    pub(crate) generation: u64,
}

impl QueryProcessor {
    /// Creates an empty processor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads source text: proper rules extend the program, facts go to the
    /// database.
    pub fn load(&mut self, src: &str) -> Result<(), ProcessorError> {
        let parsed = parse_program(src, self.db.interner_mut())?;
        let mut rules = Vec::new();
        for rule in parsed.rules {
            if rule.is_fact() {
                self.db
                    .insert_atom(&rule.head)
                    .map_err(|e| ProcessorError::Facts(e.to_string()))?;
            } else {
                rules.push(rule);
            }
        }
        self.program.rules.extend(rules);
        self.stratified = self.program.uses_stratified_constructs();
        self.source.push_str(src);
        if !src.ends_with('\n') {
            self.source.push('\n');
        }
        self.prepared = None;
        self.generation += 1;
        Ok(())
    }

    /// Runs recursion detection for every recursive predicate up front,
    /// materializes the one support of the separable ones, and enables the
    /// shared plan cache.
    ///
    /// Call this once after loading and before cloning the processor to
    /// worker threads: queries then skip per-call detection, read the lower
    /// strata without evaluating them, and reuse compiled plans; a mutation
    /// maintains the support once. The prepared state is invalidated by
    /// further [`QueryProcessor::load`] or [`QueryProcessor::db_mut`] calls.
    pub fn prepare(&mut self) -> Result<(), ProcessorError> {
        let graph = DependencyGraph::build(&self.program);
        let heads = self.program.rules.iter().map(|r| r.head.pred);
        let preds: BTreeSet<Sym> = heads.filter(|&p| graph.is_recursive(p)).collect();
        let recursions: FxHashMap<Sym, Recursion> =
            preds.into_iter().map(|pred| (pred, self.analyze(&graph, pred, true))).collect();
        let separable = recursions.iter().filter(|(_, r)| r.separable.is_ok()).map(|(&p, _)| p);
        let (support_rules, support) = self.materialize(&graph, &separable.collect())?;
        self.prepared = Some(Arc::new(Prepared { recursions, support_rules, support }));
        // Cached plans from an earlier generation must not survive into
        // this one. The program itself may have changed since they were
        // built, so no statistics drift check applies — drop them all
        // (see `core::cache` on generation invalidation).
        self.plan_cache.validate_generation(self.generation, None);
        Ok(())
    }

    /// The shared plan cache (for observability: entry/hit/miss counts).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The accumulated source text of everything loaded so far.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Lints everything loaded so far (see [`sepra_lint::check_source`]),
    /// optionally relative to a query. `name` is the display name used in
    /// rendered diagnostics (`<repl>`, a file path, …).
    pub fn lint(&self, name: &str, query: Option<&str>) -> sepra_lint::CheckResult {
        sepra_lint::check_source(name, &self.source, query)
    }

    /// The database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable database access (for programmatic fact loading).
    pub fn db_mut(&mut self) -> &mut Database {
        self.prepared = None;
        self.generation += 1; // conservatively: the caller may mutate
        &mut self.db
    }

    /// Mutable access to the interner only. Interning is append-only — it
    /// can never invalidate prepared materializations or cached plans —
    /// so, unlike [`QueryProcessor::db_mut`], this neither drops the
    /// prepared state nor bumps the processor generation. Replication
    /// uses it to decode streamed delta frames (whose string tables must
    /// be interned locally) without paying a re-prepare per record.
    pub fn interner_mut(&mut self) -> &mut sepra_ast::Interner {
        self.db.interner_mut()
    }

    /// Overwrites the **database** generation without touching prepared
    /// state. A replica applying a streamed WAL record must end at the
    /// primary's stamped generation even when the local effective-tuple
    /// count differs (a record can carry tuples the replica already
    /// holds); recovery does the same via `db_mut`, but a live replica
    /// cannot afford `db_mut`'s invalidate-everything semantics.
    pub fn adopt_db_generation(&mut self, generation: u64) {
        self.db.force_generation(generation);
    }

    /// The program/EDB generation (see the field docs). Query servers use
    /// this to detect stale worker snapshots after a mutation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The loaded rules.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Overrides executor options (dedup / iteration bound / threads).
    pub fn set_exec_options(&mut self, opts: ExecOptions) {
        self.exec_options = opts;
    }

    /// The [`EvalOptions`] mirroring this processor's executor options, for
    /// the strategies that run on the semi-naive engine.
    pub(crate) fn eval_options(&self) -> EvalOptions {
        EvalOptions {
            threads: self.exec_options.threads,
            budget: self.exec_options.budget.clone(),
            plan_mode: self.exec_options.plan_mode,
        }
    }

    /// Parses a query in this processor's symbol space.
    pub fn parse_query(&mut self, src: &str) -> Result<Query, ProcessorError> {
        Ok(parse_query(src, self.db.interner_mut())?)
    }

    /// Runs a query with automatic strategy selection.
    pub fn query(&mut self, src: &str) -> Result<QueryResult, ProcessorError> {
        self.query_with(src, StrategyChoice::Auto)
    }

    /// Runs a query with a forced or automatic strategy.
    pub fn query_with(
        &mut self,
        src: &str,
        choice: StrategyChoice,
    ) -> Result<QueryResult, ProcessorError> {
        let query = self.parse_query(src)?;
        self.run_query(&query, choice)
    }

    /// The lower strata a separable `pred` reads: the one support `prepare`
    /// built (and mutations have maintained since), or, on an unprepared
    /// processor, `pred`'s own cone materialized on the spot.
    pub(crate) fn support(&self, pred: Sym) -> Result<Arc<ExtraRelations>, ProcessorError> {
        if let Some(prepared) = &self.prepared {
            return Ok(Arc::clone(&prepared.support));
        }
        let graph = DependencyGraph::build(&self.program);
        Ok(self.materialize(&graph, &BTreeSet::from([pred]))?.1)
    }

    /// What the separable `preds` read, as rules and their fixpoint: the
    /// cone below their rules' body atoms, each rule's own head left out.
    fn materialize(
        &self,
        graph: &DependencyGraph,
        preds: &BTreeSet<Sym>,
    ) -> Result<(Arc<Program>, Arc<ExtraRelations>), EvalError> {
        let rules = self.program.rules.iter().filter(|r| preds.contains(&r.head.pred));
        let read =
            rules.flat_map(|r| r.body_atoms().map(|a| a.pred).filter(move |&p| p != r.head.pred));
        let cone = graph.cone(read);
        let rules = self.program.rules.iter().filter(|r| cone.contains(&r.head.pred));
        let program = Program::new(rules.cloned().collect());
        let relations = if program.rules.is_empty() {
            ExtraRelations::default()
        } else {
            seminaive_with_options(&program, &self.db, &self.eval_options())?.relations
        };
        Ok((Arc::new(program), Arc::new(relations)))
    }

    /// Produces a diagnostic report over everything loaded so far: the
    /// general lints plus, for every recursive predicate, either the
    /// separable class structure (`SEP100`) or the violated conditions of
    /// Definition 2.4 (`SEP001`…`SEP004`), rendered as rustc-style text
    /// with source snippets. This is what `sepra --check` and the REPL's
    /// `:check` print; `sepra check <file>` is the richer front door.
    pub fn check_report(&self) -> String {
        if self.source.trim().is_empty() {
            return "no rules loaded\n".to_string();
        }
        self.lint("<program>", None).render_text()
    }
}

#[cfg(test)]
pub(crate) mod fixtures {
    //! The three small programs the engine's unit tests share.

    pub(crate) const EX_1_2: &str = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
                          buys(X, Y) :- buys(X, W), cheaper(Y, W).\n\
                          buys(X, Y) :- perfectFor(X, Y).\n\
                          friend(tom, sue). friend(sue, joe).\n\
                          perfectFor(joe, widget).\n\
                          cheaper(bargain, widget).\n";

    pub(crate) const SWAP: &str = "t(X, Y) :- sym(X, Y), t(Y, X).\n\
                        t(X, Y) :- base(X, Y).\n\
                        sym(a, b). sym(b, a). base(b, a). base(c, d).\n";

    pub(crate) const STRATIFIED: &str = "t(X, Y) :- e(X, Y).\n\
                              t(X, Y) :- e(X, W), t(W, Y).\n\
                              unreach(X, Y) :- node(X), node(Y), !t(X, Y).\n\
                              shortest(Y, min<C>) :- source(X), w(X, Y, C).\n\
                              shortest(Y, min<C>) :- shortest(X, D), w(X, Y, W2), C = D + W2.\n\
                              e(a, b). e(b, c). node(a). node(b). node(c). source(a).\n\
                              w(a, b, 1). w(b, c, 1). w(a, c, 5).\n";
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;

    #[test]
    fn edb_queries_work() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        let r = qp.query("friend(tom, W)?").unwrap();
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn support_predicates_are_materialized() {
        // `knows` is a non-recursive IDB predicate used by the recursion.
        let mut qp = QueryProcessor::new();
        qp.load(
            "knows(X, Y) :- friend(X, Y).\n\
             knows(X, Y) :- colleague(X, Y).\n\
             reach(X, Y) :- knows(X, W), reach(W, Y).\n\
             reach(X, Y) :- knows(X, Y).\n\
             friend(a, b). colleague(b, c).\n",
        )
        .unwrap();
        let r = qp.query("reach(a, Y)?").unwrap();
        assert_eq!(r.strategy, Strategy::Separable);
        assert_eq!(r.answers.len(), 2); // b and c
    }

    /// Regression: a separable predicate's support was every other rule of
    /// the program, so a budget spent on a component the query never reads
    /// failed the query, and failed `prepare` too.
    #[test]
    fn a_budget_spent_on_an_unread_component_blocks_no_query() {
        let mut src = String::from(
            "knows(X, Y) :- friend(X, Y).\n\
             reach(X, Y) :- knows(X, W), reach(W, Y).\n\
             reach(X, Y) :- knows(X, Y).\n\
             big(X, Y) :- link(X, Y).\n\
             big(X, Y) :- link(X, W), big(W, Y).\n\
             friend(a, b). friend(b, c).\n",
        );
        for i in 0..40 {
            src.push_str(&format!("link(l{i}, l{}).\n", i + 1));
        }
        for prepare in [false, true] {
            let mut qp = QueryProcessor::new();
            qp.load(&src).unwrap();
            qp.set_exec_options(ExecOptions {
                budget: sepra_eval::Budget::default().tuples(200),
                ..ExecOptions::default()
            });
            if prepare {
                qp.prepare().unwrap();
            }
            let r = qp.query("reach(a, Y)?").unwrap();
            assert_eq!(r.strategy, Strategy::Separable, "prepare={prepare}");
            assert_eq!(r.answers.len(), 2, "prepare={prepare}"); // b and c
        }
    }

    #[test]
    fn program_facts_for_recursive_pred_become_exit_rules() {
        let mut qp = QueryProcessor::new();
        qp.load(
            "t(X, Y) :- e(X, W), t(W, Y).\n\
             e(a, b). e(b, c). t(c, goal).\n",
        )
        .unwrap();
        let r = qp.query("t(a, Y)?").unwrap();
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn query_on_unknown_predicate_is_empty() {
        let mut qp = QueryProcessor::new();
        qp.load("e(a, b).\n").unwrap();
        let r = qp.query("ghost(a, Y)?").unwrap();
        assert!(r.answers.is_empty());
    }

    #[test]
    fn prepared_processor_matches_unprepared_and_caches_plans() {
        let mut plain = QueryProcessor::new();
        plain.load(EX_1_2).unwrap();
        let expected = plain.query("buys(tom, Y)?").unwrap();

        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        qp.prepare().unwrap();
        let first = qp.query("buys(tom, Y)?").unwrap();
        assert_eq!(first.strategy, Strategy::Separable);
        assert_eq!(first.answers, expected.answers);
        assert_eq!(qp.plan_cache().misses(), 1);

        // A clone (as a server worker would hold) shares the plan cache.
        let mut worker = qp.clone();
        let second = worker.query("buys(sue, Y)?").unwrap();
        assert_eq!(second.strategy, Strategy::Separable);
        assert_eq!(qp.plan_cache().hits(), 1);
        assert_eq!(qp.plan_cache().entries(), 1);
    }

    #[test]
    fn loading_invalidates_prepared_state() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        qp.prepare().unwrap();
        // New facts after prepare() must be visible to later queries.
        qp.load("friend(joe, pat). perfectFor(pat, hat).\n").unwrap();
        let r = qp.query("buys(tom, Y)?").unwrap();
        assert_eq!(r.answers.len(), 3); // widget, bargain, hat
    }
}
