//! The routing decision — which strategy answers a query — and its
//! execution. [`QueryProcessor::recursion`] looks a predicate's analysis
//! up (prepared, or run on the spot) and [`QueryProcessor::route`] turns
//! it into a [`Route`]; automatic evaluation, forced strategies,
//! `--explain` and `:why` all read those two — nothing else re-derives
//! the policy.

use std::sync::Arc;
use std::time::Instant;

use sepra_ast::{DependencyGraph, Query, Sym};
use sepra_core::bounded::{analyze as analyze_bounded, BoundedRecursion};
use sepra_core::detect::{detect, SeparableRecursion};
use sepra_core::evaluate::SeparableEvaluator;
use sepra_core::plan::{classify_selection, SelectionKind};
use sepra_eval::{naive::naive_with_options, query_answers, seminaive_with_options};
use sepra_rewrite::{
    bounded_evaluate_with_options, counting_evaluate, hn_evaluate, magic_evaluate_as,
    CountingOptions, HnOptions, Magic,
};
use sepra_storage::{EvalStats, Relation};

use crate::processor::{ProcessorError, QueryProcessor, QueryResult};

/// The evaluation strategies the processor can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Bounded-recursion elimination: the recursion is provably equivalent
    /// to a k-fold unfolding, evaluated with zero fixpoint iterations
    /// (requires a detected-bounded recursion).
    Bounded,
    /// The paper's specialized algorithm (requires a separable recursion
    /// and a selection).
    Separable,
    /// Generalized Magic Sets.
    MagicSets,
    /// Magic Sets with supplementary predicates (shares rule-body prefixes).
    MagicSupplementary,
    /// Subsumptive Magic Sets: supplementary magic where on-demand
    /// adornment collapses each demand onto the most general already-seen
    /// adornment that subsumes it, pruning redundant adorned copies.
    MagicSubsumptive,
    /// The Generalized Counting Method (requires a full class selection and
    /// acyclic data).
    Counting,
    /// The Henschen-Naqvi iterative algorithm (string-at-a-time; requires
    /// a full class selection and acyclic data).
    HenschenNaqvi,
    /// Stratified semi-naive bottom-up evaluation.
    SemiNaive,
    /// Naive bottom-up evaluation (for comparisons only).
    Naive,
}

/// Every strategy in declaration order (a strategy's row is its
/// discriminant) with its canonical name — what [`Strategy`] displays as
/// and every help text lists — and the aliases parsing also accepts.
const STRATEGIES: [(Strategy, &str, &[&str]); 9] = [
    (Strategy::Bounded, "bounded", &[]),
    (Strategy::Separable, "separable", &["sep"]),
    (Strategy::MagicSets, "magic", &["magic-sets", "magicsets"]),
    (Strategy::MagicSupplementary, "magic-sup", &["supplementary"]),
    (Strategy::MagicSubsumptive, "magic-subsumptive", &["subsumptive"]),
    (Strategy::Counting, "counting", &["count"]),
    (Strategy::HenschenNaqvi, "hn", &["henschen-naqvi"]),
    (Strategy::SemiNaive, "seminaive", &["semi-naive"]),
    (Strategy::Naive, "naive", &[]),
];

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(STRATEGIES[*self as usize].1)
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        for (strategy, name, aliases) in STRATEGIES {
            if s == name || aliases.contains(&s) {
                return Ok(strategy);
            }
        }
        let names: Vec<&str> = STRATEGIES.iter().map(|&(_, name, _)| name).collect();
        Err(format!("unknown strategy `{s}` (expected {})", names.join("|")))
    }
}

/// Either a caller-forced strategy or automatic selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyChoice {
    /// Let the processor pick: semi-naive for programs with negation or
    /// aggregates; otherwise bounded elimination when the recursion is
    /// provably bounded, else Separable when it applies to the selection,
    /// else Magic Sets for a selection, else semi-naive.
    #[default]
    Auto,
    /// Force a specific strategy (fails if it does not apply).
    Force(Strategy),
}

/// What detection knows about a query predicate: the analysis
/// [`QueryProcessor::prepare`] stores per recursive predicate and an
/// unprepared processor recomputes per query — the one input of every
/// routing decision.
#[derive(Debug, Clone)]
pub(crate) struct Recursion {
    /// The nonrecursive replacement chain, when the recursion is provably
    /// bounded.
    pub(crate) bounded: Option<Arc<BoundedRecursion>>,
    /// The separable recursion, or the line `--explain` gives for why
    /// there is none.
    pub(crate) separable: Result<Arc<SeparableRecursion>, Arc<str>>,
}

/// How automatic selection answers a query. Fallbacks carry the reason
/// the compiled algorithms were passed over, as `--explain` prints it.
#[derive(Debug)]
pub(crate) enum Route {
    /// No rule defines the predicate: its answers are a scan of the EDB.
    EdbScan,
    /// Negation and aggregates are evaluated stratum by stratum on the
    /// general engine only — the specialized strategies (and the magic
    /// rewrites) assume pure positive programs.
    Stratified,
    /// Bounded elimination wins over everything: no fixpoint at all.
    Bounded(Arc<BoundedRecursion>),
    /// A separable recursion: the paper's algorithm runs when the query's
    /// constants select into it (`kind`), semi-naive when it has none.
    Separable { sep: Arc<SeparableRecursion>, kind: SelectionKind },
    /// Not separable, with a selection for Magic Sets to push.
    Magic(Arc<str>),
    /// Not separable, and no selection either.
    SemiNaive(Arc<str>),
}

impl Route {
    /// The strategy that executes this route.
    pub(crate) fn strategy(&self) -> Strategy {
        match self {
            Route::Bounded(_) => Strategy::Bounded,
            Route::Separable { kind: SelectionKind::NoSelection, .. } => Strategy::SemiNaive,
            Route::Separable { .. } => Strategy::Separable,
            Route::Magic(_) => Strategy::MagicSets,
            Route::EdbScan | Route::Stratified | Route::SemiNaive(_) => Strategy::SemiNaive,
        }
    }
}

impl Recursion {
    /// Nothing to run a specialized strategy on, for `reason`.
    fn none(reason: impl Into<Arc<str>>) -> Self {
        Recursion { bounded: None, separable: Err(reason.into()) }
    }
}

impl QueryProcessor {
    /// Analyzes the recursive predicate `p` of the program `graph` was built
    /// from: shape, separability and — if asked — boundedness.
    /// Program-only: it never reads the EDB.
    pub(crate) fn analyze(&mut self, graph: &DependencyGraph, p: Sym, bounded: bool) -> Recursion {
        let def = match graph.recursive_def(&self.program, p, self.db.interner()) {
            Ok(def) => def,
            Err(e) => return Recursion::none(format!("not in the paper's shape: {e}")),
        };
        let interner = self.db.interner_mut();
        Recursion {
            bounded: bounded.then(|| analyze_bounded(&def, interner)).flatten().map(Arc::new),
            separable: detect(&def, interner).map(Arc::new).map_err(|ns| ns.to_string().into()),
        }
    }

    /// The detection lookup: what [`QueryProcessor::prepare`] stored for
    /// `pred`, or the same analysis run on the spot when unprepared — and
    /// then only where `choice` can read it. Automatic selection never
    /// consults the recursion of a stratified program; Magic Sets and the
    /// bottom-up engines take any program; and boundedness, the one costly
    /// analysis (unfoldings and containment checks), is skipped for the
    /// forced strategies that run on the separable recursion.
    pub(crate) fn recursion(&mut self, pred: Sym, choice: StrategyChoice) -> Recursion {
        use Strategy::{Bounded, Counting, HenschenNaqvi, Separable};
        let (read, bounded) = match choice {
            StrategyChoice::Auto => (!self.stratified, true),
            StrategyChoice::Force(Bounded) => (true, true),
            StrategyChoice::Force(Separable | Counting | HenschenNaqvi) => (true, false),
            StrategyChoice::Force(_) => (false, false),
        };
        let found = match &self.prepared {
            Some(prepared) => prepared.recursions.get(&pred).cloned(),
            None if read => {
                let graph = DependencyGraph::build(&self.program);
                graph.is_recursive(pred).then(|| self.analyze(&graph, pred, bounded))
            }
            None => None,
        };
        found.unwrap_or_else(|| Recursion::none("query predicate is not recursive"))
    }

    /// Decides how automatic selection answers `query`.
    pub(crate) fn route(&self, query: &Query, found: &Recursion) -> Route {
        let pred = query.atom.pred;
        if !self.program.rules.iter().any(|r| r.head.pred == pred) {
            return Route::EdbScan;
        }
        if self.stratified {
            return Route::Stratified;
        }
        match (&found.bounded, &found.separable) {
            (Some(bounded), _) => Route::Bounded(Arc::clone(bounded)),
            (None, Ok(sep)) => {
                Route::Separable { sep: Arc::clone(sep), kind: classify_selection(sep, query) }
            }
            (None, Err(reason)) if query.has_selection() => Route::Magic(Arc::clone(reason)),
            (None, Err(reason)) => Route::SemiNaive(Arc::clone(reason)),
        }
    }

    /// Runs an already-parsed query.
    pub fn run_query(
        &mut self,
        query: &Query,
        choice: StrategyChoice,
    ) -> Result<QueryResult, ProcessorError> {
        let found = self.recursion(query.atom.pred, choice);
        let strategy = match choice {
            StrategyChoice::Auto => self.route(query, &found).strategy(),
            StrategyChoice::Force(strategy) => strategy,
        };
        // Refuse, never silently mis-evaluate: only the stratum-aware
        // engines may run a program with negation or aggregates.
        if self.stratified && !matches!(strategy, Strategy::SemiNaive | Strategy::Naive) {
            return Err(ProcessorError::StrategyUnavailable(format!(
                "strategy `{strategy}` does not support negation or aggregates; \
                 use `seminaive` or `naive`"
            )));
        }
        let unavailable = |what: &str, reason: &str| {
            ProcessorError::StrategyUnavailable(format!("{what} unavailable: {reason}"))
        };
        let separable = || {
            let sep = found.separable.as_ref();
            sep.map_err(|r| ProcessorError::StrategyUnavailable(r.to_string()))
        };
        let eval = self.eval_options();
        let exec = self.exec_options.clone();
        let start = Instant::now();
        // Each arm finishes before it lets go of its evaluation state:
        // sorting into memory that state has just freed is measurably
        // slower (closure_batch: +4 % per query).
        let finish = |answers, stats| finish(answers, strategy, stats, start);
        let result = match strategy {
            // The rewritten program is nonrecursive in the predicate, so
            // the run reports zero fixpoint iterations for its stratum.
            Strategy::Bounded => {
                let bounded = found.bounded.as_ref().ok_or_else(|| {
                    unavailable("bounded elimination", "query predicate is not provably bounded")
                })?;
                let out =
                    bounded_evaluate_with_options(&self.program, query, &self.db, bounded, &eval)?;
                finish(out.answers, out.stats)
            }
            Strategy::Separable => {
                let sep = found.separable.as_ref();
                let sep = sep.map_err(|r| unavailable("separable algorithm", r))?;
                if matches!(classify_selection(sep, query), SelectionKind::NoSelection) {
                    let reason = "query has no selection constants";
                    return Err(unavailable("separable algorithm", reason));
                }
                let support = self.support(query.atom.pred)?;
                let mut evaluator = SeparableEvaluator::with_options(Arc::clone(sep), exec);
                if self.prepared.is_some() {
                    // The cache is only sound once `prepare` has interned
                    // every plan symbol into the pre-clone symbol space.
                    evaluator = evaluator.with_plan_cache(Arc::clone(&self.plan_cache));
                }
                let out = evaluator.evaluate(query, &self.db, &support)?;
                finish(out.answers, out.stats)
            }
            Strategy::MagicSets | Strategy::MagicSupplementary | Strategy::MagicSubsumptive => {
                let magic = match strategy {
                    Strategy::MagicSets => Magic::Basic,
                    Strategy::MagicSupplementary => Magic::Supplementary,
                    _ => Magic::Subsumptive,
                };
                let out = magic_evaluate_as(&self.program, query, &self.db, magic, &eval)?;
                finish(out.answers, out.stats)
            }
            Strategy::Counting => {
                let opts = CountingOptions { exec, ..CountingOptions::default() };
                let out = counting_evaluate(separable()?, query, &self.db, &opts)?;
                finish(out.answers, out.stats)
            }
            Strategy::HenschenNaqvi => {
                let opts = HnOptions { exec, ..HnOptions::default() };
                let out = hn_evaluate(separable()?, query, &self.db, &opts)?;
                finish(out.answers, out.stats)
            }
            Strategy::SemiNaive | Strategy::Naive => {
                let derived = if strategy == Strategy::SemiNaive {
                    seminaive_with_options(&self.program, &self.db, &eval)?
                } else {
                    naive_with_options(&self.program, &self.db, &eval)?
                };
                finish(query_answers(query, &self.db, Some(&derived))?, derived.stats)
            }
        };
        Ok(result)
    }
}

/// Finalizes one strategy run into a [`QueryResult`] whose answers iterate
/// in canonical [`Ord`] order. Every strategy (and every thread count)
/// produces the same answer *set* but its own insertion order; sorting here
/// makes downstream rendering stable without each renderer re-sorting. The
/// sort is [`Relation::sorted`]: row ids ordered over the column slices,
/// then one gather of columns and cached hashes — no row is boxed, hashed
/// or compared into a probe table again.
fn finish(answers: Relation, strategy: Strategy, stats: EvalStats, start: Instant) -> QueryResult {
    QueryResult { answers: answers.sorted(), strategy, stats, elapsed: start.elapsed() }
}

#[cfg(test)]
mod tests {
    use sepra_core::exec::ExecOptions;
    use sepra_eval::EvalError;

    use super::*;
    use crate::processor::fixtures::*;

    #[test]
    fn every_strategy_round_trips_through_the_name_table() {
        for (row, (strategy, name, aliases)) in STRATEGIES.into_iter().enumerate() {
            // Exhaustive on purpose: a new variant does not compile here
            // until it has its row (and `Display` indexes by discriminant).
            let declared = match strategy {
                Strategy::Bounded => 0,
                Strategy::Separable => 1,
                Strategy::MagicSets => 2,
                Strategy::MagicSupplementary => 3,
                Strategy::MagicSubsumptive => 4,
                Strategy::Counting => 5,
                Strategy::HenschenNaqvi => 6,
                Strategy::SemiNaive => 7,
                Strategy::Naive => 8,
            };
            assert_eq!((declared, strategy as usize), (row, row), "{name} is out of place");
            assert_eq!(strategy.to_string(), name);
            for spelling in std::iter::once(&name).chain(aliases) {
                assert_eq!(spelling.parse::<Strategy>(), Ok(strategy), "{spelling}");
            }
            let unknown = "no-such-strategy".parse::<Strategy>().unwrap_err();
            assert!(unknown.split(['|', ' ', ')']).any(|word| word == name), "{unknown}");
        }
    }

    #[test]
    fn auto_picks_separable() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        let r = qp.query("buys(tom, Y)?").unwrap();
        assert_eq!(r.strategy, Strategy::Separable);
        assert_eq!(r.answers.len(), 2); // widget and bargain
    }

    #[test]
    fn all_strategies_agree() {
        for strategy in [
            Strategy::Separable,
            Strategy::MagicSets,
            Strategy::Counting,
            Strategy::SemiNaive,
            Strategy::Naive,
        ] {
            let mut qp = QueryProcessor::new();
            qp.load(EX_1_2).unwrap();
            let r = qp
                .query_with("buys(tom, Y)?", StrategyChoice::Force(strategy))
                .unwrap_or_else(|e| panic!("{strategy} failed: {e}"));
            assert_eq!(r.answers.len(), 2, "strategy {strategy}");
        }
    }

    #[test]
    fn auto_falls_back_to_magic_on_nonseparable() {
        let mut qp = QueryProcessor::new();
        qp.load(
            "sg(X, Y) :- flat(X, Y).\n\
             sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n\
             up(a, p). flat(p, q). down(q, b).\n",
        )
        .unwrap();
        let r = qp.query("sg(a, Y)?").unwrap();
        assert_eq!(r.strategy, Strategy::MagicSets);
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn auto_uses_seminaive_without_selection() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        let r = qp.query("buys(X, Y)?").unwrap();
        assert_eq!(r.strategy, Strategy::SemiNaive);
        assert!(!r.answers.is_empty());
    }

    #[test]
    fn auto_picks_bounded_over_everything() {
        for query in ["t(X, Y)?", "t(a, Y)?"] {
            let mut qp = QueryProcessor::new();
            qp.load(SWAP).unwrap();
            let r = qp.query(query).unwrap();
            assert_eq!(r.strategy, Strategy::Bounded, "query {query}");
            assert_eq!(r.stats.iterations, 0, "bounded runs must skip the fixpoint");
        }
    }

    #[test]
    fn bounded_agrees_with_seminaive_prepared_or_not() {
        let mut plain = QueryProcessor::new();
        plain.load(SWAP).unwrap();
        let expected = plain.query_with("t(X, Y)?", StrategyChoice::Force(Strategy::SemiNaive));
        let expected = expected.unwrap().answers;
        for prepare in [false, true] {
            let mut qp = QueryProcessor::new();
            qp.load(SWAP).unwrap();
            if prepare {
                qp.prepare().unwrap();
            }
            let r = qp.query_with("t(X, Y)?", StrategyChoice::Force(Strategy::Bounded)).unwrap();
            assert_eq!(r.answers.len(), expected.len(), "prepare={prepare}");
            for t in r.answers.iter() {
                assert!(expected.contains_row(t), "prepare={prepare}");
            }
        }
    }

    #[test]
    fn forced_bounded_fails_gracefully_on_unbounded() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        let err =
            qp.query_with("buys(tom, Y)?", StrategyChoice::Force(Strategy::Bounded)).unwrap_err();
        assert!(matches!(err, ProcessorError::StrategyUnavailable(_)), "{err}");
    }

    #[test]
    fn subsumptive_magic_agrees_with_magic() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        let r = qp
            .query_with("buys(tom, Y)?", StrategyChoice::Force(Strategy::MagicSubsumptive))
            .unwrap();
        assert_eq!(r.strategy, Strategy::MagicSubsumptive);
        assert_eq!(r.answers.len(), 2);
    }

    /// Regression: every forced Magic Sets strategy answered nothing for a
    /// predicate that has no rules, where the bottom-up engines scan it.
    #[test]
    fn forced_magic_answers_a_predicate_without_rules_from_the_edb() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        for query in ["friend(tom, Y)?", "perfectFor(joe, Y)?"] {
            let expected = qp.query_with(query, StrategyChoice::Force(Strategy::SemiNaive));
            let expected = expected.unwrap().answers;
            assert_eq!(expected.len(), 1, "{query}");
            for strategy in
                [Strategy::MagicSets, Strategy::MagicSupplementary, Strategy::MagicSubsumptive]
            {
                let r = qp.query_with(query, StrategyChoice::Force(strategy)).unwrap();
                assert_eq!(r.answers, expected, "{strategy}: {query}");
            }
        }
    }

    #[test]
    fn forced_separable_fails_gracefully() {
        let mut qp = QueryProcessor::new();
        qp.load("p(X) :- e(X).\ne(a).\n").unwrap();
        let err = qp.query_with("p(a)?", StrategyChoice::Force(Strategy::Separable)).unwrap_err();
        assert!(matches!(err, ProcessorError::StrategyUnavailable(_)));
    }

    #[test]
    fn answers_are_sorted_for_every_strategy() {
        // Acyclic, because Counting and Henschen-Naqvi refuse cycles; wired
        // so that no derivation order is the symbols' order.
        const DAG: &str = "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n\
                           e(n0, n9). e(n0, n3). e(n9, n4). e(n3, n7). e(n7, n1).\n\
                           e(n4, n1). e(n1, n8). e(n3, n2).\n";
        for (strategy, ..) in STRATEGIES {
            let (program, query) = match strategy {
                Strategy::Bounded => (SWAP, "t(X, Y)?"),
                _ => (DAG, "t(n0, Y)?"),
            };
            let mut qp = QueryProcessor::new();
            qp.load(program).unwrap();
            let r = qp.query_with(query, StrategyChoice::Force(strategy)).unwrap();
            let tuples: Vec<_> = r.answers.iter().map(|t| t.to_tuple()).collect();
            let mut sorted = tuples.clone();
            sorted.sort_unstable();
            assert!(tuples.len() >= 2, "strategy {strategy}: {} answers", tuples.len());
            assert_eq!(tuples, sorted, "strategy {strategy} answers not sorted");
            // The relation `finish` used to build by boxing, sorting and
            // re-inserting every tuple: the same set, equally probeable.
            let boxed = Relation::from_tuples(r.answers.arity(), sorted.iter().cloned());
            assert_eq!(r.answers, boxed, "strategy {strategy}");
            assert!(sorted.iter().all(|t| r.answers.contains(t)), "strategy {strategy}");
        }
    }

    #[test]
    fn auto_routes_stratified_programs_to_seminaive() {
        let mut qp = QueryProcessor::new();
        qp.load(STRATIFIED).unwrap();
        // 3 of the 9 node pairs are reachable, so 6 are not.
        let r = qp.query("unreach(X, Y)?").unwrap();
        assert_eq!(r.strategy, Strategy::SemiNaive);
        assert_eq!(r.answers.len(), 6);
        // min-aggregate shortest paths: b via 1, c via 1+1 (beats direct 5).
        let r = qp.query("shortest(X, C)?").unwrap();
        assert_eq!(r.strategy, Strategy::SemiNaive);
        assert_eq!(r.answers.len(), 2);
        // Even a selection on the pure positive recursion stays on the
        // general engine: the magic rewrite never sees stratified programs.
        let r = qp.query("t(a, Y)?").unwrap();
        assert_eq!(r.strategy, Strategy::SemiNaive);
        assert_eq!(r.answers.len(), 2);
    }

    #[test]
    fn forced_specialized_strategies_refuse_stratified_programs() {
        for strategy in [
            Strategy::Bounded,
            Strategy::Separable,
            Strategy::MagicSets,
            Strategy::MagicSupplementary,
            Strategy::MagicSubsumptive,
            Strategy::Counting,
            Strategy::HenschenNaqvi,
        ] {
            let mut qp = QueryProcessor::new();
            qp.load(STRATIFIED).unwrap();
            let err = qp.query_with("t(a, Y)?", StrategyChoice::Force(strategy)).unwrap_err();
            let ProcessorError::StrategyUnavailable(msg) = err else {
                panic!("{strategy}: expected StrategyUnavailable, got {err}");
            };
            assert!(msg.contains("negation or aggregates"), "{strategy}: {msg}");
        }
    }

    #[test]
    fn naive_and_seminaive_agree_on_stratified_programs() {
        let mut qp = QueryProcessor::new();
        qp.load(STRATIFIED).unwrap();
        for query in ["unreach(X, Y)?", "shortest(X, C)?"] {
            let s = qp.query_with(query, StrategyChoice::Force(Strategy::SemiNaive)).unwrap();
            let n = qp.query_with(query, StrategyChoice::Force(Strategy::Naive)).unwrap();
            assert_eq!(s.answers, n.answers, "{query}");
        }
    }

    #[test]
    fn unstratifiable_programs_are_refused_with_both_rules_named() {
        let mut qp = QueryProcessor::new();
        qp.load("p(X) :- a(X), !q(X).\nq(X) :- p(X).\na(m).\n").unwrap();
        let err = qp.query("p(X)?").unwrap_err();
        let ProcessorError::Eval(EvalError::Unstratifiable(msg)) = err else {
            panic!("expected Unstratifiable, got {err}");
        };
        assert!(msg.contains("`p`") && msg.contains("`q`"), "{msg}");
    }

    #[test]
    fn budget_cuts_off_queries_without_poisoning() {
        use sepra_eval::{Budget, BudgetResource};
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        qp.set_exec_options(ExecOptions {
            budget: Budget::default().iterations(0),
            ..ExecOptions::default()
        });
        let err = qp.query("buys(tom, Y)?").unwrap_err();
        match err {
            ProcessorError::Eval(EvalError::BudgetExceeded { resource, .. }) => {
                assert_eq!(resource, BudgetResource::Iterations);
            }
            other => panic!("expected BudgetExceeded, got {other}"),
        }
        // Lifting the budget on the same processor works again.
        qp.set_exec_options(ExecOptions::default());
        assert_eq!(qp.query("buys(tom, Y)?").unwrap().answers.len(), 2);
    }
}
