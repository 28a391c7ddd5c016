//! Rendering the routing decision: `--explain` / `:plan` reports and
//! `:why` justifications. Nothing here decides anything — the report is
//! the [`Route`] automatic selection would execute, written out.

use std::fmt::Write as _;

use sepra_ast::analysis::{stratify, Stratification};
use sepra_ast::{Program, Query, Term};
use sepra_core::detect::SeparableRecursion;
use sepra_core::evaluate::{planner_stats, SeparableEvaluator};
use sepra_core::plan::{
    build_plan_with, PlanSelection, SelectionKind, AUX_CARRY1, AUX_CARRY2, AUX_SEEN1,
};
use sepra_eval::{ConjPlan, EvalError, PlanLiteral, PlanMode, Planner, PlannerStats, RelKey};
use sepra_storage::Value;

use crate::processor::{ProcessorError, QueryProcessor};
use crate::route::{admit, Route, Strategy, StrategyChoice};

/// One scanned relation of a compiled conjunction, with the planner's
/// estimates — the numbers `:plan` / `--explain` print.
#[derive(Debug, Clone)]
pub struct PlanScan {
    /// Display name of the scanned relation (`Δname` for semi-naive
    /// deltas, `carry_1`/`seen_1`/`carry_2` for the executor's working
    /// sets).
    pub rel: String,
    /// Rows the planner believes the relation holds.
    pub rows: f64,
    /// Estimated rows the scan emits per execution (rows over the
    /// selectivity of its key columns).
    pub estimate: f64,
    /// Number of index-key columns (0 = outermost full scan).
    pub keyed_cols: usize,
}

/// One compiled conjunction of a [`PlanReport`]: a labelled join order.
#[derive(Debug, Clone)]
pub struct PlanConj {
    /// Where the conjunction sits (`phase 1, rule 0`, `seed 0`,
    /// `rule 2 (reach)`, …).
    pub label: String,
    /// Scans in execution order.
    pub scans: Vec<PlanScan>,
}

/// A query's evaluation plan without evaluating it — the structured form
/// behind [`QueryProcessor::explain`], rendered as JSON by `:plan` and
/// `--explain --json`.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The normalized query text.
    pub query: String,
    /// The strategy automatic selection would run
    /// (`bounded`/`separable`/`magic`/`seminaive`, `edb-scan` for a
    /// predicate without rules, `unstratifiable` for a refused program).
    pub strategy: String,
    /// `"cost-based"` or `"source-order"`.
    pub plan_mode: &'static str,
    /// The human-readable explanation (detection outcome, schema).
    pub text: String,
    /// Compiled join orders with per-scan cost estimates.
    pub conjunctions: Vec<PlanConj>,
}

impl QueryProcessor {
    /// Answers `query` with the Separable algorithm and renders, for every
    /// answer, one justification — the derivation `J(a)` of Lemma 3.1
    /// (why-provenance). Requires a separable recursion and a full
    /// selection.
    pub fn why(&mut self, src: &str) -> Result<String, ProcessorError> {
        let query = self.parse_query(src)?;
        let pred = query.atom.pred;
        // The same lookup and admission a forced `separable` makes: only
        // the separable recursion is read.
        let (graph, found) = self.recursion(pred, StrategyChoice::Force(Strategy::Separable));
        admit(found.scope, Strategy::Separable)?;
        let sep = found.separable.as_ref();
        let sep = sep.map_err(|r| ProcessorError::StrategyUnavailable(r.to_string()))?;
        let (extra, _) = self.support(&graph, pred)?;
        let evaluator = SeparableEvaluator::with_options(sep.clone(), self.exec_options.clone());
        let (outcome, justifications) =
            evaluator.evaluate_with_justifications(&query, &self.db, &extra)?;
        let interner = self.db.interner();
        let mut lines: Vec<(String, String)> = justifications
            .iter()
            .map(|(t, j)| (t.display(interner).to_string(), j.render(sep, interner)))
            .collect();
        lines.sort();
        let mut out = String::new();
        let _ = writeln!(out, "{} answers:", outcome.answers.len());
        for (tuple, derivation) in lines {
            let _ = writeln!(out, "  {tuple}  because  {derivation}");
        }
        Ok(out)
    }

    /// Explains how a query would be evaluated, without evaluating it. For
    /// separable recursions this includes the detected classes and the
    /// instantiated Figure 2 schema (compare the paper's Figures 3 and 4);
    /// every compiled conjunction is shown in its chosen join order with
    /// the planner's per-scan cost estimates.
    pub fn explain(&mut self, src: &str) -> Result<String, ProcessorError> {
        let report = self.plan_report(src)?;
        let mut out = report.text;
        if !report.conjunctions.is_empty() {
            let _ = writeln!(out, "join order ({} estimates):", report.plan_mode);
            for conj in &report.conjunctions {
                let _ = writeln!(out, "  {}:", conj.label);
                for s in &conj.scans {
                    let (rel, rows, keyed, est) = (&s.rel, s.rows, s.keyed_cols, s.estimate);
                    let _ = writeln!(out, "    {rel}  rows {rows:.0}, keyed {keyed}, est {est:.2}");
                }
            }
        }
        Ok(out)
    }

    /// The structured form of [`QueryProcessor::explain`]: which strategy
    /// would run, in which plan mode, and — for every conjunction the
    /// strategy would compile — the chosen join order with per-scan cost
    /// estimates from the current relation statistics, over the rules of
    /// the query's cone.
    pub fn plan_report(&mut self, src: &str) -> Result<PlanReport, ProcessorError> {
        let query = self.parse_query(src)?;
        let pred = query.atom.pred;
        let (graph, found) = self.recursion(pred, StrategyChoice::Auto);
        let route = self.route(&query, &found);
        let rules = self.rules_of(&graph.cone([pred]));
        // A prepared support holds real relations with real sizes; an
        // unprepared processor plans them from the default guess rather
        // than evaluate anything here.
        let pstats = match (&found.separable, &self.prepared) {
            (Ok(sep), Some(prepared)) => planner_stats(sep, &self.db, &prepared.support),
            _ => PlannerStats::from_database(&self.db),
        };
        let mut report = PlanReport {
            query: sepra_ast::pretty::query_to_string(&query, self.db.interner()),
            strategy: route.strategy().to_string(),
            plan_mode: match self.exec_options.plan_mode {
                PlanMode::CostBased => "cost-based",
                PlanMode::SourceOrder => "source-order",
            },
            text: String::new(),
            conjunctions: Vec::new(),
        };
        let out = &mut report.text;
        let _ = writeln!(out, "query: {}", report.query);
        report.conjunctions = match &route {
            Route::EdbScan => {
                let _ = writeln!(out, "strategy: direct EDB scan (predicate has no rules)");
                report.strategy = "edb-scan".into();
                Vec::new()
            }
            // One plan section per stratum of the cone, lowest first — the
            // order evaluation runs them in — unless the program is refused.
            Route::Stratified => match graph.stratify().and_then(|_| stratify(&rules)) {
                Err(e) => {
                    let _ =
                        writeln!(out, "unstratifiable program: {}", e.describe(self.db.interner()));
                    let _ = writeln!(out, "strategy: refused (every engine rejects this program)");
                    report.strategy = "unstratifiable".into();
                    Vec::new()
                }
                Ok(strat) => {
                    let _ = writeln!(
                        out,
                        "stratified program: {} strata (negation/aggregation read only \
                         completed lower strata)",
                        strat.len()
                    );
                    for (level, preds) in strat.strata.iter().enumerate() {
                        let idb: Vec<&str> = preds
                            .iter()
                            .filter(|p| rules.rules.iter().any(|r| r.head.pred == **p))
                            .map(|&p| self.db.interner().resolve(p))
                            .collect();
                        if !idb.is_empty() {
                            let _ = writeln!(out, "  stratum {level}: {}", idb.join(", "));
                        }
                    }
                    let _ = writeln!(out, "strategy: semi-naive, stratum by stratum");
                    self.rule_conjunctions(&rules, &pstats, Some(&strat))?
                }
            },
            Route::Bounded(bounded) => {
                let (depth, n) = (bounded.depth, bounded.rules.len());
                let _ = writeln!(
                    out,
                    "bounded recursion detected: every derivation needs at most {depth} recursive \
                     step(s); recursion replaced by {n} nonrecursive rule(s)"
                );
                let _ = writeln!(out, "strategy: bounded({depth}) — zero fixpoint iterations");
                self.rule_conjunctions(&rules, &pstats, None)?
            }
            Route::Separable { sep, kind } => {
                self.separable_schema(out, &query, sep, kind, &rules, &pstats)?
            }
            Route::Magic(reason) | Route::SemiNaive(reason) => {
                let _ = writeln!(out, "{reason}");
                let fallback =
                    if matches!(route, Route::Magic(_)) { "magic sets" } else { "semi-naive" };
                let _ = writeln!(out, "strategy: {fallback}");
                self.rule_conjunctions(&rules, &pstats, None)?
            }
        };
        Ok(report)
    }

    /// Renders the detected class structure, the selection `kind` and, for
    /// a full selection, the instantiated Figure 2 schema; returns the
    /// conjunctions the chosen strategy compiles.
    fn separable_schema(
        &self,
        out: &mut String,
        query: &Query,
        sep: &SeparableRecursion,
        kind: &SelectionKind,
        rules: &Program,
        pstats: &PlannerStats,
    ) -> Result<Vec<PlanConj>, ProcessorError> {
        let _ = writeln!(out, "separable recursion detected:");
        for (i, class) in sep.classes.iter().enumerate() {
            let _ = writeln!(
                out,
                "  class e{}: columns {:?}, rules {:?}",
                i + 1,
                class.columns,
                class.rules
            );
        }
        let _ = writeln!(out, "  persistent columns: {:?}", sep.persistent);
        let selection = match kind {
            SelectionKind::NoSelection => {
                let _ = writeln!(out, "no selection constants; strategy: semi-naive");
                return self.rule_conjunctions(rules, pstats, None).map_err(Into::into);
            }
            SelectionKind::Partial { class } => {
                let _ = writeln!(
                    out,
                    "partial selection on class e{} -> Lemma 2.1 decomposition (t_part u t_full)",
                    class + 1
                );
                let _ = writeln!(out, "strategy: separable");
                return Ok(Vec::new());
            }
            SelectionKind::FullClass { class } => {
                let _ = writeln!(out, "full selection on class e{}", class + 1);
                PlanSelection::Class(*class)
            }
            SelectionKind::Persistent { bound } => {
                let _ = writeln!(out, "full selection on persistent columns {bound:?}");
                let consts = bound.iter().map(|&c| match query.atom.terms[c] {
                    Term::Const(k) => Ok((c, Value::from_const(k)?)),
                    Term::Var(_) => Err(EvalError::Planning("not const".into())),
                });
                PlanSelection::Persistent(consts.collect::<Result<_, _>>()?)
            }
        };
        let planner = Planner::new(self.exec_options.plan_mode, Some(pstats));
        let plan = build_plan_with(sep, &selection, &planner)?;
        let _ = writeln!(out, "strategy: separable; compiled schema:");
        for line in plan.render(sep, self.db.interner()).lines() {
            let _ = writeln!(out, "  {line}");
        }
        let phase1 = plan.phase1.iter().flat_map(|p1| &p1.steps);
        let steps = phase1
            .map(|(ri, step)| (format!("phase 1, rule {ri}"), step))
            .chain(plan.seed.iter().enumerate().map(|(i, step)| (format!("seed {i}"), step)))
            .chain(plan.phase2.steps.iter().map(|(ri, s)| (format!("phase 2, rule {ri}"), s)));
        Ok(steps.map(|(label, step)| self.conjunction(label, step)).collect())
    }

    /// The join orders the semi-naive engine would compile: one labelled
    /// conjunction per non-fact rule of `rules`, planned over `pstats`.
    /// With a stratification, rules are grouped by stratum, lowest first,
    /// each labelled with the stratum evaluation computes it in. A rule no
    /// order can plan is the error its query would return.
    fn rule_conjunctions(
        &self,
        rules: &Program,
        pstats: &PlannerStats,
        strat: Option<&Stratification>,
    ) -> Result<Vec<PlanConj>, EvalError> {
        let planner = Planner::new(self.exec_options.plan_mode, Some(pstats));
        let interner = self.db.interner();
        let levels = strat.map_or(1, Stratification::len);
        let mut out = Vec::new();
        for level in 0..levels {
            for (i, rule) in rules.rules.iter().enumerate() {
                let head = rule.head.pred;
                if rule.is_fact() || strat.is_some_and(|s| !s.strata[level].contains(&head)) {
                    continue;
                }
                let body: Vec<PlanLiteral> =
                    rule.body.iter().map(|l| PlanLiteral::from_literal(l, &RelKey::Pred)).collect();
                let plan = planner.plan(&body, 0, &rule.head.terms)?;
                let stratum =
                    if strat.is_some() { format!("stratum {level}, ") } else { "".into() };
                let label = format!("{stratum}rule {i} ({})", interner.resolve(head));
                out.push(self.conjunction(label, &plan));
            }
        }
        Ok(out)
    }

    /// The scans of `plan` with the estimates the planner chose them by.
    fn conjunction(&self, label: String, plan: &ConjPlan) -> PlanConj {
        let interner = self.db.interner();
        let scans = plan
            .scans
            .iter()
            .map(|s| PlanScan {
                rel: match s.rel {
                    RelKey::Pred(p) => interner.resolve(p).to_string(),
                    RelKey::Delta(p) => format!("\u{394}{}", interner.resolve(p)),
                    RelKey::Aux(AUX_CARRY1) => "carry_1".into(),
                    RelKey::Aux(AUX_SEEN1) => "seen_1".into(),
                    RelKey::Aux(AUX_CARRY2) => "carry_2".into(),
                    RelKey::Aux(n) => format!("aux_{n}"),
                },
                rows: s.rows,
                estimate: s.estimate,
                keyed_cols: s.keyed_cols,
            })
            .collect();
        PlanConj { label, scans }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::fixtures::*;

    #[test]
    fn explain_reports_bounded_depth() {
        let mut qp = QueryProcessor::new();
        qp.load(SWAP).unwrap();
        let text = qp.explain("t(X, Y)?").unwrap();
        assert!(text.contains("bounded recursion detected"), "{text}");
        assert!(text.contains("bounded(1)"), "{text}");
        let report = qp.plan_report("t(X, Y)?").unwrap();
        assert_eq!(report.strategy, "bounded");
    }

    #[test]
    fn explain_renders_schema() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        let text = qp.explain("buys(tom, Y)?").unwrap();
        assert!(text.contains("separable recursion detected"), "{text}");
        assert!(text.contains("carry_1"), "{text}");
        assert!(text.contains("strategy: separable"), "{text}");
        let text2 = qp.explain("buys(X, Y)?").unwrap();
        assert!(text2.contains("semi-naive"), "{text2}");
    }

    #[test]
    fn explain_persistent_selection() {
        let mut qp = QueryProcessor::new();
        qp.load(
            "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
             buys(X, Y) :- perfectFor(X, Y).\n\
             friend(a, b). perfectFor(b, w).\n",
        )
        .unwrap();
        let text = qp.explain("buys(X, w)?").unwrap();
        assert!(text.contains("persistent columns"), "{text}");
        assert!(text.contains("full selection on persistent columns"), "{text}");
        assert!(text.contains("seen_1("), "{text}");
    }

    #[test]
    fn plan_report_estimates_follow_statistics() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        let report = qp.plan_report("buys(tom, Y)?").unwrap();
        assert_eq!(report.strategy, "separable");
        assert_eq!(report.plan_mode, "cost-based");
        let labels: Vec<&str> = report.conjunctions.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.iter().any(|l| l.starts_with("phase 1")), "{labels:?}");
        assert!(labels.iter().any(|l| l.starts_with("seed")), "{labels:?}");
        assert!(labels.iter().any(|l| l.starts_with("phase 2")), "{labels:?}");
        // Figure 2 reads the carry first: its scan stays outermost.
        for c in report.conjunctions.iter().filter(|c| c.label.starts_with("phase 1")) {
            assert_eq!(c.scans[0].rel, "carry_1", "{:?}", c.scans);
        }
        let text = qp.explain("buys(tom, Y)?").unwrap();
        assert!(text.contains("join order (cost-based estimates):"), "{text}");
        assert!(text.contains("carry_1"), "{text}");
        // Semi-naive fallbacks report the per-rule join orders instead.
        let report = qp.plan_report("buys(X, Y)?").unwrap();
        assert_eq!(report.strategy, "seminaive");
        assert!(report.conjunctions.iter().any(|c| c.label.contains("buys")), "no rule conj");
    }

    /// A rule every query rejects is not hidden from the plan: explaining
    /// it fails with the planning error the query fails with, for an
    /// equality and for a sum over a variable nothing binds.
    #[test]
    fn explain_fails_where_the_query_fails() {
        for rules in ["r(X, Y) :- e(X, Z), Y = W.\n", "r(X, S) :- e(X, Z), S = Z + Q.\n"] {
            let mut qp = QueryProcessor::new();
            qp.load(&format!("e(a, b).\n{rules}")).unwrap();
            let queried = qp.query("r(X, Y)?").unwrap_err().to_string();
            assert!(queried.contains("equality or sum literal over variables"), "{queried}");
            assert_eq!(qp.explain("r(X, Y)?").unwrap_err().to_string(), queried, "{rules}");
            assert_eq!(qp.plan_report("r(X, Y)?").unwrap_err().to_string(), queried, "{rules}");
        }
    }

    #[test]
    fn why_requires_full_selection() {
        let mut qp = QueryProcessor::new();
        qp.load(
            "t(X, Y, Z) :- a(X, Y, U, V), t(U, V, Z).\n\
             t(X, Y, Z) :- t0(X, Y, Z).\n\
             a(c, d, e, f). t0(e, f, w).\n",
        )
        .unwrap();
        let err = qp.why("t(c, Y, Z)?").unwrap_err();
        assert!(matches!(err, ProcessorError::Eval(_)), "{err}");
        // And works on a full selection.
        let text = qp.why("t(c, d, Z)?").unwrap();
        assert!(text.contains("because"), "{text}");
    }

    #[test]
    fn plan_report_shows_per_stratum_sections() {
        let mut qp = QueryProcessor::new();
        qp.load(STRATIFIED).unwrap();
        let report = qp.plan_report("unreach(X, Y)?").unwrap();
        assert_eq!(report.strategy, "seminaive");
        assert!(report.text.contains("stratified program"), "{}", report.text);
        assert!(report.text.contains("stratum 0: t"), "{}", report.text);
        assert!(report.text.contains("unreach"), "{}", report.text);
        assert!(
            report.conjunctions.iter().any(|c| c.label.starts_with("stratum 0,")),
            "{:?}",
            report.conjunctions
        );
        assert!(
            report.conjunctions.iter().any(|c| c.label.contains("(unreach)")),
            "{:?}",
            report.conjunctions
        );
        // The explain text embeds the same sections.
        let text = qp.explain("unreach(X, Y)?").unwrap();
        assert!(text.contains("stratum by stratum"), "{text}");
    }

    /// A query's plan shows the rules it evaluates: those of its cone.
    #[test]
    fn plan_report_renders_only_the_cone() {
        let program = "big(X, Y) :- link(X, Y).\n\
                       big(X, Y) :- link(X, W), big(W, Y).\n\
                       r(X, Y) :- e(X, Y).\n\
                       r(X, Y) :- e(X, W), r(W, Y).\n\
                       u(X) :- g(X, Y), !f(X, Y).\n\
                       link(l0, l1). e(p, q). g(a, b). g(c, d). f(a, b).\n";
        for prepare in [false, true] {
            let mut qp = QueryProcessor::new();
            qp.load(program).unwrap();
            if prepare {
                qp.prepare().unwrap();
            }
            for (query, head) in [("u(X)?", "(u)"), ("r(X, Y)?", "(r)")] {
                let report = qp.plan_report(query).unwrap();
                assert_eq!(report.strategy, "seminaive", "{query}");
                let labels: Vec<&str> = report.conjunctions.iter().map(|c| &*c.label).collect();
                assert!(labels.iter().all(|l| l.ends_with(head)), "{query}: {labels:?}");
                assert!(!report.text.contains("big"), "{query}: {}", report.text);
            }
        }
    }

    #[test]
    fn plan_report_refuses_unstratifiable_programs() {
        let mut qp = QueryProcessor::new();
        qp.load("p(X) :- a(X), !q(X).\nq(X) :- p(X).\na(m).\n").unwrap();
        let report = qp.plan_report("p(X)?").unwrap();
        assert_eq!(report.strategy, "unstratifiable");
        assert!(report.text.contains("unstratifiable program"), "{}", report.text);
        assert!(report.conjunctions.is_empty());
    }
}
