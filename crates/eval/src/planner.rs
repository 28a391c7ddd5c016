//! Statistics-driven greedy join ordering.
//!
//! Every evaluator in the workspace compiles rule bodies into left-to-right
//! index-nested-loop joins ([`crate::plan::ConjPlan`]); the *order* of the
//! subgoals decides how large the intermediate results get, which is
//! exactly the paper's cost metric (Definition 4.2: algorithms are compared
//! by the sizes of the relations they construct). This module picks that
//! order from data rather than from the program text: at each step the
//! [`Planner`] chooses the remaining subgoal with the smallest estimated
//! output cardinality given the variables already bound, using the classic
//! uniform-selectivity model
//!
//! ```text
//! estimate(atom) = rows(rel) / Π { distinct(rel, c) : column c bound }
//! ```
//!
//! over the exact row/distinct counts that [`sepra_storage::RelStats`]
//! maintains on every EDB mutation path. When no statistics exist (an
//! empty database, or synthetic relations) the same loop runs over an
//! empty snapshot — every relation at the unknown-size estimate, so the
//! subgoal with the most bound columns (constants included) goes first —
//! and counts the fallback, so servers can observe how often they plan
//! blind.
//!
//! Ordering is semantics-preserving — conjunctions of positive atoms,
//! equalities, sums, and stratified negations commute (a negated literal
//! reads only *completed* lower strata, so moving it never changes what it
//! observes; the compiler still requires its variables to be bound
//! positively first) — so evaluators apply it freely; the only constraint
//! is structural: plans that are sharded over their first scan (parallel
//! delta rounds, the carry loops of the Separable executor) *pin* a prefix
//! that the planner must not move, which callers express with the `pinned`
//! argument of [`Planner::order`].

use std::cell::Cell;

use sepra_ast::{Sym, Term};
use sepra_storage::{Database, EvalStats, FxHashMap, FxHashSet, Relation};

use crate::plan::{ConjPlan, PlanAtom, PlanLiteral, RelKey, Step};

/// How conjunction bodies are ordered before compilation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlanMode {
    /// Greedy lowest-estimated-cardinality ordering from relation
    /// statistics, planning blind (every relation of unknown size) when no
    /// statistics are available. The default.
    #[default]
    CostBased,
    /// Compile bodies exactly as written (the paper's presentation, and
    /// the baseline the E13 benchmark compares against).
    SourceOrder,
}

/// Row count and per-column distinct counts for one relation, as the
/// planner sees them.
#[derive(Debug, Clone, PartialEq)]
pub struct RelEstimate {
    /// Number of stored tuples.
    pub rows: f64,
    /// Distinct values per column.
    pub distinct: Vec<f64>,
}

/// Assumed selectivity divisor for a bound column whose distinct count is
/// unknown (auxiliary/derived relations).
const DEFAULT_DISTINCT: f64 = 10.0;
/// Assumed size of auxiliary working relations (carry/seen seeds); these
/// are pinned first in every plan that scans them, so the value only
/// breaks ties.
const AUX_ROWS: f64 = 8.0;
/// A semi-naive delta holds at most the full relation; estimating it at
/// half biases plans toward scanning the (shrinking) delta outermost.
const DELTA_FRACTION: f64 = 0.5;
/// Assumed size of predicates the snapshot knows nothing about. Evaluators
/// fold every *completed* stratum into their [`PlannerStats`], so an
/// unknown predicate is a recursion sibling of the rule being compiled —
/// a magic/supplementary guard or a delta-driven frontier, which stays
/// small. Estimating it small keeps such guards in front of the (large)
/// EDB relations they exist to restrict.
const UNKNOWN_ROWS: f64 = 8.0;
/// Floor for estimates, so repeated division cannot reach zero and erase
/// the relative order of later candidates.
const MIN_ESTIMATE: f64 = 1e-6;

/// A snapshot of per-relation statistics for planning one evaluation.
///
/// Built from a [`Database`] in O(#relations × arity) — the underlying
/// counts are maintained incrementally by [`sepra_storage::RelStats`], so
/// no data is scanned (relations without maintained stats are scanned
/// once as a fallback).
#[derive(Debug, Clone, Default)]
pub struct PlannerStats {
    rels: FxHashMap<Sym, RelEstimate>,
}

impl PlannerStats {
    /// Snapshots the statistics of every relation in `db`.
    pub fn from_database(db: &Database) -> Self {
        let mut s = PlannerStats::default();
        for (pred, rel) in db.relations() {
            s.add_relation(pred, rel);
        }
        s
    }

    /// Adds (or replaces) the estimate for `pred`, reading the relation's
    /// maintained statistics when present and counting by scan otherwise.
    pub fn add_relation(&mut self, pred: Sym, rel: &Relation) {
        let est = match rel.stats() {
            Some(rs) => RelEstimate {
                rows: rs.rows() as f64,
                distinct: (0..rel.arity()).map(|c| rs.distinct(c) as f64).collect(),
            },
            None => {
                let mut seen: Vec<FxHashSet<sepra_storage::Value>> =
                    vec![FxHashSet::default(); rel.arity()];
                for (c, seen_col) in seen.iter_mut().enumerate() {
                    seen_col.extend(rel.column(c).iter().copied());
                }
                RelEstimate {
                    rows: rel.len() as f64,
                    distinct: seen.iter().map(|s| s.len() as f64).collect(),
                }
            }
        };
        self.rels.insert(pred, est);
    }

    /// Whether no relation has any statistics (planning would be blind).
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// The estimate recorded for `pred`, if any.
    pub fn get(&self, pred: Sym) -> Option<&RelEstimate> {
        self.rels.get(&pred)
    }

    /// Assumed size for relations the snapshot knows nothing about — see
    /// `UNKNOWN_ROWS` for why "unknown" implies "small".
    pub fn unknown_rows(&self) -> f64 {
        UNKNOWN_ROWS
    }

    /// `(rows, per-column distincts)` for an abstract relation key.
    fn lookup(&self, rel: RelKey) -> (f64, Option<&[f64]>) {
        match rel {
            RelKey::Pred(p) => match self.rels.get(&p) {
                Some(e) => (e.rows, Some(e.distinct.as_slice())),
                None => (self.unknown_rows(), None),
            },
            RelKey::Delta(p) => match self.rels.get(&p) {
                Some(e) => (e.rows * DELTA_FRACTION, Some(e.distinct.as_slice())),
                None => (self.unknown_rows() * DELTA_FRACTION, None),
            },
            RelKey::Aux(_) => (AUX_ROWS, None),
        }
    }

    /// Estimated result rows of scanning `atom` with the variables in
    /// `bound` already bound.
    pub fn atom_estimate(&self, atom: &PlanAtom, bound: &[Sym]) -> f64 {
        let (rows, distinct) = self.lookup(atom.rel);
        let mut est = rows.max(1.0);
        for (c, t) in atom.terms.iter().enumerate() {
            let is_bound = match t {
                Term::Const(_) => true,
                Term::Var(v) => bound.contains(v),
            };
            if is_bound {
                let d = distinct.and_then(|d| d.get(c).copied()).unwrap_or(DEFAULT_DISTINCT);
                est /= d.max(1.0);
            }
        }
        est.max(MIN_ESTIMATE)
    }

    /// Per-scan estimates of a compiled plan, in execution order — the
    /// numbers `:plan` / `--explain` print. For each `Scan` step the
    /// estimate divides the relation's rows by the distinct count of every
    /// key column (the columns bound when the scan starts).
    pub fn estimate_scans(&self, plan: &ConjPlan) -> Vec<ScanEstimate> {
        plan.steps
            .iter()
            .filter_map(|s| match s {
                Step::Scan { rel, key_cols, .. } => {
                    let (rows, distinct) = self.lookup(*rel);
                    let mut est = rows.max(1.0);
                    for &c in key_cols {
                        let d =
                            distinct.and_then(|d| d.get(c).copied()).unwrap_or(DEFAULT_DISTINCT);
                        est /= d.max(1.0);
                    }
                    Some(ScanEstimate {
                        rel: *rel,
                        rows,
                        estimate: est.max(MIN_ESTIMATE),
                        keyed_cols: key_cols.len(),
                    })
                }
                _ => None,
            })
            .collect()
    }
}

/// The cost estimate for one `Scan` step of a compiled plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanEstimate {
    /// The relation scanned.
    pub rel: RelKey,
    /// Estimated rows of the relation itself.
    pub rows: f64,
    /// Estimated rows the scan emits per execution (rows over the
    /// selectivity of its key columns).
    pub estimate: f64,
    /// Number of index-key columns.
    pub keyed_cols: usize,
}

/// Orders conjunction bodies for compilation, counting how often it ran
/// and how often it had no statistics to run on.
#[derive(Debug)]
pub struct Planner<'a> {
    mode: PlanMode,
    stats: Option<&'a PlannerStats>,
    costed: Cell<usize>,
    fallbacks: Cell<usize>,
}

impl<'a> Planner<'a> {
    /// A planner in `mode` over `stats` (pass `None` to always fall back).
    pub fn new(mode: PlanMode, stats: Option<&'a PlannerStats>) -> Self {
        Planner { mode, stats, costed: Cell::new(0), fallbacks: Cell::new(0) }
    }

    /// A planner that keeps bodies exactly as written.
    pub fn source_order() -> Planner<'static> {
        Planner::new(PlanMode::SourceOrder, None)
    }

    /// The ordering mode.
    pub fn mode(&self) -> PlanMode {
        self.mode
    }

    /// `(plans costed, fallbacks)` since construction.
    pub fn counters(&self) -> (usize, usize) {
        (self.costed.get(), self.fallbacks.get())
    }

    /// Folds this planner's counters into an [`EvalStats`].
    pub fn record_into(&self, stats: &mut EvalStats) {
        stats.plans_costed += self.costed.get();
        stats.plan_fallbacks += self.fallbacks.get();
    }

    /// Returns `body` reordered for compilation.
    ///
    /// The first `pinned` literals stay in place (their variables count as
    /// bound for everything after them) — callers pin scans that sharding
    /// relies on being outermost. `inputs` are the caller-bound variables
    /// of [`ConjPlan::compile`]. In [`PlanMode::SourceOrder`], or when
    /// nothing can move, the body is returned unchanged and uncounted.
    pub fn order(&self, inputs: &[Sym], body: &[PlanLiteral], pinned: usize) -> Vec<PlanLiteral> {
        let pinned = pinned.min(body.len());
        if self.mode == PlanMode::SourceOrder || body.len() <= pinned + 1 {
            return body.to_vec();
        }
        let mut bound: Vec<Sym> = inputs.to_vec();
        let mut out: Vec<PlanLiteral> = Vec::with_capacity(body.len());
        for lit in &body[..pinned] {
            bind_vars(&mut bound, lit);
            out.push(lit.clone());
        }
        self.costed.set(self.costed.get() + 1);
        let blind = PlannerStats::default();
        let stats = self.stats.filter(|s| !s.is_empty()).unwrap_or_else(|| {
            self.fallbacks.set(self.fallbacks.get() + 1);
            &blind
        });
        let mut remaining: Vec<&PlanLiteral> = body[pinned..].iter().collect();
        while !remaining.is_empty() {
            let mut best: Option<(usize, f64)> = None;
            for (i, lit) in remaining.iter().enumerate() {
                let is_bound = |t: &Term| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                };
                let cost = match lit {
                    PlanLiteral::Eq(l, r) => {
                        // An executable equality is a free filter/binding:
                        // always next. An inexecutable one must wait.
                        if is_bound(l) || is_bound(r) {
                            f64::NEG_INFINITY
                        } else {
                            f64::INFINITY
                        }
                    }
                    // A fully bound negation is a free filter; one with
                    // unbound variables cannot run yet (negation binds
                    // nothing, so it must wait for positive literals).
                    PlanLiteral::Neg(atom) => {
                        if atom.terms.iter().all(is_bound) {
                            f64::NEG_INFINITY
                        } else {
                            f64::INFINITY
                        }
                    }
                    // A sum is executable once both operands are bound.
                    PlanLiteral::Sum(_, a, b) => {
                        if is_bound(a) && is_bound(b) {
                            f64::NEG_INFINITY
                        } else {
                            f64::INFINITY
                        }
                    }
                    PlanLiteral::Atom(atom) => stats.atom_estimate(atom, &bound),
                };
                // Strict `<` keeps the earliest literal on ties, so the
                // chosen order is deterministic.
                if best.is_none_or(|(_, b)| cost < b) {
                    best = Some((i, cost));
                }
            }
            let (idx, _) = best.expect("remaining non-empty");
            let lit = remaining.remove(idx);
            bind_vars(&mut bound, lit);
            out.push(lit.clone());
        }
        out
    }
}

fn bind_vars(bound: &mut Vec<Sym>, lit: &PlanLiteral) {
    for v in lit.vars_for_reorder() {
        if !bound.contains(&v) {
            bound.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_ast::parse_program;

    fn body_of(src: &str, db: &mut Database) -> Vec<PlanLiteral> {
        let p = parse_program(src, db.interner_mut()).unwrap();
        p.rules[0].body.iter().map(|l| PlanLiteral::from_literal(l, &RelKey::Pred)).collect()
    }

    fn pred_of(lit: &PlanLiteral) -> RelKey {
        match lit {
            PlanLiteral::Atom(a) => a.rel,
            _ => panic!("expected atom"),
        }
    }

    #[test]
    fn cost_ordering_puts_selective_scans_first() {
        let mut db = Database::new();
        for i in 0..500 {
            db.insert_named("big", &[&format!("u{i}"), &format!("v{i}")]).unwrap();
        }
        db.load_fact_text("probe(a, u5). q(v5, done).").unwrap();
        let body = body_of("t(Y) :- big(W, Z), probe(a, W), q(Z, Y).\n", &mut db);
        let stats = PlannerStats::from_database(&db);
        let planner = Planner::new(PlanMode::CostBased, Some(&stats));
        let ordered = planner.order(&[], &body, 0);
        let probe = db.intern("probe");
        let big = db.intern("big");
        // probe(a, W) has 1 row and a constant key: cheapest. With W bound,
        // big(W, Z) is keyed on its 500-distinct column (estimate 1) and no
        // longer starts a 500-row cartesian prefix.
        assert_eq!(pred_of(&ordered[0]), RelKey::Pred(probe));
        assert_eq!(pred_of(&ordered[1]), RelKey::Pred(big));
        assert_eq!(planner.counters(), (1, 0));
    }

    #[test]
    fn pinned_prefix_never_moves() {
        let mut db = Database::new();
        for i in 0..100 {
            db.insert_named("big", &[&format!("u{i}"), &format!("v{i}")]).unwrap();
        }
        db.load_fact_text("tiny(a).").unwrap();
        let body = body_of("t(W) :- big(W, Z), tiny(Z).\n", &mut db);
        let stats = PlannerStats::from_database(&db);
        let planner = Planner::new(PlanMode::CostBased, Some(&stats));
        let ordered = planner.order(&[], &body, 1);
        let big = db.intern("big");
        assert_eq!(pred_of(&ordered[0]), RelKey::Pred(big), "pinned scan stayed first");
    }

    #[test]
    fn source_order_and_tiny_bodies_are_untouched_and_uncounted() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b).").unwrap();
        let body = body_of("t(X, Y) :- e(X, Y).\n", &mut db);
        let stats = PlannerStats::from_database(&db);
        let cost = Planner::new(PlanMode::CostBased, Some(&stats));
        assert_eq!(cost.order(&[], &body, 0), body);
        assert_eq!(cost.counters(), (0, 0)); // single atom: nothing to do
        let src = Planner::source_order();
        let two = body_of("t(X, Z) :- e(X, Y), e(Y, Z).\n", &mut db);
        assert_eq!(src.order(&[], &two, 0), two);
        assert_eq!(src.counters(), (0, 0));
    }

    #[test]
    fn missing_stats_fall_back_to_bound_first() {
        let mut db = Database::new();
        let body = body_of("t(Y) :- big(W, Z), probe(a, W), q(Z, Y).\n", &mut db);
        let planner = Planner::new(PlanMode::CostBased, None);
        let ordered = planner.order(&[], &body, 0);
        let probe = db.intern("probe");
        // The heuristic also starts from the constant-keyed probe.
        assert_eq!(pred_of(&ordered[0]), RelKey::Pred(probe));
        assert_eq!(planner.counters(), (1, 1));
        let mut es = EvalStats::new();
        planner.record_into(&mut es);
        assert_eq!((es.plans_costed, es.plan_fallbacks), (1, 1));
    }

    #[test]
    fn executable_equalities_go_first_dangling_ones_last() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c).").unwrap();
        let body = body_of("t(X, Y) :- e(X, W), Y = W, X = a.\n", &mut db);
        let stats = PlannerStats::from_database(&db);
        let planner = Planner::new(PlanMode::CostBased, Some(&stats));
        let ordered = planner.order(&[], &body, 0);
        // X = a is executable immediately and must precede the scan;
        // Y = W only becomes executable after e(X, W).
        assert!(matches!(ordered[0], PlanLiteral::Eq(..)));
        assert!(matches!(ordered[1], PlanLiteral::Atom(_)));
        assert!(matches!(ordered[2], PlanLiteral::Eq(..)));
    }

    #[test]
    fn estimate_scans_reflects_key_columns() {
        let mut db = Database::new();
        for i in 0..100 {
            db.insert_named("e", &[&format!("u{i}"), &format!("v{}", i % 10)]).unwrap();
        }
        let mut i = db.interner().clone();
        let p = parse_program("t(X, Y) :- e(X, Y), e(Y, X).\n", &mut i).unwrap();
        let body: Vec<PlanLiteral> =
            p.rules[0].body.iter().map(|l| PlanLiteral::from_literal(l, &RelKey::Pred)).collect();
        let plan = ConjPlan::compile(&[], &body, &p.rules[0].head.terms).unwrap();
        let stats = PlannerStats::from_database(&db);
        let scans = stats.estimate_scans(&plan);
        assert_eq!(scans.len(), 2);
        assert_eq!(scans[0].keyed_cols, 0);
        assert_eq!(scans[0].estimate, 100.0);
        assert_eq!(scans[1].keyed_cols, 2);
        // 100 rows / (100 distinct in col 0 × 10 distinct in col 1) = 0.1.
        assert!((scans[1].estimate - 0.1).abs() < 1e-9);
    }
}
