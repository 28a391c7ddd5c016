//! Join planning: one loop orders a conjunction, places its filters and
//! compiles it, and the plan it emits carries its own estimates.
//!
//! Every evaluator in the workspace runs rule bodies as left-to-right
//! index-nested-loop joins ([`ConjPlan`]); the *order* of the subgoals
//! decides how large the intermediate results get, which is exactly the
//! paper's cost metric (Definition 4.2: algorithms are compared by the
//! sizes of the relations they construct). [`Planner::plan`] is one state
//! machine over the body, in the shape of dialog-db's planner: it takes
//! the pinned prefix first, then at each step the cheapest remaining
//! literal, compiles it straight into its [`Step`], and updates the one set
//! of bound slots. A ready equality, sum or negation costs −∞; an atom
//! costs its estimated output cardinality given the variables already
//! bound, under the uniform-selectivity model
//!
//! ```text
//! estimate(atom) = rows(rel) / Π { distinct(rel, c) : column c bound }
//! ```
//!
//! over the exact counts [`sepra_storage::RelStats`] maintains on every EDB
//! mutation path; ties go to the earliest source position. In
//! [`PlanMode::SourceOrder`] literals are taken in source position. A
//! filter that is not ready waits until a binding makes it ready
//! (equalities go out before sums, sums before negations); one that still
//! waits at the end is the planning error ([`Planner::blocked`]). Each
//! scan keeps the `(rows, estimate)` it was chosen by in
//! [`ConjPlan::scans`], which is what `--explain` prints. Without
//! statistics the same loop runs over an empty snapshot — every relation at
//! the unknown-size estimate, so the subgoal with the most bound columns
//! goes first — and counts the fallback.
//!
//! Ordering is semantics-preserving — positive atoms, equalities, sums and
//! stratified negations commute (a negation reads only *completed* lower
//! strata) — so the only constraint is structural: the Separable carry
//! loops and seed joins, which read carry or seen first as Figure 2 does,
//! *pin* that prefix with the `pinned` argument of [`Planner::plan`].

use std::cell::Cell;

use sepra_ast::{Sym, Term};
use sepra_storage::{Database, EvalStats, FxHashMap, FxHashSet, Relation, Value};

use crate::error::EvalError;
use crate::plan::{ConjPlan, PlanAtom, PlanLiteral, RelKey, Step, TermSpec};

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
    /// Per relation: its row count and the distinct values per column.
    rels: FxHashMap<Sym, (f64, Vec<f64>)>,
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
            Some(rs) => {
                (rs.rows() as f64, (0..rel.arity()).map(|c| rs.distinct(c) as f64).collect())
            }
            None => (
                rel.len() as f64,
                (0..rel.arity())
                    .map(|c| rel.column(c).iter().collect::<FxHashSet<&Value>>().len() as f64)
                    .collect(),
            ),
        };
        self.rels.insert(pred, est);
    }

    /// `(rows of rel, estimated rows a scan of it emits)` with the columns
    /// `keyed` bound: the rows over the distinct count of each keyed column.
    fn atom_estimate(&self, rel: RelKey, keyed: impl IntoIterator<Item = usize>) -> (f64, f64) {
        let known = |p, fraction| match self.rels.get(&p) {
            Some((rows, distinct)) => (rows * fraction, Some(distinct.as_slice())),
            None => (UNKNOWN_ROWS * fraction, None),
        };
        let (rows, distinct) = match rel {
            RelKey::Pred(p) => known(p, 1.0),
            RelKey::Delta(p) => known(p, DELTA_FRACTION),
            RelKey::Aux(_) => (AUX_ROWS, None),
        };
        let mut est = rows.max(1.0);
        for c in keyed {
            est /= distinct.and_then(|d| d.get(c).copied()).unwrap_or(DEFAULT_DISTINCT).max(1.0);
        }
        (rows, est.max(MIN_ESTIMATE))
    }
}

/// The cost estimate one `Scan` step of a plan was chosen by.
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

/// A body literal that no join order can place: nothing binds what it
/// needs. It is what the planning error of [`Planner::plan`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocked {
    /// Its position in the body.
    pub literal: usize,
    /// A variable it needs that nothing binds.
    pub var: Sym,
}

/// Plans conjunction bodies, counting how often it costed one and how
/// often it had no statistics to cost it with.
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

    /// `(plans costed, fallbacks)` since construction.
    pub fn counters(&self) -> (usize, usize) {
        (self.costed.get(), self.fallbacks.get())
    }

    /// Folds this planner's counters into an [`EvalStats`].
    pub fn record_into(&self, stats: &mut EvalStats) {
        stats.plans_costed += self.costed.get();
        stats.plan_fallbacks += self.fallbacks.get();
    }

    /// Plans `body` into a [`ConjPlan`] emitting `output` per match.
    ///
    /// The first `pinned` literals are taken first, in source order —
    /// callers pin the scans their algorithm puts outermost.
    /// A body is costed (and counted) only in [`PlanMode::CostBased`] and
    /// with more than one literal after the pinned prefix; otherwise it
    /// goes in source order. Fails if a literal can never run, or an
    /// output variable is never bound.
    pub fn plan(
        &self,
        body: &[PlanLiteral],
        pinned: usize,
        output: &[Term],
    ) -> Result<ConjPlan, EvalError> {
        self.place(&[], body, pinned)?.finish(body, output)
    }

    /// The literal of `body` that no order can place, if any: the one the
    /// planning error of [`Planner::plan`] is about.
    pub fn blocked(body: &[PlanLiteral]) -> Option<Blocked> {
        Planner::source_order().place(&[], body, 0).ok()?.blocked(body)
    }

    /// The loop: takes every literal of `body`, cheapest first, into a plan
    /// whose first slots are the `inputs` the caller binds before execution.
    pub(crate) fn place(
        &self,
        inputs: &[Sym],
        body: &[PlanLiteral],
        pinned: usize,
    ) -> Result<Builder, EvalError> {
        let mut b = Builder::new(inputs)?;
        let pinned = pinned.min(body.len());
        let costed = self.mode == PlanMode::CostBased && body.len() > pinned + 1;
        let stats = self.stats.filter(|s| !s.rels.is_empty());
        if costed {
            self.costed.set(self.costed.get() + 1);
            self.fallbacks.set(self.fallbacks.get() + usize::from(stats.is_none()));
        }
        let blind = PlannerStats::default();
        let stats = stats.unwrap_or(&blind);
        // Literals before `in_order` are taken in source position.
        let in_order = if costed { pinned } else { body.len() };
        let mut remaining: Vec<usize> = (0..body.len()).collect();
        while let Some(&first) = remaining.first() {
            let next = if first < in_order {
                0
            } else {
                // A cost reads the variables the plan has named so far: the
                // bound ones, and those of a pinned filter still waiting,
                // which the caller put first to bind them.
                let cost = |&i: &usize| match &body[i] {
                    PlanLiteral::Atom(atom) => stats.atom_estimate(atom.rel, b.keyed(atom)).1,
                    lit if ready(lit, terms(lit).map(|t| b.named(t))) => f64::NEG_INFINITY,
                    _ => f64::INFINITY,
                };
                // `min_by` keeps the earliest of equal costs.
                let costs = remaining.iter().map(cost).enumerate();
                costs.min_by(|x, y| x.1.total_cmp(&y.1)).map_or(0, |(k, _)| k)
            };
            b.take(body, remaining.remove(next), stats)?;
        }
        Ok(b)
    }
}

/// The terms of `lit`, in the order its step reads them.
fn terms(lit: &PlanLiteral) -> impl Iterator<Item = &Term> {
    let (cols, small): (&[Term], [Option<&Term>; 3]) = match lit {
        PlanLiteral::Atom(atom) | PlanLiteral::Neg(atom) => (&atom.terms, [None; 3]),
        PlanLiteral::Eq(l, r) => (&[], [Some(l), Some(r), None]),
        PlanLiteral::Sum(d, a, b) => (&[], [Some(d), Some(a), Some(b)]),
    };
    cols.iter().chain(small.into_iter().flatten())
}

/// Whether `lit` can run, given which of its [`terms`] are bound: an atom
/// always, an equality with one side bound, a sum with both addends, a
/// negation with every column.
fn ready(lit: &PlanLiteral, mut bound: impl Iterator<Item = bool>) -> bool {
    match lit {
        PlanLiteral::Atom(_) => true,
        PlanLiteral::Eq(..) => bound.any(|b| b),
        PlanLiteral::Sum(..) => bound.skip(1).all(|b| b),
        PlanLiteral::Neg(_) => bound.all(|b| b),
    }
}

/// The plan under construction (its slots are the variables named so
/// far), which slots are bound, and the literals taken but not yet ready.
#[derive(Default)]
pub(crate) struct Builder {
    plan: ConjPlan,
    bound: Vec<bool>,
    /// Taken literals that cannot run yet, with their terms' specs.
    waiting: Vec<(usize, Vec<TermSpec>)>,
}

impl Builder {
    fn new(inputs: &[Sym]) -> Result<Self, EvalError> {
        let mut b = Builder::default();
        b.plan.n_inputs = inputs.len();
        for &v in inputs {
            if b.plan.var_names.contains(&v) {
                return Err(EvalError::Planning(format!("duplicate input variable slot for {v}")));
            }
            b.plan.var_names.push(v);
            b.bound.push(true);
        }
        Ok(b)
    }

    /// Whether `t` is a constant or a variable with a slot.
    fn named(&self, t: &Term) -> bool {
        !matches!(t, Term::Var(v) if !self.plan.var_names.contains(v))
    }

    /// The columns of `atom` a scan of it would key on now.
    fn keyed<'t>(&'t self, atom: &'t PlanAtom) -> impl Iterator<Item = usize> + 't {
        atom.terms.iter().enumerate().filter(|(_, t)| self.named(t)).map(|(c, _)| c)
    }

    fn term_spec(&mut self, t: &Term) -> Result<TermSpec, EvalError> {
        Ok(match t {
            Term::Var(v) => TermSpec::Slot(match self.plan.var_names.iter().position(|n| n == v) {
                Some(s) => s,
                None => {
                    self.plan.var_names.push(*v);
                    self.bound.push(false);
                    self.plan.var_names.len() - 1
                }
            }),
            Term::Const(c) => TermSpec::Const(Value::from_const(*c)?),
        })
    }

    fn spec_bound(&self, spec: &TermSpec) -> bool {
        match spec {
            TermSpec::Const(_) => true,
            TermSpec::Slot(s) => self.bound[*s],
        }
    }

    /// Takes literal `i` of `body`, naming its variables, then emits every
    /// taken literal that can run. The waiting literals are kept atoms
    /// first, then equalities, sums and negations, each kind in the order
    /// taken; a round is one pass in that order, and rounds repeat until
    /// one emits nothing.
    fn take(
        &mut self,
        body: &[PlanLiteral],
        i: usize,
        stats: &PlannerStats,
    ) -> Result<(), EvalError> {
        let specs: Vec<_> = terms(&body[i]).map(|t| self.term_spec(t)).collect::<Result<_, _>>()?;
        // With nothing waiting, a literal that can run is the only one.
        if self.waiting.is_empty() && ready(&body[i], specs.iter().map(|s| self.spec_bound(s))) {
            self.emit(&body[i], specs, stats);
            return Ok(());
        }
        let rank = |i: usize| match body[i] {
            PlanLiteral::Atom(_) => 0,
            PlanLiteral::Eq(..) => 1,
            PlanLiteral::Sum(..) => 2,
            PlanLiteral::Neg(_) => 3,
        };
        let at = self.waiting.partition_point(|&(j, _)| rank(j) <= rank(i));
        self.waiting.insert(at, (i, specs));
        let mut moved = true;
        while std::mem::take(&mut moved) && !self.waiting.is_empty() {
            let mut k = 0;
            while let Some((i, specs)) = self.waiting.get(k) {
                if ready(&body[*i], specs.iter().map(|s| self.spec_bound(s))) {
                    let (i, specs) = self.waiting.remove(k);
                    self.emit(&body[i], specs, stats);
                    moved = true;
                } else {
                    k += 1;
                }
            }
        }
        Ok(())
    }

    /// Binds `spec`'s slot, which is unbound, and returns it.
    fn bind(&mut self, spec: TermSpec) -> usize {
        let TermSpec::Slot(s) = spec else { unreachable!("an unbound spec is a slot") };
        self.bound[s] = true;
        s
    }

    /// Emits the step of `lit`, which is ready, over its terms' `specs`.
    fn emit(&mut self, lit: &PlanLiteral, specs: Vec<TermSpec>, stats: &PlannerStats) {
        let step = match lit {
            PlanLiteral::Atom(atom) => {
                let (mut key_cols, mut key, mut binds, mut same) = (vec![], vec![], vec![], vec![]);
                for (c, spec) in specs.into_iter().enumerate() {
                    match spec {
                        TermSpec::Slot(s) if !self.bound[s] => {
                            // Unbound before the scan: its first column in
                            // this atom binds it, a later one must agree.
                            match binds.iter().find(|&&(_, bound)| bound == s) {
                                Some(&(first, _)) => same.push((c, first)),
                                None => binds.push((c, s)),
                            }
                        }
                        spec => {
                            key_cols.push(c);
                            key.push(spec);
                        }
                    }
                }
                for &(_, s) in &binds {
                    self.bound[s] = true;
                }
                let (rows, estimate) = stats.atom_estimate(atom.rel, key_cols.iter().copied());
                let keyed_cols = key_cols.len();
                self.plan.scans.push(ScanEstimate { rel: atom.rel, rows, estimate, keyed_cols });
                Step::Scan { rel: atom.rel, key_cols, key, binds, same }
            }
            PlanLiteral::Eq(..) => {
                let [a, b] = specs[..] else { unreachable!("an equality has two terms") };
                match (self.spec_bound(&a), self.spec_bound(&b)) {
                    (true, true) => Step::EqCheck { a, b },
                    (true, false) => Step::EqBind { slot: self.bind(b), from: a },
                    _ => Step::EqBind { slot: self.bind(a), from: b },
                }
            }
            PlanLiteral::Sum(..) => {
                let [dst, a, b] = specs[..] else { unreachable!("a sum has three terms") };
                if self.spec_bound(&dst) {
                    Step::SumCheck { dst, a, b }
                } else {
                    Step::SumBind { slot: self.bind(dst), a, b }
                }
            }
            PlanLiteral::Neg(atom) => Step::NegCheck { rel: atom.rel, cols: specs },
        };
        self.plan.steps.push(step);
    }

    /// The waiting literal a planning error names — an equality or sum
    /// before a negation, then the earliest — and a variable it needs.
    fn blocked(&self, body: &[PlanLiteral]) -> Option<Blocked> {
        let neg_last = |(i, _): &&(usize, _)| (matches!(body[*i], PlanLiteral::Neg(_)), *i);
        let &(literal, ref specs) = self.waiting.iter().min_by_key(neg_last)?;
        // A sum's destination is what it binds, not what it needs.
        let mut needed =
            specs.iter().skip(usize::from(matches!(body[literal], PlanLiteral::Sum(..))));
        let var = needed.find_map(|spec| match spec {
            TermSpec::Slot(s) if !self.bound[*s] => Some(self.plan.var_names[*s]),
            _ => None,
        })?;
        Some(Blocked { literal, var })
    }

    /// The plan, emitting `output` per match — or the planning error of a
    /// literal of `body` still waiting.
    pub(crate) fn finish(
        mut self,
        body: &[PlanLiteral],
        output: &[Term],
    ) -> Result<ConjPlan, EvalError> {
        if let Some(blocked) = self.blocked(body) {
            return Err(EvalError::Planning(
                match body[blocked.literal] {
                    PlanLiteral::Neg(_) => {
                        "negated literal over variables that are never bound positively"
                    }
                    _ => "equality or sum literal over variables that are never bound",
                }
                .into(),
            ));
        }
        for t in output {
            match self.term_spec(t)? {
                TermSpec::Slot(s) if !self.bound[s] => {
                    return Err(EvalError::Planning(format!(
                        "output variable {} is never bound by the body",
                        self.plan.var_names[s]
                    )));
                }
                spec => self.plan.output.push(spec),
            }
        }
        self.plan.n_slots = self.plan.var_names.len();
        Ok(self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_ast::parse_program_raw;

    /// The first rule of `src`: its body, and its head terms as the output.
    fn rule_of(src: &str, db: &mut Database) -> (Vec<PlanLiteral>, Vec<Term>) {
        let p = parse_program_raw(src, db.interner_mut()).unwrap();
        let rule = &p.rules[0];
        let body = rule.body.iter().map(|l| PlanLiteral::from_literal(l, &RelKey::Pred)).collect();
        (body, rule.head.terms.clone())
    }

    /// The relation of each `Scan` step, in order.
    fn scanned(plan: &ConjPlan) -> Vec<RelKey> {
        plan.scans.iter().map(|s| s.rel).collect()
    }

    #[test]
    fn cost_ordering_puts_selective_scans_first() {
        let mut db = Database::new();
        for i in 0..500 {
            db.insert_named("big", &[&format!("u{i}"), &format!("v{i}")]).unwrap();
        }
        db.load_fact_text("probe(a, u5). q(v5, done).").unwrap();
        let (body, out) = rule_of("t(Y) :- big(W, Z), probe(a, W), q(Z, Y).\n", &mut db);
        let stats = PlannerStats::from_database(&db);
        let planner = Planner::new(PlanMode::CostBased, Some(&stats));
        let plan = planner.plan(&body, 0, &out).unwrap();
        let [probe, big, q] = ["probe", "big", "q"].map(|p| RelKey::Pred(db.intern(p)));
        // probe(a, W) has 1 row and a constant key: cheapest. With W bound,
        // big(W, Z) is keyed on its 500-distinct column (estimate 1) and no
        // longer starts a 500-row cartesian prefix.
        assert_eq!(scanned(&plan), [probe, big, q]);
        assert_eq!((plan.scans[1].rows, plan.scans[1].estimate), (500.0, 1.0));
        assert_eq!(planner.counters(), (1, 0));
    }

    #[test]
    fn pinned_prefix_never_moves() {
        let mut db = Database::new();
        for i in 0..100 {
            db.insert_named("big", &[&format!("u{i}"), &format!("v{i}")]).unwrap();
        }
        db.load_fact_text("tiny(a).").unwrap();
        let (body, out) = rule_of("t(W) :- big(W, Z), tiny(Z).\n", &mut db);
        let stats = PlannerStats::from_database(&db);
        let planner = Planner::new(PlanMode::CostBased, Some(&stats));
        let plan = planner.plan(&body, 1, &out).unwrap();
        let big = db.intern("big");
        assert_eq!(scanned(&plan)[0], RelKey::Pred(big), "pinned scan stayed first");
    }

    #[test]
    fn source_order_and_tiny_bodies_are_untouched_and_uncounted() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b).").unwrap();
        let (body, out) = rule_of("t(X, Y) :- e(X, Y).\n", &mut db);
        let stats = PlannerStats::from_database(&db);
        let cost = Planner::new(PlanMode::CostBased, Some(&stats));
        assert_eq!(cost.plan(&body, 0, &out).unwrap().steps.len(), 1);
        assert_eq!(cost.counters(), (0, 0)); // single atom: nothing to do
        let src = Planner::source_order();
        let (two, out) = rule_of("t(X, Z) :- e(X, Y), e(Y, Z), X = a.\n", &mut db);
        let plan = src.plan(&two, 0, &out).unwrap();
        assert!(matches!(
            plan.steps[..],
            [Step::Scan { .. }, Step::Scan { .. }, Step::EqCheck { .. }]
        ));
        assert_eq!(plan, ConjPlan::compile(&[], &two, &out).unwrap());
        assert_eq!(src.counters(), (0, 0));
    }

    #[test]
    fn missing_stats_fall_back_to_bound_first() {
        let mut db = Database::new();
        let (body, out) = rule_of("t(Y) :- big(W, Z), probe(a, W), q(Z, Y).\n", &mut db);
        let planner = Planner::new(PlanMode::CostBased, None);
        let plan = planner.plan(&body, 0, &out).unwrap();
        let probe = db.intern("probe");
        // The heuristic also starts from the constant-keyed probe.
        assert_eq!(scanned(&plan)[0], RelKey::Pred(probe));
        assert_eq!(planner.counters(), (1, 1));
        let mut es = EvalStats::new();
        planner.record_into(&mut es);
        assert_eq!((es.plans_costed, es.plan_fallbacks), (1, 1));
    }

    #[test]
    fn executable_equalities_go_first_dangling_ones_last() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c).").unwrap();
        let (body, out) = rule_of("t(X, Y) :- e(X, W), Y = W, X = a.\n", &mut db);
        let stats = PlannerStats::from_database(&db);
        let plan = Planner::new(PlanMode::CostBased, Some(&stats)).plan(&body, 0, &out).unwrap();
        // X = a is executable immediately and binds before the scan, which
        // then keys on X; Y = W only becomes executable after e(X, W).
        let [first, scan, last] = &plan.steps[..] else { panic!("{:?}", plan.steps) };
        assert!(matches!(first, Step::EqBind { slot: 0, .. }));
        assert!(matches!(scan, Step::Scan { key_cols, .. } if key_cols == &[0]));
        assert!(matches!(last, Step::EqBind { .. }));
    }

    #[test]
    fn scans_record_the_estimates_they_were_chosen_by() {
        let mut db = Database::new();
        for i in 0..100 {
            db.insert_named("e", &[&format!("u{i}"), &format!("v{}", i % 10)]).unwrap();
        }
        let (body, out) = rule_of("t(X, Y) :- e(X, Y), e(Y, X).\n", &mut db);
        let stats = PlannerStats::from_database(&db);
        let plan = Planner::new(PlanMode::SourceOrder, Some(&stats)).plan(&body, 0, &out).unwrap();
        let [outer, inner] = &plan.scans[..] else { panic!("{:?}", plan.scans) };
        assert_eq!((outer.keyed_cols, outer.estimate), (0, 100.0));
        assert_eq!(inner.keyed_cols, 2);
        // 100 rows / (100 distinct in col 0 × 10 distinct in col 1) = 0.1.
        assert!((inner.estimate - 0.1).abs() < 1e-9);
    }

    /// The rules every query rejects name the literal and the variable
    /// nothing binds, in both shapes: an equality and a sum.
    #[test]
    fn blocked_names_the_literal_and_the_unbound_variable() {
        let mut db = Database::new();
        for (src, var) in
            [("r(X, Y) :- e(X, Z), Y = W.\n", "Y"), ("r(X, S) :- e(X, Z), S = Z + Q.\n", "Q")]
        {
            let (body, out) = rule_of(src, &mut db);
            let var = db.intern(var);
            assert_eq!(Planner::blocked(&body), Some(Blocked { literal: 1, var }), "{src}");
            let err = Planner::source_order().plan(&body, 0, &out).unwrap_err();
            assert_eq!(
                err.to_string(),
                "planning error: equality or sum literal over variables that are never bound"
            );
        }
        let (body, _) = rule_of("r(X) :- e(X, Z), !f(X, Q).\n", &mut db);
        let q = db.intern("Q");
        assert_eq!(Planner::blocked(&body), Some(Blocked { literal: 1, var: q }));
        let (body, _) = rule_of("r(X) :- e(X, Z), Z = 3.\n", &mut db);
        assert_eq!(Planner::blocked(&body), None);
    }
}
