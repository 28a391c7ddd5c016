//! Stratified semi-naive evaluation.
//!
//! The general-purpose bottom-up engine: predicates are evaluated one
//! strongly connected component at a time in dependency order; within a
//! recursive component, delta rules ensure each join only considers tuples
//! produced in the previous iteration. This engine evaluates ordinary
//! programs, the Magic-Sets-rewritten programs, and serves as the ground
//! truth against which the specialized Separable algorithm is validated.
//!
//! It is also the reference engine for *stratified* programs: negated
//! literals read the completed relations of lower strata (the dependency
//! graph includes negation edges, so SCC order already sequences them), and
//! aggregate heads (`shortest(Y, min<C>) :- ...`) merge candidate rows
//! through an `AggState` that keeps exactly one stored tuple per group.
//! `min`/`max` improve monotonically under the sanctioned direct
//! self-recursion; `count`/`sum` fold distinct contributions in their own
//! (non-recursive) stratum. Programs with no stratified model are rejected
//! up front with [`EvalError::Unstratifiable`] — never silently
//! mis-evaluated.

use std::sync::Arc;

use sepra_ast::{AggFunc, AggSpec, DependencyGraph, Interner, Literal, Program, Rule, Sym};
use sepra_storage::{Database, EvalStats, FxHashMap, Relation, Tuple, Value};

use crate::budget::Budget;
use crate::error::EvalError;
use crate::plan::{ConjPlan, PlanLiteral, RelKey};
use crate::planner::{PlanMode, Planner, PlannerStats};
use crate::round::{delta_round, RoundPlan, RowBuf};
use crate::store::{IndexCache, RelStore};

/// Tuning knobs for the semi-naive engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalOptions {
    /// Ignored: every delta round runs on the calling thread. Kept so that
    /// code naming the field still builds.
    pub threads: usize,
    /// Resource budget checked at every iteration barrier (unlimited by
    /// default).
    pub budget: Budget,
    /// How rule bodies are ordered before compilation: cost-based from
    /// relation statistics (the default) or exactly as written.
    pub plan_mode: PlanMode,
}

/// The result of a bottom-up evaluation: one relation per IDB predicate,
/// plus the cost statistics the paper compares algorithms by.
#[derive(Debug)]
pub struct Derived {
    /// Final contents of every IDB predicate, each behind a shared handle
    /// as a [`Database`] holds its relations.
    pub relations: FxHashMap<Sym, Arc<Relation>>,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

impl Derived {
    /// The derived relation for `pred`, if it was computed.
    pub fn relation(&self, pred: Sym) -> Option<&Relation> {
        self.relations.get(&pred).map(|r| &**r)
    }
}

/// Evaluates `program` over `db` with semi-naive iteration.
///
/// ```
/// use sepra_eval::seminaive;
/// use sepra_storage::Database;
///
/// let mut db = Database::new();
/// db.load_fact_text("e(a, b). e(b, c).").unwrap();
/// let program = sepra_ast::parse_program(
///     "t(X, Y) :- e(X, Y).\n t(X, Y) :- e(X, W), t(W, Y).\n",
///     db.interner_mut(),
/// )
/// .unwrap();
/// let derived = seminaive(&program, &db).unwrap();
/// let t = db.intern("t");
/// assert_eq!(derived.relation(t).unwrap().len(), 3); // ab, bc, ac
/// ```
pub fn seminaive(program: &Program, db: &Database) -> Result<Derived, EvalError> {
    seminaive_with_options(program, db, &EvalOptions::default())
}

/// [`seminaive`] with explicit [`EvalOptions`] (budget and plan mode).
pub fn seminaive_with_options(
    program: &Program,
    db: &Database,
    options: &EvalOptions,
) -> Result<Derived, EvalError> {
    let mut stats = EvalStats::new();
    let relations = run(program, db, options, &mut stats)?;
    // Record final sizes under the predicates' display names.
    for (&pred, rel) in &relations {
        stats.record_size(db.interner().resolve(pred), rel.len());
    }
    Ok(Derived { relations, stats })
}

/// One compiled delta-rule variant. Shared with the incremental
/// maintenance engine ([`crate::incremental`]), whose delta rounds are the
/// same shape with externally seeded deltas.
pub(crate) struct Variant {
    pub(crate) head: Sym,
    /// The predicate whose delta this variant reads (`None` for base rules).
    pub(crate) delta: Option<Sym>,
    pub(crate) plan: ConjPlan,
}

impl Variant {
    /// This variant as [`delta_round`] fires it.
    pub(crate) fn fire(&self) -> RoundPlan<'_> {
        RoundPlan { plan: &self.plan, frontier: self.delta.map(RelKey::Delta) }
    }
}

/// Iteration cap for fixpoints that can generate fresh values (sums and
/// aggregates): a `min` over a negative-weight cycle, or a sum feeding its
/// own input, would otherwise improve forever. Pure positive programs
/// cannot diverge (finite Herbrand base) and are not capped. The naive
/// oracle shares the constant, so the two engines agree on when a program
/// is [`EvalError::Diverged`].
pub(crate) const VALUE_ITERATION_CAP: usize = 100_000;

fn run(
    program: &Program,
    db: &Database,
    options: &EvalOptions,
    stats: &mut EvalStats,
) -> Result<FxHashMap<Sym, Arc<Relation>>, EvalError> {
    // Negation/aggregation only have a meaning under a stratified model;
    // reject programs without one up front, before any fixpoint runs.
    let graph = stratified_graph(program, db.interner())?;
    // Statistics start from the EDB and grow as strata materialize: once a
    // stratum is complete, its relations' true sizes inform the join
    // orders of every later stratum — this is what lets a Magic-rewritten
    // program keep its (small, derived) guard predicates outermost.
    let mut planner_stats = PlannerStats::from_database(db);
    let aggs = agg_specs(program);
    let mut derived = seed_from_edb(program, db, &aggs);
    for (stratum_idb, rules) in rule_strata(&graph, program) {
        eval_stratum(
            &rules,
            &stratum_idb,
            db,
            &mut derived,
            &aggs,
            options,
            stats,
            &planner_stats,
        )?;
        // The stratum is final: record its true sizes for later strata.
        for &p in &stratum_idb {
            planner_stats.add_relation(p, &derived[&p]);
        }
    }
    Ok(derived)
}

/// The dependency graph `program` is evaluated in — or, when it uses
/// negation or aggregates without a stratified model, why no engine may
/// evaluate it.
pub(crate) fn stratified_graph(
    program: &Program,
    interner: &Interner,
) -> Result<DependencyGraph, EvalError> {
    let graph = DependencyGraph::build(program);
    match graph.refusal() {
        Some(e) => Err(EvalError::Unstratifiable(e.describe(interner))),
        None => Ok(graph),
    }
}

/// One relation per rule head (facts included — a ground fact seeds its
/// predicate's derived relation), each at its from-scratch [`seed`].
pub(crate) fn seed_from_edb(
    program: &Program,
    db: &Database,
    aggs: &FxHashMap<Sym, AggSpec>,
) -> FxHashMap<Sym, Arc<Relation>> {
    let mut derived = FxHashMap::default();
    for rule in &program.rules {
        let (pred, arity) = (rule.head.pred, rule.head.arity());
        derived.entry(pred).or_insert_with(|| seed(db, pred, arity, aggs));
    }
    derived
}

/// Where `pred`'s derived relation starts: a handle on its EDB rows, or
/// empty for an aggregate head, whose EDB facts are *contributions* to fold
/// (see [`eval_stratum`]), not rows to copy.
pub(crate) fn seed(
    db: &Database,
    pred: Sym,
    arity: usize,
    aggs: &FxHashMap<Sym, AggSpec>,
) -> Arc<Relation> {
    match db.shared_relation(pred) {
        Some(rel) if !aggs.contains_key(&pred) => Arc::clone(rel),
        _ => Arc::new(Relation::new(arity)),
    }
}

/// The components of `graph` that head a rule of `program`, in evaluation
/// order: each one's rule heads, and the rules defining them in program
/// order.
pub(crate) fn rule_strata<'p>(
    graph: &DependencyGraph,
    program: &'p Program,
) -> Vec<(Vec<Sym>, Vec<&'p Rule>)> {
    let mut out = Vec::new();
    for stratum in graph.strata() {
        let rules: Vec<&Rule> =
            program.rules.iter().filter(|r| stratum.contains(&r.head.pred)).collect();
        let idb = stratum.into_iter().filter(|&p| rules.iter().any(|r| r.head.pred == p));
        if !rules.is_empty() {
            out.push((idb.collect(), rules));
        }
    }
    out
}

/// The aggregate annotation of every aggregate head in `program`
/// (parse-time validation guarantees all rules of a predicate agree).
pub(crate) fn agg_specs(program: &Program) -> FxHashMap<Sym, AggSpec> {
    program.rules.iter().filter_map(|r| r.agg.clone().map(|a| (r.head.pred, a))).collect()
}

/// Evaluates one stratum (one SCC of the dependency graph) to fixpoint.
///
/// `derived` must already hold the *completed* relations of every lower
/// stratum — negated literals read them directly — and pre-seeded relations
/// for `stratum_idb` itself: EDB rows for plain predicates, **empty** for
/// aggregate heads (their EDB facts are folded as contributions here).
/// Callers are responsible for ordering: the strata loop in [`run`], and
/// the recomputation of a component that negates or aggregates in
/// [`crate::incremental`], which re-runs this very function so
/// maintenance cannot drift from from-scratch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_stratum(
    rules: &[&Rule],
    stratum_idb: &[Sym],
    db: &Database,
    derived: &mut FxHashMap<Sym, Arc<Relation>>,
    aggs: &FxHashMap<Sym, AggSpec>,
    options: &EvalOptions,
    stats: &mut EvalStats,
    planner_stats: &PlannerStats,
) -> Result<(), EvalError> {
    let mut base_plans: Vec<Variant> = Vec::new();
    let mut rec_plans: Vec<Variant> = Vec::new();
    {
        let planner = Planner::new(options.plan_mode, Some(planner_stats));
        for rule in rules {
            let occurrences: Vec<usize> = rule
                .body
                .iter()
                .enumerate()
                .filter_map(|(i, l)| match l {
                    // Only *positive* occurrences drive deltas: negation
                    // reads completed strata, never a delta (stratification
                    // guarantees no same-stratum negation anyway).
                    Literal::Atom(a) if stratum_idb.contains(&a.pred) => Some(i),
                    _ => None,
                })
                .collect();
            if occurrences.is_empty() {
                base_plans.push(compile_variant(rule, None, &planner)?);
            } else {
                for &occ in &occurrences {
                    rec_plans.push(compile_variant(rule, Some(occ), &planner)?);
                }
            }
        }
        planner.record_into(stats);
    }

    // Aggregate merge state for this stratum's aggregate heads, seeded by
    // folding the predicate's own EDB facts as contributions.
    let mut rounds = Rounds::new(db, options, "semi-naive fixpoint");
    for &p in stratum_idb {
        let Some(spec) = aggs.get(&p) else { continue };
        let rel = Arc::make_mut(derived.get_mut(&p).expect("derived relation exists"));
        let mut state = AggState::new(spec, rel.arity());
        if let Some(edb) = db.relation(p) {
            state.merge(edb.iter().map(|row| row.to_vec()), rel, stats, None);
        }
        rounds.aggs.insert(p, state);
    }
    // Sums and aggregates can mint fresh values; cap those fixpoints.
    let capped = !rounds.aggs.is_empty()
        || rules.iter().any(|r| r.body.iter().any(|l| matches!(l, Literal::Sum(..))));

    // Evaluate base rules once.
    let base: Vec<&Variant> = base_plans.iter().collect();
    rounds.step(&base, derived, &FxHashMap::default(), stats, None)?;
    options.budget.check(rounds.what, stats.iterations, stats.tuples_inserted)?;

    // Initial deltas = everything known so far for the stratum.
    let mut delta: FxHashMap<Sym, Relation> =
        stratum_idb.iter().map(|&p| (p, Relation::clone(&derived[&p]))).collect();

    if rec_plans.is_empty() {
        return Ok(());
    }

    let rec: Vec<&Variant> = rec_plans.iter().collect();
    let mut iterations = 0usize;
    loop {
        stats.record_iteration();
        iterations += 1;
        if capped && iterations > VALUE_ITERATION_CAP {
            return Err(EvalError::Diverged {
                what: "fixpoint over sums/aggregates".into(),
                bound: VALUE_ITERATION_CAP,
            });
        }
        options.budget.check(rounds.what, stats.iterations, stats.tuples_inserted)?;
        let mut new_delta: FxHashMap<Sym, Relation> = FxHashMap::default();
        rounds.step(&rec, derived, &delta, stats, Some(&mut new_delta))?;
        if new_delta.values().all(Relation::is_empty) {
            break;
        }
        delta = new_delta;
    }
    Ok(())
}

/// What every round of one fixpoint shares: the EDB it runs over, the
/// caller's options, the persistent index cache, and the merge state of
/// the stratum's aggregate heads (empty for plain strata).
pub(crate) struct Rounds<'a> {
    db: &'a Database,
    options: &'a EvalOptions,
    /// Names the loop in budget errors.
    pub(crate) what: &'static str,
    indexes: IndexCache,
    pub(crate) aggs: FxHashMap<Sym, AggState>,
}

impl<'a> Rounds<'a> {
    pub(crate) fn new(db: &'a Database, options: &'a EvalOptions, what: &'static str) -> Self {
        Rounds { db, options, what, indexes: IndexCache::new(), aggs: FxHashMap::default() }
    }

    /// One semi-naive step: fires `variants` over `(db, derived, delta)`
    /// through [`delta_round`], then merges what each produced into its
    /// head's relation — a set insert, or a fold through the head's
    /// [`AggState`]. The merge waits for the barrier because the round's
    /// store borrows `derived`; tuples that changed a relation also join
    /// `new_delta` when one is given. A head nothing was produced for is
    /// left alone, so a relation shared with a snapshot is not copied.
    pub(crate) fn step(
        &mut self,
        variants: &[&Variant],
        derived: &mut FxHashMap<Sym, Arc<Relation>>,
        delta: &FxHashMap<Sym, Relation>,
        stats: &mut EvalStats,
        mut new_delta: Option<&mut FxHashMap<Sym, Relation>>,
    ) -> Result<(), EvalError> {
        let plans: Vec<RoundPlan<'_>> = variants.iter().map(|v| v.fire()).collect();
        let mut produced = vec![RowBuf::default(); plans.len()];
        let scanned = delta_round(
            &plans,
            &build_store(self.db, derived, delta),
            Some(&mut self.indexes),
            &self.options.budget,
            self.what,
            &mut |i, rows| produced[i].extend(rows),
        )?;
        stats.record_scanned(scanned as usize);
        // Where each plain head's relation ended before this step's merge.
        let mut grown: Vec<(Sym, usize)> = Vec::new();
        for (variant, rows) in variants.iter().zip(&produced).filter(|(_, rows)| !rows.is_empty()) {
            let head = variant.head;
            let rel = Arc::make_mut(derived.get_mut(&head).expect("derived relation exists"));
            if let Some(state) = self.aggs.get_mut(&head) {
                let arity = rel.arity();
                let changed = new_delta.as_deref_mut();
                let changed =
                    changed.map(|d| d.entry(head).or_insert_with(|| Relation::new(arity)));
                state.merge(rows.rows(), rel, stats, changed);
            } else {
                if !grown.iter().any(|&(p, _)| p == head) {
                    grown.push((head, rel.len()));
                }
                let new = rows.insert_into(rel);
                stats.record_inserts(rows.len(), new);
            }
        }
        // A set insert appends, so what a plain head gained this step is the
        // tail of its relation: the delta is a slice of it — same rows, same
        // order as inserting each new row a second time, with no hashing and
        // no probing. (An aggregate head's merge rewrites its relation; its
        // changed tuples are collected as they happen.)
        if let Some(new_delta) = new_delta {
            for (head, before) in grown {
                let rel = &derived[&head];
                if rel.len() > before {
                    new_delta.insert(head, rel.slice_range(before..rel.len()));
                }
            }
        }
        Ok(())
    }
}

/// Plans one rule with body-atom occurrence `delta_occ` (the body index
/// of a positive atom) reading the delta relation instead of the full one,
/// in one `planner` pass that orders and compiles the body.
pub(crate) fn compile_variant(
    rule: &Rule,
    delta_occ: Option<usize>,
    planner: &Planner<'_>,
) -> Result<Variant, EvalError> {
    let body: Vec<PlanLiteral> = rule
        .body
        .iter()
        .enumerate()
        .map(|(i, lit)| {
            let delta_here = Some(i) == delta_occ;
            PlanLiteral::from_literal(lit, &|p| {
                if delta_here {
                    RelKey::Delta(p)
                } else {
                    RelKey::Pred(p)
                }
            })
        })
        .collect();
    let delta = delta_occ.map(|occ| match &rule.body[occ] {
        Literal::Atom(atom) => atom.pred,
        other => unreachable!("delta occurrence {occ} is not a positive atom: {other:?}"),
    });
    let plan = planner.plan(&body, 0, &rule.head.terms)?;
    Ok(Variant { head: rule.head.pred, delta, plan })
}

pub(crate) fn build_store<'a>(
    db: &'a Database,
    derived: &'a FxHashMap<Sym, Arc<Relation>>,
    delta: &'a FxHashMap<Sym, Relation>,
) -> RelStore<'a> {
    let mut store = RelStore::new();
    for (p, r) in db.relations() {
        store.bind(RelKey::Pred(p), r);
    }
    // Derived shadows EDB.
    for (&p, r) in derived {
        store.bind(RelKey::Pred(p), r);
    }
    for (&p, r) in delta {
        store.bind(RelKey::Delta(p), r);
    }
    store
}

/// Merge state for one aggregate head: the current aggregate value of every
/// group (the row minus the aggregate column), from which [`AggState::merge`]
/// keeps exactly one stored tuple per group.
///
/// A merge is a fold over one step's rows against the group table; the
/// stored relation is not read and is rewritten once, when the fold is done:
/// one [`Relation::remove_batch`] of the tuples it held for the groups that
/// changed, then their current tuples appended in the order the groups last
/// changed — the relation a retract and an insert per change would leave,
/// for one compaction per call. The fold allocates per new group, not per row.
///
/// Aggregates fold over **distinct** contribution rows (set semantics, like
/// everything else in the engine): `count`/`sum` count each distinct
/// `(group, value)` row once, and a rule deriving the same row twice
/// contributes once. Non-integer contributions to `min`/`max`/`sum` derive
/// nothing, matching the partial-function reading of `C = A + B`.
pub(crate) struct AggState {
    func: AggFunc,
    pos: usize,
    /// Group key → the group's slot in `groups`.
    slots: FxHashMap<Vec<Value>, usize>,
    groups: Vec<Group>,
    /// Distinct contribution rows already folded (`count`/`sum` only).
    seen: Relation,
    /// How many times a group's value has changed, over every merge.
    changes: usize,
    /// The key of the row being folded; reused, so a lookup allocates nothing.
    key: Vec<Value>,
}

struct Group {
    /// The aggregate's current value.
    value: Value,
    /// Which change set it, counting from zero over the state's life.
    last: usize,
}

impl AggState {
    /// State for the aggregate `spec` of a head with `arity` columns.
    pub(crate) fn new(spec: &AggSpec, arity: usize) -> Self {
        AggState {
            func: spec.func,
            pos: spec.pos,
            slots: FxHashMap::default(),
            groups: Vec::new(),
            seen: Relation::new(arity),
            changes: 0,
            key: Vec::new(),
        }
    }

    /// Folds one candidate row into the group table; when that changes its
    /// group's value, returns the group's slot and the value it had.
    fn fold(&mut self, row: &[Value]) -> Option<(usize, Option<Value>)> {
        let offered = row[self.pos];
        let n = if self.func == AggFunc::Count { 1 } else { offered.as_int()? };
        if matches!(self.func, AggFunc::Count | AggFunc::Sum) && !self.seen.insert_row(row) {
            return None;
        }
        self.key.clear();
        self.key.extend_from_slice(&row[..self.pos]);
        self.key.extend_from_slice(&row[self.pos + 1..]);
        let slot = self.slots.get(self.key.as_slice()).copied();
        let old = slot.map(|s| self.groups[s].value);
        let held = old.map(|v| v.as_int().expect("stored aggregate is an integer"));
        let value = match self.func {
            AggFunc::Min if held.is_some_and(|c| n >= c) => return None,
            AggFunc::Max if held.is_some_and(|c| n <= c) => return None,
            AggFunc::Min | AggFunc::Max => offered,
            // Out-of-range sums drop the contribution rather than wrap.
            AggFunc::Count | AggFunc::Sum => Value::int(held.unwrap_or(0).checked_add(n)?).ok()?,
        };
        if old == Some(value) {
            return None; // zero contribution to a sum: value unchanged
        }
        let slot = slot.unwrap_or_else(|| {
            self.slots.insert(self.key.clone(), self.groups.len());
            self.groups.push(Group { value, last: 0 });
            self.groups.len() - 1
        });
        self.groups[slot].value = value;
        Some((slot, old))
    }

    /// Folds `rows` in order, then brings `rel` up to date with the groups
    /// they changed. Every change of a group's value is one
    /// `record_insert(true)` and, when a `delta` is given, one tuple offered
    /// to it — values a later row of the same call superseded included; every
    /// other row is a `record_insert(false)`.
    pub(crate) fn merge<R: AsRef<[Value]>>(
        &mut self,
        rows: impl IntoIterator<Item = R>,
        rel: &mut Relation,
        stats: &mut EvalStats,
        mut delta: Option<&mut Relation>,
    ) {
        let (arity, first) = (rel.arity(), self.changes);
        // This call's changes, in order: the tuples they stored, row-major,
        // and their groups; and what `rel` holds for a group changed here.
        let (mut stored, mut changed) = (Vec::new(), Vec::new());
        let mut superseded: Vec<Tuple> = Vec::new();
        for row in rows {
            let row = row.as_ref();
            let Some((slot, old)) = self.fold(row) else {
                stats.record_insert(false);
                continue;
            };
            stats.record_insert(true);
            let at = stored.len();
            stored.extend_from_slice(row);
            let group = &mut self.groups[slot];
            if let Some(old) = old.filter(|_| group.last < first) {
                stored[at + self.pos] = old;
                superseded.push(Tuple::new(&stored[at..]));
            }
            stored[at + self.pos] = group.value;
            if let Some(delta) = delta.as_deref_mut() {
                delta.insert_row(&stored[at..]);
            }
            group.last = self.changes;
            self.changes += 1;
            changed.push(slot);
        }
        if !superseded.is_empty() {
            rel.remove_batch(&superseded);
        }
        for (i, (tuple, &slot)) in stored.chunks_exact(arity).zip(&changed).enumerate() {
            if self.groups[slot].last == first + i {
                rel.insert_row(tuple);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_ast::parse_program;

    fn eval(program_src: &str, facts: &str) -> (Derived, Database) {
        let mut db = Database::new();
        db.load_fact_text(facts).unwrap();
        let program = parse_program(program_src, db.interner_mut()).unwrap();
        let derived = seminaive(&program, &db).unwrap();
        (derived, db)
    }

    #[test]
    fn transitive_closure_on_a_chain() {
        let (d, mut db) = eval(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n",
            "e(a, b). e(b, c). e(c, d).",
        );
        let t = db.intern("t");
        // Closure of a 3-edge chain has 3+2+1 = 6 pairs.
        assert_eq!(d.relation(t).unwrap().len(), 6);
    }

    #[test]
    fn transitive_closure_terminates_on_cycles() {
        let (d, mut db) = eval(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n",
            "e(a, b). e(b, c). e(c, a).",
        );
        let t = db.intern("t");
        assert_eq!(d.relation(t).unwrap().len(), 9); // complete on {a,b,c}
    }

    #[test]
    fn nonlinear_recursion_is_supported() {
        let (d, mut db) = eval(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), t(W, Y).\n",
            "e(a, b). e(b, c). e(c, d). e(d, e).",
        );
        let t = db.intern("t");
        assert_eq!(d.relation(t).unwrap().len(), 4 + 3 + 2 + 1);
    }

    #[test]
    fn multi_stratum_programs() {
        let (d, mut db) = eval(
            "t(X, Y) :- e(X, Y).\n\
             t(X, Y) :- e(X, W), t(W, Y).\n\
             pair(X, Y) :- t(X, Y), t(Y, X).\n",
            "e(a, b). e(b, a). e(b, c).",
        );
        let pair = db.intern("pair");
        let rel = d.relation(pair).unwrap();
        // a<->b loop: pairs (a,a),(a,b),(b,a),(b,b).
        assert_eq!(rel.len(), 4);
    }

    #[test]
    fn program_facts_seed_idb() {
        let (d, mut db) = eval("t(X, Y) :- e(X, W), t(W, Y).\nt(seed, goal).\n", "e(a, seed).");
        let t = db.intern("t");
        assert_eq!(d.relation(t).unwrap().len(), 2); // (seed,goal), (a,goal)
    }

    #[test]
    fn idb_on_top_of_edb_same_predicate() {
        // `e` has EDB facts AND a rule deriving into it.
        let (d, mut db) = eval("e(X, Y) :- extra(X, Y).\n", "e(a, b). extra(c, d).");
        let e = db.intern("e");
        assert_eq!(d.relation(e).unwrap().len(), 2);
    }

    #[test]
    fn mutual_recursion_same_stratum() {
        let (d, mut db) = eval(
            "even(X) :- zero(X).\n\
             even(X) :- succ(Y, X), odd(Y).\n\
             odd(X) :- succ(Y, X), even(Y).\n",
            "zero(n0). succ(n0, n1). succ(n1, n2). succ(n2, n3).",
        );
        let even = db.intern("even");
        let odd = db.intern("odd");
        assert_eq!(d.relation(even).unwrap().len(), 2); // n0, n2
        assert_eq!(d.relation(odd).unwrap().len(), 2); // n1, n3
    }

    #[test]
    fn same_generation() {
        let (d, mut db) = eval(
            "sg(X, Y) :- flat(X, Y).\n\
             sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n",
            "up(a, p). up(b, q). flat(p, q). down(p, a2). down(q, b2).",
        );
        let sg = db.intern("sg");
        let rel = d.relation(sg).unwrap();
        // flat(p,q) plus derived sg(a, b2).
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn nonrecursive_strata_run_zero_iterations() {
        // Base rules are evaluated once, before the fixpoint loop; only
        // rounds of the recursive loop count as iterations. Bounded-
        // recursion elimination (sepra-rewrite) leans on this: rewriting
        // a bounded recursion to nonrecursive rules is what makes its
        // "zero fixpoint iterations" claim literal, not approximate.
        let (d, mut db) = eval("t(X, Y) :- e(X, Y).\np(X) :- t(X, _).\n", "e(a, b). e(b, c).");
        assert_eq!(d.stats.iterations, 0);
        let p = db.intern("p");
        assert_eq!(d.relation(p).unwrap().len(), 2);
    }

    #[test]
    fn stats_are_populated() {
        let (d, _) =
            eval("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n", "e(a, b). e(b, c).");
        assert!(d.stats.iterations >= 2);
        assert!(d.stats.tuples_inserted >= 3);
        assert_eq!(d.stats.relation_sizes["t"], 3);
    }

    #[test]
    fn parallel_threads_match_serial_answers() {
        let src = "t(X, Y) :- e(X, Y).\n\
                   t(X, Y) :- e(X, W), t(W, Y).\n\
                   pair(X, Y) :- t(X, Y), t(Y, X).\n";
        let facts = "e(a, b). e(b, c). e(c, a). e(c, d). e(d, e). e(e, f).";
        let mut db = Database::new();
        db.load_fact_text(facts).unwrap();
        let program = parse_program(src, db.interner_mut()).unwrap();
        let serial = seminaive(&program, &db).unwrap();
        let par = seminaive_with_options(&program, &db, &EvalOptions::default()).unwrap();
        for (pred, rel) in &serial.relations {
            assert_eq!(par.relations.get(pred), Some(rel), "diverged");
        }
        assert_eq!(par.relations.len(), serial.relations.len());
    }

    #[test]
    fn parallel_nonlinear_recursion_matches_serial() {
        // Non-linear rules make delta self-joins.
        let src = "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), t(W, Y).\n";
        let facts = "e(a, b). e(b, c). e(c, d). e(d, e). e(e, f). e(f, g).";
        let mut db = Database::new();
        db.load_fact_text(facts).unwrap();
        let program = parse_program(src, db.interner_mut()).unwrap();
        let serial = seminaive(&program, &db).unwrap();
        let par = seminaive_with_options(&program, &db, &EvalOptions::default()).unwrap();
        let t = db.intern("t");
        assert_eq!(par.relations[&t], serial.relations[&t]);
        assert_eq!(serial.relations[&t].len(), 6 + 5 + 4 + 3 + 2 + 1);
    }

    #[test]
    fn stratified_negation_set_difference() {
        let (d, mut db) = eval("only(X) :- a(X), !b(X).\n", "a(x). a(y). a(z). b(y).");
        let only = db.intern("only");
        assert_eq!(d.relation(only).unwrap().len(), 2);
    }

    #[test]
    fn negation_reads_completed_lower_stratum() {
        let (d, mut db) = eval(
            "t(X, Y) :- e(X, Y).\n\
             t(X, Y) :- e(X, W), t(W, Y).\n\
             unreach(X, Y) :- node(X), node(Y), !t(X, Y).\n",
            "e(a, b). e(b, c). node(a). node(b). node(c).",
        );
        let unreach = db.intern("unreach");
        // 9 pairs minus the 3 reachable ones (ab, bc, ac).
        assert_eq!(d.relation(unreach).unwrap().len(), 6);
    }

    #[test]
    fn min_aggregate_shortest_path() {
        let (d, mut db) = eval(
            "shortest(Y, min<C>) :- source(X), edge(X, Y, C).\n\
             shortest(Y, min<C>) :- shortest(X, D), edge(X, Y, W), C = D + W.\n",
            "source(a). edge(a, b, 1). edge(b, c, 1). edge(a, c, 5). edge(c, d, 1).",
        );
        let shortest = db.intern("shortest");
        let rel = d.relation(shortest).unwrap();
        // One stored tuple per reachable node, holding the min distance:
        // b=1, c=2 (not 5), d=3.
        assert_eq!(rel.len(), 3);
        for (node, dist) in [("b", 1), ("c", 2), ("d", 3)] {
            let n = db.intern(node);
            assert!(
                rel.contains_values(&[Value::sym(n), Value::int(dist).unwrap()]),
                "expected shortest({node}, {dist})"
            );
        }
    }

    #[test]
    fn count_aggregate_over_closure() {
        let (d, mut db) = eval(
            "t(X, Y) :- e(X, Y).\n\
             t(X, Y) :- e(X, W), t(W, Y).\n\
             reach(X, count<Y>) :- t(X, Y).\n",
            "e(a, b). e(b, c).",
        );
        let reach = db.intern("reach");
        let rel = d.relation(reach).unwrap();
        assert_eq!(rel.len(), 2);
        let a = db.intern("a");
        let b = db.intern("b");
        assert!(rel.contains_values(&[Value::sym(a), Value::int(2).unwrap()]));
        assert!(rel.contains_values(&[Value::sym(b), Value::int(1).unwrap()]));
    }

    #[test]
    fn sum_aggregate_folds_distinct_contributions() {
        // Set semantics: sum<C> sums the *distinct* values of C per group —
        // the two sales at price 3 project to the same (shop, 3) row, which
        // contributes once. Group by item to sum per item.
        let (d, mut db) = eval(
            "total(X, sum<C>) :- sale(X, _, C).\n",
            "sale(shop, i1, 3). sale(shop, i2, 4). sale(shop, i3, 3).",
        );
        let total = db.intern("total");
        let shop = db.intern("shop");
        let rel = d.relation(total).unwrap();
        assert_eq!(rel.len(), 1);
        assert!(rel.contains_values(&[Value::sym(shop), Value::int(7).unwrap()]));
    }

    #[test]
    fn edb_facts_seed_aggregate_heads_as_contributions() {
        // shortest also has EDB facts: they fold through the min, they are
        // not copied verbatim alongside the derived tuple.
        let (d, mut db) = eval(
            "shortest(Y, min<C>) :- source(X), edge(X, Y, C).\n\
             shortest(Y, min<C>) :- shortest(X, D), edge(X, Y, W), C = D + W.\n\
             shortest(b, 7).\n",
            "source(a). edge(a, b, 3). shortest(c, 9).",
        );
        let shortest = db.intern("shortest");
        let rel = d.relation(shortest).unwrap();
        let b = db.intern("b");
        let c = db.intern("c");
        assert_eq!(rel.len(), 2, "one tuple per group");
        assert!(rel.contains_values(&[Value::sym(b), Value::int(3).unwrap()]));
        assert!(rel.contains_values(&[Value::sym(c), Value::int(9).unwrap()]));
    }

    #[test]
    fn unstratifiable_negation_is_refused() {
        let mut db = Database::new();
        db.load_fact_text("a(x).").unwrap();
        let program =
            parse_program("p(X) :- a(X), !q(X).\nq(X) :- p(X).\n", db.interner_mut()).unwrap();
        let err = seminaive(&program, &db).unwrap_err();
        assert!(matches!(err, EvalError::Unstratifiable(_)), "got {err:?}");
    }

    #[test]
    fn count_in_recursion_is_refused() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b).").unwrap();
        let program =
            parse_program("reach(X, count<C>) :- reach(Y, C), e(Y, X).\n", db.interner_mut())
                .unwrap();
        let err = seminaive(&program, &db).unwrap_err();
        assert!(matches!(err, EvalError::Unstratifiable(_)), "got {err:?}");
    }

    #[test]
    fn parallel_threads_match_serial_on_stratified_program() {
        let src = "t(X, Y) :- e(X, Y).\n\
                   t(X, Y) :- e(X, W), t(W, Y).\n\
                   unreach(X, Y) :- node(X), node(Y), !t(X, Y).\n\
                   shortest(Y, min<C>) :- source(X), w(X, Y, C).\n\
                   shortest(Y, min<C>) :- shortest(X, D), w(X, Y, W2), C = D + W2.\n";
        let facts = "e(a, b). e(b, c). e(c, a). node(a). node(b). node(c). node(d). \
                     source(a). w(a, b, 2). w(b, c, 2). w(a, c, 5). w(c, d, 1).";
        let mut db = Database::new();
        db.load_fact_text(facts).unwrap();
        let program = parse_program(src, db.interner_mut()).unwrap();
        let serial = seminaive(&program, &db).unwrap();
        let par = seminaive_with_options(&program, &db, &EvalOptions::default()).unwrap();
        for (pred, rel) in &serial.relations {
            assert_eq!(par.relations.get(pred), Some(rel), "diverged");
        }
    }

    #[test]
    fn empty_edb_yields_empty_idb() {
        let (d, mut db) = eval("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n", "other(a).");
        let t = db.intern("t");
        assert!(d.relation(t).unwrap().is_empty());
    }

    #[test]
    fn a_plain_heads_delta_is_the_tail_its_merge_appended() {
        // Both delta variants of the non-linear rule feed `t`, and both
        // re-derive tuples the other (or an earlier round) already produced.
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c). e(c, d). e(d, a). e(b, e5). e(e5, c).").unwrap();
        let src = "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), t(W, Y).\n";
        let program = parse_program(src, db.interner_mut()).unwrap();
        let (e, t) = (db.intern("e"), db.intern("t"));
        let planner = Planner::new(PlanMode::default(), None);
        let variants: Vec<Variant> = [0, 1]
            .map(|occ| compile_variant(&program.rules[1], Some(occ), &planner).unwrap())
            .into();
        let fire: Vec<&Variant> = variants.iter().collect();
        let options = EvalOptions::default();
        let mut rounds = Rounds::new(&db, &options, "test");
        let mut stats = EvalStats::new();
        let mut derived: FxHashMap<Sym, Arc<Relation>> =
            [(t, Arc::clone(db.shared_relation(e).unwrap()))].into_iter().collect();
        let mut delta: FxHashMap<Sym, Relation> =
            derived.iter().map(|(&p, r)| (p, Relation::clone(r))).collect();
        let rows = |r: &Relation| r.iter().map(|row| row.to_vec()).collect::<Vec<_>>();
        let mut productive_rounds = 0;
        while !delta.is_empty() {
            // The merge as it was: every produced row offered to the head,
            // every new one inserted a second time into the delta.
            let (mut head, mut twice) = (Relation::clone(&derived[&t]), Relation::new(2));
            let plans: Vec<RoundPlan<'_>> = fire.iter().map(|v| v.fire()).collect();
            delta_round(
                &plans,
                &build_store(&db, &derived, &delta),
                Some(&mut IndexCache::new()),
                &options.budget,
                "test",
                &mut |_, produced| {
                    for row in produced.rows() {
                        if head.insert_row(row) {
                            twice.insert_row(row);
                        }
                    }
                },
            )
            .unwrap();
            let mut new_delta = FxHashMap::default();
            rounds.step(&fire, &mut derived, &delta, &mut stats, Some(&mut new_delta)).unwrap();
            assert_eq!(rows(&derived[&t]), rows(&head));
            assert_eq!(new_delta.contains_key(&t), !twice.is_empty());
            if let Some(sliced) = new_delta.get(&t) {
                assert_eq!(rows(sliced), rows(&twice));
                assert!(twice.iter().all(|row| sliced.contains_row(row)));
                productive_rounds += 1;
            }
            delta = new_delta;
        }
        assert!(productive_rounds >= 2, "the closure takes several rounds");
        assert!(stats.insert_attempts > stats.tuples_inserted, "duplicates were offered");
    }

    #[test]
    fn a_count_head_compacts_once_per_merge_not_once_per_row() {
        // 24 groups of 16 rows from each of two rules: two merges, the second
        // of which moves every group — 744 changes of a stored tuple in all.
        let mut facts = String::new();
        for k in 0..24 * 16 {
            facts.push_str(&format!("reach(x{}, y{k}). more(x{}, z{k}). ", k % 24, k % 24));
        }
        let (d, mut db) = eval(
            "nreach(X, count<Y>) :- reach(X, Y).\nnreach(X, count<Y>) :- more(X, Y).\n",
            &facts,
        );
        let rel = d.relation(db.intern("nreach")).unwrap();
        assert_eq!(rel.len(), 24);
        assert!(rel.iter().all(|row| row[1] == Value::int(32).unwrap()));
        assert_eq!(d.stats.tuples_inserted, 2 * 24 * 16);
        assert!(rel.compaction_epoch() <= 2, "{} compactions", rel.compaction_epoch());
    }

    #[test]
    fn a_recursive_min_compacts_once_per_round() {
        // Every node reaches the next four, a hop of d costing d²: the chain
        // of unit hops is cheapest and found last, so a node's distance
        // improves in round after round.
        let mut facts = String::from("source(n0). ");
        for a in 0..40 {
            for d in 1..=4 {
                facts.push_str(&format!("w(n{a}, n{}, {}). ", a + d, d * d));
            }
        }
        let (d, mut db) = eval(
            "shortest(Y, min<C>) :- source(X), w(X, Y, C).\n\
             shortest(Y, min<C>) :- shortest(X, D), w(X, Y, W2), C = D + W2.\n",
            &facts,
        );
        let rel = d.relation(db.intern("shortest")).unwrap();
        assert_eq!(rel.len(), 43);
        // One merge for the base rule, one per round of the recursive one.
        let merges = d.stats.iterations + 1;
        assert!(d.stats.tuples_inserted > 3 * merges, "the distances improve many times a round");
        assert!(
            rel.compaction_epoch() as usize <= merges,
            "{} compactions",
            rel.compaction_epoch()
        );
    }

    #[test]
    fn the_aggregate_fold_allocates_per_group_not_per_row() {
        use crate::plan::tests::ALLOCATIONS;
        let int = |n: usize| Value::int(n as i64).unwrap();
        let spec = |func| AggSpec { func, pos: 1, span: sepra_ast::Span::DUMMY };
        // 64 groups; every row is a change (a new count, a lower minimum).
        let allocations_over = |func, rows: usize| {
            let flat: Vec<Value> = (0..rows).flat_map(|k| [int(k % 64), int(rows - k)]).collect();
            let (mut rel, mut delta) = (Relation::new(2), Relation::new(2));
            let mut state = AggState::new(&spec(func), 2);
            let mut stats = EvalStats::new();
            let before = ALLOCATIONS.with(std::cell::Cell::get);
            state.merge(flat.chunks_exact(2), &mut rel, &mut stats, Some(&mut delta));
            assert_eq!((rel.len(), stats.tuples_inserted), (64, rows));
            ALLOCATIONS.with(std::cell::Cell::get) - before
        };
        for func in [AggFunc::Count, AggFunc::Min] {
            let (small, large) = (allocations_over(func, 4096), allocations_over(func, 4 * 4096));
            assert!(small < 4096 / 16, "{func:?}: {small} allocations over 4096 rows");
            // Four times the rows double every growing buffer twice more: the
            // call's two, and the columns, hashes and table of `delta` and `seen`.
            assert!(
                large - small <= 2 * 10,
                "{func:?}: {small} over 4096 rows, {large} over 16384"
            );
        }
    }

    /// The aggregate of `group` over the distinct contributions `rows`
    /// (`[group, value]`, in arrival order), recomputed from nothing.
    fn reference_value(func: AggFunc, group: Value, rows: &[[Value; 2]]) -> Option<i128> {
        use sepra_storage::value::{INT_MAX_EXCLUSIVE, INT_MIN};
        let own = rows.iter().filter(|r| r[0] == group);
        let ints = own.clone().filter_map(|r| r[1].as_int()).map(i128::from);
        let fits = |n: &i128| (i128::from(INT_MIN)..i128::from(INT_MAX_EXCLUSIVE)).contains(n);
        match func {
            AggFunc::Min => ints.min(),
            AggFunc::Max => ints.max(),
            AggFunc::Count => Some(own.count() as i128).filter(|&n| n > 0),
            // A contribution that would leave the range is dropped.
            AggFunc::Sum => {
                ints.fold(None, |acc, c| Some(acc.unwrap_or(0) + c).filter(fits).or(acc))
            }
        }
    }

    proptest::proptest! {
        /// `AggState::merge` against a reference that shares no code with it
        /// (the naive oracle shares `AggState`): after every call the stored
        /// relation, row for row, the counters and the delta.
        #[test]
        fn merge_matches_a_recomputing_reference(
            func in proptest::sample::select(vec![AggFunc::Min, AggFunc::Max, AggFunc::Count, AggFunc::Sum]),
            pos in 0usize..2,
            picks in proptest::collection::vec((0u32..6, 0usize..12), 0..160),
            cuts in proptest::collection::vec(0usize..160, 0..6),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            use sepra_storage::value::{INT_MAX_EXCLUSIVE, INT_MIN};
            // Small integers (zero among them), integers whose sums leave the
            // range, and two symbols, which are not integers at all.
            let pool: Vec<Value> = [-3, -1, 0, 1, 2, 5, 5, INT_MAX_EXCLUSIVE - 1, INT_MAX_EXCLUSIVE - 2, INT_MIN]
                .iter()
                .map(|&n| Value::int(n).unwrap())
                .chain([Value::sym(Sym(7)), Value::sym(Sym(8))])
                .collect();
            let tuple = |group: Value, v: Value| if pos == 1 { [group, v] } else { [v, group] };
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(picks.len())).collect();
            cuts.extend([0, picks.len()]);
            cuts.sort_unstable();

            let spec = AggSpec { func, pos, span: sepra_ast::Span::DUMMY };
            let (mut state, mut rel) = (AggState::new(&spec, 2), Relation::new(2));
            let mut stats = EvalStats::new();
            // The reference: distinct contributions so far and, kept the slow
            // way, the one stored tuple of every group.
            let (mut distinct, mut stored): (Vec<[Value; 2]>, Vec<[Value; 2]>) = Default::default();
            for step in cuts.windows(2) {
                let rows: Vec<[Value; 2]> = picks[step[0]..step[1]]
                    .iter()
                    .map(|&(g, v)| [Value::sym(Sym(g)), pool[v]])
                    .collect();
                let (mut changes, mut offered) = (0, Vec::new());
                for &[group, v] in &rows {
                    let before = reference_value(func, group, &distinct);
                    if !distinct.contains(&[group, v]) {
                        distinct.push([group, v]);
                    }
                    let after = reference_value(func, group, &distinct);
                    if let Some(now) = after.filter(|_| after != before) {
                        let now = tuple(group, Value::int(now as i64).unwrap());
                        changes += 1;
                        stored.retain(|t| t[1 - pos] != group);
                        stored.push(now);
                        if !offered.contains(&now) {
                            offered.push(now);
                        }
                    }
                }
                let (inserted, attempts, epoch) =
                    (stats.tuples_inserted, stats.insert_attempts, rel.compaction_epoch());
                let mut delta = Relation::new(2);
                state.merge(rows.iter().map(|&[g, v]| tuple(g, v)), &mut rel, &mut stats, Some(&mut delta));
                let in_order = |r: &Relation| r.iter().map(|row| [row[0], row[1]]).collect::<Vec<_>>();
                prop_assert_eq!(in_order(&rel), stored);
                prop_assert_eq!(in_order(&delta), offered);
                prop_assert_eq!(stats.tuples_inserted - inserted, changes);
                prop_assert_eq!(stats.insert_attempts - attempts, rows.len());
                prop_assert!(rel.compaction_epoch() - epoch <= 1);
                let mut groups = rel.column(1 - pos).to_vec();
                groups.sort_unstable();
                groups.dedup();
                prop_assert_eq!(groups.len(), rel.len(), "one tuple per group");
            }
        }
    }
}
