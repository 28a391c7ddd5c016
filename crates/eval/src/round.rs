//! The one delta round.
//!
//! Every fixpoint in the workspace advances by the same step: fire compiled
//! conjunctions over a *frontier* — a semi-naive delta, a `carry` of the
//! paper's Figure 2, the `seen_1` of its seed join, a deletion delta of
//! DRed — against relations that do not change while the step runs, then
//! merge what was produced. [`delta_round`] is that step, for all of them,
//! on the calling thread. It owns everything the step's callers used to
//! copy:
//!
//! * **index preparation** — through the caller's persistent
//!   [`IndexCache`]: a handle on the index a stored relation keeps, or the
//!   cache's own index of a working relation, and dropping the frontiers'
//!   indexes when the round ends (next round a frontier is a different
//!   relation);
//! * **the budget** — probed before every plan, and an interrupted round is
//!   an error *of the round*, so its truncated output can never be read as
//!   convergence;
//! * **`scanned` accounting and emission order** — rows reach the caller's
//!   sink a [`RowBuf`] (a chunk of the batch kernel) at a time, plan by
//!   plan, each plan's in the order of the nested loops it denotes.
//!
//! Callers keep what genuinely differs, the merge: set insertion or an
//! aggregate fold (semi-naive), over-deletion marks and put-backs
//! (incremental maintenance), `carry − seen` (Figure 2), justification
//! recording (`why`).

use sepra_storage::{Relation, Value};

use crate::budget::Budget;
use crate::error::EvalError;
use crate::plan::{ConjPlan, RelKey};
use crate::store::{IndexCache, RelStore};

/// One conjunction to fire in a round.
#[derive(Debug, Clone, Copy)]
pub struct RoundPlan<'a> {
    /// The plan, as its compiler ordered it.
    pub plan: &'a ConjPlan,
    /// The relation this plan expands, whose indexes the round drops when
    /// it ends. `None` for conjunctions over completed relations only (base
    /// rules, rederivation).
    pub frontier: Option<RelKey>,
}

/// Result rows on their way from production to merge: what the kernel
/// hands a sink per chunk, and what a caller buffers while the round's
/// store still borrows its merge target. Flat row-major values, each row's
/// [`row_hash`](sepra_storage::row_hash) beside them (the hash count is the
/// row count, which keeps zero-arity rows countable).
#[derive(Debug, Clone, Default)]
pub struct RowBuf {
    pub(crate) values: Vec<Value>,
    pub(crate) hashes: Vec<u64>,
}

impl RowBuf {
    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether no row is buffered.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Inserts the rows into `rel`, in order, without hashing any again;
    /// returns how many were new.
    pub fn insert_into(&self, rel: &mut Relation) -> usize {
        rel.insert_rows_hashed(&self.values, &self.hashes)
    }

    /// The buffered rows, in production order.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        let arity = self.values.len().checked_div(self.len()).unwrap_or(0);
        (0..self.len()).map(move |r| &self.values[r * arity..(r + 1) * arity])
    }

    /// Appends `other`'s rows.
    pub fn extend(&mut self, other: &RowBuf) {
        self.values.extend_from_slice(&other.values);
        self.hashes.extend_from_slice(&other.hashes);
    }

    pub(crate) fn clear(&mut self) {
        self.values.clear();
        self.hashes.clear();
    }
}

/// Runs `plans` once over `store`, handing the produced rows to `sink` as
/// `(index into plans, rows)` — a kernel chunk at a time, never an empty
/// one — and returns how many tuples the joins considered (the
/// `rows_scanned` metric).
///
/// `store` must bind every frontier. `indexes` is the caller's persistent
/// cache: the round prepares it, and on return has dropped the indexes
/// over this round's frontiers, so the caller is free to rebind them.
/// `None` runs every keyed scan as a filtered full scan — the
/// storage-layer ablation. Rows are emitted plan by plan and are *not*
/// deduplicated; the caller's merge does that.
///
/// `budget` is probed before every plan. Once it reports an interrupt the
/// round stops and returns [`EvalError::BudgetExceeded`] for `what`; rows
/// already emitted are the caller's to discard.
pub fn delta_round(
    plans: &[RoundPlan<'_>],
    store: &RelStore<'_>,
    mut indexes: Option<&mut IndexCache>,
    budget: &Budget,
    what: &str,
    sink: &mut dyn FnMut(usize, &RowBuf),
) -> Result<u64, EvalError> {
    #[cfg(test)]
    tests::at_round_start();
    if let Some(indexes) = indexes.as_deref_mut() {
        plans.iter().for_each(|p| indexes.prepare(p.plan, store));
    }
    let unindexed = IndexCache::new();
    let prepared = indexes.as_deref().unwrap_or(&unindexed);

    let mut scanned = 0u64;
    for (i, p) in plans.iter().enumerate() {
        if let Some(resource) = budget.interrupted() {
            return Err(EvalError::BudgetExceeded { what: what.to_string(), resource });
        }
        scanned += p.plan.run(store, prepared, &[], &mut |rows| sink(i, rows));
    }

    if let Some(indexes) = indexes {
        plans.iter().filter_map(|p| p.frontier).for_each(|key| indexes.invalidate(key));
    }
    Ok(scanned)
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::budget::BudgetResource;
    use crate::incremental::maintain;
    use crate::plan::{PlanAtom, PlanLiteral};
    use crate::planner::PlanMode;
    use crate::seminaive::{seminaive, seminaive_with_options, EvalOptions};
    use sepra_ast::{parse_program, Interner, Sym, Term};
    use sepra_storage::{Database, EdbDelta, Tuple};

    thread_local! {
        /// Test seam: runs on the calling thread as each of its rounds
        /// starts — after the caller's loop-top budget check, before any
        /// probe of the round. No public API can force that interleaving.
        static ROUND_START: RefCell<Option<Box<dyn FnMut()>>> = const { RefCell::new(None) };
    }

    pub(super) fn at_round_start() {
        ROUND_START.with(|hook| {
            if let Some(hook) = hook.borrow_mut().as_mut() {
                hook();
            }
        });
    }

    /// Runs `body` with `flag` raised as this thread's `nth` round (from
    /// one) starts.
    fn cancelling_at_round<T>(nth: usize, flag: &Arc<AtomicBool>, body: impl FnOnce() -> T) -> T {
        let (mut seen, flag) = (0, flag.clone());
        ROUND_START.with(|hook| {
            *hook.borrow_mut() = Some(Box::new(move || {
                seen += 1;
                if seen == nth {
                    flag.store(true, Ordering::Relaxed);
                }
            }));
        });
        let out = body();
        ROUND_START.with(|hook| *hook.borrow_mut() = None);
        out
    }

    fn t2(a: u32, b: u32) -> Tuple {
        Tuple::from([Value::sym(Sym(a)), Value::sym(Sym(b))])
    }

    const FRONTIER: RelKey = RelKey::Aux(0);
    const EDGES: RelKey = RelKey::Aux(1);

    /// The conjunction of two binary atoms over `X`, `Y`, `Z`, projecting
    /// `(X, Z)`.
    fn conj(i: &mut Interner, body: [(RelKey, [&str; 2]); 2]) -> ConjPlan {
        let body: Vec<PlanLiteral> = body
            .iter()
            .map(|(rel, vars)| {
                let terms = vars.iter().map(|v| Term::Var(i.intern(v))).collect();
                PlanLiteral::Atom(PlanAtom { rel: *rel, terms })
            })
            .collect();
        let output = [Term::Var(i.intern("X")), Term::Var(i.intern("Z"))];
        ConjPlan::compile(&[], &body, &output).unwrap()
    }

    /// `t(X, Z) :- frontier(X, Y), e(Y, Z).`
    fn linear_plan(i: &mut Interner) -> ConjPlan {
        conj(i, [(FRONTIER, ["X", "Y"]), (EDGES, ["Y", "Z"])])
    }

    /// `t(X, Z) :- frontier(X, Y), frontier(Y, Z).` — a frontier self-join.
    fn self_join_plan(i: &mut Interner) -> ConjPlan {
        conj(i, [(FRONTIER, ["X", "Y"]), (FRONTIER, ["Y", "Z"])])
    }

    fn chain(n: u32) -> Relation {
        Relation::from_tuples(2, (0..n).map(|i| t2(i, i + 1)))
    }

    fn expanding(plan: &ConjPlan) -> RoundPlan<'_> {
        RoundPlan { plan, frontier: Some(FRONTIER) }
    }

    type Emitted = Vec<(usize, Vec<Value>)>;

    /// One round of `plans` over `frontier` and `e`, with a fresh cache.
    fn round(
        plans: &[RoundPlan<'_>],
        frontier: &Relation,
        e: &Relation,
        budget: &Budget,
    ) -> Result<(Emitted, u64), EvalError> {
        let mut store = RelStore::new();
        store.bind(FRONTIER, frontier);
        store.bind(EDGES, e);
        let mut rows = Vec::new();
        let mut indexes = IndexCache::new();
        let scanned =
            delta_round(plans, &store, Some(&mut indexes), budget, "test", &mut |i, buf| {
                rows.extend(buf.rows().map(|row| (i, row.to_vec())))
            })?;
        assert!(
            plans
                .iter()
                .flat_map(|p| p.plan.keyed_scans())
                .all(|(rel, cols)| { (rel == FRONTIER) == indexes.get(rel, cols).is_none() }),
            "the round leaves every index but the frontier's behind"
        );
        Ok((rows, scanned))
    }

    fn rows_at(plans: &[RoundPlan<'_>], frontier: &Relation, e: &Relation) -> Emitted {
        round(plans, frontier, e, &Budget::default()).unwrap().0
    }

    #[test]
    fn sharded_rounds_emit_the_serial_row_sequence() {
        let mut i = Interner::new();
        let plan = linear_plan(&mut i);
        let frontier = chain(4096);
        let e = chain(frontier.len() as u32 + 1);
        let serial = rows_at(&[expanding(&plan)], &frontier, &e);
        assert_eq!(serial.len(), frontier.len());
    }

    #[test]
    fn self_joins_stay_whole_and_emission_is_plan_major() {
        let mut i = Interner::new();
        let (self_join, linear) = (self_join_plan(&mut i), linear_plan(&mut i));
        let frontier = chain(2048);
        let e = chain(frontier.len() as u32 + 1);
        // The self-join composes every pair of the frontier, and the plan
        // between the two self-joins emits in its place.
        let plans = [expanding(&self_join), expanding(&linear), expanding(&self_join)];
        let serial = rows_at(&plans, &frontier, &e);
        assert_eq!(serial.len(), 3 * frontier.len() - 2);
        assert!(serial.windows(2).all(|w| w[0].0 <= w[1].0), "plan-major");
    }

    #[test]
    fn below_the_grain_the_cost_ordered_plan_runs_on_the_calling_thread() {
        let mut i = Interner::new();
        // `plan` scans all of e and probes the frontier; `rotated` is the
        // same join frontier-first. They produce the same rows in different
        // orders and scan different numbers of tuples.
        let plan = conj(&mut i, [(EDGES, ["X", "Y"]), (FRONTIER, ["Y", "Z"])]);
        let rotated = conj(&mut i, [(FRONTIER, ["Y", "Z"]), (EDGES, ["X", "Y"])]);
        let fire = [RoundPlan { plan: &plan, frontier: Some(FRONTIER) }];
        let small = chain(40);
        let e = Relation::from_tuples(2, (0..400).map(|i| t2(1000 + i, i % 41)));
        round(&fire, &small, &e, &Budget::default()).unwrap();
        // At any frontier size the round runs the plan it was given, not
        // its rotation: same rows as a set, other work.
        let big = chain(1024);
        let (serial_rows, serial_scanned) = round(&fire, &big, &e, &Budget::default()).unwrap();
        let rotation = [RoundPlan { plan: &rotated, frontier: Some(FRONTIER) }];
        let (rotated_rows, rotated_scanned) =
            round(&rotation, &big, &e, &Budget::default()).unwrap();
        assert_ne!(rotated_scanned, serial_scanned);
        let sorted = |mut rows: Emitted| {
            rows.sort();
            rows
        };
        assert_eq!(sorted(rotated_rows), sorted(serial_rows));
    }

    #[test]
    fn an_empty_frontier_produces_no_rows() {
        let mut i = Interner::new();
        let plan = linear_plan(&mut i);
        assert!(rows_at(&[expanding(&plan)], &Relation::new(2), &chain(3)).is_empty());
    }

    #[test]
    fn without_a_cache_keyed_scans_filter_full_scans() {
        let mut i = Interner::new();
        let plan = linear_plan(&mut i);
        let (frontier, e) = (chain(1024), chain(1024));
        let mut store = RelStore::new();
        store.bind(FRONTIER, &frontier);
        store.bind(EDGES, &e);
        let mut rows = Vec::new();
        delta_round(
            &[expanding(&plan)],
            &store,
            None,
            &Budget::default(),
            "test",
            &mut |i, buf| rows.extend(buf.rows().map(|row| (i, row.to_vec()))),
        )
        .unwrap();
        assert_eq!(rows, rows_at(&[expanding(&plan)], &frontier, &e));
    }

    fn assert_cancelled<T: std::fmt::Debug>(result: Result<T, EvalError>, what: &str) {
        match result {
            Err(EvalError::BudgetExceeded { what: w, resource: BudgetResource::Cancelled }) => {
                assert_eq!(w, what)
            }
            other => panic!("{what}: expected a cancelled round, got {other:?}"),
        }
    }

    #[test]
    fn an_interrupted_round_is_an_error_on_shards_and_on_the_calling_thread() {
        let mut i = Interner::new();
        let plan = linear_plan(&mut i);
        let frontier = chain(1536);
        let e = chain(frontier.len() as u32 + 1);
        let plans = [expanding(&plan), expanding(&plan)];
        // The round probes before its first plan: nothing is produced, and
        // "nothing produced" must not come back as a successful round.
        let flag = Arc::new(AtomicBool::new(true));
        let budget = Budget::unlimited().cancellable(flag.clone());
        assert_cancelled(round(&plans, &frontier, &e, &budget), "test");
        // On the calling thread the first plan's rows reach the sink, and
        // the sink cancels: the second plan must not run.
        flag.store(false, Ordering::Relaxed);
        let mut store = RelStore::new();
        store.bind(FRONTIER, &frontier);
        store.bind(EDGES, &e);
        let mut last_plan = 0;
        let result = delta_round(
            &plans,
            &store,
            Some(&mut IndexCache::new()),
            &budget,
            "test",
            &mut |i, _| {
                flag.store(true, Ordering::Relaxed);
                last_plan = i;
            },
        );
        assert_cancelled(result, "test");
        assert_eq!(last_plan, 0);
    }

    /// A digraph dense enough that `e`, and so the first delta of its
    /// closure, holds over a thousand tuples.
    fn dense_edges() -> Vec<[String; 2]> {
        let n = 48;
        (0..n)
            .flat_map(|a| (1..=1024usize.div_ceil(n)).map(move |d| (a, (a + d) % n)))
            .map(|(a, b)| [format!("n{a}"), format!("n{b}")])
            .collect()
    }

    const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n";

    /// `maintain` across one batch that inserts (or retracts) every dense
    /// edge, with `flag` raised as its first round starts.
    fn maintain_cancelled_mid_round(
        retract: bool,
        flag: &Arc<AtomicBool>,
    ) -> Result<(), EvalError> {
        let mut db = Database::new();
        db.load_fact_text("e(a, b).").unwrap();
        let program = parse_program(TC, db.interner_mut()).unwrap();
        let e = db.intern("e");
        let edges: Vec<Tuple> = dense_edges()
            .iter()
            .map(|edge| Tuple::from(edge.each_ref().map(|n| Value::sym(db.intern(n)))))
            .collect();
        let mut load = EdbDelta::default();
        load.insert.insert(e, edges.clone());
        let (before, delta) = if retract {
            db.apply_delta(&load).unwrap();
            let mut unload = EdbDelta::default();
            unload.remove.insert(e, edges);
            (db.clone(), unload)
        } else {
            (db.clone(), load)
        };
        let old = seminaive(&program, &before).unwrap();
        let effective = db.apply_delta(&delta).unwrap();
        let mid = if retract { &db } else { &before };
        let options = EvalOptions {
            budget: Budget::unlimited().cancellable(flag.clone()),
            ..Default::default()
        };
        cancelling_at_round(1, flag, || {
            maintain(&program, &before, mid, &db, &old.relations, &effective, &options).map(|_| ())
        })
    }

    #[test]
    fn a_round_cancelled_midway_never_reads_as_convergence_through_any_caller() {
        // The cancelled round skips every plan, so it produces nothing —
        // which each of these loops would take for its fixpoint if the
        // round did not report the interrupt.
        let flag = Arc::new(AtomicBool::new(false));
        let mut db = Database::new();
        for [a, b] in dense_edges() {
            db.insert_named("e", &[&a, &b]).unwrap();
        }
        let program = parse_program(TC, db.interner_mut()).unwrap();
        let options = EvalOptions {
            budget: Budget::unlimited().cancellable(flag.clone()),
            ..Default::default()
        };
        // Round 1 fires the base rule; round 2 is the first over a delta.
        let derived =
            cancelling_at_round(2, &flag, || seminaive_with_options(&program, &db, &options));
        assert_cancelled(derived, "semi-naive fixpoint");

        flag.store(false, Ordering::Relaxed);
        assert_cancelled(
            maintain_cancelled_mid_round(false, &flag),
            "incremental insert maintenance",
        );
        flag.store(false, Ordering::Relaxed);
        assert_cancelled(maintain_cancelled_mid_round(true, &flag), "incremental over-deletion");
    }

    #[test]
    fn small_frontiers_scan_the_same_rows_at_any_thread_count() {
        // In source order the recursive rule scans e outermost, its delta
        // innermost: two runs do exactly the same work.
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c). e(c, d). e(d, a). e(b, e5). e(x, y).").unwrap();
        let program = parse_program(TC, db.interner_mut()).unwrap();
        let run = || {
            let options = EvalOptions { plan_mode: PlanMode::SourceOrder, ..Default::default() };
            seminaive_with_options(&program, &db, &options).unwrap()
        };
        let (one, four) = (run(), run());
        assert_eq!(four.relations, one.relations);
        assert_eq!(four.stats, one.stats);
    }
}
