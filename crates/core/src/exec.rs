//! The carry/seen loop executor for compiled separable plans.
//!
//! Executes the schema of Figure 2 directly over storage relations:
//!
//! ```text
//! 1) init carry_1;                     (caller-provided seeds)
//! 2) seen_1 := carry_1;
//! 3) while carry_1 not empty do
//! 4)   carry_1 := f_1(carry_1);        (union of per-rule join plans)
//! 5)   carry_1 := carry_1 - seen_1;    (the dedup Lemma 3.4 needs)
//! 6)   seen_1 := seen_1 u carry_1;
//! 7) endwhile;
//! 8) carry_2 := g_2(seen_1);           (seed plans over the exit rules)
//! ...                                  (the same loop for carry_2/seen_2)
//! 15) ans := seen_2;
//! ```
//!
//! [`ExecOptions::dedup`] can disable line 5 for the termination ablation
//! (E8b in EXPERIMENTS.md): without the difference, cyclic data keeps the
//! carry nonempty forever and the executor reports divergence at
//! `max_iterations` instead of looping — demonstrating that the `seen`
//! difference is exactly what Lemma 3.4's termination proof uses.

use std::sync::Arc;

use sepra_ast::Sym;
use sepra_eval::{
    delta_round, Budget, ConjPlan, EvalError, IndexCache, PlanMode, RelKey, RelStore, RoundPlan,
    Step,
};
use sepra_storage::{Database, EvalStats, FxHashMap, Relation, Tuple, Value};

use crate::justify::{JustificationTracker, Origin};
use crate::plan::{SeparablePlan, AUX_CARRY1, AUX_CARRY2, AUX_SEEN1};

/// Execution knobs.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Apply `carry := carry - seen` each iteration (line 5 / line 12 of
    /// Figure 2). Disabling this is unsound on cyclic data — kept only for
    /// the ablation benchmark.
    pub dedup: bool,
    /// Abort with [`EvalError::Diverged`] after this many loop iterations.
    pub max_iterations: usize,
    /// Build and probe hash indexes for keyed scans. Disabling falls back
    /// to filtered full scans — the index ablation (E8c), isolating how
    /// much of the algorithm's speed comes from the storage layer rather
    /// than from the compilation itself.
    pub use_indexes: bool,
    /// Resource budget (deadline, tuple/iteration caps, cancellation)
    /// checked at every closure-iteration barrier. Unlimited by default.
    pub budget: Budget,
    /// How the nonrecursive conjunctions of compiled plans are ordered
    /// (see [`sepra_eval::planner`]): cost-based from relation statistics
    /// by default, or exactly as written for the E13 baseline. The carry /
    /// seen scan stays pinned first either way, as Figure 2 reads it.
    pub plan_mode: PlanMode,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            dedup: true,
            max_iterations: 1_000_000,
            use_indexes: true,
            budget: Budget::default(),
            plan_mode: PlanMode::default(),
        }
    }
}

/// The raw result of running a plan: the two `seen` relations.
#[derive(Debug)]
pub struct RawOutcome {
    /// `seen_1` (over the phase-1 class columns); `None` for persistent
    /// selections.
    pub seen1: Option<Relation>,
    /// `seen_2` (over the phase-2 columns) — the answers before
    /// re-attaching the fixed columns.
    pub seen2: Relation,
}

/// Extra relations visible to plan execution in addition to the EDB —
/// used by the engine to supply materialized non-recursive IDB predicates.
/// Each is a shared handle, as a [`Database`] holds its relations.
pub type ExtraRelations = FxHashMap<Sym, Arc<Relation>>;

/// Executes a compiled plan.
///
/// `init1` supplies the initial `carry_1` contents (the selection-constant
/// vector, or a seed set from the Lemma 2.1 decomposition) and must be
/// `Some` exactly when the plan has a phase 1.
///
/// With a `tracker`, the plan's tracked variants run instead — same joins,
/// each row prefixed by the tuple it was produced from — and the origin of
/// every tuple is recorded, so answers can be justified (the paper's `J(a)`
/// construction from Lemma 3.1). The relations computed are the same.
pub fn execute_plan(
    plan: &SeparablePlan,
    db: &Database,
    extra: &ExtraRelations,
    init1: Option<Relation>,
    opts: &ExecOptions,
    stats: &mut EvalStats,
    mut tracker: Option<&mut JustificationTracker>,
) -> Result<RawOutcome, EvalError> {
    let mut indexes = IndexCache::new();

    // Phase 1: downward closure over the selected class.
    let seen1 = match (&plan.phase1, init1) {
        (Some(p1), Some(init)) => {
            if init.arity() != p1.columns.len() {
                return Err(EvalError::Planning(format!(
                    "carry_1 seed arity {} does not match class width {}",
                    init.arity(),
                    p1.columns.len()
                )));
            }
            let mut tracker = tracker.as_deref_mut();
            if let Some(tracker) = tracker.as_deref_mut() {
                for t in init.iter() {
                    tracker.record_phase1(t.to_tuple(), Origin::Root);
                }
            }
            let steps = if tracker.is_some() { &p1.tracked_steps } else { &p1.steps };
            let mut record = tracker.map(|tracker| {
                move |parent: &[Value], child: &[Value], rule| {
                    tracker.record_phase1(
                        Tuple::new(child.to_vec()),
                        Origin::Phase1 { parent: Tuple::new(parent.to_vec()), rule },
                    );
                }
            });
            let seen = run_closure(
                steps,
                AUX_CARRY1,
                init,
                db,
                extra,
                &mut indexes,
                opts,
                ("carry_1", "seen_1"),
                stats,
                record.as_mut().map(|r| r as &mut Recorder<'_>),
            )?;
            Some(seen)
        }
        (None, None) => None,
        (Some(_), None) => {
            return Err(EvalError::Planning("phase 1 requires initial carry_1 contents".into()))
        }
        (None, Some(_)) => {
            return Err(EvalError::Planning(
                "persistent-selection plan takes no carry_1 seeds".into(),
            ))
        }
    };

    let seen2 =
        seed_and_phase2(plan, db, extra, seen1.as_ref(), &mut indexes, opts, stats, tracker)?;
    Ok(RawOutcome { seen1, seen2 })
}

/// Runs the seed join (line 8 of Figure 2) and the phase-2 closure of a
/// compiled plan, given an already-computed `seen_1` (or `None` for
/// persistent-selection plans whose constants are baked into the seeds).
///
/// Exposed separately so alternative descent strategies — notably the
/// Generalized Counting baseline, whose descent materializes the `count`
/// relation instead of `seen_1` — can share the exit-join and upward
/// closure.
pub fn run_seed_and_phase2(
    plan: &SeparablePlan,
    db: &Database,
    extra: &ExtraRelations,
    seen1: Option<&Relation>,
    indexes: &mut IndexCache,
    opts: &ExecOptions,
    stats: &mut EvalStats,
) -> Result<Relation, EvalError> {
    seed_and_phase2(plan, db, extra, seen1, indexes, opts, stats, None)
}

#[allow(clippy::too_many_arguments)] // run_seed_and_phase2 plus the optional tracker
fn seed_and_phase2(
    plan: &SeparablePlan,
    db: &Database,
    extra: &ExtraRelations,
    seen1: Option<&Relation>,
    indexes: &mut IndexCache,
    opts: &ExecOptions,
    stats: &mut EvalStats,
    mut tracker: Option<&mut JustificationTracker>,
) -> Result<Relation, EvalError> {
    // Seed: carry_2 := g_2(seen_1) over the exit rules, one round whose
    // frontier is seen_1. Tracked seed rows carry the contributing seen_1
    // tuple in front (nothing, for a persistent selection).
    let (seed_plans, steps) = match tracker {
        None => (&plan.seed, &plan.phase2.steps),
        Some(_) => (&plan.tracked_seed, &plan.phase2.tracked_steps),
    };
    let prefix = match (&tracker, seen1) {
        (Some(_), Some(seen1)) => seen1.arity(),
        _ => 0,
    };
    let frontier = seen1.map(|_| RelKey::Aux(AUX_SEEN1));
    let mut carry2_init = Relation::new(plan.phase2.columns.len());
    {
        let mut store = base_store(db, extra, seed_plans);
        if let Some(seen1) = seen1 {
            store.bind(RelKey::Aux(AUX_SEEN1), seen1);
        }
        let plans: Vec<RoundPlan<'_>> =
            seed_plans.iter().map(|plan| RoundPlan { plan, frontier }).collect();
        let scanned = delta_round(
            &plans,
            &store,
            opts.use_indexes.then_some(&mut *indexes),
            &opts.budget,
            "seed join",
            &mut |exit_rule, rows| {
                let Some(tracker) = tracker.as_deref_mut() else {
                    let new = rows.insert_into(&mut carry2_init);
                    return stats.record_inserts(rows.len(), new);
                };
                for row in rows.rows() {
                    let (seen1_tuple, child) = row.split_at(prefix);
                    stats.record_insert(carry2_init.insert_row(child));
                    let seen1 = (prefix > 0).then(|| Tuple::new(seen1_tuple.to_vec()));
                    tracker.record_phase2(
                        Tuple::new(child.to_vec()),
                        Origin::Seed { seen1, exit_rule },
                    );
                }
            },
        )?;
        stats.record_scanned(scanned as usize);
    }

    // Phase 2: upward closure over the remaining classes.
    let mut record = tracker.map(|tracker| {
        move |parent: &[Value], child: &[Value], rule| {
            tracker.record_phase2(
                Tuple::new(child.to_vec()),
                Origin::Phase2 { parent: Tuple::new(parent.to_vec()), rule },
            );
        }
    });
    run_closure(
        steps,
        AUX_CARRY2,
        carry2_init,
        db,
        extra,
        indexes,
        opts,
        ("carry_2", "seen_2"),
        stats,
        record.as_mut().map(|r| r as &mut Recorder<'_>),
    )
}

/// The relations `plans` scan, from `extra` where materialized there and
/// from `db` otherwise: only those, so a store does not grow with the program.
pub fn base_store<'a, 'p>(
    db: &'a Database,
    extra: &'a ExtraRelations,
    plans: impl IntoIterator<Item = &'p ConjPlan>,
) -> RelStore<'a> {
    let mut store = RelStore::new();
    for step in plans.into_iter().flat_map(|plan| &plan.steps) {
        if let Step::Scan { rel: RelKey::Pred(p), .. } = step {
            if let Some(r) = extra.get(p).map(|r| &**r).or_else(|| db.relation(*p)) {
                store.bind(RelKey::Pred(*p), r);
            }
        }
    }
    store
}

/// Receives `(parent, child, rule)` for every tuple a closure produces that
/// is not yet in `seen`.
type Recorder<'a> = dyn FnMut(&[Value], &[Value], usize) + 'a;

/// Runs one carry/seen closure (lines 1–7 or 10–14 of Figure 2) and returns
/// the final `seen` relation. Each iteration is one [`delta_round`] whose
/// frontier is the carry; what is Figure 2's own is the merge — `produced`
/// collects `f(carry)`, then `carry − seen` at the barrier.
///
/// With a `record`er, `steps` must be the tracked variants, whose rows are
/// the parent carry tuple followed by the produced one.
#[allow(clippy::too_many_arguments)]
fn run_closure(
    steps: &[(usize, ConjPlan)],
    carry_key_id: u32,
    init: Relation,
    db: &Database,
    extra: &ExtraRelations,
    indexes: &mut IndexCache,
    opts: &ExecOptions,
    names: (&str, &str),
    stats: &mut EvalStats,
    mut record: Option<&mut Recorder<'_>>,
) -> Result<Relation, EvalError> {
    let arity = init.arity();
    let prefix = if record.is_some() { arity } else { 0 };
    let (carry_name, seen_name) = names;
    let what = format!("{carry_name} loop");
    let carry_key = RelKey::Aux(carry_key_id);
    let plans: Vec<RoundPlan<'_>> =
        steps.iter().map(|(_, plan)| RoundPlan { plan, frontier: Some(carry_key) }).collect();
    let mut seen = init.clone();
    let mut carry = init;
    stats.record_size(carry_name, carry.len());
    stats.record_size(seen_name, seen.len());

    let mut iterations = 0usize;
    while !carry.is_empty() {
        iterations += 1;
        stats.record_iteration();
        if iterations > opts.max_iterations {
            return Err(EvalError::Diverged { what, bound: opts.max_iterations });
        }
        opts.budget.check(&what, stats.iterations, stats.tuples_inserted)?;
        // carry := f(carry) — the union of the per-rule join plans.
        let mut produced = Relation::new(arity);
        {
            let mut store = base_store(db, extra, steps.iter().map(|(_, plan)| plan));
            store.bind(carry_key, &carry);
            let scanned = delta_round(
                &plans,
                &store,
                opts.use_indexes.then_some(&mut *indexes),
                &opts.budget,
                &what,
                &mut |step, rows| {
                    let Some(record) = record.as_deref_mut() else {
                        let new = rows.insert_into(&mut produced);
                        return stats.record_inserts(rows.len(), new);
                    };
                    for row in rows.rows() {
                        let (parent, child) = row.split_at(prefix);
                        stats.record_insert(produced.insert_row(child));
                        if !seen.contains_values(child) {
                            record(parent, child, steps[step].0);
                        }
                    }
                },
            )?;
            stats.record_scanned(scanned as usize);
        }
        // carry := carry - seen (line 5); seen := seen u carry (line 6).
        let mut next_carry = Relation::new(arity);
        for t in produced.iter() {
            let is_new = !seen.contains_row(t);
            if is_new {
                seen.insert_from(t);
            }
            if is_new || !opts.dedup {
                next_carry.insert_from(t);
            }
        }
        stats.record_size(carry_name, next_carry.len());
        stats.record_size(seen_name, seen.len());
        carry = next_carry;
    }
    Ok(seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_in_program;
    use crate::plan::{build_plan, PlanSelection};
    use sepra_ast::parse_program;
    use sepra_storage::Value;

    fn chain_db(n: u32) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert_named("e", &[&format!("n{i}"), &format!("n{}", i + 1)]).unwrap();
        }
        db
    }

    /// Transitive closure t(X, Y) with query t(n0, Y): phase 1 walks the
    /// chain, the seed joins e as exit, no phase 2.
    #[test]
    fn closure_walks_a_chain() {
        let mut db = chain_db(5);
        let program =
            parse_program("t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n", db.interner_mut())
                .unwrap();
        let t = db.intern("t");
        let sep = detect_in_program(&program, t, db.interner_mut()).unwrap();
        let plan = build_plan(&sep, &PlanSelection::Class(0)).unwrap();

        let mut init = Relation::new(1);
        let n0 = db.intern("n0");
        init.insert(Tuple::from([Value::sym(n0)]));
        let mut stats = EvalStats::new();
        let out = execute_plan(
            &plan,
            &db,
            &ExtraRelations::default(),
            Some(init),
            &ExecOptions::default(),
            &mut stats,
            None,
        )
        .unwrap();
        // seen_1 = {n0..n5} reachable along e (n5 has no outgoing edge but
        // is reached as a body value... n5 enters carry_1 via e(n4, n5)).
        assert_eq!(out.seen1.as_ref().unwrap().len(), 6);
        // seen_2 = everything reachable from seen_1 in one e step: n1..n5.
        assert_eq!(out.seen2.len(), 5);
        assert!(stats.relation_sizes["seen_1"] == 6);
        assert!(stats.iterations > 0);
    }

    #[test]
    fn closure_terminates_on_cycles_with_dedup() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c). e(c, a).").unwrap();
        let program =
            parse_program("t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n", db.interner_mut())
                .unwrap();
        let t = db.intern("t");
        let sep = detect_in_program(&program, t, db.interner_mut()).unwrap();
        let plan = build_plan(&sep, &PlanSelection::Class(0)).unwrap();
        let mut init = Relation::new(1);
        let a = db.intern("a");
        init.insert(Tuple::from([Value::sym(a)]));
        let mut stats = EvalStats::new();
        let out = execute_plan(
            &plan,
            &db,
            &ExtraRelations::default(),
            Some(init),
            &ExecOptions::default(),
            &mut stats,
            None,
        )
        .unwrap();
        assert_eq!(out.seen1.as_ref().unwrap().len(), 3);
        assert_eq!(out.seen2.len(), 3);
    }

    #[test]
    fn disabling_dedup_diverges_on_cycles() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, a).").unwrap();
        let program =
            parse_program("t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n", db.interner_mut())
                .unwrap();
        let t = db.intern("t");
        let sep = detect_in_program(&program, t, db.interner_mut()).unwrap();
        let plan = build_plan(&sep, &PlanSelection::Class(0)).unwrap();
        let mut init = Relation::new(1);
        let a = db.intern("a");
        init.insert(Tuple::from([Value::sym(a)]));
        let opts = ExecOptions { dedup: false, max_iterations: 50, ..ExecOptions::default() };
        let mut stats = EvalStats::new();
        let err = execute_plan(
            &plan,
            &db,
            &ExtraRelations::default(),
            Some(init),
            &opts,
            &mut stats,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::Diverged { .. }), "{err}");
    }

    #[test]
    fn parallel_closure_matches_serial() {
        let mut db = chain_db(64);
        // Add a back edge so phase 1 revisits seen classes.
        db.insert_named("e", &["n40", "n3"]).unwrap();
        let program =
            parse_program("t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n", db.interner_mut())
                .unwrap();
        let t = db.intern("t");
        let sep = detect_in_program(&program, t, db.interner_mut()).unwrap();
        let plan = build_plan(&sep, &PlanSelection::Class(0)).unwrap();
        let n0 = db.intern("n0");
        let run = || {
            let mut init = Relation::new(1);
            init.insert(Tuple::from([Value::sym(n0)]));
            let opts = ExecOptions::default();
            let mut stats = EvalStats::new();
            execute_plan(
                &plan,
                &db,
                &ExtraRelations::default(),
                Some(init),
                &opts,
                &mut stats,
                None,
            )
            .unwrap()
        };
        let serial = run();
        let par = run();
        assert_eq!(par.seen1, serial.seen1, "seen_1 diverged");
        assert_eq!(par.seen2, serial.seen2, "seen_2 diverged");
        // Determinism: two runs produce the same insertion order, not just
        // the same set.
        let a = run();
        let b = run();
        assert!(a.seen2.iter().eq(b.seen2.iter()), "insertion order diverged");
    }

    fn assert_cancelled<T: std::fmt::Debug>(result: Result<T, EvalError>, what: &str) {
        use sepra_eval::BudgetResource::Cancelled;
        match result {
            Err(EvalError::BudgetExceeded { what: w, resource: Cancelled }) => assert_eq!(w, what),
            other => panic!("{what}: expected a cancelled round, got {other:?}"),
        }
    }

    /// A cancellation that lands inside a round — after the loop's own
    /// barrier check — must come back as the round's error, not as a carry
    /// that happens to be short.
    #[test]
    fn a_closure_round_cancelled_midway_is_an_error() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let mut db = Database::new();
        db.load_fact_text("friend(tom, sue). idol(tom, joe). perfectFor(joe, widget).").unwrap();
        let program = parse_program(
            "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
             buys(X, Y) :- idol(X, W), buys(W, Y).\n\
             buys(X, Y) :- perfectFor(X, Y).\n",
            db.interner_mut(),
        )
        .unwrap();
        let buys = db.intern("buys");
        let sep = detect_in_program(&program, buys, db.interner_mut()).unwrap();
        let plan = build_plan(&sep, &PlanSelection::Class(0)).unwrap();
        let p1 = plan.phase1.as_ref().unwrap();
        assert_eq!(p1.tracked_steps.len(), 2);

        // The recorder is the one piece of caller code a round runs: the
        // friend step records sue and cancels, so the idol step must not
        // run — one insert attempt, not two.
        let flag = Arc::new(AtomicBool::new(false));
        let opts = ExecOptions {
            budget: Budget::unlimited().cancellable(flag.clone()),
            ..ExecOptions::default()
        };
        let mut init = Relation::new(1);
        init.insert(Tuple::from([Value::sym(db.intern("tom"))]));
        let mut stats = EvalStats::new();
        let result = run_closure(
            &p1.tracked_steps,
            AUX_CARRY1,
            init,
            &db,
            &ExtraRelations::default(),
            &mut IndexCache::new(),
            &opts,
            ("carry_1", "seen_1"),
            &mut stats,
            Some(&mut |_, _, _| flag.store(true, Ordering::Relaxed)),
        );
        assert_cancelled(result, "carry_1 loop");
        assert_eq!(stats.insert_attempts, 1);
    }

    /// No barrier check precedes the seed join, so with the budget already
    /// cancelled the round's own probe is the first to notice. A skipped
    /// seed is empty, and an empty carry_2 would end phase 2 at once: the
    /// truncated join would pass for an empty answer.
    #[test]
    fn a_cancelled_sharded_seed_join_is_an_error_not_an_empty_answer() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let mut db = chain_db(4);
        let program =
            parse_program("t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n", db.interner_mut())
                .unwrap();
        let t = db.intern("t");
        let sep = detect_in_program(&program, t, db.interner_mut()).unwrap();
        let plan = build_plan(&sep, &PlanSelection::Class(0)).unwrap();
        let seen1 = Relation::from_tuples(
            1,
            (0..1536).map(|i| Tuple::from([Value::sym(db.intern(&format!("n{i}")))])),
        );
        let opts = ExecOptions {
            budget: Budget::unlimited().cancellable(Arc::new(AtomicBool::new(true))),
            ..ExecOptions::default()
        };
        let result = run_seed_and_phase2(
            &plan,
            &db,
            &ExtraRelations::default(),
            Some(&seen1),
            &mut IndexCache::new(),
            &opts,
            &mut EvalStats::new(),
        );
        assert_cancelled(result, "seed join");
    }

    #[test]
    fn missing_seeds_are_rejected() {
        let mut db = chain_db(2);
        let program =
            parse_program("t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n", db.interner_mut())
                .unwrap();
        let t = db.intern("t");
        let sep = detect_in_program(&program, t, db.interner_mut()).unwrap();
        let plan = build_plan(&sep, &PlanSelection::Class(0)).unwrap();
        let mut stats = EvalStats::new();
        let err = execute_plan(
            &plan,
            &db,
            &ExtraRelations::default(),
            None,
            &ExecOptions::default(),
            &mut stats,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::Planning(_)));
    }
}
