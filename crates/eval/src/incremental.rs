//! Incremental maintenance of semi-naive materializations under EDB
//! mutation.
//!
//! Given the fixpoint already computed for a program (the `old` relations
//! of a previous [`seminaive`](crate::seminaive::seminaive) run) and an
//! *effective* EDB delta, [`maintain`] produces the fixpoint of the mutated
//! database without recomputing from scratch. It is one walk over the
//! components of the program's dependency graph, callees first. A
//! component reads the net change of the predicates below it — the rows
//! each lost and the rows each gained against `old` — and publishes its
//! own. A component no change reaches costs nothing: its relations stay
//! the handles `old` holds, neither copied nor scanned.
//!
//! * A component whose own rules negate or aggregate
//!   ([`Scope::StratifiedComponent`]) is not derivation-monotone, so it is
//!   recomputed from its seed by the same `eval_stratum` the from-scratch
//!   engine runs, and its diff against `old` is what it publishes. A
//!   recomputation that lands on the old value publishes nothing, and the
//!   cascade stops there.
//! * Every other component is positive and runs tuple-granular phases over
//!   its own rules:
//!   - **Retractions** use delete-and-rederive (DRed): an over-deletion
//!     fixpoint marks every tuple that loses *some* derivation (delta rules
//!     over the **pre-mutation** state, so instantiations pairing two
//!     removed tuples are not missed); the marked tuples are removed; one
//!     full evaluation round over the surviving state — plus a check
//!     against the surviving EDB facts for predicates that are both stored
//!     and derived — puts back every deleted tuple with a remaining
//!     derivation; put-backs then propagate semi-naively.
//!   - **Insertions** are propagated by a semi-naive continuation: for
//!     every body-atom occurrence of a changed predicate, a delta-rule
//!     variant fires with the new tuples in the delta position and the
//!     *full current* relations everywhere else, so each rule
//!     instantiation involving at least one new tuple is enumerated at
//!     least once — the semi-naive completeness argument.
//!
//!   What it publishes comes from the phases' own sets, not from a scan:
//!   the marked tuples that did not come back, and the inserted tuples
//!   that were not marked (a marked tuple was in `old`).
//!
//! Every round of both phases is a [`delta_round`] — the same step the
//! from-scratch engines take, with the same index handling and budget
//! probes — and only the merge is maintenance's
//! own: insertion and put-back rounds merge like semi-naive
//! (`Rounds::step`), over-deletion rounds *mark* instead of inserting,
//! and the rederivation round keeps only marked tuples. The loops check the
//! caller's [`Budget`](crate::budget::Budget) at every barrier. Relations
//! are shared handles, and a phase copies only a relation it changes. The
//! result is *identical* to re-running semi-naive on the mutated database —
//! `tests` here, and `tests/incremental_parity.rs` and
//! `tests/stratified_parity.rs` at the workspace root, assert this for
//! every interleaving of inserts and retracts they generate.

use std::sync::Arc;

use sepra_ast::{AggSpec, Literal, Program, Rule, Scope, Sym};
use sepra_storage::{Database, EdbDelta, EvalStats, FxHashMap, Relation, Tuple};

use crate::error::EvalError;
use crate::planner::{Planner, PlannerStats};
use crate::round::{delta_round, RoundPlan};
use crate::seminaive::{
    agg_specs, build_store, compile_variant, eval_stratum, rule_strata, seed, stratified_graph,
    Derived, EvalOptions, Rounds, Variant,
};
use crate::store::IndexCache;

/// Incrementally maintains the materialization `old` across the effective
/// EDB delta `delta`, returning relations equal to a from-scratch
/// [`seminaive`](crate::seminaive::seminaive) run over `db_after`.
///
/// The caller provides three cheap copy-on-write snapshots of the database:
/// `db_before` (before any change), `db_mid` (retractions applied), and
/// `db_after` (retractions and insertions applied) — see
/// [`Database::apply_delta`], which also yields the *effective* delta this
/// function expects (tuples genuinely removed/added; passing ineffective
/// tuples is sound but wastes work). `old` must be the complete fixpoint of
/// the program over `db_before`.
pub fn maintain(
    program: &Program,
    db_before: &Database,
    db_mid: &Database,
    db_after: &Database,
    old: &FxHashMap<Sym, Arc<Relation>>,
    delta: &EdbDelta,
    options: &EvalOptions,
) -> Result<Derived, EvalError> {
    let graph = stratified_graph(program, db_after.interner())?;
    let mut stats = EvalStats::new();
    // Plan against the post-mutation EDB: that is what every join in both
    // phases (rederivation included) actually runs over.
    let planner_stats = PlannerStats::from_database(db_after);
    let walk = Walk {
        db_before,
        db_mid,
        db_after,
        old,
        delta,
        options,
        aggs: agg_specs(program),
        planner: Planner::new(options.plan_mode, Some(&planner_stats)),
    };
    // Every head starts as a handle on its old relation.
    let mut derived: FxHashMap<Sym, Arc<Relation>> = FxHashMap::default();
    for rule in &program.rules {
        let (pred, arity) = (rule.head.pred, rule.head.arity());
        derived.entry(pred).or_insert_with(|| match old.get(&pred) {
            Some(rel) => Arc::clone(rel),
            None => seed(db_before, pred, arity, &walk.aggs),
        });
    }
    // The net change of every predicate below the component being walked:
    // a stored-only predicate's from the delta, a derived one's as its
    // component publishes it. A derived predicate's own stored facts enter
    // with its component.
    let mut changes = Changes::default();
    for (side, edb) in [(&mut changes.removed, &delta.remove), (&mut changes.added, &delta.insert)]
    {
        for (&pred, tuples) in edb.iter().filter(|(p, _)| !derived.contains_key(p)) {
            let Some(first) = tuples.first() else { continue };
            let rel = side.entry(pred).or_insert_with(|| Relation::new(first.arity()));
            for t in tuples {
                rel.insert(t.clone());
            }
        }
    }
    let stored = |p: &Sym| {
        [&delta.remove, &delta.insert].iter().any(|d| d.get(p).is_some_and(|t| !t.is_empty()))
    };
    for (idb, rules) in rule_strata(&graph, program) {
        if !idb.iter().any(stored)
            && !reads(&rules, &changes.removed)
            && !reads(&rules, &changes.added)
        {
            continue;
        }
        let comp = (idb.as_slice(), rules.as_slice());
        if graph.scope(idb[0]) == Scope::StratifiedComponent {
            walk.recompute(comp, &mut derived, &mut changes, &mut stats)?;
            continue;
        }
        let marked = walk.retract(comp, &mut derived, &changes, &mut stats)?;
        let gained = walk.insert(comp, &mut derived, &changes, &mut stats)?;
        for &p in &idb {
            let none = Relation::new(derived[&p].arity());
            let marked = marked.get(&p).unwrap_or(&none);
            changes.publish(
                p,
                minus(marked, &derived[&p]),
                minus(gained.get(&p).unwrap_or(&none), marked),
            );
        }
    }
    for (&pred, rel) in &derived {
        stats.record_size(db_after.interner().resolve(pred), rel.len());
    }
    walk.planner.record_into(&mut stats);
    Ok(Derived { relations: derived, stats })
}

/// The rows each predicate lost and gained against `old`, for those whose
/// change is not empty.
#[derive(Default)]
struct Changes {
    removed: FxHashMap<Sym, Relation>,
    added: FxHashMap<Sym, Relation>,
}

impl Changes {
    fn publish(&mut self, pred: Sym, removed: Relation, added: Relation) {
        for (side, rel) in [(&mut self.removed, removed), (&mut self.added, added)] {
            if !rel.is_empty() {
                side.insert(pred, rel);
            }
        }
    }
}

/// Whether a rule of `rules` reads, positively or negated, a predicate of
/// `changed`.
fn reads(rules: &[&Rule], changed: &FxHashMap<Sym, Relation>) -> bool {
    rules
        .iter()
        .any(|r| r.body_atoms().chain(r.negated_atoms()).any(|a| changed.contains_key(&a.pred)))
}

/// The rows of `a` that `b` does not hold.
fn minus(a: &Relation, b: &Relation) -> Relation {
    let mut out = Relation::new(a.arity());
    for row in a.iter().filter(|row| !b.contains_row(*row)) {
        out.insert_from(row);
    }
    out
}

/// One component: the predicates it derives, and their rules.
type Component<'c, 'p> = (&'c [Sym], &'c [&'p Rule]);

/// What every component of one walk reads.
struct Walk<'a> {
    db_before: &'a Database,
    db_mid: &'a Database,
    db_after: &'a Database,
    old: &'a FxHashMap<Sym, Arc<Relation>>,
    delta: &'a EdbDelta,
    options: &'a EvalOptions,
    aggs: FxHashMap<Sym, AggSpec>,
    /// Plans every positive component's phases.
    planner: Planner<'a>,
}

impl Walk<'_> {
    /// Recomputes a component that negates or aggregates from its seed, over
    /// the maintained components below, and publishes its diff against
    /// `old`.
    fn recompute(
        &self,
        (idb, rules): Component<'_, '_>,
        derived: &mut FxHashMap<Sym, Arc<Relation>>,
        changes: &mut Changes,
        stats: &mut EvalStats,
    ) -> Result<(), EvalError> {
        // Plan, as the from-scratch engine does, with the true sizes of the
        // derived relations the component reads.
        let mut planner_stats = PlannerStats::from_database(self.db_after);
        for atom in rules.iter().flat_map(|r| r.body_atoms().chain(r.negated_atoms())) {
            if let Some(rel) = derived.get(&atom.pred).filter(|_| !idb.contains(&atom.pred)) {
                planner_stats.add_relation(atom.pred, rel);
            }
        }
        let mut before = Vec::with_capacity(idb.len());
        for &p in idb {
            let arity = derived[&p].arity();
            before
                .push(derived.insert(p, seed(self.db_after, p, arity, &self.aggs)).expect("head"));
        }
        eval_stratum(
            rules,
            idb,
            self.db_after,
            derived,
            &self.aggs,
            self.options,
            stats,
            &planner_stats,
        )?;
        for (&p, before) in idb.iter().zip(before) {
            let now = &derived[&p];
            changes.publish(p, minus(&before, now), minus(now, &before));
        }
        Ok(())
    }

    /// Delete-and-rederive over one positive component: over-deletion
    /// against `old`, the rederivation round over the surviving state and
    /// the put-backs' propagation. Returns every tuple it marked, per
    /// predicate — each was in `old`, and some are back.
    fn retract(
        &self,
        (idb, rules): Component<'_, '_>,
        derived: &mut FxHashMap<Sym, Arc<Relation>>,
        changes: &Changes,
        stats: &mut EvalStats,
    ) -> Result<FxHashMap<Sym, Relation>, EvalError> {
        // Everything marked for deletion, per predicate, seeded with the
        // component's retracted stored facts (they were part of `old`).
        let mut del: FxHashMap<Sym, Relation> = FxHashMap::default();
        for &pred in idb {
            let Some(tuples) = self.delta.remove.get(&pred) else { continue };
            let believed = &derived[&pred];
            let mut seed = Relation::new(believed.arity());
            for t in tuples.iter().filter(|t| believed.contains(t)) {
                seed.insert(t.clone());
            }
            if !seed.is_empty() {
                del.insert(pred, seed);
            }
        }
        if del.is_empty() && !reads(rules, &changes.removed) {
            return Ok(del);
        }
        let sv = delta_variants(rules, idb, |p| changes.removed.contains_key(&p), &self.planner)?;

        // --- Over-deletion fixpoint, entirely over the OLD state: a rule
        // instantiation that paired two removed tuples must still be seen,
        // so every non-delta position reads pre-mutation values. ---
        let mut delta: FxHashMap<Sym, Relation> = FxHashMap::default();
        for &i in &sv.ext {
            let pred = sv.variants[i].delta.expect("delta variant");
            delta.entry(pred).or_insert_with(|| changes.removed[&pred].clone());
        }
        for (&pred, seed) in &del {
            delta.insert(pred, seed.clone());
        }
        let mut indexes = IndexCache::new();
        let mut first = true;
        while !delta.is_empty() {
            let what = "incremental over-deletion";
            stats.record_iteration();
            self.options.budget.check(what, stats.iterations, stats.tuples_inserted)?;
            let fire = sv.live(first, &delta);
            first = false;
            let plans: Vec<RoundPlan<'_>> = fire.iter().map(|v| v.fire()).collect();
            let believed: Vec<&Relation> = fire.iter().map(|v| &*derived[&v.head]).collect();
            let mut new_delta: FxHashMap<Sym, Relation> = FxHashMap::default();
            // The merge of an over-deletion round: a produced tuple the
            // materialization believes is marked, once.
            let scanned = delta_round(
                &plans,
                &build_store(self.db_before, self.old, &delta),
                Some(&mut indexes),
                &self.options.budget,
                what,
                &mut |i, rows| {
                    let head = fire[i].head;
                    for row in rows.rows().filter(|row| believed[i].contains_values(row)) {
                        let marked = del
                            .entry(head)
                            .or_insert_with(|| Relation::new(row.len()))
                            .insert_row(row);
                        stats.record_insert(marked);
                        if marked {
                            new_delta
                                .entry(head)
                                .or_insert_with(|| Relation::new(row.len()))
                                .insert_row(row);
                        }
                    }
                },
            )?;
            stats.record_scanned(scanned as usize);
            delta = new_delta;
        }
        drop(indexes);

        if del.values().all(Relation::is_empty) {
            return Ok(del);
        }

        // --- Apply the over-deletion. ---
        for (&pred, marked) in &del {
            let tuples: Vec<Tuple> = marked.iter().map(|t| t.to_tuple()).collect();
            Arc::make_mut(derived.get_mut(&pred).expect("component head")).remove_batch(&tuples);
        }

        // --- Rederivation: deleted tuples that survive as EDB facts, or
        // that one full evaluation round over the surviving state still
        // produces, go back in. ---
        let mut putbacks: FxHashMap<Sym, Relation> = FxHashMap::default();
        for (&pred, marked) in &del {
            if let Some(edb) = self.db_mid.relation(pred) {
                for t in marked.iter().filter(|t| edb.contains_row(*t)) {
                    putbacks
                        .entry(pred)
                        .or_insert_with(|| Relation::new(marked.arity()))
                        .insert_from(t);
                }
            }
        }
        {
            let mut rederive: Vec<(Variant, &Relation)> = Vec::new();
            for rule in rules {
                if let Some(marked) = del.get(&rule.head.pred).filter(|m| !m.is_empty()) {
                    rederive.push((compile_variant(rule, None, &self.planner)?, marked));
                }
            }
            let plans: Vec<RoundPlan<'_>> = rederive.iter().map(|(v, _)| v.fire()).collect();
            let scanned = delta_round(
                &plans,
                &build_store(self.db_mid, derived, &FxHashMap::default()),
                Some(&mut IndexCache::new()),
                &self.options.budget,
                "incremental rederivation",
                &mut |i, rows| {
                    let (variant, marked) = &rederive[i];
                    for row in rows.rows().filter(|row| marked.contains_values(row)) {
                        putbacks
                            .entry(variant.head)
                            .or_insert_with(|| Relation::new(row.len()))
                            .insert_row(row);
                    }
                },
            )?;
            stats.record_scanned(scanned as usize);
        }
        self.options.budget.check(
            "incremental rederivation",
            stats.iterations,
            stats.tuples_inserted,
        )?;

        // --- Put-backs re-enter the materialization and propagate like
        // insertions over the surviving state. ---
        let mut delta: FxHashMap<Sym, Relation> = FxHashMap::default();
        for (&pred, r) in &putbacks {
            let rel = Arc::make_mut(derived.get_mut(&pred).expect("component head"));
            let mut fresh = Relation::new(r.arity());
            for t in r.iter() {
                if rel.insert_from(t) {
                    stats.record_insert(true);
                    fresh.insert_from(t);
                }
            }
            if !fresh.is_empty() {
                delta.insert(pred, fresh);
            }
        }
        let mut rounds = Rounds::new(self.db_mid, self.options, "incremental rederivation");
        while !delta.is_empty() && !sv.rec.is_empty() {
            stats.record_iteration();
            self.options.budget.check(rounds.what, stats.iterations, stats.tuples_inserted)?;
            let mut new_delta: FxHashMap<Sym, Relation> = FxHashMap::default();
            rounds.step(&sv.live(false, &delta), derived, &delta, stats, Some(&mut new_delta))?;
            delta = new_delta;
        }
        Ok(del)
    }

    /// Semi-naive insertion propagation over one positive component, from
    /// its own inserted stored facts and what the components below gained.
    /// Returns every tuple it inserted, per predicate.
    fn insert(
        &self,
        (idb, rules): Component<'_, '_>,
        derived: &mut FxHashMap<Sym, Arc<Relation>>,
        changes: &Changes,
        stats: &mut EvalStats,
    ) -> Result<FxHashMap<Sym, Relation>, EvalError> {
        // Stored facts inserted into a predicate the component derives land
        // in its relation directly; tuples it had already derived are not
        // changes.
        let mut gained: FxHashMap<Sym, Relation> = FxHashMap::default();
        for &pred in idb {
            let Some(tuples) = self.delta.insert.get(&pred) else { continue };
            let rel = derived.get_mut(&pred).expect("component head");
            let mut fresh = Relation::new(rel.arity());
            for t in tuples.iter().filter(|t| !rel.contains(t)) {
                fresh.insert(t.clone());
            }
            if !fresh.is_empty() {
                let rel = Arc::make_mut(rel);
                for t in fresh.iter() {
                    stats.record_insert(rel.insert_from(t));
                }
                gained.insert(pred, fresh);
            }
        }
        if gained.is_empty() && !reads(rules, &changes.added) {
            return Ok(gained);
        }
        let sv = delta_variants(rules, idb, |p| changes.added.contains_key(&p), &self.planner)?;

        // Round 1 deltas: what the components below gained, plus the
        // component's own inserted facts.
        let mut delta: FxHashMap<Sym, Relation> = FxHashMap::default();
        for &i in sv.ext.iter().chain(&sv.rec) {
            let pred = sv.variants[i].delta.expect("delta variant");
            if let Some(r) = changes.added.get(&pred).or_else(|| gained.get(&pred)) {
                delta.entry(pred).or_insert_with(|| r.clone());
            }
        }
        let mut rounds = Rounds::new(self.db_after, self.options, "incremental insert maintenance");
        let mut first = true;
        while !delta.is_empty() {
            stats.record_iteration();
            self.options.budget.check(rounds.what, stats.iterations, stats.tuples_inserted)?;
            let fire = sv.live(first, &delta);
            first = false;
            let mut new_delta: FxHashMap<Sym, Relation> = FxHashMap::default();
            rounds.step(&fire, derived, &delta, stats, Some(&mut new_delta))?;
            new_delta.retain(|_, r| !r.is_empty());
            for (&pred, r) in &new_delta {
                gained.entry(pred).or_insert_with(|| Relation::new(r.arity())).union_in_place(r);
            }
            delta = new_delta;
        }
        Ok(gained)
    }
}

/// The delta-rule variants of one stratum, split by what their delta reads:
/// `rec` variants read an in-stratum predicate (fired every round), `ext`
/// variants read an already-final changed predicate (fired once, in the
/// first round).
struct StratumVariants {
    variants: Vec<Variant>,
    rec: Vec<usize>,
    ext: Vec<usize>,
}

impl StratumVariants {
    /// The variants to fire over `delta`: every `rec` variant, in a
    /// stratum's `first` round preceded by the `ext` ones, less those whose
    /// delta is unbound or empty this round.
    fn live(&self, first: bool, delta: &FxHashMap<Sym, Relation>) -> Vec<&Variant> {
        let ext: &[usize] = if first { &self.ext } else { &[] };
        ext.iter()
            .chain(&self.rec)
            .map(|&i| &self.variants[i])
            .filter(|v| {
                let pred = v.delta.expect("maintenance variants always read a delta");
                delta.get(&pred).is_some_and(|r| !r.is_empty())
            })
            .collect()
    }
}

fn delta_variants(
    rules: &[&Rule],
    stratum_idb: &[Sym],
    external: impl Fn(Sym) -> bool,
    planner: &Planner<'_>,
) -> Result<StratumVariants, EvalError> {
    let mut sv = StratumVariants { variants: Vec::new(), rec: Vec::new(), ext: Vec::new() };
    for rule in rules {
        for (i, lit) in rule.body.iter().enumerate() {
            let Literal::Atom(atom) = lit else { continue };
            let in_stratum = stratum_idb.contains(&atom.pred);
            if !in_stratum && !external(atom.pred) {
                continue;
            }
            let variant = compile_variant(rule, Some(i), planner)?;
            if in_stratum {
                sv.rec.push(sv.variants.len());
            } else {
                sv.ext.push(sv.variants.len());
            }
            sv.variants.push(variant);
        }
    }
    Ok(sv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::seminaive::{seminaive, seminaive_with_options};
    use sepra_ast::parse_program;
    use sepra_storage::Value;

    fn tup(db: &mut Database, names: &[&str]) -> Tuple {
        Tuple::from(names.iter().map(|n| Value::sym(db.intern(n))).collect::<Vec<Value>>())
    }

    /// Applies `delta` in two stages (retract, then insert) and checks that
    /// [`maintain`] over the effective delta matches a from-scratch
    /// semi-naive run on the mutated database.
    fn assert_parity(program_src: &str, facts: &str, build: impl Fn(&mut Database) -> EdbDelta) {
        let mut db = Database::new();
        db.load_fact_text(facts).unwrap();
        let program = parse_program(program_src, db.interner_mut()).unwrap();
        let delta = build(&mut db);
        let old = seminaive(&program, &db).unwrap();

        let db_before = db.clone();
        let mut effective = EdbDelta::default();
        let remove_only = EdbDelta { remove: delta.remove.clone(), ..Default::default() };
        effective.remove = db.apply_delta(&remove_only).unwrap().remove;
        let db_mid = db.clone();
        let insert_only = EdbDelta { insert: delta.insert.clone(), ..Default::default() };
        effective.insert = db.apply_delta(&insert_only).unwrap().insert;

        let scratch = seminaive(&program, &db).unwrap();
        let options = EvalOptions::default();
        let incr =
            maintain(&program, &db_before, &db_mid, &db, &old.relations, &effective, &options)
                .unwrap();
        assert_eq!(incr.relations.len(), scratch.relations.len(), "predicate sets differ");
        for (pred, rel) in &scratch.relations {
            assert_eq!(incr.relations.get(pred), Some(rel), "diverged on {pred:?}");
        }
    }

    const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n";

    #[test]
    fn insert_extends_transitive_closure() {
        assert_parity(TC, "e(a, b). e(b, c).", |db| {
            let e = db.intern("e");
            let mut delta = EdbDelta::default();
            delta.insert.insert(e, vec![tup(db, &["c", "d"]), tup(db, &["d", "a"])]);
            delta
        });
    }

    #[test]
    fn retract_shrinks_transitive_closure() {
        assert_parity(TC, "e(a, b). e(b, c). e(c, d).", |db| {
            let e = db.intern("e");
            let mut delta = EdbDelta::default();
            delta.remove.insert(e, vec![tup(db, &["b", "c"])]);
            delta
        });
    }

    #[test]
    fn rederivation_keeps_alternative_paths() {
        // Two routes from a to c; deleting one must keep t(a, c) alive, and
        // deleting a tuple only ever reached through it must cascade.
        assert_parity(TC, "e(a, b). e(b, c). e(a, c). e(c, d).", |db| {
            let e = db.intern("e");
            let mut delta = EdbDelta::default();
            delta.remove.insert(e, vec![tup(db, &["b", "c"])]);
            delta
        });
    }

    #[test]
    fn mixed_mutation_on_multi_stratum_program() {
        let src = "t(X, Y) :- e(X, Y).\n\
                   t(X, Y) :- e(X, W), t(W, Y).\n\
                   pair(X, Y) :- t(X, Y), t(Y, X).\n";
        assert_parity(src, "e(a, b). e(b, a). e(b, c). e(c, d).", |db| {
            let e = db.intern("e");
            let mut delta = EdbDelta::default();
            delta.remove.insert(e, vec![tup(db, &["b", "a"])]);
            delta.insert.insert(e, vec![tup(db, &["d", "a"]), tup(db, &["c", "b"])]);
            delta
        });
    }

    #[test]
    fn nonlinear_recursion_parity() {
        let src = "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), t(W, Y).\n";
        assert_parity(src, "e(a, b). e(b, c). e(c, d). e(d, e2). e(e2, f).", |db| {
            let e = db.intern("e");
            let mut delta = EdbDelta::default();
            delta.remove.insert(e, vec![tup(db, &["c", "d"])]);
            delta.insert.insert(e, vec![tup(db, &["f", "g"])]);
            delta
        });
    }

    #[test]
    fn mutual_recursion_parity() {
        let src = "even(X) :- zero(X).\n\
                   even(X) :- succ(Y, X), odd(Y).\n\
                   odd(X) :- succ(Y, X), even(Y).\n";
        assert_parity(src, "zero(n0). succ(n0, n1). succ(n1, n2). succ(n2, n3).", |db| {
            let succ = db.intern("succ");
            let mut delta = EdbDelta::default();
            delta.remove.insert(succ, vec![tup(db, &["n1", "n2"])]);
            delta.insert.insert(succ, vec![tup(db, &["n3", "n4"])]);
            delta
        });
    }

    #[test]
    fn retracting_an_edb_seed_of_a_derived_predicate() {
        // `e` is both stored and derived; retracting its EDB fact must not
        // resurrect it, while the rule-derived tuples survive.
        assert_parity(
            "e(X, Y) :- extra(X, Y).\nt(X, Y) :- e(X, Y).\n",
            "e(a, b). extra(c, d).",
            |db| {
                let e = db.intern("e");
                let mut delta = EdbDelta::default();
                delta.remove.insert(e, vec![tup(db, &["a", "b"])]);
                delta
            },
        );
    }

    #[test]
    fn inserting_a_tuple_already_derived_changes_nothing() {
        // t(a, c) is derivable; asserting it as an EDB fact of `extra`'s
        // sibling predicate is still parity-checked end to end.
        assert_parity(TC, "e(a, b). e(b, c).", |db| {
            let e = db.intern("e");
            let mut delta = EdbDelta::default();
            delta.insert.insert(e, vec![tup(db, &["a", "b"])]); // ineffective
            delta
        });
    }

    #[test]
    fn cyclic_retraction_parity() {
        // Deleting an edge of a cycle over-deletes the whole component and
        // rederivation must rebuild exactly the surviving closure.
        assert_parity(TC, "e(a, b). e(b, c). e(c, a). e(c, d).", |db| {
            let e = db.intern("e");
            let mut delta = EdbDelta::default();
            delta.remove.insert(e, vec![tup(db, &["c", "a"])]);
            delta
        });
    }

    const STRATIFIED: &str = "t(X, Y) :- e(X, Y).\n\
                              t(X, Y) :- e(X, W), t(W, Y).\n\
                              unreach(X, Y) :- node(X), node(Y), !t(X, Y).\n\
                              reach(X, count<Y>) :- t(X, Y).\n";

    #[test]
    fn negation_and_count_survive_inserts() {
        assert_parity(STRATIFIED, "e(a, b). e(b, c). node(a). node(b). node(c).", |db| {
            let e = db.intern("e");
            let mut delta = EdbDelta::default();
            delta.insert.insert(e, vec![tup(db, &["c", "a"])]);
            delta
        });
    }

    #[test]
    fn negation_and_count_survive_retracts() {
        // Retracting an edge makes pairs *unreachable*: the negation's
        // result must grow, which tuple-granular DRed could never express.
        assert_parity(STRATIFIED, "e(a, b). e(b, c). node(a). node(b). node(c).", |db| {
            let e = db.intern("e");
            let mut delta = EdbDelta::default();
            delta.remove.insert(e, vec![tup(db, &["b", "c"])]);
            delta
        });
    }

    #[test]
    fn min_aggregate_survives_mixed_mutation() {
        let src = "shortest(Y, min<C>) :- source(X), w(X, Y, C).\n\
                   shortest(Y, min<C>) :- shortest(X, D), w(X, Y, W2), C = D + W2.\n";
        let facts = "source(a). w(a, b, 1). w(b, c, 1). w(a, c, 5).";
        assert_parity(src, facts, |db| {
            let w = db.intern("w");
            let mut delta = EdbDelta::default();
            // Remove the cheap route to c (its min must relax to 5), and
            // add an edge extending the graph.
            delta.remove.insert(
                w,
                vec![Tuple::from(vec![
                    Value::sym(db.intern("b")),
                    Value::sym(db.intern("c")),
                    Value::int(1).unwrap(),
                ])],
            );
            delta.insert.insert(
                w,
                vec![Tuple::from(vec![
                    Value::sym(db.intern("c")),
                    Value::sym(db.intern("d")),
                    Value::int(2).unwrap(),
                ])],
            );
            delta
        });
    }

    #[test]
    fn unaffected_strata_are_kept() {
        // Mutating `node` only touches `unreach`'s stratum: `t` and `reach`
        // must still be byte-identical to from-scratch (assert_parity), and
        // the maintenance run must do strictly less derivation work than
        // recomputing everything would.
        assert_parity(STRATIFIED, "e(a, b). e(b, c). node(a). node(b). node(c).", |db| {
            let node = db.intern("node");
            let mut delta = EdbDelta::default();
            delta.insert.insert(node, vec![tup(db, &["d"])]);
            delta
        });
    }

    #[test]
    fn maintenance_respects_budget() {
        let mut db = Database::new();
        let mut facts = String::new();
        for i in 0..40 {
            facts.push_str(&format!("e(n{i}, n{}).", i + 1));
        }
        db.load_fact_text(&facts).unwrap();
        let program = parse_program(TC, db.interner_mut()).unwrap();
        let old = seminaive(&program, &db).unwrap();
        let db_before = db.clone();
        let e = db.intern("e");
        let mut delta = EdbDelta::default();
        delta.insert.insert(e, vec![tup(&mut db, &["n41", "n0"])]);
        let effective = db.apply_delta(&delta).unwrap();
        let options = EvalOptions { budget: Budget::unlimited().tuples(5), ..Default::default() };
        let err =
            maintain(&program, &db_before, &db_before, &db, &old.relations, &effective, &options)
                .unwrap_err();
        assert!(matches!(err, EvalError::BudgetExceeded { .. }));
    }

    #[test]
    fn empty_delta_is_identity() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c).").unwrap();
        let program = parse_program(TC, db.interner_mut()).unwrap();
        let old = seminaive(&program, &db).unwrap();
        let incr = maintain(
            &program,
            &db,
            &db,
            &db,
            &old.relations,
            &EdbDelta::default(),
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(incr.relations, old.relations);
    }

    #[test]
    fn parallel_maintenance_matches_serial() {
        let mut db = Database::new();
        let mut facts = String::new();
        for i in 0..30 {
            facts.push_str(&format!("e(n{i}, n{}).", i + 1));
        }
        db.load_fact_text(&facts).unwrap();
        let program = parse_program(TC, db.interner_mut()).unwrap();
        let old = seminaive(&program, &db).unwrap();
        let db_before = db.clone();
        let e = db.intern("e");
        let mut delta = EdbDelta::default();
        delta.remove.insert(e, vec![tup(&mut db, &["n10", "n11"])]);
        delta.insert.insert(e, vec![tup(&mut db, &["n31", "n0"])]);
        let mut effective = EdbDelta::default();
        let remove_only = EdbDelta { remove: delta.remove.clone(), ..Default::default() };
        effective.remove = db.apply_delta(&remove_only).unwrap().remove;
        let db_mid = db.clone();
        let insert_only = EdbDelta { insert: delta.insert.clone(), ..Default::default() };
        effective.insert = db.apply_delta(&insert_only).unwrap().insert;
        let scratch = seminaive_with_options(&program, &db, &EvalOptions::default()).unwrap();
        let incr = maintain(
            &program,
            &db_before,
            &db_mid,
            &db,
            &old.relations,
            &effective,
            &EvalOptions::default(),
        )
        .unwrap();
        for (pred, rel) in &scratch.relations {
            assert_eq!(incr.relations.get(pred), Some(rel));
        }
    }
}
