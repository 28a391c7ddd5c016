//! Incremental maintenance of semi-naive materializations under EDB
//! mutation.
//!
//! Given the fixpoint already computed for a program (the `old` relations
//! of a previous [`seminaive`](crate::seminaive::seminaive) run) and an
//! *effective* EDB delta, [`maintain`] produces the fixpoint of the mutated
//! database without recomputing from scratch:
//!
//! * **Insertions** are propagated by a semi-naive continuation: for every
//!   body-atom occurrence of a changed predicate, a delta-rule variant
//!   fires with the new tuples in the delta position and the *full current*
//!   relations everywhere else. Because every newly derived tuple gets its
//!   own delta turn (stratum by stratum, round by round), each rule
//!   instantiation involving at least one new tuple is enumerated at least
//!   once, which is exactly the semi-naive completeness argument.
//! * **Retractions** use delete-and-rederive (DRed). Per stratum: an
//!   over-deletion fixpoint marks every tuple that loses *some* derivation
//!   (delta rules over the **pre-mutation** state, so instantiations
//!   pairing two removed tuples are not missed); the marked tuples are
//!   removed; one full evaluation round over the surviving state — plus a
//!   check against the surviving EDB facts for predicates that are both
//!   stored and derived — puts back every deleted tuple with a remaining
//!   derivation; put-backs then propagate semi-naively. Net removals feed
//!   the deletion deltas of later strata.
//!
//! Every round of both phases is a [`delta_round`] — the same step the
//! from-scratch engines take, with the same index handling, sharding of
//! large deltas and budget probes — and only the merge is maintenance's
//! own: insertion and put-back rounds merge like semi-naive
//! (`Rounds::step`), over-deletion rounds *mark* instead of inserting,
//! and the rederivation round keeps only marked tuples. The loops check the
//! caller's [`Budget`](crate::budget::Budget) at every barrier. The
//! result is *identical* to re-running semi-naive on the mutated database —
//! `tests` and `tests/incremental_parity.rs` at the workspace root assert
//! this for every interleaving of inserts and retracts they generate.
//!
//! Programs with negation or aggregates take a third, coarser path
//! (`maintain_stratified`): strata whose inputs are untouched keep their
//! old relations; affected strata are recomputed from their seed with the
//! same routine the from-scratch engine uses. `tests/stratified_parity.rs`
//! asserts the same parity for those programs.

use sepra_ast::{DependencyGraph, Literal, Program, Rule, Sym};
use sepra_storage::{Database, EdbDelta, EvalStats, FxHashMap, FxHashSet, Relation, Tuple};

use crate::error::EvalError;
use crate::planner::{Planner, PlannerStats};
use crate::round::{delta_round, RoundPlan};
use crate::seminaive::{
    agg_specs, build_store, compile_variant, eval_stratum, rule_strata, stratified_graph, Derived,
    EvalOptions, Rounds, Variant,
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
    old: &FxHashMap<Sym, Relation>,
    delta: &EdbDelta,
    options: &EvalOptions,
) -> Result<Derived, EvalError> {
    // Negation and aggregation are not derivation-monotone, so the
    // tuple-granular DRed/continuation machinery below (which assumes every
    // derived tuple has a positive derivation tree) does not apply. Such
    // programs take the stratum-granular path instead; pure positive
    // programs keep the existing fine-grained phases untouched.
    if program.uses_stratified_constructs() {
        return maintain_stratified(program, db_after, old, delta, options);
    }
    let mut stats = EvalStats::new();
    // Plan against the post-mutation EDB: that is what every join in both
    // phases (rederivation included) actually runs over.
    let planner_stats = PlannerStats::from_database(db_after);
    let planner = Planner::new(options.plan_mode, Some(&planner_stats));
    let mut derived = seed_derived(program, db_before, old);
    let strata = rule_strata(&DependencyGraph::build(program), program);
    if delta.remove.values().any(|t| !t.is_empty()) {
        retract_phase(
            &strata,
            db_before,
            db_mid,
            old,
            &mut derived,
            &delta.remove,
            options,
            &planner,
            &mut stats,
        )?;
    }
    if delta.insert.values().any(|t| !t.is_empty()) {
        insert_phase(
            &strata,
            db_after,
            &mut derived,
            &delta.insert,
            options,
            &planner,
            &mut stats,
        )?;
    }
    for (&pred, rel) in &derived {
        stats.record_size(db_after.interner().resolve(pred), rel.len());
    }
    planner.record_into(&mut stats);
    Ok(Derived { relations: derived, stats })
}

/// Stratum-granular maintenance for programs with negation or aggregates.
///
/// Honest about its granularity: it does not chase individual tuples.
/// Instead it walks the SCC strata in dependency order, keeps every stratum
/// whose inputs (positive, negated, and aggregated dependencies, plus the
/// stratum's own EDB facts) are untouched by the mutation, and recomputes an
/// affected stratum from its seed with the *same* [`eval_stratum`] routine
/// the from-scratch engine runs — so maintenance cannot drift from
/// from-scratch semantics by construction. A recomputed stratum that lands
/// on its old value stops the cascade: downstream strata see no change and
/// are kept as well.
fn maintain_stratified(
    program: &Program,
    db_after: &Database,
    old: &FxHashMap<Sym, Relation>,
    delta: &EdbDelta,
    options: &EvalOptions,
) -> Result<Derived, EvalError> {
    let mut stats = EvalStats::new();
    let graph = stratified_graph(program, db_after.interner())?;
    let mut planner_stats = PlannerStats::from_database(db_after);
    let aggs = agg_specs(program);

    // Predicates whose contents differ from the pre-mutation state, seeded
    // by the effective EDB delta.
    let mut changed: FxHashSet<Sym> = FxHashSet::default();
    for (&p, tuples) in delta.remove.iter().chain(delta.insert.iter()) {
        if !tuples.is_empty() {
            changed.insert(p);
        }
    }

    let mut derived = seed_derived(program, db_after, old);
    for (stratum_idb, rules) in rule_strata(&graph, program) {
        let affected = stratum_idb.iter().any(|p| changed.contains(p))
            || rules.iter().any(|r| {
                r.body_atoms().any(|a| changed.contains(&a.pred))
                    || r.negated_atoms().any(|a| changed.contains(&a.pred))
            });
        if !affected {
            for &p in &stratum_idb {
                planner_stats.add_relation(p, &derived[&p]);
            }
            continue;
        }
        // Reset the stratum to its from-scratch seed and re-run it over the
        // maintained lower strata.
        for &p in &stratum_idb {
            let arity = derived[&p].arity();
            let seed = if aggs.contains_key(&p) {
                Relation::new(arity)
            } else {
                db_after.relation(p).cloned().unwrap_or_else(|| Relation::new(arity))
            };
            derived.insert(p, seed);
        }
        eval_stratum(
            &rules,
            &stratum_idb,
            db_after,
            &mut derived,
            &aggs,
            options,
            &mut stats,
            &planner_stats,
        )?;
        for &p in &stratum_idb {
            let now = &derived[&p];
            if !old.get(&p).is_some_and(|before| before == now) {
                changed.insert(p);
            }
            planner_stats.add_relation(p, now);
        }
    }
    for (&pred, rel) in &derived {
        stats.record_size(db_after.interner().resolve(pred), rel.len());
    }
    Ok(Derived { relations: derived, stats })
}

/// One relation per rule-head predicate, starting from the old fixpoint.
fn seed_derived(
    program: &Program,
    db: &Database,
    old: &FxHashMap<Sym, Relation>,
) -> FxHashMap<Sym, Relation> {
    let mut derived: FxHashMap<Sym, Relation> = FxHashMap::default();
    for rule in &program.rules {
        let pred = rule.head.pred;
        if derived.contains_key(&pred) {
            continue;
        }
        let rel = old.get(&pred).cloned().unwrap_or_else(|| {
            db.relation(pred).cloned().unwrap_or_else(|| Relation::new(rule.head.arity()))
        });
        derived.insert(pred, rel);
    }
    derived
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

/// Semi-naive insertion propagation. `db` is the post-insertion EDB;
/// `inserted` the effective EDB insertions.
fn insert_phase(
    strata: &[(Vec<Sym>, Vec<&Rule>)],
    db: &Database,
    derived: &mut FxHashMap<Sym, Relation>,
    inserted: &FxHashMap<Sym, Vec<Tuple>>,
    options: &EvalOptions,
    planner: &Planner<'_>,
    stats: &mut EvalStats,
) -> Result<(), EvalError> {
    // Seed the changed set. Insertions into a predicate that is also a rule
    // head land in its derived relation directly; tuples it had already
    // derived are not changes.
    let mut changed: FxHashMap<Sym, Relation> = FxHashMap::default();
    for (&pred, tuples) in inserted {
        let Some(first) = tuples.first() else { continue };
        let mut fresh = Relation::new(first.arity());
        if let Some(rel) = derived.get_mut(&pred) {
            for t in tuples {
                if rel.insert(t.clone()) {
                    stats.record_insert(true);
                    fresh.insert(t.clone());
                }
            }
        } else {
            for t in tuples {
                fresh.insert(t.clone());
            }
        }
        if !fresh.is_empty() {
            changed.insert(pred, fresh);
        }
    }
    if changed.is_empty() {
        return Ok(());
    }

    for (stratum_idb, rules) in strata {
        let sv = delta_variants(
            rules,
            stratum_idb,
            |p| changed.get(&p).is_some_and(|r| !r.is_empty()),
            planner,
        )?;
        if sv.variants.is_empty() {
            continue;
        }

        // Round 1 deltas: external changes (EDB insertions and earlier
        // strata) plus in-stratum tuples already changed (EDB insertions
        // into predicates this stratum derives).
        let mut delta: FxHashMap<Sym, Relation> = FxHashMap::default();
        for &i in sv.ext.iter().chain(sv.rec.iter()) {
            let pred = sv.variants[i].delta.expect("delta variant");
            if let Some(r) = changed.get(&pred) {
                if !r.is_empty() {
                    delta.entry(pred).or_insert_with(|| r.clone());
                }
            }
        }
        if delta.is_empty() {
            continue;
        }

        let mut rounds = Rounds::new(db, options, "incremental insert maintenance");
        let mut first = true;
        loop {
            stats.record_iteration();
            options.budget.check(rounds.what, stats.iterations, stats.tuples_inserted)?;
            let fire = sv.live(first, &delta);
            first = false;
            let mut new_delta: FxHashMap<Sym, Relation> = FxHashMap::default();
            rounds.step(&fire, derived, &delta, stats, Some(&mut new_delta))?;
            for (&pred, r) in &new_delta {
                if !r.is_empty() {
                    changed
                        .entry(pred)
                        .or_insert_with(|| Relation::new(r.arity()))
                        .union_in_place(r);
                }
            }
            if new_delta.values().all(Relation::is_empty) {
                break;
            }
            delta = new_delta;
        }
    }
    Ok(())
}

/// Delete-and-rederive. `db_before`/`db_after` are the EDB before/after the
/// retractions (insertions not yet applied); `old` is the pre-mutation
/// fixpoint (used read-only as the over-deletion state); `removed` the
/// effective EDB retractions.
#[allow(clippy::too_many_arguments)] // one call site; the phases share this exact state
fn retract_phase(
    strata: &[(Vec<Sym>, Vec<&Rule>)],
    db_before: &Database,
    db_after: &Database,
    old: &FxHashMap<Sym, Relation>,
    derived: &mut FxHashMap<Sym, Relation>,
    removed: &FxHashMap<Sym, Vec<Tuple>>,
    options: &EvalOptions,
    planner: &Planner<'_>,
    stats: &mut EvalStats,
) -> Result<(), EvalError> {
    // Net removals per predicate, consumed as deletion deltas by later
    // strata. EDB-only predicates contribute their retractions directly;
    // derived predicates contribute `Del \ rederived` once their stratum
    // completes.
    let mut removed_acc: FxHashMap<Sym, Relation> = FxHashMap::default();
    for (&pred, tuples) in removed {
        let Some(first) = tuples.first() else { continue };
        if derived.contains_key(&pred) {
            continue;
        }
        let mut r = Relation::new(first.arity());
        for t in tuples {
            r.insert(t.clone());
        }
        removed_acc.insert(pred, r);
    }

    for (stratum_idb, rules) in strata {
        let sv = delta_variants(
            rules,
            stratum_idb,
            |p| removed_acc.get(&p).is_some_and(|r| !r.is_empty()),
            planner,
        )?;

        // Everything marked for deletion in this stratum, per predicate.
        // Seeded with retracted EDB facts of predicates this stratum
        // derives (they were part of the old materialization).
        let mut del: FxHashMap<Sym, Relation> = FxHashMap::default();
        for &pred in stratum_idb {
            if let Some(tuples) = removed.get(&pred) {
                let believed = &derived[&pred];
                let mut seed = Relation::new(believed.arity());
                for t in tuples {
                    if believed.contains(t) {
                        seed.insert(t.clone());
                    }
                }
                if !seed.is_empty() {
                    del.insert(pred, seed);
                }
            }
        }
        if sv.ext.is_empty() && del.is_empty() {
            continue; // nothing upstream changed and no EDB facts retracted
        }

        // --- Over-deletion fixpoint, entirely over the OLD state: a rule
        // instantiation that paired two removed tuples must still be seen,
        // so every non-delta position reads pre-mutation values. ---
        let mut delta: FxHashMap<Sym, Relation> = FxHashMap::default();
        for &i in &sv.ext {
            let pred = sv.variants[i].delta.expect("delta variant");
            if let Some(r) = removed_acc.get(&pred) {
                if !r.is_empty() {
                    delta.entry(pred).or_insert_with(|| r.clone());
                }
            }
        }
        for (&pred, seed) in &del {
            delta.insert(pred, seed.clone());
        }
        let mut indexes = IndexCache::new();
        let mut first = true;
        while !delta.is_empty() {
            let what = "incremental over-deletion";
            stats.record_iteration();
            options.budget.check(what, stats.iterations, stats.tuples_inserted)?;
            let fire = sv.live(first, &delta);
            first = false;
            let plans: Vec<RoundPlan<'_>> = fire.iter().map(|v| v.fire()).collect();
            let believed: Vec<&Relation> = fire.iter().map(|v| &derived[&v.head]).collect();
            let mut new_delta: FxHashMap<Sym, Relation> = FxHashMap::default();
            // The merge of an over-deletion round: a produced tuple the
            // materialization believes is marked, once.
            let scanned = delta_round(
                &plans,
                &build_store(db_before, old, &delta),
                Some(&mut indexes),
                options.threads,
                &options.budget,
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
            continue;
        }

        // --- Apply the over-deletion. ---
        for (&pred, marked) in &del {
            let tuples: Vec<Tuple> = marked.iter().map(|t| t.to_tuple()).collect();
            derived.get_mut(&pred).expect("stratum head").remove_batch(&tuples);
        }

        // --- Rederivation: deleted tuples that survive as EDB facts, or
        // that one full evaluation round over the surviving state still
        // produces, go back in. ---
        let mut putbacks: FxHashMap<Sym, Relation> = FxHashMap::default();
        for (&pred, marked) in &del {
            if let Some(edb) = db_after.relation(pred) {
                for t in marked.iter() {
                    if edb.contains_row(t) {
                        putbacks
                            .entry(pred)
                            .or_insert_with(|| Relation::new(marked.arity()))
                            .insert_from(t);
                    }
                }
            }
        }
        {
            let mut rederive: Vec<(Variant, &Relation)> = Vec::new();
            for rule in rules {
                if let Some(marked) = del.get(&rule.head.pred).filter(|m| !m.is_empty()) {
                    rederive.push((compile_variant(rule, None, planner)?, marked));
                }
            }
            let plans: Vec<RoundPlan<'_>> = rederive.iter().map(|(v, _)| v.fire()).collect();
            let scanned = delta_round(
                &plans,
                &build_store(db_after, derived, &FxHashMap::default()),
                Some(&mut IndexCache::new()),
                options.threads,
                &options.budget,
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
        options.budget.check(
            "incremental rederivation",
            stats.iterations,
            stats.tuples_inserted,
        )?;

        // --- Put-backs re-enter the materialization and propagate like
        // insertions over the surviving state. ---
        let mut delta: FxHashMap<Sym, Relation> = FxHashMap::default();
        for (&pred, r) in &putbacks {
            let rel = derived.get_mut(&pred).expect("stratum head");
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
        let mut rounds = Rounds::new(db_after, options, "incremental rederivation");
        while !delta.is_empty() && !sv.rec.is_empty() {
            stats.record_iteration();
            options.budget.check(rounds.what, stats.iterations, stats.tuples_inserted)?;
            let mut new_delta: FxHashMap<Sym, Relation> = FxHashMap::default();
            rounds.step(&sv.live(false, &delta), derived, &delta, stats, Some(&mut new_delta))?;
            delta = new_delta;
        }

        // --- Net removals feed deletion deltas of later strata. ---
        for (&pred, marked) in &del {
            let rel = &derived[&pred];
            let mut net = Relation::new(marked.arity());
            for t in marked.iter() {
                if !rel.contains_row(t) {
                    net.insert_from(t);
                }
            }
            if !net.is_empty() {
                removed_acc.insert(pred, net);
            }
        }
    }
    Ok(())
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
    /// semi-naive run on the mutated database, for 1 and 3 threads.
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
        for threads in [1, 3] {
            let options = EvalOptions { threads, ..Default::default() };
            let incr =
                maintain(&program, &db_before, &db_mid, &db, &old.relations, &effective, &options)
                    .unwrap();
            assert_eq!(
                incr.relations.len(),
                scratch.relations.len(),
                "threads={threads}: predicate sets differ"
            );
            for (pred, rel) in &scratch.relations {
                assert_eq!(
                    incr.relations.get(pred),
                    Some(rel),
                    "threads={threads} diverged on {pred:?}"
                );
            }
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
        for threads in [2, 4] {
            let incr = maintain(
                &program,
                &db_before,
                &db_mid,
                &db,
                &old.relations,
                &effective,
                &EvalOptions { threads, ..Default::default() },
            )
            .unwrap();
            for (pred, rel) in &scratch.relations {
                assert_eq!(incr.relations.get(pred), Some(rel), "threads={threads}");
            }
        }
    }
}
