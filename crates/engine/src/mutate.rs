//! Live EDB mutations: staged on copy-on-write snapshots, committed
//! all-or-none, with the one prepared support maintained incrementally.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sepra_ast::parse_program;
use sepra_eval::maintain;
use sepra_storage::{EdbDelta, EvalStats};

use crate::processor::{ProcessorError, QueryProcessor};

/// The result of one [`QueryProcessor::apply_mutation`] call.
#[derive(Debug)]
pub struct MutationOutcome {
    /// Tuples genuinely added to the EDB (duplicates don't count).
    pub inserted: usize,
    /// Tuples genuinely removed from the EDB (absent tuples don't count).
    pub retracted: usize,
    /// The processor generation after the mutation.
    pub generation: u64,
    /// Statistics of the incremental maintenance work (empty when the
    /// processor was not prepared or the mutation was ineffective).
    pub stats: EvalStats,
    /// Wall-clock time of the whole call: parsing (when entered through
    /// [`QueryProcessor::apply_mutation`]; delta entry points have no
    /// parse step), applying, and maintenance.
    pub elapsed: Duration,
    /// The *effective* delta: exactly the tuples added and removed, with
    /// no-op inserts/retracts filtered out. This is what a write-ahead
    /// log records — replaying it reproduces the commit bit for bit.
    pub delta: EdbDelta,
}

impl QueryProcessor {
    /// Applies a batch of live EDB mutations — `retracts` first, then
    /// `inserts`, each a list of ground-fact texts like `"e(a, b)."` — and
    /// incrementally maintains the prepared materializations (semi-naive
    /// delta propagation for insertions, delete-and-rederive for
    /// retractions; see [`sepra_eval::incremental`]).
    ///
    /// All-or-none: changes are staged on copy-on-write snapshots and
    /// committed only after parsing, application, and maintenance all
    /// succeed, so an arity error or an exhausted budget leaves the
    /// processor exactly as it was. On commit the generation advances and
    /// the shared plan cache is revalidated, so no query — on this
    /// processor or any clone sharing the cache — can hit a pre-mutation
    /// plan. Detection outcomes survive (they depend only on the program);
    /// the one support is maintained incrementally, once, not recomputed.
    pub fn apply_mutation(
        &mut self,
        inserts: &[&str],
        retracts: &[&str],
    ) -> Result<MutationOutcome, ProcessorError> {
        let start = Instant::now();
        let mut delta = EdbDelta::default();
        for (sources, bucket, verb) in
            [(retracts, &mut delta.remove, "retract"), (inserts, &mut delta.insert, "insert")]
        {
            for src in sources {
                let parsed = parse_program(src, self.db.interner_mut())?;
                if parsed.rules.is_empty() {
                    return Err(ProcessorError::Facts(format!("{verb} expects facts: `{src}`")));
                }
                for rule in parsed.rules {
                    if !rule.is_fact() {
                        return Err(ProcessorError::Facts(format!(
                            "{verb} expects ground facts, not rules: `{src}`"
                        )));
                    }
                    let tuple = self
                        .db
                        .ground_tuple(&rule.head)
                        .map_err(|e| ProcessorError::Facts(e.to_string()))?;
                    bucket.entry(rule.head.pred).or_default().push(tuple);
                }
            }
        }
        self.apply_delta_from(start, delta)
    }

    /// [`apply_mutation`](Self::apply_mutation) minus the parsing: applies
    /// an already-built [`EdbDelta`] whose tuples reference *this*
    /// processor's interner. WAL replay enters here — recovered deltas are
    /// decoded frames, not fact text — and gets the identical all-or-none
    /// staging, incremental maintenance, and plan-cache revalidation.
    pub fn apply_delta_mutation(
        &mut self,
        delta: EdbDelta,
    ) -> Result<MutationOutcome, ProcessorError> {
        self.apply_delta_from(Instant::now(), delta)
    }

    /// The shared tail of both mutation entry points. `start` is when the
    /// caller began its part of the work — [`apply_mutation`](Self::apply_mutation)
    /// passes its pre-parse timestamp so `elapsed` covers parsing too.
    fn apply_delta_from(
        &mut self,
        start: Instant,
        delta: EdbDelta,
    ) -> Result<MutationOutcome, ProcessorError> {
        // Stage on snapshots: `db_before` → retractions → `db_mid` →
        // insertions → `db`. The clones are cheap (copy-on-write) and give
        // the DRed over-deletion its pre-mutation state.
        let db_before = self.db.clone();
        let mut db = self.db.clone();
        let mut effective = EdbDelta::default();
        let remove_only = EdbDelta { remove: delta.remove, ..Default::default() };
        effective.remove =
            db.apply_delta(&remove_only).map_err(|e| ProcessorError::Facts(e.to_string()))?.remove;
        let db_mid = db.clone();
        let insert_only = EdbDelta { insert: delta.insert, ..Default::default() };
        effective.insert =
            db.apply_delta(&insert_only).map_err(|e| ProcessorError::Facts(e.to_string()))?.insert;

        let retracted = effective.remove.values().map(Vec::len).sum::<usize>();
        let inserted = effective.insert.values().map(Vec::len).sum::<usize>();
        let mut stats = EvalStats::new();
        // An ineffective mutation changes nothing: it keeps the prepared
        // state and the current generation.
        if retracted + inserted > 0 {
            // Incrementally maintain the one prepared support across the
            // effective delta.
            let mut prepared = self.prepared.clone();
            if let Some(p) = prepared.as_mut().filter(|p| !p.support_rules.rules.is_empty()) {
                let derived = maintain(
                    &p.support_rules,
                    &db_before,
                    &db_mid,
                    &db,
                    &p.support,
                    &effective,
                    &self.eval_options(),
                )?;
                stats.merge(&derived.stats);
                Arc::make_mut(p).support = Arc::new(derived.relations);
            }

            // Commit.
            self.db = db;
            self.prepared = prepared;
            self.generation += 1;
            // The program is unchanged here — only the EDB moved — so
            // cached plans stay valid as long as the relations they scan
            // have not drifted past the replanning threshold. Passing the
            // database lets the cache keep structurally sound plans and
            // drop only those whose cost assumptions no longer hold, for
            // every clone sharing the cache.
            self.plan_cache.validate_generation(self.generation, Some(&self.db));
        }
        Ok(MutationOutcome {
            inserted,
            retracted,
            generation: self.generation,
            stats,
            elapsed: start.elapsed(),
            delta: effective,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::fixtures::*;
    use crate::{QueryResult, Strategy, StrategyChoice};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sepra_storage::{DeltaRun, Tuple};

    /// A separable recursion whose nonrecursive subgoal `friend` is itself
    /// derived, so `prepare` materializes a supporting stratum that every
    /// mutation of `knows` has to maintain.
    const SUPPORTED: &str = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
                             buys(X, Y) :- perfectFor(X, Y).\n\
                             friend(X, Y) :- knows(X, Y).\n\
                             friend(X, Y) :- knows(Y, X).\n\
                             knows(n0, n1). knows(n1, n2). knows(n3, n2).\n\
                             perfectFor(n2, gift). perfectFor(n0, card).\n";

    /// A separable recursion over another one: the one support holds the
    /// lower separable predicate's own relation, which every mutation of
    /// `e` has to maintain.
    const STACKED: &str = "low(X, Y) :- e(X, W), low(W, Y).\n\
                           low(X, Y) :- e(X, Y).\n\
                           up(X, Y) :- f(X, W), up(W, Y).\n\
                           up(X, Y) :- low(X, Y).\n\
                           e(n0, n1). e(n1, n2). f(n3, n0). f(n4, n3).\n";

    /// Everything a mutation can change, in comparable form: the EDB, the
    /// prepared support's relations, and the answers to `queries`.
    fn observable(qp: &mut QueryProcessor, queries: &[String]) -> Vec<String> {
        let mut seen = Vec::new();
        for (pred, relation) in qp.db.relations() {
            let mut rows: Vec<Tuple> = relation.iter().map(|t| t.to_tuple()).collect();
            rows.sort();
            seen.push(format!("edb {pred:?} {rows:?}"));
        }
        if let Some(prepared) = &qp.prepared {
            for (derived, relation) in prepared.support.iter() {
                let mut rows: Vec<Tuple> = relation.iter().map(|t| t.to_tuple()).collect();
                rows.sort();
                seen.push(format!("support: {derived:?} {rows:?}"));
            }
        }
        seen.sort();
        for query in queries {
            let answers = qp.query(query).unwrap().answers;
            seen.push(format!(
                "{query} {:?}",
                answers.iter().map(|t| t.to_tuple()).collect::<Vec<_>>()
            ));
        }
        seen
    }

    /// A script of `steps` raw deltas over `pool` (ground facts, some live
    /// in the program and some not): each step retracts and inserts a few
    /// facts drawn with replacement, whatever their state — so tuples
    /// toggle, present ones are inserted and absent ones retracted.
    fn toggling_script(
        qp: &mut QueryProcessor,
        pool: &[String],
        steps: usize,
        seed: u64,
    ) -> Vec<EdbDelta> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<_> = pool
            .iter()
            .map(|fact| {
                let head = parse_program(fact, qp.interner_mut()).unwrap().rules.remove(0).head;
                (head.pred, qp.db.ground_tuple(&head).unwrap())
            })
            .collect();
        (0..steps)
            .map(|_| {
                let mut delta = EdbDelta::default();
                for half in [&mut delta.remove, &mut delta.insert] {
                    for _ in 0..rng.gen_range(0..=2usize) {
                        let (pred, tuple) = &pool[rng.gen_range(0..pool.len())];
                        half.entry(*pred).or_default().push(tuple.clone());
                    }
                }
                delta
            })
            .collect()
    }

    /// For every way of cutting `script` into consecutive runs, applying
    /// each run's [`DeltaRun`] composition as one mutation must leave what
    /// applying the script one delta at a time leaves.
    fn assert_every_split_agrees(source: &str, pool: &[String], queries: &[String], seed: u64) {
        let mut base = QueryProcessor::new();
        base.load(source).unwrap();
        base.prepare().unwrap();
        let script = toggling_script(&mut base, pool, 6, seed);
        let mut one_by_one = base.clone();
        for delta in &script {
            one_by_one.apply_delta_mutation(delta.clone()).unwrap();
        }
        let want = observable(&mut one_by_one, queries);
        // Bit i of `cuts` set: a run ends after step i.
        for cuts in 0..1u32 << (script.len() - 1) {
            let mut coalesced = base.clone();
            let mut run = DeltaRun::default();
            for (i, delta) in script.iter().enumerate() {
                run.push(delta.clone());
                if cuts >> i & 1 == 1 || i + 1 == script.len() {
                    coalesced.apply_delta_mutation(std::mem::take(&mut run).into_delta()).unwrap();
                }
            }
            assert_eq!(
                observable(&mut coalesced, queries),
                want,
                "seed {seed}, cuts {cuts:#b}\n{source}"
            );
        }
    }

    #[test]
    fn every_split_of_a_script_into_coalesced_runs_maintains_the_same_state() {
        let facts = |source: &str| -> Vec<String> {
            source
                .split_inclusive('.')
                .map(str::trim)
                .filter(|f| !f.contains(":-") && f.ends_with('.'))
                .map(String::from)
                .collect()
        };
        for seed in 0..6 {
            // Positive: left-linear closure, edges over a five-node pool.
            let mut source = sepra_gen::programs::transitive_closure().to_string();
            source.push_str("e(n0, n1). e(n1, n2). e(n2, n0). e(n3, n4).\n");
            let mut pool = facts(&source);
            pool.extend(["e(n2, n3).", "e(n4, n0).", "e(n1, n1)."].map(String::from));
            assert_every_split_agrees(
                &source,
                &pool,
                &["t(n0, Y)?".into(), "t(X, Y)?".into()],
                seed,
            );

            // Separable with a maintained supporting stratum.
            let mut pool = facts(SUPPORTED);
            pool.extend(
                ["knows(n2, n4).", "knows(n4, n0).", "perfectFor(n4, ring)."].map(String::from),
            );
            let queries = ["buys(n0, Y)?".into(), "buys(X, gift)?".into(), "friend(X, Y)?".into()];
            assert_every_split_agrees(SUPPORTED, &pool, &queries, seed);

            // Separable over separable, sharing the one support.
            let mut pool = facts(STACKED);
            pool.extend(["e(n2, n3).", "e(n4, n0).", "f(n2, n4)."].map(String::from));
            let queries = ["up(n4, Y)?".into(), "up(X, n2)?".into(), "low(n0, Y)?".into()];
            assert_every_split_agrees(STACKED, &pool, &queries, seed);

            // Stratified (negation, count, recursive min): the generated
            // program, with its own script's facts added to the pool.
            let scenario = sepra_gen::random::random_stratified_scenario(seed);
            let mut pool = facts(&scenario.program);
            pool.extend(
                scenario.steps.iter().flat_map(|(ins, outs)| ins.iter().chain(outs).cloned()),
            );
            assert_every_split_agrees(&scenario.program, &pool, &scenario.queries, seed);
        }
    }

    #[test]
    fn bounded_verdict_survives_mutations() {
        let mut qp = QueryProcessor::new();
        qp.load(SWAP).unwrap();
        qp.prepare().unwrap();
        // Insert facts of the bounded predicate itself: the verdict is
        // program-only, so the strategy must not change — and the new
        // fact must flow through the t@edb snapshot into the answers.
        let before = qp.query("t(X, Y)?").unwrap().answers.len();
        qp.apply_mutation(&["t(d, c)."], &[]).unwrap();
        let r = qp.query("t(X, Y)?").unwrap();
        assert_eq!(r.strategy, Strategy::Bounded);
        // t(d, c) itself plus the flip through sym? no sym(c, d) fact, so
        // exactly one new answer.
        assert_eq!(r.answers.len(), before + 1);
    }

    #[test]
    fn mutation_updates_prepared_answers_incrementally() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        qp.prepare().unwrap();
        assert_eq!(qp.query("buys(tom, Y)?").unwrap().answers.len(), 2);

        let out = qp.apply_mutation(&["friend(joe, pat).", "perfectFor(pat, hat)."], &[]).unwrap();
        assert_eq!(out.inserted, 2);
        assert_eq!(out.retracted, 0);
        let r = qp.query("buys(tom, Y)?").unwrap();
        assert_eq!(r.strategy, Strategy::Separable);
        assert_eq!(r.answers.len(), 3); // widget, bargain, hat

        let out = qp.apply_mutation(&[], &["perfectFor(joe, widget)."]).unwrap();
        assert_eq!(out.retracted, 1);
        let r = qp.query("buys(tom, Y)?").unwrap();
        assert_eq!(r.answers.len(), 1); // only hat: bargain rode on widget
    }

    #[test]
    fn mutation_matches_a_fresh_processor_for_every_strategy() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        qp.prepare().unwrap();
        qp.apply_mutation(
            &["friend(joe, pat).", "perfectFor(pat, hat).", "cheaper(steal, hat)."],
            &["cheaper(bargain, widget)."],
        )
        .unwrap();

        let mut fresh = QueryProcessor::new();
        fresh.load(EX_1_2).unwrap();
        fresh
            .db_mut()
            .load_fact_text("friend(joe, pat). perfectFor(pat, hat). cheaper(steal, hat).")
            .unwrap();
        let widget = {
            let cheaper = fresh.db_mut().intern("cheaper");
            let rel = fresh.db().relation(cheaper).unwrap();
            rel.iter().next().unwrap().to_tuple()
        };
        let cheaper = fresh.db_mut().intern("cheaper");
        fresh.db_mut().retract(cheaper, &widget).unwrap();

        for strategy in [
            Strategy::Separable,
            Strategy::MagicSets,
            Strategy::Counting,
            Strategy::SemiNaive,
            Strategy::Naive,
        ] {
            let a = qp.query_with("buys(tom, Y)?", StrategyChoice::Force(strategy)).unwrap();
            let b = fresh.query_with("buys(tom, Y)?", StrategyChoice::Force(strategy)).unwrap();
            // The two processors interned symbols in different orders, so
            // compare rendered tuples rather than raw `Sym` ids.
            let mut ra: Vec<String> =
                a.answers.iter().map(|t| t.display(qp.db().interner()).to_string()).collect();
            let mut rb: Vec<String> =
                b.answers.iter().map(|t| t.display(fresh.db().interner()).to_string()).collect();
            ra.sort();
            rb.sort();
            assert_eq!(ra, rb, "strategy {strategy} diverged after mutation");
        }
    }

    #[test]
    fn mutation_bumps_generation_and_drift_checks_plan_cache() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        qp.prepare().unwrap();
        let gen0 = qp.generation();
        assert_eq!(qp.plan_cache().generation(), gen0);
        qp.query("buys(tom, Y)?").unwrap();
        assert_eq!(qp.plan_cache().entries(), 1);
        assert_eq!(qp.plan_cache().misses(), 1);

        // A small mutation advances the generation but keeps the cached
        // plan: nothing it scans has drifted past the replan threshold.
        let out = qp.apply_mutation(&["friend(pat, tom)."], &[]).unwrap();
        assert_eq!(out.generation, gen0 + 1);
        assert_eq!(qp.generation(), gen0 + 1);
        assert_eq!(qp.plan_cache().generation(), gen0 + 1);
        assert_eq!(qp.plan_cache().entries(), 1);
        assert_eq!(qp.plan_cache().drift_invalidations(), 0);
        qp.query("buys(tom, Y)?").unwrap();
        assert_eq!(qp.plan_cache().misses(), 1, "retained plan served the query");

        // Growing `friend` far past the size it was planned at (the
        // retained entry keeps its *original* snapshot, so small steps
        // accumulate) invalidates the plan; the next query recompiles.
        let grow: Vec<String> = (0..40).map(|i| format!("friend(extra{i}, tom).")).collect();
        let grow_refs: Vec<&str> = grow.iter().map(String::as_str).collect();
        qp.apply_mutation(&grow_refs, &[]).unwrap();
        assert_eq!(qp.plan_cache().entries(), 0);
        assert_eq!(qp.plan_cache().drift_invalidations(), 1);
        qp.query("buys(tom, Y)?").unwrap();
        assert_eq!(qp.plan_cache().misses(), 2);

        // An ineffective mutation keeps the generation (and the cache).
        let gen2 = qp.generation();
        let out = qp.apply_mutation(&["friend(pat, tom)."], &["ghost(a, b)."]).unwrap();
        assert_eq!(out.inserted, 0);
        assert_eq!(out.retracted, 0);
        assert_eq!(qp.generation(), gen2);
        assert_eq!(qp.plan_cache().entries(), 1);
    }

    #[test]
    fn mutation_rejects_rules_and_non_ground_facts() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        let err = qp.apply_mutation(&["p(X) :- q(X)."], &[]).unwrap_err();
        assert!(matches!(err, ProcessorError::Facts(_)), "{err}");
        // A non-ground fact is already rejected by the parser's safety
        // check (head variable not bound in an empty body).
        let err = qp.apply_mutation(&["friend(X, tom)."], &[]).unwrap_err();
        assert!(matches!(err, ProcessorError::Ast(_)), "{err}");
    }

    #[test]
    fn failed_mutation_is_all_or_none() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        qp.prepare().unwrap();
        let gen0 = qp.generation();
        // The retraction is valid, the insertion has an arity clash: the
        // whole mutation must be rejected and the database untouched.
        let err = qp.apply_mutation(&["friend(solo)."], &["friend(tom, sue)."]).unwrap_err();
        assert!(matches!(err, ProcessorError::Facts(_)), "{err}");
        assert_eq!(qp.generation(), gen0);
        assert_eq!(qp.query("buys(tom, Y)?").unwrap().answers.len(), 2);
    }

    #[test]
    fn unprepared_mutation_still_works() {
        let mut qp = QueryProcessor::new();
        qp.load(EX_1_2).unwrap();
        let out = qp.apply_mutation(&["perfectFor(sue, gift)."], &[]).unwrap();
        assert_eq!(out.inserted, 1);
        assert_eq!(qp.query("buys(tom, Y)?").unwrap().answers.len(), 3);
    }

    #[test]
    fn stratified_mutations_maintain_incrementally() {
        let mut qp = QueryProcessor::new();
        qp.load(STRATIFIED).unwrap();
        qp.prepare().unwrap();
        // Retracting the light edge relaxes the shortest path to c through
        // the direct heavy edge, and b becomes unreachable entirely.
        qp.apply_mutation(&[], &["e(a, b).", "w(a, b, 1)."]).unwrap();
        let mut fresh = QueryProcessor::new();
        fresh
            .load(
                "t(X, Y) :- e(X, Y).\n\
                 t(X, Y) :- e(X, W), t(W, Y).\n\
                 unreach(X, Y) :- node(X), node(Y), !t(X, Y).\n\
                 shortest(Y, min<C>) :- source(X), w(X, Y, C).\n\
                 shortest(Y, min<C>) :- shortest(X, D), w(X, Y, W2), C = D + W2.\n\
                 e(b, c). node(a). node(b). node(c). source(a).\n\
                 w(b, c, 1). w(a, c, 5).\n",
            )
            .unwrap();
        // The two processors have distinct interners, so compare rendered
        // tuples rather than raw symbol ids.
        for query in ["unreach(X, Y)?", "shortest(X, C)?", "t(X, Y)?"] {
            let got = qp.query(query).unwrap();
            let want = fresh.query(query).unwrap();
            let render = |r: &QueryResult, i: &sepra_ast::Interner| -> Vec<String> {
                let mut v: Vec<String> =
                    r.answers.iter().map(|t| t.to_tuple().display(i).to_string()).collect();
                v.sort();
                v
            };
            assert_eq!(
                render(&got, qp.db().interner()),
                render(&want, fresh.db().interner()),
                "{query}"
            );
        }
    }
}
