//! The extensional database.
//!
//! A [`Database`] owns the symbol [`Interner`] shared by programs, queries,
//! and data, plus one [`Relation`] per extensional predicate. Convenience
//! constructors accept facts as strings, AST facts, or raw tuples, so tests,
//! examples, and generators can all build databases tersely.

use std::sync::Arc;

use sepra_ast::{Atom, Interner, Program, Sym, Term};

use crate::hasher::FxHashMap;
use crate::relation::Relation;
use crate::relstats::RelStats;
use crate::tuple::Tuple;
use crate::value::{Value, ValueError};

/// Errors loading facts into a database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatabaseError {
    /// A fact contained a variable.
    NonGroundFact(String),
    /// A predicate was used with two different arities.
    ArityMismatch {
        /// The predicate name.
        pred: String,
        /// Previously seen arity.
        expected: usize,
        /// Conflicting arity.
        found: usize,
    },
    /// A value was unrepresentable.
    Value(ValueError),
}

impl std::fmt::Display for DatabaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatabaseError::NonGroundFact(s) => write!(f, "fact is not ground: {s}"),
            DatabaseError::ArityMismatch { pred, expected, found } => {
                write!(f, "predicate `{pred}` loaded with arity {found}, previously {expected}")
            }
            DatabaseError::Value(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DatabaseError {}

impl From<ValueError> for DatabaseError {
    fn from(e: ValueError) -> Self {
        DatabaseError::Value(e)
    }
}

/// An extensional database: named relations over a shared interner.
///
/// Relations are stored behind [`Arc`], so [`Database::clone`] is a cheap
/// read-mostly snapshot: clones share tuple storage until one of them
/// mutates a relation, at which point [`Arc::make_mut`] copies just that
/// relation. This is what lets a query server hand every worker thread its
/// own `Database` without duplicating the EDB. A clone's interner is its
/// own deep copy; [`Database::fork`] shares that too.
///
/// Every effective mutation (an insert that added a tuple, a retract that
/// removed one) bumps a **generation counter**. A clone freezes the
/// counter at the snapshot's value, so two databases with equal
/// generations that descend from the same lineage hold the same facts —
/// this is what lets caches and prepared state be validated against a
/// snapshot instead of diffing relations.
#[derive(Debug, Default, Clone)]
pub struct Database {
    interner: Interner,
    relations: FxHashMap<Sym, Arc<Relation>>,
    generation: u64,
}

/// A batch of EDB changes: tuples to remove and tuples to add, per
/// predicate. [`Database::apply_delta`] applies one and reports the
/// *effective* delta (only tuples genuinely removed/added), which is what
/// incremental view maintenance propagates.
#[derive(Debug, Default, Clone)]
pub struct EdbDelta {
    /// Tuples to retract, per predicate. Applied before `insert`.
    pub remove: FxHashMap<Sym, Vec<Tuple>>,
    /// Tuples to insert, per predicate.
    pub insert: FxHashMap<Sym, Vec<Tuple>>,
}

impl EdbDelta {
    /// Whether the delta contains no tuples at all.
    pub fn is_empty(&self) -> bool {
        self.remove.values().all(Vec::is_empty) && self.insert.values().all(Vec::is_empty)
    }

    /// Total tuples across both halves.
    pub fn len(&self) -> usize {
        self.remove.values().map(Vec::len).sum::<usize>()
            + self.insert.values().map(Vec::len).sum::<usize>()
    }
}

/// Composes consecutive [`EdbDelta`]s into the one delta that leaves a
/// database where applying them in order would have: per tuple, the
/// *last* operation wins. A tuple last inserted ends in the insert half
/// and one last removed in the remove half, so the halves are disjoint
/// and [`Database::apply_delta`]'s remove-then-insert order is immaterial.
/// Because `apply_delta` ignores an absent remove and a present insert,
/// this holds whether or not each composed operation was effective where
/// it was first applied — a log replays the same on a database that
/// already holds part of it. Tuples keep first-seen order per predicate,
/// so equal runs compose to equal deltas.
#[derive(Debug, Default)]
pub struct DeltaRun {
    preds: FxHashMap<Sym, TupleOps>,
}

#[derive(Debug, Default)]
struct TupleOps {
    /// Every tuple the run touched, in first-seen order.
    order: Vec<Tuple>,
    /// Whether each touched tuple's last operation was an insert.
    inserted: FxHashMap<Tuple, bool>,
}

impl DeltaRun {
    /// Composes `delta` after everything pushed so far (its removes
    /// before its inserts, as [`Database::apply_delta`] applies them).
    pub fn push(&mut self, delta: EdbDelta) {
        for (is_insert, half) in [(false, delta.remove), (true, delta.insert)] {
            for (pred, tuples) in half {
                let ops = self.preds.entry(pred).or_default();
                for tuple in tuples {
                    if ops.inserted.insert(tuple.clone(), is_insert).is_none() {
                        ops.order.push(tuple);
                    }
                }
            }
        }
    }

    /// The composed delta.
    pub fn into_delta(self) -> EdbDelta {
        let mut delta = EdbDelta::default();
        for (pred, ops) in self.preds {
            for tuple in ops.order {
                let half = if ops.inserted[&tuple] { &mut delta.insert } else { &mut delta.remove };
                half.entry(pred).or_default().push(tuple);
            }
        }
        delta
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// A working copy for one evaluation: it shares the relations by
    /// handle, as a clone does, and reads this database's symbol table as
    /// the frozen base of an [`Interner::fork`], so its cost does not grow
    /// with the symbols interned. Names it interns stay its own; the
    /// handles of this database resolve alike in both.
    pub fn fork(&self) -> Database {
        Database {
            interner: self.interner.fork(),
            relations: self.relations.clone(),
            generation: self.generation,
        }
    }

    /// The interner (shared symbol space).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable access to the interner, for parsing programs and queries in
    /// this database's symbol space.
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Interns a name.
    pub fn intern(&mut self, name: &str) -> Sym {
        self.interner.intern(name)
    }

    /// The relation for `pred`, if any facts were loaded.
    pub fn relation(&self, pred: Sym) -> Option<&Relation> {
        self.relations.get(&pred).map(|r| &**r)
    }

    /// The shared handle of `pred`'s relation: a copy of the handle is a
    /// snapshot that costs no row copy until one side is written.
    pub fn shared_relation(&self, pred: Sym) -> Option<&Arc<Relation>> {
        self.relations.get(&pred)
    }

    /// Binds `pred` to `relation` by handle, dropping the handle it held:
    /// a rewrite moves or shares a relation under a new name without
    /// copying a row, and the relation keeps its statistics and kept
    /// indexes.
    ///
    /// Meant only for a private [`Database::fork`] that one evaluation
    /// owns: the generation is not bumped, so on a shared database two
    /// states could read the same generation. The arity must match any
    /// relation `pred` already has (checked in debug builds).
    pub fn bind_relation(&mut self, pred: Sym, relation: Arc<Relation>) {
        debug_assert!(self.check_arity(pred, relation.arity()).is_ok());
        self.relations.insert(pred, relation);
    }

    /// The relation for `pred`, creating an empty one of `arity` if absent.
    ///
    /// If the relation is shared with a snapshot clone, this copies it
    /// first (copy-on-write), so mutation never disturbs other clones.
    ///
    /// Relations created here maintain [`RelStats`] (this is the only way a
    /// relation enters a database), so every EDB mutation path — direct
    /// inserts, retracts, [`Database::apply_delta`], fact loading, and WAL
    /// replay, which all funnel through these — keeps the planner's
    /// statistics exact without ever scanning the data.
    pub fn relation_mut(&mut self, pred: Sym, arity: usize) -> &mut Relation {
        Arc::make_mut(
            self.relations.entry(pred).or_insert_with(|| Arc::new(Relation::with_stats(arity))),
        )
    }

    /// The maintained statistics for `pred`'s relation, if present.
    pub fn rel_stats(&self, pred: Sym) -> Option<&RelStats> {
        self.relations.get(&pred).and_then(|r| r.stats())
    }

    /// Installs a fully built relation for `pred` — the bulk-load path for
    /// columnar checkpoints, which decode whole relations without going
    /// through per-tuple [`Database::insert`]. If `pred` already has a
    /// relation, the rows are unioned in (matching per-tuple insert
    /// semantics for duplicate predicate sections); otherwise the relation
    /// is adopted wholesale, with statistics rebuilt if it carries none.
    /// Returns how many tuples were new.
    pub fn install_relation(
        &mut self,
        pred: Sym,
        relation: Relation,
    ) -> Result<usize, DatabaseError> {
        self.check_arity(pred, relation.arity())?;
        let added = match self.relations.entry(pred) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                Arc::make_mut(e.get_mut()).union_in_place(&relation)
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                let mut relation = relation;
                relation.ensure_stats();
                let n = relation.len();
                e.insert(Arc::new(relation));
                n
            }
        };
        self.generation += added as u64;
        Ok(added)
    }

    /// Iterates over `(predicate, relation)` pairs.
    pub fn relations(&self) -> impl Iterator<Item = (Sym, &Relation)> {
        self.relations.iter().map(|(&p, r)| (p, &**r))
    }

    /// Total number of stored tuples.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// The number of distinct constants appearing in all relations, and in
    /// `more` (relations derived over this database) — the paper's `n` in
    /// its `O(f(n))` statements.
    pub fn distinct_constant_count<'a>(
        &'a self,
        more: impl IntoIterator<Item = &'a Relation>,
    ) -> usize {
        let mut seen = crate::hasher::FxHashSet::default();
        for r in self.relations.values().map(|r| &**r).chain(more) {
            for c in 0..r.arity() {
                for &v in r.column(c) {
                    seen.insert(v);
                }
            }
        }
        seen.len()
    }

    /// The EDB generation: bumped once per effective mutation (an insert
    /// that added a tuple, a retract that removed one). Clones freeze the
    /// counter at the snapshot's value.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Overwrites the generation counter. Crash recovery uses this to
    /// resume the counter lineage a checkpoint or WAL record was stamped
    /// with, so post-recovery commits continue the on-disk numbering
    /// instead of restarting from the replayed mutation count.
    pub fn force_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Drops every relation (the interner and generation are kept). Used
    /// when a checkpoint snapshot is authoritative for the whole EDB:
    /// facts loaded from a program file must not resurrect tuples the
    /// snapshot says were retracted.
    pub fn clear_relations(&mut self) {
        self.relations.clear();
    }

    fn check_arity(&self, pred: Sym, arity: usize) -> Result<(), DatabaseError> {
        if let Some(existing) = self.relations.get(&pred) {
            if existing.arity() != arity {
                return Err(DatabaseError::ArityMismatch {
                    pred: self.interner.resolve(pred).to_string(),
                    expected: existing.arity(),
                    found: arity,
                });
            }
        }
        Ok(())
    }

    /// Inserts one tuple for `pred`.
    pub fn insert(&mut self, pred: Sym, tuple: Tuple) -> Result<bool, DatabaseError> {
        self.check_arity(pred, tuple.arity())?;
        let arity = tuple.arity();
        let added = self.relation_mut(pred, arity).insert(tuple);
        if added {
            self.generation += 1;
        }
        Ok(added)
    }

    /// Removes one tuple from `pred`. Returns `Ok(false)` when the
    /// predicate or tuple is absent; an arity mismatch against an existing
    /// relation is still an error (the caller confused two predicates).
    pub fn retract(&mut self, pred: Sym, tuple: &Tuple) -> Result<bool, DatabaseError> {
        self.check_arity(pred, tuple.arity())?;
        let Some(rel) = self.relations.get_mut(&pred) else {
            return Ok(false);
        };
        if !rel.contains(tuple) {
            return Ok(false);
        }
        let removed = Arc::make_mut(rel).remove_batch(std::slice::from_ref(tuple)) == 1;
        if removed {
            self.generation += 1;
        }
        Ok(removed)
    }

    /// Removes a ground AST atom.
    pub fn retract_atom(&mut self, atom: &Atom) -> Result<bool, DatabaseError> {
        let tuple = self.ground_tuple(atom)?;
        self.retract(atom.pred, &tuple)
    }

    /// Converts a ground AST atom into the tuple it denotes (without
    /// touching any relation). Errors on variables or unrepresentable
    /// values — the checks [`Database::insert_atom`] and
    /// [`Database::retract_atom`] share.
    pub fn ground_tuple(&self, atom: &Atom) -> Result<Tuple, DatabaseError> {
        let mut values = Vec::with_capacity(atom.arity());
        for term in &atom.terms {
            match term {
                Term::Const(c) => values.push(Value::from_const(*c)?),
                Term::Var(v) => {
                    return Err(DatabaseError::NonGroundFact(self.interner.resolve(*v).to_string()))
                }
            }
        }
        Ok(Tuple::from(values))
    }

    /// Applies a batch of changes — retractions first, then insertions —
    /// and returns the **effective** delta: only tuples that were actually
    /// removed (present before) or added (absent before). Arity checks run
    /// up front, so on error the database is untouched.
    pub fn apply_delta(&mut self, delta: &EdbDelta) -> Result<EdbDelta, DatabaseError> {
        let mut arities: FxHashMap<Sym, usize> = FxHashMap::default();
        for (&pred, tuples) in delta.remove.iter().chain(delta.insert.iter()) {
            for t in tuples {
                self.check_arity(pred, t.arity())?;
                let seen = *arities.entry(pred).or_insert_with(|| t.arity());
                if seen != t.arity() {
                    return Err(DatabaseError::ArityMismatch {
                        pred: self.interner.resolve(pred).to_string(),
                        expected: seen,
                        found: t.arity(),
                    });
                }
            }
        }
        let mut effective = EdbDelta::default();
        for (&pred, tuples) in &delta.remove {
            let Some(rel) = self.relations.get_mut(&pred) else { continue };
            let present: Vec<Tuple> = tuples.iter().filter(|t| rel.contains(t)).cloned().collect();
            if present.is_empty() {
                continue;
            }
            let removed = Arc::make_mut(rel).remove_batch(&present);
            self.generation += removed as u64;
            effective.remove.insert(pred, present);
        }
        for (&pred, tuples) in &delta.insert {
            let mut added = Vec::new();
            for t in tuples {
                let arity = t.arity();
                if self.relation_mut(pred, arity).insert(t.clone()) {
                    self.generation += 1;
                    added.push(t.clone());
                }
            }
            if !added.is_empty() {
                effective.insert.insert(pred, added);
            }
        }
        Ok(effective)
    }

    /// Inserts a fact given as symbolic constant names, interning them,
    /// e.g. `db.insert_named("friend", &["tom", "sue"])`.
    pub fn insert_named(&mut self, pred: &str, args: &[&str]) -> Result<bool, DatabaseError> {
        let p = self.intern(pred);
        let values: Vec<Value> = args.iter().map(|a| Value::sym(self.interner.intern(a))).collect();
        self.insert(p, Tuple::from(values))
    }

    /// Loads a ground AST atom as a fact.
    pub fn insert_atom(&mut self, atom: &Atom) -> Result<bool, DatabaseError> {
        let tuple = self.ground_tuple(atom)?;
        self.insert(atom.pred, tuple)
    }

    /// Loads every fact of a parsed program (rules with empty bodies).
    pub fn load_facts(&mut self, program: &Program) -> Result<usize, DatabaseError> {
        let mut added = 0;
        for fact in program.facts() {
            if self.insert_atom(&fact.head)? {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Parses fact text (e.g. `"friend(tom, sue). friend(sue, joe)."`) and
    /// loads every fact.
    pub fn load_fact_text(&mut self, text: &str) -> Result<usize, Box<dyn std::error::Error>> {
        let program = sepra_ast::parse::parse_program(text, &mut self.interner)?;
        Ok(self.load_facts(&program)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_named_and_lookup() {
        let mut db = Database::new();
        db.insert_named("friend", &["tom", "sue"]).unwrap();
        db.insert_named("friend", &["sue", "joe"]).unwrap();
        db.insert_named("friend", &["tom", "sue"]).unwrap(); // dup
        let friend = db.intern("friend");
        assert_eq!(db.relation(friend).unwrap().len(), 2);
        assert_eq!(db.total_tuples(), 2);
        assert_eq!(db.distinct_constant_count([]), 3);
    }

    #[test]
    fn load_fact_text() {
        let mut db = Database::new();
        let n = db.load_fact_text("friend(tom, sue). age(tom, 42). friend(sue, joe).").unwrap();
        assert_eq!(n, 3);
        let age = db.intern("age");
        let rel = db.relation(age).unwrap();
        let t = rel.iter().next().unwrap();
        assert_eq!(t[1].as_int(), Some(42));
    }

    #[test]
    fn rejects_non_ground_fact() {
        let mut db = Database::new();
        let p = db.intern("p");
        let x = db.interner_mut().intern("X");
        let atom = Atom::new(p, vec![Term::Var(x)]);
        assert!(matches!(db.insert_atom(&atom), Err(DatabaseError::NonGroundFact(_))));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let mut db = Database::new();
        db.insert_named("p", &["a", "b"]).unwrap();
        let err = db.insert_named("p", &["a"]).unwrap_err();
        assert!(matches!(err, DatabaseError::ArityMismatch { .. }));
    }

    #[test]
    fn clone_is_a_shared_snapshot_until_mutation() {
        let mut db = Database::new();
        db.insert_named("e", &["a", "b"]).unwrap();
        let e = db.intern("e");
        let snapshot = db.clone();
        // The clone shares the relation storage with the original.
        assert!(std::ptr::eq(db.relation(e).unwrap(), snapshot.relation(e).unwrap()));
        // Mutating the original copies its relation; the snapshot is
        // unaffected and keeps the old storage.
        db.insert_named("e", &["b", "c"]).unwrap();
        assert_eq!(db.relation(e).unwrap().len(), 2);
        assert_eq!(snapshot.relation(e).unwrap().len(), 1);
    }

    #[test]
    fn a_fork_shares_relations_and_symbols_but_keeps_its_names() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c).").unwrap();
        let e = db.intern("e");
        let base_len = db.interner().len();
        let mut fork = db.fork();
        assert!(Arc::ptr_eq(db.shared_relation(e).unwrap(), fork.shared_relation(e).unwrap()));
        assert_eq!(fork.generation(), db.generation());
        for k in 0..base_len {
            let sym = Sym(k as u32);
            assert_eq!(fork.interner().resolve(sym), db.interner().resolve(sym));
        }
        // Names and rows the fork adds stay in the fork.
        fork.insert_named("magic@e@bf", &["a"]).unwrap();
        let magic = fork.interner().get("magic@e@bf").unwrap();
        assert_eq!(magic.index(), base_len);
        assert!(db.interner().get("magic@e@bf").is_none());
        assert!(db.relation(magic).is_none());
        fork.insert_named("e", &["c", "d"]).unwrap();
        assert_eq!((db.relation(e).unwrap().len(), fork.relation(e).unwrap().len()), (2, 3));
        // The parent interns on beside the live fork.
        let late = db.intern("late");
        assert_eq!(db.interner().resolve(late), "late");
        assert_eq!(fork.interner().resolve(magic), "magic@e@bf");
        // A clone of the fork is flat and independent of both.
        let mut copy = fork.clone();
        assert_eq!(copy.interner().resolve(magic), "magic@e@bf");
        copy.intern("only-in-copy");
        assert!(fork.interner().get("only-in-copy").is_none());
        assert!(db.interner().get("only-in-copy").is_none());
    }

    #[test]
    fn bind_relation_moves_a_handle_without_copying_rows() {
        let mut db = Database::new();
        db.load_fact_text("p(a, b). p(b, c).").unwrap();
        let (p, base) = (db.intern("p"), db.intern("p@base"));
        let rows = Arc::clone(db.shared_relation(p).unwrap());
        db.bind_relation(base, Arc::clone(&rows));
        db.bind_relation(p, Arc::new(Relation::new(2)));
        assert!(Arc::ptr_eq(db.shared_relation(base).unwrap(), &rows));
        assert_eq!(Arc::strong_count(&rows), 2, "`p` dropped its handle");
        assert_eq!(db.rel_stats(base).unwrap().rows(), 2, "statistics travel with the handle");
        assert!(db.relation(p).unwrap().is_empty());
    }

    #[test]
    fn retract_removes_and_reports_membership() {
        let mut db = Database::new();
        db.insert_named("e", &["a", "b"]).unwrap();
        db.insert_named("e", &["b", "c"]).unwrap();
        let e = db.intern("e");
        let ab = db.relation(e).unwrap().iter().next().unwrap().to_tuple();
        assert!(db.retract(e, &ab).unwrap());
        assert!(!db.retract(e, &ab).unwrap()); // already gone
        assert_eq!(db.relation(e).unwrap().len(), 1);
        // Absent predicate: not an error, just "nothing removed".
        let q = db.intern("q");
        assert!(!db.retract(q, &ab).unwrap());
    }

    #[test]
    fn retract_checks_arity() {
        let mut db = Database::new();
        db.insert_named("p", &["a", "b"]).unwrap();
        let p = db.intern("p");
        let sym = Value::sym(db.intern("a"));
        let narrow = Tuple::from(vec![sym]);
        assert!(matches!(db.retract(p, &narrow), Err(DatabaseError::ArityMismatch { .. })));
    }

    #[test]
    fn generation_counts_effective_mutations_only() {
        let mut db = Database::new();
        assert_eq!(db.generation(), 0);
        db.insert_named("e", &["a", "b"]).unwrap();
        assert_eq!(db.generation(), 1);
        db.insert_named("e", &["a", "b"]).unwrap(); // dup: no change
        assert_eq!(db.generation(), 1);
        let e = db.intern("e");
        let ab = db.relation(e).unwrap().iter().next().unwrap().to_tuple();
        db.retract(e, &ab).unwrap();
        assert_eq!(db.generation(), 2);
        db.retract(e, &ab).unwrap(); // absent: no change
        assert_eq!(db.generation(), 2);
        // Clones freeze the counter.
        let snapshot = db.clone();
        db.insert_named("e", &["x", "y"]).unwrap();
        assert_eq!(snapshot.generation(), 2);
        assert_eq!(db.generation(), 3);
    }

    #[test]
    fn apply_delta_returns_effective_changes() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c).").unwrap();
        let e = db.intern("e");
        let tuples: Vec<Tuple> = db.relation(e).unwrap().iter().map(|t| t.to_tuple()).collect();
        let fresh = Tuple::from(vec![Value::sym(db.intern("x")), Value::sym(db.intern("y"))]);
        let mut delta = EdbDelta::default();
        // Remove one present tuple and one absent tuple; insert one new
        // tuple, one duplicate of the new tuple, and one existing tuple.
        delta.remove.insert(e, vec![tuples[0].clone(), fresh.clone()]);
        delta.insert.insert(e, vec![fresh.clone(), fresh.clone(), tuples[1].clone()]);
        let gen_before = db.generation();
        let effective = db.apply_delta(&delta).unwrap();
        assert_eq!(effective.remove[&e], vec![tuples[0].clone()]);
        assert_eq!(effective.insert[&e], vec![fresh.clone()]);
        assert_eq!(effective.len(), 2);
        assert_eq!(db.generation(), gen_before + 2);
        let rel = db.relation(e).unwrap();
        assert_eq!(rel.len(), 2);
        assert!(!rel.contains(&tuples[0]));
        assert!(rel.contains(&tuples[1]));
        assert!(rel.contains(&fresh));
    }

    #[test]
    fn a_run_composes_to_what_its_deltas_do_in_order() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c).").unwrap();
        let e = db.intern("e");
        let pair = |db: &mut Database, x: &str, y: &str| {
            Tuple::from(vec![Value::sym(db.intern(x)), Value::sym(db.intern(y))])
        };
        let (ab, bc) = (pair(&mut db, "a", "b"), pair(&mut db, "b", "c"));
        let (xy, yz) = (pair(&mut db, "x", "y"), pair(&mut db, "y", "z"));
        let delta = |remove: &[&Tuple], insert: &[&Tuple]| {
            let mut delta = EdbDelta::default();
            delta.remove.insert(e, remove.iter().map(|t| (*t).clone()).collect());
            delta.insert.insert(e, insert.iter().map(|t| (*t).clone()).collect());
            delta
        };
        // Toggles (xy in, out, in; ab out, in), a present insert (bc), an
        // absent remove (yz), and remove-then-insert inside one delta.
        let script = [
            delta(&[], &[&xy, &bc]),
            delta(&[&xy, &ab, &yz], &[]),
            delta(&[&bc], &[&xy, &bc]),
            delta(&[], &[&ab]),
        ];
        let mut one_by_one = db.clone();
        let mut run = DeltaRun::default();
        for step in &script {
            one_by_one.apply_delta(step).unwrap();
            run.push(step.clone());
        }
        let composed = run.into_delta();
        assert_eq!(composed.insert[&e], vec![xy.clone(), bc.clone(), ab.clone()]);
        assert_eq!(composed.remove[&e], vec![yz.clone()]);
        db.apply_delta(&composed).unwrap();
        let facts = |db: &Database| {
            let mut rows: Vec<Tuple> =
                db.relation(e).unwrap().iter().map(|t| t.to_tuple()).collect();
            rows.sort();
            rows
        };
        assert_eq!(facts(&db), facts(&one_by_one));
    }

    #[test]
    fn rel_stats_follow_every_mutation_path() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(a, c). e(b, c).").unwrap();
        let e = db.intern("e");
        let s = db.rel_stats(e).unwrap();
        assert_eq!(s.rows(), 3);
        assert_eq!(s.distinct(0), 2);
        assert_eq!(s.distinct(1), 2);

        // Retraction through apply_delta keeps the counts exact.
        let ab = db.relation(e).unwrap().iter().next().unwrap().to_tuple();
        let mut delta = EdbDelta::default();
        delta.remove.insert(e, vec![ab]);
        let fresh = Tuple::from(vec![Value::sym(db.intern("x")), Value::sym(db.intern("c"))]);
        delta.insert.insert(e, vec![fresh]);
        db.apply_delta(&delta).unwrap();
        let s = db.rel_stats(e).unwrap();
        assert_eq!(s.rows(), 3);
        assert_eq!(s.distinct(0), 3); // {(a,c),(b,c),(x,c)}: a, b, x
        assert_eq!(s.distinct(1), 1); // only c remains in column 1
                                      // The maintained stats always equal a from-scratch rebuild.
        let rebuilt = RelStats::from_rows(2, db.relation(e).unwrap().iter());
        assert_eq!(*s, rebuilt);
        // Unknown predicates have no stats.
        let ghost = db.intern("ghost");
        assert!(db.rel_stats(ghost).is_none());
    }

    #[test]
    fn apply_delta_rejects_arity_mismatch_without_mutating() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b).").unwrap();
        let e = db.intern("e");
        let good: Vec<Tuple> = db.relation(e).unwrap().iter().map(|t| t.to_tuple()).collect();
        let bad = Tuple::from(vec![Value::sym(db.intern("z"))]);
        let mut delta = EdbDelta::default();
        delta.remove.insert(e, good.clone());
        delta.insert.insert(e, vec![bad]);
        let gen_before = db.generation();
        assert!(matches!(db.apply_delta(&delta), Err(DatabaseError::ArityMismatch { .. })));
        // Up-front validation means nothing was applied.
        assert_eq!(db.generation(), gen_before);
        assert!(db.relation(e).unwrap().contains(&good[0]));
    }

    #[test]
    fn load_facts_skips_rules() {
        let mut db = Database::new();
        let text = "t(X, Y) :- e(X, Y).\ne(a, b).\n";
        let program = sepra_ast::parse::parse_program(text, db.interner_mut()).unwrap();
        let n = db.load_facts(&program).unwrap();
        assert_eq!(n, 1);
        let t = db.intern("t");
        assert!(db.relation(t).is_none());
    }
}
