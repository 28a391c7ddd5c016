//! Join plans, and the batch kernel that runs them.
//!
//! A [`ConjPlan`] evaluates a conjunction of atoms (plus equality, sum and
//! negation literals) left to right, exactly as the paper's algorithms
//! describe: each atom is probed with whatever columns are already bound as
//! an index key, and unbound columns bind new variable slots. The same
//! machinery drives ordinary rule bodies in the semi-naive engine, the
//! magic-rewritten rules, and the carry-extension operators `f_1`/`f_2` of
//! the Separable algorithm (Figure 2), which are planned as conjunctions
//! whose first atom is a synthetic `carry` relation.
//!
//! The plan is a value: [`crate::planner`]'s one loop emits its steps in
//! order, with the estimate each scan was chosen by, and this module only
//! consumes them. A step holds what a row would otherwise re-decide: per
//! scan, which columns form the key, which bind a slot, and which must
//! agree with an earlier column of the same atom. Execution
//! ([`ConjPlan::run`]) is **batch-at-a-time**:
//! partial matches live in struct-of-arrays *chunks* of at most `CHUNK`
//! rows, one value column per slot. A scan expands a chunk into `(chunk row,
//! relation position)` pairs through `Index::lookup` and gathers the next
//! chunk from them a column at a time; equalities, sums and negations
//! filter a chunk in place; the output leaves as a row-major [`RowBuf`] with
//! its row hashes, once per chunk. Expansion is stable and a full chunk is
//! pushed all the way downstream before the scan continues, so rows are
//! emitted — and tuples counted as scanned — in exactly the order of the
//! nested loops the plan denotes.

use sepra_ast::{Literal, Sym, Term};
use sepra_storage::{row_hash, Relation, Value};

use crate::error::EvalError;
use crate::planner::{Planner, ScanEstimate};
use crate::round::RowBuf;
use crate::store::{IndexCache, RelStore};

/// Rows per chunk of partial matches: enough that per-chunk work (a sink
/// call, a `store` lookup) vanishes per row, few enough to stay in L1.
const CHUNK: usize = 1024;

/// An abstract name for a relation consulted during execution; resolved to a
/// concrete [`sepra_storage::Relation`] through a [`RelStore`] at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelKey {
    /// The current value of a predicate (derived if present, else EDB).
    Pred(Sym),
    /// The semi-naive delta of a predicate.
    Delta(Sym),
    /// An auxiliary working relation (carry/seen/magic seeds and the like),
    /// identified by a small integer chosen by the evaluator.
    Aux(u32),
}

/// What a column of a scanned atom (or an output column) refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermSpec {
    /// A fixed constant value.
    Const(Value),
    /// A variable slot.
    Slot(usize),
}

/// One step of a compiled plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Scan (or index-probe) a relation.
    Scan {
        /// Which relation to consult.
        rel: RelKey,
        /// Columns statically known to be bound before this step, in
        /// ascending order — used as the index key.
        key_cols: Vec<usize>,
        /// What each key column must equal (parallel to `key_cols`): a
        /// constant, or a slot bound before this step.
        key: Vec<TermSpec>,
        /// `(column, slot)`: the column binds the (until now unbound) slot.
        binds: Vec<(usize, usize)>,
        /// `(column, earlier column)`: a variable first bound by this atom
        /// occurs again in it, so the two columns must agree.
        same: Vec<(usize, usize)>,
    },
    /// Bind a currently-unbound slot from a bound spec.
    EqBind {
        /// Destination slot (unbound before this step).
        slot: usize,
        /// Source (bound) specification.
        from: TermSpec,
    },
    /// Check two bound specifications for equality.
    EqCheck {
        /// Left operand.
        a: TermSpec,
        /// Right operand.
        b: TermSpec,
    },
    /// Negation-as-failure over a completed relation: succeed iff the row
    /// formed by the (all-bound) column specs is absent. An absent relation
    /// has no rows, so the check passes. Always probes [`RelKey::Pred`] —
    /// negation reads a *completed lower stratum*, never a delta.
    NegCheck {
        /// Which relation to probe.
        rel: RelKey,
        /// Per-column specification (every slot bound before this step).
        cols: Vec<TermSpec>,
    },
    /// Bind an unbound slot to the integer sum of two bound operands.
    /// A non-integer operand or an out-of-range sum derives nothing (the
    /// partial-function reading of `dst = a + b`).
    SumBind {
        /// Destination slot (unbound before this step).
        slot: usize,
        /// Left addend (bound).
        a: TermSpec,
        /// Right addend (bound).
        b: TermSpec,
    },
    /// Check that a bound destination equals the sum of two bound operands.
    SumCheck {
        /// Expected sum (bound).
        dst: TermSpec,
        /// Left addend (bound).
        a: TermSpec,
        /// Right addend (bound).
        b: TermSpec,
    },
}

/// An atom to be compiled: an abstract relation key plus argument terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanAtom {
    /// Which relation the atom scans.
    pub rel: RelKey,
    /// The argument terms.
    pub terms: Vec<Term>,
}

/// A literal to be compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanLiteral {
    /// A positive atom.
    Atom(PlanAtom),
    /// A negated atom (compiled to a [`Step::NegCheck`] once its variables
    /// are bound).
    Neg(PlanAtom),
    /// An equality constraint.
    Eq(Term, Term),
    /// A sum constraint `dst = a + b`.
    Sum(Term, Term, Term),
}

impl PlanLiteral {
    /// Lifts an AST literal, mapping its predicate through `key_of`.
    /// Negated atoms always resolve to [`RelKey::Pred`]: negation reads the
    /// completed relation of a lower stratum, never a delta.
    pub fn from_literal(lit: &Literal, key_of: &impl Fn(Sym) -> RelKey) -> Self {
        match lit {
            Literal::Atom(a) => {
                PlanLiteral::Atom(PlanAtom { rel: key_of(a.pred), terms: a.terms.clone() })
            }
            Literal::Neg(a) => {
                PlanLiteral::Neg(PlanAtom { rel: RelKey::Pred(a.pred), terms: a.terms.clone() })
            }
            Literal::Eq(l, r) => PlanLiteral::Eq(*l, *r),
            Literal::Sum(d, a, b) => PlanLiteral::Sum(*d, *a, *b),
        }
    }
}

/// A compiled conjunction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConjPlan {
    /// The execution steps, in order.
    pub steps: Vec<Step>,
    /// Per `Scan` step, in order: the estimate the planner chose it by.
    pub scans: Vec<ScanEstimate>,
    /// Total number of variable slots.
    pub n_slots: usize,
    /// Number of leading slots that must be supplied by the caller at
    /// execution time (the pre-bound input variables).
    pub n_inputs: usize,
    /// Output row specification.
    pub output: Vec<TermSpec>,
    /// Slot → variable name, for diagnostics.
    pub var_names: Vec<Sym>,
}

impl ConjPlan {
    /// Compiles `body` in source order — [`Planner::plan`] with a
    /// source-order planner, and `inputs` bound by the caller before
    /// execution (slots `0..inputs.len()` in input order). `output` is the
    /// emitted row.
    pub fn compile(
        inputs: &[Sym],
        body: &[PlanLiteral],
        output: &[Term],
    ) -> Result<ConjPlan, EvalError> {
        Planner::source_order().place(inputs, body, 0)?.finish(body, output)
    }

    /// Executes the plan whole, calling `emit` once per result row — a
    /// per-row view of [`ConjPlan::run`] for callers that fold row by row.
    pub fn execute(
        &self,
        store: &RelStore<'_>,
        indexes: &IndexCache,
        init: &[Value],
        emit: &mut dyn FnMut(&[Value]),
    ) {
        self.run(store, indexes, init, &mut |rows| rows.rows().for_each(&mut *emit));
    }

    /// Runs the plan, handing result rows to `sink` a chunk at a time (in
    /// production order, undeduplicated, hashed), and returns how many
    /// tuples the scans and index probes considered — the join-work metric.
    ///
    /// `init` supplies values for the input slots (`init.len()` must equal
    /// [`ConjPlan::n_inputs`]). A keyed scan whose index was not prepared
    /// ([`IndexCache::prepare`]) filters a full scan. The chunk buffers are
    /// allocated here, once, and reused by every chunk.
    pub fn run(
        &self,
        store: &RelStore<'_>,
        indexes: &IndexCache,
        init: &[Value],
        sink: &mut dyn FnMut(&RowBuf),
    ) -> u64 {
        assert_eq!(init.len(), self.n_inputs, "wrong number of input values");
        let scans = self.steps.iter().filter(|s| matches!(s, Step::Scan { .. })).count();
        let mut chunks = vec![Chunk::default(); scans + 1];
        for chunk in &mut chunks {
            chunk.slots.resize(self.n_slots, Vec::new());
        }
        let first = &mut chunks[0];
        first.len = 1;
        first.bound.extend(0..init.len());
        for (slot, &v) in first.slots.iter_mut().zip(init) {
            slot.push(v);
        }
        let (rows, positions, values, out) = Default::default();
        let mut kernel =
            Kernel { plan: self, store, indexes, sink, scanned: 0, rows, positions, values, out };
        kernel.advance(0, &mut chunks);
        kernel.scanned
    }

    /// The keyed scans of this plan, for index preparation:
    /// `(relation, key columns)` pairs.
    pub fn keyed_scans(&self) -> impl Iterator<Item = (RelKey, &[usize])> {
        self.steps.iter().filter_map(|s| match s {
            Step::Scan { rel, key_cols, .. } if !key_cols.is_empty() => {
                Some((*rel, key_cols.as_slice()))
            }
            _ => None,
        })
    }
}

/// Up to [`CHUNK`] partial matches of a plan prefix, struct-of-arrays:
/// `slots[s][i]` is match `i`'s value for slot `s`, for the slots in `bound`.
#[derive(Clone, Default)]
struct Chunk {
    slots: Vec<Vec<Value>>,
    bound: Vec<usize>,
    len: usize,
    /// Scratch of the scan that reads this chunk (deeper scans have their
    /// own chunk's): the index key of the match being expanded, and the
    /// positions it can join with when no index answers that.
    key: Vec<Value>,
    matching: Vec<u32>,
}

impl Chunk {
    #[inline]
    fn value(&self, spec: &TermSpec, i: usize) -> Value {
        match spec {
            TermSpec::Const(v) => *v,
            TermSpec::Slot(s) => self.slots[*s][i],
        }
    }

    /// Keeps the matches `pass` accepts, in order; `kept` is scratch.
    fn retain(&mut self, kept: &mut Vec<u32>, mut pass: impl FnMut(&Chunk, usize) -> bool) {
        kept.clear();
        kept.extend((0..self.len).filter(|&i| pass(self, i)).map(|i| i as u32));
        if kept.len() < self.len {
            for &s in &self.bound {
                let col = &mut self.slots[s];
                for (to, &from) in kept.iter().enumerate() {
                    col[to] = col[from as usize];
                }
                col.truncate(kept.len());
            }
            self.len = kept.len();
        }
        kept.clear();
    }

    /// Binds `slot` to `value` of each match, dropping the matches for
    /// which it is undefined; `kept` and `values` are scratch.
    fn bind(
        &mut self,
        slot: usize,
        kept: &mut Vec<u32>,
        values: &mut Vec<Value>,
        value: impl Fn(&Chunk, usize) -> Option<Value>,
    ) {
        values.clear();
        self.retain(kept, |chunk, i| value(chunk, i).map(|v| values.push(v)).is_some());
        std::mem::swap(&mut self.slots[slot], values);
        self.bound.push(slot);
    }
}

/// `a + b` over integer values. Non-integer operands or an unrepresentable
/// sum derive nothing: `dst = a + b` is a partial function.
fn sum(a: Value, b: Value) -> Option<Value> {
    let n = a.as_int().zip(b.as_int()).and_then(|(x, y)| x.checked_add(y))?;
    Value::int(n).ok()
}

/// One execution of a plan: the plan's steps interpreted a chunk at a time.
struct Kernel<'a> {
    plan: &'a ConjPlan,
    store: &'a RelStore<'a>,
    indexes: &'a IndexCache,
    sink: &'a mut dyn FnMut(&RowBuf),
    scanned: u64,
    /// The selection a scan builds before it gathers: the chunk row and the
    /// relation position of each surviving match, in production order.
    /// (`rows` doubles as the survivors list of an in-place filter.)
    rows: Vec<u32>,
    positions: Vec<u32>,
    /// Values a binding step computed, or the row a negation probes.
    values: Vec<Value>,
    out: RowBuf,
}

impl Kernel<'_> {
    /// Pushes `chunks[0]`, whose matches satisfy `steps[..step]`, through
    /// the rest of the plan: filters and bindings in place, the next scan
    /// into `chunks[1]` (and so on down), the output into the sink.
    fn advance(&mut self, mut step: usize, chunks: &mut [Chunk]) {
        let plan = self.plan;
        let (chunk, deeper) = chunks.split_first_mut().expect("a chunk per scan, plus one");
        while chunk.len > 0 {
            match plan.steps.get(step) {
                None => return self.emit(chunk),
                Some(Step::Scan { rel, key_cols, key, binds, same }) => {
                    let Some(relation) = self.store.get(*rel) else {
                        return; // absent relation: no tuples
                    };
                    let index = self.indexes.get(*rel, key_cols);
                    let (mut probe, mut matching) =
                        (std::mem::take(&mut chunk.key), std::mem::take(&mut chunk.matching));
                    for i in 0..chunk.len {
                        probe.clear();
                        probe.extend(key.iter().map(|spec| chunk.value(spec, i)));
                        // What this match could join with, in relation
                        // order: the index's answer or, with no index, a
                        // filtered scan — the same for every match when the
                        // scan has no key.
                        let candidates: &[u32] = match index {
                            Some(index) => index.lookup(&probe),
                            None => {
                                if i == 0 || !key.is_empty() {
                                    let keyed = |&pos: &u32| {
                                        let at = |&c| relation.column(c)[pos as usize];
                                        key_cols.iter().map(at).eq(probe.iter().copied())
                                    };
                                    matching.clear();
                                    matching.extend((0..relation.len() as u32).filter(keyed));
                                }
                                &matching
                            }
                        };
                        self.scanned += candidates.len() as u64;
                        for &pos in candidates {
                            let at = |c: usize| relation.column(c)[pos as usize];
                            if same.iter().all(|&(c, earlier)| at(c) == at(earlier)) {
                                self.rows.push(i as u32);
                                self.positions.push(pos);
                                if self.rows.len() == CHUNK {
                                    self.gather(chunk, relation, binds, &mut deeper[0]);
                                    self.advance(step + 1, deeper);
                                }
                            }
                        }
                    }
                    (chunk.key, chunk.matching) = (probe, matching);
                    if !self.rows.is_empty() {
                        self.gather(chunk, relation, binds, &mut deeper[0]);
                        self.advance(step + 1, deeper);
                    }
                    return;
                }
                Some(Step::EqBind { slot, from }) => {
                    chunk.bind(*slot, &mut self.rows, &mut self.values, |chunk, i| {
                        Some(chunk.value(from, i))
                    });
                }
                Some(Step::SumBind { slot, a, b }) => {
                    chunk.bind(*slot, &mut self.rows, &mut self.values, |chunk, i| {
                        sum(chunk.value(a, i), chunk.value(b, i))
                    });
                }
                Some(Step::EqCheck { a, b }) => {
                    chunk.retain(&mut self.rows, |chunk, i| chunk.value(a, i) == chunk.value(b, i));
                }
                Some(Step::SumCheck { dst, a, b }) => {
                    chunk.retain(&mut self.rows, |chunk, i| {
                        sum(chunk.value(a, i), chunk.value(b, i)) == Some(chunk.value(dst, i))
                    });
                }
                // An absent relation has no rows, so the check passes.
                Some(Step::NegCheck { rel, cols }) => {
                    if let Some(relation) = self.store.get(*rel) {
                        self.scanned += chunk.len as u64;
                        let row = &mut self.values;
                        chunk.retain(&mut self.rows, |chunk, i| {
                            row.clear();
                            row.extend(cols.iter().map(|spec| chunk.value(spec, i)));
                            !relation.contains_values(row)
                        });
                    }
                }
            }
            step += 1;
        }
    }

    /// Builds `next` from the selected pairs, a column at a time: the
    /// parent chunk's slots, then the slots the relation's columns bind.
    fn gather(
        &mut self,
        chunk: &Chunk,
        relation: &Relation,
        binds: &[(usize, usize)],
        next: &mut Chunk,
    ) {
        let (row, pos) = (&mut self.rows, &mut self.positions);
        next.len = row.len();
        next.bound.clear();
        for &s in &chunk.bound {
            let from = &chunk.slots[s];
            next.slots[s].clear();
            next.slots[s].extend(row.iter().map(|&i| from[i as usize]));
            next.bound.push(s);
        }
        for &(c, s) in binds {
            let from = relation.column(c);
            next.slots[s].clear();
            next.slots[s].extend(pos.iter().map(|&p| from[p as usize]));
            next.bound.push(s);
        }
        row.clear();
        pos.clear();
    }

    /// Projects a finished chunk onto the output row-major, hashes the rows
    /// in bulk, and hands them to the sink.
    fn emit(&mut self, chunk: &Chunk) {
        let arity = self.plan.output.len();
        self.out.clear();
        for i in 0..chunk.len {
            self.out.values.extend(self.plan.output.iter().map(|spec| chunk.value(spec, i)));
        }
        let values = &self.out.values;
        self.out.hashes.extend((0..chunk.len).map(|i| row_hash(&values[i * arity..][..arity])));
        (self.sink)(&self.out);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    use super::*;
    use sepra_ast::{parse_program, Interner};
    use sepra_storage::{Database, Relation, Tuple};

    thread_local! {
        /// Heap allocations (and reallocations) made by this thread.
        pub(crate) static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    }

    /// The system allocator, counting per thread — the test harness runs
    /// tests side by side, and each measures only its own.
    struct Counting;

    // SAFETY: every operation is `System`'s, unchanged. The counter is a
    // const-initialized thread-local `Cell` without a destructor: touching
    // it neither allocates nor can observe a torn-down value.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            // SAFETY: the caller's obligations are passed through as given.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: as above.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            // SAFETY: as above.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    /// Compiles the body of the first rule of `src` with the head terms as
    /// output and no inputs.
    fn compile_first_rule(src: &str, i: &mut Interner) -> (ConjPlan, sepra_ast::Rule) {
        let p = parse_program(src, i).unwrap();
        let rule = p.rules[0].clone();
        let body: Vec<PlanLiteral> =
            rule.body.iter().map(|l| PlanLiteral::from_literal(l, &RelKey::Pred)).collect();
        let plan = ConjPlan::compile(&[], &body, &rule.head.terms).unwrap();
        (plan, rule)
    }

    fn run_collect(plan: &ConjPlan, db: &Database, init: &[Value]) -> Vec<Vec<Value>> {
        let mut store = RelStore::new();
        for (p, r) in db.relations() {
            store.bind(RelKey::Pred(p), r);
        }
        let mut indexes = IndexCache::new();
        indexes.prepare(plan, &store);
        let mut rows = Vec::new();
        plan.execute(&store, &indexes, init, &mut |row| rows.push(row.to_vec()));
        rows.sort();
        rows.dedup();
        rows
    }

    #[test]
    fn single_atom_scan() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c).").unwrap();
        let mut i = db.interner().clone();
        let (plan, _) = compile_first_rule("t(X, Y) :- e(X, Y).", &mut i);
        let rows = run_collect(&plan, &db, &[]);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn two_way_join_chains_bindings() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c). e(c, d). e(x, y).").unwrap();
        let mut i = db.interner().clone();
        let (plan, _) = compile_first_rule("t(X, Z) :- e(X, Y), e(Y, Z).", &mut i);
        let rows = run_collect(&plan, &db, &[]);
        // (a,c), (b,d), (x,?): x->y has no continuation.
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn constants_filter() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c).").unwrap();
        let mut i = db.interner().clone();
        let (plan, _) = compile_first_rule("t(Y) :- e(a, Y).", &mut i);
        let rows = run_collect(&plan, &db, &[]);
        assert_eq!(rows.len(), 1);
        let b = i.intern("b");
        assert_eq!(rows[0][0], Value::sym(b));
    }

    #[test]
    fn repeated_var_in_one_atom_filters_within_tuple() {
        let mut db = Database::new();
        db.load_fact_text("e(a, a). e(a, b). e(c, c).").unwrap();
        let mut i = db.interner().clone();
        let (plan, _) = compile_first_rule("t(X) :- e(X, X).", &mut i);
        let rows = run_collect(&plan, &db, &[]);
        assert_eq!(rows.len(), 2); // a and c
    }

    #[test]
    fn eq_literal_binds_and_checks() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c).").unwrap();
        let mut i = db.interner().clone();
        let (plan, _) = compile_first_rule("t(X, Y) :- e(X, W), Y = W.", &mut i);
        let rows = run_collect(&plan, &db, &[]);
        assert_eq!(rows.len(), 2);
        // And a filtering equality:
        let (plan2, _) = compile_first_rule("t(X) :- e(X, W), W = b.", &mut i);
        let rows2 = run_collect(&plan2, &db, &[]);
        assert_eq!(rows2.len(), 1);
    }

    #[test]
    fn inputs_prebind_slots() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c).").unwrap();
        let mut i = db.interner().clone();
        let p = parse_program("t(X, Y) :- e(X, Y).", &mut i).unwrap();
        let rule = &p.rules[0];
        let x = i.intern("X");
        let body: Vec<PlanLiteral> =
            rule.body.iter().map(|l| PlanLiteral::from_literal(l, &RelKey::Pred)).collect();
        let plan = ConjPlan::compile(&[x], &body, &rule.head.terms).unwrap();
        assert_eq!(plan.n_inputs, 1);
        let a = i.intern("a");
        let rows = run_collect(&plan, &db, &[Value::sym(a)]);
        assert_eq!(rows.len(), 1);
        let b = i.intern("b");
        assert_eq!(rows[0][1], Value::sym(b));
    }

    #[test]
    fn output_constants_are_emitted() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b).").unwrap();
        let mut i = db.interner().clone();
        let p = parse_program("t(X, marker) :- e(X, _w).", &mut i).unwrap();
        let rule = &p.rules[0];
        let body: Vec<PlanLiteral> =
            rule.body.iter().map(|l| PlanLiteral::from_literal(l, &RelKey::Pred)).collect();
        let plan = ConjPlan::compile(&[], &body, &rule.head.terms).unwrap();
        let rows = run_collect(&plan, &db, &[]);
        let marker = i.intern("marker");
        assert_eq!(rows[0][1], Value::sym(marker));
    }

    #[test]
    fn unbound_output_is_a_planning_error() {
        let mut i = Interner::new();
        let p = parse_program("t(X) :- e(X, Y).", &mut i).unwrap();
        let rule = &p.rules[0];
        let z = i.intern("Z");
        let body: Vec<PlanLiteral> =
            rule.body.iter().map(|l| PlanLiteral::from_literal(l, &RelKey::Pred)).collect();
        let err = ConjPlan::compile(&[], &body, &[Term::Var(z)]).unwrap_err();
        assert!(matches!(err, EvalError::Planning(_)));
    }

    #[test]
    fn dangling_equality_is_a_planning_error() {
        let mut i = Interner::new();
        let a = i.intern("A");
        let b = i.intern("B");
        let err = ConjPlan::compile(&[], &[PlanLiteral::Eq(Term::Var(a), Term::Var(b))], &[])
            .unwrap_err();
        assert!(matches!(err, EvalError::Planning(_)));
    }

    #[test]
    fn empty_body_emits_one_row() {
        let plan = ConjPlan::compile(&[], &[], &[]).unwrap();
        let store = RelStore::new();
        let indexes = IndexCache::new();
        let mut count = 0;
        plan.execute(&store, &indexes, &[], &mut |_| count += 1);
        assert_eq!(count, 1);
    }

    #[test]
    fn missing_relation_yields_no_rows() {
        let mut i = Interner::new();
        let (plan, _) = compile_first_rule("t(X) :- ghost(X).", &mut i);
        let db = Database::new();
        assert!(run_collect(&plan, &db, &[]).is_empty());
    }

    #[test]
    fn cartesian_product_works_without_keys() {
        let mut db = Database::new();
        db.load_fact_text("p(a). p(b). q(x). q(y).").unwrap();
        let mut i = db.interner().clone();
        let (plan, _) = compile_first_rule("t(X, Y) :- p(X), q(Y).", &mut i);
        assert_eq!(run_collect(&plan, &db, &[]).len(), 4);
    }

    /// The planner's plan with no statistics at all.
    fn blind_plan(body: &[PlanLiteral], output: &[Term]) -> ConjPlan {
        let planner = Planner::new(crate::planner::PlanMode::CostBased, None);
        planner.plan(body, 0, output).unwrap()
    }

    #[test]
    fn reordering_moves_bound_atoms_first() {
        let mut db = Database::new();
        // big is large and unconstrained; probe is tiny and keyed by the
        // constant. Source order scans big first (cartesian); the planner,
        // even without statistics, probes first.
        for i in 0..200 {
            db.insert_named("big", &[&format!("u{i}"), &format!("v{i}")]).unwrap();
        }
        db.load_fact_text("probe(a, u5). q(v5, done).").unwrap();
        let mut i = db.interner().clone();
        let p = parse_program("t(Y) :- big(W, Z), probe(a, W), q(Z, Y).\n", &mut i).unwrap();
        let rule = &p.rules[0];
        let body: Vec<PlanLiteral> =
            rule.body.iter().map(|l| PlanLiteral::from_literal(l, &RelKey::Pred)).collect();
        let source_order = ConjPlan::compile(&[], &body, &rule.head.terms).unwrap();
        let reordered = blind_plan(&body, &rule.head.terms);
        let run = |plan: &ConjPlan| -> (usize, u64) {
            let mut store = RelStore::new();
            for (pred, r) in db.relations() {
                store.bind(RelKey::Pred(pred), r);
            }
            let mut indexes = IndexCache::new();
            indexes.prepare(plan, &store);
            let mut rows = 0usize;
            let scanned = plan.run(&store, &indexes, &[], &mut |buf| rows += buf.len());
            (rows, scanned)
        };
        let (rows_a, scanned_a) = run(&source_order);
        let (rows_b, scanned_b) = run(&reordered);
        assert_eq!(rows_a, rows_b, "reordering must not change results");
        assert_eq!(rows_a, 1);
        assert!(
            scanned_b < scanned_a,
            "reordered {scanned_b} should scan fewer rows than source order {scanned_a}"
        );
        // The reordered plan's first scan is the constant-keyed probe.
        let Step::Scan { rel, .. } = &reordered.steps[0] else { panic!("first step is a scan") };
        let probe = i.intern("probe");
        assert_eq!(*rel, RelKey::Pred(probe));
    }

    /// Regression for the zero-statistics fallback's constant handling:
    /// with nothing bound yet, an atom whose columns are constants must
    /// outrank an all-variable atom, and an equality against a constant
    /// is executable immediately (hoisted first), not deferred.
    #[test]
    fn fallback_reorder_counts_constants_as_bound() {
        let mut i = Interner::new();
        let x = i.intern("X");
        let y = i.intern("Y");
        let wide = i.intern("wide");
        let keyed = i.intern("keyed");
        let body = vec![
            PlanLiteral::Atom(PlanAtom {
                rel: RelKey::Pred(wide),
                terms: vec![Term::Var(x), Term::Var(y)],
            }),
            PlanLiteral::Atom(PlanAtom {
                rel: RelKey::Pred(keyed),
                terms: vec![Term::sym(i.intern("a")), Term::sym(i.intern("b")), Term::Var(x)],
            }),
            PlanLiteral::Eq(Term::Var(y), Term::sym(i.intern("c"))),
        ];
        let plan = blind_plan(&body, &[]);
        let [eq, first, last] = &plan.steps[..] else { panic!("{:?}", plan.steps) };
        assert!(matches!(eq, Step::EqBind { .. }), "constant equality is executable up front");
        let Step::Scan { rel, .. } = first else { panic!("second step is a scan") };
        assert_eq!(*rel, RelKey::Pred(keyed), "doubly-constant probe beats the open scan");
        let Step::Scan { rel, .. } = last else { panic!("third step is a scan") };
        assert_eq!(*rel, RelKey::Pred(wide));
    }

    /// Regression: a body with zero positive atoms (possible once negation
    /// lands — e.g. `p(X) :- X = 3, !q(X).`) must neither panic nor
    /// misorder in the zero-statistics fallback: the binding equality must
    /// come out before the negation that consumes it.
    #[test]
    fn fallback_reorder_handles_zero_positive_literals() {
        let mut i = Interner::new();
        let x = i.intern("X");
        let q = i.intern("q");
        let body = vec![
            PlanLiteral::Neg(PlanAtom { rel: RelKey::Pred(q), terms: vec![Term::Var(x)] }),
            PlanLiteral::Eq(Term::Var(x), Term::int(3)),
        ];
        let plan = blind_plan(&body, &[Term::Var(x)]);
        assert!(matches!(plan.steps[0], Step::EqBind { .. }), "binding equality first");
        assert!(matches!(plan.steps[1], Step::NegCheck { .. }));
        // And the plan runs.
        let db = Database::new();
        let rows = run_collect(&plan, &db, &[]);
        assert_eq!(rows, vec![vec![Value::int(3).unwrap()]]);
        // An empty body plans to an empty plan without panicking.
        assert!(blind_plan(&[], &[]).steps.is_empty());
    }

    #[test]
    fn neg_check_filters_bound_rows() {
        let mut db = Database::new();
        db.load_fact_text("a(x). a(y). b(y).").unwrap();
        let mut i = db.interner().clone();
        let (plan, _) = compile_first_rule("only(X) :- a(X), !b(X).", &mut i);
        let rows = run_collect(&plan, &db, &[]);
        let x = i.intern("x");
        assert_eq!(rows, vec![vec![Value::sym(x)]]);
    }

    #[test]
    fn neg_check_passes_on_absent_relation() {
        let mut db = Database::new();
        db.load_fact_text("a(x).").unwrap();
        let mut i = db.interner().clone();
        let (plan, _) = compile_first_rule("only(X) :- a(X), !ghost(X).", &mut i);
        assert_eq!(run_collect(&plan, &db, &[]).len(), 1);
    }

    #[test]
    fn sum_binds_and_checks() {
        let mut db = Database::new();
        db.load_fact_text("q(4).").unwrap();
        let mut i = db.interner().clone();
        let (plan, _) = compile_first_rule("p(C) :- q(D), C = D + 1.", &mut i);
        let rows = run_collect(&plan, &db, &[]);
        assert_eq!(rows, vec![vec![Value::int(5).unwrap()]]);
        // All-bound: the sum becomes a check.
        let mut db2 = Database::new();
        db2.load_fact_text("q(4). q(7). r(5).").unwrap();
        let mut i2 = db2.interner().clone();
        let (plan2, _) = compile_first_rule("p(D) :- q(D), r(C), C = D + 1.", &mut i2);
        let rows2 = run_collect(&plan2, &db2, &[]);
        assert_eq!(rows2, vec![vec![Value::int(4).unwrap()]]);
    }

    #[test]
    fn sum_over_symbols_derives_nothing() {
        let mut db = Database::new();
        db.load_fact_text("q(tom).").unwrap();
        let mut i = db.interner().clone();
        let (plan, _) = compile_first_rule("p(C) :- q(D), C = D + 1.", &mut i);
        assert!(run_collect(&plan, &db, &[]).is_empty());
    }

    #[test]
    fn unbound_negation_is_a_planning_error() {
        let mut i = Interner::new();
        let x = i.intern("X");
        let q = i.intern("q");
        let body =
            vec![PlanLiteral::Neg(PlanAtom { rel: RelKey::Pred(q), terms: vec![Term::Var(x)] })];
        let err = ConjPlan::compile(&[], &body, &[]).unwrap_err();
        assert!(matches!(err, EvalError::Planning(_)));
    }

    #[test]
    fn aux_relations_resolve_through_store() {
        let mut i = Interner::new();
        let x = i.intern("X");
        let body =
            vec![PlanLiteral::Atom(PlanAtom { rel: RelKey::Aux(7), terms: vec![Term::Var(x)] })];
        let plan = ConjPlan::compile(&[], &body, &[Term::Var(x)]).unwrap();
        let mut carry = Relation::new(1);
        let v = Value::sym(i.intern("seed"));
        carry.insert(Tuple::from([v]));
        let mut store = RelStore::new();
        store.bind(RelKey::Aux(7), &carry);
        let indexes = IndexCache::new();
        let mut rows = Vec::new();
        plan.execute(&store, &indexes, &[], &mut |r| rows.push(r.to_vec()));
        assert_eq!(rows, vec![vec![v]]);
    }

    /// The adapter path (naive's per-rule loop, Counting's and HN's
    /// per-level `execute`) runs on one set of chunk buffers per execution:
    /// allocations grow with the number of chunks, not of rows.
    #[test]
    fn execution_allocates_per_chunk_not_per_row() {
        let mut i = Interner::new();
        let [x, y, z] = ["X", "Y", "Z"].map(|v| Term::Var(i.intern(v)));
        let (frontier, edges) = (RelKey::Aux(0), RelKey::Aux(1));
        let body = [
            PlanLiteral::Atom(PlanAtom { rel: frontier, terms: vec![x, y] }),
            PlanLiteral::Atom(PlanAtom { rel: edges, terms: vec![y, z] }),
        ];
        let plan = ConjPlan::compile(&[], &body, &[x, z]).unwrap();
        let int = |n: usize| Value::int(n as i64).unwrap();
        let mut e = Relation::new(2);
        for k in 0..64 {
            e.insert_row(&[int(k % 32), int(k)]);
        }
        let allocations_over = |rows: usize| {
            let mut f = Relation::new(2);
            for k in 0..rows {
                f.insert_row(&[int(k), int(k % 32)]);
            }
            let mut store = RelStore::new();
            store.bind(frontier, &f);
            store.bind(edges, &e);
            let mut indexes = IndexCache::new();
            indexes.prepare(&plan, &store);
            let mut emitted = 0;
            let before = ALLOCATIONS.with(Cell::get);
            plan.execute(&store, &indexes, &[], &mut |_| emitted += 1);
            assert_eq!(emitted, 2 * rows);
            ALLOCATIONS.with(Cell::get) - before
        };
        let (small, large) = (allocations_over(4096), allocations_over(4 * 4096));
        assert!(small < 4096 / 16, "{small} allocations over 4096 frontier rows");
        // Twelve more chunks of frontier: an index lookup key each, and the
        // odd buffer doubling.
        assert!(large - small <= 3 * 12, "{small} allocations over 4096 rows, {large} over 16384");
    }
}
