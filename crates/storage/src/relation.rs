//! Deduplicating, insertion-ordered relations with columnar storage.
//!
//! [`Relation`] is the workhorse of every evaluator in this workspace. It
//! stores tuples densely in insertion order (so semi-naive deltas are just
//! index ranges) and deduplicates through a private open-addressing table of
//! indexes into the dense storage. The dense storage is **columnar**: one
//! `Vec<Value>` per column (struct-of-arrays), so a join that touches two
//! columns of a wide relation streams two contiguous arrays instead of
//! hopping across per-tuple allocations, and checkpointing can write whole
//! columns as fixed-width word runs. Row identity (the dense index), the
//! cached row hashes, and the probe table are unchanged from the row-store
//! layout, so positional delta frontiers keep working.
//!
//! Rows are read through the borrowed [`Row`] view (`row[c]` indexes a
//! column, [`Row::to_tuple`] materializes an owned [`Tuple`]). Set-valued
//! fixpoints only ever add; removal ([`Relation::remove_batch`], for live EDB
//! retraction, maintenance and the superseded tuples of an aggregate merge)
//! is a batch operation: it compacts the dense storage and bumps the
//! relation's **compaction epoch** — any holder of positional state (an
//! [`Index`]'s covered watermark, a `since` frontier) must reset when the
//! epoch changes, because dense indices have shifted.

use std::fmt;
use std::sync::{Arc, Mutex};

use sepra_ast::Interner;

use crate::hasher::hash_word_iter;
use crate::index::Index;
use crate::relstats::RelStats;
use crate::tuple::Tuple;
use crate::value::Value;

const EMPTY: u32 = u32::MAX;
/// Grow when the table is 7/8 full.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

/// The hash a [`Relation`] caches for a row of these values. Bulk producers
/// hash their rows with this and hand them to
/// [`Relation::insert_rows_hashed`], so a row is hashed once however many
/// relations it is offered to.
#[inline]
pub fn row_hash(values: &[Value]) -> u64 {
    hash_word_iter(values.len(), values.iter().map(|v| v.raw()))
}

/// Probe-table slots for `rows` rows under the load factor.
fn slots_for(rows: usize) -> usize {
    (rows * LOAD_DEN / LOAD_NUM + 1).next_power_of_two().max(8)
}

/// Orders the row ids in `perm` by `cols[0]`, ties by `cols[1]`, and so on:
/// one stable sort per column, over the runs the earlier columns left tied.
/// A column of few distinct values — most columns of a large result — then
/// costs partition passes, not a comparison sort that re-reads every
/// earlier column (measured on 14 400 pairs of 120 values: 0.31 ms against
/// 0.86 ms for one lexicographic comparator), and a unique leading column
/// ends the sort after one pass.
fn sort_row_ids(perm: &mut [u32], cols: &[Vec<Value>]) {
    let Some((col, rest)) = cols.split_first() else { return };
    perm.sort_by_key(|&i| col[i as usize]);
    for run in perm.chunk_by_mut(|&a, &b| col[a as usize] == col[b as usize]) {
        if run.len() > 1 {
            sort_row_ids(run, rest);
        }
    }
}

/// A probe table of `slots` slots over rows known to be distinct: pure slot
/// insertion off the cached hashes — no row is re-hashed or compared.
fn slot_table(hashes: &[u64], slots: usize) -> Vec<u32> {
    let mut table = vec![EMPTY; slots];
    let mask = slots - 1;
    for (i, &hash) in hashes.iter().enumerate() {
        let mut slot = (hash as usize) & mask;
        while table[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        table[slot] = u32::try_from(i).expect("relation overflow");
    }
    table
}

/// The indexes a stored relation keeps, one per key-column list, behind one
/// lock. A clone starts with none — a writer's copy-on-write copy is a new
/// version of the relation, so no two versions ever share an index.
#[derive(Default)]
struct KeptIndexes(Mutex<Vec<Arc<Index>>>);

impl Clone for KeptIndexes {
    fn clone(&self) -> Self {
        KeptIndexes::default()
    }
}

/// A set of same-arity tuples with O(1) membership and stable insertion
/// order, stored column-major.
///
/// A stored relation — one that maintains [`RelStats`], as every relation a
/// [`Database`](crate::Database) holds does — keeps the hash indexes built
/// over it ([`Relation::index`]) until it is dropped; a clone (the copy a
/// writer's `Arc::make_mut` takes) starts without them.
///
/// ```
/// use sepra_ast::Sym;
/// use sepra_storage::{Relation, Tuple, Value};
///
/// let mut rel = Relation::new(2);
/// let t = Tuple::from([Value::sym(Sym(1)), Value::sym(Sym(2))]);
/// assert!(rel.insert(t.clone()));  // new
/// assert!(!rel.insert(t.clone())); // duplicate
/// assert!(rel.contains(&t));
/// assert_eq!(rel.len(), 1);
/// assert_eq!(rel.column(0), &[Value::sym(Sym(1))]);
/// ```
#[derive(Clone)]
pub struct Relation {
    arity: usize,
    /// Column-major dense storage: `cols[c][i]` is column `c` of row `i`.
    /// `cols.len() == arity` (zero-arity relations have no columns; the row
    /// count lives in `hashes`).
    cols: Box<[Vec<Value>]>,
    /// Cached row hashes, parallel to the columns, so growing the table and
    /// probing long collision chains never re-hash a stored row.
    hashes: Vec<u64>,
    /// Open-addressing table of dense row indexes; length is a power of
    /// two, `EMPTY` marks free slots.
    table: Vec<u32>,
    /// Bumped whenever compaction shifts dense indices (an effective
    /// [`Relation::remove_batch`]). Positional state captured before a
    /// different epoch is stale.
    epoch: u64,
    /// Maintained cardinality/distinct-count statistics, enabled only for
    /// EDB relations (see [`Relation::with_stats`]). Working relations of
    /// fixpoint loops leave this `None`: they churn millions of tuples and
    /// the planner never consults them.
    stats: Option<Box<RelStats>>,
    /// The indexes [`Relation::index`] built over this version of the
    /// relation; empty unless it maintains `stats`.
    indexes: KeptIndexes,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation::from_parts(arity, vec![Vec::new(); arity].into(), Vec::new(), vec![EMPTY; 8])
    }

    /// A stats-less relation of the given columns, cached row hashes and
    /// probe table.
    fn from_parts(
        arity: usize,
        cols: Box<[Vec<Value>]>,
        hashes: Vec<u64>,
        table: Vec<u32>,
    ) -> Self {
        Relation { arity, cols, hashes, table, epoch: 0, stats: None, indexes: Default::default() }
    }

    /// Creates an empty relation that maintains [`RelStats`] across every
    /// insert and removal. [`Database`](crate::Database) creates all of its
    /// relations this way, so EDB statistics are always fresh.
    pub fn with_stats(arity: usize) -> Self {
        let mut r = Relation::new(arity);
        r.stats = Some(Box::new(RelStats::new(arity)));
        r
    }

    /// Creates an empty relation sized for roughly `capacity` tuples.
    pub fn with_capacity(arity: usize, capacity: usize) -> Self {
        Relation::from_parts(
            arity,
            (0..arity).map(|_| Vec::with_capacity(capacity)).collect(),
            Vec::with_capacity(capacity),
            vec![EMPTY; slots_for(capacity)],
        )
    }

    /// Builds a relation directly from its columns (all the same length;
    /// zero-arity relations pass `rows` explicitly since they have no
    /// columns). Duplicate rows are dropped, keeping the first occurrence —
    /// input from our own snapshot writer is duplicate-free, but a hostile
    /// or corrupt checkpoint must not corrupt the probe table. Returns the
    /// relation and how many duplicate rows were dropped.
    ///
    /// This is the bulk-load path for columnar checkpoints: when the input
    /// is duplicate-free (the common case) the column vectors are adopted
    /// wholesale — no per-tuple allocation or copy.
    ///
    /// # Panics
    /// Panics if the columns disagree on length or their count differs from
    /// `arity`.
    pub fn from_columns(
        arity: usize,
        columns: Vec<Vec<Value>>,
        rows: usize,
        with_stats: bool,
    ) -> (Self, usize) {
        assert_eq!(columns.len(), arity, "column count does not match arity");
        for col in &columns {
            assert_eq!(col.len(), rows, "columns disagree on row count");
        }
        let slots = slots_for(rows);
        let mut table = vec![EMPTY; slots];
        let mut hashes = Vec::with_capacity(rows);
        let mask = slots - 1;
        let mut dup_rows: Vec<usize> = Vec::new();
        for i in 0..rows {
            let hash = hash_word_iter(arity, columns.iter().map(|c| c[i].raw()));
            let mut slot = (hash as usize) & mask;
            let dup = loop {
                match table[slot] {
                    EMPTY => {
                        table[slot] = u32::try_from(hashes.len()).expect("relation overflow");
                        break false;
                    }
                    idx if hashes[idx as usize] == hash
                        && columns.iter().all(|c| c[idx as usize] == c[i]) =>
                    {
                        break true
                    }
                    _ => slot = (slot + 1) & mask,
                }
            };
            if dup {
                dup_rows.push(i);
            } else {
                hashes.push(hash);
            }
        }
        let cols: Box<[Vec<Value>]> = if dup_rows.is_empty() {
            columns.into_boxed_slice()
        } else {
            // Rare (hostile input): filter the duplicates out column-wise.
            // The probe table above indexed rows by their *deduplicated*
            // position, so it is already consistent with the filtered
            // columns.
            let mut doomed = vec![false; rows];
            for &i in &dup_rows {
                doomed[i] = true;
            }
            columns
                .into_iter()
                .map(|col| {
                    col.into_iter().zip(&doomed).filter(|(_, &d)| !d).map(|(v, _)| v).collect()
                })
                .collect()
        };
        let mut r = Relation::from_parts(arity, cols, hashes, table);
        if with_stats {
            r.stats = Some(Box::new(r.rebuild_stats()));
        }
        (r, dup_rows.len())
    }

    /// The maintained statistics, if this relation was created with
    /// [`Relation::with_stats`] (or inherited them through
    /// [`Relation::slice_range`] / the bulk union path).
    pub fn stats(&self) -> Option<&RelStats> {
        self.stats.as_deref()
    }

    /// Ensures maintained statistics exist, rebuilding them from the
    /// stored rows if absent. Bulk-load paths use this to promote a
    /// stats-less relation before installing it into a
    /// [`Database`](crate::Database).
    pub fn ensure_stats(&mut self) {
        if self.stats.is_none() {
            self.stats = Some(Box::new(self.rebuild_stats()));
        }
    }

    /// The arity every tuple must have.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of distinct tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether the relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// One dense column, in insertion order. `column(c)[i]` is row `i`'s
    /// value in column `c`.
    ///
    /// # Panics
    /// Panics if `c >= arity`.
    #[inline]
    pub fn column(&self, c: usize) -> &[Value] {
        &self.cols[c]
    }

    /// The compaction epoch: bumped every time removal shifts dense row
    /// indices. Positional state (index watermarks, `since` frontiers)
    /// captured under an older epoch is stale and must be rebuilt.
    #[inline]
    pub fn compaction_epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this is a stored relation, which keeps the indexes built
    /// over it: one that maintains [`RelStats`].
    pub fn keeps_indexes(&self) -> bool {
        self.stats.is_some()
    }

    /// The hash index of this relation on `columns`.
    ///
    /// A stored relation ([`Relation::keeps_indexes`]) keeps the index for
    /// as long as this version of it lives: the first request builds it, a
    /// request on the unchanged relation returns the same handle, and one
    /// after a change brings it up to date by [`Index::extend_to`]'s rules
    /// (appends extend it, a compaction rebuilds it). The extension happens
    /// in place when no other handle is alive, and beside the old index
    /// otherwise. Requests take one lock, so threads asking at once share
    /// one build. A working relation keeps nothing: every request builds a
    /// new index, which lives as long as its handle.
    pub fn index(&self, columns: &[usize]) -> Arc<Index> {
        if !self.keeps_indexes() {
            return Arc::new(Index::build(self, columns.to_vec()));
        }
        let mut kept = self.indexes.0.lock().unwrap_or_else(|poisoned| {
            // A build that panicked may have left its index half extended.
            let mut kept = poisoned.into_inner();
            kept.clear();
            kept
        });
        let Some(index) = kept.iter_mut().find(|index| index.columns() == columns) else {
            let index = Arc::new(Index::build(self, columns.to_vec()));
            kept.push(Arc::clone(&index));
            return index;
        };
        if !index.is_current(self) {
            match Arc::get_mut(index) {
                Some(index) => index.extend_to(self),
                None => *index = Arc::new(Index::build(self, columns.to_vec())),
            }
        }
        Arc::clone(index)
    }

    #[inline]
    fn row_eq_values(&self, idx: usize, values: &[Value]) -> bool {
        self.cols.iter().zip(values).all(|(col, v)| col[idx] == *v)
    }

    fn rebuild_stats(&self) -> RelStats {
        let mut s = RelStats::new(self.arity);
        for idx in 0..self.len() {
            s.on_insert(self.cols.iter().map(|c| c[idx]));
        }
        s
    }

    /// Inserts a tuple, returning `true` if it was new.
    ///
    /// # Panics
    /// Panics if the tuple's arity differs from the relation's.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        self.insert_row(&tuple)
    }

    /// Inserts one row given as a value slice (the allocation-free twin of
    /// [`Relation::insert`] — evaluator inner loops emit straight from
    /// their slot buffers). Returns `true` if the row was new.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the relation's arity.
    pub fn insert_row(&mut self, values: &[Value]) -> bool {
        assert_eq!(
            values.len(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            values.len(),
            self.arity
        );
        self.insert_with(row_hash(values), |c| values[c])
    }

    /// Inserts the row whose column `c` is `at(c)` under its precomputed
    /// `hash` — the one insert every path funnels into, so a row already
    /// stored somewhere (or hashed in bulk) is never hashed again and never
    /// staged in a buffer on its way in.
    fn insert_with(&mut self, hash: u64, at: impl Fn(usize) -> Value) -> bool {
        if self.hashes.len() + 1 > self.table.len() * LOAD_NUM / LOAD_DEN {
            self.table = slot_table(&self.hashes, (self.table.len() * 2).max(8));
        }
        let mask = self.table.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            match self.table[slot] {
                EMPTY => {
                    let idx = u32::try_from(self.hashes.len()).expect("relation overflow");
                    self.table[slot] = idx;
                    if let Some(stats) = &mut self.stats {
                        stats.on_insert((0..self.arity).map(&at));
                    }
                    for (c, col) in self.cols.iter_mut().enumerate() {
                        col.push(at(c));
                    }
                    self.hashes.push(hash);
                    return true;
                }
                idx if self.hashes[idx as usize] == hash
                    && self.cols.iter().enumerate().all(|(c, col)| col[idx as usize] == at(c)) =>
                {
                    return false
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Inserts rows given row-major in `values` with their [`row_hash`]es,
    /// in order, returning how many were new — the bulk twin of
    /// [`Relation::insert_row`] for producers that hash a batch at a time.
    ///
    /// # Panics
    /// Panics if `values` does not hold `hashes.len()` rows of this arity.
    pub fn insert_rows_hashed(&mut self, values: &[Value], hashes: &[u64]) -> usize {
        assert_eq!(values.len(), hashes.len() * self.arity, "row buffer does not match arity");
        let before = self.len();
        for (r, &hash) in hashes.iter().enumerate() {
            let row = &values[r * self.arity..(r + 1) * self.arity];
            debug_assert_eq!(hash, row_hash(row), "stale row hash");
            self.insert_with(hash, |c| row[c]);
        }
        self.len() - before
    }

    /// The same set in ascending [`Tuple`] order (lexicographic over the
    /// value words), stats-less. Sorts a permutation of row ids over the
    /// column slices and gathers columns *and cached hashes* through it, so
    /// no row is boxed, re-hashed or compared against another on insert.
    pub fn sorted(&self) -> Relation {
        let mut perm: Vec<u32> =
            (0..u32::try_from(self.len()).expect("relation overflow")).collect();
        sort_row_ids(&mut perm, &self.cols);
        let cols = self.cols.iter().map(|col| perm.iter().map(|&i| col[i as usize]).collect());
        let hashes: Vec<u64> = perm.iter().map(|&i| self.hashes[i as usize]).collect();
        let table = slot_table(&hashes, slots_for(hashes.len()));
        Relation::from_parts(self.arity, cols.collect(), hashes, table)
    }

    /// Builds a new relation from a contiguous range of this relation's
    /// rows, in order.
    ///
    /// Because ranges of a deduplicated relation are themselves
    /// duplicate-free, the copy reuses the cached hashes and rebuilds the
    /// table by pure slot insertion — no row is re-hashed or compared.
    /// Semi-naive evaluation uses this to take the rows a step appended to
    /// a relation as the next delta.
    ///
    /// If this relation maintains [`RelStats`], the slice gets *rebuilt*
    /// stats covering exactly its rows (linear in the slice).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice_range(&self, range: std::ops::Range<usize>) -> Relation {
        let cols: Box<[Vec<Value>]> =
            self.cols.iter().map(|col| col[range.clone()].to_vec()).collect();
        let hashes: Vec<u64> = self.hashes[range].to_vec();
        let table = slot_table(&hashes, slots_for(hashes.len()));
        let mut sliced = Relation::from_parts(self.arity, cols, hashes, table);
        if self.stats.is_some() {
            sliced.stats = Some(Box::new(sliced.rebuild_stats()));
        }
        sliced
    }

    /// Whether `tuple` is present.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.find(tuple).is_some()
    }

    /// Whether the row given as a value slice is present (the
    /// allocation-free twin of [`Relation::contains`] — negation checks
    /// probe straight from the evaluator's slot buffers). A slice of the
    /// wrong arity is simply absent.
    pub fn contains_values(&self, values: &[Value]) -> bool {
        if values.len() != self.arity {
            return false;
        }
        let hash = row_hash(values);
        let mask = self.table.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            match self.table[slot] {
                EMPTY => return false,
                idx if self.hashes[idx as usize] == hash
                    && self.row_eq_values(idx as usize, values) =>
                {
                    return true
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Whether the row viewed by `row` (possibly of another relation) is
    /// present, reusing the row's cached hash.
    pub fn contains_row(&self, row: Row<'_>) -> bool {
        self.contains_row_of(row.rel, row.idx)
    }

    /// Inserts the row viewed by `row` (possibly of another relation),
    /// reusing its cached hash. Returns `true` if the row was new.
    ///
    /// # Panics
    /// Panics if the row's arity differs from the relation's.
    pub fn insert_from(&mut self, row: Row<'_>) -> bool {
        assert_eq!(
            row.arity(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            row.arity(),
            self.arity
        );
        self.insert_with(row.rel.hashes[row.idx], |c| row.rel.cols[c][row.idx])
    }

    /// Whether the row at `idx` of `other` is present in `self` (no
    /// materialization; reuses `other`'s cached hash).
    fn contains_row_of(&self, other: &Relation, idx: usize) -> bool {
        if other.arity != self.arity {
            return false;
        }
        let hash = other.hashes[idx];
        let mask = self.table.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            match self.table[slot] {
                EMPTY => return false,
                i if self.hashes[i as usize] == hash
                    && self
                        .cols
                        .iter()
                        .zip(other.cols.iter())
                        .all(|(a, b)| a[i as usize] == b[idx]) =>
                {
                    return true
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Removes every listed tuple (duplicates and absent tuples are
    /// ignored), returning how many were actually removed. Remaining
    /// tuples keep their relative insertion order; the probe table is
    /// rebuilt once and the compaction epoch is bumped (dense indices have
    /// shifted — positional frontiers and index watermarks are now stale).
    /// An effective call costs a pass over the whole relation however few
    /// tuples it lists, which is why there is no one-tuple `remove` to loop
    /// over: collect what goes and call this once.
    pub fn remove_batch(&mut self, tuples: &[Tuple]) -> usize {
        let mut doomed = vec![false; self.len()];
        let mut removed = 0;
        for t in tuples {
            if let Some(idx) = self.find(t) {
                if !doomed[idx] {
                    doomed[idx] = true;
                    removed += 1;
                }
            }
        }
        if removed == 0 {
            return 0;
        }
        if let Some(stats) = self.stats.take() {
            let mut stats = stats;
            for (idx, &d) in doomed.iter().enumerate() {
                if d {
                    stats.on_remove(self.cols.iter().map(|c| c[idx]));
                }
            }
            self.stats = Some(stats);
        }
        for col in self.cols.iter_mut() {
            let mut write = 0;
            for (read, &dead) in doomed.iter().enumerate() {
                if !dead {
                    col[write] = col[read];
                    write += 1;
                }
            }
            col.truncate(write);
        }
        let mut write = 0;
        for (read, &dead) in doomed.iter().enumerate() {
            if !dead {
                self.hashes[write] = self.hashes[read];
                write += 1;
            }
        }
        self.hashes.truncate(write);
        self.table = slot_table(&self.hashes, slots_for(write));
        self.epoch += 1;
        removed
    }

    /// The dense index of `tuple`, if present.
    fn find(&self, tuple: &Tuple) -> Option<usize> {
        if tuple.arity() != self.arity {
            return None;
        }
        let values: &[Value] = tuple;
        let hash = row_hash(values);
        let mask = self.table.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            match self.table[slot] {
                EMPTY => return None,
                idx if self.hashes[idx as usize] == hash
                    && self.row_eq_values(idx as usize, values) =>
                {
                    return Some(idx as usize)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Iterates over the rows in insertion order.
    pub fn iter(&self) -> Rows<'_> {
        Rows { rel: self, next: 0, end: self.len() }
    }

    /// The rows inserted at or after position `from` — a semi-naive delta
    /// frontier.
    ///
    /// Positional frontiers are only meaningful within one compaction
    /// epoch: after [`Relation::remove_batch`] dense indices shift, so a
    /// `from` captured before the removal no longer names the rows it did.
    /// Debug builds assert `from <= len` to catch exactly that staleness
    /// (a frontier past the end after compaction); release builds saturate
    /// to an empty frontier rather than panic.
    pub fn since(&self, from: usize) -> Rows<'_> {
        debug_assert!(
            from <= self.len(),
            "stale delta frontier: since({from}) on a relation of {} rows — was the frontier \
             captured before a remove_batch compaction (epoch {})?",
            self.len(),
            self.epoch
        );
        Rows { rel: self, next: from.min(self.len()), end: self.len() }
    }

    /// The row at dense position `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<Row<'_>> {
        (idx < self.len()).then_some(Row { rel: self, idx })
    }

    /// The row at dense position `idx`, without the bounds check wrapper.
    ///
    /// # Panics
    /// Panics (on column access) if `idx` is out of bounds.
    #[inline]
    pub fn row(&self, idx: usize) -> Row<'_> {
        Row { rel: self, idx }
    }

    /// Inserts every tuple of `other` (arity must match), returning how
    /// many were new.
    ///
    /// Unioning into an **empty** relation is a bulk copy: the columns,
    /// cached hashes, and probe table are cloned wholesale instead of
    /// probing tuple by tuple. Snapshot adoption and recovery paths hit
    /// this case with millions of rows.
    pub fn union_in_place(&mut self, other: &Relation) -> usize {
        assert_eq!(
            other.arity, self.arity,
            "union arity {} does not match relation arity {}",
            other.arity, self.arity
        );
        if self.is_empty() && !other.is_empty() {
            self.cols = other.cols.clone();
            self.hashes = other.hashes.clone();
            self.table = other.table.clone();
            if self.stats.is_some() {
                self.stats = Some(Box::new(match &other.stats {
                    Some(s) => (**s).clone(),
                    None => other.rebuild_stats(),
                }));
            }
            return other.len();
        }
        other.iter().filter(|&row| self.insert_from(row)).count()
    }

    /// Builds a relation from an iterator of tuples.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut r = Relation::new(arity);
        for t in tuples {
            r.insert(t);
        }
        r
    }

    /// Collects the distinct values appearing anywhere in the relation.
    pub fn distinct_values(&self) -> Vec<Value> {
        let mut seen = crate::hasher::FxHashSet::default();
        let mut out = Vec::new();
        for col in self.cols.iter() {
            for &v in col {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Renders the relation as `{(a, b), (c, d)}` (insertion order).
    pub fn display<'a>(&'a self, interner: &'a Interner) -> DisplayRelation<'a> {
        DisplayRelation { relation: self, interner }
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation").field("arity", &self.arity).field("len", &self.len()).finish()
    }
}

impl PartialEq for Relation {
    /// Set equality (order-insensitive).
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.len() == other.len()
            && (0..self.len()).all(|idx| other.contains_row_of(self, idx))
    }
}

impl Eq for Relation {}

impl<'a> IntoIterator for &'a Relation {
    type Item = Row<'a>;
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A borrowed view of one dense row: `row[c]` reads column `c` without
/// materializing a tuple. `Copy`, so closures pass it by value.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    rel: &'a Relation,
    idx: usize,
}

impl<'a> Row<'a> {
    /// The row's arity (the relation's).
    #[inline]
    pub fn arity(&self) -> usize {
        self.rel.arity
    }

    /// The dense position of this row in its relation.
    #[inline]
    pub fn dense_index(&self) -> usize {
        self.idx
    }

    /// The row's values, left to right. Takes `self` by value (`Row` is
    /// `Copy`), so the iterator borrows the relation, not the row binding.
    #[inline]
    pub fn values(self) -> RowValues<'a> {
        RowValues { rel: self.rel, idx: self.idx, col: 0 }
    }

    /// Materializes the row as an owned [`Tuple`].
    pub fn to_tuple(&self) -> Tuple {
        Tuple::from(self.to_vec())
    }

    /// The row's values as an owned vector.
    pub fn to_vec(&self) -> Vec<Value> {
        self.values().collect()
    }

    /// Projects the listed columns into an owned [`Tuple`].
    pub fn project(&self, columns: &[usize]) -> Tuple {
        Tuple::from(columns.iter().map(|&c| self[c]).collect::<Vec<Value>>())
    }

    /// Projects the listed columns into `out` (cleared first) — the
    /// allocation-free twin of [`Row::project`].
    pub fn project_into(&self, columns: &[usize], out: &mut Vec<Value>) {
        out.clear();
        out.extend(columns.iter().map(|&c| self[c]));
    }

    /// Renders the row as `(a, b)` using `interner` for symbols.
    pub fn display(&self, interner: &'a Interner) -> crate::tuple::DisplayValues<'a> {
        crate::tuple::DisplayValues::new(self.to_vec(), interner)
    }
}

impl<'a> IntoIterator for Row<'a> {
    type Item = Value;
    type IntoIter = RowValues<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.values()
    }
}

/// Iterator over one row's values, left to right ([`Row::values`]).
#[derive(Clone)]
pub struct RowValues<'a> {
    rel: &'a Relation,
    idx: usize,
    col: usize,
}

impl Iterator for RowValues<'_> {
    type Item = Value;

    #[inline]
    fn next(&mut self) -> Option<Value> {
        let v = self.rel.cols.get(self.col)?[self.idx];
        self.col += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.rel.arity - self.col;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowValues<'_> {}

impl std::ops::Index<usize> for Row<'_> {
    type Output = Value;

    #[inline]
    fn index(&self, c: usize) -> &Value {
        &self.rel.cols[c][self.idx]
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

impl PartialEq for Row<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.arity() == other.arity() && self.values().eq(other.values())
    }
}

impl Eq for Row<'_> {}

impl PartialEq<Tuple> for Row<'_> {
    fn eq(&self, other: &Tuple) -> bool {
        self.arity() == other.arity() && self.values().eq(other.values().iter().copied())
    }
}

impl PartialEq<Row<'_>> for Tuple {
    fn eq(&self, other: &Row<'_>) -> bool {
        other == self
    }
}

/// Iterator over a relation's rows ([`Relation::iter`] /
/// [`Relation::since`]), yielding [`Row`] views in insertion order.
#[derive(Clone)]
pub struct Rows<'a> {
    rel: &'a Relation,
    next: usize,
    end: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = Row<'a>;

    #[inline]
    fn next(&mut self) -> Option<Row<'a>> {
        if self.next >= self.end {
            return None;
        }
        let row = Row { rel: self.rel, idx: self.next };
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl<'a> DoubleEndedIterator for Rows<'a> {
    fn next_back(&mut self) -> Option<Row<'a>> {
        if self.next >= self.end {
            return None;
        }
        self.end -= 1;
        Some(Row { rel: self.rel, idx: self.end })
    }
}

/// Display adapter for [`Relation`].
pub struct DisplayRelation<'a> {
    relation: &'a Relation,
    interner: &'a Interner,
}

impl fmt::Display for DisplayRelation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.relation.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", t.display(self.interner))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_ast::Sym;

    fn t2(a: u32, b: u32) -> Tuple {
        Tuple::from([Value::sym(Sym(a)), Value::sym(Sym(b))])
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new(2);
        assert!(r.insert(t2(1, 2)));
        assert!(!r.insert(t2(1, 2)));
        assert!(r.insert(t2(2, 1)));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t2(1, 2)));
        assert!(!r.contains(&t2(9, 9)));
    }

    #[test]
    fn insertion_order_is_stable() {
        let mut r = Relation::new(2);
        let tuples: Vec<Tuple> = (0..100).map(|i| t2(i, i + 1)).collect();
        for t in &tuples {
            r.insert(t.clone());
        }
        let collected: Vec<Tuple> = r.iter().map(|row| row.to_tuple()).collect();
        assert_eq!(collected, tuples);
    }

    #[test]
    fn columns_are_contiguous_and_ordered() {
        let mut r = Relation::new(2);
        for i in 0..10 {
            r.insert(t2(i, i + 100));
        }
        let left: Vec<u32> = r.column(0).iter().map(|v| v.as_sym().unwrap().0).collect();
        let right: Vec<u32> = r.column(1).iter().map(|v| v.as_sym().unwrap().0).collect();
        assert_eq!(left, (0..10).collect::<Vec<u32>>());
        assert_eq!(right, (100..110).collect::<Vec<u32>>());
        assert_eq!(r.row(3)[1], Value::sym(Sym(103)));
    }

    #[test]
    fn growth_preserves_contents() {
        let mut r = Relation::new(2);
        for i in 0..10_000 {
            r.insert(t2(i, i * 7));
        }
        assert_eq!(r.len(), 10_000);
        for i in 0..10_000 {
            assert!(r.contains(&t2(i, i * 7)), "missing tuple {i}");
        }
        assert!(!r.contains(&t2(10_000, 70_000)));
    }

    #[test]
    fn delta_slices() {
        let mut r = Relation::new(2);
        r.insert(t2(1, 1));
        r.insert(t2(2, 2));
        let mark = r.len();
        r.insert(t2(2, 2)); // duplicate, no growth
        r.insert(t2(3, 3));
        let delta: Vec<Tuple> = r.since(mark).map(|row| row.to_tuple()).collect();
        assert_eq!(delta, vec![t2(3, 3)]);
        assert_eq!(r.since(r.len()).len(), 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "stale delta frontier"))]
    fn stale_frontier_is_caught_in_debug() {
        let mut r = Relation::new(2);
        r.insert(t2(1, 1));
        // A frontier past the end: in debug builds this asserts (the only
        // way to get here is holding a position across a compaction); in
        // release builds it saturates to empty.
        assert_eq!(r.since(99).len(), 0);
    }

    #[test]
    fn compaction_bumps_the_epoch() {
        let mut r = Relation::new(2);
        r.insert(t2(1, 1));
        r.insert(t2(2, 2));
        assert_eq!(r.compaction_epoch(), 0);
        r.remove_batch(&[t2(9, 9)]); // ineffective: no shift, no bump
        assert_eq!(r.compaction_epoch(), 0);
        r.remove_batch(&[t2(1, 1)]);
        assert_eq!(r.compaction_epoch(), 1);
        // Clones and slices carry their own epoch lineage.
        assert_eq!(r.slice_range(0..1).compaction_epoch(), 0);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(Tuple::from([Value::sym(Sym(1))]));
    }

    #[test]
    fn set_equality_ignores_order() {
        let mut a = Relation::new(2);
        a.insert(t2(1, 2));
        a.insert(t2(3, 4));
        let mut b = Relation::new(2);
        b.insert(t2(3, 4));
        b.insert(t2(1, 2));
        assert_eq!(a, b);
        b.insert(t2(5, 6));
        assert_ne!(a, b);
    }

    #[test]
    fn union_in_place_counts_new() {
        let mut a = Relation::new(2);
        a.insert(t2(1, 2));
        let mut b = Relation::new(2);
        b.insert(t2(1, 2));
        b.insert(t2(3, 4));
        assert_eq!(a.union_in_place(&b), 1);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn union_into_empty_takes_the_bulk_path_with_parity() {
        let mut src = Relation::new(2);
        for i in 0..500 {
            src.insert(t2(i % 37, i));
        }
        // Bulk: empty destination adopts storage wholesale.
        let mut bulk = Relation::new(2);
        assert_eq!(bulk.union_in_place(&src), 500);
        // Probe-by-probe twin: pre-populate one row so the fast path is
        // skipped, then remove it again.
        let mut slow = Relation::new(2);
        slow.insert(t2(9999, 9999));
        slow.union_in_place(&src);
        slow.remove_batch(&[t2(9999, 9999)]);
        assert_eq!(bulk, slow);
        // The bulk copy's probe table works: membership and further
        // inserts behave identically.
        assert!(bulk.contains(&t2(3, 40)));
        assert!(!bulk.insert(t2(3, 40)));
        assert!(bulk.insert(t2(1000, 1000)));
        // A stats-maintaining destination gets exact stats from the bulk
        // path too.
        let mut with_stats = Relation::with_stats(2);
        with_stats.union_in_place(&src);
        assert_eq!(*with_stats.stats().unwrap(), src.rebuild_stats());
    }

    #[test]
    fn from_columns_adopts_clean_input_and_dedups_hostile_input() {
        let col0: Vec<Value> = (0..100).map(|i| Value::sym(Sym(i % 7))).collect();
        let col1: Vec<Value> = (0..100).map(|i| Value::sym(Sym(i))).collect();
        let (rel, dropped) = Relation::from_columns(2, vec![col0, col1], 100, true);
        assert_eq!(dropped, 0);
        assert_eq!(rel.len(), 100);
        assert!(rel.contains(&t2(3, 3)));
        assert_eq!(*rel.stats().unwrap(), rel.rebuild_stats());

        // Hostile input with duplicate rows: first occurrence wins, the
        // probe table stays consistent.
        let col0 = vec![Value::sym(Sym(1)), Value::sym(Sym(2)), Value::sym(Sym(1))];
        let col1 = vec![Value::sym(Sym(5)), Value::sym(Sym(6)), Value::sym(Sym(5))];
        let (mut rel, dropped) = Relation::from_columns(2, vec![col0, col1], 3, false);
        assert_eq!(dropped, 1);
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&t2(1, 5)));
        assert!(rel.contains(&t2(2, 6)));
        assert!(!rel.insert(t2(1, 5)));
        assert!(rel.stats().is_none());
    }

    #[test]
    fn distinct_values() {
        let mut r = Relation::new(2);
        r.insert(t2(1, 2));
        r.insert(t2(2, 3));
        let vals = r.distinct_values();
        assert_eq!(vals.len(), 3);
    }

    #[test]
    fn remove_preserves_order_and_membership() {
        let mut r = Relation::new(2);
        for i in 0..100 {
            r.insert(t2(i, i));
        }
        assert_eq!(r.remove_batch(&[t2(50, 50)]), 1);
        assert_eq!(r.remove_batch(&[t2(50, 50)]), 0); // already gone
        assert_eq!(r.remove_batch(&[t2(999, 999)]), 0);
        assert_eq!(r.len(), 99);
        assert!(!r.contains(&t2(50, 50)));
        let order: Vec<u32> = r.iter().map(|t| t[0].as_sym().unwrap().0).collect();
        let expected: Vec<u32> = (0..100).filter(|&i| i != 50).collect();
        assert_eq!(order, expected);
        // Reinsertion lands at the end, as for any new tuple.
        assert!(r.insert(t2(50, 50)));
        assert_eq!(r.iter().next_back().unwrap().to_tuple(), t2(50, 50));
    }

    #[test]
    fn remove_batch_ignores_absent_and_duplicate_entries() {
        let mut r = Relation::new(2);
        for i in 0..10 {
            r.insert(t2(i, i + 1));
        }
        let doomed = vec![t2(1, 2), t2(1, 2), t2(42, 43), t2(7, 8)];
        assert_eq!(r.remove_batch(&doomed), 2);
        assert_eq!(r.len(), 8);
        assert!(!r.contains(&t2(1, 2)));
        assert!(!r.contains(&t2(7, 8)));
        assert!(r.contains(&t2(0, 1)));
        // The table still probes correctly after the rebuild.
        for i in [0u32, 2, 3, 4, 5, 6, 8, 9] {
            assert!(r.contains(&t2(i, i + 1)), "missing {i}");
        }
    }

    #[test]
    fn remove_everything_leaves_a_usable_relation() {
        let mut r = Relation::new(2);
        let all: Vec<Tuple> = (0..1000).map(|i| t2(i, i * 3)).collect();
        for t in &all {
            r.insert(t.clone());
        }
        assert_eq!(r.remove_batch(&all), 1000);
        assert!(r.is_empty());
        assert!(r.insert(t2(1, 3)));
        assert!(r.contains(&t2(1, 3)));
    }

    #[test]
    fn stats_track_inserts_and_removals_exactly() {
        let mut r = Relation::with_stats(2);
        assert_eq!(r.stats().unwrap().rows(), 0);
        for i in 0..20 {
            r.insert(t2(i % 4, i));
        }
        r.insert(t2(0, 0)); // duplicate: must not be double-counted
        let s = r.stats().unwrap();
        assert_eq!(s.rows(), 20);
        assert_eq!(s.distinct(0), 4);
        assert_eq!(s.distinct(1), 20);

        let doomed: Vec<Tuple> = (0..20).filter(|i| i % 4 == 0).map(|i| t2(0, i)).collect();
        assert_eq!(r.remove_batch(&doomed), 5);
        let s = r.stats().unwrap();
        assert_eq!(s.rows(), 15);
        assert_eq!(s.distinct(0), 3); // column value 0 is gone entirely
        assert_eq!(s.distinct(1), 15);
        // After heavy mutation the maintained stats still equal a rebuild.
        assert_eq!(*s, r.rebuild_stats());
        // Plain relations don't pay for stats.
        assert!(Relation::new(2).stats().is_none());
        assert!(Relation::new(2).slice_range(0..0).stats().is_none());
        // A slice of a stats-maintaining relation gets exact rebuilt stats
        // covering its own rows.
        let slice = r.slice_range(0..3);
        let expected = slice.rebuild_stats();
        assert_eq!(*slice.stats().unwrap(), expected);
        assert_eq!(slice.stats().unwrap().rows(), 3);
    }

    #[test]
    fn zero_arity_relation() {
        let mut r = Relation::new(0);
        assert!(r.insert(Tuple::unit()));
        assert!(!r.insert(Tuple::unit()));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().arity(), 0);
        let (bulk, dropped) = Relation::from_columns(0, vec![], 1, false);
        assert_eq!(bulk.len(), 1);
        assert_eq!(dropped, 0);
        assert_eq!(bulk, r);
    }
}
