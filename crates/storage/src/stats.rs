//! Evaluation statistics — the paper's cost metric.
//!
//! Section 4 of the paper compares algorithms by *the size of the relations
//! generated in the course of answering a query* (Definition 4.2): an
//! algorithm is `O(f(n))` on a query if every relation it constructs has
//! size `O(f(n))`, and `Ω(f(n))` if some constructed relation reaches that
//! size. [`EvalStats`] records exactly this: the peak size of every working
//! relation an evaluator materializes (`carry`/`seen`/`ans` for Separable,
//! `magic`/`t` for Magic Sets, `count`/`t` for Counting), plus iteration and
//! insertion counters useful for sanity checks and benchmarks.

use std::collections::BTreeMap;

/// Statistics collected by an evaluation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Peak size of each working relation, by display name.
    pub relation_sizes: BTreeMap<String, usize>,
    /// Total successful tuple insertions across all working relations
    /// (deduplicated inserts).
    pub tuples_inserted: usize,
    /// Total insertion attempts (including duplicates) — a proxy for work
    /// performed by joins.
    pub insert_attempts: usize,
    /// Number of fixpoint iterations executed (across all loops).
    pub iterations: usize,
    /// Total tuples considered by scans and index probes — the join-work
    /// metric (used by the supplementary-magic ablation, where work moves
    /// from re-computation to materialization).
    pub rows_scanned: usize,
    /// Conjunctions ordered by the cost-based planner during this run
    /// (includes the fallback orderings below).
    pub plans_costed: usize,
    /// Conjunctions the planner had to order blind, because no relation
    /// statistics were available.
    pub plan_fallbacks: usize,
}

impl EvalStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `name` reached `size` tuples (keeps the maximum).
    pub fn record_size(&mut self, name: &str, size: usize) {
        let entry = self.relation_sizes.entry(name.to_string()).or_insert(0);
        *entry = (*entry).max(size);
    }

    /// Records the outcome of an insertion attempt.
    pub fn record_insert(&mut self, was_new: bool) {
        self.insert_attempts += 1;
        if was_new {
            self.tuples_inserted += 1;
        }
    }

    /// Records `count` insertion attempts of which `new` were new.
    pub fn record_inserts(&mut self, attempts: usize, new: usize) {
        self.insert_attempts += attempts;
        self.tuples_inserted += new;
    }

    /// Records one fixpoint iteration.
    pub fn record_iteration(&mut self) {
        self.iterations += 1;
    }

    /// Records tuples considered by scans/probes.
    pub fn record_scanned(&mut self, rows: usize) {
        self.rows_scanned += rows;
    }

    /// The largest relation constructed — the paper's headline number.
    pub fn max_relation_size(&self) -> usize {
        self.relation_sizes.values().copied().max().unwrap_or(0)
    }

    /// Sum of the peak sizes of all working relations.
    pub fn total_relation_size(&self) -> usize {
        self.relation_sizes.values().sum()
    }

    /// Merges another run's statistics into this one (sizes take maxima,
    /// counters add). Used when a query decomposes into a union of full
    /// selections (Lemma 2.1).
    pub fn merge(&mut self, other: &EvalStats) {
        for (name, &size) in &other.relation_sizes {
            self.record_size(name, size);
        }
        self.tuples_inserted += other.tuples_inserted;
        self.insert_attempts += other.insert_attempts;
        self.iterations += other.iterations;
        self.rows_scanned += other.rows_scanned;
        self.plans_costed += other.plans_costed;
        self.plan_fallbacks += other.plan_fallbacks;
    }
}

impl std::fmt::Display for EvalStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "max relation {} | total {} | inserted {} / attempts {} | iterations {}",
            self.max_relation_size(),
            self.total_relation_size(),
            self.tuples_inserted,
            self.insert_attempts,
            self.iterations
        )?;
        for (name, size) in &self.relation_sizes {
            writeln!(f, "  {name}: {size}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_size_keeps_max() {
        let mut s = EvalStats::new();
        s.record_size("carry_1", 5);
        s.record_size("carry_1", 3);
        s.record_size("carry_1", 9);
        assert_eq!(s.relation_sizes["carry_1"], 9);
        assert_eq!(s.max_relation_size(), 9);
    }

    #[test]
    fn counters_accumulate() {
        let mut s = EvalStats::new();
        s.record_insert(true);
        s.record_insert(false);
        s.record_inserts(10, 4);
        assert_eq!(s.tuples_inserted, 5);
        assert_eq!(s.insert_attempts, 12);
        s.record_iteration();
        s.record_iteration();
        assert_eq!(s.iterations, 2);
    }

    #[test]
    fn merge_takes_max_sizes_and_sums_counters() {
        let mut a = EvalStats::new();
        a.record_size("seen_1", 10);
        a.record_inserts(5, 5);
        let mut b = EvalStats::new();
        b.record_size("seen_1", 7);
        b.record_size("seen_2", 3);
        b.record_inserts(4, 2);
        b.record_iteration();
        a.merge(&b);
        assert_eq!(a.relation_sizes["seen_1"], 10);
        assert_eq!(a.relation_sizes["seen_2"], 3);
        assert_eq!(a.tuples_inserted, 7);
        assert_eq!(a.iterations, 1);
        assert_eq!(a.total_relation_size(), 13);
    }
}
