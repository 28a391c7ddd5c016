//! Relation binding and index caching for plan execution.

use std::sync::Arc;

use sepra_storage::{FxHashMap, Index, Relation};

use crate::plan::{ConjPlan, RelKey};

/// Binds abstract [`RelKey`]s to concrete relations for one execution round.
///
/// Evaluators rebuild the (cheap) store each round because delta and carry
/// relations are replaced between rounds.
#[derive(Debug, Default, Clone)]
pub struct RelStore<'a> {
    map: FxHashMap<RelKey, &'a Relation>,
}

impl<'a> RelStore<'a> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `key` to `relation` (replacing any previous binding).
    pub fn bind(&mut self, key: RelKey, relation: &'a Relation) {
        self.map.insert(key, relation);
    }

    /// Resolves a key.
    pub fn get(&self, key: RelKey) -> Option<&'a Relation> {
        self.map.get(&key).copied()
    }
}

/// The hash indexes one evaluation probes, keyed by `(relation key, key
/// columns)`.
///
/// Where an index lives follows its relation. A stored relation (a
/// [`Database`](sepra_storage::Database)'s) keeps its own
/// ([`Relation::index`]): the cache only holds a handle, and the index
/// outlives the evaluation, so later queries, other snapshots sharing the
/// relation and Magic's copy of the database probe it without building it.
/// A working relation (carry, seen, a delta, a derived or support relation)
/// keeps none: its index lives here, dies with the cache, and is extended
/// incrementally while the relation only grows. Evaluators must
/// [`IndexCache::invalidate`] a key whenever they rebind it to a
/// *different* working relation (deltas and carries), otherwise stale
/// positions would be probed.
#[derive(Debug, Default)]
pub struct IndexCache {
    map: FxHashMap<(RelKey, Box<[usize]>), Arc<Index>>,
}

impl IndexCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures an up-to-date index exists for every keyed scan of `plan`
    /// against the relations currently bound in `store`. Call it on the
    /// thread that owns the cache, before the plan runs: it is the only
    /// place a stored relation's index lock is taken.
    pub fn prepare(&mut self, plan: &ConjPlan, store: &RelStore<'_>) {
        for (rel, cols) in plan.keyed_scans() {
            let Some(relation) = store.get(rel) else {
                continue;
            };
            let key = (rel, Box::from(cols));
            let index = match self.map.remove(&key) {
                Some(mut own) if !relation.keeps_indexes() => match Arc::get_mut(&mut own) {
                    Some(index) => {
                        index.extend_to(relation);
                        own
                    }
                    None => relation.index(cols),
                },
                // This cache's handle on a kept index is dropped first, so
                // that bringing the index up to date happens in place.
                previous => {
                    drop(previous);
                    relation.index(cols)
                }
            };
            self.map.insert(key, index);
        }
    }

    /// Fetches a prepared index.
    pub fn get(&self, rel: RelKey, cols: &[usize]) -> Option<&Index> {
        self.map.get(&(rel, cols.into()) as &(RelKey, Box<[usize]>)).map(Arc::as_ref)
    }

    /// Drops every index over `rel` (call when `rel` is rebound to a
    /// different relation object).
    pub fn invalidate(&mut self, rel: RelKey) {
        self.map.retain(|(k, _), _| *k != rel);
    }

    /// Number of cached indexes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_ast::Sym;
    use sepra_storage::{Tuple, Value};

    fn rel_with(n: u32) -> Relation {
        let mut r = Relation::new(2);
        for i in 0..n {
            r.insert(Tuple::from([Value::sym(Sym(i)), Value::sym(Sym(i + 1))]));
        }
        r
    }

    #[test]
    fn store_binds_and_resolves() {
        let r = rel_with(3);
        let mut s = RelStore::new();
        let key = RelKey::Aux(1);
        assert!(s.get(key).is_none());
        s.bind(key, &r);
        assert_eq!(s.get(key).unwrap().len(), 3);
    }

    #[test]
    fn cache_invalidation_removes_only_that_key() {
        let r1 = rel_with(3);
        let r2 = rel_with(5);
        let mut cache = IndexCache::new();
        cache.map.insert((RelKey::Aux(1), Box::from([0usize])), r1.index(&[0]));
        cache.map.insert((RelKey::Aux(2), Box::from([0usize])), r2.index(&[0]));
        assert_eq!(cache.len(), 2);
        cache.invalidate(RelKey::Aux(1));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(RelKey::Aux(2), &[0]).is_some());
    }
}
