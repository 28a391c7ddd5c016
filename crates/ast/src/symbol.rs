//! String interning.
//!
//! Every predicate name, constant symbol, and variable name in a program is
//! interned once into a [`Sym`], a dense `u32` handle. All later phases
//! (analysis, rewriting, evaluation) operate on handles, so comparisons are
//! integer comparisons and tuples of constants are vectors of integers.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An interned string handle.
///
/// `Sym`s are only meaningful relative to the [`Interner`] that produced
/// them; resolving a `Sym` against a different interner yields garbage (or a
/// panic). In practice a single interner is shared by the program, the
/// query, and the database of one engine instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// The raw index of this symbol in its interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A monotone string interner.
///
/// Strings are never removed; `Sym(n)` always resolves to the `n`-th
/// distinct string interned.
///
/// The table sits behind an [`Arc`], so [`Interner::fork`] costs the same
/// whatever the number of symbols: a fork reads its parent's table as a
/// frozen *base* and interns new names into a local *tail*, whose handles
/// continue the base's numbering. The parent stays free to intern: the
/// first name it adds while a fork is alive copies the table once
/// ([`Arc::make_mut`]), and never again. An interner that was never forked
/// has no tail, so its lookups probe one map, as a plain table would.
#[derive(Debug, Default)]
pub struct Interner {
    base: Arc<Table>,
    /// A fork's own names, numbered from `base.names.len()`.
    tail: Option<Box<Table>>,
}

/// One interned name space: names in handle order, and the reverse map.
#[derive(Debug, Default, Clone)]
struct Table {
    names: Vec<Box<str>>,
    map: HashMap<Box<str>, Sym>,
    /// Per [`Interner::fresh`] base, the suffix its next probe starts at:
    /// every `base_i` below it is already interned, and names are never
    /// removed, so probing from 0 would return the same name.
    next_suffix: HashMap<Box<str>, u64>,
}

/// A deep, independent copy: a fork's base and tail flatten into one
/// table of the copy's own, so the copy shares nothing with the original.
impl Clone for Interner {
    fn clone(&self) -> Self {
        let mut table = Table::clone(&self.base);
        if let Some(tail) = &self.tail {
            table.names.extend(tail.names.iter().cloned());
            table.map.extend(tail.map.iter().map(|(k, &v)| (k.clone(), v)));
            table.next_suffix.extend(tail.next_suffix.iter().map(|(k, &v)| (k.clone(), v)));
        }
        Self { base: Arc::new(table), tail: None }
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fork of this interner: it resolves every handle this one has
    /// issued, and interns new names privately, out of this one's sight.
    /// It shares the table rather than copying it; a fork of a fork shares
    /// the same base and copies only the (short) tail.
    pub fn fork(&self) -> Self {
        Self { base: Arc::clone(&self.base), tail: Some(self.tail.clone().unwrap_or_default()) }
    }

    /// Interns `name`, returning the existing handle if already present.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(sym) = self.get(name) {
            return sym;
        }
        let (table, offset) = self.writable();
        let sym = Sym(u32::try_from(offset + table.names.len()).expect("interner overflow"));
        let boxed: Box<str> = name.into();
        table.names.push(boxed.clone());
        table.map.insert(boxed, sym);
        sym
    }

    /// Looks up a symbol without interning.
    pub fn get(&self, name: &str) -> Option<Sym> {
        match self.base.map.get(name) {
            Some(&sym) => Some(sym),
            None => self.tail.as_ref()?.map.get(name).copied(),
        }
    }

    /// Resolves a handle back to its string.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        let names = &self.base.names;
        match names.get(sym.index()) {
            Some(name) => name,
            None => {
                &self.tail.as_ref().expect("symbol from another interner").names
                    [sym.index() - names.len()]
            }
        }
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.base.names.len() + self.tail.as_ref().map_or(0, |t| t.names.len())
    }

    /// Whether no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns a fresh symbol guaranteed not to collide with any existing
    /// name, derived from `base` (used for generated variables and
    /// predicates, e.g. rectification and the Lemma 2.1 rewrite). On a
    /// fork, "existing" covers the base as well as the tail.
    pub fn fresh(&mut self, base: &str) -> Sym {
        if self.get(base).is_none() {
            return self.intern(base);
        }
        // A fork's probe resumes where the base's left off: the base
        // interned every `base_i` below that suffix.
        let tail = self.tail.as_ref().and_then(|t| t.next_suffix.get(base));
        let mut next = *tail.or_else(|| self.base.next_suffix.get(base)).unwrap_or(&0);
        let sym = loop {
            let candidate = format!("{base}_{next}");
            next += 1;
            if self.get(&candidate).is_none() {
                break self.intern(&candidate);
            }
        };
        self.writable().0.next_suffix.insert(base.into(), next);
        sym
    }

    /// The table new names go into, and the handle its first name takes:
    /// a fork's tail, or else the table itself, copied first if a fork
    /// still shares it.
    fn writable(&mut self) -> (&mut Table, usize) {
        match &mut self.tail {
            Some(tail) => (&mut **tail, self.base.names.len()),
            None => (Arc::make_mut(&mut self.base), 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("edge");
        let b = i.intern("edge");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_handles() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "a");
        assert_eq!(i.resolve(b), "b");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.get("x").is_none());
        i.intern("x");
        assert!(i.get("x").is_some());
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn fresh_avoids_collisions() {
        let mut i = Interner::new();
        let a = i.intern("v");
        let b = i.fresh("v");
        assert_ne!(a, b);
        assert_ne!(i.resolve(b), "v");
        let c = i.fresh("w");
        assert_eq!(i.resolve(c), "w");
    }

    #[test]
    fn fresh_matches_a_probe_from_zero() {
        // The reference: probe `base_0, base_1, ...` from 0 on every call.
        fn probe(i: &mut Interner, base: &str) -> Sym {
            if i.get(base).is_none() {
                return i.intern(base);
            }
            (0..)
                .map(|k| format!("{base}_{k}"))
                .find(|c| i.get(c).is_none())
                .map(|c| i.intern(&c))
                .unwrap()
        }
        let mut fast = Interner::new();
        let mut reference = Interner::new();
        for step in 0..200u32 {
            // Interleave plain interns of `base_k` names, ahead of and
            // behind the fresh suffix, with fresh names of two bases.
            let name = format!("{}_{}", ["v", "w"][step as usize % 2], (step * 7) % 23);
            if step % 3 == 0 {
                assert_eq!(fast.intern(&name), reference.intern(&name), "step {step}");
            }
            let base = if step % 5 == 0 { "w" } else { "v" };
            let (a, b) = (fast.fresh(base), probe(&mut reference, base));
            assert_eq!((a, fast.resolve(a)), (b, reference.resolve(b)), "step {step}");
        }
        assert_eq!(fast.len(), reference.len());
    }

    /// An interner of `n` names `s0 .. s{n-1}`, with a few fresh `v`s.
    fn populated(n: usize) -> Interner {
        let mut i = Interner::new();
        for k in 0..n {
            i.intern(&format!("s{k}"));
        }
        for _ in 0..3 {
            i.fresh("v");
        }
        i
    }

    #[test]
    fn a_fork_resolves_every_parent_handle_alike() {
        let parent = populated(50);
        let fork = parent.fork();
        assert_eq!(fork.len(), parent.len());
        for k in 0..parent.len() {
            let sym = Sym(k as u32);
            assert_eq!(fork.resolve(sym), parent.resolve(sym));
            assert_eq!(fork.get(parent.resolve(sym)), Some(sym));
        }
    }

    #[test]
    fn a_forks_names_are_its_own_and_continue_the_numbering() {
        let parent = populated(10);
        let base_len = parent.len();
        let mut fork = parent.fork();
        let a = fork.intern("magic@t@bf");
        let b = fork.intern("sup@0@1");
        assert_eq!((a.index(), b.index()), (base_len, base_len + 1));
        assert_eq!(fork.intern("magic@t@bf"), a);
        assert_eq!(fork.intern("s3"), parent.get("s3").unwrap(), "base names are not re-interned");
        assert_eq!((fork.resolve(a), fork.resolve(b)), ("magic@t@bf", "sup@0@1"));
        assert_eq!(fork.len(), base_len + 2);
        assert!(parent.get("magic@t@bf").is_none());
        assert_eq!(parent.len(), base_len);
        // A fork of the fork sees the tail and keeps numbering after it.
        let mut inner = fork.fork();
        assert_eq!(inner.get("sup@0@1"), Some(b));
        assert_eq!(inner.intern("p@base").index(), base_len + 2);
        assert!(fork.get("p@base").is_none());
    }

    #[test]
    fn fresh_on_a_fork_matches_a_probe_from_zero() {
        // The reference probes `base_0, base_1, ...` over a flat copy of
        // the fork's names (base plus tail).
        fn probe(i: &mut Interner, base: &str) -> Sym {
            if i.get(base).is_none() {
                return i.intern(base);
            }
            (0..)
                .map(|k| format!("{base}_{k}"))
                .find(|c| i.get(c).is_none())
                .map(|c| i.intern(&c))
                .unwrap()
        }
        let mut parent = Interner::new();
        for step in 0..40u32 {
            parent.intern(&format!("v_{}", (step * 7) % 23));
            parent.fresh(if step % 4 == 0 { "w" } else { "v" });
        }
        let mut fork = parent.fork();
        let mut reference = parent.clone();
        for step in 0..120u32 {
            let name = format!("{}_{}", ["v", "w"][step as usize % 2], (step * 5) % 41);
            if step % 3 == 0 {
                assert_eq!(fork.intern(&name), reference.intern(&name), "step {step}");
            }
            let base = ["v", "w", "u"][step as usize % 3];
            let (a, b) = (fork.fresh(base), probe(&mut reference, base));
            assert_eq!((a, fork.resolve(a)), (b, reference.resolve(b)), "step {step}");
            assert!(parent.get(fork.resolve(a)).is_none(), "step {step}: fresh reused a base name");
        }
        assert_eq!(fork.len(), reference.len());
    }

    #[test]
    fn a_parent_interning_beside_a_live_fork_leaves_both_consistent() {
        let mut parent = populated(20);
        let base_len = parent.len();
        let mut fork = parent.fork();
        let in_fork = fork.intern("magic@t@bf");
        let in_parent = parent.intern("late");
        // Both issue the next handle, each in its own space.
        assert_eq!((in_fork.index(), in_parent.index()), (base_len, base_len));
        assert_eq!(fork.resolve(in_fork), "magic@t@bf");
        assert_eq!(parent.resolve(in_parent), "late");
        assert!(fork.get("late").is_none());
        assert!(parent.get("magic@t@bf").is_none());
        for k in 0..base_len {
            let sym = Sym(k as u32);
            assert_eq!(fork.resolve(sym), parent.resolve(sym));
        }
        // The parent copied the shared table once; after that, and with no
        // fork alive, it writes in place.
        assert!(!Arc::ptr_eq(&parent.base, &fork.base));
        drop(fork);
        let table = Arc::as_ptr(&parent.base);
        parent.intern("later");
        assert_eq!(Arc::as_ptr(&parent.base), table);
    }

    #[test]
    fn a_clone_of_a_fork_is_independent() {
        let parent = populated(10);
        let mut fork = parent.fork();
        let tail = fork.intern("magic@t@bf");
        let fresh = fork.fresh("v");
        let mut copy = fork.clone();
        assert!(copy.tail.is_none(), "a clone is flat");
        assert!(!Arc::ptr_eq(&copy.base, &parent.base));
        assert_eq!(copy.len(), fork.len());
        for k in 0..fork.len() {
            let sym = Sym(k as u32);
            assert_eq!(copy.resolve(sym), fork.resolve(sym));
            assert_eq!(copy.get(fork.resolve(sym)), Some(sym));
        }
        assert_eq!(copy.get("magic@t@bf"), Some(tail));
        // Both continue alike, and neither sees the other's new names.
        assert_eq!(copy.fresh("v"), fork.fresh("v"));
        assert_ne!(copy.fresh("v"), fresh);
        copy.intern("only-in-copy");
        assert!(fork.get("only-in-copy").is_none());
        assert!(parent.get("only-in-copy").is_none());
    }

    #[test]
    fn handles_are_dense() {
        let mut i = Interner::new();
        for n in 0..100 {
            let s = i.intern(&format!("s{n}"));
            assert_eq!(s.index(), n);
        }
    }
}
