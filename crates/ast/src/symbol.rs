//! String interning.
//!
//! Every predicate name, constant symbol, and variable name in a program is
//! interned once into a [`Sym`], a dense `u32` handle. All later phases
//! (analysis, rewriting, evaluation) operate on handles, so comparisons are
//! integer comparisons and tuples of constants are vectors of integers.

use std::collections::HashMap;
use std::fmt;

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
#[derive(Debug, Default, Clone)]
pub struct Interner {
    names: Vec<Box<str>>,
    map: HashMap<Box<str>, Sym>,
    /// Per [`Interner::fresh`] base, the suffix its next probe starts at:
    /// every `base_i` below it is already interned, and names are never
    /// removed, so probing from 0 would return the same name.
    next_suffix: HashMap<Box<str>, u64>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing handle if already present.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&sym) = self.map.get(name) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.names.len()).expect("interner overflow"));
        let boxed: Box<str> = name.into();
        self.names.push(boxed.clone());
        self.map.insert(boxed, sym);
        sym
    }

    /// Looks up a symbol without interning.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.map.get(name).copied()
    }

    /// Resolves a handle back to its string.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interns a fresh symbol guaranteed not to collide with any existing
    /// name, derived from `base` (used for generated variables and
    /// predicates, e.g. rectification and the Lemma 2.1 rewrite).
    pub fn fresh(&mut self, base: &str) -> Sym {
        if self.get(base).is_none() {
            return self.intern(base);
        }
        let next = self.next_suffix.entry(base.into()).or_insert(0);
        loop {
            let candidate = format!("{base}_{next}");
            *next += 1;
            if !self.map.contains_key(candidate.as_str()) {
                return self.intern(&candidate);
            }
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

    #[test]
    fn handles_are_dense() {
        let mut i = Interner::new();
        for n in 0..100 {
            let s = i.intern(&format!("s{n}"));
            assert_eq!(s.index(), n);
        }
    }
}
