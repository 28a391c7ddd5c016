//! Programs and queries.

use crate::atom::Atom;
use crate::rule::Rule;
use crate::symbol::Sym;
use crate::term::Term;

/// A Datalog program: an ordered collection of rules (and facts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Creates a program from rules.
    pub fn new(rules: Vec<Rule>) -> Self {
        Program { rules }
    }

    /// Iterates over the non-fact rules.
    pub fn proper_rules(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(|r| !r.is_fact())
    }

    /// Iterates over the facts.
    pub fn facts(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(|r| r.is_fact())
    }

    /// All rules whose head predicate is `pred` — the paper's *definition*
    /// of `pred` (Section 2).
    pub fn definition_of(&self, pred: Sym) -> Vec<&Rule> {
        self.rules.iter().filter(|r| r.head.pred == pred).collect()
    }

    /// Distinct predicates appearing anywhere, in first-occurrence order.
    pub fn predicates(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        let mut push = |p: Sym| {
            if !out.contains(&p) {
                out.push(p);
            }
        };
        for rule in &self.rules {
            push(rule.head.pred);
            for atom in rule.body_atoms() {
                push(atom.pred);
            }
            for atom in rule.negated_atoms() {
                push(atom.pred);
            }
        }
        out
    }

    /// Appends another program's rules.
    pub fn extend(&mut self, other: Program) {
        self.rules.extend(other.rules);
    }
}

/// A query: a single predicate instance, possibly containing constants
/// (selection constants) and variables.
///
/// The paper evaluates queries in which at least one argument is a constant;
/// [`Query::bound_positions`] exposes that binding pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The queried atom, e.g. `buys(tom, Y)`.
    pub atom: Atom,
}

impl Query {
    /// Creates a query from an atom.
    pub fn new(atom: Atom) -> Self {
        Query { atom }
    }

    /// 0-based argument positions holding constants.
    pub fn bound_positions(&self) -> Vec<usize> {
        self.atom.terms.iter().enumerate().filter_map(|(i, t)| t.is_const().then_some(i)).collect()
    }

    /// 0-based argument positions holding variables.
    pub fn free_positions(&self) -> Vec<usize> {
        self.atom.terms.iter().enumerate().filter_map(|(i, t)| t.is_var().then_some(i)).collect()
    }

    /// Whether at least one argument is bound (the class of queries the
    /// specialized algorithm targets).
    pub fn has_selection(&self) -> bool {
        !self.bound_positions().is_empty()
    }

    /// The adornment string of the query: `b` for bound, `f` for free.
    pub fn adornment(&self) -> String {
        self.atom.terms.iter().map(|t| if t.is_const() { 'b' } else { 'f' }).collect()
    }

    /// The distinct output variables in argument order; repeated variables
    /// appear once.
    pub fn output_vars(&self) -> Vec<Sym> {
        self.atom.vars()
    }

    /// The terms of the query atom.
    pub fn terms(&self) -> &[Term] {
        &self.atom.terms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Literal;
    use crate::symbol::Interner;

    #[test]
    fn definition_and_predicates() {
        let mut i = Interner::new();
        let t = i.intern("t");
        let a = i.intern("a");
        let t0 = i.intern("t0");
        let (x, y, w) = (i.intern("X"), i.intern("Y"), i.intern("W"));
        let r1 = Rule::new(
            Atom::new(t, vec![Term::Var(x), Term::Var(y)]),
            vec![
                Literal::Atom(Atom::new(a, vec![Term::Var(x), Term::Var(w)])),
                Literal::Atom(Atom::new(t, vec![Term::Var(w), Term::Var(y)])),
            ],
        );
        let re = Rule::new(
            Atom::new(t, vec![Term::Var(x), Term::Var(y)]),
            vec![Literal::Atom(Atom::new(t0, vec![Term::Var(x), Term::Var(y)]))],
        );
        let p = Program::new(vec![r1, re]);
        assert_eq!(p.definition_of(t).len(), 2);
        assert_eq!(p.definition_of(a).len(), 0);
        assert_eq!(p.predicates(), vec![t, a, t0]);
        assert_eq!(p.proper_rules().count(), 2);
        assert_eq!(p.facts().count(), 0);
    }

    #[test]
    fn query_binding_pattern() {
        let mut i = Interner::new();
        let buys = i.intern("buys");
        let tom = i.intern("tom");
        let y = i.intern("Y");
        let q = Query::new(Atom::new(buys, vec![Term::sym(tom), Term::Var(y)]));
        assert_eq!(q.bound_positions(), vec![0]);
        assert_eq!(q.free_positions(), vec![1]);
        assert!(q.has_selection());
        assert_eq!(q.adornment(), "bf");
        assert_eq!(q.output_vars(), vec![y]);
    }
}
