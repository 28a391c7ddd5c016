//! Program adornment by left-to-right sideways information passing.
//!
//! An *adornment* marks each argument position of an IDB predicate
//! occurrence as bound (`b`) or free (`f`) given the query's binding
//! pattern. Starting from the query, each reachable `(predicate,
//! adornment)` pair produces adorned versions of that predicate's rules:
//! the rule body is walked left to right, every literal binds its variables
//! once evaluated, and each IDB body atom is renamed to its own adorned
//! version (`p@bf`), scheduling it for processing. This is the standard
//! full left-to-right SIP of \[BR87\], which is also the information-passing
//! order the paper's algorithms assume.
//!
//! *Subsumptive* adornment (Alviano et al.) answers a body demand `(p, a)`
//! from an already-generated adornment `a'` whose bound positions are a
//! subset of `a`'s, whenever one exists: the more general adorned copy
//! computes a superset of the tuples the more specific demand needs, and
//! the rule context filters the rest. This prunes the subsumed magic
//! predicate, and the whole adorned rule copy family behind it.
//!
//! Every adorned rule carries the `(predicate, adornment)` pair of its head
//! and of each IDB body literal, so no adorned name is ever read back.

use std::collections::{BTreeSet, VecDeque};

use sepra_ast::{Atom, Interner, Literal, Program, Query, Rule, Sym, Term};

/// A binding pattern: `true` = bound.
pub(crate) type Adornment = Vec<bool>;

/// An original predicate under one adornment.
pub(crate) type Adorned = (Sym, Adornment);

/// The adorned name for `pred` under `adornment`, e.g. `buys@bf`.
///
/// The `@` separator cannot appear in source identifiers, so adorned names
/// never collide with user predicates.
pub(crate) fn adorned_name(pred: Sym, adornment: &Adornment, interner: &mut Interner) -> Sym {
    let letters: String = adornment.iter().map(|&b| if b { 'b' } else { 'f' }).collect();
    let name = format!("{}@{letters}", interner.resolve(pred));
    interner.intern(&name)
}

/// One adorned rule: IDB predicates renamed to their `p@ad` versions, and
/// what each renamed predicate stands for.
pub(crate) struct AdornedRule {
    /// The renamed rule.
    pub(crate) rule: Rule,
    /// The head's original predicate and adornment.
    pub(crate) head: Adorned,
    /// Per body literal, the demand it makes when it is an IDB atom.
    pub(crate) demands: Vec<Option<Adorned>>,
}

/// Whether `t` is bound once the variables in `bound` are.
fn is_bound(t: &Term, bound: &BTreeSet<Sym>) -> bool {
    t.as_var().is_none_or(|v| bound.contains(&v))
}

/// Adorns the fact-free `program` for `query`, rewriting the predicates in
/// `idb`; EDB predicates are left untouched. With `subsumptive`, each body
/// demand collapses onto the most general adornment already generated that
/// subsumes it.
///
/// Returns the adorned rules, in the order their demands were first
/// reached, and the query's own demand, which the query constants seed.
/// A query predicate with no rules makes no demand: its answers are EDB
/// facts, and nothing is adorned.
pub(crate) fn adorn(
    program: &Program,
    query: &Query,
    interner: &mut Interner,
    idb: &[Sym],
    subsumptive: bool,
) -> (Vec<AdornedRule>, Option<Adorned>) {
    if !idb.contains(&query.atom.pred) {
        return (Vec::new(), None);
    }
    let start: Adorned = (query.atom.pred, query.atom.terms.iter().map(Term::is_const).collect());
    let mut rules: Vec<AdornedRule> = Vec::new();
    let mut seen: BTreeSet<Adorned> = BTreeSet::from([start.clone()]);
    let mut work: VecDeque<Adorned> = VecDeque::from([start.clone()]);

    while let Some((pred, adornment)) = work.pop_front() {
        for rule in program.definition_of(pred) {
            let mut bound: BTreeSet<Sym> = rule
                .head
                .terms
                .iter()
                .zip(&adornment)
                .filter_map(|(t, &b)| if b { t.as_var() } else { None })
                .collect();
            let mut body: Vec<Literal> = Vec::with_capacity(rule.body.len());
            let mut demands: Vec<Option<Adorned>> = Vec::with_capacity(rule.body.len());
            for lit in &rule.body {
                let demand = match lit {
                    Literal::Atom(atom) if idb.contains(&atom.pred) => {
                        let mut sub_ad: Adornment =
                            atom.terms.iter().map(|t| is_bound(t, &bound)).collect();
                        if subsumptive {
                            // The most general adornment seen whose bound
                            // positions are a subset of this demand's.
                            if let Some(general) = seen
                                .iter()
                                .filter(|(p, a)| {
                                    *p == atom.pred && a.iter().zip(&sub_ad).all(|(&w, &s)| !w || s)
                                })
                                .map(|(_, a)| a.clone())
                                .min_by_key(|a| a.iter().filter(|&&b| b).count())
                            {
                                sub_ad = general;
                            }
                        }
                        let key = (atom.pred, sub_ad);
                        if seen.insert(key.clone()) {
                            work.push_back(key.clone());
                        }
                        let renamed = adorned_name(atom.pred, &key.1, interner);
                        body.push(Literal::Atom(Atom::new(renamed, atom.terms.clone())));
                        Some(key)
                    }
                    _ => {
                        body.push(lit.clone());
                        None
                    }
                };
                demands.push(demand);
                // What the literal binds once evaluated. The engine forces
                // the demand rewrite only on a query whose cone neither
                // negates nor aggregates, so it never sees a negated
                // literal; kept meaning-preserving regardless: a negated
                // literal binds nothing (only safe, hence already-bound,
                // variables occur in it), and a sum binds its target once
                // the operands are bound.
                match lit {
                    Literal::Atom(atom) => bound.extend(atom.vars()),
                    Literal::Eq(l, r) if is_bound(l, &bound) || is_bound(r, &bound) => {
                        bound.extend([l, r].into_iter().filter_map(Term::as_var));
                    }
                    Literal::Sum(d, a, b) if is_bound(a, &bound) && is_bound(b, &bound) => {
                        bound.extend(d.as_var());
                    }
                    _ => {}
                }
            }
            let head = Atom::new(adorned_name(pred, &adornment, interner), rule.head.terms.clone());
            rules.push(AdornedRule {
                rule: Rule::new(head, body),
                head: (pred, adornment.clone()),
                demands,
            });
        }
    }
    (rules, Some(start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_ast::{parse_program, parse_query, pretty};

    type Adorning = (Vec<AdornedRule>, Option<Adorned>, String);

    /// The adorned rules, the query's demand, and the rules rendered.
    fn adorn_src(src: &str, query_src: &str, subsumptive: bool) -> Adorning {
        let mut i = Interner::new();
        let program = parse_program(src, &mut i).unwrap();
        let query = parse_query(query_src, &mut i).unwrap();
        let idb: Vec<Sym> = program.proper_rules().map(|r| r.head.pred).collect();
        let (rules, seed) = adorn(&program, &query, &mut i, &idb, subsumptive);
        let renamed = rules.iter().map(|r| r.rule.clone()).collect();
        let rendered = pretty::program_to_string(&Program::new(renamed), &i);
        (rules, seed, rendered)
    }

    #[test]
    fn transitive_closure_bf() {
        let (rules, _, rendered) =
            adorn_src("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n", "t(a, Y)?", false);
        assert_eq!(rules.len(), 2);
        // The recursive call is also bf: e(X, W) binds W before t(W, Y).
        assert!(rendered.contains("t@bf(W, Y)"), "{rendered}");
        assert!(rendered.contains("t@bf(X, Y) :- e(X, Y)."), "{rendered}");
    }

    #[test]
    fn right_linear_produces_fb_via_persistence() {
        // t(X, Y) :- t(X, W), c(Y, W): with t(X, b)? the head binds Y;
        // walking left to right, the recursive t(X, W) sees X free, W free.
        let (_, seed, rendered) =
            adorn_src("t(X, Y) :- t(X, W), c(Y, W).\nt(X, Y) :- p(X, Y).\n", "t(X, b)?", false);
        assert_eq!(seed.map(|(_, a)| a), Some(vec![false, true]));
        assert!(rendered.contains("t@ff"), "{rendered}");
    }

    #[test]
    fn multiple_adornments_generate_multiple_versions() {
        let (_, _, rendered) = adorn_src(
            "s(X, Y) :- t(X, Y).\n\
             s(X, Y) :- t(Y, X).\n\
             t(X, Y) :- e(X, Y).\n",
            "s(a, Y)?",
            false,
        );
        assert!(rendered.contains("t@bf"), "{rendered}");
        assert!(rendered.contains("t@fb"), "{rendered}");
    }

    #[test]
    fn eq_literals_propagate_bindings() {
        let (_, _, rendered) = adorn_src(
            "t(X, Y) :- q(X, W), Y2 = W, t(Y2, Y).\nt(X, Y) :- p(X, Y).\n",
            "t(a, Y)?",
            false,
        );
        assert!(rendered.contains("t@bf(Y2, Y)"), "{rendered}");
    }

    const TWO_DEMAND: &str = "q(X, Y) :- t(X, Y).\n\
         q(X, Y) :- pin(X, Z, Y), t(Z, Y).\n\
         t(X, Y) :- e(X, Y).\n\
         t(X, Y) :- e(X, W), t(W, Y).\n";

    #[test]
    fn subsumptive_collapses_stronger_demands() {
        // The second q-rule demands t@bb; subsumptively it reuses the
        // already-generated t@bf (bound {0} ⊆ {0, 1}).
        let (standard, _, rendered) = adorn_src(TWO_DEMAND, "q(a, Y)?", false);
        assert!(rendered.contains("t@bb"), "standard adornment keeps both:\n{rendered}");

        let (sub, _, rendered) = adorn_src(TWO_DEMAND, "q(a, Y)?", true);
        assert!(!rendered.contains("t@bb"), "subsumed demand must collapse:\n{rendered}");
        assert!(
            rendered.contains("t@bf(Z, Y)"),
            "demand site reuses the general copy:\n{rendered}"
        );
        assert!(sub.len() < standard.len());
    }

    #[test]
    fn subsumptive_matches_standard_when_no_demand_subsumes() {
        // t@bf and t@fb are incomparable: nothing collapses.
        let src = "s(X, Y) :- t(X, Y).\n\
             s(X, Y) :- t(Y, X).\n\
             t(X, Y) :- e(X, Y).\n";
        assert_eq!(adorn_src(src, "s(a, Y)?", false).2, adorn_src(src, "s(a, Y)?", true).2);
    }

    #[test]
    fn demands_name_the_original_predicate_and_adornment() {
        let (rules, _, _) = adorn_src(TWO_DEMAND, "q(a, Y)?", false);
        let pin_rule = &rules[1];
        assert_eq!(pin_rule.head.1, vec![true, false]);
        assert_eq!(pin_rule.demands[0], None, "pin is EDB");
        assert_eq!(pin_rule.demands[1].as_ref().map(|(_, a)| a.clone()), Some(vec![true, true]));
        assert_eq!(pin_rule.demands[1].as_ref().map(|&(p, _)| p), Some(rules[2].head.0));
    }

    #[test]
    fn a_query_predicate_without_rules_is_left_alone() {
        let (rules, seed, _) = adorn_src(TWO_DEMAND, "e(a, Y)?", false);
        assert!(rules.is_empty() && seed.is_none());
    }
}
