//! The general lint passes (`LNT0xx` codes).
//!
//! Each pass walks the raw-parsed program (see
//! [`parse_program_raw`](sepra_ast::parse_program_raw) — arity and safety
//! problems arrive here as diagnostics, not hard errors) and appends
//! [`Diagnostic`]s. Passes are registered in [`registry`]; the driver in
//! [`crate::check_source`] runs them all and sorts the result by source
//! position.
//!
//! | code   | severity | meaning                                             |
//! |--------|----------|-----------------------------------------------------|
//! | LNT000 | error    | syntax error (parse failed)                         |
//! | LNT001 | error    | unsafe rule / non-ground fact                       |
//! | LNT002 | error    | predicate used with inconsistent arities            |
//! | LNT003 | warning  | predicate used but never defined                    |
//! | LNT004 | warning  | fact predicate never used by any rule (no query)    |
//! | LNT005 | warning  | predicate unreachable from the query                |
//! | LNT006 | warning  | non-linear or mutual recursion                      |
//! | LNT007 | warning  | singleton variable (occurs once, not `_`-prefixed)  |
//! | LNT008 | warning  | duplicate rule                                      |
//! | LNT009 | warning  | duplicate fact                                      |
//!
//! Separability analysis (`SEP0xx`) lives in [`crate::separability`];
//! boundedness analysis (`BND0xx`) in [`crate::boundedness`];
//! stratification analysis (`STR0xx`) in [`crate::stratification`].

use std::collections::BTreeMap;

use sepra_ast::pretty::{atom_to_string, query_to_string, rule_to_string};
use sepra_ast::{Atom, DependencyGraph, Interner, Literal, Program, Query, Span, Sym, Term};
use sepra_eval::{Blocked, PlanLiteral, Planner, RelKey};

use crate::boundedness::Boundedness;
use crate::diagnostic::Diagnostic;
use crate::separability::Separability;
use crate::stratification::StratificationPass;

/// Everything a pass can look at.
pub struct ProgramContext<'a> {
    /// The raw-parsed program.
    pub program: &'a Program,
    /// The program's dependency graph, built once for every pass.
    pub graph: &'a DependencyGraph,
    /// The query diagnostics are computed relative to, if any.
    pub query: Option<&'a Query>,
}

/// A lint pass: inspects the program and appends diagnostics.
///
/// Passes receive a mutable [`Interner`] because separability detection
/// interns fresh canonical variables while normalizing rules.
pub trait Pass {
    /// Stable pass name (used in `DESIGN.md` and debugging output).
    fn name(&self) -> &'static str;
    /// Runs the pass.
    fn run(&self, ctx: &ProgramContext<'_>, interner: &mut Interner, out: &mut Vec<Diagnostic>);
}

/// Every pass, in execution order.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(UnsafeRules),
        Box::new(ArityConsistency),
        Box::new(UndefinedPredicates),
        Box::new(UnusedPredicates),
        Box::new(UnreachableFromQuery),
        Box::new(NonLinearRecursion),
        Box::new(SingletonVariables),
        Box::new(DuplicateRules),
        Box::new(DuplicateFacts),
        Box::new(Separability),
        Box::new(Boundedness),
        Box::new(StratificationPass),
    ]
}

/// LNT001: rules whose head variables are not bound by the body, and
/// non-ground facts. These rules would be rejected by the validating
/// parser; here they become structured diagnostics. So do rules that pass
/// that check but hold an equality, sum or negation the planner can never
/// place ([`Planner::blocked`]) — every query of them would fail.
pub struct UnsafeRules;

impl Pass for UnsafeRules {
    fn name(&self) -> &'static str {
        "unsafe-rules"
    }

    fn run(&self, ctx: &ProgramContext<'_>, interner: &mut Interner, out: &mut Vec<Diagnostic>) {
        for rule in &ctx.program.rules {
            if rule.is_safe() {
                let body: Vec<_> =
                    rule.body.iter().map(|l| PlanLiteral::from_literal(l, &RelKey::Pred)).collect();
                if let Some(Blocked { literal, var }) = Planner::blocked(&body) {
                    let kind = match rule.body[literal] {
                        Literal::Neg(_) => "negation",
                        Literal::Sum(..) => "sum",
                        _ => "equality",
                    };
                    let (name, pred) = (interner.resolve(var), interner.resolve(rule.head.pred));
                    let message =
                        format!("unsafe rule: variable `{name}` of `{pred}` is never bound");
                    let label = format!("this {kind} waits for `{name}`, which nothing binds");
                    let note = "an equality runs once one side is bound by a positive literal, \
                                a sum once both addends are, a negation once every variable is";
                    let diag = Diagnostic::error("LNT001", message).with_label(rule.span, label);
                    out.push(diag.with_note(note));
                }
                continue;
            }
            // A negated literal filters bound rows; it never binds. Only
            // positive literals (atoms, equalities, sums) count.
            let positive = |v: sepra_ast::Sym| {
                !rule.is_fact()
                    && rule.body.iter().any(|l| !matches!(l, Literal::Neg(_)) && l.contains_var(v))
            };
            for v in rule.head.vars() {
                if positive(v) {
                    continue;
                }
                let pos = rule.head.positions_of(v)[0];
                let name = interner.resolve(v).to_string();
                let pred = interner.resolve(rule.head.pred).to_string();
                let diag = if rule.is_fact() {
                    Diagnostic::error(
                        "LNT001",
                        format!("fact for `{pred}` is not ground: variable `{name}`"),
                    )
                    .with_label(rule.head.term_span(pos), "facts must not contain variables")
                } else {
                    Diagnostic::error(
                        "LNT001",
                        format!("unsafe rule: head variable `{name}` of `{pred}` is not bound by the body"),
                    )
                    .with_label(rule.head.term_span(pos), "not bound by any positive body literal")
                    .with_note("every head variable must occur in a positive body atom or equality")
                };
                out.push(diag);
            }
            // Variables of negated atoms must also occur positively.
            for atom in rule.negated_atoms() {
                for v in atom.vars() {
                    // Head variables were already reported above.
                    if positive(v) || rule.head.contains_var(v) {
                        continue;
                    }
                    let pos = atom.positions_of(v)[0];
                    let name = interner.resolve(v).to_string();
                    let pred = interner.resolve(atom.pred).to_string();
                    out.push(
                        Diagnostic::error(
                            "LNT001",
                            format!(
                                "unsafe rule: variable `{name}` of negated `{pred}` has no positive occurrence"
                            ),
                        )
                        .with_label(atom.term_span(pos), "only occurs under negation")
                        .with_note(
                            "a negated literal filters bound rows; every variable in it \
                             must be bound by a positive body literal",
                        ),
                    );
                }
            }
        }
    }
}

/// LNT002: a predicate used with two different arities. The first
/// occurrence fixes the expected arity; every later disagreement is
/// reported against it.
pub struct ArityConsistency;

impl Pass for ArityConsistency {
    fn name(&self) -> &'static str {
        "arity-consistency"
    }

    fn run(&self, ctx: &ProgramContext<'_>, interner: &mut Interner, out: &mut Vec<Diagnostic>) {
        let mut first: BTreeMap<Sym, (usize, Span)> = BTreeMap::new();
        let mut check = |atom: &Atom, interner: &Interner, out: &mut Vec<Diagnostic>| {
            let (expected, first_span) =
                *first.entry(atom.pred).or_insert((atom.arity(), atom.span));
            if atom.arity() != expected {
                let pred = interner.resolve(atom.pred).to_string();
                out.push(
                    Diagnostic::error(
                        "LNT002",
                        format!(
                            "predicate `{pred}` used with {} arguments, but earlier with {expected}",
                            atom.arity()
                        ),
                    )
                    .with_label(atom.span, format!("used here with {} arguments", atom.arity()))
                    .with_secondary(first_span, format!("first used here with {expected} arguments")),
                );
            }
        };
        for rule in &ctx.program.rules {
            check(&rule.head, interner, out);
            // Negated atoms participate in arity checking too, in source
            // order alongside the positive ones.
            for lit in &rule.body {
                if let Literal::Atom(atom) | Literal::Neg(atom) = lit {
                    check(atom, interner, out);
                }
            }
        }
        if let Some(query) = ctx.query {
            let atom = &query.atom;
            if let Some(&(expected, first_span)) = first.get(&atom.pred) {
                if atom.arity() != expected {
                    let pred = interner.resolve(atom.pred).to_string();
                    out.push(
                        Diagnostic::error(
                            "LNT002",
                            format!(
                                "query uses `{pred}` with {} arguments, but the program uses {expected}",
                                atom.arity()
                            ),
                        )
                        .with_label(Span::DUMMY, format!("in the query `{}`", query_to_string(query, interner)))
                        .with_secondary(first_span, format!("first used here with {expected} arguments")),
                    );
                }
            }
        }
    }
}

/// LNT003: a predicate appears in a rule body (or the query) but heads no
/// rule and no fact — it denotes the empty relation, which is almost
/// always a typo.
pub struct UndefinedPredicates;

impl Pass for UndefinedPredicates {
    fn name(&self) -> &'static str {
        "undefined-predicates"
    }

    fn run(&self, ctx: &ProgramContext<'_>, interner: &mut Interner, out: &mut Vec<Diagnostic>) {
        let defined: Vec<Sym> = ctx.program.rules.iter().map(|r| r.head.pred).collect();
        let mut first_use: BTreeMap<Sym, Span> = BTreeMap::new();
        let mut order: Vec<Sym> = Vec::new();
        for rule in &ctx.program.rules {
            for lit in &rule.body {
                let (Literal::Atom(atom) | Literal::Neg(atom)) = lit else {
                    continue;
                };
                if !defined.contains(&atom.pred) && !first_use.contains_key(&atom.pred) {
                    first_use.insert(atom.pred, atom.span);
                    order.push(atom.pred);
                }
            }
        }
        for pred in order {
            let name = interner.resolve(pred).to_string();
            out.push(
                Diagnostic::warning(
                    "LNT003",
                    format!("predicate `{name}` is never defined by a rule or fact"),
                )
                .with_label(first_use[&pred], "used here")
                .with_note("an undefined predicate denotes the empty relation"),
            );
        }
        if let Some(query) = ctx.query {
            if !defined.contains(&query.atom.pred) {
                let name = interner.resolve(query.atom.pred).to_string();
                out.push(
                    Diagnostic::warning(
                        "LNT003",
                        format!("query predicate `{name}` is never defined by a rule or fact"),
                    )
                    .with_label(
                        Span::DUMMY,
                        format!("in the query `{}`", query_to_string(query, interner)),
                    )
                    .with_note("the query result is necessarily empty"),
                );
            }
        }
    }
}

/// LNT004: a predicate defined only by facts (a base relation) that no
/// rule body ever reads. Runs only when no query is given —
/// [`UnreachableFromQuery`] subsumes it otherwise.
pub struct UnusedPredicates;

impl Pass for UnusedPredicates {
    fn name(&self) -> &'static str {
        "unused-predicates"
    }

    fn run(&self, ctx: &ProgramContext<'_>, interner: &mut Interner, out: &mut Vec<Diagnostic>) {
        if ctx.query.is_some() {
            return;
        }
        let heads_proper_rule = |p: Sym| ctx.program.proper_rules().any(|r| r.head.pred == p);
        let used_in_body = |p: Sym| {
            ctx.program
                .rules
                .iter()
                .any(|r| r.body_atoms().chain(r.negated_atoms()).any(|a| a.pred == p))
        };
        let mut seen: Vec<Sym> = Vec::new();
        for rule in ctx.program.facts() {
            let pred = rule.head.pred;
            if seen.contains(&pred) || heads_proper_rule(pred) || used_in_body(pred) {
                continue;
            }
            seen.push(pred);
            let name = interner.resolve(pred).to_string();
            let count = ctx.program.facts().filter(|f| f.head.pred == pred).count();
            out.push(
                Diagnostic::warning(
                    "LNT004",
                    format!("fact predicate `{name}` is never used by any rule"),
                )
                .with_label(rule.span(), format!("{count} fact(s) define it"))
                .with_note("dead data: no rule body or query can reach this relation"),
            );
        }
    }
}

/// LNT005: with a query given, every predicate from which the query
/// predicate is unreachable in the dependency graph is dead code.
pub struct UnreachableFromQuery;

impl Pass for UnreachableFromQuery {
    fn name(&self) -> &'static str {
        "unreachable-from-query"
    }

    fn run(&self, ctx: &ProgramContext<'_>, interner: &mut Interner, out: &mut Vec<Diagnostic>) {
        let Some(query) = ctx.query else {
            return;
        };
        let goal = query.atom.pred;
        let reachable = |p: Sym| p == goal || ctx.graph.depends_on(goal, p);
        let mut seen: Vec<Sym> = Vec::new();
        for rule in &ctx.program.rules {
            let pred = rule.head.pred;
            if seen.contains(&pred) || reachable(pred) {
                continue;
            }
            seen.push(pred);
            let name = interner.resolve(pred).to_string();
            let count = ctx.program.rules.iter().filter(|r| r.head.pred == pred).count();
            out.push(
                Diagnostic::warning(
                    "LNT005",
                    format!(
                        "`{name}` is unreachable from the query `{}`",
                        query_to_string(query, interner)
                    ),
                )
                .with_label(
                    rule.span(),
                    format!("{count} clause(s) can never contribute to the answer"),
                ),
            );
        }
    }
}

/// LNT006: recursion outside the paper's linear class — a rule whose body
/// mentions its own head predicate more than once, or a set of mutually
/// recursive predicates.
pub struct NonLinearRecursion;

impl Pass for NonLinearRecursion {
    fn name(&self) -> &'static str {
        "non-linear-recursion"
    }

    fn run(&self, ctx: &ProgramContext<'_>, interner: &mut Interner, out: &mut Vec<Diagnostic>) {
        for rule in ctx.program.proper_rules() {
            let pred = rule.head.pred;
            let occurrences: Vec<&Atom> = rule.body_atoms().filter(|a| a.pred == pred).collect();
            if occurrences.len() < 2 {
                continue;
            }
            let name = interner.resolve(pred).to_string();
            out.push(
                Diagnostic::warning(
                    "LNT006",
                    format!(
                        "non-linear recursion: `{name}` occurs {} times in the body of its own rule",
                        occurrences.len()
                    ),
                )
                .with_label(occurrences[1].span, "second recursive occurrence")
                .with_secondary(occurrences[0].span, "first recursive occurrence")
                .with_note(
                    "separable compilation (Definition 2.4) requires linear recursion; \
                     evaluation falls back to the general engine",
                ),
            );
        }
        // Mutual recursion: any nontrivial strongly connected component.
        for group in ctx.graph.strata() {
            if group.len() < 2 {
                continue;
            }
            let mut names: Vec<String> =
                group.iter().map(|&p| format!("`{}`", interner.resolve(p))).collect();
            names.sort();
            let first_rule = ctx
                .program
                .rules
                .iter()
                .find(|r| group.contains(&r.head.pred))
                .expect("SCC members head at least one rule");
            out.push(
                Diagnostic::warning(
                    "LNT006",
                    format!("mutually recursive predicates: {}", names.join(", ")),
                )
                .with_label(first_rule.span(), "cycle starts here")
                .with_note(
                    "the paper's class excludes mutual recursion; separable compilation \
                     does not apply",
                ),
            );
        }
    }
}

/// LNT007: a variable occurring exactly once in a rule. Usually a typo;
/// prefix with `_` to mark the occurrence as intentionally unused.
pub struct SingletonVariables;

impl Pass for SingletonVariables {
    fn name(&self) -> &'static str {
        "singleton-variables"
    }

    fn run(&self, ctx: &ProgramContext<'_>, interner: &mut Interner, out: &mut Vec<Diagnostic>) {
        for rule in ctx.program.proper_rules() {
            // Every variable occurrence with its span, in source order.
            let mut occurrences: Vec<(Sym, Span)> = Vec::new();
            for (i, t) in rule.head.terms.iter().enumerate() {
                if let Term::Var(v) = t {
                    occurrences.push((*v, rule.head.term_span(i)));
                }
            }
            for lit in &rule.body {
                match lit {
                    Literal::Atom(a) => {
                        for (i, t) in a.terms.iter().enumerate() {
                            if let Term::Var(v) = t {
                                occurrences.push((*v, a.term_span(i)));
                            }
                        }
                    }
                    Literal::Neg(a) => {
                        for (i, t) in a.terms.iter().enumerate() {
                            if let Term::Var(v) = t {
                                occurrences.push((*v, a.term_span(i)));
                            }
                        }
                    }
                    Literal::Eq(l, r) => {
                        for t in [l, r] {
                            if let Term::Var(v) = t {
                                occurrences.push((*v, rule.span()));
                            }
                        }
                    }
                    Literal::Sum(d, a, b) => {
                        for t in [d, a, b] {
                            if let Term::Var(v) = t {
                                occurrences.push((*v, rule.span()));
                            }
                        }
                    }
                }
            }
            for (idx, &(v, span)) in occurrences.iter().enumerate() {
                let count = occurrences.iter().filter(|(w, _)| *w == v).count();
                let is_first = occurrences.iter().position(|(w, _)| *w == v) == Some(idx);
                if count != 1 || !is_first {
                    continue;
                }
                let name = interner.resolve(v).to_string();
                if name.starts_with('_') {
                    continue;
                }
                let pred = interner.resolve(rule.head.pred).to_string();
                out.push(
                    Diagnostic::warning(
                        "LNT007",
                        format!("singleton variable `{name}` in rule for `{pred}`"),
                    )
                    .with_label(span, "appears only here")
                    .with_note("prefix with `_` if the variable is intentionally unused"),
                );
            }
        }
    }
}

/// LNT008: a rule textually identical (up to spans) to an earlier rule.
pub struct DuplicateRules;

impl Pass for DuplicateRules {
    fn name(&self) -> &'static str {
        "duplicate-rules"
    }

    fn run(&self, ctx: &ProgramContext<'_>, interner: &mut Interner, out: &mut Vec<Diagnostic>) {
        report_duplicates(ctx, interner, out, false, "LNT008", "rule");
    }
}

/// LNT009: a fact identical to an earlier fact. Facts are ground, so
/// among facts duplication and subsumption coincide: a fact is subsumed
/// exactly by a copy of itself.
pub struct DuplicateFacts;

impl Pass for DuplicateFacts {
    fn name(&self) -> &'static str {
        "duplicate-facts"
    }

    fn run(&self, ctx: &ProgramContext<'_>, interner: &mut Interner, out: &mut Vec<Diagnostic>) {
        report_duplicates(ctx, interner, out, true, "LNT009", "fact");
    }
}

fn report_duplicates(
    ctx: &ProgramContext<'_>,
    interner: &Interner,
    out: &mut Vec<Diagnostic>,
    facts: bool,
    code: &'static str,
    what: &str,
) {
    let rules: Vec<&sepra_ast::Rule> =
        ctx.program.rules.iter().filter(|r| r.is_fact() == facts).collect();
    for (i, rule) in rules.iter().enumerate() {
        // Rule equality ignores spans, so re-parsed or reformatted copies
        // still match. Programs are small; the quadratic scan keeps the
        // report order deterministic.
        let Some(first) = rules[..i].iter().find(|r| ***r == **rule) else {
            continue;
        };
        let shown = if facts {
            atom_to_string(&rule.head, interner)
        } else {
            rule_to_string(rule, interner)
        };
        out.push(
            Diagnostic::warning(code, format!("duplicate {what}: `{shown}`"))
                .with_label(rule.span(), format!("duplicate {what}"))
                .with_secondary(first.span(), "first written here"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_ast::{parse_program_raw, parse_query};

    fn run_passes(src: &str, query: Option<&str>) -> Vec<Diagnostic> {
        let mut interner = Interner::new();
        let program = parse_program_raw(src, &mut interner).unwrap();
        let query = query.map(|q| parse_query(q, &mut interner).unwrap());
        let graph = DependencyGraph::build(&program);
        let ctx = ProgramContext { program: &program, graph: &graph, query: query.as_ref() };
        let mut out = Vec::new();
        for pass in registry() {
            pass.run(&ctx, &mut interner, &mut out);
        }
        out
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn unsafe_rule_and_open_fact_are_errors() {
        let diags = run_passes("p(X, Y) :- q(X).\nf(Z).\nq(a).\n", None);
        let lnt1: Vec<_> = diags.iter().filter(|d| d.code == "LNT001").collect();
        assert_eq!(lnt1.len(), 2, "{diags:?}");
        assert!(lnt1[0].message.contains("`Y`"), "{}", lnt1[0].message);
        assert!(lnt1[1].message.contains("not ground"), "{}", lnt1[1].message);
        assert!(lnt1.iter().all(|d| d.primary_span().is_some()));
    }

    /// Rules `is_safe` accepts but every query rejects: an equality and a
    /// sum over a variable nothing binds.
    #[test]
    fn unplaceable_equality_and_sum_are_unsafe() {
        for (src, var, kind) in [
            ("e(a, b).\nr(X, Y) :- e(X, Z), Y = W.\n", "`Y`", "equality"),
            ("e(a, b).\nr(X, S) :- e(X, Z), S = Z + Q.\n", "`Q`", "sum"),
        ] {
            let diags = run_passes(src, None);
            let lnt1: Vec<_> = diags.iter().filter(|d| d.code == "LNT001").collect();
            assert_eq!(lnt1.len(), 1, "{diags:?}");
            assert!(lnt1[0].message.contains(var), "{}", lnt1[0].message);
            assert!(lnt1[0].labels[0].message.contains(kind), "{:?}", lnt1[0].labels);
            assert_eq!(lnt1[0].primary_span().map(|s| s.start), Some(9));
        }
        let placed = run_passes("e(a, b).\nr(X, S) :- e(X, Z), S = Z + 1.\n", None);
        assert!(!codes(&placed).contains(&"LNT001"), "{placed:?}");
    }

    #[test]
    fn arity_mismatch_points_at_both_uses() {
        let diags = run_passes("e(a, b).\np(X) :- e(X).\n", None);
        let d = diags.iter().find(|d| d.code == "LNT002").unwrap();
        assert!(d.message.contains("1 arguments, but earlier with 2"), "{}", d.message);
        assert_eq!(d.labels.len(), 2);
        assert!(d.labels[0].primary && !d.labels[1].primary);
    }

    #[test]
    fn undefined_and_unused_predicates_are_flagged() {
        let diags = run_passes("p(X) :- ghost(X).\norphan(a).\n", None);
        assert!(codes(&diags).contains(&"LNT003"), "{diags:?}");
        assert!(codes(&diags).contains(&"LNT004"), "{diags:?}");
        let undef = diags.iter().find(|d| d.code == "LNT003").unwrap();
        assert!(undef.message.contains("`ghost`"));
    }

    #[test]
    fn query_silences_unused_but_enables_unreachable() {
        let src = "e(a, b).\nt(X, Y) :- e(X, Y).\nisland(X) :- e(X, X).\n";
        let with_query = run_passes(src, Some("t(a, Y)?"));
        assert!(codes(&with_query).contains(&"LNT005"), "{with_query:?}");
        assert!(!codes(&with_query).contains(&"LNT004"));
        let d = with_query.iter().find(|d| d.code == "LNT005").unwrap();
        assert!(d.message.contains("`island`"), "{}", d.message);
        let without = run_passes(src, None);
        assert!(!codes(&without).contains(&"LNT005"));
    }

    #[test]
    fn nonlinear_and_mutual_recursion_are_flagged() {
        let diags =
            run_passes("t(X, Y) :- t(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\ne(a, b).\n", None);
        let d = diags.iter().find(|d| d.code == "LNT006").unwrap();
        assert!(d.message.contains("occurs 2 times"), "{}", d.message);
        let diags = run_passes(
            "p(X) :- e(X, Y), q(Y).\nq(X) :- f(X, Y), p(Y).\np(X) :- b(X).\n\
             q(X) :- c(X).\nb(a).\nc(a).\ne(a, a).\nf(a, a).\n",
            None,
        );
        let d = diags.iter().find(|d| d.message.contains("mutually recursive")).unwrap();
        assert_eq!(d.code, "LNT006");
        assert!(d.message.contains("`p`") && d.message.contains("`q`"), "{}", d.message);
    }

    #[test]
    fn singleton_variables_respect_underscore_convention() {
        let diags =
            run_passes("p(X) :- e(X, Waste).\np(X) :- f(X, _Ok).\ne(a, b).\nf(a, b).\n", None);
        let singles: Vec<_> = diags.iter().filter(|d| d.code == "LNT007").collect();
        assert_eq!(singles.len(), 1, "{diags:?}");
        assert!(singles[0].message.contains("`Waste`"));
    }

    #[test]
    fn duplicates_cite_the_first_copy() {
        let diags = run_passes("p(X) :- e(X, X).\np(X) :- e(X, X).\ne(a, a).\ne(a, a).\n", None);
        let rule_dup = diags.iter().find(|d| d.code == "LNT008").unwrap();
        assert_eq!(rule_dup.labels.len(), 2);
        let fact_dup = diags.iter().find(|d| d.code == "LNT009").unwrap();
        assert!(fact_dup.message.contains("e(a, a)"), "{}", fact_dup.message);
        // The duplicate is the *second* occurrence; its span differs from
        // the first's even though the rules compare equal.
        assert_ne!(rule_dup.labels[0].span, rule_dup.labels[1].span);
    }

    #[test]
    fn clean_program_produces_no_lints() {
        let diags = run_passes(
            "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\ne(a, b).\ne(b, c).\n",
            Some("t(a, Y)?"),
        );
        let non_note: Vec<_> =
            diags.iter().filter(|d| d.severity != crate::Severity::Note).collect();
        assert!(non_note.is_empty(), "{non_note:?}");
    }
}
