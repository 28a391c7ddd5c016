//! Boundedness analysis: sufficient conditions under which a linear
//! recursion is equivalent to a *nonrecursive* program.
//!
//! Boundedness is undecidable in general (Gaifman et al.), so this module
//! implements a sound, incomplete test built on three sufficient
//! conditions, checked in order of increasing cost:
//!
//! 1. **Vacuous recursive call** — after equality propagation the
//!    recursive subgoal is identical to the rule head (or the body is
//!    unsatisfiable). Such a rule can only rederive facts it consumed and
//!    is dropped outright.
//! 2. **Exit subsumption** — a nonrecursive rule θ-subsumes the recursive
//!    rule: every fact the recursive rule derives, the exit rule derives
//!    from the same database. The recursive rule is redundant.
//! 3. **Unfolding stabilization** — the chain `U_0, U_1, ...` where `U_0`
//!    is the set of exit rules and `U_{d+1}` resolves each remaining
//!    recursive rule against each rule of `U_d` reaches a depth `k` past
//!    which every new resolvent is θ-subsumed by an already-kept rule.
//!    The kept (nonrecursive) rules are then equivalent to the recursion.
//!
//! **EDB seeding.** The evaluator seeds a derived predicate with the EDB
//! facts asserted under the same name (`t(a, b).` alongside rules for
//! `t`), so a verdict that only considered the program's rules would be
//! unsound: a later fact insertion could feed the recursion new tuples at
//! depth 0. The analysis therefore includes a *synthetic exit rule*
//! `t(V1, ..., Vn) :- t@edb(V1, ..., Vn).` in `U_0`, where `t@edb` is an
//! opaque predicate standing for whatever facts `t` has directly asserted.
//! The verdict is thus a property of the program alone, stable under any
//! mutation of the database; the rewrite realizes `t@edb` by binding it to
//! `t`'s EDB relation (by handle) at evaluation time.
//!
//! **Soundness** (why "stabilized" implies "bounded"): by strong induction
//! on derivation depth. A depth-0 fact comes from an exit rule or the EDB
//! (the synthetic rule), both in `U_0`. A depth-`d` fact is a recursive
//! rule `r` applied to a depth-`d-1` fact `g`; by induction `g` is
//! derivable by some kept rule `u`, the lifting lemma makes the fact an
//! instance of `unfold(r, u)`, and at stabilization every such resolvent
//! is θ-subsumed by a kept rule — θ-subsumption only ever *shrinks* the
//! body and *generalizes* the head, so the subsuming rule derives the fact
//! too. Derivations never need more than `k` recursive steps.

use std::collections::BTreeMap;

use sepra_ast::{Atom, Interner, Literal, RecursiveDef, Rule, Sym, Term};

/// Caps for the unfolding chain, so the analysis gives up gracefully on
/// programs where stabilization (if any) is too deep to be worth the
/// nonrecursive expansion.
#[derive(Debug, Clone)]
pub struct BoundedOptions {
    /// Maximum unfolding depth to try before declaring "not provably
    /// bounded".
    pub max_depth: usize,
    /// Maximum number of kept (nonrecursive replacement) rules; chains
    /// that blow past this are abandoned even if they would stabilize.
    pub max_rules: usize,
}

impl Default for BoundedOptions {
    fn default() -> Self {
        BoundedOptions { max_depth: 4, max_rules: 64 }
    }
}

/// Per-recursive-rule classification, parallel to
/// [`RecursiveDef::recursive_rules`]. Drives the BND diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleStatus {
    /// Condition 1: the recursive call is vacuous (subgoal equals the head
    /// after equality propagation, or the body is unsatisfiable).
    Vacuous,
    /// Condition 2: θ-subsumed by the exit rule at this index within
    /// [`RecursiveDef::exit_rules`].
    ExitSubsumed(usize),
    /// Neither shortcut applied; the rule participated in the unfolding
    /// chain (condition 3).
    Unfolded,
}

/// A proof that a recursion is bounded, with the nonrecursive replacement.
#[derive(Debug, Clone)]
pub struct BoundedRecursion {
    /// The recursive predicate.
    pub pred: Sym,
    /// Its arity.
    pub arity: usize,
    /// The stabilization depth `k`: every derivation needs at most `k`
    /// applications of a recursive rule. `0` when every recursive rule was
    /// vacuous or exit-subsumed.
    pub depth: usize,
    /// Nonrecursive replacement rules for `pred` (the kept chain
    /// `U_0 ∪ ... ∪ U_k`, with θ-subsumed members pruned). Bodies may
    /// reference [`BoundedRecursion::edb_pred`].
    pub rules: Vec<Rule>,
    /// The synthetic predicate standing for `pred`'s directly-asserted EDB
    /// facts; the evaluator binds it to that relation, by handle.
    pub edb_pred: Sym,
    /// Classification of each recursive rule, in source order.
    pub statuses: Vec<RuleStatus>,
}

/// Analyzes `def` for boundedness with default caps. `None` means "not
/// provably bounded" — never "definitely unbounded".
pub fn analyze(def: &RecursiveDef, interner: &mut Interner) -> Option<BoundedRecursion> {
    analyze_with_options(def, interner, &BoundedOptions::default())
}

/// [`analyze`] with explicit chain caps.
pub fn analyze_with_options(
    def: &RecursiveDef,
    interner: &mut Interner,
    opts: &BoundedOptions,
) -> Option<BoundedRecursion> {
    let pred = def.pred;
    let edb_name = format!("{}@edb", interner.resolve(pred));
    let edb_pred = interner.intern(&edb_name);

    // U_0: simplified exit rules plus the synthetic EDB rule, with
    // θ-subsumed members pruned as they arrive.
    let mut kept: Vec<Rule> = Vec::new();
    let simplified_exits: Vec<Option<Rule>> =
        def.exit_rules.iter().map(|r| simplify(r.clone())).collect();
    for rule in simplified_exits.iter().flatten() {
        push_unless_subsumed(&mut kept, rule.clone());
    }
    let vars: Vec<Term> =
        (0..def.arity).map(|i| Term::Var(interner.fresh(&format!("V{i}")))).collect();
    let synthetic =
        Rule::new(Atom::new(pred, vars.clone()), vec![Literal::Atom(Atom::new(edb_pred, vars))]);
    push_unless_subsumed(&mut kept, synthetic);

    // Classify each recursive rule; the survivors drive the chain.
    let mut statuses: Vec<RuleStatus> = Vec::new();
    let mut active: Vec<Rule> = Vec::new();
    for rule in &def.recursive_rules {
        let Some(simplified) = simplify(rule.clone()) else {
            statuses.push(RuleStatus::Vacuous);
            continue;
        };
        let rec_atom = simplified.recursive_atom(pred).expect("recursive rule keeps its subgoal");
        if *rec_atom == simplified.head {
            statuses.push(RuleStatus::Vacuous);
            continue;
        }
        let subsumed_by = simplified_exits
            .iter()
            .enumerate()
            .find(|(_, e)| e.as_ref().is_some_and(|e| subsumes(e, &simplified)));
        if let Some((i, _)) = subsumed_by {
            statuses.push(RuleStatus::ExitSubsumed(i));
            continue;
        }
        statuses.push(RuleStatus::Unfolded);
        active.push(simplified);
    }

    let mut depth = 0;
    if !active.is_empty() {
        let mut frontier: Vec<Rule> = kept.clone();
        let mut stabilized = false;
        for d in 1..=opts.max_depth {
            let mut next: Vec<Rule> = Vec::new();
            for r in &active {
                for u in &frontier {
                    let Some(w) = unfold(r, pred, u, interner) else { continue };
                    if kept.iter().chain(&next).any(|k| subsumes(k, &w)) {
                        continue;
                    }
                    next.push(w);
                }
            }
            if next.is_empty() {
                depth = d - 1;
                stabilized = true;
                break;
            }
            kept.extend(next.clone());
            if kept.len() > opts.max_rules {
                return None;
            }
            frontier = next;
        }
        if !stabilized {
            return None;
        }
    }

    Some(BoundedRecursion { pred, arity: def.arity, depth, rules: kept, edb_pred, statuses })
}

fn push_unless_subsumed(kept: &mut Vec<Rule>, rule: Rule) {
    if !kept.iter().any(|k| subsumes(k, &rule)) {
        kept.push(rule);
    }
}

// ---------------------------------------------------------------------------
// Substitutions and unification (function-free terms).

type Subst = BTreeMap<Sym, Term>;

/// Chases variable bindings to a fixed representative.
fn walk(subst: &Subst, mut t: Term) -> Term {
    while let Term::Var(v) = t {
        match subst.get(&v) {
            Some(&next) => t = next,
            None => break,
        }
    }
    t
}

/// Unifies two terms under `subst`, extending it. Either side may bind.
fn unify_terms(a: Term, b: Term, subst: &mut Subst) -> bool {
    let a = walk(subst, a);
    let b = walk(subst, b);
    match (a, b) {
        _ if a == b => true,
        (Term::Var(v), other) | (other, Term::Var(v)) => {
            subst.insert(v, other);
            true
        }
        _ => false,
    }
}

fn unify_atoms(a: &Atom, b: &Atom, subst: &mut Subst) -> bool {
    a.pred == b.pred
        && a.arity() == b.arity()
        && a.terms.iter().zip(&b.terms).all(|(&x, &y)| unify_terms(x, y, subst))
}

fn apply_subst_rule(rule: &Rule, subst: &Subst) -> Rule {
    rule.substitute(&|v| match walk(subst, Term::Var(v)) {
        Term::Var(w) if w == v => None,
        t => Some(t),
    })
}

/// Renames every variable of `rule` to a fresh one.
fn rename_apart(rule: &Rule, interner: &mut Interner) -> Rule {
    let mut map: BTreeMap<Sym, Sym> = BTreeMap::new();
    for v in rule.vars() {
        let name = interner.resolve(v).to_string();
        let fresh = interner.fresh(&name);
        map.insert(v, fresh);
    }
    rule.substitute(&|v| map.get(&v).map(|&w| Term::Var(w)))
}

// ---------------------------------------------------------------------------
// Equality propagation.

/// Propagates `Eq` literals through the rule (binding variables, dropping
/// trivial equalities, deduplicating the body). Returns `None` when the
/// body contains an unsatisfiable equality between distinct constants —
/// the rule can never fire.
fn simplify(rule: Rule) -> Option<Rule> {
    let mut rule = rule;
    loop {
        let mut action: Option<(usize, Option<(Sym, Term)>)> = None;
        for (i, lit) in rule.body.iter().enumerate() {
            if let Literal::Eq(l, r) = lit {
                match (*l, *r) {
                    (Term::Var(v), t) | (t, Term::Var(v)) => {
                        if t == Term::Var(v) {
                            action = Some((i, None));
                        } else {
                            action = Some((i, Some((v, t))));
                        }
                        break;
                    }
                    (Term::Const(a), Term::Const(b)) => {
                        if a == b {
                            action = Some((i, None));
                            break;
                        }
                        return None;
                    }
                }
            }
        }
        match action {
            None => break,
            Some((i, binding)) => {
                rule.body.remove(i);
                if let Some((v, t)) = binding {
                    rule = rule.substitute(&|w| (w == v).then_some(t));
                }
            }
        }
    }
    let mut deduped: Vec<Literal> = Vec::with_capacity(rule.body.len());
    for lit in rule.body {
        if !deduped.contains(&lit) {
            deduped.push(lit);
        }
    }
    rule.body = deduped;
    Some(rule)
}

// ---------------------------------------------------------------------------
// θ-subsumption.

/// One-way matching: extends `subst` so `pat`θ == `tgt`, binding only
/// variables on the pattern side (target variables are treated as inert —
/// Skolem constants). Returns the bindings added, for backtracking.
fn match_term(pat: Term, tgt: Term, subst: &mut Subst) -> Option<Option<Sym>> {
    match pat {
        Term::Var(v) => match subst.get(&v) {
            Some(&bound) => (bound == tgt).then_some(None),
            None => {
                subst.insert(v, tgt);
                Some(Some(v))
            }
        },
        Term::Const(_) => (pat == tgt).then_some(None),
    }
}

fn match_atom(pat: &Atom, tgt: &Atom, subst: &mut Subst) -> Option<Vec<Sym>> {
    if pat.pred != tgt.pred || pat.arity() != tgt.arity() {
        return None;
    }
    let mut added = Vec::new();
    for (&p, &t) in pat.terms.iter().zip(&tgt.terms) {
        match match_term(p, t, subst) {
            Some(Some(v)) => added.push(v),
            Some(None) => {}
            None => {
                for v in added {
                    subst.remove(&v);
                }
                return None;
            }
        }
    }
    Some(added)
}

fn match_literal(pat: &Literal, tgt: &Literal, subst: &mut Subst) -> Option<Vec<Sym>> {
    match (pat, tgt) {
        (Literal::Atom(p), Literal::Atom(t)) => match_atom(p, t, subst),
        (Literal::Eq(pl, pr), Literal::Eq(tl, tr)) => {
            // Equality is symmetric: try both orientations.
            for (l, r) in [(tl, tr), (tr, tl)] {
                let mut added = Vec::new();
                let ok =
                    [(pl, l), (pr, r)].into_iter().all(|(&p, &t)| match match_term(p, t, subst) {
                        Some(Some(v)) => {
                            added.push(v);
                            true
                        }
                        Some(None) => true,
                        None => false,
                    });
                if ok {
                    return Some(added);
                }
                for v in added {
                    subst.remove(&v);
                }
            }
            None
        }
        _ => None,
    }
}

/// Whether `general` θ-subsumes `specific`: some substitution θ over
/// `general`'s variables makes its head equal to `specific`'s head and its
/// body a sub-multiset of `specific`'s body. Backtracks over the choice of
/// target literal for each pattern literal.
fn subsumes(general: &Rule, specific: &Rule) -> bool {
    let mut subst = Subst::new();
    if match_atom(&general.head, &specific.head, &mut subst).is_none() {
        return false;
    }
    fn cover(pats: &[Literal], tgts: &[Literal], subst: &mut Subst) -> bool {
        let Some(pat) = pats.first() else { return true };
        for tgt in tgts {
            if let Some(added) = match_literal(pat, tgt, subst) {
                if cover(&pats[1..], tgts, subst) {
                    return true;
                }
                for v in added {
                    subst.remove(&v);
                }
            }
        }
        false
    }
    cover(&general.body, &specific.body, &mut subst)
}

// ---------------------------------------------------------------------------
// Unfolding.

/// Resolves the recursive subgoal of `rec` (its single `pred` atom)
/// against the head of the nonrecursive rule `with`: the resolvent derives
/// exactly what `rec` derives when the subgoal fact came from `with`.
/// `None` when the heads do not unify (e.g. clashing head constants).
fn unfold(rec: &Rule, pred: Sym, with: &Rule, interner: &mut Interner) -> Option<Rule> {
    let with = rename_apart(with, interner);
    let rec_atom = rec.recursive_atom(pred).expect("recursive rule has its subgoal");
    let mut subst = Subst::new();
    if !unify_atoms(rec_atom, &with.head, &mut subst) {
        return None;
    }
    let mut body: Vec<Literal> = Vec::new();
    for lit in &rec.body {
        match lit {
            Literal::Atom(a) if a == rec_atom => body.extend(with.body.iter().cloned()),
            other => body.push(other.clone()),
        }
    }
    simplify(apply_subst_rule(&Rule::new(rec.head.clone(), body), &subst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_ast::parse_program;

    fn analyze_src(src: &str, pred: &str) -> (Option<BoundedRecursion>, Interner) {
        let mut interner = Interner::new();
        let program = parse_program(src, &mut interner).expect("parses");
        let sym = interner.get(pred).expect("pred interned");
        let def = RecursiveDef::extract(&program, sym, &interner).expect("extracts");
        let bounded = analyze(&def, &mut interner);
        (bounded, interner)
    }

    #[test]
    fn vacuous_recursive_call_is_bounded_at_zero() {
        let (b, _) = analyze_src("t(X, Y) :- e(X, Y), t(X, Y).\nt(X, Y) :- t0(X, Y).\n", "t");
        let b = b.expect("bounded");
        assert_eq!(b.depth, 0);
        assert_eq!(b.statuses, vec![RuleStatus::Vacuous]);
        // Replacement: the exit rule plus the synthetic EDB rule.
        assert_eq!(b.rules.len(), 2);
    }

    #[test]
    fn constant_propagation_detects_vacuous_call() {
        // W = Y makes the recursive subgoal identical to the head.
        let (b, _) =
            analyze_src("t(X, Y) :- e(X, Y), W = Y, t(X, W).\nt(X, Y) :- t0(X, Y).\n", "t");
        assert_eq!(b.expect("bounded").statuses, vec![RuleStatus::Vacuous]);
    }

    #[test]
    fn unsatisfiable_body_is_vacuous() {
        let (b, _) = analyze_src("t(X) :- e(X), a = b, t(X).\nt(X) :- t0(X).\n", "t");
        assert_eq!(b.expect("bounded").statuses, vec![RuleStatus::Vacuous]);
    }

    #[test]
    fn exit_subsumption_is_bounded_at_zero() {
        // Whenever e(X, Y) and t(Y, X) hold, the exit rule already derives
        // t(X, Y) from e(X, Y) alone.
        let (b, _) = analyze_src("t(X, Y) :- e(X, Y), t(Y, X).\nt(X, Y) :- e(X, Y).\n", "t");
        let b = b.expect("bounded");
        assert_eq!(b.depth, 0);
        assert_eq!(b.statuses, vec![RuleStatus::ExitSubsumed(0)]);
    }

    #[test]
    fn swap_recursion_stabilizes_at_depth_one() {
        // One application flips an existing fact's orientation; a second
        // application lands back on facts depth one already covers.
        let (b, _) = analyze_src("t(X, Y) :- sym(X, Y), t(Y, X).\nt(X, Y) :- base(X, Y).\n", "t");
        let b = b.expect("bounded");
        assert_eq!(b.depth, 1);
        assert_eq!(b.statuses, vec![RuleStatus::Unfolded]);
        // U_0 (exit + synthetic) plus the two depth-1 resolvents.
        assert_eq!(b.rules.len(), 4);
    }

    #[test]
    fn transitive_closure_is_not_bounded() {
        let (b, _) = analyze_src("t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n", "t");
        assert!(b.is_none());
    }

    #[test]
    fn exit_head_constant_restricts_unfolding() {
        // The recursive subgoal t(Y, W) only resolves against the exit head
        // t(a, Z) by binding Y = a; the chain still must account for the
        // synthetic EDB rule, which keeps this recursion unbounded.
        let (b, _) = analyze_src("t(X, Y) :- e(X, Y), t(Y, W).\nt(a, Z) :- s(Z).\n", "t");
        assert!(b.is_none());
    }

    #[test]
    fn edb_seeding_blocks_unsound_verdicts() {
        // The exit rule subsumes every exit-branch resolvent (depth-1
        // unfolding only adds literals), so a chain that ignored directly
        // asserted t-facts would report bounded at depth 0. But an EDB
        // fact t(a, b) with a outside `u` feeds the recursion fresh
        // tuples along e-paths — a real fixpoint, and the synthetic
        // `t@edb` branch correctly refuses to stabilize.
        let (b, _) =
            analyze_src("t(X, Y) :- e(X, Z), u(X), t(Z, Y).\nt(X, Y) :- u(X), u(Y).\n", "t");
        assert!(b.is_none());
    }

    #[test]
    fn replacement_rules_are_nonrecursive() {
        let (b, interner) =
            analyze_src("t(X, Y) :- sym(X, Y), t(Y, X).\nt(X, Y) :- base(X, Y).\n", "t");
        let b = b.expect("bounded");
        let t = interner.get("t").unwrap();
        for rule in &b.rules {
            assert_eq!(rule.head.pred, t);
            assert!(!rule.is_recursive_in(t), "replacement must not recurse");
        }
        assert!(interner.get("t@edb").is_some());
    }

    #[test]
    fn depth_caps_are_respected() {
        let opts = BoundedOptions { max_depth: 0, max_rules: 64 };
        let mut interner = Interner::new();
        let program = parse_program(
            "t(X, Y) :- sym(X, Y), t(Y, X).\nt(X, Y) :- base(X, Y).\n",
            &mut interner,
        )
        .unwrap();
        let sym = interner.get("t").unwrap();
        let def = RecursiveDef::extract(&program, sym, &interner).unwrap();
        assert!(analyze_with_options(&def, &mut interner, &opts).is_none());
    }

    #[test]
    fn subsumption_matches_instances_not_generalizations() {
        let mut i = Interner::new();
        let p = parse_program(
            "t(X, Y) :- e(X, Y).\nt(a, Y) :- e(a, Y), f(Y).\nt(X, X) :- e(X, X), g(X).\n",
            &mut i,
        )
        .unwrap();
        // General rule subsumes both specialized ones...
        assert!(subsumes(&p.rules[0], &p.rules[1]));
        assert!(subsumes(&p.rules[0], &p.rules[2]));
        // ...but not vice versa.
        assert!(!subsumes(&p.rules[1], &p.rules[0]));
        assert!(!subsumes(&p.rules[2], &p.rules[0]));
    }

    #[test]
    fn subsumption_requires_body_containment() {
        let mut i = Interner::new();
        let p = parse_program("t(X, Y) :- e(X, Y), f(Y).\nt(X, Y) :- e(X, Y).\n", &mut i).unwrap();
        assert!(!subsumes(&p.rules[0], &p.rules[1]), "larger body cannot subsume");
        assert!(subsumes(&p.rules[1], &p.rules[0]));
    }

    #[test]
    fn subsumption_backtracks_over_literal_choices() {
        // Matching e(X, W) against e(a, b) first (binding X=a, W=b) dead-ends
        // at f(W); the cover must backtrack and pick e(a, c) instead.
        let mut i = Interner::new();
        let p = parse_program("t(X) :- e(X, W), f(W).\nt(a) :- e(a, b), e(a, c), f(c).\n", &mut i)
            .unwrap();
        assert!(subsumes(&p.rules[0], &p.rules[1]));
    }

    #[test]
    fn spk_family_is_not_bounded() {
        for (k, p) in [(1, 1), (2, 2), (3, 1)] {
            let src = sepra_gen_free_spk(k, p);
            let (b, _) = analyze_src(&src, "t");
            assert!(b.is_none(), "S_p^k must not be marked bounded:\n{src}");
        }
    }

    /// Local copy of the `S_p^k` shape (the gen crate depends on core, so
    /// core tests cannot depend back on gen).
    fn sepra_gen_free_spk(k: usize, p: usize) -> String {
        use std::fmt::Write as _;
        let head_vars: Vec<String> = (1..=k).map(|i| format!("X{i}")).collect();
        let head = head_vars.join(", ");
        let tail = if k > 1 { format!(", {}", head_vars[1..].join(", ")) } else { String::new() };
        let mut out = String::new();
        for i in 1..=p {
            let _ = writeln!(out, "t({head}) :- a{i}(X1, W), t(W{tail}).");
        }
        let _ = writeln!(out, "t({head}) :- t0({head}).");
        out
    }
}
