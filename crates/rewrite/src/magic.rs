//! The demand rewrite: Generalized Magic Sets \[BMSU86, BR87\] in three
//! configurations ([`Magic`]), and the evaluation tail every rewrite in
//! this crate shares.
//!
//! Each adorned rule `p@α(t̄) :- L_1, ..., L_m` is rewritten by one loop
//! over its body. A running *prefix* stands for `magic@p@α(t̄|bound) ∧ L_1
//! ∧ ... ∧ L_{i-1}`; every adorned IDB literal `L_i = q@β(ā)` contributes
//! the magic rule `magic@q@β(ā|bound) :- prefix`, and the prefix with the
//! whole body guards the rule itself:
//!
//! ```text
//! p@α(t̄)         :- magic@p@α(t̄|bound), L_1, ..., L_m.
//! magic@q@β(ā)   :- magic@p@α(t̄|bound), L_1, ..., L_{i-1}.
//! ```
//!
//! Basic magic keeps the prefix as those literals, so each magic rule
//! re-evaluates its prefix. Supplementary magic materializes it once per
//! step as the latest `sup@r@i` atom of rule `r`, keeping exactly the
//! variables bound so far that later literals or the head still need:
//!
//! ```text
//! sup@r@0(v̄_0)  :- magic@p@α(t̄|bound).
//! sup@r@i(v̄_i)  :- sup@r@{i-1}(v̄_{i-1}), L_i.          (1 ≤ i < m)
//! magic@q@β(ā)   :- sup@r@{i-1}(v̄_{i-1}).                (L_i an IDB atom)
//! p@α(t̄)         :- sup@r@{m-1}(v̄_{m-1}), L_m.
//! ```
//!
//! Subsumptive magic is the supplementary rewrite over subsumptive
//! adornment (see the `adorn` module). The program is seeded with the
//! fact `magic@q0@α0(c̄)` holding the query constants and evaluated
//! semi-naively; the sizes of the `magic` and rewritten `t` relations are
//! the quantities Lemma 4.2 bounds from below. The three configurations
//! answer alike; the ablation (E10) measures the work supplementary
//! sharing saves.

use std::collections::BTreeSet;
use std::sync::Arc;

use sepra_ast::{Atom, Interner, Literal, Program, Query, Rule, Sym, Term};
use sepra_eval::{query_answers, seminaive_with_options, Derived, EvalError, EvalOptions};
use sepra_storage::{Database, EvalStats, Relation};

use crate::adorn::{adorn, adorned_name, Adorned, AdornedRule};

/// A configuration of the demand rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Magic {
    /// Generalized Magic Sets: every magic rule repeats its body prefix.
    Basic,
    /// Magic Sets with supplementary predicates: each body prefix is
    /// materialized once, as a `sup@r@i` relation.
    Supplementary,
    /// Supplementary magic over subsumptive adornment: a demand that binds
    /// a superset of an already-generated adornment's positions reuses
    /// that more general adorned copy instead of spawning its own.
    Subsumptive,
}

/// The result of a rewrite-and-evaluate run: Magic Sets in any
/// configuration, or bounded elimination.
#[derive(Debug)]
pub struct MagicOutcome {
    /// Answers as full tuples of the (original) query predicate.
    pub answers: Relation,
    /// Peak sizes of every relation the rewritten program materialized
    /// (`magic@...`, `sup@...` and `p@...` relations), plus counters.
    pub stats: EvalStats,
    /// The rewritten program, for inspection.
    pub rewritten: Program,
    /// All derived relations, for inspection.
    pub derived: Derived,
    /// The working database: a [`Database::fork`] of the caller's, whose
    /// interner resolves the generated names on top of the caller's
    /// symbols. Every symbol in `answers` is also the caller's.
    pub db: Database,
}

/// A fork of `db` with `program`'s facts hoisted into it, so nothing
/// leaks into the caller's EDB and the generated names into its interner.
pub(crate) fn fork_with_facts(program: &Program, db: &Database) -> Result<Database, EvalError> {
    let mut db = db.fork();
    for fact in program.facts() {
        db.insert_atom(&fact.head)
            .map_err(|e| EvalError::Unsupported(format!("bad program fact: {e}")))?;
    }
    Ok(db)
}

/// The tail every rewrite shares: evaluates `rewritten` semi-naively over
/// `db` (the working fork) and reads `query`'s answers.
pub(crate) fn evaluate(
    rewritten: Program,
    query: &Query,
    db: Database,
    eval: &EvalOptions,
) -> Result<MagicOutcome, EvalError> {
    let derived = seminaive_with_options(&rewritten, &db, eval)?;
    let answers = query_answers(query, &db, Some(&derived))?;
    let mut stats = derived.stats.clone();
    stats.record_size("ans", answers.len());
    Ok(MagicOutcome { answers, stats, rewritten, derived, db })
}

/// The working fork the demand rewrite starts from, with an IDB predicate
/// that also has EDB facts split: its relation moves, by handle, to
/// `pred@base` behind a fresh exit rule `pred(vars) :- pred@base(vars)`.
/// Returns the fork, the fact-free program, and its IDB predicates.
fn split_facts(
    program: &Program,
    db: &Database,
) -> Result<(Database, Program, Vec<Sym>), EvalError> {
    let mut db = fork_with_facts(program, db)?;
    let mut rules: Vec<Rule> = program.proper_rules().cloned().collect();
    let mut idb: Vec<Sym> = Vec::new();
    for rule in &rules {
        if !idb.contains(&rule.head.pred) {
            idb.push(rule.head.pred);
        }
    }
    for &pred in &idb {
        let Some(facts) = db.shared_relation(pred).filter(|r| !r.is_empty()).cloned() else {
            continue;
        };
        let arity = facts.arity();
        let interner = db.interner_mut();
        let base_name = format!("{}@base", interner.resolve(pred));
        let base = interner.intern(&base_name);
        let vars: Vec<Term> =
            (0..arity).map(|i| Term::Var(interner.intern(&format!("B{i}")))).collect();
        db.bind_relation(pred, Arc::new(Relation::new(arity)));
        db.bind_relation(base, facts);
        rules.push(Rule::new(
            Atom::new(pred, vars.clone()),
            vec![Literal::Atom(Atom::new(base, vars))],
        ));
    }
    Ok((db, Program::new(rules), idb))
}

/// The magic atom demanding `atom` as predicate `p` under adornment `α`:
/// predicate `magic@p@α` (e.g. `magic@buys@bf`) over the atom's bound
/// arguments.
fn magic_atom(atom: &Atom, (pred, adornment): &Adorned, interner: &mut Interner) -> Atom {
    let base = adorned_name(*pred, adornment, interner);
    let name = format!("magic@{}", interner.resolve(base));
    let bound: Vec<Term> =
        atom.terms.iter().zip(adornment).filter_map(|(t, &b)| b.then_some(*t)).collect();
    Atom::new(interner.intern(&name), bound)
}

/// Replaces `prefix` by the atom `sup@r@i`, over the variables it binds
/// that the head or literals `i..` of `rule` still need, and appends the
/// rule materializing it.
fn materialize(
    (r, i): (usize, usize),
    rule: &Rule,
    prefix: &mut Vec<Literal>,
    interner: &mut Interner,
    out: &mut Vec<Rule>,
) {
    let needed: BTreeSet<Sym> =
        rule.head.vars().into_iter().chain(rule.body[i..].iter().flat_map(Literal::vars)).collect();
    let kept: BTreeSet<Sym> =
        prefix.iter().flat_map(Literal::vars).filter(|v| needed.contains(v)).collect();
    let sup = Atom::new(
        interner.intern(&format!("sup@{r}@{i}")),
        kept.into_iter().map(Term::Var).collect(),
    );
    let body = std::mem::replace(prefix, vec![Literal::Atom(sup.clone())]);
    out.push(Rule::new(sup, body));
}

/// Rewrites adorned rule number `r` into `out`: its magic rules and the
/// guarded rule, from one pass over its body.
fn rewrite_rule(
    r: usize,
    adorned: &AdornedRule,
    supplementary: bool,
    interner: &mut Interner,
    out: &mut Vec<Rule>,
) {
    let AdornedRule { rule, head, demands } = adorned;
    let first = out.len();
    let mut prefix = vec![Literal::Atom(magic_atom(&rule.head, head, interner))];
    if supplementary {
        materialize((r, 0), rule, &mut prefix, interner, out);
    }
    for (i, (lit, demand)) in rule.body.iter().zip(demands).enumerate() {
        if let (Literal::Atom(atom), Some(demand)) = (lit, demand) {
            out.push(Rule::new(magic_atom(atom, demand, interner), prefix.clone()));
        }
        prefix.push(lit.clone());
        if supplementary && i + 1 < rule.body.len() {
            materialize((r, i + 1), rule, &mut prefix, interner, out);
        }
    }
    // The basic rewrite lists the guarded rule before its magic rules.
    let guarded = Rule::new(rule.head.clone(), prefix);
    if supplementary {
        out.push(guarded);
    } else {
        out.insert(first, guarded);
    }
}

/// Rewrites and evaluates `query` over `program` and `db` with Generalized
/// Magic Sets.
///
/// ```
/// use sepra_storage::Database;
/// use sepra_rewrite::magic_evaluate;
///
/// let mut db = Database::new();
/// db.load_fact_text("e(a, b). e(b, c). e(x, y).").unwrap();
/// let program = sepra_ast::parse_program(
///     "t(X, Y) :- e(X, Y).\n t(X, Y) :- e(X, W), t(W, Y).\n",
///     db.interner_mut(),
/// )
/// .unwrap();
/// let query = sepra_ast::parse_query("t(a, Y)?", db.interner_mut()).unwrap();
/// let out = magic_evaluate(&program, &query, &db).unwrap();
/// assert_eq!(out.answers.len(), 2); // b and c; x/y never explored
/// ```
pub fn magic_evaluate(
    program: &Program,
    query: &Query,
    db: &Database,
) -> Result<MagicOutcome, EvalError> {
    magic_evaluate_with_options(program, query, db, &EvalOptions::default())
}

/// [`magic_evaluate`] with explicit [`EvalOptions`] for the semi-naive
/// engine evaluating the rewritten program (notably the thread count).
pub fn magic_evaluate_with_options(
    program: &Program,
    query: &Query,
    db: &Database,
    eval: &EvalOptions,
) -> Result<MagicOutcome, EvalError> {
    magic_evaluate_as(program, query, db, Magic::Basic, eval)
}

/// Rewrites and evaluates `query` with supplementary magic sets; the
/// `rewritten` program contains the `sup@...` predicates.
pub fn magic_evaluate_supplementary(
    program: &Program,
    query: &Query,
    db: &Database,
) -> Result<MagicOutcome, EvalError> {
    magic_evaluate_supplementary_with_options(program, query, db, &EvalOptions::default())
}

/// [`magic_evaluate_supplementary`] with explicit [`EvalOptions`].
pub fn magic_evaluate_supplementary_with_options(
    program: &Program,
    query: &Query,
    db: &Database,
    eval: &EvalOptions,
) -> Result<MagicOutcome, EvalError> {
    magic_evaluate_as(program, query, db, Magic::Supplementary, eval)
}

/// Rewrites `query` over `program` in configuration `magic` and evaluates
/// the rewritten program semi-naively over a fork of `db`
/// ([`Database::fork`]), so the generated names never enter `db`'s
/// interner. A query predicate with no rules is answered from the EDB.
pub fn magic_evaluate_as(
    program: &Program,
    query: &Query,
    db: &Database,
    magic: Magic,
    eval: &EvalOptions,
) -> Result<MagicOutcome, EvalError> {
    if !query.has_selection() {
        let hint = if magic == Magic::Basic { "; evaluate bottom-up instead" } else { "" };
        return Err(EvalError::Unsupported(format!(
            "magic sets needs at least one bound argument{hint}"
        )));
    }
    let (mut db, program, idb) = split_facts(program, db)?;
    let interner = db.interner_mut();
    let (adorned, seed) = adorn(&program, query, interner, &idb, magic == Magic::Subsumptive);
    let mut rules: Vec<Rule> = Vec::new();
    for (r, rule) in adorned.iter().enumerate() {
        rewrite_rule(r, rule, magic != Magic::Basic, interner, &mut rules);
    }
    // Answers are read from the adorned query predicate, or from the EDB
    // when the query made no demand.
    let mut answered = query.clone();
    if let Some(seed) = &seed {
        rules.push(Rule::fact(magic_atom(&query.atom, seed, interner)));
        answered.atom.pred = adorned_name(seed.0, &seed.1, interner);
    }
    evaluate(Program::new(rules), &answered, db, eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_ast::{parse_program, parse_query};
    use sepra_eval::seminaive;

    const CONFIGS: [Magic; 3] = [Magic::Basic, Magic::Supplementary, Magic::Subsumptive];

    fn load(program_src: &str, facts: &str, query_src: &str) -> (Program, Query, Database) {
        let mut db = Database::new();
        db.load_fact_text(facts).unwrap();
        let program = parse_program(program_src, db.interner_mut()).unwrap();
        let query = parse_query(query_src, db.interner_mut()).unwrap();
        (program, query, db)
    }

    fn run(program_src: &str, facts: &str, query_src: &str, magic: Magic) -> MagicOutcome {
        let (program, query, db) = load(program_src, facts, query_src);
        magic_evaluate_as(&program, &query, &db, magic, &EvalOptions::default()).unwrap()
    }

    fn expected(program_src: &str, facts: &str, query_src: &str) -> Relation {
        let (program, query, db) = load(program_src, facts, query_src);
        let derived = seminaive(&program, &db).unwrap();
        query_answers(&query, &db, Some(&derived)).unwrap()
    }

    /// Answers must match semi-naive modulo the adorned-predicate renaming:
    /// compare value tuples.
    fn assert_same_tuples(a: &Relation, b: &Relation) {
        assert_eq!(a.len(), b.len(), "sizes differ: {} vs {}", a.len(), b.len());
        for t in a.iter() {
            assert!(b.contains_row(t), "missing tuple");
        }
    }

    /// Every configuration answers what semi-naive answers.
    fn check(program_src: &str, facts: &str, query_src: &str) -> usize {
        let exp = expected(program_src, facts, query_src);
        for magic in CONFIGS {
            assert_same_tuples(&run(program_src, facts, query_src, magic).answers, &exp);
        }
        exp.len()
    }

    const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n";
    const EDGES: &str = "e(a, b). e(b, c). e(c, d). e(x, c). e(d, a).";
    const EX_1_2: &str = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
                          buys(X, Y) :- buys(X, W), cheaper(Y, W).\n\
                          buys(X, Y) :- perfectFor(X, Y).\n";

    #[test]
    fn configurations_match_seminaive() {
        assert!(check(TC, EDGES, "t(a, Y)?") > 0);
        check(TC, EDGES, "t(X, d)?");
        let f = "friend(tom, sue). friend(sue, joe).\n\
                 perfectFor(joe, widget). cheaper(bargain, widget). cheaper(steal, bargain).";
        assert_eq!(check(EX_1_2, f, "buys(tom, Y)?"), 3);
        check(
            "reach(X, Y) :- hop(X, A), hop(A, B), hop(B, W), reach(W, Y).\n\
             reach(X, Y) :- goal(X, Y).\n",
            "hop(n0, n1). hop(n1, n2). hop(n2, n3). hop(n3, n4). hop(n4, n5).\n\
             hop(n5, n6). goal(n3, g1). goal(n6, g2). goal(n0, g0).",
            "reach(n0, Y)?",
        );
        check(
            "sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n",
            "up(a, p). up(b, q). flat(p, q). down(q, b2). down(p, a2). up(a2, p).",
            "sg(a, Y)?",
        );
    }

    #[test]
    fn magic_restricts_exploration() {
        // From `a`, the node `x` is unreachable; magic must never touch it.
        let out = run(TC, EDGES, "t(a, Y)?", Magic::Basic);
        let magic_pred = out.db.interner().get("magic@t@bf").unwrap();
        let magic_rel = out.derived.relation(magic_pred).unwrap();
        let x = out.db.interner().get("x").unwrap();
        for t in magic_rel.iter() {
            assert_ne!(t[0].as_sym(), Some(x), "magic set explored unreachable node");
        }
        assert!(out.stats.relation_sizes.keys().any(|k| k.starts_with("magic@")));
    }

    #[test]
    fn program_facts_are_hoisted() {
        let p = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\ne(extra, a).\n";
        check(p, EDGES, "t(extra, Y)?");
    }

    #[test]
    fn idb_facts_use_base_split() {
        // `t` has both rules and EDB facts.
        let p = "t(X, Y) :- e(X, W), t(W, Y).\n";
        assert_eq!(check(p, "e(a, b). t(b, goal).", "t(a, Y)?"), 1);
    }

    #[test]
    fn unbound_query_is_rejected() {
        let (program, query, db) = load(TC, EDGES, "t(X, Y)?");
        for magic in CONFIGS {
            let err = magic_evaluate_as(&program, &query, &db, magic, &EvalOptions::default());
            assert!(matches!(err, Err(EvalError::Unsupported(_))), "{magic:?}");
        }
    }

    /// Regression: the adornment renamed a rule-less query predicate to
    /// `friend@bf`, which no rule derives, so every configuration answered
    /// nothing.
    #[test]
    fn a_query_predicate_without_rules_is_answered_from_the_edb() {
        let f = "friend(tom, sue). friend(sue, joe). perfectFor(joe, widget).";
        assert_eq!(check(EX_1_2, f, "friend(tom, Y)?"), 1);
        assert_eq!(check(EX_1_2, f, "perfectFor(joe, Y)?"), 1);
        // A predicate only the program's facts define is EDB too.
        assert_eq!(check("t(X, Y) :- e(X, Y).\ne(p, q).\n", "", "e(p, Y)?"), 1);
        for magic in CONFIGS {
            let out = run(EX_1_2, f, "friend(tom, Y)?", magic);
            assert!(out.rewritten.rules.is_empty(), "{magic:?}: nothing to rewrite");
        }
    }

    #[test]
    fn supplementary_saves_prefix_work_on_long_bodies() {
        // With a 3-atom prefix before the recursive call, basic magic
        // evaluates the prefix in both the magic rule and the guarded
        // rule; supplementary shares it. Both sides run with source-order
        // plans: the measured object is the rewrite, and cost-based
        // reordering narrows the gap enough to drown the comparison in
        // per-rule overhead.
        let mut facts = String::new();
        for i in 0..120 {
            facts.push_str(&format!("hop(n{i}, n{}). ", i + 1));
        }
        facts.push_str("goal(n120, finish). goal(n60, half).");
        let (program, query, db) = load(
            "reach(X, Y) :- hop(X, A), hop(A, B), hop(B, W), reach(W, Y).\n\
             reach(X, Y) :- goal(X, Y).\n",
            &facts,
            "reach(n0, Y)?",
        );
        let eval =
            EvalOptions { plan_mode: sepra_eval::PlanMode::SourceOrder, ..EvalOptions::default() };
        let basic = magic_evaluate_with_options(&program, &query, &db, &eval).unwrap();
        let sup = magic_evaluate_supplementary_with_options(&program, &query, &db, &eval).unwrap();
        assert_same_tuples(&basic.answers, &sup.answers);
        assert!(
            sup.stats.rows_scanned < basic.stats.rows_scanned,
            "supplementary should scan fewer rows: {} vs {}",
            sup.stats.rows_scanned,
            basic.stats.rows_scanned
        );
    }

    /// Two demand sites on the same `S_1^2` recursion at different
    /// binding strength: `t@bf` from the query path, `t@bb` from the
    /// pinned path. Subsumptive magic answers the `bb` demand from the
    /// `bf` copy.
    #[test]
    fn subsumptive_prunes_the_subsumed_adorned_copy() {
        let mut facts = String::new();
        for i in 0..40 {
            facts.push_str(&format!("a1(n{i}, n{}). ", i + 1));
        }
        facts.push_str("t0(n40, fin). t0(n20, mid). pin(n0, n5, fin). pin(n0, n9, mid).");
        let program = "q(X, Y) :- t(X, Y).\n\
             q(X, Y) :- pin(X, Z, Y), t(Z, Y).\n\
             t(X, Y) :- a1(X, W), t(W, Y).\n\
             t(X, Y) :- t0(X, Y).\n";
        assert!(check(program, &facts, "q(n0, Y)?") > 0);
        let sup = run(program, &facts, "q(n0, Y)?", Magic::Supplementary);
        let subsumptive = run(program, &facts, "q(n0, Y)?", Magic::Subsumptive);
        let has_bb = |out: &MagicOutcome| {
            out.rewritten.predicates().iter().any(|&p| out.db.interner().resolve(p) == "t@bb")
        };
        assert!(has_bb(&sup), "plain supplementary keeps the specific copy");
        assert!(!has_bb(&subsumptive), "subsumptive collapses it");
        assert!(subsumptive.rewritten.rules.len() < sup.rewritten.rules.len());
        assert!(
            subsumptive.stats.rows_scanned < sup.stats.rows_scanned,
            "one adorned fixpoint instead of two should scan fewer rows: {} vs {}",
            subsumptive.stats.rows_scanned,
            sup.stats.rows_scanned
        );
    }
}
