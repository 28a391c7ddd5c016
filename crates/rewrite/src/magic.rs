//! The Generalized Magic Sets rewrite \[BMSU86, BR87\].
//!
//! Given an adorned program, every adorned rule
//! `p@α(t̄) :- L_1, ..., L_m` becomes
//!
//! ```text
//! p@α(t̄) :- magic@p@α(t̄|bound), L_1, ..., L_m.
//! ```
//!
//! and every adorned IDB body occurrence `q@β` contributes a magic rule
//!
//! ```text
//! magic@q@β(args|bound) :- magic@p@α(t̄|bound), L_1, ..., L_{i-1}.
//! ```
//!
//! seeded with the fact `magic@q0@α0(c̄)` holding the query constants. The
//! rewritten program is evaluated semi-naively; the sizes of the `magic`
//! and rewritten `t` relations are the quantities Lemma 4.2 bounds from
//! below.

use sepra_ast::{Atom, Interner, Literal, Program, Query, Rule, Sym, Term};
use sepra_eval::{query_answers, seminaive_with_options, Derived, EvalError, EvalOptions};
use sepra_storage::{Database, EvalStats, Relation};

use crate::adorn::{adorn_program, adorned_name, AdornedProgram, Adornment};

/// The result of a Magic Sets evaluation.
#[derive(Debug)]
pub struct MagicOutcome {
    /// Answers as full tuples of the (original) query predicate.
    pub answers: Relation,
    /// Peak sizes of every relation the rewritten program materialized
    /// (`magic@...` and `p@...` relations), plus counters.
    pub stats: EvalStats,
    /// The rewritten program, for inspection.
    pub rewritten: Program,
    /// All derived relations, for inspection.
    pub derived: Derived,
    /// The working database (a private copy of the caller's), whose
    /// interner resolves the generated `magic@...` / `p@ad` names.
    pub db: Database,
}

/// The preprocessing every magic rewrite starts from, on a private copy
/// of `db` so nothing leaks into the caller's EDB: program facts are
/// hoisted into the copy, and an IDB predicate that also has EDB facts is
/// split — its facts move to `pred@base` behind a fresh exit rule
/// `pred(vars) :- pred@base(vars)`. Returns the copy, the fact-free
/// program, and its IDB predicates.
pub(crate) fn split_facts(
    program: &Program,
    db: &Database,
) -> Result<(Database, Program, Vec<Sym>), EvalError> {
    let mut db = db.clone();
    let mut rules: Vec<Rule> = Vec::new();
    let mut idb: Vec<Sym> = Vec::new();
    for rule in &program.rules {
        if rule.is_fact() {
            db.insert_atom(&rule.head)
                .map_err(|e| EvalError::Unsupported(format!("bad program fact: {e}")))?;
        } else {
            if !idb.contains(&rule.head.pred) {
                idb.push(rule.head.pred);
            }
            rules.push(rule.clone());
        }
    }
    for &pred in &idb {
        let Some(facts) = db.relation(pred).filter(|r| !r.is_empty()).cloned() else { continue };
        let arity = facts.arity();
        let interner = db.interner_mut();
        let base_name = format!("{}@base", interner.resolve(pred));
        let base = interner.intern(&base_name);
        let vars: Vec<Term> =
            (0..arity).map(|i| Term::Var(interner.intern(&format!("B{i}")))).collect();
        db.relation_mut(base, arity).union_in_place(&facts);
        *db.relation_mut(pred, arity) = Relation::new(arity);
        rules.push(Rule::new(
            Atom::new(pred, vars.clone()),
            vec![Literal::Atom(Atom::new(base, vars))],
        ));
    }
    Ok((db, Program::new(rules), idb))
}

/// Maps an adorned atom like `buys@bf(..)` back to `(buys, [true, false])`.
/// Validated strictly (the suffix must be all b/f of the right length) so
/// helper predicates like `t@base` are never mistaken for adorned ones.
pub(crate) fn parse_adorned(atom: &Atom, interner: &Interner) -> Option<(Sym, Adornment)> {
    let name = interner.resolve(atom.pred);
    let (base, suffix) = name.rsplit_once('@')?;
    if suffix.len() != atom.arity() || !suffix.chars().all(|c| c == 'b' || c == 'f') {
        return None;
    }
    let orig = interner.get(base)?;
    Some((orig, suffix.chars().map(|c| c == 'b').collect()))
}

/// The magic atom demanding `atom` under `adornment`: predicate
/// `magic@pred@ad` (e.g. `magic@buys@bf`) over the atom's bound arguments.
pub(crate) fn magic_atom(
    atom: &Atom,
    pred: Sym,
    adornment: &Adornment,
    interner: &mut Interner,
) -> Atom {
    let base = adorned_name(pred, adornment, interner);
    let name = format!("magic@{}", interner.resolve(base));
    let bound_terms: Vec<Term> =
        atom.terms.iter().zip(adornment).filter_map(|(t, &b)| b.then_some(*t)).collect();
    Atom::new(interner.intern(&name), bound_terms)
}

/// Seeds `rules` with the magic fact holding the query's constants and
/// evaluates the rewritten program semi-naively over `db`.
pub(crate) fn evaluate_rewritten(
    mut rules: Vec<Rule>,
    query: &Query,
    adorned: &AdornedProgram,
    mut db: Database,
    eval: &EvalOptions,
) -> Result<MagicOutcome, EvalError> {
    let interner = db.interner_mut();
    let seed = magic_atom(&adorned.query.atom, query.atom.pred, &adorned.query_adornment, interner);
    let constants = query.atom.terms.iter().filter(|t| t.is_const()).cloned().collect();
    rules.push(Rule::fact(Atom::new(seed.pred, constants)));

    let rewritten = Program::new(rules);
    let derived = seminaive_with_options(&rewritten, &db, eval)?;
    let answers = query_answers(&adorned.query, &db, Some(&derived))?;
    let mut stats = derived.stats.clone();
    stats.record_size("ans", answers.len());
    Ok(MagicOutcome { answers, stats, rewritten, derived, db })
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
    if !query.has_selection() {
        return Err(EvalError::Unsupported(
            "magic sets needs at least one bound argument; evaluate bottom-up instead".into(),
        ));
    }
    let (mut db, program, idb) = split_facts(program, db)?;
    let adorned = adorn_program(&program, query, db.interner_mut(), &|p| idb.contains(&p));

    let mut out_rules: Vec<Rule> = Vec::new();
    for rule in &adorned.program.rules {
        let (head_orig, head_ad) = parse_adorned(&rule.head, db.interner())
            .ok_or_else(|| EvalError::Planning("unmappable adorned head".into()))?;
        let magic_head = magic_atom(&rule.head, head_orig, &head_ad, db.interner_mut());
        // Guarded rule.
        let mut guarded_body = vec![Literal::Atom(magic_head.clone())];
        guarded_body.extend(rule.body.iter().cloned());
        out_rules.push(Rule::new(rule.head.clone(), guarded_body));
        // Magic rules for each adorned IDB body occurrence.
        let mut prefix: Vec<Literal> = vec![Literal::Atom(magic_head)];
        for lit in &rule.body {
            if let Literal::Atom(atom) = lit {
                if let Some((orig, ad)) = parse_adorned(atom, db.interner()) {
                    if idb.contains(&orig) {
                        let demand = magic_atom(atom, orig, &ad, db.interner_mut());
                        out_rules.push(Rule::new(demand, prefix.clone()));
                    }
                }
            }
            prefix.push(lit.clone());
        }
    }
    evaluate_rewritten(out_rules, query, &adorned, db, eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_ast::{parse_program, parse_query};
    use sepra_eval::seminaive;

    fn run(program_src: &str, facts: &str, query_src: &str) -> (MagicOutcome, Database) {
        let mut db = Database::new();
        db.load_fact_text(facts).unwrap();
        let program = parse_program(program_src, db.interner_mut()).unwrap();
        let query = parse_query(query_src, db.interner_mut()).unwrap();
        let out = magic_evaluate(&program, &query, &db).unwrap();
        (out, db)
    }

    fn expected(program_src: &str, facts: &str, query_src: &str) -> Relation {
        let mut db = Database::new();
        db.load_fact_text(facts).unwrap();
        let program = parse_program(program_src, db.interner_mut()).unwrap();
        let query = parse_query(query_src, db.interner_mut()).unwrap();
        let derived = seminaive(&program, &db).unwrap();

        query_answers(&query, &db, Some(&derived)).unwrap()
    }

    const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n";
    const EDGES: &str = "e(a, b). e(b, c). e(c, d). e(x, c). e(d, a).";

    /// Answers must match semi-naive modulo the adorned-predicate renaming:
    /// compare value tuples.
    fn assert_same_tuples(a: &Relation, b: &Relation) {
        assert_eq!(a.len(), b.len(), "sizes differ: {} vs {}", a.len(), b.len());
        for t in a.iter() {
            assert!(b.contains_row(t), "missing tuple");
        }
    }

    #[test]
    fn magic_matches_seminaive_on_closure() {
        let (out, _) = run(TC, EDGES, "t(a, Y)?");
        let exp = expected(TC, EDGES, "t(a, Y)?");
        assert_same_tuples(&out.answers, &exp);
        assert!(!out.answers.is_empty());
    }

    #[test]
    fn magic_restricts_exploration() {
        // From `a`, the node `x` is unreachable; magic must never touch it.
        let (out, _) = run(TC, EDGES, "t(a, Y)?");
        let magic_pred = out.db.interner().get("magic@t@bf").unwrap();
        let magic_rel = out.derived.relation(magic_pred).unwrap();
        let x = out.db.interner().get("x").unwrap();
        for t in magic_rel.iter() {
            assert_ne!(t[0].as_sym(), Some(x), "magic set explored unreachable node");
        }
    }

    #[test]
    fn magic_on_example_1_2_matches() {
        let p = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
                 buys(X, Y) :- buys(X, W), cheaper(Y, W).\n\
                 buys(X, Y) :- perfectFor(X, Y).\n";
        let f = "friend(tom, sue). friend(sue, joe).\n\
                 perfectFor(joe, widget). cheaper(bargain, widget).";
        let (out, _) = run(p, f, "buys(tom, Y)?");
        let exp = expected(p, f, "buys(tom, Y)?");
        assert_same_tuples(&out.answers, &exp);
        assert_eq!(out.answers.len(), 2);
    }

    #[test]
    fn magic_with_program_facts() {
        let p = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\ne(extra, a).\n";
        let (out, _) = run(p, EDGES, "t(extra, Y)?");
        let exp = expected(p, EDGES, "t(extra, Y)?");
        assert_same_tuples(&out.answers, &exp);
    }

    #[test]
    fn magic_with_idb_facts_uses_base_split() {
        // `t` has both rules and EDB facts.
        let p = "t(X, Y) :- e(X, W), t(W, Y).\n";
        let f = "e(a, b). t(b, goal).";
        let (out, _) = run(p, f, "t(a, Y)?");
        assert_eq!(out.answers.len(), 1);
    }

    #[test]
    fn magic_second_column_selection() {
        let (out, _) = run(TC, EDGES, "t(X, d)?");
        let exp = expected(TC, EDGES, "t(X, d)?");
        assert_same_tuples(&out.answers, &exp);
    }

    #[test]
    fn unbound_query_is_rejected() {
        let mut db = Database::new();
        db.load_fact_text(EDGES).unwrap();
        let program = parse_program(TC, db.interner_mut()).unwrap();
        let query = parse_query("t(X, Y)?", db.interner_mut()).unwrap();
        assert!(magic_evaluate(&program, &query, &db).is_err());
    }

    #[test]
    fn stats_track_magic_relations() {
        let (out, _) = run(TC, EDGES, "t(a, Y)?");
        assert!(out.stats.relation_sizes.keys().any(|k| k.starts_with("magic@")));
    }
}
