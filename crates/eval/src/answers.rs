//! Query answer extraction.

use sepra_ast::{Query, Term};
use sepra_storage::{Database, Relation, Value};

use crate::error::EvalError;
use crate::seminaive::Derived;

/// Extracts the answers to `query` from an evaluated database: the full
/// tuples of the query predicate matching the query's constants (and its
/// repeated-variable equalities).
///
/// Answers are returned as complete tuples of the query predicate so results
/// from different algorithms can be compared directly.
pub fn query_answers(
    query: &Query,
    db: &Database,
    derived: Option<&Derived>,
) -> Result<Relation, EvalError> {
    let pred = query.atom.pred;
    let arity = query.atom.arity();
    let source: Option<&Relation> =
        derived.and_then(|d| d.relation(pred)).or_else(|| db.relation(pred));
    let Some(source) = source else {
        return Ok(Relation::new(arity));
    };
    filter_by_query(query, source)
}

/// Filters a relation of full query-predicate tuples down to those matching
/// the query's constants and repeated-variable equalities.
pub fn filter_by_query(query: &Query, source: &Relation) -> Result<Relation, EvalError> {
    let arity = query.atom.arity();
    let mut out = Relation::new(arity);
    if source.arity() != arity {
        return Err(EvalError::Planning(format!(
            "query arity {} does not match relation arity {}",
            arity,
            source.arity()
        )));
    }
    // Constant filters and repeated-variable groups.
    let mut const_filters: Vec<(usize, Value)> = Vec::new();
    let mut var_groups: Vec<Vec<usize>> = Vec::new();
    for (i, term) in query.atom.terms.iter().enumerate() {
        match term {
            Term::Const(c) => const_filters.push((i, Value::from_const(*c)?)),
            Term::Var(v) => {
                let positions = query.atom.positions_of(*v);
                if positions[0] == i && positions.len() > 1 {
                    var_groups.push(positions);
                }
            }
        }
    }
    if const_filters.is_empty() && var_groups.is_empty() {
        // Nothing to filter: an all-free query over a fixpoint is the
        // fixpoint, copied in bulk (columns, cached hashes, probe table)
        // rather than probed in row by row.
        out.union_in_place(source);
        return Ok(out);
    }
    'tuples: for t in source.iter() {
        for &(i, v) in &const_filters {
            if t[i] != v {
                continue 'tuples;
            }
        }
        for group in &var_groups {
            let first = t[group[0]];
            if group[1..].iter().any(|&i| t[i] != first) {
                continue 'tuples;
            }
        }
        out.insert_from(t);
    }
    Ok(out)
}

/// Projects an answer relation (full query-predicate tuples) onto the
/// query's free positions, in order — the "values for the variables" the
/// paper's algorithms return.
pub fn project_free(query: &Query, answers: &Relation) -> Relation {
    let free = query.free_positions();
    let mut out = Relation::new(free.len());
    for t in answers.iter() {
        out.insert(t.project(&free));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seminaive::seminaive;
    use sepra_ast::{parse_program, parse_query};

    #[test]
    fn filters_constants() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(a, c). e(b, c).").unwrap();
        let program =
            parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n", db.interner_mut())
                .unwrap();
        let derived = seminaive(&program, &db).unwrap();
        let q = parse_query("t(a, Y)?", db.interner_mut()).unwrap();
        let ans = query_answers(&q, &db, Some(&derived)).unwrap();
        assert_eq!(ans.len(), 2); // (a,b), (a,c)
        let free = project_free(&q, &ans);
        assert_eq!(free.len(), 2);
        assert_eq!(free.arity(), 1);
    }

    #[test]
    fn repeated_query_variables_enforce_equality() {
        let mut db = Database::new();
        db.load_fact_text("e(a, a). e(a, b). e(b, b).").unwrap();
        let q = parse_query("e(X, X)?", db.interner_mut()).unwrap();
        let ans = query_answers(&q, &db, None).unwrap();
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn missing_predicate_gives_empty_answers() {
        let mut db = Database::new();
        let q = parse_query("ghost(X)?", db.interner_mut()).unwrap();
        let ans = query_answers(&q, &db, None).unwrap();
        assert!(ans.is_empty());
    }

    #[test]
    fn all_free_query_returns_everything() {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c).").unwrap();
        let q = parse_query("e(X, Y)?", db.interner_mut()).unwrap();
        let ans = query_answers(&q, &db, None).unwrap();
        assert_eq!(ans.len(), 2);
    }
}
