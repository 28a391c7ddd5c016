//! Seeded random separable programs and databases for property-based
//! cross-validation.
//!
//! The generator draws a recursion that is separable *by construction*:
//! it partitions a random subset of the columns into equivalence classes,
//! then emits 1–3 rules per class whose nonrecursive body is a connected
//! chain through that class's columns. Databases are random digraphs /
//! k-ary relations over a small constant pool, so fixpoints stay tiny and
//! cyclic data is common (exercising termination).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sepra_storage::Database;

/// A generated random scenario: program text, query text, database.
#[derive(Debug)]
pub struct RandomScenario {
    /// Program source.
    pub program: String,
    /// Query source (binds at least one argument).
    pub query: String,
    /// The database.
    pub db: Database,
    /// Arity of the recursive predicate.
    pub arity: usize,
}

/// Generates a random separable scenario from `seed`.
pub fn random_separable_scenario(seed: u64) -> RandomScenario {
    random_scenario_inner(seed, false)
}

/// Like [`random_separable_scenario`], but the base relations are
/// *acyclic* (every tuple strictly increases the constant index column by
/// column) and the query fully binds the first equivalence class — the
/// preconditions of the Counting and Henschen-Naqvi baselines.
pub fn random_acyclic_full_selection_scenario(seed: u64) -> RandomScenario {
    random_scenario_inner(seed, true)
}

/// Generates a random *general linear* scenario: like
/// [`random_separable_scenario`], but with probability ~1/2 the recursive
/// atom's arguments are randomly permuted, introducing shifting variables
/// (violating Condition 1) while keeping the program valid, safe Datalog.
/// Used to cross-validate the general algorithms beyond the separable
/// class.
pub fn random_linear_scenario(seed: u64) -> RandomScenario {
    use rand::seq::SliceRandom;
    let mut scenario = random_scenario_inner(seed, false);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    if rng.gen_bool(0.5) {
        // Permute the recursive atom's argument order in every recursive
        // rule, textually: t(A, B, C) -> t(<permuted>). The generator
        // always emits the recursive atom as the final body literal
        // `t(...).` on its own line ending.
        let mut perm: Vec<usize> = (0..scenario.arity).collect();
        perm.shuffle(&mut rng);
        let mut out = String::new();
        for line in scenario.program.lines() {
            if let Some(idx) = line.rfind(" t(") {
                let (head, tail) = line.split_at(idx + 3);
                let args_end = tail.find(')').expect("recursive atom closes");
                let args: Vec<&str> = tail[..args_end].split(", ").collect();
                if args.len() == scenario.arity {
                    let permuted: Vec<&str> = perm.iter().map(|&i| args[i]).collect();
                    out.push_str(head);
                    out.push_str(&permuted.join(", "));
                    out.push_str(&tail[args_end..]);
                    out.push('\n');
                    continue;
                }
            }
            out.push_str(line);
            out.push('\n');
        }
        scenario.program = out;
    }
    scenario
}

fn random_scenario_inner(seed: u64, acyclic: bool) -> RandomScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let arity = rng.gen_range(2..=3usize);
    // Partition columns: each column joins class 0, class 1, or persistent.
    let n_classes = rng.gen_range(1..=2usize).min(arity);
    let mut class_cols: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
    for col in 0..arity {
        let choice = rng.gen_range(0..=n_classes); // == n_classes => persistent
        if choice < n_classes {
            class_cols[choice].push(col);
        }
    }
    // Every class needs at least one column; put leftovers in class 0.
    if class_cols.iter().any(Vec::is_empty) {
        class_cols = vec![(0..arity.min(1 + arity / 2)).collect()];
    }

    let head_vars: Vec<String> = (0..arity).map(|i| format!("X{i}")).collect();
    let mut program = String::new();
    let mut base_preds: Vec<(String, usize)> = Vec::new();
    for (ci, cols) in class_cols.iter().enumerate() {
        let n_rules = rng.gen_range(1..=2usize);
        for ri in 0..n_rules {
            // Body: chain of 1..=2 base atoms carrying the class columns
            // from head vars to body vars.
            let chain_len = rng.gen_range(1..=2usize);
            let mut body = String::new();
            let mut current: Vec<String> = cols.iter().map(|&c| head_vars[c].clone()).collect();
            for step in 0..chain_len {
                let next: Vec<String> = if step + 1 == chain_len {
                    cols.iter().map(|&c| format!("W{c}")).collect()
                } else {
                    cols.iter().map(|&c| format!("V{ci}_{ri}_{step}_{c}")).collect()
                };
                let pred = format!("b{ci}_{ri}_{step}");
                base_preds.push((pred.clone(), cols.len() * 2));
                body.push_str(&format!("{pred}({}, {}), ", current.join(", "), next.join(", ")));
                current = next;
            }
            // Recursive atom: class columns replaced by body vars.
            let rec_args: Vec<String> = (0..arity)
                .map(|c| if cols.contains(&c) { format!("W{c}") } else { head_vars[c].clone() })
                .collect();
            program.push_str(&format!(
                "t({}) :- {}t({}).\n",
                head_vars.join(", "),
                body,
                rec_args.join(", ")
            ));
        }
    }
    program.push_str(&format!("t({}) :- t0({}).\n", head_vars.join(", "), head_vars.join(", ")));

    // Database: small constant pool, random tuples. In acyclic mode every
    // base tuple's second half strictly dominates its first half in the
    // constant ordering, so class descents cannot revisit a vector.
    let mut db = Database::new();
    let pool = if acyclic { rng.gen_range(5..=8usize) } else { rng.gen_range(3..=6usize) };
    let constant = |i: usize| format!("k{i}");
    for (pred, pred_arity) in &base_preds {
        let tuples = rng.gen_range(2..=8usize);
        for _ in 0..tuples {
            let names: Vec<String> = if acyclic {
                let half = pred_arity / 2;
                let mut v = Vec::with_capacity(*pred_arity);
                for _ in 0..half {
                    v.push(rng.gen_range(0..pool - 1));
                }
                for i in 0..half {
                    v.push(rng.gen_range(v[i] + 1..pool));
                }
                v.into_iter().map(constant).collect()
            } else {
                (0..*pred_arity).map(|_| constant(rng.gen_range(0..pool))).collect()
            };
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            db.insert_named(pred, &refs).expect("fact");
        }
    }
    for _ in 0..rng.gen_range(1..=6usize) {
        let names: Vec<String> = (0..arity).map(|_| constant(rng.gen_range(0..pool))).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        db.insert_named("t0", &refs).expect("fact");
    }

    // Query: in acyclic mode, fully bind the first class (the baselines'
    // precondition); otherwise bind a random nonempty subset of columns.
    let mut terms: Vec<String> = (0..arity).map(|i| format!("Q{i}")).collect();
    if acyclic {
        for &col in &class_cols[0] {
            terms[col] = constant(rng.gen_range(0..pool));
        }
    } else {
        let n_bound = rng.gen_range(1..=arity);
        for _ in 0..n_bound {
            let col = rng.gen_range(0..arity);
            terms[col] = constant(rng.gen_range(0..pool));
        }
    }
    if terms.iter().all(|t| t.starts_with('Q')) {
        terms[0] = constant(0);
    }
    let query = format!("t({})?", terms.join(", "));

    RandomScenario { program, query, db, arity }
}

/// A generated random *stratified* scenario: a program (facts inline) that
/// uses negation and/or aggregates but stratifies by construction, the
/// queries worth asking of it, and a short mutation script over its EDB.
///
/// Unlike [`RandomScenario`] there is no separate [`Database`]: the facts
/// ride in the program text and the mutation steps are fact strings, which
/// is the shape `QueryProcessor::load` / `apply_mutation` consume.
#[derive(Debug)]
pub struct StratifiedScenario {
    /// Program source, facts included.
    pub program: String,
    /// One query per derived predicate of interest.
    pub queries: Vec<String>,
    /// Mutation steps: `(inserts, retracts)`, retracts always name facts
    /// live at that point in the script.
    pub steps: Vec<(Vec<String>, Vec<String>)>,
}

/// Generates a random stratified scenario from `seed`.
///
/// The skeleton is fixed — a transitive closure `t` over random edges in
/// the bottom stratum — and the upper strata are drawn from four families:
/// set-difference negation over `t`, a `count` of reachable nodes, a
/// `min`-aggregate shortest path (direct self-recursion, the sanctioned
/// case), and a negation stacked on a derived predicate (three strata).
/// At least one family is always present; cyclic edge data is common, so
/// the aggregate fixpoints exercise termination, not just correctness.
pub fn random_stratified_scenario(seed: u64) -> StratifiedScenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57a7a);
    let pool = rng.gen_range(4..=6usize);
    let node = |i: usize| format!("n{i}");

    let mut program = String::new();
    let mut queries = Vec::new();

    // Upper-stratum families; force at least one on.
    let mut use_neg = rng.gen_bool(0.5);
    let use_count = rng.gen_bool(0.5);
    let use_min = rng.gen_bool(0.5);
    let use_stacked = rng.gen_bool(0.35);
    if !(use_neg || use_count || use_min || use_stacked) {
        use_neg = true;
    }

    // Stratum 0: transitive closure over `e`.
    program.push_str("t(X, Y) :- e(X, Y).\n");
    program.push_str("t(X, Y) :- e(X, Z), t(Z, Y).\n");
    if use_neg {
        program.push_str("unreach(X, Y) :- node(X), node(Y), !t(X, Y).\n");
        queries.push("unreach(X, Y)?".to_string());
    }
    if use_count {
        program.push_str("reach(X, count<Y>) :- t(X, Y).\n");
        queries.push("reach(X, C)?".to_string());
    }
    if use_min {
        program.push_str("short(Y, min<C>) :- src(X), w(X, Y, C).\n");
        program.push_str("short(Y, min<C>) :- short(X, D), w(X, Y, W), C = D + W.\n");
        queries.push("short(Y, C)?".to_string());
    }
    if use_stacked {
        program.push_str("haspath(X) :- t(X, Y).\n");
        program.push_str("isolated(X) :- node(X), !haspath(X).\n");
        queries.push("isolated(X)?".to_string());
    }
    queries.push("t(X, Y)?".to_string());

    // Facts. `live` tracks what the mutation script may retract.
    let mut live: Vec<String> = Vec::new();
    let emit = |live: &mut Vec<String>, fact: String| {
        if !live.contains(&fact) {
            live.push(fact);
        }
    };
    for i in 0..pool {
        emit(&mut live, format!("node({}).", node(i)));
    }
    emit(&mut live, format!("src({}).", node(0)));
    for _ in 0..rng.gen_range(4..=9usize) {
        let (a, b) = (rng.gen_range(0..pool), rng.gen_range(0..pool));
        emit(&mut live, format!("e({}, {}).", node(a), node(b)));
    }
    for _ in 0..rng.gen_range(4..=9usize) {
        let (a, b) = (rng.gen_range(0..pool), rng.gen_range(0..pool));
        let c = rng.gen_range(1..=9usize);
        emit(&mut live, format!("w({}, {}, {c}).", node(a), node(b)));
    }
    for fact in &live {
        program.push_str(fact);
        program.push('\n');
    }

    // Mutation script: 4 steps of churn on the EDB. Retractions always
    // target live facts (node/src retractions included — negation must
    // shrink its domain correctly, and min must re-derive after losing a
    // weighted edge).
    let mut steps = Vec::new();
    for _ in 0..4 {
        let mut inserts = Vec::new();
        for _ in 0..rng.gen_range(0..=2usize) {
            let (a, b) = (rng.gen_range(0..pool), rng.gen_range(0..pool));
            let fact = if rng.gen_bool(0.5) {
                format!("e({}, {}).", node(a), node(b))
            } else {
                format!("w({}, {}, {}).", node(a), node(b), rng.gen_range(1..=9usize))
            };
            if !live.contains(&fact) {
                live.push(fact.clone());
                inserts.push(fact);
            }
        }
        let mut retracts = Vec::new();
        if rng.gen_bool(0.7) && !live.is_empty() {
            let idx = rng.gen_range(0..live.len());
            retracts.push(live.swap_remove(idx));
        }
        steps.push((inserts, retracts));
    }

    StratifiedScenario { program, queries, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_ast::parse_program;

    #[test]
    fn scenarios_parse_and_have_selections() {
        for seed in 0..50 {
            let mut scenario = random_separable_scenario(seed);
            let program = parse_program(&scenario.program, scenario.db.interner_mut())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", scenario.program));
            assert!(program.rules.len() >= 2, "seed {seed}");
            let query =
                sepra_ast::parse_query(&scenario.query, scenario.db.interner_mut()).unwrap();
            assert!(query.has_selection(), "seed {seed}: {}", scenario.query);
        }
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = random_separable_scenario(42);
        let b = random_separable_scenario(42);
        assert_eq!(a.program, b.program);
        assert_eq!(a.query, b.query);
    }

    #[test]
    fn stratified_scenarios_parse_stratify_and_retract_live_facts() {
        for seed in 0..60 {
            let scenario = random_stratified_scenario(seed);
            let mut interner = sepra_ast::Interner::new();
            let program = parse_program(&scenario.program, &mut interner)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", scenario.program));
            let graph = sepra_ast::DependencyGraph::build(&program);
            assert!(
                program
                    .rules
                    .iter()
                    .any(|r| graph.scope(r.head.pred) == sepra_ast::Scope::StratifiedComponent),
                "seed {seed}: no stratified construct\n{}",
                scenario.program
            );
            sepra_ast::analysis::stratify(&program)
                .unwrap_or_else(|e| panic!("seed {seed}: unstratifiable: {e:?}"));
            assert!(!scenario.queries.is_empty(), "seed {seed}");
            assert_eq!(scenario.steps.len(), 4, "seed {seed}");
            // Every retraction names a fact inserted earlier (program text
            // or a prior step) and not already retracted.
            let mut live: Vec<&str> =
                scenario.program.lines().filter(|l| !l.contains(":-")).collect();
            for (inserts, retracts) in &scenario.steps {
                live.extend(inserts.iter().map(String::as_str));
                for r in retracts {
                    let pos = live
                        .iter()
                        .position(|f| f == r)
                        .unwrap_or_else(|| panic!("seed {seed}: retracting dead fact {r}"));
                    live.swap_remove(pos);
                }
            }
        }
    }

    #[test]
    fn stratified_scenarios_are_deterministic() {
        let a = random_stratified_scenario(7);
        let b = random_stratified_scenario(7);
        assert_eq!(a.program, b.program);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.steps, b.steps);
    }
}
