//! Selection classification (Definition 2.7) and instantiation of the
//! evaluation schema of Figure 2 into an executable [`SeparablePlan`].
//!
//! A plan has three parts, mirroring the paper's schema:
//!
//! 1. **Phase 1** (lines 1–7): a closure over `carry_1`/`seen_1`, whose
//!    columns are `t|e_1` — the columns of the equivalence class the
//!    selection binds. Each rule `r_1j` of `e_1` compiles to one member of
//!    the union in the carry-extension operator `f_1`: a join of the carry
//!    with the rule's nonrecursive conjunction `a_1j`, projecting the
//!    *body*-side class variables (the "downward" direction, from the
//!    selection constants toward the exit relation).
//! 2. **Seed** (line 8): `carry_2 := t_0 & seen_1` — each exit rule body is
//!    joined against `seen_1` and projected onto the remaining columns.
//!    When the selection constants lie in `t|pers` there is no phase 1; the
//!    constants are instead baked into the seed plans (the paper's "dummy
//!    equivalence class" construction).
//! 3. **Phase 2** (lines 10–14): a closure over `carry_2`/`seen_2` whose
//!    columns are the concatenation of the remaining classes' columns and
//!    the persistent columns. Each rule of the remaining classes compiles
//!    to one member of `f_2`, this time projecting the *head*-side
//!    variables (the "upward" direction, from the exit relation toward
//!    answers).

use sepra_ast::{Literal, Query, Sym, Term};
use sepra_eval::{ConjPlan, EvalError, PlanAtom, PlanLiteral, Planner, RelKey};
use sepra_storage::Value;

use crate::detect::SeparableRecursion;

/// Auxiliary relation id for `carry_1` in compiled plans.
pub const AUX_CARRY1: u32 = 0;
/// Auxiliary relation id for `seen_1` in compiled plans.
pub const AUX_SEEN1: u32 = 1;
/// Auxiliary relation id for `carry_2` in compiled plans.
pub const AUX_CARRY2: u32 = 2;

/// How a query's selection constants relate to the recursion's classes
/// (Definition 2.7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectionKind {
    /// At least one constant lies in a persistent column — a full
    /// selection via the paper's dummy-class construction.
    Persistent {
        /// The bound persistent positions (ascending).
        bound: Vec<usize>,
    },
    /// Some equivalence class has *all* of its columns bound — a full
    /// selection on that class.
    FullClass {
        /// Index of the (first) fully bound class.
        class: usize,
    },
    /// Some class is only partially bound and nothing else qualifies —
    /// requires the Lemma 2.1 decomposition.
    Partial {
        /// Index of the (first) partially bound class.
        class: usize,
    },
    /// The query has no selection constants at all; the specialized
    /// algorithm does not apply (Section 2 considers queries with at least
    /// one constant).
    NoSelection,
}

/// Classifies `query` against a detected separable recursion.
pub fn classify_selection(sep: &SeparableRecursion, query: &Query) -> SelectionKind {
    let bound = query.bound_positions();
    if bound.is_empty() {
        return SelectionKind::NoSelection;
    }
    let bound_pers: Vec<usize> =
        bound.iter().copied().filter(|p| sep.persistent.contains(p)).collect();
    if !bound_pers.is_empty() {
        return SelectionKind::Persistent { bound: bound_pers };
    }
    for (ci, class) in sep.classes.iter().enumerate() {
        if !class.columns.is_empty() && class.columns.iter().all(|c| bound.contains(c)) {
            return SelectionKind::FullClass { class: ci };
        }
    }
    for (ci, class) in sep.classes.iter().enumerate() {
        if class.columns.iter().any(|c| bound.contains(c)) {
            return SelectionKind::Partial { class: ci };
        }
    }
    // All bound positions fall in empty-column classes — impossible, since
    // empty classes own no columns; treat as no usable selection.
    SelectionKind::NoSelection
}

/// The compiled phase-1 closure.
#[derive(Debug, Clone)]
pub struct Phase1Plan {
    /// The selected class index.
    pub class: usize,
    /// The carry/seen columns `t|e_1` (ascending positions of `t`).
    pub columns: Vec<usize>,
    /// One carry-extension plan per rule of the class, tagged with the rule
    /// index. Each plan's first atom scans [`AUX_CARRY1`].
    pub steps: Vec<(usize, ConjPlan)>,
    /// Tracked variants of `steps` whose output rows are the *parent*
    /// carry tuple followed by the produced tuple — used to record
    /// justifications (the paper's `J(a)` strings from the proof of
    /// Lemma 3.1).
    pub tracked_steps: Vec<(usize, ConjPlan)>,
}

/// The compiled phase-2 closure.
#[derive(Debug, Clone)]
pub struct Phase2Plan {
    /// The carry/seen columns (remaining class columns plus persistent
    /// columns, ascending positions of `t`).
    pub columns: Vec<usize>,
    /// One carry-extension plan per participating rule, tagged with the
    /// rule index. Each plan's first atom scans [`AUX_CARRY2`].
    pub steps: Vec<(usize, ConjPlan)>,
    /// Tracked variants (parent tuple ++ produced tuple), as in
    /// [`Phase1Plan::tracked_steps`].
    pub tracked_steps: Vec<(usize, ConjPlan)>,
}

/// A fully instantiated Figure 2 schema.
#[derive(Debug, Clone)]
pub struct SeparablePlan {
    /// The recursive predicate.
    pub pred: Sym,
    /// Its arity.
    pub arity: usize,
    /// Phase 1, absent when the selection is on persistent columns.
    pub phase1: Option<Phase1Plan>,
    /// Seed plans (`carry_2 := t_0 & seen_1`), one per exit rule. When
    /// `phase1` is `None`, the persistent selection constants are baked in
    /// as equality steps instead of the `seen_1` join.
    pub seed: Vec<ConjPlan>,
    /// Tracked seed variants whose output rows are the contributing
    /// `seen_1` tuple (when phase 1 exists) followed by the produced
    /// `carry_2` tuple.
    pub tracked_seed: Vec<ConjPlan>,
    /// Phase 2.
    pub phase2: Phase2Plan,
    /// Columns whose values are fixed by the selection (phase-1 class
    /// columns, or the bound persistent columns), ascending. Together with
    /// `phase2.columns` these cover all `arity` positions.
    pub fixed_cols: Vec<usize>,
}

/// What kind of plan to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanSelection {
    /// Full selection on a class: phase 1 runs over that class; the
    /// caller supplies the initial `carry_1` contents at execution time.
    Class(usize),
    /// Selection constants on persistent columns: `(position, value)`
    /// pairs are baked into the seed plans.
    Persistent(Vec<(usize, Value)>),
}

/// Instantiates the Figure 2 schema for a separable recursion and a full
/// selection, compiling every conjunction exactly as written (the paper's
/// presentation). Equivalent to [`build_plan_with`] with a source-order
/// planner.
pub fn build_plan(
    sep: &SeparableRecursion,
    selection: &PlanSelection,
) -> Result<SeparablePlan, EvalError> {
    build_plan_with(sep, selection, &Planner::source_order())
}

/// Instantiates the Figure 2 schema, letting `planner` order each
/// nonrecursive conjunction before compilation. The carry/seen scan of
/// every step stays pinned first, in Figure 2's order.
pub fn build_plan_with(
    sep: &SeparableRecursion,
    selection: &PlanSelection,
    planner: &Planner<'_>,
) -> Result<SeparablePlan, EvalError> {
    match selection {
        PlanSelection::Class(class_idx) => build_class_plan(sep, *class_idx, planner),
        PlanSelection::Persistent(bound) => build_persistent_plan(sep, bound, planner),
    }
}

fn head_terms_at(sep: &SeparableRecursion, rule: &sepra_ast::Rule, cols: &[usize]) -> Vec<Term> {
    debug_assert_eq!(rule.head.arity(), sep.arity);
    cols.iter().map(|&c| rule.head.terms[c]).collect()
}

fn body_terms_at(
    sep: &SeparableRecursion,
    rule: &sepra_ast::Rule,
    cols: &[usize],
) -> Result<Vec<Term>, EvalError> {
    let rec = crate::detect::recursive_atom(rule, sep.pred);
    let terms: Vec<Term> = cols.iter().map(|&c| rec.terms[c]).collect();
    if terms.iter().any(|t| !t.is_var()) {
        return Err(EvalError::Unsupported(
            "constant in the recursive body atom of a separable rule".into(),
        ));
    }
    Ok(terms)
}

fn nonrecursive_literals(sep: &SeparableRecursion, rule: &sepra_ast::Rule) -> Vec<PlanLiteral> {
    rule.body
        .iter()
        .filter(|lit| !matches!(lit, Literal::Atom(a) if a.pred == sep.pred))
        .map(|lit| PlanLiteral::from_literal(lit, &RelKey::Pred))
        .collect()
}

/// Compiles the carry-extension plan for one rule of a closure: scan the
/// carry, join the rule's nonrecursive conjunction, project the produced
/// tuple. Phase 1 (`AUX_CARRY1`) walks *down* from the selection: the
/// carry binds the head-side class variables and the body side is
/// produced. Phase 2 (`AUX_CARRY2`) walks *up* from the exit relation: the
/// carry binds the body-side variables at the phase-2 columns and the head
/// side is produced.
///
/// With `parent_prefix` the output row is the scanned carry tuple followed
/// by the produced one — the form justification recording needs.
fn carry_step(
    sep: &SeparableRecursion,
    carry: u32,
    rule_idx: usize,
    cols: &[usize],
    planner: &Planner<'_>,
    parent_prefix: bool,
) -> Result<ConjPlan, EvalError> {
    let rule = &sep.recursive_rules[rule_idx];
    let (head_side, body_side) = (head_terms_at(sep, rule, cols), body_terms_at(sep, rule, cols)?);
    let (scanned, produced) =
        if carry == AUX_CARRY1 { (head_side, body_side) } else { (body_side, head_side) };
    let mut output = if parent_prefix { scanned.clone() } else { Vec::new() };
    output.extend(produced);
    let mut body = vec![PlanLiteral::Atom(PlanAtom { rel: RelKey::Aux(carry), terms: scanned })];
    body.extend(nonrecursive_literals(sep, rule));
    planner.plan(&body, 1, &output)
}

/// Compiles one seed plan (one exit rule): `seen_1` join (or baked-in
/// persistent constants), then the exit body, projecting the phase-2
/// columns — behind the contributing `seen_1` tuple with `parent_prefix`
/// (class-selection plans only; a persistent selection has none).
fn seed_step(
    sep: &SeparableRecursion,
    exit_idx: usize,
    fixed_cols: &[usize],
    rest_cols: &[usize],
    persistent_consts: Option<&[(usize, Value)]>,
    planner: &Planner<'_>,
    parent_prefix: bool,
) -> Result<ConjPlan, EvalError> {
    let rule = &sep.exit_rules[exit_idx];
    let mut body: Vec<PlanLiteral> = Vec::new();
    let mut output: Vec<Term> = Vec::new();
    match persistent_consts {
        None => {
            let seen_terms = head_terms_at(sep, rule, fixed_cols);
            if parent_prefix {
                output.extend(seen_terms.iter().copied());
            }
            body.push(PlanLiteral::Atom(PlanAtom {
                rel: RelKey::Aux(AUX_SEEN1),
                terms: seen_terms,
            }));
        }
        Some(consts) => {
            for &(pos, value) in consts {
                body.push(PlanLiteral::Eq(rule.head.terms[pos], value_to_term(value)));
            }
        }
    }
    // Pin the prefix: the seed join reads `seen_1` first, as Figure 2's
    // line 8 does, and the selection equalities of a persistent plan bind
    // before anything else.
    let pinned = body.len();
    // Exit rules of a separable recursion are pure positive conjunctions
    // (guaranteed by `RecursiveDef::extract`).
    body.extend(rule.body.iter().map(|lit| PlanLiteral::from_literal(lit, &RelKey::Pred)));
    output.extend(head_terms_at(sep, rule, rest_cols));
    planner.plan(&body, pinned, &output)
}

fn value_to_term(value: Value) -> Term {
    if let Some(n) = value.as_int() {
        Term::int(n)
    } else {
        Term::sym(value.as_sym().expect("value is sym or int"))
    }
}

fn build_class_plan(
    sep: &SeparableRecursion,
    class_idx: usize,
    planner: &Planner<'_>,
) -> Result<SeparablePlan, EvalError> {
    let class = sep
        .classes
        .get(class_idx)
        .ok_or_else(|| EvalError::Planning(format!("no equivalence class {class_idx}")))?;
    if class.columns.is_empty() {
        return Err(EvalError::Planning(
            "cannot select on an equivalence class with no columns".into(),
        ));
    }
    let fixed_cols = class.columns.clone();
    let rest_cols: Vec<usize> = (0..sep.arity).filter(|c| !fixed_cols.contains(c)).collect();

    // The tracked variants (used only for justification recording) always
    // keep source order: their cost is dominated by tracking anyway.
    let source = Planner::source_order();
    let mut p1_steps = Vec::new();
    let mut p1_tracked = Vec::new();
    for &ri in &class.rules {
        p1_steps.push((ri, carry_step(sep, AUX_CARRY1, ri, &fixed_cols, planner, false)?));
        p1_tracked.push((ri, carry_step(sep, AUX_CARRY1, ri, &fixed_cols, &source, true)?));
    }
    let mut seed = Vec::new();
    let mut tracked_seed = Vec::new();
    for ei in 0..sep.exit_rules.len() {
        seed.push(seed_step(sep, ei, &fixed_cols, &rest_cols, None, planner, false)?);
        tracked_seed.push(seed_step(sep, ei, &fixed_cols, &rest_cols, None, &source, true)?);
    }
    let mut p2_steps = Vec::new();
    let mut p2_tracked = Vec::new();
    for (ci, other) in sep.classes.iter().enumerate() {
        if ci == class_idx {
            continue;
        }
        for &ri in &other.rules {
            p2_steps.push((ri, carry_step(sep, AUX_CARRY2, ri, &rest_cols, planner, false)?));
            p2_tracked.push((ri, carry_step(sep, AUX_CARRY2, ri, &rest_cols, &source, true)?));
        }
    }
    p2_steps.sort_by_key(|(ri, _)| *ri);
    p2_tracked.sort_by_key(|(ri, _)| *ri);
    Ok(SeparablePlan {
        pred: sep.pred,
        arity: sep.arity,
        phase1: Some(Phase1Plan {
            class: class_idx,
            columns: fixed_cols.clone(),
            steps: p1_steps,
            tracked_steps: p1_tracked,
        }),
        seed,
        tracked_seed,
        phase2: Phase2Plan { columns: rest_cols, steps: p2_steps, tracked_steps: p2_tracked },
        fixed_cols,
    })
}

fn build_persistent_plan(
    sep: &SeparableRecursion,
    bound: &[(usize, Value)],
    planner: &Planner<'_>,
) -> Result<SeparablePlan, EvalError> {
    if bound.is_empty() {
        return Err(EvalError::Planning("persistent selection with no constants".into()));
    }
    for &(pos, _) in bound {
        if !sep.persistent.contains(&pos) {
            return Err(EvalError::Planning(format!("column {pos} is not persistent")));
        }
    }
    let fixed_cols: Vec<usize> = bound.iter().map(|&(p, _)| p).collect();
    let rest_cols: Vec<usize> = (0..sep.arity).filter(|c| !fixed_cols.contains(c)).collect();
    let source = Planner::source_order();
    let mut seed = Vec::new();
    let mut tracked_seed = Vec::new();
    for ei in 0..sep.exit_rules.len() {
        seed.push(seed_step(sep, ei, &fixed_cols, &rest_cols, Some(bound), planner, false)?);
        tracked_seed.push(seed_step(sep, ei, &fixed_cols, &rest_cols, Some(bound), &source, true)?);
    }
    let mut p2_steps = Vec::new();
    let mut p2_tracked = Vec::new();
    for class in &sep.classes {
        for &ri in &class.rules {
            p2_steps.push((ri, carry_step(sep, AUX_CARRY2, ri, &rest_cols, planner, false)?));
            p2_tracked.push((ri, carry_step(sep, AUX_CARRY2, ri, &rest_cols, &source, true)?));
        }
    }
    p2_steps.sort_by_key(|(ri, _)| *ri);
    p2_tracked.sort_by_key(|(ri, _)| *ri);
    Ok(SeparablePlan {
        pred: sep.pred,
        arity: sep.arity,
        phase1: None,
        seed,
        tracked_seed,
        phase2: Phase2Plan { columns: rest_cols, steps: p2_steps, tracked_steps: p2_tracked },
        fixed_cols,
    })
}

impl SeparablePlan {
    /// Renders the instantiated algorithm in the paper's pseudocode style
    /// (compare Figures 3 and 4).
    pub fn render(&self, sep: &SeparableRecursion, interner: &sepra_ast::Interner) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let col_list = |cols: &[usize]| -> String {
            cols.iter()
                .map(|&c| interner.resolve(sep.canon_vars[c]).to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        if let Some(p1) = &self.phase1 {
            let _ = writeln!(out, "carry_1({});", col_list(&p1.columns));
            let _ = writeln!(out, "seen_1 := carry_1;");
            let _ = writeln!(out, "while carry_1 not empty do");
            let terms: Vec<String> = p1
                .steps
                .iter()
                .map(|(ri, _)| {
                    let rule = &sep.recursive_rules[*ri];
                    let units: Vec<String> = rule
                        .body
                        .iter()
                        .filter(|l| !matches!(l, Literal::Atom(a) if a.pred == sep.pred))
                        .map(|l| sepra_ast::pretty::literal_to_string(l, interner))
                        .collect();
                    format!("carry_1 & {}", units.join(" & "))
                })
                .collect();
            let _ = writeln!(out, "  carry_1 := {};", terms.join(" u "));
            let _ = writeln!(out, "  carry_1 := carry_1 - seen_1;");
            let _ = writeln!(out, "  seen_1 := seen_1 u carry_1;");
            let _ = writeln!(out, "endwhile;");
        } else {
            let _ = writeln!(out, "seen_1({});", col_list(&self.fixed_cols));
        }
        let exit_bodies: Vec<String> = sep
            .exit_rules
            .iter()
            .map(|rule| {
                rule.body
                    .iter()
                    .map(|l| sepra_ast::pretty::literal_to_string(l, interner))
                    .collect::<Vec<_>>()
                    .join(" & ")
            })
            .collect();
        let _ = writeln!(
            out,
            "carry_2({}) := seen_1 & {};",
            col_list(&self.phase2.columns),
            exit_bodies.join(" u seen_1 & ")
        );
        let _ = writeln!(out, "seen_2 := carry_2;");
        if !self.phase2.steps.is_empty() {
            let _ = writeln!(out, "while carry_2 not empty do");
            let terms: Vec<String> = self
                .phase2
                .steps
                .iter()
                .map(|(ri, _)| {
                    let rule = &sep.recursive_rules[*ri];
                    let units: Vec<String> = rule
                        .body
                        .iter()
                        .filter(|l| !matches!(l, Literal::Atom(a) if a.pred == sep.pred))
                        .map(|l| sepra_ast::pretty::literal_to_string(l, interner))
                        .collect();
                    format!("carry_2 & {}", units.join(" & "))
                })
                .collect();
            let _ = writeln!(out, "  carry_2 := {};", terms.join(" u "));
            let _ = writeln!(out, "  carry_2 := carry_2 - seen_2;");
            let _ = writeln!(out, "  seen_2 := seen_2 u carry_2;");
            let _ = writeln!(out, "endwhile;");
        }
        let _ = writeln!(out, "ans := seen_2;");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_in_program;
    use sepra_ast::{parse_program, parse_query, Interner};

    fn setup(src: &str, pred: &str) -> (SeparableRecursion, Interner) {
        let mut i = Interner::new();
        let program = parse_program(src, &mut i).unwrap();
        let p = i.intern(pred);
        let sep = detect_in_program(&program, p, &mut i).unwrap();
        (sep, i)
    }

    const EX_1_1: &str = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
                          buys(X, Y) :- idol(X, W), buys(W, Y).\n\
                          buys(X, Y) :- perfectFor(X, Y).\n";

    const EX_1_2: &str = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
                          buys(X, Y) :- buys(X, W), cheaper(Y, W).\n\
                          buys(X, Y) :- perfectFor(X, Y).\n";

    #[test]
    fn classify_example_1_1() {
        let (sep, mut i) = setup(EX_1_1, "buys");
        let q1 = parse_query("buys(tom, Y)?", &mut i).unwrap();
        assert_eq!(classify_selection(&sep, &q1), SelectionKind::FullClass { class: 0 });
        // Column 1 is persistent in Example 1.1.
        let q2 = parse_query("buys(X, widget)?", &mut i).unwrap();
        assert_eq!(classify_selection(&sep, &q2), SelectionKind::Persistent { bound: vec![1] });
        let q3 = parse_query("buys(X, Y)?", &mut i).unwrap();
        assert_eq!(classify_selection(&sep, &q3), SelectionKind::NoSelection);
    }

    #[test]
    fn classify_example_1_2_both_columns_are_class_selections() {
        let (sep, mut i) = setup(EX_1_2, "buys");
        let q1 = parse_query("buys(tom, Y)?", &mut i).unwrap();
        assert_eq!(classify_selection(&sep, &q1), SelectionKind::FullClass { class: 0 });
        let q2 = parse_query("buys(X, widget)?", &mut i).unwrap();
        assert_eq!(classify_selection(&sep, &q2), SelectionKind::FullClass { class: 1 });
    }

    #[test]
    fn classify_partial_selection_example_2_4() {
        let (sep, mut i) = setup(
            "t(X, Y, Z) :- a(X, Y, U, V), t(U, V, Z).\n\
             t(X, Y, Z) :- t(X, Y, W), b(W, Z).\n\
             t(X, Y, Z) :- t0(X, Y, Z).\n",
            "t",
        );
        // t(c, Y, Z)? binds only one of class 0's two columns.
        let q = parse_query("t(c, Y, Z)?", &mut i).unwrap();
        assert_eq!(classify_selection(&sep, &q), SelectionKind::Partial { class: 0 });
        // t(c, d, Z)? fully binds class 0.
        let q2 = parse_query("t(c, d, Z)?", &mut i).unwrap();
        assert_eq!(classify_selection(&sep, &q2), SelectionKind::FullClass { class: 0 });
        // t(X, Y, w)? fully binds class 1.
        let q3 = parse_query("t(X, Y, w)?", &mut i).unwrap();
        assert_eq!(classify_selection(&sep, &q3), SelectionKind::FullClass { class: 1 });
    }

    #[test]
    fn class_plan_shapes_match_figure_3() {
        let (sep, i) = setup(EX_1_1, "buys");
        let plan = build_plan(&sep, &PlanSelection::Class(0)).unwrap();
        let p1 = plan.phase1.as_ref().unwrap();
        assert_eq!(p1.columns, vec![0]);
        assert_eq!(p1.steps.len(), 2); // friend and idol members of f_1
        assert_eq!(plan.seed.len(), 1);
        assert!(plan.phase2.steps.is_empty()); // no other classes
        assert_eq!(plan.phase2.columns, vec![1]);
        let rendered = plan.render(&sep, &i);
        assert!(rendered.contains("while carry_1 not empty do"), "{rendered}");
        assert!(rendered.contains("friend"), "{rendered}");
        assert!(rendered.contains("idol"), "{rendered}");
        assert!(rendered.contains("ans := seen_2;"), "{rendered}");
        // Figure 3 has no second while loop.
        assert!(!rendered.contains("while carry_2"), "{rendered}");
    }

    #[test]
    fn class_plan_shapes_match_figure_4() {
        let (sep, i) = setup(EX_1_2, "buys");
        let plan = build_plan(&sep, &PlanSelection::Class(0)).unwrap();
        assert_eq!(plan.phase1.as_ref().unwrap().steps.len(), 1);
        assert_eq!(plan.phase2.steps.len(), 1); // cheaper rule
        let rendered = plan.render(&sep, &i);
        assert!(rendered.contains("while carry_1 not empty do"), "{rendered}");
        assert!(rendered.contains("while carry_2 not empty do"), "{rendered}");
        assert!(rendered.contains("cheaper"), "{rendered}");
    }

    #[test]
    fn persistent_plan_has_no_phase1() {
        let (sep, mut i) = setup(EX_1_1, "buys");
        let widget = i.intern("widget");
        let plan =
            build_plan(&sep, &PlanSelection::Persistent(vec![(1, Value::sym(widget))])).unwrap();
        assert!(plan.phase1.is_none());
        assert_eq!(plan.fixed_cols, vec![1]);
        assert_eq!(plan.phase2.columns, vec![0]);
        // All recursive rules participate upward.
        assert_eq!(plan.phase2.steps.len(), 2);
        let rendered = plan.render(&sep, &i);
        assert!(rendered.starts_with("seen_1("), "{rendered}");
    }

    #[test]
    fn empty_class_cannot_be_selected() {
        let (sep, _) = setup(
            "t(X, Y) :- flag(Z), t(X, Y).\n\
             t(X, Y) :- t0(X, Y).\n",
            "t",
        );
        assert!(build_plan(&sep, &PlanSelection::Class(0)).is_err());
    }

    #[test]
    fn cost_based_plans_pin_the_carry_and_reorder_the_rest() {
        use sepra_eval::{PlanMode, PlannerStats, Step};
        use sepra_storage::Database;
        // Adversarial source order: the unselective `big` scan is written
        // before the `link` probe that the carry can key.
        let mut db = Database::new();
        for i in 0..200 {
            db.insert_named("big", &[&format!("z{i}"), &format!("w{i}")]).unwrap();
        }
        db.load_fact_text("link(a, z5). t0(w5, ans).").unwrap();
        let (sep, _) = {
            // Share the database's interner so stats symbols line up.
            let mut i = db.interner().clone();
            let program = parse_program(
                "t(X, Y) :- big(Z, W), link(X, Z), t(W, Y).\nt(X, Y) :- t0(X, Y).\n",
                &mut i,
            )
            .unwrap();
            let p = i.intern("t");
            (detect_in_program(&program, p, &mut i).unwrap(), i)
        };
        let scan_order = |plan: &SeparablePlan| -> Vec<RelKey> {
            plan.phase1.as_ref().unwrap().steps[0]
                .1
                .steps
                .iter()
                .filter_map(|s| match s {
                    Step::Scan { rel, .. } => Some(*rel),
                    _ => None,
                })
                .collect()
        };
        let big = db.intern("big");
        let link = db.intern("link");

        let source = build_plan(&sep, &PlanSelection::Class(0)).unwrap();
        assert_eq!(
            scan_order(&source),
            vec![RelKey::Aux(AUX_CARRY1), RelKey::Pred(big), RelKey::Pred(link)]
        );

        let stats = PlannerStats::from_database(&db);
        let planner = sepra_eval::Planner::new(PlanMode::CostBased, Some(&stats));
        let costed = build_plan_with(&sep, &PlanSelection::Class(0), &planner).unwrap();
        assert_eq!(
            scan_order(&costed),
            vec![RelKey::Aux(AUX_CARRY1), RelKey::Pred(link), RelKey::Pred(big)],
            "carry stays pinned first; the selective probe moves ahead of the big scan"
        );
        assert!(planner.counters().0 >= 1);
    }

    #[test]
    fn persistent_plan_validates_positions() {
        let (sep, mut i) = setup(EX_1_2, "buys");
        let c = i.intern("c");
        // Example 1.2 has no persistent columns.
        assert!(build_plan(&sep, &PlanSelection::Persistent(vec![(0, Value::sym(c))])).is_err());
    }
}
