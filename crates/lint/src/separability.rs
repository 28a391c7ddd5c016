//! Separability diagnostics (`SEP0xx`): Definition 2.4 explained with
//! spans.
//!
//! For every recursive predicate the pass runs the paper's detector
//! ([`sepra_core::detect()`]) and translates each violated condition into a
//! diagnostic that cites the exact rule and argument positions:
//!
//! | code   | severity | meaning                                            |
//! |--------|----------|----------------------------------------------------|
//! | SEP000 | note     | recursive but outside the compilable class         |
//! | SEP001 | warning  | condition 1: shifting variable                     |
//! | SEP002 | warning  | condition 2: head/body column sets differ          |
//! | SEP003 | warning  | condition 3: overlapping, unequal column sets      |
//! | SEP004 | warning  | condition 4: disconnected nonrecursive body        |
//! | SEP100 | note     | separable — class structure summary                |
//!
//! The detector reports violations against *normalized* rules
//! (rectified, heads standardized); [`NotSeparable::source_index`] maps
//! those indices back to the definition's source rules, whose spans point
//! into the file the user wrote. Normalization never permutes argument
//! positions, so a normalized position indexes the same argument of the
//! source rule.

use sepra_ast::pretty::term_to_string;
use sepra_ast::{AstError, Interner, RecursiveDef, Rule};
use sepra_core::detect::{detect, NotSeparable, Violation};

use crate::diagnostic::Diagnostic;
use crate::passes::{Pass, ProgramContext};

/// The separability pass. See the module docs for the codes it emits.
pub struct Separability;

impl Pass for Separability {
    fn name(&self) -> &'static str {
        "separability"
    }

    fn run(&self, ctx: &ProgramContext<'_>, interner: &mut Interner, out: &mut Vec<Diagnostic>) {
        for info in ctx.graph.classify(ctx.program) {
            if !info.is_recursive {
                continue;
            }
            let name = interner.resolve(info.pred).to_string();
            let def = match ctx.graph.recursive_def(ctx.program, info.pred, interner) {
                Ok(def) => def,
                Err(e) => {
                    let reason = match &e {
                        AstError::UnsupportedProgram { msg } => msg.clone(),
                        other => other.to_string(),
                    };
                    let first = ctx.program.definition_of(info.pred);
                    let mut diag = Diagnostic::note(
                        "SEP000",
                        format!("`{name}` is recursive but outside the compilable class: {reason}"),
                    );
                    if let Some(rule) = first.first() {
                        diag = diag.with_label(rule.span(), "defined here");
                    }
                    out.push(diag.with_note(
                        "separable compilation (Definition 2.4) applies to linear recursion \
                         with exit rules and no mutual recursion",
                    ));
                    continue;
                }
            };
            match detect(&def, interner) {
                Ok(sep) => {
                    let mut diag = Diagnostic::note(
                        "SEP100",
                        format!(
                            "`{name}` is a separable recursion: {} equivalence class(es), \
                             persistent columns {:?}",
                            sep.classes.len(),
                            sep.persistent
                        ),
                    )
                    .with_label(
                        def.recursive_rules[0].span(),
                        // A detected recursion's own rules are positive, and
                        // routing is decided per query cone: whatever its
                        // lower strata negate or aggregate, it compiles.
                        "compiled with the specialized separable algorithm",
                    );
                    for (i, class) in sep.classes.iter().enumerate() {
                        diag = diag.with_note(format!(
                            "class {i} binds columns {:?} via {} recursive rule(s)",
                            class.columns,
                            class.rules.len()
                        ));
                    }
                    out.push(diag);
                }
                Err(ns) => {
                    for v in &ns.violations {
                        out.push(violation_diagnostic(v, &ns, &def, &name, interner));
                    }
                }
            }
        }
    }
}

/// Translates one [`Violation`] into a span-carrying diagnostic against the
/// *source* rules of `def`.
fn violation_diagnostic(
    v: &Violation,
    ns: &NotSeparable,
    def: &RecursiveDef,
    name: &str,
    interner: &Interner,
) -> Diagnostic {
    // Violations index normalized rules; map back to the rule the user
    // wrote (normalization drops tautologies, so indices can differ). The
    // normalized copy is the fallback for synthesized inputs.
    let src = |i: usize| -> &Rule {
        ns.source_index(i)
            .and_then(|si| def.recursive_rules.get(si))
            .or_else(|| ns.rule(i))
            .expect("violation cites an existing rule")
    };
    let fallback =
        format!("queries on `{name}` fall back to the general engine (magic sets + seminaive)");
    match v {
        Violation::ShiftingVariable { rule, head_pos, body_pos, .. } => {
            let r = src(*rule);
            let rec = r.recursive_atom(def.pred).expect("linear recursive rule");
            let shown = term_to_string(&r.head.terms[*head_pos], interner);
            Diagnostic::warning(
                "SEP001",
                format!(
                    "`{name}` is not separable: head argument {head_pos} (`{shown}`) \
                     reappears at argument {body_pos} of the recursive call"
                ),
            )
            .with_label(
                rec.term_span(*body_pos),
                format!("the recursive call binds it at argument {body_pos}"),
            )
            .with_secondary(
                r.head.term_span(*head_pos),
                format!("the head binds it at argument {head_pos}"),
            )
            .with_note(
                "condition 1 of Definition 2.4: a variable shared by the head and the \
                 recursive call must occupy the same argument positions in both",
            )
            .with_note(fallback)
        }
        Violation::HeadBodyMismatch { rule, head_cols, body_cols } => {
            let r = src(*rule);
            let rec = r.recursive_atom(def.pred).expect("linear recursive rule");
            Diagnostic::warning(
                "SEP002",
                format!(
                    "`{name}` is not separable: nonrecursive subgoals bind head columns \
                     {head_cols:?} but recursive-call columns {body_cols:?}"
                ),
            )
            .with_label(rec.span, format!("bound columns of the recursive call: {body_cols:?}"))
            .with_secondary(r.head.span, format!("bound columns of the head: {head_cols:?}"))
            .with_note(
                "condition 2 of Definition 2.4: the nonrecursive subgoals must touch the \
                 same column set of the head and of the recursive call (t_i^h = t_i^b)",
            )
            .with_note(fallback)
        }
        Violation::OverlappingClasses { rule_a, rule_b, cols_a, cols_b } => {
            let ra = src(*rule_a);
            let rb = src(*rule_b);
            Diagnostic::warning(
                "SEP003",
                format!(
                    "`{name}` is not separable: recursive rules bind overlapping but \
                     unequal column sets {cols_a:?} and {cols_b:?}"
                ),
            )
            .with_label(ra.span(), format!("this rule binds columns {cols_a:?}"))
            .with_secondary(rb.span(), format!("this rule binds columns {cols_b:?}"))
            .with_note(
                "condition 3 of Definition 2.4: the column sets of any two recursive \
                 rules must be equal or disjoint, so rules partition into equivalence \
                 classes",
            )
            .with_note(fallback)
        }
        Violation::DisconnectedBody { rule, components } => {
            let r = src(*rule);
            Diagnostic::warning(
                "SEP004",
                format!(
                    "`{name}` is not separable: the nonrecursive body of a recursive \
                     rule splits into {components} disconnected parts"
                ),
            )
            .with_label(
                r.span(),
                format!(
                    "removing the recursive call leaves {components} unconnected subgoal groups"
                ),
            )
            .with_note(
                "condition 4 of Definition 2.4: the nonrecursive subgoals of a recursive \
                 rule must form a single connected component",
            )
            .with_note(
                "Section 5 relaxation: evaluation stays correct but disconnected parts \
                 join as cartesian products",
            )
            .with_note(fallback)
        }
    }
}

#[cfg(test)]
mod tests {
    use sepra_ast::Span;

    use crate::check_source;
    use crate::diagnostic::Diagnostic;

    fn sep_diags(src: &str) -> Vec<Diagnostic> {
        check_source("test.dl", src, None)
            .diagnostics
            .into_iter()
            .filter(|d| d.code.starts_with("SEP0"))
            .collect()
    }

    /// Byte span of the first occurrence of `needle` offset by `skip`
    /// bytes, `len` bytes long.
    fn at(src: &str, needle: &str, skip: usize, len: usize) -> Span {
        let pos = src.find(needle).unwrap() + skip;
        Span::new(pos, pos + len)
    }

    #[test]
    fn condition_1_cites_both_argument_positions() {
        let src = "t(X, Y) :- a(X, Y, W), t(Y, W).\n\
                   t(X, Y) :- t0(X, Y).\n\
                   a(m, n, o).\nt0(m, n).\n";
        let diags = sep_diags(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.code, "SEP001");
        assert!(d.message.contains("head argument 1 (`Y`)"), "{}", d.message);
        assert!(d.message.contains("argument 0 of the recursive call"), "{}", d.message);
        // Primary: the `Y` inside `t(Y, W)`. Secondary: the `Y` in the head.
        assert_eq!(d.primary_span(), Some(at(src, "t(Y, W)", 2, 1)));
        assert_eq!(d.labels[1].span, at(src, "t(X, Y)", 5, 1));
        assert!(d.notes.iter().any(|n| n.contains("condition 1 of Definition 2.4")));
    }

    #[test]
    fn condition_2_cites_both_column_sets() {
        let src = "t(X, Y) :- a(X, Y), t(W, Y).\n\
                   t(X, Y) :- t0(X, Y).\n\
                   a(m, n).\nt0(m, n).\n";
        let diags = sep_diags(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.code, "SEP002");
        assert!(d.message.contains("[0, 1]"), "{}", d.message);
        assert!(d.message.contains("recursive-call columns [1]"), "{}", d.message);
        // Primary: the whole recursive atom `t(W, Y)`.
        assert_eq!(d.primary_span(), Some(at(src, "t(W, Y)", 0, 7)));
        assert!(d.notes.iter().any(|n| n.contains("condition 2 of Definition 2.4")));
    }

    #[test]
    fn condition_3_cites_both_rules() {
        let src = "t(X, Y, Z) :- a(X, Y, U, V), t(U, V, Z).\n\
                   t(X, Y, Z) :- b(Y, W), t(X, W, Z).\n\
                   t(X, Y, Z) :- t0(X, Y, Z).\n\
                   a(m, n, o, p).\nb(n, o).\nt0(m, n, o).\n";
        let diags = sep_diags(src);
        let d = diags.iter().find(|d| d.code == "SEP003").expect("SEP003 emitted");
        assert!(d.message.contains("[0, 1]") && d.message.contains("[1]"), "{}", d.message);
        // Primary: rule 0 (the whole first line); secondary: rule 1.
        let rule0 = "t(X, Y, Z) :- a(X, Y, U, V), t(U, V, Z).";
        let rule1 = "t(X, Y, Z) :- b(Y, W), t(X, W, Z).";
        assert_eq!(d.primary_span(), Some(at(src, rule0, 0, rule0.len())));
        assert_eq!(d.labels[1].span, at(src, rule1, 0, rule1.len()));
        assert!(d.notes.iter().any(|n| n.contains("condition 3 of Definition 2.4")));
    }

    #[test]
    fn condition_4_cites_the_disconnected_rule() {
        let src = "t(X, Y) :- a(X, W), t(W, Z), b(Z, Y).\n\
                   t(X, Y) :- t0(X, Y).\n\
                   a(m, n).\nb(n, o).\nt0(m, n).\n";
        let diags = sep_diags(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.code, "SEP004");
        assert!(d.message.contains("2 disconnected parts"), "{}", d.message);
        let rule0 = "t(X, Y) :- a(X, W), t(W, Z), b(Z, Y).";
        assert_eq!(d.primary_span(), Some(at(src, rule0, 0, rule0.len())));
        assert!(d.notes.iter().any(|n| n.contains("condition 4 of Definition 2.4")));
    }

    #[test]
    fn violation_indices_survive_tautology_dropping() {
        // The tautology `t :- t` is dropped during normalization, so the
        // violating rule has normalized index 0 but source index 1; the
        // diagnostic must still point at the *second* source rule.
        let src = "t(X, Y) :- t(X, Y).\n\
                   t(X, Y) :- a(X, Y, W), t(Y, W).\n\
                   t(X, Y) :- t0(X, Y).\n\
                   a(m, n, o).\nt0(m, n).\n";
        let diags = sep_diags(src);
        let d = diags.iter().find(|d| d.code == "SEP001").expect("SEP001 emitted");
        assert_eq!(d.primary_span(), Some(at(src, "t(Y, W)", 2, 1)));
    }

    #[test]
    fn separable_programs_get_a_structure_note() {
        let src = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
                   buys(X, Y) :- perfectFor(X, Y).\n\
                   friend(m, n).\nperfectFor(n, o).\n";
        let result = check_source("buys.dl", src, None);
        let d = result.diagnostics.iter().find(|d| d.code == "SEP100").expect("SEP100 emitted");
        assert_eq!(d.severity, crate::Severity::Note);
        assert!(d.message.contains("separable recursion"), "{}", d.message);
        assert!(d.message.contains("persistent columns [1]"), "{}", d.message);
        assert!(!result.has_errors() && !result.has_warnings(), "{:?}", result.diagnostics);
    }

    #[test]
    fn out_of_class_recursion_gets_a_note() {
        let src = "t(X, Y) :- t(X, W), t(W, Y).\n\
                   t(X, Y) :- e(X, Y).\n\
                   e(m, n).\n";
        let result = check_source("nl.dl", src, None);
        let d = result.diagnostics.iter().find(|d| d.code == "SEP000").expect("SEP000 emitted");
        assert!(d.message.contains("non-linear"), "{}", d.message);
    }
}
