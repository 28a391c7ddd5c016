//! Stratification diagnostics (`STR0xx`): negation and aggregation.
//!
//! Programs using negated literals (`!p(X)`) or aggregate heads
//! (`shortest(X, min<C>) :- ...`) only have a meaning when they stratify:
//! every negated or aggregated predicate must be fully computed in a
//! strictly lower stratum than the rules reading it (with the sanctioned
//! exception of `min`/`max` direct self-recursion). The pass stratifies
//! the program through the dependency graph every pass shares
//! ([`DependencyGraph::stratify`](sepra_ast::DependencyGraph::stratify))
//! and reports:
//!
//! | code   | severity | meaning                                             |
//! |--------|----------|-----------------------------------------------------|
//! | STR000 | note     | program stratifies — summary of the strata          |
//! | STR001 | error    | negation inside a dependency cycle                  |
//! | STR002 | error    | aggregate the recursion cannot support, or rules    |
//! |        |          | disagreeing on a head's aggregate annotation        |
//!
//! Pure positive programs stay silent — stratification is vacuous there.
//! The errors cite *both* ends of the offending cycle: the rule containing
//! the negation/aggregate and a rule on the dependency path that closes
//! the loop. The same analysis guards evaluation: an unstratifiable
//! program is refused by every engine with `EvalError::Unstratifiable`, so
//! an `STR` error here means the program will not run at all.

use sepra_ast::analysis::{StratError, Stratification};
use sepra_ast::{Interner, Scope, Span};

use crate::diagnostic::Diagnostic;
use crate::passes::{Pass, ProgramContext};

/// The stratification pass. See the module docs for the codes it emits.
pub struct StratificationPass;

impl Pass for StratificationPass {
    fn name(&self) -> &'static str {
        "stratification"
    }

    fn run(&self, ctx: &ProgramContext<'_>, interner: &mut Interner, out: &mut Vec<Diagnostic>) {
        let own = |p| ctx.graph.scope(p) == Scope::StratifiedComponent;
        if !ctx.program.rules.iter().any(|r| own(r.head.pred)) {
            return;
        }
        match ctx.graph.stratify() {
            Ok(strat) => out.push(summary(ctx, interner, &strat)),
            Err(err) => out.push(error(&err, interner)),
        }
    }
}

/// STR000: the program stratifies; summarize the levels.
fn summary(ctx: &ProgramContext<'_>, interner: &Interner, strat: &Stratification) -> Diagnostic {
    let n = strat.len();
    let mut diag = Diagnostic::note(
        "STR000",
        format!(
            "stratified program: {n} {}; negation and aggregation read \
             only completed lower strata",
            if n == 1 { "stratum" } else { "strata" }
        ),
    )
    .with_label(first_boundary_site(ctx), "first stratum boundary introduced here");
    for (level, preds) in strat.strata.iter().enumerate() {
        let names: Vec<String> =
            preds.iter().map(|&p| format!("`{}`", interner.resolve(p))).collect();
        diag = diag.with_note(format!("stratum {level}: {}", names.join(", ")));
    }
    diag
}

/// The source-earliest negated atom or aggregate annotation.
fn first_boundary_site(ctx: &ProgramContext<'_>) -> Span {
    let mut best: Option<Span> = None;
    for rule in &ctx.program.rules {
        let mut consider = |span: Span| {
            if best.is_none_or(|b| span.start < b.start) {
                best = Some(span);
            }
        };
        if let Some(spec) = &rule.agg {
            consider(spec.span);
        }
        for atom in rule.negated_atoms() {
            consider(atom.span);
        }
    }
    best.unwrap_or(Span::DUMMY)
}

/// STR001/STR002: the program does not stratify; cite both offending rules.
fn error(err: &StratError, interner: &Interner) -> Diagnostic {
    match err {
        StratError::NegationInCycle { head, negated, site_span, back_span, .. } => {
            let head = interner.resolve(*head).to_string();
            let neg = interner.resolve(*negated).to_string();
            Diagnostic::error(
                "STR001",
                format!("unstratifiable negation: `{head}` negates `{neg}`, but `{neg}` depends on `{head}`"),
            )
            .with_label(*site_span, format!("`{neg}` is negated here"))
            .with_secondary(*back_span, format!("...and `{neg}` reaches `{head}` again through this rule"))
            .with_note(format!("dependency cycle: {}", err.cycle_text(interner)))
            .with_note("a negated predicate must be fully computed in a strictly lower stratum")
        }
        StratError::AggregateInCycle { head, func, site_span, back_span, .. } => {
            let head = interner.resolve(*head).to_string();
            Diagnostic::error(
                "STR002",
                format!(
                    "unsupported recursive aggregate: `{head}` aggregates with `{}` inside a dependency cycle",
                    func.keyword()
                ),
            )
            .with_label(*site_span, "this aggregate participates in the cycle")
            .with_secondary(*back_span, "...which closes through this rule")
            .with_note(format!("dependency cycle: {}", err.cycle_text(interner)))
            .with_note(
                "only `min`/`max` keep least-fixpoint semantics under recursion, and only \
                 reading their own head back directly; `count`/`sum` must sit in a \
                 non-recursive stratum",
            )
        }
        StratError::MixedAggregate { head, site_span, back_span, .. } => {
            let head = interner.resolve(*head).to_string();
            Diagnostic::error(
                "STR002",
                format!("the rules defining `{head}` disagree on its aggregate annotation"),
            )
            .with_label(*site_span, "this rule disagrees...")
            .with_secondary(*back_span, "...with the annotation this rule fixed")
            .with_note(
                "every proper rule for an aggregate head must carry the same `func<Var>`; \
                 facts are exempt (they contribute like EDB tuples)",
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use sepra_ast::Span;

    use crate::check_source;
    use crate::diagnostic::Diagnostic;

    fn str_diags(src: &str) -> Vec<Diagnostic> {
        check_source("test.dl", src, None)
            .diagnostics
            .into_iter()
            .filter(|d| d.code.starts_with("STR"))
            .collect()
    }

    /// Byte span of the first occurrence of `needle`.
    fn at(src: &str, needle: &str) -> Span {
        let pos = src.find(needle).unwrap();
        Span::new(pos, pos + needle.len())
    }

    #[test]
    fn pure_positive_programs_stay_silent() {
        let src = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\ne(m, n).\n";
        assert!(str_diags(src).is_empty());
    }

    #[test]
    fn stratified_negation_gets_a_summary_note() {
        let src = "t(X, Y) :- e(X, Y).\n\
                   t(X, Y) :- e(X, W), t(W, Y).\n\
                   unreach(X, Y) :- node(X), node(Y), !t(X, Y).\n\
                   e(m, n).\nnode(m).\nnode(n).\n";
        let diags = str_diags(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.code, "STR000");
        assert_eq!(d.severity, crate::Severity::Note);
        assert!(d.message.contains("2 strata"), "{}", d.message);
        // The site is the negated atom itself, just past the `!`.
        let bang = src.find("!t(X, Y)").unwrap() + 1;
        assert_eq!(d.primary_span(), Some(Span::new(bang, bang + "t(X, Y)".len())));
        assert!(d.notes.iter().any(|n| n.contains("stratum 1: `unreach`")), "{d:?}");
    }

    #[test]
    fn min_self_recursion_is_sanctioned() {
        let src = "shortest(Y, min<C>) :- source(X), w(X, Y, C).\n\
                   shortest(Y, min<C>) :- shortest(X, D), w(X, Y, W2), C = D + W2.\n\
                   source(a).\nw(a, b, 1).\n";
        let diags = str_diags(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "STR000");
    }

    #[test]
    fn negation_in_cycle_cites_both_rules() {
        let src = "p(X) :- a(X), !q(X).\nq(X) :- b(X), p(X).\na(m).\nb(m).\n";
        let diags = str_diags(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.code, "STR001");
        assert_eq!(d.severity, crate::Severity::Error);
        assert!(d.message.contains("`p` negates `q`"), "{}", d.message);
        assert_eq!(d.primary_span(), Some(at(src, "q(X)")));
        assert_eq!(d.labels[1].span, at(src, "q(X) :- b(X), p(X)."));
        assert!(d.notes.iter().any(|n| n.contains("p -> q -> p")), "{d:?}");
    }

    #[test]
    fn count_in_recursion_is_an_error() {
        let src = "reach(X, count<C>) :- reach(Y, C), e(Y, X).\ne(m, n).\n";
        let diags = str_diags(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.code, "STR002");
        assert!(d.message.contains("`count`"), "{}", d.message);
        assert_eq!(d.primary_span(), Some(at(src, "count<C>")));
    }

    #[test]
    fn mixed_aggregate_annotations_are_an_error() {
        let src = "best(X, min<C>) :- w(X, C).\nbest(X, max<C>) :- v(X, C).\nw(a, 1).\nv(a, 2).\n";
        let diags = str_diags(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.code, "STR002");
        assert!(d.message.contains("disagree"), "{}", d.message);
        assert_eq!(d.primary_span(), Some(at(src, "max<C>")));
        assert_eq!(d.labels[1].span, at(src, "best(X, min<C>) :- w(X, C)."));
    }
}
