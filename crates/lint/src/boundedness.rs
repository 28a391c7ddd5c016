//! Boundedness diagnostics (`BND0xx`): recursions that need no fixpoint.
//!
//! For every recursive predicate the pass runs the boundedness analysis
//! ([`sepra_core::bounded`]) and, when a sufficient condition proves the
//! recursion equivalent to a nonrecursive program, reports which condition
//! fired against which source rule:
//!
//! | code   | severity | meaning                                              |
//! |--------|----------|------------------------------------------------------|
//! | BND000 | note     | bounded — equivalent to `k` unfoldings, no fixpoint  |
//! | BND001 | warning  | vacuous recursive call (equals the head after        |
//! |        |          | constant propagation, or unsatisfiable body)         |
//! | BND002 | warning  | recursive rule θ-subsumed by an exit rule            |
//! | BND003 | note     | rule stabilizes through the unfolding chain          |
//!
//! Predicates the analysis cannot prove bounded stay silent — boundedness
//! is undecidable, so the absence of a `BND` code never means "unbounded".
//! The analysis works on the definition's *source* rules directly (no
//! rectification or expansion happens first), so
//! [`sepra_core::bounded::BoundedRecursion::statuses`] indexes
//! [`RecursiveDef::recursive_rules`](sepra_ast::RecursiveDef::recursive_rules) one-to-one and every span below
//! points into the file the user wrote — the `source_indices` mapping the
//! SEP codes need is the identity here.
//!
//! The engine consumes the same verdict: a bounded predicate's queries are
//! answered by the nonrecursive rewrite with zero fixpoint iterations
//! (`--explain` shows `bounded(k)`).

use sepra_ast::Interner;
use sepra_core::bounded::{analyze, RuleStatus};

use crate::diagnostic::Diagnostic;
use crate::passes::{Pass, ProgramContext};

/// The boundedness pass. See the module docs for the codes it emits.
pub struct Boundedness;

impl Pass for Boundedness {
    fn name(&self) -> &'static str {
        "boundedness"
    }

    fn run(&self, ctx: &ProgramContext<'_>, interner: &mut Interner, out: &mut Vec<Diagnostic>) {
        for info in ctx.graph.classify(ctx.program) {
            if !info.is_recursive {
                continue;
            }
            // Out-of-class recursion (mutual, non-linear, no exit rule) is
            // already explained by SEP000; boundedness needs the same
            // linear shape, so stay silent here.
            let Ok(def) = ctx.graph.recursive_def(ctx.program, info.pred, interner) else {
                continue;
            };
            let Some(bounded) = analyze(&def, interner) else {
                continue;
            };
            let name = interner.resolve(info.pred).to_string();

            let mut summary = Diagnostic::note(
                "BND000",
                format!(
                    "`{name}` is a bounded recursion: every derivation needs at most \
                     {} recursive step(s)",
                    bounded.depth
                ),
            )
            .with_label(
                def.recursive_rules[0].span(),
                format!("equivalent to {} nonrecursive rule(s)", bounded.rules.len()),
            )
            .with_note(format!(
                "the engine answers `{name}` queries with the unfolded rewrite — \
                 zero fixpoint iterations (`bounded({})` under --explain)",
                bounded.depth
            ));
            if bounded.depth > 0 {
                summary = summary.with_note(format!(
                    "unfolding the recursive rules stabilizes at depth {}: every deeper \
                     resolvent is θ-subsumed by a shallower rule",
                    bounded.depth
                ));
            }
            out.push(summary);

            for (i, status) in bounded.statuses.iter().enumerate() {
                let rule = &def.recursive_rules[i];
                match status {
                    RuleStatus::Vacuous => {
                        out.push(
                            Diagnostic::warning(
                                "BND001",
                                format!(
                                    "vacuous recursive call: this `{name}` rule can only \
                                     rederive facts it consumed"
                                ),
                            )
                            .with_label(
                                rule.span(),
                                "the recursive subgoal equals the head (after constant \
                                 propagation), or the body is unsatisfiable",
                            )
                            .with_note(
                                "the rule derives nothing new at any fixpoint depth and is \
                                 dropped by the bounded rewrite",
                            ),
                        );
                    }
                    RuleStatus::ExitSubsumed(e) => {
                        out.push(
                            Diagnostic::warning(
                                "BND002",
                                format!(
                                    "redundant recursive rule: an exit rule of `{name}` \
                                     θ-subsumes it"
                                ),
                            )
                            .with_label(rule.span(), "every fact this rule derives...")
                            .with_secondary(
                                def.exit_rules[*e].span(),
                                "...this nonrecursive rule already derives",
                            )
                            .with_note(
                                "the exit rule's body maps into this rule's body with the \
                                 same head, so the recursion adds no facts",
                            ),
                        );
                    }
                    RuleStatus::Unfolded => {
                        out.push(
                            Diagnostic::note(
                                "BND003",
                                format!(
                                    "this `{name}` rule stabilizes at unfolding depth {}",
                                    bounded.depth
                                ),
                            )
                            .with_label(
                                rule.span(),
                                format!(
                                    "resolving the recursive subgoal {} time(s) against the \
                                     exit rules covers every derivation",
                                    bounded.depth
                                ),
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use sepra_ast::Span;

    use crate::check_source;
    use crate::diagnostic::Diagnostic;

    fn bnd_diags(src: &str) -> Vec<Diagnostic> {
        check_source("test.dl", src, None)
            .diagnostics
            .into_iter()
            .filter(|d| d.code.starts_with("BND"))
            .collect()
    }

    /// Byte span of the first occurrence of `needle` offset by `skip`
    /// bytes, `len` bytes long.
    fn at(src: &str, needle: &str, skip: usize, len: usize) -> Span {
        let pos = src.find(needle).unwrap() + skip;
        Span::new(pos, pos + len)
    }

    #[test]
    fn vacuous_rule_gets_summary_and_warning() {
        let src = "t(X, Y) :- e(X, Y), t(X, Y).\n\
                   t(X, Y) :- t0(X, Y).\n\
                   e(m, n).\nt0(m, n).\n";
        let diags = bnd_diags(src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        let summary = &diags[0];
        assert_eq!(summary.code, "BND000");
        assert!(summary.message.contains("at most 0 recursive step(s)"), "{}", summary.message);
        let vac = diags.iter().find(|d| d.code == "BND001").expect("BND001 emitted");
        let rule0 = "t(X, Y) :- e(X, Y), t(X, Y).";
        assert_eq!(vac.primary_span(), Some(at(src, rule0, 0, rule0.len())));
        assert_eq!(vac.severity, crate::Severity::Warning);
    }

    #[test]
    fn exit_subsumption_cites_both_rules() {
        let src = "t(X, Y) :- e(X, Y), t(Y, X).\n\
                   t(X, Y) :- e(X, Y).\n\
                   e(m, n).\n";
        let diags = bnd_diags(src);
        let d = diags.iter().find(|d| d.code == "BND002").expect("BND002 emitted");
        let rec = "t(X, Y) :- e(X, Y), t(Y, X).";
        let exit = "t(X, Y) :- e(X, Y).";
        assert_eq!(d.primary_span(), Some(at(src, rec, 0, rec.len())));
        assert_eq!(d.labels[1].span, at(src, exit, 0, exit.len()));
    }

    #[test]
    fn stabilizing_chain_reports_its_depth() {
        let src = "t(X, Y) :- sym(X, Y), t(Y, X).\n\
                   t(X, Y) :- base(X, Y).\n\
                   sym(m, n).\nbase(n, m).\n";
        let diags = bnd_diags(src);
        let summary = diags.iter().find(|d| d.code == "BND000").expect("BND000 emitted");
        assert!(summary.message.contains("at most 1 recursive step(s)"), "{}", summary.message);
        let chain = diags.iter().find(|d| d.code == "BND003").expect("BND003 emitted");
        let rec = "t(X, Y) :- sym(X, Y), t(Y, X).";
        assert_eq!(chain.primary_span(), Some(at(src, rec, 0, rec.len())));
        assert_eq!(chain.severity, crate::Severity::Note);
    }

    #[test]
    fn unbounded_recursions_stay_silent() {
        for src in [
            "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\ne(m, n).\n",
            "sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n\
             flat(m, n).\nup(m, n).\ndown(n, m).\n",
        ] {
            let diags = bnd_diags(src);
            assert!(diags.is_empty(), "no BND codes expected:\n{src}\n{diags:?}");
        }
    }

    #[test]
    fn out_of_class_recursion_stays_silent() {
        // Non-linear: SEP000 territory, not ours.
        let src = "t(X, Y) :- t(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\ne(m, n).\n";
        assert!(bnd_diags(src).is_empty());
    }
}
