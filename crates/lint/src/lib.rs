//! `sepra-lint`: span-tracked static analysis and diagnostics for Datalog
//! programs.
//!
//! This crate is the analysis half of `sepra check` and the REPL's
//! `:lint`. It parses a program *without* hard validation
//! ([`sepra_ast::parse_program_raw`]), runs a registry of lint passes plus
//! the paper's separability detector over it, and renders the findings as
//! rustc-style text snippets or machine-readable JSON:
//!
//! * [`diagnostic`] — the [`Diagnostic`] model: stable codes, severities,
//!   primary/secondary labeled [`sepra_ast::Span`]s, notes;
//! * [`passes`] — the general lints (`LNT001`…`LNT009`): unsafe rules,
//!   arity inconsistencies, undefined/unused predicates, reachability,
//!   non-linear recursion, singleton variables, duplicates;
//! * [`separability`] — `SEP001`…`SEP004`, one per condition of
//!   Definition 2.4, each citing the exact rule and argument positions
//!   that break it, plus `SEP100`/`SEP000` structure notes;
//! * [`boundedness`] — `BND000`…`BND003`, reporting recursions provably
//!   equivalent to a bounded unfolding (which the engine then evaluates
//!   without a fixpoint), citing the condition and rule responsible;
//! * [`stratification`] — `STR000`…`STR002`, validating negation and
//!   aggregate use: a stratum summary when the program stratifies, and
//!   errors citing both ends of the offending cycle when it does not;
//! * [`render`] — the text renderer and the hand-rolled JSON emitter;
//! * [`source`] — [`SourceFile`], mapping byte spans to lines/columns.
//!
//! ```
//! use sepra_lint::check_source;
//!
//! let src = "t(X, Y) :- a(X, Y, W), t(Y, W).\n\
//!            t(X, Y) :- t0(X, Y).\n\
//!            a(m, n, o).\nt0(m, n).\n";
//! let result = check_source("shift.dl", src, None);
//! let sep = result.diagnostics.iter().find(|d| d.code == "SEP001").unwrap();
//! assert!(sep.message.contains("not separable"));
//! assert!(result.render_text().contains("--> shift.dl:1:"));
//! ```

pub mod boundedness;
pub mod diagnostic;
pub mod passes;
pub mod render;
pub mod separability;
pub mod source;
pub mod stratification;

use sepra_ast::{parse_program_raw, parse_query, AstError, Interner, Program, Query, Span};

pub use diagnostic::{Diagnostic, Label, Severity};
pub use passes::{registry, Pass, ProgramContext};
pub use render::{render_diagnostic_text, render_report_json, render_report_text, summary_line};
pub use source::SourceFile;

/// The outcome of checking one source file.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// The file that was checked (name + text, for rendering).
    pub file: SourceFile,
    /// The findings, sorted by source position.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckResult {
    /// Renders the full report as rustc-style text.
    pub fn render_text(&self) -> String {
        render_report_text(&self.diagnostics, &self.file)
    }

    /// Renders the full report as JSON (see [`render_report_json`] for the
    /// schema).
    pub fn render_json(&self) -> String {
        render_report_json(&self.diagnostics, &self.file)
    }

    /// Number of diagnostics at a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// Whether any error-severity diagnostic was produced.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Whether any warning-severity diagnostic was produced.
    pub fn has_warnings(&self) -> bool {
        self.count(Severity::Warning) > 0
    }

    /// The process exit code `sepra check` should use: nonzero on errors,
    /// or on warnings when `deny_warnings` is set.
    pub fn exit_code(&self, deny_warnings: bool) -> i32 {
        i32::from(self.has_errors() || (deny_warnings && self.has_warnings()))
    }
}

/// Checks a program given as source text, optionally relative to a query
/// (`buys(tom, Y)?` syntax).
///
/// Parse failures yield a single `LNT000` diagnostic carrying the full
/// error span; otherwise every registered pass runs and the results are
/// sorted by source position.
pub fn check_source(name: &str, src: &str, query: Option<&str>) -> CheckResult {
    let file = SourceFile::new(name, src);
    let mut interner = Interner::new();
    let mut diagnostics = Vec::new();
    let program = match parse_program_raw(src, &mut interner) {
        Ok(program) => program,
        Err(e) => {
            diagnostics.push(parse_error_diagnostic(&e));
            return CheckResult { file, diagnostics };
        }
    };
    let query = query.and_then(|q| match parse_query(q, &mut interner) {
        Ok(query) => Some(query),
        Err(e) => {
            diagnostics.push(
                Diagnostic::error("LNT000", format!("invalid query `{q}`: {e}"))
                    .with_note("queries are written `pred(args)?` or `?- pred(args).`"),
            );
            None
        }
    });
    diagnostics.extend(check_program(&program, query.as_ref(), &mut interner));
    diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    CheckResult { file, diagnostics }
}

/// Runs every registered pass over an already-parsed program. The result
/// is unsorted; [`check_source`] is the usual entry point.
pub fn check_program(
    program: &Program,
    query: Option<&Query>,
    interner: &mut Interner,
) -> Vec<Diagnostic> {
    let graph = sepra_ast::DependencyGraph::build(program);
    let ctx = ProgramContext { program, graph: &graph, query };
    let mut out = Vec::new();
    for pass in registry() {
        pass.run(&ctx, interner, &mut out);
    }
    out
}

/// Converts a frontend error into an `LNT000` diagnostic with its span.
pub fn parse_error_diagnostic(e: &AstError) -> Diagnostic {
    let message = match e {
        AstError::Parse { msg, .. } => format!("syntax error: {msg}"),
        other => other.to_string(),
    };
    let diag = Diagnostic::error("LNT000", message);
    match e.span() {
        Some(span) => diag.with_label(span, "here"),
        None => diag.with_label(Span::DUMMY, "no source location"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_become_lnt000_with_spans() {
        let result = check_source("bad.dl", "p(X :- q(X).\n", None);
        assert_eq!(result.diagnostics.len(), 1);
        let d = &result.diagnostics[0];
        assert_eq!(d.code, "LNT000");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.primary_span().is_some(), "{d:?}");
        assert_eq!(result.exit_code(false), 1);
        let text = result.render_text();
        assert!(text.contains("--> bad.dl:1:"), "{text}");
        assert!(text.contains('^'), "{text}");
    }

    #[test]
    fn invalid_queries_are_reported_not_fatal() {
        let result = check_source("ok.dl", "e(a, b).\n", Some("e(a,"));
        assert!(result.diagnostics.iter().any(|d| d.code == "LNT000"), "{:?}", result.diagnostics);
        // The program itself is still analyzed (e is defined and... unused).
        assert!(result.diagnostics.iter().any(|d| d.code == "LNT004"));
    }

    #[test]
    fn diagnostics_are_sorted_by_source_position() {
        let src = "p(X) :- e(X, Lone).\nq(Y) :- e(Y, Solo).\ne(a, b).\n";
        let result = check_source("s.dl", src, None);
        let singles: Vec<u32> = result
            .diagnostics
            .iter()
            .filter(|d| d.code == "LNT007")
            .map(|d| d.primary_span().unwrap().start)
            .collect();
        assert_eq!(singles.len(), 2);
        assert!(singles[0] < singles[1]);
    }

    #[test]
    fn exit_code_honours_deny_warnings() {
        let result = check_source("w.dl", "p(X) :- e(X, Lone).\ne(a, b).\n", None);
        assert!(result.has_warnings() && !result.has_errors());
        assert_eq!(result.exit_code(false), 0);
        assert_eq!(result.exit_code(true), 1);
    }

    #[test]
    fn clean_file_renders_no_diagnostics() {
        let result = check_source("c.dl", "e(a, b).\np(X, Y) :- e(X, Y).\n", Some("p(a, Y)?"));
        assert_eq!(result.count(Severity::Error), 0);
        assert_eq!(result.count(Severity::Warning), 0);
        assert!(
            result.render_text().ends_with("c.dl: no diagnostics\n"),
            "{}",
            result.render_text()
        );
    }

    #[test]
    fn json_report_is_emitted_for_errors_too() {
        let result = check_source("bad.dl", "p(X :- q(X).\n", None);
        let json = result.render_json();
        assert!(json.contains("\"code\": \"LNT000\""), "{json}");
        assert!(json.contains("\"summary\": { \"errors\": 1, \"warnings\": 0, \"notes\": 0 }"));
    }
}
