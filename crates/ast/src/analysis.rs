//! Program analysis: the predicate dependency graph, its strongly
//! connected components, stratification, and extraction of the paper's
//! assumed program shape.
//!
//! Section 2 of the paper considers a recursive predicate `t` defined by one
//! or more *linear* recursive rules plus nonrecursive (exit) rules, where the
//! other predicates do not depend on `t`. [`DependencyGraph::recursive_def`]
//! validates exactly these assumptions for a given predicate.
//!
//! Pure positive Datalog needs only a dependency *order*: the components of
//! the graph, callees first ([`DependencyGraph::strata`]). Negation and
//! aggregation additionally need a *stratification*: a level assignment in
//! which a negated or aggregated predicate is fully computed in a strictly
//! lower stratum than every rule that reads it through the negation or
//! aggregate, so the fixpoint never retracts what a higher stratum already
//! consumed. Every edge of the graph carries a [`Polarity`], and
//! [`DependencyGraph::stratify`] is a pass over the same components: it
//! either assigns levels (longest path over the condensation, bumping across
//! negative and aggregate boundaries) or produces a cycle witness naming both
//! offending rules. Monotonic aggregates follow Zaniolo et al. ("Fixpoint
//! Semantics and Optimization of Recursive Datalog Programs with
//! Aggregates"): `min`/`max` retain least-fixpoint semantics inside a
//! self-recursion, so a predicate may read *itself* through `min`/`max`;
//! `count`/`sum` grow with every contribution and are confined to
//! non-recursive strata.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::error::AstError;
use crate::program::Program;
use crate::rule::{AggFunc, Rule};
use crate::span::Span;
use crate::symbol::{Interner, Sym};

/// Classification of a predicate within a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateInfo {
    /// The predicate.
    pub pred: Sym,
    /// Its arity.
    pub arity: usize,
    /// Whether it appears in some rule head (IDB) — facts do not count as
    /// rule heads for this purpose unless the predicate also heads a proper
    /// rule.
    pub is_idb: bool,
    /// Whether it is recursive (reaches itself in the dependency graph).
    pub is_recursive: bool,
}

/// How a rule body reaches a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// A plain positive atom.
    Positive,
    /// A negated atom (`!p(...)`).
    Negative,
    /// A positive atom read by a rule whose head aggregates with `AggFunc`.
    Aggregate(AggFunc),
}

impl Polarity {
    /// Whether crossing this edge forces a stratum boundary.
    fn is_boundary(self) -> bool {
        !matches!(self, Polarity::Positive)
    }
}

/// Where negation and aggregation sit relative to a predicate — what
/// [`DependencyGraph::scope`] reads off the graph, and what decides which
/// evaluation strategies may answer a query on the predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// No rule of the predicate's cone negates or aggregates.
    PositiveCone,
    /// The predicate's own component is positive, but a component below it
    /// negates or aggregates: the lower strata are relations to read.
    StrataBelow,
    /// A rule of the predicate's own component negates or aggregates.
    StratifiedComponent,
}

/// One labelled dependency edge: the head predicate of a rule reads `to`.
#[derive(Debug, Clone)]
struct Edge {
    from: usize,
    to: usize,
    polarity: Polarity,
    /// Span of the whole rule this edge comes from.
    rule_span: Span,
    /// Span of the body atom (for `Negative`) or of the aggregate
    /// annotation (for `Aggregate`); the rule span otherwise.
    site_span: Span,
}

/// The predicate dependency graph of a program: an edge `p -> q` exists when
/// `q` appears, positively or negated, in the body of a rule whose head is
/// `p`.
#[derive(Debug, Clone)]
pub struct DependencyGraph {
    preds: Vec<Sym>,
    index: BTreeMap<Sym, usize>,
    /// Every edge, once per body occurrence: rules in program order, within
    /// a rule its body atoms and then its negated atoms.
    edges: Vec<Edge>,
    /// For each node, its outgoing edges (indices into `edges`) in that
    /// order.
    out: Vec<Vec<usize>>,
    /// For each node, its strongly connected component.
    scc_of: Vec<usize>,
    /// The components' members by ascending node, numbered in reverse
    /// topological order (callees before callers).
    components: Vec<Vec<usize>>,
    /// For each component, where negation and aggregation sit.
    scopes: Vec<Scope>,
    /// Why the program does not stratify, if it does not.
    refusal: Option<StratError>,
}

impl DependencyGraph {
    /// Builds the dependency graph of `program`.
    pub fn build(program: &Program) -> Self {
        let mut preds = Vec::new();
        let mut index = BTreeMap::new();
        let mut node = |p: Sym| {
            *index.entry(p).or_insert_with(|| {
                preds.push(p);
                preds.len() - 1
            })
        };
        let mut edges = Vec::new();
        // Heads with a rule that negates or aggregates (an aggregate rule
        // whose body has no atom records no edge).
        let mut stratified = Vec::new();
        // Aggregate annotations must agree across every proper rule of a
        // head: evaluation keeps exactly one stored tuple per group, so two
        // rules pulling in different directions have no coherent reading.
        // (Facts are contributions, like EDB tuples, and carry no
        // annotation anyway.)
        let mut first_of: BTreeMap<Sym, &Rule> = BTreeMap::new();
        let mut refusal = None;
        for rule in &program.rules {
            let (from, rule_span) = (node(rule.head.pred), rule.span());
            if rule.agg.is_some() || rule.negated_atoms().next().is_some() {
                stratified.push(from);
            }
            let first = (!rule.is_fact()).then(|| *first_of.entry(rule.head.pred).or_insert(rule));
            if let Some(first) = first.filter(|first| first.agg != rule.agg && refusal.is_none()) {
                refusal = Some(StratError::MixedAggregate {
                    head: rule.head.pred,
                    rule_span,
                    site_span: rule.agg.as_ref().map_or(rule_span, |a| a.span),
                    back_span: first.span(),
                });
            }
            let (polarity, site_span) = match &rule.agg {
                Some(spec) => (Polarity::Aggregate(spec.func), spec.span),
                None => (Polarity::Positive, rule_span),
            };
            for atom in rule.body_atoms() {
                let to = node(atom.pred);
                edges.push(Edge { from, to, polarity, rule_span, site_span });
            }
            // Negated atoms are dependencies too: their predicate must be
            // complete before the head's component runs.
            for atom in rule.negated_atoms() {
                let (to, polarity) = (node(atom.pred), Polarity::Negative);
                edges.push(Edge { from, to, polarity, rule_span, site_span: atom.span });
            }
        }
        let mut out = vec![Vec::new(); preds.len()];
        for (i, e) in edges.iter().enumerate() {
            out[e.from].push(i);
        }
        // Tarjan visits each node's distinct successors in ascending order,
        // which fixes how independent components are numbered.
        let succ: Vec<Vec<usize>> = out
            .iter()
            .map(|es| {
                es.iter().map(|&i| edges[i].to).collect::<BTreeSet<_>>().into_iter().collect()
            })
            .collect();
        let scc_of = tarjan(&succ);
        let mut components = vec![Vec::new(); scc_of.iter().max().map_or(0, |&c| c + 1)];
        for (i, &c) in scc_of.iter().enumerate() {
            components[c].push(i);
        }
        let mut own = vec![false; components.len()];
        for n in stratified {
            own[scc_of[n]] = true;
        }
        // Components are numbered callees first, so one forward sweep sees
        // the scope of every component a component reads.
        let mut scopes = Vec::with_capacity(components.len());
        for (c, members) in components.iter().enumerate() {
            let below = members.iter().flat_map(|&n| &out[n]).map(|&e| scc_of[edges[e].to]);
            scopes.push(if own[c] {
                Scope::StratifiedComponent
            } else if below.filter(|&to| to != c).any(|to| scopes[to] != Scope::PositiveCone) {
                Scope::StrataBelow
            } else {
                Scope::PositiveCone
            });
        }
        let mut graph =
            DependencyGraph { preds, index, edges, out, scc_of, components, scopes, refusal };
        graph.refusal = graph.refusal.take().or_else(|| graph.cycle_refusal());
        graph
    }

    /// The cone below `roots`: the roots and every predicate they read,
    /// directly or transitively, positively or not. Roots outside the
    /// graph are left out.
    pub fn cone(&self, roots: impl IntoIterator<Item = Sym>) -> BTreeSet<Sym> {
        let mut seen = vec![false; self.preds.len()];
        let mut stack: Vec<usize> =
            roots.into_iter().filter_map(|p| self.index.get(&p)).copied().collect();
        while let Some(n) = stack.pop() {
            if !std::mem::replace(&mut seen[n], true) {
                stack.extend(self.out[n].iter().map(|&e| self.edges[e].to));
            }
        }
        self.preds.iter().zip(seen).filter_map(|(&p, seen)| seen.then_some(p)).collect()
    }

    /// Where negation and aggregation sit relative to `p`: nowhere in its
    /// cone, only in components below its own, or in its own component —
    /// as for every predicate of a program that does not stratify. A
    /// predicate outside the graph has a positive cone.
    pub fn scope(&self, p: Sym) -> Scope {
        self.index.get(&p).map_or(Scope::PositiveCone, |&pi| match self.refusal {
            Some(_) => Scope::StratifiedComponent,
            None => self.scopes[self.scc_of[pi]],
        })
    }

    /// Whether `p` is recursive: its component has another member, or it
    /// reads itself directly.
    pub fn is_recursive(&self, p: Sym) -> bool {
        self.index.get(&p).is_some_and(|&pi| {
            self.components[self.scc_of[pi]].len() > 1
                || self.out[pi].iter().any(|&e| self.edges[e].to == pi)
        })
    }

    /// Groups predicates into strongly connected components, returned in
    /// dependency order (a component only depends on earlier components).
    /// This is the evaluation order used by the bottom-up engine.
    pub fn strata(&self) -> Vec<Vec<Sym>> {
        let names = |c: &Vec<usize>| c.iter().map(|&i| self.preds[i]).collect();
        self.components.iter().map(names).collect()
    }

    /// Classifies every predicate of `program`.
    pub fn classify(&self, program: &Program) -> Vec<PredicateInfo> {
        let mut arities: BTreeMap<Sym, usize> = BTreeMap::new();
        let mut idb: BTreeSet<Sym> = BTreeSet::new();
        for rule in &program.rules {
            arities.entry(rule.head.pred).or_insert_with(|| rule.head.arity());
            if !rule.is_fact() {
                idb.insert(rule.head.pred);
            }
            for atom in rule.body_atoms().chain(rule.negated_atoms()) {
                arities.entry(atom.pred).or_insert_with(|| atom.arity());
            }
        }
        self.preds
            .iter()
            .map(|&p| PredicateInfo {
                pred: p,
                arity: arities.get(&p).copied().unwrap_or(0),
                is_idb: idb.contains(&p),
                is_recursive: self.is_recursive(p),
            })
            .collect()
    }

    /// Why the program this graph was built from does not stratify, if it
    /// does not: found when the graph is built, with no levels computed.
    pub fn refusal(&self) -> Option<&StratError> {
        self.refusal.as_ref()
    }

    /// Stratifies the program this graph was built from, or explains why
    /// it cannot be stratified.
    ///
    /// The returned strata are *levels*, not evaluation units: evaluation
    /// still proceeds component by component ([`DependencyGraph::strata`]),
    /// but every component lies entirely within one level,
    /// negated/aggregated predicates lie in strictly lower levels than
    /// their readers (except the sanctioned `min`/`max` self-recursion),
    /// and the level of a predicate only depends on predicates at its own
    /// or lower levels.
    pub fn stratify(&self) -> Result<Stratification, StratError> {
        if let Some(refusal) = self.refusal() {
            return Err(refusal.clone());
        }
        // Levels: the longest path over the condensation. Components are
        // numbered callees first, so one forward sweep sees every dependency
        // resolved.
        let mut level = vec![0usize; self.components.len()];
        for (scc, members) in self.components.iter().enumerate() {
            for edge in members.iter().flat_map(|&n| &self.out[n]).map(|&e| &self.edges[e]) {
                let to = self.scc_of[edge.to];
                if to != scc {
                    let wanted = level[to] + usize::from(edge.polarity.is_boundary());
                    level[scc] = level[scc].max(wanted);
                }
            }
        }
        let stratum_of: BTreeMap<Sym, usize> =
            self.preds.iter().enumerate().map(|(i, &p)| (p, level[self.scc_of[i]])).collect();
        let mut strata = vec![Vec::new(); level.iter().max().map_or(0, |&l| l + 1)];
        for &p in &self.preds {
            strata[stratum_of[&p]].push(p);
        }
        Ok(Stratification { stratum_of, strata })
    }

    /// The first negation or aggregate that closes a cycle, other than a
    /// `min`/`max` self-recursion.
    fn cycle_refusal(&self) -> Option<StratError> {
        for edge in &self.edges {
            let scc = self.scc_of[edge.from];
            if !edge.polarity.is_boundary() || scc != self.scc_of[edge.to] {
                continue;
            }
            // `min`/`max` may close a *direct* self-recursion: the component
            // is the head predicate alone, reading itself through the
            // aggregate.
            if let Polarity::Aggregate(func) = edge.polarity {
                if func.monotonic_in_recursion() && self.components[scc].len() == 1 {
                    continue;
                }
            }
            let (back_span, cycle) = self.cycle_witness(edge);
            let (head, rule_span, site_span) =
                (self.preds[edge.from], edge.rule_span, edge.site_span);
            return Some(match edge.polarity {
                Polarity::Negative => StratError::NegationInCycle {
                    head,
                    negated: self.preds[edge.to],
                    rule_span,
                    site_span,
                    back_span,
                    cycle,
                },
                Polarity::Aggregate(func) => StratError::AggregateInCycle {
                    head,
                    func,
                    rule_span,
                    site_span,
                    back_span,
                    cycle,
                },
                Polarity::Positive => unreachable!("positive edges are never boundaries"),
            });
        }
        None
    }

    /// Finds a dependency path from `edge.to` back to `edge.from` inside
    /// their shared component (breadth first, edges in graph order),
    /// returning the span of the first rule on that path and the predicate
    /// cycle starting at `edge.from`. A self-loop (the rule negates or
    /// aggregates its own head) cites the offending rule itself.
    fn cycle_witness(&self, edge: &Edge) -> (Span, Vec<Sym>) {
        if edge.from == edge.to {
            return (edge.rule_span, vec![self.preds[edge.from]]);
        }
        let scc = self.scc_of[edge.from];
        // The edge that discovered each node.
        let mut prev: Vec<Option<usize>> = vec![None; self.preds.len()];
        let mut seen = vec![false; self.preds.len()];
        seen[edge.to] = true;
        let mut queue = VecDeque::from([edge.to]);
        while let Some(node) = queue.pop_front() {
            if node == edge.from {
                break;
            }
            for &ei in &self.out[node] {
                let to = self.edges[ei].to;
                if self.scc_of[to] == scc && !std::mem::replace(&mut seen[to], true) {
                    prev[to] = Some(ei);
                    queue.push_back(to);
                }
            }
        }
        // Walk back from edge.from to edge.to collecting the path.
        let mut path = Vec::new();
        let mut node = edge.from;
        while let Some(ei) = prev[node].filter(|_| node != edge.to) {
            path.push(ei);
            node = self.edges[ei].from;
        }
        path.reverse();
        let back_span = path.first().map_or(edge.rule_span, |&ei| self.edges[ei].rule_span);
        let mut cycle = vec![self.preds[edge.from], self.preds[edge.to]];
        for &ei in &path {
            let p = self.preds[self.edges[ei].to];
            if cycle.last() != Some(&p) && cycle[0] != p {
                cycle.push(p);
            }
        }
        (back_span, cycle)
    }

    /// Extracts and validates the definition of `pred` from `program` (the
    /// program this graph was built from).
    ///
    /// Fails when `pred` has a non-linear recursive rule, is mutually
    /// recursive with another predicate, or has no exit rule.
    pub fn recursive_def(
        &self,
        program: &Program,
        pred: Sym,
        interner: &Interner,
    ) -> Result<RecursiveDef, AstError> {
        let name = || interner.resolve(pred).to_string();
        let def: Vec<&Rule> = program.definition_of(pred);
        if def.is_empty() {
            return Err(AstError::UnsupportedProgram {
                msg: format!("predicate `{}` has no defining rules", name()),
            });
        }
        let arity = def[0].head.arity();
        // Mutual recursion: another member of `pred`'s component.
        let pi = self.index[&pred];
        if let Some(&other) = self.components[self.scc_of[pi]].iter().find(|&&n| n != pi) {
            return Err(AstError::UnsupportedProgram {
                msg: format!(
                    "`{}` is mutually recursive with `{}`; the paper's class excludes \
                     mutually recursive predicates",
                    name(),
                    interner.resolve(self.preds[other])
                ),
            });
        }
        let mut recursive_rules = Vec::new();
        let mut exit_rules = Vec::new();
        for rule in def {
            if rule.agg.is_some() || rule.negated_atoms().next().is_some() {
                return Err(AstError::UnsupportedProgram {
                    msg: format!(
                        "rule `{}` uses negation or aggregation; the paper's class covers \
                         pure positive linear recursions",
                        crate::pretty::rule_to_string(rule, interner)
                    ),
                });
            }
            if rule.is_recursive_in(pred) {
                if !rule.is_linear_recursive_in(pred) {
                    return Err(AstError::UnsupportedProgram {
                        msg: format!(
                            "rule `{}` is non-linear in `{}`",
                            crate::pretty::rule_to_string(rule, interner),
                            name()
                        ),
                    });
                }
                recursive_rules.push(rule.clone());
            } else {
                exit_rules.push(rule.clone());
            }
        }
        if exit_rules.is_empty() {
            return Err(AstError::UnsupportedProgram {
                msg: format!("`{}` has no nonrecursive (exit) rule", name()),
            });
        }
        Ok(RecursiveDef { pred, arity, recursive_rules, exit_rules })
    }
}

/// Tarjan's strongly-connected-components algorithm (iterative), visiting
/// the successors `succ[n]` of each node in the order given.
///
/// Returns each node's component, numbered in reverse topological order:
/// if `p` depends on `q` (and they are in different components), then
/// `q`'s number is smaller than `p`'s.
fn tarjan(succ: &[Vec<usize>]) -> Vec<usize> {
    let n = succ.len();
    let mut index_of = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut scc_count = 0usize;

    for root in 0..n {
        if index_of[root] != usize::MAX {
            continue;
        }
        // Explicit DFS frames: (node, position in its successor list).
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        index_of[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(frame) = frames.last_mut() {
            let node = frame.0;
            if let Some(&next) = succ[node].get(frame.1) {
                frame.1 += 1;
                if index_of[next] == usize::MAX {
                    index_of[next] = next_index;
                    low[next] = next_index;
                    next_index += 1;
                    stack.push(next);
                    on_stack[next] = true;
                    frames.push((next, 0));
                } else if on_stack[next] {
                    low[node] = low[node].min(index_of[next]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[node]);
                }
                if low[node] == index_of[node] {
                    // node is the root of a component.
                    loop {
                        let member = stack.pop().expect("scc stack underflow");
                        on_stack[member] = false;
                        scc_of[member] = scc_count;
                        if member == node {
                            break;
                        }
                    }
                    scc_count += 1;
                }
            }
        }
    }
    scc_of
}

/// Stratifies `program`, or explains why it cannot be stratified: builds
/// its [`DependencyGraph`] and runs [`DependencyGraph::stratify`].
pub fn stratify(program: &Program) -> Result<Stratification, StratError> {
    DependencyGraph::build(program).stratify()
}

/// A successful stratification.
#[derive(Debug, Clone)]
pub struct Stratification {
    /// Stratum number of every predicate (EDB predicates sit in stratum 0).
    pub stratum_of: BTreeMap<Sym, usize>,
    /// Predicates grouped by stratum, lowest first; within a stratum,
    /// first-occurrence order.
    pub strata: Vec<Vec<Sym>>,
}

impl Stratification {
    /// Number of strata (at least 1 for a non-empty program).
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// Whether there are no predicates at all.
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }
}

/// Why a program cannot be stratified. Each variant cites the rule
/// containing the offending construct *and* a rule on the dependency path
/// that closes the cycle (the same rule twice for a self-cycle).
#[derive(Debug, Clone)]
pub enum StratError {
    /// A negated predicate is reachable from the negating rule's head:
    /// `p` reads `!q` while `q` (transitively) reads `p`.
    NegationInCycle {
        /// Head predicate of the negating rule.
        head: Sym,
        /// The negated predicate.
        negated: Sym,
        /// Span of the rule containing the negated literal.
        rule_span: Span,
        /// Span of the negated atom itself.
        site_span: Span,
        /// Span of a rule on the path from `negated` back to `head`.
        back_span: Span,
        /// The predicates on the cycle, starting at `head`.
        cycle: Vec<Sym>,
    },
    /// Two proper rules for the same head disagree on the aggregate
    /// annotation (different function, different position, or only one of
    /// them aggregates) — evaluation would have to pick one arbitrarily.
    /// Facts are exempt: a fact for an aggregate head is a contribution,
    /// exactly like an EDB tuple.
    MixedAggregate {
        /// The predicate with conflicting definitions.
        head: Sym,
        /// Span of the later, disagreeing rule.
        rule_span: Span,
        /// Span of its annotation (the whole rule if it has none).
        site_span: Span,
        /// Span of the first rule that fixed the expected annotation.
        back_span: Span,
    },
    /// An aggregate participates in recursion it cannot support: `count`
    /// or `sum` in any cycle, or `min`/`max` in a cycle through *other*
    /// predicates (only direct self-recursion keeps their least-fixpoint
    /// reading).
    AggregateInCycle {
        /// Head predicate of the aggregating rule.
        head: Sym,
        /// The aggregate function.
        func: AggFunc,
        /// Span of the aggregating rule.
        rule_span: Span,
        /// Span of the aggregate annotation (`min<C>`).
        site_span: Span,
        /// Span of a rule on the path closing the cycle.
        back_span: Span,
        /// The predicates on the cycle, starting at `head`.
        cycle: Vec<Sym>,
    },
}

impl StratError {
    /// Renders the error as one line with predicate names resolved —
    /// evaluators embed this in their structured errors; `sepra check`
    /// renders the spans instead, and its cycle note with
    /// [`StratError::cycle_text`].
    pub fn describe(&self, interner: &Interner) -> String {
        match self {
            StratError::NegationInCycle { head, negated, .. } => format!(
                "`{}` negates `{}`, but `{}` depends on `{}` (cycle: {}); \
                 negation must read a strictly lower stratum",
                interner.resolve(*head),
                interner.resolve(*negated),
                interner.resolve(*negated),
                interner.resolve(*head),
                self.cycle_text(interner),
            ),
            StratError::MixedAggregate { head, .. } => format!(
                "the rules defining `{}` disagree on its aggregate annotation; every \
                 proper rule for an aggregate head must carry the same `func<Var>`",
                interner.resolve(*head),
            ),
            StratError::AggregateInCycle { head, func, .. } => format!(
                "`{}` aggregates with `{}` inside recursion (cycle: {}); only `min`/`max` \
                 may read their own head back, and only through direct self-recursion",
                interner.resolve(*head),
                func.keyword(),
                self.cycle_text(interner),
            ),
        }
    }

    /// The dependency cycle, closed back on its first predicate
    /// (`p -> q -> p`); empty for [`StratError::MixedAggregate`].
    pub fn cycle_text(&self, interner: &Interner) -> String {
        let (StratError::NegationInCycle { cycle, .. }
        | StratError::AggregateInCycle { cycle, .. }) = self
        else {
            return String::new();
        };
        let closed = cycle.iter().chain(&cycle[..1]);
        closed.map(|&p| interner.resolve(p)).collect::<Vec<_>>().join(" -> ")
    }
}

/// A recursive definition in the paper's shape (Section 2): a predicate `t`
/// defined by linear recursive rules `r_1..r_n` and nonrecursive exit rules,
/// where no other predicate is mutually recursive with `t`.
#[derive(Debug, Clone)]
pub struct RecursiveDef {
    /// The recursive predicate `t`.
    pub pred: Sym,
    /// Arity of `t`.
    pub arity: usize,
    /// The linear recursive rules, in source order.
    pub recursive_rules: Vec<Rule>,
    /// The nonrecursive (exit) rules, in source order. The paper assumes a
    /// single exit rule `t :- t0.`; we allow any number of nonrecursive
    /// rules and treat them as a union.
    pub exit_rules: Vec<Rule>,
}

impl RecursiveDef {
    /// Extracts and validates the definition of `pred` from `program`; see
    /// [`DependencyGraph::recursive_def`], which callers already holding
    /// the program's graph call directly.
    pub fn extract(
        program: &Program,
        pred: Sym,
        interner: &Interner,
    ) -> Result<RecursiveDef, AstError> {
        DependencyGraph::build(program).recursive_def(program, pred, interner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_program, parse_program_raw};

    fn graph_of(src: &str) -> (Program, DependencyGraph, Interner) {
        let mut i = Interner::new();
        let p = parse_program(src, &mut i).unwrap();
        let g = DependencyGraph::build(&p);
        (p, g, i)
    }

    fn strat(src: &str) -> (Result<Stratification, StratError>, Interner) {
        let mut i = Interner::new();
        let p = parse_program_raw(src, &mut i).unwrap();
        (stratify(&p), i)
    }

    #[test]
    fn simple_recursion_is_detected() {
        let (_, g, mut i) = graph_of(
            "t(X, Y) :- a(X, W), t(W, Y).\n\
             t(X, Y) :- t0(X, Y).\n",
        );
        let t = i.intern("t");
        let a = i.intern("a");
        assert!(g.is_recursive(t));
        assert!(!g.is_recursive(a));
        assert_eq!(g.cone([t]), BTreeSet::from([t, a, i.intern("t0")]));
        assert_eq!(g.cone([a]), BTreeSet::from([a]));
    }

    #[test]
    fn scope_places_negation_and_aggregation_relative_to_a_predicate() {
        let (_, g, mut i) = graph_of(
            "safe(X, Y) :- e(X, Y), !blocked(Y).\n\
             reach(X, Y) :- safe(X, W), reach(W, Y).\n\
             reach(X, Y) :- safe(X, Y).\n\
             t(X, Y) :- e(X, Y).\n\
             t(X, Y) :- e(X, W), t(W, Y).\n\
             p(X) :- a(X), q(X).\n\
             q(X) :- b(X), p(X).\n\
             q(X) :- c(X, n), !d(X).\n\
             low(min<C>) :- C = 3.\n\
             over(C) :- low(C).\n",
        );
        let mut scope = |name: &str| g.scope(i.intern(name));
        assert_eq!(scope("t"), Scope::PositiveCone);
        assert_eq!(scope("e"), Scope::PositiveCone);
        assert_eq!(scope("ghost"), Scope::PositiveCone);
        assert_eq!(scope("reach"), Scope::StrataBelow);
        assert_eq!(scope("safe"), Scope::StratifiedComponent);
        // `p` negates nothing itself, but shares its component with `q`.
        assert_eq!(scope("p"), Scope::StratifiedComponent);
        // An aggregate rule whose body has no atom records no edge.
        assert_eq!(scope("low"), Scope::StratifiedComponent);
        assert_eq!(scope("over"), Scope::StrataBelow);
    }

    #[test]
    fn mutual_recursion_is_detected() {
        let (_, g, mut i) = graph_of(
            "p(X) :- e(X, Y), q(Y).\n\
             q(X) :- f(X, Y), p(Y).\n\
             p(X) :- b(X).\n\
             q(X) :- c(X).\n",
        );
        let p = i.intern("p");
        let q = i.intern("q");
        assert!(g.is_recursive(p));
        assert!(g.is_recursive(q));
        assert!(g.strata().iter().any(|c| c.contains(&p) && c.contains(&q)));
    }

    #[test]
    fn strata_respect_dependencies() {
        let (prog, g, mut i) = graph_of(
            "t(X, Y) :- a(X, W), t(W, Y).\n\
             t(X, Y) :- base(X, Y).\n\
             top(X) :- t(X, X).\n",
        );
        let strata = g.strata();
        let t = i.intern("t");
        let top = i.intern("top");
        let a = i.intern("a");
        let pos = |p: Sym| strata.iter().position(|s| s.contains(&p)).unwrap();
        assert!(pos(a) < pos(t));
        assert!(pos(t) < pos(top));
        let info = g.classify(&prog);
        let t_info = info.iter().find(|x| x.pred == t).unwrap();
        assert!(t_info.is_idb && t_info.is_recursive);
        let a_info = info.iter().find(|x| x.pred == a).unwrap();
        assert!(!a_info.is_idb && !a_info.is_recursive);
    }

    #[test]
    fn extract_accepts_the_paper_shape() {
        let (prog, _, mut i) = graph_of(
            "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
             buys(X, Y) :- idol(X, W), buys(W, Y).\n\
             buys(X, Y) :- perfectFor(X, Y).\n",
        );
        let buys = i.intern("buys");
        let def = RecursiveDef::extract(&prog, buys, &i).unwrap();
        assert_eq!(def.recursive_rules.len(), 2);
        assert_eq!(def.exit_rules.len(), 1);
        assert_eq!(def.arity, 2);
    }

    #[test]
    fn extract_rejects_nonlinear() {
        let (prog, _, mut i) = graph_of(
            "t(X, Y) :- t(X, Z), t(Z, Y).\n\
             t(X, Y) :- e(X, Y).\n",
        );
        let t = i.intern("t");
        let err = RecursiveDef::extract(&prog, t, &i).unwrap_err();
        assert!(matches!(err, AstError::UnsupportedProgram { .. }), "{err}");
    }

    #[test]
    fn extract_rejects_mutual_recursion() {
        let (prog, _, mut i) = graph_of(
            "p(X) :- e(X, Y), q(Y).\n\
             q(X) :- f(X, Y), p(Y).\n\
             p(X) :- b(X).\n\
             q(X) :- c(X).\n",
        );
        let p = i.intern("p");
        let err = RecursiveDef::extract(&prog, p, &i).unwrap_err();
        assert!(matches!(err, AstError::UnsupportedProgram { .. }), "{err}");
    }

    #[test]
    fn extract_rejects_missing_exit() {
        let (prog, _, mut i) = graph_of("t(X, Y) :- a(X, W), t(W, Y).\na(u, v).\n");
        let t = i.intern("t");
        assert!(RecursiveDef::extract(&prog, t, &i).is_err());
    }

    #[test]
    fn tarjan_handles_self_loop_and_chain() {
        // p -> p, p -> q, q -> r
        let scc_of = tarjan(&[vec![0, 1], vec![2], vec![]]);
        assert_eq!(scc_of.iter().max(), Some(&2));
        // reverse topological: r before q before p
        assert!(scc_of[2] < scc_of[1]);
        assert!(scc_of[1] < scc_of[0]);
    }

    #[test]
    fn pure_positive_is_one_stratum() {
        let (s, mut i) = strat(
            "t(X, Y) :- e(X, Y).\n\
             t(X, Y) :- e(X, W), t(W, Y).\n",
        );
        let s = s.unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.stratum_of[&i.intern("t")], 0);
        assert_eq!(s.stratum_of[&i.intern("e")], 0);
    }

    #[test]
    fn negation_bumps_a_stratum() {
        let (s, mut i) = strat(
            "t(X, Y) :- e(X, Y).\n\
             t(X, Y) :- e(X, W), t(W, Y).\n\
             unreach(X, Y) :- node(X), node(Y), !t(X, Y).\n",
        );
        let s = s.unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.stratum_of[&i.intern("t")], 0);
        assert_eq!(s.stratum_of[&i.intern("unreach")], 1);
    }

    #[test]
    fn negation_in_cycle_is_rejected_with_both_rules() {
        let src = "p(X) :- a(X), !q(X).\n\
                   q(X) :- b(X), p(X).\n";
        let (s, mut i) = strat(src);
        let Err(StratError::NegationInCycle { head, negated, rule_span, back_span, cycle, .. }) = s
        else {
            panic!("expected NegationInCycle, got {s:?}");
        };
        assert_eq!(head, i.intern("p"));
        assert_eq!(negated, i.intern("q"));
        let text = |sp: Span| &src[sp.start as usize..sp.end as usize];
        assert_eq!(text(rule_span), "p(X) :- a(X), !q(X).");
        assert_eq!(text(back_span), "q(X) :- b(X), p(X).");
        assert_eq!(cycle, vec![i.intern("p"), i.intern("q")]);
    }

    #[test]
    fn self_negation_cites_the_rule_twice() {
        let src = "p(X) :- a(X), !p(X).\n";
        let (s, _) = strat(src);
        let Err(StratError::NegationInCycle { rule_span, back_span, cycle, .. }) = s else {
            panic!("expected NegationInCycle, got {s:?}");
        };
        assert_eq!(rule_span, back_span);
        assert_eq!(cycle.len(), 1);
    }

    #[test]
    fn min_self_recursion_is_allowed() {
        let (s, mut i) = strat(
            "shortest(Y, min<C>) :- source(X), edge(X, Y, C).\n\
             shortest(Y, min<C>) :- shortest(X, D), edge(X, Y, W), C = D + W.\n",
        );
        let s = s.unwrap();
        // Aggregation over edge/source forces a boundary below `shortest`.
        assert_eq!(s.stratum_of[&i.intern("shortest")], 1);
        assert_eq!(s.stratum_of[&i.intern("edge")], 0);
    }

    #[test]
    fn count_in_recursion_is_rejected() {
        let src = "reach(X, count<C>) :- reach(Y, C), e(Y, X).\n";
        let (s, _) = strat(src);
        let Err(StratError::AggregateInCycle { func, rule_span, back_span, .. }) = s else {
            panic!("expected AggregateInCycle, got {s:?}");
        };
        assert_eq!(func, AggFunc::Count);
        assert_eq!(rule_span, back_span);
    }

    #[test]
    fn min_through_mutual_recursion_is_rejected() {
        let src = "p(X, min<C>) :- q(X, C).\n\
                   q(X, C) :- p(X, C), e(X).\n";
        let (s, mut i) = strat(src);
        let Err(StratError::AggregateInCycle { func, head, cycle, .. }) = s else {
            panic!("expected AggregateInCycle, got {s:?}");
        };
        assert_eq!(func, AggFunc::Min);
        assert_eq!(head, i.intern("p"));
        assert!(cycle.contains(&i.intern("q")));
    }

    #[test]
    fn strata_levels_chain() {
        let (s, mut i) = strat(
            "a(X) :- e(X).\n\
             b(X) :- a(X), !f(X).\n\
             c(X) :- a(X), !b(X).\n\
             d(X) :- c(X).\n",
        );
        let s = s.unwrap();
        assert_eq!(s.stratum_of[&i.intern("a")], 0);
        assert_eq!(s.stratum_of[&i.intern("b")], 1);
        assert_eq!(s.stratum_of[&i.intern("c")], 2);
        assert_eq!(s.stratum_of[&i.intern("d")], 2);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn count_outside_recursion_is_allowed() {
        let (s, mut i) = strat(
            "t(X, Y) :- e(X, Y).\n\
             t(X, Y) :- e(X, W), t(W, Y).\n\
             reach(X, count<Y>) :- t(X, Y).\n",
        );
        let s = s.unwrap();
        assert_eq!(s.stratum_of[&i.intern("reach")], 1);
    }

    #[test]
    fn mixed_aggregate_annotations_are_rejected() {
        // Different function.
        let src = "best(X, min<C>) :- w(X, C).\nbest(X, max<C>) :- v(X, C).\n";
        let (s, mut i) = strat(src);
        let Err(StratError::MixedAggregate { head, rule_span, back_span, .. }) = s else {
            panic!("expected MixedAggregate, got {s:?}");
        };
        assert_eq!(head, i.intern("best"));
        let text = |sp: Span| &src[sp.start as usize..sp.end as usize];
        assert_eq!(text(back_span), "best(X, min<C>) :- w(X, C).");
        assert_eq!(text(rule_span), "best(X, max<C>) :- v(X, C).");
        // Annotated and plain rules for the same head.
        let (s, _) = strat("best(X, min<C>) :- w(X, C).\nbest(X, C) :- v(X, C).\n");
        assert!(matches!(s, Err(StratError::MixedAggregate { .. })), "{s:?}");
    }

    #[test]
    fn facts_for_aggregate_heads_are_contributions_not_conflicts() {
        let (s, mut i) = strat("best(a, 3).\nbest(X, min<C>) :- w(X, C).\n");
        let s = s.unwrap();
        assert_eq!(s.stratum_of[&i.intern("best")], 1);
    }

    #[test]
    fn empty_program_is_empty() {
        let (s, _) = strat("");
        assert!(s.unwrap().is_empty());
    }
}
