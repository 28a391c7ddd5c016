//! The `client` layer's generator: every input the engine sees — program
//! text, fact text, request lines, mutation scripts — is made here from
//! `--seed`, and nothing else reaches the engine.
//!
//! Sizes are constants, not options: a benchmark whose inputs can be
//! resized per run has no trajectory. Where a shape is random (the
//! closure digraph, the social graph, the stratified DAG) the generator
//! fixes every degree so that the amount of work is the same for every
//! seed and only the wiring and the schedules change; otherwise a change
//! of seed would read as a change of speed.

use std::fmt::Write as _;

/// SplitMix64: small, seedable, and the same on every platform. The
/// benchmark must not depend on `vendor/rand`, which the engine's tests
/// own and may change.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// One generator per (seed, stream): streams keep the graph, the read
    /// schedule and the write schedule independent of each other.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the bias of the plain remainder is below 2⁻⁴⁰
    /// for every `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What one workload feeds the engine: rules, facts, its distinct
/// queries, and the seeded order its ops ask them in.
#[derive(Debug, Clone)]
pub struct Fixture {
    pub rules: String,
    pub facts: String,
    pub queries: Vec<String>,
    /// The op list, as indices into `queries`. Runs cycle through it, so a
    /// run of any length replays the same ops in the same order.
    pub ops: Vec<u32>,
}

impl Fixture {
    /// Rules then facts, the text `QueryProcessor::load` takes.
    pub fn source(&self) -> String {
        let mut s = String::with_capacity(self.rules.len() + self.facts.len());
        s.push_str(&self.rules);
        s.push_str(&self.facts);
        s
    }

    /// Which query the `i`-th op asks.
    pub fn op(&self, i: usize) -> usize {
        self.ops[i % self.ops.len()] as usize
    }
}

/// A seeded shuffle of `copies` copies of every query index. Drawing each
/// op independently would let a seed over- or under-draw the few expensive
/// queries (the root of a tree has 340 times the answers of a leaf's
/// parent) and move every mean; a shuffled balanced list gives every seed
/// the same multiset of ops in a different order.
fn balanced_ops(rng: &mut Rng, queries: usize, copies: usize) -> Vec<u32> {
    let mut ops: Vec<u32> = (0..queries * copies).map(|i| (i % queries) as u32).collect();
    rng.shuffle(&mut ops);
    ops
}

// ---------------------------------------------------------------- closure

/// Left-linear transitive closure, asked in full (`t(X, Y)?`), so the
/// processor routes to semi-naive and `eval` + `storage` do the work.
pub const CLOSURE_RULES: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, Z), e(Z, Y).\n";
pub const CLOSURE_NODES: usize = 120;
/// Out-degree of every node besides its cycle edge.
pub const CLOSURE_CHORDS: usize = 1;

/// A seeded digraph over `CLOSURE_NODES` nodes: one Hamiltonian cycle in
/// a seeded order plus `CLOSURE_CHORDS` random chords per node. Being
/// strongly connected it has exactly n² closure tuples and n·m join
/// results for every seed; the seed moves the diameter (iterations) and
/// the insertion order, not the size.
pub fn closure(seed: u64) -> Fixture {
    let n = CLOSURE_NODES;
    let mut rng = Rng::new(seed, 1);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * (1 + CLOSURE_CHORDS));
    for i in 0..n {
        edges.push((order[i], order[(i + 1) % n]));
    }
    for a in 0..n {
        let mut placed = 0;
        while placed < CLOSURE_CHORDS {
            let b = rng.below(n);
            if b != a && !edges.contains(&(a, b)) {
                edges.push((a, b));
                placed += 1;
            }
        }
    }
    rng.shuffle(&mut edges);
    let mut facts = String::new();
    for (a, b) in edges {
        let _ = writeln!(facts, "e(v{a}, v{b}).");
    }
    Fixture { rules: CLOSURE_RULES.into(), facts, queries: vec!["t(X, Y)?".into()], ops: vec![0] }
}

// -------------------------------------------------------------- separable

/// The paper's Example 1.1: two recursive rules in one equivalence class.
pub const BUYS_RULES: &str = "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
                              buys(X, Y) :- idol(X, W), buys(W, Y).\n\
                              buys(X, Y) :- perfectFor(X, Y).\n";
pub const SOCIAL_PEOPLE: usize = 2000;
/// How many distinct people the op list asks about.
pub const SOCIAL_ASKED: usize = 250;

/// The E12 social graph with fixed degrees: every person has two friends
/// and one idol, every fourth person a product. One friend of each person
/// is the next on a seeded ring through everybody, the other friend and
/// the idol are drawn at random: whoever is asked about reaches everyone,
/// so every seed's queries construct relations of the same sizes over a
/// differently wired graph. Queries select on column 0, so the processor
/// routes to the Separable algorithm.
pub fn social(seed: u64) -> Fixture {
    let n = SOCIAL_PEOPLE;
    let mut rng = Rng::new(seed, 2);
    let mut ring: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ring);
    let mut next = vec![0; n];
    for i in 0..n {
        next[ring[i]] = ring[(i + 1) % n];
    }
    let mut facts = String::new();
    for (a, &f1) in next.iter().enumerate() {
        let mut f2 = rng.below(n);
        while f2 == f1 {
            f2 = rng.below(n);
        }
        let idol = rng.below(n);
        let _ = writeln!(facts, "friend(p{a}, p{f1}).\nfriend(p{a}, p{f2}).\nidol(p{a}, p{idol}).");
    }
    for i in (0..n).step_by(4) {
        let _ = writeln!(facts, "perfectFor(p{i}, prod{i}).");
    }
    // Asking about a seeded sample of people, not all of them, keeps the
    // oracle affordable: it filters a million-tuple relation once per
    // distinct query.
    let mut qrng = Rng::new(seed, 3);
    let mut asked: Vec<usize> = (0..n).collect();
    qrng.shuffle(&mut asked);
    let queries: Vec<String> =
        asked[..SOCIAL_ASKED].iter().map(|i| format!("buys(p{i}, Y)?")).collect();
    let ops = balanced_ops(&mut qrng, SOCIAL_ASKED, 4);
    Fixture { rules: BUYS_RULES.into(), facts, queries, ops }
}

// ------------------------------------------------------------------ magic

/// Same generation: condition 4 of Definition 2.4 fails, so a selection
/// routes to Generalized Magic Sets.
pub const SG_RULES: &str = "sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n";
pub const SG_ARITY: usize = 3;
pub const SG_DEPTH: usize = 6;

/// Node count of a complete `arity`-ary tree of the given depth.
pub fn tree_nodes(arity: usize, depth: usize) -> usize {
    (0..=depth).map(|d| arity.pow(d as u32)).sum()
}

/// A complete 3-ary tree of depth 6 (1093 nodes), `up(child, parent)`,
/// `down(parent, child)`, `flat(n0, n0)`. The tree is the same for every
/// seed; the seed draws which node each op asks about.
pub fn same_generation(seed: u64) -> Fixture {
    let nodes = tree_nodes(SG_ARITY, SG_DEPTH);
    let mut facts = String::from("flat(n0, n0).\n");
    for child in 1..nodes {
        let parent = (child - 1) / SG_ARITY;
        let _ = writeln!(facts, "up(n{child}, n{parent}).\ndown(n{parent}, n{child}).");
    }
    let queries = (0..nodes).map(|i| format!("sg(n{i}, Y)?")).collect();
    let ops = balanced_ops(&mut Rng::new(seed, 4), nodes, 1);
    Fixture { rules: SG_RULES.into(), facts, queries, ops }
}

// ------------------------------------------------------------- stratified

/// Recursive `min`, `count`, and a negation stratum whose body reads every
/// lower stratum, so no stratum is irrelevant to `cut(X, Y)?`.
pub const STRATIFIED_RULES: &str = "reach(X, Y) :- w(X, Y, _C).\n\
     reach(X, Y) :- reach(X, Z), w(Z, Y, _C).\n\
     short(Y, min<C>) :- src(X), w(X, Y, C).\n\
     short(Y, min<C>) :- short(X, D), w(X, Y, W), C = D + W.\n\
     nreach(X, count<Y>) :- reach(X, Y).\n\
     cut(X, Y) :- node(X), short(Y, _C), nreach(X, _N), !reach(X, Y).\n";
pub const DAG_LAYERS: usize = 8;
pub const DAG_WIDTH: usize = 24;
/// Node `a` of a layer points at nodes `a + offset` (mod width) of the next.
pub const DAG_OFFSETS: [usize; 3] = [0, 1, 7];

/// A layered weighted DAG with a fixed wiring and seeded names, weights
/// (1–9) and fact order. Random wiring would make the sizes of `reach`
/// and `cut`, and with them the time of an op, move by several percent
/// from seed to seed; here every seed derives the same number of tuples
/// from a differently labelled, differently weighted, differently ordered
/// input.
pub fn stratified(seed: u64) -> Fixture {
    let mut rng = Rng::new(seed, 5);
    let names: Vec<Vec<usize>> = (0..DAG_LAYERS)
        .map(|_| {
            let mut layer: Vec<usize> = (0..DAG_WIDTH).collect();
            rng.shuffle(&mut layer);
            layer
        })
        .collect();
    let mut lines: Vec<String> = Vec::new();
    for l in 0..DAG_LAYERS {
        for a in 0..DAG_WIDTH {
            lines.push(format!("node(l{l}n{}).", names[l][a]));
            if l + 1 == DAG_LAYERS {
                continue;
            }
            for offset in DAG_OFFSETS {
                let b = (a + offset) % DAG_WIDTH;
                let weight = 1 + rng.below(9);
                lines.push(format!(
                    "w(l{l}n{}, l{}n{}, {weight}).",
                    names[l][a],
                    l + 1,
                    names[l + 1][b]
                ));
            }
        }
    }
    rng.shuffle(&mut lines);
    let mut facts = String::from("src(l0n0).\n");
    for line in lines {
        facts.push_str(&line);
        facts.push('\n');
    }
    Fixture {
        rules: STRATIFIED_RULES.into(),
        facts,
        queries: vec!["cut(X, Y)?".into()],
        ops: vec![0],
    }
}

// ------------------------------------------------------------ served tree

/// The served program: right-linear closure over `e`, which is itself a
/// supporting stratum over the stored `child` relation, so that a
/// mutation has a materialization to maintain (insert propagation and
/// delete-and-rederive) and not only an EDB row to flip.
pub const TREE_RULES: &str =
    "e(X, Y) :- child(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n";
pub const TREE_ARITY: usize = 4;
pub const TREE_DEPTH: usize = 5;
/// The replication workload's tree is small: its op is dominated by the
/// backlog, not by the base facts.
pub const SMALL_TREE_DEPTH: usize = 3;

/// A complete 4-ary tree as `child(parent, child)` facts. Queries ask for
/// the descendants of a seeded internal node (4 to `nodes - 1` rows).
pub fn tree(seed: u64, depth: usize) -> Fixture {
    let nodes = tree_nodes(TREE_ARITY, depth);
    let internal = tree_nodes(TREE_ARITY, depth - 1);
    let mut facts = String::new();
    for child in 1..nodes {
        let _ = writeln!(facts, "child(n{}, n{child}).", (child - 1) / TREE_ARITY);
    }
    let queries = (0..internal).map(|i| format!("t(n{i}, Y)?")).collect();
    let ops = balanced_ops(&mut Rng::new(seed, 6), internal, 4);
    Fixture { rules: TREE_RULES.into(), facts, queries, ops }
}

/// `{"query": "..."}` — the request line for one query, newline included.
pub fn query_request(query: &str) -> String {
    format!("{{\"query\": \"{query}\"}}\n")
}

/// How many inserted leaves are outstanding once the script is under way:
/// the EDB stays stationary at `+MUTATION_WINDOW` (or one more) rows.
pub const MUTATION_WINDOW: usize = 16;

/// One step of the write script: hang leaf `x<leaf>` under `n<parent>`,
/// or take it off again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mutation {
    pub insert: bool,
    pub parent: usize,
    pub leaf: usize,
}

impl Mutation {
    pub fn fact(&self) -> String {
        format!("child(n{}, x{}).", self.parent, self.leaf)
    }

    /// The request line, newline included.
    pub fn request(&self) -> String {
        let verb = if self.insert { "insert" } else { "retract" };
        format!("{{\"{verb}\": [\"{}\"]}}\n", self.fact())
    }
}

/// The `k`-th mutation of the write script over a tree of `nodes` nodes.
/// The first `MUTATION_WINDOW` steps insert a leaf each; from then on
/// steps alternate between inserting a fresh leaf and retracting the
/// oldest one still present. Every mutation is effective, so every one
/// bumps the generation by one, writes one WAL record, and runs
/// maintenance (insert propagation or delete-and-rederive).
pub fn mutation(seed: u64, nodes: usize, k: usize) -> Mutation {
    let (insert, leaf) = match k.checked_sub(MUTATION_WINDOW) {
        None => (true, k),
        Some(step) if step % 2 == 0 => (true, MUTATION_WINDOW + step / 2),
        Some(step) => (false, step / 2),
    };
    let parent = Rng::new(seed, 7 + leaf as u64).below(nodes);
    Mutation { insert, parent, leaf }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_another_seed_differs() {
        for make in [closure, social, same_generation, stratified] {
            assert_eq!(make(7).source(), make(7).source());
            assert_eq!(make(7).ops, make(7).ops);
        }
        assert_ne!(closure(7).facts, closure(8).facts);
        assert_ne!(social(7).facts, social(8).facts);
        assert_ne!(social(7).ops, social(8).ops);
        assert_ne!(same_generation(7).ops, same_generation(8).ops);
        assert_ne!(stratified(7).facts, stratified(8).facts);
        assert_eq!(tree(7, TREE_DEPTH).ops, tree(7, TREE_DEPTH).ops);
        assert_ne!(tree(7, TREE_DEPTH).ops, tree(8, TREE_DEPTH).ops);
        let script = |seed| (0..64).map(|k| mutation(seed, 100, k)).collect::<Vec<_>>();
        assert_eq!(script(7), script(7));
        assert_ne!(script(7), script(8));
    }

    #[test]
    fn tree_sizes() {
        assert_eq!(tree_nodes(3, 6), 1093);
        assert_eq!(tree_nodes(4, 5), 1365);
        assert_eq!(tree_nodes(4, 4), 341);
    }

    #[test]
    fn closure_graph_has_fixed_degrees() {
        let f = closure(3);
        assert_eq!(f.facts.lines().count(), CLOSURE_NODES * (1 + CLOSURE_CHORDS));
    }

    #[test]
    fn every_retract_names_a_present_leaf_and_the_edb_stays_stationary() {
        let mut present = std::collections::BTreeSet::new();
        for k in 0..2000 {
            let m = mutation(5, 1365, k);
            if m.insert {
                assert!(present.insert(m.fact()), "step {k} re-inserts a present leaf");
            } else {
                assert!(present.remove(&m.fact()), "step {k} retracts an absent leaf");
            }
            assert!(present.len() <= MUTATION_WINDOW + 1);
        }
    }
}
