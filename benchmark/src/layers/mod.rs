//! One file per layer: the public engine functions the benchmark calls
//! (so the surface it depends on is visible in one place) and the probes
//! that time them for the per-layer metrics.
//!
//! A probe wraps each call in a span of its layer and reports the median
//! of those spans; counts are read at the same boundaries. Every traced
//! run reports every per-layer metric. A metric marked *own* in the
//! README is measured on the inputs of the workload being run; the others
//! are pinned to the one fixture that exercises the layer (the WAL probes
//! need a durable tree, the magic probes a non-separable program, …) and
//! so read the same whichever workload's traced run reports them.

pub mod ast;
pub mod client;
pub mod core;
pub mod engine;
pub mod eval;
pub mod lint;
pub mod repl;
pub mod rewrite;
pub mod server;
pub mod storage;
pub mod strata;
pub mod wal;

use std::path::PathBuf;

use crate::gen::{self, Fixture};
use crate::harness::Metric;
use crate::stats;
use crate::trace::Tracer;

/// The inputs the probes run on, all made from the run's seed.
pub struct Fixtures {
    pub seed: u64,
    /// The fixture of the workload whose traced run this is.
    pub own: Fixture,
    pub closure: Fixture,
    pub social: Fixture,
    pub same_generation: Fixture,
    pub stratified: Fixture,
    pub tree: Fixture,
    pub small_tree: Fixture,
    /// Scratch space for data directories.
    pub run_dir: PathBuf,
}

impl Fixtures {
    pub fn new(seed: u64, own: Fixture, run_dir: PathBuf) -> Fixtures {
        Fixtures {
            seed,
            own,
            closure: gen::closure(seed),
            social: gen::social(seed),
            same_generation: gen::same_generation(seed),
            stratified: gen::stratified(seed),
            tree: gen::tree(seed, gen::TREE_DEPTH),
            small_tree: gen::tree(seed, gen::SMALL_TREE_DEPTH),
            run_dir,
        }
    }
}

/// Where probes record: spans into the tracer, numbers into the list.
pub struct Probe<'a> {
    pub tracer: &'a mut Tracer,
    pub metrics: Vec<Metric>,
}

impl Probe<'_> {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Runs `f` `reps` times, each as one `layer`/`name` span, and returns
    /// the median span in microseconds with the last result.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        reps: usize,
        mut f: impl FnMut() -> T,
    ) -> (f64, T) {
        let mut last = None;
        let mut ns = Vec::with_capacity(reps);
        for _ in 0..reps.max(1) {
            self.tracer.next_op();
            let (span_ns, out) = self.tracer.span_ns(layer, name, || std::hint::black_box(f()));
            ns.push(span_ns);
            last = Some(out);
        }
        (stats::us(stats::median(&mut ns)), last.expect("at least one rep"))
    }
}

/// Every per-layer metric of one traced run, in layer order.
pub fn probe_all(
    fx: &Fixtures,
    tracer: &mut Tracer,
    replay_seconds: f64,
) -> Result<Vec<Metric>, String> {
    let mut p = Probe { tracer, metrics: Vec::new() };
    let replay = client::probe(fx, &mut p, replay_seconds)?;
    ast::probe(fx, &mut p)?;
    lint::probe(fx, &mut p)?;
    strata::probe(fx, &mut p)?;
    storage::probe(fx, &mut p)?;
    eval::probe(fx, &mut p)?;
    rewrite::probe(fx, &mut p)?;
    core::probe(fx, &mut p)?;
    engine::probe(fx, &mut p, &replay)?;
    server::probe(fx, &mut p)?;
    wal::probe(fx, &mut p)?;
    repl::probe(fx, &mut p)?;
    Ok(p.metrics)
}
