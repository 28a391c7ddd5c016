//! The eight workloads, and the two kinds of run a workload has: the
//! end-to-end run (tracing off) and the traced run (per-layer metrics).

pub mod batch;
pub mod replica;
pub mod serve;

use std::path::{Path, PathBuf};
use std::time::Instant;

use sepra_engine::Strategy;

use batch::{Batch, Oracle};
use serve::Served;

use crate::gen::{self, Fixture};
use crate::harness::{self, Measured, Metric, RunResult};
use crate::layers::{self, Fixtures};
use crate::stats;
use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 8] = [
    "closure_batch",
    "separable_batch",
    "magic_batch",
    "stratified_batch",
    "serve_reads",
    "serve_mixed",
    "serve_writes",
    "replica_catchup",
];

/// A run sets its system up at least `SETUP_MIN_REPS` times and keeps
/// going, up to `SETUP_MAX_REPS`, while set-up has taken less than
/// `SETUP_BUDGET_S` in all: millisecond set-ups get the repetitions their
/// median needs, a quarter-second recovery is not run forty times.
/// `setup_s` is the median.
pub const SETUP_MIN_REPS: usize = 3;
pub const SETUP_MAX_REPS: usize = 41;
pub const SETUP_BUDGET_S: f64 = 1.0;

/// The share of `--seconds` spent warming plan caches and indexes before
/// the timed loop: verified like every op, not timed.
const WARM_SHARE: f64 = 0.05;

/// A workload's system under test, from generated inputs to teardown.
pub trait System {
    /// Builds the system from the workload's stored inputs and takes it
    /// to its first answer — what `setup_s` times.
    fn setup(&mut self, out: &mut RunResult) -> Result<(), String>;
    /// Stops what `setup` built.
    fn teardown(&mut self) -> Result<(), String>;
    /// Runs the closed loop for `seconds`, checking every op.
    fn measure(&mut self, seconds: f64, out: &mut RunResult) -> Result<Measured, String>;
    /// The oracle checks that need not run beside the loop.
    fn verify(&mut self, out: &mut RunResult) -> Result<(), String>;
}

/// Generates the named workload's inputs. `Err` for an unknown name.
fn system(name: &str, seed: u64, run_dir: &Path) -> Result<Box<dyn System>, String> {
    let fixture = fixture(name, seed)?;
    Ok(match name {
        "closure_batch" => Box::new(Batch::new(fixture, Strategy::SemiNaive, Oracle::Naive)),
        "separable_batch" => Box::new(Batch::new(fixture, Strategy::Separable, Oracle::SemiNaive)),
        "magic_batch" => Box::new(Batch::new(fixture, Strategy::MagicSets, Oracle::Naive)),
        "stratified_batch" => Box::new(Batch::new(fixture, Strategy::SemiNaive, Oracle::Naive)),
        "serve_reads" => Box::new(Served::reads(seed, fixture)),
        "serve_mixed" => Box::new(Served::mixed(seed, fixture, run_dir)),
        "serve_writes" => Box::new(Served::writes(seed, fixture, run_dir)?),
        _ => Box::new(replica::ReplicaCatchup::new(seed, fixture, run_dir)?),
    })
}

/// The named workload's fixture: what its system is built from, and what
/// its traced run replays.
fn fixture(name: &str, seed: u64) -> Result<Fixture, String> {
    Ok(match name {
        "closure_batch" => gen::closure(seed),
        "separable_batch" => gen::social(seed),
        "magic_batch" => gen::same_generation(seed),
        "stratified_batch" => gen::stratified(seed),
        "serve_reads" | "serve_mixed" | "serve_writes" => gen::tree(seed, gen::TREE_DEPTH),
        "replica_catchup" => gen::tree(seed, gen::SMALL_TREE_DEPTH),
        other => return Err(format!("unknown workload `{other}` (expected one of {NAMES:?})")),
    })
}

/// Where runs keep data directories, traces and result files:
/// `benchmark/out/` of the checkout the program was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory for this process, removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn new() -> Result<RunDir, String> {
        static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let run = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = out_dir().join(format!("run-{}-{run}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The end-to-end run: set up several times, warm, measure for
/// `seconds` with tracing off, read the memory high-water mark, then run
/// the deferred oracle checks. A smoke run (`smoke`) sets up the fewest
/// times.
pub fn end_to_end(name: &str, seed: u64, seconds: f64, smoke: bool) -> Result<RunResult, String> {
    let run_dir = RunDir::new()?;
    let mut out = RunResult::default();
    // One CPU for the run and every thread it starts. Not for
    // `replica_catchup`: its op starts a whole server, a dozen threads
    // that sleep on each other, and on one CPU it is half again as slow
    // and less steady, not more.
    if name != "replica_catchup" {
        if let Err(e) = harness::confine_to_one_cpu() {
            out.warn(format!("warning: the run keeps every CPU: {e}"));
        }
    }
    let mut system = system(name, seed, &run_dir.0)?;
    let mut setups = Vec::with_capacity(SETUP_MAX_REPS);
    // A smoke run checks answers, not times: the fewest set-ups will do.
    let budget = if smoke { 0.0 } else { SETUP_BUDGET_S };
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && setups.iter().sum::<f64>() < budget)
    {
        system.teardown()?;
        let start = Instant::now();
        system.setup(&mut out)?;
        setups.push(start.elapsed().as_secs_f64());
    }
    system.measure(seconds * WARM_SHARE, &mut out)?;
    let measured = system.measure(seconds, &mut out)?;
    // Before the oracle runs: its naive fixpoints are not the system's memory.
    let rss = harness::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    system.verify(&mut out)?;
    system.teardown()?;

    out.metrics.push(Metric::new("setup_s", stats::median_f64(&mut setups), "s"));
    measured.metrics(&mut out);
    out.metrics.push(Metric::new("peak_rss_mb", rss, "MB"));
    Ok(out)
}

/// The traced run: every per-layer metric, and the span file.
pub fn traced(name: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let run_dir = RunDir::new()?;
    let fixtures = Fixtures::new(seed, fixture(name, seed)?, run_dir.0.clone());
    let mut tracer = Tracer::new();
    let metrics = layers::probe_all(&fixtures, &mut tracer, seconds * REPLAY_SHARE)?;
    let path = out_dir().join(format!("trace-{name}.jsonl"));
    tracer.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(RunResult { attempted: tracer.spans().len() as u64, metrics, ..RunResult::default() })
}

/// The share of `--seconds` a traced run spends replaying the workload's
/// own ops; the pinned probes run a fixed number of repetitions each.
const REPLAY_SHARE: f64 = 0.3;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    /// Both kinds of run, cut short: what they emit is exactly what
    /// `BENCHMARK.json` lists, name by name and unit by unit, and every
    /// oracle check passes.
    #[test]
    fn runs_emit_exactly_the_metrics_of_the_contract() {
        let spec = Spec::load();
        let listed = |metrics: &[crate::spec::MetricSpec]| {
            metrics.iter().map(|m| (m.name.clone(), m.unit.clone())).collect::<Vec<_>>()
        };
        let emitted = |r: &RunResult| {
            let mut e: Vec<_> =
                r.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
            e.sort();
            e
        };
        let sorted = |mut v: Vec<(String, String)>| {
            v.sort();
            v
        };
        let run = end_to_end("magic_batch", 1, 0.5, false).expect("end-to-end run");
        assert!(run.correct(), "{:?}", run.complaints);
        assert_eq!(emitted(&run), sorted(listed(&spec.end_to_end)));
        let run = traced("replica_catchup", 1, 0.5).expect("traced run");
        assert!(run.correct(), "{:?}", run.complaints);
        assert_eq!(emitted(&run), sorted(listed(&spec.per_layer)));
        assert!(out_dir().join("trace-replica_catchup.jsonl").is_file());
    }

    #[test]
    fn an_unknown_workload_is_an_error() {
        assert!(end_to_end("nope", 1, 0.1, true).is_err());
        assert!(traced("nope", 1, 0.1).is_err());
    }
}
