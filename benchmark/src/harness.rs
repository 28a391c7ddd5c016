//! What every run shares: the metric record, the timed closed loop, the
//! result line the driver reads, and the machine facts a result file
//! carries.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::stats;

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Ops sent, timed or not (set-up, warm-up and measured alike).
    pub attempted: u64,
    /// Transport errors, `error` replies, and answers that differ from the
    /// oracle. A failed oracle check that is not tied to one op (a full
    /// relation comparison, a counter mismatch) counts as one.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// What failed, for the human reading stderr.
    pub complaints: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.warn(what);
    }

    /// Says something on stderr without failing the run.
    pub fn warn(&mut self, what: impl Into<String>) {
        if self.complaints.len() < 20 {
            self.complaints.push(what.into());
        }
    }

    /// Takes in what a second connection's loop counted on its own.
    pub fn absorb(&mut self, side: RunResult) {
        self.attempted += side.attempted;
        self.failed += side.failed;
        self.complaints.extend(side.complaints);
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`. Values print with every digit `f64` holds.
    pub fn to_json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ =
                write!(s, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
        }
        s.push_str("}}");
        s
    }
}

/// A run's timed loop is cut into this many equal windows; every timing
/// metric is computed per window and reported at the quartile of the
/// windows on the fast side (the third-fastest of ten). The box this runs
/// on has neighbours: for seconds at a time everything memory-bound gets a
/// quarter to a half slower, and every second or two something stalls for
/// tens of milliseconds. Such noise only ever slows an op. A statistic
/// over the whole loop moves with every burst, and a 95th percentile over
/// the whole loop measures the neighbours and nothing else; the quiet
/// quartile of ten windows does not move until bursts cover most of the
/// run. What it cannot see is a stall of the engine's own that strikes in
/// fewer than three windows out of four; `client.op_max_us` and
/// `client.mutation_max_us` are there for those.
pub const WINDOWS: usize = 10;
const QUIET_QUARTILE: f64 = 25.0;

/// A window counts only if every connection of the run was at work in it:
/// it completed an op there, and the ops it completed there did not take
/// more than this many windows. About one run of `serve_mixed` in twenty,
/// the writer's checkpoint (one every 1024 commits) waits some eight
/// seconds for this box's disk; the reader, alone for most of the run, is
/// then as fast as `serve_reads`, and the quiet quartile would pick
/// exactly those windows.
const STALLED_WINDOWS: f64 = 2.0;

/// One correct op of a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// When it ended, in nanoseconds from the start of the loop.
    pub at: u64,
    pub latency_ns: u64,
    /// `stats.tuples_inserted` of its reply.
    pub tuples: u64,
}

/// What one connection's closed loop did.
#[derive(Debug, Default)]
pub struct Lane {
    pub ops: Vec<Op>,
    /// How many ops make one pass over the connection's op list.
    pub cycle: usize,
}

/// What a run's timed loop measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// The connections whose ops are the workload's op, one lane each.
    pub timed: Vec<Lane>,
    /// Connections that ran beside them and count into `ops_per_s` only.
    pub beside: Vec<Lane>,
    /// How long the loop was asked to run.
    pub seconds: f64,
}

/// Runs `op` back to back for `seconds`. `op` returns its latency and the
/// tuples it derived, or `None` when its answer was wrong (it has then
/// recorded the failure itself). `cycle` is the length of the op list the
/// loop walks round.
pub fn closed_loop(
    seconds: f64,
    cycle: usize,
    mut op: impl FnMut() -> Result<Option<(u64, u64)>, String>,
) -> Result<Lane, String> {
    let mut lane = Lane { ops: Vec::new(), cycle };
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    while start.elapsed() < limit {
        if let Some((latency_ns, tuples)) = op()? {
            lane.ops.push(Op { at: nanos(start.elapsed()), latency_ns, tuples });
        }
    }
    Ok(lane)
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Measured {
    /// One connection's loop as a whole run's measurement.
    pub fn single(lane: Lane, seconds: f64) -> Measured {
        Measured { timed: vec![lane], beside: Vec::new(), seconds }
    }

    /// `op_p50_us`, `op_p95_us`, `ops_per_s`, `tuples_per_op`: every one,
    /// on every run, because the driver refuses a result line that lacks a
    /// metric. The workloads are sized so that a run times several times
    /// the ops a percentile needs for [`stats::MIN_BEYOND`] to lie beyond
    /// it; on a machine so slow that a run still falls short, the
    /// percentile is reported from what there is and stderr says so.
    pub fn metrics(&self, out: &mut RunResult) {
        let width = (self.seconds * 1e9 / WINDOWS as f64).max(1.0);
        let window_of = |at: u64| ((at as f64 / width) as usize).min(WINDOWS - 1);
        // Per window: the timed latencies pooled, and the rate, which is
        // the sum over connections of ops per second the connection was
        // busy (its latencies added up).
        let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); WINDOWS];
        let mut rates = [0.0f64; WINDOWS];
        let mut at_work = [true; WINDOWS];
        for (lane, is_timed) in
            self.timed.iter().map(|l| (l, true)).chain(self.beside.iter().map(|l| (l, false)))
        {
            let mut busy = [(0u64, 0u64); WINDOWS];
            for op in &lane.ops {
                let w = window_of(op.at);
                busy[w] = (busy[w].0 + 1, busy[w].1 + op.latency_ns);
                if is_timed {
                    latencies[w].push(op.latency_ns);
                }
            }
            for (w, (count, ns)) in busy.into_iter().enumerate() {
                if ns > 0 {
                    rates[w] += count as f64 * 1e9 / ns as f64;
                }
                at_work[w] &= count > 0 && ns as f64 <= STALLED_WINDOWS * width;
            }
        }
        // A run with no such window at all (an op longer than two windows)
        // is measured over every window in which anything completed.
        if at_work.iter().any(|&w| w) {
            for w in (0..WINDOWS).filter(|&w| !at_work[w]) {
                latencies[w].clear();
                rates[w] = 0.0;
            }
        }
        latencies.iter_mut().for_each(|w| w.sort_unstable());

        let n: usize = self.timed.iter().map(|l| l.ops.len()).sum();
        for (name, p) in [("op_p50_us", 50.0), ("op_p95_us", 95.0)] {
            if !stats::supports(n, p) {
                out.warn(format!(
                    "warning: {n} timed ops are few for {name} ({} wanted): read it with care",
                    stats::min_samples_for(p)
                ));
            }
            let mut per_window: Vec<u64> =
                latencies.iter().filter_map(|w| stats::nearest_rank(w, p)).collect();
            per_window.sort_unstable();
            let quiet = stats::nearest_rank(&per_window, QUIET_QUARTILE).unwrap_or(0);
            out.metrics.push(Metric::new(name, stats::us(quiet), "us"));
        }
        let mut busy_rates: Vec<f64> = rates.iter().copied().filter(|&r| r > 0.0).collect();
        busy_rates.sort_by(|a, b| b.total_cmp(a));
        let quiet = busy_rates.get(stats::rank_index(busy_rates.len().max(1), QUIET_QUARTILE));
        out.metrics.push(Metric::new("ops_per_s", quiet.copied().unwrap_or(0.0), "1/s"));
        // Over whole passes of the op list only, so that where a run
        // happens to stop does not move the mean: the same op list then
        // gives the same number, exactly, however fast the machine is.
        let (mut tuples, mut counted) = (0u64, 0usize);
        for lane in &self.timed {
            let whole = lane.ops.len() / lane.cycle.max(1) * lane.cycle.max(1);
            let counts = if whole == 0 { lane.ops.len() } else { whole };
            tuples += lane.ops[..counts].iter().map(|op| op.tuples).sum::<u64>();
            counted += counts;
        }
        out.metrics.push(Metric::new(
            "tuples_per_op",
            tuples as f64 / counted.max(1) as f64,
            "tuples",
        ));
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread, and every thread it starts from now on,
/// to one of the CPUs it may run on (the last), and returns which. The
/// box gives a run two CPUs of a shared host, and where the kernel puts
/// the two ends of a loopback ping-pong changes from one quarter of an
/// hour to the next: client and worker on one CPU, a `serve_reads` op
/// takes 94 µs, on two it takes 155, in the same build. A closed loop
/// has one side waiting while the other works, so one CPU loses it
/// little, and the run is the same run every time.
pub fn confine_to_one_cpu() -> Result<usize, String> {
    // glibc's `cpu_set_t`: 1024 bits.
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is `size` writable bytes; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..allowed.len() * 64)
        .rev()
        .find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("sched_getaffinity: no CPU allowed")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `size` readable bytes; pid 0 is this thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

/// `VmHWM` of this process in MB: the most resident memory it ever held.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Facts about the machine and the build that a result file records, as
/// the members of a JSON object (without the braces).
pub fn environment_json(out_dir: &std::path::Path) -> String {
    let nproc = run("nproc", &[]).unwrap_or_else(|| "unknown".into());
    let rustc = run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "not a git checkout".into());
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "\"nproc\": \"{nproc}\", \"available_parallelism\": {parallelism}, \"rustc\": \"{rustc}\", \
         \"git_commit\": \"{commit}\", \"data_dir_fs\": \"{}\"",
        filesystem_of(out_dir)
    )
}

fn run(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The filesystem type of the mount that holds `path`, from
/// `/proc/self/mounts` (longest mount-point prefix wins).
fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".into() };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, point, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point).then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult { attempted: 3, ..RunResult::default() };
        r.metrics.push(Metric::new("op_p50_us", 1.25, "us"));
        let line = r.to_json_line();
        let parsed = sepra_repl::json::parse(&line).expect("valid JSON");
        let sepra_repl::json::Json::Obj(members) = &parsed else { panic!("not an object") };
        let keys: Vec<&str> = members.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").and_then(|c| c.as_bool()), Some(true));
        r.fail("x");
        assert!(r.to_json_line().contains("\"correct\": false"));
    }

    /// `n` ops `gap` nanoseconds apart.
    fn lane(
        n: u64,
        gap: u64,
        latency: impl Fn(u64) -> u64,
        tuples: impl Fn(u64) -> u64,
        cycle: usize,
    ) -> Lane {
        let ops =
            (0..n).map(|i| Op { at: i * gap, latency_ns: latency(i), tuples: tuples(i) }).collect();
        Lane { ops, cycle }
    }

    #[test]
    fn tuples_per_op_counts_whole_passes_of_the_op_list() {
        // A list of four ops deriving 0, 1, 2, 3 tuples; the run stops
        // two ops into its third pass.
        let m = Measured::single(lane(10, 1_000, |_| 10, |i| i % 4, 4), 1.0);
        let mut r = RunResult::default();
        m.metrics(&mut r);
        assert_eq!(value(&r, "tuples_per_op"), Some(1.5));
        // Shorter than one pass: every op counts.
        let m = Measured::single(lane(3, 1_000, |_| 10, |i| i % 4, 4), 1.0);
        let mut r = RunResult::default();
        m.metrics(&mut r);
        assert_eq!(value(&r, "tuples_per_op"), Some(1.0));
    }

    fn value(r: &RunResult, name: &str) -> Option<f64> {
        r.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    #[test]
    fn too_few_samples_warn_and_every_metric_is_still_reported() {
        let m = Measured::single(lane(150, 1_000_000, |_| 1_000, |_| 0, 1), 1.0);
        let mut r = RunResult::default();
        m.metrics(&mut r);
        assert_eq!(r.failed, 0);
        assert_eq!(r.complaints.len(), 1, "{:?}", r.complaints);
        assert!(r.complaints[0].contains("op_p95_us"));
        assert_eq!(value(&r, "op_p95_us"), Some(1.0));
        assert_eq!(value(&r, "op_p50_us"), Some(1.0));
        let enough = Measured::single(lane(200, 1_000_000, |_| 1_000, |_| 0, 1), 1.0);
        let mut r = RunResult::default();
        enough.metrics(&mut r);
        assert!(r.complaints.is_empty());
    }

    #[test]
    fn a_burst_over_most_of_the_run_moves_no_metric() {
        // 1000 ops over one second, 1 µs busy each; the ops of seven of
        // the ten windows take 50 times as long.
        let quiet = |slow: &'static [u64]| {
            let latency = move |i: u64| if slow.contains(&(i / 100)) { 50_000 } else { 1_000 };
            Measured::single(lane(1000, 1_000_000, latency, |_| 3, 1), 1.0)
        };
        let (mut calm, mut bursty) = (RunResult::default(), RunResult::default());
        quiet(&[]).metrics(&mut calm);
        quiet(&[0, 2, 3, 4, 6, 7, 9]).metrics(&mut bursty);
        assert_eq!(calm.metrics, bursty.metrics);
        assert_eq!(value(&calm, "op_p95_us"), Some(1.0));
        assert_eq!(value(&calm, "ops_per_s"), Some(1e6));
        assert_eq!(value(&calm, "tuples_per_op"), Some(3.0));
    }

    #[test]
    fn a_connection_beside_counts_into_the_rate_and_nothing_else() {
        // The timed lane is busy 1 µs per op, the lane beside it 4 µs.
        let m = Measured {
            timed: vec![lane(1000, 1_000_000, |_| 1_000, |_| 0, 1)],
            beside: vec![lane(500, 2_000_000, |_| 4_000, |_| 0, 1)],
            seconds: 1.0,
        };
        let mut r = RunResult::default();
        m.metrics(&mut r);
        assert_eq!(value(&r, "ops_per_s"), Some(1e6 + 0.25e6));
        assert_eq!(value(&r, "op_p50_us"), Some(1.0));
    }

    #[test]
    fn windows_in_which_a_connection_stalled_are_left_out() {
        // The reader takes 5 µs an op beside a writer and 1 µs alone. The
        // writer is at work in the first two windows, then one write
        // takes until the end of the run.
        let reads = lane(1000, 1_000_000, |i| if i < 200 { 5_000 } else { 1_000 }, |_| 0, 1);
        let mut writes = lane(200, 1_000_000, |_| 4_000, |_| 0, 1);
        writes.ops.push(Op { at: 999_000_000, latency_ns: 799_000_000, tuples: 0 });
        let m = Measured { timed: vec![reads], beside: vec![writes], seconds: 1.0 };
        let mut r = RunResult::default();
        m.metrics(&mut r);
        assert_eq!(value(&r, "op_p50_us"), Some(5.0));
        assert_eq!(value(&r, "ops_per_s"), Some(0.2e6 + 0.25e6));
    }

    /// How many CPUs the calling thread may run on.
    fn cpus_allowed() -> u32 {
        let mut mask = [0u64; 16];
        // SAFETY: as in `confine_to_one_cpu`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        assert_eq!(rc, 0);
        mask.iter().map(|word| word.count_ones()).sum()
    }

    #[test]
    fn a_confined_thread_and_its_children_run_on_one_cpu() {
        // On a thread of its own: the test harness's threads keep theirs.
        let counts = std::thread::spawn(|| {
            confine_to_one_cpu().expect("confine");
            (cpus_allowed(), std::thread::spawn(cpus_allowed).join().expect("child"))
        })
        .join()
        .expect("thread");
        assert_eq!(counts, (1, 1));
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
