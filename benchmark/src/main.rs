//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! sepra-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! sepra-benchmark [--seed N] [--seconds S]                        every workload, both kinds of run
//! sepra-benchmark --smoke                                         every workload, one second each
//! sepra-benchmark --check A.json B.json                           B against A, with the bounds
//! ```

mod check;
mod gen;
mod harness;
mod layers;
mod net;
mod oracle;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use harness::RunResult;
use spec::Spec;

/// The seed a run without `--seed` uses.
const DEFAULT_SEED: u64 = 1;

/// What the command line asked for.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    check: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                parsed.seed =
                    Some(value(&mut it, flag)?.parse().map_err(|e| format!("--seed: {e}"))?)
            }
            "--seconds" => {
                let s: f64 =
                    value(&mut it, flag)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be above 0 and at most 60".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--check" => parsed.check = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// One run of one workload in this process. The result line is the last
/// thing on standard output.
fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<RunResult, String> {
    std::fs::create_dir_all(workloads::out_dir()).map_err(|e| format!("create out dir: {e}"))?;
    let result = if trace {
        workloads::traced(workload, seed, seconds)
    } else {
        workloads::end_to_end(workload, seed, seconds, smoke)
    }?;
    for complaint in &result.complaints {
        eprintln!("{workload}: {complaint}");
    }
    println!("{}", result.to_json_line());
    Ok(result)
}

/// Runs one workload in a fresh child process, so that `peak_rss_mb` and
/// warmed caches never leak from one workload into the next, and returns
/// the child's result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout.lines().last().map(str::to_string).ok_or(format!("{workload} printed no result"))
}

/// Every workload: an end-to-end run and, unless smoking, a traced run.
/// Prints one `workload metric value unit` line per metric, writes the
/// result file, and reports whether every check passed.
fn run_all(seed: u64, seconds: f64, smoke: bool) -> Result<bool, String> {
    use sepra_repl::json::{self, Json};
    let spec = Spec::load();
    let mut all_correct = true;
    let mut cells = Vec::new();
    for workload in &spec.workloads {
        let mut lines = vec![run_child(workload, seed, seconds, false, smoke)?];
        if !smoke {
            lines.push(run_child(workload, seed, seconds, true, smoke)?);
        }
        let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
        for line in &lines {
            let result =
                json::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
            attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            if let Some(Json::Obj(members)) = result.get("metrics") {
                // In the order BENCHMARK.json lists them.
                for m in spec.end_to_end.iter().chain(&spec.per_layer) {
                    if let Some(Json::Num(value)) =
                        members.get(&m.name).and_then(|v| v.get("value"))
                    {
                        println!("{workload} {} {value} {}", m.name, m.unit);
                        metrics.push(format!(
                            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                            m.name, m.unit
                        ));
                    }
                }
            }
        }
        cells.push(format!(
            "    \"{workload}\": {{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{\n      {}\n    }}}}",
            failed == 0,
            metrics.join(",\n      ")
        ));
    }
    let out_dir = workloads::out_dir();
    let path = out_dir.join(format!("result-seed{seed}{}.json", if smoke { "-smoke" } else { "" }));
    let file = format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"setup_reps\": \"{} to {}\",\n  \
         \"fsync_policy\": \"never on serve_mixed, serve_writes and replica_catchup; always in the pinned wal and server mutation probes\",\n  \
         \"environment\": {{{}}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        workloads::SETUP_MIN_REPS,
        workloads::SETUP_MAX_REPS,
        harness::environment_json(&out_dir),
        cells.join(",\n")
    );
    std::fs::write(&path, file).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|args| {
        if let Some((base, new)) = &args.check {
            return check::check(base, new);
        }
        let seed = args.seed.unwrap_or(DEFAULT_SEED);
        // A smoke run is a second per workload: long enough for every
        // oracle check, too short for any percentile to mean much.
        let seconds =
            args.seconds.unwrap_or(if args.smoke { 1.0 } else { Spec::load().run_seconds as f64 });
        match &args.workload {
            // The driver reads `correct` off the result line; a run that
            // printed one has done its job even when a check failed.
            Some(workload) => {
                run_one(workload, seed, seconds, args.trace, args.smoke).map(|_| true)
            }
            None => run_all(seed, seconds, args.smoke),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAILED: a check did not pass");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
