//! `sepra` — the command line of the separable-recursion query processor.
//!
//! This file decodes argv and REPL lines, holds the help texts, and
//! prints; what it runs are library calls. One-shot queries, `--explain`,
//! `--check` and the REPL run through one [`Session`], as the server's
//! workers do — the one-shot path is the REPL's dispatcher run once — and
//! `client` speaks the wire through `sepra_repl`'s connection and
//! round-trip helpers. The help texts below are the usage.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use sepra_engine::{
    render_answers, render_answers_csv, render_answers_json, MutationOutcome, ProcessorError,
    QueryProcessor, StrategyChoice,
};
use sepra_repl::client::connect;
use sepra_repl::protocol::Request;
use sepra_repl::router::round_trip;
use sepra_repl::{route, RouteOptions};
use sepra_server::{
    default_threads, dump, restore, serve, CheckpointFormat, DurabilityOptions, Limits,
    ServeOptions, Session, DEFAULT_CHECKPOINT_EVERY,
};
use sepra_storage::EvalStats;
use sepra_wal::FsyncPolicy;

/// How long `sepra client` waits to connect, and then for each reply.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The one handle everything this binary prints goes through. `print!`
/// panics when the reader has gone (`sepra … | head -1`); here the first
/// failed write closes the handle — later prints are dropped, sessions
/// end — and `main` exits with `closed`: quietly and successfully for a
/// closed pipe, as any well-behaved filter does. Locked per write, not
/// for the process's life: `serve` and `route` print their banners from
/// library code.
struct Out {
    stdout: std::io::Stdout,
    closed: Option<ExitCode>,
}

impl Out {
    fn print(&mut self, text: impl std::fmt::Display) {
        if self.closed.is_some() {
            return;
        }
        let mut stdout = self.stdout.lock();
        if let Err(e) = write!(stdout, "{text}").and_then(|()| stdout.flush()) {
            self.closed = Some(if e.kind() == ErrorKind::BrokenPipe {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: writing to stdout: {e}");
                ExitCode::FAILURE
            });
        }
    }

    fn println(&mut self, text: impl std::fmt::Display) {
        self.print(format_args!("{text}\n"));
    }
}

/// Why a command stopped early: what `main` writes to stderr, and the
/// variant picks the exit status.
enum Stop {
    /// Bad arguments or unreachable I/O: status 2.
    Usage(String),
    /// The command itself failed: status 1.
    Failed(String),
}

/// A usage error's `error: …` line.
fn usage(msg: impl std::fmt::Display) -> Stop {
    Stop::Usage(format!("error: {msg}\n"))
}

/// For `map_err`: any error as a failure's `error: …` line.
fn failed(e: impl std::fmt::Display) -> Stop {
    Stop::Failed(format!("error: {e}\n"))
}

/// A subcommand's refusal of an option it does not know.
fn unknown_option(command: &str, option: &str) -> Stop {
    usage(format_args!("unknown option `{option}` (try `sepra {command} --help`)"))
}

/// What the argument cursor reports are usage errors.
impl From<String> for Stop {
    fn from(msg: String) -> Self {
        usage(msg)
    }
}

/// A cursor over one command's arguments. The flag loops ask it for each
/// flag's value, so "missing argument" and "expects …, got …" are worded
/// in one place.
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value following `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("missing argument for {flag}"))
    }

    /// The value following `flag`, parsed; `what` names what was expected.
    fn parsed<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> Result<T, String> {
        let value = self.value(flag)?;
        value.parse().map_err(|_| format!("{flag} expects {what}, got `{value}`"))
    }

    /// The value following `flag`, which must be one of `options`.
    fn choice<T: Copy>(
        &mut self,
        flag: &str,
        what: &str,
        options: &[(&str, T)],
    ) -> Result<T, String> {
        let given = self.next();
        let found = options.iter().find(|(name, _)| Some(*name) == given);
        found
            .map(|&(_, value)| value)
            .ok_or_else(|| format!("{flag} expects {what}, got {:?}", given.unwrap_or("<missing>")))
    }

    fn threads(&mut self) -> Result<usize, String> {
        Ok(self.parsed::<NonZeroUsize>("--threads", "a positive integer")?.get())
    }

    fn millis(&mut self, flag: &str) -> Result<Duration, String> {
        Ok(Duration::from_millis(self.parsed(flag, "milliseconds")?))
    }
}

struct Options {
    files: Vec<String>,
    query: Option<String>,
    strategy: StrategyChoice,
    stats: bool,
    explain: bool,
    check: bool,
    format: Format,
    limits: Limits,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Csv,
    Json,
}

/// Parses the main CLI's arguments. `Ok(None)` means `--help` was handled
/// and the process should exit successfully.
fn parse_args(args: &[String], out: &mut Out) -> Result<Option<Options>, String> {
    let mut opts = Options {
        files: Vec::new(),
        query: None,
        strategy: StrategyChoice::Auto,
        stats: false,
        explain: false,
        check: false,
        format: Format::Text,
        limits: Limits { timeout: None, max_tuples: None, cancel: None },
    };
    let mut args = Args(args.iter());
    while let Some(arg) = args.next() {
        match arg {
            "-q" | "--query" => opts.query = Some(args.value("--query")?.to_string()),
            "-s" | "--strategy" => {
                opts.strategy = Session::choice(Some(args.value("--strategy")?))?
            }
            "--stats" => opts.stats = true,
            "--explain" => opts.explain = true,
            "--check" => opts.check = true,
            "-f" | "--format" => {
                let formats =
                    [("text", Format::Text), ("csv", Format::Csv), ("json", Format::Json)];
                opts.format = args.choice("--format", "text|csv|json", &formats)?;
            }
            "--timeout" => opts.limits.timeout = Some(args.millis("--timeout")?),
            "--max-tuples" => {
                opts.limits.max_tuples = Some(args.parsed("--max-tuples", "an integer")?)
            }
            // The REPL is what runs when there is no query to run.
            "--repl" => {}
            "-h" | "--help" => {
                out.print(HELP);
                return Ok(None);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}` (try --help)"))
            }
            file => opts.files.push(file.to_string()),
        }
    }
    Ok(Some(opts))
}

const HELP: &str = "\
sepra — deductive database engine with compiled separable recursions

Usage: sepra [OPTIONS] [FILE...]
       sepra check [OPTIONS] FILE...     (see `sepra check --help`)
       sepra serve [OPTIONS] FILE...     (see `sepra serve --help`)
       sepra route [OPTIONS]             (see `sepra route --help`)
       sepra client [OPTIONS] [QUERY...] (see `sepra client --help`)
       sepra dump FILE --data-dir DIR    (see `sepra dump --help`)
       sepra restore FILE --data-dir DIR (see `sepra restore --help`)

Options:
  -q, --query QUERY     run QUERY (e.g. 'buys(tom, Y)?') and exit
  -s, --strategy NAME   bounded|separable|magic|magic-sup|magic-subsumptive|counting|hn|seminaive|naive
      --timeout MS      per-query evaluation deadline in milliseconds
      --max-tuples N    abort evaluation after deriving N tuples
      --stats           print relation-size statistics after each query
      --explain         print the evaluation plan instead of running
                        (join orders + cost estimates; -f json for the
                        structured report)
      --check           print the diagnostic report for the loaded program
  -f, --format FMT      answer output format: text (default) | csv | json
      --repl            interactive session (default when no --query)
  -h, --help            this message
";

const CHECK_HELP: &str = "\
sepra check — static analysis for Datalog programs

Usage: sepra check [OPTIONS] FILE...

Lints each FILE without evaluating it: unsafe rules, arity mismatches,
undefined/unused predicates, duplicate clauses (LNT0xx), and — for every
recursive predicate — either its separable class structure (SEP100) or
the violated condition of Definition 2.4 (SEP001..SEP004), each pointing
at the offending rule and argument positions.

Options:
  -q, --query QUERY     analyze relative to QUERY (reachability, arity)
  -f, --format FMT      report format: text (default) | json
      --deny warnings   exit nonzero on warnings, not just errors
  -h, --help            this message

Exit status: 0 clean, 1 errors (or warnings under --deny warnings),
2 usage or I/O failure.
";

const SERVE_HELP: &str = "\
sepra serve — a concurrent query service over TCP

Usage: sepra serve [OPTIONS] FILE...

Loads and compiles the program once (recursion detection, supporting
strata, shared plan cache), then serves line-delimited JSON requests:

  -> {\"query\": \"t(a, Y)?\", \"timeout_ms\": 250}
  <- {\"answers\": [[\"a\",\"b\"]], \"count\": 1, \"strategy\": \"separable\",
      \"elapsed_us\": 113, \"stats\": {...}}
  -> {\"insert\": [\"e(b, c).\"], \"retract\": [\"e(a, b).\"]}
  <- {\"inserted\": 1, \"retracted\": 1, \"generation\": 5, ...}
  -> {\"stats\": true}
  <- {\"uptime_ms\": ..., \"generation\": ..., \"queries\": {...}, ...}

Requests may force a \"strategy\" and cap work with \"timeout_ms\" /
\"max_tuples\"; an exceeded budget returns a structured
{\"error\": {\"kind\": \"budget_exceeded\", ...}} and the server keeps
serving. \"insert\"/\"retract\" requests mutate the fact database:
retractions apply before insertions, derived answers are maintained
incrementally, and the whole mutation commits all-or-none — a query
never sees a half-applied mutation. Programs that fail `sepra check`
are refused at startup. Shutdown: a `quit` line on stdin, SIGINT, or
SIGTERM (in-flight queries are cancelled through their budgets).

With --data-dir the server is durable: every committed mutation is
appended to a write-ahead log before it is acknowledged, checkpoints
snapshot the full fact database every --checkpoint-every records (and
truncate the log), and startup recovers the newest checkpoint plus the
WAL tail — a `kill -9` loses at most the fsync window and never leaves
a half-applied mutation. `{\"stats\": true}` then reports a
\"durability\" object (WAL bytes, records since checkpoint, recovery).

With --replica-of the server is a read replica: it syncs the primary's
checkpoint and live WAL stream, applies each record through the same
incremental-maintenance path as live mutations, and serves queries —
stamping every response with the applied \"generation\". Mutations are
rejected with a {\"kind\": \"read_only_replica\"} error naming the
primary. A query may carry \"min_generation\": G to wait (bounded by
its deadline) until the replica has applied generation G — read-your-
writes for a client that just mutated through the primary.

Options:
      --addr HOST:PORT  bind address (default 127.0.0.1:7464; port 0
                        picks a free port, printed on startup)
  -t, --threads N       worker threads / concurrent connections
                        (default: available parallelism)
      --timeout MS      default per-query deadline (requests override)
      --max-tuples N    default per-query derived-tuple cap
      --idle-timeout-ms MS
                        disconnect a connection idle for MS milliseconds
                        (default 30000)
      --data-dir DIR    persist mutations under DIR (WAL + checkpoints)
                        and recover from it on startup
      --fsync POLICY    WAL flush policy: always (default; acknowledged
                        implies durable) | interval[:MS] | never
      --checkpoint-every N
                        checkpoint after N WAL records (default 1024;
                        0 disables automatic checkpoints)
      --checkpoint-format v1|v2
                        body format for new checkpoints: v2 (default)
                        is the columnar, memory-mappable layout; v1
                        keeps the row-major format pre-columnar
                        replicas can cold-sync from
      --replica-of HOST:PORT
                        run as a read replica of the primary at
                        HOST:PORT (mutually exclusive with --data-dir)
      --deny warnings   refuse to start on lint warnings, not just errors
  -h, --help            this message
";

const ROUTE_HELP: &str = "\
sepra route — a query router for a primary plus read replicas

Usage: sepra route --primary HOST:PORT --replicas HOST:PORT,... [OPTIONS]

Listens for the same line-delimited JSON protocol as `sepra serve` and
forwards each request to a backend: mutations (\"insert\"/\"retract\")
go to the primary, queries round-robin across the healthy replicas
(falling back to the primary when none are healthy), and
{\"stats\": true} is answered by the router itself with per-backend
health, generation, and lag behind the primary. A background prober
re-checks every backend, so a killed replica is routed around within
one probe interval and rejoins automatically once it resyncs. A query
that fails on one replica is retried once on the next healthy backend.

Options:
      --primary HOST:PORT
                        the primary server (required; mutations go here)
      --replicas LIST   comma-separated replica addresses (repeatable)
      --addr HOST:PORT  bind address (default 127.0.0.1:7465; port 0
                        picks a free port, printed on startup)
  -t, --threads N       worker threads / concurrent connections
                        (default: available parallelism)
      --probe-interval-ms MS
                        health-probe cadence (default 500)
  -h, --help            this message
";

const DUMP_HELP: &str = "\
sepra dump — export a data directory as one snapshot file

Usage: sepra dump FILE --data-dir DIR

Reads DIR's durable state — the newest valid checkpoint with the
write-ahead-log tail replayed on top (a torn final record is ignored) —
and writes it to FILE in the checkpoint container format. Strictly
read-only on DIR: safe to run against a live server. The snapshot is
portable (it carries its own symbol table) and is what `sepra restore`
and the REPL's `:load` consume.

Options:
      --data-dir DIR    the data directory to export (required)
  -h, --help            this message
";

const RESTORE_HELP: &str = "\
sepra restore — initialize a data directory from a snapshot file

Usage: sepra restore FILE --data-dir DIR [--force]

Validates FILE (container checksum and a full decode), then replaces
DIR's durable state with it: the snapshot becomes DIR's checkpoint and
the write-ahead log restarts empty. A subsequent
`sepra serve --data-dir DIR` recovers exactly the snapshot's facts.
Refuses to overwrite existing durable state unless --force is given.

Options:
      --data-dir DIR    the data directory to (re)initialize (required)
      --force           replace existing durable state in DIR
  -h, --help            this message
";

const CLIENT_HELP: &str = "\
sepra client — one-shot client for a running `sepra serve`

Usage: sepra client [OPTIONS] [QUERY...]

Sends each QUERY (e.g. 'buys(tom, Y)?') as a JSON request on one
connection and prints each JSON response line to stdout.

Options:
      --addr HOST:PORT  server address (default 127.0.0.1:7464)
  -s, --strategy NAME   force a strategy on every query
      --timeout MS      per-query deadline sent with every query
      --max-tuples N    per-query derived-tuple cap sent with every query
      --stats           also request server statistics (after the queries)
      --raw JSON        send JSON verbatim as one request (repeatable)
  -h, --help            this message

Exit status: 0 if every request got a response, 2 on usage or I/O errors.
";

const REPL_HELP: &str = "\
Clauses ending in `.` extend the program or database.
Atoms ending in `?` run as queries.
Commands:
  :strategy NAME   force a strategy (auto|bounded|separable|magic|magic-sup|magic-subsumptive|counting|hn|seminaive|naive)
  :explain QUERY   show the evaluation plan for QUERY
                   (join orders with per-scan cost estimates)
  :plan QUERY      the same plan as one line of JSON
  :why QUERY       answer QUERY and show one derivation per answer
  :insert FACT.    add ground facts, maintaining answers incrementally
  :retract FACT.   remove ground facts (delete-and-rederive)
  :save PATH       snapshot the fact database to PATH (checkpoint format,
                   readable by `sepra restore` and :load)
  :load PATH       merge the facts of a snapshot into the session
                   (insert-only, through incremental maintenance)
  :stats on|off    toggle statistics output
  :lint [QUERY]    diagnostic report, optionally relative to QUERY
                   (includes STR00x stratification findings when the
                   program uses `!p(...)` negation or aggregate heads)
  :check           alias for :lint without a query
  :program         list loaded rules
  :help (:h)       this message
  :quit (:q)       exit
";

/// Renders a load/parse failure. Frontend errors carry spans, so they get
/// the full rustc-style snippet against the text that produced them; other
/// errors fall back to a one-line message.
fn ast_error_text(name: &str, text: &str, e: &ProcessorError) -> String {
    match e {
        ProcessorError::Ast(ast) => {
            let file = sepra_lint::SourceFile::new(name, text);
            let diag = sepra_lint::parse_error_diagnostic(ast);
            sepra_lint::render_diagnostic_text(&diag, &file)
        }
        other => format!("error: {other}\n"),
    }
}

/// Loads every file into a fresh processor, stopping at the first failure.
fn load_files(files: &[String]) -> Result<QueryProcessor, Stop> {
    let mut qp = QueryProcessor::new();
    for file in files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| failed(format_args!("cannot read {file}: {e}")))?;
        qp.load(&text).map_err(|e| Stop::Failed(ast_error_text(file, &text, &e)))?;
    }
    Ok(qp)
}

/// The `sepra check FILE...` subcommand: lint-only, no evaluation.
fn run_check(args: &[String], out: &mut Out) -> Result<ExitCode, Stop> {
    let mut files: Vec<String> = Vec::new();
    let mut json = false;
    let mut deny_warnings = false;
    let mut query: Option<String> = None;
    let mut args = Args(args.iter());
    while let Some(arg) = args.next() {
        match arg {
            "-f" | "--format" => {
                json = args.choice("--format", "text|json", &[("json", true), ("text", false)])?
            }
            "--deny" => {
                deny_warnings = args.choice("--deny", "`warnings`", &[("warnings", true)])?
            }
            "-q" | "--query" => query = Some(args.value("--query")?.to_string()),
            "-h" | "--help" => {
                out.print(CHECK_HELP);
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with('-') => return Err(unknown_option("check", other)),
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        return Err(usage("sepra check needs at least one file (try `sepra check --help`)"));
    }
    let mut worst: u8 = 0;
    for (i, file) in files.iter().enumerate() {
        let read = std::fs::read_to_string(file);
        let Ok(text) = read.map_err(|e| eprintln!("error: cannot read {file}: {e}")) else {
            worst = worst.max(2);
            continue;
        };
        let result = sepra_lint::check_source(file, &text, query.as_deref());
        // Text reports are a blank line apart; JSON is one document a file.
        if !json && i > 0 {
            out.println("");
        }
        out.print(if json { result.render_json() } else { result.render_text() });
        worst = worst.max(result.exit_code(deny_warnings) as u8);
    }
    Ok(ExitCode::from(worst))
}

/// The `sepra serve FILE...` subcommand.
fn run_serve(args: &[String], out: &mut Out) -> Result<ExitCode, Stop> {
    let mut files: Vec<String> = Vec::new();
    let mut opts = ServeOptions::default();
    let mut data_dir: Option<PathBuf> = None;
    let mut fsync: Option<FsyncPolicy> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut checkpoint_format: Option<CheckpointFormat> = None;
    let mut args = Args(args.iter());
    while let Some(arg) = args.next() {
        match arg {
            "--data-dir" => data_dir = Some(PathBuf::from(args.value("--data-dir")?)),
            "--fsync" => fsync = Some(args.value("--fsync")?.parse()?),
            "--checkpoint-every" => {
                checkpoint_every = Some(args.parsed("--checkpoint-every", "a record count")?)
            }
            "--checkpoint-format" => {
                checkpoint_format = Some(args.value("--checkpoint-format")?.parse()?)
            }
            "--addr" => opts.addr = args.value("--addr")?.to_string(),
            "-t" | "--threads" => opts.threads = args.threads()?,
            "--timeout" => opts.default_timeout = Some(args.millis("--timeout")?),
            "--max-tuples" => {
                opts.default_max_tuples = Some(args.parsed("--max-tuples", "an integer")?)
            }
            "--idle-timeout-ms" => opts.idle_timeout = args.millis("--idle-timeout-ms")?,
            "--replica-of" => opts.replica_of = Some(args.value("--replica-of")?.to_string()),
            "--deny" => {
                opts.deny_warnings = args.choice("--deny", "`warnings`", &[("warnings", true)])?
            }
            "-h" | "--help" => {
                out.print(SERVE_HELP);
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with('-') => return Err(unknown_option("serve", other)),
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        return Err(usage("sepra serve needs at least one file (try `sepra serve --help`)"));
    }
    let durable = fsync.is_some() || checkpoint_every.is_some() || checkpoint_format.is_some();
    if opts.replica_of.is_some() && (data_dir.is_some() || durable) {
        return Err(usage(
            "--replica-of is mutually exclusive with --data-dir/--fsync/--checkpoint-every \
             (a replica's durable lineage is the primary's)",
        ));
    }
    if data_dir.is_none() && durable {
        return Err(usage(
            "--fsync, --checkpoint-every, and --checkpoint-format require --data-dir",
        ));
    }
    opts.durability = data_dir.map(|data_dir| DurabilityOptions {
        data_dir,
        fsync: fsync.unwrap_or_default(),
        checkpoint_every: checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY),
        checkpoint_format: checkpoint_format.unwrap_or_default(),
    });
    serve(load_files(&files)?, &opts).map_err(failed)?;
    Ok(ExitCode::SUCCESS)
}

/// The `sepra route` subcommand: mutation/query router for a primary
/// plus read replicas.
fn run_route(args: &[String], out: &mut Out) -> Result<ExitCode, Stop> {
    let mut opts = RouteOptions {
        addr: "127.0.0.1:7465".to_string(),
        primary: String::new(),
        replicas: Vec::new(),
        threads: default_threads(),
        probe_interval: Duration::from_millis(500),
    };
    let mut args = Args(args.iter());
    while let Some(arg) = args.next() {
        match arg {
            "--primary" => opts.primary = args.value("--primary")?.to_string(),
            "--replicas" => {
                let listed = args.value("--replicas")?.split(',').map(str::trim);
                opts.replicas.extend(listed.filter(|s| !s.is_empty()).map(String::from));
            }
            "--addr" => opts.addr = args.value("--addr")?.to_string(),
            "-t" | "--threads" => opts.threads = args.threads()?,
            "--probe-interval-ms" => opts.probe_interval = args.millis("--probe-interval-ms")?,
            "-h" | "--help" => {
                out.print(ROUTE_HELP);
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(unknown_option("route", other)),
        }
    }
    if opts.primary.is_empty() {
        return Err(usage("sepra route needs --primary HOST:PORT (try `sepra route --help`)"));
    }
    route(&opts).map_err(failed)?;
    Ok(ExitCode::SUCCESS)
}

/// `sepra dump FILE --data-dir DIR`, or with `restoring` `sepra restore
/// FILE --data-dir DIR [--force]`.
fn run_snapshot(restoring: bool, args: &[String], out: &mut Out) -> Result<ExitCode, Stop> {
    let (command, help, file_is) = if restoring {
        ("restore", RESTORE_HELP, "a snapshot")
    } else {
        ("dump", DUMP_HELP, "an output")
    };
    let (mut file, mut data_dir, mut force) = (None, None, false);
    let mut args = Args(args.iter());
    while let Some(arg) = args.next() {
        match arg {
            "--data-dir" => data_dir = Some(PathBuf::from(args.value("--data-dir")?)),
            "--force" if restoring => force = true,
            "-h" | "--help" => {
                out.print(help);
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with('-') => return Err(unknown_option(command, other)),
            positional if file.is_none() => file = Some(PathBuf::from(positional)),
            extra => return Err(usage(format_args!("unexpected argument `{extra}`"))),
        }
    }
    let needs = |what: &str| {
        usage(format_args!("sepra {command} needs {what} (try `sepra {command} --help`)"))
    };
    let file = file.ok_or_else(|| needs(&format!("{file_is} FILE")))?;
    let data_dir = data_dir.ok_or_else(|| needs("--data-dir DIR"))?;
    out.println(if restoring {
        let db = restore(&file, &data_dir, force).map_err(failed)?;
        let (facts, generation) = (db.total_tuples(), db.generation());
        format!("restored {facts} facts at generation {generation} into {}", data_dir.display())
    } else {
        let db = dump(&data_dir, &file).map_err(failed)?;
        let (facts, generation) = (db.total_tuples(), db.generation());
        format!("dumped {facts} facts at generation {generation} to {}", file.display())
    });
    Ok(ExitCode::SUCCESS)
}

/// The `sepra client` subcommand: one connection, one request per line.
fn run_client(args: &[String], out: &mut Out) -> Result<ExitCode, Stop> {
    let mut addr = String::from("127.0.0.1:7464");
    let (mut queries, mut raw) = (Vec::new(), Vec::new());
    let (mut strategy, mut timeout_ms, mut max_tuples, mut stats) = (None, None, None, false);
    let mut args = Args(args.iter());
    while let Some(arg) = args.next() {
        match arg {
            "--addr" => addr = args.value("--addr")?.to_string(),
            "-s" | "--strategy" => strategy = Some(args.value("--strategy")?.to_string()),
            "--timeout" => timeout_ms = Some(args.parsed("--timeout", "milliseconds")?),
            "--max-tuples" => max_tuples = Some(args.parsed("--max-tuples", "an integer")?),
            "--stats" => stats = true,
            "--raw" => raw.push(args.value("--raw")?.to_string()),
            "-h" | "--help" => {
                out.print(CLIENT_HELP);
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with('-') => return Err(unknown_option("client", other)),
            query => queries.push(query.to_string()),
        }
    }
    if queries.is_empty() && raw.is_empty() && !stats {
        return Err(usage("sepra client needs a QUERY, --raw, or --stats"));
    }
    let query = |query| Request::Query {
        query,
        strategy: strategy.clone(),
        timeout_ms,
        max_tuples,
        min_generation: None,
    };
    let mut requests: Vec<String> = queries.into_iter().map(|q| query(q).render()).collect();
    requests.extend(raw);
    if stats {
        requests.push(Request::Stats.render());
    }

    // Exit status 2 covers usage *and* I/O errors (see CLIENT_HELP).
    let stream = connect(&addr, CLIENT_TIMEOUT, CLIENT_TIMEOUT)
        .map_err(|e| usage(format_args!("cannot connect to {addr}: {e}")))?;
    let mut conn = BufReader::new(stream);
    for request in &requests {
        if out.closed.is_some() {
            break; // nobody is reading the responses any more
        }
        let response = round_trip(&mut conn, request).map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => usage("server closed the connection"),
            ErrorKind::BrokenPipe => usage(format_args!("connection to {addr} lost")),
            _ => usage(format_args!("reading response: {e}")),
        })?;
        out.println(response);
    }
    Ok(ExitCode::SUCCESS)
}

/// A REPL session: the [`Session`] and the options it started with, of
/// which `:strategy` and `:stats` change two. The one-shot path is one
/// call into it. Each call returns what goes to stdout, or on failure what
/// goes to stderr.
struct Repl {
    session: Session,
    opts: Options,
}

impl Repl {
    /// Runs one query; its answers as the format renders them.
    fn query(&mut self, src: &str) -> Result<String, String> {
        let budget = self.session.budget(None, None);
        let queried = self.session.query(src, self.opts.strategy, budget);
        let result = queried.map_err(|e| ast_error_text("<query>", src, &e))?;
        let (answers, interner) = (&result.answers, self.session.processor().db().interner());
        Ok(match self.opts.format {
            Format::Text => format!(
                "{}-- {} answers in {:.3?} via {}\n{}",
                render_answers(answers, interner),
                answers.len(),
                result.elapsed,
                result.strategy,
                stats_text(self.opts.stats, &result.stats)
            ),
            Format::Csv => render_answers_csv(answers, interner),
            Format::Json => render_answers_json(answers, interner),
        })
    }

    /// Runs one `:` command other than `:quit`.
    fn command(&mut self, cmd: &str, rest: &str) -> Result<String, String> {
        let session = &mut self.session;
        // A mutation's summary line, then its statistics under `:stats on`.
        let mutated = |head: String, m: MutationOutcome| {
            format!(
                "{head} (generation {})\n{}",
                m.generation,
                stats_text(self.opts.stats, &m.stats)
            )
        };
        let done = match cmd {
            ":help" | ":h" => Ok(REPL_HELP.to_string()),
            ":stats" => {
                self.opts.stats = rest != "off";
                Ok(format!("stats {}\n", if self.opts.stats { "on" } else { "off" }))
            }
            ":strategy" => Session::choice(Some(rest).filter(|&name| name != "auto")).map(|c| {
                self.opts.strategy = c;
                match c {
                    StrategyChoice::Auto => "strategy auto\n".to_string(),
                    StrategyChoice::Force(strategy) => format!("strategy {strategy}\n"),
                }
            }),
            ":explain" => session.explain(rest).map_err(|e| e.to_string()),
            ":plan" => session.plan(rest).map(|line| line + "\n").map_err(|e| e.to_string()),
            ":why" => session.why(rest).map_err(|e| e.to_string()),
            ":insert" | ":retract" if rest.is_empty() => {
                Err(format!("{cmd} expects one or more facts, e.g. {cmd} e(a, b)."))
            }
            ":insert" | ":retract" => {
                let (inserts, retracts): (&[&str], &[&str]) =
                    if cmd == ":insert" { (&[rest], &[]) } else { (&[], &[rest]) };
                let budget = session.budget(None, None);
                let m = session.mutate(inserts, retracts, budget).map_err(|e| e.to_string());
                m.map(|m| {
                    let head = format!("{} inserted, {} retracted", m.inserted, m.retracted);
                    mutated(format!("{head} in {:.3?}", m.elapsed), m)
                })
            }
            ":save" | ":load" if rest.is_empty() => {
                Err(format!("{cmd} expects a file path, e.g. {cmd} facts.sepra"))
            }
            ":save" => {
                let db = session.processor().db();
                let (facts, generation) = (db.total_tuples(), db.generation());
                let saved = session.save(Path::new(rest)).map_err(|e| e.to_string());
                saved.map(|()| format!("saved {facts} facts (generation {generation}) to {rest}\n"))
            }
            ":load" => session
                .load(Path::new(rest))
                .map(|m| mutated(format!("{} facts merged in {:.3?}", m.inserted, m.elapsed), m)),
            ":lint" => Ok(session.lint(Some(rest).filter(|q| !q.is_empty()))),
            ":check" => Ok(session.check()),
            ":program" => Ok(session.program()),
            other => Err(format!("unknown command {other} (try :help)")),
        };
        done.map_err(|e| format!("error: {e}\n"))
    }
}

/// Statistics after a command's output, when `:stats` is on.
fn stats_text(on: bool, stats: &EvalStats) -> String {
    if on {
        stats.to_string()
    } else {
        String::new()
    }
}

/// Prints what a REPL line did; `false` when it failed.
fn show(out: &mut Out, done: Result<String, String>) -> bool {
    done.map(|text| out.print(text)).map_err(|text| eprint!("{text}")).is_ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Out { stdout: std::io::stdout(), closed: None };
    let rest = args.get(1..).unwrap_or_default();
    let done = match args.first().map(String::as_str) {
        Some("check") => run_check(rest, &mut out),
        Some("serve") => run_serve(rest, &mut out),
        Some("route") => run_route(rest, &mut out),
        Some("client") => run_client(rest, &mut out),
        Some("dump") => run_snapshot(false, rest, &mut out),
        Some("restore") => run_snapshot(true, rest, &mut out),
        _ => run_main(&args, &mut out),
    };
    let (status, text) = match done {
        Ok(status) => return out.closed.unwrap_or(status),
        Err(Stop::Usage(text)) => (2, text),
        Err(Stop::Failed(text)) => (1, text),
    };
    eprint!("{text}");
    ExitCode::from(status)
}

/// `sepra [OPTIONS] [FILE...]`: a one-shot query, `--explain`, `--check`,
/// or the REPL. Every failure here exits 1.
fn run_main(args: &[String], out: &mut Out) -> Result<ExitCode, Stop> {
    let Some(opts) = parse_args(args, out).map_err(failed)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let session = Session::new(load_files(&opts.files)?, opts.limits.clone());
    let mut repl = Repl { session, opts };

    // One shot: the REPL's dispatcher, run once.
    let once = match (repl.opts.query.clone(), repl.opts.explain, repl.opts.format) {
        _ if repl.opts.check => Some(repl.command(":check", "")),
        (Some(query), true, Format::Json) => Some(repl.command(":plan", &query)),
        (Some(query), true, _) => Some(repl.command(":explain", &query)),
        (Some(query), false, _) => Some(repl.query(&query)),
        (None, ..) => None,
    };
    if let Some(done) = once {
        return Ok(if show(out, done) { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }

    out.println("sepra — type :help for commands");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        out.print(if buffer.is_empty() { "sepra> " } else { "   ... " });
        if out.closed.is_some() {
            break;
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if buffer.is_empty() && line.starts_with(':') {
            let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
            if matches!(cmd, ":quit" | ":q" | ":exit") {
                break;
            }
            // Failures are on stderr; the session carries on.
            show(out, repl.command(cmd, rest.trim()));
            continue;
        }
        buffer.push_str(line);
        buffer.push(' ');
        // A statement is complete at a trailing `.` or `?`.
        if !(line.ends_with('.') || line.ends_with('?')) {
            continue;
        }
        let stmt = buffer.trim().to_string();
        buffer.clear();
        let done = if stmt.ends_with('?') {
            repl.query(&stmt)
        } else {
            let loaded = repl.session.processor_mut().load(&stmt);
            loaded.map(|()| String::new()).map_err(|e| ast_error_text("<repl>", &stmt, &e))
        };
        show(out, done);
    }
    Ok(ExitCode::SUCCESS)
}
