//! The `sepra serve` query service.
//!
//! A server loads and compiles a program once ([`QueryProcessor::prepare`]
//! interns symbols, detects recursions, materializes supporting strata, and
//! enables the shared plan cache), then answers line-delimited JSON
//! requests over TCP:
//!
//! ```text
//! -> {"query": "t(a, Y)?", "strategy": "separable", "timeout_ms": 250, "max_tuples": 100000}
//! <- {"answers": [["a","b"], ...], "count": 2, "strategy": "separable",
//!     "elapsed_us": 113, "stats": {"iterations": 4, "tuples_inserted": 9, "rows_scanned": 31}}
//! -> {"insert": ["e(b, c)."], "retract": ["e(a, b)."]}
//! <- {"inserted": 1, "retracted": 1, "generation": 5, "elapsed_us": 87, "stats": {...}}
//! -> {"stats": true}
//! <- {"uptime_ms": ..., "threads": ..., "generation": ..., "queries": {...}, ...}
//! ```
//!
//! Concurrency is a hand-rolled worker pool over `std::net` (the workspace
//! takes no external dependencies): each worker owns a cheap
//! [`QueryProcessor`] clone — a copy-on-write database snapshot sharing the
//! prepared state and plan cache — and is handed connections as they
//! arrive ([`sepra_repl::listener`], the loop the router runs too). Every
//! request runs under a [`Budget`] that combines the server-wide
//! defaults, the request's overrides, and a cancellation flag raised at
//! shutdown, so a deadline or a Ctrl-C surfaces as a structured
//! `budget_exceeded` error instead of a stuck fixpoint.
//!
//! Mutations (`insert`/`retract` requests) are serialized through one
//! master processor behind a mutex — writes are exclusive, reads share
//! snapshots. [`QueryProcessor::apply_mutation`] stages the whole delta and
//! maintains the prepared materializations incrementally, so a mutation is
//! all-or-none; publishing the new database generation afterwards makes
//! every worker refresh its snapshot before its next request. A query
//! therefore observes either none or all of a mutation, never a prefix.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sepra_engine::{GenerationGate, ProcessorError, QueryProcessor, Strategy, StrategyChoice};
use sepra_eval::{Budget, EvalError};
use sepra_repl::feeder::refuse_sync;
use sepra_repl::listener::serve_connections;
use sepra_repl::protocol::parse_sync_request;
use sepra_repl::stream_to_follower;
use sepra_wal::WalError;

use crate::durability::{Durability, DurabilityOptions};
use crate::json::{self, Json, ObjWriter};
use crate::metrics::Metrics;

/// Requests larger than this are rejected without parsing (the protocol is
/// one query per line; 64 KiB is far beyond any sensible query text).
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Default for [`ServeOptions::idle_timeout`]: how long a connection may
/// sit idle mid-protocol before the worker reclaims itself. Reads poll in
/// [`READ_POLL`] slices so an idle worker still notices shutdown promptly.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
const READ_POLL: Duration = Duration::from_millis(200);
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a `min_generation` read waits for the replica to catch up
/// when the request carries no deadline of its own (no `timeout_ms`, no
/// server default).
const MIN_GENERATION_WAIT: Duration = Duration::from_secs(10);

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind, e.g. `127.0.0.1:7464` (port 0 picks a free port;
    /// the chosen address is printed on startup).
    pub addr: String,
    /// Worker threads — concurrent connections served (each query runs its
    /// fixpoints serially; parallelism is across requests).
    pub threads: usize,
    /// Default per-query deadline; a request's `timeout_ms` overrides it.
    pub default_timeout: Option<Duration>,
    /// Default per-query derived-tuple cap; `max_tuples` overrides it.
    pub default_max_tuples: Option<usize>,
    /// Refuse to start on lint warnings too, not just errors.
    pub deny_warnings: bool,
    /// How long a connection may sit idle mid-protocol before its worker
    /// reclaims itself (cumulative wait between complete requests).
    pub idle_timeout: Duration,
    /// With `Some`, the server is durable: mutations are write-ahead
    /// logged under the data dir, checkpoints roll per the cadence, and
    /// startup recovers the newest durable state. `None` is the original
    /// ephemeral behavior.
    pub durability: Option<DurabilityOptions>,
    /// With `Some(HOST:PORT)`, the server is a **read replica**: it syncs
    /// its EDB from the primary's checkpoint + WAL stream, serves reads
    /// (stamped with the applied generation), and rejects mutations with
    /// a redirect naming the primary. Mutually exclusive with
    /// `durability` — a replica's durable state *is* the primary's.
    pub replica_of: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7464".into(),
            threads: crate::default_threads(),
            default_timeout: None,
            default_max_tuples: None,
            deny_warnings: false,
            idle_timeout: IDLE_TIMEOUT,
            durability: None,
            replica_of: None,
        }
    }
}

/// Why the server refused to start (it never fails once serving).
#[derive(Debug)]
pub enum ServeError {
    /// The loaded program has deny-level diagnostics; the rendered report
    /// is included. The gate mirrors `sepra check`: a program that fails
    /// static analysis is refused before a socket is ever bound.
    Lint(String),
    /// Preparing the processor (support materialization) failed.
    Prepare(ProcessorError),
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
    /// Opening the data directory or recovering durable state failed
    /// (unwritable/readonly dir, corrupt frame past its checksum, …).
    /// Startup refuses rather than serving a silently ephemeral server.
    Durability(WalError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Lint(report) => {
                write!(f, "refusing to serve a program with lint errors\n{report}")
            }
            ServeError::Prepare(e) => write!(f, "preparing the program failed: {e}"),
            ServeError::Io(e) => write!(f, "{e}"),
            ServeError::Durability(e) => write!(f, "durability: {e}"),
        }
    }
}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        ServeError::Durability(e)
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// The `sepra check` gate: refuses a program whose diagnostics would make
/// `sepra check` exit nonzero (errors always; warnings under
/// `deny_warnings`).
pub fn lint_gate(qp: &QueryProcessor, deny_warnings: bool) -> Result<(), ServeError> {
    let result = qp.lint("<program>", None);
    if result.exit_code(deny_warnings) != 0 {
        return Err(ServeError::Lint(result.render_text()));
    }
    Ok(())
}

/// Runs the query service until shutdown (a `quit` line on stdin, SIGINT,
/// or SIGTERM). Prints `sepra serve listening on ADDR (N workers)` once
/// the socket is bound.
pub fn serve(mut qp: QueryProcessor, opts: &ServeOptions) -> Result<(), ServeError> {
    lint_gate(&qp, opts.deny_warnings)?;
    if opts.replica_of.is_some() && opts.durability.is_some() {
        return Err(ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "--replica-of and --data-dir are mutually exclusive: a replica's durable state \
             is the primary's",
        )));
    }
    // Recovery runs before `prepare`, so support materialization happens
    // once, over the recovered EDB.
    let durability = match &opts.durability {
        Some(durability_opts) => {
            let durability = Durability::recover(&mut qp, durability_opts)?;
            println!("sepra serve {}", durability.recovery_banner());
            Some(durability)
        }
        None => None,
    };
    qp.prepare().map_err(ServeError::Prepare)?;
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    match &opts.replica_of {
        Some(primary) => println!(
            "sepra serve listening on {addr} ({} workers, replica of {primary})",
            opts.threads.max(1)
        ),
        None => println!("sepra serve listening on {addr} ({} workers)", opts.threads.max(1)),
    }
    let _ = std::io::stdout().flush();

    let shutdown = Arc::new(AtomicBool::new(false));
    watch_stdin(Arc::clone(&shutdown));
    signal::install();
    run(listener, qp, opts, shutdown, durability)
}

/// The accept loop and worker pool, parameterized over the listener and
/// shutdown flag so tests can drive a server in-process. Returns once the
/// flag is raised — a bare store is enough, nobody needs notifying — and
/// every worker has drained.
pub fn run(
    listener: TcpListener,
    qp: QueryProcessor,
    opts: &ServeOptions,
    shutdown: Arc<AtomicBool>,
    durability: Option<Durability>,
) -> Result<(), ServeError> {
    let metrics = Arc::new(Metrics::new());
    let gate = GenerationGate::new();
    gate.publish(qp.db().generation());
    let shared = Arc::new(SharedState {
        generation: AtomicU64::new(qp.db().generation()),
        primary_generation: AtomicU64::new(qp.db().generation()),
        master: Mutex::new(qp),
        durability: durability.map(Mutex::new),
        gate,
        replica_of: opts.replica_of.clone(),
        applied_records: AtomicU64::new(0),
        sync_socket: Mutex::new(None),
    });

    // A replica pulls its state from the primary on a dedicated applier
    // thread; queries keep being served from snapshots throughout.
    let applier = opts
        .replica_of
        .as_ref()
        .map(|primary| {
            crate::replica::spawn_applier(
                primary.clone(),
                Arc::clone(&shared),
                Arc::clone(&shutdown),
            )
        })
        .transpose()?;

    let workers = (0..opts.threads.max(1))
        .map(|_| {
            let mut worker = Worker {
                qp: shared.lock_master().clone(),
                shared: Arc::clone(&shared),
                shutdown: Arc::clone(&shutdown),
                metrics: Arc::clone(&metrics),
                default_timeout: opts.default_timeout,
                default_max_tuples: opts.default_max_tuples,
                idle_timeout: opts.idle_timeout,
                threads: opts.threads.max(1),
            };
            move |stream| worker.handle_connection(stream)
        })
        .collect();

    // `--fsync interval:MS` defers syncs to the next append; the accept
    // loop backstops that with a periodic flush so the documented loss
    // window ("at most one interval") holds when mutations stop arriving.
    let deferred_fsync = shared
        .durability
        .as_ref()
        .and_then(|d| d.lock().unwrap_or_else(|e| e.into_inner()).deferred_sync_interval());
    let mut last_flush_check = Instant::now();

    // Raising the flag cancels in-flight budgets (every request's budget
    // carries it as a cancellation token); the pool releases its idle
    // workers itself. The applier is not in the pool: its waits are ended
    // from here, so it does not sit out the primary's next ping.
    let served = serve_connections(&listener, &shutdown, "sepra-worker", workers, || {
        if signal::raised() {
            shutdown.store(true, Ordering::SeqCst);
        }
        if let (Some(interval), Some(durability)) = (deferred_fsync, &shared.durability) {
            if last_flush_check.elapsed() >= interval {
                let _ = durability.lock().unwrap_or_else(|e| e.into_inner()).flush_if_stale();
                last_flush_check = Instant::now();
            }
        }
    });
    shutdown.store(true, Ordering::SeqCst);
    if let Some(applier) = applier {
        crate::replica::stop_applier(&shared, &applier);
        let _ = applier.join();
    }
    // Clean shutdown flushes policy-deferred WAL writes: `--fsync
    // interval`/`never` only risk loss on a crash, not on an exit.
    if let Some(durability) = &shared.durability {
        let _ = durability.lock().unwrap_or_else(|e| e.into_inner()).sync();
    }
    Ok(served?)
}

/// Watches stdin for a `quit`/`shutdown` line on a detached thread. EOF
/// stops the watcher without stopping the server (so a backgrounded
/// server with a closed stdin keeps running; use SIGINT/SIGTERM there).
fn watch_stdin(shutdown: Arc<AtomicBool>) {
    let _ = std::thread::Builder::new().name("sepra-stdin".into()).spawn(move || {
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match stdin.lock().read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {
                    if matches!(line.trim(), "quit" | "shutdown" | "exit") {
                        shutdown.store(true, Ordering::SeqCst);
                        return;
                    }
                }
            }
        }
    });
}

/// SIGINT/SIGTERM handling without a libc dependency: a hand-rolled
/// binding to `signal(2)` flips a process-global flag the accept loop
/// polls. Non-Unix builds compile the polling to a constant `false`.
#[cfg(unix)]
mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static RAISED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        RAISED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub(super) fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub(super) fn raised() -> bool {
        RAISED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signal {
    pub(super) fn install() {}

    pub(super) fn raised() -> bool {
        false
    }
}

/// The mutable server state every worker shares: the master processor
/// (mutations are serialized through its mutex — write-exclusive) and the
/// published database generation workers compare their snapshots against.
pub(crate) struct SharedState {
    pub(crate) master: Mutex<QueryProcessor>,
    /// The master's **database** generation as of the last committed
    /// mutation (or, on a replica, the last applied run or checkpoint):
    /// the lock-free copy of the gate that every request compares its
    /// snapshot with. The database generation and not the processor's,
    /// because a replica adopts stamps the processor generation does not
    /// follow — a run whose effective delta is empty still moves the
    /// stamp, and a snapshot below it must not answer a read the gate
    /// released. Published *after* the master commits, so a worker
    /// observing the new value is guaranteed to clone a fully mutated
    /// master.
    pub(crate) generation: AtomicU64,
    /// The durability pipeline (`--data-dir`). Lock order: master first,
    /// then durability — stats readers take durability alone, never the
    /// reverse.
    pub(crate) durability: Option<Mutex<Durability>>,
    /// The committed **database** generation — the durable lineage WAL
    /// records and checkpoints are stamped with, and the number every
    /// client-visible `"generation"` field reports. Published after the
    /// processor generation, so a waiter released by the gate always finds
    /// a refreshable snapshot at or past its target.
    pub(crate) gate: GenerationGate,
    /// `Some(addr)` when this server is a read replica of `addr`.
    pub(crate) replica_of: Option<String>,
    /// On a replica: the primary's generation as last reported by the
    /// sync stream (pings carry it), for honest lag accounting.
    pub(crate) primary_generation: AtomicU64,
    /// On a replica: WAL records applied since startup.
    pub(crate) applied_records: AtomicU64,
    /// On a replica: a handle on the applier's live sync connection, for
    /// shutdown to close under it.
    pub(crate) sync_socket: Mutex<Option<TcpStream>>,
}

impl SharedState {
    pub(crate) fn lock_master(&self) -> std::sync::MutexGuard<'_, QueryProcessor> {
        // A worker that panicked mid-mutation never committed (the master
        // only changes at `apply_mutation`'s final commit step), so the
        // state behind a poisoned lock is still consistent.
        self.master.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn lock_sync_socket(&self) -> std::sync::MutexGuard<'_, Option<TcpStream>> {
        self.sync_socket.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One worker thread: owns a processor clone and serves the whole
/// connections the accept loop hands it.
struct Worker {
    qp: QueryProcessor,
    shared: Arc<SharedState>,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    default_timeout: Option<Duration>,
    default_max_tuples: Option<usize>,
    idle_timeout: Duration,
    threads: usize,
}

impl Worker {
    fn handle_connection(&mut self, stream: TcpStream) {
        // Short read timeouts so a worker parked on an idle connection
        // still notices shutdown within one poll interval; `idle` tracks
        // the cumulative wait so connections are still reclaimed.
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        // Responses are one small write each on a ping-pong connection:
        // without nodelay, Nagle + the peer's delayed ACK adds a flat
        // ~40 ms to every round trip.
        let _ = stream.set_nodelay(true);
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        let mut idle = Duration::ZERO;
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // The cap counts the request line itself: filling it without a
            // newline means the client sent an oversized request. A timed-
            // out read leaves any partial line in `line` for the next poll.
            let remaining = (MAX_REQUEST_BYTES + 1).saturating_sub(line.len());
            if remaining == 0 {
                let _ = write_line(
                    &mut writer,
                    &error_response(
                        "bad_request",
                        &format!("request exceeds {MAX_REQUEST_BYTES} bytes"),
                        None,
                    ),
                );
                return;
            }
            let sofar = line.len();
            match (&mut reader).take(remaining as u64).read_until(b'\n', &mut line) {
                Ok(0) if line.is_empty() => return,        // EOF: client is done
                Ok(0) => {}                                // EOF with a final unterminated request
                Ok(_) if line.last() == Some(&b'\n') => {} // one complete request
                Ok(_) => {
                    // Mid-line (take cap reached): progress was made, so
                    // the connection is not idle.
                    idle = Duration::ZERO;
                    continue;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // A timed-out read may still have consumed partial
                    // bytes into `line`; that is progress, and a slow
                    // writer must not be reclaimed while still sending.
                    if line.len() > sofar {
                        idle = Duration::ZERO;
                    } else {
                        idle += READ_POLL;
                        if idle >= self.idle_timeout {
                            return;
                        }
                    }
                    continue;
                }
                Err(_) => return, // reset
            }
            idle = Duration::ZERO;
            let response = match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => {
                    line.clear();
                    continue;
                }
                Ok(text) => match sync_request_of(text.trim()) {
                    // A sync request turns this connection into a
                    // replication stream: hand the socket to a dedicated
                    // feeder thread (streams run for hours — parking a
                    // pool worker on one would starve queries) and free
                    // this worker for the next connection.
                    Some(Ok(from_generation)) => {
                        self.handle_sync(writer, from_generation);
                        return;
                    }
                    Some(Err(message)) => error_response("bad_request", &message, None),
                    None => self.handle_request(text.trim()),
                },
                Err(_) => error_response("bad_request", "request is not valid UTF-8", None),
            };
            line.clear();
            if write_line(&mut writer, &response).is_err() {
                return;
            }
        }
    }

    /// Serves (or refuses) one follower's sync stream. Only a durable
    /// primary can feed followers: the stream's source of truth is the
    /// data directory, which an ephemeral server does not have and a
    /// replica does not own.
    fn handle_sync(&self, stream: TcpStream, from_generation: u64) {
        if self.shared.replica_of.is_some() {
            let _ = refuse_sync(
                &stream,
                "sync_unavailable",
                "this server is a replica; sync from the primary instead",
            );
            return;
        }
        let Some(durability) = &self.shared.durability else {
            let _ = refuse_sync(
                &stream,
                "sync_unavailable",
                "this server is ephemeral (started without --data-dir); only a durable \
                 server can feed replicas",
            );
            return;
        };
        let source = durability.lock().unwrap_or_else(|e| e.into_inner()).sync_source();
        let shared = Arc::clone(&self.shared);
        let shutdown = Arc::clone(&self.shutdown);
        let _ = std::thread::Builder::new().name("sepra-sync".into()).spawn(move || {
            let _ = stream_to_follower(&stream, from_generation, &source, &shutdown, &|| {
                shared.gate.current()
            });
        });
    }

    /// Replaces this worker's snapshot with the master's when a mutation
    /// has been published since the snapshot was taken.
    fn refresh_snapshot(&mut self) {
        if self.shared.generation.load(Ordering::SeqCst) != self.qp.db().generation() {
            self.qp = self.shared.lock_master().clone();
        }
    }

    /// Parks until the applied db generation reaches `target` or `limit`
    /// elapses, waiting in short slices so shutdown stays prompt. Returns
    /// the generation actually reached.
    fn await_generation(&self, target: u64, limit: Duration) -> u64 {
        let deadline = Instant::now() + limit;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let reached = self.shared.gate.wait_for(target, remaining.min(READ_POLL));
            if reached >= target || remaining <= READ_POLL || self.shutdown.load(Ordering::SeqCst) {
                return reached;
            }
        }
    }

    fn handle_request(&mut self, text: &str) -> String {
        let request = match json::parse(text) {
            Ok(v) => v,
            Err(e) => return error_response("bad_request", &format!("invalid JSON: {e}"), None),
        };
        // Reads share snapshots: pick up the latest committed mutation
        // before answering, so a query issued after a mutation response
        // was sent always sees the mutated database.
        self.refresh_snapshot();
        if request.get("stats").and_then(Json::as_bool) == Some(true) {
            return stats_response(&self.metrics, &self.qp, &self.shared, self.threads);
        }
        if request.get("insert").is_some() || request.get("retract").is_some() {
            if request.get("query").is_some() {
                return error_response(
                    "bad_request",
                    "a request is either a query or a mutation, not both",
                    None,
                );
            }
            return self.handle_mutation(&request);
        }
        let Some(query) = request.get("query").and_then(Json::as_str).map(str::to_owned) else {
            return error_response(
                "bad_request",
                "request needs a \"query\" member (or \"insert\"/\"retract\", or \"stats\": true)",
                None,
            );
        };
        let choice = match request.get("strategy").and_then(Json::as_str) {
            None => StrategyChoice::Auto,
            Some(name) => match name.parse::<Strategy>() {
                Ok(s) => StrategyChoice::Force(s),
                Err(e) => return error_response("bad_request", &e, None),
            },
        };
        let budget = match self.request_budget(&request) {
            Ok(budget) => budget,
            Err(message) => return error_response("bad_request", &message, None),
        };
        // Generation-consistent reads: `"min_generation": G` parks the
        // request until the applied generation reaches G (read-your-writes
        // against a replica that is still catching up), bounded by the
        // request's deadline budget. The budget above was already started,
        // so wait time counts against the query's own deadline too.
        match budget_field(&request, "min_generation") {
            Err(message) => return error_response("bad_request", &message, None),
            Ok(None) => {}
            Ok(Some(target)) => {
                let limit = match budget_field(&request, "timeout_ms") {
                    Ok(Some(ms)) => Duration::from_millis(ms),
                    _ => self.default_timeout.unwrap_or(MIN_GENERATION_WAIT),
                };
                let reached = self.await_generation(target, limit);
                if reached < target {
                    let mut detail = ObjWriter::new();
                    detail
                        .str("kind", "timeout")
                        .str(
                            "message",
                            &format!(
                                "generation {target} not reached within the deadline \
                                 (applied generation is {reached})"
                            ),
                        )
                        .num("generation", reached);
                    let mut out = ObjWriter::new();
                    out.raw("error", &detail.finish());
                    return out.finish();
                }
                // The gate is published after the master commits, so a
                // released waiter refreshes into a snapshot at or past G.
                self.refresh_snapshot();
            }
        }
        self.qp.set_exec_options(sepra_core::exec::ExecOptions {
            budget,
            ..sepra_core::exec::ExecOptions::default()
        });

        let start = Instant::now();
        match self.qp.query_with(&query, choice) {
            Ok(result) => {
                self.metrics.record_ok(
                    &result.strategy.to_string(),
                    start.elapsed(),
                    result.stats.tuples_inserted as u64,
                    result.stats.iterations as u64,
                );
                self.metrics.record_planner(
                    result.stats.plans_costed as u64,
                    result.stats.plan_fallbacks as u64,
                );
                let interner = self.qp.db().interner();
                let mut rows = String::from("[");
                for (i, tuple) in result.answers.iter().enumerate() {
                    if i > 0 {
                        rows.push(',');
                    }
                    rows.push('[');
                    for (j, value) in tuple.values().enumerate() {
                        if j > 0 {
                            rows.push(',');
                        }
                        rows.push('"');
                        rows.push_str(&json::escape(&value.display(interner).to_string()));
                        rows.push('"');
                    }
                    rows.push(']');
                }
                rows.push(']');
                let mut stats = ObjWriter::new();
                stats
                    .num("iterations", result.stats.iterations as u64)
                    .num("tuples_inserted", result.stats.tuples_inserted as u64)
                    .num("rows_scanned", result.stats.rows_scanned as u64);
                // Every answer is stamped with the db generation of the
                // snapshot that produced it, so clients can compare reads
                // across replicas (and against mutation acks).
                let mut out = ObjWriter::new();
                out.raw("answers", &rows)
                    .num("count", result.answers.len() as u64)
                    .str("strategy", &result.strategy.to_string())
                    .num("generation", self.qp.db().generation())
                    .num(
                        "elapsed_us",
                        u64::try_from(result.elapsed.as_micros()).unwrap_or(u64::MAX),
                    )
                    .raw("stats", &stats.finish());
                out.finish()
            }
            Err(e) => {
                let budget_exceeded =
                    matches!(&e, ProcessorError::Eval(EvalError::BudgetExceeded { .. }));
                self.metrics.record_error(budget_exceeded, start.elapsed());
                processor_error_response(e)
            }
        }
    }

    /// The per-request budget: server defaults, request overrides, and the
    /// shutdown flag as a cancellation token. Fails (→ `bad_request`) when
    /// a budget member is present but not a nonnegative integer.
    fn request_budget(&self, request: &Json) -> Result<Budget, String> {
        let mut budget = Budget::unlimited().cancellable(Arc::clone(&self.shutdown));
        if let Some(ms) = budget_field(request, "timeout_ms")? {
            budget = budget.timeout(Duration::from_millis(ms));
        } else if let Some(t) = self.default_timeout {
            budget = budget.timeout(t);
        }
        if let Some(n) = budget_field(request, "max_tuples")? {
            budget = budget.tuples(n as usize);
        } else if let Some(n) = self.default_max_tuples {
            budget = budget.tuples(n);
        }
        Ok(budget)
    }

    /// Applies an `insert`/`retract` request through the shared master
    /// processor (write-exclusive) and renders the outcome.
    fn handle_mutation(&mut self, request: &Json) -> String {
        if let Some(primary) = &self.shared.replica_of {
            // The structured redirect: clients (and the router) read
            // `error.primary` to re-aim the mutation.
            let mut detail = ObjWriter::new();
            detail
                .str("kind", "read_only_replica")
                .str(
                    "message",
                    &format!("this server is a read-only replica; send mutations to {primary}"),
                )
                .str("primary", primary);
            let mut out = ObjWriter::new();
            out.raw("error", &detail.finish());
            return out.finish();
        }
        let (inserts, retracts) =
            match (fact_list(request, "insert"), fact_list(request, "retract")) {
                (Ok(i), Ok(r)) => (i, r),
                (Err(message), _) | (_, Err(message)) => {
                    return error_response("bad_request", &message, None)
                }
            };
        let budget = match self.request_budget(request) {
            Ok(budget) => budget,
            Err(message) => return error_response("bad_request", &message, None),
        };
        let insert_refs: Vec<&str> = inserts.iter().map(String::as_str).collect();
        let retract_refs: Vec<&str> = retracts.iter().map(String::as_str).collect();

        let start = Instant::now();
        let outcome = {
            let mut master = self.shared.lock_master();
            // With durability on, keep a copy-on-write backup so a failed
            // WAL append can roll the in-memory commit back: a mutation is
            // acknowledged only once it is both applied *and* logged.
            let backup = self.shared.durability.as_ref().map(|_| master.clone());
            master.set_exec_options(sepra_core::exec::ExecOptions {
                budget,
                ..sepra_core::exec::ExecOptions::default()
            });
            let outcome = master.apply_mutation(&insert_refs, &retract_refs);
            if let Ok(out) = &outcome {
                if !out.delta.is_empty() {
                    if let Some(durability) = &self.shared.durability {
                        let append = durability
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .record_commit(master.db(), &out.delta);
                        if let Err(e) = append {
                            // Write-ahead failed: the commit would not
                            // survive a crash, so it must not be visible
                            // at all. Restore the pre-mutation master.
                            *master = backup.expect("backup exists when durability is on");
                            self.metrics.record_mutation_failure();
                            return error_response(
                                "wal",
                                &format!(
                                    "mutation rolled back, write-ahead log append failed: {e}"
                                ),
                                None,
                            );
                        }
                    }
                }
                // Commit order matters: refresh our own snapshot and
                // publish the generation only after the master committed
                // and the delta is logged, so no snapshot can observe a
                // non-durable mutation. The gate (the client-visible db
                // generation) is published last: a waiter it releases
                // must find the lock-free copy already advanced.
                self.qp = master.clone();
                self.shared.generation.store(self.qp.db().generation(), Ordering::SeqCst);
                self.shared.gate.publish(self.qp.db().generation());
            }
            outcome
        };
        match outcome {
            Ok(out) => {
                self.metrics.record_mutation(
                    out.inserted as u64,
                    out.retracted as u64,
                    start.elapsed(),
                );
                self.metrics
                    .record_planner(out.stats.plans_costed as u64, out.stats.plan_fallbacks as u64);
                let mut stats = ObjWriter::new();
                stats
                    .num("iterations", out.stats.iterations as u64)
                    .num("tuples_inserted", out.stats.tuples_inserted as u64)
                    .num("rows_scanned", out.stats.rows_scanned as u64);
                // The stamped generation is the *database* generation —
                // the durable lineage WAL records carry and replicas
                // report — so a client can hand it straight to a replica
                // as `min_generation` for read-your-writes.
                let mut response = ObjWriter::new();
                response
                    .num("inserted", out.inserted as u64)
                    .num("retracted", out.retracted as u64)
                    .num("generation", self.qp.db().generation())
                    .num("elapsed_us", u64::try_from(out.elapsed.as_micros()).unwrap_or(u64::MAX))
                    .raw("stats", &stats.finish());
                response.finish()
            }
            Err(e) => {
                self.metrics.record_mutation_failure();
                processor_error_response(e)
            }
        }
    }
}

/// Detects a `{"sync": ...}` request without disturbing the normal
/// request path: `None` means "not a sync request, handle normally". The
/// substring pre-check keeps the common path at one JSON parse.
fn sync_request_of(text: &str) -> Option<Result<u64, String>> {
    if !text.contains("\"sync\"") {
        return None;
    }
    let request = json::parse(text).ok()?;
    parse_sync_request(&request)
}

/// Reads an optional budget member, failing when it is present but not a
/// nonnegative integer (silently ignoring `"timeout_ms": "soon"` would
/// run the query unbounded — the opposite of what the client asked for).
fn budget_field(request: &Json, key: &str) -> Result<Option<u64>, String> {
    match request.get(key) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n)),
            None => Err(format!("\"{key}\" must be a nonnegative integer")),
        },
    }
}

/// Reads an optional `insert`/`retract` member as a list of fact strings.
fn fact_list(request: &Json, key: &str) -> Result<Vec<String>, String> {
    match request.get(key) {
        None => Ok(Vec::new()),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|item| match item.as_str() {
                Some(s) => Ok(s.to_owned()),
                None => Err(format!("\"{key}\" must be an array of fact strings")),
            })
            .collect(),
        Some(_) => Err(format!("\"{key}\" must be an array of fact strings")),
    }
}

fn write_line(writer: &mut TcpStream, response: &str) -> std::io::Result<()> {
    // One write per response: splitting the newline into a second small
    // write lets Nagle hold it until the first segment is acknowledged,
    // which with the peer's delayed ACK puts a flat ~40 ms on every
    // request/response round trip.
    let mut framed = String::with_capacity(response.len() + 1);
    framed.push_str(response);
    framed.push('\n');
    writer.write_all(framed.as_bytes())
}

/// Renders `{"error": {"kind": ..., "message": ..., "what"?: ...}}`.
fn error_response(kind: &str, message: &str, what: Option<&str>) -> String {
    let mut detail = ObjWriter::new();
    detail.str("kind", kind).str("message", message);
    if let Some(what) = what {
        detail.str("what", what);
    }
    let mut out = ObjWriter::new();
    out.raw("error", &detail.finish());
    out.finish()
}

/// Renders a failed query or mutation: the error's kind and message, and
/// for an exhausted budget the structured `what` / `resource` detail.
fn processor_error_response(e: ProcessorError) -> String {
    match e {
        ProcessorError::Eval(EvalError::BudgetExceeded { what, resource }) => {
            let mut detail = ObjWriter::new();
            detail
                .str("kind", "budget_exceeded")
                .str("message", &format!("budget exceeded in {what}: {}", resource.name()))
                .str("what", &what)
                .str("resource", resource.name());
            let mut out = ObjWriter::new();
            out.raw("error", &detail.finish());
            out.finish()
        }
        ProcessorError::Ast(e) => error_response("parse", &e.to_string(), None),
        ProcessorError::Eval(e) => error_response("eval", &e.to_string(), None),
        ProcessorError::Facts(e) => error_response("facts", &e, None),
        ProcessorError::StrategyUnavailable(e) => error_response("strategy_unavailable", &e, None),
    }
}

/// Renders the `{"stats": true}` response from the live counters.
fn stats_response(
    metrics: &Metrics,
    qp: &QueryProcessor,
    shared: &SharedState,
    threads: usize,
) -> String {
    let s = metrics.snapshot();
    let mut by_strategy = ObjWriter::new();
    for (strategy, count) in &s.by_strategy {
        by_strategy.num(strategy, *count);
    }
    let mut queries = ObjWriter::new();
    queries
        .num("total", s.total())
        .num("ok", s.ok)
        .num("errors", s.errors)
        .num("budget_exceeded", s.budget_exceeded)
        .num("bounded_eliminations", s.bounded_eliminations)
        .raw("by_strategy", &by_strategy.finish());
    let mut mutations = ObjWriter::new();
    mutations
        .num("total", s.mutations + s.mutation_failures)
        .num("ok", s.mutations)
        .num("errors", s.mutation_failures)
        .num("tuples_inserted", s.mutation_inserted)
        .num("tuples_retracted", s.mutation_retracted);
    let mut latency = ObjWriter::new();
    latency
        .num("min", s.latency_min_us)
        .num("median", s.latency_median_us)
        .num("max", s.latency_max_us);
    let cache = qp.plan_cache();
    let mut plan_cache = ObjWriter::new();
    plan_cache
        .num("entries", cache.entries() as u64)
        .num("hits", cache.hits())
        .num("misses", cache.misses());
    // Planner counters: conjunctions cost-ordered, stats-less fallbacks,
    // cache entries dropped for statistics drift, and replans (a replan is
    // a compile the cache could not serve, i.e. a miss).
    let mut planner = ObjWriter::new();
    planner
        .num("plans_costed", s.plans_costed)
        .num("fallbacks", s.plan_fallbacks)
        .num("drift_invalidations", cache.drift_invalidations())
        .num("replans", cache.misses());
    // The client-visible generation is the committed *database*
    // generation (the WAL/checkpoint lineage) — comparable across the
    // primary, its replicas, and mutation acks.
    let applied = shared.gate.current();
    let mut out = ObjWriter::new();
    out.num("uptime_ms", u64::try_from(s.uptime.as_millis()).unwrap_or(u64::MAX))
        .num("threads", threads as u64)
        .num("generation", applied)
        .raw("queries", &queries.finish())
        .raw("mutations", &mutations.finish())
        .num("tuples_inserted", s.tuples_inserted)
        .num("iterations", s.iterations)
        .raw("latency_us", &latency.finish())
        .raw("plan_cache", &plan_cache.finish())
        .raw("planner", &planner.finish());
    if let Some(primary) = &shared.replica_of {
        let primary_generation = shared.primary_generation.load(Ordering::SeqCst);
        let mut replication = ObjWriter::new();
        replication
            .str("role", "replica")
            .str("primary", primary)
            .num("generation", applied)
            .num("primary_generation", primary_generation)
            .num("lag", primary_generation.saturating_sub(applied))
            .num("applied_records", shared.applied_records.load(Ordering::SeqCst));
        out.raw("replication", &replication.finish());
    } else if shared.durability.is_some() {
        let mut replication = ObjWriter::new();
        replication.str("role", "primary").num("generation", applied);
        out.raw("replication", &replication.finish());
    }
    if let Some(durability) = &shared.durability {
        let durability = durability.lock().unwrap_or_else(|e| e.into_inner());
        out.raw("durability", &durability.stats_json(qp.db().generation()));
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn processor() -> QueryProcessor {
        let mut qp = QueryProcessor::new();
        qp.load(
            "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
             buys(X, Y) :- perfectFor(X, Y).\n\
             friend(tom, sue). friend(sue, joe).\n\
             perfectFor(joe, widget).\n",
        )
        .unwrap();
        qp
    }

    fn worker(qp: QueryProcessor) -> Worker {
        worker_with(qp, None)
    }

    fn worker_with(qp: QueryProcessor, durability: Option<Durability>) -> Worker {
        let gate = GenerationGate::new();
        gate.publish(qp.db().generation());
        let shared = Arc::new(SharedState {
            generation: AtomicU64::new(qp.db().generation()),
            primary_generation: AtomicU64::new(qp.db().generation()),
            master: Mutex::new(qp.clone()),
            durability: durability.map(Mutex::new),
            gate,
            replica_of: None,
            applied_records: AtomicU64::new(0),
            sync_socket: Mutex::new(None),
        });
        Worker {
            qp,
            shared,
            shutdown: Arc::new(AtomicBool::new(false)),
            metrics: Arc::new(Metrics::new()),
            default_timeout: None,
            default_max_tuples: None,
            idle_timeout: IDLE_TIMEOUT,
            threads: 1,
        }
    }

    #[test]
    fn answers_a_query_request() {
        let mut w = worker(processor());
        let response = w.handle_request(r#"{"query": "buys(tom, Y)?"}"#);
        let v = json::parse(&response).unwrap();
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("strategy").and_then(Json::as_str), Some("separable"));
        assert_eq!(
            v.get("answers"),
            Some(&Json::Arr(vec![Json::Arr(vec![
                Json::Str("tom".into()),
                Json::Str("widget".into()),
            ])]))
        );
        assert!(v.get("stats").and_then(|s| s.get("iterations")).is_some());
    }

    #[test]
    fn budget_exceeded_is_structured() {
        let mut w = worker(processor());
        let response = w.handle_request(r#"{"query": "buys(tom, Y)?", "max_tuples": 0}"#);
        let v = json::parse(&response).unwrap();
        let error = v.get("error").expect("error member");
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("budget_exceeded"));
        assert_eq!(error.get("resource").and_then(Json::as_str), Some("tuples"));
        // The worker stays usable afterwards.
        let ok = w.handle_request(r#"{"query": "buys(tom, Y)?"}"#);
        assert!(json::parse(&ok).unwrap().get("answers").is_some());
    }

    #[test]
    fn malformed_requests_get_bad_request() {
        let mut w = worker(processor());
        for request in ["nonsense", "{}", r#"{"query": 7}"#, r#"{"query": "t(", "x": }"#] {
            let v = json::parse(&w.handle_request(request)).unwrap();
            assert_eq!(
                v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
                Some("bad_request"),
                "request {request:?}"
            );
        }
        let v = json::parse(&w.handle_request(r#"{"query": "buys(tom"}"#)).unwrap();
        assert_eq!(
            v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("parse")
        );
    }

    #[test]
    fn stats_request_reports_counters() {
        let mut w = worker(processor());
        w.handle_request(r#"{"query": "buys(tom, Y)?"}"#);
        w.handle_request(r#"{"query": "buys(tom, Y)?", "max_tuples": 0}"#);
        let v = json::parse(&w.handle_request(r#"{"stats": true}"#)).unwrap();
        let queries = v.get("queries").expect("queries member");
        assert_eq!(queries.get("total").and_then(Json::as_u64), Some(2));
        assert_eq!(queries.get("ok").and_then(Json::as_u64), Some(1));
        assert_eq!(queries.get("budget_exceeded").and_then(Json::as_u64), Some(1));
        assert_eq!(
            queries.get("by_strategy").and_then(|b| b.get("separable")).and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(queries.get("bounded_eliminations").and_then(Json::as_u64), Some(0));
        assert!(v.get("latency_us").and_then(|l| l.get("median")).is_some());
        assert!(v.get("plan_cache").is_some());
        assert!(v.get("uptime_ms").is_some());
        // Two-atom bodies have nothing to reorder, so nothing was costed —
        // but the planner counters are visible and zeroed.
        let planner = v.get("planner").expect("planner member");
        assert_eq!(planner.get("fallbacks").and_then(Json::as_u64), Some(0));
        assert_eq!(planner.get("drift_invalidations").and_then(Json::as_u64), Some(0));
        assert!(planner.get("replans").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn bounded_queries_are_counted_as_eliminations() {
        let mut qp = QueryProcessor::new();
        qp.load(
            "t(X, Y) :- sym(X, Y), t(Y, X).\n\
             t(X, Y) :- base(X, Y).\n\
             sym(a, b). sym(b, a). base(b, a).\n",
        )
        .unwrap();
        let mut w = worker(qp);
        let v = json::parse(&w.handle_request(r#"{"query": "t(X, Y)?"}"#)).unwrap();
        assert_eq!(v.get("strategy").and_then(Json::as_str), Some("bounded"));
        let v = json::parse(&w.handle_request(r#"{"stats": true}"#)).unwrap();
        let queries = v.get("queries").expect("queries member");
        assert_eq!(queries.get("bounded_eliminations").and_then(Json::as_u64), Some(1));
        assert_eq!(
            queries.get("by_strategy").and_then(|b| b.get("bounded")).and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn planner_counters_reflect_cost_based_ordering() {
        let mut qp = QueryProcessor::new();
        qp.load(
            "reach(X, Y) :- hop(X, A), hop(A, B), reach(B, Y).\n\
             reach(X, Y) :- goal(X, Y).\n\
             hop(a, b). hop(b, c). hop(c, d). goal(c, done).\n",
        )
        .unwrap();
        let mut w = worker(qp);
        let v = json::parse(&w.handle_request(r#"{"query": "reach(a, Y)?"}"#)).unwrap();
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(1));
        let v = json::parse(&w.handle_request(r#"{"stats": true}"#)).unwrap();
        // The 3-atom recursive body was cost-ordered over real statistics:
        // at least one conjunction costed, and no stats-less fallback.
        let planner = v.get("planner").expect("planner member");
        assert!(planner.get("plans_costed").and_then(Json::as_u64).unwrap() > 0, "{planner:?}");
        assert_eq!(planner.get("fallbacks").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn mutation_request_updates_answers() {
        let mut w = worker(processor());
        let v = json::parse(&w.handle_request(r#"{"query": "buys(tom, Y)?"}"#)).unwrap();
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(1));

        let response = w.handle_request(
            r#"{"insert": ["perfectFor(sue, gift)."], "retract": ["friend(sue, joe)."]}"#,
        );
        let v = json::parse(&response).unwrap();
        assert_eq!(v.get("inserted").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("retracted").and_then(Json::as_u64), Some(1));
        let generation = v.get("generation").and_then(Json::as_u64).expect("generation");
        assert!(v.get("elapsed_us").is_some());
        assert!(v.get("stats").and_then(|s| s.get("tuples_inserted")).is_some());

        // tom -> sue -> gift is derivable; the joe -> widget path is gone.
        let v = json::parse(&w.handle_request(r#"{"query": "buys(tom, Y)?"}"#)).unwrap();
        assert_eq!(
            v.get("answers"),
            Some(&Json::Arr(vec![Json::Arr(vec![
                Json::Str("tom".into()),
                Json::Str("gift".into()),
            ])]))
        );

        // Stats report the mutation and the published generation.
        let v = json::parse(&w.handle_request(r#"{"stats": true}"#)).unwrap();
        assert_eq!(v.get("generation").and_then(Json::as_u64), Some(generation));
        let mutations = v.get("mutations").expect("mutations member");
        assert_eq!(mutations.get("ok").and_then(Json::as_u64), Some(1));
        assert_eq!(mutations.get("tuples_inserted").and_then(Json::as_u64), Some(1));
        assert_eq!(mutations.get("tuples_retracted").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn another_workers_snapshot_sees_committed_mutations() {
        let mut a = worker(processor());
        let mut b = Worker {
            qp: a.shared.lock_master().clone(),
            shared: Arc::clone(&a.shared),
            shutdown: Arc::clone(&a.shutdown),
            metrics: Arc::clone(&a.metrics),
            default_timeout: None,
            default_max_tuples: None,
            idle_timeout: IDLE_TIMEOUT,
            threads: 1,
        };
        // Warm b's snapshot, mutate through a, then query through b: the
        // generation check must force b to re-clone.
        let v = json::parse(&b.handle_request(r#"{"query": "buys(tom, Y)?"}"#)).unwrap();
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(1));
        a.handle_request(r#"{"insert": ["perfectFor(joe, socks)."]}"#);
        let v = json::parse(&b.handle_request(r#"{"query": "buys(tom, Y)?"}"#)).unwrap();
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn failed_mutations_leave_the_database_alone() {
        let mut w = worker(processor());
        // Arity clash: friend is binary.
        let v = json::parse(&w.handle_request(r#"{"insert": ["friend(solo)."]}"#)).unwrap();
        assert_eq!(
            v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("facts")
        );
        let v = json::parse(&w.handle_request(r#"{"query": "buys(tom, Y)?"}"#)).unwrap();
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(1));
        let v = json::parse(&w.handle_request(r#"{"stats": true}"#)).unwrap();
        assert_eq!(
            v.get("mutations").and_then(|m| m.get("errors")).and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn malformed_mutations_get_bad_request() {
        let mut w = worker(processor());
        for request in [
            r#"{"insert": "perfectFor(a, b)."}"#,
            r#"{"insert": [7]}"#,
            r#"{"retract": {"fact": "x"}}"#,
            r#"{"insert": ["p(a)."], "query": "p(X)?"}"#,
        ] {
            let v = json::parse(&w.handle_request(request)).unwrap();
            assert_eq!(
                v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
                Some("bad_request"),
                "request {request:?}"
            );
        }
    }

    #[test]
    fn invalid_budget_members_get_bad_request() {
        let mut w = worker(processor());
        for request in [
            r#"{"query": "buys(tom, Y)?", "timeout_ms": "soon"}"#,
            r#"{"query": "buys(tom, Y)?", "max_tuples": -1}"#,
            r#"{"query": "buys(tom, Y)?", "timeout_ms": 1.5}"#,
            r#"{"insert": ["perfectFor(a, b)."], "max_tuples": true}"#,
        ] {
            let v = json::parse(&w.handle_request(request)).unwrap();
            assert_eq!(
                v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
                Some("bad_request"),
                "request {request:?}"
            );
        }
        // Valid overrides still work.
        let v =
            json::parse(&w.handle_request(r#"{"query": "buys(tom, Y)?", "timeout_ms": 10000}"#))
                .unwrap();
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn durable_worker_logs_commits_and_reports_stats() {
        let dir = std::env::temp_dir()
            .join(format!("sepra_server_worker_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurabilityOptions::new(dir.clone());
        let mut qp = processor();
        let durability = Durability::recover(&mut qp, &opts).unwrap();
        let mut w = worker_with(qp, Some(durability));

        let v =
            json::parse(&w.handle_request(r#"{"insert": ["perfectFor(sue, gift)."]}"#)).unwrap();
        assert_eq!(v.get("inserted").and_then(Json::as_u64), Some(1));
        // A no-op mutation must not grow the log.
        let v =
            json::parse(&w.handle_request(r#"{"insert": ["perfectFor(sue, gift)."]}"#)).unwrap();
        assert_eq!(v.get("inserted").and_then(Json::as_u64), Some(0));

        let v = json::parse(&w.handle_request(r#"{"stats": true}"#)).unwrap();
        let durability = v.get("durability").expect("durability member");
        assert_eq!(durability.get("records_since_checkpoint").and_then(Json::as_u64), Some(1));
        assert_eq!(durability.get("fsync").and_then(Json::as_str), Some("always"));
        assert!(durability.get("wal_bytes").and_then(Json::as_u64).unwrap() > 8);
        let recovery = durability.get("recovery").expect("recovery member");
        assert_eq!(recovery.get("replayed_records").and_then(Json::as_u64), Some(0));

        // A fresh processor recovering the same dir sees the commit.
        drop(w);
        let mut fresh = processor();
        let recovered = Durability::recover(&mut fresh, &opts).unwrap();
        assert_eq!(recovered.recovery().replayed_records, 1);
    }

    #[test]
    fn lint_gate_rejects_deny_level_programs() {
        // `q` is undefined and `p` unused — warning-level diagnostics, so
        // the gate passes by default but rejects under --deny warnings.
        let mut qp = QueryProcessor::new();
        qp.load("p(X) :- q(X).\n").unwrap();
        assert!(lint_gate(&qp, false).is_ok());
        assert!(matches!(lint_gate(&qp, true), Err(ServeError::Lint(_))));
    }
}
