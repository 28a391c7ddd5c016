//! The `sepra serve` query service.
//!
//! A server loads and compiles a program once ([`QueryProcessor::prepare`]
//! interns symbols, detects recursions, materializes supporting strata, and
//! enables the shared plan cache), then answers line-delimited JSON
//! requests over TCP ([`sepra_repl::protocol`] is the format's one home):
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
//! A request passes four places. The connection loop the router runs too
//! ([`sepra_repl::listener::serve_requests`]) frames and decodes it; a
//! `worker` refreshes its snapshot and runs a query on it; a mutation
//! commits in `commit`; `respond` renders the reply. The snapshot and the
//! master are each a [`Session`], the front door the REPL and the
//! one-shot CLI use too. This module is what is around them: startup
//! ([`serve`]), the pool ([`run`]) and the state the pool shares.
//!
//! Concurrency is a hand-rolled worker pool over `std::net` (the workspace
//! takes no external dependencies): each worker owns a cheap session
//! clone — a copy-on-write database snapshot sharing the prepared state
//! and plan cache — and is handed connections as they arrive. Every
//! request runs under a budget that combines the server-wide defaults,
//! the request's overrides, and a cancellation flag raised at shutdown,
//! so a deadline or a Ctrl-C surfaces as a structured `budget_exceeded`
//! error instead of a stuck fixpoint.
//!
//! Mutations (`insert`/`retract` requests) are serialized through one
//! master session behind a mutex — writes are exclusive, reads share
//! snapshots. [`QueryProcessor::apply_mutation`] stages the whole delta and
//! maintains the prepared materializations incrementally, so a mutation is
//! all-or-none; publishing the new database generation afterwards makes
//! every worker refresh its snapshot before its next request. A query
//! therefore observes either none or all of a mutation, never a prefix.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sepra_engine::{GenerationGate, ProcessorError, QueryProcessor};
use sepra_repl::listener::{serve_connections, watch_shutdown, IDLE_TIMEOUT};
use sepra_wal::WalError;

use crate::durability::{Durability, DurabilityOptions};
use crate::metrics::Metrics;
use crate::session::{Limits, Session};
use crate::worker::Worker;

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind, e.g. `127.0.0.1:7464` (port 0 picks a free port;
    /// the chosen address is printed on startup).
    pub addr: String,
    /// Worker threads — concurrent connections served.
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

    run(listener, qp, opts, watch_shutdown(), durability)
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
    let shared = Arc::new(SharedState::new(qp, durability, opts.clone(), shutdown));

    // A replica pulls its state from the primary on a dedicated applier
    // thread; queries keep being served from snapshots throughout.
    let applier = crate::replica::spawn_applier(&shared)?;

    let workers = (0..opts.threads.max(1))
        .map(|_| {
            let mut worker = Worker::new(&shared);
            move |stream| worker.serve(stream)
        })
        .collect();

    // `--fsync interval:MS` defers syncs to the next append; the accept
    // loop backstops that with a periodic flush so the documented loss
    // window ("at most one interval") holds when mutations stop arriving.
    let deferred_fsync = shared.lock_durability().and_then(|d| d.deferred_sync_interval());
    let mut last_flush_check = Instant::now();

    // Raising the flag cancels in-flight budgets (every request's budget
    // carries it as a cancellation token); the pool releases its idle
    // workers itself. The applier is not in the pool: its waits are ended
    // from here, so it does not sit out the primary's next ping.
    let served = serve_connections(&listener, &shared.shutdown, "sepra-worker", workers, || {
        if let (Some(interval), Some(mut durability)) = (deferred_fsync, shared.lock_durability()) {
            if last_flush_check.elapsed() >= interval {
                let _ = durability.flush_if_stale();
                last_flush_check = Instant::now();
            }
        }
    });
    shared.shutdown.store(true, Ordering::SeqCst);
    if let Some(applier) = applier {
        crate::replica::stop_applier(&shared, &applier);
        let _ = applier.join();
    }
    // Clean shutdown flushes policy-deferred WAL writes: `--fsync
    // interval`/`never` only risk loss on a crash, not on an exit.
    if let Some(mut durability) = shared.lock_durability() {
        let _ = durability.sync();
    }
    Ok(served?)
}

/// The server state every worker shares: the master session (mutations
/// are serialized through its mutex — write-exclusive), the
/// published database generation workers compare their snapshots against,
/// and what the server was started with.
pub(crate) struct SharedState {
    /// What [`run`] was given; `opts.replica_of` is `Some(addr)` when this
    /// server is a read replica of `addr`.
    pub(crate) opts: ServeOptions,
    /// Raised to stop the server. Every request's budget carries it as its
    /// cancellation token.
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) metrics: Metrics,
    pub(crate) master: Mutex<Session>,
    /// The durability pipeline (`--data-dir`). Lock order: master first,
    /// then durability — stats readers take durability alone, never the
    /// reverse.
    pub(crate) durability: Option<Mutex<Durability>>,
    /// The one published generation: the master's **database** generation
    /// as of the last committed mutation (or, on a replica, the last
    /// applied run or checkpoint) — the durable lineage WAL records and
    /// checkpoints are stamped with, and the number every client-visible
    /// `"generation"` field reports. Every request compares its snapshot
    /// with it (a lock-free read) and `min_generation` reads wait on it.
    /// The database generation and not the processor's, because a replica
    /// adopts stamps the processor generation does not follow — a run
    /// whose effective delta is empty still moves the stamp, and a
    /// snapshot below it must not answer a read the gate released.
    /// Published *after* the master commits, so a worker observing the
    /// new value, or released by it, clones a fully mutated master at or
    /// past it.
    pub(crate) gate: GenerationGate,
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
    pub(crate) fn new(
        qp: QueryProcessor,
        durability: Option<Durability>,
        opts: ServeOptions,
        shutdown: Arc<AtomicBool>,
    ) -> SharedState {
        let generation = qp.db().generation();
        let gate = GenerationGate::new();
        gate.publish(generation);
        let limits = Limits {
            timeout: opts.default_timeout,
            max_tuples: opts.default_max_tuples,
            cancel: Some(Arc::clone(&shutdown)),
        };
        SharedState {
            opts,
            shutdown,
            metrics: Metrics::new(),
            master: Mutex::new(Session::new(qp, limits)),
            durability: durability.map(Mutex::new),
            gate,
            primary_generation: AtomicU64::new(generation),
            applied_records: AtomicU64::new(0),
            sync_socket: Mutex::new(None),
        }
    }

    pub(crate) fn lock_master(&self) -> std::sync::MutexGuard<'_, Session> {
        // A worker that panicked mid-mutation never committed (the master
        // only changes at `apply_mutation`'s final commit step), so the
        // state behind a poisoned lock is still consistent.
        self.master.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn lock_durability(&self) -> Option<std::sync::MutexGuard<'_, Durability>> {
        // Every update of the pipeline's counters leaves them valid.
        self.durability.as_ref().map(|d| d.lock().unwrap_or_else(|e| e.into_inner()))
    }

    pub(crate) fn lock_sync_socket(&self) -> std::sync::MutexGuard<'_, Option<TcpStream>> {
        self.sync_socket.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
