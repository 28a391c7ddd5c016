//! `sepra route`: a query router in front of one primary and N replicas.
//!
//! The router is deliberately dumb — it terminates client connections,
//! classifies each request line by its top-level key, and relays raw
//! lines to a backend over the same protocol:
//!
//! * `insert` / `retract` → the primary (replicas reject mutations with a
//!   `read_only_replica` redirect anyway; routing saves the round trip).
//! * `stats` → answered locally: an aggregate of every backend's health,
//!   generation, and lag behind the primary.
//! * `sync` → refused (`bad_request`); followers must sync from the
//!   primary directly, not through the router.
//! * everything else (queries) → round-robin across **healthy** replicas,
//!   retrying on the next replica if the chosen one fails mid-request,
//!   and falling back to the primary when no replica is usable.
//!
//! Health is maintained by a single prober thread that sends
//! `{"stats": true}` to every backend on an interval and records the
//! reported generation — which is what makes `{"stats": true}` against
//! the router a one-stop lag dashboard. A relay failure also marks the
//! backend unhealthy immediately, so the prober's interval bounds
//! recovery time, not failure detection.
//!
//! The router holds no state a restart could lose: clients see
//! generation-stamped responses from the backends themselves, so
//! consistency (`min_generation`) survives routing to any replica.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::json::{self, escape, Json};
use crate::listener::serve_connections;

/// Per-read poll on client connections (so workers notice shutdown).
const READ_POLL: Duration = Duration::from_millis(200);
/// Largest request line relayed; matches the server's own cap.
const MAX_REQUEST_BYTES: usize = 64 * 1024;
/// Connect timeout for backend connections (relay and probes).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// A backend gets this long to answer a relayed request. Generous:
/// queries carry their own server-side deadline budget.
const BACKEND_TIMEOUT: Duration = Duration::from_secs(60);
/// A probe is quick; an unresponsive backend is unhealthy.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);
/// A client connection idle this long is closed.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Configuration for [`route`].
#[derive(Debug, Clone)]
pub struct RouteOptions {
    /// Address to listen on, e.g. `127.0.0.1:7411`.
    pub addr: String,
    /// The primary's `HOST:PORT` (mutations go here).
    pub primary: String,
    /// Replica `HOST:PORT`s (queries round-robin across the healthy ones).
    pub replicas: Vec<String>,
    /// Worker threads (0 ⇒ 1).
    pub threads: usize,
    /// Health-probe interval.
    pub probe_interval: Duration,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    Primary,
    Replica,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Replica => "replica",
        }
    }
}

#[derive(Debug)]
struct Backend {
    addr: String,
    role: Role,
    /// Last probe (or relay attempt) outcome. Backends start unhealthy
    /// and are promoted by the first successful probe.
    healthy: AtomicBool,
    /// Last generation the backend reported via `{"stats": true}`.
    generation: AtomicU64,
}

#[derive(Debug)]
struct RouterState {
    backends: Vec<Backend>,
    /// Index into `backends` of the primary (always 0, by construction).
    next_replica: AtomicUsize,
    shutdown: Arc<AtomicBool>,
}

impl RouterState {
    fn primary(&self) -> &Backend {
        &self.backends[0]
    }

    fn replicas(&self) -> &[Backend] {
        &self.backends[1..]
    }
}

/// Writes `line` plus its newline as ONE stream write: a trailing
/// newline in its own small write gets held by Nagle behind the peer's
/// delayed ACK, adding a flat ~40 ms per round trip.
fn write_framed(mut stream: &TcpStream, line: &str) -> std::io::Result<()> {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    stream.write_all(framed.as_bytes())
}

/// Sends one request line to `addr` on a fresh connection and returns the
/// single response line.
fn one_shot(addr: &str, line: &str, timeout: Duration) -> std::io::Result<String> {
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other(format!("{addr} resolved to no address")))?;
    let stream = TcpStream::connect_timeout(&resolved, CONNECT_TIMEOUT)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    write_framed(&stream, line)?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    if reader.read_line(&mut response)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "backend closed without answering",
        ));
    }
    Ok(response.trim_end().to_string())
}

/// Probes one backend: `{"stats": true}` on a fresh connection; healthy
/// iff it answers with a generation.
fn probe(backend: &Backend) {
    let healthy = match one_shot(&backend.addr, r#"{"stats": true}"#, PROBE_TIMEOUT) {
        Ok(response) => match json::parse(&response) {
            Ok(v) => {
                if let Some(generation) = v.get("generation").and_then(Json::as_u64) {
                    backend.generation.store(generation, Ordering::SeqCst);
                    true
                } else {
                    false
                }
            }
            Err(_) => false,
        },
        Err(_) => false,
    };
    backend.healthy.store(healthy, Ordering::SeqCst);
}

fn error_line(kind: &str, message: &str) -> String {
    format!(r#"{{"error": {{"kind": "{}", "message": "{}"}}}}"#, escape(kind), escape(message))
}

/// What a request line is, for routing purposes.
enum Kind {
    Mutation,
    Stats,
    Query,
}

fn classify(line: &str) -> Result<Kind, String> {
    let v = json::parse(line).map_err(|e| format!("invalid request JSON: {e}"))?;
    if v.get("insert").is_some() || v.get("retract").is_some() {
        Ok(Kind::Mutation)
    } else if v.get("stats").is_some() {
        Ok(Kind::Stats)
    } else if v.get("sync").is_some() {
        Err("sync streams must connect to the primary directly, not the router".into())
    } else {
        Ok(Kind::Query)
    }
}

/// The locally answered `{"stats": true}`: router identity plus every
/// backend's health, generation, and lag behind the primary.
fn stats_line(state: &RouterState) -> String {
    let primary_generation = state.primary().generation.load(Ordering::SeqCst);
    let healthy = state.backends.iter().filter(|b| b.healthy.load(Ordering::SeqCst)).count();
    let mut router = json::ObjWriter::new();
    router
        .num("backends", state.backends.len() as u64)
        .num("healthy", healthy as u64)
        .num("primary_generation", primary_generation);
    let mut backends = String::from("[");
    for (i, backend) in state.backends.iter().enumerate() {
        if i > 0 {
            backends.push(',');
        }
        let generation = backend.generation.load(Ordering::SeqCst);
        let mut b = json::ObjWriter::new();
        b.str("addr", &backend.addr)
            .str("role", backend.role.name())
            .raw("healthy", if backend.healthy.load(Ordering::SeqCst) { "true" } else { "false" })
            .num("generation", generation)
            .num("lag", primary_generation.saturating_sub(generation));
        backends.push_str(&b.finish());
    }
    backends.push(']');
    let mut out = json::ObjWriter::new();
    out.raw("router", &router.finish()).raw("backends", &backends);
    out.finish()
}

/// A worker's cache of open backend connections, keyed by address.
#[derive(Default)]
struct Conns {
    open: HashMap<String, BufReader<TcpStream>>,
}

impl Conns {
    /// Relays `line` to `addr`, reusing this worker's open connection if
    /// any. One retry on a fresh connection absorbs a backend restart
    /// that left a stale socket behind.
    fn relay(&mut self, addr: &str, line: &str) -> std::io::Result<String> {
        if let Some(conn) = self.open.get_mut(addr) {
            match Self::send_on(conn, line) {
                Ok(response) => return Ok(response),
                Err(_) => {
                    self.open.remove(addr);
                }
            }
        }
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other(format!("{addr} resolved to no address")))?;
        let stream = TcpStream::connect_timeout(&resolved, CONNECT_TIMEOUT)?;
        stream.set_read_timeout(Some(BACKEND_TIMEOUT))?;
        stream.set_write_timeout(Some(BACKEND_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let mut conn = BufReader::new(stream);
        let response = Self::send_on(&mut conn, line)?;
        self.open.insert(addr.to_string(), conn);
        Ok(response)
    }

    fn send_on(conn: &mut BufReader<TcpStream>, line: &str) -> std::io::Result<String> {
        write_framed(conn.get_ref(), line)?;
        let mut response = String::new();
        if conn.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "backend closed without answering",
            ));
        }
        Ok(response.trim_end().to_string())
    }
}

fn route_one(state: &RouterState, conns: &mut Conns, line: &str) -> String {
    let kind = match classify(line) {
        Ok(kind) => kind,
        Err(message) => return error_line("bad_request", &message),
    };
    match kind {
        Kind::Stats => stats_line(state),
        Kind::Mutation => {
            let primary = state.primary();
            match conns.relay(&primary.addr, line) {
                Ok(response) => response,
                Err(e) => {
                    primary.healthy.store(false, Ordering::SeqCst);
                    error_line(
                        "unavailable",
                        &format!("primary {} did not answer: {e}", primary.addr),
                    )
                }
            }
        }
        Kind::Query => {
            // Round-robin over healthy replicas; a shared cursor spreads
            // load across workers. Unhealthy replicas are skipped, a
            // replica that fails mid-relay is marked down and the next
            // one tried, and the primary is the last resort.
            let replicas = state.replicas();
            let mut tried = 0;
            if !replicas.is_empty() {
                let start = state.next_replica.fetch_add(1, Ordering::SeqCst);
                for offset in 0..replicas.len() {
                    let backend = &replicas[(start + offset) % replicas.len()];
                    if !backend.healthy.load(Ordering::SeqCst) {
                        continue;
                    }
                    tried += 1;
                    match conns.relay(&backend.addr, line) {
                        Ok(response) => return response,
                        Err(_) => backend.healthy.store(false, Ordering::SeqCst),
                    }
                }
            }
            let primary = state.primary();
            match conns.relay(&primary.addr, line) {
                Ok(response) => response,
                Err(e) => {
                    primary.healthy.store(false, Ordering::SeqCst);
                    error_line(
                        "unavailable",
                        &format!(
                            "no backend answered ({tried} replicas tried, primary {}: {e})",
                            primary.addr
                        ),
                    )
                }
            }
        }
    }
}

/// One client connection: line-in, line-out, same framing as `sepra
/// serve`, until EOF, idle timeout, oversize line, or shutdown.
fn handle_connection(state: &RouterState, conns: &mut Conns, stream: TcpStream) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut idle = Duration::ZERO;
    let mut buf = Vec::new();
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        buf.clear();
        match reader.by_ref().take(MAX_REQUEST_BYTES as u64 + 1).read_until(b'\n', &mut buf) {
            Ok(0) => return,
            Ok(n) if n > MAX_REQUEST_BYTES => {
                let _ = write_framed(&stream, &error_line("bad_request", "request too large"));
                return;
            }
            Ok(_) => {
                idle = Duration::ZERO;
                let line = String::from_utf8_lossy(&buf);
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let response = route_one(state, conns, line);
                if write_framed(&stream, &response).is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                idle += READ_POLL;
                if idle >= IDLE_TIMEOUT {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// The router's accept loop and worker pool, parameterized over the
/// listener and shutdown flag so tests can drive it in-process. Returns
/// once the flag is raised and every worker has drained.
pub fn run_router(listener: TcpListener, opts: &RouteOptions, shutdown: Arc<AtomicBool>) {
    let mut backends = vec![Backend {
        addr: opts.primary.clone(),
        role: Role::Primary,
        healthy: AtomicBool::new(false),
        generation: AtomicU64::new(0),
    }];
    for addr in &opts.replicas {
        backends.push(Backend {
            addr: addr.clone(),
            role: Role::Replica,
            healthy: AtomicBool::new(false),
            generation: AtomicU64::new(0),
        });
    }
    let state = Arc::new(RouterState {
        backends,
        next_replica: AtomicUsize::new(0),
        shutdown: Arc::clone(&shutdown),
    });

    // One prober for all backends: a synchronous first pass so the pool
    // starts with real health, then an interval loop.
    for backend in &state.backends {
        probe(backend);
    }
    let prober_state = Arc::clone(&state);
    let probe_interval = opts.probe_interval;
    let prober = std::thread::Builder::new().name("sepra-route-probe".into()).spawn(move || {
        // Sleep in short slices so shutdown is prompt, probing only when
        // a full interval has elapsed.
        let slice = probe_interval.min(Duration::from_millis(100));
        let mut last_probe = std::time::Instant::now();
        while !prober_state.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(slice);
            if last_probe.elapsed() < probe_interval {
                continue;
            }
            for backend in &prober_state.backends {
                if prober_state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                probe(backend);
            }
            last_probe = std::time::Instant::now();
        }
    });

    let handlers = (0..opts.threads.max(1))
        .map(|_| {
            let state = Arc::clone(&state);
            let mut conns = Conns::default();
            move |stream| handle_connection(&state, &mut conns, stream)
        })
        .collect();
    // A listener that cannot be polled or a pool that cannot start ends
    // the router; either way the flag is raised for the prober.
    let _ = serve_connections(&listener, &shutdown, "sepra-route", handlers, || {});
    shutdown.store(true, Ordering::SeqCst);
    let _ = prober.map(|p| p.join());
}

/// Binds, prints `sepra route listening on ADDR (N workers)`, watches
/// stdin for `quit`, and runs until shutdown. Returns a process exit
/// code.
pub fn route(opts: &RouteOptions) -> Result<(), std::io::Error> {
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    println!(
        "sepra route listening on {addr} ({} workers, 1 primary, {} replicas)",
        opts.threads.max(1),
        opts.replicas.len()
    );
    let _ = std::io::stdout().flush();
    let shutdown = Arc::new(AtomicBool::new(false));
    let stdin_shutdown = Arc::clone(&shutdown);
    let _ = std::thread::Builder::new().name("sepra-route-stdin".into()).spawn(move || {
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match stdin.lock().read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {
                    if matches!(line.trim(), "quit" | "shutdown" | "exit") {
                        stdin_shutdown.store(true, Ordering::SeqCst);
                        return;
                    }
                }
            }
        }
    });
    run_router(listener, opts, shutdown);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_request_lines() {
        assert!(matches!(classify(r#"{"insert": ["t(a)."]}"#), Ok(Kind::Mutation)));
        assert!(matches!(classify(r#"{"retract": ["t(a)."]}"#), Ok(Kind::Mutation)));
        assert!(matches!(classify(r#"{"stats": true}"#), Ok(Kind::Stats)));
        assert!(matches!(classify(r#"{"query": "t(X)?"}"#), Ok(Kind::Query)));
        assert!(matches!(classify(r#"{"query": "t(X)?", "min_generation": 4}"#), Ok(Kind::Query)));
        assert!(classify(r#"{"sync": {"from_generation": 0}}"#).is_err());
        assert!(classify("not json").is_err());
    }

    /// A scripted backend that answers every line with a fixed response.
    fn fixed_backend(response: &'static str) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut line = String::new();
                    while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                        if writeln!(&stream, "{response}").is_err() {
                            return;
                        }
                        line.clear();
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn routes_mutations_to_primary_and_queries_to_replicas() {
        let primary = fixed_backend(r#"{"from": "primary", "generation": 30}"#);
        let replica = fixed_backend(r#"{"from": "replica", "generation": 28}"#);
        let state = RouterState {
            backends: vec![
                Backend {
                    addr: primary,
                    role: Role::Primary,
                    healthy: AtomicBool::new(true),
                    generation: AtomicU64::new(30),
                },
                Backend {
                    addr: replica,
                    role: Role::Replica,
                    healthy: AtomicBool::new(true),
                    generation: AtomicU64::new(28),
                },
            ],
            next_replica: AtomicUsize::new(0),
            shutdown: Arc::new(AtomicBool::new(false)),
        };
        let mut conns = Conns::default();
        let answer = route_one(&state, &mut conns, r#"{"insert": ["t(a)."]}"#);
        assert!(answer.contains("primary"), "{answer}");
        let answer = route_one(&state, &mut conns, r#"{"query": "t(X)?"}"#);
        assert!(answer.contains("replica"), "{answer}");
        // Stats are answered locally, with lag relative to the primary.
        let stats = route_one(&state, &mut conns, r#"{"stats": true}"#);
        let v = json::parse(&stats).unwrap();
        let backends = match v.get("backends") {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("expected backend list, got {other:?}"),
        };
        assert_eq!(backends.len(), 2);
        assert_eq!(backends[1].get("lag").and_then(Json::as_u64), Some(2));
        // Sync through the router is refused.
        let refused = route_one(&state, &mut conns, r#"{"sync": {"from_generation": 0}}"#);
        assert!(refused.contains("bad_request"), "{refused}");
    }

    #[test]
    fn fails_over_to_the_next_replica_and_then_the_primary() {
        let primary = fixed_backend(r#"{"from": "primary", "generation": 30}"#);
        let live = fixed_backend(r#"{"from": "replica-b", "generation": 30}"#);
        // A dead replica: bound then dropped, so connections are refused.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let state = RouterState {
            backends: vec![
                Backend {
                    addr: primary,
                    role: Role::Primary,
                    healthy: AtomicBool::new(true),
                    generation: AtomicU64::new(30),
                },
                Backend {
                    addr: dead.clone(),
                    role: Role::Replica,
                    healthy: AtomicBool::new(true),
                    generation: AtomicU64::new(30),
                },
                Backend {
                    addr: live,
                    role: Role::Replica,
                    healthy: AtomicBool::new(true),
                    generation: AtomicU64::new(30),
                },
            ],
            next_replica: AtomicUsize::new(0),
            shutdown: Arc::new(AtomicBool::new(false)),
        };
        let mut conns = Conns::default();
        // Drive enough queries that the round-robin cursor lands on the
        // dead replica at least once; every answer must still arrive.
        for _ in 0..4 {
            let answer = route_one(&state, &mut conns, r#"{"query": "t(X)?"}"#);
            assert!(answer.contains("replica-b"), "{answer}");
        }
        // The dead replica was marked down on first failure.
        assert!(!state.backends[1].healthy.load(Ordering::SeqCst));
        // With every replica down, queries fall back to the primary.
        state.backends[2].healthy.store(false, Ordering::SeqCst);
        let answer = route_one(&state, &mut conns, r#"{"query": "t(X)?"}"#);
        assert!(answer.contains("primary"), "{answer}");
    }
}
