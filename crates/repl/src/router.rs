//! `sepra route`: a query router in front of one primary and N replicas.
//!
//! The router is deliberately dumb — it terminates client connections
//! with the loop `sepra serve` runs ([`serve_requests`]: same framing,
//! same decoder, same `bad_request` for a line that is not a request),
//! and relays the raw line of each [`Request`] to a backend over the
//! same protocol:
//!
//! * a mutation → the primary (replicas reject mutations with a
//!   `read_only_replica` redirect anyway; routing saves the round trip).
//! * `stats` → answered locally: an aggregate of every backend's health,
//!   generation, and lag behind the primary.
//! * `sync` → refused (`bad_request`); followers must sync from the
//!   primary directly, not through the router.
//! * a query → round-robin across **healthy** replicas, retrying on the
//!   next replica if the chosen one fails mid-request, and falling back
//!   to the primary when no replica is usable.
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
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::client::connect;
use crate::json::{self, Json};
use crate::listener::{
    serve_connections, serve_requests, watch_shutdown, write_line, Reply, IDLE_TIMEOUT,
};
use crate::protocol::{render_error, Request};

/// Connect timeout for backend connections (relay and probes).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// A backend gets this long to answer a relayed request. Generous:
/// queries carry their own server-side deadline budget.
const BACKEND_TIMEOUT: Duration = Duration::from_secs(60);
/// A probe is quick; an unresponsive backend is unhealthy.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

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

#[derive(Debug)]
struct Backend {
    addr: String,
    /// Last probe (or relay attempt) outcome. Backends start unhealthy
    /// and are promoted by the first successful probe.
    healthy: AtomicBool,
    /// Last generation the backend reported via `{"stats": true}`.
    generation: AtomicU64,
}

impl Backend {
    fn new(addr: &str) -> Backend {
        Backend {
            addr: addr.to_string(),
            healthy: AtomicBool::new(false),
            generation: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct RouterState {
    /// The primary, then the replicas.
    backends: Vec<Backend>,
    /// The round-robin cursor over the replicas.
    next_replica: AtomicUsize,
}

impl RouterState {
    fn primary(&self) -> &Backend {
        &self.backends[0]
    }

    fn replicas(&self) -> &[Backend] {
        &self.backends[1..]
    }
}

/// Sends one request line on `conn` and returns the single response line
/// (without its newline). A server that hangs up instead of answering is
/// an [`UnexpectedEof`](std::io::ErrorKind::UnexpectedEof) error. The
/// router's relays and probes and `sepra client` all ask through here.
pub fn round_trip(conn: &mut BufReader<TcpStream>, line: &str) -> std::io::Result<String> {
    write_line(conn.get_ref(), line)?;
    let mut response = String::new();
    if conn.read_line(&mut response)? == 0 {
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
    let generation = connect(&backend.addr, CONNECT_TIMEOUT, PROBE_TIMEOUT)
        .and_then(|stream| round_trip(&mut BufReader::new(stream), &Request::Stats.render()))
        .ok()
        .and_then(|response| json::parse(&response).ok())
        .and_then(|stats| stats.get("generation").and_then(Json::as_u64));
    if let Some(generation) = generation {
        backend.generation.store(generation, Ordering::SeqCst);
    }
    backend.healthy.store(generation.is_some(), Ordering::SeqCst);
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
            .str("role", if i == 0 { "primary" } else { "replica" })
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
type Conns = HashMap<String, BufReader<TcpStream>>;

/// Relays `line` to `backend`, reusing this worker's open connection if
/// any. One retry on a fresh connection absorbs a backend restart that
/// left a stale socket behind; a backend that still does not answer is
/// marked down at once, not at the next probe.
fn relay(conns: &mut Conns, backend: &Backend, line: &str) -> std::io::Result<String> {
    if let Some(response) = conns.get_mut(&backend.addr).and_then(|c| round_trip(c, line).ok()) {
        return Ok(response);
    }
    conns.remove(&backend.addr);
    let fresh = connect(&backend.addr, CONNECT_TIMEOUT, BACKEND_TIMEOUT).and_then(|stream| {
        let mut conn = BufReader::new(stream);
        let response = round_trip(&mut conn, line)?;
        conns.insert(backend.addr.clone(), conn);
        Ok(response)
    });
    if fresh.is_err() {
        backend.healthy.store(false, Ordering::SeqCst);
    }
    fresh
}

/// Answers one request: `line` is relayed as the client wrote it.
fn route_one(state: &RouterState, conns: &mut Conns, request: &Request, line: &str) -> String {
    let primary = state.primary();
    let unavailable = |message: String| render_error("unavailable", &message);
    match request {
        Request::Stats => stats_line(state),
        Request::Sync { .. } => render_error(
            "bad_request",
            "sync streams must connect to the primary directly, not the router",
        ),
        Request::Mutation { .. } => relay(conns, primary, line).unwrap_or_else(|e| {
            unavailable(format!("primary {} did not answer: {e}", primary.addr))
        }),
        Request::Query { .. } => {
            // Round-robin over healthy replicas; a shared cursor spreads
            // load across workers. Unhealthy replicas are skipped, a
            // replica that fails mid-relay is marked down and the next
            // one tried, and the primary is the last resort.
            let replicas = state.replicas();
            let start = state.next_replica.fetch_add(1, Ordering::SeqCst);
            let mut tried = 0;
            for offset in 0..replicas.len() {
                let backend = &replicas[(start + offset) % replicas.len()];
                if !backend.healthy.load(Ordering::SeqCst) {
                    continue;
                }
                tried += 1;
                if let Ok(response) = relay(conns, backend, line) {
                    return response;
                }
            }
            relay(conns, primary, line).unwrap_or_else(|e| {
                let primary = &primary.addr;
                unavailable(format!(
                    "no backend answered ({tried} replicas tried, primary {primary}: {e})"
                ))
            })
        }
    }
}

/// The router's accept loop and worker pool, parameterized over the
/// listener and shutdown flag so tests can drive it in-process. Returns
/// once the flag is raised and every worker has drained.
pub fn run_router(listener: TcpListener, opts: &RouteOptions, shutdown: Arc<AtomicBool>) {
    let backends = std::iter::once(&opts.primary).chain(&opts.replicas);
    let backends = backends.map(|addr| Backend::new(addr)).collect();
    let state = Arc::new(RouterState { backends, next_replica: AtomicUsize::new(0) });

    // One prober for all backends: a synchronous first pass so the pool
    // starts with real health, then an interval loop.
    for backend in &state.backends {
        probe(backend);
    }
    let (prober_state, prober_shutdown) = (Arc::clone(&state), Arc::clone(&shutdown));
    let probe_interval = opts.probe_interval;
    let prober = std::thread::Builder::new().name("sepra-route-probe".into()).spawn(move || {
        // Sleep in short slices so shutdown is prompt, probing only when
        // a full interval has elapsed.
        let slice = probe_interval.min(Duration::from_millis(100));
        let mut last_probe = std::time::Instant::now();
        while !prober_shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(slice);
            if last_probe.elapsed() < probe_interval {
                continue;
            }
            for backend in &prober_state.backends {
                if prober_shutdown.load(Ordering::SeqCst) {
                    return;
                }
                probe(backend);
            }
            last_probe = std::time::Instant::now();
        }
    });

    let handlers = (0..opts.threads.max(1))
        .map(|_| {
            let (state, shutdown) = (Arc::clone(&state), Arc::clone(&shutdown));
            let mut conns = Conns::new();
            move |stream| {
                serve_requests(stream, &shutdown, IDLE_TIMEOUT, |request, line| {
                    Reply::Line(route_one(&state, &mut conns, &request, line))
                })
            }
        })
        .collect();
    // A listener that cannot be polled or a pool that cannot start ends
    // the router; either way the flag is raised for the prober.
    let _ = serve_connections(&listener, &shutdown, "sepra-route", handlers, || {});
    shutdown.store(true, Ordering::SeqCst);
    let _ = prober.map(|p| p.join());
}

/// Binds, prints `sepra route listening on ADDR (N workers)`, and runs
/// until shutdown: a `quit` line on stdin, SIGINT, or SIGTERM.
pub fn route(opts: &RouteOptions) -> Result<(), std::io::Error> {
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    println!(
        "sepra route listening on {addr} ({} workers, 1 primary, {} replicas)",
        opts.threads.max(1),
        opts.replicas.len()
    );
    let _ = std::io::stdout().flush();
    run_router(listener, opts, watch_shutdown());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the connection loop does with a line before it reaches
    /// [`route_one`].
    fn route_line(state: &RouterState, conns: &mut Conns, line: &str) -> String {
        route_one(state, conns, &Request::parse(line).expect("a request"), line)
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
                    healthy: AtomicBool::new(true),
                    generation: AtomicU64::new(30),
                },
                Backend {
                    addr: replica,
                    healthy: AtomicBool::new(true),
                    generation: AtomicU64::new(28),
                },
            ],
            next_replica: AtomicUsize::new(0),
        };
        let mut conns = Conns::new();
        let answer = route_line(&state, &mut conns, r#"{"insert": ["t(a)."]}"#);
        assert!(answer.contains("primary"), "{answer}");
        let answer = route_line(&state, &mut conns, r#"{"query": "t(X)?"}"#);
        assert!(answer.contains("replica"), "{answer}");
        // Stats are answered locally, with lag relative to the primary.
        let stats = route_line(&state, &mut conns, r#"{"stats": true}"#);
        let v = json::parse(&stats).unwrap();
        let backends = match v.get("backends") {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("expected backend list, got {other:?}"),
        };
        assert_eq!(backends.len(), 2);
        assert_eq!(backends[1].get("lag").and_then(Json::as_u64), Some(2));
        // Sync through the router is refused.
        let refused = route_line(&state, &mut conns, r#"{"sync": {"from_generation": 0}}"#);
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
                    healthy: AtomicBool::new(true),
                    generation: AtomicU64::new(30),
                },
                Backend {
                    addr: dead.clone(),
                    healthy: AtomicBool::new(true),
                    generation: AtomicU64::new(30),
                },
                Backend {
                    addr: live,
                    healthy: AtomicBool::new(true),
                    generation: AtomicU64::new(30),
                },
            ],
            next_replica: AtomicUsize::new(0),
        };
        let mut conns = Conns::new();
        // Drive enough queries that the round-robin cursor lands on the
        // dead replica at least once; every answer must still arrive.
        for _ in 0..4 {
            let answer = route_line(&state, &mut conns, r#"{"query": "t(X)?"}"#);
            assert!(answer.contains("replica-b"), "{answer}");
        }
        // The dead replica was marked down on first failure.
        assert!(!state.backends[1].healthy.load(Ordering::SeqCst));
        // With every replica down, queries fall back to the primary.
        state.backends[2].healthy.store(false, Ordering::SeqCst);
        let answer = route_line(&state, &mut conns, r#"{"query": "t(X)?"}"#);
        assert!(answer.contains("primary"), "{answer}");
    }
}
