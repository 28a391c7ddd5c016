//! End-to-end tests for `sepra serve`: a real subprocess, real TCP
//! connections, concurrent clients, a query that exceeds its deadline
//! while the server keeps serving, live stats, and graceful shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sepra_server::json::{self, Json};

/// Chain length for the transitive-closure fixture. Long enough that the
/// unselected closure (~ CHAIN²/2 tuples over CHAIN iterations) runs for
/// many budget checks, short enough to stay fast when allowed to finish.
const CHAIN: usize = 300;

fn write_fixture(dir: &std::path::Path) -> std::path::PathBuf {
    let mut text = String::from("t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n");
    for i in 0..CHAIN {
        text.push_str(&format!("e(n{i}, n{}).\n", i + 1));
    }
    let path = dir.join("chain.dl");
    std::fs::write(&path, text).expect("fixture writes");
    path
}

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns `sepra serve` on an OS-assigned port and parses the address
    /// from its startup line.
    fn spawn(workers: usize) -> Self {
        Self::spawn_with(workers, &[])
    }

    fn spawn_with(workers: usize, extra_args: &[&str]) -> Self {
        let dir = std::env::temp_dir().join(format!("sepra_serve_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fixture = write_fixture(&dir);
        let mut child = Command::new(env!("CARGO_BIN_EXE_sepra"))
            .arg("serve")
            .arg(&fixture)
            .args(["--addr", "127.0.0.1:0", "--threads", &workers.to_string()])
            .args(extra_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("server spawns");
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines.next().expect("server prints a startup line").expect("startup line");
        let addr = banner
            .strip_prefix("sepra serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected startup line: {banner}"))
            .to_string();
        Server { child, addr }
    }

    fn connect(&self) -> Connection {
        let stream = TcpStream::connect(&self.addr).expect("connects to server");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let reader = BufReader::new(stream.try_clone().expect("stream clones"));
        Connection { stream, reader }
    }

    /// Sends `quit` on stdin and waits for a clean exit.
    fn shutdown(mut self) {
        let mut stdin = self.child.stdin.take().expect("stdin is piped");
        stdin.write_all(b"quit\n").expect("writes quit");
        stdin.flush().unwrap();
        drop(stdin);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().expect("try_wait works") {
                Some(status) => {
                    assert!(status.success(), "server exited with {status}");
                    return;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("server did not shut down within 30s of `quit`");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn request(&mut self, body: &str) -> Json {
        self.stream.write_all(body.as_bytes()).expect("request writes");
        self.stream.write_all(b"\n").expect("newline writes");
        self.stream.flush().unwrap();
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("response reads");
        assert!(n > 0, "server closed the connection after {body:?}");
        json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response JSON ({e}): {line}"))
    }
}

fn error_kind(v: &Json) -> Option<&str> {
    v.get("error")?.get("kind")?.as_str()
}

#[test]
fn serves_concurrent_clients_with_deadlines_and_stats() {
    let server = Server::spawn(4);

    // One selection before the race below: the plan cache's only miss is
    // this one, so each of the clients racing their first query is a hit.
    let first = server.connect().request(r#"{"query": "t(n4, Y)?"}"#);
    assert_eq!(first.get("count").and_then(Json::as_u64), Some((CHAIN - 4) as u64), "{first:?}");

    // Phase 1: four concurrent clients issue selection queries with known
    // answer counts (from n_k the chain reaches CHAIN - k nodes), while a
    // fifth asks for the full closure under a 1 ms deadline — it must get
    // a structured budget_exceeded error, not a hung server or a panic.
    let mut handles = Vec::new();
    for k in [0usize, 1, 2, 3] {
        let mut conn = server.connect();
        handles.push(std::thread::spawn(move || {
            let response = conn.request(&format!(r#"{{"query": "t(n{k}, Y)?"}}"#));
            assert_eq!(
                response.get("count").and_then(Json::as_u64),
                Some((CHAIN - k) as u64),
                "client {k}: {response:?}"
            );
            assert_eq!(
                response.get("strategy").and_then(Json::as_str),
                Some("separable"),
                "client {k}"
            );
            // Answers are tuples of the query predicate, sorted.
            match response.get("answers") {
                Some(Json::Arr(rows)) => {
                    assert_eq!(rows.len(), CHAIN - k);
                    assert_eq!(
                        rows[0],
                        Json::Arr(vec![
                            Json::Str(format!("n{k}")),
                            Json::Str(format!("n{}", k + 1)),
                        ])
                    );
                }
                other => panic!("client {k}: answers missing: {other:?}"),
            }
        }));
    }
    let mut deadline_conn = server.connect();
    let timing_out = std::thread::spawn(move || {
        deadline_conn.request(r#"{"query": "t(X, Y)?", "strategy": "seminaive", "timeout_ms": 1}"#)
    });
    for handle in handles {
        handle.join().expect("client thread succeeds");
    }
    let response = timing_out.join().expect("deadline client returns");
    assert_eq!(error_kind(&response), Some("budget_exceeded"), "{response:?}");
    assert_eq!(
        response.get("error").and_then(|e| e.get("resource")).and_then(Json::as_str),
        Some("deadline"),
        "{response:?}"
    );

    // Phase 2: the server keeps serving on the same and on new
    // connections after the budget error; malformed requests get
    // structured errors without dropping the connection.
    let mut conn = server.connect();
    let bad = conn.request("this is not json");
    assert_eq!(error_kind(&bad), Some("bad_request"), "{bad:?}");
    let capped = conn.request(r#"{"query": "t(X, Y)?", "max_tuples": 10}"#);
    assert_eq!(error_kind(&capped), Some("budget_exceeded"), "{capped:?}");
    assert_eq!(
        capped.get("error").and_then(|e| e.get("resource")).and_then(Json::as_str),
        Some("tuples"),
        "{capped:?}"
    );
    let ok = conn.request(r#"{"query": "t(n5, Y)?"}"#);
    assert_eq!(ok.get("count").and_then(Json::as_u64), Some((CHAIN - 5) as u64), "{ok:?}");

    // Phase 3: live stats reflect everything above.
    let stats = conn.request(r#"{"stats": true}"#);
    let queries = stats.get("queries").expect("queries member");
    assert_eq!(queries.get("ok").and_then(Json::as_u64), Some(6), "{stats:?}");
    assert_eq!(queries.get("budget_exceeded").and_then(Json::as_u64), Some(2), "{stats:?}");
    let by_strategy = queries.get("by_strategy").expect("by_strategy member");
    assert_eq!(by_strategy.get("separable").and_then(Json::as_u64), Some(6), "{stats:?}");
    let latency = stats.get("latency_us").expect("latency member");
    for member in ["min", "median", "max"] {
        assert!(latency.get(member).and_then(Json::as_u64).is_some(), "{stats:?}");
    }
    // Six selection queries on one predicate share one compiled plan.
    let cache = stats.get("plan_cache").expect("plan_cache member");
    assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(1), "{stats:?}");
    assert!(cache.get("hits").and_then(Json::as_u64).unwrap_or(0) >= 4, "{stats:?}");
    assert!(stats.get("uptime_ms").and_then(Json::as_u64).is_some(), "{stats:?}");

    // Phase 4: `quit` on stdin shuts the server down cleanly.
    server.shutdown();
}

#[test]
fn mutations_are_visible_to_every_connection_and_revertible() {
    let server = Server::spawn(2);
    let mut writer = server.connect();
    let mut reader = server.connect();

    let before = writer.request(r#"{"query": "t(n0, Y)?"}"#);
    assert_eq!(before.get("count").and_then(Json::as_u64), Some(CHAIN as u64), "{before:?}");

    // Extend the chain by one edge; both the mutating connection and an
    // unrelated one (a different worker's snapshot) must see the longer
    // closure immediately.
    let grown = writer.request(&format!(r#"{{"insert": ["e(n{}, n{})."]}}"#, CHAIN, CHAIN + 1));
    assert_eq!(grown.get("inserted").and_then(Json::as_u64), Some(1), "{grown:?}");
    assert_eq!(grown.get("retracted").and_then(Json::as_u64), Some(0), "{grown:?}");
    let generation = grown.get("generation").and_then(Json::as_u64).expect("generation");
    for conn in [&mut writer, &mut reader] {
        let after = conn.request(r#"{"query": "t(n0, Y)?"}"#);
        assert_eq!(after.get("count").and_then(Json::as_u64), Some(CHAIN as u64 + 1), "{after:?}");
    }

    // Retracting the edge restores the original closure exactly
    // (delete-and-rederive agrees with from-scratch evaluation).
    let shrunk = writer.request(&format!(r#"{{"retract": ["e(n{}, n{})."]}}"#, CHAIN, CHAIN + 1));
    assert_eq!(shrunk.get("retracted").and_then(Json::as_u64), Some(1), "{shrunk:?}");
    assert!(shrunk.get("generation").and_then(Json::as_u64) > Some(generation), "{shrunk:?}");
    for conn in [&mut reader, &mut writer] {
        let restored = conn.request(r#"{"query": "t(n0, Y)?"}"#);
        assert_eq!(
            restored.get("count").and_then(Json::as_u64),
            Some(CHAIN as u64),
            "{restored:?}"
        );
    }

    // An ineffective retraction commits nothing and keeps the generation.
    let noop = writer.request(r#"{"retract": ["e(n0, n99)."]}"#);
    assert_eq!(noop.get("retracted").and_then(Json::as_u64), Some(0), "{noop:?}");
    let stats = writer.request(r#"{"stats": true}"#);
    let mutations = stats.get("mutations").expect("mutations member");
    assert_eq!(mutations.get("ok").and_then(Json::as_u64), Some(3), "{stats:?}");
    assert_eq!(mutations.get("tuples_inserted").and_then(Json::as_u64), Some(1), "{stats:?}");
    assert_eq!(mutations.get("tuples_retracted").and_then(Json::as_u64), Some(1), "{stats:?}");
    assert!(stats.get("generation").and_then(Json::as_u64).is_some(), "{stats:?}");

    server.shutdown();
}

#[test]
fn slow_writers_survive_the_idle_timeout() {
    // 600 ms idle budget; the request drips in over ~1.25 s with every
    // inter-chunk gap well under the budget. Progress must reset the idle
    // clock — the regression was accumulating it across partial reads and
    // disconnecting mid-request.
    let server = Server::spawn_with(1, &["--idle-timeout-ms", "600"]);
    let conn = server.connect();
    let mut stream = conn.stream.try_clone().expect("stream clones");
    let request = br#"{"query": "t(n0, Y)?"}"#;
    let chunks: Vec<&[u8]> = request.chunks(5).collect();
    for chunk in &chunks {
        stream.write_all(chunk).expect("chunk writes");
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(250));
    }
    stream.write_all(b"\n").expect("newline writes");
    stream.flush().unwrap();
    let mut conn = conn;
    let mut line = String::new();
    let n = conn.reader.read_line(&mut line).expect("response reads");
    assert!(n > 0, "server dropped a slow but live connection");
    let response = json::parse(line.trim()).expect("response is JSON");
    assert_eq!(response.get("count").and_then(Json::as_u64), Some(CHAIN as u64), "{response:?}");

    // A genuinely idle connection is still reclaimed.
    std::thread::sleep(Duration::from_millis(1500));
    line.clear();
    let n = conn.reader.read_line(&mut line).expect("EOF reads cleanly");
    assert_eq!(n, 0, "idle connection was not reclaimed: {line:?}");

    server.shutdown();
}

#[test]
fn request_framing_edges() {
    let server = Server::spawn(1);

    // A request of exactly MAX_REQUEST_BYTES (padded with JSON whitespace)
    // is still served.
    let mut conn = server.connect();
    let body = r#"{"query": "t(n0, Y)?"}"#;
    let padded = format!("{body}{}", " ".repeat(sepra_server::MAX_REQUEST_BYTES - body.len()));
    assert_eq!(padded.len(), sepra_server::MAX_REQUEST_BYTES);
    let response = conn.request(&padded);
    assert_eq!(response.get("count").and_then(Json::as_u64), Some(CHAIN as u64), "{response:?}");
    drop(conn); // free the (single) worker for the next connection

    // One byte past the cap (and no newline yet): a structured error, then
    // the connection closes.
    let mut conn = server.connect();
    let oversized = vec![b' '; sepra_server::MAX_REQUEST_BYTES + 1];
    conn.stream.write_all(&oversized).expect("oversized writes");
    conn.stream.flush().unwrap();
    let mut line = String::new();
    conn.reader.read_line(&mut line).expect("error response reads");
    let response = json::parse(line.trim()).expect("error response is JSON");
    assert_eq!(error_kind(&response), Some("bad_request"), "{response:?}");
    assert!(
        response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("exceeds")),
        "{response:?}"
    );
    line.clear();
    assert_eq!(conn.reader.read_line(&mut line).expect("EOF reads"), 0);

    // EOF right after an unterminated final request: the request is still
    // answered before the connection winds down.
    let mut conn = server.connect();
    conn.stream.write_all(body.as_bytes()).expect("request writes");
    conn.stream.flush().unwrap();
    conn.stream.shutdown(std::net::Shutdown::Write).expect("write half closes");
    let mut line = String::new();
    let n = conn.reader.read_line(&mut line).expect("response reads");
    assert!(n > 0, "unterminated final request was dropped");
    let response = json::parse(line.trim()).expect("response is JSON");
    assert_eq!(response.get("count").and_then(Json::as_u64), Some(CHAIN as u64), "{response:?}");

    server.shutdown();
}

#[test]
fn client_subcommand_round_trips() {
    let server = Server::spawn(2);
    let out = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .args(["client", "--addr", &server.addr, "t(n0, Y)?", "--stats"])
        .output()
        .expect("client runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    let answer = json::parse(lines.next().expect("answer line")).expect("answer is JSON");
    assert_eq!(answer.get("count").and_then(Json::as_u64), Some(CHAIN as u64));
    let stats = json::parse(lines.next().expect("stats line")).expect("stats is JSON");
    assert_eq!(stats.get("queries").and_then(|q| q.get("ok")).and_then(Json::as_u64), Some(1));
    server.shutdown();
}

#[test]
fn refuses_programs_that_fail_the_lint_gate() {
    let dir = std::env::temp_dir().join(format!("sepra_serve_lint_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("warned.dl");
    // `q` is undefined and `p` unused: warnings, rejected under --deny.
    std::fs::write(&path, "p(X) :- q(X).\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .args(["serve", "--addr", "127.0.0.1:0", "--deny", "warnings"])
        .arg(&path)
        .output()
        .expect("server runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("refusing to serve"), "{stderr}");
}
