//! One connection loop behind `sepra serve` and `sepra route`: every
//! framing case here runs against both, in process — `server::run` on a
//! small program, and `run_router` in front of a backend that answers
//! every line with one fixed reply.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sepra_engine::QueryProcessor;
use sepra_repl::{run_router, RouteOptions};
use sepra_server::json::{self, Json};
use sepra_server::server::{run, ServeOptions};
use sepra_server::MAX_REQUEST_BYTES;

const QUERY: &str = r#"{"query": "t(a, Y)?"}"#;

/// A scripted backend that answers every line with `reply`.
fn fixed_backend(reply: String) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("has an address").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let reply = reply.clone();
            std::thread::spawn(move || {
                for _line in BufReader::new(&stream).lines().map_while(Result::ok) {
                    if (&stream).write_all(format!("{reply}\n").as_bytes()).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// A serving front end on an ephemeral port; stopped when dropped.
struct Front {
    name: &'static str,
    addr: String,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Front {
    fn start(
        name: &'static str,
        serve: impl FnOnce(TcpListener, Arc<AtomicBool>) + Send + 'static,
    ) -> Front {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("has an address").to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = Some(std::thread::spawn(move || serve(listener, flag)));
        Front { name, addr, shutdown, handle }
    }

    fn server() -> Front {
        Front::start("serve", |listener, shutdown| {
            let mut qp = QueryProcessor::new();
            qp.load("t(X, Y) :- e(X, Y).\ne(a, b).\n").expect("program loads");
            qp.prepare().expect("prepares");
            let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
            run(listener, qp, &opts, shutdown, None).expect("server runs");
        })
    }

    /// A one-worker router whose only backend answers `reply`.
    fn router(reply: String) -> Front {
        let opts = RouteOptions {
            addr: String::new(),
            primary: fixed_backend(reply),
            replicas: Vec::new(),
            threads: 1,
            probe_interval: Duration::from_secs(60),
        };
        Front::start("route", move |listener, shutdown| run_router(listener, &opts, shutdown))
    }

    fn both() -> [Front; 2] {
        [Front::server(), Front::router(r#"{"answers": [], "generation": 1}"#.into())]
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connects");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout is set");
        stream
    }
}

impl Drop for Front {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The next reply line, parsed; `None` at EOF.
fn reply(reader: &mut BufReader<&TcpStream>) -> Option<Json> {
    let mut line = String::new();
    if reader.read_line(&mut line).expect("reply reads") == 0 {
        return None;
    }
    Some(json::parse(line.trim()).unwrap_or_else(|e| panic!("bad reply ({e}): {line}")))
}

fn error_message(reply: &Json) -> Option<&str> {
    reply.get("error")?.get("message")?.as_str()
}

#[test]
fn a_request_line_may_arrive_in_pieces_a_read_poll_apart() {
    for front in Front::both() {
        let stream = front.connect();
        let mut replies = BufReader::new(&stream);
        let (head, tail) = QUERY.split_at(QUERY.len() / 2);
        (&stream).write_all(head.as_bytes()).expect("first half writes");
        // Longer than the loop's 200 ms read poll: the half already read
        // must still be there when the rest arrives.
        std::thread::sleep(Duration::from_millis(300));
        (&stream).write_all(format!("{tail}\n").as_bytes()).expect("second half writes");
        let reply = reply(&mut replies).expect("a reply");
        assert!(reply.get("answers").is_some(), "{}: {reply:?}", front.name);
    }
}

#[test]
fn a_line_that_is_not_utf8_is_refused_and_the_connection_lives_on() {
    for front in Front::both() {
        let stream = front.connect();
        let mut replies = BufReader::new(&stream);
        (&stream).write_all(b"{\"query\": \"t(\xff, Y)?\"}\n").expect("request writes");
        let refusal = reply(&mut replies).expect("a reply");
        assert_eq!(
            error_message(&refusal),
            Some("request is not valid UTF-8"),
            "{}: {refusal:?}",
            front.name
        );
        (&stream).write_all(format!("{QUERY}\n").as_bytes()).expect("request writes");
        let reply = reply(&mut replies).expect("a reply");
        assert!(reply.get("answers").is_some(), "{}: {reply:?}", front.name);
    }
}

#[test]
fn a_line_over_the_cap_is_refused_in_the_same_words_and_the_connection_ends() {
    for front in Front::both() {
        let stream = front.connect();
        let mut replies = BufReader::new(&stream);
        (&stream).write_all(&vec![b' '; MAX_REQUEST_BYTES + 1]).expect("oversized line writes");
        let refusal = reply(&mut replies).expect("a reply");
        assert_eq!(
            error_message(&refusal),
            Some("request exceeds 65536 bytes"),
            "{}: {refusal:?}",
            front.name
        );
        assert!(reply(&mut replies).is_none(), "{}: the connection stays open", front.name);
    }
}

#[test]
fn a_client_that_stops_reading_its_replies_is_dropped_not_waited_on_for_good() {
    // Large replies fill the socket buffers between the router and a
    // client that never reads; the router's one worker is then stuck in
    // a write until the write times out: 10 s a wait, and a reply the
    // kernel took part of is waited on again, so 20-30 s in all.
    let front = Front::router(format!(r#"{{"answers": [], "pad": "{}"}}"#, "x".repeat(60_000)));
    let deaf = front.connect();
    let requests = format!("{QUERY}\n").repeat(400);
    (&deaf).write_all(requests.as_bytes()).expect("requests write");
    // Queued behind it: served only once the worker lets go of `deaf`.
    let waiting = front.connect();
    waiting.set_read_timeout(Some(Duration::from_secs(120))).expect("timeout is set");
    (&waiting).write_all(format!("{QUERY}\n").as_bytes()).expect("request writes");
    let reply = reply(&mut BufReader::new(&waiting)).expect("the worker was freed");
    assert!(reply.get("answers").is_some(), "{reply:?}");
    drop(deaf);
}
