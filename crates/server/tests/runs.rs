//! A run of log records is one delta, and the waits around it end on
//! events: in-process servers (`sepra_server::server::run`, the loop
//! `sepra serve` runs) against a scripted primary that speaks exactly the
//! frames a test hands it.
//!
//! * **Parity.** For every way of cutting a log into runs, [`replay`]
//!   leaves the EDB, the answers and the database generation that
//!   applying it record by record leaves.
//! * **Committed prefixes.** Whatever sits between the records of a
//!   stream — pings, a checkpoint, a corrupt frame, records the replica
//!   already holds — a replica is at a generation the primary committed
//!   whenever it can be observed, reconnects from there, and converges.
//! * **Honest stamps.** A read released by `min_generation` is answered
//!   from, and stamped with, a snapshot at or past its target, also when
//!   the records that got it there changed nothing.
//! * **Promptness.** A connection is served when it arrives and a raised
//!   flag is obeyed, neither at some clock's next tick.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sepra_engine::QueryProcessor;
use sepra_repl::protocol::{
    parse_sync_request, render_checkpoint, render_chunk, render_ping, render_record,
};
use sepra_server::json::{self, Json};
use sepra_server::server::{run, ServeOptions};
use sepra_server::{replay, Durability, DurabilityOptions};
use sepra_wal::checkpoint::encode_checkpoint;
use sepra_wal::codec;

/// One log record: the generation its commit reached, and the encoded
/// delta.
type Record = (u64, Vec<u8>);

fn processor(source: &str) -> QueryProcessor {
    let mut qp = QueryProcessor::new();
    qp.load(source).expect("program loads");
    qp
}

/// The EDB as sorted fact strings.
fn facts(qp: &QueryProcessor) -> Vec<String> {
    let interner = qp.db().interner();
    let mut out: Vec<String> = qp
        .db()
        .relations()
        .flat_map(|(pred, relation)| {
            relation
                .iter()
                .map(move |t| format!("{}{}", interner.resolve(pred), t.display(interner)))
        })
        .collect();
    out.sort();
    out
}

fn answers(qp: &mut QueryProcessor, query: &str) -> Vec<String> {
    let result = qp.query(query).expect("query runs");
    let interner = qp.db().interner();
    result.answers.iter().map(|t| t.display(interner).to_string()).collect()
}

/// Commits `steps` (`(inserts, retracts)` as fact text) on a primary over
/// `source` and returns what its log would hold: one record per effective
/// commit, stamped with the database generation it reached.
fn committed_log(
    source: &str,
    steps: &[(Vec<String>, Vec<String>)],
) -> (QueryProcessor, Vec<Record>) {
    let mut primary = processor(source);
    let mut log = Vec::new();
    for (inserts, retracts) in steps {
        let inserts: Vec<&str> = inserts.iter().map(String::as_str).collect();
        let retracts: Vec<&str> = retracts.iter().map(String::as_str).collect();
        let out = primary.apply_mutation(&inserts, &retracts).expect("mutation applies");
        if !out.delta.is_empty() {
            let payload = codec::encode_delta(&out.delta, primary.db().interner());
            log.push((primary.db().generation(), payload));
        }
    }
    (primary, log)
}

fn step(inserts: &[&str], retracts: &[&str]) -> (Vec<String>, Vec<String>) {
    (
        inserts.iter().map(|s| s.to_string()).collect(),
        retracts.iter().map(|s| s.to_string()).collect(),
    )
}

/// What the parent commit did with a log: decode, apply and stamp one
/// record at a time.
fn apply_one_by_one(qp: &mut QueryProcessor, log: &[Record]) {
    for (generation, payload) in log {
        let delta = codec::decode_delta(payload, qp.interner_mut()).expect("record decodes");
        qp.apply_delta_mutation(delta).expect("record applies");
        qp.adopt_db_generation(*generation);
    }
}

fn as_run(log: &[Record]) -> impl Iterator<Item = (u64, &[u8])> {
    log.iter().map(|(generation, payload)| (*generation, payload.as_slice()))
}

/// A log of `records` raw deltas over the ground facts of `pool`, drawn
/// with replacement whatever their state — tuples toggle, present ones
/// are inserted, absent ones retracted — stamped with rising generations
/// that skip, as a primary's do when a commit touches several tuples.
fn toggling_log(source: &str, pool: &[String], records: usize, seed: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = processor(source);
    let mut generation = scratch.db().generation();
    let pool: Vec<_> = pool
        .iter()
        .map(|fact| {
            let parsed =
                sepra_ast::parse_program(fact, scratch.interner_mut()).expect("fact parses");
            let head = &parsed.rules[0].head;
            (head.pred, scratch.db().ground_tuple(head).expect("fact is ground"))
        })
        .collect();
    (0..records)
        .map(|_| {
            let mut delta = sepra_storage::EdbDelta::default();
            for half in [&mut delta.remove, &mut delta.insert] {
                for _ in 0..rng.gen_range(0..=2usize) {
                    let (pred, tuple) = &pool[rng.gen_range(0..pool.len())];
                    half.entry(*pred).or_default().push(tuple.clone());
                }
            }
            generation += rng.gen_range(1..=3u64);
            (generation, codec::encode_delta(&delta, scratch.db().interner()))
        })
        .collect()
}

#[test]
fn replaying_any_split_of_a_log_equals_applying_it_record_by_record() {
    for seed in 0..8 {
        let scenario = sepra_gen::random::random_stratified_scenario(seed);
        let mut pool: Vec<String> = scenario
            .program
            .lines()
            .filter(|line| !line.contains(":-") && line.ends_with('.'))
            .map(String::from)
            .collect();
        pool.extend(scenario.steps.iter().flat_map(|(ins, outs)| ins.iter().chain(outs).cloned()));
        let log = toggling_log(&scenario.program, &pool, 6, seed);

        let mut base = processor(&scenario.program);
        base.prepare().expect("prepares");
        let mut reference = base.clone();
        apply_one_by_one(&mut reference, &log);
        let want_answers: Vec<_> =
            scenario.queries.iter().map(|q| answers(&mut reference, q)).collect();

        // Bit i of `cuts` set: a run ends after record i.
        for cuts in 0..1u32 << (log.len() - 1) {
            let mut replayed = base.clone();
            let mut start = 0;
            for end in 1..=log.len() {
                if cuts >> (end - 1) & 1 == 1 || end == log.len() {
                    replay(&mut replayed, as_run(&log[start..end])).expect("run replays");
                    start = end;
                }
            }
            let context = format!("seed {seed}, cuts {cuts:#b}");
            assert_eq!(facts(&replayed), facts(&reference), "{context}");
            assert_eq!(replayed.db().generation(), reference.db().generation(), "{context}");
            for (query, want) in scenario.queries.iter().zip(&want_answers) {
                assert_eq!(&answers(&mut replayed, query), want, "{context}: {query}");
            }
        }
    }
}

const CHAIN: &str = "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\n";

fn test_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sepra_runs_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One logged commit on a durable primary, as the record it appended.
fn commit(
    qp: &mut QueryProcessor,
    durability: &mut Durability,
    inserts: &[&str],
    retracts: &[&str],
) -> Record {
    let out = qp.apply_mutation(inserts, retracts).expect("mutation applies");
    durability.record_commit(qp.db(), &out.delta).expect("commit is logged");
    (qp.db().generation(), codec::encode_delta(&out.delta, qp.db().interner()))
}

#[test]
fn recovery_replays_a_checkpoint_and_tail_to_what_record_by_record_replay_gave() {
    let dir = test_dir("recovery");
    let opts = DurabilityOptions::new(dir.clone());
    let mut tail = Vec::new();
    {
        let mut qp = processor(CHAIN);
        let mut durability = Durability::recover(&mut qp, &opts).expect("fresh dir opens");
        let (qp, log) = (&mut qp, &mut durability);
        commit(qp, log, &["e(a, b).", "e(b, c)."], &[]);
        log.checkpoint(qp.db()).expect("checkpoint rolls");
        // The tail toggles: c-d comes, goes and comes back; a-b goes.
        tail.push(commit(qp, log, &["e(c, d)."], &[]));
        tail.push(commit(qp, log, &[], &["e(c, d).", "e(a, b)."]));
        tail.push(commit(qp, log, &["e(c, d).", "e(d, a)."], &[]));
    }
    let mut reference = processor(CHAIN);
    reference.load("e(a, b). e(b, c).").expect("checkpointed facts load");
    reference.adopt_db_generation(2);
    apply_one_by_one(&mut reference, &tail);

    let mut recovered = processor(CHAIN);
    let durability = Durability::recover(&mut recovered, &opts).expect("recovers");
    assert_eq!(facts(&recovered), facts(&reference));
    assert_eq!(recovered.db().generation(), reference.db().generation());
    assert_eq!(durability.recovery().replayed_records, 3);
    assert_eq!(durability.recovery().recovered_generation, reference.db().generation());
    let banner = durability.recovery_banner();
    assert!(banner.contains("(checkpoint 2, replayed 3 records)"), "{banner}");
    let stats =
        json::parse(&durability.stats_json(recovered.db().generation())).expect("stats parse");
    let recovery = stats.get("recovery").expect("recovery member");
    assert_eq!(recovery.get("replayed_records").and_then(Json::as_u64), Some(3));
    assert_eq!(recovery.get("checkpoint_generation").and_then(Json::as_u64), Some(2));
    let offline = sepra_server::load_offline(&dir).expect("offline load");
    assert_eq!(offline.generation(), reference.db().generation());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A primary that speaks scripts: the n-th sync connection it accepts is
/// sent the n-th script's lines in one write and then held open, silent
/// — alive and idle. Each connection's requested `from_generation` is
/// reported on the returned channel.
fn scripted_primary(scripts: Vec<Vec<String>>) -> (String, mpsc::Receiver<u64>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("has an address").to_string();
    let (requests, seen) = mpsc::channel();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for script in scripts {
            let Ok((stream, _)) = listener.accept() else { return };
            let mut request = String::new();
            BufReader::new(&stream).read_line(&mut request).expect("sync request arrives");
            let from = parse_sync_request(&json::parse(request.trim()).expect("request is JSON"))
                .expect("is a sync request")
                .expect("names a generation");
            let _ = requests.send(from);
            let text: String = script.iter().flat_map(|line| [line.as_str(), "\n"]).collect();
            (&stream).write_all(text.as_bytes()).expect("script is sent");
            held.push(stream);
        }
        // Keep the last connections open for as long as the test runs.
        std::thread::sleep(Duration::from_secs(30));
    });
    (addr, seen)
}

/// An in-process server on an ephemeral port.
struct Node {
    addr: String,
    shutdown: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl Node {
    fn start(qp: QueryProcessor, opts: ServeOptions, durability: Option<Durability>) -> Node {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("has an address").to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            run(listener, qp, &opts, flag, durability).expect("server runs");
        });
        Node { addr, shutdown, handle }
    }

    fn replica(source: &str, primary: &str) -> Node {
        let mut qp = processor(source);
        qp.prepare().expect("prepares");
        let opts =
            ServeOptions { threads: 2, replica_of: Some(primary.into()), ..Default::default() };
        Node::start(qp, opts, None)
    }

    fn request(&self, body: &str) -> Json {
        let stream = TcpStream::connect(&self.addr).expect("connects");
        stream.set_read_timeout(Some(Duration::from_secs(20))).expect("timeout is set");
        (&stream).write_all(format!("{body}\n").as_bytes()).expect("request writes");
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).expect("response reads");
        json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response ({e}): {line}"))
    }

    /// Raises the flag — a bare store, as every caller of `run` does —
    /// and returns how long the server took to be gone.
    fn stop(self) -> Duration {
        let raised = Instant::now();
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle.join().expect("server thread exits cleanly");
        raised.elapsed()
    }
}

fn generation_of(response: &Json) -> u64 {
    response.get("generation").and_then(Json::as_u64).unwrap_or_else(|| panic!("{response:?}"))
}

fn rows_of(response: &Json) -> Vec<String> {
    let Some(Json::Arr(rows)) = response.get("answers") else { panic!("no answers: {response:?}") };
    rows.iter()
        .map(|row| {
            let Json::Arr(cells) = row else { panic!("row is not an array") };
            let cells: Vec<&str> = cells.iter().map(|c| c.as_str().unwrap_or("?")).collect();
            format!("({})", cells.join(", "))
        })
        .collect()
}

fn frames(log: &[Record]) -> Vec<String> {
    log.iter().map(|(generation, payload)| render_record(*generation, payload)).collect()
}

/// `line` with one character of its base64 payload changed, so that its
/// checksum no longer matches.
fn corrupted(line: &str) -> String {
    let key = line.find("\"payload\"").expect("a record frame");
    let open = key + line[key + 9..].find('"').expect("payload string") + 10;
    let swapped = if line.as_bytes()[open] == b'A' { "B" } else { "A" };
    format!("{}{swapped}{}", &line[..open], &line[open + 1..])
}

#[test]
fn a_replica_is_at_a_committed_prefix_whatever_sits_between_the_records_of_a_stream() {
    let steps: Vec<_> =
        (0..8).map(|i| (vec![format!("e(m{i}, m{}).", i + 1)], Vec::new())).collect();
    let (mut primary, log) = committed_log(CHAIN, &steps);
    assert_eq!(log.len(), 8);
    let record = frames(&log);

    // A snapshot of the primary at generation 4, as the feeder ships it.
    let (mut at_four, _) = committed_log(CHAIN, &steps[..4]);
    let file = encode_checkpoint(4, &codec::encode_database_columnar(at_four.db()));
    assert_eq!(answers(&mut at_four, "t(m0, Y)?").len(), 4);

    let first = vec![
        render_ping(8),
        record[0].clone(),
        render_ping(8),
        record[1].clone(),
        record[0].clone(), // overlap inside a run: already applied
        record[2].clone(),
        render_checkpoint(4, 1),
        render_chunk(0, 1, &file),
        record[3].clone(), // at the checkpoint's generation: covered
        record[4].clone(),
        record[5].clone(),
        corrupted(&record[6]),
        record[7].clone(),
    ];
    let second = vec![render_ping(8), record[5].clone(), record[6].clone(), record[7].clone()];
    let (addr, requests) = scripted_primary(vec![first, second]);
    let replica = Node::replica(CHAIN, &addr);

    let response =
        replica.request(r#"{"query": "t(m0, Y)?", "min_generation": 8, "timeout_ms": 20000}"#);
    assert_eq!(generation_of(&response), 8);
    assert_eq!(rows_of(&response), answers(&mut primary, "t(m0, Y)?"));
    // The first connection started from nothing; the second from the last
    // record that arrived intact before the corrupt one — a generation the
    // primary committed, not somewhere inside a run.
    assert_eq!(requests.recv_timeout(Duration::from_secs(5)), Ok(0));
    assert_eq!(requests.recv_timeout(Duration::from_secs(5)), Ok(6));
    let stats = replica.request(r#"{"stats": true}"#);
    let replication = stats.get("replication").expect("replication member");
    assert_eq!(replication.get("generation").and_then(Json::as_u64), Some(8));
    assert_eq!(replication.get("lag").and_then(Json::as_u64), Some(0));
    // Eight records over two connections, minus the checkpoint's four,
    // the three overlaps, and nothing else: 0,1,2 then 4,5 then 6,7.
    assert_eq!(replication.get("applied_records").and_then(Json::as_u64), Some(7));
    replica.stop();
}

#[test]
fn a_read_released_by_the_gate_is_stamped_at_its_target_when_the_records_changed_nothing() {
    // A run that cancels out: x comes and goes.
    let (_, log) =
        committed_log("p(X) :- q(X).\n", &[step(&["q(x)."], &[]), step(&[], &["q(x)."])]);
    assert_eq!(log.iter().map(|(g, _)| *g).collect::<Vec<_>>(), [1, 2]);
    let (addr, _requests) = scripted_primary(vec![frames(&log)]);
    let replica = Node::replica("p(X) :- q(X).\n", &addr);
    let response =
        replica.request(r#"{"query": "p(X)?", "min_generation": 2, "timeout_ms": 20000}"#);
    assert_eq!(generation_of(&response), 2, "{response:?}");
    assert!(rows_of(&response).is_empty());
    replica.stop();

    // A record carrying a tuple the replica already holds.
    let held = "p(X) :- q(X).\nq(x).\n";
    let (_, log) = committed_log("p(X) :- q(X).\nq(w).\n", &[step(&["q(x)."], &[])]);
    assert_eq!(log[0].0, 2);
    let (addr, _requests) = scripted_primary(vec![frames(&log)]);
    let replica = Node::replica(held, &addr);
    let response =
        replica.request(r#"{"query": "p(X)?", "min_generation": 2, "timeout_ms": 20000}"#);
    assert_eq!(generation_of(&response), 2, "{response:?}");
    assert_eq!(rows_of(&response), ["(x)"]);
    replica.stop();

    // The same tail through crash recovery.
    let dir = test_dir("empty_tail");
    let opts = DurabilityOptions::new(dir.clone());
    {
        let mut qp = processor("p(X) :- q(X).\n");
        let mut durability = Durability::recover(&mut qp, &opts).expect("fresh dir opens");
        commit(&mut qp, &mut durability, &["q(x)."], &[]);
        commit(&mut qp, &mut durability, &[], &["q(x)."]);
    }
    let mut qp = processor("p(X) :- q(X).\n");
    let durability = Durability::recover(&mut qp, &opts).expect("recovers");
    assert_eq!(durability.recovery().replayed_records, 2);
    qp.prepare().expect("prepares");
    let primary =
        Node::start(qp, ServeOptions { threads: 2, ..Default::default() }, Some(durability));
    let response =
        primary.request(r#"{"query": "p(X)?", "min_generation": 2, "timeout_ms": 20000}"#);
    assert_eq!(generation_of(&response), 2, "{response:?}");
    primary.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Far from both sides: the accept loop's timeout is 25 ms, the waits it
/// replaced were a 25 ms sleep per connection and the primary's 1 s ping.
const PROMPT: Duration = Duration::from_millis(250);

#[test]
fn a_raised_flag_is_obeyed_promptly_with_nobody_notified() {
    // No connection ever made.
    let mut qp = processor(CHAIN);
    qp.prepare().expect("prepares");
    let server = Node::start(qp, ServeOptions { threads: 2, ..Default::default() }, None);
    std::thread::sleep(Duration::from_millis(60)); // let it reach its wait
    let took = server.stop();
    assert!(took < PROMPT, "an idle server took {took:?} to stop");

    // A replica whose primary is alive and idle: its applier is blocked
    // on a stream that will not speak again.
    let (addr, requests) = scripted_primary(vec![vec![render_ping(0)]]);
    let replica = Node::replica(CHAIN, &addr);
    assert_eq!(requests.recv_timeout(Duration::from_secs(5)), Ok(0));
    std::thread::sleep(Duration::from_millis(60)); // let the applier block
    let took = replica.stop();
    assert!(took < PROMPT, "a replica of an idle primary took {took:?} to stop");
}

#[test]
fn a_fresh_connection_is_answered_when_it_arrives() {
    let mut qp = processor(CHAIN);
    qp.load("e(a, b). e(b, c).").expect("facts load");
    qp.prepare().expect("prepares");
    let server = Node::start(qp, ServeOptions { threads: 2, ..Default::default() }, None);
    let mut first_replies: Vec<Duration> = (0..20)
        .map(|_| {
            let start = Instant::now();
            let response = server.request(r#"{"query": "t(a, Y)?"}"#);
            assert_eq!(rows_of(&response).len(), 2);
            start.elapsed()
        })
        .collect();
    first_replies.sort();
    // The sleeping accept loop put 12 ms on the median and 25 ms on the
    // slowest of these.
    assert!(
        first_replies[10] < Duration::from_millis(5),
        "median first reply {:?}",
        first_replies[10]
    );
    server.stop();
}
