//! One pool thread: what a decoded request does before it is a reply.
//!
//! A worker owns a [`Session`] — its snapshot of the master — and serves
//! whole connections through the shared request loop
//! ([`sepra_repl::listener::serve_requests`]). What only a shared server
//! does stays here: for each request it brings the snapshot up to the
//! published generation; a query waits out its `min_generation` and runs
//! on the snapshot; a mutation goes to [`commit`](crate::commit); a sync
//! request leaves with its socket for a feeder thread; and the outcome is
//! counted in the metrics. [`respond`] renders what comes back.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sepra_engine::ProcessorError;
use sepra_eval::EvalError;
use sepra_repl::listener::{serve_requests, write_line, Reply, READ_POLL};
use sepra_repl::protocol::{render_error, Request};
use sepra_repl::stream_to_follower;

use crate::commit::{commit, CommitError};
use crate::respond;
use crate::server::SharedState;
use crate::session::Session;

/// How long a `min_generation` read waits for the replica to catch up
/// when the request carries no deadline of its own (no `timeout_ms`, no
/// server default).
const MIN_GENERATION_WAIT: Duration = Duration::from_secs(10);

/// One worker thread: owns a snapshot of the master session and serves
/// the whole connections the accept loop hands it.
pub(crate) struct Worker {
    session: Session,
    shared: Arc<SharedState>,
}

impl Worker {
    pub(crate) fn new(shared: &Arc<SharedState>) -> Worker {
        Worker { session: shared.lock_master().clone(), shared: Arc::clone(shared) }
    }

    /// Serves one connection to its end.
    pub(crate) fn serve(&mut self, stream: TcpStream) {
        let shared = Arc::clone(&self.shared);
        serve_requests(stream, &shared.shutdown, shared.opts.idle_timeout, |request, _| {
            self.handle(request)
        });
    }

    fn handle(&mut self, request: Request) -> Reply {
        match request {
            // A sync request turns this connection into a replication
            // stream: hand the socket to a dedicated feeder thread
            // (streams run for hours — parking a pool worker on one
            // would starve queries) and free this worker for the next
            // connection.
            Request::Sync { from_generation } => {
                let shared = Arc::clone(&self.shared);
                Reply::TakeOver(Box::new(move |stream| {
                    feed_follower(shared, stream, from_generation)
                }))
            }
            Request::Stats => {
                self.refresh_snapshot();
                Reply::Line(respond::stats(self.session.processor(), &self.shared))
            }
            Request::Mutation { insert, retract, timeout_ms, max_tuples } => {
                Reply::Line(self.mutate(&insert, &retract, timeout_ms, max_tuples))
            }
            Request::Query { query, strategy, timeout_ms, max_tuples, min_generation } => {
                Reply::Line(self.query(
                    &query,
                    strategy.as_deref(),
                    timeout_ms,
                    max_tuples,
                    min_generation,
                ))
            }
        }
    }

    /// Replaces this worker's snapshot with the master's when a mutation
    /// has been published since the snapshot was taken. Reads share
    /// snapshots: doing this before answering means a query issued after
    /// a mutation response was sent always sees the mutated database.
    fn refresh_snapshot(&mut self) {
        if self.shared.gate.current() != self.session.processor().db().generation() {
            self.session = self.shared.lock_master().clone();
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
            if reached >= target
                || remaining <= READ_POLL
                || self.shared.shutdown.load(Ordering::SeqCst)
            {
                return reached;
            }
        }
    }

    /// Answers one query from this worker's snapshot.
    fn query(
        &mut self,
        query: &str,
        strategy: Option<&str>,
        timeout_ms: Option<u64>,
        max_tuples: Option<u64>,
        min_generation: Option<u64>,
    ) -> String {
        self.refresh_snapshot();
        let choice = match Session::choice(strategy) {
            Ok(choice) => choice,
            Err(e) => return render_error("bad_request", &e),
        };
        let budget = self.session.budget(timeout_ms, max_tuples);
        // Generation-consistent reads: `"min_generation": G` parks the
        // request until the applied generation reaches G (read-your-writes
        // against a replica that is still catching up), bounded by the
        // request's deadline. The budget above was already started, so
        // wait time counts against the query's own deadline too.
        if let Some(target) = min_generation {
            let limit = budget
                .deadline
                .map_or(MIN_GENERATION_WAIT, |d| d.saturating_duration_since(Instant::now()));
            let reached = self.await_generation(target, limit);
            if reached < target {
                return respond::generation_timeout(target, reached);
            }
            // The gate is published after the master commits, so a
            // released waiter refreshes into a snapshot at or past G.
            self.refresh_snapshot();
        }

        let start = Instant::now();
        match self.session.query(query, choice, budget) {
            Ok(result) => {
                self.shared.metrics.record_ok(
                    &result.strategy.to_string(),
                    start.elapsed(),
                    result.stats.tuples_inserted as u64,
                    result.stats.iterations as u64,
                );
                self.shared.metrics.record_planner(
                    result.stats.plans_costed as u64,
                    result.stats.plan_fallbacks as u64,
                );
                respond::answer(&result, self.session.processor())
            }
            Err(e) => {
                let budget_exceeded =
                    matches!(&e, ProcessorError::Eval(EvalError::BudgetExceeded { .. }));
                self.shared.metrics.record_error(budget_exceeded, start.elapsed());
                respond::processor_error(e)
            }
        }
    }

    /// Applies one mutation through [`commit`] (a replica redirects it to
    /// its primary instead) and records the outcome.
    fn mutate(
        &mut self,
        inserts: &[String],
        retracts: &[String],
        timeout_ms: Option<u64>,
        max_tuples: Option<u64>,
    ) -> String {
        self.refresh_snapshot();
        if let Some(primary) = &self.shared.opts.replica_of {
            return respond::read_only_replica(primary);
        }
        let budget = self.session.budget(timeout_ms, max_tuples);
        let inserts: Vec<&str> = inserts.iter().map(String::as_str).collect();
        let retracts: Vec<&str> = retracts.iter().map(String::as_str).collect();
        let start = Instant::now();
        match commit(&self.shared, &mut self.session, &inserts, &retracts, budget) {
            Ok(out) => {
                self.shared.metrics.record_mutation(
                    out.inserted as u64,
                    out.retracted as u64,
                    start.elapsed(),
                );
                self.shared
                    .metrics
                    .record_planner(out.stats.plans_costed as u64, out.stats.plan_fallbacks as u64);
                respond::mutation_ack(&out, self.session.processor().db().generation())
            }
            Err(refusal) => {
                self.shared.metrics.record_mutation_failure();
                match refusal {
                    CommitError::Refused(e) => respond::processor_error(e),
                    CommitError::RolledBack(e) => render_error(
                        "wal",
                        &format!("mutation rolled back, write-ahead log append failed: {e}"),
                    ),
                }
            }
        }
    }
}

/// Serves (or refuses) one follower's sync stream. Only a durable
/// primary can feed followers: the stream's source of truth is the
/// data directory, which an ephemeral server does not have and a
/// replica does not own.
fn feed_follower(shared: Arc<SharedState>, stream: TcpStream, from_generation: u64) {
    let refuse = |why: &str| {
        let _ = write_line(&stream, &render_error("sync_unavailable", why));
    };
    if shared.opts.replica_of.is_some() {
        return refuse("this server is a replica; sync from the primary instead");
    }
    let Some(durability) = shared.lock_durability() else {
        return refuse(
            "this server is ephemeral (started without --data-dir); only a durable server can \
             feed replicas",
        );
    };
    let source = durability.sync_source();
    drop(durability);
    let _ = std::thread::Builder::new().name("sepra-sync".into()).spawn(move || {
        let _ = stream_to_follower(&stream, from_generation, &source, &shared.shutdown, &|| {
            shared.gate.current()
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{Durability, DurabilityOptions};
    use crate::json::{self, Json};
    use crate::server::ServeOptions;
    use sepra_engine::QueryProcessor;

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
        let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
        let shutdown = Arc::new(std::sync::atomic::AtomicBool::new(false));
        Worker::new(&Arc::new(SharedState::new(qp, durability, opts, shutdown)))
    }

    impl Worker {
        /// One request line to one reply line, as the connection loop
        /// does it.
        fn handle_request(&mut self, line: &str) -> String {
            match Request::parse(line).map(|request| self.handle(request)) {
                Ok(Reply::Line(reply)) => reply,
                Ok(Reply::TakeOver(_)) => panic!("{line} takes the connection over"),
                Err(message) => render_error("bad_request", &message),
            }
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
        let mut b = Worker::new(&a.shared);
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
}
