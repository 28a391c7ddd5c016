//! The wire protocol: line-delimited JSON over TCP, one format for
//! `sepra serve`, `sepra route` and `sepra client`.
//!
//! **Requests.** A client sends one JSON object per line and reads one
//! line back. [`Request`] is what such a line means; [`Request::parse`]
//! is the only decoder and [`Request::render`] the only encoder, so the
//! server, the router and the clients cannot disagree about a member. A
//! refusal is always `{"error": {"kind", "message", ...}}`
//! ([`render_error`]).
//!
//! **The sync stream.** A follower opens a connection and sends one
//! request line:
//!
//! ```text
//! -> {"sync": {"from_generation": G}}
//! ```
//!
//! The primary then streams frames, one JSON object per line, until the
//! connection drops:
//!
//! ```text
//! <- {"ping": {"generation": 42}}                 liveness + current primary generation
//! <- {"checkpoint": {"generation": 40, "chunks": 3}}
//! <- {"chunk": {"index": 0, "of": 3, "data": "<base64>"}}   ... x3: the ckpt-*.sepra file bytes
//! <- {"record": {"generation": 41, "crc": C, "payload": "<base64>"}}
//! <- {"error": {"kind": ..., "message": ...}}     terminal
//! ```
//!
//! A `checkpoint` announcement (always followed by exactly `chunks`
//! chunk frames) may appear **mid-stream**, not just first: when the
//! primary's log is truncated under the feeder faster than the tail
//! could be shipped, the feeder falls back to re-shipping the newest
//! snapshot rather than ever forwarding a gapped record sequence. The
//! chunks carry the raw checkpoint *file* — container header, CRC and
//! all — so the follower validates it with the same
//! [`decode_checkpoint`](sepra_wal::checkpoint::decode_checkpoint) the
//! recovery path uses. Each `record` carries the WAL's own checksum
//! (`crc32(generation ‖ payload)`): what the follower applies is
//! verified end to end against what the primary's log committed, not
//! just against transport corruption.

use crate::base64;
use crate::json::{self, Json, ObjWriter};
use sepra_wal::crc::Crc32;

/// Raw bytes per chunk frame. Base64 inflates by 4/3, keeping the line
/// comfortably under the server's 64 KiB request cap (frames travel
/// primary→follower, but symmetry keeps every line small and debuggable).
pub const CHUNK_BYTES: usize = 44 * 1024;

/// One parsed frame of the sync stream (primary → follower).
#[derive(Debug, PartialEq)]
pub enum Frame {
    /// Liveness marker carrying the primary's current database
    /// generation, sent immediately on sync start and periodically while
    /// the tail is quiet — a follower derives its lag from it.
    Ping {
        /// The primary's committed database generation.
        generation: u64,
    },
    /// A checkpoint file follows in exactly `chunks` chunk frames.
    Checkpoint {
        /// The snapshot's generation stamp.
        generation: u64,
        /// How many chunk frames follow.
        chunks: u64,
    },
    /// One piece of the announced checkpoint file.
    Chunk {
        /// 0-based position within the announced checkpoint.
        index: u64,
        /// Total chunks announced (repeated for self-description).
        of: u64,
        /// The decoded bytes.
        data: Vec<u8>,
    },
    /// One committed WAL record; the CRC has been verified.
    Record {
        /// The database generation the record's commit reached.
        generation: u64,
        /// The encoded `EdbDelta` frame (the WAL payload, verbatim).
        payload: Vec<u8>,
    },
    /// The primary refused or aborted the sync; terminal.
    Error {
        /// Machine-readable kind, e.g. `sync_unavailable`.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

/// The WAL's record checksum: `crc32(generation ‖ payload)`, little-endian
/// generation — byte-identical to what [`sepra_wal::log`] stores on disk.
pub fn record_crc(generation: u64, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&generation.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

/// One request line, decoded. What each member means is the server's
/// business (a strategy is still a *name* here: resolving it needs the
/// engine, which this crate does not depend on); that the members are
/// there, of the right type and consistent is checked once, in
/// [`Request::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `{"query": "t(a, Y)?", ...}`: answer one query — by a forced
    /// `strategy` if named, under a deadline and a derived-tuple cap that
    /// override the server's defaults, and from a database at or past
    /// `min_generation` (waited for: read-your-writes against a replica).
    Query {
        query: String,
        strategy: Option<String>,
        timeout_ms: Option<u64>,
        max_tuples: Option<u64>,
        min_generation: Option<u64>,
    },
    /// `{"insert": ["e(a, b)."], "retract": [...]}`: add and remove
    /// ground facts, under the same two overrides. Either list may be
    /// absent on the wire; both are rendered.
    Mutation {
        insert: Vec<String>,
        retract: Vec<String>,
        timeout_ms: Option<u64>,
        max_tuples: Option<u64>,
    },
    /// `{"stats": true}`: the live counters.
    Stats,
    /// `{"sync": {"from_generation": G}}`: the opening line of a follower
    /// that holds every commit up to `G`; the connection becomes a stream
    /// of [`Frame`]s.
    Sync { from_generation: u64 },
}

impl Request {
    /// Decodes one request line. Total: every input is a request or the
    /// `message` of a `bad_request` error. Members a request does not
    /// use are ignored, `sync` wins over `stats: true`, which wins over
    /// a mutation or a query.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        if let Some(sync) = parse_sync_request(&v) {
            return Ok(Request::Sync { from_generation: sync? });
        }
        if v.get("stats").and_then(Json::as_bool) == Some(true) {
            return Ok(Request::Stats);
        }
        if v.get("insert").is_some() || v.get("retract").is_some() {
            if v.get("query").is_some() {
                return Err("a request is either a query or a mutation, not both".into());
            }
            return Ok(Request::Mutation {
                insert: fact_list(&v, "insert")?,
                retract: fact_list(&v, "retract")?,
                timeout_ms: count(&v, "timeout_ms")?,
                max_tuples: count(&v, "max_tuples")?,
            });
        }
        let Some(query) = v.get("query").and_then(Json::as_str) else {
            return Err("request needs a \"query\" member (or \"insert\"/\"retract\", or \
                        \"stats\": true)"
                .into());
        };
        let strategy = match v.get("strategy") {
            None => None,
            Some(name) => Some(name.as_str().ok_or("\"strategy\" must be a string")?.to_owned()),
        };
        Ok(Request::Query {
            query: query.to_owned(),
            strategy,
            timeout_ms: count(&v, "timeout_ms")?,
            max_tuples: count(&v, "max_tuples")?,
            min_generation: count(&v, "min_generation")?,
        })
    }

    /// Renders the request as one line (no newline);
    /// `Request::parse(&r.render()) == Ok(r)`.
    pub fn render(&self) -> String {
        fn put(out: &mut ObjWriter, key: &str, count: &Option<u64>) {
            if let Some(n) = count {
                out.num(key, *n);
            }
        }
        let mut out = ObjWriter::new();
        match self {
            Request::Query { query, strategy, timeout_ms, max_tuples, min_generation } => {
                out.str("query", query);
                if let Some(name) = strategy {
                    out.str("strategy", name);
                }
                put(&mut out, "timeout_ms", timeout_ms);
                put(&mut out, "max_tuples", max_tuples);
                put(&mut out, "min_generation", min_generation);
            }
            Request::Mutation { insert, retract, timeout_ms, max_tuples } => {
                for (key, facts) in [("insert", insert), ("retract", retract)] {
                    let facts = facts.iter().cloned().map(Json::Str).collect();
                    out.raw(key, &json::render(&Json::Arr(facts)));
                }
                put(&mut out, "timeout_ms", timeout_ms);
                put(&mut out, "max_tuples", max_tuples);
            }
            Request::Stats => {
                out.raw("stats", "true");
            }
            Request::Sync { from_generation } => {
                let mut sync = ObjWriter::new();
                sync.num("from_generation", *from_generation);
                return tagged("sync", sync);
            }
        }
        out.finish()
    }
}

/// An optional counter member: present, it must be a nonnegative integer
/// (silently ignoring `"timeout_ms": "soon"` would run the query
/// unbounded — the opposite of what the client asked for).
fn count(request: &Json, key: &str) -> Result<Option<u64>, String> {
    match request.get(key) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n)),
            None => Err(format!("\"{key}\" must be a nonnegative integer")),
        },
    }
}

/// An optional `insert`/`retract` member as a list of fact strings.
fn fact_list(request: &Json, key: &str) -> Result<Vec<String>, String> {
    let wrong = || format!("\"{key}\" must be an array of fact strings");
    match request.get(key) {
        None => Ok(Vec::new()),
        Some(Json::Arr(items)) => {
            items.iter().map(|item| item.as_str().map(str::to_owned).ok_or_else(wrong)).collect()
        }
        Some(_) => Err(wrong()),
    }
}

/// Extracts `from_generation` from a parsed request, if it is a sync
/// request at all (`None`: it is some other request).
pub fn parse_sync_request(request: &Json) -> Option<Result<u64, String>> {
    let sync = request.get("sync")?;
    Some(
        sync.get("from_generation")
            .and_then(Json::as_u64)
            .ok_or_else(|| "\"sync\" needs a nonnegative \"from_generation\" integer".to_string()),
    )
}

/// `{"KEY": {BODY}}`: a sync request, a frame and an error are each one
/// member naming what they are.
fn tagged(key: &str, body: ObjWriter) -> String {
    let mut out = ObjWriter::new();
    out.raw(key, &body.finish());
    out.finish()
}

/// Renders a ping frame.
pub fn render_ping(generation: u64) -> String {
    let mut ping = ObjWriter::new();
    ping.num("generation", generation);
    tagged("ping", ping)
}

/// Renders a checkpoint announcement.
pub fn render_checkpoint(generation: u64, chunks: u64) -> String {
    let mut ckpt = ObjWriter::new();
    ckpt.num("generation", generation).num("chunks", chunks);
    tagged("checkpoint", ckpt)
}

/// Renders one chunk of a checkpoint file.
pub fn render_chunk(index: u64, of: u64, data: &[u8]) -> String {
    let mut chunk = ObjWriter::new();
    chunk.num("index", index).num("of", of).str("data", &base64::encode(data));
    tagged("chunk", chunk)
}

/// Renders one WAL record, stamping the log's own checksum.
pub fn render_record(generation: u64, payload: &[u8]) -> String {
    let mut record = ObjWriter::new();
    record
        .num("generation", generation)
        .num("crc", u64::from(record_crc(generation, payload)))
        .str("payload", &base64::encode(payload));
    tagged("record", record)
}

/// Renders `{"error": {"kind": ..., "message": ...}}`: the one error
/// envelope, for a refused request and a terminal sync frame alike.
pub fn render_error(kind: &str, message: &str) -> String {
    render_error_with(kind, message, |_| {})
}

/// [`render_error`] with structured members after `message` (which
/// fixpoint ran out of budget, the generation a wait reached, …).
pub fn render_error_with(kind: &str, message: &str, extra: impl FnOnce(&mut ObjWriter)) -> String {
    let mut detail = ObjWriter::new();
    detail.str("kind", kind).str("message", message);
    extra(&mut detail);
    tagged("error", detail)
}

/// Parses one stream line into a [`Frame`], verifying base64 payloads and
/// the record CRC. Anything malformed is an error — a follower must stop
/// and resync rather than guess at a corrupted stream.
pub fn parse_frame(line: &str) -> Result<Frame, String> {
    let v = json::parse(line).map_err(|e| format!("invalid frame JSON: {e}"))?;
    if let Some(ping) = v.get("ping") {
        let generation = ping
            .get("generation")
            .and_then(Json::as_u64)
            .ok_or("ping frame without a generation")?;
        return Ok(Frame::Ping { generation });
    }
    if let Some(ckpt) = v.get("checkpoint") {
        let generation = ckpt
            .get("generation")
            .and_then(Json::as_u64)
            .ok_or("checkpoint frame without a generation")?;
        let chunks =
            ckpt.get("chunks").and_then(Json::as_u64).ok_or("checkpoint frame without chunks")?;
        return Ok(Frame::Checkpoint { generation, chunks });
    }
    if let Some(chunk) = v.get("chunk") {
        let index =
            chunk.get("index").and_then(Json::as_u64).ok_or("chunk frame without an index")?;
        let of = chunk.get("of").and_then(Json::as_u64).ok_or("chunk frame without a total")?;
        let data = chunk.get("data").and_then(Json::as_str).ok_or("chunk frame without data")?;
        let data = base64::decode(data)?;
        return Ok(Frame::Chunk { index, of, data });
    }
    if let Some(record) = v.get("record") {
        let generation = record
            .get("generation")
            .and_then(Json::as_u64)
            .ok_or("record frame without a generation")?;
        let crc = record.get("crc").and_then(Json::as_u64).ok_or("record frame without a crc")?;
        let payload =
            record.get("payload").and_then(Json::as_str).ok_or("record frame without a payload")?;
        let payload = base64::decode(payload)?;
        if u64::from(record_crc(generation, &payload)) != crc {
            return Err(format!("record at generation {generation} failed its checksum"));
        }
        return Ok(Frame::Record { generation, payload });
    }
    if let Some(error) = v.get("error") {
        return Ok(Frame::Error {
            kind: error.get("kind").and_then(Json::as_str).unwrap_or("unknown").to_string(),
            message: error.get("message").and_then(Json::as_str).unwrap_or_default().to_string(),
        });
    }
    Err("frame is none of ping/checkpoint/chunk/record/error".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_request_round_trips() {
        let line = Request::Sync { from_generation: 17 }.render();
        assert_eq!(line, r#"{"sync":{"from_generation":17}}"#);
        let v = json::parse(&line).unwrap();
        assert_eq!(parse_sync_request(&v), Some(Ok(17)));
        // Non-sync requests fall through; malformed sync requests error.
        assert_eq!(parse_sync_request(&json::parse(r#"{"query": "t(X)?"}"#).unwrap()), None);
        assert!(matches!(
            parse_sync_request(&json::parse(r#"{"sync": {"from_generation": -1}}"#).unwrap()),
            Some(Err(_))
        ));
        assert!(matches!(
            parse_sync_request(&json::parse(r#"{"sync": true}"#).unwrap()),
            Some(Err(_))
        ));
    }

    #[test]
    fn requests_decode_by_their_members() {
        let parsed = |line| Request::parse(line).unwrap();
        assert!(matches!(parsed(r#"{"insert": ["t(a)."]}"#), Request::Mutation { .. }));
        assert!(matches!(parsed(r#"{"retract": ["t(a)."]}"#), Request::Mutation { .. }));
        assert_eq!(parsed(r#"{"stats": true}"#), Request::Stats);
        assert!(matches!(parsed(r#"{"query": "t(X)?"}"#), Request::Query { .. }));
        assert!(matches!(
            parsed(r#"{"query": "t(X)?", "min_generation": 4, "unknown": [1]}"#),
            Request::Query { min_generation: Some(4), strategy: None, .. }
        ));
        assert_eq!(
            parsed(r#"{"sync": {"from_generation": 0}, "stats": true}"#),
            Request::Sync { from_generation: 0 }
        );
        // `stats` is a request only when it is `true`.
        assert!(matches!(parsed(r#"{"stats": 1, "query": "t(X)?"}"#), Request::Query { .. }));
        let rendered = Request::Query {
            query: "t(a, \"Y\")?".into(),
            strategy: Some("magic".into()),
            timeout_ms: Some(250),
            max_tuples: Some(1000),
            min_generation: Some(7),
        }
        .render();
        assert_eq!(
            rendered,
            r#"{"query":"t(a, \"Y\")?","strategy":"magic","timeout_ms":250,"max_tuples":1000,"min_generation":7}"#
        );
        assert_eq!(Request::Stats.render(), r#"{"stats":true}"#);
    }

    #[test]
    fn refused_requests_say_why() {
        let none =
            "request needs a \"query\" member (or \"insert\"/\"retract\", or \"stats\": true)";
        for (line, message) in [
            ("not json", "invalid JSON: invalid literal at byte 0"),
            ("{}", none),
            (r#"{"query": 7}"#, none),
            (r#"{"stats": false}"#, none),
            (
                r#"{"insert": ["p(a)."], "query": "p(X)?"}"#,
                "a request is either a query or a mutation, not both",
            ),
            (r#"{"insert": "p(a)."}"#, "\"insert\" must be an array of fact strings"),
            (r#"{"retract": [7]}"#, "\"retract\" must be an array of fact strings"),
            (
                r#"{"query": "p(X)?", "timeout_ms": "soon"}"#,
                "\"timeout_ms\" must be a nonnegative integer",
            ),
            (r#"{"insert": [], "max_tuples": -1}"#, "\"max_tuples\" must be a nonnegative integer"),
            (
                r#"{"query": "p(X)?", "min_generation": 1.5}"#,
                "\"min_generation\" must be a nonnegative integer",
            ),
            (r#"{"query": "p(X)?", "strategy": 7}"#, "\"strategy\" must be a string"),
            (r#"{"sync": true}"#, "\"sync\" needs a nonnegative \"from_generation\" integer"),
        ] {
            assert_eq!(Request::parse(line), Err(message.to_string()), "{line}");
        }
    }

    #[test]
    fn frames_round_trip() {
        assert_eq!(parse_frame(&render_ping(9)).unwrap(), Frame::Ping { generation: 9 });
        assert_eq!(
            parse_frame(&render_checkpoint(40, 3)).unwrap(),
            Frame::Checkpoint { generation: 40, chunks: 3 }
        );
        assert_eq!(
            parse_frame(&render_chunk(1, 3, b"\x00\x01binary\xff")).unwrap(),
            Frame::Chunk { index: 1, of: 3, data: b"\x00\x01binary\xff".to_vec() }
        );
        assert_eq!(
            parse_frame(&render_record(41, b"delta frame")).unwrap(),
            Frame::Record { generation: 41, payload: b"delta frame".to_vec() }
        );
        assert_eq!(
            parse_frame(&render_error("sync_unavailable", "no data dir")).unwrap(),
            Frame::Error { kind: "sync_unavailable".into(), message: "no data dir".into() }
        );
    }

    #[test]
    fn corrupted_records_fail_their_checksum() {
        let line = render_record(41, b"delta frame");
        // Flip the stamped generation: the CRC covers it.
        let tampered = line.replace("\"generation\":41", "\"generation\":42");
        assert!(parse_frame(&tampered).unwrap_err().contains("checksum"));
        // Flip a payload byte (base64 of a different payload).
        let other = render_record(41, b"delta frame!");
        let v = json::parse(&other).unwrap();
        let bad_payload =
            v.get("record").unwrap().get("payload").and_then(Json::as_str).unwrap().to_string();
        let good = json::parse(&line).unwrap();
        let good_payload =
            good.get("record").unwrap().get("payload").and_then(Json::as_str).unwrap().to_string();
        let tampered = line.replace(&good_payload, &bad_payload);
        assert!(parse_frame(&tampered).unwrap_err().contains("checksum"));
        assert!(parse_frame("{\"what\": 1}").is_err());
        assert!(parse_frame("not json").is_err());
    }
}
