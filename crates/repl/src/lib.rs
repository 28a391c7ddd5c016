//! WAL-shipping replication for `sepra serve`.
//!
//! PR 5's durability layer produces exactly what read replication needs —
//! a generation-stamped, CRC'd mutation log bounded by atomic checkpoint
//! snapshots — and this crate streams it. One process is the **primary**
//! (durable, accepts mutations); any number of **followers** sync from it
//! over the same line-delimited-JSON TCP transport queries use, and a
//! **router** spreads client traffic across them:
//!
//! * [`protocol`] — the wire format's one home. [`Request`] is a decoded
//!   request line (query, mutation, stats, sync) with the only decoder
//!   and encoder of one, and `render_error` is the only error envelope;
//!   the server, the router and `sepra client` are callers. The sync
//!   frames live here too: a follower opens with
//!   `{"sync": {"from_generation": G}}` and the primary answers with a
//!   chunked checkpoint (when the follower is behind the newest snapshot)
//!   followed by a live WAL tail, every record carrying the same CRC the
//!   on-disk log stores, so integrity is verified end to end.
//! * [`feeder`] — the primary side: serves one follower's sync stream
//!   from the data directory, holding a checkpoint read-lease while
//!   streaming so a concurrent checkpoint roll cannot prune the file
//!   mid-transfer.
//! * [`client`] — the follower side: connects, drives the stream, and
//!   yields validated sync events for the server to apply.
//! * [`router`] — `sepra route`: forwards mutations to the primary,
//!   round-robins queries across healthy replicas with
//!   retry-on-next-replica, health-probes every backend, and aggregates
//!   backend generations/lag under `{"stats": true}`.
//! * [`listener`] — what the router and `sepra serve` both do with a
//!   socket: the accept loop and worker hand-off (connections are handed
//!   over as they arrive, idle workers sleep until one does), the framed
//!   request/reply loop on one connection, and the shutdown watcher
//!   (`quit` on stdin, SIGINT, SIGTERM).
//! * [`json`] / [`base64`] — the dependency-free wire encoding both ends
//!   share (the JSON module started life in `sepra-server`, which
//!   re-exports it unchanged).
//!
//! The replication invariant mirrors durability's: **a follower's state
//! is always the exact EDB of some committed-generation prefix of the
//! primary** — checkpoint bodies and deltas are applied through the same
//! decode + `apply_delta_mutation` path recovery uses, never a partial
//! frame, never out of order.

pub mod base64;
pub mod client;
pub mod feeder;
pub mod json;
pub mod listener;
pub mod protocol;
pub mod router;

pub use client::{SyncClient, SyncEvent};
pub use feeder::{stream_to_follower, SyncSource};
pub use protocol::{Frame, Request};
pub use router::{route, run_router, RouteOptions};
