//! The `sepra` CLI and the `sepra serve` concurrent query service.
//!
//! The paper's closing argument is that compiled separable recursions
//! belong *inside* a query processor, supplementing the general
//! algorithms. This crate is the front door to that processor: the `sepra`
//! binary (one-shot queries, a REPL, `sepra check` static analysis) and a
//! long-lived TCP query service that loads and compiles a program once,
//! then answers concurrent line-delimited JSON queries with per-request
//! deadlines, tuple caps, cancellation on shutdown, and live engine
//! statistics (per-strategy counts, latency aggregates, plan-cache
//! hit rates).
//!
//! All three front ends — a server worker, the REPL and the one-shot CLI —
//! run requests through one [`Session`]. See [`server`] for how a request
//! is served (the wire protocol itself is [`sepra_repl::protocol`]),
//! [`durability`] for the log, checkpoints and snapshot files, [`metrics`]
//! for what the `stats` request reports, and [`json`] for the
//! dependency-free JSON layer (hosted by `sepra-repl` so the replication
//! protocol can share it, and re-exported here unchanged).

mod commit;
pub mod durability;
pub mod metrics;
pub mod replica;
mod respond;
pub mod server;
pub mod session;
mod worker;

pub use durability::{
    dump, load_offline, replay, restore, CheckpointFormat, Durability, DurabilityOptions,
    DEFAULT_CHECKPOINT_EVERY,
};
pub use metrics::{Metrics, Snapshot};
pub use sepra_repl::json;
pub use sepra_repl::listener::MAX_REQUEST_BYTES;
pub use server::{lint_gate, serve, ServeError, ServeOptions};
pub use session::{Limits, Session};

/// Default worker count: whatever the OS reports, falling back to serial.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
