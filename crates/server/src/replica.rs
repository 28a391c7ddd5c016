//! The replica applier: `sepra serve --replica-of HOST:PORT`.
//!
//! A replica is an ordinary query server whose mutations arrive over the
//! wire instead of from clients. One dedicated thread owns the sync
//! connection to the primary ([`sepra_repl::SyncClient`]) and applies
//! validated events into the shared master processor; the worker pool
//! keeps serving reads from snapshots throughout, exactly as on a
//! primary. What the applier maintains:
//!
//! * **Same code path as live mutations.** A streamed WAL record's delta
//!   goes through [`apply_delta_mutation`] — the identical
//!   incremental-maintenance path the primary's own commits and crash
//!   recovery use — then the record's stamped generation is adopted
//!   verbatim. A replica's state is therefore always the exact EDB of
//!   some committed-generation prefix of the primary, never an
//!   approximation.
//! * **Idempotence at generation granularity.** Every event at or below
//!   the replica's current generation is skipped, so reconnect overlap
//!   (the feeder re-sends from the requested floor) and checkpoint
//!   re-ships are harmless.
//! * **Publish order.** After applying: processor generation first (so
//!   workers refresh), then the gate (so a `min_generation` waiter that
//!   wakes always finds a refreshable snapshot at its target).
//!
//! Any stream error — connection loss, a failed checksum, a decode
//! failure — tears down the connection and reconnects from the replica's
//! current generation. The feeder decides from that floor whether the
//! WAL tail suffices or a checkpoint must be re-shipped.
//!
//! [`apply_delta_mutation`]: sepra_engine::QueryProcessor::apply_delta_mutation

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sepra_repl::{SyncClient, SyncEvent};
use sepra_wal::codec;

use crate::server::SharedState;

/// Delay between reconnect attempts when the primary is unreachable.
const RECONNECT_DELAY: Duration = Duration::from_millis(250);

/// Applies one validated sync event to the shared state. Returns `Err`
/// with a description when the stream content cannot be applied (the
/// caller reconnects; state is never left half-applied — both checkpoint
/// and delta application are all-or-nothing).
pub(crate) fn apply_event(shared: &SharedState, event: SyncEvent) -> Result<(), String> {
    match event {
        SyncEvent::Ping { generation } => {
            bump_primary_generation(shared, generation);
            Ok(())
        }
        SyncEvent::Record { generation, payload } => {
            bump_primary_generation(shared, generation);
            let mut master = shared.lock_master();
            if generation <= master.db().generation() {
                return Ok(()); // reconnect overlap: already applied
            }
            let delta = codec::decode_delta(&payload, master.interner_mut())
                .map_err(|e| format!("decoding record at generation {generation}: {e}"))?;
            master
                .apply_delta_mutation(delta)
                .map_err(|e| format!("applying record at generation {generation}: {e}"))?;
            // Adopt the primary's stamp (the local effective-tuple count
            // can differ when a record carries already-present tuples).
            master.adopt_db_generation(generation);
            shared.generation.store(master.generation(), Ordering::SeqCst);
            drop(master);
            shared.applied_records.fetch_add(1, Ordering::SeqCst);
            shared.gate.publish(generation);
            Ok(())
        }
        SyncEvent::Checkpoint { generation, body } => {
            bump_primary_generation(shared, generation);
            let mut master = shared.lock_master();
            if generation <= master.db().generation() {
                return Ok(()); // re-ship of a snapshot we already cover
            }
            // The snapshot is authoritative for the whole EDB: clear
            // first so tuples it says were retracted stay retracted. This
            // goes through `db_mut` (invalidating prepared state), so
            // re-prepare before serving — checkpoints arrive rarely
            // (initial sync and truncation races), records do the
            // steady-state work.
            let db = master.db_mut();
            db.clear_relations();
            codec::decode_snapshot_into(&body, db)
                .map_err(|e| format!("decoding checkpoint at generation {generation}: {e}"))?;
            db.force_generation(generation);
            master
                .prepare()
                .map_err(|e| format!("re-preparing after checkpoint {generation}: {e}"))?;
            shared.generation.store(master.generation(), Ordering::SeqCst);
            drop(master);
            shared.gate.publish(generation);
            Ok(())
        }
    }
}

/// Tracks the highest primary generation seen on the stream (pings carry
/// the primary's current position; records and checkpoints imply it).
fn bump_primary_generation(shared: &SharedState, generation: u64) {
    shared.primary_generation.fetch_max(generation, Ordering::SeqCst);
}

/// The applier loop: connect from the current generation, apply events,
/// reconnect on any failure, until shutdown.
fn applier_loop(primary: &str, shared: &SharedState, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::SeqCst) {
        let from_generation = shared.gate.current();
        let mut client = match SyncClient::connect(primary, from_generation) {
            Ok(client) => client,
            Err(_) => {
                // Primary down or unreachable: keep serving (lagging)
                // reads and retry. Sleep in one slice — short enough that
                // shutdown and recovery both stay prompt.
                std::thread::sleep(RECONNECT_DELAY);
                continue;
            }
        };
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            match client.next_event() {
                Ok(event) => {
                    if apply_event(shared, event).is_err() {
                        break; // unapplicable content: resync from scratch
                    }
                }
                Err(_) => break, // stream error: reconnect
            }
        }
    }
}

/// Spawns the applier thread for `serve --replica-of`.
pub(crate) fn spawn_applier(
    primary: String,
    shared: Arc<SharedState>,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name("sepra-replica".into())
        .spawn(move || applier_loop(&primary, &shared, &shutdown))
}
