//! The replica applier: `sepra serve --replica-of HOST:PORT`.
//!
//! A replica is an ordinary query server whose mutations arrive over the
//! wire instead of from clients. One dedicated thread owns the sync
//! connection to the primary ([`sepra_repl::SyncClient`]) and applies
//! validated events into the shared master processor; the worker pool
//! keeps serving reads from snapshots throughout, exactly as on a
//! primary. What the applier maintains:
//!
//! * **A run of records is one delta.** The record frames that have
//!   already arrived when the applier looks — a whole backlog after a
//!   connect, a single record behind a live primary — are one *run*. It
//!   goes through [`replay`], the path crash recovery takes: one
//!   coalesced delta through [`apply_delta_mutation`] (the identical
//!   incremental-maintenance path the primary's own commits use), then
//!   the run's last stamped generation is adopted verbatim. A ping or a
//!   checkpoint frame ends the run. At every run boundary a replica's
//!   state is therefore the exact EDB of some committed-generation prefix
//!   of the primary, never an approximation; inside a run nothing is
//!   visible, because a run commits all-or-none under the master lock.
//! * **Idempotence at generation granularity.** Every event at or below
//!   the replica's current generation is skipped, so reconnect overlap
//!   (the feeder re-sends from the requested floor) and checkpoint
//!   re-ships are harmless.
//! * **One publish per run**, after the master holds the run: the gate
//!   (`SharedState::gate`) is what workers compare their snapshots with
//!   and what `min_generation` readers wait on, so a reader it releases
//!   always finds a refreshable snapshot at its target.
//!
//! Any stream error — connection loss, a failed checksum, a decode
//! failure — tears down the connection and reconnects from the replica's
//! current generation; the records that arrived intact before it are
//! applied first. The feeder decides from that floor whether the WAL tail
//! suffices or a checkpoint must be re-shipped.
//!
//! [`apply_delta_mutation`]: sepra_engine::QueryProcessor::apply_delta_mutation

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use sepra_repl::{SyncClient, SyncEvent};

use crate::durability::{install_snapshot, replay};
use crate::server::SharedState;

/// Delay between reconnect attempts when the primary is unreachable.
const RECONNECT_DELAY: Duration = Duration::from_millis(250);

/// Applies the pending run of records — `(stamped generation, encoded
/// delta)`, in stream order — as one mutation and publishes once, leaving
/// `run` empty. On `Err` nothing was applied (the caller reconnects).
fn apply_run(shared: &SharedState, run: &mut Vec<(u64, Vec<u8>)>) -> Result<(), String> {
    let run = std::mem::take(run);
    if run.is_empty() {
        return Ok(());
    }
    let mut master = shared.lock_master();
    // Reconnect overlap: whatever is at or below the generation reached
    // so far was already applied.
    let mut floor = master.processor().db().generation();
    let fresh: Vec<(u64, &[u8])> = run
        .iter()
        .filter(|(generation, _)| {
            let new = *generation > floor;
            floor = floor.max(*generation);
            new
        })
        .map(|(generation, payload)| (*generation, payload.as_slice()))
        .collect();
    bump_primary_generation(shared, floor);
    if fresh.is_empty() {
        return Ok(());
    }
    let applied = fresh.len() as u64;
    // `replay` adopts the primary's stamp (the local effective-tuple
    // count can differ when a record carries already-present tuples).
    replay(master.processor_mut(), fresh).map_err(|e| e.to_string())?;
    drop(master);
    shared.applied_records.fetch_add(applied, Ordering::SeqCst);
    shared.gate.publish(floor);
    Ok(())
}

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
            apply_run(shared, &mut vec![(generation, payload)])
        }
        SyncEvent::Checkpoint { generation, body } => {
            bump_primary_generation(shared, generation);
            let mut master = shared.lock_master();
            let qp = master.processor_mut();
            if generation <= qp.db().generation() {
                return Ok(()); // re-ship of a snapshot we already cover
            }
            // The snapshot replaces the whole EDB, so tuples it says were
            // retracted stay retracted. This goes through `db_mut`
            // (invalidating prepared state), so re-prepare before serving
            // — checkpoints arrive rarely (initial sync and truncation
            // races), records do the steady-state work.
            let db = qp.db_mut();
            install_snapshot(db, &body)
                .map_err(|e| format!("decoding checkpoint at generation {generation}: {e}"))?;
            db.force_generation(generation);
            qp.prepare().map_err(|e| format!("re-preparing after checkpoint {generation}: {e}"))?;
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
/// reconnect on any failure, until shutdown. [`stop_applier`] is what
/// ends its waits.
fn applier_loop(primary: &str, shared: &SharedState) {
    let shutdown = &shared.shutdown;
    while !shutdown.load(Ordering::SeqCst) {
        let from_generation = shared.gate.current();
        let mut client = match SyncClient::connect(primary, from_generation) {
            Ok(client) => client,
            Err(_) => {
                // Primary down or unreachable: keep serving (lagging)
                // reads and retry.
                std::thread::park_timeout(RECONNECT_DELAY);
                continue;
            }
        };
        // Registered before the flag is read below: whichever of this
        // thread and `stop_applier` comes second sees the other.
        *shared.lock_sync_socket() = client.try_clone_stream().ok();
        let mut run = Vec::new();
        loop {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            match client.next_event() {
                Ok(SyncEvent::Record { generation, payload }) => {
                    run.push((generation, payload));
                    // The run is what has already arrived: keep reading
                    // while that costs no wait, then apply it as one.
                    if client.frame_buffered() {
                        continue;
                    }
                    if apply_run(shared, &mut run).is_err() {
                        break; // unapplicable content: resync from scratch
                    }
                }
                // Anything else ends the run, a broken stream included:
                // what arrived intact is applied before it is handled.
                other => {
                    let applied = apply_run(shared, &mut run)
                        .and_then(|()| apply_event(shared, other.map_err(|e| e.to_string())?));
                    if applied.is_err() {
                        break; // stream error or unapplicable content: reconnect
                    }
                }
            }
        }
        // The connection is over: its second handle must not keep the
        // socket open under the primary's feeder.
        shared.lock_sync_socket().take();
    }
}

/// Spawns the applier thread if `shared` is a replica's state
/// (`serve --replica-of`).
pub(crate) fn spawn_applier(
    shared: &Arc<SharedState>,
) -> std::io::Result<Option<std::thread::JoinHandle<()>>> {
    let Some(primary) = shared.opts.replica_of.clone() else { return Ok(None) };
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("sepra-replica".into())
        .spawn(move || applier_loop(&primary, &shared))
        .map(Some)
}

/// Ends the applier's waits once the shutdown flag is up, so that it
/// returns now and not at the primary's next ping: shuts its sync socket
/// down (a blocked read returns at once) and cuts its reconnect delay
/// short.
pub(crate) fn stop_applier(shared: &SharedState, applier: &std::thread::JoinHandle<()>) {
    if let Some(socket) = shared.lock_sync_socket().take() {
        let _ = socket.shutdown(std::net::Shutdown::Both);
    }
    applier.thread().unpark();
}
