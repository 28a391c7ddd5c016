//! The one place a mutation commits on a primary.
//!
//! A mutation is acknowledged only once it is both applied *and* logged,
//! and nothing may observe it before that: the master is changed, the
//! effective delta appended to the write-ahead log, and only then is the
//! new state published. What each step costs is part of the contract the
//! benchmark's write workloads hold: one master clone as the roll-back
//! copy when durable, one `apply_mutation`, one `record_commit`, one
//! clone into the committing worker's snapshot.

use sepra_engine::{MutationOutcome, ProcessorError};
use sepra_eval::Budget;
use sepra_wal::WalError;

use crate::server::SharedState;
use crate::session::Session;

/// Why a mutation did not commit. Either way the master is as it was.
pub(crate) enum CommitError {
    /// The processor refused it: unparsable or non-ground facts, an
    /// exhausted budget.
    Refused(ProcessorError),
    /// It applied, but the write-ahead append failed and it was undone.
    RolledBack(WalError),
}

/// Applies `inserts`/`retracts` through the shared master session
/// (write-exclusive) under `budget`, logs the effective delta, and
/// publishes the new generation; `snapshot`, the committing worker's own,
/// is replaced by the committed state.
pub(crate) fn commit(
    shared: &SharedState,
    snapshot: &mut Session,
    inserts: &[&str],
    retracts: &[&str],
    budget: Budget,
) -> Result<MutationOutcome, CommitError> {
    let mut master = shared.lock_master();
    // With durability on, keep a copy-on-write backup so a failed
    // WAL append can roll the in-memory commit back.
    let backup = shared.durability.as_ref().map(|_| master.processor().clone());
    let out = master.mutate(inserts, retracts, budget).map_err(CommitError::Refused)?;
    if !out.delta.is_empty() {
        if let Some(mut durability) = shared.lock_durability() {
            if let Err(e) = durability.record_commit(master.processor().db(), &out.delta) {
                // Write-ahead failed: the commit would not survive a
                // crash, so it must not be visible at all. Restore the
                // pre-mutation master.
                *master.processor_mut() = backup.expect("backup exists when durability is on");
                return Err(CommitError::RolledBack(e));
            }
        }
    }
    // Commit order matters: refresh the worker's snapshot and publish
    // the generation only after the master committed and the delta is
    // logged, so no snapshot can observe a non-durable mutation, and
    // still under the master lock, so a reader the gate releases clones
    // a master at or past the generation it waited for.
    *snapshot = master.clone();
    shared.gate.publish(snapshot.processor().db().generation());
    Ok(out)
}
