//! Wiring between the query service and the [`sepra_wal`] durability
//! layer.
//!
//! With `--data-dir` the server becomes crash-safe: every committed
//! mutation's *effective* delta is appended to the WAL before the new
//! snapshot generation is published (write-ahead: once a client sees the
//! acknowledgement, recovery will replay the commit), and every
//! `--checkpoint-every` records the full EDB is snapshotted so the log
//! can be truncated. Startup recovery runs before
//! [`QueryProcessor::prepare`]: the newest valid checkpoint replaces the
//! program file's facts wholesale (the snapshot is authoritative — facts
//! retracted before the checkpoint must not resurrect from the `.dl`
//! file), then the WAL tail replays through
//! [`QueryProcessor::apply_delta_mutation`], the same incremental-
//! maintenance path live mutations take. A dir with no checkpoint gets
//! one immediately after recovery (covering the program file's facts), so
//! durable state is self-contained from the first startup.
//!
//! Generation bookkeeping: WAL records and checkpoints are stamped with
//! the **database** generation (one bump per effective tuple), which is
//! the durable lineage. [`replay`] applies a run of records as one delta
//! and forces the counter to the run's last stamp, so post-recovery
//! commits continue the on-disk numbering.
//!
//! Snapshot files — what `sepra dump` and `:save` write, and `sepra
//! restore` and `:load` read — go through one writer ([`write_snapshot`])
//! and one reader ([`read_snapshot`]), and [`dump`] and [`restore`] are
//! the offline tools over a data directory.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sepra_ast::{Interner, Sym};
use sepra_engine::QueryProcessor;
use sepra_storage::{Database, DeltaRun, EdbDelta, Tuple, Value};
use sepra_wal::checkpoint::checkpoint_file_name;
use sepra_wal::store::{read_recovery, Recovery, WAL_FILE};
use sepra_wal::{
    codec, list_checkpoints, read_checkpoint_file, write_checkpoint_file, CodecError, DurableStore,
    FsyncPolicy, WalError, WalWriter,
};

use crate::json::ObjWriter;

/// Default for [`DurabilityOptions::checkpoint_every`].
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1024;

/// Which snapshot body new checkpoints are written with. Readers accept
/// both regardless ([`codec::decode_snapshot_into`] sniffs the body), so
/// this only picks the *write* format: `V1` keeps a rollout's primaries
/// emitting checkpoints that pre-columnar replicas can still cold-sync
/// from; `V2` (the default) writes the columnar, memory-mappable layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointFormat {
    /// The row-major tuple-at-a-time frame.
    V1,
    /// The columnar `SEPRCOL2` frame.
    #[default]
    V2,
}

impl std::fmt::Display for CheckpointFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointFormat::V1 => write!(f, "v1"),
            CheckpointFormat::V2 => write!(f, "v2"),
        }
    }
}

impl std::str::FromStr for CheckpointFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "v1" | "1" => Ok(CheckpointFormat::V1),
            "v2" | "2" => Ok(CheckpointFormat::V2),
            other => Err(format!("unknown checkpoint format '{other}' (expected v1 or v2)")),
        }
    }
}

/// Durability configuration for `sepra serve --data-dir`.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding `wal.log` and `ckpt-*.sepra` (created if absent).
    pub data_dir: PathBuf,
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Checkpoint after this many WAL records since the last checkpoint
    /// (0 disables automatic checkpoints; the log then grows unbounded).
    pub checkpoint_every: u64,
    /// The body format for checkpoints this server writes.
    pub checkpoint_format: CheckpointFormat,
}

impl DurabilityOptions {
    /// Options for `data_dir` with default fsync (`always`), checkpoint
    /// cadence, and checkpoint format.
    pub fn new(data_dir: PathBuf) -> Self {
        DurabilityOptions {
            data_dir,
            fsync: FsyncPolicy::default(),
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            checkpoint_format: CheckpointFormat::default(),
        }
    }
}

/// What startup recovery did, frozen for the lifetime of the server and
/// reported under `{"stats": true}`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Generation of the checkpoint that seeded the EDB (0 = none).
    pub checkpoint_generation: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// Torn/corrupt WAL tail bytes truncated.
    pub truncated_bytes: u64,
    /// The database generation recovery ended at.
    pub recovered_generation: u64,
    /// Wall-clock time of the whole recovery.
    pub duration: Duration,
}

/// Applies a run of log records — `(stamped generation, encoded delta)`,
/// oldest first — to `qp` as **one** mutation. The deltas are composed
/// by [`DeltaRun`] (per tuple the last operation wins, which is what
/// applying them one by one comes to), the composed delta goes through
/// [`QueryProcessor::apply_delta_mutation`] once — the all-or-none
/// staging, incremental maintenance and plan-cache validation a live
/// commit gets — and the database generation is then forced to the run's
/// last stamp. Crash recovery, `sepra dump` and the replica applier all
/// replay through here. All-or-none for the run too: if a record does not
/// decode or the delta does not apply, `qp` is where it was (bar interned
/// symbols), which is a state the log's writer committed.
pub fn replay<'a>(
    qp: &mut QueryProcessor,
    records: impl IntoIterator<Item = (u64, &'a [u8])>,
) -> Result<(), WalError> {
    let mut run = DeltaRun::default();
    let mut last = None;
    for (generation, payload) in records {
        run.push(codec::decode_delta(payload, qp.interner_mut())?);
        last = Some(generation);
    }
    let Some(generation) = last else { return Ok(()) };
    qp.apply_delta_mutation(run.into_delta()).map_err(|e| {
        WalError::io(
            format!("replaying the log up to generation {generation}"),
            std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()),
        )
    })?;
    qp.adopt_db_generation(generation);
    Ok(())
}

/// Brings `qp`'s EDB to the durable state `recovery` read from a data
/// directory: the checkpoint, if there is one, replaces the facts
/// wholesale, then the log tail replays on top as one run.
fn recover_into(qp: &mut QueryProcessor, recovery: &Recovery) -> Result<(), WalError> {
    if let Some(body) = &recovery.checkpoint_body {
        // The program file's facts go, so pre-checkpoint retractions stay
        // retracted.
        install_snapshot(qp.db_mut(), body)?;
    }
    replay(qp, recovery.records.iter().map(|r| (r.generation, r.payload.as_slice())))
}

/// Replaces `db`'s facts with the snapshot `body`, in either format, at
/// the body's generation: the snapshot is the whole EDB. Recovery, a
/// replica's cold sync and [`read_snapshot`] all read a snapshot body
/// through here, and so through [`codec::decode_snapshot_into`].
pub(crate) fn install_snapshot(db: &mut Database, body: &[u8]) -> Result<(), CodecError> {
    db.clear_relations();
    let generation = codec::decode_snapshot_into(body, db)?;
    db.force_generation(generation);
    Ok(())
}

/// An open durability pipeline: owns the [`DurableStore`] and the
/// checkpoint cadence. Lives behind its own mutex in the server's shared
/// state; commits lock master first, then this — stats readers lock only
/// this.
#[derive(Debug)]
pub struct Durability {
    store: DurableStore,
    fsync: FsyncPolicy,
    checkpoint_every: u64,
    checkpoint_format: CheckpointFormat,
    recovery: RecoveryReport,
}

impl Durability {
    /// Opens `opts.data_dir`, recovers `qp` to the newest durable state
    /// (checkpoint + WAL replay, truncating a torn tail), and returns the
    /// pipeline ready to record commits. Call before
    /// [`QueryProcessor::prepare`] — [`replay`] is plain delta
    /// application then; support materialization happens once, after,
    /// over the recovered EDB.
    pub fn recover(qp: &mut QueryProcessor, opts: &DurabilityOptions) -> Result<Self, WalError> {
        let start = Instant::now();
        let (store, recovery) = DurableStore::open(&opts.data_dir, opts.fsync)?;
        let mut report = RecoveryReport {
            checkpoint_generation: recovery.checkpoint_generation.unwrap_or(0),
            truncated_bytes: recovery.truncated_bytes,
            ..RecoveryReport::default()
        };
        recover_into(qp, &recovery)?;
        report.replayed_records = recovery.records.len() as u64;
        report.recovered_generation = qp.db().generation();
        report.duration = start.elapsed();
        let mut durability = Durability {
            store,
            fsync: opts.fsync,
            checkpoint_every: opts.checkpoint_every,
            checkpoint_format: opts.checkpoint_format,
            recovery: report,
        };
        if recovery.checkpoint_body.is_none() {
            // No checkpoint on disk (fresh dir, or every candidate was
            // corrupt): snapshot the recovered EDB now so the durable
            // state is self-contained — `sepra dump` and later recoveries
            // no longer depend on the program file for the base facts.
            durability.checkpoint(qp.db())?;
        }
        Ok(durability)
    }

    /// Records one committed mutation: appends the effective delta to the
    /// WAL (fsync per policy), then rolls a checkpoint if the cadence is
    /// due. Call **while still holding the master lock, before publishing
    /// the new generation**; on `Err` the caller must roll the master
    /// back, because the commit is not durable.
    ///
    /// Returns whether a checkpoint was written.
    pub fn record_commit(&mut self, db: &Database, delta: &EdbDelta) -> Result<bool, WalError> {
        let payload = codec::encode_delta(delta, db.interner());
        self.store.append_delta(db.generation(), &payload)?;
        if self.checkpoint_every > 0
            && self.store.records_since_checkpoint() >= self.checkpoint_every
        {
            self.checkpoint(db)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Writes a checkpoint of `db` now (in the configured body format),
    /// truncating the WAL.
    pub fn checkpoint(&mut self, db: &Database) -> Result<(), WalError> {
        let body = match self.checkpoint_format {
            CheckpointFormat::V1 => codec::encode_database(db),
            CheckpointFormat::V2 => codec::encode_database_columnar(db),
        };
        self.store.checkpoint(db.generation(), &body)
    }

    /// Flushes policy-deferred WAL writes (clean shutdown).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.store.sync()
    }

    /// The deferral window of `--fsync interval:MS`, `None` for the
    /// policies with nothing to flush in the background (`always` syncs
    /// in the commit path; `never` leaves flushing to the OS by design).
    pub fn deferred_sync_interval(&self) -> Option<Duration> {
        match self.fsync {
            FsyncPolicy::Interval(interval) => Some(interval),
            FsyncPolicy::Always | FsyncPolicy::Never => None,
        }
    }

    /// Flushes policy-deferred WAL appends if the fsync interval has
    /// elapsed. The accept loop drives this so `interval:MS` keeps its
    /// "at most one interval of acknowledged commits" loss bound even
    /// when mutations stop arriving (the deferred sync otherwise only
    /// runs on the next append).
    pub fn flush_if_stale(&mut self) -> Result<bool, WalError> {
        self.store.sync_if_stale()
    }

    /// The frozen startup-recovery report.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The replication feeder's view of this data directory: the path it
    /// streams checkpoints and the WAL tail from, plus the lease table
    /// the checkpoint pruner honors (a snapshot mid-stream to a follower
    /// is never deleted under it).
    pub fn sync_source(&self) -> sepra_repl::SyncSource {
        sepra_repl::SyncSource {
            data_dir: self.store.dir().to_path_buf(),
            leases: self.store.leases(),
        }
    }

    /// One line for the startup banner, e.g.
    /// `recovered generation 12 (checkpoint 8, replayed 4 records) in 1 ms`.
    pub fn recovery_banner(&self) -> String {
        let r = &self.recovery;
        let mut line = format!(
            "recovered generation {} (checkpoint {}, replayed {} records",
            r.recovered_generation, r.checkpoint_generation, r.replayed_records
        );
        if r.truncated_bytes > 0 {
            line.push_str(&format!(", truncated {} torn bytes", r.truncated_bytes));
        }
        line.push_str(&format!(") in {} ms", r.duration.as_millis()));
        line
    }

    /// The `"durability"` object for the `{"stats": true}` response.
    pub fn stats_json(&self, db_generation: u64) -> String {
        let mut recovery = ObjWriter::new();
        recovery
            .num("checkpoint_generation", self.recovery.checkpoint_generation)
            .num("replayed_records", self.recovery.replayed_records)
            .num("truncated_bytes", self.recovery.truncated_bytes)
            .num("recovered_generation", self.recovery.recovered_generation)
            .num(
                "duration_ms",
                u64::try_from(self.recovery.duration.as_millis()).unwrap_or(u64::MAX),
            );
        let mut out = ObjWriter::new();
        out.str("data_dir", &self.store.dir().display().to_string())
            .str("fsync", &self.fsync.to_string())
            .num("wal_bytes", self.store.wal_bytes())
            .num("records_since_checkpoint", self.store.records_since_checkpoint())
            .num("last_checkpoint_generation", self.store.last_checkpoint_generation())
            .num("checkpoint_every", self.checkpoint_every)
            .str("checkpoint_format", &self.checkpoint_format.to_string())
            .num("db_generation", db_generation)
            .raw("recovery", &recovery.finish());
        out.finish()
    }
}

/// Reads the durable EDB state of `data_dir` without touching it (no tail
/// truncation, no locks): the newest valid checkpoint with the WAL tail
/// replayed on top, as a standalone [`Database`]. [`dump`] is built on
/// this so it can run against a live server's directory.
pub fn load_offline(data_dir: &Path) -> Result<Database, WalError> {
    let mut qp = QueryProcessor::new();
    recover_into(&mut qp, &read_recovery(data_dir)?)?;
    Ok(qp.db().clone())
}

/// The facts of `db` as an insert-only delta over `interner`'s symbols:
/// how a live processor merges a snapshot through incremental
/// maintenance.
pub(crate) fn as_inserts(db: &Database, interner: &mut Interner) -> EdbDelta {
    let mut intern = |sym: Sym| interner.intern(db.interner().resolve(sym));
    let mut delta = EdbDelta::default();
    for (pred, relation) in db.relations() {
        let tuples = delta.insert.entry(intern(pred)).or_default();
        for row in relation.iter() {
            let values = row.values().map(|v| v.as_sym().map_or(v, |s| Value::sym(intern(s))));
            tuples.push(Tuple::from(values.collect::<Vec<_>>()));
        }
    }
    delta
}

/// The one snapshot-file reader, behind `sepra restore` and `:load`:
/// checks the container, then decodes the body in full, into a database
/// (and symbol space) of its own.
pub fn read_snapshot(path: &Path) -> Result<Database, WalError> {
    let (_, body) = read_checkpoint_file(path)?;
    let mut db = Database::new();
    install_snapshot(&mut db, &body).map_err(|e| {
        let e = std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string());
        WalError::io(format!("{} does not decode as an EDB snapshot", path.display()), e)
    })?;
    Ok(db)
}

/// The one snapshot-file writer, behind `sepra dump`, `:save` and the
/// checkpoint `sepra restore` installs: `db` in the canonical row-major
/// body, stamped with its generation, written atomically. Dumping what
/// was restored from a dump reproduces it.
pub fn write_snapshot(db: &Database, path: &Path) -> Result<(), WalError> {
    write_checkpoint_file(path, db.generation(), &codec::encode_database(db))
}

/// `sepra dump`: writes the durable state of `data_dir` (see
/// [`load_offline`]) to the snapshot file `file`, and returns it.
/// Read-only on `data_dir`; a directory without durable state is refused.
pub fn dump(data_dir: &Path, file: &Path) -> Result<Database, String> {
    let recovery = read_recovery(data_dir).map_err(|e| e.to_string())?;
    if recovery.checkpoint_body.is_none() && recovery.records.is_empty() {
        return Err(format!("{} holds no durable state to dump", data_dir.display()));
    }
    let mut qp = QueryProcessor::new();
    recover_into(&mut qp, &recovery).map_err(|e| e.to_string())?;
    write_snapshot(qp.db(), file).map_err(|e| e.to_string())?;
    Ok(qp.db().clone())
}

/// `sepra restore`: makes the snapshot file `file` the durable state of
/// `data_dir` — its one checkpoint, with an empty log — and returns it.
/// Existing durable state is replaced only under `force`. The checkpoint
/// is written before what it supersedes is removed, so a restore that
/// fails leaves the directory's durable state as it was.
pub fn restore(file: &Path, data_dir: &Path, force: bool) -> Result<Database, String> {
    let text = |e: WalError| e.to_string();
    let db = read_snapshot(file).map_err(text)?;
    std::fs::create_dir_all(data_dir)
        .map_err(|e| format!("creating data dir {}: {e}", data_dir.display()))?;
    let old = read_recovery(data_dir).map_err(text)?;
    if !force && (old.checkpoint_body.is_some() || !old.records.is_empty() || old.stale_records > 0)
    {
        let (dir, generation) = (data_dir.display(), old.recovered_generation());
        return Err(format!(
            "{dir} already holds durable state (generation {generation}); use --force to replace it"
        ));
    }
    let checkpoint = data_dir.join(checkpoint_file_name(db.generation()));
    write_snapshot(&db, &checkpoint).map_err(text)?;
    let _ = std::fs::remove_file(data_dir.join(WAL_FILE));
    for (_, path) in list_checkpoints(data_dir).map_err(text)? {
        if path != checkpoint {
            let _ = std::fs::remove_file(path);
        }
    }
    // A fresh, empty WAL so the directory is immediately servable.
    WalWriter::open(&data_dir.join(WAL_FILE), FsyncPolicy::Always).map_err(text)?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("sepra_server_durability_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fact_strings(db: &Database) -> Vec<String> {
        let mut facts = Vec::new();
        for (pred, relation) in db.relations() {
            let name = db.interner().resolve(pred).to_string();
            for tuple in relation.iter() {
                let args: Vec<String> =
                    tuple.values().map(|v| v.display(db.interner()).to_string()).collect();
                facts.push(format!("{name}({})", args.join(",")));
            }
        }
        facts.sort();
        facts
    }

    fn processor() -> QueryProcessor {
        let mut qp = QueryProcessor::new();
        qp.load("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, Z), t(Z, Y).\ne(a, b). e(b, c).\n").unwrap();
        qp
    }

    #[test]
    fn commits_survive_reopen() {
        let dir = tmp_dir("reopen");
        let opts = DurabilityOptions::new(dir.clone());
        {
            let mut qp = processor();
            let mut durability = Durability::recover(&mut qp, &opts).unwrap();
            assert_eq!(durability.recovery().replayed_records, 0);
            let out = qp.apply_mutation(&["e(c, d)."], &[]).unwrap();
            durability.record_commit(qp.db(), &out.delta).unwrap();
            let out = qp.apply_mutation(&["e(d, a)."], &["e(a, b)."]).unwrap();
            durability.record_commit(qp.db(), &out.delta).unwrap();
        }
        let mut fresh = processor();
        let durability = Durability::recover(&mut fresh, &opts).unwrap();
        assert_eq!(durability.recovery().replayed_records, 2);
        let direct = {
            let mut qp = processor();
            qp.apply_mutation(&["e(c, d)."], &[]).unwrap();
            qp.apply_mutation(&["e(d, a)."], &["e(a, b)."]).unwrap();
            qp
        };
        assert_eq!(fact_strings(fresh.db()), fact_strings(direct.db()));
        assert_eq!(fresh.db().generation(), direct.db().generation());
    }

    #[test]
    fn checkpoint_replaces_program_facts() {
        let dir = tmp_dir("authoritative");
        let opts = DurabilityOptions::new(dir.clone());
        {
            let mut qp = processor();
            let mut durability = Durability::recover(&mut qp, &opts).unwrap();
            // Retract a fact that the program file will try to reload.
            let out = qp.apply_mutation(&[], &["e(a, b)."]).unwrap();
            durability.record_commit(qp.db(), &out.delta).unwrap();
            durability.checkpoint(qp.db()).unwrap();
        }
        let mut fresh = processor();
        let durability = Durability::recover(&mut fresh, &opts).unwrap();
        // The retraction held: the checkpoint is authoritative, the
        // program file's `e(a, b).` must not resurrect.
        assert!(!fact_strings(fresh.db()).contains(&"e(a,b)".to_string()));
        assert_eq!(durability.recovery().replayed_records, 0);
        assert!(durability.recovery().checkpoint_generation > 0);
    }

    #[test]
    fn cadence_rolls_checkpoints_and_bounds_replay() {
        let dir = tmp_dir("cadence");
        let mut opts = DurabilityOptions::new(dir.clone());
        opts.checkpoint_every = 2;
        {
            let mut qp = processor();
            let mut durability = Durability::recover(&mut qp, &opts).unwrap();
            let nodes = ["n1", "n2", "n3", "n4", "n5"];
            let mut checkpoints = 0;
            for (i, node) in nodes.iter().enumerate() {
                let fact = format!("e({node}, {}).", nodes[(i + 1) % nodes.len()]);
                let out = qp.apply_mutation(&[fact.as_str()], &[]).unwrap();
                if durability.record_commit(qp.db(), &out.delta).unwrap() {
                    checkpoints += 1;
                }
            }
            assert_eq!(checkpoints, 2); // 5 records, cadence 2
        }
        let mut fresh = processor();
        let durability = Durability::recover(&mut fresh, &opts).unwrap();
        // Only the records after the last checkpoint replay.
        assert_eq!(durability.recovery().replayed_records, 1);
        assert_eq!(fact_strings(fresh.db()).len(), 2 + 5);
    }

    #[test]
    fn offline_load_matches_live_recovery() {
        let dir = tmp_dir("offline");
        let opts = DurabilityOptions::new(dir.clone());
        {
            let mut qp = processor();
            let mut durability = Durability::recover(&mut qp, &opts).unwrap();
            let out = qp.apply_mutation(&["e(x, y)."], &[]).unwrap();
            durability.record_commit(qp.db(), &out.delta).unwrap();
            durability.checkpoint(qp.db()).unwrap();
            let out = qp.apply_mutation(&["e(y, z)."], &[]).unwrap();
            durability.record_commit(qp.db(), &out.delta).unwrap();
        }
        let offline = load_offline(&dir).unwrap();
        let mut live = processor();
        let _ = Durability::recover(&mut live, &opts).unwrap();
        // The offline view has no program file, so compare EDB facts only.
        assert_eq!(fact_strings(&offline), fact_strings(live.db()));
        assert_eq!(offline.generation(), live.db().generation());
    }

    #[test]
    fn both_checkpoint_formats_recover_identically() {
        // A directory checkpointed in v1 and one in v2 recover to the
        // same state — and a v1 directory reopened by a v2-writing server
        // (the rollout path) keeps working.
        let mut recovered = Vec::new();
        for format in [CheckpointFormat::V1, CheckpointFormat::V2] {
            let dir = tmp_dir(&format!("format_{format}"));
            let mut opts = DurabilityOptions::new(dir.clone());
            opts.checkpoint_format = format;
            {
                let mut qp = processor();
                let mut durability = Durability::recover(&mut qp, &opts).unwrap();
                let out = qp.apply_mutation(&["e(c, d)."], &["e(a, b)."]).unwrap();
                durability.record_commit(qp.db(), &out.delta).unwrap();
                durability.checkpoint(qp.db()).unwrap();
            }
            // Reopen with the *other* format configured: reading is
            // format-agnostic, only new checkpoints change.
            let mut reopen_opts = opts.clone();
            reopen_opts.checkpoint_format = match format {
                CheckpointFormat::V1 => CheckpointFormat::V2,
                CheckpointFormat::V2 => CheckpointFormat::V1,
            };
            let mut fresh = processor();
            let durability = Durability::recover(&mut fresh, &reopen_opts).unwrap();
            assert_eq!(durability.recovery().replayed_records, 0, "{format}");
            assert!(!fact_strings(fresh.db()).contains(&"e(a,b)".to_string()), "{format}");
            recovered.push((fact_strings(fresh.db()), fresh.db().generation()));
        }
        assert_eq!(recovered[0], recovered[1]);
    }

    #[test]
    fn a_failed_restore_leaves_the_durable_state_intact() {
        // A durable directory at generation 3 ...
        let dir = tmp_dir("restore_fails");
        let data = dir.join("data");
        let mut qp = QueryProcessor::new();
        qp.load("e(a, b). e(b, c). e(c, d).\n").unwrap();
        Durability::recover(&mut qp, &DurabilityOptions::new(data.clone())).unwrap();
        // ... a snapshot at generation 2 ...
        let mut two = QueryProcessor::new();
        two.load("e(x, y). e(y, z).\n").unwrap();
        let file = dir.join("two.sepra");
        write_snapshot(two.db(), &file).unwrap();
        // ... and a directory squatting on the name its checkpoint takes.
        std::fs::create_dir_all(data.join(checkpoint_file_name(2))).unwrap();
        let err = restore(&file, &data, true).unwrap_err();
        assert!(err.starts_with("renaming"), "{err}");
        let after = load_offline(&data).unwrap();
        assert_eq!(fact_strings(&after), fact_strings(qp.db()));
        assert_eq!(after.generation(), 3);
    }

    #[test]
    fn missing_dir_parent_is_a_structured_error() {
        // A data dir under a *file* cannot be created.
        let base = tmp_dir("blocked");
        std::fs::create_dir_all(&base).unwrap();
        let file = base.join("occupied");
        std::fs::write(&file, b"not a directory").unwrap();
        let mut qp = processor();
        let err = Durability::recover(&mut qp, &DurabilityOptions::new(file.join("data")))
            .expect_err("creating a data dir under a file must fail");
        assert!(err.to_string().contains("creating data dir"));
    }
}
