//! The primary side of a sync stream: serve one follower from the data
//! directory until the connection drops.
//!
//! The feeder reads the same files durability writes — `ckpt-*.sepra`
//! snapshots and the `wal.log` tail — and never touches the in-memory
//! database, so any number of followers can sync without contending on
//! the server's master lock. Correctness rests on two disciplines:
//!
//! 1. **Lease before read.** Shipping a checkpoint holds a
//!    [`LeaseSet`] read-lease on its generation, so a concurrent
//!    checkpoint roll on the primary cannot prune the file mid-transfer.
//!    If pruning wins the race *before* the lease lands (the file is
//!    listed, then gone), the feeder just re-lists and ships the newer
//!    snapshot.
//! 2. **Re-list after poll, before forwarding.** A checkpoint roll
//!    truncates the WAL; if the log then regrows past the length the
//!    feeder last saw, a naive tail would forward post-roll records while
//!    the pre-roll ones it never read are gone — a silent gap the
//!    follower could never detect, because its floor would advance past
//!    the checkpoint generation that covers the missing records. So after
//!    every poll the feeder lists checkpoints *again* and discards the
//!    whole batch if a snapshot newer than the pre-poll floor appeared,
//!    resyncing from that snapshot instead. This is sound because
//!    durability writes the checkpoint file strictly before truncating
//!    the log: any truncation is visible as a checkpoint by the time the
//!    truncated records could be missed.

use std::io::{self, BufWriter, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sepra_wal::checkpoint::{decode_checkpoint, list_checkpoints};
use sepra_wal::{LeaseSet, WalFollower};

use crate::protocol::{render_checkpoint, render_chunk, render_ping, render_record, CHUNK_BYTES};

/// How often the WAL tail is re-read for new records. The wait between
/// two reads is spent listening for the follower's hang-up.
const TAIL_POLL: Duration = Duration::from_millis(25);
/// How often a quiet stream still sends a ping (liveness + lag signal).
const PING_EVERY: Duration = Duration::from_secs(1);
/// A follower that cannot absorb a frame for this long is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// What the feeder streams from: the durable data directory plus the
/// lease table shared with the checkpoint pruner.
#[derive(Debug, Clone)]
pub struct SyncSource {
    /// The primary's `--data-dir` (holds `wal.log` and `ckpt-*.sepra`).
    pub data_dir: PathBuf,
    /// Read-leases honored by `prune_checkpoints` on this directory.
    pub leases: LeaseSet,
}

impl SyncSource {
    fn wal_path(&self) -> PathBuf {
        self.data_dir.join("wal.log")
    }
}

fn write_line(out: &mut BufWriter<&TcpStream>, line: &str) -> io::Result<()> {
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")
}

fn send_line(out: &mut BufWriter<&TcpStream>, line: &str) -> io::Result<()> {
    write_line(out, line)?;
    out.flush()
}

/// Waits up to [`TAIL_POLL`] on the follower's half of the socket and
/// reports whether it hung up. A follower never writes after its sync
/// request, so the only thing this read can return early for is the end
/// of the connection; stray bytes are dropped.
fn follower_hung_up(mut stream: &TcpStream) -> io::Result<bool> {
    match stream.read(&mut [0u8; 64]) {
        Ok(n) => Ok(n == 0),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            Ok(false)
        }
        Err(e) => Err(e),
    }
}

/// The newest checkpoint strictly above `floor` that validates, leased
/// and fully read. `None` when the follower's floor already covers every
/// snapshot (the WAL tail alone suffices).
fn newest_checkpoint_above(source: &SyncSource, floor: u64) -> io::Result<Option<(u64, Vec<u8>)>> {
    // Re-list on each attempt: pruning may win the race between listing a
    // file and leasing it, in which case a newer snapshot exists.
    loop {
        let listed = list_checkpoints(&source.data_dir).map_err(wal_to_io)?;
        let mut candidates: Vec<(u64, PathBuf)> =
            listed.into_iter().filter(|(g, _)| *g > floor).collect();
        if candidates.is_empty() {
            return Ok(None);
        }
        let mut raced = false;
        while let Some((generation, path)) = candidates.pop() {
            let _lease = source.leases.acquire(generation);
            match std::fs::read(&path) {
                Ok(bytes) => {
                    // Validate before shipping: a corrupt snapshot (torn
                    // by a crashed writer) is skipped, same as recovery.
                    if decode_checkpoint(&bytes, &path).is_ok() {
                        return Ok(Some((generation, bytes)));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    // Pruned between list and lease; the directory has
                    // moved on — re-list rather than walk stale entries.
                    raced = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        if !raced {
            return Ok(None);
        }
    }
}

fn ship_checkpoint(
    out: &mut BufWriter<&TcpStream>,
    generation: u64,
    bytes: &[u8],
) -> io::Result<()> {
    let chunks = bytes.chunks(CHUNK_BYTES).count().max(1) as u64;
    send_line(out, &render_checkpoint(generation, chunks))?;
    if bytes.is_empty() {
        return send_line(out, &render_chunk(0, 1, b""));
    }
    for (index, chunk) in bytes.chunks(CHUNK_BYTES).enumerate() {
        send_line(out, &render_chunk(index as u64, chunks, chunk))?;
    }
    Ok(())
}

fn wal_to_io(e: sepra_wal::WalError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Serves one follower's sync stream until the connection drops, the
/// follower hangs up (noticed within one 25 ms tail poll, not at the next
/// failed write), or `shutdown` is raised. Every record one poll of the
/// log returns leaves in one flush, so a follower reading a backlog finds
/// it buffered as a run. `current_generation` reports the primary's
/// committed database generation for ping frames.
pub fn stream_to_follower(
    stream: &TcpStream,
    from_generation: u64,
    source: &SyncSource,
    shutdown: &AtomicBool,
    current_generation: &dyn Fn() -> u64,
) -> io::Result<()> {
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.set_read_timeout(Some(TAIL_POLL))?;
    // The follower never writes back, so there are no ACK-bearing
    // responses for Nagle to piggyback on: without nodelay each flushed
    // record can sit behind the follower's delayed ACK, inflating
    // replication lag by tens of milliseconds per record.
    stream.set_nodelay(true)?;
    let mut out = BufWriter::new(stream);
    // The opening ping tells the follower where the primary stands, so it
    // can report honest lag before the first byte of state arrives.
    send_line(&mut out, &render_ping(current_generation()))?;
    let mut last_ping = Instant::now();
    let mut floor = from_generation;
    'resync: loop {
        if let Some((generation, bytes)) = newest_checkpoint_above(source, floor)? {
            ship_checkpoint(&mut out, generation, &bytes)?;
            floor = generation;
        }
        let mut follower = WalFollower::new(&source.wal_path(), floor);
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let pre_floor = follower.floor();
            let poll = follower.poll().map_err(wal_to_io)?;
            // The gap check (discipline 2 above): a snapshot newer than
            // the pre-poll floor means the log may have been truncated
            // and regrown under this poll — the batch cannot be trusted
            // to be contiguous with what the follower has.
            let newest_ckpt = list_checkpoints(&source.data_dir)
                .map_err(wal_to_io)?
                .last()
                .map(|(g, _)| *g)
                .unwrap_or(0);
            if poll.rotated || newest_ckpt > pre_floor {
                floor = pre_floor;
                continue 'resync;
            }
            for record in &poll.records {
                write_line(&mut out, &render_record(record.generation, &record.payload))?;
            }
            if !poll.records.is_empty() {
                out.flush()?;
                last_ping = Instant::now();
            } else {
                if last_ping.elapsed() >= PING_EVERY {
                    send_line(&mut out, &render_ping(current_generation()))?;
                    last_ping = Instant::now();
                }
                if follower_hung_up(stream)? {
                    return Ok(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_wal::checkpoint::{checkpoint_file_name, prune_checkpoints, write_checkpoint_file};
    use std::path::Path;

    fn write_ckpt(dir: &Path, generation: u64, body: &[u8]) {
        write_checkpoint_file(&dir.join(checkpoint_file_name(generation)), generation, body)
            .unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sepra-feeder-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn picks_newest_valid_checkpoint_above_the_floor() {
        let dir = temp_dir("newest");
        write_ckpt(&dir, 10, b"ten");
        write_ckpt(&dir, 20, b"twenty");
        // A corrupt newer file is skipped, same as recovery would.
        std::fs::write(dir.join("ckpt-00000000000000000030.sepra"), b"garbage").unwrap();
        let source = SyncSource { data_dir: dir.clone(), leases: LeaseSet::new() };
        let (generation, bytes) = newest_checkpoint_above(&source, 5).unwrap().unwrap();
        assert_eq!(generation, 20);
        assert_eq!(decode_checkpoint(&bytes, Path::new("t")).unwrap(), (20, b"twenty".to_vec()));
        // A floor at or past the newest valid snapshot needs no shipping.
        assert!(newest_checkpoint_above(&source, 20).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shipping_holds_the_lease_that_pruning_honors() {
        let dir = temp_dir("lease");
        write_ckpt(&dir, 10, b"ten");
        let source = SyncSource { data_dir: dir.clone(), leases: LeaseSet::new() };
        let lease = source.leases.acquire(10);
        write_ckpt(&dir, 20, b"twenty");
        write_ckpt(&dir, 30, b"thirty");
        prune_checkpoints(&dir, 1, &source.leases).unwrap();
        let left: Vec<u64> = list_checkpoints(&dir).unwrap().into_iter().map(|(g, _)| g).collect();
        assert_eq!(left, vec![10, 30], "the leased snapshot must survive the roll");
        drop(lease);
        prune_checkpoints(&dir, 1, &source.leases).unwrap();
        let left: Vec<u64> = list_checkpoints(&dir).unwrap().into_iter().map(|(g, _)| g).collect();
        assert_eq!(left, vec![30]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
