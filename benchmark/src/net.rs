//! In-process servers and the client side of the wire: the same
//! `sepra_server::server::run` loop the `sepra serve` binary runs, on a
//! loopback socket, driven over real TCP.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::layers::{engine, server};
use sepra_server::{CheckpointFormat, DurabilityOptions};
use sepra_wal::FsyncPolicy;

/// The box has two cores: servers run two workers, and no workload keeps
/// more than two connections busy.
pub const SERVER_THREADS: usize = 2;

/// What kind of server a [`Node`] is.
#[derive(Debug, Clone)]
pub enum Role {
    /// No data directory: mutations live in memory only.
    Ephemeral,
    /// A durable primary over `dir`.
    Durable { dir: PathBuf, fsync: FsyncPolicy, checkpoint_every: u64 },
    /// A read replica of the primary at `primary`.
    Replica { primary: String },
}

impl Role {
    pub fn durability(&self) -> Option<DurabilityOptions> {
        match self {
            Role::Durable { dir, fsync, checkpoint_every } => Some(DurabilityOptions {
                data_dir: dir.clone(),
                fsync: *fsync,
                checkpoint_every: *checkpoint_every,
                checkpoint_format: CheckpointFormat::V2,
            }),
            Role::Ephemeral | Role::Replica { .. } => None,
        }
    }
}

/// A server running on its own thread.
pub struct Node {
    pub addr: String,
    shutdown: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Result<(), String>>,
}

impl Node {
    /// Loads `source`, passes the lint gate, recovers the data directory
    /// if the role has one, prepares, binds an ephemeral port and starts
    /// serving — what `sepra serve` does before it prints its banner.
    pub fn start(source: &str, role: &Role) -> Result<Node, String> {
        let mut qp = engine::load(source)?;
        server::lint_gate(&qp)?;
        let opts = server::options(role);
        let durability = match &opts.durability {
            Some(d) => Some(server::recover(&mut qp, d)?),
            None => None,
        };
        engine::prepare(&mut qp)?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("local addr: {e}"))?.to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("bench-node".into())
            .spawn(move || server::run(listener, qp, &opts, flag, durability))
            .map_err(|e| format!("spawn: {e}"))?;
        Ok(Node { addr, shutdown, handle })
    }

    /// Raises the shutdown flag without waiting. A replica's applier only
    /// notices at its next stream frame (the primary pings once a second),
    /// so the replication workload signals here and joins at the end.
    pub fn signal_stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Stops the server and waits for every one of its threads. Close the
    /// client connections first: a worker parked on an open connection
    /// only looks at the flag between read polls.
    pub fn stop(self) -> Result<(), String> {
        self.signal_stop();
        self.handle.join().map_err(|_| "server thread panicked".to_string())?
    }
}

/// One client connection speaking the line-delimited JSON protocol.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        // Ping-pong with small frames: without nodelay, Nagle and the
        // peer's delayed ACK put a flat ~40 ms on every round trip.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::with_capacity(
            256 * 1024,
            stream.try_clone().map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Conn { stream, reader })
    }

    /// Sends one request line and reads one reply line into `reply`
    /// (cleared first). Returns the round-trip time: the closed-loop op.
    pub fn request(&mut self, framed: &str, reply: &mut String) -> Result<Duration, String> {
        debug_assert!(framed.ends_with('\n'));
        reply.clear();
        let start = Instant::now();
        self.stream.write_all(framed.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let n = self.reader.read_line(reply).map_err(|e| format!("receive: {e}"))?;
        let elapsed = start.elapsed();
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok(elapsed)
    }
}

/// The unsigned integer after `"key":` in a compact reply line, without
/// parsing the whole line (a reply can carry a thousand answer rows).
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = &line[line.rfind(&needle)? + needle.len()..];
    let digits: &str = &rest[..rest.bytes().take_while(u8::is_ascii_digit).count()];
    digits.parse().ok()
}

/// A fresh directory under `benchmark/out/` for one server's data.
pub fn fresh_dir(run_dir: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = run_dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_scanner_reads_the_last_occurrence() {
        let line = r#"{"answers":[["a"]],"count":1,"generation":42,"stats":{"tuples_inserted":7}}"#;
        assert_eq!(field_u64(line, "count"), Some(1));
        assert_eq!(field_u64(line, "generation"), Some(42));
        assert_eq!(field_u64(line, "tuples_inserted"), Some(7));
        assert_eq!(field_u64(line, "missing"), None);
    }
}
