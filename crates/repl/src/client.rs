//! The follower side of a sync stream: connect to the primary, drive the
//! frame protocol, and yield validated events.
//!
//! The client owns all wire-level suspicion so the server's replica loop
//! only ever sees whole, checksummed units: a [`SyncEvent::Checkpoint`]
//! is a fully reassembled, container-validated snapshot body (the same
//! bytes recovery would read from disk), and a [`SyncEvent::Record`] has
//! already passed the WAL's own `crc32(generation ‖ payload)`. Any
//! malformed frame, short read, or chunk-sequence violation surfaces as
//! an `io::Error`; the caller's answer to every error is the same —
//! reconnect and resync from its current generation, which is always safe
//! because application is idempotent at generation granularity.

use std::io::{self, BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::time::Duration;

use sepra_wal::checkpoint::decode_checkpoint;

use crate::listener::write_line;
use crate::protocol::{parse_frame, Frame, Request};

const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Pings arrive every second on a quiet stream; ten silent seconds means
/// the primary is gone.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// What one read can take off the socket: a backlog the primary flushed
/// in one piece is buffered whole, so [`SyncClient::frame_buffered`] sees
/// to its end.
const READ_BUFFER: usize = 64 * 1024;

/// One validated unit of the sync stream.
#[derive(Debug, PartialEq)]
pub enum SyncEvent {
    /// A whole snapshot at `generation`; `body` is the decoded checkpoint
    /// body (an encoded database frame), container CRC already checked.
    Checkpoint {
        /// The snapshot's generation stamp.
        generation: u64,
        /// The checkpoint body (codec database frame).
        body: Vec<u8>,
    },
    /// One committed mutation's encoded `EdbDelta`, CRC-verified.
    Record {
        /// The database generation the record's commit reached.
        generation: u64,
        /// The encoded delta frame, byte-identical to the primary's WAL.
        payload: Vec<u8>,
    },
    /// Liveness: the primary's current committed generation.
    Ping {
        /// The primary's committed database generation.
        generation: u64,
    },
}

/// A live sync connection to a primary.
#[derive(Debug)]
pub struct SyncClient {
    reader: BufReader<TcpStream>,
}

fn bad_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Dials the server at `addr` (`HOST:PORT`), trying each address it
/// resolves to in turn and giving each `connect_timeout`; reads and writes
/// on the connection give up after `io_timeout`. Lines are written whole
/// ([`write_line`]), so Nagle is off. The sync client, the router and
/// `sepra client` all connect through here.
pub fn connect(
    addr: &str,
    connect_timeout: Duration,
    io_timeout: Duration,
) -> io::Result<TcpStream> {
    let mut failed = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, connect_timeout) {
            Ok(stream) => {
                stream.set_read_timeout(Some(io_timeout))?;
                stream.set_write_timeout(Some(io_timeout))?;
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            Err(e) => failed = Some(e),
        }
    }
    Err(failed.unwrap_or_else(|| bad_data(format!("{addr} resolved to no address"))))
}

impl SyncClient {
    /// Connects to `addr` and requests the stream from `from_generation`
    /// (the follower's current generation; 0 for an empty follower).
    pub fn connect(addr: &str, from_generation: u64) -> io::Result<SyncClient> {
        let stream = connect(addr, CONNECT_TIMEOUT, READ_TIMEOUT)?;
        write_line(&stream, &Request::Sync { from_generation }.render())?;
        Ok(SyncClient { reader: BufReader::with_capacity(READ_BUFFER, stream) })
    }

    /// Whether a whole frame has already arrived, so that the next
    /// [`next_event`](Self::next_event) starts without waiting on the
    /// socket. (A checkpoint announcement may still wait for its chunks.)
    pub fn frame_buffered(&self) -> bool {
        self.reader.buffer().contains(&b'\n')
    }

    /// A second handle on the connection. Shutting it down
    /// ([`TcpStream::shutdown`]) from another thread makes a blocked
    /// `next_event` return at once with an error.
    pub fn try_clone_stream(&self) -> io::Result<TcpStream> {
        self.reader.get_ref().try_clone()
    }

    fn next_frame(&mut self) -> io::Result<Frame> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "sync stream closed"));
        }
        parse_frame(line.trim_end()).map_err(bad_data)
    }

    /// The next validated event. Blocks until a frame arrives (bounded by
    /// the read timeout — a healthy primary pings at least every second).
    pub fn next_event(&mut self) -> io::Result<SyncEvent> {
        match self.next_frame()? {
            Frame::Ping { generation } => Ok(SyncEvent::Ping { generation }),
            Frame::Record { generation, payload } => Ok(SyncEvent::Record { generation, payload }),
            Frame::Error { kind, message } => {
                Err(io::Error::other(format!("primary refused sync: {kind}: {message}")))
            }
            Frame::Chunk { .. } => Err(bad_data("chunk frame outside a checkpoint announcement")),
            Frame::Checkpoint { generation, chunks } => {
                let mut bytes = Vec::new();
                for expect in 0..chunks {
                    match self.next_frame()? {
                        Frame::Chunk { index, of, data } if index == expect && of == chunks => {
                            bytes.extend_from_slice(&data);
                        }
                        other => {
                            return Err(bad_data(format!(
                                "expected chunk {expect}/{chunks} of checkpoint {generation}, \
                                 got {other:?}"
                            )))
                        }
                    }
                }
                let (stamped, body) = decode_checkpoint(&bytes, Path::new("sync-stream"))
                    .map_err(|e| bad_data(format!("streamed checkpoint invalid: {e}")))?;
                if stamped != generation {
                    return Err(bad_data(format!(
                        "checkpoint announced generation {generation} but its header says \
                         {stamped}"
                    )));
                }
                Ok(SyncEvent::Checkpoint { generation, body })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feeder::{stream_to_follower, SyncSource};
    use crate::protocol::{
        render_checkpoint, render_chunk, render_error, render_ping, render_record,
    };
    use sepra_wal::checkpoint::{checkpoint_file_name, encode_checkpoint, write_checkpoint_file};
    use sepra_wal::log::WalWriter;
    use sepra_wal::{FsyncPolicy, LeaseSet};
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Spawns a raw byte server that speaks exactly `lines`, returning
    /// its address.
    fn scripted_primary(lines: Vec<String>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut request = String::new();
            reader.read_line(&mut request).unwrap();
            for line in lines {
                (&stream).write_all(line.as_bytes()).unwrap();
                (&stream).write_all(b"\n").unwrap();
            }
            // Hold the connection open briefly so the client reads
            // everything before EOF.
            std::thread::sleep(Duration::from_millis(200));
        });
        addr
    }

    #[test]
    fn assembles_checkpoints_and_verifies_records() {
        let file = encode_checkpoint(7, b"snapshot body");
        let (a, b) = file.split_at(file.len() / 2);
        let addr = scripted_primary(vec![
            render_ping(9),
            render_checkpoint(7, 2),
            render_chunk(0, 2, a),
            render_chunk(1, 2, b),
            render_record(8, b"delta"),
        ]);
        let mut client = SyncClient::connect(&addr, 0).unwrap();
        assert_eq!(client.next_event().unwrap(), SyncEvent::Ping { generation: 9 });
        assert_eq!(
            client.next_event().unwrap(),
            SyncEvent::Checkpoint { generation: 7, body: b"snapshot body".to_vec() }
        );
        assert_eq!(
            client.next_event().unwrap(),
            SyncEvent::Record { generation: 8, payload: b"delta".to_vec() }
        );
    }

    #[test]
    fn rejects_out_of_order_chunks_and_mislabeled_checkpoints() {
        let file = encode_checkpoint(7, b"snapshot body");
        let addr = scripted_primary(vec![
            render_checkpoint(7, 2),
            render_chunk(1, 2, &file), // wrong index
        ]);
        let mut client = SyncClient::connect(&addr, 0).unwrap();
        assert!(client.next_event().is_err());

        let addr = scripted_primary(vec![
            render_checkpoint(99, 1), // header says 7
            render_chunk(0, 1, &file),
        ]);
        let mut client = SyncClient::connect(&addr, 0).unwrap();
        assert!(client.next_event().unwrap_err().to_string().contains("header says"));
    }

    #[test]
    fn surfaces_error_frames_as_errors() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut request = String::new();
            reader.read_line(&mut request).unwrap();
            let refusal = render_error("sync_unavailable", "serve has no --data-dir");
            write_line(&stream, &refusal).unwrap();
            std::thread::sleep(Duration::from_millis(200));
        });
        let mut client = SyncClient::connect(&addr, 0).unwrap();
        let err = client.next_event().unwrap_err().to_string();
        assert!(err.contains("sync_unavailable"), "{err}");
    }

    #[test]
    fn says_whether_the_next_frame_has_already_arrived() {
        let addr = scripted_primary(vec![
            render_record(1, b"one"),
            render_ping(3),
            render_record(2, b"two"),
            render_record(3, b"three"),
        ]);
        let mut client = SyncClient::connect(&addr, 0).unwrap();
        // Let the whole script land, so the first read takes all of it.
        std::thread::sleep(Duration::from_millis(100));
        for (generation, more) in [(1, true), (3, true), (2, true), (3, false)] {
            let event = client.next_event().unwrap();
            assert!(
                matches!(event, SyncEvent::Record { generation: g, .. } | SyncEvent::Ping { generation: g } if g == generation),
                "{event:?}"
            );
            assert_eq!(client.frame_buffered(), more, "after {event:?}");
        }
    }

    #[test]
    fn a_corrupt_record_is_an_error_after_the_intact_ones() {
        let bad = render_record(2, b"two").replace("dHdv", "dHdw"); // "two" -> "twp"
        assert_ne!(bad, render_record(2, b"two"));
        let addr =
            scripted_primary(vec![render_record(1, b"one"), bad, render_record(3, b"three")]);
        let mut client = SyncClient::connect(&addr, 0).unwrap();
        assert_eq!(
            client.next_event().unwrap(),
            SyncEvent::Record { generation: 1, payload: b"one".to_vec() }
        );
        assert!(client.next_event().is_err());
    }

    /// End-to-end over a real socket: a feeder serving a real data
    /// directory (checkpoint + WAL tail) delivers exactly the snapshot
    /// and the post-snapshot records, in order.
    #[test]
    fn feeder_to_client_round_trip() {
        let dir = std::env::temp_dir().join(format!("sepra-sync-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_checkpoint_file(&dir.join(checkpoint_file_name(5)), 5, b"state at five").unwrap();
        let mut writer = WalWriter::open(&dir.join("wal.log"), FsyncPolicy::Never).unwrap();
        writer.append(6, b"delta six").unwrap();
        writer.append(9, b"delta nine").unwrap();
        drop(writer);

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let source = SyncSource { data_dir: dir.clone(), leases: LeaseSet::new() };
        let shutdown = Arc::new(AtomicBool::new(false));
        let feeder_shutdown = Arc::clone(&shutdown);
        let feeder = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut request = String::new();
            reader.read_line(&mut request).unwrap();
            // The real server parses the request line; here the script is
            // fixed: stream from generation 0.
            let _ = stream_to_follower(&stream, 0, &source, &feeder_shutdown, &|| 9);
        });

        let mut client = SyncClient::connect(&addr, 0).unwrap();
        assert_eq!(client.next_event().unwrap(), SyncEvent::Ping { generation: 9 });
        assert_eq!(
            client.next_event().unwrap(),
            SyncEvent::Checkpoint { generation: 5, body: b"state at five".to_vec() }
        );
        assert_eq!(
            client.next_event().unwrap(),
            SyncEvent::Record { generation: 6, payload: b"delta six".to_vec() }
        );
        assert_eq!(
            client.next_event().unwrap(),
            SyncEvent::Record { generation: 9, payload: b"delta nine".to_vec() }
        );
        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        feeder.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The records one poll of the log returns leave in one flush (the
    /// follower finds them buffered as a run), and the feeder returns when
    /// the follower hangs up — not at its next ping a second later.
    #[test]
    fn a_backlog_arrives_as_a_run_and_a_hang_up_ends_the_feeder() {
        let dir = std::env::temp_dir().join(format!("sepra-sync-run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut writer = WalWriter::open(&dir.join("wal.log"), FsyncPolicy::Never).unwrap();
        for generation in 1..=40 {
            writer.append(generation, format!("delta {generation}").as_bytes()).unwrap();
        }
        drop(writer);

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let source = SyncSource { data_dir: dir.clone(), leases: LeaseSet::new() };
        let feeder = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(&stream).read_line(&mut request).unwrap();
            let idle = AtomicBool::new(false);
            stream_to_follower(&stream, 0, &source, &idle, &|| 40)
        });

        let mut client = SyncClient::connect(&addr, 0).unwrap();
        assert_eq!(client.next_event().unwrap(), SyncEvent::Ping { generation: 40 });
        let mut run = 0;
        loop {
            assert!(matches!(client.next_event().unwrap(), SyncEvent::Record { .. }));
            run += 1;
            if !client.frame_buffered() {
                break;
            }
        }
        assert_eq!(run, 40, "the backlog was flushed as one piece");
        let hung_up = std::time::Instant::now();
        drop(client);
        feeder.join().unwrap().unwrap();
        assert!(hung_up.elapsed() < Duration::from_millis(200), "took {:?}", hung_up.elapsed());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
