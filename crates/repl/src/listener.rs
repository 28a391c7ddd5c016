//! What `sepra serve` and `sepra route` do with a socket, once: the
//! accept loop and worker hand-off ([`serve_connections`]), the framed
//! request/reply loop on one connection ([`serve_requests`]), and the
//! shutdown watcher ([`watch_shutdown`]).
//!
//! One thread accepts; a fixed pool of handler threads each take whole
//! connections off a condvar-guarded queue. Every wait ends on the event
//! it waits for: the accept loop blocks in `poll(2)` on the listening
//! socket, so a connection is handed over the moment it arrives, and idle
//! handlers sleep on the condvar until a connection or the close of the
//! queue wakes them. The one clock left is the poll's timeout: callers
//! raise `shutdown` with a bare store and notify nobody, so the accept
//! loop re-reads the flag (and runs the caller's `tick`) at least every
//! [`POLL_INTERVAL`]; it then closes the queue, which is what the
//! handlers hear. A handler that finds the flag up when its connection
//! ends does not leave the loop to its clock either: it wakes it.
//!
//! On a connection the protocol is one request line in, one reply line
//! out ([`crate::protocol`]). The loop that frames it is careful about
//! the things a peer can do to a thread that serves it: send a line that
//! never ends, send one slowly, send nothing, or stop reading.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::protocol::{render_error, Request};

/// Longest the accept loop goes without re-reading the shutdown flag.
pub const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Requests larger than this are rejected without parsing (the protocol is
/// one query per line; 64 KiB is far beyond any sensible query text).
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// How long a connection may sit idle between requests before its handler
/// reclaims itself, unless the caller says otherwise.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Reads on a connection wait in slices of this, so a handler parked on
/// an idle connection still notices shutdown promptly.
pub const READ_POLL: Duration = Duration::from_millis(200);

/// A peer that cannot absorb a reply for this long is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Default)]
struct Queue {
    streams: VecDeque<TcpStream>,
    /// Set once, under the lock, when accepting has ended: a handler that
    /// finds the queue empty and closed is done.
    closed: bool,
}

fn lock(queue: &Mutex<Queue>) -> MutexGuard<'_, Queue> {
    // The queue is a list of sockets and a flag, valid at every step.
    queue.lock().unwrap_or_else(|e| e.into_inner())
}

/// Accepts connections on `listener` until `shutdown` is raised, handing
/// each to one of `handlers` — every handler runs on its own thread
/// (named `NAME-i`) and serves one connection at a time. `tick` runs on
/// the accepting thread before each wait, at most [`POLL_INTERVAL`]
/// apart; it may raise `shutdown` itself, and a SIGINT or SIGTERM that
/// [`watch_shutdown`] asked for raises it here. Returns once the flag is
/// up and every handler has finished the connections already queued
/// (handlers are expected to watch the same flag and return promptly).
pub fn serve_connections<H>(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    thread_name: &str,
    handlers: Vec<H>,
    mut tick: impl FnMut(),
) -> io::Result<()>
where
    H: FnMut(TcpStream) + Send,
{
    listener.set_nonblocking(true)?;
    let wake = Wake::new()?;
    let queue = (Mutex::new(Queue::default()), Condvar::new());
    let close = || {
        lock(&queue.0).closed = true;
        queue.1.notify_all();
    };
    std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for (i, mut handler) in handlers.into_iter().enumerate() {
            let (queue, wake) = (&queue, &wake);
            let spawned = std::thread::Builder::new()
                .name(format!("{thread_name}-{i}"))
                .spawn_scoped(scope, move || loop {
                    let stream = {
                        let mut q = lock(&queue.0);
                        loop {
                            if let Some(stream) = q.streams.pop_front() {
                                break stream;
                            }
                            if q.closed {
                                return;
                            }
                            q = queue.1.wait(q).unwrap_or_else(|e| e.into_inner());
                        }
                    };
                    handler(stream);
                    if shutdown.load(Ordering::SeqCst) {
                        wake.wake();
                    }
                });
            match spawned {
                Ok(thread) => threads.push(thread),
                Err(e) => {
                    close();
                    return Err(e);
                }
            }
        }
        loop {
            tick();
            if signal::raised() {
                shutdown.store(true, Ordering::SeqCst);
            }
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            wake.wait_readable(listener, POLL_INTERVAL);
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        lock(&queue.0).streams.push_back(stream);
                        queue.1.notify_one();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        // Out of descriptors, or the peer reset before we
                        // got to it: the socket may stay readable, so do
                        // not spin on it.
                        std::thread::sleep(POLL_INTERVAL);
                        break;
                    }
                }
            }
        }
        close();
        for thread in threads {
            let _ = thread.join();
        }
        Ok(())
    })
}

/// What a handler makes of one request.
pub enum Reply {
    /// One reply line (no newline).
    Line(String),
    /// The handler keeps the connection: it is given the socket and the
    /// request loop ends without a reply. This is how a sync request
    /// turns a connection into a replication stream.
    TakeOver(Box<dyn FnOnce(TcpStream) + Send>),
}

/// Writes `line` plus its newline as ONE stream write: a trailing
/// newline in its own small write gets held by Nagle behind the peer's
/// delayed ACK, adding a flat ~40 ms per round trip.
pub fn write_line(mut stream: &TcpStream, line: &str) -> io::Result<()> {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    stream.write_all(framed.as_bytes())
}

/// Serves one connection: reads request lines, decodes each with
/// [`Request::parse`], answers a line that does not decode with
/// `bad_request` and hands every other to `handle` with its text, and
/// writes the reply — until the peer is done (EOF; a final unterminated
/// request is still answered), has been idle for `idle_timeout`, sends a
/// line over [`MAX_REQUEST_BYTES`], stops reading its replies, `shutdown`
/// is raised, or `handle` takes the connection over. Blank lines are
/// skipped.
pub fn serve_requests(
    stream: TcpStream,
    shutdown: &AtomicBool,
    idle_timeout: Duration,
    mut handle: impl FnMut(Request, &str) -> Reply,
) {
    // Short read timeouts so a handler parked on an idle connection
    // still notices shutdown within one poll interval; `idle` tracks the
    // cumulative wait so connections are still reclaimed.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // Replies are one small write each on a ping-pong connection:
    // without nodelay, Nagle + the peer's delayed ACK adds a flat
    // ~40 ms to every round trip.
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut idle = Duration::ZERO;
    let bad_request = |message: &str| render_error("bad_request", message);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // The cap counts the request line itself: filling it without a
        // newline means the client sent an oversized request. A timed-
        // out read leaves any partial line in `line` for the next poll.
        let remaining = (MAX_REQUEST_BYTES + 1).saturating_sub(line.len());
        if remaining == 0 {
            let message = format!("request exceeds {MAX_REQUEST_BYTES} bytes");
            let _ = write_line(&writer, &bad_request(&message));
            return;
        }
        let sofar = line.len();
        match (&mut reader).take(remaining as u64).read_until(b'\n', &mut line) {
            Ok(0) if line.is_empty() => return,        // EOF: client is done
            Ok(0) => {}                                // EOF with a final unterminated request
            Ok(_) if line.last() == Some(&b'\n') => {} // one complete request
            Ok(_) => {
                // Mid-line (take cap reached): progress was made, so
                // the connection is not idle.
                idle = Duration::ZERO;
                continue;
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                // A timed-out read may still have consumed partial
                // bytes into `line`; that is progress, and a slow
                // writer must not be reclaimed while still sending.
                if line.len() > sofar {
                    idle = Duration::ZERO;
                } else {
                    idle += READ_POLL;
                    if idle >= idle_timeout {
                        return;
                    }
                }
                continue;
            }
            Err(_) => return, // reset
        }
        idle = Duration::ZERO;
        let reply = match std::str::from_utf8(&line).map(str::trim) {
            Ok("") => {
                line.clear();
                continue;
            }
            Ok(text) => match Request::parse(text) {
                Ok(request) => handle(request, text),
                Err(message) => Reply::Line(bad_request(&message)),
            },
            Err(_) => Reply::Line(bad_request("request is not valid UTF-8")),
        };
        line.clear();
        match reply {
            Reply::Line(reply) => {
                if write_line(&writer, &reply).is_err() {
                    return;
                }
            }
            Reply::TakeOver(takes) => return takes(writer),
        }
    }
}

/// A shutdown flag that a `quit`/`shutdown`/`exit` line on stdin raises
/// and, through [`serve_connections`], SIGINT or SIGTERM. Stdin is
/// watched on a detached thread; EOF stops the watcher without stopping
/// the process (so a backgrounded server with a closed stdin keeps
/// running; use the signals there).
pub fn watch_shutdown() -> Arc<AtomicBool> {
    signal::install();
    let shutdown = Arc::new(AtomicBool::new(false));
    let raised = Arc::clone(&shutdown);
    let _ = std::thread::Builder::new().name("sepra-stdin".into()).spawn(move || {
        let mut lines = io::stdin().lines().map_while(Result::ok);
        if lines.any(|line| matches!(line.trim(), "quit" | "shutdown" | "exit")) {
            raised.store(true, Ordering::SeqCst);
        }
    });
    shutdown
}

/// SIGINT/SIGTERM handling without a libc dependency: a hand-rolled
/// binding to `signal(2)` flips a process-global flag the accept loop
/// polls. Non-Unix builds compile the polling to a constant `false`.
#[cfg(unix)]
mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static RAISED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        RAISED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub(super) fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        // SAFETY: `signal(2)` takes a signal number and the address of an
        // `extern "C" fn(i32)`, which `handler` is; the handler only
        // stores to an atomic, which is async-signal-safe.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub(super) fn raised() -> bool {
        RAISED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signal {
    pub(super) fn install() {}

    pub(super) fn raised() -> bool {
        false
    }
}

/// What the accept loop sleeps on besides its listener: one end of a
/// socket pair a handler writes to when the loop should look up.
#[cfg(unix)]
struct Wake {
    rx: std::os::unix::net::UnixStream,
    tx: std::os::unix::net::UnixStream,
}

#[cfg(unix)]
impl Wake {
    fn new() -> io::Result<Wake> {
        let (rx, tx) = std::os::unix::net::UnixStream::pair()?;
        // Never read, so a full buffer must not park the writer: by then
        // the loop has long been told.
        tx.set_nonblocking(true)?;
        Ok(Wake { rx, tx })
    }

    /// Ends the current wait, or the next one, at once.
    fn wake(&self) {
        let _ = io::Write::write(&mut &self.tx, &[1]);
    }

    /// Blocks until `listener` has a connection to accept, [`wake`] is
    /// called, or `timeout` elapses, whichever is first. A signal also
    /// ends the wait early, which is what lets SIGINT/SIGTERM be noticed
    /// at once.
    ///
    /// [`wake`]: Wake::wake
    fn wait_readable(&self, listener: &TcpListener, timeout: Duration) {
        use std::os::fd::AsRawFd;

        /// `struct pollfd` of `poll(2)`.
        #[repr(C)]
        struct PollFd {
            fd: i32,
            events: i16,
            revents: i16,
        }
        const POLLIN: i16 = 0x001;
        #[cfg(target_os = "linux")]
        type NFds = std::os::raw::c_ulong;
        #[cfg(not(target_os = "linux"))]
        type NFds = std::os::raw::c_uint;

        extern "C" {
            fn poll(fds: *mut PollFd, nfds: NFds, timeout_ms: i32) -> i32;
        }

        let mut fds = [listener.as_raw_fd(), self.rx.as_raw_fd()].map(|fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        });
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: `fds` is an exclusively borrowed array of two valid
        // `pollfd`s and `nfds` is 2, so the kernel reads and writes exactly
        // that array; both descriptors stay open for the call because
        // their owners are borrowed. The result is not needed: ready,
        // woken, timed out or interrupted, the caller tries a non-blocking
        // accept and re-reads its flag.
        let _ = unsafe { poll(fds.as_mut_ptr(), 2, timeout_ms) };
    }
}

/// Without `poll(2)` the wait is a sleep: connections are picked up, and
/// the flag re-read, at the next tick.
#[cfg(not(unix))]
struct Wake;

#[cfg(not(unix))]
impl Wake {
    fn new() -> io::Result<Wake> {
        Ok(Wake)
    }

    fn wake(&self) {}

    fn wait_readable(&self, _listener: &TcpListener, timeout: Duration) {
        std::thread::sleep(timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::time::Instant;

    /// An echo pool on an ephemeral port, and the thread running it.
    fn echo_pool(
        shutdown: &'static AtomicBool,
        handlers: usize,
    ) -> (String, std::thread::JoinHandle<io::Result<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let echo = |stream: TcpStream| {
            let mut line = String::new();
            if BufReader::new(&stream).read_line(&mut line).is_ok() {
                let _ = (&stream).write_all(line.as_bytes());
            }
        };
        let pool = std::thread::spawn(move || {
            serve_connections(&listener, shutdown, "echo", vec![echo; handlers], || {})
        });
        (addr, pool)
    }

    fn round_trip(addr: &str) -> Duration {
        let start = Instant::now();
        let stream = TcpStream::connect(addr).unwrap();
        (&stream).write_all(b"hello\n").unwrap();
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).unwrap();
        assert_eq!(line, "hello\n");
        start.elapsed()
    }

    #[test]
    fn a_connection_is_handed_over_when_it_arrives_not_at_the_next_tick() {
        static SHUTDOWN: AtomicBool = AtomicBool::new(false);
        let (addr, pool) = echo_pool(&SHUTDOWN, 2);
        let mut trips: Vec<Duration> = (0..20).map(|_| round_trip(&addr)).collect();
        trips.sort();
        // A sleeping accept loop puts half a POLL_INTERVAL on the median
        // and a whole one on the slowest; an event-driven one puts neither.
        assert!(trips[10] < POLL_INTERVAL / 5, "median first reply {:?}", trips[10]);
        SHUTDOWN.store(true, Ordering::SeqCst);
        pool.join().unwrap().unwrap();
    }

    #[test]
    fn a_bare_store_to_the_flag_ends_the_pool_with_nobody_notified() {
        static SHUTDOWN: AtomicBool = AtomicBool::new(false);
        let (_addr, pool) = echo_pool(&SHUTDOWN, 3);
        std::thread::sleep(POLL_INTERVAL * 2); // let it reach its wait
        let raised = Instant::now();
        SHUTDOWN.store(true, Ordering::SeqCst);
        pool.join().unwrap().unwrap();
        assert!(raised.elapsed() < POLL_INTERVAL * 10, "took {:?}", raised.elapsed());
    }
}
