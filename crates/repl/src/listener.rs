//! The accept loop and worker hand-off behind both `sepra serve` and
//! `sepra route`.
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

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Longest the accept loop goes without re-reading the shutdown flag.
pub const POLL_INTERVAL: Duration = Duration::from_millis(25);

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
/// apart; it may raise `shutdown` itself. Returns once the flag is up and
/// every handler has finished the connections already queued (handlers
/// are expected to watch the same flag and return promptly).
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
