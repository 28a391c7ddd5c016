//! Applied-generation waiting: the primitive behind generation-consistent
//! reads on replicas.
//!
//! A replica applies the primary's WAL stream on one thread while query
//! workers serve reads on others. A client that just mutated through the
//! primary (and got its `generation` stamp back) can ask a replica to
//! answer `{"query": ..., "min_generation": G}` — "don't answer from a
//! state older than my write". The worker parks on [`GenerationGate::
//! wait_for`] until the applier publishes a generation ≥ G or the
//! request's deadline budget runs out; the publish side is one
//! `lock + max + notify_all`, cheap enough to run per applied record.
//! The gate is also the server's one *published* generation: every
//! request compares its snapshot with [`GenerationGate::current`], which
//! is why that is an atomic read and not a lock.
//!
//! The gate is monotonic by construction (`publish` keeps the max), so a
//! late or duplicated publish can never move the visible generation
//! backwards — matching the WAL's own monotone generation stamps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A monotonically increasing published generation that threads can wait
/// on. Clones share the same gate.
#[derive(Debug, Clone, Default)]
pub struct GenerationGate {
    inner: Arc<Inner>,
}

/// The published value is an atomic so that [`GenerationGate::current`],
/// which every server request calls, takes no lock. It is only stored to
/// with `waiters` held, and a waiter re-reads it with `waiters` held
/// before it sleeps, so a publish cannot fall between a waiter's check
/// and its wait.
#[derive(Debug, Default)]
struct Inner {
    published: AtomicU64,
    waiters: Mutex<()>,
    advanced: Condvar,
}

impl GenerationGate {
    /// A gate at generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently published generation.
    pub fn current(&self) -> u64 {
        self.inner.published.load(Ordering::SeqCst)
    }

    /// Publishes `generation`, waking every waiter. Monotonic: publishing
    /// less than the current value is a no-op, so replays and races
    /// cannot regress the gate.
    pub fn publish(&self, generation: u64) {
        let _waiters = self.inner.waiters.lock().unwrap_or_else(|e| e.into_inner());
        if generation > self.current() {
            self.inner.published.store(generation, Ordering::SeqCst);
            self.inner.advanced.notify_all();
        }
    }

    /// Blocks until the published generation reaches `generation` or
    /// `timeout` elapses. Returns the published generation at return
    /// time; the caller checks whether it made the target (a replica
    /// answers `deadline` with its honest generation either way).
    pub fn wait_for(&self, generation: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut waiters = self.inner.waiters.lock().unwrap_or_else(|e| e.into_inner());
        while self.current() < generation {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .inner
                .advanced
                .wait_timeout(waiters, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            waiters = guard;
        }
        self.current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_is_monotonic_and_wakes_waiters() {
        let gate = GenerationGate::new();
        assert_eq!(gate.current(), 0);
        gate.publish(5);
        gate.publish(3); // regression attempt: ignored
        assert_eq!(gate.current(), 5);

        let waiter_gate = gate.clone();
        let waiter = std::thread::spawn(move || waiter_gate.wait_for(10, Duration::from_secs(5)));
        // Give the waiter a moment to park, then release it.
        std::thread::sleep(Duration::from_millis(20));
        gate.publish(12);
        assert_eq!(waiter.join().unwrap(), 12);
    }

    #[test]
    fn wait_for_times_out_with_the_honest_generation() {
        let gate = GenerationGate::new();
        gate.publish(4);
        let start = Instant::now();
        let reached = gate.wait_for(10, Duration::from_millis(50));
        assert_eq!(reached, 4, "timeout reports where the gate actually is");
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn wait_for_returns_immediately_when_already_satisfied() {
        let gate = GenerationGate::new();
        gate.publish(7);
        let start = Instant::now();
        assert_eq!(gate.wait_for(7, Duration::from_secs(5)), 7);
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
