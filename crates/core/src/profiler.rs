//! The parallel profiling worker pool.
//!
//! Hill-climb profiling is embarrassingly parallel: every `(kind, shape)`
//! key is an independent set of standalone measurements, and with per-key
//! seeded measurers (`Measurer::fork_for_key`) the curve a key yields is a
//! pure function of the key — not of which worker climbed it or in what
//! order. [`ProfilerPool`] exploits that: it shards a task list
//! across `std::thread` workers through a shared atomic cursor (so slow keys
//! don't serialize behind fast ones) and returns the results **in task
//! order**, which is all the merge step needs to stay byte-identical to the
//! sequential path.
//!
//! A pool of one worker never spawns a thread: it runs the task list inline
//! on the caller's thread, the exact legacy code path.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-width worker pool for profiling tasks. Cheap to construct (no
/// threads live between [`ProfilerPool::run`] calls; workers are scoped to
/// one fit), so callers create one per profiling phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfilerPool {
    threads: usize,
}

impl Default for ProfilerPool {
    fn default() -> Self {
        Self::serial()
    }
}

impl ProfilerPool {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ProfilerPool {
            threads: threads.max(1),
        }
    }

    /// The sequential pool: one worker, no thread spawns — the exact legacy
    /// profiling path.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// A pool sized to the host: one worker per available hardware thread
    /// (1 when the host cannot say).
    pub fn available() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(i)` for every `i in 0..n` and returns the results indexed
    /// by `i` — identical output for every worker count, as long as `task`
    /// itself is a pure function of `i`. Tasks are claimed dynamically from
    /// a shared cursor, so uneven task costs still balance. A worker panic
    /// propagates to the caller.
    pub fn run<T, F>(&self, n: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(task).collect();
        }
        let cursor = AtomicUsize::new(0);
        let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, task(i)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("profiler worker panicked"))
                .collect()
        });
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, value) in parts.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "task {i} claimed twice");
            slots[i] = Some(value);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("task {i} never ran")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order_for_any_width() {
        for threads in [1usize, 2, 3, 8, 64] {
            let pool = ProfilerPool::new(threads);
            let out = pool.run(37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_tasks_and_zero_threads_are_fine() {
        assert_eq!(ProfilerPool::new(0).threads(), 1);
        let out: Vec<usize> = ProfilerPool::new(4).run(0, |i| i);
        assert!(out.is_empty());
        assert_eq!(ProfilerPool::serial().run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn available_pool_has_at_least_one_worker() {
        assert!(ProfilerPool::available().threads() >= 1);
        assert_eq!(ProfilerPool::default(), ProfilerPool::serial());
    }
}
