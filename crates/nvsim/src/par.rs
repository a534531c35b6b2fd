//! Ordered fan-out of independent tasks over worker threads.
//!
//! Callers that run many independent, deterministic jobs (the
//! experiment matrix in `nvbench`, the crash-site checks in `nvchaos`)
//! share this one work queue, so their outputs stay byte-identical to
//! a serial loop whatever the worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `task(0..n)` across `jobs` worker threads and returns the
/// results **in index order** — byte-identical to the serial loop
/// `(0..n).map(task).collect()`.
///
/// The queue is a single atomic cursor: workers claim the next index
/// until the range is exhausted. With `jobs <= 1` (or `n <= 1`) no
/// threads are spawned at all.
///
/// # Panics
/// Propagates a panic from any task after all workers stop.
pub fn run_ordered<T, F>(n: usize, jobs: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n).map(task).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = task(i);
                *slots[i].lock().expect("result slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot")
                .expect("every index was claimed and completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_ordered_preserves_submission_order() {
        for jobs in [1, 2, 8] {
            let out = run_ordered(100, jobs, |i| i * 3);
            assert_eq!(
                out,
                (0..100).map(|i| i * 3).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn run_ordered_handles_empty_and_single() {
        assert_eq!(run_ordered(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_ordered(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn run_ordered_uses_fewer_workers_than_tasks() {
        let out = run_ordered(3, 64, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }
}
