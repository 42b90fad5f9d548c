//! The workspace's one worker pool: an ordered parallel map.
//!
//! A thread spawn costs ~50 µs here, so a pool is only worth entering
//! when every extra worker has at least that much work waiting for it.
//! Each call site states that as `grain` — the number of items that pay
//! for one spawn at its measured per-item cost — and [`par_map`] spawns
//! nothing for a batch that cannot fill a second worker's first run.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `0..len` on up to `threads` workers and returns the
/// results in index order.
///
/// Workers claim runs of `grain` consecutive indices from one shared
/// cursor. The caller is worker 0, so N workers spawn N−1 threads, and
/// `workers = min(threads, len / grain).max(1)`: below `2 * grain` items
/// (or at `threads <= 1`) every item runs on the calling thread. `f`
/// runs exactly once per index. A panic in `f` resumes on the caller
/// with its original payload once the other workers have finished.
pub fn par_map<T, F>(len: usize, threads: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let grain = grain.max(1);
    let workers = threads.min(len / grain).max(1);
    if workers == 1 {
        return (0..len).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut runs: Vec<(usize, Vec<T>)> = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices; joining a
            // worker is what publishes its results.
            let start = cursor.fetch_add(grain, Ordering::Relaxed);
            if start >= len {
                return runs;
            }
            let end = (start + grain).min(len);
            runs.push((start, (start..end).map(&f).collect()));
        }
    };
    let mut runs = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut runs = work();
        for handle in spawned {
            match handle.join() {
                Ok(theirs) => runs.extend(theirs),
                // The scope joins the remaining workers before this
                // unwinds past it.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        runs
    });
    runs.sort_unstable_by_key(|&(start, _)| start);
    runs.into_iter().flat_map(|(_, run)| run).collect()
}
