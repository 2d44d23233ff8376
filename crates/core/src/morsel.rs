//! The worker driver: Section 5.2's dynamic chunks of start vertices.
//!
//! Section 5.2 of the paper parallelizes TurboHOM++ in one sentence: "we
//! assign a small chunk of the starting data vertices to threads
//! dynamically". [`drive`] is the one place that does so: with one thread it
//! runs a single [`Worker`] on the calling thread, otherwise it spawns scoped
//! workers that advance one shared cursor by a chunk at a time. The items are
//! therefore claimed in index order across the whole pool.

use std::sync::atomic::{AtomicUsize, Ordering};

/// One worker of a [`drive`] run: the state it accumulates and its per-item
/// step.
pub trait Worker: Send {
    /// Processes item `index`; returning `false` retires this worker.
    fn run(&mut self, index: usize) -> bool;

    /// Told about every chunk the worker claims from the shared cursor
    /// (never called when the run is inline).
    fn claimed(&mut self) {}
}

/// Runs the items `0..total` through `threads` workers and returns them in
/// worker order. With `threads <= 1` the single worker runs on the calling
/// thread over the items in index order — nothing is spawned; otherwise
/// every scoped thread builds its worker with `new_worker` and claims the
/// next chunk of at most 16 items until the items run out or its worker
/// retires.
pub fn drive<W: Worker>(total: usize, threads: usize, new_worker: impl Fn() -> W + Sync) -> Vec<W> {
    if threads <= 1 {
        let mut worker = new_worker();
        let _ = (0..total).all(|index| worker.run(index));
        return vec![worker];
    }
    // About 16 claims a worker, and never a run long enough to leave the
    // others idle behind it.
    let chunk = (total / (threads * 16)).clamp(1, 16);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut worker = new_worker();
                    loop {
                        // Relaxed: the cursor publishes no data; the items
                        // were in place before the workers were spawned.
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= total {
                            break;
                        }
                        worker.claimed();
                        let end = (start + chunk).min(total);
                        if !(start..end).all(|index| worker.run(index)) {
                            break;
                        }
                    }
                    worker
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records what the driver told it; retires at `stop_at`.
    struct Recorder {
        seen: Vec<usize>,
        claims: usize,
        stop_at: Option<usize>,
    }

    impl Worker for Recorder {
        fn run(&mut self, index: usize) -> bool {
            self.seen.push(index);
            self.stop_at != Some(index)
        }

        fn claimed(&mut self) {
            self.claims += 1;
        }
    }

    fn recorder(stop_at: Option<usize>) -> impl Fn() -> Recorder + Sync {
        move || Recorder {
            seen: Vec::new(),
            claims: 0,
            stop_at,
        }
    }

    fn sorted_items(workers: &[Recorder]) -> Vec<usize> {
        let mut all: Vec<usize> = workers.iter().flat_map(|w| w.seen.clone()).collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn drive_runs_one_worker_inline_and_in_order() {
        let caller = std::thread::current().id();
        let workers = drive(37, 1, || {
            assert_eq!(std::thread::current().id(), caller, "nothing is spawned");
            recorder(None)()
        });
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].seen, (0..37).collect::<Vec<_>>());
        assert_eq!(workers[0].claims, 0, "an inline run claims no chunks");
        // A worker that returns `false` is not called again.
        let workers = drive(37, 1, recorder(Some(4)));
        assert_eq!(workers[0].seen, [0, 1, 2, 3, 4]);
        // No items: the worker still exists, and saw nothing.
        assert!(drive(0, 1, recorder(None))[0].seen.is_empty());
    }

    /// Every run of consecutive items a pool worker receives starts where a
    /// chunk of the shared cursor starts: the items are dealt in order from
    /// the front of the list, never from a worker's own slice of it.
    #[test]
    fn a_pool_deals_chunks_from_one_cursor() {
        // (1,000 / (2 × 16)).clamp(1, 16)
        let chunk = 16;
        let workers = drive(1_000, 2, recorder(None));
        assert_eq!(workers.len(), 2);
        assert_eq!(sorted_items(&workers), (0..1_000).collect::<Vec<_>>());
        for worker in &workers {
            let mut runs = 0;
            for (i, &index) in worker.seen.iter().enumerate() {
                if i == 0 || worker.seen[i - 1] + 1 != index {
                    assert_eq!(index % chunk, 0, "a run starts at item {index}");
                    runs += 1;
                }
            }
            assert!(runs <= worker.claims);
        }
        let claims: usize = workers.iter().map(|w| w.claims).sum();
        assert_eq!(claims, 1_000usize.div_ceil(chunk));
    }

    #[test]
    fn every_item_runs_exactly_once() {
        for total in [0usize, 1, 2, 3, 31, 97, 10_000] {
            let workers = drive(total, 8, recorder(None));
            assert_eq!(workers.len(), 8);
            assert_eq!(
                sorted_items(&workers),
                (0..total).collect::<Vec<_>>(),
                "{total}"
            );
        }
    }

    #[test]
    fn a_retiring_worker_stops_only_itself() {
        // The worker that claims the first chunk of 16 retires at item 0 and
        // leaves the rest of that chunk; the other claims everything after it.
        let workers = drive(1_000, 2, recorder(Some(0)));
        let expected: Vec<usize> = std::iter::once(0).chain(16..1_000).collect();
        assert_eq!(sorted_items(&workers), expected);
    }
}
