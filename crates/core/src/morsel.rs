//! The worker driver and its morsel-driven work-stealing queue.
//!
//! Section 5.2 of the paper parallelizes TurboHOM++ by handing candidate
//! regions (equivalently: start vertices) to worker threads dynamically.
//! [`drive`] is the one place that does so: with one thread it runs a single
//! [`Worker`] on the calling thread, otherwise it spawns scoped workers that
//! pull from a [`MorselQueue`]. Every worker owns one contiguous range of the
//! item array and pops small *morsels* (fixed-size runs) off its own front
//! with a single CAS. A worker whose range is exhausted steals the back half
//! of a victim's remaining range, so skewed regions (one giant candidate
//! region next to thousands of tiny ones) do not serialize behind a shared
//! cursor.
//!
//! Ranges are packed `begin << 32 | end` into one `AtomicU64` per worker, so
//! both pop and steal are single-word CAS operations with no locks.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One unit of work: a contiguous run `start..end` of start-vertex indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// First index (inclusive).
    pub start: usize,
    /// Last index (exclusive).
    pub end: usize,
    /// `true` if this morsel came out of another worker's range.
    pub stolen: bool,
}

/// Lock-free morsel queue over the index range `0..total`.
pub struct MorselQueue {
    /// Per-worker remaining range, packed `begin << 32 | end`.
    segments: Vec<AtomicU64>,
    morsel_size: usize,
    stolen: AtomicUsize,
}

/// One worker of a [`drive`] run: the state it accumulates and its per-item
/// step.
pub trait Worker: Send {
    /// Processes item `index`; returning `false` retires this worker.
    fn run(&mut self, index: usize) -> bool;

    /// Told about every morsel the worker claims from the queue (never
    /// called when the run is inline).
    fn claimed(&mut self, _morsel: &Morsel) {}
}

/// Runs the items `0..total` through `threads` workers and returns them in
/// worker order. With `threads <= 1` the single worker runs on the calling
/// thread over the items in index order — nothing is spawned; otherwise
/// every scoped thread builds its worker with `new_worker` and pulls morsels
/// until the queue is dry or its worker retires.
pub fn drive<W: Worker>(total: usize, threads: usize, new_worker: impl Fn() -> W + Sync) -> Vec<W> {
    if threads <= 1 {
        let mut worker = new_worker();
        let _ = (0..total).all(|index| worker.run(index));
        return vec![worker];
    }
    let queue = MorselQueue::new(
        total,
        threads,
        MorselQueue::default_morsel_size(total, threads),
    );
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let (queue, new_worker) = (&queue, &new_worker);
                scope.spawn(move || {
                    let mut worker = new_worker();
                    while let Some(morsel) = queue.pop(w) {
                        worker.claimed(&morsel);
                        if !(morsel.start..morsel.end).all(|index| worker.run(index)) {
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

#[inline]
fn pack(begin: usize, end: usize) -> u64 {
    ((begin as u64) << 32) | end as u64
}

#[inline]
fn unpack(word: u64) -> (usize, usize) {
    ((word >> 32) as usize, (word & 0xFFFF_FFFF) as usize)
}

impl MorselQueue {
    /// Picks a morsel size that gives every worker plenty of claims while
    /// keeping per-morsel overhead negligible (mirrors the paper's "small
    /// dynamic chunks").
    pub fn default_morsel_size(total: usize, workers: usize) -> usize {
        (total / (workers.max(1) * 16)).clamp(1, 16)
    }

    /// Splits `0..total` into `workers` contiguous, balanced segments.
    ///
    /// # Panics
    /// Panics if `workers == 0` or `total` does not fit in 32 bits (the CSR
    /// graph caps vertex ids at `u32`, so start lists always fit).
    pub fn new(total: usize, workers: usize, morsel_size: usize) -> Self {
        assert!(workers > 0, "morsel queue needs at least one worker");
        assert!(total <= u32::MAX as usize, "start list too large to pack");
        let base = total / workers;
        let rem = total % workers;
        let mut segments = Vec::with_capacity(workers);
        let mut begin = 0usize;
        for w in 0..workers {
            let len = base + usize::from(w < rem);
            segments.push(AtomicU64::new(pack(begin, begin + len)));
            begin += len;
        }
        debug_assert_eq!(begin, total);
        MorselQueue {
            segments,
            morsel_size: morsel_size.max(1),
            stolen: AtomicUsize::new(0),
        }
    }

    /// Number of morsels that were obtained by stealing so far.
    pub fn stolen_count(&self) -> usize {
        self.stolen.load(Ordering::Relaxed)
    }

    /// Pops the next morsel for `worker`: first off the worker's own range,
    /// then — once that is empty — by stealing the back half of the largest
    /// victim range. Returns `None` when no work is visible anywhere.
    ///
    /// A thief that is mid-steal briefly holds work in neither segment; a
    /// concurrent `pop` can then observe "everything empty" and retire early.
    /// That work is still completed (by the thief itself), so coverage is
    /// exact — only tail parallelism is lost, never correctness.
    pub fn pop(&self, worker: usize) -> Option<Morsel> {
        debug_assert!(worker < self.segments.len());
        // Fast path: claim a morsel off the front of our own range.
        let own = &self.segments[worker];
        loop {
            let cur = own.load(Ordering::Acquire);
            let (begin, end) = unpack(cur);
            if begin >= end {
                break;
            }
            let next = (begin + self.morsel_size).min(end);
            if own
                .compare_exchange_weak(cur, pack(next, end), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(Morsel {
                    start: begin,
                    end: next,
                    stolen: false,
                });
            }
        }
        // Steal path: take the back half of the victim with the most work
        // left, keep retrying while any victim still shows work.
        loop {
            let mut best: Option<(usize, u64, usize, usize)> = None;
            for (v, seg) in self.segments.iter().enumerate() {
                if v == worker {
                    continue;
                }
                let cur = seg.load(Ordering::Acquire);
                let (begin, end) = unpack(cur);
                if begin < end && best.is_none_or(|(_, _, b, e)| end - begin > e - b) {
                    best = Some((v, cur, begin, end));
                }
            }
            let (victim, cur, begin, end) = best?;
            // The victim keeps the front floor(len/2), we take the back
            // ceil(len/2) — always at least one element, so a steal can
            // never come back empty (a 1-element range is taken whole).
            let mid = begin + (end - begin) / 2;
            if self.segments[victim]
                .compare_exchange(cur, pack(begin, mid), Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            self.stolen.fetch_add(1, Ordering::Relaxed);
            // Return the first morsel of the stolen range and install the
            // rest as our own segment (it was empty, and nobody steals from
            // or installs into an empty segment, so a plain store is safe).
            let take = (mid + self.morsel_size).min(end);
            own.store(pack(take, end), Ordering::Release);
            return Some(Morsel {
                start: mid,
                end: take,
                stolen: true,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Drains the queue from one worker id and returns all covered indices.
    fn drain(queue: &MorselQueue, worker: usize) -> Vec<usize> {
        let mut out = Vec::new();
        while let Some(m) = queue.pop(worker) {
            assert!(m.start < m.end);
            out.extend(m.start..m.end);
        }
        out
    }

    #[test]
    fn single_worker_covers_everything_in_order() {
        let q = MorselQueue::new(37, 1, 5);
        let got = drain(&q, 0);
        assert_eq!(got, (0..37).collect::<Vec<_>>());
        assert_eq!(q.stolen_count(), 0);
    }

    #[test]
    fn empty_queue_returns_none() {
        let q = MorselQueue::new(0, 4, 8);
        for w in 0..4 {
            assert_eq!(q.pop(w), None);
        }
    }

    #[test]
    fn one_worker_draining_steals_from_all_segments() {
        let q = MorselQueue::new(100, 4, 8);
        let got = drain(&q, 0);
        let set: HashSet<usize> = got.iter().copied().collect();
        assert_eq!(got.len(), 100);
        assert_eq!(set.len(), 100);
        assert!(q.stolen_count() > 0, "draining foreign segments must steal");
    }

    #[test]
    fn stolen_flag_marks_foreign_morsels() {
        let q = MorselQueue::new(20, 2, 4);
        // Worker 1 drains its own half first, then steals from worker 0.
        let mut own = 0;
        let mut stolen = 0;
        while let Some(m) = q.pop(1) {
            if m.stolen {
                stolen += 1;
                assert!(m.start < 10, "stolen work comes from worker 0's half");
            } else {
                own += 1;
            }
        }
        assert!(own > 0);
        assert!(stolen > 0);
    }

    #[test]
    fn concurrent_drain_covers_each_index_exactly_once() {
        let total = 10_000;
        let workers = 8;
        let q = MorselQueue::new(total, workers, 7);
        let mut per_worker: Vec<Vec<usize>> = Vec::new();
        std::thread::scope(|scope| {
            let q = &q;
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || drain(q, w)))
                .collect();
            for h in handles {
                per_worker.push(h.join().unwrap());
            }
        });
        let mut all: Vec<usize> = per_worker.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_totals_are_fully_assigned() {
        for total in [1usize, 2, 3, 31, 97] {
            for workers in [1usize, 2, 3, 5] {
                let q = MorselQueue::new(total, workers, 3);
                let mut got: Vec<usize> = (0..workers).flat_map(|w| drain(&q, w)).collect();
                got.sort_unstable();
                assert_eq!(got, (0..total).collect::<Vec<_>>(), "{total}/{workers}");
            }
        }
    }

    /// Records what the driver told it; retires at `stop_at`.
    struct Recorder {
        seen: Vec<usize>,
        morsels: usize,
        stop_at: Option<usize>,
    }

    impl Worker for Recorder {
        fn run(&mut self, index: usize) -> bool {
            self.seen.push(index);
            self.stop_at != Some(index)
        }

        fn claimed(&mut self, _morsel: &Morsel) {
            self.morsels += 1;
        }
    }

    fn recorder(stop_at: Option<usize>) -> impl Fn() -> Recorder + Sync {
        move || Recorder {
            seen: Vec::new(),
            morsels: 0,
            stop_at,
        }
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
        assert_eq!(workers[0].morsels, 0, "an inline run claims no morsels");
        // A worker that returns `false` is not called again.
        let workers = drive(37, 1, recorder(Some(4)));
        assert_eq!(workers[0].seen, [0, 1, 2, 3, 4]);
        // No items: the worker still exists, and saw nothing.
        assert!(drive(0, 1, recorder(None))[0].seen.is_empty());
    }

    #[test]
    fn drive_pools_cover_every_item_once() {
        let workers = drive(1_000, 4, recorder(None));
        assert_eq!(workers.len(), 4);
        assert!(workers.iter().map(|w| w.morsels).sum::<usize>() > 0);
        let mut all: Vec<usize> = workers.iter().flat_map(|w| w.seen.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..1_000).collect::<Vec<_>>());
        // A retiring worker stops only itself; its unclaimed items are
        // stolen by the others.
        let workers = drive(1_000, 4, recorder(Some(0)));
        let seen: HashSet<usize> = workers.iter().flat_map(|w| w.seen.clone()).collect();
        assert!(seen.len() > 900);
    }

    #[test]
    fn default_morsel_size_is_clamped() {
        assert_eq!(MorselQueue::default_morsel_size(0, 4), 1);
        assert_eq!(MorselQueue::default_morsel_size(10, 4), 1);
        assert_eq!(MorselQueue::default_morsel_size(10_000, 4), 16);
        assert!(MorselQueue::default_morsel_size(200, 4) >= 1);
    }
}
