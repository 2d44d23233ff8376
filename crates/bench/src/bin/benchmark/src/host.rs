//! What makes timings taken on a small shared host repeat: one CPU for the
//! measured processes, and a reading of the host's speed beside every
//! measurement.
//!
//! The benchmark runs on a few virtual cores of a machine it shares. Two
//! things there move every timing by tens of per cent between runs of the same
//! code, and neither is the program under test:
//!
//! * **Waking another core.** A closed loop hands control from client to
//!   server and back on every request. With the two on different virtual
//!   cores, each hand-over halts one core and wakes the other through the
//!   host's scheduler, which takes from microseconds to milliseconds
//!   depending on what else the host is doing. With both on one core the
//!   hand-over is a context switch inside the guest and costs the same every
//!   time ([`pin_to_one_cpu`]).
//! * **The speed of the core itself.** Whatever shares the physical core
//!   slows the same instructions by up to 1.6×, for seconds or minutes at a
//!   time. [`Probe`] times two small fixed kernels of this package's own
//!   every few tens of milliseconds; how much slower than nominal they run is
//!   the host factor, and a timing divided by it is the timing on a host at
//!   nominal speed. The kernels are not code under test, so a change to the
//!   repository cannot move them.

use std::collections::HashMap;
use std::time::Instant;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Affinity masks cover this many CPUs.
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

/// While this lives, the thread that made it — and every thread and child
/// process started from it — runs on one CPU only. Dropping it gives the
/// thread its CPUs back (what was started meanwhile stays where it is).
pub struct Pinned {
    pub cpu: usize,
    #[cfg(target_os = "linux")]
    previous: [u64; MASK_WORDS],
}

/// Restricts the calling thread to the first CPU it is allowed to run on.
/// Without it (another platform, or the call is refused) the benchmark still
/// runs, only less steadily.
pub fn pin_to_one_cpu() -> Result<Pinned, String> {
    #[cfg(target_os = "linux")]
    {
        let mut previous = [0u64; MASK_WORDS];
        // SAFETY: the mask is MASK_WORDS * 8 bytes long, as the size says.
        if unsafe { sched_getaffinity(0, MASK_WORDS * 8, previous.as_mut_ptr()) } != 0 {
            return Err("sched_getaffinity failed".into());
        }
        let cpu = previous
            .iter()
            .enumerate()
            .find(|(_, word)| **word != 0)
            .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
            .ok_or("no CPU is allowed")?;
        let mut only = [0u64; MASK_WORDS];
        only[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above.
        if unsafe { sched_setaffinity(0, MASK_WORDS * 8, only.as_ptr()) } != 0 {
            return Err(format!("sched_setaffinity to CPU {cpu} failed"));
        }
        Ok(Pinned { cpu, previous })
    }
    #[cfg(not(target_os = "linux"))]
    Err("only implemented for Linux".into())
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        // SAFETY: as in `pin_to_one_cpu`.
        unsafe {
            sched_setaffinity(0, MASK_WORDS * 8, self.previous.as_ptr());
        }
    }
}

/// Microseconds the two kernels take on the host this was written on when
/// nothing else competes for its cores. Only ratios to these matter to a
/// comparison of two commits on one host; they put the host factor near 1
/// on a quiet host of this kind, so normalised milliseconds read like real
/// ones.
const NOMINAL_SORT_US: f64 = 75.0;
const NOMINAL_LOOKUP_US: f64 = 340.0;

/// The host-speed probe. Its two kernels were chosen, out of nine tried
/// beside every workload (pointer chases through 256 KB and 64 MB, hash
/// lookups, a sort, independent multiply chains, string formatting, a 1 MB
/// copy, binary searches, loop-back socket round trips), because request
/// latencies follow them most closely as the host's speed changes: over
/// 8-second stretches latency tracks `sort × √lookup` to within 2–4 % (one
/// standard deviation) on every workload while the raw latencies move by
/// 6–20 %. Memory-latency-bound kernels barely notice the slow phases and
/// multiply chains notice them little; branchy, cache-resident code like
/// the server's notices them most.
pub struct Probe {
    keys: Vec<u64>,
    map: HashMap<u64, u64>,
}

impl Probe {
    pub fn new() -> Probe {
        // xorshift64: the keys only need to be scattered and the same on
        // every run.
        let mut state = 0x1234_5678_9abc_def0u64;
        let keys: Vec<u64> = (0..16 * 1024)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        let map = keys.iter().map(|&k| (k, k ^ 1)).collect();
        Probe { keys, map }
    }

    /// Sorting 4,096 scattered integers: branches that cannot be predicted,
    /// in a working set that fits the first-level cache.
    fn sort_us(&self) -> f64 {
        let started = Instant::now();
        let mut v = self.keys[..4096].to_vec();
        v.sort_unstable();
        std::hint::black_box(&v);
        started.elapsed().as_secs_f64() * 1e6
    }

    /// 4,096 lookups in a 16,384-entry hash map (SipHash, then a random
    /// access into about half a megabyte).
    fn lookup_us(&self) -> f64 {
        let started = Instant::now();
        let mut sum = 0u64;
        for key in self.keys.iter().step_by(4) {
            sum = sum.wrapping_add(self.map[key]);
        }
        std::hint::black_box(sum);
        started.elapsed().as_secs_f64() * 1e6
    }

    /// The host factor now: how many times slower than nominal the host runs
    /// code like the server's (1 on the nominal host, 1.5 when it needs half
    /// as long again). Each kernel runs once, on caches the server has just
    /// used — refilling them is part of what a slow phase slows — and takes
    /// about half a millisecond.
    pub fn factor(&self) -> f64 {
        factor_of(self.sort_us(), self.lookup_us())
    }
}

fn factor_of(sort_us: f64, lookup_us: f64) -> f64 {
    (sort_us / NOMINAL_SORT_US) * (lookup_us / NOMINAL_LOOKUP_US).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_one_at_nominal_speed_and_follows_both_kernels() {
        assert_eq!(factor_of(NOMINAL_SORT_US, NOMINAL_LOOKUP_US), 1.0);
        assert_eq!(factor_of(2.0 * NOMINAL_SORT_US, NOMINAL_LOOKUP_US), 2.0);
        assert_eq!(factor_of(NOMINAL_SORT_US, 4.0 * NOMINAL_LOOKUP_US), 2.0);
    }

    #[test]
    fn a_reading_is_positive_and_finite() {
        let factor = Probe::new().factor();
        assert!(factor.is_finite() && factor > 0.0, "{factor}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_leaves_one_allowed_cpu_and_dropping_it_restores_the_rest() {
        let allowed = || {
            let mut mask = [0u64; MASK_WORDS];
            // SAFETY: the mask is MASK_WORDS * 8 bytes long, as the size says.
            assert_eq!(
                unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) },
                0
            );
            mask
        };
        let before = allowed();
        let pinned = pin_to_one_cpu().expect("pinning works on Linux");
        let during = allowed();
        assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_ne!(during[pinned.cpu / 64] & (1 << (pinned.cpu % 64)), 0);
        drop(pinned);
        assert_eq!(allowed(), before);
    }
}
