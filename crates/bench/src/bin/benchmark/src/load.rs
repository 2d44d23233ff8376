//! The measured run: boot the server, drive it closed-loop over HTTP with
//! tracing off, check every answer, and report what a client sees — on a
//! host at nominal speed: every timing is divided by the host factor read
//! beside it (see `host.rs`).

use crate::answer::{self, Digest};
use crate::host::Probe;
use crate::http::Client;
use crate::server::Server;
use crate::stats::{median, percentile};
use crate::workloads::Sequence;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Responses up to this size are decoded and hashed every time; larger ones
/// are checked by row count, and in full every [`FULL_CHECK_EVERY`]th time.
const FULL_CHECK_BYTES: usize = 256 * 1024;
const FULL_CHECK_EVERY: u64 = 16;

/// Set-up is repeated until this many samples or this much time, whichever
/// comes first, but at least twice: a snapshot maps in half a second, give
/// or take a third, and is sampled nine times; a million-triple heap build
/// takes seconds and is sampled twice.
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(5);

/// The closed loop stops this often to read the host's speed. Slow phases of
/// the host last from a second to minutes; a reading takes about half a
/// millisecond, so the loop spends 1 % of its time on them.
const PROBE_EVERY: Duration = Duration::from_millis(50);

/// What the client saw.
#[derive(Default)]
pub struct Tally {
    /// (distinct request, latency in ms) of every answer that was `200` and
    /// correct.
    pub samples: Vec<(usize, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub connections: u64,
    /// First few failures, for the log.
    pub complaints: Vec<String>,
    /// Large responses seen so far (picks the ones decoded in full).
    nth_large: u64,
}

impl Tally {
    /// Counts one failed request and keeps the first few descriptions.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.complaints.len() < 5 {
            self.complaints.push(what);
        }
    }

    /// Sends request `i` of the endless cyclic sequence, takes its latency,
    /// then validates the answer and records the outcome.
    pub fn request(
        &mut self,
        client: &mut Client,
        sequence: &Sequence,
        expected: &[Digest],
        i: usize,
    ) {
        let (id, request) = sequence.at(i);
        self.attempted += 1;
        match client.query(&request.sparql) {
            Err(e) => self.fail(format!("{}: {e}", request.template)),
            Ok((response, _)) if response.status != 200 => self.fail(format!(
                "{}: status {}: {}",
                request.template,
                response.status,
                String::from_utf8_lossy(&response.body[..response.body.len().min(200)])
            )),
            Ok((response, latency)) => {
                match check(&response.body, expected[id], &mut self.nth_large) {
                    Ok(()) => self.samples.push((id, latency.as_secs_f64() * 1000.0)),
                    Err(e) => self.fail(format!("{}: {e}", request.template)),
                }
            }
        }
        self.connections = client.connections;
    }
}

/// Checks one response body against the oracle. `nth_large` counts the large
/// responses this client has seen, to pick the ones decoded in full.
fn check(body: &[u8], expected: Digest, nth_large: &mut u64) -> Result<(), String> {
    let full = if body.len() <= FULL_CHECK_BYTES {
        true
    } else {
        *nth_large += 1;
        *nth_large % FULL_CHECK_EVERY == 1
    };
    if full {
        let got = answer::of_json(body)?;
        if got != expected {
            return Err(format!("answer {got:?}, expected {expected:?}"));
        }
    } else {
        let rows = answer::count_rows(body)?;
        if rows != expected.rows {
            return Err(format!("{rows} rows, expected {}", expected.rows));
        }
    }
    Ok(())
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
pub enum Until {
    /// No request starts after this long.
    Elapsed(Duration),
    /// No walk through the sequence starts after this long, and the last one
    /// is finished: every window then holds the same requests the same
    /// number of times, wherever in the sequence the expensive ones sit.
    WholeCycles(Duration),
    /// After this many requests.
    Requests(usize),
}

/// The host's speed during a closed loop. The loop is cut into segments of
/// about [`PROBE_EVERY`], each between two readings of the host factor; the
/// mean of the two is the factor of everything in the segment.
#[derive(Default)]
pub struct Pace {
    /// Host factor at each reading: reading `k` opens segment `k`, reading
    /// `k + 1` closes it.
    factors: Vec<f64>,
    /// Per segment: the wall-clock time it spent on requests (sending,
    /// waiting, validating — not probing), and how many of the tally's
    /// samples had been taken when it closed.
    segments: Vec<(Duration, usize)>,
}

impl Pace {
    fn close_segment(&mut self, busy: Duration, samples_so_far: usize, factor: f64) {
        self.segments.push((busy, samples_so_far));
        self.factors.push(factor);
    }

    fn factor(&self, segment: usize) -> f64 {
        (self.factors[segment] + self.factors[segment + 1]) / 2.0
    }

    /// Seconds the loop spent on requests: as the clock counted them, and on
    /// a host at nominal speed (each segment's time divided by its factor).
    pub fn busy_s(&self) -> (f64, f64) {
        let mut raw = 0.0;
        let mut nominal = 0.0;
        for (k, (busy, _)) in self.segments.iter().enumerate() {
            raw += busy.as_secs_f64();
            nominal += busy.as_secs_f64() / self.factor(k);
        }
        (raw, nominal)
    }

    /// `latencies_ms[i]` (the tally's samples, in the order taken) divided by
    /// the factor of the segment sample `i` was taken in.
    pub fn at_nominal_speed(&self, latencies_ms: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(latencies_ms.len());
        let mut first = 0;
        for (k, (_, end)) in self.segments.iter().enumerate() {
            let factor = self.factor(k);
            out.extend(latencies_ms[first..*end].iter().map(|ms| ms / factor));
            first = *end;
        }
        debug_assert_eq!(out.len(), latencies_ms.len());
        out
    }
}

/// Sends the sequence from its start, one request after the previous answer
/// (callers of a SPARQL endpoint wait for their reply, so the load is a closed
/// loop), validating each answer after its latency is taken, and reading the
/// host's speed every [`PROBE_EVERY`]. Returns the tally and the pace.
///
/// There is one client: with two, both of this machine's cores are busy, and
/// on a shared host the run-to-run spread of every timing roughly doubles
/// (measured with the two set-ups taking turns every two seconds).
pub fn drive(
    addr: SocketAddr,
    sequence: &Sequence,
    expected: &[Digest],
    until: Until,
) -> (Tally, Pace) {
    let probe = Probe::new();
    let mut client = Client::new(addr);
    let mut tally = Tally::default();
    let mut pace = Pace::default();
    pace.factors.push(probe.factor());
    let started = Instant::now();
    let mut segment_started = started;
    for i in 0.. {
        let go_on = match until {
            Until::Elapsed(window) => started.elapsed() < window,
            Until::WholeCycles(window) => {
                i % sequence.order.len() != 0 || started.elapsed() < window
            }
            Until::Requests(n) => i < n,
        };
        if !go_on {
            break;
        }
        let busy = segment_started.elapsed();
        if busy >= PROBE_EVERY {
            pace.close_segment(busy, tally.samples.len(), probe.factor());
            segment_started = Instant::now();
        }
        tally.request(&mut client, sequence, expected, i);
    }
    pace.close_segment(
        segment_started.elapsed(),
        tally.samples.len(),
        probe.factor(),
    );
    (tally, pace)
}

/// The end-to-end metrics of one run.
pub struct EndToEnd {
    /// Mean host factor over the measured window (busy time as counted ÷
    /// busy time at nominal speed), and the timings before they were
    /// divided by it: printed, not gated.
    pub host_factor: f64,
    pub raw_qps: f64,
    pub raw_p50_ms: f64,
    pub raw_p95_ms: f64,
    pub setup_s: f64,
    /// Every set-up of the run, at nominal host speed, and the host factor
    /// during each (printed).
    pub setups: Vec<f64>,
    pub setup_factors: Vec<f64>,
    pub qps: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Printed only; reported when at least 1,000 samples stand behind it.
    pub p99_ms: Option<f64>,
    pub samples: usize,
    pub cpu_ms_per_query: f64,
    pub rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub complaints: Vec<String>,
    /// Median latency per template, slowest first (printed, not gated).
    pub by_template: Vec<(&'static str, usize, f64)>,
}

/// Boots the server while a second thread reads the host factor every
/// [`PROBE_EVERY`] (on the same CPU: the probe takes 1 % of it, as it does in
/// the closed loop). Returns the server and how many times longer than on a
/// host at nominal speed the boot took: the readings are equally far apart
/// in time, so that is the harmonic mean of the factors.
fn boot_beside_probe(binary: &Path, args: &[String]) -> Result<(Server, f64), String> {
    let probe = Probe::new();
    let booted = AtomicBool::new(false);
    let (server, factors) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut factors = vec![probe.factor()];
            while !booted.load(Ordering::Relaxed) {
                std::thread::sleep(PROBE_EVERY);
                factors.push(probe.factor());
            }
            factors
        });
        let server = Server::boot(binary, args);
        booted.store(true, Ordering::Relaxed);
        (server, sampler.join().expect("probe thread panicked"))
    });
    let inverse_sum: f64 = factors.iter().map(|f| 1.0 / f).sum();
    Ok((server?, factors.len() as f64 / inverse_sum))
}

/// Boots the server (several times, for `setup_s`; `boot_slowdown_exponent`
/// is [`crate::workloads::Data::boot_slowdown_exponent`]), warms it up for a fifth
/// of `seconds`, then measures for `seconds` and to the end of the walk
/// through the sequence that is under way then.
pub fn measure(
    server_binary: &Path,
    server_args: &[String],
    sequence: &Sequence,
    expected: &[Digest],
    seconds: f64,
    boot_slowdown_exponent: f64,
) -> Result<EndToEnd, String> {
    let (mut setups, mut setup_factors) = (Vec::new(), Vec::new());
    let mut spent = Duration::ZERO;
    let server = loop {
        let (server, slowness) = boot_beside_probe(server_binary, server_args)?;
        setups.push(server.setup.as_secs_f64() / slowness.powf(boot_slowdown_exponent));
        setup_factors.push(slowness);
        spent += server.setup;
        if setups.len() >= MAX_SETUPS || (setups.len() >= 2 && spent >= SETUP_BUDGET) {
            break server;
        }
    };

    // Warm-up fills the plan cache and the allocator's pools; its answers
    // are checked like any other but count towards nothing.
    let warm_up = Until::Elapsed(Duration::from_secs_f64(seconds * 0.2));
    let (warm, _) = drive(server.addr, sequence, expected, warm_up);
    if warm.samples.is_empty() {
        return Err(format!(
            "no request succeeded during warm-up: {:?}",
            warm.complaints
        ));
    }

    let cpu_before = server.cpu_ms()?;
    let window = Until::WholeCycles(Duration::from_secs_f64(seconds));
    let (tally, pace) = drive(server.addr, sequence, expected, window);
    let cpu_after = server.cpu_ms()?;
    let rss_mb = server.peak_rss_mb()?;
    drop(server);

    if tally.samples.is_empty() {
        return Err(format!(
            "no request succeeded in the measured window: {:?}",
            tally.complaints
        ));
    }
    let raw_ms: Vec<f64> = tally.samples.iter().map(|s| s.1).collect();
    let nominal_ms = pace.at_nominal_speed(&raw_ms);
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let (raw_sorted, latencies) = (sorted(raw_ms), sorted(nominal_ms.clone()));
    let (raw_busy_s, busy_s) = pace.busy_s();
    let host_factor = raw_busy_s / busy_s;

    let mut per_template: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((id, _), ms) in tally.samples.iter().zip(&nominal_ms) {
        per_template
            .entry(sequence.distinct[*id].template)
            .or_default()
            .push(*ms);
    }
    let mut by_template: Vec<_> = per_template
        .into_iter()
        .map(|(template, ms)| (template, ms.len(), median(&ms)))
        .collect();
    by_template.sort_by(|a, b| b.2.total_cmp(&a.2));
    Ok(EndToEnd {
        host_factor,
        raw_qps: latencies.len() as f64 / raw_busy_s,
        raw_p50_ms: percentile(&raw_sorted, 0.50),
        raw_p95_ms: percentile(&raw_sorted, 0.95),
        setup_s: median(&setups),
        setups,
        setup_factors,
        qps: latencies.len() as f64 / busy_s,
        p50_ms: percentile(&latencies, 0.50),
        p95_ms: percentile(&latencies, 0.95),
        p99_ms: (latencies.len() >= 1000).then(|| percentile(&latencies, 0.99)),
        samples: latencies.len(),
        // The server's CPU time is spread over the window like the
        // window's own time, so the same factor brings it to nominal speed.
        cpu_ms_per_query: (cpu_after - cpu_before) / host_factor / tally.attempted as f64,
        rss_mb,
        attempted: tally.attempted,
        failed: tally.failed,
        complaints: tally.complaints,
        by_template,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_are_brought_to_nominal_speed_segment_by_segment() {
        // Two segments: the host at nominal speed, then at half speed.
        let mut pace = Pace::default();
        pace.factors.push(1.0);
        pace.close_segment(Duration::from_secs(1), 2, 1.0);
        pace.close_segment(Duration::from_secs(2), 3, 3.0);
        assert_eq!(pace.factor(0), 1.0);
        assert_eq!(pace.factor(1), 2.0);
        assert_eq!(pace.busy_s(), (3.0, 2.0));
        assert_eq!(
            pace.at_nominal_speed(&[10.0, 20.0, 30.0]),
            vec![10.0, 20.0, 15.0]
        );
    }

    #[test]
    fn small_answers_are_hashed_and_large_ones_counted_with_a_periodic_full_check() {
        let small = br#"{"results":{"bindings":[{"x":{"type":"uri","value":"a"}}]}}"#;
        let right = answer::of_json(small).unwrap();
        let wrong_hash = Digest {
            hash: right.hash ^ 1,
            ..right
        };
        let mut nth = 0;
        assert!(check(small, right, &mut nth).is_ok());
        assert!(check(small, wrong_hash, &mut nth).is_err());
        assert_eq!(nth, 0);

        // A body above the limit: one row padded with JSON whitespace.
        let mut large = small.to_vec();
        large.extend(std::iter::repeat_n(b' ', FULL_CHECK_BYTES));
        let mut nth = 0;
        // 1st large response: decoded in full, so the wrong hash shows …
        assert!(check(&large, wrong_hash, &mut nth).is_err());
        // … 2nd to 16th: only the row count is compared …
        for _ in 1..FULL_CHECK_EVERY {
            assert!(check(&large, wrong_hash, &mut nth).is_ok());
        }
        let wrong_rows = Digest { rows: 2, ..right };
        assert!(check(&large, wrong_rows, &mut nth).is_err());
        assert_eq!(nth, FULL_CHECK_EVERY + 1);
    }
}
