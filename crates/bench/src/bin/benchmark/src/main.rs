//! The repository benchmark: five closed-loop HTTP workloads against a real
//! `turbohom-server`, six end-to-end metrics, and a per-layer traced pass.
//! See `README.md` beside this package for what is measured and why.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--out DIR] [--server PATH] [--smoke] [--repeat K]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod answer;
mod host;
mod http;
mod layers;
mod load;
mod metrics;
mod prep;
mod server;
mod spans;
mod stats;
mod workloads;

use metrics::{Metric, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Spec, SPECS};

struct Args {
    workloads: Vec<Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    server: PathBuf,
    repeat: usize,
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out DIR] [--server PATH] [--smoke] [--repeat K]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let beside_exe = |name: &str| -> Result<PathBuf, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        Ok(exe.with_file_name(name))
    };
    let (mut workload, mut smoke) = (None, false);
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 6.0,
        trace: false,
        out: beside_exe("benchmark-out")?,
        server: beside_exe("turbohom-server")?,
        repeat: 1,
    };
    let mut it = args;
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds expects a positive number")?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--server" => parsed.server = PathBuf::from(value()?),
            "--repeat" => {
                parsed.repeat = value()?
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or("--repeat expects an integer >= 1")?
            }
            "--smoke" => smoke = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    parsed.workloads = match workload {
        None => SPECS.to_vec(),
        Some(name) => vec![*SPECS
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))?],
    };
    if smoke {
        parsed.workloads = parsed.workloads.into_iter().map(Spec::smoke).collect();
        parsed.seconds = parsed.seconds.min(1.0);
    }
    Ok(parsed)
}

/// The outcome of one run of one workload in one mode.
struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    /// Human-readable lines: metrics with units, sample counts, warnings.
    report: String,
}

/// The four `share.*` metrics added up; 1 when the decomposition is whole.
fn share_sum(metrics: &BTreeMap<&'static str, f64>) -> f64 {
    metrics
        .iter()
        .filter(|(name, _)| name.starts_with("share."))
        .map(|(_, share)| share)
        .sum()
}

fn report_metrics(report: &mut String, workload: &str, defs: &[Metric], m: &BTreeMap<&str, f64>) {
    for def in defs {
        let _ = writeln!(
            report,
            "{workload:<13} {:<34} {:>16.4} {}",
            def.name, m[def.name], def.unit
        );
    }
}

fn run_once(spec: &Spec, args: &Args, seed: u64) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let prepared = prep::prepare(spec, seed, &args.out)?;
    let mut report = String::new();
    // From here on — the servers, the client, the in-process replays — one
    // CPU (see `host.rs`); preparation above used them all.
    let pinned = host::pin_to_one_cpu();
    match &pinned {
        Ok(pinned) => {
            let _ = writeln!(
                report,
                "{:<13} measured on CPU {} alone",
                spec.name, pinned.cpu
            );
        }
        Err(e) => {
            let _ = writeln!(
                report,
                "WARNING not pinned to one CPU, timings will be less steady: {e}"
            );
        }
    }
    if args.trace {
        let trace_path = args.out.join("trace.json");
        let layered = layers::run(spec, &prepared, &args.server, &trace_path, seed)?;
        let mut metrics = layered.metrics;
        for def in &PER_LAYER {
            // A metric that does not apply to this workload reads 0.
            metrics.entry(def.name).or_insert(0.0);
        }
        report_metrics(&mut report, spec.name, &PER_LAYER, &metrics);
        let total = share_sum(&metrics);
        let _ = writeln!(
            report,
            "{:<13} shares sum to {total:.4}; spans in {}",
            spec.name,
            trace_path.display()
        );
        if let Some(warning) = layered.warning {
            let _ = writeln!(report, "WARNING {warning}");
        }
        for complaint in &layered.complaints {
            let _ = writeln!(report, "FAILED {complaint}");
        }
        return Ok(Outcome {
            metrics,
            attempted: layered.attempted,
            failed: layered.failed,
            report,
        });
    }

    let prep::Prepared {
        sequence,
        expected,
        server_args,
        store,
        snapshot,
        ..
    } = prepared;
    // The server gets the memory and the cores to itself.
    drop(store);
    let e = load::measure(
        &args.server,
        &server_args,
        &sequence,
        &expected,
        args.seconds,
        spec.data.boot_slowdown_exponent(),
    )?;
    drop(snapshot);
    let metrics = BTreeMap::from([
        ("setup_s", e.setup_s),
        ("qps", e.qps),
        ("p50_ms", e.p50_ms),
        ("p95_ms", e.p95_ms),
        ("cpu_ms_per_query", e.cpu_ms_per_query),
        ("rss_mb", e.rss_mb),
    ]);
    report_metrics(&mut report, spec.name, &END_TO_END, &metrics);
    let _ = writeln!(
        report,
        "{:<13} timings are at nominal host speed; the host ran at factor {:.3} (raw qps {:.4}, p50_ms {:.4}, p95_ms {:.4})",
        spec.name, e.host_factor, e.raw_qps, e.raw_p50_ms, e.raw_p95_ms,
    );
    let _ = writeln!(
        report,
        "{:<13} {} latency samples from 1 closed-loop client, set-ups {:.4?} s at host factors {:.3?}, error_rate {:.6} ({} of {}){}",
        spec.name,
        e.samples,
        e.setups,
        e.setup_factors,
        e.failed as f64 / e.attempted as f64,
        e.failed,
        e.attempted,
        e.p99_ms.map_or(String::new(), |p99| format!(
            ", p99_ms {p99:.4} (not gated)"
        )),
    );
    let templates: Vec<String> = e
        .by_template
        .iter()
        .map(|(template, n, p50)| format!("{template} {p50:.3} ms x{n}"))
        .collect();
    let _ = writeln!(
        report,
        "{:<13} median by template: {}",
        spec.name,
        templates.join(", ")
    );
    for complaint in &e.complaints {
        let _ = writeln!(report, "FAILED {complaint}");
    }
    Ok(Outcome {
        metrics,
        attempted: e.attempted,
        failed: e.failed,
        report,
    })
}

fn metrics_json(defs: &[Metric], metrics: &BTreeMap<&'static str, f64>) -> String {
    let members: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, metrics[d.name], d.unit
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// `--repeat K`: K runs per workload, each with another seed, then for every
/// end-to-end metric the minimum, median and maximum, the quartile spread
/// against a third of its bound, and how much worse the median of the second
/// half of the runs is than that of the first half, against the bound — the
/// steadiness the acceptance rule asks of this benchmark.
fn repeat(args: &Args) -> Result<bool, String> {
    let mut steady = true;
    let mut table = String::new();
    for spec in &args.workloads {
        println!("{}: {}", spec.name, spec.why);
        let mut runs: Vec<Outcome> = Vec::new();
        for k in 0..args.repeat {
            let outcome = run_once(spec, args, args.seed + k as u64)?;
            print!("{}", outcome.report);
            steady &= outcome.failed == 0;
            runs.push(outcome);
        }
        if args.trace || runs.len() < 2 {
            continue;
        }
        for def in &END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[def.name]).collect();
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let spread = stats::spread(&values);
            let (first, second) = values.split_at(values.len() / 2);
            let drift = stats::worse_by(stats::median(first), stats::median(second), def.better);
            // The aim is a spread under a third of the bound; what must hold
            // is a spread (set-up excepted) and a drift within the bound.
            let verdict = if (spread > bound && def.name != "setup_s") || drift > bound {
                steady = false;
                "NOT STEADY"
            } else if spread > bound / 3.0 {
                "within the bound"
            } else {
                "ok"
            };
            let _ = writeln!(
                table,
                "{:<13} {:<17} min {:>11.4} median {:>11.4} max {:>11.4} {:<4} spread {:>6.2}% (limit {:>5.2}%) drift {:>+6.2}% (bound {:>2.0}%) {}",
                spec.name,
                def.name,
                values.iter().copied().fold(f64::INFINITY, f64::min),
                stats::median(&values),
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                def.unit,
                spread * 100.0,
                bound / 3.0 * 100.0,
                drift * 100.0,
                bound * 100.0,
                verdict,
            );
        }
    }
    print!("{table}");
    Ok(steady)
}

fn single(args: &Args) -> Result<bool, String> {
    let spec = &args.workloads[0];
    println!("{}: {}", spec.name, spec.why);
    let outcome = run_once(spec, args, args.seed)?;
    print!("{}", outcome.report);
    let defs: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = outcome.failed == 0;
    let metrics = metrics_json(defs, &outcome.metrics);
    // The summary file carries the context the result line has no keys for;
    // this benchmark measures and claims nothing.
    let summary = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}, \"claim\": null}}\n",
        spec.name, args.seed, args.seconds, u8::from(args.trace), outcome.attempted, outcome.failed,
    );
    let summary_path = args.out.join("summary.json");
    std::fs::write(&summary_path, summary)
        .map_err(|e| format!("{}: {e}", summary_path.display()))?;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
    // A run that printed its result line ends well; `correct` carries the
    // verdict on the answers.
    Ok(true)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if !Path::new(&args.server).is_file() {
        eprintln!(
            "benchmark: no server binary at {} (build it with `cargo build --release -p turbohom-service`, or pass --server)",
            args.server.display()
        );
        return ExitCode::from(2);
    }
    let outcome = if args.repeat > 1 || args.workloads.len() > 1 {
        repeat(&args)
    } else {
        single(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Failed requests or unsteady metrics under --repeat.
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args(&[
            "--workload",
            "lubm_scan",
            "--seed",
            "9",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "lubm_scan");
        assert_eq!((a.seed, a.seconds, a.trace, a.repeat), (9, 2.5, true, 1));
        assert_eq!(args(&[]).unwrap().workloads.len(), SPECS.len());
        for bad in [
            &["--workload", "nope"][..],
            &["--seconds", "0"],
            &["--seconds", "inf"],
            &["--trace", "2"],
            &["--repeat", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// Every workload, both modes, on LUBM(1)/BSBM(1) against a real server:
    /// every named metric is present and no answer is wrong. Needs
    /// `turbohom-server` in the same target directory (`run.sh` builds it
    /// there); without it the test says so and checks nothing.
    #[test]
    fn smoke_every_workload_prints_every_metric_and_no_request_fails() {
        let exe = std::env::current_exe().unwrap();
        let profile_dir = exe.parent().and_then(Path::parent).unwrap();
        let server = profile_dir.join("turbohom-server");
        if !server.is_file() {
            eprintln!("skipped: no {}", server.display());
            return;
        }
        for trace in ["0", "1"] {
            let mut a = args(&["--smoke", "--trace", trace, "--seed", "11"]).unwrap();
            a.server = server.clone();
            a.out = profile_dir.join(format!("benchmark-test-out-{trace}"));
            let defs: &[Metric] = if a.trace { &PER_LAYER } else { &END_TO_END };
            for spec in &a.workloads {
                let outcome = run_once(spec, &a, a.seed).unwrap();
                assert_eq!(outcome.failed, 0, "{}", outcome.report);
                assert!(outcome.attempted > 0);
                for def in defs {
                    let value = outcome.metrics.get(def.name);
                    assert!(
                        value.is_some_and(|v| v.is_finite()),
                        "{} {}: {value:?}",
                        spec.name,
                        def.name
                    );
                }
                if a.trace {
                    let shares = share_sum(&outcome.metrics);
                    assert!(
                        (shares - 1.0).abs() < 0.02,
                        "{}: shares sum to {shares}",
                        spec.name
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&a.out);
        }
    }
}
