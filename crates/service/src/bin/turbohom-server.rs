//! `turbohom-server` — serve SPARQL queries over HTTP.
//!
//! ```bash
//! # Serve a generated LUBM(1) store on the default address:
//! turbohom-server --lubm 1
//!
//! # Serve an N-Triples file with RDFS inference and a bigger plan cache:
//! turbohom-server --ntriples data.nt --inference --cache 1024 --bind 0.0.0.0:7878
//!
//! # Then:
//! curl 'http://127.0.0.1:7878/healthz'
//! curl 'http://127.0.0.1:7878/query' --data-urlencode 'query=SELECT ?x WHERE { ?x ?p ?o . }'
//! curl 'http://127.0.0.1:7878/query?profile=1' --data-urlencode 'query=…'   # span tree + stage timings
//! curl 'http://127.0.0.1:7878/query?explain=1' --data-urlencode 'query=…'   # plan tree, not executed
//! curl 'http://127.0.0.1:7878/query?analyze=1' --data-urlencode 'query=…'   # plan tree + actuals + q-errors
//! curl 'http://127.0.0.1:7878/stats'
//! curl 'http://127.0.0.1:7878/metrics'      # Prometheus text exposition
//! curl 'http://127.0.0.1:7878/debug/slow'   # the journal's slow completions, slowest first
//! curl 'http://127.0.0.1:7878/debug/events' # structured event journal (JSONL)
//! ```

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use turbohom_datasets::lubm::{LubmConfig, LubmGenerator};
use turbohom_engine::{AnyStore, EngineKind, ShardedOptions, ShardedStore, Store, StoreOptions};
use turbohom_rdf::parse_ntriples;
use turbohom_service::{HttpServer, QueryService, ServiceConfig, MAX_THREADS};

struct Args {
    bind: String,
    lubm_scale: usize,
    ntriples: Option<String>,
    snapshot: Option<String>,
    save_snapshot: Option<String>,
    inference: bool,
    threads: usize,
    shards: usize,
    cache: usize,
    engine: EngineKind,
    slow_ms: Option<f64>,
    journal: Option<String>,
    access_log: bool,
}

fn usage() -> &'static str {
    "usage: turbohom-server [OPTIONS]\n\
     \n\
     options:\n\
     \x20 --bind ADDR       listen address (default 127.0.0.1:7878)\n\
     \x20 --lubm N          serve a generated LUBM store at scale N (default 1)\n\
     \x20 --ntriples FILE   serve an N-Triples file instead of LUBM\n\
     \x20 --snapshot FILE   serve a snapshot file (memory-mapped, zero-copy)\n\
     \x20 --save-snapshot F write the loaded store to one snapshot file and\n\
     \x20                   exit (a single store only: not with --shards)\n\
     \x20 --inference       materialize the RDFS closure of an --ntriples file\n\
     \x20                   at load time: the only way the class hierarchy\n\
     \x20                   applies, for every engine (a --lubm store is\n\
     \x20                   generated closed, a --snapshot keeps its own)\n\
     \x20 --threads N       default worker threads per query, 1 to 64 (default 1)\n\
     \x20 --shards N        split the ownership of the terms of the one store\n\
     \x20                   N ways and route queries by it\n\
     \x20                   (default 1 = no shards; built from triples at\n\
     \x20                   boot, never saved)\n\
     \x20 --cache N         plan-cache capacity (default 256)\n\
     \x20 --engine NAME     default engine: turbohom++ | turbohom | mergejoin | hashjoin\n\
     \x20 --slow-ms MS      keep queries at or above MS milliseconds in\n\
     \x20                   /debug/slow and write them to stderr; 0 keeps\n\
     \x20                   every one, `off` none (default 500)\n\
     \x20 --journal FILE    tee every /debug/events journal event to FILE\n\
     \x20                   as JSONL (appended) for post-mortem analysis\n\
     \x20 --access-log      log one stderr line per request\n\
     \x20 --help            print this help"
}

/// Parses a flag's numeric value, or says what the flag `expects`.
fn number<T: std::str::FromStr>(flag: &str, value: String, expects: &str) -> Result<T, String> {
    let parsed = value.parse().ok();
    parsed.ok_or_else(|| format!("{flag} expects {expects}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bind: "127.0.0.1:7878".into(),
        lubm_scale: 1,
        ntriples: None,
        snapshot: None,
        save_snapshot: None,
        inference: false,
        threads: 1,
        shards: 1,
        cache: 256,
        engine: EngineKind::TurboHomPlusPlus,
        slow_ms: Some(500.0),
        journal: None,
        access_log: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag {
            "--bind" => args.bind = value()?,
            "--lubm" => args.lubm_scale = number(flag, value()?, "an integer scale")?,
            "--ntriples" => args.ntriples = Some(value()?),
            "--snapshot" => args.snapshot = Some(value()?),
            "--save-snapshot" => args.save_snapshot = Some(value()?),
            "--inference" => args.inference = true,
            "--threads" => {
                let bound = 1..=MAX_THREADS;
                let threads = value()?.parse().ok().filter(|t| bound.contains(t));
                let expects = format!("{flag} expects an integer from 1 to {MAX_THREADS}");
                args.threads = threads.ok_or(expects)?;
            }
            "--shards" => {
                args.shards = number::<NonZeroUsize>(flag, value()?, "an integer >= 1")?.get()
            }
            "--cache" => args.cache = number(flag, value()?, "an integer")?,
            "--engine" => {
                args.engine = value()?.parse::<EngineKind>().map_err(|e| e.to_string())?
            }
            "--slow-ms" => {
                let v = value()?;
                args.slow_ms = if v.eq_ignore_ascii_case("off") {
                    None
                } else {
                    let ms = v.parse::<f64>().ok();
                    let ms = ms.filter(|ms| ms.is_finite() && *ms >= 0.0);
                    Some(ms.ok_or("--slow-ms expects a non-negative number or `off`")?)
                };
            }
            "--journal" => args.journal = Some(value()?),
            "--access-log" => args.access_log = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("turbohom-server: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Loads the store and serves it, or saves its snapshot and returns. An
/// `Err` is the message the process exits with.
fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.snapshot.is_some() && (args.ntriples.is_some() || args.save_snapshot.is_some()) {
        return Err("--snapshot cannot be combined with --ntriples or --save-snapshot".into());
    }
    if args.inference && args.ntriples.is_none() {
        let why = "a --lubm store is generated with its RDFS closure, and a --snapshot file keeps the one it was saved with";
        return Err(format!("--inference needs --ntriples ({why})"));
    }
    if args.shards > 1 && (args.snapshot.is_some() || args.save_snapshot.is_some()) {
        let why = "a sharded store is built from triples at boot and never saved";
        return Err(format!(
            "--shards cannot be combined with --snapshot or --save-snapshot ({why})"
        ));
    }

    let options = StoreOptions {
        inference: args.inference,
        threads: args.threads,
    };
    let sharded_options = ShardedOptions {
        shards: args.shards,
        inference: args.inference,
        threads: args.threads,
    };
    let load_started = std::time::Instant::now();
    let store = if let Some(path) = &args.snapshot {
        eprintln!("mapping snapshot {path} ...");
        let store = Store::from_snapshot_with(std::path::Path::new(path), options.threads)
            .map_err(|e| format!("cannot load snapshot {path}: {e}"))?;
        AnyStore::Single(Arc::new(store))
    } else {
        let dataset = if let Some(path) = &args.ntriples {
            eprintln!("loading N-Triples from {path} ...");
            let input =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_ntriples(&input).map_err(|e| format!("cannot parse {path}: {e}"))?
        } else {
            eprintln!("generating LUBM({}) ...", args.lubm_scale);
            LubmGenerator::new(LubmConfig::scale(args.lubm_scale)).generate()
        };
        if args.shards > 1 {
            let store = ShardedStore::from_dataset_with(dataset, sharded_options)
                .map_err(|e| format!("cannot shard the store: {e}"))?;
            AnyStore::Sharded(Arc::new(store))
        } else {
            AnyStore::Single(Arc::new(Store::from_dataset_with(dataset, options)))
        }
    };
    // Whatever plans of the default engine read beyond the type-aware graph
    // is built now, not by the first request. (Another engine named by a
    // request's `engine=` still builds on first use.)
    let one = store.store();
    one.warm(args.engine);
    let load_ms = load_started.elapsed().as_secs_f64() * 1000.0;
    let shard_note = store.sharded().map_or(String::new(), |s| {
        format!(", {} shards of one store", s.shard_count())
    });
    eprintln!(
        "store ready: {} triples in {load_ms:.1} ms ({} backend{}{shard_note})",
        one.triple_count(),
        store.backend_name(),
        if one.is_mapped() { ", mmap" } else { "" },
    );

    if let Some(path) = &args.save_snapshot {
        let started = std::time::Instant::now();
        // A single store: a sharded one was refused above.
        let bytes = one
            .save_snapshot(std::path::Path::new(path))
            .map_err(|e| format!("cannot save snapshot {path}: {e}"))?;
        println!(
            "snapshot saved: {path} ({bytes} bytes, {} triples, {:.1} ms)",
            one.triple_count(),
            started.elapsed().as_secs_f64() * 1000.0,
        );
        return Ok(());
    }

    let dataset_label = match (&args.snapshot, &args.ntriples) {
        (Some(path), _) => format!("snapshot:{path}"),
        (None, Some(path)) => path.clone(),
        (None, None) => format!("lubm-{}", args.lubm_scale),
    };
    let mut service = QueryService::with_any_store(
        store,
        ServiceConfig {
            plan_cache_capacity: args.cache,
            default_engine: args.engine,
            slow_query: args.slow_ms.map(|ms| Duration::from_secs_f64(ms / 1000.0)),
        },
    )
    .with_dataset_label(dataset_label);
    if let Some(path) = &args.journal {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open journal file {path}: {e}"))?;
        service = service.with_journal_tee(file);
    }
    let server = HttpServer::bind(args.bind.as_str(), Arc::new(service))
        .map_err(|e| format!("cannot bind {}: {e}", args.bind))?
        .with_access_log(args.access_log);
    match server.local_addr() {
        Ok(addr) => eprintln!(
            "listening on http://{addr} (endpoints: /query /healthz /stats /metrics /debug/slow /debug/events)"
        ),
        Err(_) => eprintln!("listening on {}", args.bind),
    }
    server.run().map_err(|e| e.to_string())
}
