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
//! curl 'http://127.0.0.1:7878/debug/slow'   # slow-query recorder ring
//! curl 'http://127.0.0.1:7878/debug/events' # structured event journal (JSONL)
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use turbohom_datasets::lubm::{LubmConfig, LubmGenerator};
use turbohom_engine::{
    AnyStore, EngineKind, PartitionerKind, ShardedOptions, ShardedStore, Store, StoreOptions,
    DEFAULT_HALO,
};
use turbohom_service::{HttpServer, QueryService, ServiceConfig};

struct Args {
    bind: String,
    lubm_scale: usize,
    ntriples: Option<String>,
    snapshot: Option<String>,
    save_snapshot: Option<String>,
    inference: bool,
    threads: usize,
    shards: usize,
    partitioner: PartitionerKind,
    halo: usize,
    cache: usize,
    engine: EngineKind,
    slow_ms: Option<f64>,
    slow_capacity: usize,
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
     \x20 --save-snapshot F write the loaded store to a snapshot file and exit\n\
     \x20 --inference       materialize the RDFS closure at load time\n\
     \x20 --threads N       default worker threads per query (default 1)\n\
     \x20 --shards N        partition the data across N shard stores and run\n\
     \x20                   queries scatter-gather (default 1 = single store)\n\
     \x20 --partitioner P   shard ownership: hash | greedy (default hash)\n\
     \x20 --halo N          boundary replication radius in triples (default 2)\n\
     \x20 --cache N         plan-cache capacity (default 256)\n\
     \x20 --engine NAME     default engine: turbohom++ | turbohom | mergejoin | hashjoin\n\
     \x20 --slow-ms MS      record queries at or above MS milliseconds in\n\
     \x20                   /debug/slow and stderr; 0 records everything,\n\
     \x20                   `off` disables the recorder (default 500)\n\
     \x20 --slow-capacity N slow-query ring size (default 32)\n\
     \x20 --journal FILE    tee every /debug/events journal event to FILE\n\
     \x20                   as JSONL (appended) for post-mortem analysis\n\
     \x20 --access-log      log one stderr line per request\n\
     \x20 --help            print this help"
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
        partitioner: PartitionerKind::Hash,
        halo: DEFAULT_HALO,
        cache: 256,
        engine: EngineKind::TurboHomPlusPlus,
        slow_ms: Some(500.0),
        slow_capacity: 32,
        journal: None,
        access_log: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--bind" => args.bind = value("--bind")?,
            "--lubm" => {
                args.lubm_scale = value("--lubm")?
                    .parse()
                    .map_err(|_| "--lubm expects an integer scale")?
            }
            "--ntriples" => args.ntriples = Some(value("--ntriples")?),
            "--snapshot" => args.snapshot = Some(value("--snapshot")?),
            "--save-snapshot" => args.save_snapshot = Some(value("--save-snapshot")?),
            "--inference" => args.inference = true,
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads expects an integer")?
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--shards expects an integer >= 1")?
            }
            "--partitioner" => {
                args.partitioner = value("--partitioner")?
                    .parse::<PartitionerKind>()
                    .map_err(|e| e.to_string())?
            }
            "--halo" => {
                args.halo = value("--halo")?
                    .parse()
                    .map_err(|_| "--halo expects an integer")?
            }
            "--cache" => {
                args.cache = value("--cache")?
                    .parse()
                    .map_err(|_| "--cache expects an integer")?
            }
            "--engine" => {
                args.engine = value("--engine")?
                    .parse::<EngineKind>()
                    .map_err(|e| e.to_string())?
            }
            "--slow-ms" => {
                let v = value("--slow-ms")?;
                args.slow_ms = if v.eq_ignore_ascii_case("off") {
                    None
                } else {
                    Some(
                        v.parse::<f64>()
                            .ok()
                            .filter(|ms| ms.is_finite() && *ms >= 0.0)
                            .ok_or("--slow-ms expects a non-negative number or `off`")?,
                    )
                };
            }
            "--slow-capacity" => {
                args.slow_capacity = value("--slow-capacity")?
                    .parse()
                    .map_err(|_| "--slow-capacity expects an integer")?
            }
            "--journal" => args.journal = Some(value("--journal")?),
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
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("turbohom-server: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.snapshot.is_some() && (args.ntriples.is_some() || args.save_snapshot.is_some()) {
        eprintln!(
            "turbohom-server: --snapshot cannot be combined with --ntriples or --save-snapshot"
        );
        return ExitCode::FAILURE;
    }
    if args.snapshot.is_some() && args.shards > 1 {
        eprintln!(
            "turbohom-server: --shards cannot be combined with --snapshot \
             (the manifest records the shard layout)"
        );
        return ExitCode::FAILURE;
    }

    let options = StoreOptions {
        inference: args.inference,
        threads: args.threads.max(1),
    };
    let sharded_options = ShardedOptions {
        shards: args.shards,
        inference: args.inference,
        threads: args.threads.max(1),
        partitioner: args.partitioner,
        halo: args.halo,
    };
    let load_started = std::time::Instant::now();
    let (store, load_phase) = match (&args.snapshot, &args.ntriples) {
        (Some(path), _) => {
            let file = std::path::Path::new(path);
            if ShardedStore::is_manifest(file) {
                eprintln!("mapping shard manifest {path} ...");
                match ShardedStore::from_manifest(file, options.threads) {
                    Ok(store) => (AnyStore::Sharded(Arc::new(store)), "sharded_map"),
                    Err(e) => {
                        eprintln!("turbohom-server: cannot load shard manifest {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                eprintln!("mapping snapshot {path} ...");
                match Store::from_snapshot_with(file, options.threads) {
                    Ok(store) => (AnyStore::Single(Arc::new(store)), "map"),
                    Err(e) => {
                        eprintln!("turbohom-server: cannot load snapshot {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        (None, Some(path)) => {
            eprintln!("loading N-Triples from {path} ...");
            let input = match std::fs::read_to_string(path) {
                Ok(input) => input,
                Err(e) => {
                    eprintln!("turbohom-server: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if args.shards > 1 {
                match ShardedStore::from_ntriples_with(&input, sharded_options) {
                    Ok(store) => (AnyStore::Sharded(Arc::new(store)), "sharded_parse_build"),
                    Err(e) => {
                        eprintln!("turbohom-server: cannot parse {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                match Store::from_ntriples_with(&input, options) {
                    Ok(store) => (AnyStore::Single(Arc::new(store)), "parse_build"),
                    Err(e) => {
                        eprintln!("turbohom-server: cannot parse {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        (None, None) => {
            eprintln!("generating LUBM({}) ...", args.lubm_scale);
            let dataset = LubmGenerator::new(LubmConfig::scale(args.lubm_scale)).generate();
            if args.shards > 1 {
                match ShardedStore::from_dataset_with(dataset, sharded_options) {
                    Ok(store) => (AnyStore::Sharded(Arc::new(store)), "sharded_parse_build"),
                    Err(e) => {
                        eprintln!("turbohom-server: cannot partition LUBM dataset: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                (
                    AnyStore::Single(Arc::new(Store::from_dataset_with(dataset, options))),
                    "parse_build",
                )
            }
        }
    };
    // Whatever plans of the default engine read beyond the type-aware graph
    // is built now, not by the first request. (Another engine named by a
    // request's `engine=` still builds on first use.)
    store.stores().iter().for_each(|s| s.warm(args.engine));
    let load_ms = load_started.elapsed().as_secs_f64() * 1000.0;
    let shard_note = match store.shard_count() {
        Some(k) => format!(
            ", {k} shards, {} partitioner",
            store.partitioner_name().unwrap_or("?")
        ),
        None => String::new(),
    };
    eprintln!(
        "store ready: {} triples in {load_ms:.1} ms ({load_phase}, {} backend{}{shard_note})",
        store.triple_count(),
        store.backend_name(),
        if store.is_mapped() { ", mmap" } else { "" },
    );

    if let Some(path) = &args.save_snapshot {
        let started = std::time::Instant::now();
        let saved = match &store {
            AnyStore::Single(s) => s.save_snapshot(std::path::Path::new(path)),
            AnyStore::Sharded(s) => s.save_snapshots(std::path::Path::new(path)),
        };
        match saved {
            Ok(bytes) => {
                println!(
                    "snapshot saved: {path} ({bytes} bytes, {} triples, {} file{}, {:.1} ms)",
                    store.triple_count(),
                    store.shard_count().map_or(1, |k| k + 1),
                    if store.shard_count().is_some() {
                        "s"
                    } else {
                        ""
                    },
                    started.elapsed().as_secs_f64() * 1000.0,
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("turbohom-server: cannot save snapshot {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
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
            slow_log_capacity: args.slow_capacity,
            ..ServiceConfig::default()
        },
    )
    .with_dataset_label(dataset_label);
    if let Some(path) = &args.journal {
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(file) => service = service.with_journal_tee(file),
            Err(e) => {
                eprintln!("turbohom-server: cannot open journal file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let service = Arc::new(service);
    let server = match HttpServer::bind(args.bind.as_str(), service) {
        Ok(server) => server.with_access_log(args.access_log),
        Err(e) => {
            eprintln!("turbohom-server: cannot bind {}: {e}", args.bind);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => eprintln!(
            "listening on http://{addr} (endpoints: /query /healthz /stats /metrics /debug/slow /debug/events)"
        ),
        Err(_) => eprintln!("listening on {}", args.bind),
    }
    if let Err(e) = server.run() {
        eprintln!("turbohom-server: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
