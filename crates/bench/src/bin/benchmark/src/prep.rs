//! Preparation shared by the measured and the traced run: generate the
//! dataset, derive the request sequence from the seed, build the store
//! in-process and compute the expected answer of every distinct request
//! with the merge-join baseline — an implementation that shares neither the
//! matcher nor (through [`answer::of_results`]) the serialiser with the
//! server path under test.

use crate::answer::{self, Digest};
use crate::workloads::{self, Data, Sequence, Spec};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use turbohom_datasets::bsbm::{BsbmConfig, BsbmGenerator};
use turbohom_datasets::lubm::{LubmConfig, LubmGenerator};
use turbohom_engine::{EngineKind, Store, StoreOptions};
use turbohom_rdf::Dataset;

/// A directory removed, with everything in it, when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    fn create(path: PathBuf) -> Result<TempDir, String> {
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A snapshot written for a `--snapshot` server.
pub struct Snapshot {
    pub path: PathBuf,
    pub save_s: f64,
    pub bytes: u64,
    _dir: TempDir,
}

pub struct Prepared {
    pub sequence: Sequence,
    /// Expected answer per distinct request.
    pub expected: Vec<Digest>,
    /// Merge-join `run_plan` time per distinct request, µs.
    pub mergejoin_us: Vec<f64>,
    /// Arguments that make `turbohom-server` serve this workload's data.
    pub server_args: Vec<String>,
    /// The single heap store the oracle ran on.
    pub store: Arc<Store>,
    pub triples: usize,
    pub generate_s: f64,
    pub build_s: f64,
    pub snapshot: Option<Snapshot>,
}

pub fn generate(data: Data) -> Dataset {
    match data {
        Data::Lubm { scale, .. } => LubmGenerator::new(LubmConfig::scale(scale)).generate(),
        Data::BsbmSnapshot { scale } => BsbmGenerator::new(BsbmConfig::scale(scale)).generate(),
    }
}

pub fn prepare(spec: &Spec, seed: u64, out: &Path) -> Result<Prepared, String> {
    let started = Instant::now();
    let dataset = generate(spec.data);
    let generate_s = started.elapsed().as_secs_f64();
    let sequence = workloads::sequence(spec.name, &dataset, seed)?;

    let started = Instant::now();
    let store = Arc::new(Store::from_dataset_with(dataset, StoreOptions::default()));
    let build_s = started.elapsed().as_secs_f64();

    // One half of the distinct requests per core.
    let oracle = |requests: &[workloads::Request]| -> Result<Vec<(Digest, f64)>, String> {
        requests
            .iter()
            .map(|request| {
                let plan = store
                    .prepare_plan(&request.sparql, EngineKind::MergeJoin)
                    .map_err(|e| format!("oracle cannot plan {}: {e}", request.template))?;
                let started = Instant::now();
                let results = store
                    .run_plan(&plan)
                    .map_err(|e| format!("oracle cannot run {}: {e}", request.template))?;
                let us = started.elapsed().as_secs_f64() * 1e6;
                Ok((answer::of_results(&results), us))
            })
            .collect()
    };
    let (front, back) = sequence.distinct.split_at(sequence.distinct.len() / 2);
    let (front, back) = std::thread::scope(|scope| {
        let back = scope.spawn(|| oracle(back));
        (oracle(front), back.join().expect("oracle thread panicked"))
    });
    let (expected, mergejoin_us) = front?.into_iter().chain(back?).unzip();

    let (server_args, snapshot) = match spec.data {
        Data::Lubm { scale, shards } => {
            let mut args = vec!["--lubm".to_string(), scale.to_string()];
            if shards > 1 {
                args.extend(["--shards".to_string(), shards.to_string()]);
            }
            (args, None)
        }
        Data::BsbmSnapshot { .. } => {
            let dir = TempDir::create(out.join(format!("tmp-{}", std::process::id())))?;
            let path = dir.0.join("bsbm.snapshot");
            let started = Instant::now();
            let bytes = store
                .save_snapshot(&path)
                .map_err(|e| format!("cannot save {}: {e}", path.display()))?;
            let save_s = started.elapsed().as_secs_f64();
            let args = vec!["--snapshot".to_string(), path.display().to_string()];
            let snapshot = Snapshot {
                path,
                save_s,
                bytes,
                _dir: dir,
            };
            (args, Some(snapshot))
        }
    };

    Ok(Prepared {
        sequence,
        expected,
        mergejoin_us,
        server_args,
        triples: store.triple_count(),
        store,
        generate_s,
        build_s,
        snapshot,
    })
}
