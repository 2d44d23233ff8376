//! What a [`Store`](crate::Store) holds: the dictionary, the type-aware
//! graph — which holds every triple — and the two derived structures only
//! some plans read — the direct graph and the three permutation tables — each
//! built from the graph's triples by the first plan that reads it. The
//! arrays are owned heap memory when the store was built from triples and
//! zero-copy views into a memory-mapped file when it was opened from a
//! snapshot; every read path is the same for both.

use crate::error::StoreError;
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::thread::ThreadId;
use std::time::Instant;
use turbohom_baseline::PermutationIndexes;
use turbohom_rdf::{Dataset, Dictionary, InferenceEngine};
use turbohom_storage::{
    process_resident_bytes, trim_free_heap, FlatVec, MemoryUse, SectionCursor, SnapshotError,
    SnapshotWriter,
};
use turbohom_transform::{direct_transform, type_aware_transform, TransformedGraph};

/// Engine-level snapshot meta section: format sub-version, inference flag,
/// triple count (component 0x09; the component sections of the dictionary
/// and the type-aware graph follow).
const TAG_STORE_META: u64 = 0x0901;

/// The store-level snapshot format sub-version. Bumped when the *composition*
/// of component sections changes (the components themselves version their
/// sections through their tags). 2: the permutation tables (tags `0x08xx`)
/// are no longer stored. 3: nor are a graph's degree order (`0x0304`) and
/// its inverse label index's unlabeled list (`0x0503`). 4: term ids are
/// 32 bits wide (the triples `0x0201`, the dictionary's sorted ids `0x0103`
/// and the mappings' reverse arrays `0x0602`/`0x0604`/`0x0606`). 5: a
/// graph's type groups hold only labeled neighbors (each direction's
/// `0x03x1`/`0x03x2`/`0x03x4`). 6: a transformed graph keeps no
/// simple-entailment label sets (`0x0702`/`0x0703`), and its meta (`0x0701`)
/// is its kind alone. 7: a data vertex's id is its term id, so a graph keeps
/// no vertex mapping (`0x0601`/`0x0602`) and has one row per dictionary term.
/// 8: a graph stores a type group only where it filters; each edge-label
/// group (`0x03x1`) names the label set all its targets carry (`0x03x6`/
/// `0x03x7`) and ends where the next one starts. 9: only the type-aware graph
/// is stored, without its kind (`0x0701`) and with its subclass pairs
/// (`0x0704`/`0x0705`). 10: no triple table (`0x0201`): the type-aware graph
/// holds every triple. 11: the dictionary stores each IRI namespace and
/// datatype IRI once, in a shared table (`0x0104`/`0x0105`) its records
/// (`0x0102`) index, and its arena (`0x0101`) only the rest. 12: a term
/// record (`0x0102`) is 16 bytes, its extra string ending where the next
/// record's strings begin, and the numeric views lie beside the records
/// (`0x0106`). 13: term ids are in key order, so the records are their own
/// sorted array and the dictionary keeps no sorted ids (`0x0103`); nor does
/// a graph keep its term → label arrays (`0x0603`/`0x0605`), which are
/// derived from the label → term ones at load.
const STORE_FORMAT_SUB_VERSION: u64 = 13;

/// One line of the memory ledger ([`Store::memory`](crate::Store::memory)):
/// the bytes of one part of one component. A derived structure that has not
/// been built is a single line with an empty `part` and zero bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryRow {
    /// `dictionary`, `triples`, `type_aware`, `direct` or `permutations`.
    pub component: &'static str,
    /// The array group inside the component (`arena`, `csr`, `spo`, …).
    pub part: &'static str,
    /// Its heap and mapped bytes.
    pub bytes: MemoryUse,
}

/// One structure a store built: `inference` (when its options ask for it),
/// `freeze` and `type_aware` at load, `direct` and `permutations` for the
/// first plan that reads them, `triples` for the first caller of
/// [`Store::dataset`](crate::Store::dataset). Ahead of them, the stage that
/// produced the store's dataset — `generate` or `parse` — where its caller
/// recorded one ([`Store::record_source`](crate::Store::record_source)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructureBuild {
    /// `generate`, `parse`, `inference`, `freeze`, `type_aware`, `direct`,
    /// `permutations` or `triples`.
    pub structure: &'static str,
    /// Wall-clock milliseconds the build took.
    pub ms: f64,
    /// Bytes the built structure holds.
    pub bytes: u64,
    /// The process's resident high-water mark (`VmHWM`) right after the
    /// build, 0 where `/proc` is missing. Read against the served peak, it
    /// says which build set that peak.
    pub peak_bytes: u64,
}

/// Where a store's arrays live.
enum Origin {
    Heap,
    Snapshot { path: PathBuf, mapped: bool },
}

pub(crate) struct Backend {
    pub dictionary: Dictionary,
    pub type_aware: TransformedGraph,
    /// The triples decoded back into a dataset: no request reads it.
    dataset: OnceLock<Dataset>,
    direct: OnceLock<TransformedGraph>,
    permutations: OnceLock<PermutationIndexes>,
    origin: Origin,
    /// Every build so far. The thread is set on a first-use build until
    /// [`take_first_use_builds`](Self::take_first_use_builds) hands it to the
    /// request that caused it.
    builds: Mutex<Vec<(StructureBuild, Option<ThreadId>)>>,
}

fn rows<const N: usize>(
    component: &'static str,
    parts: [(&'static str, MemoryUse); N],
) -> impl Iterator<Item = MemoryRow> {
    parts.into_iter().map(move |(part, bytes)| MemoryRow {
        component,
        part,
        bytes,
    })
}

fn total<const N: usize>(parts: [(&'static str, MemoryUse); N]) -> u64 {
    parts.iter().map(|(_, m)| m.heap + m.mapped).sum()
}

/// Runs `build`, which also says how many bytes what it built holds, and
/// returns the built value with the record of its build.
fn timed<T>(structure: &'static str, build: impl FnOnce() -> (T, u64)) -> (T, StructureBuild) {
    let started = Instant::now();
    let (built, bytes) = build();
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let record = StructureBuild {
        structure,
        ms,
        bytes,
        peak_bytes: process_resident_bytes().1,
    };
    (built, record)
}

/// Heap and mapped bytes of a dataset's dictionary and triple table.
fn dataset_bytes(dataset: &Dataset) -> u64 {
    let triples = dataset.triples.memory();
    total(dataset.dictionary.memory()) + triples.heap + triples.mapped
}

impl StructureBuild {
    /// Runs `produce`, the stage that yields a store's dataset — `generate`
    /// or `parse` — and returns the dataset with the record of that stage
    /// (for [`Store::record_source`](crate::Store::record_source)).
    pub fn produce<E>(
        stage: &'static str,
        produce: impl FnOnce() -> Result<Dataset, E>,
    ) -> Result<(Dataset, Self), E> {
        let (dataset, record) = timed(stage, || {
            let dataset = produce();
            let bytes = dataset.as_ref().map_or(0, dataset_bytes);
            (dataset, bytes)
        });
        Ok((dataset?, record))
    }
}

impl Backend {
    /// Builds what every plan reads: materializes the RDFS closure when
    /// `inference` is set, freezes the dataset — before the graph build, so
    /// that the memory the loading form gives back is what the graph is
    /// built into — and hands its triple table to the type-aware
    /// transformation, which frees it once the outgoing direction is laid
    /// out: the load's peak is the served store, and the graph holds every
    /// triple.
    pub fn build(mut dataset: Dataset, inference: bool) -> Self {
        let mut builds = Vec::new();
        if inference {
            let ((), build) = timed("inference", || {
                InferenceEngine::default().materialize(&mut dataset);
                ((), dataset_bytes(&dataset))
            });
            builds.push((build, None));
        }
        let ((), freeze) = timed("freeze", || {
            dataset.freeze();
            ((), dataset_bytes(&dataset))
        });
        let Dataset {
            dictionary,
            triples,
        } = dataset;
        let triple_count = triples.len();
        let (type_aware, type_aware_build) = timed("type_aware", || {
            let graph = type_aware_transform(triples, &dictionary);
            let bytes = total(graph.memory());
            (graph, bytes)
        });
        debug_assert_eq!(type_aware.triple_count(), triple_count);
        builds.extend([(freeze, None), (type_aware_build, None)]);
        Backend {
            dictionary,
            type_aware,
            dataset: OnceLock::new(),
            direct: OnceLock::new(),
            permutations: OnceLock::new(),
            origin: Origin::Heap,
            builds: Mutex::new(builds),
        }
    }

    /// Reads one store's sections from `cur`, which the snapshot file at
    /// `path` backs, and reconstructs the dictionary and the graph in place;
    /// also returns whether the store was written with inference enabled
    /// (the closure is already materialized in the stored graph).
    pub fn read(cur: &mut SectionCursor<'_>, path: &Path) -> Result<(Self, bool), StoreError> {
        let meta: FlatVec<u64> = cur.next_section(TAG_STORE_META)?;
        if meta.len() != 3 {
            return Err(SnapshotError::Malformed("store meta section length".into()).into());
        }
        if meta[0] != STORE_FORMAT_SUB_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: meta[0] as u32,
                expected: STORE_FORMAT_SUB_VERSION as u32,
            }
            .into());
        }
        let dictionary = Dictionary::read_sections(cur)?;
        let type_aware = TransformedGraph::read_sections(cur)?;
        // A matched vertex is read as the term of its id, by the writer and
        // the FILTERs alike: every row must be a term, and so must every
        // label's class or predicate.
        let (rows, terms) = (type_aware.graph.vertex_count(), dictionary.len());
        if rows != terms {
            let what = format!("the graph has {rows} vertex rows, {terms} terms");
            return Err(SnapshotError::Malformed(what).into());
        }
        let mappings = &type_aware.mappings;
        let mut label_terms = mappings
            .vlabel_to_term
            .iter()
            .chain(&*mappings.elabel_to_term);
        if label_terms.any(|t| t.index() >= terms) {
            let what = "a label's term is outside the dictionary".to_string();
            return Err(SnapshotError::Malformed(what).into());
        }
        // The count the store was saved with, against the one the arrays
        // hold: edges, label entries and subclass pairs.
        let (saved, held) = (meta[2], type_aware.triple_count() as u64);
        if saved != held {
            let what = format!("the graph holds {held} triples, meta says {saved}");
            return Err(SnapshotError::Malformed(what).into());
        }
        let backend = Backend {
            dictionary,
            type_aware,
            dataset: OnceLock::new(),
            direct: OnceLock::new(),
            permutations: OnceLock::new(),
            origin: Origin::Snapshot {
                path: path.to_path_buf(),
                mapped: cur.is_mapped(),
            },
            builds: Mutex::new(Vec::new()),
        };
        Ok((backend, meta[1] != 0))
    }

    /// Writes the store meta, the dictionary and the type-aware graph into
    /// `w`.
    pub fn write(&self, inference: bool, w: &mut SnapshotWriter) {
        let meta: [u64; 3] = [
            STORE_FORMAT_SUB_VERSION,
            inference as u64,
            self.type_aware.triple_count() as u64,
        ];
        w.section(TAG_STORE_META, &meta);
        self.dictionary.write_sections(w);
        self.type_aware.write_sections(w);
    }

    /// `"heap"` or `"snapshot"`.
    pub fn name(&self) -> &'static str {
        match self.origin {
            Origin::Heap => "heap",
            Origin::Snapshot { .. } => "snapshot",
        }
    }

    pub fn snapshot_path(&self) -> Option<&Path> {
        match &self.origin {
            Origin::Heap => None,
            Origin::Snapshot { path, .. } => Some(path),
        }
    }

    /// `true` when the snapshot payload is memory-mapped (as opposed to
    /// owned heap memory, including the buffered-read fallback).
    pub fn is_mapped(&self) -> bool {
        matches!(self.origin, Origin::Snapshot { mapped: true, .. })
    }

    /// The triples decoded back into a dataset with a copy of the
    /// dictionary, built here if this is its first reader.
    pub fn dataset(&self) -> &Dataset {
        self.dataset.get_or_init(|| {
            self.record("triples", true, || {
                let mut dataset = Dataset {
                    dictionary: self.dictionary.clone(),
                    triples: self.type_aware.triples().collect(),
                };
                dataset.triples.freeze();
                let bytes = Self::decoded_bytes(&dataset).heap;
                (dataset, bytes)
            })
        })
    }

    /// What a decoded dataset adds to the store: its triple array, and the
    /// heap arrays of its dictionary copy (a mapped array is shared).
    fn decoded_bytes(dataset: &Dataset) -> MemoryUse {
        let triples = dataset.triples.memory();
        let heap = dataset
            .dictionary
            .memory()
            .iter()
            .map(|(_, m)| m.heap)
            .sum();
        triples + MemoryUse { heap, mapped: 0 }
    }

    /// The direct transformed graph, built here if this is its first reader.
    /// `first_use` says a request is that reader (a plan being prepared), as
    /// opposed to a warm-up or a save.
    pub fn direct(&self, first_use: bool) -> &TransformedGraph {
        self.direct.get_or_init(|| {
            self.record("direct", first_use, || {
                let graph = direct_transform(&self.type_aware);
                let bytes = total(graph.memory());
                (graph, bytes)
            })
        })
    }

    /// The three permutation tables, built here if this is their first reader.
    pub fn permutations(&self, first_use: bool) -> &PermutationIndexes {
        self.permutations.get_or_init(|| {
            self.record("permutations", first_use, || {
                let tables = PermutationIndexes::build(self.type_aware.triples());
                let bytes = total(tables.memory());
                (tables, bytes)
            })
        })
    }

    /// Runs a build on first use and records it. The build's temporaries
    /// are freed by now: the allocator hands their pages back, or it would
    /// keep them resident.
    fn record<T>(
        &self,
        structure: &'static str,
        first_use: bool,
        build: impl FnOnce() -> (T, u64),
    ) -> T {
        let (built, record) = timed(structure, build);
        trim_free_heap();
        let by = first_use.then(|| std::thread::current().id());
        self.builds.lock().push((record, by));
        built
    }

    /// Records the stage that produced the dataset, ahead of every build.
    pub fn record_source(&self, source: StructureBuild) {
        self.builds.lock().insert(0, (source, None));
    }

    /// Every build so far, load-time ones first.
    pub fn builds(&self) -> Vec<StructureBuild> {
        self.builds.lock().iter().map(|(b, _)| *b).collect()
    }

    /// The first-use builds the calling thread ran and has not been handed
    /// yet: what the request now on this thread caused.
    pub fn take_first_use_builds(&self) -> Vec<StructureBuild> {
        let me = Some(std::thread::current().id());
        let mut builds = self.builds.lock();
        let mut mine = Vec::new();
        for (build, by) in builds.iter_mut().filter(|(_, by)| *by == me) {
            *by = None;
            mine.push(*build);
        }
        mine
    }

    /// The memory ledger: every array group this store holds.
    pub fn memory(&self) -> Vec<MemoryRow> {
        // A component that is one array, or not built yet: one line.
        let whole = |(component, bytes)| MemoryRow {
            component,
            part: "",
            bytes,
        };
        let decoded = self.dataset.get().map(Self::decoded_bytes);
        let mut ledger: Vec<MemoryRow> = rows("dictionary", self.dictionary.memory())
            .chain([whole(("triples", decoded.unwrap_or_default()))])
            .chain(rows("type_aware", self.type_aware.memory()))
            .collect();
        match self.direct.get() {
            Some(graph) => ledger.extend(rows("direct", graph.memory())),
            None => ledger.push(whole(("direct", MemoryUse::default()))),
        }
        match self.permutations.get() {
            Some(tables) => ledger.extend(rows("permutations", tables.memory())),
            None => ledger.push(whole(("permutations", MemoryUse::default()))),
        }
        ledger
    }
}
