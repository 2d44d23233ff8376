//! Snapshot backend equivalence and corruption hardening.
//!
//! The snapshot backend must be indistinguishable from the heap backend for
//! every query on every engine, and opening a mangled snapshot must fail
//! with a typed error — never a panic.

use std::path::PathBuf;
use turbohom_engine::{EngineKind, SnapshotError, Store, StoreError, StoreOptions};
use turbohom_graph::{Direction, ELabel};

fn ub(l: &str) -> String {
    format!("http://ub.org/{l}")
}

fn sample_store() -> Store {
    let mut ds = turbohom_rdf::Dataset::new();
    ds.insert_iris(
        &ub("GraduateStudent"),
        turbohom_rdf::vocab::RDFS_SUBCLASSOF,
        &ub("Student"),
    );
    for i in 0..4 {
        let s = ub(&format!("student{i}"));
        ds.insert_iris(&s, turbohom_rdf::vocab::RDF_TYPE, &ub("GraduateStudent"));
        ds.insert_iris(&s, &ub("memberOf"), &ub("dept0"));
        ds.insert(
            &turbohom_rdf::Term::iri(&s),
            &turbohom_rdf::Term::iri(ub("age")),
            &turbohom_rdf::Term::typed_literal(
                format!("{}", 20 + i),
                "http://www.w3.org/2001/XMLSchema#integer",
            ),
        );
    }
    ds.insert_iris(
        &ub("dept0"),
        turbohom_rdf::vocab::RDF_TYPE,
        &ub("Department"),
    );
    ds.insert_iris(&ub("dept0"), &ub("subOrganizationOf"), &ub("univ0"));
    ds.insert_iris(
        &ub("univ0"),
        turbohom_rdf::vocab::RDF_TYPE,
        &ub("University"),
    );
    Store::from_dataset_with(
        ds,
        StoreOptions {
            inference: true,
            threads: 1,
        },
    )
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("turbohom-engine-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

const QUERIES: &[&str] = &[
    r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
       PREFIX ub: <http://ub.org/>
       SELECT ?x ?d WHERE { ?x rdf:type ub:Student . ?x ub:memberOf ?d . }"#,
    r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
       PREFIX ub: <http://ub.org/>
       SELECT ?x ?y ?z WHERE {
         ?x rdf:type ub:Student . ?y rdf:type ub:University . ?z rdf:type ub:Department .
         ?x ub:memberOf ?z . ?z ub:subOrganizationOf ?y . }"#,
    "SELECT ?p ?o WHERE { <http://ub.org/student0> ?p ?o . }",
    r#"PREFIX ub: <http://ub.org/>
       SELECT ?x ?a WHERE { ?x ub:age ?a . FILTER(?a > 21) }"#,
    r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
       PREFIX ub: <http://ub.org/>
       SELECT ?x ?u WHERE {
         { ?x rdf:type ub:Department . } UNION { ?x rdf:type ub:University . }
         OPTIONAL { ?x ub:subOrganizationOf ?u . }
       }"#,
];

#[test]
fn snapshot_backend_returns_the_heap_rows_on_every_engine() {
    let heap = sample_store();
    let path = temp_path("equivalence.snap");
    let bytes = heap.save_snapshot(&path).unwrap();
    assert!(bytes > 64);

    let snap = Store::from_snapshot(&path).unwrap();
    assert_eq!(snap.backend_name(), "snapshot");
    assert_eq!(snap.snapshot_path(), Some(path.as_path()));
    assert_eq!(heap.backend_name(), "heap");
    assert_eq!(heap.snapshot_path(), None);
    assert_eq!(snap.triple_count(), heap.triple_count());
    assert!(snap.options().inference);

    // Row order is enumeration order, which the two backends need not
    // share: the same rows must render to the same bytes once sorted.
    for q in QUERIES {
        for kind in EngineKind::all() {
            let mut a = heap.execute(q, kind).unwrap();
            let mut b = snap.execute(q, kind).unwrap();
            a.rows.sort();
            b.rows.sort();
            assert_eq!(
                a.to_sparql_json(),
                b.to_sparql_json(),
                "engine {kind} disagrees on {q}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn saving_from_a_snapshot_store_round_trips_again() {
    let heap = sample_store();
    let p1 = temp_path("resave1.snap");
    let p2 = temp_path("resave2.snap");
    heap.save_snapshot(&p1).unwrap();
    let snap = Store::from_snapshot(&p1).unwrap();
    // A snapshot-backed store can itself be saved; the files are identical.
    snap.save_snapshot(&p2).unwrap();
    assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
}

/// The ledger line a snapshot section belongs to (`None` for the meta
/// sections, whose few counts live in struct fields, not arrays).
fn ledger_line(tag: u64) -> Option<(&'static str, &'static str)> {
    let graph = "type_aware";
    Some(match tag {
        0x0901 | 0x0301 => return None,
        0x0704 | 0x0705 => (graph, "csr"),
        0x0101 => ("dictionary", "arena"),
        0x0102 => ("dictionary", "records"),
        0x0103 => ("dictionary", "sorted"),
        0x0104 | 0x0105 => ("dictionary", "shared"),
        0x0106 => ("dictionary", "numbers"),
        0x0302..=0x0304 => (graph, "labels"),
        0x0310..=0x032f => (graph, "csr"),
        0x0400..=0x04ff => (graph, "predicate_index"),
        0x0500..=0x05ff => (graph, "inverse_labels"),
        0x0600..=0x06ff => (graph, "mappings"),
        other => panic!("section tag {other:#x} belongs to no ledger line"),
    })
}

/// The heap bytes of the schema summary a predicate index derives and no
/// snapshot holds: 8 per vertex, 8 per (predicate, side), and the CSR of the
/// implied labels.
fn derived_summary_bytes(graph: &turbohom_transform::TransformedGraph) -> u64 {
    let rows = 2 * graph.predicates.predicate_count() as u64;
    let implied: usize = (0..graph.predicates.predicate_count() as u32)
        .flat_map(|el| [Direction::Outgoing, Direction::Incoming].map(|side| (ELabel(el), side)))
        .map(|(el, side)| graph.predicates.implied_labels(el, side).len())
        .sum();
    8 * graph.graph.vertex_count() as u64 + 8 * rows + 8 * (rows + 1) + 4 * implied as u64
}

#[test]
fn every_ledger_line_is_the_bytes_of_its_snapshot_sections() {
    let heap = sample_store();
    let path = temp_path("ledger.snap");
    heap.save_snapshot(&path).unwrap();

    let mut sections: Vec<((&str, &str), u64)> = Vec::new();
    let mut graphs = 0;
    for (tag, len) in turbohom_storage::Snapshot::open(&path).unwrap().sections() {
        graphs += usize::from(tag == 0x0301);
        if let Some(line) = ledger_line(tag) {
            match sections.iter_mut().find(|(l, _)| *l == line) {
                Some((_, bytes)) => *bytes += len,
                None => sections.push((line, len)),
            }
        }
    }

    assert_eq!(graphs, 1, "a snapshot stores one graph");

    // Nothing has read the direct graph or the permutations.
    let mapped = Store::from_snapshot(&path).unwrap();
    assert!(mapped.is_mapped());
    for (store, on_heap) in [(&heap, true), (&mapped, false)] {
        let mut ledger = store.memory();
        let unbuilt = |row: &turbohom_engine::MemoryRow| {
            ["triples", "direct", "permutations"].contains(&row.component)
        };
        for row in ledger.iter().filter(|row| unbuilt(row)) {
            assert_eq!((row.bytes.heap, row.bytes.mapped), (0, 0), "{row:?}");
        }
        ledger.retain(|row| !unbuilt(row));
        assert_eq!(ledger.len(), sections.len());
        for row in &ledger {
            let line = (row.component, row.part);
            let (_, bytes) = sections
                .iter()
                .find(|(l, _)| *l == line)
                .unwrap_or_else(|| panic!("no section for {line:?}"));
            // The one line that is more than its sections: the predicate
            // index's summary is derived at load and lies on the heap.
            let derived = match line {
                ("type_aware", "predicate_index") => {
                    derived_summary_bytes(store.type_aware_graph())
                }
                _ => 0,
            };
            assert!(derived > 0 || line.1 != "predicate_index");
            let expected = if on_heap {
                (*bytes + derived, 0)
            } else {
                (derived, *bytes)
            };
            assert_eq!((row.bytes.heap, row.bytes.mapped), expected, "{line:?}");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_snapshot_holds_no_permutations_and_a_baseline_builds_them_from_the_map() {
    let path = temp_path("lazy.snap");
    sample_store().save_snapshot(&path).unwrap();
    let snap = Store::from_snapshot(&path).unwrap();
    let bytes_of = |store: &Store, component: &str| -> u64 {
        let rows = store.memory();
        let of_component = rows.iter().filter(|row| row.component == component);
        of_component.map(|r| r.bytes.heap + r.bytes.mapped).sum()
    };
    // Nothing was built at open.
    assert_eq!(bytes_of(&snap, "permutations"), 0);
    assert!(snap.builds().is_empty());
    snap.execute(QUERIES[0], EngineKind::HashJoin).unwrap();
    assert_eq!(
        bytes_of(&snap, "permutations"),
        6 * 12 * snap.triple_count() as u64
    );
    let built: Vec<_> = snap.builds().iter().map(|b| b.structure).collect();
    assert_eq!(built, ["permutations"]);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_snapshot_holds_no_direct_graph_and_turbohom_builds_it_from_the_map() {
    let path = temp_path("direct.snap");
    let heap = sample_store();
    heap.save_snapshot(&path).unwrap();
    let snap = Store::from_snapshot(&path).unwrap();
    let direct_bytes = |store: &Store| -> u64 {
        let rows = store
            .memory()
            .into_iter()
            .filter(|row| row.component == "direct");
        rows.map(|r| r.bytes.heap + r.bytes.mapped).sum()
    };
    // TurboHOM++ plans with a variable predicate read the type-aware graph
    // alone, the folded `rdf:type` and `rdfs:subClassOf` triples included.
    let everything = "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }";
    for q in [QUERIES[2], everything] {
        let mut a = heap.execute(q, EngineKind::TurboHomPlusPlus).unwrap();
        let mut b = snap.execute(q, EngineKind::TurboHomPlusPlus).unwrap();
        let merge = heap.execute(q, EngineKind::MergeJoin).unwrap();
        assert_eq!(b.len(), merge.len(), "{q}");
        a.rows.sort();
        b.rows.sort();
        assert_eq!(a.to_sparql_json(), b.to_sparql_json(), "{q}");
    }
    assert_eq!(direct_bytes(&snap), 0);
    assert!(snap.builds().is_empty());
    // A `turbohom` plan builds it, from the mapped triples, once.
    snap.execute(QUERIES[2], EngineKind::TurboHom).unwrap();
    assert!(direct_bytes(&snap) > 0);
    let built: Vec<_> = snap.builds().iter().map(|b| b.structure).collect();
    assert_eq!(built, ["direct"]);
    let (from_map, from_heap) = (snap.direct_graph(), heap.direct_graph());
    assert!(from_map.graph == from_heap.graph);
    assert!(from_map.mappings == from_heap.mappings);
    for q in QUERIES {
        let mut a = heap.execute(q, EngineKind::TurboHom).unwrap();
        let mut b = snap.execute(q, EngineKind::TurboHom).unwrap();
        a.rows.sort();
        b.rows.sort();
        assert_eq!(a.to_sparql_json(), b.to_sparql_json(), "{q}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn an_older_sub_version_snapshot_is_refused_with_a_version_mismatch() {
    // What older builds wrote first: the store meta section with sub-version
    // 1 (the permutation tables still followed the graphs), 2 (the graphs
    // still held their degree order and unlabeled list), 3 (term ids were
    // 64 bits wide), 4 (the graphs still held a type group for unlabeled
    // neighbors), 5 (the type-aware graph still held its simple-entailment
    // label sets), 6 (each graph still mapped its vertices to terms), 7
    // (each graph still stored the type groups that filter nothing), 8
    // (the direct graph followed the type-aware one), 9 (the triple table
    // followed the dictionary), 10 (the dictionary stored every IRI and
    // datatype IRI whole) or 11 (a term record was 32 bytes, with its extra
    // string's range and its numeric view).
    let path = temp_path("subversion.snap");
    for found in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11] {
        let mut w = turbohom_storage::SnapshotWriter::new();
        w.section::<u64>(0x0901, &[found, 0, 3]);
        w.write_to(&path).unwrap();
        let err = Store::from_snapshot(&path).unwrap_err();
        assert_eq!(
            err,
            StoreError::Snapshot(SnapshotError::VersionMismatch {
                found: found as u32,
                expected: 12
            })
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_graph_with_more_rows_than_the_dictionary_has_terms_is_refused() {
    // A vertex is read as the term of the same id: the store meta and the
    // dictionary of one store, then the graph of a store with one term more.
    let small = sample_store();
    let mut larger = turbohom_rdf::Dataset::new();
    for (id, term) in small.dictionary().iter() {
        // Encoded in id order, every term keeps its id.
        assert_eq!(larger.dictionary.encode(&term), id);
    }
    larger.insert_iris(&ub("extra"), &ub("memberOf"), &ub("dept0"));
    let graph =
        turbohom_transform::type_aware_transform(larger.triples.clone(), &larger.dictionary);
    assert_eq!(graph.graph.vertex_count(), small.dictionary().len() + 1);

    let mut w = turbohom_storage::SnapshotWriter::new();
    let triples = small.triple_count() as u64;
    w.section::<u64>(0x0901, &[12, 1, triples]);
    small.dictionary().write_sections(&mut w);
    graph.write_sections(&mut w);
    let path = temp_path("rows.snap");
    w.write_to(&path).unwrap();
    let err = Store::from_snapshot(&path).unwrap_err();
    assert!(
        matches!(&err, StoreError::Snapshot(SnapshotError::Malformed(m))
            if m.contains("vertex rows")),
        "{err:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_meta_triple_count_that_is_not_the_graphs_is_refused() {
    // The graph holds every triple: its edges, its label entries and its
    // subclass pairs. A meta count one off from their sum is refused.
    let store = sample_store();
    let graph = store.type_aware_graph();
    let held = graph.graph.edge_count() + graph.graph.label_entry_count() + graph.schema[0].len();
    assert_eq!(store.triple_count(), held);
    let path = temp_path("count.snap");
    for saved in [held - 1, held + 1] {
        let mut w = turbohom_storage::SnapshotWriter::new();
        w.section::<u64>(0x0901, &[12, 1, saved as u64]);
        store.dictionary().write_sections(&mut w);
        graph.write_sections(&mut w);
        w.write_to(&path).unwrap();
        let err = Store::from_snapshot(&path).unwrap_err();
        assert_eq!(
            err,
            StoreError::Snapshot(SnapshotError::Malformed(format!(
                "the graph holds {held} triples, meta says {saved}"
            )))
        );
    }
    // The same sections with the right count open.
    let mut w = turbohom_storage::SnapshotWriter::new();
    w.section::<u64>(0x0901, &[12, 1, held as u64]);
    store.dictionary().write_sections(&mut w);
    graph.write_sections(&mut w);
    w.write_to(&path).unwrap();
    assert_eq!(Store::from_snapshot(&path).unwrap().triple_count(), held);
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_magic_is_a_typed_error() {
    let path = temp_path("badmagic.snap");
    sample_store().save_snapshot(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).unwrap();
    let err = Store::from_snapshot(&path).unwrap_err();
    assert!(matches!(err, StoreError::Snapshot(SnapshotError::BadMagic)));
    std::fs::remove_file(&path).ok();
}

#[test]
fn version_mismatch_is_a_typed_error() {
    let path = temp_path("badversion.snap");
    sample_store().save_snapshot(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] = 0xFE; // version field at offset 8
    std::fs::write(&path, &bytes).unwrap();
    let err = Store::from_snapshot(&path).unwrap_err();
    assert!(matches!(
        err,
        StoreError::Snapshot(SnapshotError::VersionMismatch { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_snapshot_is_a_typed_error() {
    let path = temp_path("truncated.snap");
    sample_store().save_snapshot(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    for keep in [0usize, 7, 63, 64, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let err = Store::from_snapshot(&path).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Snapshot(SnapshotError::Truncated(_))
                    | StoreError::Snapshot(SnapshotError::Malformed(_))
            ),
            "keep={keep} gave {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_payload_is_a_typed_error() {
    let path = temp_path("corrupt.snap");
    sample_store().save_snapshot(&path).unwrap();
    let original = std::fs::read(&path).unwrap();
    // Flip a byte in the middle of the payload and near its end.
    for pos in [original.len() / 2, original.len() * 3 / 4] {
        let mut bytes = original.clone();
        bytes[pos] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = Store::from_snapshot(&path).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Snapshot(SnapshotError::ChecksumMismatch(_))
                    | StoreError::Snapshot(SnapshotError::Malformed(_))
            ),
            "pos={pos} gave {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Overwrites the first element of the first non-empty section tagged `tag`
/// with `value` and re-checksums the file, so that the loader gets past the
/// container's checks and reads the mangled section as it would a good one.
fn overwrite_first_u32(bytes: &mut [u8], tag: u64, value: u32) {
    overwrite_u32(bytes, tag, 0, value);
}

/// [`overwrite_first_u32`] for the four bytes `at` bytes into the first
/// section tagged `tag` that holds them.
fn overwrite_u32(bytes: &mut [u8], tag: u64, at: usize, value: u32) {
    let word = |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let (count, table) = (word(bytes, 16) as usize, word(bytes, 24) as usize);
    let start = (0..count)
        .map(|i| table + 24 * i)
        .find(|&entry| word(bytes, entry) == tag && word(bytes, entry + 16) >= at as u64 + 4)
        .map(|entry| word(bytes, entry + 8) as usize)
        .unwrap_or_else(|| panic!("no section {tag:#x} of {} bytes", at + 4));
    bytes[start + at..start + at + 4].copy_from_slice(&value.to_le_bytes());
    let fnv = turbohom_storage::fnv1a;
    let payload = fnv(turbohom_storage::FNV_OFFSET, &bytes[64..table]);
    bytes[40..48].copy_from_slice(&payload.to_le_bytes());
    let header = fnv(
        fnv(turbohom_storage::FNV_OFFSET, &bytes[..48]),
        &bytes[table..table + 24 * count],
    );
    bytes[48..56].copy_from_slice(&header.to_le_bytes());
}

#[test]
fn a_dictionary_shared_string_or_iri_split_that_is_wrong_is_refused() {
    // The dictionary's first term is `http://ub.org/GraduateStudent`: its
    // record (0x0102) names shared string 1, the namespace
    // `http://ub.org/` (0x0104), and the arena (0x0101) starts with its
    // local name. Shared string 0 is the empty string (0x0105 holds
    // `{off, len, plain}` per string).
    let path = temp_path("shared.snap");
    sample_store().save_snapshot(&path).unwrap();
    let original = std::fs::read(&path).unwrap();
    let word = |text: &[u8; 4]| u32::from_le_bytes(*text);
    let split = "not split after its last '/' or '#'";
    for (tag, at, value, what) in [
        // The record's kind word (its third u32: the IRI's code 0, the
        // JSON-plain bit 4 and, from bit 5, the shared-string index) naming
        // a string past the table.
        (
            0x0102,
            8,
            1000 << 5 | 1 << 4,
            "shared string index is out of range",
        ),
        // `http://ub.orgx`: a namespace that ends in neither '/' nor '#'.
        (0x0104, 10, word(b"orgx"), split),
        // `G/aduateStudent`: a local name that holds a '/'.
        (0x0101, 0, word(b"G/ad"), split),
        // The empty string marked as needing a JSON escape.
        (
            0x0105,
            8,
            0,
            "shared string 0's JSON-plain bit is not its text's",
        ),
    ] {
        let mut bytes = original.clone();
        overwrite_u32(&mut bytes, tag, at, value);
        std::fs::write(&path, &bytes).unwrap();
        let err = Store::from_snapshot(&path).unwrap_err();
        assert!(
            matches!(&err, StoreError::Snapshot(SnapshotError::Malformed(m)) if m.contains(what)),
            "{tag:#x}+{at} gave {err:?}"
        );
    }
    // Each patch overwrote what the comments say it did.
    for (tag, at, value) in [
        (0x0102, 8, 1 << 5 | 1 << 4),
        (0x0104, 10, word(b"org/")),
        (0x0101, 0, word(b"Grad")),
    ] {
        let mut bytes = original.clone();
        overwrite_u32(&mut bytes, tag, at, value);
        assert_eq!(bytes, original);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_predicate_index_endpoint_that_is_no_vertex_is_refused_not_indexed() {
    // The summary derived at map time indexes per-vertex arrays by what the
    // predicate lists name; the lists are bytes from outside.
    let path = temp_path("endpoint.snap");
    let heap = sample_store();
    heap.save_snapshot(&path).unwrap();
    let original = std::fs::read(&path).unwrap();
    let vertices = heap.type_aware_graph().graph.vertex_count() as u32;
    // Subjects (0x0402) and objects (0x0404); the first id that is no
    // vertex, and the largest.
    for (tag, id) in [(0x0402, vertices), (0x0404, vertices), (0x0402, u32::MAX)] {
        let mut bytes = original.clone();
        overwrite_first_u32(&mut bytes, tag, id);
        std::fs::write(&path, &bytes).unwrap();
        let err = Store::from_snapshot(&path).unwrap_err();
        assert!(
            matches!(&err, StoreError::Snapshot(SnapshotError::Malformed(m))
                if m.contains("predicate e") && m.contains("not a vertex")),
            "{tag:#x} {id} gave {err:?}"
        );
    }
    // The helper itself leaves a loadable file when it changes nothing.
    let mut bytes = original.clone();
    let first = heap.type_aware_graph().predicates.subjects(ELabel(0))[0];
    overwrite_first_u32(&mut bytes, 0x0402, first.0);
    assert_eq!(bytes, original);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_graph_label_outside_its_range_is_refused_not_decoded() {
    // The matcher and `triples()` read every vertex and edge label through
    // the mappings; the labels are bytes from outside.
    let path = temp_path("labels.snap");
    sample_store().save_snapshot(&path).unwrap();
    let original = std::fs::read(&path).unwrap();
    // The vertex labels (0x0303) and the outgoing edge-label groups, whose
    // first word is the group's label (0x0311).
    for (tag, what) in [(0x0303, "vertex label"), (0x0311, "edge label")] {
        let mut bytes = original.clone();
        overwrite_first_u32(&mut bytes, tag, 1000);
        std::fs::write(&path, &bytes).unwrap();
        let err = Store::from_snapshot(&path).unwrap_err();
        assert!(
            matches!(&err, StoreError::Snapshot(SnapshotError::Malformed(m))
                if m.contains(what) && m.contains("out of range")),
            "{tag:#x} gave {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_is_an_io_error() {
    let err = Store::from_snapshot(&temp_path("does-not-exist.snap")).unwrap_err();
    assert!(matches!(err, StoreError::Snapshot(SnapshotError::Io(_))));
}

#[test]
fn zero_threads_are_refused_before_the_file_is_opened() {
    let err = Store::from_snapshot_with(&temp_path("does-not-exist.snap"), 0).unwrap_err();
    assert_eq!(err, StoreError::InvalidThreadCount(0));
}
