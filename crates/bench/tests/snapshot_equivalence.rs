//! LUBM(1) snapshot round-trip: the snapshot backend must return the heap
//! backend's rows, rendered to the same bytes, for every benchmark query on
//! every engine.

use turbohom_bench::{canonical_json, lubm_store};
use turbohom_datasets::lubm;
use turbohom_engine::{EngineKind, Store};

#[test]
fn lubm1_snapshot_matches_heap_for_every_benchmark_query() {
    let heap = lubm_store(1);
    let dir = std::env::temp_dir().join("turbohom-bench-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lubm1-equivalence.snap");
    heap.save_snapshot(&path).unwrap();
    let snap = Store::from_snapshot(&path).unwrap();
    assert_eq!(snap.triple_count(), heap.triple_count());

    for q in &lubm::queries() {
        for kind in EngineKind::all() {
            let a = heap.execute(&q.sparql, kind).unwrap();
            let b = snap.execute(&q.sparql, kind).unwrap();
            assert_eq!(
                canonical_json(a),
                canonical_json(b),
                "{} disagrees between backends on {}",
                kind,
                q.id
            );
        }
    }
    std::fs::remove_file(&path).ok();
}
