//! Neither the matcher nor the result path allocates per candidate region,
//! per row or per cell. A count-only run — parse, transform, one candidate
//! region per start vertex, nothing materialised — costs a constant number
//! of allocations plus buffer doublings, whether a region is a single vertex
//! or two triangles joined at it; executing the scan to id rows, sorting
//! them into the canonical order and serialising them costs a constant
//! number (plus doublings) more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use turbohom_core::TurboHomConfig;
use turbohom_engine::{EngineKind, Store, Trace};
use turbohom_rdf::{vocab, Dataset};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) `work` performs on this thread's behalf.
/// The one test of this file is the only code running while it counts.
fn allocations(work: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    work();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// A sink that keeps nothing, so the response costs it no allocation.
struct Discard(usize);

impl Write for Discard {
    fn write(&mut self, piece: &[u8]) -> io::Result<usize> {
        self.0 += piece.len();
        Ok(piece.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

const SCAN: &str = "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/Student> . }";

const TWO_TRIANGLES: &str = "PREFIX ex: <http://ex.org/> \
    SELECT * WHERE { ?h a ex:Hub . \
    ?h ex:a ?l1 . ?l1 ex:b ?l2 . ?l2 ex:c ?h . \
    ?h ex:d ?r1 . ?r1 ex:e ?r2 . ?r2 ex:f ?h . }";

#[test]
fn matching_and_serialising_allocate_nothing_per_region_or_row() {
    for n in [1_000usize, 16_000] {
        let mut dataset = Dataset::new();
        for i in 0..n {
            dataset.insert_iris(
                &format!("http://ex.org/dept{}/student{i}", i % 16),
                vocab::RDF_TYPE,
                "http://ex.org/Student",
            );
        }
        let store = Store::from_dataset(dataset);
        let plan = store
            .prepare_plan(SCAN, EngineKind::TurboHomPlusPlus)
            .unwrap();
        let count_only = TurboHomConfig {
            count_only: true,
            ..store.default_config()
        };
        // Warm both paths once (the plan memoizes its matching order).
        assert_eq!(store.run_plan(&plan).unwrap().len(), n);

        let baseline = allocations(|| {
            let counted = store.execute_turbohom(SCAN, count_only, false).unwrap();
            assert_eq!(counted.len(), n);
        });
        assert!(
            baseline <= 64 + n / 64,
            "{n} single-vertex regions: {baseline} allocations for the count-only run"
        );
        let mut sink = Discard(0);
        let result_path = allocations(|| {
            let results = store
                .run_plan_traced(&plan, None, &Trace::disabled())
                .unwrap();
            assert_eq!(results.row_count(), n);
            results
                .write_sparql_json(&mut sink, &mut Vec::new(), None)
                .unwrap();
        });
        assert!(sink.0 > n * 60, "{} bytes for {n} rows", sink.0);
        let allowed = baseline + 64 + n / 64;
        assert!(
            result_path <= allowed,
            "{n} rows: {result_path} allocations against {baseline} for the count-only run"
        );
    }
    // Regions with an inside: every hub closes two triangles, so each region
    // has four tree children and two non-tree edges to intersect for. Parsing
    // and transforming the seven patterns is most of the count; sixteen times
    // the regions must add next to nothing to it.
    let counts = [1_000usize, 16_000].map(|n| {
        let mut dataset = Dataset::new();
        for i in 0..n {
            let node = |role: &str| format!("http://ex.org/{role}{i}");
            dataset.insert_iris(&node("hub"), vocab::RDF_TYPE, "http://ex.org/Hub");
            for (from, edge, to) in [
                ("hub", "a", "left1"),
                ("left1", "b", "left2"),
                ("left2", "c", "hub"),
                ("hub", "d", "right1"),
                ("right1", "e", "right2"),
                ("right2", "f", "hub"),
            ] {
                dataset.insert_iris(&node(from), &format!("http://ex.org/{edge}"), &node(to));
            }
        }
        let store = Store::from_dataset(dataset);
        let count_only = TurboHomConfig {
            count_only: true,
            ..store.default_config()
        };
        allocations(|| {
            let counted = store
                .execute_turbohom(TWO_TRIANGLES, count_only, false)
                .unwrap();
            assert_eq!(counted.len(), n);
            assert_eq!(counted.stats.candidate_regions, n);
            assert_eq!(counted.stats.intersection_ops, 2 * n);
        })
    });
    assert!(
        counts[0] <= 512 && counts[1] <= counts[0] + 16,
        "{counts:?} allocations for the count-only run over 1k and 16k two-triangle regions"
    );
}
