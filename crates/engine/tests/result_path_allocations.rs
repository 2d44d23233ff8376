//! The result path allocates nothing per row or per cell: executing a type
//! scan to id rows, sorting them into the canonical order and serialising
//! them costs a constant number of allocations (plus buffer doublings) more
//! than a count-only run, which does the same matching — the matcher's own
//! per-region work — and materialises nothing.

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

#[test]
fn executing_and_serialising_a_scan_allocates_nothing_per_row() {
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
        let mut sink = Discard(0);
        let result_path = allocations(|| {
            let results = store
                .run_plan_traced(&plan, None, &Trace::disabled())
                .unwrap();
            assert_eq!(results.row_count(), n);
            results.write_sparql_json(&mut sink, None).unwrap();
        });
        assert!(sink.0 > n * 60, "{} bytes for {n} rows", sink.0);
        let allowed = baseline + 64 + n / 64;
        assert!(
            result_path <= allowed,
            "{n} rows: {result_path} allocations against {baseline} for the count-only run"
        );
    }
}
