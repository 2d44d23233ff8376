//! Neither the matcher nor the result path allocates per candidate region,
//! per row or per cell. A count-only run — parse, transform, one candidate
//! region per start vertex, nothing materialised — costs a constant number
//! of allocations plus buffer doublings, whether a region is a single vertex
//! or two triangles joined at it; executing the scan to id rows and
//! serialising them costs a constant number (plus doublings) more, and no
//! bytes beyond the id rows and the writer's buffer. Nothing reorders the
//! rows on the way: an unlimited scan leaves in enumeration order.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Write};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use turbohom_core::TurboHomConfig;
use turbohom_engine::{EngineKind, Store, Trace};
use turbohom_rdf::{vocab, Dataset, Term};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// Held by each test while it runs: the counters are process-wide.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    // The other test having failed is no reason for this one to.
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) `work` performs, and the bytes they ask
/// for. The caller runs [`alone`], so nothing else runs meanwhile.
fn allocations(work: impl FnOnce()) -> (usize, usize) {
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    work();
    (
        ALLOCATIONS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
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

/// `n` students over 16 departments.
fn student_store(n: usize) -> Store {
    let mut dataset = Dataset::new();
    for i in 0..n {
        dataset.insert_iris(
            &format!("http://ex.org/dept{}/student{i}", i % 16),
            vocab::RDF_TYPE,
            "http://ex.org/Student",
        );
    }
    Store::from_dataset(dataset)
}

#[test]
fn an_unlimited_scan_leaves_in_enumeration_order() {
    let _alone = alone();
    // Students in 16 departments. The scan starts at the smaller side, the
    // departments, so its rows come grouped by department: not sorted by
    // student, though ids are in IRI order.
    let mut dataset = Dataset::new();
    for i in 0..16_000 {
        let student = format!("http://ex.org/student{i}");
        dataset.insert_iris(&student, vocab::RDF_TYPE, "http://ex.org/Student");
        let dept = format!("http://ex.org/dept{}", i % 16);
        dataset.insert_iris(&student, "http://ex.org/memberOf", &dept);
    }
    let store = Store::from_dataset(dataset);
    let members = "SELECT ?x ?d WHERE { ?x a <http://ex.org/Student> . \
        ?x <http://ex.org/memberOf> ?d . }";
    let kind = EngineKind::TurboHomPlusPlus;
    // A LIMIT no result reaches stops nothing early and reorders nothing.
    let enumerated = store
        .execute(&format!("{members} LIMIT 1000000000"), kind)
        .unwrap();
    let unlimited = store.execute(members, kind).unwrap();
    assert_eq!(unlimited.rows.len(), 16_000);
    assert!(unlimited.rows == enumerated.rows, "the scan was reordered");
    let mut sorted = unlimited.rows.clone();
    sorted.sort();
    assert!(sorted != unlimited.rows, "the rows come sorted here");
}

#[test]
fn matching_and_serialising_allocate_nothing_per_region_or_row() {
    let _alone = alone();
    for n in [1_000usize, 16_000] {
        let store = student_store(n);
        let plan = store
            .prepare_plan(SCAN, EngineKind::TurboHomPlusPlus)
            .unwrap();
        let count_only = TurboHomConfig {
            count_only: true,
            ..store.default_config()
        };
        // Warm both paths once (the plan memoizes its matching order).
        assert_eq!(store.run_plan(&plan).unwrap().len(), n);

        let (baseline, _) = allocations(|| {
            let counted = store.execute_turbohom(SCAN, count_only, false).unwrap();
            assert_eq!(counted.len(), n);
        });
        assert!(
            baseline <= 64 + n / 64,
            "{n} single-vertex regions: {baseline} allocations for the count-only run"
        );
        let mut sink = Discard(0);
        let (result_path, result_path_bytes) = allocations(|| {
            let results = store
                .run_plan_traced(&plan, NonZeroUsize::MIN, &Trace::disabled())
                .unwrap();
            assert_eq!(results.row_count(), n);
            results
                .write_sparql_json(&mut sink, &mut Vec::new(), None)
                .unwrap();
        });
        assert!(sink.0 > n * 60, "{} bytes for {n} rows", sink.0);
        assert!(
            result_path <= 64,
            "{n} rows: {result_path} allocations against {baseline} for the count-only run"
        );
        // The matched and the projected ids (a `u32` per row each, the
        // first grown by doubling) and the writer's 64 KB buffer: there is
        // no room here for anything else that grows with the rows.
        assert!(
            result_path_bytes <= 12 * n + 96 * 1024,
            "{n} rows: {result_path_bytes} bytes allocated on the result path"
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
        let (count, _) = allocations(|| {
            let counted = store
                .execute_turbohom(TWO_TRIANGLES, count_only, false)
                .unwrap();
            assert_eq!(counted.len(), n);
            assert_eq!(counted.stats.candidate_regions, n);
            assert_eq!(counted.stats.intersection_ops, 2 * n);
        });
        count
    });
    assert!(
        counts[0] <= 512 && counts[1] <= counts[0] + 16,
        "{counts:?} allocations for the count-only run over 1k and 16k two-triangle regions"
    );
}

/// `n` students, each with a score and a label that are its number.
fn labelled_student_store(n: usize) -> Store {
    let mut dataset = Dataset::new();
    let (score, label) = (
        Term::iri("http://ex.org/score"),
        Term::iri("http://ex.org/label"),
    );
    for i in 0..n {
        let student = format!("http://ex.org/student{i}");
        dataset.insert_iris(&student, vocab::RDF_TYPE, "http://ex.org/Student");
        let student = Term::iri(student);
        dataset.insert(&student, &score, &Term::integer(i as i64));
        dataset.insert(
            &student,
            &label,
            &Term::literal(format!("student number {i}")),
        );
    }
    Store::from_dataset(dataset)
}

#[test]
fn filters_allocate_nothing_per_row() {
    let _alone = alone();
    let prologue = "PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Student . ";
    let shapes = [
        // Cheap: evaluated at ?s, ?l while the regions grow.
        (
            "an inline numeric FILTER",
            "?x ex:score ?s . FILTER (?s >= 800) }",
        ),
        (
            "an inline regex FILTER",
            "?x ex:label ?l . FILTER regex(?l, \"number 1.*7\") }",
        ),
        // Expensive: evaluated over the complete solutions.
        (
            "a post-hoc FILTER over two variables",
            "?x ex:score ?s . ?x ex:label ?l . FILTER (?s >= 800 || regex(?l, \"7$\")) }",
        ),
        // BSBM Q5's shape: the product of two components, filtered after.
        (
            "a two-variable FILTER over two components",
            "?x ex:score ?s . <http://ex.org/student500> ex:score ?mid . FILTER (?s < ?mid) }",
        ),
    ];
    let stores = [1_000usize, 16_000].map(|n| (n, labelled_student_store(n)));
    for (shape, body) in shapes {
        let query = format!("{prologue}{body}");
        let counts = stores.each_ref().map(|(n, store)| {
            let plan = store
                .prepare_plan(&query, EngineKind::TurboHomPlusPlus)
                .unwrap();
            // Warm the plan's memoized matching orders.
            let rows = store.run_plan(&plan).unwrap().len();
            assert!(rows > 0 && rows < *n, "{shape}: {rows} of {n} rows kept");
            let (count, _) = allocations(|| {
                let results = store
                    .run_plan_traced(&plan, NonZeroUsize::MIN, &Trace::disabled())
                    .unwrap();
                assert_eq!(results.row_count(), rows);
            });
            count
        });
        // Sixteen times the rows: four more doublings of the row buffers.
        assert!(
            counts[1] <= counts[0] + 12,
            "{shape}: {counts:?} allocations over 1k and 16k rows"
        );
    }
}
