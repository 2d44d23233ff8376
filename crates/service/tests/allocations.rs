//! What the service layer allocates per request. A fingerprint is one pass
//! over borrowed tokens into one `String` (plus the prefix table); a warm
//! lookup on an open connection reads, routes and answers out of the
//! connection's buffers, so beyond what `run_plan` itself allocates it costs
//! a small fixed number of allocations — whatever the number of headers and
//! the length of the query text.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use turbohom_datasets::lubm::{self, LubmConfig, LubmGenerator};
use turbohom_engine::{EngineKind, Store, Trace};
use turbohom_service::{serve_connection, QueryService};
use turbohom_sparql::fingerprint;

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

/// Allocations (and reallocations) `work` performs. The one test of this
/// file is the only code running while it counts.
fn allocations(work: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    work();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// `copies` lookups pipelined on one connection, each with `headers` extra
/// header lines.
fn lookups(sparql: &str, headers: usize, copies: usize) -> Vec<u8> {
    let extra: String = (0..headers)
        .map(|i| format!("X-Padding-{i}: {}\r\n", "v".repeat(40)))
        .collect();
    format!(
        "POST /query HTTP/1.1\r\nHost: x\r\n{extra}Content-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{sparql}",
        sparql.len()
    )
    .repeat(copies)
    .into_bytes()
}

#[test]
fn a_warm_lookup_allocates_what_run_plan_does_plus_a_fixed_few() {
    let queries = lubm::queries();
    let (q1, q9) = (&queries[0].sparql, &queries[8].sparql);
    for (name, text) in [("Q1", q1), ("Q9", q9)] {
        let mut canonical_len = 0;
        let count = allocations(|| canonical_len = fingerprint(text).unwrap().canonical.len());
        assert!(canonical_len > 100, "{name}");
        assert!(count <= 2, "fingerprint of {name}: {count} allocations");
    }

    let dataset = LubmGenerator::new(LubmConfig::scale(1)).generate();
    let store = Arc::new(Store::from_dataset(dataset));
    let plan = store
        .prepare_plan(q1, EngineKind::TurboHomPlusPlus)
        .unwrap();
    let run = |trace: &Trace| store.run_plan_traced(&plan, None, trace).unwrap().len();
    assert!(run(&Trace::disabled()) > 0);
    let run_plan = allocations(|| {
        run(&Trace::new(1));
    });

    let service = QueryService::new(Arc::clone(&store));
    let mut output = Vec::with_capacity(1 << 20);
    // Warm the plan cache, the journal's ring and the output buffer.
    serve_connection(&lookups(q1, 0, 300)[..], &mut output, &service, false);
    // Per request: a connection carrying ten against one carrying two. (A
    // connection of its own costs its buffers.)
    let mut per_request = |sparql: &str, headers: usize| {
        let [two, ten] = [2, 10].map(|copies| {
            let wire = lookups(sparql, headers, copies);
            output.clear();
            let count = allocations(|| serve_connection(&wire[..], &mut output, &service, false));
            let responses = String::from_utf8_lossy(&output);
            assert_eq!(responses.matches("HTTP/1.1 200 OK").count(), copies);
            assert_eq!(responses.matches("X-Cache: HIT").count(), copies);
            count
        });
        assert_eq!((ten - two) % 8, 0, "{two} and {ten} allocations");
        (ten - two) / 8
    };
    let plain = per_request(q1, 0);
    assert!(
        plain <= run_plan + 16,
        "{plain} allocations for a warm lookup against {run_plan} for its run_plan"
    );
    let many_headers = per_request(q1, 40);
    let long_text = format!("# {}\n{}", "a comment ".repeat(400), q1.replace(' ', "   "));
    let long_query = per_request(&long_text, 0);
    // (A padded text leaves the canonical one room, which saves its regrowth.)
    assert!(
        many_headers == plain && long_query <= plain,
        "{many_headers} with 40 headers and {long_query} for a long text against {plain}: \
         allocations must not grow with the headers or the query text"
    );
}
