//! BSBM Q5 is a branch of two components: `<product>`'s two property values
//! (one row) and every product's (one row each). TurboHOM++ matches the
//! constant side first and, when it yields one row, matches the other
//! component once with that row bound, its join-condition FILTERs turned into
//! inline checks. These tests hold that bound run to the join baselines on
//! heap and snapshot stores at one and two threads, to the order of the
//! unfiltered component filtered by hand where enumeration order is defined,
//! to their own unlimited answer under a LIMIT and an OFFSET, and to the
//! counters and spans that show the mechanism;
//! a side of no row or of two rows takes the empty answer or the cartesian
//! product instead.

use std::num::NonZeroUsize;
use turbohom_bench::{bsbm_store, canonical_json};
use turbohom_datasets::bsbm::{self, BSBM, INST};
use turbohom_engine::{EngineKind, MatchStats, QueryResults, Store, Trace};
use turbohom_rdf::{vocab, Dataset, Term};

const PLUS: EngineKind = EngineKind::TurboHomPlusPlus;

fn prologue() -> String {
    format!("PREFIX bsbm: <{BSBM}> ")
}

/// Q5's shape for `product`, with `filters` as its FILTERs.
fn q5(product: &str, filters: &str) -> String {
    format!(
        "{}SELECT ?product WHERE {{ ?product a bsbm:Product . \
           <{product}> bsbm:propertyNum1 ?orig1 . ?product bsbm:propertyNum1 ?p1 . \
           <{product}> bsbm:propertyNum2 ?orig2 . ?product bsbm:propertyNum2 ?p2 . {filters} }}",
        prologue()
    )
}

/// The constant side of [`q5`] alone.
fn constant_side(product: &str) -> String {
    format!(
        "{}SELECT ?orig1 ?orig2 WHERE {{ \
           <{product}> bsbm:propertyNum1 ?orig1 . <{product}> bsbm:propertyNum2 ?orig2 . }}",
        prologue()
    )
}

/// The other component of [`q5`] alone, unfiltered.
fn every_product() -> String {
    format!(
        "{}SELECT ?product ?p1 ?p2 WHERE {{ ?product a bsbm:Product . \
           ?product bsbm:propertyNum1 ?p1 . ?product bsbm:propertyNum2 ?p2 . }}",
        prologue()
    )
}

/// A FILTER set of [`q5`] and the test's own reading of it over
/// `(p1, p2, orig1, orig2)`.
type Filters = (&'static str, fn(i64, i64, i64, i64) -> bool);

const FILTERS: [Filters; 3] = [
    (
        "FILTER (?p1 < ?orig1 + 300 && ?p1 > ?orig1 - 300) \
         FILTER (?p2 < ?orig2 + 300 && ?p2 > ?orig2 - 300)",
        |p1, p2, o1, o2| p1 < o1 + 300 && p1 > o1 - 300 && p2 < o2 + 300 && p2 > o2 - 300,
    ),
    (
        "FILTER (?p1 < ?orig1 - 500 || ?p1 > ?orig1 + 500)",
        |p1, _, o1, _| p1 < o1 - 500 || p1 > o1 + 500,
    ),
    // `!` on one vertex, and a join condition that still reads two unbound
    // variables after the bind: it waits for complete rows.
    (
        "FILTER (!(?p2 > ?orig2)) FILTER (?p1 + ?p2 > ?orig1 + ?orig2)",
        |p1, p2, o1, o2| p2 <= o2 && p1 + p2 > o1 + o2,
    ),
];

fn product(name: &str) -> String {
    format!("{INST}{name}")
}

/// Ten products with spread-out property values, one without
/// `propertyNum2` (`Lonely`) and one with two `propertyNum1` values
/// (`Twin`).
fn hand_made() -> Store {
    let mut ds = Dataset::new();
    let (a, class) = (
        Term::iri(vocab::RDF_TYPE),
        Term::iri(format!("{BSBM}Product")),
    );
    let num = |n: u8| Term::iri(format!("{BSBM}propertyNum{n}"));
    let mut add = |name: &str, num1: &[i64], num2: &[i64]| {
        let p = Term::iri(product(name));
        ds.insert(&p, &a, &class);
        for &v in num1 {
            ds.insert(&p, &num(1), &Term::integer(v));
        }
        for &v in num2 {
            ds.insert(&p, &num(2), &Term::integer(v));
        }
    };
    for i in 0..10 {
        add(&format!("P{i}"), &[100 * i], &[1000 - 90 * i]);
    }
    add("Lonely", &[500], &[]);
    add("Twin", &[300, 700], &[400]);
    Store::from_dataset(ds)
}

/// `store` and a snapshot of it, read back.
fn heap_and_snapshot(store: Store, name: &str) -> [Store; 2] {
    let dir = std::env::temp_dir().join("turbohom-bench-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("bound-branch-{name}-{}.snap", std::process::id()));
    store.save_snapshot(&path).unwrap();
    let snapshot = Store::from_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();
    [store, snapshot]
}

fn run(store: &Store, sparql: &str, kind: EngineKind, threads: usize) -> QueryResults {
    let plan = store.prepare_plan(sparql, kind).unwrap();
    let trace = Trace::disabled();
    store
        .run_plan_traced(&plan, NonZeroUsize::new(threads).unwrap(), &trace)
        .unwrap()
        .decode()
}

/// [`run`] of TurboHOM++ under a detailed trace, which shows the pass of
/// the FILTERs that wait for complete rows, where one ran, as
/// `materialise`'s `post_filters` child with the rows it removed.
fn run_traced(store: &Store, sparql: &str, threads: usize) -> QueryResults {
    let plan = store.prepare_plan(sparql, PLUS).unwrap();
    let trace = Trace::detailed(1);
    let results = store
        .run_plan_traced(&plan, NonZeroUsize::new(threads).unwrap(), &trace)
        .unwrap();
    let spans = trace.finish().spans;
    let materialise = spans.iter().find(|s| s.name == "materialise").unwrap();
    let filtered = results.stats.filtered_post as u64;
    match spans.iter().find(|s| s.name == "post_filters") {
        Some(pass) => {
            assert_eq!(pass.parent, Some(materialise.id), "{sparql}");
            assert_eq!(pass.counters, [("filtered", filtered)], "{sparql}");
        }
        None => assert_eq!(filtered, 0, "{sparql}"),
    }
    results.decode()
}

fn integer(cell: &Option<Term>) -> i64 {
    cell.as_ref()
        .and_then(Term::as_integer)
        .expect("an integer")
}

/// The products [`every_product`] enumerates at one thread whose values
/// `keep` accepts against `product`'s, in that order; `None` unless
/// `product` has exactly one pair of values.
fn filtered_by_hand(
    store: &Store,
    product: &str,
    keep: fn(i64, i64, i64, i64) -> bool,
) -> Option<Vec<Term>> {
    let side = run(store, &constant_side(product), PLUS, 1);
    let [row] = side.rows.as_slice() else {
        return None;
    };
    let (o1, o2) = (integer(&row[0]), integer(&row[1]));
    let all = run(store, &every_product(), PLUS, 1);
    let kept = all
        .rows
        .iter()
        .filter(|r| keep(integer(&r[1]), integer(&r[2]), o1, o2));
    Some(kept.map(|r| r[0].clone().unwrap()).collect())
}

/// Runs `sparql` at one thread under a detailed trace: the products it
/// returns, in enumeration order, and how many start vertices its last match
/// (that of the bound component) started from.
fn products_and_starts(store: &Store, sparql: &str) -> (Vec<Term>, u64) {
    let plan = store.prepare_plan(sparql, PLUS).unwrap();
    let trace = Trace::detailed(1);
    let results = store
        .run_plan_traced(&plan, NonZeroUsize::MIN, &trace)
        .unwrap();
    let spans = trace.finish().spans;
    let start = spans.iter().rfind(|s| s.name == "start_vertex").unwrap();
    let starts = start
        .counters
        .iter()
        .find(|(name, _)| *name == "candidates");
    let rows = results.decode().rows;
    let products = rows.into_iter().map(|mut r| r[0].take().unwrap());
    (products.collect(), starts.unwrap().1)
}

/// Every engine returns the same rows on both stores at one and two threads;
/// at one thread a bound TurboHOM++ run returns the hand-filtered products,
/// and so does one capped by a LIMIT of as many rows. Under `LIMIT 2` and
/// `LIMIT 2 OFFSET 1` TurboHOM++ returns its unlimited answer's window, and
/// the pass after the match removes as many rows. Where the run is the
/// unlimited one's, it returns the very rows at the window's positions:
/// at one thread, under an OFFSET or with a FILTER that waits for complete
/// rows. Otherwise (the pool's order, or a capped run's own start vertex)
/// it returns as many rows of that answer. Returns the TurboHOM++ result at
/// one thread on the heap store.
fn check(stores: &[Store; 2], product: &str, filters: Filters) -> QueryResults {
    let sparql = q5(product, filters.0);
    let expected = canonical_json(stores[0].execute(&sparql, EngineKind::MergeJoin).unwrap());
    for (store, flavour) in stores.iter().zip(["heap", "snapshot"]) {
        for threads in [1, 2] {
            for kind in EngineKind::all() {
                let got = canonical_json(run(store, &sparql, kind, threads));
                assert_eq!(got, expected, "{kind} {flavour} threads={threads} {sparql}");
            }
            let all = run_traced(store, &sparql, threads);
            for (window, offset) in [(" LIMIT 2", 0), (" LIMIT 2 OFFSET 1", 1)] {
                let windowed = format!("{sparql}{window}");
                let case = format!("{flavour} threads={threads} {windowed}");
                let got = run_traced(store, &windowed, threads);
                let kept = all.rows.iter().skip(offset).take(2);
                assert_eq!(got.rows.len(), kept.len(), "{case}");
                let same_run = offset > 0 || all.stats.filtered_post > 0;
                if threads == 1 && same_run {
                    assert!(got.rows.iter().eq(kept), "{case}");
                } else {
                    assert!(got.rows.iter().all(|r| all.rows.contains(r)), "{case}");
                }
                let filtered = (got.stats.filtered_post, all.stats.filtered_post);
                assert_eq!(filtered.0, filtered.1, "{case}");
            }
        }
        let Some(by_hand) = filtered_by_hand(store, product, filters.1) else {
            continue;
        };
        // Enumeration order is only defined for one start vertex. The bound
        // run's selection counts its inline FILTERs, the unfiltered
        // component's has none: where that moved the start, the rows are
        // compared as a multiset (since start-vertex selection counts inline
        // FILTERs). A capped run chooses without them, unless a FILTER left
        // for complete solutions lifts the cap.
        let (_, unfiltered) = products_and_starts(store, &every_product());
        let limited = format!("{sparql} LIMIT {}", by_hand.len().max(1));
        for sparql in [&sparql, &limited] {
            let (mut rows, starts) = products_and_starts(store, sparql);
            let mut by_hand = by_hand.clone();
            if starts != unfiltered {
                rows.sort();
                by_hand.sort();
            }
            assert_eq!(rows, by_hand, "{flavour} {sparql}");
        }
    }
    stores[0].execute(&sparql, PLUS).unwrap()
}

#[test]
fn a_one_row_constant_side_is_bound_into_the_other_component() {
    let stores = heap_and_snapshot(bsbm_store(2), "bsbm2");
    for filters in FILTERS {
        let mut rows = 0;
        for name in ["Product1", "Product7", "Product150"] {
            let got = check(&stores, &product(name), filters);
            // Every FILTER set has one that names a single product vertex:
            // it ran inline, which the product of two components never does.
            assert!(got.stats.filtered_inline > 0, "{name} {}", filters.0);
            rows += got.len();
        }
        assert!(rows > 0, "{}", filters.0);
    }
    // A constant that is not in the data: nothing is matched.
    for filters in FILTERS {
        let got = check(&stores, &product("Product99999"), filters);
        assert!(got.is_empty());
        assert_eq!(got.stats, MatchStats::default());
    }
}

#[test]
fn a_side_of_no_row_or_two_rows_is_not_bound() {
    let stores = heap_and_snapshot(hand_made(), "hand-made");
    for filters in FILTERS {
        for name in ["P2", "P7"] {
            let got = check(&stores, &product(name), filters);
            assert!(got.stats.filtered_inline > 0, "{name} {}", filters.0);
        }
        // `Lonely` has no `propertyNum2`: the branch is empty, and the other
        // component is never matched.
        let lonely = product("Lonely");
        let got = check(&stores, &lonely, filters);
        assert!(got.is_empty());
        let side = stores[0].execute(&constant_side(&lonely), PLUS).unwrap();
        assert_eq!(side.len(), 0);
        assert_eq!(got.stats.candidate_regions, side.stats.candidate_regions);
        assert_eq!(got.stats.candidate_vertices, side.stats.candidate_vertices);
        // `Twin` has two `propertyNum1` values: the cartesian product, whose
        // FILTERs run after it and count what they remove.
        let got = check(&stores, &product("Twin"), filters);
        assert_eq!(got.stats.filtered_inline, 0, "{}", filters.0);
        let every = stores[0].execute(&every_product(), PLUS).unwrap().len();
        assert_eq!(
            got.stats.filtered_post,
            2 * every - got.len(),
            "{}",
            filters.0
        );
    }
}

/// The mechanism on BSBM(2)'s Q5: no row reaches a FILTER after the match,
/// and the bound run grows and searches less than matching both components
/// in full, which is what the cartesian product did.
#[test]
fn bsbm_q5_checks_its_join_conditions_inline() {
    let store = bsbm_store(2);
    let query = &bsbm::queries()[4];
    assert_eq!(query.id, "Q5");
    let bound = store.execute(&query.sparql, PLUS).unwrap();
    let anchor = product("Product1");
    let side = store.execute(&constant_side(&anchor), PLUS).unwrap();
    let every = store.execute(&every_product(), PLUS).unwrap();
    let product_path = MatchStats {
        candidate_vertices: side.stats.candidate_vertices + every.stats.candidate_vertices,
        search_recursions: side.stats.search_recursions + every.stats.search_recursions,
        ..MatchStats::default()
    };
    eprintln!(
        "Q5 at BSBM(2): candidate_vertices {} (both components in full: {}), \
         search_recursions {} ({}), filtered_inline {}, filtered_post {}, rows {}",
        bound.stats.candidate_vertices,
        product_path.candidate_vertices,
        bound.stats.search_recursions,
        product_path.search_recursions,
        bound.stats.filtered_inline,
        bound.stats.filtered_post,
        bound.len(),
    );
    assert_eq!(bound.stats.filtered_post, 0);
    assert!(bound.stats.filtered_inline > 0);
    assert!(bound.stats.candidate_vertices < product_path.candidate_vertices);
    assert!(bound.stats.search_recursions < product_path.search_recursions);
    // A start vertex the root's FILTER turns down grows no region.
    let grown = side.stats.nonempty_regions + every.stats.nonempty_regions;
    assert!(bound.stats.nonempty_regions < grown);
    assert!(!bound.is_empty() && bound.len() < every.len());

    // The LIMIT reaches the bound match: its first rows, found with less
    // search. EXPLAIN cannot know the bind, which is decided by a run. A
    // capped run chooses its start vertex without counting inline FILTERs,
    // as the unfiltered component does, so its rows are the first
    // hand-filtered ones (Q5's FILTERs are the first set).
    let limited = format!("{} LIMIT 5", query.sparql);
    let plan = store.prepare_plan(&limited, PLUS).unwrap();
    assert!(!store.explain(&plan).limit_pushdown);
    let first = store.run_plan(&plan).unwrap();
    let by_hand = filtered_by_hand(&store, &anchor, FILTERS[0].1).unwrap();
    let products: Vec<Term> = first.rows.iter().map(|r| r[0].clone().unwrap()).collect();
    assert_eq!(products, by_hand[..5]);
    assert!(first.stats.search_recursions < bound.stats.search_recursions);
}
