//! The LRU plan cache.
//!
//! Keys are the *canonical* normalized query text (see
//! [`turbohom_sparql::fingerprint`]) plus the engine kind — so every
//! spelling of a query shares one entry per engine, and a fingerprint hash
//! collision can never hand back the wrong plan (the full canonical text is
//! compared on lookup). There is one map per engine, keyed by the text alone,
//! so a lookup probes with the `&str` it was handed and a hit copies nothing.
//! Values are `Arc`'d [`QueryPlan`]s — on a sharded store, plans carrying
//! their routing — shared with in-flight requests so eviction never
//! invalidates a running query.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use turbohom_engine::{EngineKind, QueryPlan};

/// The cache key: canonical query text + engine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Canonical (normalized) query text.
    pub canonical: String,
    /// The engine the plan was prepared for.
    pub kind: EngineKind,
}

struct Entry {
    plan: Arc<QueryPlan>,
    /// Logical timestamp of the last hit (monotone per-cache counter).
    last_used: u64,
}

/// What [`PlanCache::insert`] did.
pub struct InsertOutcome {
    /// Whether this call stored the plan (false on races, existing entries
    /// and zero-capacity caches: the first writer wins).
    pub inserted: bool,
    /// The entry evicted to make room, if any.
    pub evicted: Option<PlanKey>,
}

struct Inner {
    /// Per engine ([`EngineKind::index`]): canonical text → entry.
    maps: [HashMap<String, Entry>; EngineKind::COUNT],
    tick: u64,
}

impl Inner {
    fn len(&self) -> usize {
        self.maps.iter().map(HashMap::len).sum()
    }
}

/// A thread-safe least-recently-used cache of prepared query plans.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (`0` disables
    /// caching: every lookup misses and nothing is stored).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            inner: Mutex::new(Inner {
                maps: Default::default(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up the plan cached for `canonical` under engine `kind`,
    /// refreshing its recency on a hit.
    pub fn get(&self, canonical: &str, kind: EngineKind) -> Option<Arc<QueryPlan>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.maps[kind.index()].get_mut(canonical) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.plan.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a plan, evicting the least-recently-used entry when full, and
    /// reports what happened so the caller can journal it. An insert under a
    /// key that is already cached (a racing thread's) keeps the first plan.
    pub fn insert(&self, key: PlanKey, plan: Arc<QueryPlan>) -> InsertOutcome {
        let not_inserted = InsertOutcome {
            inserted: false,
            evicted: None,
        };
        if self.capacity == 0 {
            return not_inserted;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.maps[key.kind.index()].contains_key(&key.canonical) {
            return not_inserted;
        }
        let mut evicted = None;
        if inner.len() >= self.capacity {
            // O(n) victim scan — plan caches are small (tens to hundreds of
            // entries), so a scan beats maintaining an intrusive list.
            let victim = EngineKind::all()
                .into_iter()
                .flat_map(|kind| {
                    let entries = inner.maps[kind.index()].iter();
                    entries.map(move |(canonical, e)| (e.last_used, kind, canonical))
                })
                .min_by_key(|&(last_used, ..)| last_used)
                .map(|(_, kind, canonical)| PlanKey {
                    canonical: canonical.clone(),
                    kind,
                });
            if let Some(victim) = victim {
                inner.maps[victim.kind.index()].remove(&victim.canonical);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                evicted = Some(victim);
            }
        }
        inner.maps[key.kind.index()].insert(
            key.canonical,
            Entry {
                plan,
                last_used: tick,
            },
        );
        InsertOutcome {
            inserted: true,
            evicted,
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Returns `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lookups that found a plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of plans evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_engine::Store;

    fn plan_for(store: &Store, q: &str) -> Arc<QueryPlan> {
        Arc::new(store.prepare_plan(q, EngineKind::TurboHomPlusPlus).unwrap())
    }

    fn key(s: &str) -> PlanKey {
        PlanKey {
            canonical: s.into(),
            kind: EngineKind::TurboHomPlusPlus,
        }
    }

    fn store() -> Store {
        Store::from_ntriples("<http://a> <http://p> <http://b> .").unwrap()
    }

    #[test]
    fn hit_miss_and_counters() {
        let store = store();
        let cache = PlanCache::new(4);
        let q = "SELECT ?x WHERE { ?x <http://p> ?y . }";
        assert!(cache.get(q, EngineKind::TurboHomPlusPlus).is_none());
        assert!(cache.insert(key(q), plan_for(&store, q)).inserted);
        assert!(cache.get(q, EngineKind::TurboHomPlusPlus).is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn engine_kind_is_part_of_the_key() {
        let store = store();
        let cache = PlanCache::new(4);
        let q = "SELECT ?x WHERE { ?x <http://p> ?y . }";
        assert!(cache.insert(key(q), plan_for(&store, q)).inserted);
        assert!(cache.get(q, EngineKind::MergeJoin).is_none());
    }

    #[test]
    fn least_recently_used_entry_is_evicted() {
        let store = store();
        let cache = PlanCache::new(2);
        let (a, b, c) = ("q-a", "q-b", "q-c");
        let q = "SELECT ?x WHERE { ?x <http://p> ?y . }";
        assert!(cache.insert(key(a), plan_for(&store, q)).inserted);
        assert!(cache.insert(key(b), plan_for(&store, q)).inserted);
        assert!(cache.get(a, EngineKind::TurboHomPlusPlus).is_some()); // refresh a → b is now LRU
        assert!(cache.insert(key(c), plan_for(&store, q)).inserted);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(a, EngineKind::TurboHomPlusPlus).is_some());
        assert!(cache.get(b, EngineKind::TurboHomPlusPlus).is_none());
        assert!(cache.get(c, EngineKind::TurboHomPlusPlus).is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn racing_insert_keeps_the_first_plan() {
        let store = store();
        let cache = PlanCache::new(2);
        let q = "SELECT ?x WHERE { ?x <http://p> ?y . }";
        let first = plan_for(&store, q);
        assert!(cache.insert(key(q), first.clone()).inserted);
        assert!(!cache.insert(key(q), plan_for(&store, q)).inserted);
        let cached = cache.get(q, EngineKind::TurboHomPlusPlus).unwrap();
        assert!(Arc::ptr_eq(&first, &cached));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn insert_reports_the_evicted_key() {
        let store = store();
        let cache = PlanCache::new(1);
        let q = "SELECT ?x WHERE { ?x <http://p> ?y . }";
        let first = cache.insert(key("a"), plan_for(&store, q));
        assert!(first.inserted);
        assert!(first.evicted.is_none());
        let second = cache.insert(key("b"), plan_for(&store, q));
        assert!(second.inserted);
        assert_eq!(second.evicted.unwrap().canonical, "a");
        // Re-inserting under an existing key stores (and evicts) nothing.
        let repeat = cache.insert(key("b"), plan_for(&store, q));
        assert!(!repeat.inserted);
        assert!(repeat.evicted.is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let store = store();
        let cache = PlanCache::new(0);
        let q = "SELECT ?x WHERE { ?x <http://p> ?y . }";
        assert!(!cache.insert(key(q), plan_for(&store, q)).inserted);
        assert!(cache.get(q, EngineKind::TurboHomPlusPlus).is_none());
        assert!(cache.is_empty());
    }
}
