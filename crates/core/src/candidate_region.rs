//! `ExploreCandidateRegion` (paper Section 2.2 / 4.2).
//!
//! Starting from one qualifying data vertex for the starting query vertex,
//! the data graph is explored depth-first *following the query tree
//! topology*: the candidates of a child query vertex are looked up in the
//! adjacency of its parent's data vertex, constrained by edge label, vertex
//! labels and (optionally) the degree and NLF filters. A child that is part
//! of the *required* query with no candidates kills the whole region; a
//! child inside an OPTIONAL clause merely records an empty candidate list
//! (the nullify-and-keep-searching strategy of Section 5.1).
//!
//! A query explores one region per start vertex, thousands of them in a
//! join, so a [`CandidateRegion`] is an arena: every candidate list lies in
//! one pool, and exploring the next region reuses what the last one
//! allocated. What does not change from region to region — the query, its
//! tree, the per-vertex filters — is the [`RegionExplorer`].
//!
//! With `+SUM` the explorer also reads the predicate index's schema summary,
//! once: a child's adjacency list is selected by its labels *minus* those the
//! tree edge's predicate implies (every `advisor` subject is a `Student`, so
//! the untyped list is the typed one, three dependent loads sooner), and a
//! candidate is asked for the predicates the query needs of it — one AND
//! against its 64-bit signature — before the region descends into it.
//!
//! A candidate must also pass the inline FILTERs of its query vertex
//! ([`FilterSplit`]) to be let in, so a region holds only what the search can
//! bind, and a region a FILTER empties is dead. The start vertex has passed
//! its own when start-vertex selection tested them; otherwise it is tested
//! here too.

use crate::config::{MatchSemantics, TurboHomConfig};
use crate::engine::FilterSplit;
use crate::filters::VertexFilter;
use crate::query_tree::QueryTree;
use crate::stats::MatchStats;
use turbohom_graph::{signature_bit, VLabel, VertexId};
use turbohom_transform::{TransformedGraph, TransformedQuery};

/// Where one candidate list `CR(u, v)` lies in the pool.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// `(u, v)` packed, see [`SpanIndex::key`].
    key: u64,
    start: usize,
    len: usize,
    /// The generation that wrote the slot; a slot of any other generation is
    /// free.
    stamp: u32,
}

/// `(query vertex, parent data vertex) → span of the pool`: a linear-probing
/// table whose slots are live only for the generation that wrote them, so
/// forgetting a region is one increment. The keys are ids this program
/// assigned, multiplied by an odd constant — no hasher to set up per region.
#[derive(Debug, Clone, Default)]
struct SpanIndex {
    /// Empty or a power of two long, at most half full.
    slots: Vec<Slot>,
    generation: u32,
    live: usize,
}

impl SpanIndex {
    const MIN_SLOTS: usize = 64;

    fn key(u: usize, parent: VertexId) -> u64 {
        (u as u64) << 32 | u64::from(parent.0)
    }

    /// Forgets every entry.
    fn clear(&mut self) {
        self.live = 0;
        if self.generation == u32::MAX {
            // The counter wraps: stamps of 2^32 regions ago would be live.
            self.slots.fill(Slot::default());
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// The slot holding `key`, or the free one it would be written to. The
    /// table must not be empty.
    fn probe(&self, key: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize;
        while self.slots[i].stamp == self.generation && self.slots[i].key != key {
            i = (i + 1) & (self.slots.len() - 1);
        }
        i
    }

    fn get(&self, key: u64) -> Option<&Slot> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = &self.slots[self.probe(key)];
        (slot.stamp == self.generation).then_some(slot)
    }

    /// The slot of `key`, added with an empty span if it is new.
    fn entry(&mut self, key: u64) -> &mut Slot {
        if (self.live + 1) * 2 > self.slots.len() {
            let doubled = (self.slots.len() * 2).max(Self::MIN_SLOTS);
            let old = std::mem::replace(&mut self.slots, vec![Slot::default(); doubled]);
            for slot in old.into_iter().filter(|s| s.stamp == self.generation) {
                let i = self.probe(slot.key);
                self.slots[i] = slot;
            }
        }
        let i = self.probe(key);
        if self.slots[i].stamp != self.generation {
            self.live += 1;
            self.slots[i] = Slot {
                key,
                start: 0,
                len: 0,
                stamp: self.generation,
            };
        }
        &mut self.slots[i]
    }
}

/// The candidate region rooted at one starting data vertex.
///
/// `CR(u, v)` — the candidate data vertices of query vertex `u` that are
/// adjacent to `v`, where `v` is a candidate of `u`'s query-tree parent —
/// is a span of one pool, found through an index keyed by `(u, v)`. A
/// region is grown by [`RegionExplorer::explore`], which may be called again
/// and again on the same value: each call forgets the previous region and
/// keeps its buffers.
#[derive(Debug, Clone)]
pub struct CandidateRegion {
    /// The starting data vertex this region was grown from.
    pub start_vertex: VertexId,
    /// Every candidate list of the region, one after the other.
    pool: Vec<VertexId>,
    index: SpanIndex,
    /// Total candidate vertices per query vertex (used to pick the matching
    /// order).
    counts: Vec<usize>,
    /// Exploration scratch: the qualified candidates of the lists still
    /// being built, the innermost list on top.
    staging: Vec<VertexId>,
    /// Exploration scratch: the data vertices on the current path (kept
    /// under the isomorphism semantics only).
    path: Vec<VertexId>,
}

impl Default for CandidateRegion {
    fn default() -> Self {
        CandidateRegion {
            start_vertex: VertexId(0),
            pool: Vec::new(),
            index: SpanIndex::default(),
            counts: Vec::new(),
            staging: Vec::new(),
            path: Vec::new(),
        }
    }
}

impl CandidateRegion {
    /// The candidates `CR(u, parent_vertex)`, empty if none were recorded.
    pub fn candidates(&self, u: usize, parent_vertex: VertexId) -> &[VertexId] {
        match self.index.get(SpanIndex::key(u, parent_vertex)) {
            Some(slot) => &self.pool[slot.start..slot.start + slot.len],
            None => &[],
        }
    }

    /// Total number of candidate vertices recorded for query vertex `u`
    /// across all parents (the paper's `|CR_vs(u)|`).
    pub fn count(&self, u: usize) -> usize {
        self.counts.get(u).copied().unwrap_or(0)
    }

    /// Every query vertex's [`count`](Self::count), indexed by query vertex.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total number of candidate vertices in the region.
    pub fn total_candidates(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Forgets the region held, keeping every buffer, and starts the one
    /// rooted at `start` for a query of `vertices` vertices.
    fn reset(&mut self, vertices: usize, start: VertexId) {
        self.start_vertex = start;
        self.pool.clear();
        self.index.clear();
        self.counts.clear();
        self.counts.resize(vertices, 0);
        self.staging.clear();
        self.path.clear();
    }

    /// Records the tail of the pool, `pool[from..]`, as `CR(u, parent)`. The
    /// exploration reaches the same `(u, parent)` once per path to `parent`
    /// and the last visit wins; its list goes where the previous one lay if
    /// it fits, so that revisits do not grow the pool.
    fn record(&mut self, u: usize, parent: VertexId, from: usize) {
        let len = self.pool.len() - from;
        let slot = self.index.entry(SpanIndex::key(u, parent));
        if len <= slot.len {
            self.pool.copy_within(from.., slot.start);
            self.pool.truncate(from);
        } else {
            slot.start = from;
        }
        slot.len = len;
        self.counts[u] += len;
    }
}

/// What every candidate region of one run is grown from: the data, the
/// query with its tree, the run's FILTERs, and the filter of each query
/// vertex, derived here once.
pub struct RegionExplorer<'a> {
    data: &'a TransformedGraph,
    config: &'a TurboHomConfig,
    query: &'a TransformedQuery,
    /// The query tree the regions are grown along.
    pub(crate) tree: QueryTree,
    /// The run's inline FILTERs, tested here.
    pub(crate) split: FilterSplit<'a>,
    filters: Vec<VertexFilter<'a>>,
    /// Per query vertex: the labels its adjacency list is selected by. `L(u)`
    /// itself, or under `+SUM` what of it the tree edge's predicate does not
    /// already imply of whoever is reached over it.
    lookup_labels: Vec<Vec<VLabel>>,
    /// Per query vertex: the signature bits a data vertex must have to be
    /// let in (`+SUM`); nothing is tested where this is 0.
    need: Vec<u64>,
}

impl<'a> RegionExplorer<'a> {
    /// Prepares the exploration of `query`'s regions along `tree` under the
    /// run's FILTERs, `split`.
    pub fn new(
        data: &'a TransformedGraph,
        config: &'a TurboHomConfig,
        query: &'a TransformedQuery,
        tree: QueryTree,
        split: FilterSplit<'a>,
    ) -> Self {
        let vertices = 0..query.graph.vertex_count();
        let filters = vertices
            .clone()
            .map(|u| VertexFilter::new(data, config, query, u))
            .collect();
        let summary = config.optimizations.schema_summary;
        // What arriving over the tree edge proves of a candidate of `u`: it
        // is on the child's side of an edge with that predicate.
        let arrival = |u: usize| {
            let edge = tree.parent[u].filter(|_| summary)?;
            let predicate = data.csr_label(query.graph.edge(edge.edge).label)?;
            Some((predicate, edge.direction.reverse()))
        };
        let lookup_labels = vertices
            .clone()
            .map(|u| {
                let mut labels = query.graph.vertex(u).labels.clone();
                if let Some((predicate, side)) = arrival(u) {
                    let implied = data.predicates.implied_labels(predicate, side);
                    labels.retain(|l| !implied.contains(l));
                }
                labels
            })
            .collect();
        let need = vertices
            .map(|u| {
                if !summary {
                    return 0;
                }
                // Ask for the predicate of every edge `u` demands, and then
                // only what the summary cannot prove.
                let mut need = 0;
                for (_, ei, side) in query.demands(u) {
                    if let Some(predicate) = data.csr_label(query.graph.edge(ei).label) {
                        need |= signature_bit(predicate, side);
                    }
                }
                if let Some((predicate, side)) = arrival(u) {
                    let common = data.predicates.common_signature(predicate, side);
                    need &= !(signature_bit(predicate, side) | common);
                }
                need
            })
            .collect();
        RegionExplorer {
            data,
            config,
            query,
            tree,
            split,
            filters,
            lookup_labels,
            need,
        }
    }

    /// The labels the adjacency list of query vertex `u` is selected by:
    /// fewer than `L(u)` where the tree edge's predicate implies the rest.
    pub fn lookup_labels(&self, u: usize) -> &[VLabel] {
        &self.lookup_labels[u]
    }

    /// The signature bits a candidate of `u` is asked for (0: not asked).
    pub fn signature_need(&self, u: usize) -> u64 {
        self.need[u]
    }

    /// Whether the signature of `v` lacks a bit of `need`: `v` then has no
    /// edge of any predicate folding onto that bit, the needed one included.
    /// A vertex nothing is asked of is not looked up at all.
    fn lacks_needed_edge(&self, need: u64, v: VertexId, stats: &mut MatchStats) -> bool {
        let lacks = need != 0 && self.data.predicates.signature(v) & need != need;
        stats.signature_pruned += usize::from(lacks);
        lacks
    }

    /// Grows in `region` the candidate region rooted at `start`. Returns
    /// `false` if some *required* query vertex has no candidates anywhere in
    /// the region, which means the region cannot contribute any solution and
    /// is skipped (Algorithm 1, line 10); what `region` then holds is
    /// unspecified.
    pub fn explore(
        &self,
        region: &mut CandidateRegion,
        start: VertexId,
        stats: &mut MatchStats,
    ) -> bool {
        region.reset(self.query.graph.vertex_count(), start);
        let root = self.tree.root;
        if self.lacks_needed_edge(self.need[root], start, stats)
            || !self.split.passes(root, start, stats)
        {
            return false;
        }
        region.counts[self.tree.root] = 1;
        if self.config.semantics == MatchSemantics::Isomorphism {
            region.path.push(start);
        }
        let alive = self.subtree(region, self.tree.root, start, stats);
        if alive {
            stats.candidate_vertices += region.total_candidates();
        }
        alive
    }

    /// Recursive exploration of the subtree rooted at query vertex `u`, whose
    /// candidate data vertex is `v`. Returns `false` if a required descendant
    /// cannot be matched under `v`.
    fn subtree(
        &self,
        region: &mut CandidateRegion,
        u: usize,
        v: VertexId,
        stats: &mut MatchStats,
    ) -> bool {
        // Injectivity is enforced along the exploration path for the
        // isomorphism semantics (Section 2.2).
        let injective = self.config.semantics == MatchSemantics::Isomorphism;
        for &child in &self.tree.children[u] {
            let edge = self.tree.parent[child].expect("child has a parent tree edge");
            let label = self.query.graph.edge(edge.edge).label;
            let lookup_labels = &self.lookup_labels[child];
            let raw = self.data.adjacent(v, edge.direction, label, lookup_labels);
            stats.explored_vertices += raw.len();

            // The adjacency list is selected by the child's labels (those
            // the predicate implies included), so a neighbor is checked one
            // by one only if the ID attribute, a filter, its signature or an
            // inline FILTER can still turn it down.
            let filter = &self.filters[child];
            let checked = filter.can_reject();
            let need = self.need[child];
            let asked = need != 0;
            let filtered = !self.split.inline[child].is_empty();
            let from;
            if !checked && !asked && !filtered && !injective && self.tree.children[child].is_empty()
            {
                from = region.pool.len();
                region.pool.extend_from_slice(&raw);
            } else {
                let mark = region.staging.len();
                for &c in raw.iter() {
                    if self.lacks_needed_edge(need, c, stats) {
                        continue;
                    }
                    if checked && !filter.qualifies(self.data, c, stats) {
                        continue;
                    }
                    if filtered && !self.split.passes(child, c, stats) {
                        continue;
                    }
                    if injective {
                        if region.path.contains(&c) {
                            continue;
                        }
                        region.path.push(c);
                    }
                    let alive = self.subtree(region, child, c, stats);
                    if injective {
                        region.path.pop();
                    }
                    if alive {
                        region.staging.push(c);
                    }
                }
                // The lists of the descendants lie in the pool by now; this
                // one follows them.
                from = region.pool.len();
                region.pool.extend_from_slice(&region.staging[mark..]);
                region.staging.truncate(mark);
            }

            let child_is_required = self.query.vertex_clause[child].is_none();
            if region.pool.len() == from && child_is_required {
                return false;
            }
            region.record(child, v, from);
        }
        true
    }
}

/// Grows the candidate region rooted at `start` in structures of its own.
/// Returns `None` if the region is dead (see [`RegionExplorer::explore`]).
#[cfg(test)]
pub(crate) fn explore_candidate_region(
    data: &TransformedGraph,
    dictionary: &turbohom_rdf::Dictionary,
    config: &TurboHomConfig,
    query: &TransformedQuery,
    tree: &QueryTree,
    start: VertexId,
    stats: &mut MatchStats,
) -> Option<CandidateRegion> {
    let mut region = CandidateRegion::default();
    let split = FilterSplit::new(dictionary, query, &[]);
    RegionExplorer::new(data, config, query, tree.clone(), split)
        .explore(&mut region, start, stats)
        .then_some(region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::start_vertex;
    use turbohom_rdf::{vocab, Dataset};
    use turbohom_sparql::parse_query;
    use turbohom_transform::{transform_branch, type_aware_transform};

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

    /// Builds the data graph of paper Figure 2b (the matching-order example):
    /// one A vertex connected to 10 X vertices, 10000 scaled down to 100 Y
    /// vertices, and 5 Z vertices; each X vertex also connects to 10 Ys and
    /// each Y to nothing else; Zs hang off the A vertex only.
    fn figure2_dataset(ys: usize) -> Dataset {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("a0"), vocab::RDF_TYPE, &ub("A"));
        for i in 0..10 {
            let x = ub(&format!("x{i}"));
            ds.insert_iris(&x, vocab::RDF_TYPE, &ub("X"));
            ds.insert_iris(&ub("a0"), &ub("edge"), &x);
        }
        for i in 0..ys {
            let y = ub(&format!("y{i}"));
            ds.insert_iris(&y, vocab::RDF_TYPE, &ub("Y"));
            ds.insert_iris(&ub("a0"), &ub("edge"), &y);
        }
        for i in 0..5 {
            let z = ub(&format!("z{i}"));
            ds.insert_iris(&z, vocab::RDF_TYPE, &ub("Z"));
            ds.insert_iris(&ub("a0"), &ub("edge"), &z);
        }
        ds.dedup();
        ds
    }

    const STAR_QUERY: &str = r#"
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX ub: <http://ub.org/>
        SELECT ?a ?x ?y ?z WHERE {
            ?a rdf:type ub:A .
            ?x rdf:type ub:X . ?y rdf:type ub:Y . ?z rdf:type ub:Z .
            ?a ub:edge ?x . ?a ub:edge ?y . ?a ub:edge ?z .
        }"#;

    fn setup(ys: usize) -> (Dataset, TransformedGraph, TransformedQuery) {
        let ds = figure2_dataset(ys);
        let t = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let q = parse_query(STAR_QUERY).unwrap();
        let tq = transform_branch(&q.pattern, &t, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        (ds, t, tq)
    }

    #[test]
    fn region_counts_match_figure2_structure() {
        let (ds, t, tq) = setup(100);
        let config = TurboHomConfig::default();
        let mut stats = MatchStats::default();
        let sel = start_vertex::choose_start_vertex(&t, &config, &tq, None, &mut stats);
        // The A vertex has one candidate region.
        assert_eq!(sel.start_vertices.len(), 1);
        let a = tq.graph.vertex_of_variable("a").unwrap();
        assert_eq!(sel.query_vertex, a);
        let tree = QueryTree::build(&tq.graph, sel.query_vertex);
        let start = sel.start_vertices[0];
        let region =
            explore_candidate_region(&t, &ds.dictionary, &config, &tq, &tree, start, &mut stats)
                .expect("region exists");
        let x = tq.graph.vertex_of_variable("x").unwrap();
        let y = tq.graph.vertex_of_variable("y").unwrap();
        let z = tq.graph.vertex_of_variable("z").unwrap();
        assert_eq!(region.count(x), 10);
        assert_eq!(region.count(y), 100);
        assert_eq!(region.count(z), 5);
        assert_eq!(region.count(a), 1);
        assert_eq!(region.total_candidates(), 116);
        assert_eq!(stats.candidate_vertices, 116);
    }

    #[test]
    fn missing_required_child_kills_the_region() {
        // No Z vertices at all → the region from a0 must fail.
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("a0"), vocab::RDF_TYPE, &ub("A"));
        ds.insert_iris(&ub("x0"), vocab::RDF_TYPE, &ub("X"));
        ds.insert_iris(&ub("y0"), vocab::RDF_TYPE, &ub("Y"));
        ds.insert_iris(&ub("a0"), &ub("edge"), &ub("x0"));
        ds.insert_iris(&ub("a0"), &ub("edge"), &ub("y0"));
        // Note: no Z typed vertex and no third edge.
        ds.dedup();
        let t = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let q = parse_query(STAR_QUERY).unwrap();
        let tq = transform_branch(&q.pattern, &t, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        // The query mentions class Z which exists nowhere: already
        // unsatisfiable at transformation time.
        assert!(tq.unsatisfiable);
    }

    #[test]
    fn region_fails_when_edge_exists_but_label_mismatches() {
        let (ds, _, _) = {
            let ds = figure2_dataset(3);
            let t = type_aware_transform(ds.triples.clone(), &ds.dictionary);
            let q = parse_query(STAR_QUERY).unwrap();
            let tq = transform_branch(&q.pattern, &t, &ds.dictionary)
                .unwrap()
                .components
                .remove(0);
            (ds, t, tq)
        };
        // Query asking for a `wrongEdge` predicate that exists in the data
        // dictionary but never with an A-subject.
        let mut ds2 = ds.clone();
        ds2.insert_iris(&ub("y0"), &ub("wrongEdge"), &ub("y1"));
        ds2.dedup();
        let t2 = type_aware_transform(ds2.triples.clone(), &ds2.dictionary);
        let q2 = parse_query(
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?a ?x WHERE { ?a rdf:type ub:A . ?x rdf:type ub:X . ?a ub:wrongEdge ?x . }"#,
        )
        .unwrap();
        let tq2 = transform_branch(&q2.pattern, &t2, &ds2.dictionary)
            .unwrap()
            .components
            .remove(0);
        assert!(!tq2.unsatisfiable);
        let config = TurboHomConfig::default();
        let mut stats = MatchStats::default();
        let sel = start_vertex::choose_start_vertex(&t2, &config, &tq2, None, &mut stats);
        let tree = QueryTree::build(&tq2.graph, sel.query_vertex);
        for &vs in sel.start_vertices.iter() {
            let dictionary = &ds2.dictionary;
            let region =
                explore_candidate_region(&t2, dictionary, &config, &tq2, &tree, vs, &mut stats);
            assert!(region.is_none());
        }
    }

    #[test]
    fn optional_child_with_no_candidates_keeps_region_alive() {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("p1"), vocab::RDF_TYPE, &ub("Product"));
        ds.insert_iris(&ub("p1"), &ub("price"), &ub("cheap"));
        ds.dedup();
        let t = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let q = parse_query(
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?p ?price ?r WHERE {
                 ?p rdf:type ub:Product . ?p ub:price ?price .
                 OPTIONAL { ?p ub:rating ?r . }
               }"#,
        )
        .unwrap();
        let tq = transform_branch(&q.pattern, &t, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        // `rating` is unknown, but it only occurs in an OPTIONAL clause: the
        // query stays satisfiable and the region exploration must not fail —
        // the optional child simply has no candidates.
        assert!(!tq.unsatisfiable);
        let config = TurboHomConfig::default();
        let mut stats = MatchStats::default();
        let p = tq.graph.vertex_of_variable("p").unwrap();
        let tree = QueryTree::build(&tq.graph, p);
        let start = VertexId::of_term(ds.dictionary.id_of_iri(&ub("p1")).unwrap());
        let region =
            explore_candidate_region(&t, &ds.dictionary, &config, &tq, &tree, start, &mut stats);
        assert!(region.is_some());
        let region = region.unwrap();
        let r = tq.graph.vertex_of_variable("r").unwrap();
        assert_eq!(region.count(r), 0);
        assert!(region.candidates(r, start).is_empty());
    }

    #[test]
    fn isomorphism_path_injectivity_prunes_revisits() {
        // Data: a → b → a (cycle). Query path x -e-> y -e-> z.
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("a"), &ub("e"), &ub("b"));
        ds.insert_iris(&ub("b"), &ub("e"), &ub("a"));
        ds.dedup();
        let t = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let q = parse_query(
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?x ?y ?z WHERE { ?x ub:e ?y . ?y ub:e ?z . }"#,
        )
        .unwrap();
        let tq = transform_branch(&q.pattern, &t, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        let x = tq.graph.vertex_of_variable("x").unwrap();
        let z = tq.graph.vertex_of_variable("z").unwrap();
        let tree = QueryTree::build(&tq.graph, x);
        let a = VertexId::of_term(ds.dictionary.id_of_iri(&ub("a")).unwrap());
        let mut stats = MatchStats::default();
        let mut explore = |config: &TurboHomConfig| {
            explore_candidate_region(&t, &ds.dictionary, config, &tq, &tree, a, &mut stats)
        };

        // Homomorphism: z may map back onto a (the path a→b→a is allowed).
        let hom = explore(&TurboHomConfig::default()).unwrap();
        assert_eq!(hom.count(z), 1);

        // Isomorphism: revisiting a on the exploration path is pruned, so the
        // region dies (z has no candidate distinct from a and b... b is the
        // y-mapping, a is on the path).
        let iso = explore(&TurboHomConfig::isomorphism());
        assert!(iso.is_none());
    }

    #[test]
    fn one_arena_serves_regions_of_any_size_and_revisits_reuse_their_span() {
        // A path query a → b → c → d. From `big`, 100 b's all lead to the one
        // c0, which leads to two d's: (c, bN) is recorded a hundred times
        // under different keys (the index outgrows its first 64 slots) and
        // (d, c0) a hundred times under the same key. From `small`, one of
        // each. `dead` has a b without a c.
        let mut ds = Dataset::new();
        for i in 0..100 {
            ds.insert_iris(&ub("big"), &ub("ab"), &ub(&format!("b{i}")));
            ds.insert_iris(&ub(&format!("b{i}")), &ub("bc"), &ub("c0"));
        }
        ds.insert_iris(&ub("c0"), &ub("cd"), &ub("d0"));
        ds.insert_iris(&ub("c0"), &ub("cd"), &ub("d1"));
        ds.insert_iris(&ub("small"), &ub("ab"), &ub("b_small"));
        ds.insert_iris(&ub("b_small"), &ub("bc"), &ub("c_small"));
        ds.insert_iris(&ub("c_small"), &ub("cd"), &ub("d_small"));
        ds.insert_iris(&ub("dead"), &ub("ab"), &ub("b_dead"));
        ds.dedup();
        let t = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let q = parse_query(
            r#"PREFIX ub: <http://ub.org/>
               SELECT * WHERE { ?a ub:ab ?b . ?b ub:bc ?c . ?c ub:cd ?d . }"#,
        )
        .unwrap();
        let tq = transform_branch(&q.pattern, &t, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|v| tq.graph.vertex_of_variable(v).unwrap());
        let tree = QueryTree::build(&tq.graph, a);
        let vertex = |name: &str| VertexId::of_term(ds.dictionary.id_of_iri(&ub(name)).unwrap());
        let config = TurboHomConfig::default();
        let split = FilterSplit::new(&ds.dictionary, &tq, &[]);
        let explorer = RegionExplorer::new(&t, &config, &tq, tree, split);
        let mut stats = MatchStats::default();
        let mut region = CandidateRegion::default();

        for round in 0..2 {
            assert!(explorer.explore(&mut region, vertex("big"), &mut stats));
            assert_eq!(region.start_vertex, vertex("big"));
            assert_eq!(region.candidates(b, vertex("big")).len(), 100);
            for i in [0, 63, 64, 99] {
                let bi = vertex(&format!("b{i}"));
                assert_eq!(region.candidates(c, bi), [vertex("c0")]);
            }
            let mut ds_of_c0 = [vertex("d0"), vertex("d1")];
            ds_of_c0.sort();
            assert_eq!(region.candidates(d, vertex("c0")), ds_of_c0);
            // Every visit counts, as it always did …
            assert_eq!((region.count(c), region.count(d)), (100, 200));
            // … but the hundred lists of (d, c0) share one span of the pool.
            assert_eq!(region.pool.len(), 100 + 100 + 2, "round {round}");

            assert!(explorer.explore(&mut region, vertex("small"), &mut stats));
            assert_eq!(region.candidates(d, vertex("c_small")), [vertex("d_small")]);
            assert_eq!(region.total_candidates(), 4);
            // Nothing of the big region is left to be found.
            assert!(region.candidates(b, vertex("big")).is_empty());
            assert!(region.candidates(d, vertex("c0")).is_empty());

            assert!(!explorer.explore(&mut region, vertex("dead"), &mut stats));
        }
    }

    #[test]
    fn span_index_survives_the_generation_counter_wrapping() {
        let mut index = SpanIndex {
            generation: u32::MAX - 1,
            ..SpanIndex::default()
        };
        let key = SpanIndex::key(3, VertexId(7));
        for round in 0..4 {
            index.clear();
            assert!(index.generation >= 1);
            assert!(index.get(key).is_none(), "round {round}");
            index.entry(key).len = round + 1;
            assert_eq!(index.get(key).map(|slot| slot.len), Some(round + 1));
            assert_eq!(index.live, 1);
        }
    }
}
