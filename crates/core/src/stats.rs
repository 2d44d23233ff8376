//! Per-execution counters.
//!
//! The paper's analysis (Section 3, Section 7.3) is driven by profiling the
//! two dominant phases — `ExploreCandidateRegion` and `SubgraphSearch` — and
//! by counting `IsJoinable` work. These counters expose the same quantities
//! so the ablation benches and the tests can verify *why* an optimization
//! helps, not just that elapsed time changed.

/// Counters collected during one query execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MatchStats {
    /// Number of starting data vertices considered (candidate regions tried).
    pub candidate_regions: usize,
    /// Number of candidate regions that were non-empty.
    pub nonempty_regions: usize,
    /// Total data vertices placed into candidate regions.
    pub candidate_vertices: usize,
    /// Data vertices visited during candidate-region exploration.
    pub explored_vertices: usize,
    /// Start vertices and candidates turned down by their predicate
    /// signature (`+SUM`) before the region descended into them.
    pub signature_pruned: usize,
    /// Individual edge-existence probes performed by `IsJoinable`
    /// (the non-+INT path).
    pub isjoinable_probes: usize,
    /// k-way intersection operations performed by the +INT path.
    pub intersection_ops: usize,
    /// Recursive `SubgraphSearch` calls.
    pub search_recursions: usize,
    /// Candidate vertices rejected by the degree filter.
    pub degree_filtered: usize,
    /// Candidate vertices rejected by the NLF filter.
    pub nlf_filtered: usize,
    /// Matching orders computed (`+REUSE` keeps this at 1).
    pub matching_orders_computed: usize,
    /// Solutions rejected by cheap (inline) FILTERs.
    pub filtered_inline: usize,
    /// Solutions rejected by expensive (post-hoc) FILTERs.
    pub filtered_post: usize,
    /// Number of solutions reported.
    pub solutions: usize,
    /// Morsels (contiguous runs of candidate-region start vertices) executed
    /// by the work-stealing scheduler.
    pub morsels: usize,
    /// Morsels obtained by stealing from another worker's range.
    pub morsels_stolen: usize,
    /// Shards that actually executed the query (stays zero on the
    /// single-store path; the sharded coordinator sets it to the live-set
    /// size after summary pruning).
    pub shards_executed: usize,
    /// Shards skipped entirely by summary-graph pruning before any
    /// candidate-region computation ran.
    pub shards_pruned: usize,
}

impl MatchStats {
    /// Merges the counters of another execution slice (used when merging
    /// per-thread statistics).
    pub fn merge(&mut self, other: &MatchStats) {
        self.candidate_regions += other.candidate_regions;
        self.nonempty_regions += other.nonempty_regions;
        self.candidate_vertices += other.candidate_vertices;
        self.explored_vertices += other.explored_vertices;
        self.signature_pruned += other.signature_pruned;
        self.isjoinable_probes += other.isjoinable_probes;
        self.intersection_ops += other.intersection_ops;
        self.search_recursions += other.search_recursions;
        self.degree_filtered += other.degree_filtered;
        self.nlf_filtered += other.nlf_filtered;
        self.matching_orders_computed += other.matching_orders_computed;
        self.filtered_inline += other.filtered_inline;
        self.filtered_post += other.filtered_post;
        self.solutions += other.solutions;
        self.morsels += other.morsels;
        self.morsels_stolen += other.morsels_stolen;
        self.shards_executed += other.shards_executed;
        self.shards_pruned += other.shards_pruned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = MatchStats {
            candidate_regions: 1,
            solutions: 2,
            isjoinable_probes: 3,
            ..MatchStats::default()
        };
        let b = MatchStats {
            candidate_regions: 10,
            solutions: 20,
            intersection_ops: 5,
            ..MatchStats::default()
        };
        a.merge(&b);
        assert_eq!(a.candidate_regions, 11);
        assert_eq!(a.solutions, 22);
        assert_eq!(a.isjoinable_probes, 3);
        assert_eq!(a.intersection_ops, 5);
    }

    #[test]
    fn default_is_all_zero() {
        let s = MatchStats::default();
        assert_eq!(s.candidate_regions, 0);
        assert_eq!(s.solutions, 0);
    }
}
