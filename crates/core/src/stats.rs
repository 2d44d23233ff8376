//! Per-execution counters.
//!
//! The paper's analysis (Section 3, Section 7.3) is driven by profiling the
//! two dominant phases — `ExploreCandidateRegion` and `SubgraphSearch` — and
//! by counting `IsJoinable` work. These counters expose the same quantities
//! so the ablation benches and the tests can verify *why* an optimization
//! helps, not just that elapsed time changed.

/// Defines [`MatchStats`] from one list of counters: the struct, its
/// [`merge`](MatchStats::merge) and the [`counters`](MatchStats::counters)
/// table every served surface (`/stats`, `/metrics`) iterates, so that a
/// counter added here reaches all of them or does not compile.
macro_rules! match_stats {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Counters collected during one query execution.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct MatchStats {
            $($(#[$doc])* pub $name: usize,)*
        }

        impl MatchStats {
            /// How many counters there are.
            pub const COUNTERS: usize = [$(stringify!($name)),*].len();

            /// Every counter with its field name, in declaration order.
            pub fn counters(&self) -> [(&'static str, usize); Self::COUNTERS] {
                [$((stringify!($name), self.$name)),*]
            }

            /// Merges the counters of another execution slice (used when
            /// merging per-thread statistics).
            pub fn merge(&mut self, other: &MatchStats) {
                $(self.$name += other.$name;)*
            }

            #[cfg(test)]
            fn counters_mut(&mut self) -> [&mut usize; Self::COUNTERS] {
                [$(&mut self.$name),*]
            }
        }
    };
}

match_stats! {
    /// Number of starting data vertices considered (candidate regions tried).
    candidate_regions,
    /// Number of candidate regions that were non-empty.
    nonempty_regions,
    /// Total data vertices placed into candidate regions.
    candidate_vertices,
    /// Data vertices visited during candidate-region exploration.
    explored_vertices,
    /// Start vertices and candidates turned down by their predicate
    /// signature (`+SUM`) before the region descended into them.
    signature_pruned,
    /// Individual edge-existence probes performed by `IsJoinable`
    /// (the non-+INT path).
    isjoinable_probes,
    /// k-way intersection operations performed by the +INT path.
    intersection_ops,
    /// Recursive `SubgraphSearch` calls.
    search_recursions,
    /// Candidate vertices rejected by the degree filter.
    degree_filtered,
    /// Candidate vertices rejected by the NLF filter.
    nlf_filtered,
    /// Matching orders computed (`+REUSE` keeps this at 1).
    matching_orders_computed,
    /// Start vertices and candidates rejected by inline FILTERs (those of
    /// one required query vertex) while the regions grew.
    filtered_inline,
    /// Solutions rejected by expensive (post-hoc) FILTERs.
    filtered_post,
    /// Number of solutions reported.
    solutions,
    /// Chunks (contiguous runs of candidate-region start vertices) a pool's
    /// workers claimed from its shared cursor; zero when the run is inline.
    morsels,
    /// Shards that actually executed the query (stays zero on the
    /// single-store path; the sharded coordinator sets it to the number of
    /// live shards).
    shards_executed,
    /// Shards a constant anchor routed the query away from: they were
    /// neither planned nor executed.
    shards_pruned,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_every_counter_of_the_table() {
        let mut one = MatchStats::default();
        for (i, slot) in one.counters_mut().into_iter().enumerate() {
            *slot = i + 1;
        }
        let mut sum = one;
        sum.merge(&one);
        sum.merge(&MatchStats::default());
        for (i, (name, value)) in sum.counters().into_iter().enumerate() {
            assert_eq!(value, 2 * (i + 1), "{name}");
        }
    }

    #[test]
    fn the_table_names_the_fields_in_declaration_order() {
        let stats = MatchStats {
            candidate_regions: 7,
            shards_pruned: 9,
            ..MatchStats::default()
        };
        let table = stats.counters();
        assert_eq!(table.len(), MatchStats::COUNTERS);
        assert_eq!(table[0], ("candidate_regions", 7));
        assert_eq!(table[MatchStats::COUNTERS - 1], ("shards_pruned", 9));
        let mut names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MatchStats::COUNTERS);
        assert!(MatchStats::default().counters().iter().all(|c| c.1 == 0));
    }
}
