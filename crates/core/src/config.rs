//! Engine configuration: matching semantics, optimization toggles, threading.

/// The matching semantics.
///
/// The generic backtracking framework supports both; the RDF pattern
/// matching semantics is the (e-graph) homomorphism, obtained from subgraph
/// isomorphism "by just removing the injectivity constraint" (Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchSemantics {
    /// Injective mapping: no two query vertices may map to the same data
    /// vertex (classic subgraph isomorphism, Definition 1).
    Isomorphism,
    /// Non-injective mapping with edge-label assignment — the SPARQL
    /// semantics (e-graph homomorphism, Definition 2).
    #[default]
    Homomorphism,
}

/// The four optimizations of Section 4.3 and this reproduction's fifth,
/// individually toggleable so the Figure 15 ablation can be reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Optimizations {
    /// `+INT`: perform the `IsJoinable` test as one k-way intersection
    /// between the candidate list and the adjacency lists of the already
    /// matched non-tree neighbors, instead of per-candidate binary searches.
    pub intersection_joinable: bool,
    /// NLF filter in `ExploreCandidateRegion`. The paper *disables* it for
    /// RDF data (`-NLF`), so `false` means the optimization is applied.
    pub nlf_filter: bool,
    /// Degree filter in `ExploreCandidateRegion`. The paper *disables* it
    /// (`-DEG`), so `false` means the optimization is applied.
    pub degree_filter: bool,
    /// `+REUSE`: compute the matching order for the first candidate region
    /// only and reuse it for all the others.
    pub reuse_matching_order: bool,
    /// `+SUM` (not in the paper): read the predicate index's schema summary
    /// once per plan — select adjacency by the query vertex's labels minus
    /// those its tree edge's (or join's) predicate implies, and ask a
    /// candidate's predicate signature for the edges the query needs of it
    /// before the region descends into it.
    pub schema_summary: bool,
}

impl Optimizations {
    /// The TurboHOM++ configuration: the paper's four optimizations applied
    /// (+INT, −NLF, −DEG, +REUSE), and +SUM.
    pub fn all() -> Self {
        Optimizations {
            intersection_joinable: true,
            nlf_filter: false,
            degree_filter: false,
            reuse_matching_order: true,
            schema_summary: true,
        }
    }

    /// The plain TurboHOM configuration (direct port of TurboISO): no +INT,
    /// filters enabled, per-region matching orders.
    pub fn none() -> Self {
        Optimizations {
            intersection_joinable: false,
            nlf_filter: true,
            degree_filter: true,
            reuse_matching_order: false,
            schema_summary: false,
        }
    }

    /// Applies a single named optimization on top of [`Optimizations::none`]
    /// — the setting used by the Figure 15 ablation ("applying these
    /// optimizations separately").
    pub fn only(name: OptimizationName) -> Self {
        let mut o = Optimizations::none();
        match name {
            OptimizationName::Intersection => o.intersection_joinable = true,
            OptimizationName::DisableNlf => o.nlf_filter = false,
            OptimizationName::DisableDegree => o.degree_filter = false,
            OptimizationName::ReuseMatchingOrder => o.reuse_matching_order = true,
            OptimizationName::SchemaSummary => o.schema_summary = true,
        }
        o
    }
}

impl Default for Optimizations {
    fn default() -> Self {
        Optimizations::all()
    }
}

/// The names of the optimizations (used by the ablation harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizationName {
    /// `+INT`
    Intersection,
    /// `-NLF`
    DisableNlf,
    /// `-DEG`
    DisableDegree,
    /// `+REUSE`
    ReuseMatchingOrder,
    /// `+SUM`
    SchemaSummary,
}

impl OptimizationName {
    /// The paper's four in the order it lists them, then `+SUM`.
    pub fn all() -> [OptimizationName; 5] {
        [
            OptimizationName::Intersection,
            OptimizationName::DisableNlf,
            OptimizationName::DisableDegree,
            OptimizationName::ReuseMatchingOrder,
            OptimizationName::SchemaSummary,
        ]
    }

    /// The paper's label for the optimization.
    pub fn label(&self) -> &'static str {
        match self {
            OptimizationName::Intersection => "+INT",
            OptimizationName::DisableNlf => "-NLF",
            OptimizationName::DisableDegree => "-DEG",
            OptimizationName::ReuseMatchingOrder => "+REUSE",
            OptimizationName::SchemaSummary => "+SUM",
        }
    }
}

/// The full engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TurboHomConfig {
    /// Isomorphism or homomorphism.
    pub semantics: MatchSemantics,
    /// Optimization toggles.
    pub optimizations: Optimizations,
    /// Number of worker threads for candidate-region-parallel execution
    /// (Section 5.2). `1` means sequential.
    pub threads: usize,
    /// When `true`, solutions are counted but not materialized (useful for
    /// the largest benchmark runs).
    pub count_only: bool,
}

impl Default for TurboHomConfig {
    fn default() -> Self {
        TurboHomConfig {
            semantics: MatchSemantics::Homomorphism,
            optimizations: Optimizations::all(),
            threads: 1,
            count_only: false,
        }
    }
}

impl TurboHomConfig {
    /// The TurboHOM++ configuration of the paper's main experiments
    /// (homomorphism, all optimizations, single thread).
    pub fn turbohom_plus_plus() -> Self {
        Self::default()
    }

    /// The plain TurboHOM configuration (direct transformation companion):
    /// homomorphism semantics, no optimizations.
    pub fn turbohom() -> Self {
        TurboHomConfig {
            optimizations: Optimizations::none(),
            ..Self::default()
        }
    }

    /// Classic subgraph isomorphism (used by the correctness tests against
    /// the worked example of Figure 1).
    pub fn isomorphism() -> Self {
        TurboHomConfig {
            semantics: MatchSemantics::Isomorphism,
            ..Self::default()
        }
    }

    /// Returns a copy with the given thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns a copy with the given optimizations.
    pub fn with_optimizations(mut self, optimizations: Optimizations) -> Self {
        self.optimizations = optimizations;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_turbohom_plus_plus() {
        let c = TurboHomConfig::default();
        assert_eq!(c.semantics, MatchSemantics::Homomorphism);
        assert!(c.optimizations.intersection_joinable);
        assert!(!c.optimizations.nlf_filter);
        assert!(!c.optimizations.degree_filter);
        assert!(c.optimizations.reuse_matching_order);
        assert!(c.optimizations.schema_summary);
        assert_eq!(c.threads, 1);
    }

    #[test]
    fn turbohom_disables_all_optimizations() {
        let c = TurboHomConfig::turbohom();
        assert_eq!(c.optimizations, Optimizations::none());
        assert!(c.optimizations.nlf_filter);
        assert!(c.optimizations.degree_filter);
        assert!(!c.optimizations.schema_summary);
    }

    #[test]
    fn only_applies_exactly_one() {
        let int = Optimizations::only(OptimizationName::Intersection);
        assert!(int.intersection_joinable);
        assert!(int.nlf_filter);
        assert!(int.degree_filter);
        assert!(!int.reuse_matching_order);

        let nlf = Optimizations::only(OptimizationName::DisableNlf);
        assert!(!nlf.nlf_filter);
        assert!(!nlf.intersection_joinable);

        let deg = Optimizations::only(OptimizationName::DisableDegree);
        assert!(!deg.degree_filter);

        let reuse = Optimizations::only(OptimizationName::ReuseMatchingOrder);
        assert!(reuse.reuse_matching_order);
        assert!(!reuse.schema_summary);
        let sum = Optimizations::only(OptimizationName::SchemaSummary);
        assert!(sum.schema_summary);
        assert!(!sum.reuse_matching_order);
    }

    #[test]
    fn labels_and_enumeration() {
        let labels: Vec<&str> = OptimizationName::all().iter().map(|o| o.label()).collect();
        assert_eq!(labels, vec!["+INT", "-NLF", "-DEG", "+REUSE", "+SUM"]);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(TurboHomConfig::default().with_threads(0).threads, 1);
        assert_eq!(TurboHomConfig::default().with_threads(8).threads, 8);
    }
}
