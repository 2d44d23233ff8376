//! The intermediate result representation of the join-based engines.
//!
//! A [`Relation`] is a flat table: a header of variable names and rows of
//! optional term ids (`None` only appears for variables introduced by an
//! OPTIONAL clause that did not match — the SQL `NULL` of a left outer
//! join).

use turbohom_rdf::TermId;

/// A named-column table of term-id rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Relation {
    /// Column names (SPARQL variable names, without `?`).
    pub vars: Vec<String>,
    /// Rows; each row has exactly `vars.len()` entries.
    pub rows: Vec<Vec<Option<TermId>>>,
}

impl Relation {
    /// An empty relation with the given header and no rows.
    pub fn empty(vars: Vec<String>) -> Self {
        Relation {
            vars,
            rows: Vec::new(),
        }
    }

    /// The "unit" relation: no columns, exactly one (empty) row. It is the
    /// identity of the join, used as the seed when folding a BGP.
    pub fn unit() -> Self {
        Relation {
            vars: Vec::new(),
            rows: vec![Vec::new()],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column index of `var`, if present.
    pub fn column(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// The value of `var` in `row`.
    pub fn value(&self, row: &[Option<TermId>], var: &str) -> Option<TermId> {
        self.column(var).and_then(|i| row[i])
    }

    /// The variables shared with another relation.
    pub fn shared_vars(&self, other: &Relation) -> Vec<String> {
        self.vars
            .iter()
            .filter(|v| other.column(v).is_some())
            .cloned()
            .collect()
    }

    /// Projects the relation onto `vars` (missing variables become all-`None`
    /// columns, matching SPARQL's treatment of unbound projections).
    pub fn project(&self, vars: &[String]) -> Relation {
        let indices: Vec<Option<usize>> = vars.iter().map(|v| self.column(v)).collect();
        let rows = self
            .rows
            .iter()
            .map(|row| {
                indices
                    .iter()
                    .map(|i| i.and_then(|i| row[i]))
                    .collect::<Vec<_>>()
            })
            .collect();
        Relation {
            vars: vars.to_vec(),
            rows,
        }
    }

    /// Appends another relation with the same header.
    ///
    /// # Panics
    /// Panics if the headers differ (callers align headers via [`project`](Relation::project)).
    pub fn append(&mut self, mut other: Relation) {
        assert_eq!(
            self.vars, other.vars,
            "appending relations with different headers"
        );
        self.rows.append(&mut other.rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> Option<TermId> {
        Some(TermId(n))
    }

    #[test]
    fn unit_and_empty() {
        let unit = Relation::unit();
        assert_eq!(unit.len(), 1);
        assert!(unit.vars.is_empty());
        let empty = Relation::empty(vec!["x".into()]);
        assert!(empty.is_empty());
    }

    #[test]
    fn column_lookup_and_value() {
        let r = Relation {
            vars: vec!["x".into(), "y".into()],
            rows: vec![vec![id(1), id(2)], vec![id(3), None]],
        };
        assert_eq!(r.column("y"), Some(1));
        assert_eq!(r.column("z"), None);
        assert_eq!(r.value(&r.rows[0], "y"), Some(TermId(2)));
        assert_eq!(r.value(&r.rows[1], "y"), None);
    }

    #[test]
    fn shared_vars_projection_and_append() {
        let a = Relation {
            vars: vec!["x".into(), "y".into()],
            rows: vec![vec![id(1), id(2)]],
        };
        let b = Relation {
            vars: vec!["y".into(), "z".into()],
            rows: vec![vec![id(2), id(9)]],
        };
        assert_eq!(a.shared_vars(&b), vec!["y"]);
        let projected = a.project(&["y".into(), "w".into()]);
        assert_eq!(projected.vars, vec!["y", "w"]);
        assert_eq!(projected.rows, vec![vec![id(2), None]]);

        let mut combined = a.project(&["x".into(), "y".into(), "z".into()]);
        combined.append(b.project(&["x".into(), "y".into(), "z".into()]));
        assert_eq!(combined.len(), 2);
        assert_eq!(combined.rows[1], vec![None, id(2), id(9)]);
    }

    #[test]
    #[should_panic(expected = "different headers")]
    fn append_with_mismatched_headers_panics() {
        let mut a = Relation::empty(vec!["x".into()]);
        a.append(Relation::empty(vec!["y".into()]));
    }
}
