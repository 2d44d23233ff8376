//! The three sorted triple permutations the join baselines scan.
//!
//! RDF-3X materializes the triple table in all six attribute orders so that
//! every scan comes back sorted on whatever variable its merge join wants.
//! The joins here sort their own inputs, so a scan only has to be one
//! binary-searched range, and three orders give that: the bound positions
//! of any triple pattern are a key prefix of SPO (`s`, `s p`, `s p o`), of
//! POS (`p`, `p o`) or of OSP (`o`, `o s`). [`PermutationIndexes`] keeps
//! those three in memory. It is never stored: three sorts of the triples
//! rebuild it, so a store builds it for the first plan that names a join
//! baseline and a snapshot carries no copy.

use turbohom_rdf::{TermId, Triple};
use turbohom_storage::{FlatVec, MemoryUse};

/// A triple pattern over term ids; `None` marks a variable position.
pub type IdPattern = (Option<TermId>, Option<TermId>, Option<TermId>);

/// A triple's sort key in one table's order.
type Key = fn(&Triple) -> [TermId; 3];

const SPO: Key = |t| [t.s, t.p, t.o];
const POS: Key = |t| [t.p, t.o, t.s];
const OSP: Key = |t| [t.o, t.s, t.p];

/// The triple table sorted in the orders SPO, POS and OSP.
#[derive(Debug, Clone)]
pub struct PermutationIndexes {
    spo: FlatVec<Triple>,
    pos: FlatVec<Triple>,
    osp: FlatVec<Triple>,
}

impl PermutationIndexes {
    /// Builds the three orders of `triples`, which must be distinct: the
    /// triples are collected once, and each order sorts its own copy.
    pub fn build(triples: impl IntoIterator<Item = Triple>) -> Self {
        let mut spo: Vec<Triple> = triples.into_iter().collect();
        let (mut pos, mut osp) = (spo.clone(), spo.clone());
        spo.sort_unstable_by_key(SPO);
        pos.sort_unstable_by_key(POS);
        osp.sort_unstable_by_key(OSP);
        PermutationIndexes {
            spo: spo.into(),
            pos: pos.into(),
            osp: osp.into(),
        }
    }

    /// Bytes of each of the three tables, under its order's name.
    pub fn memory(&self) -> [(&'static str, MemoryUse); 3] {
        [
            ("spo", (&self.spo).into()),
            ("pos", (&self.pos).into()),
            ("osp", (&self.osp).into()),
        ]
    }

    /// The triples matching `pattern`: the range of the table whose key
    /// starts with the pattern's bound positions.
    pub fn scan(&self, (s, p, o): IdPattern) -> &[Triple] {
        let (table, key, bound) = match (s, p, o) {
            // `? ? o` and `s ? o`.
            (_, None, Some(_)) => (&self.osp, OSP, [o, s, p]),
            // `? p ?` and `? p o`.
            (None, Some(_), _) => (&self.pos, POS, [p, o, s]),
            // `? ? ?`, `s ? ?`, `s p ?` and `s p o`.
            _ => (&self.spo, SPO, [s, p, o]),
        };
        let n = bound.iter().take_while(|b| b.is_some()).count();
        let cmp = |t: &Triple| key(t).map(Some)[..n].cmp(&bound[..n]);
        let lower = table.partition_point(|t| cmp(t).is_lt());
        let upper = table.partition_point(|t| cmp(t).is_le());
        &table[lower..upper]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;

    fn id(n: u32) -> TermId {
        TermId(n)
    }

    /// The pattern of one bound shape (bit 2: subject, 1: predicate, 0:
    /// object) with `probe`'s terms as its constants.
    fn pattern(shape: u8, probe: Triple) -> IdPattern {
        let bound = |bit: u8, term: TermId| (shape & bit != 0).then_some(term);
        (bound(4, probe.s), bound(2, probe.p), bound(1, probe.o))
    }

    proptest::proptest! {
        /// Every bound shape, with constants taken from the data (present)
        /// and drawn from a range past its terms (often absent), scans
        /// exactly the triples a brute-force filter keeps, as one range of
        /// one table.
        #[test]
        fn scans_are_table_ranges_holding_the_brute_force_matches(
            data in vec((0u32..6, 0u32..4, 0u32..6), 0..60),
            probes in vec((0u32..8, 0u32..6, 0u32..8), 1..6),
        ) {
            let mut triples: Vec<Triple> =
                data.iter().map(|&(s, p, o)| Triple::new(id(s), id(p), id(o))).collect();
            triples.sort_unstable();
            triples.dedup();
            let idx = PermutationIndexes::build(triples.iter().rev().copied());
            let probes = probes.iter().map(|&(s, p, o)| Triple::new(id(s), id(p), id(o)));
            for probe in triples.iter().copied().chain(probes) {
                for shape in 0..8 {
                    let (s, p, o) = pattern(shape, probe);
                    let scanned = idx.scan((s, p, o));
                    let within = |table: &[Triple]| {
                        let range = table.as_ptr_range();
                        let slice = scanned.as_ptr_range();
                        range.start <= slice.start && slice.end <= range.end
                    };
                    proptest::prop_assert!(
                        [&idx.spo, &idx.pos, &idx.osp].iter().any(|table| within(table)),
                        "{s:?} {p:?} {o:?} is no range of a table"
                    );
                    let mut scanned = scanned.to_vec();
                    scanned.sort_unstable();
                    let brute: Vec<Triple> = triples
                        .iter()
                        .filter(|t| {
                            s.is_none_or(|x| t.s == x)
                                && p.is_none_or(|x| t.p == x)
                                && o.is_none_or(|x| t.o == x)
                        })
                        .copied()
                        .collect();
                    proptest::prop_assert_eq!(scanned, brute, "{:?} {:?} {:?}", s, p, o);
                }
            }
        }
    }

    #[test]
    fn empty_tables_scan_nothing() {
        let idx = PermutationIndexes::build([]);
        let probe = Triple::new(id(0), id(0), id(0));
        assert!((0..8).all(|shape| idx.scan(pattern(shape, probe)).is_empty()));
    }
}
