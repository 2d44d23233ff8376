//! Sorted-set kernels.
//!
//! The `+INT` optimization of the paper replaces per-candidate binary-search
//! `IsJoinable` probes by one k-way intersection between the candidate list
//! and the adjacency lists of already-matched vertices (Section 4.3). The
//! paper's complexity argument — `min(O(|CR| + Σ|adj|), O(|CR| · Σ log|adj|))`
//! — corresponds to choosing between the linear merge and the galloping
//! (binary-search) strategy; [`intersect_adaptive`] makes that choice per
//! pair based on the size ratio.
//!
//! All functions require their inputs to be strictly increasing sequences
//! (sorted, duplicate free), which is what the CSR builder produces.

use crate::ids::VertexId;

/// Returns `true` if `values` is strictly increasing (a canonical sorted set).
pub fn is_sorted_set(values: &[VertexId]) -> bool {
    values.windows(2).all(|w| w[0] < w[1])
}

/// Runs a kernel that fills a caller-owned buffer on a fresh one.
fn collected(fill: impl FnOnce(&mut Vec<VertexId>)) -> Vec<VertexId> {
    let mut out = Vec::new();
    fill(&mut out);
    out
}

/// [`intersect_merge_into`] a fresh vector.
pub fn intersect_merge(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    collected(|out| intersect_merge_into(a, b, out))
}

/// [`intersect_galloping_into`] a fresh vector.
pub fn intersect_galloping(small: &[VertexId], large: &[VertexId]) -> Vec<VertexId> {
    collected(|out| intersect_galloping_into(small, large, out))
}

/// [`intersect_adaptive_into`] a fresh vector.
pub fn intersect_adaptive(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    collected(|out| intersect_adaptive_into(a, b, out))
}

/// [`intersect_k_into`] fresh vectors. Returns the empty set when `lists` is
/// empty.
pub fn intersect_k(lists: &[&[VertexId]]) -> Vec<VertexId> {
    collected(|out| intersect_k_into(lists, out, &mut Vec::new()))
}

/// Linear merge intersection of two sorted sets into a caller-owned buffer
/// (cleared first).
pub fn intersect_merge_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Galloping (exponential search) intersection into a caller-owned buffer
/// (cleared first): probes each element of the smaller set into the larger
/// one. Wins when the sizes are very skewed, mirroring the binary-search
/// flavour of the original `IsJoinable`.
pub fn intersect_galloping_into(small: &[VertexId], large: &[VertexId], out: &mut Vec<VertexId>) {
    debug_assert!(small.len() <= large.len());
    out.clear();
    let mut lo = 0usize;
    for &x in small {
        // Exponential search for x in large[lo..].
        let mut step = 1usize;
        let mut hi = lo;
        while hi < large.len() && large[hi] < x {
            lo = hi + 1;
            hi = lo + step;
            step *= 2;
        }
        // Include index `hi` itself in the window: the loop stopped because
        // large[hi] >= x, so large[hi] may be exactly x.
        let hi = (hi + 1).min(large.len());
        match large[lo..hi].binary_search(&x) {
            Ok(pos) => {
                out.push(x);
                lo += pos + 1;
            }
            Err(pos) => {
                lo += pos;
            }
        }
        if lo >= large.len() {
            break;
        }
    }
}

/// Intersection into a caller-owned buffer (cleared first) that picks merge
/// or galloping based on the size ratio of the two inputs. The crossover
/// constant 16 follows the usual rule of thumb (galloping pays off when one
/// list is more than an order of magnitude smaller).
pub fn intersect_adaptive_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if large.len() / small.len().max(1) >= 16 {
        intersect_galloping_into(small, large, out);
    } else {
        intersect_merge_into(small, large, out);
    }
}

/// k-way intersection of sorted sets, smallest-first to keep intermediate
/// results minimal, into caller-owned buffers, ping-ponging between `out`
/// and `scratch` so the enumeration hot path allocates nothing per call. The
/// result always ends up in `out`; `scratch` holds garbage afterwards.
pub fn intersect_k_into(
    lists: &[&[VertexId]],
    out: &mut Vec<VertexId>,
    scratch: &mut Vec<VertexId>,
) {
    out.clear();
    match lists.len() {
        0 => {}
        1 => out.extend_from_slice(lists[0]),
        2 => intersect_adaptive_into(lists[0], lists[1], out),
        _ => {
            let mut order: Vec<usize> = (0..lists.len()).collect();
            order.sort_by_key(|&i| lists[i].len());
            intersect_adaptive_into(lists[order[0]], lists[order[1]], out);
            for &i in &order[2..] {
                if out.is_empty() {
                    break;
                }
                intersect_adaptive_into(out, lists[i], scratch);
                std::mem::swap(out, scratch);
            }
        }
    }
}

/// Union of two sorted sets.
pub fn union_sorted(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Union of many sorted sets (used when a blank edge/vertex label forces the
/// engine to union several neighbor-type groups, Section 4.2).
pub fn union_k(lists: &[&[VertexId]]) -> Vec<VertexId> {
    match lists.len() {
        0 => Vec::new(),
        1 => lists[0].to_vec(),
        _ => {
            // Simple doubling merge; list counts here are small (bounded by
            // the number of neighbor types of one vertex).
            let mut acc = union_sorted(lists[0], lists[1]);
            for l in &lists[2..] {
                acc = union_sorted(&acc, l);
            }
            acc
        }
    }
}

/// Binary-search membership test in a sorted set.
#[inline]
pub fn contains_sorted(set: &[VertexId], value: VertexId) -> bool {
    set.binary_search(&value).is_ok()
}

/// Sorts and deduplicates a vector in place, producing a canonical sorted set.
pub fn canonicalize(values: &mut Vec<VertexId>) {
    values.sort_unstable();
    values.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    #[test]
    fn sorted_set_detection() {
        assert!(is_sorted_set(&vs(&[1, 2, 5])));
        assert!(is_sorted_set(&vs(&[])));
        assert!(!is_sorted_set(&vs(&[1, 1, 2])));
        assert!(!is_sorted_set(&vs(&[3, 2])));
    }

    #[test]
    fn merge_intersection_basic() {
        assert_eq!(
            intersect_merge(&vs(&[1, 3, 5, 7]), &vs(&[2, 3, 4, 7, 9])),
            vs(&[3, 7])
        );
        assert_eq!(intersect_merge(&vs(&[]), &vs(&[1, 2])), vs(&[]));
    }

    #[test]
    fn galloping_matches_merge() {
        let small = vs(&[5, 100, 900, 901]);
        let large: Vec<VertexId> = (0..1000).map(VertexId).collect();
        assert_eq!(
            intersect_galloping(&small, &large),
            intersect_merge(&small, &large)
        );
    }

    #[test]
    fn galloping_handles_disjoint_and_exhausted_inputs() {
        let small = vs(&[2000, 3000]);
        let large: Vec<VertexId> = (0..100).map(VertexId).collect();
        assert!(intersect_galloping(&small, &large).is_empty());
        let small2 = vs(&[1, 99]);
        assert_eq!(intersect_galloping(&small2, &large), vs(&[1, 99]));
    }

    #[test]
    fn adaptive_equals_merge_on_random_inputs() {
        // Deterministic pseudo-random without external crates.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..50 {
            let mut a: Vec<VertexId> = (0..(next() % 200))
                .map(|_| VertexId((next() % 500) as u32))
                .collect();
            let mut b: Vec<VertexId> = (0..(next() % 40))
                .map(|_| VertexId((next() % 500) as u32))
                .collect();
            canonicalize(&mut a);
            canonicalize(&mut b);
            assert_eq!(intersect_adaptive(&a, &b), intersect_merge(&a, &b));
        }
    }

    #[test]
    fn k_way_intersection() {
        let a = vs(&[1, 2, 3, 4, 5, 6]);
        let b = vs(&[2, 4, 6, 8]);
        let c = vs(&[4, 5, 6, 7]);
        assert_eq!(intersect_k(&[&a, &b, &c]), vs(&[4, 6]));
        assert_eq!(intersect_k(&[]), vs(&[]));
        assert_eq!(intersect_k(&[&a]), a);
    }

    #[test]
    fn k_way_intersection_short_circuits_on_empty() {
        let a = vs(&[1, 2, 3]);
        let b = vs(&[4, 5]);
        let c = vs(&[1, 2]);
        assert_eq!(intersect_k(&[&a, &b, &c]), vs(&[]));
    }

    #[test]
    fn into_variants_match_allocating_versions() {
        let a = vs(&[1, 2, 3, 4, 5, 6]);
        let b = vs(&[2, 4, 6, 8]);
        let c = vs(&[4, 5, 6, 7]);
        let mut out = vs(&[99, 99]); // stale content must be cleared
        let mut scratch = Vec::new();
        intersect_merge_into(&a, &b, &mut out);
        assert_eq!(out, intersect_merge(&a, &b));
        intersect_galloping_into(&b, &a, &mut out);
        assert_eq!(out, intersect_galloping(&b, &a));
        intersect_adaptive_into(&a, &b, &mut out);
        assert_eq!(out, intersect_adaptive(&a, &b));
        intersect_k_into(&[&a, &b, &c], &mut out, &mut scratch);
        assert_eq!(out, intersect_k(&[&a, &b, &c]));
        intersect_k_into(&[], &mut out, &mut scratch);
        assert!(out.is_empty());
        intersect_k_into(&[&a], &mut out, &mut scratch);
        assert_eq!(out, a);
        intersect_k_into(&[&a, &b], &mut out, &mut scratch);
        assert_eq!(out, intersect_k(&[&a, &b]));
    }

    #[test]
    fn unions() {
        assert_eq!(
            union_sorted(&vs(&[1, 3, 5]), &vs(&[2, 3, 6])),
            vs(&[1, 2, 3, 5, 6])
        );
        let a = vs(&[1, 4]);
        let b = vs(&[2, 4]);
        let c = vs(&[0, 9]);
        assert_eq!(union_k(&[&a, &b, &c]), vs(&[0, 1, 2, 4, 9]));
        assert_eq!(union_k(&[]), vs(&[]));
    }

    #[test]
    fn contains_sorted_works() {
        let a = vs(&[1, 5, 9]);
        assert!(contains_sorted(&a, VertexId(5)));
        assert!(!contains_sorted(&a, VertexId(4)));
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        let mut v = vs(&[5, 1, 5, 3, 1]);
        canonicalize(&mut v);
        assert_eq!(v, vs(&[1, 3, 5]));
        assert!(is_sorted_set(&v));
    }
}
