//! Single-machine suffix sorting & aggregation: the non-distributed
//! ancestor of SUFFIX-σ.
//!
//! §VIII credits Yamamoto & Church with using suffix arrays "to compute
//! term frequency and document frequency for all substrings in a corpus";
//! SUFFIX-σ is that idea re-cast into MapReduce. This module provides the
//! in-memory equivalent as a baseline and as an independent oracle for
//! large inputs: sort all sentence-bounded, σ-truncated suffixes (a
//! pointer-based suffix array — no text is copied), then sweep them once
//! with the same lcp-driven stack aggregation the reducer uses.
//!
//! Sorting uses multikey (three-way radix) quicksort — Bentley &
//! Sedgewick's algorithm, the standard choice for sorting strings over
//! large alphabets — with insertion sort below a small threshold.

use crate::gram::Gram;
use crate::input::InputSeq;

/// Sort suffix slices in place with multikey quicksort over `u32` symbols.
///
/// `depth` is the number of already-equal leading symbols. Average
/// O(n log n + total matched symbols); never degenerates on heavy
/// duplication the way naive slice sort can, because equal prefixes are
/// partitioned once per depth, not re-compared per pair.
fn multikey_quicksort(suffixes: &mut [&[u32]], depth: usize) {
    const INSERTION_THRESHOLD: usize = 12;
    let n = suffixes.len();
    if n <= 1 {
        return;
    }
    if n <= INSERTION_THRESHOLD {
        suffixes.sort_unstable_by(|a, b| a[depth.min(a.len())..].cmp(&b[depth.min(b.len())..]));
        return;
    }
    // Symbol at `depth`, with None (exhausted suffix) sorting first.
    #[inline]
    fn sym(s: &[u32], depth: usize) -> i64 {
        s.get(depth).map_or(-1, |&t| i64::from(t))
    }
    // Median-of-three pivot choice.
    let pivot = {
        let a = sym(suffixes[0], depth);
        let b = sym(suffixes[n / 2], depth);
        let c = sym(suffixes[n - 1], depth);
        a.max(b.min(c)).min(b.max(c)) // median(a, b, c)
    };
    // Three-way partition by the symbol at `depth`.
    let (mut lt, mut i, mut gt) = (0usize, 0usize, n);
    while i < gt {
        let s = sym(suffixes[i], depth);
        match s.cmp(&pivot) {
            std::cmp::Ordering::Less => {
                suffixes.swap(lt, i);
                lt += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                gt -= 1;
                suffixes.swap(i, gt);
            }
            std::cmp::Ordering::Equal => i += 1,
        }
    }
    let (less, rest) = suffixes.split_at_mut(lt);
    let (equal, greater) = rest.split_at_mut(gt - lt);
    multikey_quicksort(less, depth);
    if pivot >= 0 {
        // All of `equal` share the symbol at `depth`; recurse one deeper.
        multikey_quicksort(equal, depth + 1);
    }
    multikey_quicksort(greater, depth);
}

/// Compute all n-grams with `cf ≥ tau` and `len ≤ sigma` on a single
/// machine by suffix sorting and one aggregation sweep.
///
/// Functionally identical to a [`crate::Computation`] with
/// [`crate::Method::SuffixSigma`]; exists as the in-memory baseline
/// (no shuffle, no serialization) and scales to corpora that fit in RAM.
pub fn suffix_sort_counts(input: &[(u64, InputSeq)], tau: u64, sigma: usize) -> Vec<(Gram, u64)> {
    // One pointer per position: the σ-truncated, sentence-bounded suffix.
    let mut suffixes: Vec<&[u32]> = Vec::new();
    for (_, seq) in input {
        let n = seq.terms.len();
        for b in 0..n {
            let end = b.saturating_add(sigma).min(n);
            suffixes.push(&seq.terms[b..end]);
        }
    }
    multikey_quicksort(&mut suffixes, 0);

    // Ascending lexicographic order visits extensions *after* their
    // prefixes, so an n-gram's total is complete when the next suffix no
    // longer starts with it — the mirror image of the reducer's sweep.
    let mut out: Vec<(Gram, u64)> = Vec::new();
    let mut stack_terms: Vec<u32> = Vec::new();
    let mut stack_counts: Vec<u64> = Vec::new();
    let emit_pops = |stack_terms: &mut Vec<u32>,
                     stack_counts: &mut Vec<u64>,
                     keep: usize,
                     out: &mut Vec<(Gram, u64)>| {
        while stack_terms.len() > keep {
            let count = stack_counts.pop().expect("stacks in sync");
            if count >= tau {
                out.push((Gram(stack_terms.clone()), count));
            }
            stack_terms.pop();
            if let Some(parent) = stack_counts.last_mut() {
                *parent += count;
            }
        }
    };
    for suffix in suffixes {
        let common = crate::gram::lcp(suffix, &stack_terms);
        emit_pops(&mut stack_terms, &mut stack_counts, common, &mut out);
        for &t in &suffix[common..] {
            stack_terms.push(t);
            stack_counts.push(0);
        }
        if let Some(top) = stack_counts.last_mut() {
            *top += 1;
        } else {
            // Empty suffix (can't happen: b < n) — nothing to count.
        }
    }
    emit_pops(&mut stack_terms, &mut stack_counts, 0, &mut out);
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_cf;

    fn seq(did: u64, terms: &[u32]) -> (u64, InputSeq) {
        (
            did,
            InputSeq {
                did,
                year: 2000,
                base: 0,
                terms: terms.to_vec(),
            },
        )
    }

    #[test]
    fn matches_reference_on_running_example() {
        let (a, b, x) = (2u32, 1u32, 0u32);
        let input = vec![
            seq(1, &[a, x, b, x, x]),
            seq(2, &[b, a, x, b, x]),
            seq(3, &[x, b, a, x, b]),
        ];
        let got = suffix_sort_counts(&input, 3, 3);
        let expected: Vec<(Gram, u64)> = reference_cf(&input, 3, 3)
            .into_iter()
            .map(|(g, c)| (Gram(g), c))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn multikey_quicksort_sorts_like_std() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        // Heavy duplication on a tiny alphabet: the adversarial case.
        let data: Vec<Vec<u32>> = (0..300)
            .map(|_| {
                let len = rng.random_range(0..20);
                (0..len).map(|_| rng.random_range(0..3u32)).collect()
            })
            .collect();
        let mut a: Vec<&[u32]> = data.iter().map(Vec::as_slice).collect();
        let mut b = a.clone();
        multikey_quicksort(&mut a, 0);
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn matches_reference_on_repetitive_input() {
        let input = vec![seq(0, &[1; 40]), seq(1, &[1; 25]), seq(2, &[1, 2, 1, 2, 1])];
        for (tau, sigma) in [(1, 3), (5, 10), (20, usize::MAX)] {
            let got = suffix_sort_counts(&input, tau, sigma);
            let expected: Vec<(Gram, u64)> = reference_cf(&input, tau, sigma)
                .into_iter()
                .map(|(g, c)| (Gram(g), c))
                .collect();
            assert_eq!(got, expected, "tau={tau} sigma={sigma}");
        }
    }

    #[test]
    fn empty_and_trivial_inputs() {
        assert!(suffix_sort_counts(&[], 1, 5).is_empty());
        let input = vec![seq(0, &[9])];
        assert_eq!(suffix_sort_counts(&input, 1, 5), vec![(Gram::new(&[9]), 1)]);
        assert!(suffix_sort_counts(&input, 2, 5).is_empty());
    }
}
