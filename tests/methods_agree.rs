//! Cross-method agreement: the paper's four algorithms are different
//! physical plans for the same logical query, so on any corpus and any
//! (τ, σ) they must produce identical results — and match a brute-force
//! oracle. Verified with hand-picked corpora and property-based testing.

use corpus::{Collection, Dictionary, Document};
use mapreduce::{Cluster, JobConfig};
use ngrams::{prepare_input, reference_cf, Computation, CountMode, Gram, Method, NGramParams};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// All runs go through the [`Computation`] builder — the one front door.
fn compute(
    cluster: &Cluster,
    coll: &Collection,
    method: Method,
    params: &NGramParams,
) -> mapreduce::Result<ngrams::NGramResult> {
    Computation::new(method, params).input(coll).run(cluster)
}

/// Build a collection straight from nested term-id vectors.
fn collection(docs: Vec<Vec<Vec<u32>>>) -> Collection {
    Collection {
        name: "prop".into(),
        docs: docs
            .into_iter()
            .enumerate()
            .map(|(i, sentences)| Document {
                id: i as u64,
                year: 2000 + (i % 5) as u16,
                sentences,
            })
            .collect(),
        dictionary: Dictionary::default(),
    }
}

fn oracle(coll: &Collection, tau: u64, sigma: usize, split: bool) -> Vec<(Gram, u64)> {
    let input = prepare_input(coll, tau, split);
    reference_cf(&input, tau, sigma)
        .into_iter()
        .map(|(g, c)| (Gram(g), c))
        .collect()
}

fn check_all_methods(coll: &Collection, tau: u64, sigma: usize) {
    let cluster = Cluster::new(2);
    let params = NGramParams {
        apriori_k: 2, // exercise the posting-list join phase
        ..NGramParams::new(tau, sigma)
    };
    let expected = oracle(coll, tau, sigma, params.split_docs);
    for method in Method::ALL {
        let got = compute(&cluster, coll, method, &params)
            .unwrap_or_else(|e| panic!("{} failed: {e}", method.name()));
        assert_eq!(
            got.grams,
            expected,
            "{} disagrees with oracle (tau={tau}, sigma={sigma})",
            method.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any corpus, any τ/σ: four methods, one answer.
    #[test]
    fn methods_agree_with_oracle(
        docs in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec(0u32..6, 0..10), // sentence
                1..4),                                  // sentences per doc
            1..7),                                      // docs
        tau in 1u64..5,
        sigma in 1usize..6,
    ) {
        check_all_methods(&collection(docs), tau, sigma);
    }

    /// Document splitting must never change the answer, only the cost.
    #[test]
    fn document_splits_preserve_results(
        docs in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec(0u32..8, 0..12),
                1..3),
            1..6),
        tau in 2u64..5,
        sigma in 1usize..5,
    ) {
        let coll = collection(docs);
        let cluster = Cluster::new(2);
        let with = compute(&cluster, &coll, Method::SuffixSigma, &NGramParams {
            split_docs: true, ..NGramParams::new(tau, sigma)
        }).unwrap();
        let without = compute(&cluster, &coll, Method::SuffixSigma, &NGramParams {
            split_docs: false, ..NGramParams::new(tau, sigma)
        }).unwrap();
        prop_assert_eq!(with.grams, without.grams);
    }
}

/// Every method's output on `coll`, in [`Method::ALL`] order.
fn all_methods(coll: &Collection, params: &NGramParams) -> Vec<Vec<(Gram, u64)>> {
    let cluster = Cluster::new(2);
    Method::ALL
        .iter()
        .map(|&method| {
            compute(&cluster, coll, method, params)
                .unwrap_or_else(|e| panic!("{} failed: {e}", method.name()))
                .grams
        })
        .collect()
}

/// The same documents as `coll` (ids, years and dictionary included),
/// listed in reverse order.
fn reversed_order(coll: &Collection) -> Collection {
    Collection {
        name: coll.name.clone(),
        docs: coll.docs.iter().rev().cloned().collect(),
        dictionary: coll.dictionary.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Metamorphic: the order of documents in a collection is not part of
    /// the query, so reversing it changes no method's output, in either
    /// count mode.
    #[test]
    fn reversing_document_order_changes_no_output(
        docs in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec(0u32..6, 0..10),
                1..4),
            1..7),
        tau in 1u64..4,
        sigma in 1usize..5,
        df in any::<bool>(),
    ) {
        let coll = collection(docs);
        let params = NGramParams {
            mode: if df { CountMode::Df } else { CountMode::Cf },
            apriori_k: 2,
            ..NGramParams::new(tau, sigma)
        };
        let forward = all_methods(&coll, &params);
        let backward = all_methods(&reversed_order(&coll), &params);
        for (method, (f, b)) in Method::ALL.iter().zip(forward.iter().zip(&backward)) {
            prop_assert_eq!(f, &forward[0], "{} disagrees with NAIVE", method.name());
            prop_assert_eq!(b, f, "{} changed under document reversal", method.name());
        }
    }

    /// Metamorphic: at τ = 1 nothing is filtered, so the cf of every gram
    /// in a corpus is the sum of its cfs in any two halves of it (both
    /// halves share the corpus's dictionary).
    #[test]
    fn cf_at_tau_one_is_additive_over_corpus_halves(
        docs in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec(0u32..6, 0..10),
                1..4),
            2..8),
        cut in 0usize..64,
        sigma in 1usize..5,
    ) {
        let whole = collection(docs);
        let mid = 1 + cut % (whole.docs.len() - 1);
        let half = |range: std::ops::Range<usize>| Collection {
            name: whole.name.clone(),
            docs: whole.docs[range].to_vec(),
            dictionary: whole.dictionary.clone(),
        };
        let (first, second) = (half(0..mid), half(mid..whole.docs.len()));
        let params = NGramParams {
            apriori_k: 2,
            ..NGramParams::new(1, sigma)
        };
        let whole_out = all_methods(&whole, &params);
        let first_out = all_methods(&first, &params);
        let second_out = all_methods(&second, &params);
        for (i, method) in Method::ALL.iter().enumerate() {
            let mut summed: BTreeMap<Gram, u64> = BTreeMap::new();
            for (gram, cf) in first_out[i].iter().chain(&second_out[i]) {
                *summed.entry(gram.clone()).or_default() += cf;
            }
            let summed: Vec<(Gram, u64)> = summed.into_iter().collect();
            prop_assert_eq!(
                &whole_out[i],
                &summed,
                "{} is not additive over halves split at {}",
                method.name(),
                mid
            );
        }
    }
}

#[test]
fn unbounded_sigma_and_tau_one() {
    // σ = ∞, τ = 1: every distinct subsequence is reported.
    let coll = collection(vec![vec![vec![1, 2, 1, 2]]]);
    check_all_methods(&coll, 1, usize::MAX);
}

#[test]
fn single_term_corpus() {
    let coll = collection(vec![vec![vec![5], vec![5]], vec![vec![5]]]);
    check_all_methods(&coll, 2, 3);
}

#[test]
fn corpus_of_empty_documents() {
    let coll = collection(vec![vec![vec![]], vec![]]);
    check_all_methods(&coll, 1, 3);
}

#[test]
fn repetitive_corpus_stresses_stack_merging() {
    // Long runs of one term make every prefix frequent — the worst case
    // for SUFFIX-σ's stack bookkeeping.
    let coll = collection(vec![vec![vec![3; 30]], vec![vec![3; 20]]]);
    check_all_methods(&coll, 5, 10);
}

#[test]
fn results_are_invariant_across_engine_configurations() {
    let coll = corpus::generate(&corpus::CorpusProfile::tiny("engine", 40), 3);
    let baseline = {
        let cluster = Cluster::new(1);
        compute(
            &cluster,
            &coll,
            Method::SuffixSigma,
            &NGramParams::new(2, 4),
        )
        .unwrap()
        .grams
    };
    for (slots, maps, reduces, spill, buffer) in [
        (1usize, 1usize, 1usize, false, usize::MAX),
        (4, 16, 5, false, 4096),
        (2, 7, 3, true, 512),
        (8, 32, 8, true, 256),
    ] {
        let cluster = Cluster::new(slots);
        let params = NGramParams {
            job: JobConfig {
                num_map_tasks: maps,
                num_reduce_tasks: reduces,
                spill_to_disk: spill,
                sort_buffer_bytes: buffer,
                ..JobConfig::default()
            },
            ..NGramParams::new(2, 4)
        };
        for method in Method::ALL {
            let got = compute(&cluster, &coll, method, &params).unwrap();
            assert_eq!(
                got.grams,
                baseline,
                "{} changed output under slots={slots} maps={maps} reduces={reduces} spill={spill}",
                method.name()
            );
        }
    }
}

#[test]
fn document_frequency_agrees_across_methods() {
    let coll = corpus::generate(&corpus::CorpusProfile::tiny("df", 30), 11);
    let cluster = Cluster::new(2);
    let params = NGramParams {
        mode: CountMode::Df,
        apriori_k: 2,
        ..NGramParams::new(2, 4)
    };
    let input = prepare_input(&coll, params.tau, params.split_docs);
    let expected: Vec<(Gram, u64)> = ngrams::reference_df(&input, params.tau, params.sigma)
        .into_iter()
        .map(|(g, c)| (Gram(g), c))
        .collect();
    for method in Method::ALL {
        let got = compute(&cluster, &coll, method, &params).unwrap();
        assert_eq!(got.grams, expected, "{} df disagrees", method.name());
    }
}
