//! Property tests for the streaming pipeline: on random Zipf corpora,
//! every method running with `spill_to_disk = true` (and a sort buffer
//! tiny enough to force many spills) must agree exactly with the
//! brute-force oracle in `reference.rs` — chained rounds included.

use corpus::{generate, CorpusProfile};
use mapreduce::{Cluster, JobConfig, RunCodec};
use ngrams::{
    prepare_input, reference_cf, reference_df, Computation, CountMode, Gram, Method, NGramParams,
};
use proptest::prelude::*;

/// All runs go through the [`Computation`] builder — the one front door.
fn compute(
    cluster: &Cluster,
    coll: &corpus::Collection,
    method: Method,
    params: &NGramParams,
) -> mapreduce::Result<ngrams::NGramResult> {
    Computation::new(method, params).input(coll).run(cluster)
}

fn spilly_params(tau: u64, sigma: usize) -> NGramParams {
    let mut params = NGramParams::new(tau, sigma);
    params.job = JobConfig {
        spill_to_disk: true,
        sort_buffer_bytes: 256, // force repeated shuffle spills
        ..JobConfig::default()
    };
    // Force the APRIORI dictionaries / join buffers onto the kvstore path
    // as well, so the whole bounded-memory machinery is exercised.
    params.memory_budget_bytes = 1 << 10;
    params
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn all_methods_with_disk_spills_match_reference_cf(
        seed in 0u64..10_000,
        docs in 8usize..28,
        tau in 2u64..4,
        sigma in 2usize..5,
        codec in prop_oneof![
            Just(RunCodec::Plain),
            Just(RunCodec::FrontCoded),
            Just(RunCodec::PostingDelta),
        ],
    ) {
        let coll = generate(&CorpusProfile::tiny("zipf-prop", docs), seed);
        let cluster = Cluster::new(2);
        let mut params = spilly_params(tau, sigma);
        params.job.run_codec = codec;
        let input = prepare_input(&coll, tau, params.split_docs);
        let expected: Vec<(Gram, u64)> = reference_cf(&input, tau, sigma)
            .into_iter()
            .map(|(g, c)| (Gram(g), c))
            .collect();
        for method in Method::ALL {
            let got = compute(&cluster, &coll, method, &params)
                .unwrap_or_else(|e| panic!("{} failed: {e}", method.name()));
            prop_assert_eq!(
                &got.grams,
                &expected,
                "{} disagrees with the oracle (seed={}, docs={}, tau={}, sigma={}, codec={:?})",
                method.name(),
                seed,
                docs,
                tau,
                sigma,
                codec
            );
        }
    }

    #[test]
    fn df_mode_with_disk_spills_matches_reference(
        seed in 0u64..10_000,
        docs in 8usize..24,
        tau in 2u64..4,
    ) {
        let coll = generate(&CorpusProfile::tiny("zipf-df", docs), seed);
        let cluster = Cluster::new(2);
        let mut params = spilly_params(tau, 3);
        params.mode = CountMode::Df;
        let input = prepare_input(&coll, tau, params.split_docs);
        let expected: Vec<(Gram, u64)> = reference_df(&input, tau, 3)
            .into_iter()
            .map(|(g, c)| (Gram(g), c))
            .collect();
        for method in [Method::Naive, Method::AprioriScan, Method::AprioriIndex, Method::SuffixSigma] {
            let got = compute(&cluster, &coll, method, &params)
                .unwrap_or_else(|e| panic!("{} failed: {e}", method.name()));
            prop_assert_eq!(&got.grams, &expected, "{} df disagrees (seed={})", method.name(), seed);
        }
    }
}
