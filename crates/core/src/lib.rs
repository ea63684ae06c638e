//! # n-gram statistics in MapReduce
//!
//! A faithful Rust implementation of *"Computing n-Gram Statistics in
//! MapReduce"* (Klaus Berberich & Srikanta Bedathur, EDBT 2013): given a
//! document collection, a minimum frequency τ and a maximum length σ,
//! find every n-gram occurring at least τ times, using one of four
//! MapReduce methods —
//!
//! * [`Method::Naive`] — word counting over all n-grams (Algorithm 1);
//! * [`Method::AprioriScan`] — one pruned scan per length (Algorithm 2);
//! * [`Method::AprioriIndex`] — incremental inverted index with
//!   posting-list joins (Algorithm 3);
//! * [`Method::SuffixSigma`] — the paper's contribution (Algorithm 4):
//!   suffix sorting & aggregation in a *single* job, with first-term
//!   partitioning, reverse lexicographic raw comparison, and a two-stack
//!   reducer whose memory is bounded by σ.
//!
//! Extensions from §VI: maximal/closed output ([`OutputMode`]), document
//! frequency ([`CountMode::Df`]), and per-year time series
//! ([`compute_time_series`]).
//!
//! ```
//! use ngrams::{Computation, Method, NGramParams};
//! use corpus::{generate, CorpusProfile};
//! use mapreduce::Cluster;
//!
//! let coll = generate(&CorpusProfile::tiny("doc", 20), 7);
//! let cluster = Cluster::new(2);
//! let params = NGramParams::new(/*tau*/ 3, /*sigma*/ 4);
//! let result = Computation::new(Method::SuffixSigma, &params)
//!     .input(&coll)
//!     .run(&cluster)
//!     .unwrap();
//! for (gram, cf) in result.grams.iter().take(3) {
//!     println!("{} : {}", coll.dictionary.decode(gram.terms()), cf);
//! }
//! ```

#![warn(missing_docs)]

mod aggregate;
mod apriori_index;
mod apriori_scan;
mod driver;
mod gram;
mod input;
mod maximal;
mod naive;
mod postings;
mod reference;
mod single_machine;
mod store_input;
mod suffix_sigma;
mod timeseries;

pub use aggregate::{CountAgg, CountMode, DfAgg, IndexAgg, PrefixAggregator, TsAgg};
pub use apriori_index::{
    apriori_index, apriori_index_postings, apriori_index_streamed, IndexMapper, IndexParams,
    IndexReducer, JoinMapper, JoinReducer, SeqList,
};
pub use apriori_scan::{
    apriori_scan, apriori_scan_streamed, CountingReducer, GramDict, ScanMapper, ScanParams,
};
pub use driver::{
    compute_inverted_index, compute_inverted_index_to_sink, compute_time_series,
    compute_time_series_to_sink, validate_params, Computation, ComputeInput, Method, NGramParams,
    NGramResult, NGramRunStats, OutputMode,
};
pub use gram::{lcp, reverse_lex, FirstTermPartitioner, Gram, ReverseLexComparator};
pub use input::{
    flatten_document, input_tokens, prepare_input, unigram_counts, InputProvider, InputSeq,
};
pub use maximal::{
    filter_suffix_side, filter_suffix_side_streamed, ReverseMapper, SuffixFilterReducer,
};
pub use naive::{NaiveMapper, NaiveReducer, SumCombiner};
pub use postings::{Posting, PostingList};
pub use reference::{
    is_subsequence, reference_cf, reference_closed, reference_df, reference_maximal, reference_ts,
};
pub use single_machine::suffix_sort_counts;
pub use store_input::{plan_splits, split_skew, CorpusSplitSource, CorpusSplitStream, StoreInput};
pub use suffix_sigma::{EmitFilter, StackReducer, SuffixMapper};
pub use timeseries::TimeSeries;
