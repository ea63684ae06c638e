//! Map input from the block-structured corpus store: whole blocks become
//! the unit of split assignment, and sentence flattening plus the
//! document-splits-at-τ optimization (§V) run **lazily per block** inside
//! the map task — so a computation driven from a store never materializes
//! the collection, the prepared input vector, or more than one decoded
//! block per map task at a time.
//!
//! The τ-split needs per-term collection frequencies; the store's footer
//! carries the precomputed unigram counts, so no counting pass over the
//! corpus happens either. [`CorpusSplitSource`] yields bit-identical
//! records to `prepare_input(&reader.load_collection()?, τ, split)` — the
//! shared per-document flattener ([`crate::flatten_document`]) guarantees
//! it — differing only in which split each record lands in, which the
//! shuffle erases.

use crate::input::{flatten_document, InputProvider, InputSeq};
use corpus::CorpusReader;
use mapreduce::{InputStats, RecordSource, RecordStream, Result};
use std::sync::Arc;

/// Size-balanced (LPT — longest processing time first) assignment of a
/// store's blocks to `n` splits using the footer's block byte sizes:
/// blocks are placed largest-first onto the least-loaded split, then each
/// split's list is restored to file order so streams read forward.
/// Returns the per-split block lists and their byte loads.
///
/// This replaces round-robin placement, which ignores block sizes and can
/// leave one map task with all the oversized blocks (a block overshoots
/// the write budget by up to one document).
pub fn plan_splits(reader: &CorpusReader, n: usize) -> (Vec<Vec<usize>>, Vec<u64>) {
    let n = n.max(1);
    let mut order: Vec<usize> = (0..reader.num_blocks()).collect();
    order.sort_by_key(|&b| std::cmp::Reverse(reader.block_entry(b).bytes));
    let mut groups: Vec<Vec<usize>> = (0..n).map(|_| Vec::new()).collect();
    let mut loads: Vec<u64> = vec![0; n];
    for b in order {
        // First minimum = lowest split index on ties: deterministic.
        let (s, _) = loads
            .iter()
            .enumerate()
            .min_by_key(|&(_, &l)| l)
            .expect("n >= 1");
        groups[s].push(b);
        loads[s] += reader.block_entry(b).bytes;
    }
    for g in &mut groups {
        g.sort_unstable();
    }
    (groups, loads)
}

/// Per-split byte skew of a split plan: max load over mean non-zero-split
/// load (1.0 = perfectly even; 0.0 for an empty plan). The reporting
/// companion of [`plan_splits`].
pub fn split_skew(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    let max = loads.iter().copied().max().unwrap_or(0);
    if total == 0 {
        return 0.0;
    }
    let used = loads.iter().filter(|&&l| l > 0).count().max(1);
    max as f64 / (total as f64 / used as f64)
}

/// A [`RecordSource`] over a corpus store: splits are whole blocks,
/// assigned size-balanced (LPT over the footer's block byte sizes),
/// decoded and flattened on demand.
pub struct CorpusSplitSource {
    reader: Arc<CorpusReader>,
    tau: u64,
    split_at_tau: bool,
}

impl CorpusSplitSource {
    /// Source over every block of `reader`, flattening with the given τ
    /// and document-splitting setting.
    pub fn new(reader: Arc<CorpusReader>, tau: u64, split_at_tau: bool) -> Self {
        CorpusSplitSource {
            reader,
            tau,
            split_at_tau,
        }
    }
}

impl RecordSource<u64, InputSeq> for CorpusSplitSource {
    type Split = CorpusSplitStream;

    fn len_hint(&self) -> usize {
        // One record per sentence is exact without τ-splitting and an
        // upper-bound flavored estimate with it — good enough for the
        // map-task-count heuristic.
        usize::try_from(self.reader.meta().num_sentences).unwrap_or(usize::MAX)
    }

    fn into_splits(self, n: usize) -> Result<Vec<CorpusSplitStream>> {
        let (groups, _) = plan_splits(&self.reader, n);
        Ok(groups
            .into_iter()
            .map(|blocks| CorpusSplitStream {
                reader: Arc::clone(&self.reader),
                blocks,
                tau: self.tau,
                split_at_tau: self.split_at_tau,
                stats: InputStats::default(),
            })
            .collect())
    }
}

/// One map task's share of a store: a set of whole blocks, read with
/// positioned I/O and flattened one block at a time.
pub struct CorpusSplitStream {
    reader: Arc<CorpusReader>,
    blocks: Vec<usize>,
    tau: u64,
    split_at_tau: bool,
    stats: InputStats,
}

impl RecordStream<u64, InputSeq> for CorpusSplitStream {
    fn for_each(&mut self, f: &mut dyn FnMut(&u64, &InputSeq) -> Result<()>) -> Result<()> {
        let cfs = Arc::clone(self.reader.unigram_cf());
        let cf = move |t: u32| cfs.get(t as usize).copied().unwrap_or(0);
        let cf_ref: Option<&dyn Fn(u32) -> u64> = if self.split_at_tau { Some(&cf) } else { None };
        for &b in &self.blocks {
            let entry = self.reader.block_entry(b);
            let docs = self.reader.read_block(b)?;
            self.stats.bytes_read += entry.bytes;
            self.stats.raw_bytes += entry.raw_bytes;
            self.stats.blocks_read += 1;
            // The decoded block is what actually sits in memory, so the
            // residency witness tracks raw (post-codec) bytes; on a plain
            // store raw == on-disk and nothing changes.
            self.stats.peak_block_bytes = self.stats.peak_block_bytes.max(entry.raw_bytes);
            for d in &docs {
                flatten_document(
                    d.id,
                    d.year,
                    &d.sentences,
                    self.tau,
                    cf_ref,
                    &mut |did, seq| f(&did, &seq),
                )?;
            }
        }
        Ok(())
    }

    fn input_stats(&self) -> InputStats {
        self.stats
    }

    /// On-disk bytes this split will read — what LPT claim ordering in
    /// the job runner sorts by, so the biggest splits start first.
    fn predicted_cost(&self) -> u64 {
        self.blocks
            .iter()
            .map(|&b| self.reader.block_entry(b).bytes)
            .sum()
    }
}

/// [`InputProvider`] over a shared store reader: every round's source is a
/// metadata clone — re-opening costs no I/O, making the iterative APRIORI
/// drivers as store-friendly as the single-job methods.
pub struct StoreInput {
    reader: Arc<CorpusReader>,
    tau: u64,
    split_at_tau: bool,
}

impl StoreInput {
    /// Provider over `reader` with the computation's τ-splitting settings.
    pub fn new(reader: Arc<CorpusReader>, tau: u64, split_at_tau: bool) -> Self {
        StoreInput {
            reader,
            tau,
            split_at_tau,
        }
    }
}

impl InputProvider for StoreInput {
    type Source = CorpusSplitSource;

    fn source(&self) -> Result<CorpusSplitSource> {
        Ok(CorpusSplitSource::new(
            Arc::clone(&self.reader),
            self.tau,
            self.split_at_tau,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::prepare_input;
    use corpus::{generate, save_store, CorpusProfile};
    use std::path::PathBuf;

    fn temp_store(tag: &str, docs: usize, seed: u64) -> (PathBuf, corpus::Collection) {
        let coll = generate(&CorpusProfile::tiny("split-src", docs), seed);
        let path =
            std::env::temp_dir().join(format!("core-store-input-{}-{tag}.ngs", std::process::id()));
        save_store(&coll, &path).unwrap();
        (path, coll)
    }

    fn collect_all(source: CorpusSplitSource, n: usize) -> Vec<(u64, InputSeq)> {
        let mut out = Vec::new();
        for mut split in source.into_splits(n).unwrap() {
            split
                .for_each(&mut |&did, seq| {
                    out.push((did, seq.clone()));
                    Ok(())
                })
                .unwrap();
        }
        out.sort_by_key(|(did, seq)| (*did, seq.base));
        out
    }

    #[test]
    fn store_source_yields_exactly_prepare_input() {
        let (path, coll) = temp_store("exact", 30, 77);
        let reader = Arc::new(CorpusReader::open(&path).unwrap());
        for split_at_tau in [false, true] {
            for n in [1usize, 3] {
                let got = collect_all(
                    CorpusSplitSource::new(Arc::clone(&reader), 2, split_at_tau),
                    n,
                );
                let mut expected = prepare_input(&coll, 2, split_at_tau);
                expected.sort_by_key(|(did, seq)| (*did, seq.base));
                assert_eq!(got, expected, "split_at_tau={split_at_tau}, n={n}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lpt_split_plan_balances_bytes_and_covers_every_block() {
        let (path, _) = temp_store("lpt", 60, 13);
        let reader = CorpusReader::open(&path).unwrap();
        // Blocks here are near-uniform; the balance claim needs skewed
        // sizes, so fabricate loads for the skew comparison below and
        // check coverage/determinism on the real store.
        for n in [1usize, 2, 5] {
            let (groups, loads) = plan_splits(&reader, n);
            assert_eq!(groups.len(), n);
            let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..reader.num_blocks()).collect::<Vec<_>>());
            for (g, &load) in groups.iter().zip(&loads) {
                assert_eq!(
                    g.iter().map(|&b| reader.block_entry(b).bytes).sum::<u64>(),
                    load
                );
                assert!(g.windows(2).all(|w| w[0] < w[1]), "forward read order");
            }
            // LPT guarantee: no split exceeds mean + the largest block.
            let total: u64 = loads.iter().sum();
            let max_block = (0..reader.num_blocks())
                .map(|b| reader.block_entry(b).bytes)
                .max()
                .unwrap_or(0);
            let max_load = loads.iter().copied().max().unwrap_or(0);
            assert!(max_load <= total / n as u64 + max_block);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn byte_skew_reports_imbalance() {
        assert_eq!(split_skew(&[]), 0.0);
        assert_eq!(split_skew(&[0, 0]), 0.0);
        assert!((split_skew(&[100, 100]) - 1.0).abs() < 1e-12);
        // One split with everything, one empty: skew counts used splits.
        assert!((split_skew(&[200, 0]) - 1.0).abs() < 1e-12);
        assert!(split_skew(&[300, 100]) > 1.4);
    }

    #[test]
    fn split_streams_report_block_io() {
        let (path, _) = temp_store("stats", 25, 5);
        let reader = Arc::new(CorpusReader::open(&path).unwrap());
        let data_bytes = reader.meta().data_bytes;
        let splits = CorpusSplitSource::new(Arc::clone(&reader), 2, true)
            .into_splits(2)
            .unwrap();
        let mut total = InputStats::default();
        for mut s in splits {
            s.for_each(&mut |_, _| Ok(())).unwrap();
            let st = s.input_stats();
            total.bytes_read += st.bytes_read;
            total.raw_bytes += st.raw_bytes;
            total.blocks_read += st.blocks_read;
            total.peak_block_bytes = total.peak_block_bytes.max(st.peak_block_bytes);
        }
        assert_eq!(total.bytes_read, data_bytes);
        // Plain store: decoded bytes equal on-disk bytes.
        assert_eq!(total.raw_bytes, data_bytes);
        assert_eq!(total.blocks_read, reader.num_blocks() as u64);
        assert!(total.peak_block_bytes > 0);
        assert!(total.peak_block_bytes <= data_bytes);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compressed_store_streams_report_raw_bytes_and_raw_peak() {
        let coll = generate(&CorpusProfile::tiny("split-src-rank", 150), 31);
        let path =
            std::env::temp_dir().join(format!("core-store-input-rank-{}.ngs", std::process::id()));
        corpus::save_store_codec(&coll, &path, corpus::StoreCodec::Rank).unwrap();
        let reader = Arc::new(CorpusReader::open(&path).unwrap());
        let meta = reader.meta().clone();
        assert!(
            meta.data_bytes < meta.raw_data_bytes,
            "store must actually compress for this test to witness anything"
        );
        let splits = CorpusSplitSource::new(Arc::clone(&reader), 2, true)
            .into_splits(2)
            .unwrap();
        let mut total = InputStats::default();
        let mut max_raw_entry = 0u64;
        for mut s in splits {
            let cost = s.predicted_cost();
            s.for_each(&mut |_, _| Ok(())).unwrap();
            let st = s.input_stats();
            assert_eq!(cost, st.bytes_read, "predicted cost is on-disk bytes");
            total.bytes_read += st.bytes_read;
            total.raw_bytes += st.raw_bytes;
            total.peak_block_bytes = total.peak_block_bytes.max(st.peak_block_bytes);
        }
        for b in 0..reader.num_blocks() {
            max_raw_entry = max_raw_entry.max(reader.block_entry(b).raw_bytes);
        }
        assert_eq!(total.bytes_read, meta.data_bytes);
        assert_eq!(total.raw_bytes, meta.raw_data_bytes);
        // Peak tracks the *decoded* block, one resident at a time.
        assert_eq!(total.peak_block_bytes, max_raw_entry);
        let _ = std::fs::remove_file(&path);
    }
}
